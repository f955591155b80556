"""Codec tests: template conformance, roundtrips, error taxonomy."""

import pytest
from hypothesis import given, settings, strategies as st

from ssmmp import wire
from ssmmp.wire import (InvalidMessage, Message, MessageType as MT,
                        SubType as ST, TemplateMismatchError,
                        UnknownTypeError, WireSyntaxError)


# -- published templates ------------------------------------------------------

def test_initiation_request_bytes():
    m = wire.make_message(MT.INITIATION_REQUEST, 7,
                          agent_network_address="fd00::a1",
                          service_repository="(A; B)")
    assert wire.serialize_message(m) == (
        b"type: initiation_request\n"
        b"message_id: 7\n"
        b"agent_network_address: fd00::a1\n"
        b"service_repository: (A; B)\n"
        b"\n")


def test_graceful_shutdown_response_bytes():
    m = wire.make_message(MT.GRACEFUL_SHUTDOWN_RESPONSE, 9,
                          ST.AGENT_TO_MANAGER, status=200)
    assert wire.serialize_message(m) == (
        b"type: graceful_shutdown_response\n"
        b"message_id: 9\n"
        b"sub_type: agent_to_Manager\n"
        b"status: 200\n"
        b"\n")


def test_execution_request_parses():
    data = (b"type: execution_request\n"
            b"message_id: 3\n"
            b"agent_network_address: fd00::a1\n"
            b"service_name: service-1\n"
            b"service_instance_id: 1\n"
            b"socket_configuration: ((S2, 20000))\n"
            b"plug_configuration: ((P6, service-4); (P7, service-3))\n"
            b"\n")
    m = wire.parse_message(data)
    assert m.msg_type is MT.EXECUTION_REQUEST
    assert m.sub_type is None
    assert wire.parse_socket_config(m.get("socket_configuration")) == [("S2", 20000)]
    assert wire.parse_plug_config(m.get("plug_configuration")) == [
        ("P6", "service-4"), ("P7", "service-3")]
    assert wire.serialize_message(m) == data


def test_session_templates_follow_knowledge_lists():
    source_fields = wire.TEMPLATES[
        (MT.SOURCE_SESSION_CLOSE_INFO, ST.SOURCE_SERVICE_TO_AGENT)]
    dest_fields = wire.TEMPLATES[
        (MT.DEST_SESSION_CLOSE_INFO, ST.DEST_SERVICE_TO_AGENT)]
    assert "dest_service_instance_id" not in source_fields
    assert len(source_fields) == 10
    assert "source_service_instance_id" not in dest_fields
    assert "source_service_name" not in dest_fields
    assert len(dest_fields) == 9
    # the mirrored close requests use the same knowledge sets
    assert wire.TEMPLATES[
        (MT.SOURCE_SESSION_CLOSE_REQUEST, ST.MANAGER_TO_AGENT)] == source_fields
    assert wire.TEMPLATES[
        (MT.DEST_SESSION_CLOSE_REQUEST, ST.MANAGER_TO_AGENT)] == dest_fields


def test_relay_pairs_differ_only_in_route_tag():
    pairs = [
        (MT.SESSION_RESPONSE, ST.MANAGER_TO_AGENT, ST.AGENT_TO_SERVICE),
        (MT.SESSION_ACK, ST.SERVICE_TO_AGENT, ST.AGENT_TO_MANAGER),
        (MT.SOURCE_SESSION_CLOSE_REQUEST, ST.MANAGER_TO_AGENT,
         ST.AGENT_TO_SOURCE_SERVICE),
        (MT.GRACEFUL_SHUTDOWN_REQUEST, ST.MANAGER_TO_AGENT,
         ST.AGENT_TO_SERVICE_INSTANCE),
        (MT.HEALTH_CONTROL_RESPONSE, ST.SERVICE_INSTANCE_TO_AGENT,
         ST.AGENT_TO_MANAGER),
    ]
    for msg_type, sub_in, sub_out in pairs:
        assert wire.TEMPLATES[(msg_type, sub_in)] == wire.TEMPLATES[
            (msg_type, sub_out)]


def test_upward_session_request_adds_agent_address_only():
    down = wire.TEMPLATES[(MT.SESSION_REQUEST, ST.SERVICE_TO_AGENT)]
    up = wire.TEMPLATES[(MT.SESSION_REQUEST, ST.AGENT_TO_MANAGER)]
    assert up == ("agent_network_address",) + down


def test_variant_count_covers_both_relay_directions():
    assert len(wire.TEMPLATES) >= 24


# -- roundtrip properties -----------------------------------------------------

_TOKENS = st.text(alphabet="AByz09_.-", min_size=1, max_size=8)
_SAMPLES_BY_KIND = {
    "address": st.sampled_from(["fd00::a1", "fd00::2", "10.0.0.7", "::1"]),
    "token": _TOKENS,
    "id": st.integers(min_value=1, max_value=10**9),
    "port": st.integers(min_value=1, max_value=65535),
    "status": st.integers(min_value=100, max_value=599),
    "name_list": st.lists(_TOKENS, max_size=4).map(wire.format_name_list),
    "socket_config": st.lists(
        st.tuples(_TOKENS, st.integers(min_value=1, max_value=65535)),
        max_size=3).map(wire.format_pair_list),
    "plug_config": st.lists(st.tuples(_TOKENS, _TOKENS), max_size=3).map(
        wire.format_pair_list),
}


@st.composite
def messages(draw):
    msg_type, sub_type = draw(st.sampled_from(sorted(
        wire.TEMPLATES, key=lambda k: (k[0].value, k[1].value if k[1] else ""))))
    mid = draw(st.integers(min_value=1, max_value=10**6))
    values = {name: draw(_SAMPLES_BY_KIND[wire.FIELD_KINDS[name]])
              for name in wire.TEMPLATES[(msg_type, sub_type)]}
    return wire.make_message(msg_type, mid, sub_type, **values)


@given(messages())
@settings(max_examples=300, deadline=None)
def test_roundtrip_identity(m):
    data = wire.serialize_message(m)
    assert wire.parse_message(data) == m
    assert wire.serialize_message(wire.parse_message(data)) == data


@given(st.lists(_TOKENS, max_size=6))
def test_name_list_roundtrip(names):
    assert wire.parse_name_list(wire.format_name_list(names)) == names


def test_list_roundtrips_over_1000_random_inputs():
    import random
    rng = random.Random(1000)
    alphabet = "abcXYZ019_.-"

    def token():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))

    for _ in range(1000):
        names = [token() for _ in range(rng.randint(0, 6))]
        assert wire.parse_name_list(wire.format_name_list(names)) == names
        pairs = [(token(), rng.randint(1, 65535))
                 for _ in range(rng.randint(0, 4))]
        text = wire.format_pair_list(pairs)
        assert wire.parse_socket_config(text) == pairs


def test_name_list_forms():
    assert wire.format_name_list(["A", "B"]) == "(A; B)"
    assert wire.format_name_list([]) == "()"
    assert wire.parse_name_list("()") == []
    with pytest.raises(WireSyntaxError):
        wire.parse_name_list("(A; B")
    with pytest.raises(WireSyntaxError):
        wire.format_name_list(["a b"])


def test_pair_list_forms():
    assert wire.format_pair_list([("S2", 20001)]) == "((S2, 20001))"
    assert wire.format_pair_list([]) == "()"
    assert wire.parse_pair_list("((S2, 20001); (S3, 80))") == [
        ("S2", "20001"), ("S3", "80")]
    with pytest.raises(WireSyntaxError):
        wire.parse_pair_list("((S2 20001))")
    with pytest.raises(WireSyntaxError):
        wire.parse_socket_config("((S2, 70000))")


def test_reader_reassembles_split_frames():
    m1 = wire.make_message(MT.INITIATION_RESPONSE, 1, status=200)
    m2 = wire.make_message(MT.EXECUTION_RESPONSE, 2, status=201)
    data = wire.serialize_message(m1) + wire.serialize_message(m2)
    reader = wire.MessageReader()
    got = []
    for i in range(0, len(data), 7):
        got.extend(reader.feed(data[i:i + 7]))
    assert got == [m1, m2]


# -- errors -----------------------------------------------------------------

def test_parse_error_taxonomy():
    with pytest.raises(WireSyntaxError):
        wire.parse_message(b"")
    with pytest.raises(WireSyntaxError):
        wire.parse_message(b"type: initiation_response\nmessage_id: 1\nstatus: 200\n")
    with pytest.raises(UnknownTypeError):
        wire.parse_message(b"type: bogus\nmessage_id: 1\n\n")
    with pytest.raises(TemplateMismatchError):
        wire.parse_message(b"message_id: 1\ntype: initiation_response\n\n")
    with pytest.raises(WireSyntaxError):
        wire.parse_message(b"type: initiation_response\nmessage_id: 07\nstatus: 200\n\n")
    data = (b"type: session_ack\nmessage_id: 1\nsub_type: bogus\n"
            b"status: 200\nsource_plug_port: 1\ndest_socket_new_port: 2\n\n")
    with pytest.raises(UnknownTypeError):
        wire.parse_message(data)
    # sub_type legal elsewhere but not for this type
    data = (b"type: session_ack\nmessage_id: 1\nsub_type: Manager_to_agent\n"
            b"status: 200\nsource_plug_port: 1\ndest_socket_new_port: 2\n\n")
    with pytest.raises(UnknownTypeError):
        wire.parse_message(data)


def test_parse_rejects_reordered_and_duplicate_lines():
    good = (b"type: session_ack\nmessage_id: 1\nsub_type: service_to_agent\n"
            b"status: 200\nsource_plug_port: 41000\ndest_socket_new_port: 20555\n\n")
    wire.parse_message(good)
    reordered = good.replace(
        b"status: 200\nsource_plug_port: 41000",
        b"source_plug_port: 41000\nstatus: 200")
    with pytest.raises(TemplateMismatchError):
        wire.parse_message(reordered)
    duplicated = good.replace(b"status: 200\n", b"status: 200\nstatus: 200\n")
    with pytest.raises(TemplateMismatchError):
        wire.parse_message(duplicated)
    extra = good.replace(b"\n\n", b"\nextra_line: x\n\n")
    with pytest.raises(TemplateMismatchError):
        wire.parse_message(extra)


def test_validate_reports_issue_codes():
    ok = wire.make_message(MT.SESSION_ACK, 1, ST.SERVICE_TO_AGENT,
                           status=200, source_plug_port=41000,
                           dest_socket_new_port=20555)
    assert wire.validate_message(ok) == []

    missing = Message(MT.SESSION_ACK, 1, ST.SERVICE_TO_AGENT,
                      (("status", "200"), ("source_plug_port", "41000")))
    codes = [i.code for i in wire.validate_message(missing)]
    assert codes == ["TemplateMismatch"]

    bad_port = Message(MT.SESSION_ACK, 1, ST.SERVICE_TO_AGENT,
                       (("status", "200"), ("source_plug_port", "70000"),
                        ("dest_socket_new_port", "20555")))
    codes = [i.code for i in wire.validate_message(bad_port)]
    assert codes == ["FieldRange"]

    bad_id = Message(MT.INITIATION_RESPONSE, 0, None, (("status", "200"),))
    codes = [i.code for i in wire.validate_message(bad_id)]
    assert codes == ["FieldRange"]

    with pytest.raises(InvalidMessage):
        wire.serialize_message(bad_port)


def test_make_message_rejects_extra_and_missing():
    with pytest.raises(InvalidMessage):
        wire.make_message(MT.INITIATION_RESPONSE, 1)
    with pytest.raises(InvalidMessage):
        wire.make_message(MT.INITIATION_RESPONSE, 1, status=200, bogus=1)
    with pytest.raises(InvalidMessage):
        wire.make_message(MT.SESSION_ACK, 1, None, status=200,
                          source_plug_port=1, dest_socket_new_port=2)


# -- status codes -------------------------------------------------------------

def test_status_class_mapping():
    assert wire.status_class(100) is wire.StatusClass.INFORMATIONAL
    assert wire.status_class(204) is wire.StatusClass.SUCCESSFUL
    assert wire.status_class(301) is wire.StatusClass.REDIRECTION
    assert wire.status_class(404) is wire.StatusClass.REQUESTER_ERROR
    assert wire.status_class(599) is wire.StatusClass.RESPONDENT_ERROR


@pytest.mark.parametrize("code", [0, 99, 600, 1000, -1])
def test_status_class_rejects_out_of_range(code):
    with pytest.raises(ValueError):
        wire.status_class(code)


def test_status_class_total_on_range():
    for code in range(100, 600):
        assert wire.status_class(code).value == code // 100


def test_summary_roundtrip():
    m = wire.make_message(MT.SESSION_REQUEST, 5, ST.AGENT_TO_MANAGER,
                          agent_network_address="fd00::a1",
                          source_service_name="A",
                          source_service_instance_id=1,
                          source_plug_name="P",
                          dest_service_name="B",
                          dest_socket_name="S")
    assert wire.parse_summary(wire.message_summary(m)) == m


@pytest.mark.parametrize("value", ["fd00::zz", "10.0.0.256", "", "fd00::a1 "])
def test_bad_address_is_the_same_issue_every_time(value):
    m = Message(MT.INITIATION_REQUEST, 1, None,
                (("agent_network_address", value),
                 ("service_repository", "(A)")))
    for _ in range(3):  # a memoized answer reads as the first one did
        issues = wire.validate_message(m)
        assert [(i.code, i.detail) for i in issues] == [
            ("FieldSyntax", f"agent_network_address: bad address {value!r}")]
    good = Message(MT.INITIATION_REQUEST, 1, None,
                   (("agent_network_address", "fd00::a1"),
                    ("service_repository", "(A)")))
    assert wire.validate_message(good) == []


# -- codec contract -----------------------------------------------------------
# Each malformed input below hits one rejecting branch of the parser; the
# exception class and text are pinned, so a faster path cannot change what a
# peer is told about a bad message.

_ACK = (b"type: session_ack\nmessage_id: 1\nsub_type: service_to_agent\n"
        b"status: 200\nsource_plug_port: 41000\ndest_socket_new_port: 20555\n\n")
_INIT = (b"type: initiation_request\nmessage_id: 4\n"
         b"agent_network_address: fd00::a1\nservice_repository: (A; B)\n\n")
_EXEC = (b"type: execution_request\nmessage_id: 3\n"
         b"agent_network_address: fd00::a1\nservice_name: service-1\n"
         b"service_instance_id: 1\nsocket_configuration: ((S2, 20000))\n"
         b"plug_configuration: ((P6, service-4); (P7, service-3))\n\n")
_PLUGS = b"((P6, service-4); (P7, service-3))"

MALFORMED = [
    ("empty", b"", WireSyntaxError, "empty input"),
    ("not_utf8", b"type: \xff\n\n", WireSyntaxError,
     "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 6: "
     "invalid start byte"),
    ("unterminated", b"type: initiation_response\nmessage_id: 1\nstatus: 200\n",
     WireSyntaxError, "message not terminated by an empty line"),
    ("no_lines", b"\n\n", WireSyntaxError, "message has no lines"),
    ("malformed_line",
     b"type: initiation_response\nmessage_id 1\nstatus: 200\n\n",
     WireSyntaxError, "malformed line 'message_id 1'"),
    ("malformed_name",
     b"type: initiation_response\nmessage_id: 1\nsta tus: 200\n\n",
     WireSyntaxError, "malformed line 'sta tus: 200'"),
    ("colon_in_name",
     b"type: initiation_response\nmessage_id: 1\nst:atus: 200\n\n",
     WireSyntaxError, "malformed line 'st:atus: 200'"),
    ("first_not_type", b"message_id: 1\ntype: initiation_response\n\n",
     TemplateMismatchError, "first line must be type, got 'message_id'"),
    ("unknown_type", b"type: bogus\nmessage_id: 1\n\n",
     UnknownTypeError, "unknown message type 'bogus'"),
    ("missing_message_id", b"type: initiation_response\n\n",
     TemplateMismatchError, "missing message_id line"),
    ("second_not_message_id",
     b"type: initiation_response\nstatus: 200\nmessage_id: 1\n\n",
     TemplateMismatchError, "second line must be message_id, got 'status'"),
    ("message_id_zero",
     b"type: initiation_response\nmessage_id: 0\nstatus: 200\n\n",
     WireSyntaxError, "message_id not a positive integer: '0'"),
    ("message_id_leading_zero",
     b"type: initiation_response\nmessage_id: 07\nstatus: 200\n\n",
     WireSyntaxError, "message_id not a positive integer: '07'"),
    ("message_id_negative",
     b"type: initiation_response\nmessage_id: -1\nstatus: 200\n\n",
     WireSyntaxError, "message_id not a positive integer: '-1'"),
    ("sub_type_missing", _ACK.replace(b"sub_type: service_to_agent\n", b""),
     TemplateMismatchError, "session_ack requires a sub_type line"),
    ("sub_type_missing_no_fields", b"type: session_ack\nmessage_id: 1\n\n",
     TemplateMismatchError, "session_ack requires a sub_type line"),
    ("sub_type_illegal", _ACK.replace(b"service_to_agent", b"bogus"),
     UnknownTypeError, "sub_type 'bogus' not legal for session_ack"),
    ("sub_type_not_allowed",
     _ACK.replace(b"service_to_agent", b"Manager_to_agent"),
     UnknownTypeError, "sub_type 'Manager_to_agent' not legal for session_ack"),
    ("sub_type_not_taken",
     b"type: initiation_response\nmessage_id: 1\nsub_type: agent_to_Manager\n"
     b"status: 200\n\n",
     TemplateMismatchError, "initiation_response takes no sub_type"),
    ("wrong_order", _ACK.replace(b"status: 200\nsource_plug_port: 41000",
                                 b"source_plug_port: 41000\nstatus: 200"),
     TemplateMismatchError,
     "TemplateMismatch: field order ('source_plug_port', 'status', "
     "'dest_socket_new_port') != template ('status', 'source_plug_port', "
     "'dest_socket_new_port')"),
    ("missing_field", _ACK.replace(b"source_plug_port: 41000\n", b""),
     TemplateMismatchError, "TemplateMismatch: missing ['source_plug_port']"),
    ("extra_field", _ACK.replace(b"\n\n", b"\nextra_line: x\n\n"),
     TemplateMismatchError, "TemplateMismatch: extra ['extra_line']"),
    ("duplicate_field",
     _ACK.replace(b"status: 200\n", b"status: 200\nstatus: 200\n"),
     TemplateMismatchError, "TemplateMismatch: duplicate ['status']"),
    ("missing_and_extra", _ACK.replace(b"status: 200\n", b"bogus: 200\n"),
     TemplateMismatchError,
     "TemplateMismatch: missing ['status'], extra ['bogus']"),
    ("mismatch_before_bad_value",
     _ACK.replace(b"status: 200\nsource_plug_port: 41000",
                  b"source_plug_port: 0\nstatus: 200"),
     TemplateMismatchError,
     "TemplateMismatch: field order ('source_plug_port', 'status', "
     "'dest_socket_new_port') != template ('status', 'source_plug_port', "
     "'dest_socket_new_port')"),
    ("token", _EXEC.replace(b"service_name: service-1", b"service_name: a b"),
     WireSyntaxError, "FieldSyntax: service_name: bad token 'a b'"),
    ("token_empty", _EXEC.replace(b"service_name: service-1", b"service_name: "),
     WireSyntaxError, "FieldSyntax: service_name: bad token ''"),
    ("id_syntax",
     _EXEC.replace(b"service_instance_id: 1", b"service_instance_id: x1"),
     WireSyntaxError, "FieldSyntax: service_instance_id: not an integer 'x1'"),
    ("id_range",
     _EXEC.replace(b"service_instance_id: 1", b"service_instance_id: 0"),
     WireSyntaxError, "FieldRange: service_instance_id: must be positive"),
    ("port_syntax", _ACK.replace(b"41000", b"041000"), WireSyntaxError,
     "FieldSyntax: source_plug_port: not an integer '041000'"),
    ("port_range", _ACK.replace(b"41000", b"65536"), WireSyntaxError,
     "FieldRange: source_plug_port: port 65536 out of 1-65535"),
    ("port_zero", _ACK.replace(b"41000", b"0"), WireSyntaxError,
     "FieldRange: source_plug_port: port 0 out of 1-65535"),
    ("status_syntax", _ACK.replace(b"status: 200", b"status: 20"),
     WireSyntaxError, "FieldSyntax: status: not a 3-digit code '20'"),
    ("status_range", _ACK.replace(b"status: 200", b"status: 700"),
     WireSyntaxError, "FieldRange: status: code 700 out of 100-599"),
    ("status_low", _ACK.replace(b"status: 200", b"status: 099"),
     WireSyntaxError, "FieldRange: status: code 099 out of 100-599"),
    ("address", _INIT.replace(b"fd00::a1", b"fd00::zz"), WireSyntaxError,
     "FieldSyntax: agent_network_address: bad address 'fd00::zz'"),
    ("address_empty", _INIT.replace(b"fd00::a1", b""), WireSyntaxError,
     "FieldSyntax: agent_network_address: bad address ''"),
    ("name_list_unparenthesized", _INIT.replace(b"(A; B)", b"A; B"),
     WireSyntaxError,
     "FieldSyntax: service_repository: list not parenthesized: 'A; B'"),
    ("name_list_token", _INIT.replace(b"(A; B)", b"(A; b c)"), WireSyntaxError,
     "FieldSyntax: service_repository: illegal token 'b c' in list '(A; b c)'"),
    ("socket_config_pair", _EXEC.replace(b"((S2, 20000))", b"((S2 20000))"),
     WireSyntaxError, "FieldSyntax: socket_configuration: malformed pair "
     "'(S2 20000)' in '((S2 20000))'"),
    ("socket_config_port", _EXEC.replace(b"((S2, 20000))", b"((S2, 70000))"),
     WireSyntaxError, "FieldSyntax: socket_configuration: port out of range "
     "in pair (S2, 70000)"),
    ("socket_config_unparenthesized",
     _EXEC.replace(b"((S2, 20000))", b"(S2, 20000)"), WireSyntaxError,
     "FieldSyntax: socket_configuration: malformed pair 'S2, 20000' in "
     "'(S2, 20000)'"),
    ("plug_config_pair", _EXEC.replace(_PLUGS, b"((P6 service-4))"),
     WireSyntaxError, "FieldSyntax: plug_configuration: malformed pair "
     "'(P6 service-4)' in '((P6 service-4))'"),
    ("plug_config_unparenthesized", _EXEC.replace(_PLUGS, b"P6"),
     WireSyntaxError,
     "FieldSyntax: plug_configuration: pair list not parenthesized: 'P6'"),
    ("first_bad_value_named",
     _ACK.replace(b"status: 200", b"status: 2000").replace(b"41000", b"x"),
     WireSyntaxError, "FieldSyntax: status: not a 3-digit code '2000'"),
]


@pytest.mark.parametrize("data,error,text", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_raises_pinned_error(data, error, text):
    with pytest.raises(wire.MessageError) as info:
        wire.parse_message(data)
    assert type(info.value) is error
    assert str(info.value) == text


def test_make_message_port_out_of_range_text():
    with pytest.raises(InvalidMessage) as info:
        wire.make_message(MT.SESSION_ACK, 1, ST.SERVICE_TO_AGENT, status=200,
                          source_plug_port=65536, dest_socket_new_port=20555)
    assert str(info.value) == \
        "FieldRange: source_plug_port: port 65536 out of 1-65535"


def test_make_message_reports_every_issue_in_order():
    with pytest.raises(InvalidMessage) as info:
        wire.make_message(MT.SESSION_ACK, 0, ST.SERVICE_TO_AGENT, status=2000,
                          source_plug_port=65536, dest_socket_new_port=20555)
    assert str(info.value) == (
        "FieldRange: message_id must be positive; "
        "FieldSyntax: status: not a 3-digit code '2000'; "
        "FieldRange: source_plug_port: port 65536 out of 1-65535")
    texts = []
    for kwargs in ({}, {"status": 200, "bogus": 1}):
        with pytest.raises(InvalidMessage) as info:
            wire.make_message(MT.INITIATION_RESPONSE, 1, **kwargs)
        texts.append(str(info.value))
    with pytest.raises(InvalidMessage) as info:
        wire.make_message(MT.SESSION_ACK, 1, None, status=200)
    texts.append(str(info.value))
    assert texts == ["TemplateMismatch: missing field status",
                     "TemplateMismatch: extra fields ['bogus']",
                     "UnknownType: no template for (session_ack, None)"]


def test_checked_is_outside_equality_hash_and_repr():
    fields = (("status", "200"),)
    built = wire.make_message(MT.INITIATION_RESPONSE, 1, status=200)
    by_hand = Message(MT.INITIATION_RESPONSE, 1, None, fields)
    assert built.checked and not by_hand.checked
    assert built == by_hand
    assert hash(built) == hash(by_hand)
    assert repr(built) == repr(by_hand)
    assert wire.parse_message(wire.serialize_message(by_hand)).checked


def test_only_a_hand_built_message_is_validated_when_serialized(monkeypatch):
    calls = []
    validate = wire.validate_message
    monkeypatch.setattr(wire, "validate_message",
                        lambda m: calls.append(m) or validate(m))
    built = wire.make_message(MT.SESSION_ACK, 1, ST.SERVICE_TO_AGENT,
                              status=200, source_plug_port=41000,
                              dest_socket_new_port=20555)
    data = wire.serialize_message(built)
    parsed = wire.parse_message(data)
    assert wire.serialize_message(parsed) == data
    assert calls == []
    by_hand = Message(built.msg_type, 1, built.sub_type, built.fields)
    assert wire.serialize_message(by_hand) == data
    assert calls == [by_hand]


def _framed(count):
    msgs = [wire.make_message(MT.SESSION_ACK, i + 1, ST.SERVICE_TO_AGENT,
                              status=200, source_plug_port=40000 + i,
                              dest_socket_new_port=20000 + i)
            for i in range(count)]
    return msgs, b"".join(wire.serialize_message(m) for m in msgs)


def test_reader_gives_the_same_messages_whole_or_byte_by_byte():
    msgs, data = _framed(500)
    whole = wire.MessageReader().feed(data)
    reader = wire.MessageReader()
    single = []
    for i in range(len(data)):
        single.extend(reader.feed(data[i:i + 1]))
    assert whole == single == msgs
    assert reader.feed(b"") == []


def test_reader_drops_a_bad_frame_with_those_before_it():
    msgs, data = _framed(3)
    first, second, third = (wire.serialize_message(m) for m in msgs)
    reader = wire.MessageReader()
    with pytest.raises(TemplateMismatchError):
        reader.feed(first + b"bogus: 1\n\n" + second + third[:10])
    assert reader.feed(third[10:]) == msgs[1:]


def test_known_line_names_are_tokens():
    # _split_lines skips the token match for these names.
    assert all(wire.TOKEN_RE.match(name) for name in wire._LINE_NAMES)
