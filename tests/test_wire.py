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
