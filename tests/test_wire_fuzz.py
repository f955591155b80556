"""Parser totality: arbitrary bytes never crash, and accept/reject agrees
with the independent grammar recognizer."""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from ssmmp import wire

import grammar_oracle


def _parser_accepts(data: bytes) -> bool:
    try:
        wire.parse_message(data)
        return True
    except wire.MessageError:
        return False


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=500, deadline=None)
def test_random_bytes_never_crash(data):
    assert _parser_accepts(data) == grammar_oracle.accepts(data)


def _valid_corpus():
    from ssmmp.harness.conformance import golden_messages
    return [wire.serialize_message(m) for _, m in golden_messages()]


def test_valid_corpus_accepted_by_both():
    for data in _valid_corpus():
        assert _parser_accepts(data)
        assert grammar_oracle.accepts(data)


def test_mutated_corpus_agreement():
    rng = random.Random(20240)
    corpus = _valid_corpus()
    alphabet = b"abcZ019_.-:(); \n\x00\xff"
    checked = 0
    for _ in range(4000):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(data))
            if kind == 0:
                data[pos] = rng.choice(alphabet)
            elif kind == 1:
                del data[pos]
            else:
                data.insert(pos, rng.choice(alphabet))
        blob = bytes(data)
        got = _parser_accepts(blob)
        want = grammar_oracle.accepts(blob)
        assert got == want, f"disagreement on {blob!r}: parser={got} oracle={want}"
        checked += 1
    assert checked == 4000


def test_truncations_always_rejected_cleanly():
    for data in _valid_corpus():
        for cut in range(len(data)):
            assert not _parser_accepts(data[:cut]) or cut == len(data)


def _mutated_frames(seed, count):
    """`count` golden frames, each with 1-3 random byte edits."""
    rng = random.Random(seed)
    corpus = _valid_corpus()
    alphabet = b"abcZ019_.-:(); \n\x00\xff"
    for _ in range(count):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(data))
            if kind == 0:
                data[pos] = rng.choice(alphabet)
            elif kind == 1:
                del data[pos]
            else:
                data.insert(pos, rng.choice(alphabet))
        yield bytes(data)


# SHA-256 over the outcome of each mutated frame: "ok", or the class and
# text of the error. A peer is told that text, so a change to the parser
# must keep every outcome, not just accept/reject.
MUTATED_OUTCOMES_SHA256 = (
    "9c56adeeef8af719510902f02ef40d9e396ec6af408b41d88e3096c9fb3505db")


def test_mutated_corpus_outcomes_pinned():
    digest = hashlib.sha256()
    for blob in _mutated_frames(25, 20_000):
        try:
            m = wire.parse_message(blob)
        except wire.MessageError as e:
            outcome = f"{type(e).__name__}: {e}"
        else:
            assert wire.serialize_message(m) == blob
            outcome = "ok"
        digest.update(outcome.encode("utf-8") + b"\n")
    assert digest.hexdigest() == MUTATED_OUTCOMES_SHA256


def test_parser_accepts_a_value_exactly_when_validation_does():
    from ssmmp.harness.conformance import golden_messages
    values = ["0", "1", "9", "10", "99", "100", "599", "600", "999", "9999",
              "10000", "59999", "60000", "64999", "65000", "65499", "65500",
              "65529", "65530", "65535", "65536", "99999", "00", "01", "+1",
              "-1", "", "1 ", "a", "a-b.c_D", "a b", "a:b", "é",
              "fd00::1", "10.0.0.1", "()", "(a; b)", "((a, 1))", "9" * 19,
              "1" + "0" * 19, "7" * 5000]
    for _, m in golden_messages():
        for i, (name, _) in enumerate(m.fields):
            for value in values:
                hand = wire.Message(m.msg_type, m.message_id, m.sub_type,
                                    m.fields[:i] + ((name, value),)
                                    + m.fields[i + 1:])
                frame = wire.message_summary(hand).replace(" | ", "\n")
                assert _parser_accepts(frame.encode("utf-8") + b"\n\n") == (
                    wire.validate_message(hand) == []), (name, value)
