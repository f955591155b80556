"""The streaming trace checker gives the verdicts of a sweep from scratch,
visits each trace record once, and catches faults that arrive mid-run."""

import pytest

from conftest import sweep_scenarios

from ssmmp import wire
from ssmmp.harness import invariants
from ssmmp.harness.report import TraceRecord
from ssmmp.harness.runner import run_scenario
from ssmmp.wire import MessageType as MT, SubType as ST


def _rendered(verdicts):
    return [v.render() for v in verdicts]


def _differential_sweep(monkeypatch, inject=None):
    """Wrap `invariants.sweep` so that every sweep of a run also checks the
    trace from scratch and compares the two. `inject(records, net)` may
    append records before a sweep. Returns the list of compared verdicts."""
    sweep = invariants.sweep
    compared = []

    def differential(records, manager, cluster, net, **kwargs):
        trace = kwargs["trace"]
        if inject is not None:
            inject(records, net)
        streamed = sweep(records, manager, cluster, net, **kwargs)
        scratch = sweep(records, manager, cluster, net)
        assert _rendered(streamed) == _rendered(scratch)
        assert trace.cursor == len(records)
        oracle = trace.oracle
        assert list(oracle._open.values()) == [
            s for s in oracle.sessions if s.state != "closed"]
        assert all(key == s.key() for key, s in oracle._open.items())
        compared.append(streamed)
        return streamed

    monkeypatch.setattr(invariants, "sweep", differential)
    return compared


@pytest.mark.parametrize("name,scenario", sweep_scenarios(),
                         ids=[name for name, _ in sweep_scenarios()])
def test_streaming_sweep_equals_sweep_from_scratch(name, scenario,
                                                   monkeypatch):
    compared = _differential_sweep(monkeypatch)
    report = run_scenario(scenario, seed=7)
    assert len(compared) > 1
    # The Collector hands each record the Message its sender built, so no
    # sweep re-parses a summary; the summary must still say the same, and
    # the message must survive the wire unchanged.
    msgs = report.messages()
    assert msgs
    for rec in msgs:
        msg = rec.message()
        assert wire.parse_summary(rec.text) == msg
        assert wire.parse_message(wire.serialize_message(msg)) == msg


def _response_records(records):
    return [r for r in records if r.kind == "msg"
            and invariants._RESPONSE_OF.get(r.message().msg_type)]


def test_faults_appended_mid_run_fail_like_a_sweep_from_scratch(
        monkeypatch):
    _name, scenario = sweep_scenarios()[-1]
    sweeps = [0]
    injected_at = 5

    def inject(records, net):
        sweeps[0] += 1
        if sweeps[0] != injected_at:
            return
        answered = _response_records(records)[-1].message()
        unmatched = wire.Message(answered.msg_type, 99_999,
                                 answered.sub_type, answered.fields)
        leak = wire.Message(MT.SESSION_RESPONSE, 99_998,
                            ST.AGENT_TO_SERVICE,
                            (("status", "200"),
                             ("dest_service_instance_id", "1")))
        for src, dst, msg in (("fd00::1:9", "fd00::a1:9", unmatched),
                              ("fd00::a1:9", "fd00::a1:20000", leak)):
            records.append(TraceRecord(
                net._next_seq(), net.now_ms(), "msg", src, dst,
                wire.message_summary(msg), _parsed=msg))
        records.append(TraceRecord(  # parsed from its summary, which fails
            net._next_seq(), net.now_ms(), "msg", "fd00::1:9", "fd00::a1:9",
            "type: bogus | message_id: 1"))

    compared = _differential_sweep(monkeypatch, inject)
    report = run_scenario(scenario, seed=7)
    assert len(compared) > injected_at
    for i, verdicts in enumerate(compared, start=1):
        by_name = {v.name: v for v in verdicts}
        failed = i >= injected_at
        assert by_name["correlation"].ok is not failed
        assert by_name["knowledge_asymmetry"].ok is not failed
        assert by_name["wire_grammar"].ok is not failed
    final = {v.name: v for v in report.invariants}
    assert "unmatched response" in final["correlation"].detail
    assert "99999" in final["correlation"].detail
    assert "dest id leaked" in final["knowledge_asymmetry"].detail
    assert "type: bogus" in final["wire_grammar"].detail
    assert not report.ok


def test_each_record_feeds_the_replay_oracle_once(monkeypatch):
    feeds = [0]
    feed = invariants.ReplayOracle.feed

    def counted(oracle, rec):
        feeds[0] += 1
        return feed(oracle, rec)

    monkeypatch.setattr(invariants.ReplayOracle, "feed", counted)
    sweeps = [0]
    sweep = invariants.sweep

    def counted_sweep(*args, **kwargs):
        sweeps[0] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(invariants, "sweep", counted_sweep)
    _name, scenario = sweep_scenarios()[-1]
    report = run_scenario(scenario, seed=7)
    assert sweeps[0] > 10
    assert feeds[0] == len(report.records)
