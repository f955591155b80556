"""The streaming trace checker gives the verdicts of a sweep from scratch,
visits each trace record once, and catches faults that arrive mid-run."""

import sys

import pytest

from conftest import FIXTURES, make_cluster, sweep_scenarios

from ssmmp import wire
from ssmmp.harness import invariants
from ssmmp.harness.generator import generate_scenario
from ssmmp.harness.report import TraceRecord
from ssmmp.harness.runner import run_scenario
from ssmmp.harness.scenario import load_scenario, parse_scenario_text
from ssmmp.manager import REQUEST_TIMEOUT_MS, Manager
from ssmmp.transport import Correlations, SimEnv, SimNetwork
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
            and wire.REQUEST_OF.get(r.message().msg_type)]


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


def _correlation_tables(cluster):
    """Every table that holds an outstanding correlation of an actor: each
    `Correlations` attribute of the manager, an agent or a runtime, and an
    agent's held requests."""
    for actor in (cluster.manager, *cluster.agents.values(),
                  *cluster.runtimes.values()):
        yield from (value for value in vars(actor).values()
                    if isinstance(value, Correlations))
    for agent in cluster.agents.values():
        yield from agent._held_requests.values()


def test_the_guard_finds_every_correlations_table(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [
        ("fd00::a1", ["A", "B", "service-2"]),
        ("fd00::a2", ["service-1", "service-3", "service-4"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    assert cluster.runtimes
    tables = [t for t in _correlation_tables(cluster)
              if isinstance(t, Correlations)]
    assert len(tables) == (2 + 2 * len(cluster.agents)
                           + len(cluster.runtimes))


def _open_at_sweeps(monkeypatch, runs):
    """Run each (scenario, seed) with every sweep wrapped, and the caller of
    each `timeout` timer checked: [sweeps, sweeps at which some correlation
    table was not empty, timeouts queued, timeouts queued by any caller but
    `Correlations.add`]."""
    sweep = invariants.sweep
    schedule = SimNetwork.schedule
    counts = [0, 0, 0, 0]

    def guarded(records, manager, cluster, net, **kwargs):
        counts[0] += 1
        counts[1] += any(_correlation_tables(cluster))
        return sweep(records, manager, cluster, net, **kwargs)

    def traced(net, delay_ms, fn, tag="timer"):
        if tag == "timeout":
            caller = sys._getframe(1)
            if caller.f_code is SimEnv.schedule.__code__:
                caller = caller.f_back
            counts[2] += 1
            counts[3] += caller.f_code is not Correlations.add.__code__
        return schedule(net, delay_ms, fn, tag)

    monkeypatch.setattr(invariants, "sweep", guarded)
    monkeypatch.setattr(SimNetwork, "schedule", traced)
    for scenario, seed in runs:
        run_scenario(scenario, seed)
    return counts


def _muted_health_poll(graph):
    """fig1 whose gateway answers no health poll, run on for 8 s: a poll's
    timeout is queued while no message is in flight."""
    return parse_scenario_text(
        "manager fd00::1\n"
        "node fd00::a1 repo=A,B,service-2\n"
        "node fd00::a2 repo=service-1,service-3,service-4\n"
        "at 100 set_health A muted\n"
        "at 100 advance_time 8000\n", name="muted", graph=graph)


def test_no_correlation_is_open_at_a_quiescent_point(monkeypatch,
                                                     fig1_graph):
    """A point is quiescent when only maintenance timers are queued, since
    each correlation is an entry of a `Correlations` table, which queues the
    entry's `timeout` timer with it: no other caller queues a timeout."""
    muted = (_muted_health_poll(fig1_graph), 1)
    runs = [(load_scenario(path), seed)
            for path in sorted(FIXTURES.glob("*.scenario"))
            for seed in range(3)]
    runs += [(generate_scenario(seed, profile), seed)
             for profile in ("establish_close", "mixed")
             for seed in range(40)]
    sweeps, open_at, timeouts, stray = _open_at_sweeps(monkeypatch,
                                                       runs + [muted])
    assert sweeps > len(runs) and open_at == 0
    assert timeouts > len(runs) and stray == 0

    # A timeout queued outside Correlations: the guard must see it.
    monkeypatch.undo()
    start = Manager.start

    def start_with_a_stray_timeout(manager):
        start(manager)
        manager.env.schedule(REQUEST_TIMEOUT_MS, lambda: None, tag="timeout")

    monkeypatch.setattr(Manager, "start", start_with_a_stray_timeout)
    assert _open_at_sweeps(monkeypatch, [muted])[3] == 1

    # Timeouts that quiescence does not see: the muted poll's must show.
    monkeypatch.undo()
    schedule = SimNetwork.schedule

    def retagged(net, delay_ms, fn, tag="timer"):
        return schedule(net, delay_ms, fn, "tick" if tag == "timeout" else tag)

    monkeypatch.setattr(SimNetwork, "schedule", retagged)
    assert _open_at_sweeps(monkeypatch, [muted])[1] > 0
