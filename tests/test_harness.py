"""Harness machinery: scenario format, reports, sweeps, seeded faults."""

from pathlib import Path

import pytest

from conftest import FIXTURES, make_cluster, observe

from ssmmp import wire
from ssmmp.graph import parse_graph_file
from ssmmp.harness import invariants
from ssmmp.harness.conformance import check_conformance, golden_messages
from ssmmp.harness.generator import generate_scenario
from ssmmp.harness.report import TraceReport, parse_trace_line
from ssmmp.harness.runner import Collector, run_scenario
from ssmmp.harness.scenario import (ScenarioError, load_scenario,
                                    parse_scenario_text)
from ssmmp.manager import SessionRecord, SessionState
from ssmmp.transport import PortPool


def test_scenario_parse_and_render():
    sc = load_scenario(FIXTURES / "fig1_boot.scenario")
    assert sc.manager_addr == "fd00::1"
    assert [n.addr for n in sc.nodes] == ["fd00::a1", "fd00::a2"]
    assert sc.events[0].kind == "user_request"
    text = sc.to_text()
    again = parse_scenario_text(text, base_dir=FIXTURES)
    assert again.events == sc.events
    assert again.nodes[0].repo == sc.nodes[0].repo


def test_scenario_rejects_bad_input(fig1_graph):
    with pytest.raises(ScenarioError):
        parse_scenario_text("manager fd00::1\nnode fd00::a1 repo=A\n"
                            "at 10 bogus_event x\n", graph=fig1_graph)
    with pytest.raises(ScenarioError):
        parse_scenarios_out_of_order(fig1_graph)
    with pytest.raises(ScenarioError):
        parse_scenario_text("manager fd00::1\nnode fd00::a1 repo=GHOST\n",
                            graph=fig1_graph)
    with pytest.raises(ScenarioError, match="unknown behavior 'bogus'"):
        parse_scenario_text("manager fd00::1\n"
                            "node fd00::a1 repo=A behavior=bogus\n",
                            graph=fig1_graph)
    node = "node fd00::a1 repo=A\n"
    for bad in ("settle abc", "at x user_request A", "manager fd00::1 port=x",
                "graph", "latency 1"):
        with pytest.raises(ScenarioError, match=f"line 2: malformed.*{bad}"):
            parse_scenario_text(f"{node}{bad}\nmanager fd00::1\n",
                                graph=fig1_graph)
    base = "manager fd00::1\n" + node
    with pytest.raises(ScenarioError, match="cannot read graph missing.graph"):
        parse_scenario_text("graph missing.graph\n" + base,
                            base_dir=FIXTURES)


def parse_scenarios_out_of_order(graph):
    return parse_scenario_text(
        "manager fd00::1\nnode fd00::a1 repo=A\n"
        "at 20 user_request A\nat 10 user_request A\n", graph=graph)


def test_empty_timeline_boots_clean(fig1_graph):
    sc = parse_scenario_text(
        "manager fd00::1\nnode fd00::a1 repo=A,B\n", name="boot-only",
        graph=fig1_graph)
    report = run_scenario(sc, seed=1)
    assert report.ok
    assert report.expects == []
    assert any(r.kind == "msg" for r in report.records)


def test_report_text_roundtrip(fig1_graph):
    sc = parse_scenario_text(
        "manager fd00::1\nnode fd00::a1 repo=A,B\n"
        "at 100 open_session A P\nat 400 expect replay_matches\n",
        name="rt", graph=fig1_graph)
    report = run_scenario(sc, seed=5)
    text = report.to_text()
    again = TraceReport.from_text(text)
    assert again.scenario == report.scenario
    assert again.seed == report.seed
    assert len(again.records) == len(report.records)
    assert [v.render() for v in again.invariants] == \
        [v.render() for v in report.invariants]
    assert again.to_text() == text
    # every traced message still parses under the grammar
    for rec in again.records:
        if rec.kind == "msg":
            rec.message()


def test_trace_line_forms():
    rec = parse_trace_line(
        "00042 t=7 msg a:1 -> b:2 :: type: initiation_response | "
        "message_id: 1 | status: 200")
    assert rec.kind == "msg" and rec.seq == 42 and rec.time_ms == 7
    assert rec.message().status == 200
    rec = parse_trace_line("00001 t=0 net connect a:1 -> b:2 l=3")
    assert rec.kind == "net"
    rec = parse_trace_line("00003 t=9 decision :: isolate_node fd00::a2")
    assert rec.kind == "decision"


# -- seeded faults must be caught ---------------------------------------------

def _run_boot_with_session(fig1_graph, seed=3):
    sc = parse_scenario_text(
        "manager fd00::1\nnode fd00::a1 repo=A,B\n"
        "at 100 open_session A P\n", name="seeded", graph=fig1_graph)
    from ssmmp.cluster import Cluster, NodeDef
    from ssmmp.transport import SimNetwork
    net = SimNetwork(seed=seed)
    net.horizon_ms = 2000
    collector = Collector(net)
    cluster = Cluster(net, [sc.graph], "fd00::1", [NodeDef("fd00::a1", ["A", "B"])])
    net.observer = collector
    cluster.start()
    net.schedule_abs(50, cluster.manager.start_app)
    net.schedule_abs(
        100, lambda: cluster.runtime("A", 1).open_session("P"))
    net.run()
    return net, cluster, collector


def test_sweep_passes_on_healthy_run(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    verdicts = invariants.sweep(collector.records, cluster.manager, cluster, net)
    assert all(v.ok for v in verdicts), [v.render() for v in verdicts]


def test_injected_phantom_session_breaks_conservation(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    cluster.manager.sessions.append(SessionRecord(
        "A", "fd00::a1", 1, "P", 55555, "B", "fd00::a1", 1, "S", 20000, 55556,
        state=SessionState.ESTABLISHED))
    verdicts = {v.name: v for v in invariants.sweep(
        collector.records, cluster.manager, cluster, net)}
    assert not verdicts["session_conservation"].ok
    assert not verdicts["replay_equivalence"].ok


def test_injected_duplicate_ack_corruption_is_caught(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    # simulate the manager wrongly double-counting an ack
    real = cluster.manager.sessions[0]
    import copy
    cluster.manager.sessions.append(copy.deepcopy(real))
    verdicts = {v.name: v for v in invariants.sweep(
        collector.records, cluster.manager, cluster, net)}
    assert not verdicts["session_conservation"].ok


def test_injected_port_collision_is_caught(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    manager = cluster.manager
    b = manager.instances[("B", 1)]
    manager.instances[("ghost", 1)] = type(b)(
        "ghost", 1, b.node_address, dict(b.socket_ports), {},
        state=b.state)
    verdicts = {v.name: v for v in invariants.sweep(
        collector.records, manager, cluster, net)}
    assert not verdicts["port_exclusivity"].ok


def test_injected_knowledge_leak_is_caught(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    rt = cluster.runtime("A", 1)
    [handle] = rt.sessions.values()
    handle.params["dest_service_instance_id"] = 1
    verdicts = {v.name: v for v in invariants.sweep(
        collector.records, cluster.manager, cluster, net)}
    assert not verdicts["knowledge_asymmetry"].ok


def test_injected_stale_dns_record_is_caught(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    cluster.manager.dns.add_instance("A", "A.9", "fd00::dead")
    verdicts = {v.name: v for v in invariants.sweep(
        collector.records, cluster.manager, cluster, net)}
    assert not verdicts["dns_soundness"].ok


def test_replay_oracle_reconstructs_from_messages_alone(fig1_graph):
    net, cluster, collector = _run_boot_with_session(fig1_graph)
    oracle = invariants.ReplayOracle()
    for rec in collector.records:
        oracle.feed(rec)
    assert len(oracle.sessions) == 1
    row = oracle.sessions[0]
    s = cluster.manager.sessions[0]
    assert (row.a, row.i, row.p, row.b, row.j, row.s) == (
        s.source_service_name, s.source_instance_id, s.plug_name,
        s.dest_service_name, s.dest_instance_id, s.socket_name)
    assert (row.m, row.k, row.l) == (s.plug_port, s.socket_port, s.session_port)


def test_replay_oracle_forgets_an_instance_that_exited_gracefully():
    """B.1 exits gracefully and B.2 gets its listener port again: the
    session that A.1 then opens goes to B.2."""
    graph = parse_graph_file((FIXTURES / "fig1_full.graph").read_text())
    net, cluster = make_cluster(graph, [("fd00::a1", ["A", "B"])])
    collector = observe(net)
    manager = cluster.manager
    manager._pools["fd00::a1"] = PortPool(20000, 20000)
    manager.start_app()
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 30)
    manager.request_graceful_shutdown(manager.instances[("B", 1)])
    net.run(until_ms=net.now_ms() + 30)
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 30)
    assert manager.instances[("B", 2)].socket_ports == {"S": 20000}
    cluster.runtime("A", 1).open_session("P")
    net.run(until_ms=net.now_ms() + 50)
    assert [s.dest_instance_id for s in manager.established_sessions()] == [2]
    verdicts = invariants.sweep(collector.records, manager, cluster, net)
    assert all(v.ok for v in verdicts), [v.render() for v in verdicts]


# -- conformance and generator -------------------------------------------------

def test_golden_dir_is_current():
    results = check_conformance(Path(__file__).parent.parent / "conformance")
    bad = [(stem, detail) for stem, ok, detail in results if not ok]
    assert not bad, bad
    assert len(results) == len(wire.TEMPLATES)


def test_golden_covers_every_template():
    stems = {stem for stem, _ in golden_messages()}
    assert len(stems) == len(wire.TEMPLATES)


def test_generator_is_deterministic():
    a = generate_scenario(11, "mixed")
    b = generate_scenario(11, "mixed")
    assert a.to_text() == b.to_text()
    assert a.graph == b.graph


def test_generator_respects_bounds():
    for seed in range(30):
        sc = generate_scenario(seed, "mixed", max_sessions=20)
        assert len(sc.graph.vertices) <= 8
        opens = [e for e in sc.events if e.kind == "open_session"]
        assert len(opens) <= 20
