"""Fixture scenarios end to end, plus cross-cutting trace properties."""

from conftest import FIXTURES

from ssmmp import wire
from ssmmp.harness import run_scenario_file
from ssmmp.harness.runner import run_scenario
from ssmmp.harness.scenario import load_scenario
from ssmmp.transport import SimNetwork
from ssmmp.wire import MessageType as MT


def _run(name, seed=42):
    report = run_scenario_file(FIXTURES / f"{name}.scenario", seed)
    assert report.ok, "\n".join(
        v.render() for v in report.invariants + report.expects if not v.ok)
    return report


def test_fig1_boot():
    report = _run("fig1_boot")
    types = {r.message().msg_type for r in report.messages()}
    assert MT.INITIATION_REQUEST in types
    assert MT.EXECUTION_REQUEST in types
    assert MT.SESSION_ACK in types
    assert MT.SOURCE_SESSION_CLOSE_INFO in types


def test_fig1_boot_spawns_on_demand():
    report = _run("fig1_boot")
    lines = [l for l in report.manager_lines if l.startswith("instance ")]
    services = {l.split()[1] for l in lines}
    # the user request cascaded through the whole wired subgraph
    assert {"A", "B", "service-1", "service-2", "service-3",
            "service-4"} <= services
    # storage vertices have no wired edges in this fixture
    assert "BaaS-1" not in services


def test_kill_agent():
    report = _run("kill_agent")
    assert any(r.kind == "decision" and r.text == "isolate_node fd00::a2"
               for r in report.records)
    # both mirrored close directions were exercised
    types = {r.message().msg_type for r in report.messages()}
    assert MT.SOURCE_SESSION_CLOSE_REQUEST in types
    assert MT.DEST_SESSION_CLOSE_REQUEST in types


def test_kill_manager_ends_with_a_report(monkeypatch):
    # The agents retry registration for ever; a step budget turns a run
    # that never ends into a failure rather than a hung suite.
    steps = []
    step = SimNetwork.step

    def budgeted_step(net):
        steps.append(None)
        assert len(steps) < 100_000, "run did not end"
        return step(net)

    monkeypatch.setattr(SimNetwork, "step", budgeted_step)
    report = _run("kill_manager")
    assert [r.text for r in report.records if r.text.endswith("node_down")] \
        == ["close fd00::1:40000 -> fd00::a1:40000 node_down",
            "close fd00::1:40001 -> fd00::a2:40000 node_down"]


def test_idle_reap():
    _run("idle_reap")


def test_kill_instance_detected_and_cleaned_up(fig1_graph):
    from ssmmp.harness.scenario import parse_scenario_text
    sc = parse_scenario_text(
        "manager fd00::1\n"
        "node fd00::a1 repo=A,B\n"
        "at 100 open_session A P\n"
        "at 300 kill_instance B 1\n"
        # the agent's next health pass reports it, the control plane reaps it
        "at 9000 expect instance_state B 1 closed\n"
        "at 9000 expect session_count established 0\n"
        "at 9000 expect replay_matches\n",
        name="kill_instance", graph=fig1_graph)
    report = run_scenario(sc, seed=11)
    assert report.ok, "\n".join(
        v.render() for v in report.invariants + report.expects if not v.ok)
    types = {r.message().msg_type for r in report.messages()}
    assert MT.HARD_SHUTDOWN_REQUEST in types
    assert MT.HEALTH_CONTROL_RESPONSE in types


def test_health_fault_and_a_broken_link_fail_only_what_they_touch(
        fig1_graph):
    from ssmmp.harness.scenario import parse_scenario_text
    sc = parse_scenario_text(
        "manager fd00::1\n"
        "node fd00::a1 repo=A,B\n"
        "node fd00::a2 repo=service-1\n"
        "at 50 exec_instance A\n"
        "at 60 exec_instance B\n"
        "at 70 exec_instance service-1\n"
        "at 100 set_health B.1 faulted\n"
        "at 200 break_link fd00::a1 fd00::a2\n"
        "at 250 open_session A.1 P2\n"
        "at 400 expect open_failed A P2 503\n"
        "at 500 heal_link fd00::a1 fd00::a2\n"
        "at 600 open_session A.1 P2\n"
        "at 800 expect session_count established 1\n"
        "at 5000 expect instance_running B 0\n"
        "at 5000 expect replay_matches\n",
        name="fault_and_link", graph=fig1_graph)
    report = run_scenario(sc, seed=1)
    assert report.ok, "\n".join(
        v.render() for v in report.invariants + report.expects if not v.ok)
    assert [v.ok for v in report.expects] == [True] * 4


def test_seed_changes_interleaving_not_outcome():
    reports = [run_scenario_file(FIXTURES / "fig1_boot.scenario", seed)
               for seed in (1, 2, 3)]
    for report in reports:
        assert report.ok
    texts = {r.to_text() for r in reports}
    assert len(texts) >= 2  # different seeds may interleave differently


def test_latency_distribution_and_custom_port(fig1_graph):
    from ssmmp.harness.scenario import parse_scenario_text
    sc = parse_scenario_text(
        "manager fd00::1 port=7100\n"
        "latency 1 5\n"
        "node fd00::a1 repo=A,B\n"
        "at 100 user_request A\n"
        "at 2500 expect user_replies 1\n"
        "at 2500 expect replay_matches\n",
        name="jittered", graph=fig1_graph)
    assert sc.manager_port == 7100
    for seed in (1, 2):
        report = run_scenario(sc, seed)
        assert report.ok, "\n".join(
            v.render() for v in report.invariants + report.expects if not v.ok)
        assert report.to_text() == run_scenario(sc, seed).to_text()


def test_scenario_objects_are_reusable():
    sc = load_scenario(FIXTURES / "fig1_boot.scenario")
    a = run_scenario(sc, 9).to_text()
    b = run_scenario(sc, 9).to_text()
    assert a == b
