"""The manager's, the agents' and the cluster's instance tables hold only
instances that have not ended, however many have run before; the report
still lists every instance ever executed, and a node's death kills only its
live runtimes."""

from conftest import make_cluster

from ssmmp.harness.report import manager_snapshot
from ssmmp.manager import InstanceState
from ssmmp.service_runtime import ServiceRuntime

CYCLES = 500


def _assert_live(cluster, live: set, executed: int) -> None:
    manager = cluster.manager
    assert set(manager.instances) == live
    assert all(inst.state is not InstanceState.CLOSED
               for inst in manager.instances.values())
    agent_keys = [key for agent in cluster.agents.values()
                  for key in agent.instances]
    assert len(agent_keys) == len(live) and set(agent_keys) == live
    runtimes = cluster.live_runtimes()
    assert len(runtimes) == len(live)
    assert {(rt.config.service_name, rt.config.instance_id)
            for rt in runtimes} == live
    assert all(rt.state == "running" for rt in runtimes)
    ever = set(manager.instances) | set(manager.closed_instances)
    assert len(ever) == executed
    listed = [line.split()[1:3] for line in manager_snapshot(manager)
              if line.startswith("instance ")]
    assert listed == [[s, str(i)] for s, i in sorted(ever)]


def test_tables_hold_only_live_instances_through_churn(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])],
        horizon_ms=None)
    manager = cluster.manager
    manager.start_app()
    net.run(until_ms=net.now_ms() + 20)
    _assert_live(cluster, {("A", 1)}, 1)

    for iid in range(1, CYCLES + 1):
        manager.execute_instance("B")
        net.run(until_ms=net.now_ms() + 20)
        _assert_live(cluster, {("A", 1), ("B", iid)}, iid + 1)
        manager.request_graceful_shutdown(manager.instances[("B", iid)])
        net.run(until_ms=net.now_ms() + 20)
        assert manager.closed_instances[("B", iid)].state \
            is InstanceState.CLOSED
        _assert_live(cluster, {("A", 1)}, iid + 1)

    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 20)
    hard = ("B", CYCLES + 1)
    _assert_live(cluster, {("A", 1), hard}, CYCLES + 2)
    manager.request_hard_shutdown(manager.instances[hard])
    net.run(until_ms=net.now_ms() + 20)
    assert cluster.runtime(*hard).state == "killed"
    _assert_live(cluster, {("A", 1)}, CYCLES + 2)

    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 20)
    isolated = ("B", CYCLES + 2)
    _assert_live(cluster, {("A", 1), isolated}, CYCLES + 3)
    cluster.kill_node("fd00::a2")
    net.run(until_ms=net.now_ms() + 100)
    assert manager.agents["fd00::a2"].status.value == "isolated"
    assert manager.closed_instances[isolated].state is InstanceState.CLOSED
    _assert_live(cluster, {("A", 1)}, CYCLES + 3)


def test_kill_node_kills_each_live_runtime_once(fig1_graph, monkeypatch):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])],
        horizon_ms=None)
    manager = cluster.manager
    manager.start_app()
    net.run(until_ms=net.now_ms() + 20)
    for iid in range(1, CYCLES + 1):
        manager.execute_instance("B")
        net.run(until_ms=net.now_ms() + 20)
        manager.request_graceful_shutdown(manager.instances[("B", iid)])
        net.run(until_ms=net.now_ms() + 20)
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 20)
    live = cluster.runtime("B", CYCLES + 1)
    assert len(cluster.runtimes) == CYCLES + 2

    killed = []
    kill = ServiceRuntime.kill
    monkeypatch.setattr(ServiceRuntime, "kill",
                        lambda rt: killed.append(rt) or kill(rt))
    cluster.kill_node("fd00::a2")
    assert killed == [live]
    assert live.state == "killed"
    assert cluster.runtime("A", 1).state == "running"
