"""Control-plane behavior: registry, placement, sessions, failures, DNS."""

import pytest

from conftest import make_cluster

from ssmmp import wire
from ssmmp.manager import (IDLE_TIMEOUT_MS, REQUEST_TIMEOUT_MS, AgentStatus,
                           InstanceState, NameNotFound, PortPool,
                           SessionState)
from ssmmp.wire import Message, MessageType as MT, SubType as ST


def _drive_session(net, cluster, service, iid, plug):
    rt = cluster.runtime(service, iid)
    rt.open_session(plug)
    net.run(until_ms=net.now_ms() + 50)
    return rt


# -- registration -------------------------------------------------------------

def test_registration_upserts(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    manager = cluster.manager
    assert set(manager.agents) == {"fd00::a1"}
    assert manager.agents["fd00::a1"].repository == ["A", "B"]
    assert manager.agents["fd00::a1"].status is AgentStatus.UP


def test_duplicate_registration_replaces_repository(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    manager = cluster.manager
    channel = manager._channels["fd00::a1"]
    msg = wire.make_message(MT.INITIATION_REQUEST, 99,
                            agent_network_address="fd00::a1",
                            service_repository="(A)")
    manager.handle_initiation_request(channel, msg)
    assert len(manager.agents) == 1
    assert manager.agents["fd00::a1"].repository == ["A"]


def test_empty_repository_accepted(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", [])])
    assert cluster.manager.agents["fd00::a1"].repository == []


def test_malformed_repository_answered_400(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A"])])
    manager = cluster.manager
    sent = []

    class FakeChannel:
        is_open = True
        kind = "control"

        def send(self, data, msg=None):
            sent.append(wire.parse_message(data))

    bad = Message(MT.INITIATION_REQUEST, 5, None,
                  (("agent_network_address", "fd00::a9"),
                   ("service_repository", "(A; ")))
    manager.handle_initiation_request(FakeChannel(), bad)
    assert sent[0].status == wire.MALFORMED
    assert "fd00::a9" not in manager.agents


# -- instance execution -------------------------------------------------------

def test_plan_assigns_ports_and_plugs(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A", "B", "service-1", "service-3",
                                   "service-4"])])
    manager = cluster.manager
    manager.execute_instance("service-1")
    net.run(until_ms=net.now_ms() + 20)
    inst = manager.instances[("service-1", 1)]
    assert inst.state is InstanceState.RUNNING
    assert inst.socket_ports == {"S2": 20000}
    assert inst.plug_config == {"P6": "service-4", "P7": "service-3"}


def test_gateway_uses_fixed_port(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 20)
    inst = cluster.manager.instances[("A", 1)]
    assert inst.socket_ports == {"S1": 80}
    assert cluster.manager.dns_resolve("A") == "fd00::a1"


def test_second_instance_gets_fresh_port(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["B"])])
    manager = cluster.manager
    manager.execute_instance("B")
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 20)
    ports = {manager.instances[("B", 1)].socket_ports["S"],
             manager.instances[("B", 2)].socket_ports["S"]}
    assert len(ports) == 2


def test_no_capable_agent(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A"])])
    assert cluster.manager.execute_instance("B") is None
    assert ("B", 1) not in cluster.manager.instances


def test_baas_never_replicated(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["BaaS-1"])])
    manager = cluster.manager
    manager.execute_instance("BaaS-1")
    net.run(until_ms=net.now_ms() + 20)
    assert manager.execute_instance("BaaS-1") is None
    assert len([r for r in manager.instances.values()
                if r.service == "BaaS-1"]) == 1


def test_failed_execution_rolls_back(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["B"])])
    manager = cluster.manager
    mid = manager.execute_instance("B")
    pool = manager._pool("fd00::a1")
    allocated = set(pool.allocated)
    # answer with a failure instead of letting the agent reply
    manager._resolve(manager._pending.take(mid), wire.INTERNAL_ERROR)
    assert ("B", 1) not in manager.instances
    assert pool.allocated == allocated - {20000}


def test_unknown_execution_response_dropped(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["B"])])
    manager = cluster.manager
    before = dict(manager.instances)
    manager.handle_response(
        "fd00::a1", wire.make_message(MT.EXECUTION_RESPONSE, 777, status=200))
    assert manager.instances == before


def test_placement_prefers_least_loaded_node(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A", "B"]), ("fd00::a2", ["A", "B"])])
    manager = cluster.manager
    manager.execute_instance("A")
    net.run(until_ms=net.now_ms() + 20)
    assert manager.instances[("A", 1)].node_address == "fd00::a1"
    manager.execute_instance("A")
    net.run(until_ms=net.now_ms() + 20)
    assert manager.instances[("A", 2)].node_address == "fd00::a2"


# -- sessions -----------------------------------------------------------------

def _booted(fig1_graph, nodes=None):
    net, cluster = make_cluster(
        fig1_graph, nodes or [("fd00::a1", ["A", "B", "service-1", "service-2",
                                            "service-3", "service-4"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 20)
    return net, cluster


def test_session_spawns_dest_on_demand(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    assert manager.running_instances("B") == []
    _drive_session(net, cluster, "A", 1, "P")
    assert len(manager.running_instances("B")) == 1
    sessions = manager.established_sessions()
    assert len(sessions) == 1
    s = sessions[0]
    assert (s.source_service_name, s.plug_name, s.dest_service_name,
            s.socket_name) == ("A", "P", "B", "S")
    assert s.complete()


def test_session_request_unknown_edge_404(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    msg = wire.make_message(
        MT.SESSION_REQUEST, 50, ST.AGENT_TO_MANAGER,
        agent_network_address="fd00::a1",
        source_service_name="A", source_service_instance_id=1,
        source_plug_name="P", dest_service_name="service-4",
        dest_socket_name="S4")
    sent = []
    manager._send = lambda addr, m: sent.append(m) or True
    manager.handle_session_request("fd00::a1", msg)
    assert sent[0].msg_type is MT.SESSION_RESPONSE
    assert sent[0].status == wire.NOT_FOUND


def test_session_least_loaded_selection_matches_oracle(fig1_graph):
    net, cluster = _booted(
        fig1_graph, [("fd00::a1", ["A", "B"]), ("fd00::a2", ["B"])])
    manager = cluster.manager
    manager.execute_instance("B")
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 30)
    # load B.1 with three sessions, B.2 with one
    for _ in range(3):
        _drive_session(net, cluster, "A", 1, "P")
    loads = {r.instance_id: manager.open_session_count(r)
             for r in manager.running_instances("B")}
    # oracle: recount from the session table and take the argmin with
    # lexicographic (node, id) tie-break
    def oracle():
        candidates = sorted(
            manager.running_instances("B"),
            key=lambda r: (sum(1 for s in manager.sessions
                               if s.state is not SessionState.CLOSED
                               and s.touches(r)),
                           r.node_address, r.instance_id))
        return candidates[0].instance_id

    expected = oracle()
    _drive_session(net, cluster, "A", 1, "P")
    newest = manager.established_sessions()[-1]
    assert newest.dest_instance_id == expected
    assert loads[expected] == min(loads.values())


def test_session_ack_fills_ports_and_duplicate_is_noop(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    s = manager.established_sessions()[0]
    assert s.plug_port is not None and s.session_port is not None
    before = len(manager.sessions)
    dup = wire.make_message(MT.SESSION_ACK, 1, ST.AGENT_TO_MANAGER,
                            status=200, source_plug_port=s.plug_port,
                            dest_socket_new_port=s.session_port)
    manager.handle_session_ack("fd00::a1", dup)
    assert len(manager.sessions) == before
    assert any("duplicate or late" in j[2] for j in manager.journal
               if j[1] == "log")


def test_nack_deletes_pending(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    manager._pending_sessions.add(("fd00::a1", 42), object.__new__(
        type(manager.sessions[0]) if manager.sessions else _dummy_record()))
    nack = wire.make_message(MT.SESSION_ACK, 42, ST.AGENT_TO_MANAGER,
                             status=503, source_plug_port=1,
                             dest_socket_new_port=2)
    manager.handle_session_ack("fd00::a1", nack)
    assert ("fd00::a1", 42) not in manager._pending_sessions
    assert manager.sessions == []


def _dummy_record():
    from ssmmp.manager import SessionRecord
    return SessionRecord


def test_close_info_resolves_peer_id_from_ports(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    rt = _drive_session(net, cluster, "A", 1, "P")
    s = manager.established_sessions()[0]
    assert s.dest_instance_id == 1  # learned from the DB, not the message
    [handle] = rt.sessions.values()
    rt.close_session(handle)
    net.run(until_ms=net.now_ms() + 30)
    assert s.state is SessionState.CLOSED
    # the dest side reported too; its info named no source instance id
    assert s.close_reason == "reported"


def test_close_info_matching_nothing_logs_404(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    before = [(s.state, s.close_reason) for s in manager.sessions]
    bogus = wire.make_message(
        MT.SOURCE_SESSION_CLOSE_INFO, 33, ST.AGENT_TO_MANAGER,
        source_service_name="A",
        source_service_instance_network_address="fd00::a1",
        source_service_instance_id=1, source_plug_name="P",
        source_plug_port=64000, dest_service_name="B",
        dest_service_instance_network_address="fd00::a1",
        dest_socket_name="S", dest_socket_port=64001,
        dest_socket_new_port=64002)
    manager.handle_close_info("fd00::a1", bogus)
    assert [(s.state, s.close_reason) for s in manager.sessions] == before
    assert any("close_info matched no session" in j[2]
               for j in manager.journal if j[1] == "log")


def test_in_flight_id_conflict_answers_409(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    msg = wire.make_message(
        MT.SESSION_REQUEST, 77, ST.AGENT_TO_MANAGER,
        agent_network_address="fd00::a1",
        source_service_name="A", source_service_instance_id=1,
        source_plug_name="P", dest_service_name="B", dest_socket_name="S")
    manager._pending_sessions.add(("fd00::a1", 77), None)
    sent = []
    manager._send = lambda addr, m: sent.append(m) or True
    manager.handle_session_request("fd00::a1", msg)
    assert sent[0].status == wire.CONFLICT


# -- closing and shutdown -----------------------------------------------------

def test_manager_requested_close_source_side(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    s = manager.established_sessions()[0]
    rt = cluster.runtime("A", 1)
    [handle] = rt.sessions.values()
    manager.request_session_close(s, "source")
    net.run(until_ms=net.now_ms() + 30)
    assert s.state is SessionState.CLOSED
    assert s.close_reason == "requested"
    assert handle.state == "closed"
    assert handle.key not in rt.sessions


def test_manager_requested_close_dest_side(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    s = manager.established_sessions()[0]
    rt = cluster.runtime("B", 1)
    [handle] = rt.sessions.values()
    manager.request_session_close(s, "dest")
    net.run(until_ms=net.now_ms() + 30)
    assert s.state is SessionState.CLOSED
    assert handle.state == "closed"
    assert handle.key not in rt.sessions


def test_close_of_closed_session_sends_nothing(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    rt = _drive_session(net, cluster, "A", 1, "P")
    s = manager.established_sessions()[0]
    [handle] = rt.sessions.values()
    rt.close_session(handle)
    net.run(until_ms=net.now_ms() + 30)
    assert s.state is SessionState.CLOSED
    assert manager.request_session_close(s, "source") is None


def test_graceful_shutdown_drains_sessions_first(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    inst = manager.instances[("B", 1)]
    manager.request_graceful_shutdown(inst)
    net.run(until_ms=net.now_ms() + 60)
    assert inst.state is InstanceState.CLOSED
    assert all(s.state is SessionState.CLOSED for s in manager.sessions)
    assert cluster.runtime("B", 1).state == "exited"


def test_hard_shutdown_closes_sessions_via_opposite_side(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    inst = manager.instances[("B", 1)]
    manager.request_hard_shutdown(inst)
    net.run(until_ms=net.now_ms() + 60)
    assert inst.state is InstanceState.CLOSED
    assert cluster.runtime("B", 1).state == "killed"
    assert all(s.state is SessionState.CLOSED for s in manager.sessions)


def test_pending_session_expires_without_ack(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 20)
    # a request whose 200 never reaches the source: no ack will come
    manager._send = lambda addr, m: True
    msg = wire.make_message(
        MT.SESSION_REQUEST, 88, ST.AGENT_TO_MANAGER,
        agent_network_address="fd00::a1",
        source_service_name="A", source_service_instance_id=1,
        source_plug_name="P", dest_service_name="B", dest_socket_name="S")
    manager.handle_session_request("fd00::a1", msg)
    assert ("fd00::a1", 88) in manager._pending_sessions
    net.run(until_ms=net.now_ms() + REQUEST_TIMEOUT_MS + 100)
    assert ("fd00::a1", 88) not in manager._pending_sessions
    assert manager.sessions == []
    assert any("expired without ack" in j[2] for j in manager.journal
               if j[1] == "log")


# -- requests to agents -------------------------------------------------------

def _unanswered_request(net, cluster, kind):
    """The message id of one request of `kind` that the agent never gets."""
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    manager._send = lambda addr, m: True
    if kind == "exec":
        manager.execute_instance("B")
    elif kind == "close":
        manager.request_session_close(manager.established_sessions()[0],
                                      "source")
    else:
        manager.request_hard_shutdown(manager.instances[("B", 1)])
    ((mid, _pending),) = manager._pending.items()
    return mid


@pytest.mark.parametrize("kind, request_name, wrong_type, wrong_name", [
    ("exec", "execution request", MT.HARD_SHUTDOWN_RESPONSE,
     "shutdown response"),
    ("close", "close request", MT.EXECUTION_RESPONSE, "execution_response"),
    ("shutdown", "shutdown request", MT.SOURCE_SESSION_CLOSE_RESPONSE,
     "close_response"),
])
def test_request_resolves_only_by_its_own_kind(fig1_graph, kind, request_name,
                                               wrong_type, wrong_name):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    mid = _unanswered_request(net, cluster, kind)
    sub = None if wrong_type is MT.EXECUTION_RESPONSE else ST.AGENT_TO_MANAGER
    manager.handle_response(
        "fd00::a1", wire.make_message(wrong_type, mid, sub, status=wire.OK))
    logs = [text for _t, k, text in manager.journal if k == "log"]
    assert logs[-1] == f"{wrong_name} with unknown id {mid}"
    assert manager._pending.get(mid).kind == kind
    assert manager.established_sessions()  # the close did not resolve
    net.run(until_ms=net.now_ms() + REQUEST_TIMEOUT_MS + 100)
    assert mid not in manager._pending
    logs = [text for _t, k, text in manager.journal if k == "log"]
    assert f"{request_name} {mid} timed out" in logs


# -- isolation ----------------------------------------------------------------

def test_isolation_during_graceful_shutdown_leaves_instance_closed(fig1_graph):
    from ssmmp.harness.invariants import check_isolation
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])])
    manager = cluster.manager
    manager.start_app()
    manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 30)
    inst = manager.instances[("B", 1)]
    manager.request_graceful_shutdown(inst)  # no sessions: sent at once
    cluster.kill_node("fd00::a2")
    net.run(until_ms=net.now_ms() + 100)
    assert manager.agents["fd00::a2"].status is AgentStatus.ISOLATED
    assert inst.state is InstanceState.CLOSED
    verdict = check_isolation(manager)
    assert verdict.ok, verdict.render()
    # the 503 that isolation resolves the shutdown with is not a refusal
    assert not [text for _t, _kind, text in manager.journal
                if "refused" in text]


def test_isolate_node_post_state_table_scan(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A", "B"]), ("fd00::a2", ["A", "B"])])
    manager = cluster.manager
    manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    manager.execute_instance("A")   # lands on fd00::a2
    net.run(until_ms=net.now_ms() + 30)
    cluster.runtime("A", 1).open_session("P")
    net.run(until_ms=net.now_ms() + 50)
    cluster.runtime("A", 2).open_session("P")
    net.run(until_ms=net.now_ms() + 50)
    assert len(manager.established_sessions()) == 2

    cluster.kill_node("fd00::a2")
    net.run(until_ms=net.now_ms() + 100)
    # oracle: full table scan
    assert manager.agents["fd00::a2"].status is AgentStatus.ISOLATED
    assert all(inst.node_address != "fd00::a2"
               for inst in manager.instances.values())
    assert manager.closed_instances[("A", 2)].state is InstanceState.CLOSED
    for s in manager.sessions:
        assert not (s.state is not SessionState.CLOSED
                    and s.touches_node("fd00::a2"))
    assert manager.dns.targets("A") == ["A.1"]


def test_broken_link_detected_on_next_use(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])])
    manager = cluster.manager
    net.break_link("fd00::1", "fd00::a2")
    # no traffic, no detection yet
    assert manager.agents["fd00::a2"].status is AgentStatus.UP
    manager.execute_instance("B")  # first send over the dead link
    net.run(until_ms=net.now_ms() + 50)
    assert manager.agents["fd00::a2"].status is AgentStatus.ISOLATED
    assert ("B", 1) not in manager.instances


def test_session_request_from_closed_instance_is_not_found(fig1_graph):
    """Isolation closes A.1 at the manager; its runtime outlives it, and
    once the agent has registered again its requests are answered 404."""
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])])
    manager = cluster.manager
    manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    manager.isolate_node("fd00::a1")
    net.run(until_ms=net.now_ms() + 1_500)
    assert manager.agents["fd00::a1"].status is AgentStatus.UP
    assert ("A", 1) not in manager.instances
    assert manager.closed_instances[("A", 1)].state is InstanceState.CLOSED
    failures = []
    cluster.runtime("A", 1).open_session(
        "P", on_failed=lambda _rt, plug, status: failures.append(
            (plug, status)))
    net.run(until_ms=net.now_ms() + 50)
    assert failures == [("P", wire.NOT_FOUND)]
    assert manager.sessions == []
    assert ("B", 1) not in manager.instances


def test_isolate_empty_node_changes_only_agent(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["B"])])
    manager = cluster.manager
    manager.isolate_node("fd00::a2")
    assert manager.agents["fd00::a2"].status is AgentStatus.ISOLATED
    assert manager.agents["fd00::a1"].status is AgentStatus.UP
    assert manager.sessions == []


# -- DNS ----------------------------------------------------------------------

def test_dns_round_robin(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["A"])])
    manager = cluster.manager
    manager.start_app()
    manager.execute_instance("A")
    net.run(until_ms=net.now_ms() + 30)
    got = [manager.dns_resolve("A") for _ in range(4)]
    assert set(got) == {"fd00::a1", "fd00::a2"}
    assert got[0] != got[1] and got[:2] == got[2:]


def test_dns_single_instance_stable(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    assert {cluster.manager.dns_resolve("A") for _ in range(3)} == {"fd00::a1"}


def test_dns_after_isolation_matches_recomputed_records(fig1_graph):
    net, cluster = make_cluster(
        fig1_graph, [("fd00::a1", ["A"]), ("fd00::a2", ["A"])])
    manager = cluster.manager
    manager.start_app()
    manager.execute_instance("A")
    net.run(until_ms=net.now_ms() + 30)
    cluster.kill_node("fd00::a1")
    net.run(until_ms=net.now_ms() + 30)
    # oracle: recompute the record set from the instance table
    want = {r.node_address for r in manager.running_instances("A")}
    assert want == {"fd00::a2"}
    assert {manager.dns_resolve("A") for _ in range(3)} == want


def test_dns_unknown_alias(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A"])])
    with pytest.raises(NameNotFound):
        cluster.manager.dns_resolve("nope")


# -- idle reaping -------------------------------------------------------------

def test_idle_tick_thresholds(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    rt = _drive_session(net, cluster, "A", 1, "P")
    [handle] = rt.sessions.values()
    rt.close_session(handle)
    net.run(until_ms=net.now_ms() + 30)
    inst = manager.instances[("B", 1)]
    closed_at = inst.last_activity
    # just inside the timeout: not reaped
    net.run(until_ms=closed_at + IDLE_TIMEOUT_MS - 1000)
    assert inst.state is InstanceState.RUNNING
    net.run(until_ms=closed_at + IDLE_TIMEOUT_MS + 2000)
    assert inst.state in (InstanceState.DRAINING, InstanceState.CLOSED)
    net.run(until_ms=net.now_ms() + 50)
    assert inst.state is InstanceState.CLOSED


def test_gateway_and_busy_instances_never_reaped(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")  # held open
    net.run(until_ms=net.now_ms() + 80_000)
    assert manager.instances[("A", 1)].state is InstanceState.RUNNING
    assert manager.instances[("B", 1)].state is InstanceState.RUNNING


# -- health -------------------------------------------------------------------

def test_faulty_health_report_triggers_hard_shutdown(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    _drive_session(net, cluster, "A", 1, "P")
    cluster.runtime("B", 1).behavior.faulted = True
    net.run(until_ms=net.now_ms() + 8000)
    assert manager.closed_instances[("B", 1)].state is InstanceState.CLOSED
    assert cluster.runtime("B", 1).state == "killed"
    assert all(s.state is SessionState.CLOSED for s in manager.sessions)


def test_overload_report_is_logged_and_keeps_the_instance(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    manager = cluster.manager
    manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    cluster.runtime("A", 1).behavior.load_threshold = -1  # always overloaded
    net.run(until_ms=net.now_ms() + 5000)
    assert (f"abnormal health {wire.OVERLOADED} for A.1"
            in [text for _t, _kind, text in manager.journal])
    assert manager.instances[("A", 1)].state is InstanceState.RUNNING


# -- port pool ----------------------------------------------------------------

def test_port_pool_reuses_freed_last():
    pool = PortPool(start=100, end=102)
    assert [pool.alloc(), pool.alloc()] == [100, 101]
    pool.free(100)
    assert pool.alloc() == 102  # fresh before recycled
    assert pool.alloc() == 100


def test_port_pool_of_two_ports_runs_out_without_raising():
    pool = PortPool(start=100, end=101)
    assert [pool.alloc(), pool.alloc()] == [100, 101]
    assert pool.available() == 0
    assert pool.alloc() is None
    pool.free(101)
    pool.free(100)
    assert pool.available() == 2
    assert [pool.alloc(), pool.alloc()] == [101, 100]  # oldest freed first
    assert pool.alloc() is None


def test_exhausted_port_pool_is_a_logged_refusal(fig1_graph):
    net, cluster = _booted(fig1_graph)
    manager = cluster.manager
    manager._pools["fd00::a1"] = PortPool(start=20000, end=20001)
    # service-4 has three sockets: nothing is taken and no id is used up
    assert manager.execute_instance("service-4") is None
    assert any("no free listener port" in text
               for _t, kind, text in manager.journal if kind == "log")
    assert manager._pools["fd00::a1"].available() == 2
    assert manager.execute_instance("B") is not None
    net.run(until_ms=net.now_ms() + 30)
    assert [r.instance_id for r in manager.running_instances("B")] == [1]
    assert manager.instances[("B", 1)].socket_ports == {"S": 20000}
    assert "service-4" not in manager._instance_ids
