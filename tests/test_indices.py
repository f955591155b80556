"""The manager's session indices, the simulator's port index and each
runtime's session table agree with a scan of the state they index, and keep
per-open work flat."""

import sys

import pytest

from conftest import make_cluster, observe, sent_messages, sweep_scenarios

from ssmmp import wire
from ssmmp.harness import invariants
from ssmmp.harness.runner import run_scenario
from ssmmp.manager import (AgentStatus, InstanceState, SessionRecord,
                           SessionState)
from ssmmp.service_runtime import SessionHandle
from ssmmp.transport import Channel, Endpoint
from ssmmp.wire import MessageType as MT, SubType as ST


def _scanned_open(manager):
    return [s for s in manager.sessions if s.state is not SessionState.CLOSED]


def _scanned_isolation(manager):
    """`invariants.check_isolation` as a scan of `manager.sessions`."""
    for addr, agent in manager.agents.items():
        if agent.status is not AgentStatus.ISOLATED:
            continue
        for inst in manager.instances.values():
            if inst.node_address == addr:
                return invariants.Verdict(
                    False, "isolation_completeness",
                    f"{inst.canonical_name} still open on {addr}")
        for s in manager.sessions:
            if s.state is not SessionState.CLOSED and s.touches_node(addr):
                return invariants.Verdict(
                    False, "isolation_completeness",
                    f"session {s.key()} still touches {addr}")
    return invariants.Verdict(True, "isolation_completeness")


def _check_indices(manager, net, channels):
    """Every index against a scan of `manager.sessions` and of every channel
    ever created; the live instance table against the closed one."""
    assert all(inst.state is not InstanceState.CLOSED
               for inst in manager.instances.values())
    assert all(inst.state is InstanceState.CLOSED
               for inst in manager.closed_instances.values())
    assert not manager.instances.keys() & manager.closed_instances.keys()
    open_ = _scanned_open(manager)
    assert list(manager._open_sessions.values()) == open_
    assert manager.established_sessions() == [
        s for s in manager.sessions if s.state is SessionState.ESTABLISHED]
    assert len(manager.sessions) - manager.closed_session_count == len(open_)
    assert invariants.check_isolation(manager) == _scanned_isolation(manager)
    for inst in manager.instances.values():
        touching = [s for s in open_ if s.touches(inst)]
        assert manager.open_session_count(inst) == len(touching)
        assert manager._open_sessions_of(inst) == touching
    for addr in {s.source_address for s in manager.sessions} \
            | {s.dest_address for s in manager.sessions}:
        assert manager.open_sessions_on(addr) == \
            [s for s in open_ if s.touches_node(addr)]
    assert manager._established_keys == {s.key() for s in manager.sessions}
    assert list(net._channels.values()) == [ch for ch in channels
                                            if ch.is_open]
    endpoints = {ch.local for ch in channels} | set(net._listeners)
    for ep in endpoints | {Endpoint(ep.addr, ep.port + 1) for ep in endpoints}:
        scanned = ep in net._listeners or any(
            ch.is_open and ch.local == ep for ch in channels)
        assert net.port_in_use(ep.addr, ep.port) == scanned, ep


def _check_session_tables(cluster, handles):
    """Each live runtime's table holds exactly its still-open handles, by
    key, in the order they were made; an ended runtime's table is empty."""
    live = cluster.live_runtimes()
    for rt in live:
        open_ = [h for owner, h in handles
                 if owner is rt and h.state == "open"]
        assert list(rt.sessions.items()) == [(h.key, h) for h in open_]
    for rt in cluster.runtimes.values():
        if rt not in live:
            assert rt.sessions == {}


@pytest.mark.parametrize("name,scenario", sweep_scenarios(),
                         ids=[name for name, _ in sweep_scenarios()])
def test_indices_match_scans_at_every_quiescent_point(name, scenario,
                                                      monkeypatch):
    channels: list[Channel] = []
    created = Channel.__init__

    def recording_init(ch, *args, **kwargs):
        created(ch, *args, **kwargs)
        channels.append(ch)

    monkeypatch.setattr(Channel, "__init__", recording_init)
    handles: list[tuple[object, SessionHandle]] = []
    made = SessionHandle.__init__

    def recording_handle_init(handle, *args, **kwargs):
        made(handle, *args, **kwargs)
        # The runtime method that made the handle is its owner.
        handles.append((sys._getframe(1).f_locals["self"], handle))

    monkeypatch.setattr(SessionHandle, "__init__", recording_handle_init)
    checked = []
    sweep = invariants.sweep

    def checking_sweep(records, manager, cluster, net, **kwargs):
        _check_indices(manager, net, channels)
        _check_session_tables(cluster, handles)
        checked.append(len(manager.sessions))
        return sweep(records, manager, cluster, net, **kwargs)

    monkeypatch.setattr(invariants, "sweep", checking_sweep)
    run_scenario(scenario, seed=7)
    assert checked
    assert handles


def _booted_single_node(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 20)
    return net, cluster


def _open(net, cluster):
    got = []
    cluster.runtime("A", 1).open_session(
        "P", on_established=lambda _rt, handle: got.append(handle),
        on_failed=lambda _rt, _plug, status: got.append(status))
    net.run(until_ms=net.now_ms() + 50)
    assert len(got) == 1 and not isinstance(got[0], int), got
    return got[0]


def _close(net, cluster, handle):
    cluster.runtime("A", 1).close_session(handle)
    net.run(until_ms=net.now_ms() + 50)


def test_one_more_open_costs_the_same_with_50_or_500_held(fig1_graph,
                                                          monkeypatch):
    calls = {"key": 0, "touches": 0}
    for name in calls:
        original = getattr(SessionRecord, name)

        def counted(record, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(record, *args)

        monkeypatch.setattr(SessionRecord, name, counted)
    per_open = []
    for held in (50, 500):
        net, cluster = _booted_single_node(fig1_graph)
        for _ in range(held):
            _open(net, cluster)
        for name in calls:
            calls[name] = 0
        _open(net, cluster)
        per_open.append(dict(calls))
        assert len(_scanned_open(cluster.manager)) == held + 1
    assert per_open[0] == per_open[1]


def test_churn_leaves_only_open_channels_in_the_fabric(fig1_graph):
    net, cluster = _booted_single_node(fig1_graph)
    _close(net, cluster, _open(net, cluster))  # the first session spawns B.1
    baseline = len(net._channels)
    for _ in range(200):
        _close(net, cluster, _open(net, cluster))
    assert len(net._channels) == baseline
    assert all(ch.is_open for ch in net._channels.values())
    assert cluster.manager._open_sessions == {}
    assert cluster.manager._sessions_by_instance == {}


def test_churn_past_port_65535_wraps_to_free_ports(fig1_graph):
    net, cluster = _booted_single_node(fig1_graph)
    _close(net, cluster, _open(net, cluster))
    held = {ch.local.port for ch in net._channels.values()}  # control links
    net.listen("fd00::a1", 65533, lambda ch, info: None)
    net._ports["fd00::a1"]._next = 65530
    for _ in range(10):
        _close(net, cluster, _open(net, cluster))
    records = cluster.manager.sessions[1:]
    assert len(records) == 10
    assert all(s.state is SessionState.CLOSED for s in records)
    ports = [p for s in records for p in (s.plug_port, s.session_port)]
    # never-used ports first, then the longest-freed one: the first
    # session's 40005 and 40006
    assert ports[:7] == [65530, 65531, 65532, 65534, 65535, 40005, 40006]
    assert 65533 not in ports  # the listener's
    assert not held & set(ports)


def test_churn_empties_both_session_tables(fig1_graph):
    net, cluster = _booted_single_node(fig1_graph)
    for _ in range(2000):
        _close(net, cluster, _open(net, cluster))
    a, b = cluster.runtime("A", 1), cluster.runtime("B", 1)
    assert a.sessions == {} and b.sessions == {}

    collector = observe(net)
    handle = _open(net, cluster)
    session = cluster.manager.established_sessions()[0]
    cluster.manager.request_session_close(session, "source")
    net.run(until_ms=net.now_ms() + 50)
    assert handle.state == "closed"
    assert a.sessions == {} and b.sessions == {}
    [request] = [m for m in sent_messages(collector)
                 if m.msg_type is MT.SOURCE_SESSION_CLOSE_REQUEST
                 and m.sub_type is ST.AGENT_TO_SOURCE_SERVICE]
    a.handle_close_request(request)  # the same request again
    statuses = [m.status for m in sent_messages(collector)
                if m.msg_type is MT.SOURCE_SESSION_CLOSE_RESPONSE
                and m.sub_type is ST.SOURCE_SERVICE_TO_AGENT]
    assert statuses == [wire.OK, wire.ALREADY_CLOSED]
