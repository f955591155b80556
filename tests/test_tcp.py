"""Loopback-TCP mode: the same actors over real sockets."""

import concurrent.futures
import socket
import sys
import threading
import time

import pytest

from conftest import FIXTURES

import ssmmp.harness.tcp_runner
import ssmmp.manager
import ssmmp.tcp
from ssmmp import wire
from ssmmp.agent import Agent
from ssmmp.cluster import NodeDef
from ssmmp.graph import parse_graph_file
from ssmmp.harness.runner import TRACE_CHECKS, execute_event, run_scenario
from ssmmp.harness.scenario import load_scenario, parse_scenario_text
from ssmmp.harness.tcp_runner import run_scenario_tcp
from ssmmp.manager import Manager, SessionState
from ssmmp.service_runtime import ServiceRuntime
from ssmmp.tcp import (PREAMBLE_TIMEOUT_S, ActorLoop, TcpEnv, TcpFabric,
                       build_tcp_cluster)
from ssmmp.transport import (EPHEMERAL_START, ConnectionRefused, Endpoint,
                             send_message)
from ssmmp.wire import MessageType as MT, SubType as ST

sys.path.insert(0, str(FIXTURES.parent / "tools"))
import tcp_burst  # noqa: E402


def _running_loop():
    """The ActorLoop whose `run` is innermost on the calling stack: the
    actor the current callback belongs to."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is ActorLoop.run.__code__:
            return frame.f_locals["self"]
        frame = frame.f_back
    return None


def _on_loop(env, fn):
    """Run `fn` on `env`'s fabric thread, posted as its actor would be, and
    return its result or raise its exception here."""
    result = concurrent.futures.Future()

    def run():
        try:
            result.set_result(fn())
        except Exception as e:
            result.set_exception(e)

    env.call(run)
    return result.result(timeout=5)


def _wait(pred, timeout=8.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(poll)
    return False


@pytest.fixture
def fig1():
    return parse_graph_file((FIXTURES / "fig1.graph").read_text())


def test_tcp_end_to_end_session(fig1):
    handle = build_tcp_cluster([fig1], "fd00::1",
                               [NodeDef("fd00::a1", ["A", "B"])])
    try:
        assert _wait(lambda: all(a.registered
                                 for a in handle.agents.values()))
        handle.manager_loop.post(handle.manager.start_app)
        assert _wait(lambda: ("A", 1) in handle.runtimes)
        rt = handle.runtimes[("A", 1)]
        rt._loop.post(lambda: rt.open_session("P"))
        assert _wait(lambda: len(handle.manager.established_sessions()) == 1)
        session = handle.manager.established_sessions()[0]
        # m is the OS-assigned source port; l was picked by the connector
        # and named in its preamble: a logical per-session port on the dest
        # node
        assert 1 <= session.plug_port <= 65535
        assert session.session_port >= 40000
        assert session.socket_port == 20000
        dest = handle.runtimes[("B", 1)]
        assert _wait(lambda: len(dest.sessions) == 1)
        [dest_handle] = dest.sessions.values()
        assert dest_handle.role == "dest"
        assert dest_handle.params["dest_socket_new_port"] == \
            session.session_port
        [src_handle] = rt.sessions.values()
        rt._loop.post(lambda: rt.close_session(src_handle))
        assert _wait(lambda: all(s.state is SessionState.CLOSED
                                 for s in handle.manager.sessions))
        assert handle.manager.sessions[0].close_reason == "reported"
        errors = [e for loop in handle.fabric._loops for e in loop.errors]
        assert errors == []
    finally:
        handle.shutdown()


def test_tcp_scenario_runner_smoke(fig1):
    scenario = load_scenario(FIXTURES / "fig1_boot.scenario")
    report = run_scenario_tcp(scenario, seed=0)
    assert report.ok, "\n".join(v.render() for v in report.expects if not v.ok)
    assert any("skipped in tcp mode" in v.detail for v in report.expects)


def test_tcp_event_on_service_without_instance_is_a_verdict(fig1):
    scenario = parse_scenario_text(
        "manager fd00::1\nnode fd00::a1 repo=A,B\nsettle 100\n"
        "at 10 open_session service-1 P6\n", name="missing", graph=fig1)
    for report in (run_scenario(scenario, 0), run_scenario_tcp(scenario, 0)):
        failed = [v for v in report.expects if not v.ok]
        assert [v.name for v in failed] == ["at=10 event open_session"]
        assert failed[0].detail.startswith("KeyError")


def test_kill_agent_gives_the_same_checks_over_both_transports():
    scenario = load_scenario(FIXTURES / "kill_agent.scenario")
    sim = run_scenario(scenario, 0)
    tcp = run_scenario_tcp(scenario, 0)
    assert [v.name for v in sim.expects] == [v.name for v in tcp.expects]
    for report in (sim, tcp):
        bad = [v.render() for v in report.expects
               if not v.ok and v.name.split()[1] not in TRACE_CHECKS]
        assert bad == []
    assert all(v.ok for v in tcp.invariants), \
        [v.render() for v in tcp.invariants]
    skipped = {v.name for v in tcp.invariants
               if v.detail == "skipped in tcp mode"}
    assert skipped == {"session_conservation", "knowledge_asymmetry",
                       "correlation", "wire_grammar", "replay_equivalence"}


def test_tcp_scenario_events_run_on_the_fabric_thread(monkeypatch):
    """`run_scenario_tcp` runs the timeline on the fabric's I/O thread, so the
    interpreter reads the manager's tables between two callbacks."""
    threads = []

    def recorded(ctx, ev):
        threads.append(threading.current_thread())
        execute_event(ctx, ev)

    monkeypatch.setattr(ssmmp.harness.tcp_runner, "execute_event", recorded)
    scenario = load_scenario(FIXTURES / "fig1_boot.scenario")
    report = run_scenario_tcp(scenario, seed=0)
    assert report.ok, [v.render() for v in report.expects if not v.ok]
    assert len(threads) == len(scenario.events)
    assert {t.name for t in threads} == {"tcp-io"}
    assert threading.current_thread() not in threads


def test_env_calls_off_the_fabric_thread_raise():
    """Only the I/O thread may touch the timer queue and the selector: from
    another thread, each env call that would raises before it binds,
    dials or queues anything."""
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    env = fabric.env("fd00::a1")
    try:
        for call in (lambda: env.schedule(10, lambda: None),
                     lambda: env.schedule_repeating(10, lambda: None),
                     lambda: env.listen(7000, lambda channel, info: None),
                     lambda: env.connect(Endpoint("fd00::a1", 7000))):
            with pytest.raises(RuntimeError):
                call()
        assert fabric._listeners == set() and fabric._io._queue == []
        assert fabric._session_ports["fd00::a1"].allocated == set()
        # On the loop the same listen binds the port the refused one left.
        _on_loop(env, lambda: env.listen(7000, lambda channel, info: None))
        assert fabric._loops[0].errors == [] and fabric._io.errors == []
    finally:
        fabric.shutdown()


def test_registration_timeout_is_a_verdict(monkeypatch):
    before = set(threading.enumerate())
    scenario = load_scenario(FIXTURES / "fig1_boot.scenario")
    monkeypatch.setattr(ssmmp.harness.tcp_runner, "REGISTER_TIMEOUT_S", 0)
    report = run_scenario_tcp(scenario, seed=0)
    assert not report.ok
    failed = [v for v in report.invariants if not v.ok]
    assert [v.name for v in failed] == ["registration"]
    assert _wait(lambda: set(threading.enumerate()) <= before), \
        [t.name for t in set(threading.enumerate()) - before]


def _booted_fig1_cluster(fig1):
    cluster = build_tcp_cluster([fig1], "fd00::1",
                                [NodeDef("fd00::a1", ["A", "B"])])
    assert _wait(lambda: all(a.registered for a in cluster.agents.values()))
    manager = cluster.manager
    manager.env.call(manager.start_app)
    # The instance table is walked on the loop, which changes it.
    assert _wait(lambda: _on_loop(manager.env, lambda: (
        ("A", 1) in cluster.runtimes
        and bool(manager.running_instances("A")))))
    return cluster


def _open_close_pairs(cluster, pairs: int) -> None:
    """Open plug P of A.1 and close it again, one session at a time."""
    manager = cluster.manager
    rt = cluster.runtimes[("A", 1)]
    for _ in range(pairs):
        opened = []
        rt._loop.post(lambda: rt.open_session(
            "P", on_established=lambda _rt, handle: opened.append(handle)))
        assert _wait(lambda: opened
                     and len(manager.established_sessions()) == 1, poll=0.001)
        record = manager.established_sessions()[0]
        rt._loop.post(lambda: rt.close_session(opened[0]))
        assert _wait(lambda: record.state is SessionState.CLOSED, poll=0.001)


def test_hard_shutdown_kills_on_the_runtimes_own_loop(fig1, monkeypatch):
    killers = []
    kill = ServiceRuntime.kill

    def recorded_kill(rt):
        killers.append(_running_loop())
        kill(rt)

    monkeypatch.setattr(ServiceRuntime, "kill", recorded_kill)
    cluster = _booted_fig1_cluster(fig1)
    try:
        manager = cluster.manager
        rt = cluster.runtimes[("A", 1)]
        record = _on_loop(manager.env,
                          lambda: manager.running_instances("A")[0])
        cluster.manager_loop.post(lambda: manager.request_hard_shutdown(record))
        assert _wait(lambda: rt.state == "killed")
        assert _wait(lambda: ("A", 1) not in cluster.agents["fd00::a1"].instances)
        assert killers == [rt._loop]
        errors = [e for loop in cluster.fabric._loops for e in loop.errors]
        assert errors == []
    finally:
        cluster.shutdown()



def test_each_runtime_dials_its_agent_from_its_own_loop(fig1, monkeypatch):
    dials = []
    connect = TcpEnv.connect

    def recorded_connect(env, dst, kind="data", meta=None):
        if meta and "instance" in meta:
            dials.append((meta["service"], int(meta["instance"]),
                          _running_loop()))
        return connect(env, dst, kind, meta)

    monkeypatch.setattr(TcpEnv, "connect", recorded_connect)
    cluster = _booted_fig1_cluster(fig1)
    try:
        cluster.manager_loop.post(lambda: cluster.manager.execute_instance("B"))
        assert _wait(lambda: len(dials) == 2)
        assert [(svc, iid) for svc, iid, _t in dials] == [("A", 1), ("B", 1)]
        for svc, iid, loop in dials:
            assert loop is cluster.runtimes[(svc, iid)]._loop
        errors = [e for loop in cluster.fabric._loops for e in loop.errors]
        assert errors == []
    finally:
        cluster.shutdown()


def test_exec_on_a_port_bound_outside_the_fabric_answers_409(fig1,
                                                             monkeypatch):
    statuses = []
    handle_response = Manager.handle_response

    def recorded_response(manager, addr, msg):
        if msg.msg_type is MT.EXECUTION_RESPONSE:
            statuses.append(msg.status)
        handle_response(manager, addr, msg)

    monkeypatch.setattr(Manager, "handle_response", recorded_response)
    cluster = _booted_fig1_cluster(fig1)
    squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        manager = cluster.manager
        # 20000 is the port the manager's pool hands to the first B.
        squatter.bind((cluster.fabric.ip("fd00::a1"), 20000))
        squatter.listen(1)
        cluster.manager_loop.post(lambda: manager.execute_instance("B"))
        assert _wait(lambda: len(statuses) == 2)
        assert statuses == [wire.EXECUTED, wire.CONFLICT]
        assert _wait(lambda: ("B", 1) not in manager.instances)
        assert ("B", 1) not in cluster.agents["fd00::a1"].instances
        assert ("B", 1) not in cluster.runtimes
        errors = [e for loop in cluster.fabric._loops for e in loop.errors]
        assert errors == [] and cluster.fabric._io.errors == []
    finally:
        squatter.close()
        cluster.shutdown()

def test_thread_count_does_not_grow_with_sessions(fig1, monkeypatch):
    """A fabric starts exactly one thread, its I/O thread, however many
    actors and sessions run."""
    counts: list[int] = []
    start = threading.Thread.start

    def counted_start(thread):
        start(thread)
        counts.append(threading.active_count())

    # The count only rises when a thread starts, so this sees its peak.
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    before = set(threading.enumerate())
    peaks = []
    for pairs in (5, 40):
        counts.clear()
        cluster = _booted_fig1_cluster(fig1)
        try:
            _open_close_pairs(cluster, pairs)
            counts.append(threading.active_count())
            peak = max(counts)
            assert peak == len(before) + 1, \
                [t.name for t in threading.enumerate()]
            peaks.append(peak)
        finally:
            cluster.shutdown()
        assert _wait(lambda: set(threading.enumerate()) <= before)
    assert peaks[0] == peaks[1]


def test_a_burst_of_opens_in_one_callback_all_establish():
    """500 opens posted from A.1 in one callback (`tools/tcp_burst.py`) all
    establish at the manager within 2 s, and no pending session expires:
    the listener's backlog holds every connect the burst makes until the
    loop accepts."""
    result = tcp_burst.burst(500)
    assert result["established at manager"] == 500, result
    assert result["expired pending sessions"] == 0, result
    assert result["loop errors"] == 0, result
    assert result["seconds"] < 2.0, result


def test_shutdown_leaves_the_managers_sessions_open(fig1):
    """The fabric closes its channels and stops its thread in one callback
    on that thread, so no actor runs on a peer's close: the manager still
    holds every session the run left open."""
    cluster = _booted_fig1_cluster(fig1)
    manager = cluster.manager
    try:
        _open_close_pairs(cluster, 1)  # the first session spawns B.1
        rt = cluster.runtimes[("A", 1)]
        rt._loop.post(lambda: [rt.open_session("P") for _ in range(300)])
        assert _wait(lambda: len(manager.established_sessions()) == 300)
    finally:
        cluster.shutdown()
    assert len(manager.established_sessions()) == 300


def test_a_send_to_a_peer_that_reads_nothing_fails_after_the_timeout(
        monkeypatch):
    """A send the kernel will not take, to a socket outside the fabric that
    never reads, returns False after PREAMBLE_TIMEOUT_S, and the sender's
    loop goes on to its next post."""
    monkeypatch.setattr(ssmmp.tcp, "PREAMBLE_TIMEOUT_S", 0.3)
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    fabric.add_node("fd00::a2")
    server = socket.create_server((fabric.ip("fd00::a2"), 7000))
    env = fabric.env("fd00::a1")
    msg = wire.make_message(
        MT.SOURCE_SESSION_CLOSE_INFO, 1, ST.SOURCE_SERVICE_TO_AGENT,
        source_service_name="A", source_service_instance_network_address=
        "fd00::a1", source_service_instance_id=1, source_plug_name="P",
        source_plug_port=40000, dest_service_name="B",
        dest_service_instance_network_address="fd00::a2",
        dest_socket_name="S", dest_socket_port=20000,
        dest_socket_new_port=40001)
    done = threading.Event()
    result = {}

    def flood():
        channel, _m, _l = env.connect(Endpoint("fd00::a2", 7000))
        sent = 0
        while True:
            t0 = time.monotonic()
            if not send_message(channel, msg):
                break
            sent += 1
        result.update(sent=sent, refused_after=time.monotonic() - t0,
                      open=channel.is_open)
        env.call(done.set)

    try:
        env.call(flood)
        assert done.wait(10), "the sender's loop is stuck in a send"
        assert result["sent"] > 0 and not result["open"]
        assert 0.3 * 0.9 <= result["refused_after"] < 0.3 + 0.7, result
        assert fabric._loops[0].errors == [] and fabric._io.errors == []
    finally:
        server.close()
        fabric.shutdown()


def test_closed_channels_leave_the_fabric(fig1):
    cluster = _booted_fig1_cluster(fig1)
    fabric = cluster.fabric
    try:
        _open_close_pairs(cluster, 1)  # the first session spawns B.1
        control_channels = len(fabric._channels)
        listeners = len(fabric._listeners)
        _open_close_pairs(cluster, 200)
        assert _wait(lambda: len(fabric._channels) == control_channels)
        assert len(fabric._channels) == sum(ch.is_open
                                            for ch in fabric._channels)
        assert len(fabric._listeners) == listeners
        assert [e for loop in fabric._loops for e in loop.errors] == []
        assert fabric._io.errors == []
    finally:
        cluster.shutdown()


def test_session_ports_of_released_channels_are_reused(fig1):
    """Past 65535 connect picks the ports of released channels, oldest
    first, so opens keep succeeding. The connecting end frees its port."""
    cluster = _booted_fig1_cluster(fig1)
    fabric = cluster.fabric
    try:
        _open_close_pairs(cluster, 1)  # the first session spawns B.1
        control_channels = len(fabric._channels)
        pool = fabric._session_ports["fd00::a1"]
        assert _wait(lambda: len(pool._freed) == 1)
        first_port = cluster.manager.sessions[0].session_port
        pool._next = 65534
        for _ in range(5):
            _open_close_pairs(cluster, 1)
            # The connecting end frees the port when it closes, which may
            # be after the manager has seen the close.
            assert _wait(lambda: len(fabric._channels) == control_channels)
        ports = [s.session_port for s in cluster.manager.sessions[1:]]
        assert ports == [65534, 65535, first_port, 65534, 65535]
        assert [e for loop in fabric._loops for e in loop.errors] == []
        assert fabric._io.errors == []
    finally:
        cluster.shutdown()


def test_tcp_shutdown_stops_every_thread(fig1):
    before = set(threading.enumerate())
    cluster = build_tcp_cluster([fig1], "fd00::1",
                                [NodeDef("fd00::a1", ["A", "B"])])
    try:
        assert _wait(lambda: all(a.registered
                                 for a in cluster.agents.values()))
        cluster.manager_loop.post(cluster.manager.start_app)
        assert _wait(lambda: ("A", 1) in cluster.runtimes)
    finally:
        cluster.shutdown()
    assert _wait(lambda: set(threading.enumerate()) <= before), \
        [t.name for t in set(threading.enumerate()) - before]


@pytest.fixture
def acceptor():
    """A fabric with one node listening on port 7000, and what it accepted."""
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    accepted = []
    env = fabric.env("fd00::a1")
    _on_loop(env, lambda: env.listen(
        7000, lambda channel, info: accepted.append(info)))
    yield fabric, accepted
    fabric.shutdown()


@pytest.mark.parametrize("preamble", [
    b"connect foo\n", b"connect \xff=1\n", b"hello plug=P\n",
    b"connect plug=P\n", b"connect session=x\n", b"connect session=39999\n",
    b"connect session=65536\n",
    # Arabic-Indic digits for 40000: decimal to str.isdecimal and int()
    "connect session=\u0664\u0660\u0660\u0660\u0660\n".encode(),
    pytest.param(b"connect session=" + b"4" * 5000 + b"\n",
                 id="connect session=4x5000")])
def test_malformed_preamble_closes_the_connection(acceptor, preamble):
    fabric, accepted = acceptor
    with socket.create_connection((fabric.ip("fd00::a1"), 7000),
                                  timeout=5) as raw:
        raw.sendall(preamble)
        assert raw.recv(64) == b""
    assert accepted == []


@pytest.mark.parametrize("instance", [
    "x", "9", pytest.param("7" * 5000, id="7x5000")])
def test_agent_closes_control_channel_naming_no_instance(fig1, instance,
                                                         monkeypatch):
    """A control connection whose preamble names no instance of the agent,
    by a non-numeric id or an unknown one, is closed without a loop error."""
    accepts = []
    on_runtime_connect = Agent._on_runtime_connect

    def counted(agent, channel, info):
        accepts.append(info)
        on_runtime_connect(agent, channel, info)

    monkeypatch.setattr(Agent, "_on_runtime_connect", counted)
    cluster = build_tcp_cluster([fig1], "fd00::1",
                                [NodeDef("fd00::a1", ["A", "B"])])
    fabric = cluster.fabric
    try:
        assert _wait(lambda: all(a.registered
                                 for a in cluster.agents.values()))
        agent = cluster.agents["fd00::a1"]
        port = _on_loop(agent.env,
                        lambda: fabric._session_ports["fd00::a1"].alloc())
        with socket.create_connection(
                (fabric.ip("fd00::a1"), agent.config.agent_port),
                timeout=5) as raw:
            raw.sendall(f"connect instance={instance} service=A "
                        f"session={port}\n".encode())
            assert raw.recv(64) == b""
        assert len(accepts) == 1
        assert [e for loop in fabric._loops for e in loop.errors] == []
        assert fabric._io.errors == []
    finally:
        cluster.shutdown()


def test_silent_connector_is_closed_after_preamble_timeout(acceptor):
    fabric, accepted = acceptor
    t0 = time.monotonic()
    with socket.create_connection((fabric.ip("fd00::a1"), 7000),
                                  timeout=PREAMBLE_TIMEOUT_S + 3) as raw:
        assert raw.recv(64) == b""
    assert PREAMBLE_TIMEOUT_S * 0.9 <= time.monotonic() - t0
    assert accepted == []


def test_both_ends_of_a_channel_set_nodelay(acceptor):
    fabric, accepted = acceptor
    fabric.add_node("fd00::a2")
    env = fabric.env("fd00::a2")
    channel, _m, _l = _on_loop(env, lambda: env.connect(
        Endpoint("fd00::a1", 7000)))
    try:
        assert _wait(lambda: len(accepted) == 1)
        nodelay = _on_loop(env, lambda: [
            ch._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            for ch in fabric._channels])
        assert len(nodelay) == 2 and all(nodelay)
    finally:
        _on_loop(env, channel.close)


def test_timers_fire_in_deadline_order_until_cancelled():
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    env = fabric.env("fd00::a1")
    fired: list = []
    def schedule():
        # On the actor's loop, as actors do: no fire can run in between.
        for delay in (150, 50, 100):
            env.schedule(delay, lambda d=delay: fired.append(d))
        env.schedule(75, lambda: fired.append("cancelled")).cancel()
        return env.schedule_repeating(5, lambda: fired.append("tick"))

    try:
        ticks = _on_loop(env, schedule)
        assert _wait(lambda: fired.count("tick") >= 3 and 150 in fired)
        assert [f for f in fired if f != "tick"] == [50, 100, 150]
        stopped = []
        env.call(lambda: (ticks.cancel(), stopped.append(fired.count("tick"))))
        assert _wait(lambda: stopped)
        time.sleep(0.05)
        assert fired.count("tick") == stopped[0]
        assert "cancelled" not in fired
        assert fabric._loops[0].errors == [] and fabric._io.errors == []
    finally:
        fabric.shutdown()


def test_timers_from_many_threads_fire_once_unless_cancelled():
    """Threads racing to post timers and their cancels onto the loop lose
    no timer and fire none twice, through the heap's compaction; a
    cancelled one never fires."""
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    env = fabric.env("fd00::a1")
    fired: list[tuple[int, int]] = []
    cancelled: set[tuple[int, int]] = set()
    timers: dict[tuple[int, int], object] = {}

    def schedule_many(worker: int) -> None:
        for i in range(300):
            key = (worker, i)

            def schedule(key=key, delay=200 + i % 7):
                timers[key] = env.schedule(delay, lambda: fired.append(key))

            env.call(schedule)
            if i % 3 == 0:
                env.call(lambda key=key: timers[key].cancel())
                cancelled.add(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=schedule_many, args=(w,))
                   for w in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = {(w, i) for w in range(4) for i in range(300)} - cancelled
    try:
        assert _wait(lambda: len(fired) >= len(expected))
        time.sleep(0.05)
        assert len(fired) == len(set(fired)) and set(fired) == expected
    finally:
        fabric.shutdown()


def test_connect_waits_for_nothing_from_the_acceptor():
    """Against a listener that accepts nothing and reads nothing, connect
    returns at once with the session port the pool handed out, and the
    connecting actor's loop goes on serving posts."""
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    fabric.add_node("fd00::a2")
    server = socket.create_server((fabric.ip("fd00::a2"), 7000))
    env = fabric.env("fd00::a1")
    done = threading.Event()
    times = {}

    def connect_then_post():
        t0 = time.monotonic()
        times["result"] = env.connect(Endpoint("fd00::a2", 7000))
        times["connect"] = time.monotonic() - t0
        env.call(lambda: (times.update(posted=time.monotonic() - t0),
                          done.set()))

    try:
        env.call(connect_then_post)
        assert done.wait(5)
        assert times["connect"] < 0.05 and times["posted"] < 0.05, times
        channel, _m, l = times["result"]
        assert l == EPHEMERAL_START
        assert fabric._session_ports["fd00::a2"].allocated == {l}
        _on_loop(env, channel.close)
        assert not fabric._session_ports["fd00::a2"].allocated
    finally:
        server.close()
        fabric.shutdown()


def test_connect_to_a_full_accept_queue_is_refused_after_the_timeout(
        monkeypatch):
    monkeypatch.setattr(ssmmp.tcp, "PREAMBLE_TIMEOUT_S", 0.3)
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    fabric.add_node("fd00::a2")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind((fabric.ip("fd00::a2"), 7000))
    server.listen(0)
    held = socket.create_connection((fabric.ip("fd00::a2"), 7000), timeout=5)
    pool = fabric._session_ports["fd00::a2"]
    available = pool.available()
    env = fabric.env("fd00::a1")
    try:
        t0 = time.monotonic()
        with pytest.raises(ConnectionRefused):
            _on_loop(env, lambda: env.connect(Endpoint("fd00::a2", 7000)))
        assert time.monotonic() - t0 < 0.3 + 0.5
        assert pool.available() == available
    finally:
        held.close()
        server.close()
        fabric.shutdown()


def test_connect_with_no_session_port_left_sends_nothing():
    """As in the simulator, a destination with no free session port refuses
    the connect before it is dialled."""
    fabric = TcpFabric()
    fabric.add_node("fd00::a1")
    fabric.add_node("fd00::a2")
    server = socket.create_server((fabric.ip("fd00::a2"), 7000))
    server.setblocking(False)
    pool = fabric._session_ports["fd00::a2"]
    while pool.alloc() is not None:
        pass
    env = fabric.env("fd00::a1")
    try:
        with pytest.raises(ConnectionRefused):
            _on_loop(env, lambda: env.connect(Endpoint("fd00::a2", 7000)))
        with pytest.raises(BlockingIOError):
            server.accept()
    finally:
        server.close()
        fabric.shutdown()


def test_a_loop_exception_fails_the_tcp_run(monkeypatch):
    """The same raising handler ends in the same failed verdict on both
    fabrics: over TCP the actor's loop catches it, in the simulator the
    scenario driver does. A run without one carries no `loop_errors`."""
    raised = []
    handle_execution_request = Agent.handle_execution_request

    def raise_once(agent, msg):
        handle_execution_request(agent, msg)
        if not raised:
            raised.append(msg)
            raise RuntimeError("injected exec failure")

    scenario = load_scenario(FIXTURES / "fig1_boot.scenario")
    assert "loop_errors" not in [v.name for v in run_scenario(scenario, 0)
                                 .invariants]
    monkeypatch.setattr(Agent, "handle_execution_request", raise_once)
    for run in (run_scenario, run_scenario_tcp):
        raised.clear()
        report = run(scenario, 0)
        assert raised
        [verdict] = [v for v in report.invariants if v.name == "loop_errors"]
        assert not verdict.ok
        assert verdict.detail == "1 caught: RuntimeError: injected exec failure"


def test_a_tick_that_raises_keeps_its_period(monkeypatch):
    """A repeating timer whose callback raised fires again on both fabrics,
    and the run fails `loop_errors` with that one exception."""
    ticks = []
    idle_tick = Manager.idle_tick

    def raise_once(manager):
        ticks.append(manager)
        if len(ticks) == 1:
            raise RuntimeError("injected tick failure")
        return idle_tick(manager)

    monkeypatch.setattr(ssmmp.manager, "IDLE_POLL_MS", 100)
    monkeypatch.setattr(Manager, "idle_tick", raise_once)
    scenario = load_scenario(FIXTURES / "fig1_boot.scenario")
    for run in (run_scenario, run_scenario_tcp):
        ticks.clear()
        report = run(scenario, 0)
        assert len(ticks) >= 3, run
        [verdict] = [v for v in report.invariants if v.name == "loop_errors"]
        assert verdict.detail == "1 caught: RuntimeError: injected tick failure"
