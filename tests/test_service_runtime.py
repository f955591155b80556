"""Runtime SDK: sockets, session handles, close semantics, shutdown, health."""

import pytest

from conftest import make_cluster, observe, sent_messages

from ssmmp import wire
from ssmmp.service_runtime import FrameReader, frame
from ssmmp.transport import Endpoint
from ssmmp.wire import MessageType as MT, SubType as ST


def _booted(fig1_graph, repo=("A", "B")):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", list(repo))])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    return net, cluster


def _open(net, cluster, service="A", iid=1, plug="P"):
    rt = cluster.runtime(service, iid)
    rt.open_session(plug)
    net.run(until_ms=net.now_ms() + 50)
    return rt


def test_start_binds_configured_sockets(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = _open(net, cluster)
    dest = cluster.runtime("B", 1)
    port = dest.config.socket_ports[0][1]
    assert net.port_in_use("fd00::a1", port)
    assert dest.config.socket_ports[0][0] == "S"


def test_open_session_knowledge_sets(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = _open(net, cluster)
    [src] = rt.sessions.values()
    assert src.role == "source"
    assert set(src.params) == {
        "source_service_name", "source_service_instance_network_address",
        "source_service_instance_id", "source_plug_name", "source_plug_port",
        "dest_service_name", "dest_service_instance_network_address",
        "dest_socket_name", "dest_socket_port", "dest_socket_new_port"}
    assert "dest_service_instance_id" not in src.params

    [dst] = cluster.runtime("B", 1).sessions.values()
    assert dst.role == "dest"
    assert set(dst.params) == {
        "source_service_instance_network_address", "source_plug_name",
        "source_plug_port", "dest_service_name",
        "dest_service_instance_network_address", "dest_service_instance_id",
        "dest_socket_name", "dest_socket_port", "dest_socket_new_port"}
    assert "source_service_instance_id" not in dst.params
    assert "source_service_name" not in dst.params
    # the dest side learned the plug name and the source's per-session port
    assert dst.params["source_plug_name"] == "P"
    assert dst.params["source_plug_port"] == src.params["source_plug_port"]


def test_distinct_session_ports_per_acceptance(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = cluster.runtime("A", 1)
    rt.open_session("P")
    rt.open_session("P")
    net.run(until_ms=net.now_ms() + 80)
    dest = cluster.runtime("B", 1)
    ls = [h.params["dest_socket_new_port"] for h in dest.sessions.values()]
    ks = [h.params["dest_socket_port"] for h in dest.sessions.values()]
    assert len(ls) == 2 and len(set(ls)) == 2
    assert all(l != k for l, k in zip(ls, ks))


def test_open_unconfigured_plug_is_local_error(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = cluster.runtime("A", 1)
    collector = observe(net)
    with pytest.raises(KeyError):
        rt.open_session("P99")
    assert collector.records == []  # nothing hit the wire
    rt.open_session("P")  # while a configured plug's request does
    assert [m.msg_type for m in sent_messages(collector)] == [
        MT.SESSION_REQUEST]


def test_open_failure_status_propagates(fig1_graph):
    net, cluster = _booted(fig1_graph, repo=("A",))  # nobody can host B
    rt = cluster.runtime("A", 1)
    failures = []
    rt.open_session("P", on_failed=lambda _rt, plug, status:
                    failures.append((plug, status)))
    net.run(until_ms=net.now_ms() + 50)
    assert failures == [("P", wire.NO_BYTECODE)]
    assert rt.sessions == {}


def test_open_times_out_with_504_when_nothing_answers(fig1_graph,
                                                     monkeypatch):
    net, cluster = _booted(fig1_graph)
    monkeypatch.setattr(type(cluster.manager), "handle_session_request",
                        lambda *args: None)
    rt = cluster.runtime("A", 1)
    failures = []
    opened_at = net.now_ms()
    rt.open_session("P", on_failed=lambda _rt, plug, status:
                    failures.append((plug, status, net.now_ms())))
    net.run(until_ms=opened_at + rt.OPEN_TIMEOUT_MS - 1)
    assert failures == []
    net.run(until_ms=opened_at + rt.OPEN_TIMEOUT_MS)
    assert failures == [("P", wire.TIMEOUT, opened_at + rt.OPEN_TIMEOUT_MS)]
    assert rt.sessions == {}


def test_close_session_emits_one_info_even_if_closed_twice(fig1_graph):
    net, cluster = _booted(fig1_graph)
    collector = observe(net)
    rt = _open(net, cluster)
    [handle] = rt.sessions.values()
    rt.close_session(handle)
    rt.close_session(handle)
    net.run(until_ms=net.now_ms() + 30)
    infos = [m for m in sent_messages(collector)
             if m.msg_type is MT.SOURCE_SESSION_CLOSE_INFO
             and m.sub_type is ST.SOURCE_SERVICE_TO_AGENT]
    assert len(infos) == 1
    assert dict(infos[0].fields)["source_plug_port"] == str(
        handle.params["source_plug_port"])


def test_peer_close_triggers_dest_side_info(fig1_graph):
    net, cluster = _booted(fig1_graph)
    collector = observe(net)
    rt = _open(net, cluster)
    [handle] = rt.sessions.values()
    rt.close_session(handle)
    net.run(until_ms=net.now_ms() + 30)
    dest_infos = [m for m in sent_messages(collector)
                  if m.msg_type is MT.DEST_SESSION_CLOSE_INFO]
    assert len(dest_infos) == 2  # instance -> agent, agent -> Manager
    assert {m.sub_type for m in dest_infos} == {
        ST.DEST_SERVICE_TO_AGENT, ST.AGENT_TO_MANAGER}


def test_handle_close_request_matches_port_tuple(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = _open(net, cluster)
    [handle] = rt.sessions.values()
    req = wire.make_message(
        MT.SOURCE_SESSION_CLOSE_REQUEST, 70, ST.AGENT_TO_SOURCE_SERVICE,
        **{k: handle.params[k] for k in (
            "source_service_name", "source_service_instance_network_address",
            "source_service_instance_id", "source_plug_name",
            "source_plug_port", "dest_service_name",
            "dest_service_instance_network_address", "dest_socket_name",
            "dest_socket_port", "dest_socket_new_port")})
    sent = []
    rt._send_control = lambda msg: sent.append(msg) or True
    rt.handle_close_request(req)
    assert handle.state == "closed"
    assert rt.sessions == {}
    assert sent[-1].msg_type is MT.SOURCE_SESSION_CLOSE_RESPONSE
    assert sent[-1].status == wire.OK
    # a second identical request finds nothing open
    rt.handle_close_request(req)
    assert sent[-1].status == wire.ALREADY_CLOSED


def test_graceful_shutdown_refused_with_open_sessions(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = _open(net, cluster)
    sent = []
    rt._send_control = lambda msg: sent.append(msg) or True
    rt.handle_graceful_shutdown(wire.make_message(
        MT.GRACEFUL_SHUTDOWN_REQUEST, 80, ST.AGENT_TO_SERVICE_INSTANCE,
        service_name="A", service_instance_id=1))
    assert sent[-1].status == wire.CONFLICT
    assert rt.state == "running"


def test_graceful_shutdown_responds_then_exits(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = cluster.runtime("A", 1)
    order = []
    real_send = rt._send_control
    rt._send_control = lambda msg: order.append(
        ("send", msg.status, rt.state)) or real_send(msg)
    rt.handle_graceful_shutdown(wire.make_message(
        MT.GRACEFUL_SHUTDOWN_REQUEST, 81, ST.AGENT_TO_SERVICE_INSTANCE,
        service_name="A", service_instance_id=1))
    # the 200 leaves while the runtime still runs; it exits right after
    assert order == [("send", wire.OK, "running")]
    assert rt.state == "exited"
    # after the 200 no further messages leave the runtime
    assert rt._send_control(wire.make_message(
        MT.SESSION_ACK, 99, ST.SERVICE_TO_AGENT, status=200,
        source_plug_port=1, dest_socket_new_port=2)) is False


def test_health_codes(fig1_graph):
    net, cluster = _booted(fig1_graph)
    rt = cluster.runtime("A", 1)
    sent = []
    rt._send_control = lambda msg: sent.append(msg) or True
    req = wire.make_message(
        MT.HEALTH_CONTROL_REQUEST, 90, ST.AGENT_TO_SERVICE_INSTANCE,
        service_name="A", service_instance_id=1)
    rt.handle_health_request(req)
    assert sent[-1].status == wire.OK
    rt.behavior.load_threshold = -1
    rt.handle_health_request(req)
    assert sent[-1].status == wire.OVERLOADED
    rt.behavior.load_threshold = 8
    rt.behavior.faulted = True
    rt.handle_health_request(req)
    assert sent[-1].status == wire.INTERNAL_ERROR
    rt.behavior.mute = True
    n = len(sent)
    rt.handle_health_request(req)
    assert len(sent) == n  # a wedged instance answers nothing


def test_bind_conflict_surfaces_as_execution_409(fig1_graph):
    net, cluster = _booted(fig1_graph)
    collector = observe(net)
    # occupy the port the pool will hand to the next B instance
    net.listen("fd00::a1", 20000, lambda ch, info: None)
    cluster.manager.execute_instance("B")
    net.run(until_ms=net.now_ms() + 30)
    responses = [m for m in sent_messages(collector)
                 if m.msg_type is MT.EXECUTION_RESPONSE]
    assert responses and responses[-1].status == wire.CONFLICT
    assert ("B", 1) not in cluster.manager.instances


def test_parked_request_whose_exec_fails_is_answered_406(fig1_graph):
    net, cluster = _booted(fig1_graph)
    # B.1 is not running yet: the request waits on its exec, whose socket
    # cannot bind the port the pool hands it
    net.listen("fd00::a1", 20000, lambda ch, info: None)
    rt = cluster.runtime("A", 1)
    failures = []
    rt.open_session("P", on_failed=lambda _rt, plug, status:
                    failures.append((plug, status)))
    net.run(until_ms=net.now_ms() + 50)
    assert failures == [("P", wire.NO_BYTECODE)]
    assert ("B", 1) not in cluster.manager.instances


def test_frame_reader_roundtrip():
    reader = FrameReader()
    data = frame(b"alpha") + frame(b"") + frame(b"beta")
    got = []
    for i in range(0, len(data), 3):
        got.extend(reader.feed(data[i:i + 3]))
    assert got == [b"alpha", b"", b"beta"]

    payloads = [b"frame-%05d" % i * (i % 3) for i in range(16_000)]
    data = b"".join(frame(p) for p in payloads)
    assert FrameReader().feed(data) == payloads  # fed whole
    reader = FrameReader()
    got = []
    for i in range(len(data)):  # fed byte by byte
        got.extend(reader.feed(data[i:i + 1]))
    assert got == payloads


def test_ack_follows_every_successful_open(fig1_graph):
    net, cluster = _booted(fig1_graph)
    collector = observe(net)
    rt = cluster.runtime("A", 1)
    for _ in range(3):
        rt.open_session("P")
        net.run(until_ms=net.now_ms() + 50)
    sent = sent_messages(collector)
    requests = [m.message_id for m in sent
                if m.msg_type is MT.SESSION_REQUEST
                and m.sub_type is ST.SERVICE_TO_AGENT]
    acks = [m.message_id for m in sent
            if m.msg_type is MT.SESSION_ACK
            and m.sub_type is ST.SERVICE_TO_AGENT]
    assert requests == acks == [1, 2, 3]


def test_kill_closes_source_sessions_first_each_in_creation_order(fig1_graph):
    """B.1, the middle of A -> B -> service-4, holds dest and source
    sessions opened interleaved; a kill closes its sources, then its dests."""
    net, cluster = _booted(fig1_graph, repo=("A", "B", "service-4"))
    a = cluster.runtime("A", 1)
    a.open_session("P")
    net.run(until_ms=net.now_ms() + 50)
    b = cluster.runtime("B", 1)
    for opener, plug in ((b, "P4"), (a, "P"), (b, "P5")):
        opener.open_session(plug)
        net.run(until_ms=net.now_ms() + 50)
    assert [h.role for h in b.sessions.values()] == \
        ["dest", "source", "dest", "source"]
    collector = observe(net)
    b.kill()
    assert b.sessions == {}
    events = [rec.text.split() for rec in collector.records
              if rec.kind == "net"]
    closes = [(e[1], e[3]) for e in events if e[0] == "close"]
    # (local, remote) of each close: the sources, then the dests, each in
    # the order they were made, then the control connection.
    assert closes == [
        ("fd00::a1:40009", "fd00::a1:40010"), ("fd00::a1:40013", "fd00::a1:40014"),
        ("fd00::a1:40006", "fd00::a1:40005"), ("fd00::a1:40012", "fd00::a1:40011"),
        ("fd00::a1:40003", "fd00::a1:40004")]


def test_external_peer_is_tabled_until_it_closes(fig1_graph):
    net, cluster = _booted(fig1_graph)
    a = cluster.runtime("A", 1)
    net.add_node("fd00::u")
    ch, _m, _l = net.connect("fd00::u", Endpoint("fd00::a1", 80),
                             kind="external")
    net.run(until_ms=net.now_ms() + 10)
    [handle] = a.sessions.values()
    assert handle.role == "external" and handle.params == {}
    assert a.open_ssmmp_sessions() == []
    ch.close()
    net.run(until_ms=net.now_ms() + 10)
    assert handle.state == "closed"
    assert a.sessions == {}
