"""Agent behavior: relaying, execution, kills, health polling."""

import pytest

from conftest import FIXTURES, make_cluster, observe, sent_messages

from ssmmp import wire
from ssmmp.agent import (_RELAY, INSTANCE_TIMEOUT_MS, AgentConfig,
                         rewrite_for_relay)
from ssmmp.graph import parse_graph_file
from ssmmp.transport import Endpoint
from ssmmp.wire import MessageType as MT, SubType as ST


def _field_multiset(msg, skip=()):
    return sorted((k, v) for k, v in msg.fields if k not in skip)


def test_relay_rewrites_session_request_and_adds_address():
    msg = wire.make_message(
        MT.SESSION_REQUEST, 4, ST.SERVICE_TO_AGENT,
        source_service_name="A", source_service_instance_id=1,
        source_plug_name="P", dest_service_name="B", dest_socket_name="S")
    out = rewrite_for_relay(msg, "fd00::a1")
    assert out.sub_type is ST.AGENT_TO_MANAGER
    assert out.message_id == 4
    assert out.fields[0] == ("agent_network_address", "fd00::a1")
    assert _field_multiset(out, skip=("agent_network_address",)) == \
        _field_multiset(msg)
    assert wire.validate_message(out) == []


@pytest.mark.parametrize("msg_type,sub_in,sub_out,values", [
    (MT.SESSION_RESPONSE, ST.MANAGER_TO_AGENT, ST.AGENT_TO_SERVICE,
     dict(status=200, dest_service_instance_network_address="fd00::a2",
          dest_socket_port=20010)),
    (MT.SESSION_ACK, ST.SERVICE_TO_AGENT, ST.AGENT_TO_MANAGER,
     dict(status=200, source_plug_port=41000, dest_socket_new_port=20555)),
    (MT.GRACEFUL_SHUTDOWN_RESPONSE, ST.SERVICE_INSTANCE_TO_AGENT,
     ST.AGENT_TO_MANAGER, dict(status=200)),
    (MT.DEST_SESSION_CLOSE_RESPONSE, ST.DEST_SERVICE_TO_AGENT,
     ST.AGENT_TO_MANAGER, dict(status=200)),
])
def test_relay_transparency(msg_type, sub_in, sub_out, values):
    msg = wire.make_message(msg_type, 9, sub_in, **values)
    out = rewrite_for_relay(msg, "fd00::a1")
    assert out.sub_type is sub_out
    assert out.msg_type is msg_type
    assert out.message_id == msg.message_id
    assert _field_multiset(out) == _field_multiset(msg)


def test_every_relay_pair_keeps_the_template_fields():
    """What lets a relay of a checked message stay checked."""
    for (msg_type, sub_in), sub_out in _RELAY.items():
        fields_in = wire.TEMPLATES[(msg_type, sub_in)]
        if msg_type is MT.SESSION_REQUEST:
            fields_in = ("agent_network_address",) + fields_in
        assert wire.TEMPLATES[(msg_type, sub_out)] == fields_in


def _session_request():
    return wire.parse_message(wire.serialize_message(wire.make_message(
        MT.SESSION_REQUEST, 4, ST.SERVICE_TO_AGENT,
        source_service_name="A", source_service_instance_id=1,
        source_plug_name="P", dest_service_name="B", dest_socket_name="S")))


def test_relay_of_a_checked_message_is_checked():
    assert rewrite_for_relay(_session_request(), "fd00::a1").checked
    ack = wire.make_message(MT.SESSION_ACK, 9, ST.SERVICE_TO_AGENT, status=200,
                            source_plug_port=41000, dest_socket_new_port=20555)
    assert rewrite_for_relay(ack, "fd00::a1").checked
    by_hand = wire.Message(ack.msg_type, ack.message_id, ack.sub_type,
                           ack.fields)
    assert not rewrite_for_relay(by_hand, "fd00::a1").checked


def test_relay_with_a_bad_agent_address_raises_when_serialized():
    out = rewrite_for_relay(_session_request(), "fd00::zz")
    assert not out.checked
    with pytest.raises(wire.InvalidMessage) as info:
        wire.serialize_message(out)
    assert str(info.value) == \
        "FieldSyntax: agent_network_address: bad address 'fd00::zz'"


def test_a_session_is_validated_nowhere_after_build_and_receipt(
        fig1_graph, monkeypatch):
    """Every message of an open and close is built by make_message or
    received by parse_message, so none is validated again on its way."""
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    calls = []
    monkeypatch.setattr(wire, "validate_message",
                        lambda m: calls.append(m) or [])
    rt = cluster.runtime("A", 1)
    opened = []
    rt.open_session("P", on_established=lambda _rt, h: opened.append(h))
    net.run(until_ms=net.now_ms() + 50)
    rt.close_session(opened[0])
    net.run(until_ms=net.now_ms() + 50)
    assert [s.close_reason for s in cluster.manager.sessions] == ["reported"]
    assert calls == []


def _one_node(fig1_graph, repo=("A", "B")):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", list(repo))])
    return net, cluster, cluster.agents["fd00::a1"]


def _exec_request(mid, service="B", iid=1, sockets="((S, 20000))",
                  plugs="((P4, service-4); (P5, service-4))"):
    return wire.make_message(
        MT.EXECUTION_REQUEST, mid,
        agent_network_address="fd00::a1", service_name=service,
        service_instance_id=iid, socket_configuration=sockets,
        plug_configuration=plugs)


def _capture_upward(agent):
    sent = []
    agent._to_manager_orig = agent._to_manager
    agent._to_manager = lambda msg: sent.append(msg) or True
    return sent


def test_execution_statuses(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    sent = _capture_upward(agent)

    agent.handle_execution_request(_exec_request(10))
    assert sent[-1].status == wire.EXECUTED
    assert ("B", 1) in agent.instances

    agent.handle_execution_request(_exec_request(11, service="ghost"))
    assert sent[-1].status == wire.NO_BYTECODE

    # socket names not matching the repository entry
    agent.handle_execution_request(_exec_request(
        12, iid=2, sockets="((WRONG, 20001))"))
    assert sent[-1].status == wire.MALFORMED

    # port already bound by a rogue local listener
    net.listen("fd00::a1", 25000, lambda ch, info: None)
    agent.handle_execution_request(_exec_request(
        13, iid=3, sockets="((S, 25000))"))
    assert sent[-1].status == wire.CONFLICT


def test_a_control_connect_naming_a_non_ascii_instance_id_is_closed(
        fig1_graph):
    """The instance id in a runtime's connect metadata comes from outside
    the program: "\u0663" is a decimal digit, but names no instance."""
    net, cluster, agent = _one_node(fig1_graph)
    _capture_upward(agent)
    agent.handle_execution_request(_exec_request(10, iid=3))
    net.run(until_ms=net.now_ms() + 50)
    li = agent.instances[("B", 3)]
    dialled = li.channel
    ch, _m, _l = net.connect(
        "fd00::a1", Endpoint("fd00::a1", agent.config.agent_port),
        kind="control", meta={"service": "B", "instance": "\u0663"})
    closed = []
    ch.set_handlers(lambda ch, data: None, lambda ch: closed.append(ch))
    net.run(until_ms=net.now_ms() + 50)
    assert closed == [ch]
    assert li.channel is dialled and dialled.is_open


def test_execution_bind_race_reports_409(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    sent = _capture_upward(agent)
    real_spawn = agent.spawn_fn

    def racing_spawn(service, iid, sockets, plugs, bytecode):
        net.listen("fd00::a1", sockets[0][1], lambda ch, info: None)
        return real_spawn(service, iid, sockets, plugs, bytecode)

    agent.spawn_fn = racing_spawn
    agent.handle_execution_request(_exec_request(20, iid=5))
    assert sent[-1].status == wire.CONFLICT
    assert ("B", 5) not in agent.instances
    assert ("B", 5) not in cluster.runtimes


def test_failed_bind_of_a_later_socket_leaves_nothing_bound():
    graph = parse_graph_file((FIXTURES / "fig1_full.graph").read_text())
    net, cluster, agent = _one_node(graph, repo=("service-4",))
    sent = _capture_upward(agent)
    real_spawn = agent.spawn_fn

    def racing_spawn(service, iid, sockets, plugs, bytecode):
        net.listen("fd00::a1", sockets[1][1], lambda ch, info: None)
        return real_spawn(service, iid, sockets, plugs, bytecode)

    agent.spawn_fn = racing_spawn
    agent.handle_execution_request(_exec_request(
        21, service="service-4", sockets="((S4, 20000); (S5, 20001); "
        "(S6, 20002))", plugs="((P10, BaaS-2))"))
    assert sent[-1].status == wire.CONFLICT
    assert not net.port_in_use("fd00::a1", 20000)
    assert not net.port_in_use("fd00::a1", 20002)
    assert ("service-4", 1) not in agent.instances
    assert ("service-4", 1) not in cluster.runtimes


def test_hard_shutdown_kills_and_404s(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    sent = _capture_upward(agent)
    agent.handle_execution_request(_exec_request(30))
    net.run(until_ms=net.now_ms() + 10)

    agent.handle_hard_shutdown_request(wire.make_message(
        MT.HARD_SHUTDOWN_REQUEST, 31, ST.MANAGER_TO_AGENT,
        service_name="B", service_instance_id=1))
    assert sent[-1].msg_type is MT.HARD_SHUTDOWN_RESPONSE
    assert sent[-1].status == wire.OK
    assert cluster.runtime("B", 1).state == "killed"

    agent.handle_hard_shutdown_request(wire.make_message(
        MT.HARD_SHUTDOWN_REQUEST, 32, ST.MANAGER_TO_AGENT,
        service_name="B", service_instance_id=1))
    assert sent[-1].status == wire.NOT_FOUND


def test_health_poll_forwards_only_abnormal(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    agent.handle_execution_request(_exec_request(40))
    net.run(until_ms=net.now_ms() + 10)
    sent = _capture_upward(agent)

    agent.health_poll_tick()
    net.run(until_ms=net.now_ms() + 20)
    assert sent == []  # healthy response swallowed

    cluster.runtime("B", 1).behavior.faulted = True
    agent.health_poll_tick()
    net.run(until_ms=net.now_ms() + 20)
    assert sent[-1].msg_type is MT.HEALTH_CONTROL_RESPONSE
    assert sent[-1].sub_type is ST.AGENT_TO_MANAGER
    assert sent[-1].status == wire.INTERNAL_ERROR


def test_silent_instance_synthesizes_500(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    agent.handle_execution_request(_exec_request(50))
    net.run(until_ms=net.now_ms() + 10)
    sent = _capture_upward(agent)
    cluster.runtime("B", 1).behavior.mute = True
    agent.health_poll_tick()
    net.run(until_ms=net.now_ms() + INSTANCE_TIMEOUT_MS + 100)
    assert any(m.msg_type is MT.HEALTH_CONTROL_RESPONSE
               and m.status == wire.INTERNAL_ERROR for m in sent)


def test_dead_instance_relay_answers_503(fig1_graph):
    net, cluster, agent = _one_node(fig1_graph)
    agent.handle_execution_request(_exec_request(60))
    net.run(until_ms=net.now_ms() + 10)
    cluster.runtime("B", 1).kill()
    net.run(until_ms=net.now_ms() + 10)
    sent = _capture_upward(agent)
    agent._from_manager(wire.make_message(
        MT.GRACEFUL_SHUTDOWN_REQUEST, 61, ST.MANAGER_TO_AGENT,
        service_name="B", service_instance_id=1))
    assert sent[-1].msg_type is MT.GRACEFUL_SHUTDOWN_RESPONSE
    assert sent[-1].status == wire.UNREACHABLE


def test_register_retries_until_manager_returns(fig1_graph):
    from ssmmp.cluster import Cluster, NodeDef
    from ssmmp.transport import SimNetwork
    net = SimNetwork(seed=3)
    net.horizon_ms = 30_000
    cluster = Cluster(net, [fig1_graph], "fd00::1",
                      [NodeDef("fd00::a1", ["A"])])
    # start only the agent; the manager is down
    cluster.agents["fd00::a1"].start()
    net.run(until_ms=3000)
    assert not cluster.agents["fd00::a1"].registered
    cluster.manager.start()  # manager comes up late
    net.run(until_ms=8000)
    assert cluster.agents["fd00::a1"].registered
    assert "fd00::a1" in cluster.manager.agents


def test_agent_forwards_responses_only_after_manager_sent_them(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])])
    collector = observe(net)
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 30)
    cluster.runtime("A", 1).open_session("P")
    net.run(until_ms=net.now_ms() + 50)
    sent = sent_messages(collector)
    downward = [m for m in sent if m.msg_type is MT.SESSION_RESPONSE
                and m.sub_type is ST.AGENT_TO_SERVICE]
    upstream = [m for m in sent if m.msg_type is MT.SESSION_RESPONSE
                and m.sub_type is ST.MANAGER_TO_AGENT]
    assert downward and upstream
    for msg in downward:
        assert any(u.message_id == msg.message_id
                   and u.fields == msg.fields for u in upstream)
    # and once relayed, the agent holds no session state of its own
    assert len(cluster.agents["fd00::a1"]._flows) == 0


def test_runtime_dials_the_agents_configured_port(fig1_graph):
    net, cluster = make_cluster(fig1_graph, [("fd00::a1", ["A", "B"])],
                                agent_config=AgentConfig(agent_port=7171))
    cluster.manager.start_app()
    net.run(until_ms=net.now_ms() + 200)
    rt = cluster.runtime("A", 1)
    assert rt.state == "running"
    rt.open_session("P")
    net.run(until_ms=net.now_ms() + 100)
    assert [(h.role, h.params["dest_service_name"])
            for h in rt.sessions.values()] == [("source", "B")]
    assert len(cluster.manager.established_sessions()) == 1
