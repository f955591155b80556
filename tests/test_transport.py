"""Simulated fabric tests: ordering, determinism, failures, port rules."""

import pytest

from conftest import observe, sweep_scenarios

from ssmmp.harness.runner import run_scenario
from ssmmp.transport import (EPHEMERAL_END, EPHEMERAL_START, ChannelClosed,
                             ConnectionRefused, Correlations, Endpoint,
                             NodeDown, PortInUse, SimNetwork)


def _two_nodes(seed=1):
    net = SimNetwork(seed=seed)
    net.add_node("fd00::a")
    net.add_node("fd00::b")
    return net


def _echo_listener(net, addr, port, inbox):
    def on_accept(channel, info):
        channel.set_handlers(
            lambda ch, data: inbox.append(data),
            lambda ch: inbox.append(b"<closed>"))
    return net.listen(addr, port, on_accept)


def test_delivery_in_order_exactly_once():
    net = _two_nodes()
    inbox = []
    _echo_listener(net, "fd00::b", 9000, inbox)
    ch, m, l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    for i in range(20):
        ch.send(bytes([i]))
    net.run()
    assert inbox == [bytes([i]) for i in range(20)]


def test_connect_allocates_distinct_session_ports():
    net = _two_nodes()
    _echo_listener(net, "fd00::b", 9000, [])
    ls = set()
    for _ in range(100):
        _ch, m, l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
        assert l != 9000
        ls.add(l)
    assert len(ls) == 100


def test_connect_errors():
    net = _two_nodes()
    with pytest.raises(ConnectionRefused):
        net.connect("fd00::a", Endpoint("fd00::b", 9000))
    net.kill_node("fd00::b")
    with pytest.raises(NodeDown):
        net.connect("fd00::a", Endpoint("fd00::b", 9000))


def test_listen_port_conflict():
    net = _two_nodes()
    net.listen("fd00::b", 9000, lambda ch, info: None)
    with pytest.raises(PortInUse):
        net.listen("fd00::b", 9000, lambda ch, info: None)
    assert net.port_in_use("fd00::b", 9000)


def test_ephemeral_ports_wrap_past_65535_and_skip_bound_ports():
    net = _two_nodes()
    _echo_listener(net, "fd00::a", 9000, [])
    _echo_listener(net, "fd00::a", 65535, [])  # a listener inside the range
    held, _m, _l = net.connect("fd00::a", Endpoint("fd00::a", 9000))
    assert (held.local.port, held.remote.port) == (40000, 40001)
    gone, _m, _l = net.connect("fd00::a", Endpoint("fd00::a", 9000))
    gone.close()
    net.run()  # frees 40002 now and 40003 one hop later
    net._ports["fd00::a"]._next = 65534
    _ch, m, l = net.connect("fd00::a", Endpoint("fd00::a", 9000))
    # never-used 65534 first; 65535 is the listener's, so the longest-freed
    assert (m, l) == (65534, 40002)
    with pytest.raises(ConnectionRefused):  # 40003 then only 65535 is left
        net.connect("fd00::a", Endpoint("fd00::a", 9000))
    held.close()
    net.run()  # the held channel frees 40000, then 40001
    _ch, m, l = net.connect("fd00::a", Endpoint("fd00::a", 9000))
    assert (m, l) == (40003, 40000)  # the refused connect gave 40003 back


def test_ephemeral_ports_run_out_only_when_all_are_bound():
    net = _two_nodes()
    _echo_listener(net, "fd00::a", 9000, [])
    ports = EPHEMERAL_END - EPHEMERAL_START + 1
    channels = [net.connect("fd00::a", Endpoint("fd00::a", 9000))[0]
                for _ in range(ports // 2)]  # each binds two ports on fd00::a
    with pytest.raises(ConnectionRefused):
        net.connect("fd00::a", Endpoint("fd00::a", 9000))
    channels[-1].close()
    net.run()
    _ch, m, l = net.connect("fd00::a", Endpoint("fd00::a", 9000))
    assert {m, l} == {channels[-1].local.port, channels[-1].remote.port}


def test_a_refused_connect_gives_the_source_port_back():
    net = _two_nodes()
    _echo_listener(net, "fd00::b", 9000, [])
    net._ports["fd00::b"]._next = EPHEMERAL_END + 1  # no port left on b
    with pytest.raises(ConnectionRefused):
        net.connect("fd00::a", Endpoint("fd00::b", 9000))
    assert net._ports["fd00::a"].allocated == set()


def test_kill_node_closes_channels_and_listeners():
    net = _two_nodes()
    inbox = []
    closed = []
    _echo_listener(net, "fd00::b", 9000, inbox)
    ch, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    ch.set_handlers(lambda c, d: None, lambda c: closed.append("a-side"))
    net.run()
    net.kill_node("fd00::b")
    net.run()
    assert closed == ["a-side"]
    assert not ch.is_open
    with pytest.raises(ChannelClosed):
        ch.send(b"x")


def test_break_link_closes_on_send_and_heals():
    net = _two_nodes()
    inbox = []
    _echo_listener(net, "fd00::b", 9000, inbox)
    ch, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    net.run()
    net.break_link("fd00::a", "fd00::b")
    with pytest.raises(ChannelClosed):
        ch.send(b"x")
    net.run()
    assert inbox[-1] == b"<closed>"
    with pytest.raises(NodeDown):
        net.connect("fd00::a", Endpoint("fd00::b", 9000))
    net.heal_link("fd00::a", "fd00::b")
    ch2, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    ch2.send(b"y")
    net.run()
    assert b"y" in inbox


def _scripted_run(seed):
    net = _two_nodes(seed)
    collector = observe(net)
    inbox = []
    _echo_listener(net, "fd00::b", 9000, inbox)
    for i in range(3):
        ch, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
        ch.send(f"hello-{i}".encode())
    net.run()
    return [rec.render() for rec in collector.records]


def test_equal_seeds_equal_traces():
    trace = _scripted_run(5)
    assert [line.split()[3] for line in trace].count("deliver") == 3
    assert trace == _scripted_run(5)
    # a different seed is allowed to differ, but must deliver the same bytes
    assert len(_scripted_run(5)) == len(_scripted_run(6))


def test_timers_fire_in_order_and_cancel():
    net = SimNetwork(seed=0)
    fired = []
    net.schedule(10, lambda: fired.append("b"))
    net.schedule(5, lambda: fired.append("a"))
    t = net.schedule(20, lambda: fired.append("never"))
    t.cancel()
    net.run()
    assert fired == ["a", "b"]


def _timers_with_ties(cancel: bool):
    """1000 timers over 7 due times; all but every tenth one are cancelled
    (or, for the reference, left to fire as no-ops)."""
    net = SimNetwork(seed=0)
    fired = []
    for i in range(1000):
        live = i % 10 == 0
        timer = net.schedule(10 + i % 7,
                             lambda i=i, live=live: live and fired.append(i))
        if cancel and not live:
            timer.cancel()
    return net, fired


def test_cancelled_timers_leave_the_queue_and_live_ones_keep_order():
    net, fired = _timers_with_ties(cancel=True)
    assert len(net._queue) <= 2 * 100  # within twice the 100 live timers
    reference, reference_fired = _timers_with_ties(cancel=False)
    assert len(reference._queue) == 1000
    net.run()
    reference.run()
    assert fired == reference_fired  # the same seeded order of ties
    assert sorted(fired) == list(range(0, 1000, 10))


def test_pending_tags_follow_cancel_and_fire():
    net = SimNetwork(seed=0)
    net.horizon_ms = 100
    first = net.schedule(5, lambda: None, tag="a")
    later = net.schedule(10, lambda: None, tag="b")
    assert net.pending_tags() == {"a", "b"}
    later.cancel()  # leaves the count now, though its entry stays queued
    later.cancel()
    assert net.pending_tags() == {"a"}
    net.step()
    assert net.pending_tags() == set()
    first.cancel()  # after its entry fired: counted out once, not twice
    net.schedule(5, lambda: None, tag="a")
    assert net.pending_tags() == {"a"}
    net.run()
    ticks = []
    tick = net.schedule_repeating(10, lambda: ticks.append(net.now_ms())
                                  or len(ticks) == 3 and tick.cancel())
    for _ in range(2):
        net.step()
        assert net.pending_tags() == {"tick"}  # re-queued after each fire
    net.step()  # cancelled while it runs, so it is not queued again
    assert net.pending_tags() == set()
    assert len(ticks) == 3 and not net.step()


def test_correlations_queue_one_timeout_per_entry_until_taken():
    net = SimNetwork(seed=0)
    net.add_node("fd00::a")
    expired = []
    table = Correlations(net.env("fd00::a"), 50,
                         lambda key, value: expired.append((key, value)))
    table.add(1, "one")
    assert net.pending_tags() == {"timeout"}
    assert 1 in table and len(table) == 1 and table.get(1) == "one"
    assert table.items() == [(1, "one")]
    assert table.take(1) == "one"
    assert net.pending_tags() == set() and len(table) == 0
    assert table.take(1) is None and table.get(1) is None
    table.add(2, "two")
    table.add(3, "three")
    table.clear()
    assert net.pending_tags() == set() and len(table) == 0
    net.run()
    assert expired == []


def test_a_correlation_leaves_its_table_before_its_timeout_handler_runs():
    net = SimNetwork(seed=0)
    seen = []

    def on_timeout(key, value):
        seen.append((net.now_ms(), key, value, key in table))
        if len(seen) == 1:
            table.add(key, "again")  # the same key, now absent

    net.add_node("fd00::a")
    table = Correlations(net.env("fd00::a"), 50, on_timeout)
    table.add(7, "first")
    net.run()
    assert seen == [(50, 7, "first", False), (100, 7, "again", False)]
    assert len(table) == 0 and net.pending_tags() == set()


def _walked_tags(net):
    return {timer.tag for _, _, _, timer in net._queue if timer.alive}


@pytest.mark.parametrize("name,scenario", sweep_scenarios(),
                         ids=[name for name, _ in sweep_scenarios()])
def test_pending_tags_equal_a_walk_of_the_queue_at_every_step(
        name, scenario, monkeypatch):
    step = SimNetwork.step
    steps = [0]

    def checked(net):
        progressed = step(net)
        assert net.pending_tags() == _walked_tags(net)
        steps[0] += 1
        return progressed

    monkeypatch.setattr(SimNetwork, "step", checked)
    run_scenario(scenario, seed=7)
    assert steps[0] > 30


@pytest.mark.parametrize("name,scenario", sweep_scenarios(),
                         ids=[name for name, _ in sweep_scenarios()])
def test_open_data_connections_equal_a_walk_of_the_channels_at_every_step(
        name, scenario, monkeypatch):
    step = SimNetwork.step
    counts = set()

    def checked(net):
        progressed = step(net)
        walked = {frozenset((c.local, c.remote))
                  for c in net._channels.values() if c.kind == "data"}
        assert net.open_data_connections == len(walked)
        counts.add(len(walked))
        return progressed

    monkeypatch.setattr(SimNetwork, "step", checked)
    run_scenario(scenario, seed=7)
    assert len(counts) > 1


def test_run_until_stops_before_a_live_entry_past_the_limit():
    net = SimNetwork(seed=0)
    fired = []
    net.schedule(5, lambda: fired.append(5)).cancel()
    net.schedule(20, lambda: fired.append(20))
    net.run(until_ms=10)
    assert fired == []
    net.run()
    assert fired == [20]


def test_repeating_timer_respects_horizon():
    net = SimNetwork(seed=0)
    net.horizon_ms = 50
    fired = []
    net.schedule_repeating(10, lambda: fired.append(net.now_ms()))
    net.run()
    assert fired == [10, 20, 30, 40, 50]


def test_schedule_abs_runs_before_same_time_net_events():
    net = _two_nodes()
    order = []
    _echo_listener(net, "fd00::b", 9000, [])

    def timeline():
        order.append("timeline")

    ch, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    ch.send(b"x")  # delivery event lands at t=1
    net.schedule_abs(1, timeline)
    net.step()
    assert order == ["timeline"]


def test_accept_before_first_delivery():
    # data sent immediately after connect must not outrun the accept
    net = _two_nodes()
    order = []

    def on_accept(channel, info):
        order.append("accept")
        channel.set_handlers(lambda ch, d: order.append("data"),
                             lambda ch: None)

    net.listen("fd00::b", 9000, on_accept)
    ch, _m, _l = net.connect("fd00::a", Endpoint("fd00::b", 9000))
    ch.send(b"x")
    net.run()
    assert order == ["accept", "data"]
