"""The channel contract both fabrics share: `transport.ChannelEnd` and the
control-message I/O `send_message` and `read_messages`."""

import time

import pytest

from ssmmp import wire
from ssmmp.tcp import TcpChannel, TcpFabric
from ssmmp.transport import (Channel, ChannelEnd, Endpoint, SimNetwork,
                             read_messages, send_message)
from ssmmp.wire import MessageType as MT

PORT = 9000


class _Sim:
    def __init__(self):
        self.net = SimNetwork(seed=1)

    def env(self, addr):
        self.net.add_node(addr)
        return self.net.env(addr)

    def settle(self, pred):
        self.net.run()
        return pred()

    def shutdown(self):
        pass


class _Tcp:
    def __init__(self):
        self.fabric = TcpFabric()

    def env(self, addr):
        self.fabric.add_node(addr)
        return self.fabric.env(addr)

    def settle(self, pred, timeout=8.0):
        deadline = time.monotonic() + timeout
        while not pred():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    def shutdown(self):
        self.fabric.shutdown()


@pytest.fixture(params=["sim", "tcp"])
def fabric(request):
    f = _Sim() if request.param == "sim" else _Tcp()
    yield f
    f.shutdown()


def _connected(fabric, on_accept):
    """(connector env, its end), once the listener is up and the connect
    has returned; both run in their actor's context."""
    a, b = fabric.env("fd00::a"), fabric.env("fd00::b")
    listening, ends = [], []
    b.call(lambda: listening.append(b.listen(PORT, on_accept)))
    assert fabric.settle(lambda: listening)
    a.call(lambda: ends.append(a.connect(Endpoint("fd00::b", PORT))[0]))
    assert fabric.settle(lambda: ends)
    return a, ends[0]


def _msg(mid):
    return wire.make_message(MT.INITIATION_RESPONSE, mid, status=wire.OK)


def test_both_fabrics_share_one_channel_end():
    for cls in (Channel, TcpChannel):
        assert issubclass(cls, ChannelEnd)
        assert "set_handlers" not in vars(cls)


def test_data_on_an_end_without_handlers_raises_in_the_receiving_actor(
        fabric):
    """Whoever gets an end sets its handlers, or closes it, in that same
    callback; no end keeps data for handlers set later."""
    accepted = []
    a, end = _connected(fabric, lambda channel, info: accepted.append(channel))
    a.call(lambda: end.send(b"x"))
    if isinstance(fabric, _Sim):
        with pytest.raises(TypeError):
            fabric.net.run()
    else:
        errors = accepted[0]._loop.errors  # the acceptor's ActorLoop
        assert fabric.settle(lambda: errors)
        assert errors[0].startswith("TypeError")


def test_messages_cross_in_order_then_the_close(fabric):
    got = []

    def on_accept(channel, info):
        read_messages(channel, lambda ch, msg: got.append(msg.message_id),
                      lambda ch: got.append("close"))

    a, end = _connected(fabric, on_accept)
    sent = []

    def send_then_close():
        sent.extend(send_message(end, _msg(mid)) for mid in (1, 2, 3))
        end.close()

    a.call(send_then_close)
    assert fabric.settle(lambda: len(got) >= 4)
    assert sent == [True, True, True]
    assert got == [1, 2, 3, "close"]


def test_send_message_on_a_closed_channel_is_false(fabric):
    a, end = _connected(fabric, lambda channel, info: None)
    results = []

    def close_then_send():
        end.close()
        results.append(send_message(end, _msg(1)))

    a.call(close_then_send)
    assert fabric.settle(lambda: results)
    assert results == [False]
    assert send_message(None, _msg(1)) is False


def test_send_message_is_false_when_the_send_finds_the_link_down():
    sim = _Sim()
    closed = []
    _a, end = _connected(sim, lambda channel, info: channel.set_handlers(
        lambda ch, data: None, lambda ch: closed.append("peer")))
    sim.net.run()
    sim.net.break_link("fd00::a", "fd00::b")
    assert end.is_open
    assert send_message(end, _msg(1)) is False
    assert not end.is_open
    sim.net.run()
    assert closed == ["peer"]
