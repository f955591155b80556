"""Deterministic in-process network: nodes, ordered channels, timers.

Single-threaded discrete-event simulation. Every delivery, accept, close,
and timer is an entry in one priority queue ordered by (time, tie, seq);
the tie key is drawn per channel (or per timer) from the run seed, so equal
seeds replay identical traces while different seeds may interleave unrelated
channels differently. Per-channel FIFO always holds.

Connecting allocates an ephemeral port m on the source node and a fresh
per-session port l on the destination node; the acceptor learns the peer
endpoint and any connect metadata, the connector learns l. A channel's port
is bound while it is open and free again once it closes. Each node hands out
m and l from one `PortPool` over 40000-65535, as the TCP fabric does, and
skips a port that a listener holds. A queued entry is its own timer.

Both fabrics' channels are a `ChannelEnd`, which holds the handlers and
what arrives before them; `Channel` and `tcp.TcpChannel` add only send, close
and delivery. Every control message leaves through `send_message` and is read
through `read_messages`, with one `wire.MessageReader` per channel.

A simulated run has at most one observer, `SimNetwork.observer`: it sees
each sent `Message`, each transport event and each actor's `env.emit`.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, NamedTuple

from . import wire
from .wire import Message

EPHEMERAL_START = 40000
EPHEMERAL_END = 65535
_QUEUE_COMPACT_MIN = 64  # below this many entries, never compact the queue
HOP_LATENCY_MS = 1  # per hop, unless a latency distribution is given


class PortPool:
    """Ports from `start` to `end`: never-used ones first, in rising order,
    then the longest-freed one. The manager's listener ports and the TCP
    fabric's session ports each keep one pool per node."""

    def __init__(self, start: int = 20000, end: int = 39999):
        self._next = start
        self._end = end
        self._freed: deque[int] = deque()
        self.allocated: set[int] = set()

    def available(self) -> int:
        return self._end - self._next + 1 + len(self._freed)

    def alloc(self) -> int | None:
        """The next free port, or None when every port is in use."""
        if self._next <= self._end:
            port = self._next
            self._next += 1
        elif self._freed:
            port = self._freed.popleft()
        else:
            return None
        self.allocated.add(port)
        return port

    def free(self, port: int) -> None:
        if port in self.allocated:
            self.allocated.discard(port)
            self._freed.append(port)


class Endpoint(NamedTuple):
    addr: str
    port: int

    def __str__(self) -> str:
        return f"{self.addr}:{self.port}"


class TransportError(Exception):
    pass


class PortInUse(TransportError):
    pass


class ConnectionRefused(TransportError):
    pass


class NodeDown(TransportError):
    pass


class ChannelClosed(TransportError):
    pass


class AcceptInfo(NamedTuple):
    peer: Endpoint          # (source address, plug port m)
    listener_port: int      # k
    session_port: int       # l
    meta: dict


class ChannelEnd:
    """One end of an ordered reliable duplex byte stream, on either fabric.

    Data and a peer's close that come before `set_handlers` wait here, and
    are replayed in order once it is called. A subclass sends and closes (a
    no-op on a closed end), and hands what arrives to `_arrive` and
    `_peer_closed`. Ends hash by identity."""

    def __init__(self, local: Endpoint, remote: Endpoint, kind: str):
        self.local = local
        self.remote = remote
        self.kind = kind  # control | data | external
        self._open = True
        self.on_data: Callable[[ChannelEnd, bytes], None] | None = None
        self.on_close: Callable[[ChannelEnd], None] | None = None
        self._inbox: list[bytes] = []
        self._pending_close = False

    @property
    def is_open(self) -> bool:
        return self._open

    def set_handlers(self, on_data, on_close) -> None:
        self.on_data = on_data
        self.on_close = on_close
        if self._inbox:  # data that came before the handlers, in order
            inbox, self._inbox = self._inbox, []
            for data in inbox:
                self.on_data(self, data)
        if self._pending_close:
            self._pending_close = False
            self._peer_closed()

    def _arrive(self, data: bytes) -> None:
        if self.on_data is None:
            self._inbox.append(data)
        else:
            self.on_data(self, data)

    def _peer_closed(self) -> None:
        """The peer closed this end: tell the handler, now or once set."""
        if self.on_data is None and self.on_close is None:
            self._pending_close = True
        elif self.on_close is not None:
            self.on_close(self)


def send_message(channel: ChannelEnd | None, msg: Message) -> bool:
    """Serialize `msg` and send it on `channel`. False when the channel is
    missing or closed, or closes under the send."""
    if channel is None or not channel.is_open:
        return False
    try:
        channel.send(wire.serialize_message(msg), msg)
    except ChannelClosed:
        return False
    return True


def read_messages(channel: ChannelEnd, on_message, on_close) -> None:
    """Set `channel`'s handlers: its bytes go through one MessageReader,
    and each whole message to `on_message(channel, msg)`."""
    reader = wire.MessageReader()

    def on_data(ch, data):
        for msg in reader.feed(data):
            on_message(ch, msg)

    channel.set_handlers(on_data, on_close)


class Channel(ChannelEnd):
    """A simulated end; its peer is the other end of the same connection."""

    def __init__(self, net: SimNetwork, local: Endpoint, remote: Endpoint,
                 kind: str, tie: float):
        super().__init__(local, remote, kind)
        self._net = net
        self._tie = tie
        self._peer: Channel | None = None
        self._floor = 0

    def send(self, data: bytes, msg: Message | None = None) -> None:
        if not self._open:
            raise ChannelClosed(f"{self.local} -> {self.remote}")
        self._net._send(self, data, msg)

    def close(self) -> None:
        """Close both ends; the peer is notified after one hop of latency."""
        if self._open:
            self._net._close_end(self)

    def _close_from_peer(self) -> None:
        if self._open:
            self._net._unbind(self)
            self._peer_closed()

    def _deliver(self, data: bytes) -> None:
        if not self._open:
            self._net._event("drop", self.remote, self.local, f"len={len(data)}")
            return
        self._net._event("deliver", self.remote, self.local, f"len={len(data)}")
        self._arrive(data)


class Listener:
    def __init__(self, net: SimNetwork, endpoint: Endpoint, on_accept, kind: str):
        self.endpoint = endpoint
        self.on_accept = on_accept
        self.kind = kind
        self._net = net
        self.open = True

    def close(self) -> None:
        if self.open:
            self.open = False
            self._net._listeners.pop(self.endpoint, None)


class Timer:
    def __init__(self) -> None:
        self.alive = True

    def cancel(self) -> None:
        self.alive = False


class _SimTimer(Timer):
    """A timer of the simulator's queue, and its queue entry. While it is
    queued and alive, its tag is counted in `pending`, so that the pending
    tags need no walk of the queue. It is queued at most once at a time."""

    def __init__(self, pending: dict[str, int], fn, tag: str) -> None:
        super().__init__()
        self._pending = pending
        self.fn = fn
        self.tag = tag
        self.queued = False

    def cancel(self) -> None:
        if self.alive and self.queued:
            self._pending[self.tag] -= 1
        self.alive = False


class SimNetwork:
    """The simulated cluster fabric and the global event loop."""

    def __init__(self, seed: int = 0,
                 latency_fn: Callable[[random.Random], int] | None = None):
        self._rng = random.Random(seed)
        # Optional latency distribution, drawn per hop from the run seed;
        # the constant default keeps tight choreography timings.
        self._latency_fn = latency_fn
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, float, int, _SimTimer]] = []
        self._pending: dict[str, int] = {}  # tag -> live queued entries
        self._compact_at = _QUEUE_COMPACT_MIN
        # Each node's ephemeral ports; a node in `_down` has died.
        self._ports: dict[str, PortPool] = {}
        self._down: set[str] = set()
        self._listeners: dict[Endpoint, Listener] = {}
        # Open channels in creation order, by local endpoint (unique:
        # allocation skips bound ports and listen refuses them); a channel
        # leaves when it closes, which frees its port.
        self._channels: dict[Endpoint, Channel] = {}
        self.open_data_connections = 0  # with at least one end open
        self._broken: set[frozenset[str]] = set()
        self.horizon_ms: int | None = None
        # None, or the run's Collector: on_send(channel, msg), on_emit(kind,
        # text), and on_event(seq, kind, src, dst, detail) per net event.
        self.observer = None

    # -- clock & queue ------------------------------------------------------

    def now_ms(self) -> int:
        return self._now

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _event(self, kind: str, src, dst, detail: str = "") -> None:
        seq = self._next_seq()  # with or without an observer: same numbering
        if self.observer is not None:
            self.observer.on_event(seq, kind, src, dst, detail)

    def _push(self, time_ms: int, tie: float, timer: _SimTimer) -> None:
        queue = self._queue
        if len(queue) >= self._compact_at:
            # A cancelled timer (most are request timeouts) would wait for
            # its time; drop them here so that the queue stays within twice
            # its live entries. (time, tie, seq) is a total order, so the
            # live entries still run in the same order.
            queue[:] = [e for e in queue if e[3].alive]
            heapq.heapify(queue)
            self._compact_at = max(_QUEUE_COMPACT_MIN, 2 * len(queue))
        heapq.heappush(queue, (time_ms, tie, self._next_seq(), timer))
        timer.queued = True
        self._pending[timer.tag] = self._pending.get(timer.tag, 0) + 1

    def _hop_latency(self) -> int:
        if self._latency_fn is not None:
            return max(1, int(self._latency_fn(self._rng)))
        return HOP_LATENCY_MS

    def _after_channel(self, ch: Channel, fn, tag: str = "net") -> Timer:
        """Channel events keep send order even under drawn latencies."""
        timer = _SimTimer(self._pending, fn, tag)
        time_ms = max(self._now + self._hop_latency(), ch._floor)
        ch._floor = time_ms
        self._push(time_ms, ch._tie, timer)
        return timer

    def schedule(self, delay_ms: int, fn, tag: str = "timer") -> Timer:
        """Run `fn` after `delay_ms`. A `retry` due past the horizon is
        dropped, as repeating ticks are, so that an actor retrying for ever
        (an agent whose manager died) cannot keep the run going."""
        timer = _SimTimer(self._pending, fn, tag)
        tie = self._rng.random()
        due = self._now + delay_ms
        if tag != "retry" or self.horizon_ms is None or due <= self.horizon_ms:
            self._push(due, tie, timer)
        return timer

    def schedule_abs(self, time_ms: int, fn, tag: str = "timeline") -> Timer:
        """Run at an absolute time, before same-time network events, in
        scheduling order (tie below the [0, 1) range used elsewhere)."""
        timer = _SimTimer(self._pending, fn, tag)
        self._push(time_ms, -1.0, timer)
        return timer

    def schedule_repeating(self, period_ms: int, fn, tag: str = "tick") -> Timer:
        def fire():
            fn()
            nxt = self._now + period_ms
            if timer.alive and (self.horizon_ms is None or nxt <= self.horizon_ms):
                self._push(nxt, tie, timer)

        timer = _SimTimer(self._pending, fire, tag)
        tie = self._rng.random()
        first = self._now + period_ms
        if self.horizon_ms is None or first <= self.horizon_ms:
            self._push(first, tie, timer)
        return timer

    def step(self) -> bool:
        """Execute the next queued entry; False when the queue is drained."""
        while self._queue:
            time_ms, _tie, _seq, timer = heapq.heappop(self._queue)
            if not timer.alive:
                continue
            timer.queued = False
            self._pending[timer.tag] -= 1
            self._now = max(self._now, time_ms)
            timer.fn()
            return True
        return False

    def run(self, until_ms: int | None = None) -> None:
        """Step until the queue is drained or the next live entry is due
        after `until_ms`."""
        queue = self._queue
        while queue:
            time_ms, _tie, _seq, timer = queue[0]
            if not timer.alive:
                heapq.heappop(queue)
            elif until_ms is not None and time_ms > until_ms:
                return
            else:
                self.step()

    def pending_tags(self) -> set[str]:
        """The tags of the live entries in the queue."""
        return {tag for tag, n in self._pending.items() if n}

    # -- topology -----------------------------------------------------------

    def add_node(self, addr: str) -> None:
        if addr not in self._ports:
            self._ports[addr] = PortPool(EPHEMERAL_START, EPHEMERAL_END)

    def node_up(self, addr: str) -> bool:
        return addr in self._ports and addr not in self._down

    def _link_ok(self, a: str, b: str) -> bool:
        return frozenset((a, b)) not in self._broken

    def kill_node(self, addr: str) -> None:
        """Node dies: listeners vanish, channels close, connects refuse."""
        if not self.node_up(addr):
            return
        self._down.add(addr)
        for ep in [ep for ep in self._listeners if ep.addr == addr]:
            self._listeners.pop(ep)
        for ch in list(self._channels.values()):
            if ch.local.addr == addr:
                self._close_end(ch, "node_down")

    def break_link(self, a: str, b: str) -> None:
        self._broken.add(frozenset((a, b)))

    def heal_link(self, a: str, b: str) -> None:
        self._broken.discard(frozenset((a, b)))

    def port_in_use(self, addr: str, port: int) -> bool:
        ep = Endpoint(addr, port)
        return ep in self._listeners or ep in self._channels

    def _alloc_port(self, addr: str) -> int:
        """A port from `addr`'s pool that no listener holds. A port that
        one holds goes back to the pool, behind every other free port."""
        pool = self._ports[addr]
        for _ in range(pool.available()):
            port = pool.alloc()
            if Endpoint(addr, port) not in self._listeners:
                return port
            pool.free(port)
        # Refused like any other failed connect, so callers answer with a
        # status rather than a traceback.
        raise ConnectionRefused(f"ephemeral ports exhausted on {addr}")

    def _unbind(self, ch: Channel) -> None:
        """Mark `ch` closed, free its port, and count a connection's last end."""
        ch._open = False
        del self._channels[ch.local]
        self._ports[ch.local.addr].free(ch.local.port)
        if ch.kind == "data" and not ch._peer._open:
            self.open_data_connections -= 1

    def _close_end(self, ch: Channel, detail: str = "") -> None:
        """Close `ch` here, and its peer one hop later."""
        self._unbind(ch)
        self._event("close", ch.local, ch.remote, detail)
        peer = ch._peer
        if peer is not None and peer._open:
            self._after_channel(ch, peer._close_from_peer)

    # -- connectivity -------------------------------------------------------

    def listen(self, addr: str, port: int, on_accept, kind: str = "data") -> Listener:
        if not self.node_up(addr):
            raise NodeDown(addr)
        ep = Endpoint(addr, port)
        if self.port_in_use(addr, port):
            raise PortInUse(str(ep))
        lst = Listener(self, ep, on_accept, kind)
        self._listeners[ep] = lst
        return lst

    def connect(self, src_addr: str, dst: Endpoint, kind: str = "data",
                meta: dict | None = None) -> tuple[Channel, int, int]:
        """Dial a listener; returns (channel, local port m, peer session port l)."""
        if not self.node_up(src_addr):
            raise NodeDown(src_addr)
        if not self.node_up(dst.addr):
            raise NodeDown(dst.addr)
        if not self._link_ok(src_addr, dst.addr):
            raise NodeDown(f"link {src_addr} <-> {dst.addr} broken")
        lst = self._listeners.get(dst)
        if lst is None or not lst.open:
            raise ConnectionRefused(str(dst))
        m = self._alloc_port(src_addr)
        try:
            l = self._alloc_port(dst.addr)
        except ConnectionRefused:
            self._ports[src_addr].free(m)
            raise
        tie = self._rng.random()
        near = Channel(self, Endpoint(src_addr, m), Endpoint(dst.addr, l), kind, tie)
        far = Channel(self, Endpoint(dst.addr, l), Endpoint(src_addr, m), kind, tie)
        near._peer, far._peer = far, near
        self._channels[near.local] = near
        self._channels[far.local] = far
        if kind == "data":
            self.open_data_connections += 1
        self._event("connect", near.local, dst, f"l={l}")
        info = AcceptInfo(near.local, dst.port, l, dict(meta or {}))

        def do_accept():
            if not far._open or not lst.open:
                return
            self._event("accept", near.local, far.local)
            lst.on_accept(far, info)

        self._after_channel(near, do_accept)
        return near, m, l

    def _send(self, ch: Channel, data: bytes, msg: Message | None) -> None:
        if msg is not None and self.observer is not None:
            self.observer.on_send(ch, msg)
        if not self._link_ok(ch.local.addr, ch.remote.addr) \
                or not self.node_up(ch.remote.addr):
            # Broken path: both ends observe a close instead of a delivery.
            self._event("drop", ch.local, ch.remote, f"len={len(data)}")
            self._close_end(ch, "link_broken")
            raise ChannelClosed(f"link down {ch.local} -> {ch.remote}")
        peer = ch._peer
        self._after_channel(ch, lambda: peer._deliver(data))

    def env(self, addr: str, name: str = "") -> SimEnv:
        """The node-bound environment of one actor. `name` is unused: every
        actor shares the one simulation thread."""
        return SimEnv(self, addr)


class SimEnv:
    """Node-bound view of the simulated network."""

    def __init__(self, net: SimNetwork, addr: str):
        self._net = net
        self.addr = addr

    def call(self, fn) -> None:
        """Run `fn` in the actor's context: at once, in the one sim thread."""
        fn()

    def now_ms(self) -> int:
        return self._net.now_ms()

    def schedule(self, delay_ms, fn, tag="timer"):
        return self._net.schedule(delay_ms, fn, tag=tag)

    def schedule_repeating(self, period_ms, fn, tag="tick"):
        return self._net.schedule_repeating(period_ms, fn, tag=tag)

    def listen(self, port, on_accept, kind="data"):
        return self._net.listen(self.addr, port, on_accept, kind=kind)

    def connect(self, dst: Endpoint, kind="data", meta=None):
        return self._net.connect(self.addr, dst, kind=kind, meta=meta)

    def emit(self, kind: str, text: str) -> None:
        if self._net.observer is not None:
            self._net.observer.on_emit(kind, text)
