"""Deterministic in-process network: nodes, ordered channels, timers.

Single-threaded discrete-event simulation. Every delivery, accept, close,
and timer is a `Timer` in one `TimerQueue`, ordered by (time, tie, seq);
the tie key is drawn per channel (or per timer) from the run seed, so equal
seeds replay identical traces while different seeds may interleave unrelated
channels differently. Per-channel FIFO always holds. The TCP fabric keeps
its timers in a `TimerQueue` too. A fabric's timer queue is the only record
of its outstanding work: every request an actor awaits is an entry of one
of its `Correlations` tables, which queues the entry's `timeout` timer with
it, so quiescence is read from the queue's tags (`pending_tags`), not from
the actors.

Connecting allocates an ephemeral port m on the source node and a fresh
per-session port l on the destination node; the acceptor learns the peer
endpoint and any connect metadata, the connector learns l. A channel's port
is bound while it is open and free again once it closes. Each node hands out
m and l from one `PortPool` over 40000-65535, as the TCP fabric does, and
skips a port that a listener holds.

Both fabrics' channels are a `ChannelEnd`, which holds the handlers;
`Channel` and `tcp.TcpChannel` add only send, close and delivery. Handlers
are set in the callback that got the end, so an end keeps no data for them.
A closed end holds no handlers once its close is handed on, and two closed
simulated ends no longer hold each other, so that a closed session is freed
when it closes and not at the next full collection. Every control message
leaves through `send_message` and is read through `read_messages`, with one
`wire.MessageReader` per channel.

A simulated run has at most one observer, `SimNetwork.observer`: it sees
each sent `Message`, each transport event and each actor's `env.emit`.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heapify, heappop, heappush
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

    Whoever gets an end, from `connect` or in an `on_accept`, sets its
    handlers or closes it in that same callback; no end holds data for
    handlers set later. Data that reaches an open end without handlers
    raises in the receiving actor's callback, which ends the run in the
    verdict `loop_errors`. A subclass sends and closes (a no-op on a closed
    end), and hands what arrives to `_arrive` and `_peer_closed`; a closed
    end ignores late data. Once a close is handed to the handler, or the end
    is closed by its own side, the end lets its handlers go. Ends hash by
    identity."""

    def __init__(self, local: Endpoint, remote: Endpoint, kind: str):
        self.local = local
        self.remote = remote
        self.kind = kind  # control | data | external
        self._open = True
        self.on_data: Callable[[ChannelEnd, bytes], None] | None = None
        self.on_close: Callable[[ChannelEnd], None] | None = None

    @property
    def is_open(self) -> bool:
        return self._open

    def set_handlers(self, on_data, on_close) -> None:
        self.on_data = on_data
        self.on_close = on_close

    def _arrive(self, data: bytes) -> None:
        if self._open:
            self.on_data(self, data)

    def _peer_closed(self) -> None:
        """The peer closed this end: tell the handler, if one is set."""
        on_close = self.on_close
        self._drop_handlers()
        if on_close is not None:
            on_close(self)

    def _drop_handlers(self) -> None:
        """Let the handlers of this closed end go: they close over the
        owner, which holds the end, and nothing calls them again."""
        self.on_data = self.on_close = None


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
    """A callback in a `TimerQueue`, on either fabric: `fn`, its `tag`, its
    `period` (None for a one-shot timer) and its `tie`, the key that orders
    timers due at the same time. `queue` is the queue that holds it while
    it is queued and alive."""

    __slots__ = ("fn", "tag", "period", "tie", "alive", "queue")

    def __init__(self, fn, tag: str, period, tie: float = 0.0):
        self.fn = fn
        self.tag = tag
        self.period = period
        self.tie = tie
        self.alive = True
        self.queue: TimerQueue | None = None

    def cancel(self) -> None:
        if self.alive and self.queue is not None:
            self.queue.live[self.tag] -= 1
        self.alive = False


class TimerQueue(list):
    """A fabric's one timer queue: the heap itself, of (due, tie, seq,
    Timer) entries, with `seq` from `next_seq`. It is the only record of a
    fabric's outstanding work, and `live` counts its live timers per tag, so
    that the tags need no walk of the heap. A cancelled timer's entry stays
    until it comes to the top or a push compacts the heap."""

    __slots__ = ("_next_seq", "_compact_at", "live")

    def __init__(self, next_seq: Callable[[], int]):
        super().__init__()
        self._next_seq = next_seq
        self._compact_at = _QUEUE_COMPACT_MIN
        self.live: dict[str, int] = {}

    def push(self, due, timer: Timer) -> None:
        if len(self) >= self._compact_at:
            # A cancelled timer (most are request timeouts) would wait for
            # its time; drop them here so that the heap stays within twice
            # its live entries. (due, tie, seq) is a total order, so the
            # live entries still run in the same order.
            self[:] = [e for e in self if e[3].alive]
            heapify(self)
            self._compact_at = max(_QUEUE_COMPACT_MIN, 2 * len(self))
        heappush(self, (due, timer.tie, self._next_seq(), timer))
        timer.queue = self
        self.live[timer.tag] = self.live.get(timer.tag, 0) + 1

    def pop_live(self, until=None) -> tuple | None:
        """The first live entry, taken off the heap, if it is due by
        `until` (or whenever, when None); else None."""
        while self and (until is None or self[0][0] <= until):
            entry = heappop(self)
            timer = entry[3]
            if timer.alive:
                timer.queue = None
                self.live[timer.tag] -= 1
                return entry
        return None

    def next_due(self):
        """When the first live timer is due, or None when none is queued."""
        while self and not self[0][3].alive:
            heappop(self)
        return self[0][0] if self else None

    def tags(self) -> set[str]:
        """The tags of the live timers."""
        return {tag for tag, n in self.live.items() if n}


class Correlations:
    """The requests one actor awaits, by key: each entry is outstanding
    exactly while its `timeout` timer is queued on the actor's `env`.

    `add` queues the timer, `take` cancels it, and `clear` cancels them all.
    When a timer fires, its entry leaves the table first, and then
    `on_timeout(key, value)` runs. A key is added only when it is absent."""

    __slots__ = ("_env", "_timeout_ms", "_on_timeout", "_entries")

    def __init__(self, env, timeout_ms: int, on_timeout):
        self._env = env
        self._timeout_ms = timeout_ms
        self._on_timeout = on_timeout
        self._entries: dict = {}  # key -> (value, its timeout timer)

    def add(self, key, value) -> None:
        timer = self._env.schedule(self._timeout_ms,
                                   lambda: self._expire(key), tag="timeout")
        self._entries[key] = (value, timer)

    def _expire(self, key) -> None:
        value, _timer = self._entries.pop(key)
        self._on_timeout(key, value)

    def take(self, key):
        """The value under `key`, which leaves the table, or None."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        entry[1].cancel()
        return entry[0]

    def get(self, key):
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list:
        """(key, value) of each entry, as a list: callers take entries while
        they walk it."""
        return [(key, value) for key, (value, _t) in self._entries.items()]

    def clear(self) -> None:
        for _value, timer in self._entries.values():
            timer.cancel()
        self._entries.clear()


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
        # Queue entries and trace records share one numbering.
        self._queue = TimerQueue(self._next_seq)
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

    def _hop_latency(self) -> int:
        if self._latency_fn is not None:
            return max(1, int(self._latency_fn(self._rng)))
        return HOP_LATENCY_MS

    def _after_channel(self, ch: Channel, fn, tag: str = "net") -> Timer:
        """Channel events keep send order even under drawn latencies."""
        timer = Timer(fn, tag, None, ch._tie)
        time_ms = max(self._now + self._hop_latency(), ch._floor)
        ch._floor = time_ms
        self._queue.push(time_ms, timer)
        return timer

    def _push_by_horizon(self, due: int, timer: Timer) -> None:
        """Queue `timer` unless it is due past the horizon."""
        if self.horizon_ms is None or due <= self.horizon_ms:
            self._queue.push(due, timer)

    def schedule(self, delay_ms: int, fn, tag: str = "timer") -> Timer:
        """Run `fn` after `delay_ms`. A `retry` due past the horizon is
        dropped, as repeating ticks are, so that an actor retrying for ever
        (an agent whose manager died) cannot keep the run going."""
        timer = Timer(fn, tag, None, self._rng.random())
        due = self._now + delay_ms
        if tag == "retry":
            self._push_by_horizon(due, timer)
        else:
            self._queue.push(due, timer)
        return timer

    def schedule_abs(self, time_ms: int, fn, tag: str = "timeline") -> Timer:
        """Run at an absolute time, before same-time network events, in
        scheduling order (tie below the [0, 1) range used elsewhere)."""
        timer = Timer(fn, tag, None, -1.0)
        self._queue.push(time_ms, timer)
        return timer

    def schedule_repeating(self, period_ms: int, fn, tag: str = "tick") -> Timer:
        """Run `fn` every `period_ms` up to the horizon, until cancelled."""
        timer = Timer(fn, tag, period_ms, self._rng.random())
        self._push_by_horizon(self._now + period_ms, timer)
        return timer

    def step(self) -> bool:
        """Execute the next live timer; False when none is queued."""
        entry = self._queue.pop_live()
        if entry is None:
            return False
        time_ms, _tie, _seq, timer = entry
        self._now = max(self._now, time_ms)
        try:
            timer.fn()
        finally:  # a tick that raised keeps its period, as over TCP
            if timer.period is not None and timer.alive:
                self._push_by_horizon(self._now + timer.period, timer)
        return True

    def run(self, until_ms: int | None = None) -> None:
        """Step until the queue is drained or the next live entry is due
        after `until_ms`."""
        while (due := self._queue.next_due()) is not None \
                and (until_ms is None or due <= until_ms):
            self.step()

    def pending_tags(self) -> set[str]:
        """The tags of the live entries in the queue."""
        return self._queue.tags()

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
        """Mark `ch` closed and free its port. A connection's last end to
        close counts it out and unlinks the two ends."""
        ch._open = False
        del self._channels[ch.local]
        self._ports[ch.local.addr].free(ch.local.port)
        peer = ch._peer
        if not peer._open:
            if ch.kind == "data":
                self.open_data_connections -= 1
            ch._peer = peer._peer = None

    def _close_end(self, ch: Channel, detail: str = "") -> None:
        """Close `ch` here, and its peer one hop later."""
        peer = ch._peer
        self._unbind(ch)
        ch._drop_handlers()
        self._event("close", ch.local, ch.remote, detail)
        if peer._open:
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

    def env(self, addr: str) -> SimEnv:
        """The node-bound environment of one actor."""
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
