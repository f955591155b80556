"""Loopback-TCP transport: the same actor contract over real sockets.

`TcpChannel` is a `transport.ChannelEnd`, so its handlers, set in the
callback that got the channel, and control I/O (`send_message`,
`read_messages`) are the simulator's. Every logical node address maps to a
distinct loopback IP; connections bind their node's IP so the peer's logical
identity is recoverable. Real TCP does not expose a per-session listener
port, so, as in the simulator, connect picks a logical one on the
destination node: from the simulator's ephemeral range, 40000 up, then the
ports of released channels, oldest first. The connector names it in its
one-line preamble, beside the connect metadata the simulated fabric passes
natively (plug name or instance identity), and the acceptor sends nothing
back. The kernel connect and the preamble send wait at most
PREAMBLE_TIMEOUT_S, and so does the acceptor for the preamble; a malformed
one closes the connection. Runs are wall-clock and excluded from determinism
guarantees.

One owner thread: each fabric owns one I/O thread, which runs a selector and
one timer queue, and every callback of every actor runs there, as every
callback of a simulated run runs on the simulator's one queue. The timer
queue is a `transport.TimerQueue`, as the simulator's is, and the only
record of the fabric's outstanding work, from which the simulator reads
quiescence; nothing reads it over TCP. That thread alone touches the
fabric's state: its sockets, session port pools, listeners, channels and
timers. It accepts on every listener, reads the acceptor side of every
preamble, reads every channel and fires every timer, and runs what it reads
and what fires through the owning actor's `ActorLoop`, which keeps that
actor's exceptions out of the loop. Actors listen, connect, send their
preambles, write and close from that thread too, so a close unregisters and
closes its socket at once. Other threads reach a running fabric through two
calls only: `ActorLoop.post` (an env's `call`) and `TcpFabric.shutdown`.
Called from any other thread, an env's `schedule`, `schedule_repeating`,
`listen` and `connect` raise RuntimeError rather than race the loop.
Listeners take a backlog of SOMAXCONN, so a burst of connects made in one
callback waits in the kernel until the thread comes back to accept them.
Reads never block (MSG_DONTWAIT). A channel socket keeps PREAMBLE_TIMEOUT_S
as its timeout after connect and accept, so a send that the kernel will not
take, as to a peer that reads nothing, fails as ChannelClosed after that
long: a silent peer stalls the loop for at most PREAMBLE_TIMEOUT_S. As this
thread reads every peer in the fabric too, one callback's write to one is
bounded by the kernel's socket buffers (some MB), and its connects by the
listen backlog: past them, each waits PREAMBLE_TIMEOUT_S and fails. Every
socket has TCP_NODELAY set, so a small message leaves at once rather than
waiting out Nagle's algorithm behind the peer's delayed ACK.
"""

from __future__ import annotations

import collections
import functools
import itertools
import selectors
import socket
import threading
import time

from .cluster import Cluster
from .transport import (EPHEMERAL_END, EPHEMERAL_START, AcceptInfo,
                        ChannelClosed, ChannelEnd, ConnectionRefused,
                        Endpoint, NodeDown, PortInUse, PortPool, Timer,
                        TimerQueue)

PREAMBLE_TIMEOUT_S = 2.0
_RECV_BYTES = 65536


class ActorLoop:
    """One actor's handle on its fabric's I/O thread. Every callback for the
    actor runs there through `run`, so an exception it raises lands in this
    actor's `errors` and the thread goes on; `post` queues a call from any
    thread, in order."""

    def __init__(self, io: _IoLoop):
        self._io = io
        self.errors: list[str] = []

    def post(self, fn) -> None:
        self._io.call_soon(lambda: self.run(fn))

    def run(self, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as e:  # keep the loop alive; surface in errors
            self.errors.append(f"{type(e).__name__}: {e}")


def _unblocked_recv(sock: socket.socket) -> bytes | None:
    """What a readable socket holds: data, b"" at end of stream or on an
    error, None when there was nothing after all."""
    try:
        return sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
    except BlockingIOError:
        return None
    except OSError:
        return b""


class _IoLoop:
    """The fabric's one I/O thread: a selector over its sockets and the
    fabric's one timer queue, a `TimerQueue` as in the simulator and the
    only record of outstanding work, both its own. Other threads hand it
    work only through `call_soon` and `stop`, which wake its select
    through a socketpair; `register`, `unregister` and `call_later`
    raise RuntimeError on any other thread. Each channel it reads has
    its handlers from the callback that got it. `_lock` guards only the
    queue of `call_soon` and the flag that the thread has ended."""

    def __init__(self):
        self.errors: list[str] = []
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                self._drain_wake)
        self._lock = threading.Lock()
        self._pending: collections.deque = collections.deque()
        self._queue = TimerQueue(itertools.count().__next__)
        self._running = True
        self._closed = False
        self._thread = threading.Thread(target=self._run, name="tcp-io",
                                         daemon=True)
        self._thread.start()

    # -- from any thread ---------------------------------------------------

    def call_soon(self, fn) -> None:
        """Run `fn` on the I/O thread; dropped once that thread has ended."""
        with self._lock:
            if self._closed:
                return
            self._pending.append(fn)
        if threading.current_thread() is not self._thread:
            self._wake()

    def stop(self, last) -> None:
        """End the I/O thread in one callback that runs `last`, so no read,
        accept, timer or post runs after it; it closes every socket still
        open."""
        self.call_soon(lambda: self._halt(last))
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=5.0)

    # -- on the I/O thread -------------------------------------------------

    def check_thread(self) -> None:
        if threading.current_thread() is not self._thread:
            raise RuntimeError("a TcpFabric is driven only from its I/O "
                               "thread; post to it with ActorLoop.post")

    def call_later(self, delay_s: float, fn, loop: ActorLoop | None = None,
                   period_s: float | None = None) -> Timer:
        """After `delay_s`, run `fn` through `loop` (or bare when `loop` is
        None), then again every `period_s` if given, until the returned
        Timer is cancelled."""
        self.check_thread()
        if loop is not None:
            fn = functools.partial(loop.run, fn)
        timer = Timer(fn, "timer", period_s)
        self._queue.push(time.monotonic() + delay_s, timer)
        return timer

    def register(self, sock: socket.socket, on_readable) -> None:
        self.check_thread()
        self._selector.register(sock, selectors.EVENT_READ, on_readable)

    def unregister(self, sock: socket.socket) -> None:
        self.check_thread()
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full (a wake is already pending) or closed
            pass

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _halt(self, last) -> None:
        self._running = False
        self._queue.clear()
        last()

    def _timeout(self) -> float | None:
        if self._pending:
            return 0.0
        if not self._queue:
            return None
        return max(0.0, self._queue[0][0] - time.monotonic())

    def _run(self) -> None:
        try:
            while self._running:
                try:
                    self._step()
                except Exception as e:  # keep the thread alive
                    self.errors.append(f"{type(e).__name__}: {e}")
        finally:
            self._close_all()

    def _step(self) -> None:
        for key, _events in self._selector.select(self._timeout()):
            key.data()
        while self._running and self._pending:
            self._pending.popleft()()
        self._fire_due()

    def _fire_due(self) -> None:
        now = time.monotonic()
        queue = self._queue
        while (entry := queue.pop_live(now)) is not None:
            timer = entry[3]
            timer.fn()
            if timer.period is not None and timer.alive:
                queue.push(now + timer.period, timer)

    def _close_all(self) -> None:
        with self._lock:
            self._closed = True
            self._pending.clear()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()


class TcpChannel(ChannelEnd):
    """One end of a connection. The I/O thread reads it and runs what it
    reads through the owning actor's loop; `send` writes within the socket's
    timeout. Once either end has closed, the socket is closed at once, and
    the connecting end hands the logical session port it picked on the
    peer's node back to that node's pool. The accepted end holds no port."""

    def __init__(self, fabric: TcpFabric, sock: socket.socket, loop: ActorLoop,
                 local: Endpoint, remote: Endpoint, kind: str,
                 session_port: int | None = None):
        super().__init__(local, remote, kind)
        self._fabric = fabric
        self._sock = sock
        self._loop = loop
        self._session_port = session_port

    def send(self, data: bytes, msg=None) -> None:
        if not self._open:
            raise ChannelClosed(str(self.remote))
        try:
            self._sock.sendall(data)
        except OSError as e:  # reset, or not taken within the timeout
            self.close()
            raise ChannelClosed(str(e)) from e

    def close(self) -> None:
        if self._open:
            self._drop()
            self._drop_handlers()

    def _drop(self) -> None:
        """Stop reading, close the socket, forget the channel, and free the
        session port it picked."""
        self._open = False
        fabric = self._fabric
        fabric._io.unregister(self._sock)
        self._sock.close()
        if self._session_port is not None:
            fabric._session_ports[self.remote.addr].free(self._session_port)
        fabric._channels.discard(self)

    def _on_readable(self) -> None:
        data = _unblocked_recv(self._sock)
        if data is None:
            return
        if data:
            self._loop.run(self._arrive, data)
        else:
            self._loop.run(self._closed_by_peer)

    def _closed_by_peer(self) -> None:
        if self._open:
            self._drop()
            self._peer_closed()


class _TcpListener:
    """A listening socket, accepted on by the fabric's I/O thread."""

    def __init__(self, env: TcpEnv, endpoint: Endpoint, sock: socket.socket,
                 on_accept, kind: str):
        self._env = env
        self._fabric = env.fabric
        self.endpoint = endpoint
        self._sock = sock
        self._on_accept = on_accept
        self._kind = kind
        self._open = True

    def close(self) -> None:
        if self._open:
            self._open = False
            self._fabric._io.unregister(self._sock)
            self._sock.close()
            self._fabric._listeners.discard(self)

    def _on_readable(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except BlockingIOError:
                return
            except OSError:  # closed under the accept: stop watching it
                self._fabric._io.unregister(self._sock)
                return
            conn.settimeout(PREAMBLE_TIMEOUT_S)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _Handshake(self, conn, peer)

    def _accepted(self, conn: socket.socket, peer, meta: dict,
                  session_port: int, rest: bytes) -> None:
        """Preamble done: the channel, announced to the actor before any
        data it carries."""
        fabric, env = self._fabric, self._env
        peer_ep = Endpoint(fabric.logical(peer[0]), peer[1])
        channel = TcpChannel(fabric, conn, env.loop,
                             Endpoint(env.addr, session_port), peer_ep,
                             self._kind)
        fabric._channels.add(channel)
        # Watched before the actor sees it, so that a close in `on_accept`
        # unregisters it like any other.
        fabric._io.register(conn, channel._on_readable)
        info = AcceptInfo(peer_ep, self.endpoint.port, session_port, meta)
        env.loop.run(self._on_accept, channel, info)
        if rest:
            env.loop.run(channel._arrive, rest)


class _Handshake:
    """The acceptor's side of one connection until its preamble line is in:
    buffered on the I/O thread, and closed when it is malformed or does not
    arrive within PREAMBLE_TIMEOUT_S. Nothing is written back: the session
    port the line names was picked, and is freed, by the connecting end."""

    def __init__(self, listener: _TcpListener, conn: socket.socket, peer):
        self._listener = listener
        self._io = listener._fabric._io
        self._conn = conn
        self._peer = peer
        self._buf = b""
        self._deadline = self._io.call_later(PREAMBLE_TIMEOUT_S, self._fail)
        self._io.register(conn, self._on_readable)

    def _on_readable(self) -> None:
        chunk = _unblocked_recv(self._conn)
        if chunk is None:
            return
        if not chunk:
            self._fail()
            return
        self._buf += chunk
        if b"\n" not in self._buf:
            return
        self._deadline.cancel()
        self._io.unregister(self._conn)
        line, _, rest = self._buf.partition(b"\n")
        try:
            meta, port = _parse_preamble(line.decode())
        except (ConnectionRefused, UnicodeDecodeError):
            self._conn.close()
            return
        self._listener._accepted(self._conn, self._peer, meta, port, rest)

    def _fail(self) -> None:
        self._deadline.cancel()
        self._io.unregister(self._conn)
        self._conn.close()


def _encode_meta(meta: dict) -> bytes:
    items = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    return f"connect {items}\n".encode()


def _parse_preamble(line: str) -> tuple[dict[str, str], int]:
    """`connect k=v ... session=N` -> ({k: v}, N), N a session port."""
    words = line.split()
    if not words or words[0] != "connect" \
            or not all("=" in w for w in words[1:]):
        raise ConnectionRefused(f"bad preamble {line!r}")
    meta = dict(w.split("=", 1) for w in words[1:])
    port = meta.pop("session", "")
    if not (port.isascii() and port.isdecimal() and len(port) <= 5
            and EPHEMERAL_START <= int(port) <= EPHEMERAL_END):
        raise ConnectionRefused(f"bad session port in {line!r}")
    return meta, int(port)


_SUBNET_SEQ = itertools.count(1)  # next() on it is atomic under the GIL


class TcpFabric:
    """Loopback address mapping, per-node logical session ports, the one I/O
    thread, and every actor loop, listener and open channel, so that
    shutdown can stop them all. The nodes and envs are set up before the
    first post; from then on the I/O thread owns the ports, listeners and
    channels, and `kill_node` runs there too."""

    def __init__(self):
        self._subnet = f"127.31.{next(_SUBNET_SEQ) % 250}"
        self._addr_to_ip: dict[str, str] = {}
        self._ip_to_addr: dict[str, str] = {}
        self._session_ports: dict[str, PortPool] = {}
        self._down: set[str] = set()
        self._listeners: set[_TcpListener] = set()
        self._channels: set[TcpChannel] = set()
        self._loops: list[ActorLoop] = []
        self._io = _IoLoop()
        self._t0 = time.monotonic()

    def add_node(self, addr: str) -> None:
        if addr in self._addr_to_ip:
            return
        ip = f"{self._subnet}.{len(self._addr_to_ip) + 1}"
        self._addr_to_ip[addr] = ip
        self._ip_to_addr[ip] = addr
        self._session_ports[addr] = PortPool(EPHEMERAL_START, EPHEMERAL_END)

    def env(self, addr: str) -> TcpEnv:
        """A node-bound environment with a new ActorLoop."""
        loop = ActorLoop(self._io)
        self._loops.append(loop)
        return TcpEnv(self, addr, loop)

    def ip(self, addr: str) -> str:
        if addr not in self._addr_to_ip or addr in self._down:
            raise NodeDown(addr)
        return self._addr_to_ip[addr]

    def logical(self, ip: str) -> str:
        return self._ip_to_addr.get(ip, ip)

    def now_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def kill_node(self, addr: str) -> None:
        """Node dies: its listeners and channels close, and connects to or
        from it raise NodeDown."""
        self._down.add(addr)
        for item in [*(x for x in self._listeners if x.endpoint.addr == addr),
                     *(x for x in self._channels if x.local.addr == addr)]:
            item.close()

    def shutdown(self) -> None:
        """Close every listener and channel and stop the I/O thread in one
        callback, so no actor runs after: its tables stay as the run left them."""
        self._io.stop(self._close_tracked)

    def _close_tracked(self) -> None:
        for item in [*self._listeners, *self._channels]:
            item.close()


class TcpEnv:
    """Node- and actor-bound environment over the TCP fabric."""

    def __init__(self, fabric: TcpFabric, addr: str, loop: ActorLoop):
        self.fabric = fabric
        self.addr = addr
        self.loop = loop

    def call(self, fn) -> None:
        """Run `fn` in the actor's context: posted to its loop, to run on
        the I/O thread."""
        self.loop.post(fn)

    def now_ms(self) -> int:
        return self.fabric.now_ms()

    def emit(self, kind: str, text: str) -> None:
        """Nothing observes a TCP run yet: diagnostics are dropped."""

    def schedule(self, delay_ms, fn, tag="timer") -> Timer:
        return self.fabric._io.call_later(delay_ms / 1000.0, fn, self.loop)

    def schedule_repeating(self, period_ms, fn, tag="tick") -> Timer:
        period_s = period_ms / 1000.0
        return self.fabric._io.call_later(period_s, fn, self.loop, period_s)

    def listen(self, port: int, on_accept, kind: str = "data"):
        fabric = self.fabric
        fabric._io.check_thread()
        ip = fabric.ip(self.addr)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A port that only a closed connection's TIME_WAIT holds is free.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((ip, port))
        except OSError as e:
            sock.close()
            raise PortInUse(f"{self.addr}:{port}") from e
        sock.listen(socket.SOMAXCONN)
        sock.setblocking(False)
        listener = _TcpListener(self, Endpoint(self.addr, port), sock,
                                on_accept, kind)
        fabric._listeners.add(listener)
        fabric._io.register(sock, listener._on_readable)
        return listener

    def connect(self, dst: Endpoint, kind: str = "data", meta=None):
        """Dial a listener; returns (channel, local port m, peer session port
        l) once the preamble naming l is sent, without waiting for the peer
        to read it. A connect or send that takes longer than
        PREAMBLE_TIMEOUT_S, as to a listener whose accept queue is full, is
        refused."""
        fabric = self.fabric
        fabric._io.check_thread()
        src_ip, dst_ip = fabric.ip(self.addr), fabric.ip(dst.addr)
        # A never-used session port while any is left, then the
        # longest-freed one.
        ports = fabric._session_ports[dst.addr]
        session_port = ports.alloc()
        if session_port is None:
            raise ConnectionRefused(f"session ports exhausted on {dst.addr}")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.bind((src_ip, 0))
            sock.settimeout(PREAMBLE_TIMEOUT_S)
            sock.connect((dst_ip, dst.port))
            sock.sendall(_encode_meta({**(meta or {}),
                                       "session": session_port}))
        except OSError as e:
            sock.close()
            ports.free(session_port)
            raise ConnectionRefused(str(dst)) from e
        m = sock.getsockname()[1]
        channel = TcpChannel(fabric, sock, self.loop, Endpoint(self.addr, m),
                             Endpoint(dst.addr, session_port), kind,
                             session_port)
        fabric._channels.add(channel)
        fabric._io.register(sock, channel._on_readable)
        return channel, m, session_port


def build_tcp_cluster(graphs, manager_addr, nodes,
                      manager_config=None, agent_config=None) -> Cluster:
    """Assemble the same actors as the simulation, over loopback."""
    cluster = Cluster(TcpFabric(), graphs, manager_addr, nodes,
                      manager_config, agent_config)
    cluster.start()
    return cluster
