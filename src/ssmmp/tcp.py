"""Loopback-TCP transport: the same actor contract over real sockets.

Every logical node address maps to a distinct loopback IP; connections bind
their node's IP so the peer's logical identity is recoverable. Real TCP does
not expose a per-session listener port, so the acceptor allocates a logical
one and announces it in a one-line preamble; the connector's preamble carries
the connect metadata the simulated fabric passes natively (plug name or
instance identity). Either side waits at most PREAMBLE_TIMEOUT_S for the
other's preamble, and a malformed one closes the connection. Runs are
wall-clock and excluded from determinism guarantees.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time

from .cluster import Cluster
from .transport import (AcceptInfo, ChannelClosed, ConnectionRefused, Endpoint,
                        NodeDown, PortInUse)

PREAMBLE_TIMEOUT_S = 2.0


class ActorLoop:
    """One thread per actor; every callback for that actor runs here."""

    def __init__(self, name: str):
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self.errors: list[str] = []
        self._thread.start()

    def post(self, fn) -> None:
        self._queue.put(fn)

    def _run(self) -> None:
        while True:
            fn = self._queue.get()
            if fn is None:
                return
            try:
                fn()
            except Exception as e:  # keep the loop alive; surface in errors
                self.errors.append(f"{type(e).__name__}: {e}")

    def stop(self) -> None:
        self._queue.put(None)


class TcpChannel:
    def __init__(self, sock: socket.socket, loop: ActorLoop,
                 local: Endpoint, remote: Endpoint, kind: str,
                 initial: bytes = b""):
        self._sock = sock
        self._loop = loop
        self.local = local
        self.remote = remote
        self.kind = kind
        self._send_lock = threading.Lock()
        self._open = True
        self.on_data = None
        self.on_close = None
        self._inbox: list[bytes] = []
        self._pending_close = False
        self._reader = threading.Thread(
            target=self._read_loop, args=(initial,), daemon=True)

    def start_reader(self) -> None:
        self._reader.start()

    @property
    def is_open(self) -> bool:
        return self._open

    def set_handlers(self, on_data, on_close) -> None:
        self.on_data = on_data
        self.on_close = on_close
        while self._inbox:
            self.on_data(self, self._inbox.pop(0))
        if self._pending_close:
            self._pending_close = False
            if self.on_close is not None:
                self.on_close(self)

    def send(self, data: bytes) -> None:
        if not self._open:
            raise ChannelClosed(str(self.remote))
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as e:
            self._open = False
            raise ChannelClosed(str(e)) from e

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _read_loop(self, initial: bytes) -> None:
        if initial:
            self._loop.post(lambda: self._deliver(initial))
        while True:
            try:
                data = self._sock.recv(65536)
            except OSError:
                data = b""
            if not data:
                break
            self._loop.post(lambda d=data: self._deliver(d))
        self._loop.post(self._closed_by_peer)

    def _deliver(self, data: bytes) -> None:
        if self.on_data is None:
            self._inbox.append(data)
        else:
            self.on_data(self, data)

    def _closed_by_peer(self) -> None:
        if not self._open:
            return
        self._open = False
        if self.on_close is None:
            self._pending_close = True
        else:
            self.on_close(self)


class _TcpTimer:
    """A threading.Timer that posts `fn` to an actor loop once, or every
    period with `repeat`. The fabric cancels the live ones at shutdown."""

    def __init__(self, fabric: TcpFabric, delay_s: float, post, fn,
                 repeat: bool = False):
        self.alive = True
        self._fabric = fabric
        self._delay_s = delay_s
        self._post = post
        self._fn = fn
        self._repeat = repeat
        self._arm()
        fabric._track(fabric._timers.add, self, _TcpTimer.cancel)

    def _arm(self) -> None:
        self._timer = threading.Timer(self._delay_s, self._fire)
        self._timer.daemon = True
        self._timer.start()
        if not self.alive:  # cancelled while re-arming
            self._timer.cancel()

    def _fire(self) -> None:
        if not self.alive:
            return
        self._post(self._fn)
        if self._repeat:
            self._arm()
        else:
            self.cancel()

    def cancel(self) -> None:
        self.alive = False
        self._timer.cancel()
        self._fabric._forget_timer(self)


class _TcpListener:
    def __init__(self, endpoint: Endpoint, sock: socket.socket):
        self.endpoint = endpoint
        self._sock = sock

    def close(self) -> None:
        # shutdown() wakes the thread blocked in accept(); close() alone
        # would leave it blocked for good.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _encode_meta(meta: dict | None) -> bytes:
    items = " ".join(f"{k}={v}" for k, v in sorted((meta or {}).items()))
    return f"connect {items}".strip().encode() + b"\n"


def _read_line(sock: socket.socket) -> tuple[str, bytes]:
    """First LF-terminated line, decoded, and whatever data followed it.

    Raises ConnectionRefused when the peer closes, sends no full line within
    PREAMBLE_TIMEOUT_S, or sends a line that is not UTF-8.
    """
    deadline = time.monotonic() + PREAMBLE_TIMEOUT_S
    buf = b""
    try:
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConnectionRefused("preamble timed out")
            sock.settimeout(remaining)
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionRefused("peer closed during preamble")
            buf += chunk
        sock.settimeout(None)
        line, _, rest = buf.partition(b"\n")
        return line.decode(), rest
    except (OSError, UnicodeDecodeError) as e:
        raise ConnectionRefused(f"bad preamble: {e}") from e


def _parse_meta(line: str) -> dict[str, str]:
    """`connect k=v ...` -> {k: v}."""
    words = line.split()
    if not words or words[0] != "connect" \
            or not all("=" in w for w in words[1:]):
        raise ConnectionRefused(f"bad preamble {line!r}")
    return dict(w.split("=", 1) for w in words[1:])


def _parse_session_port(line: str) -> int:
    """`session N` -> N."""
    words = line.split()
    if len(words) != 2 or words[0] != "session" or not words[1].isdecimal():
        raise ConnectionRefused(f"bad preamble reply {line!r}")
    return int(words[1])


_SUBNET_SEQ = itertools.count(1)  # next() on it is atomic under the GIL


class TcpFabric:
    """Loopback address mapping, per-node logical session ports, and every
    thread and socket its actors use, so that shutdown can stop them all."""

    def __init__(self):
        self._subnet = f"127.31.{next(_SUBNET_SEQ) % 250}"
        self._addr_to_ip: dict[str, str] = {}
        self._ip_to_addr: dict[str, str] = {}
        self._session_ports: dict[str, int] = {}
        self._down: set[str] = set()
        self._lock = threading.Lock()
        self._stopped = False
        self._listeners: list[_TcpListener] = []
        self._channels: list[TcpChannel] = []
        self._loops: list[ActorLoop] = []
        self._timers: set[_TcpTimer] = set()
        self._t0 = time.monotonic()

    def add_node(self, addr: str) -> None:
        with self._lock:
            if addr in self._addr_to_ip:
                return
            ip = f"{self._subnet}.{len(self._addr_to_ip) + 1}"
            self._addr_to_ip[addr] = ip
            self._ip_to_addr[ip] = addr
            self._session_ports[addr] = 40000

    def env(self, addr: str, name: str) -> TcpEnv:
        """A node-bound environment on a new ActorLoop thread `name`."""
        loop = ActorLoop(name)
        self._track(self._loops.append, loop, ActorLoop.stop)
        return TcpEnv(self, addr, loop)

    def ip(self, addr: str) -> str:
        if addr not in self._addr_to_ip or addr in self._down:
            raise NodeDown(addr)
        return self._addr_to_ip[addr]

    def logical(self, ip: str) -> str:
        return self._ip_to_addr.get(ip, ip)

    def alloc_session_port(self, addr: str) -> int:
        with self._lock:
            port = self._session_ports[addr]
            self._session_ports[addr] = port + 1
            return port

    def now_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def _track(self, add, item, close) -> None:
        """Remember `item` for shutdown, or close it now if that has begun."""
        with self._lock:
            if not self._stopped:
                add(item)
                return
        close(item)

    def _forget_timer(self, timer: _TcpTimer) -> None:
        with self._lock:
            self._timers.discard(timer)

    def kill_node(self, addr: str) -> None:
        """Node dies: its listeners and channels close, and connects to or
        from it raise NodeDown."""
        with self._lock:
            self._down.add(addr)
        for listener in self._listeners:
            if listener.endpoint.addr == addr:
                listener.close()
        for channel in self._channels:
            if channel.local.addr == addr:
                channel.close()

    def shutdown(self) -> None:
        with self._lock:
            self._stopped = True
            timers = list(self._timers)
        for timer in timers:
            timer.cancel()
        for listener in self._listeners:
            listener.close()
        for channel in self._channels:
            channel.close()
        for loop in self._loops:
            loop.stop()


class TcpEnv:
    """Node- and actor-bound environment over the TCP fabric."""

    def __init__(self, fabric: TcpFabric, addr: str, loop: ActorLoop):
        self.fabric = fabric
        self.addr = addr
        self.loop = loop

    def call(self, fn) -> None:
        """Run `fn` in the actor's context: posted to its loop."""
        self.loop.post(fn)

    def now_ms(self) -> int:
        return self.fabric.now_ms()

    def schedule(self, delay_ms, fn, tag="timer"):
        return _TcpTimer(self.fabric, delay_ms / 1000.0, self.loop.post, fn)

    def schedule_repeating(self, period_ms, fn, tag="tick"):
        return _TcpTimer(self.fabric, period_ms / 1000.0, self.loop.post, fn,
                         repeat=True)

    def port_in_use(self, port: int) -> bool:
        # Bind as listen() does: a port that only a closed connection's
        # TIME_WAIT still holds is free to listen on.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((self.fabric.ip(self.addr), port))
            return False
        except OSError:
            return True
        finally:
            probe.close()

    def listen(self, port: int, on_accept, kind: str = "data"):
        fabric = self.fabric
        ip = fabric.ip(self.addr)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((ip, port))
        except OSError as e:
            sock.close()
            raise PortInUse(f"{self.addr}:{port}") from e
        sock.listen(16)
        listener = _TcpListener(Endpoint(self.addr, port), sock)
        fabric._track(fabric._listeners.append, listener, _TcpListener.close)

        def accept_loop():
            while True:
                try:
                    conn, peer = sock.accept()
                except OSError:
                    return
                threading.Thread(target=handshake, args=(conn, peer),
                                 daemon=True).start()

        def handshake(conn, peer):
            try:
                line, rest = _read_line(conn)
                meta = _parse_meta(line)
                session_port = fabric.alloc_session_port(self.addr)
                conn.sendall(f"session {session_port}\n".encode())
            except (ConnectionRefused, OSError):
                conn.close()
                return
            peer_ep = Endpoint(fabric.logical(peer[0]), peer[1])
            channel = TcpChannel(conn, self.loop,
                                 Endpoint(self.addr, session_port), peer_ep,
                                 kind, initial=rest)
            fabric._track(fabric._channels.append, channel, TcpChannel.close)
            info = AcceptInfo(peer_ep, port, session_port, meta)
            self.loop.post(lambda: on_accept(channel, info))
            channel.start_reader()

        threading.Thread(target=accept_loop, daemon=True).start()
        return listener

    def connect(self, dst: Endpoint, kind: str = "data", meta=None):
        fabric = self.fabric
        src_ip, dst_ip = fabric.ip(self.addr), fabric.ip(dst.addr)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.bind((src_ip, 0))
            sock.connect((dst_ip, dst.port))
            sock.sendall(_encode_meta(meta))
            line, rest = _read_line(sock)
            session_port = _parse_session_port(line)
        except (OSError, ConnectionRefused) as e:
            sock.close()
            raise ConnectionRefused(str(dst)) from e
        m = sock.getsockname()[1]
        channel = TcpChannel(sock, self.loop, Endpoint(self.addr, m),
                             Endpoint(dst.addr, session_port), kind,
                             initial=rest)
        fabric._track(fabric._channels.append, channel, TcpChannel.close)
        channel.start_reader()
        return channel, m, session_port


def build_tcp_cluster(graphs, manager_addr, nodes,
                      manager_config=None, agent_config=None) -> Cluster:
    """Assemble the same actors as the simulation, threaded over loopback."""
    cluster = Cluster(TcpFabric(), graphs, manager_addr, nodes,
                      manager_config, agent_config)
    cluster.start()
    return cluster
