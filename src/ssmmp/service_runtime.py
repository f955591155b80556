"""Generic in-instance SDK: sockets, plugs, sessions, scripted behavior.

A runtime binds its configured sockets, keeps one control connection to the
local agent, and opens/accepts/closes communication sessions. Each side of a
session holds exactly the parameters it is allowed to know: the source side
never learns the destination instance id; the destination side never learns
the source instance id or service name.

The runtime holds its open sessions in one table, keyed by role and the
session's (m, k, l) ports, so a manager-requested close is one lookup; a
closed handle leaves the table. Each session it asks for waits in the
`Correlations` table `_pending_opens` until the agent's answer or a timeout.

Business logic is a pluggable scripted behavior. The default one answers an
incoming request by walking its plugs in order (open, send the task on, wait
for the reply, close) and then replying upstream.

Data-plane payloads are opaque length-prefixed byte strings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from . import wire
from .transport import (ChannelClosed, ConnectionRefused, Correlations,
                        Endpoint, NodeDown, TransportError, read_messages,
                        send_message)
from .wire import Message, MessageType as MT, SubType as ST


@dataclass(frozen=True)
class InstanceConfig:
    service_name: str
    instance_id: int
    node_addr: str
    socket_ports: tuple[tuple[str, int], ...]
    plug_targets: tuple[tuple[str, str], ...]   # plug -> dest service (wire config)
    plug_sockets: dict[str, str]                # plug -> counterpart socket (codebase)
    agent_port: int = 7070                      # the agent's, on node_addr

    def plug_target(self, plug: str) -> str:
        for p, svc in self.plug_targets:
            if p == plug:
                return svc
        raise KeyError(plug)


@dataclass
class SessionHandle:
    role: str                 # source | dest | external
    params: dict[str, object] # exactly the knowledge set for this side
    channel: object
    key: tuple[str, int, int, int]  # (role, m, k, l): its runtime's table key
    state: str = "open"       # open | closed


class FrameReader:
    """Length-prefixed payload framing for the data plane."""

    def __init__(self) -> None:
        self._buf = b""

    def feed(self, data: bytes) -> list[bytes]:
        buf = self._buf + data
        out = []
        start = 0
        while len(buf) - start >= 4:
            end = start + 4 + struct.unpack_from(">I", buf, start)[0]
            if len(buf) < end:
                break
            out.append(buf[start + 4:end])
            start = end
        self._buf = buf[start:]
        return out


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


@dataclass
class _PendingOpen:
    plug: str
    dest_service: str
    socket: str
    on_established: Callable | None
    on_failed: Callable | None


class ServiceRuntime:
    """One running service instance."""

    OPEN_TIMEOUT_MS = 5_000

    def __init__(self, env, config: InstanceConfig, behavior: Behavior):
        self.env = env
        self.config = config
        self.behavior = behavior
        self.state = "new"      # new | running | exited | killed
        # The open sessions, in the order they were made.
        self.sessions: dict[tuple[str, int, int, int], SessionHandle] = {}
        self._ids = wire.IdCounter()
        self._control = None
        self._listeners: list[object] = []
        self._pending_opens = Correlations(
            env, self.OPEN_TIMEOUT_MS,
            lambda _mid, pending: self._open_failed(pending, wire.TIMEOUT))

    @property
    def alive(self) -> bool:
        return self.state == "running"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind every socket, here, then dial the agent on the runtime's own
        loop. A failed bind closes the listeners already bound and raises."""
        try:
            for socket_name, port in self.config.socket_ports:
                self._listeners.append(self.env.listen(
                    port, self._make_acceptor(socket_name, port), kind="data"))
        except TransportError:
            for listener in self._listeners:
                listener.close()
            raise
        self.state = "running"
        self.env.call(self._dial_agent)

    def _dial_agent(self) -> None:
        ch, _m, _l = self.env.connect(
            Endpoint(self.config.node_addr, self.config.agent_port),
            kind="control",
            meta={"service": self.config.service_name,
                  "instance": str(self.config.instance_id)})
        self._control = ch
        read_messages(ch, lambda _ch, msg: self._from_agent(msg),
                      lambda _ch: None)

    def kill(self) -> None:
        """Hard death: everything closes, nothing is said."""
        if self.state in ("killed", "exited"):
            return
        self.state = "killed"
        self._teardown()

    def _exit(self) -> None:
        self.state = "exited"
        self._teardown()

    def _teardown(self) -> None:
        for listener in self._listeners:
            listener.close()
        # Source sessions close first, then dest and external ones.
        handles = sorted(self.sessions.values(),
                         key=lambda h: h.role != "source")
        self.sessions.clear()
        for handle in handles:
            handle.state = "closed"
            handle.channel.close()
        if self._control is not None:
            self._control.close()
        self._pending_opens.clear()

    # -- control plane ---------------------------------------------------

    def _send_control(self, msg: Message) -> bool:
        return send_message(self._control, msg)

    def _from_agent(self, msg: Message) -> None:
        if not self.alive:
            return
        if msg.msg_type is MT.SESSION_RESPONSE:
            self._on_session_response(msg)
        elif msg.msg_type in (MT.SOURCE_SESSION_CLOSE_REQUEST,
                              MT.DEST_SESSION_CLOSE_REQUEST):
            self.handle_close_request(msg)
        elif msg.msg_type is MT.GRACEFUL_SHUTDOWN_REQUEST:
            self.handle_graceful_shutdown(msg)
        elif msg.msg_type is MT.HEALTH_CONTROL_REQUEST:
            self.handle_health_request(msg)
        else:
            self.env.emit("log", f"unexpected control message {msg.msg_type.value}")

    # -- opening sessions --------------------------------------------------

    def open_session(self, plug_name: str,
                     on_established: Callable | None = None,
                     on_failed: Callable | None = None) -> int:
        """Ask the control plane for a destination and connect to it.

        Asynchronous: returns the message id of the request; the handle is
        delivered through on_established once the ack is on its way.
        """
        if self.state != "running":
            raise RuntimeError("runtime not running")
        try:
            dest_service = self.config.plug_target(plug_name)
        except KeyError:
            raise KeyError(f"plug {plug_name} not configured") from None
        socket_name = self.config.plug_sockets[plug_name]
        mid = self._ids.next()
        msg = wire.make_message(
            MT.SESSION_REQUEST, mid, ST.SERVICE_TO_AGENT,
            source_service_name=self.config.service_name,
            source_service_instance_id=self.config.instance_id,
            source_plug_name=plug_name,
            dest_service_name=dest_service,
            dest_socket_name=socket_name)
        pending = _PendingOpen(plug_name, dest_service, socket_name,
                               on_established, on_failed)
        if not self._send_control(msg):
            self._open_failed(pending, wire.UNREACHABLE)
            return mid
        self._pending_opens.add(mid, pending)
        return mid

    def _open_failed(self, pending: _PendingOpen, status: int) -> None:
        self.env.emit("log", f"open {pending.plug} failed: {status}")
        if pending.on_failed is not None:
            pending.on_failed(self, pending.plug, status)

    def _on_session_response(self, msg: Message) -> None:
        pending = self._pending_opens.take(msg.message_id)
        if pending is None:
            self.env.emit("log", f"session_response with unknown id {msg.message_id}")
            return
        if not wire.is_success(msg.status):
            self._open_failed(pending, msg.status)
            return
        dest_addr = msg.get("dest_service_instance_network_address")
        k = msg.get_int("dest_socket_port")
        try:
            channel, m, l = self.env.connect(
                Endpoint(dest_addr, k), kind="data",
                meta={"plug": pending.plug})
        except (NodeDown, ConnectionRefused):
            # No session came to exist, so no close_info is owed.
            self._open_failed(pending, wire.UNREACHABLE)
            return
        handle = SessionHandle(
            role="source",
            params={
                "source_service_name": self.config.service_name,
                "source_service_instance_network_address": self.config.node_addr,
                "source_service_instance_id": self.config.instance_id,
                "source_plug_name": pending.plug,
                "source_plug_port": m,
                "dest_service_name": pending.dest_service,
                "dest_service_instance_network_address": dest_addr,
                "dest_socket_name": pending.socket,
                "dest_socket_port": k,
                "dest_socket_new_port": l,
            },
            channel=channel,
            key=("source", m, k, l))
        self._attach(handle)
        self._send_control(wire.make_message(
            MT.SESSION_ACK, msg.message_id, ST.SERVICE_TO_AGENT,
            status=wire.OK, source_plug_port=m, dest_socket_new_port=l))
        if pending.on_established is not None:
            pending.on_established(self, handle)

    # -- accepting sessions ----------------------------------------------

    def _make_acceptor(self, socket_name: str, port: int):
        def on_accept(channel, info):
            if not self.alive:
                channel.close()
                return
            plug = info.meta.get("plug")
            # No plug: not an SSMMP peer (a user hitting a gateway socket).
            role = "external" if plug is None else "dest"
            params = {} if plug is None else {
                "source_service_instance_network_address": info.peer.addr,
                "source_plug_name": plug,
                "source_plug_port": info.peer.port,
                "dest_service_name": self.config.service_name,
                "dest_service_instance_network_address": self.config.node_addr,
                "dest_service_instance_id": self.config.instance_id,
                "dest_socket_name": socket_name,
                "dest_socket_port": info.listener_port,
                "dest_socket_new_port": info.session_port,
            }
            self._attach(SessionHandle(
                role, params, channel,
                (role, info.peer.port, info.listener_port, info.session_port)))

        return on_accept

    # -- data plane ---------------------------------------------------------

    def _attach(self, handle: SessionHandle) -> None:
        self.sessions[handle.key] = handle
        frames = FrameReader()
        handle.channel.set_handlers(
            lambda _ch, data: self._on_channel_data(handle, frames, data),
            lambda _ch: self._on_channel_close(handle))

    def _on_channel_data(self, handle: SessionHandle, frames: FrameReader,
                         data: bytes) -> None:
        if not self.alive:
            return
        for payload in frames.feed(data):
            if handle.role == "source":
                self.behavior.on_reply(self, handle, payload)
            else:
                self.behavior.on_request(self, handle, payload)

    def _on_channel_close(self, handle: SessionHandle) -> None:
        if handle.state != "closed" and self.alive:
            self.close_session(handle)

    def send(self, handle: SessionHandle, payload: bytes) -> bool:
        """Send one payload on a session. False when the session is closed,
        or when its channel refuses the send, which closes the session as
        its peer's close would."""
        if handle.state != "open":
            return False
        try:
            handle.channel.send(frame(payload))
        except ChannelClosed:
            self.close_session(handle)
            return False
        return True

    # -- closing -------------------------------------------------------------

    def close_session(self, handle: SessionHandle,
                      suppress_info: bool = False) -> None:
        """Close the data channel and report the side-appropriate close info
        to the agent, exactly once."""
        if handle.state == "closed":
            return
        handle.state = "closed"
        del self.sessions[handle.key]
        handle.channel.close()
        self.behavior.on_session_closed(self, handle)
        if handle.role == "external" or suppress_info:
            return
        mt, sub = ((MT.SOURCE_SESSION_CLOSE_INFO, ST.SOURCE_SERVICE_TO_AGENT)
                   if handle.role == "source"
                   else (MT.DEST_SESSION_CLOSE_INFO, ST.DEST_SERVICE_TO_AGENT))
        self._send_control(wire.make_message(
            mt, self._ids.next(), sub, **handle.params))

    def handle_close_request(self, msg: Message) -> None:
        role = ("source" if msg.msg_type is MT.SOURCE_SESSION_CLOSE_REQUEST
                else "dest")
        match = self.sessions.get((role, msg.get_int("source_plug_port"),
                                   msg.get_int("dest_socket_port"),
                                   msg.get_int("dest_socket_new_port")))
        status = wire.ALREADY_CLOSED
        if match is not None:
            self.close_session(match, suppress_info=True)
            status = wire.OK
        sub = (ST.SOURCE_SERVICE_TO_AGENT if role == "source"
               else ST.DEST_SERVICE_TO_AGENT)
        self._send_control(wire.make_message(
            wire.RESPONSE_TO[msg.msg_type], msg.message_id, sub, status=status))

    # -- shutdown / health ------------------------------------------------

    def open_ssmmp_sessions(self) -> list[SessionHandle]:
        return [h for h in self.sessions.values() if h.role != "external"]

    def handle_graceful_shutdown(self, msg: Message) -> None:
        if self.open_ssmmp_sessions():
            self._send_control(wire.make_message(
                MT.GRACEFUL_SHUTDOWN_RESPONSE, msg.message_id,
                ST.SERVICE_INSTANCE_TO_AGENT, status=wire.CONFLICT))
            return
        self._send_control(wire.make_message(
            MT.GRACEFUL_SHUTDOWN_RESPONSE, msg.message_id,
            ST.SERVICE_INSTANCE_TO_AGENT, status=wire.OK))
        self._exit()

    def handle_health_request(self, msg: Message) -> None:
        if self.behavior.mute:
            return
        if self.behavior.faulted:
            status = wire.INTERNAL_ERROR
        elif len(self.open_ssmmp_sessions()) > self.behavior.load_threshold:
            status = wire.OVERLOADED
        else:
            status = wire.OK
        self._send_control(wire.make_message(
            MT.HEALTH_CONTROL_RESPONSE, msg.message_id,
            ST.SERVICE_INSTANCE_TO_AGENT,
            service_name=self.config.service_name,
            service_instance_id=self.config.instance_id,
            status=status))


# ---------------------------------------------------------------------------
# Scripted behaviors

class Behavior:
    """Deterministic event program standing in for real business logic."""

    load_threshold = 8
    faulted = False
    mute = False

    def on_request(self, rt: ServiceRuntime, handle: SessionHandle,
                   payload: bytes) -> None:
        pass

    def on_reply(self, rt: ServiceRuntime, handle: SessionHandle,
                 payload: bytes) -> None:
        pass

    def on_session_closed(self, rt: ServiceRuntime, handle: SessionHandle) -> None:
        pass


@dataclass
class _Task:
    upstream: SessionHandle | None
    plugs: list[str]
    pos: int = 0
    current: SessionHandle | None = None


class CascadeBehavior(Behavior):
    """Answer a request by driving each plug in order, then reply upstream."""

    def __init__(self) -> None:
        self._tasks: list[_Task] = []

    def on_request(self, rt, handle, payload):
        task = _Task(upstream=handle,
                     plugs=[p for p, _ in rt.config.plug_targets])
        self._tasks.append(task)
        self._advance(rt, task)

    def _advance(self, rt, task):
        if task.pos >= len(task.plugs):
            self._finish(rt, task)
            return
        plug = task.plugs[task.pos]
        rt.open_session(
            plug,
            on_established=lambda _rt, h: self._downstream_open(rt, task, h),
            on_failed=lambda _rt, _plug, status: self._downstream_failed(rt, task))

    def _downstream_open(self, rt, task, handle):
        task.current = handle
        rt.send(handle, b"task:" + rt.config.service_name.encode())

    def _downstream_failed(self, rt, task):
        task.pos += 1
        self._advance(rt, task)

    def on_reply(self, rt, handle, payload):
        for task in self._tasks:
            if task.current is handle:
                task.current = None
                rt.close_session(handle)
                task.pos += 1
                self._advance(rt, task)
                return

    def on_session_closed(self, rt, handle):
        # A downstream peer vanishing mid-task must not wedge the cascade.
        for task in self._tasks:
            if task.current is handle:
                task.current = None
                task.pos += 1
                self._advance(rt, task)
                return

    def _finish(self, rt, task):
        self._tasks.remove(task)
        if task.upstream is not None:
            rt.send(task.upstream, b"done:" + rt.config.service_name.encode())


BEHAVIORS: dict[str, Callable[[], Behavior]] = {
    "cascade": CascadeBehavior,
    "idle": Behavior,
}


def make_behavior(name: str) -> Behavior:
    return BEHAVIORS[name]()
