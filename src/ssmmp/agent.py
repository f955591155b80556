"""Per-node intermediary: registers, executes instances, relays messages.

The agent owns a repository of executable services, spawns runtimes on the
control plane's request, and forwards messages in both directions, rewriting
only the route tag (and inserting its own address where the upstream template
adds it). It polls instance health and reports abnormal results upward.
Each session establishment it relays is one entry of `_flows`, from the
request until the manager's refusal or the instance's ack. An instance stays
in `instances` exactly while the agent regards it as running: a graceful
exit, a hard kill or a detected death removes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from . import wire
from .transport import (ConnectionRefused, Endpoint, NodeDown, read_messages,
                        send_message)
from .wire import Message, MessageType as MT, SubType as ST


@dataclass(frozen=True)
class RepositoryEntry:
    service_name: str
    socket_names: tuple[str, ...]
    plug_names: tuple[str, ...]
    bytecode: str  # behavior identifier resolved by the runtime


@dataclass
class LocalInstance:
    service_name: str
    instance_id: int
    handle: object            # process handle: .alive / .kill() / .env
    channel: object | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.service_name, self.instance_id)


@dataclass
class _Flow:
    """A session establishment relayed upstream and not yet finished."""

    instance: LocalInstance
    timer: object
    awaiting_ack: bool = False  # the 200 went down; the ack has not come up


HEALTH_POLL_MS = 2_000     # how often running instances are asked
INSTANCE_TIMEOUT_MS = 5_000  # an instance's answer to a health poll
REGISTER_RETRY_MS = 1_000  # wait before registering again


@dataclass
class AgentConfig:
    agent_port: int = 7070
    manager_port: int = 7000


class SpawnError(Exception):
    pass


_check_agent_address = wire.FIELD_CHECKS["agent_network_address"]

# Relay rewrite map: (type, inbound sub_type) -> outbound sub_type.
_RELAY = {
    (MT.SESSION_REQUEST, ST.SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.SESSION_ACK, ST.SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.SESSION_RESPONSE, ST.MANAGER_TO_AGENT): ST.AGENT_TO_SERVICE,
    (MT.SOURCE_SESSION_CLOSE_INFO, ST.SOURCE_SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.DEST_SESSION_CLOSE_INFO, ST.DEST_SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.SOURCE_SESSION_CLOSE_REQUEST, ST.MANAGER_TO_AGENT): ST.AGENT_TO_SOURCE_SERVICE,
    (MT.SOURCE_SESSION_CLOSE_RESPONSE, ST.SOURCE_SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.DEST_SESSION_CLOSE_REQUEST, ST.MANAGER_TO_AGENT): ST.AGENT_TO_DEST_SERVICE,
    (MT.DEST_SESSION_CLOSE_RESPONSE, ST.DEST_SERVICE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.GRACEFUL_SHUTDOWN_REQUEST, ST.MANAGER_TO_AGENT): ST.AGENT_TO_SERVICE_INSTANCE,
    (MT.GRACEFUL_SHUTDOWN_RESPONSE, ST.SERVICE_INSTANCE_TO_AGENT): ST.AGENT_TO_MANAGER,
    (MT.HEALTH_CONTROL_RESPONSE, ST.SERVICE_INSTANCE_TO_AGENT): ST.AGENT_TO_MANAGER,
}


def rewrite_for_relay(msg: Message, agent_address: str) -> Message:
    """Sub_type rewritten per template pair; other fields copied verbatim.

    The upstream session_request template carries the agent's address as its
    first field; everything else is preserved exactly. Both templates of a
    pair hold the same fields, so a relay of a checked message is checked
    too, once the address it adds passes its check.
    """
    out_sub = _RELAY[(msg.msg_type, msg.sub_type)]
    fields = msg.fields
    checked = msg.checked
    if msg.msg_type is MT.SESSION_REQUEST and msg.sub_type is ST.SERVICE_TO_AGENT:
        fields = (("agent_network_address", agent_address),) + fields
        checked = checked and _check_agent_address(agent_address) is None
    return Message(msg.msg_type, msg.message_id, out_sub, fields, checked)


class Agent:
    def __init__(self, env, node_addr: str, manager_addr: str,
                 repository: dict[str, RepositoryEntry],
                 spawn_fn: Callable, config: AgentConfig | None = None):
        self.env = env
        self.node_addr = node_addr
        self.manager_addr = manager_addr
        self.repository = repository
        self.spawn_fn = spawn_fn
        self.config = config or AgentConfig()
        self.instances: dict[tuple[str, int], LocalInstance] = {}
        self.registered = False
        self.alive = True
        self._ids = wire.IdCounter()
        self._manager_ch = None
        self._flows: dict[int, _Flow] = {}
        # Correlation discipline: message ids are per originator, so two local
        # instances may reuse one id. Establishment replies and acks carry no
        # originator identity; only one flow per id may be outstanding at a
        # time, later ones wait here until the current one terminates.
        self._held_requests: dict[int, deque] = {}
        self._pending_health: dict[int, tuple[LocalInstance, object]] = {}
        self._timers: list[object] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.env.listen(self.config.agent_port, self._on_runtime_connect,
                        kind="control")
        self.register()
        self._timers.append(self.env.schedule_repeating(
            HEALTH_POLL_MS, self.health_poll_tick, tag="tick"))

    def has_pending(self) -> bool:
        """A live agent awaits a health reply or relays an establishment;
        its held session requests wait only behind such a flow."""
        return self.alive and bool(self._pending_health or self._flows)

    def mark_dead(self) -> None:
        """The node died, and its instances with it."""
        self.alive = False
        for t in self._timers:
            t.cancel()
        for li in self.instances.values():
            li.handle.env.call(li.handle.kill)
        self.instances.clear()

    # -- registration ---------------------------------------------------------

    def register(self) -> None:
        if not self.alive:
            return
        try:
            ch, _m, _l = self.env.connect(
                Endpoint(self.manager_addr, self.config.manager_port),
                kind="control")
        except (NodeDown, ConnectionRefused):
            self.env.schedule(REGISTER_RETRY_MS, self.register, tag="retry")
            return
        self._manager_ch = ch
        read_messages(ch, lambda _ch, msg: self._from_manager(msg),
                      self._on_manager_close)
        send_message(ch, wire.make_message(
            MT.INITIATION_REQUEST, self._ids.next(),
            agent_network_address=self.node_addr,
            service_repository=wire.format_name_list(sorted(self.repository))))

    def _on_manager_close(self, channel) -> None:
        if channel is not self._manager_ch:
            return
        self._manager_ch = None
        self.registered = False
        if self.alive:
            self.env.schedule(REGISTER_RETRY_MS, self.register, tag="retry")

    def _to_manager(self, msg: Message) -> bool:
        if send_message(self._manager_ch, msg):
            return True
        self.env.emit("log", f"manager unreachable, dropping {msg.msg_type.value}")
        return False

    # -- channels from runtimes -----------------------------------------------

    def _running(self, li: LocalInstance) -> bool:
        return self.instances.get(li.key) is li

    def _on_runtime_connect(self, channel, info) -> None:
        iid = info.meta.get("instance", "")
        li = (self.instances.get((info.meta.get("service", ""), int(iid)))
              if iid.isdecimal() else None)
        if li is None:
            channel.close()
            return
        li.channel = channel
        read_messages(channel, lambda _ch, msg: self._from_instance(li, msg),
                      lambda ch: self._on_runtime_close(li, ch))

    def _on_runtime_close(self, li: LocalInstance, channel) -> None:
        if li.channel is channel:
            li.channel = None
            if self._running(li) and not li.handle.alive:
                # Unexpected death: tell the control plane now rather than
                # waiting for the next poll to find the corpse.
                self._lost(li)

    # -- messages from Manager --------------------------------------------

    def _from_manager(self, msg: Message) -> None:
        if msg.msg_type is MT.INITIATION_RESPONSE:
            if wire.is_success(msg.status):
                self.registered = True
            else:
                self.env.schedule(REGISTER_RETRY_MS, self.register, tag="retry")
            return
        if msg.msg_type is MT.EXECUTION_REQUEST:
            self.handle_execution_request(msg)
            return
        if msg.msg_type is MT.SESSION_RESPONSE:
            mid = msg.message_id
            flow = self._flows.get(mid)
            if (flow is None or flow.awaiting_ack
                    or not send_message(flow.instance.channel, rewrite_for_relay(
                        msg, self.node_addr))):
                self.env.emit("log", f"session_response {mid} undeliverable")
                self._session_flow_done(mid)
            elif wire.is_success(msg.status):
                flow.awaiting_ack = True  # flow open until the ack passes
            else:
                self._session_flow_done(mid)
            return
        if msg.msg_type is MT.HARD_SHUTDOWN_REQUEST:
            self.handle_hard_shutdown_request(msg)
            return
        if msg.msg_type in (MT.SOURCE_SESSION_CLOSE_REQUEST,
                            MT.DEST_SESSION_CLOSE_REQUEST,
                            MT.GRACEFUL_SHUTDOWN_REQUEST):
            self._forward_to_instance(msg)
            return
        self.env.emit("log", f"unexpected message from manager: {msg.msg_type.value}")

    def _target_of(self, msg: Message) -> LocalInstance | None:
        if msg.msg_type is MT.SOURCE_SESSION_CLOSE_REQUEST:
            key = (msg.get("source_service_name"),
                   msg.get_int("source_service_instance_id"))
        elif msg.msg_type is MT.DEST_SESSION_CLOSE_REQUEST:
            key = (msg.get("dest_service_name"),
                   msg.get_int("dest_service_instance_id"))
        else:
            key = (msg.get("service_name"), msg.get_int("service_instance_id"))
        return self.instances.get(key)

    _FAILURE_RESPONSE = {
        MT.SOURCE_SESSION_CLOSE_REQUEST:
            (MT.SOURCE_SESSION_CLOSE_RESPONSE, ST.AGENT_TO_MANAGER),
        MT.DEST_SESSION_CLOSE_REQUEST:
            (MT.DEST_SESSION_CLOSE_RESPONSE, ST.AGENT_TO_MANAGER),
        MT.GRACEFUL_SHUTDOWN_REQUEST:
            (MT.GRACEFUL_SHUTDOWN_RESPONSE, ST.AGENT_TO_MANAGER),
    }

    def _forward_to_instance(self, msg: Message) -> None:
        li = self._target_of(msg)
        delivered = li is not None and send_message(
            li.channel, rewrite_for_relay(msg, self.node_addr))
        if not delivered:
            # Dead or missing instance: answer for it so the flow resolves.
            mt, sub = self._FAILURE_RESPONSE[msg.msg_type]
            self._to_manager(wire.make_message(
                mt, msg.message_id, sub, status=wire.UNREACHABLE))

    # -- messages from instances ----------------------------------------------

    def _from_instance(self, li: LocalInstance, msg: Message) -> None:
        key = (msg.msg_type, msg.sub_type)
        if key not in _RELAY:
            self.env.emit("log", f"unexpected message from {li.key}: "
                                 f"{msg.msg_type.value}")
            return
        if msg.msg_type is MT.HEALTH_CONTROL_RESPONSE:
            self._on_health_response(li, msg)
            return
        if msg.msg_type is MT.SESSION_REQUEST:
            mid = msg.message_id
            if mid in self._flows or self._held_requests.get(mid):
                self._held_requests.setdefault(mid, deque()).append((li, msg))
                return
            self._start_session_flow(li, msg)
            return
        if msg.msg_type is MT.GRACEFUL_SHUTDOWN_RESPONSE \
                and wire.is_success(msg.status):
            self.instances.pop(li.key, None)
        self._to_manager(rewrite_for_relay(msg, self.node_addr))
        if msg.msg_type is MT.SESSION_ACK:
            flow = self._flows.get(msg.message_id)
            if flow is not None and flow.awaiting_ack:
                self._session_flow_done(msg.message_id)

    def _start_session_flow(self, li: LocalInstance, msg: Message) -> None:
        mid = msg.message_id
        if not self._to_manager(rewrite_for_relay(msg, self.node_addr)):
            # Upstream dead: fail the open instead of letting it hang.
            send_message(li.channel, wire.make_message(
                MT.SESSION_RESPONSE, mid, ST.AGENT_TO_SERVICE,
                status=wire.UNREACHABLE,
                dest_service_instance_network_address=self.node_addr,
                dest_socket_port=65535))
            self._release_held(mid)
            return
        # Safety valve: past the upstream's own expiry window the flow is
        # abandoned and the next same-id request may proceed.
        self._flows[mid] = _Flow(li, self.env.schedule(
            INSTANCE_TIMEOUT_MS + 200,
            lambda: self._session_flow_done(mid), tag="timeout"))

    def _session_flow_done(self, mid: int) -> None:
        flow = self._flows.pop(mid, None)
        if flow is not None:
            flow.timer.cancel()
        self._release_held(mid)

    def _release_held(self, mid: int) -> None:
        held = self._held_requests.get(mid)
        while held:
            li, msg = held.popleft()
            if self._running(li) and li.handle.alive:
                self._start_session_flow(li, msg)
                return
        self._held_requests.pop(mid, None)

    # -- execution ----------------------------------------------------------

    def handle_execution_request(self, msg: Message) -> None:
        def respond(status: int) -> None:
            self._to_manager(wire.make_message(
                MT.EXECUTION_RESPONSE, msg.message_id, status=status))

        service = msg.get("service_name")
        entry = self.repository.get(service)
        if entry is None:
            respond(wire.NO_BYTECODE)
            return
        try:
            sockets = wire.parse_socket_config(msg.get("socket_configuration"))
            plugs = wire.parse_plug_config(msg.get("plug_configuration"))
        except wire.WireSyntaxError:
            respond(wire.MALFORMED)
            return
        if ({s for s, _ in sockets} != set(entry.socket_names)
                or {p for p, _ in plugs} != set(entry.plug_names)):
            respond(wire.MALFORMED)
            return
        iid = msg.get_int("service_instance_id")
        li = LocalInstance(service, iid, handle=None)
        self.instances[(service, iid)] = li
        try:
            li.handle = self.spawn_fn(service, iid, sockets, plugs, entry.bytecode)
        except SpawnError as e:  # a socket's port is in use
            del self.instances[(service, iid)]
            self.env.emit("log", f"spawn of {service}.{iid} failed: {e}")
            respond(wire.CONFLICT)
            return
        respond(wire.EXECUTED)

    # -- shutdown -----------------------------------------------------------

    def handle_hard_shutdown_request(self, msg: Message) -> None:
        key = (msg.get("service_name"), msg.get_int("service_instance_id"))
        li = self.instances.get(key)
        if li is None or not li.handle.alive:
            status = wire.NOT_FOUND
        else:
            li.handle.env.call(li.handle.kill)
            del self.instances[key]
            status = wire.OK
        self._to_manager(wire.make_message(
            MT.HARD_SHUTDOWN_RESPONSE, msg.message_id, ST.AGENT_TO_MANAGER,
            status=status))

    # -- health -------------------------------------------------------------

    def health_poll_tick(self) -> None:
        if not self.alive or not self.registered:
            return
        for li in list(self.instances.values()):
            if not li.handle.alive or li.channel is None or not li.channel.is_open:
                self._lost(li)
                continue
            mid = self._ids.next()
            sent = send_message(li.channel, wire.make_message(
                MT.HEALTH_CONTROL_REQUEST, mid, ST.AGENT_TO_SERVICE_INSTANCE,
                service_name=li.service_name,
                service_instance_id=li.instance_id))
            if not sent:
                self._lost(li)
                continue
            timer = self.env.schedule(
                INSTANCE_TIMEOUT_MS,
                lambda m=mid: self._health_timeout(m), tag="timeout")
            self._pending_health[mid] = (li, timer)

    def _health_timeout(self, mid: int) -> None:
        entry = self._pending_health.pop(mid, None)
        if entry is None:
            return
        li, _timer = entry
        self.env.emit("log", f"instance {li.key} silent, synthesizing 500")
        self._report_health(li, wire.INTERNAL_ERROR)

    def _on_health_response(self, li: LocalInstance, msg: Message) -> None:
        entry = self._pending_health.pop(msg.message_id, None)
        if entry is not None:
            entry[1].cancel()
        if msg.status != wire.OK:
            self._to_manager(rewrite_for_relay(msg, self.node_addr))

    def _lost(self, li: LocalInstance) -> None:
        """A running instance found dead: it leaves the table, and the
        control plane hears of it now."""
        del self.instances[li.key]
        self._report_health(li, wire.INTERNAL_ERROR)

    def _report_health(self, li: LocalInstance, status: int) -> None:
        self._to_manager(wire.make_message(
            MT.HEALTH_CONTROL_RESPONSE, self._ids.next(), ST.AGENT_TO_MANAGER,
            service_name=li.service_name,
            service_instance_id=li.instance_id,
            status=status))
