"""The control plane: agent registry, instance DB, session table, DNS.

One logical state machine; every inbound message and timer tick runs to
completion before the next. Each request sent to an agent (execution,
session close, graceful or hard shutdown) waits in the `Correlations` table
`_pending` under its message id, behind one send path, one timeout handler
and one response path; each session request answered 200 waits in
`_pending_sessions` for its ack.
Flows that need a remote step first (spawning a destination instance,
draining sessions before a graceful shutdown) resume when it resolves.
`instances` holds the instances that have not ended (starting, running or
draining); `_mark_instance_closed` moves a record to `closed_instances`, the
history that only the report reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from . import wire
from .graph import AbstractGraph, ServiceKind, outgoing_connections
from .transport import Correlations, PortPool, read_messages, send_message
from .wire import Message, MessageType as MT, SubType as ST


SessionKey = tuple[str, int | None, str, int, int | None]

IDLE_POLL_MS = 1_000  # how often idle instances are looked for
IDLE_TIMEOUT_MS = 30_000  # an instance idle this long is shut down
REQUEST_TIMEOUT_MS = 5_000  # an agent's answer, or a session's ack
PORT_POOL_START = 20_000  # the first listener port of each node


class AgentStatus(Enum):
    UP = "up"
    ISOLATED = "isolated"


class InstanceState(Enum):
    STARTING = "starting"
    RUNNING = "running"
    DRAINING = "draining"
    CLOSED = "closed"


class SessionState(Enum):
    PENDING = "pending"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass
class AgentRecord:
    node_address: str
    repository: list[str]
    status: AgentStatus = AgentStatus.UP


@dataclass
class InstanceRecord:
    service: str
    instance_id: int
    node_address: str
    socket_ports: dict[str, int]
    plug_config: dict[str, str]
    state: InstanceState = InstanceState.STARTING
    last_activity: int = 0
    is_gateway: bool = False
    is_baas: bool = False

    @property
    def key(self) -> tuple[str, int]:
        return (self.service, self.instance_id)

    @property
    def canonical_name(self) -> str:
        return f"{self.service}.{self.instance_id}"


@dataclass
class SessionRecord:
    """All eleven session parameters plus lifecycle state."""

    source_service_name: str
    source_address: str
    source_instance_id: int
    plug_name: str
    plug_port: int | None  # m, learned from the ack
    dest_service_name: str
    dest_address: str
    dest_instance_id: int
    socket_name: str
    socket_port: int  # k
    session_port: int | None  # l, learned from the ack
    state: SessionState = SessionState.PENDING
    close_reason: str = ""

    def key(self) -> SessionKey:
        return (self.source_address, self.plug_port,
                self.dest_address, self.socket_port, self.session_port)

    def touches(self, instance: InstanceRecord) -> bool:
        return ((self.source_service_name, self.source_instance_id) == instance.key
                or (self.dest_service_name, self.dest_instance_id) == instance.key)

    def touches_node(self, addr: str) -> bool:
        return self.source_address == addr or self.dest_address == addr

    def complete(self) -> bool:
        return self.plug_port is not None and self.session_port is not None

    def params(self) -> dict[str, object]:
        """The eleven session parameters, by wire field name."""
        return {
            "source_service_name": self.source_service_name,
            "source_service_instance_network_address": self.source_address,
            "source_service_instance_id": self.source_instance_id,
            "source_plug_name": self.plug_name,
            "source_plug_port": self.plug_port,
            "dest_service_name": self.dest_service_name,
            "dest_service_instance_network_address": self.dest_address,
            "dest_service_instance_id": self.dest_instance_id,
            "dest_socket_name": self.socket_name,
            "dest_socket_port": self.socket_port,
            "dest_socket_new_port": self.session_port,
        }


class NameNotFound(KeyError):
    pass


class DnsTable:
    """A records per canonical instance name; CNAME alias round-robin."""

    def __init__(self) -> None:
        self.a_records: dict[str, str] = {}
        self.cname_records: dict[str, list[str]] = {}
        self._cursors: dict[str, int] = {}

    def add_instance(self, alias: str, canonical: str, addr: str) -> None:
        self.a_records[canonical] = addr
        self.cname_records.setdefault(alias, []).append(canonical)

    def remove_instance(self, alias: str, canonical: str) -> None:
        self.a_records.pop(canonical, None)
        targets = self.cname_records.get(alias, [])
        if canonical in targets:
            targets.remove(canonical)

    def targets(self, alias: str) -> list[str]:
        return list(self.cname_records.get(alias, []))

    def resolve(self, alias: str) -> str:
        targets = self.cname_records.get(alias)
        if not targets:
            raise NameNotFound(alias)
        cursor = self._cursors.get(alias, 0)
        name = targets[cursor % len(targets)]
        self._cursors[alias] = cursor + 1
        return self.a_records[name]


@dataclass
class ManagerConfig:
    manager_port: int = 7000


@dataclass
class _Pending:
    """One outstanding request to an agent, keyed by its message id."""

    kind: str  # exec | close | shutdown
    agent: str  # the agent the request went to
    subject: InstanceRecord | SessionRecord  # a SessionRecord for a close
    hard: bool = False  # a shutdown: hard rather than graceful
    # An exec's session requests, answered once the instance runs.
    parked: list[tuple[str, Message]] = field(default_factory=list)


# request kind -> how the journal names the request and its response, and
# the method that finishes the request once resolved, by name
_REQUEST_KINDS = {
    "exec": ("execution request", "execution_response", "_resolve_exec"),
    "close": ("close request", "close_response", "_resolve_close"),
    "shutdown": ("shutdown request", "shutdown response", "_resolve_shutdown"),
}

# message type -> the handler that takes it from a registered agent, by name,
# so that a tracer wrapping a handler on the class sees every call
_HANDLERS = {
    MT.EXECUTION_RESPONSE: "handle_response",
    MT.SESSION_REQUEST: "handle_session_request",
    MT.SESSION_ACK: "handle_session_ack",
    MT.SOURCE_SESSION_CLOSE_INFO: "handle_close_info",
    MT.DEST_SESSION_CLOSE_INFO: "handle_close_info",
    MT.SOURCE_SESSION_CLOSE_RESPONSE: "handle_close_response",
    MT.DEST_SESSION_CLOSE_RESPONSE: "handle_close_response",
    MT.GRACEFUL_SHUTDOWN_RESPONSE: "handle_response",
    MT.HARD_SHUTDOWN_RESPONSE: "handle_response",
    MT.HEALTH_CONTROL_RESPONSE: "handle_health_response",
}

_RESPONSE_KIND = {
    MT.EXECUTION_RESPONSE: "exec",
    MT.SOURCE_SESSION_CLOSE_RESPONSE: "close",
    MT.DEST_SESSION_CLOSE_RESPONSE: "close",
    MT.GRACEFUL_SHUTDOWN_RESPONSE: "shutdown",
    MT.HARD_SHUTDOWN_RESPONSE: "shutdown",
}


class Manager:
    def __init__(self, env, graphs: Iterable[AbstractGraph],
                 config: ManagerConfig | None = None):
        self.env = env
        self.config = config or ManagerConfig()
        self.knowledge_base: list[AbstractGraph] = list(graphs)
        self.agents: dict[str, AgentRecord] = {}
        # Live instances; a record leaves only through _mark_instance_closed.
        self.instances: dict[tuple[str, int], InstanceRecord] = {}
        self.closed_instances: dict[tuple[str, int], InstanceRecord] = {}
        # Every established record, in order; closed ones stay for the report.
        self.sessions: list[SessionRecord] = []
        # The open ones among them, in the same order: by key, and by each
        # instance and node they touch. Filled where an ack establishes a
        # record and emptied only by _close_session.
        self._open_sessions: dict[SessionKey, SessionRecord] = {}
        self._sessions_by_instance: dict[
            tuple[str, int], dict[SessionKey, SessionRecord]] = {}
        self._sessions_by_node: dict[str, dict[SessionKey, SessionRecord]] = {}
        self._established_keys: set[SessionKey] = set()
        # How many of `sessions` _close_session has closed; the rest are open.
        self.closed_session_count = 0
        self.dns = DnsTable()
        self.journal: list[tuple[int, str, str]] = []
        self._ids = wire.IdCounter()
        self._instance_ids: dict[str, int] = {}
        self._channels: dict[str, object] = {}       # agent addr -> channel
        self._channel_addr: dict[object, str] = {}   # channel -> agent addr
        self._pools: dict[str, PortPool] = {}
        self._pending = Correlations(env, REQUEST_TIMEOUT_MS,
                                     self._request_timeout)
        # (source agent, request id) -> the record its ack completes
        self._pending_sessions = Correlations(env, REQUEST_TIMEOUT_MS,
                                              self._expire_pending_session)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.env.listen(self.config.manager_port, self._on_agent_connect,
                        kind="control")
        self.env.schedule_repeating(IDLE_POLL_MS, self.idle_tick,
                                    tag="tick")

    def start_app(self) -> None:
        """Boot one instance of every gateway, per the knowledge base."""
        self._decision("start_app", "")
        for g in self.knowledge_base:
            for v in g.vertices:
                if v.kind is ServiceKind.GATEWAY:
                    self.execute_instance(v.name)

    # -- plumbing ---------------------------------------------------------

    def _log(self, what: str) -> None:
        self.journal.append((self.env.now_ms(), "log", what))
        self.env.emit("log", what)

    def _decision(self, kind: str, detail: str) -> None:
        text = f"{kind} {detail}".strip()
        self.journal.append((self.env.now_ms(), "decision", text))
        self.env.emit("decision", text)

    def _pool(self, addr: str) -> PortPool:
        if addr not in self._pools:
            self._pools[addr] = PortPool(PORT_POOL_START)
        return self._pools[addr]

    def _graph_of(self, service: str) -> AbstractGraph | None:
        for g in self.knowledge_base:
            if g.has_service(service):
                return g
        return None

    def _send(self, agent_addr: str, msg: Message) -> bool:
        ch = self._channels.get(agent_addr)
        if ch is None or not ch.is_open:
            return False
        if send_message(ch, msg):
            return True
        # The link died under us; the agent is unreachable right now.
        self._log(f"send to {agent_addr} failed, probing")
        self._probe_agent(agent_addr)
        return False

    def _on_agent_connect(self, channel, info) -> None:
        read_messages(channel, self._dispatch, self._on_agent_channel_close)

    def _on_agent_channel_close(self, channel) -> None:
        addr = self._channel_addr.pop(channel, None)
        if addr is None:
            return
        if self._channels.get(addr) is channel:
            del self._channels[addr]
            rec = self.agents.get(addr)
            if rec is not None and rec.status is AgentStatus.UP:
                self._log(f"agent channel lost {addr}")
                self.isolate_node(addr)

    # -- inbound dispatch ---------------------------------------------------

    def _dispatch(self, channel, msg: Message) -> None:
        if msg.msg_type is MT.INITIATION_REQUEST:
            self.handle_initiation_request(channel, msg)
            return
        addr = self._channel_addr.get(channel)
        if addr is None:
            self._log(f"message from unregistered channel dropped: {msg.msg_type.value}")
            return
        name = _HANDLERS.get(msg.msg_type)
        if name is None:
            self._log(f"unexpected message type {msg.msg_type.value} from {addr}")
            return
        getattr(self, name)(addr, msg)

    # -- registration ---------------------------------------------------------

    def handle_initiation_request(self, channel, msg: Message) -> None:
        addr = msg.get("agent_network_address")
        try:
            repo = wire.parse_name_list(msg.get("service_repository"))
        except wire.WireSyntaxError:
            send_message(channel, wire.make_message(
                MT.INITIATION_RESPONSE, msg.message_id, status=wire.MALFORMED))
            return
        seen: list[str] = []
        for name in repo:
            if name not in seen:
                seen.append(name)
        self.agents[addr] = AgentRecord(addr, seen, AgentStatus.UP)
        self._channels[addr] = channel
        self._channel_addr[channel] = addr
        send_message(channel, wire.make_message(
            MT.INITIATION_RESPONSE, msg.message_id, status=wire.OK))

    # -- instance execution -----------------------------------------------

    def _select_node(self, service: str, preferred: str | None) -> str | None:
        capable = [a for a in self.agents.values()
                   if a.status is AgentStatus.UP and service in a.repository
                   and a.node_address in self._channels]
        if preferred is not None:
            capable = [a for a in capable if a.node_address == preferred]
        if not capable:
            return None

        def load(a: AgentRecord) -> tuple[int, str]:
            live = sum(1 for r in self.instances.values()
                       if r.node_address == a.node_address)
            return (live, a.node_address)

        return min(capable, key=load).node_address

    def execute_instance(self, service: str,
                         preferred_node: str | None = None) -> int | None:
        """Plan and dispatch one instance execution; None with a logged
        reason when no placement is possible. Returns the message id."""
        g = self._graph_of(service)
        if g is None:
            self._log(f"execute: unknown service {service}")
            return None
        spec = g.service(service)
        if spec.kind is ServiceKind.BAAS:
            if any(r.service == service for r in self.instances.values()):
                self._log(f"execute: baas {service} already has an instance")
                return None
        node = self._select_node(service, preferred_node)
        if node is None:
            self._log(f"execute: no capable agent for {service}")
            return None
        if spec.kind is ServiceKind.GATEWAY:
            ports = {s: p for s, p in spec.fixed_ports}
        else:
            pool = self._pool(node)
            if pool.available() < len(spec.sockets):
                self._log(f"execute: no free listener port on {node} "
                          f"for {service}")
                return None
            ports = {s: pool.alloc() for s in spec.sockets}
        iid = self._instance_ids.get(service, 0) + 1
        self._instance_ids[service] = iid
        plug_config = {e.plug: e.dest for e in outgoing_connections(g, service)}
        record = InstanceRecord(
            service, iid, node, ports, plug_config,
            state=InstanceState.STARTING, last_activity=self.env.now_ms(),
            is_gateway=spec.kind is ServiceKind.GATEWAY,
            is_baas=spec.kind is ServiceKind.BAAS)
        self.instances[record.key] = record
        mid = self._ids.next()
        msg = wire.make_message(
            MT.EXECUTION_REQUEST, mid,
            agent_network_address=node,
            service_name=service,
            service_instance_id=iid,
            socket_configuration=wire.format_pair_list(
                [(s, ports[s]) for s in spec.sockets]),
            plug_configuration=wire.format_pair_list(
                sorted(plug_config.items())))
        if not self._request(_Pending("exec", node, record), msg):
            return None
        return mid

    # -- requests to agents -------------------------------------------------

    def _request(self, pending: _Pending, msg: Message) -> bool:
        """Send `msg` to `pending.agent` and keep `pending` until its
        response or timeout; a failed send resolves it as unreachable."""
        mid = msg.message_id
        self._pending.add(mid, pending)
        if self._send(pending.agent, msg):
            return True
        if mid in self._pending:  # a probe may have resolved it
            self._resolve(self._pending.take(mid), wire.UNREACHABLE)
        return False

    def _request_timeout(self, mid: int, pending: _Pending) -> None:
        self._log(f"{_REQUEST_KINDS[pending.kind][0]} {mid} timed out")
        self._resolve(pending, wire.TIMEOUT)
        self._probe_agent(pending.agent)

    def handle_response(self, addr: str, msg: Message) -> None:
        """An execution, close or shutdown response: it resolves the pending
        request with its id only when that request is of the same kind."""
        kind = _RESPONSE_KIND[msg.msg_type]
        pending = self._pending.get(msg.message_id)
        if pending is None or pending.kind != kind:
            self._log(f"{_REQUEST_KINDS[kind][1]} with unknown id "
                      f"{msg.message_id}")
            return
        self._resolve(self._pending.take(msg.message_id), msg.status)

    # Close responses keep a name of their own so that a tracer can wrap them.
    handle_close_response = handle_response

    def _resolve(self, pending: _Pending, status: int) -> None:
        """Finish `pending`, which has left `_pending`."""
        getattr(self, _REQUEST_KINDS[pending.kind][2])(pending, status)

    def _probe_agent(self, addr: str) -> None:
        ch = self._channels.get(addr)
        if ch is None or not ch.is_open:
            rec = self.agents.get(addr)
            if rec is not None and rec.status is AgentStatus.UP:
                self.isolate_node(addr)

    def _resolve_exec(self, pending: _Pending, status: int) -> None:
        record = pending.subject
        if wire.is_success(status):
            record.state = InstanceState.RUNNING
            record.last_activity = self.env.now_ms()
            if record.is_gateway:
                self.dns.add_instance(record.service, record.canonical_name,
                                      record.node_address)
        else:
            self._log(f"execution of {record.canonical_name} failed: {status}")
            self._free_instance_ports(record)
            # Isolation may already have closed it while it was starting.
            self.instances.pop(record.key, None)
            self.closed_instances.pop(record.key, None)
        for agent_addr, parked in pending.parked:
            if wire.is_success(status):
                self.handle_session_request(agent_addr, parked)
            else:
                fail = wire.NO_BYTECODE if status != wire.TIMEOUT else wire.TIMEOUT
                self._respond_session(agent_addr, parked.message_id, fail)

    def _free_instance_ports(self, record: InstanceRecord) -> None:
        if record.is_gateway:
            return
        pool = self._pool(record.node_address)
        for port in record.socket_ports.values():
            pool.free(port)

    # -- session establishment ----------------------------------------------

    def _respond_session(self, agent_addr: str, mid: int, status: int,
                         dest_addr: str | None = None, k: int | None = None) -> None:
        # A failure response still needs template-complete fields; the
        # requester ignores them on a non-2xx status.
        msg = wire.make_message(
            MT.SESSION_RESPONSE, mid, ST.MANAGER_TO_AGENT,
            status=status,
            dest_service_instance_network_address=dest_addr or agent_addr,
            dest_socket_port=k or 65535)
        self._send(agent_addr, msg)

    def handle_session_request(self, addr: str, msg: Message) -> None:
        mid = msg.message_id
        source_addr = msg.get("agent_network_address")
        a, i = msg.get("source_service_name"), msg.get_int("source_service_instance_id")
        p = msg.get("source_plug_name")
        b, s = msg.get("dest_service_name"), msg.get("dest_socket_name")
        key = (source_addr, mid)
        if key in self._pending_sessions:
            self._log(f"session id conflict for {key}")
            self._respond_session(source_addr, mid, wire.CONFLICT)
            return
        g = self._graph_of(a)
        source = self.instances.get((a, i))
        if (g is None or not g.has_edge(a, p, b, s) or source is None
                or source.plug_config.get(p) != b):
            self._respond_session(source_addr, mid, wire.NOT_FOUND)
            return

        running = self.running_instances(b)
        if not running:
            starting = [x for _mid, x in self._pending.items()
                        if x.kind == "exec" and x.subject.service == b]
            if starting:
                starting[0].parked.append((source_addr, msg))
                return
            exec_mid = self.execute_instance(b)
            if exec_mid is None:
                self._respond_session(source_addr, mid, wire.NO_BYTECODE)
                return
            self._pending.get(exec_mid).parked.append((source_addr, msg))
            return

        # The least-loaded instance; ties go to the lowest (node, id).
        dest = min(running, key=lambda r: (self.open_session_count(r),
                                           r.node_address, r.instance_id))
        k = dest.socket_ports[s]
        record = SessionRecord(
            source_service_name=a, source_address=source_addr,
            source_instance_id=i, plug_name=p, plug_port=None,
            dest_service_name=b, dest_address=dest.node_address,
            dest_instance_id=dest.instance_id, socket_name=s,
            socket_port=k, session_port=None)
        self._pending_sessions.add(key, record)
        self._respond_session(source_addr, mid, wire.OK, dest.node_address, k)

    def _expire_pending_session(self, key: tuple[str, int],
                                _record: SessionRecord) -> None:
        self._log(f"pending session {key} expired without ack")

    def handle_session_ack(self, addr: str, msg: Message) -> None:
        key = (addr, msg.message_id)
        record = self._pending_sessions.take(key)
        if record is None:
            self._log(f"ack without pending session {key} (duplicate or late): "
                      f"{wire.ALREADY_CLOSED}")
            return
        if not wire.is_success(msg.status):
            self._log(f"session establishment failed with {msg.status} for {key}")
            return
        record.plug_port = msg.get_int("source_plug_port")
        record.session_port = msg.get_int("dest_socket_new_port")
        key = record.key()
        if key in self._open_sessions:
            self._log(f"session key collision ignored: {key}")
            return
        record.state = SessionState.ESTABLISHED
        self.sessions.append(record)
        self._open_sessions[key] = record
        self._established_keys.add(key)
        for index, at in self._session_buckets(record):
            index.setdefault(at, {})[key] = record
        self._touch_session_instances(record)

    def _session_buckets(self, record: SessionRecord):
        """(index, bucket key) of each per-instance and per-node bucket that
        holds `record` while it is open."""
        return ((self._sessions_by_instance,
                 (record.source_service_name, record.source_instance_id)),
                (self._sessions_by_instance,
                 (record.dest_service_name, record.dest_instance_id)),
                (self._sessions_by_node, record.source_address),
                (self._sessions_by_node, record.dest_address))

    def _open_sessions_of(self, instance: InstanceRecord) -> list[SessionRecord]:
        return list(self._sessions_by_instance.get(instance.key, {}).values())

    def _touch_session_instances(self, record: SessionRecord) -> None:
        now = self.env.now_ms()
        for key in ((record.source_service_name, record.source_instance_id),
                    (record.dest_service_name, record.dest_instance_id)):
            inst = self.instances.get(key)
            if inst is not None:
                inst.last_activity = now

    # -- session close ----------------------------------------------------

    def _close_session(self, record: SessionRecord, reason: str) -> None:
        if record.state is SessionState.CLOSED:
            return
        record.state = SessionState.CLOSED
        record.close_reason = reason
        key = record.key()
        if self._open_sessions.get(key) is record:  # never-acked: not indexed
            del self._open_sessions[key]
            self.closed_session_count += 1
            for index, at in self._session_buckets(record):
                bucket = index.get(at)
                if bucket is not None:  # source and dest may share a bucket
                    bucket.pop(key, None)
                    if not bucket:
                        del index[at]
        self._touch_session_instances(record)
        for key in ((record.source_service_name, record.source_instance_id),
                    (record.dest_service_name, record.dest_instance_id)):
            inst = self.instances.get(key)
            if inst is not None and inst.state is InstanceState.DRAINING:
                self._maybe_finish_drain(inst)

    def handle_close_info(self, addr: str, msg: Message) -> None:
        key = msg.session_key()
        record = self._open_sessions.get(key)
        if record is not None:
            self._close_session(record, "reported")
            return
        if key in self._established_keys:
            return  # the other side already reported this close
        self._log(f"close_info matched no session: {wire.NOT_FOUND}")

    def request_session_close(self, record: SessionRecord, side: str) -> int | None:
        """Ask one side's instance (via its agent) to close; 410-style no-op
        when already closed. Returns the message id actually sent."""
        if record.state is SessionState.CLOSED:
            return None
        addr = record.source_address if side == "source" else record.dest_address
        agent = self.agents.get(addr)
        if agent is None or agent.status is not AgentStatus.UP:
            return None
        mid = self._ids.next()
        mt = (MT.SOURCE_SESSION_CLOSE_REQUEST if side == "source"
              else MT.DEST_SESSION_CLOSE_REQUEST)
        params = record.params()
        msg = wire.make_message(mt, mid, ST.MANAGER_TO_AGENT, **{
            name: params[name]
            for name in wire.TEMPLATES[mt, ST.MANAGER_TO_AGENT]})
        if not self._request(_Pending("close", addr, record), msg):
            return None
        return mid

    def _resolve_close(self, pending: _Pending, status: int) -> None:
        if wire.is_success(status) or status == wire.ALREADY_CLOSED:
            self._close_session(pending.subject, "requested")
        else:
            self._close_session(pending.subject, f"close_failed_{status}")

    # -- shutdown ----------------------------------------------------------

    def open_session_count(self, instance: InstanceRecord) -> int:
        return len(self._sessions_by_instance.get(instance.key, ()))

    def request_graceful_shutdown(self, instance: InstanceRecord) -> None:
        if instance.state not in (InstanceState.RUNNING, InstanceState.DRAINING):
            return
        open_sessions = self._open_sessions_of(instance)
        if open_sessions:
            instance.state = InstanceState.DRAINING
            for s in open_sessions:
                # The close request goes to the source side; when that side
                # is unreachable the mirrored dest-side request is used.
                if (self.request_session_close(s, "source") is None
                        and s.state is not SessionState.CLOSED):
                    self.request_session_close(s, "dest")
            return
        instance.state = InstanceState.DRAINING
        self._send_shutdown(instance, hard=False)

    def _maybe_finish_drain(self, instance: InstanceRecord) -> None:
        if instance.state is not InstanceState.DRAINING:
            return
        if instance.key in self._sessions_by_instance:
            return
        if any(p.kind == "shutdown" and p.subject is instance
               for _mid, p in self._pending.items()):
            return
        self._send_shutdown(instance, hard=False)

    def request_hard_shutdown(self, instance: InstanceRecord) -> None:
        if instance.state is InstanceState.CLOSED:
            return
        self._send_shutdown(instance, hard=True)

    def _send_shutdown(self, instance: InstanceRecord, hard: bool) -> None:
        msg = wire.make_message(
            MT.HARD_SHUTDOWN_REQUEST if hard else MT.GRACEFUL_SHUTDOWN_REQUEST,
            self._ids.next(), ST.MANAGER_TO_AGENT,
            service_name=instance.service,
            service_instance_id=instance.instance_id)
        self._request(_Pending("shutdown", instance.node_address, instance,
                               hard=hard), msg)

    def _resolve_shutdown(self, pending: _Pending, status: int) -> None:
        instance = pending.subject
        if not pending.hard:
            if wire.is_success(status):
                self._mark_instance_closed(instance, "graceful")
            elif instance.state is not InstanceState.CLOSED:
                # Closed meanwhile, as isolation does: no agent refused it.
                if instance.state is InstanceState.DRAINING:
                    instance.state = InstanceState.RUNNING
                self._log(f"graceful shutdown of {instance.canonical_name} "
                          f"refused: {status}")
                if status in (wire.UNREACHABLE, wire.TIMEOUT):
                    self._probe_agent(instance.node_address)
            return
        # Hard: 2xx killed, 404 already gone; both mean the process is dead.
        if wire.is_success(status) or status == wire.NOT_FOUND:
            self._mark_instance_closed(instance, "hard")
            for s in self._open_sessions_of(instance):
                if s.state is SessionState.CLOSED:
                    continue
                side = ("dest" if (s.source_service_name, s.source_instance_id)
                        == instance.key else "source")
                self.request_session_close(s, side)
                self._close_session(s, "peer_killed")
        else:
            self._log(f"hard shutdown of {instance.canonical_name} failed: {status}")

    def _mark_instance_closed(self, instance: InstanceRecord, reason: str) -> None:
        if instance.state is InstanceState.CLOSED:
            return
        instance.state = InstanceState.CLOSED
        del self.instances[instance.key]
        self.closed_instances[instance.key] = instance
        self._free_instance_ports(instance)
        if instance.is_gateway:
            self.dns.remove_instance(instance.service, instance.canonical_name)
        self._decision("instance_closed", f"{instance.canonical_name} {reason}")

    # -- failures ------------------------------------------------------------

    def isolate_node(self, addr: str) -> None:
        agent = self.agents.get(addr)
        if agent is None or agent.status is AgentStatus.ISOLATED:
            return
        agent.status = AgentStatus.ISOLATED
        self._decision("isolate_node", addr)
        ch = self._channels.pop(addr, None)
        if ch is not None:
            self._channel_addr.pop(ch, None)
            ch.close()
        # Sessions touching the node: ask the surviving side to close, then
        # regard them as closed here regardless.
        for s in self.open_sessions_on(addr):
            if s.state is SessionState.CLOSED:
                continue
            if s.source_address == addr and s.dest_address != addr:
                self.request_session_close(s, "dest")
            elif s.dest_address == addr and s.source_address != addr:
                self.request_session_close(s, "source")
            self._close_session(s, "node_isolated")
        for k, r in self._pending_sessions.items():
            if r.touches_node(addr):
                self._log(f"pending session {k} dropped by isolation")
                self._pending_sessions.take(k)
        for inst in [i for i in self.instances.values()
                     if i.node_address == addr]:
            self._mark_instance_closed(inst, "node_isolated")
        for kind in ("exec", "shutdown", "close"):
            for mid, p in self._pending.items():
                if p.kind == kind and p.agent == addr:
                    self._resolve(self._pending.take(mid), wire.UNREACHABLE)

    # -- health ------------------------------------------------------------

    def handle_health_response(self, addr: str, msg: Message) -> None:
        instance = self.instances.get(
            (msg.get("service_name"), msg.get_int("service_instance_id")))
        status = msg.status
        if instance is None:
            self._log(f"health report for unknown instance: {status}")
            return
        self._log(f"abnormal health {status} for {instance.canonical_name}")
        # An overload (429) is only logged; a 5xx kills the instance.
        if wire.status_class(status) is wire.StatusClass.RESPONDENT_ERROR:
            self.request_hard_shutdown(instance)

    # -- reaping -------------------------------------------------------------

    def idle_tick(self) -> list[InstanceRecord]:
        now = self.env.now_ms()
        reaped = []
        for inst in self.instances.values():
            if inst.state is not InstanceState.RUNNING or inst.is_gateway:
                continue
            if self.open_session_count(inst) > 0:
                continue
            if now - inst.last_activity > IDLE_TIMEOUT_MS:
                reaped.append(inst)
        for inst in reaped:
            self.request_graceful_shutdown(inst)
        return reaped

    # -- queries -------------------------------------------------------------

    def dns_resolve(self, alias: str) -> str:
        return self.dns.resolve(alias)

    def running_instances(self, service: str) -> list[InstanceRecord]:
        return [r for r in self.instances.values()
                if r.service == service and r.state is InstanceState.RUNNING]

    def established_sessions(self) -> list[SessionRecord]:
        """The open records, in the order they were established."""
        return list(self._open_sessions.values())

    def open_sessions_on(self, addr: str) -> list[SessionRecord]:
        """The open records that touch node `addr`, in the order they were
        established."""
        return list(self._sessions_by_node.get(addr, {}).values())
