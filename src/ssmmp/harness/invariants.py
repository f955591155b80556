"""Global protocol invariants checked at quiescent points.

The checks of live state (conservation, ports, DNS, isolation and the
runtimes' handles) read the cluster as it is. The checks of the trace
(knowledge asymmetry in messages, request/response correlation, the wire
grammar and the replay oracle) run as one streaming `TraceChecker`: each
sweep feeds it only the records appended since the last one, so a run visits
every record once however many sweeps it makes.

The independent replay oracle rebuilds the session table purely from the
message trace (plus isolation decisions); every sweep compares it, record
for record, with the control plane's actual table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .. import wire
from ..manager import AgentStatus, InstanceState, Manager
from ..wire import Message, MessageType as MT, SubType as ST
from .report import TraceRecord, Verdict

_SOURCE_SIDE_TYPES = {
    MT.SESSION_RESPONSE,
    MT.SOURCE_SESSION_CLOSE_INFO,
    MT.SOURCE_SESSION_CLOSE_REQUEST,
}
_DEST_SIDE_TYPES = {
    MT.DEST_SESSION_CLOSE_INFO,
    MT.DEST_SESSION_CLOSE_REQUEST,
}


def _record_leak(rec: TraceRecord, msg: Message) -> Verdict | None:
    """No source-side message carries the dest instance id; no dest-side
    message carries the source instance id or source service name."""
    names = msg.field_names()
    if msg.msg_type in _SOURCE_SIDE_TYPES and "dest_service_instance_id" in names:
        return Verdict(False, "knowledge_asymmetry",
                       f"dest id leaked in {rec.render()}")
    if msg.msg_type in _DEST_SIDE_TYPES and (
            "source_service_instance_id" in names
            or "source_service_name" in names):
        return Verdict(False, "knowledge_asymmetry",
                       f"source identity leaked in {rec.render()}")
    return None


def _handle_leak(cluster) -> Verdict:
    """The same asymmetry for the open handles the live runtimes hold; a
    runtime's source side is reported before its dest side."""
    for rt in cluster.live_runtimes():
        handles = rt.sessions.values()
        if any(h.role == "source" and "dest_service_instance_id" in h.params
               for h in handles):
            return Verdict(False, "knowledge_asymmetry",
                           f"source handle of {rt.config.service_name} "
                           "holds dest id")
        if any(h.role == "dest" and (
                "source_service_instance_id" in h.params
                or "source_service_name" in h.params) for h in handles):
            return Verdict(False, "knowledge_asymmetry",
                           f"dest handle of {rt.config.service_name} "
                           "holds source identity")
    return Verdict(True, "knowledge_asymmetry")


def check_conservation(manager: Manager, cluster, net) -> Verdict:
    # The manager's open index, and its history less the records it closed.
    established = len(manager.established_sessions())
    recorded = len(manager.sessions) - manager.closed_session_count
    roles = Counter(h.role for rt in cluster.live_runtimes()
                    for h in rt.sessions.values())
    source_open, dest_open = roles["source"], roles["dest"]
    channels = net.open_data_connections
    if recorded == established == source_open == dest_open == channels:
        return Verdict(True, "session_conservation", f"n={established}")
    detail = (f"manager={recorded} plugs={source_open} "
              f"sockets={dest_open} channels={channels}")
    if established != recorded:
        detail += f" index={established}"
    return Verdict(False, "session_conservation", detail)


def check_port_exclusivity(manager: Manager, cluster) -> Verdict:
    seen: dict[tuple[str, int], str] = {}
    for inst in manager.instances.values():
        for port in inst.socket_ports.values():
            key = (inst.node_address, port)
            if key in seen:
                return Verdict(False, "port_exclusivity",
                               f"{key} used by {seen[key]} and "
                               f"{inst.canonical_name}")
            seen[key] = inst.canonical_name
    return Verdict(True, "port_exclusivity", f"n={len(seen)}")


def check_dns_soundness(manager: Manager) -> Verdict:
    running = {inst.canonical_name: inst.node_address
               for inst in manager.instances.values()
               if inst.is_gateway and inst.state is InstanceState.RUNNING}
    for alias, targets in manager.dns.cname_records.items():
        for canonical in targets:
            addr = manager.dns.a_records.get(canonical)
            if addr is None:
                return Verdict(False, "dns_soundness",
                               f"{alias}: {canonical} has no A record")
            if running.get(canonical) != addr:
                return Verdict(False, "dns_soundness",
                               f"{alias}: {canonical} -> {addr} is not a "
                               "running gateway instance")
    return Verdict(True, "dns_soundness")


def check_isolation(manager: Manager) -> Verdict:
    for addr, agent in manager.agents.items():
        if agent.status is not AgentStatus.ISOLATED:
            continue
        for inst in manager.instances.values():
            if inst.node_address == addr:
                return Verdict(False, "isolation_completeness",
                               f"{inst.canonical_name} still open on {addr}")
        touching = manager.open_sessions_on(addr)
        if touching:
            return Verdict(False, "isolation_completeness",
                           f"session {touching[0].key()} still touches {addr}")
    return Verdict(True, "isolation_completeness")


# ---------------------------------------------------------------------------
# Replay oracle

@dataclass
class _ReplaySession:
    a: str
    i: int
    na_i: str
    p: str
    b: str
    na_j: str
    j: int
    s: str
    k: int
    m: int | None = None
    l: int | None = None
    state: str = "pending"

    def key(self):
        return (self.na_i, self.m, self.na_j, self.k, self.l)

    def row(self):
        return (self.a, self.i, self.na_i, self.p, self.m,
                self.b, self.j, self.na_j, self.s, self.k, self.l, self.state)


@dataclass
class _ReplayInstance:
    service: str
    iid: int
    node: str
    socket_ports: dict[str, int]
    state: str = "starting"


class ReplayOracle:
    """Rebuilds the session table from agent<->Manager messages alone."""

    def __init__(self) -> None:
        self.instances: dict[tuple[str, int], _ReplayInstance] = {}
        self.sessions: list[_ReplaySession] = []
        # The sessions not yet closed, by key(); the duplicate-ack check
        # keeps keys unique among them.
        self._open: dict[tuple, _ReplaySession] = {}
        self._pending_exec: dict[int, _ReplayInstance] = {}
        self._pending_open: dict[tuple[str, int], _ReplaySession] = {}
        self._open_requests: dict[tuple[str, int], Message] = {}
        self._pending_close: dict[int, tuple] = {}

    def feed(self, rec: TraceRecord) -> None:
        if rec.kind == "decision":
            if rec.text.startswith("isolate_node "):
                self._isolate(rec.text.split()[1])
            return
        if rec.kind != "msg":
            return
        msg = rec.message()
        mt = msg.msg_type
        if mt is MT.EXECUTION_REQUEST:
            ports = dict(wire.parse_socket_config(msg.get("socket_configuration")))
            inst = _ReplayInstance(msg.get("service_name"),
                                   msg.get_int("service_instance_id"),
                                   msg.get("agent_network_address"), ports)
            self._pending_exec[msg.message_id] = inst
        elif mt is MT.EXECUTION_RESPONSE:
            inst = self._pending_exec.pop(msg.message_id, None)
            if inst is not None and wire.is_success(msg.status):
                inst.state = "running"
                self.instances[(inst.service, inst.iid)] = inst
        elif mt is MT.SESSION_REQUEST and msg.sub_type is ST.AGENT_TO_MANAGER:
            self._open_requests[(rec.src, msg.message_id)] = msg
        elif mt is MT.SESSION_RESPONSE and msg.sub_type is ST.MANAGER_TO_AGENT:
            req = self._open_requests.pop((rec.dst, msg.message_id), None)
            if req is None or not wire.is_success(msg.status):
                return
            na_j = msg.get("dest_service_instance_network_address")
            k = msg.get_int("dest_socket_port")
            b = req.get("dest_service_name")
            s = req.get("dest_socket_name")
            j = self._resolve_instance(b, na_j, s, k)
            self._pending_open[(rec.dst, msg.message_id)] = _ReplaySession(
                a=req.get("source_service_name"),
                i=req.get_int("source_service_instance_id"),
                na_i=req.get("agent_network_address"),
                p=req.get("source_plug_name"),
                b=b, na_j=na_j, j=j, s=s, k=k)
        elif mt is MT.SESSION_ACK and msg.sub_type is ST.AGENT_TO_MANAGER:
            sess = self._pending_open.pop((rec.src, msg.message_id), None)
            if sess is None or not wire.is_success(msg.status):
                return
            sess.m = msg.get_int("source_plug_port")
            sess.l = msg.get_int("dest_socket_new_port")
            key = sess.key()
            if key in self._open:
                return
            sess.state = "established"
            self.sessions.append(sess)
            self._open[key] = sess
        elif mt in (MT.SOURCE_SESSION_CLOSE_INFO, MT.DEST_SESSION_CLOSE_INFO) \
                and msg.sub_type is ST.AGENT_TO_MANAGER:
            self._close_key(msg.session_key())
        elif mt in (MT.SOURCE_SESSION_CLOSE_REQUEST, MT.DEST_SESSION_CLOSE_REQUEST) \
                and msg.sub_type is ST.MANAGER_TO_AGENT:
            self._pending_close[msg.message_id] = msg.session_key()
        elif mt in (MT.SOURCE_SESSION_CLOSE_RESPONSE, MT.DEST_SESSION_CLOSE_RESPONSE):
            key = self._pending_close.pop(msg.message_id, None)
            if key is not None and (wire.is_success(msg.status)
                                    or msg.status == wire.ALREADY_CLOSED):
                self._close_key(key)
        elif mt in (MT.HARD_SHUTDOWN_REQUEST, MT.GRACEFUL_SHUTDOWN_REQUEST) \
                and msg.sub_type is ST.MANAGER_TO_AGENT:
            self._pending_close[-msg.message_id] = (
                msg.get("service_name"), msg.get_int("service_instance_id"))
        elif mt is MT.GRACEFUL_SHUTDOWN_RESPONSE \
                and msg.sub_type is ST.AGENT_TO_MANAGER:
            entry = self._pending_close.pop(-msg.message_id, None)
            if entry is not None and wire.is_success(msg.status):
                self.instances.pop(entry, None)
        elif mt is MT.HARD_SHUTDOWN_RESPONSE:
            entry = self._pending_close.pop(-msg.message_id, None)
            if entry is None:
                return
            service, iid = entry
            if wire.is_success(msg.status) or msg.status == wire.NOT_FOUND:
                self.instances.pop((service, iid), None)
                self._close_where(lambda sess: (service, iid) in (
                    (sess.a, sess.i), (sess.b, sess.j)))

    def _resolve_instance(self, service: str, node: str, socket: str,
                          port: int) -> int:
        for inst in self.instances.values():
            if (inst.service == service and inst.node == node
                    and inst.socket_ports.get(socket) == port):
                return inst.iid
        return 0

    def _close_key(self, key) -> None:
        sess = self._open.pop(key, None)
        if sess is not None:
            sess.state = "closed"

    def _close_where(self, pred) -> None:
        for key, sess in list(self._open.items()):
            if pred(sess):
                sess.state = "closed"
                del self._open[key]

    def _isolate(self, addr: str) -> None:
        self._close_where(lambda sess: addr in (sess.na_i, sess.na_j))
        for key, inst in list(self.instances.items()):
            if inst.node == addr:
                del self.instances[key]

    def table(self) -> list[tuple]:
        return sorted(s.row() for s in self.sessions)


class TraceChecker:
    """The trace invariants of one run, checked as the trace grows.

    Each `advance` visits only the records appended since the last one: it
    takes each message record's `Message` once (the wire grammar), records
    requests for correlation, looks for identities leaked across the
    asymmetry, and feeds the one replay oracle of the run. Each check keeps
    its first failure in trace order. A record's verdict depends only on the
    records before it, so the verdicts equal those of a check of the whole
    trace from scratch.
    """

    def __init__(self) -> None:
        self.cursor = 0  # records of the trace visited so far
        self.oracle = ReplayOracle()
        self._seen_requests: set[tuple[str, str, int, MT]] = set()
        self._leak: Verdict | None = None
        self._unmatched: Verdict | None = None
        self._bad_grammar: Verdict | None = None

    def advance(self, records: list[TraceRecord]) -> None:
        """Check `records[cursor:]`; `records` only ever grows."""
        for i in range(self.cursor, len(records)):
            self._visit(records[i])
        self.cursor = len(records)

    def _visit(self, rec: TraceRecord) -> None:
        if rec.kind == "msg":
            try:
                msg = rec.message()
            except wire.MessageError as e:
                if self._bad_grammar is None:
                    self._bad_grammar = Verdict(False, "wire_grammar",
                                                f"{rec.render()}: {e}")
                return
            if self._leak is None:
                self._leak = _record_leak(rec, msg)
            request_type = wire.REQUEST_OF.get(msg.msg_type)
            if request_type is None:
                self._seen_requests.add(
                    (rec.src, rec.dst, msg.message_id, msg.msg_type))
            elif self._unmatched is None and (
                    rec.dst, rec.src, msg.message_id, request_type
            ) not in self._seen_requests:
                # Every response answers a request with the same id that
                # previously travelled the reverse hop.
                self._unmatched = Verdict(False, "correlation",
                                          f"unmatched response {rec.render()}")
        self.oracle.feed(rec)

    def knowledge_asymmetry(self, cluster) -> Verdict:
        return self._leak or _handle_leak(cluster)

    def correlation(self) -> Verdict:
        return self._unmatched or Verdict(True, "correlation")

    def wire_grammar(self) -> Verdict:
        return self._bad_grammar or Verdict(True, "wire_grammar")

    def replay(self, manager: Manager) -> Verdict:
        """The oracle's table, as of the last `advance`, against the
        manager's."""
        actual = sorted(
            (s.source_service_name, s.source_instance_id, s.source_address,
             s.plug_name, s.plug_port, s.dest_service_name,
             s.dest_instance_id, s.dest_address, s.socket_name,
             s.socket_port, s.session_port, s.state.value)
            for s in manager.sessions)
        expected = self.oracle.table()
        if actual == expected:
            return Verdict(True, "replay_equivalence", f"n={len(actual)}")
        missing = [r for r in expected if r not in actual]
        extra = [r for r in actual if r not in expected]
        return Verdict(False, "replay_equivalence",
                       f"missing={missing[:2]} extra={extra[:2]}")


def _checked(records: list[TraceRecord]) -> TraceChecker:
    trace = TraceChecker()
    trace.advance(records)
    return trace


# Each trace check on its own, over a whole trace from scratch. The sweep
# reads a TraceChecker instead; perfbench/spans.py wraps these names.

def check_knowledge_asymmetry(records: list[TraceRecord], cluster) -> Verdict:
    return _checked(records).knowledge_asymmetry(cluster)


def check_correlation(records: list[TraceRecord]) -> Verdict:
    return _checked(records).correlation()


def check_wire_grammar(records: list[TraceRecord]) -> Verdict:
    return _checked(records).wire_grammar()


def check_replay(records: list[TraceRecord], manager: Manager) -> Verdict:
    return _checked(records).replay(manager)


def sweep(records: list[TraceRecord], manager: Manager, cluster, net,
          trace: TraceChecker | None = None) -> list[Verdict]:
    """Every invariant, in report order. `trace` is the run's checker and is
    advanced to the end of `records`; without one, the trace is checked from
    scratch."""
    if trace is None:
        trace = TraceChecker()
    trace.advance(records)
    return [
        check_conservation(manager, cluster, net),
        check_port_exclusivity(manager, cluster),
        trace.knowledge_asymmetry(cluster),
        check_dns_soundness(manager),
        check_isolation(manager),
        trace.correlation(),
        trace.wire_grammar(),
        trace.replay(manager),
    ]
