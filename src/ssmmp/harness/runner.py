"""Scenario execution: boot the cluster, drive the timeline, check everything.

Timeline events run at their scheduled simulated times. Whenever the run
reaches a quiescent point, every invariant is checked: the live-state
checks over the whole cluster, and the trace checks by the run's one
streaming checker over the records appended since the last quiescent point.
Quiescence is read from the simulator's one timer queue alone: only
maintenance ticks, retries and future timeline events are queued, so no
correlation is pending anywhere (see MAINTENANCE_TAGS). Any violation
fails the run, and so does an exception that an actor's callback raises,
as when data reaches a channel whose handlers were not set in the callback
that got it: the run goes on, and the report ends with the failed verdict
`loop_errors`, as over TCP. The report is a pure function of (scenario,
seed), byte for byte.

The `Collector` records each control message as the `Message` its sender
built, each transport event, and each manager decision.

The event interpreter and the expect checks here are the only ones: the
loopback-TCP driver in tcp_runner runs them too, over its own fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .. import wire
from ..agent import AgentConfig
from ..cluster import Cluster
from ..manager import InstanceState, ManagerConfig, SessionState
from ..service_runtime import FrameReader, frame
from ..transport import (ConnectionRefused, Endpoint, NodeDown, SimNetwork)
from ..wire import MessageType as MT, SubType as ST
from . import invariants
from .report import TraceRecord, TraceReport, Verdict, manager_snapshot
from .scenario import Scenario, ScenarioEvent

USER_NODE = "fd00::ee"
BOOT_APP_AT_MS = 50
# The fabric's timer queue is the only record of outstanding work: every
# request an actor awaits is an entry of a `transport.Correlations` table,
# which queues the entry's `timeout` timer with it and cancels the timer as
# the entry leaves, and an agent's `_held_requests` wait only behind one of
# its flows. So a point is quiescent when the queue holds no live timer but
# these.
MAINTENANCE_TAGS = {"tick", "timeline", "retry"}
TRACE_CHECKS = {"choreography", "replay_matches"}


class Collector:
    """A simulated run's observer: what it sees becomes trace records."""

    def __init__(self, net: SimNetwork):
        self.net = net
        self.records: list[TraceRecord] = []

    def on_send(self, channel, msg: wire.Message) -> None:
        self.records.append(TraceRecord(
            self.net._next_seq(), self.net.now_ms(), "msg",
            str(channel.local), str(channel.remote), wire.message_summary(msg),
            _parsed=msg))

    def on_emit(self, kind: str, text: str) -> None:
        if kind == "decision":
            self.records.append(TraceRecord(
                self.net._next_seq(), self.net.now_ms(), "decision", text=text))

    def on_event(self, seq: int, kind: str, src, dst, detail: str) -> None:
        self.records.append(TraceRecord(
            seq, self.net.now_ms(), "net",
            text=f"{kind} {src or '-'} -> {dst or '-'}"
                 + (f" {detail}" if detail else "")))

    def messages(self) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == "msg"]


@dataclass
class RunContext:
    """One scenario run over either fabric. Without a Collector (loopback
    TCP) there is no trace, and the trace-based checks are skipped; with one,
    `trace` checks it as it grows, for this run only."""

    scenario: Scenario
    cluster: Cluster
    collector: Collector | None
    user_env: object
    user_replies: list[bytes] = field(default_factory=list)
    user_failures: list[str] = field(default_factory=list)
    held: dict[tuple[str, int, str], list] = field(default_factory=dict)
    open_failures: list[tuple[str, str, int]] = field(default_factory=list)
    expects: list[Verdict] = field(default_factory=list)
    trace: invariants.TraceChecker | None = None

    @property
    def manager(self):
        return self.cluster.manager


def _pick_instance(ctx: RunContext, spec: str):
    service, _, iid = spec.partition(".")
    if iid:
        return service, int(iid)
    running = sorted(r.instance_id
                     for r in ctx.manager.running_instances(service))
    if not running:
        raise KeyError(f"no running instance of {service}")
    return service, running[0]


def _user_request(ctx: RunContext, alias: str) -> None:
    try:
        addr = ctx.manager.dns_resolve(alias)
    except KeyError:
        ctx.user_failures.append(f"dns miss for {alias}")
        return
    dst = Endpoint(addr, ctx.scenario.graph.service(alias).fixed_ports[0][1])

    def connect():
        try:
            ch, _m, _l = ctx.user_env.connect(dst, kind="external")
        except (NodeDown, ConnectionRefused) as e:
            ctx.user_failures.append(f"connect to {alias} failed: {e}")
            return
        reader = FrameReader()

        def on_data(channel, data):
            for payload in reader.feed(data):
                ctx.user_replies.append(payload)
                channel.close()

        ch.set_handlers(on_data, lambda channel: None)
        ch.send(frame(b"task:user"))

    ctx.user_env.call(connect)


def execute_event(ctx: RunContext, ev: ScenarioEvent) -> None:
    try:
        _execute_event_inner(ctx, ev)
    except Exception as e:  # a bad event fails the run, not the process
        ctx.expects.append(Verdict(
            False, f"at={ev.at_ms} event {ev.kind}", f"{type(e).__name__}: {e}"))


def _execute_event_inner(ctx: RunContext, ev: ScenarioEvent) -> None:
    """Reads run here; every change to an actor goes through its env.call."""
    kind, args = ev.kind, ev.args
    if kind == "user_request":
        _user_request(ctx, args[0])
    elif kind == "open_session":
        service, iid = _pick_instance(ctx, args[0])
        plug = args[1]
        rt = ctx.cluster.runtime(service, iid)
        key = (service, iid, plug)

        def on_established(_rt, handle, key=key):
            ctx.held.setdefault(key, []).append(handle)

        def on_failed(_rt, _plug, status, key=key):
            ctx.open_failures.append((key[0], key[2], status))

        rt.env.call(lambda: rt.open_session(
            plug, on_established=on_established, on_failed=on_failed))
    elif kind == "close_session":
        service, iid = _pick_instance(ctx, args[0])
        handles = ctx.held.get((service, iid, args[1]), [])
        if handles:
            rt, handle = ctx.cluster.runtime(service, iid), handles.pop(0)
            rt.env.call(lambda: rt.close_session(handle))
    elif kind == "exec_instance":
        preferred = args[1] if len(args) > 1 else None
        ctx.manager.env.call(
            lambda: ctx.manager.execute_instance(args[0], preferred))
    elif kind == "kill_instance":
        rt = ctx.cluster.runtimes.get((args[0], int(args[1])))
        if rt is not None:
            rt.env.call(rt.kill)
    elif kind == "kill_agent":
        ctx.cluster.kill_node(args[0])
    elif kind in ("break_link", "heal_link"):
        change = getattr(ctx.cluster.fabric, kind, None)
        if change is None:
            ctx.expects.append(Verdict(
                False, f"at={ev.at_ms} event {kind}",
                "not supported in tcp mode"))
        else:
            change(args[0], args[1])
    elif kind == "set_health":
        service, iid = _pick_instance(ctx, args[0])
        rt = ctx.cluster.runtime(service, iid)

        def set_health(behavior=rt.behavior):
            behavior.faulted = args[1] == "faulted"
            behavior.mute = args[1] == "muted"

        rt.env.call(set_health)
    elif kind == "advance_time":
        pass  # horizon extension only; computed up front
    elif kind == "expect":
        name = f"at={ev.at_ms} {args[0]} {' '.join(args[1:])}".rstrip()
        if args[0] in TRACE_CHECKS and ctx.collector is None:
            ctx.expects.append(Verdict(True, name, "skipped in tcp mode"))
            return
        ok, detail = _evaluate_expect(ctx, args[0], args[1:])
        ctx.expects.append(Verdict(ok, name, detail))


# ---------------------------------------------------------------------------
# Expect checks

def _find_session(ctx: RunContext, a: str, p: str, b: str, s: str):
    for sess in ctx.manager.sessions:
        if (sess.source_service_name, sess.plug_name,
                sess.dest_service_name, sess.socket_name) == (a, p, b, s):
            return sess
    return None


def _check_choreography(ctx: RunContext, a: str, p: str, b: str, s: str
                        ) -> tuple[bool, str]:
    msgs = ctx.collector.messages()
    req1 = next((r for r in msgs
                 if (m := r.message()).msg_type is MT.SESSION_REQUEST
                 and m.sub_type is ST.SERVICE_TO_AGENT
                 and m.get("source_service_name") == a
                 and m.get("source_plug_name") == p
                 and m.get("dest_service_name") == b
                 and m.get("dest_socket_name") == s), None)
    if req1 is None:
        return False, "no session_request from the source instance"
    mid = req1.message().message_id
    req2 = next((r for r in msgs
                 if r.seq > req1.seq
                 and (m := r.message()).msg_type is MT.SESSION_REQUEST
                 and m.sub_type is ST.AGENT_TO_MANAGER
                 and m.message_id == mid
                 and m.get("source_plug_name") == p), None)
    if req2 is None:
        return False, "request was not forwarded upward"
    hop1 = {req1.src, req1.dst}
    hop2 = {req2.src, req2.dst}
    session_types = (MT.SESSION_REQUEST, MT.SESSION_RESPONSE, MT.SESSION_ACK)
    related = [r for r in msgs
               if r.message().message_id == mid
               and r.message().msg_type in session_types
               and ({r.src, r.dst} == hop1 or {r.src, r.dst} == hop2)]
    want = [
        (MT.SESSION_REQUEST, ST.SERVICE_TO_AGENT),
        (MT.SESSION_REQUEST, ST.AGENT_TO_MANAGER),
        (MT.SESSION_RESPONSE, ST.MANAGER_TO_AGENT),
        (MT.SESSION_RESPONSE, ST.AGENT_TO_SERVICE),
        (MT.SESSION_ACK, ST.SERVICE_TO_AGENT),
        (MT.SESSION_ACK, ST.AGENT_TO_MANAGER),
    ]
    # Later chains may legally reuse the id (scope is per originator); the
    # establishment itself must be exactly the six-message prefix.
    got = [(r.message().msg_type, r.message().sub_type) for r in related[:6]]
    if got != want:
        return False, "sequence was " + str(
            [(t.value, st.value if st else None) for t, st in got])
    related = related[:6]
    ack = related[4].message()
    m_port = ack.get_int("source_plug_port")
    connect_seen = any(
        rec for rec in ctx.collector.records
        if rec.kind == "net" and rec.text.startswith("connect")
        and f":{m_port} ->" in rec.text
        and related[3].seq < rec.seq < related[4].seq)
    if not connect_seen:
        return False, "no transport connect between response and ack"
    sess = _find_session(ctx, a, p, b, s)
    if sess is None or not sess.complete():
        return False, "manager record incomplete"
    return True, f"message_id={mid}"


def _session_row_complete(sess) -> bool:
    return (sess is not None and sess.complete()
            and all(v not in (None, "") for v in sess.params().values()))


def _instance_record(manager, args: tuple[str, ...]):
    """The live or closed record of instance (args[0], args[1]), or None."""
    key = (args[0], int(args[1]))
    return manager.instances.get(key) or manager.closed_instances.get(key)


def _evaluate_expect(ctx: RunContext, check: str, args: tuple[str, ...]
                     ) -> tuple[bool, str]:
    manager = ctx.manager
    if check == "choreography":
        return _check_choreography(ctx, *args)
    if check == "session_complete":
        sess = _find_session(ctx, *args)
        return _session_row_complete(sess), ""
    if check == "user_replies":
        n = len(ctx.user_replies)
        return n == int(args[0]), f"got {n}"
    if check == "agent_isolated":
        rec = manager.agents.get(args[0])
        ok = rec is not None and rec.status.value == "isolated"
        return ok, rec.status.value if rec else "unknown agent"
    if check == "no_session_touching":
        open_ = [s for s in manager.sessions
                 if s.state is not SessionState.CLOSED and s.touches_node(args[0])]
        return not open_, f"{len(open_)} open"
    if check == "dns_targets":
        n = len(manager.dns.targets(args[0]))
        return n == int(args[1]), f"got {n}"
    if check == "instance_state":
        inst = _instance_record(manager, args)
        if inst is None:
            return False, "unknown instance"
        return inst.state.value == args[2], f"state={inst.state.value}"
    if check == "instance_running":
        n = len(manager.running_instances(args[0]))
        return n == int(args[1]), f"got {n}"
    if check == "session_count":
        n = sum(1 for s in manager.sessions if s.state.value == args[0])
        return n == int(args[1]), f"got {n}"
    if check == "replay_matches":
        ctx.trace.advance(ctx.collector.records)
        verdict = ctx.trace.replay(manager)
        return verdict.ok, verdict.detail
    if check == "open_failed":
        want = (args[0], args[1], int(args[2]))
        return want in ctx.open_failures, f"failures={ctx.open_failures}"
    if check == "reap_window":
        inst = _instance_record(manager, args)
        if inst is None:
            return False, "unknown instance"
        if inst.state is not InstanceState.CLOSED:
            return False, f"state={inst.state.value}"
        closed_at = next(
            (t for t, kind, text in manager.journal
             if kind == "decision"
             and text == f"instance_closed {args[0]}.{args[1]} graceful"), None)
        if closed_at is None:
            return False, "not gracefully closed"
        delta = closed_at - inst.last_activity
        lo, hi = int(args[2]), int(args[3])
        return lo < delta <= hi, f"delta={delta}"
    return False, f"unknown check {check}"


# ---------------------------------------------------------------------------
# Main loop

def _is_quiescent(net: SimNetwork) -> bool:
    return not (net.pending_tags() - MAINTENANCE_TAGS)


def loop_errors(errors: list[str]) -> list[Verdict]:
    """The failed verdict `loop_errors` when an actor's callback raised,
    naming up to three of the `errors`; nothing when none did."""
    if not errors:
        return []
    return [Verdict(False, "loop_errors",
                    f"{len(errors)} caught: " + "; ".join(errors[:3]))]


def scenario_context(scenario: Scenario, fabric, collector=None
                     ) -> RunContext:
    """The scenario's cluster over `fabric`, and a user node to drive it."""
    cluster = Cluster(fabric, [scenario.graph], scenario.manager_addr,
                      scenario.nodes,
                      manager_config=ManagerConfig(
                          manager_port=scenario.manager_port),
                      agent_config=AgentConfig(
                          manager_port=scenario.manager_port))
    fabric.add_node(USER_NODE)
    return RunContext(scenario, cluster, collector,
                      fabric.env(USER_NODE),
                      trace=invariants.TraceChecker() if collector else None)


def run_scenario(scenario: Scenario, seed: int) -> TraceReport:
    latency_fn = None
    if scenario.latency_range is not None:
        lo, hi = scenario.latency_range
        latency_fn = lambda rng: rng.randint(lo, hi)
    net = SimNetwork(seed, latency_fn=latency_fn)
    collector = Collector(net)
    ctx = scenario_context(scenario, net, collector)
    cluster = ctx.cluster
    net.observer = collector
    net.horizon_ms = scenario.horizon_ms()

    cluster.start()
    net.schedule_abs(BOOT_APP_AT_MS, cluster.manager.start_app)
    for ev in scenario.events:
        net.schedule_abs(ev.at_ms, lambda e=ev: execute_event(ctx, e))

    failed_sweep: list[Verdict] = []
    sweep_count = 0
    last_sweep_mark = -1
    errors: list[str] = []
    while True:
        try:
            progressed = net.step()
        except Exception as e:  # as an ActorLoop over TCP: a verdict
            errors.append(f"{type(e).__name__}: {e}")
            progressed = True
        if not progressed:
            break
        mark = net._seq
        if _is_quiescent(net) and mark != last_sweep_mark:
            last_sweep_mark = mark
            verdicts = invariants.sweep(collector.records, cluster.manager,
                                        cluster, net, trace=ctx.trace)
            sweep_count += 1
            bad = [v for v in verdicts if not v.ok]
            if bad and not failed_sweep:
                failed_sweep = [
                    Verdict(v.ok, v.name,
                            f"t={net.now_ms()} {v.detail}".strip())
                    for v in verdicts]

    final = invariants.sweep(collector.records, cluster.manager, cluster, net,
                             trace=ctx.trace)
    if failed_sweep:
        final = failed_sweep
    report = TraceReport(scenario.name, seed)
    report.records = collector.records
    report.manager_lines = manager_snapshot(cluster.manager)
    report.invariants = [
        Verdict(v.ok, v.name,
                f"sweeps={sweep_count} {v.detail}".strip()
                if v.name == "session_conservation" else v.detail)
        for v in final] + loop_errors(errors)
    report.expects = ctx.expects
    return report


def run_scenario_file(path: str | Path, seed: int) -> TraceReport:
    from .scenario import load_scenario
    return run_scenario(load_scenario(path), seed)
