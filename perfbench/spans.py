"""Spans around each layer's public entry points, recorded from outside.

The program is instrumented by replacing module and class attributes with
wrappers for the duration of a traced run; `src/` is never edited. This works
because every actor calls the codec through the `wire` module, the runner calls
`invariants.sweep` through its module, and manager, agent and runtime handlers
are looked up on the class at call time.

A span records its name, start, end, parent span and the operation that was
current when it started. Spans are kept in per-thread arrays in memory and
written out when the run ends. A span's self time is its duration minus the
part its child spans cover, both in wall time and in the CPU time of its
thread. The per-layer `self_us` metrics use the CPU form: over loopback TCP
several actor threads hold spans open at once while they wait for the
interpreter lock, so wall self times there count the same waiting more than
once.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import threading
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op", "self_ns",
          "self_cpu_ns")
_WIDTH = len(FIELDS)

# Which end-to-end metric each layer's numbers should move, and where.
LAYER_MOVES = {
    "wire": "open_us_p50 on hold_ramp and open_close_churn; "
            "records_per_s on scenario_mix",
    "transport": "open_us_p50_last10 on hold_ramp and open_close_churn",
    "manager": "open_us_p50_last10 on hold_ramp; close_us_p50 on "
               "open_close_churn",
    "agent": "open_us_p50 on all workloads",
    "runtime": "open_us_p50 and close_us_p50 on all workloads",
    "harness": "records_per_s on scenario_mix; zero calls elsewhere",
    "tcp": "open_us_p50 and close_us_p50 on tcp_pairs",
    "graph": "setup_s only",
    "trace": "nothing: checks on the tracer itself",
}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Patches:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class NoTracer:
    """Stand-in for untraced runs: operations are not recorded."""

    enabled = False
    next_op = 0

    def begin(self, kind: str) -> None:
        pass

    def end(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self.next_op = 0
        self.ops: list[tuple[int, str, int, int]] = []  # op, kind, start, end
        self.gauges: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._buffers: list[array] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op_start = 0
        self._op_kind = ""

    # -- operations ---------------------------------------------------------

    def begin(self, kind: str) -> None:
        self._op_kind = kind
        self.op = self.next_op
        self.next_op += 1
        self._op_start = perf_counter_ns()

    def end(self) -> None:
        self.ops.append((self.op, self._op_kind, self._op_start,
                         perf_counter_ns()))
        self.op = -1

    def clear(self) -> None:
        with self._lock:
            for buf in self._buffers:
                del buf[:]
        self.ops.clear()
        self.gauges.clear()
        self.counters.clear()
        self.samples.clear()

    # -- spans ----------------------------------------------------------------

    def gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, -1):
            self.gauges[name] = value

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "buf"):
            local.buf = array("q")
            local.stack = []
            with self._lock:
                self._buffers.append(local.buf)
        return local.buf, local.stack

    def span(self, name: str, original, on_call=None):
        """Wrap `original` so that every call records one span."""
        name_idx = len(self.names)
        self.names.append(name)
        tracer = self
        ids = self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            buf, stack = tracer._thread_state()
            if on_call is not None:
                on_call(args)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0, 0]  # id, children's wall, children's cpu
            stack.append(frame)
            op = tracer.op
            start = perf_counter_ns()
            cpu_start = thread_time_ns()
            try:
                return original(*args, **kwargs)
            finally:
                cpu = thread_time_ns() - cpu_start
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                    parent[2] += cpu
                buf.extend((frame[0], name_idx, start, end,
                            parent[0] if parent else 0, op,
                            duration - frame[1], cpu - frame[2]))

        return traced

    def rows(self):
        """Every recorded span as a tuple in FIELDS order."""
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for i in range(0, len(buf), _WIDTH):
                yield tuple(buf[i:i + _WIDTH])

    def write(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(",".join(FIELDS) + "\n")
            for row in self.rows():
                out.write(f"{row[0]},{self.names[row[1]]},"
                          + ",".join(map(str, row[2:])) + "\n")
                n += 1
        return n

    def call_counts(self, ops: range) -> dict[str, int]:
        counts: Counter = Counter()
        for row in self.rows():
            if row[5] in ops:
                counts[self.names[row[1]]] += 1
        return dict(counts)


def install(tracer: Tracer, patches: Patches) -> None:
    """Put a span around every layer entry point the benchmark measures."""
    from ssmmp import agent, graph, wire
    from ssmmp.harness import invariants, runner
    from ssmmp.manager import Manager
    from ssmmp.service_runtime import ServiceRuntime
    from ssmmp.tcp import ActorLoop, TcpEnv
    from ssmmp.transport import SimNetwork

    def span(owner, attr, name, on_call=None):
        patches.wrap(owner, attr,
                     lambda original: tracer.span(name, original, on_call))

    def scanned(args):
        tracer.counters["harness.records_scanned"] += len(args[0])

    def queue_depth(args):
        tracer.gauge("transport.queue_depth_max", len(args[0]._queue))

    def threads(_args=()):
        tracer.gauge("tcp.threads_peak", threading.active_count())

    for attr, name in (("make_message", "wire.make"),
                       ("serialize_message", "wire.serialize"),
                       ("parse_message", "wire.parse"),
                       ("validate_message", "wire.validate")):
        span(wire, attr, name)
    span(graph, "parse_graph_file", "graph.parse")
    span(graph, "validate_graph", "graph.validate")
    span(SimNetwork, "step", "transport.step", queue_depth)
    span(SimNetwork, "connect", "transport.connect")
    span(SimNetwork, "port_in_use", "transport.port_in_use")
    for attr, name in (("handle_session_request", "manager.session_request"),
                       ("handle_session_ack", "manager.session_ack"),
                       ("handle_close_info", "manager.close_info"),
                       ("handle_close_response", "manager.close_response"),
                       ("idle_tick", "manager.idle_tick")):
        span(Manager, attr, name)
    span(agent, "rewrite_for_relay", "agent.relay")
    span(agent.Agent, "_from_instance", "agent.from_instance")
    span(agent.Agent, "_from_manager", "agent.from_manager")
    for attr, name in (("open_session", "runtime.open_session"),
                       ("close_session", "runtime.close_session"),
                       ("handle_close_request", "runtime.handle_close_request"),
                       ("_open_failed", "runtime.open_failed")):
        span(ServiceRuntime, attr, name)
    span(invariants, "sweep", "harness.sweep")
    for check in ("check_replay", "check_knowledge_asymmetry",
                  "check_correlation", "check_wire_grammar"):
        span(invariants, check, f"harness.{check}", scanned)
    span(invariants, "check_conservation", "harness.check_conservation")
    span(runner.Collector, "on_send", "harness.collector.on_send")
    span(TcpEnv, "connect", "tcp.connect", threads)

    def sampled_post(original):
        def post(loop, fn):
            threads()
            return original(loop, fn)
        return post

    patches.wrap(ActorLoop, "post", sampled_post)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, facts: Counter
                  ) -> dict[str, tuple[float | None, str, str]]:
    """name -> (value or None, unit, note) for every per-layer metric.

    Counts and self times are per established session of the timed
    operations; durations (`*.us`) are medians per call.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    op_self: Counter = Counter()
    sends_by_kind: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    kind_of = {op: kind for op, kind, _s, _e in tracer.ops}
    for _sid, idx, start, end, _parent, op, _own_wall, own in tracer.rows():
        name = tracer.names[idx]
        durations[name].append(end - start)
        if op < 0:
            continue
        calls[name] += 1
        self_ns[name] += own
        op_self[op] += own
        if name == "wire.serialize":
            sends_by_kind[kind_of.get(op)] += 1
    ops_by_kind = Counter(kind for _op, kind, _s, _e in tracer.ops)
    sessions = facts["sessions"]
    per = max(sessions, 1)
    out: dict[str, tuple[float | None, str, str]] = {}

    def count(name, span_name=None):
        out[name] = (calls[span_name or name[:-len(".calls")]] / per,
                     "count", "per session")

    def own(name):
        out[name] = (self_ns[name[:-len(".self_us")]] / 1000 / per, "us",
                     "self CPU time per session")

    def ratio(name, num, den, unit="ratio", why="no calls to divide by"):
        out[name] = ((num / den, unit, "") if den else (None, unit, why))

    def median_us(name, span_name):
        vals = durations.get(span_name)
        out[name] = ((_median(vals) / 1000, "us", "median per call") if vals
                     else (None, "us", "not called on this workload"))

    for fn in ("make", "serialize", "parse", "validate"):
        count(f"wire.{fn}.calls")
    for fn in ("serialize", "parse", "validate"):
        own(f"wire.{fn}.self_us")
    ratio("wire.validate_per_send", calls["wire.validate"],
          calls["wire.serialize"])
    ratio("wire.parse_per_send", calls["wire.parse"], calls["wire.serialize"])
    for kind in ("open", "close"):
        ratio(f"wire.messages_per_{kind}", sends_by_kind[kind],
              ops_by_kind[kind], "count",
              f"operations here are not single {kind}s")

    count("transport.step.calls")
    own("transport.step.self_us")
    count("transport.connect.calls")
    own("transport.connect.self_us")
    count("transport.port_in_use.calls")
    ratio("transport.port_in_use.calls_per_connect",
          calls["transport.port_in_use"], calls["transport.connect"],
          why="no simulated connects on this workload")
    own("transport.port_in_use.self_us")
    depth = tracer.gauges.get("transport.queue_depth_max")
    out["transport.queue_depth_max"] = (
        (depth, "count", "") if depth is not None
        else (None, "count", "no simulator on this workload"))

    for handler in ("session_request", "session_ack", "close_info",
                    "close_response", "idle_tick"):
        count(f"manager.{handler}.calls")
        own(f"manager.{handler}.self_us")
    out["manager.log_entries"] = (facts["log_entries"] / per, "count",
                                  "per session")
    out["manager.sessions_retained"] = (
        (facts["retained"] / max(facts["held"], 1), "ratio",
         "records kept per session still held")
        if facts["retained"] else
        (None, "ratio", "run_scenario keeps its cluster to itself"))

    count("agent.relay.calls")
    own("agent.from_instance.self_us")
    own("agent.from_manager.self_us")

    own("runtime.open_session.self_us")
    own("runtime.close_session.self_us")
    own("runtime.handle_close_request.self_us")
    count("runtime.open_failed", "runtime.open_failed")

    count("harness.sweep.calls")
    own("harness.sweep.self_us")
    for check in ("check_replay", "check_knowledge_asymmetry",
                  "check_correlation", "check_wire_grammar",
                  "check_conservation"):
        own(f"harness.{check}.self_us")
    own("harness.collector.on_send.self_us")
    ratio("harness.records_scanned_per_record",
          tracer.counters["harness.records_scanned"], facts["records"],
          why="no trace records on this workload")

    median_us("tcp.connect.us", "tcp.connect")
    waits = tracer.samples.get("tcp.loop_wait_us")
    out["tcp.loop_wait_us"] = ((_median(waits), "us", "median per probe")
                               if waits else
                               (None, "us", "no ActorLoop on this workload"))
    out["tcp.threads_peak"] = (tracer.gauges.get("tcp.threads_peak", 1),
                               "count", "")
    out["tcp.loop_errors"] = (facts["loop_errors"], "count", "")
    out["tcp.threads_leaked"] = (facts["threads_leaked"], "count",
                                 "accept loops left blocked after shutdown")

    median_us("graph.parse.us", "graph.parse")
    median_us("graph.validate.us", "graph.validate")

    over = sum(1 for op, _kind, start, end in tracer.ops
               if op_self[op] > end - start)
    out["trace.self_time_violations"] = (over, "count",
                                         f"of {len(tracer.ops)} operations")
    out["trace.spans_per_session"] = (sum(calls.values()) / per, "count", "")
    return out
