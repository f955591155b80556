"""The four closed-loop workloads, each driven by one client thread.

A workload runs in rounds. A round sets up from scratch (simulated rounds
five times, each a `setup_s` sample), then runs a fixed amount of timed work,
then checks the program's outputs outside the timing. The run repeats rounds
until its time is up, so every round of a workload measures the same sizes of
state.

Sizes are chosen for run time, not to avoid known defects: a round stays well
below the ~12k churn pairs after which one node runs out of ephemeral ports
and the 20k listener ports of `PortPool`. Any exception, timeout or failed open
counts as a failed operation; after ABORT_AFTER_FAILURES of them a round
attempts no more.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from ssmmp import graph
from ssmmp.cluster import Cluster, NodeDef
from ssmmp.harness import invariants
from ssmmp.harness.generator import generate_scenario
from ssmmp.harness.runner import MAINTENANCE_TAGS, run_scenario
from ssmmp.manager import Manager, SessionState
from ssmmp.service_runtime import ServiceRuntime
from ssmmp.tcp import TcpEnv, build_tcp_cluster
from ssmmp.transport import SimNetwork

from spans import Patches

ROOT = Path(__file__).resolve().parents[1]
FIG1 = ROOT / "fixtures" / "fig1.graph"
FIG1_FULL = ROOT / "fixtures" / "fig1_full.graph"
MANAGER_ADDR = "fd00::1"
NODE_ADDR = "fd00::a1"

HOLD_SESSIONS = 1000      # held sessions at the top of a hold_ramp round
CHURN_PAIRS = 1000        # open/close pairs per open_close_churn round
TCP_PAIRS = 50            # open/close pairs per tcp_pairs round
MIX_SCENARIOS = 8         # generated scenarios per scenario_mix round
MIX_MAX_SESSIONS = 60     # the invariant sweep is quadratic; keep this small
SIM_SETUPS = 5            # set-ups per simulated round, for steady setup_s

OP_STEP_BUDGET = 20_000   # simulator steps one open or close may take
BOOT_STEP_BUDGET = 20_000
TCP_OP_DEADLINE_S = 2.0
ABORT_AFTER_FAILURES = 5  # failed operations that end a round early
TCP_BOOT_DEADLINE_S = 10.0
TCP_POLL_S = 0.0002


@dataclass
class Round:
    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0      # wall time of the timed operations
    sessions: int = 0         # sessions established by timed operations
    attempted: int = 0
    failed: int = 0
    records: int = 0          # trace records (scenario_mix only)
    open_us: list[float] = field(default_factory=list)
    open_last10_us: list[float] = field(default_factory=list)
    close_us: list[float] = field(default_factory=list)
    close_last10_us: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    facts: Counter = field(default_factory=Counter)
    ops: range = range(0)     # tracer operation ids of this round
    meter: object = None      # a SpeedMeter to tick between operations

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def set_up(self, fn, times: int = 1):
        """Run the round's set-up `times` times, each timed as one `setup_s`
        sample; the last result is the one the round uses."""
        for _ in range(times):
            start = perf_counter()
            result = fn()
            self.setup_s.append(perf_counter() - start)
        return result

    def timed(self, tracer, kind: str, fn):
        """Run one operation; (result, wall µs). A falsy result, an
        exception or a timeout counts as a failed operation. After
        ABORT_AFTER_FAILURES of them the round attempts no more, so that a
        broken program still ends the run in time."""
        if self.failed >= ABORT_AFTER_FAILURES:
            return None, 0.0
        if self.meter is not None:
            self.meter.tick()
        self.attempted += 1
        tracer.begin(kind)
        start = perf_counter_ns()
        try:
            result = fn()
        except Exception as e:  # a failed operation must not end the run
            result = None
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(e).__name__}: {e}")
        us = (perf_counter_ns() - start) / 1000
        tracer.end()
        self.timed_s += us / 1e6
        if not result:
            self.failed += 1
            if self.failed == ABORT_AFTER_FAILURES:
                self.check("round completed", False,
                           f"ended after {ABORT_AFTER_FAILURES} failed "
                           "operations")
        return result, us


def _last_tenth(values: list[float]) -> list[float]:
    return values[int(len(values) * 0.9):]


def _log_entries(manager: Manager) -> int:
    return sum(1 for _t, kind, _text in manager.journal if kind == "log")


# ---------------------------------------------------------------------------
# Simulator: fig1_full with A and B on one node

class SimRig:
    """A booted cluster with a running A.1 that opens plug P to B."""

    def __init__(self, seed: int):
        g = graph.parse_graph_file(FIG1_FULL.read_text())
        self.net = SimNetwork(seed)
        self.cluster = Cluster(self.net, [g], MANAGER_ADDR,
                               [NodeDef(NODE_ADDR, ["A", "B"])])
        self.manager = self.cluster.manager
        self.cluster.start()
        if not self.run_until(lambda: all(
                a.registered for a in self.cluster.agents.values()),
                BOOT_STEP_BUDGET):
            raise RuntimeError("agents did not register")
        self.manager.start_app()
        if not self.run_until(lambda: self.manager.running_instances("A"),
                              BOOT_STEP_BUDGET):
            raise RuntimeError("gateway A did not boot")
        self.source = self.cluster.runtime("A", 1)

    def run_until(self, done, budget: int = OP_STEP_BUDGET) -> bool:
        for _ in range(budget):
            if done():
                return True
            if not self.net.step():
                break
        return bool(done())

    def open(self):
        """Open plug P; (source handle, manager record), or None."""
        before = len(self.manager.sessions)
        got: list = []
        self.source.open_session(
            "P", on_established=lambda _rt, h: got.append(h),
            on_failed=lambda _rt, _plug, _status: got.append(None))
        if not self.run_until(lambda: len(self.manager.sessions) > before
                              or got == [None]):
            return None
        if not got or got[0] is None:
            return None
        return got[0], self.manager.sessions[-1]

    def close(self, handle, record) -> bool:
        self.source.close_session(handle)
        return self.run_until(lambda: record.state is SessionState.CLOSED)

    def settle(self) -> bool:
        """Step until only maintenance ticks are queued."""
        return self.run_until(
            lambda: not (self.net.pending_tags() - MAINTENANCE_TAGS)
            and not self.cluster.has_pending())

    def check_state(self, rnd: Round, label: str, expected: int) -> None:
        rnd.check(f"{label}: settled", self.settle())
        verdict = invariants.check_conservation(self.manager, self.cluster,
                                                self.net)
        rnd.check(f"{label}: {verdict.name}", verdict.ok, verdict.detail)
        got = len(self.manager.established_sessions())
        rnd.check(f"{label}: established sessions", got == expected,
                  f"manager={got} client={expected}")


def _round_seed(seed: int, index: int) -> int:
    """Each round draws its own network seed. The seed orders simultaneous
    events, which decides whether the tail of one operation's messages runs
    inside it or inside the next; one seed per run made whole runs fall into
    one mode or the other."""
    return seed * 1009 + index


def _sim_facts(rnd: Round, rig: SimRig, log_start: int) -> None:
    rnd.facts["log_entries"] += _log_entries(rig.manager) - log_start
    rnd.facts["retained"] += len(rig.manager.sessions)
    rnd.facts["held"] += len(rig.manager.established_sessions())


def hold_ramp(seed: int, index: int, tracer, meter) -> Round:
    """Open HOLD_SESSIONS sessions and hold them all, then close them in a
    seeded random order."""
    rnd = Round(meter=meter)
    rig = rnd.set_up(lambda: SimRig(_round_seed(seed, index)), SIM_SETUPS)
    log_start = _log_entries(rig.manager)
    held = []
    for _ in range(HOLD_SESSIONS):
        got, us = rnd.timed(tracer, "open", rig.open)
        if got:
            held.append(got)
            rnd.open_us.append(us)
    rnd.sessions = len(held)
    rnd.open_last10_us = _last_tenth(rnd.open_us)
    _sim_facts(rnd, rig, log_start)
    rig.check_state(rnd, "after ramp", len(held))

    random.Random(_round_seed(seed, index)).shuffle(held)
    for handle, record in held:
        ok, us = rnd.timed(tracer, "close",
                           lambda: rig.close(handle, record))
        if ok:
            rnd.close_us.append(us)
    rnd.close_last10_us = _last_tenth(rnd.close_us)
    rig.check_state(rnd, "after teardown", 0)
    return rnd


def open_close_churn(seed: int, index: int, tracer, meter) -> Round:
    """CHURN_PAIRS opens, each closed at once: one session held at most."""
    rnd = Round(meter=meter)
    rig = rnd.set_up(lambda: SimRig(_round_seed(seed, index)), SIM_SETUPS)
    log_start = _log_entries(rig.manager)
    for _ in range(CHURN_PAIRS):
        got, us = rnd.timed(tracer, "open", rig.open)
        if not got:
            continue
        rnd.sessions += 1
        rnd.open_us.append(us)
        handle, record = got
        ok, us = rnd.timed(tracer, "close", lambda: rig.close(handle, record))
        if ok:
            rnd.close_us.append(us)
    rnd.open_last10_us = _last_tenth(rnd.open_us)
    rnd.close_last10_us = _last_tenth(rnd.close_us)
    _sim_facts(rnd, rig, log_start)
    rig.check_state(rnd, "after churn", 0)
    return rnd


# ---------------------------------------------------------------------------
# Harness: generated mixed scenarios through run_scenario

class SessionProbe:
    """Times opens and closes inside run_scenario.

    An open runs from ServiceRuntime.open_session until the manager's ack
    handler has added the session as established; a close from
    ServiceRuntime.close_session until the manager's close_info handler has
    marked that record closed. Opens and closes the manager settles any
    other way (isolation, failures) are not timed.
    """

    def __init__(self) -> None:
        self.open_us: list[list[float]] = []    # one list per scenario
        self.close_us: list[list[float]] = []
        self.established = 0
        self._opening: dict[tuple, int] = {}
        self._closing: dict[tuple, int] = {}
        self._records: dict[tuple, object] = {}

    def next_scenario(self) -> None:
        self.open_us.append([])
        self.close_us.append([])
        self._opening.clear()
        self._closing.clear()
        self._records.clear()

    def install(self, patches: Patches) -> None:
        probe = self

        def open_session(original):
            def wrapper(rt, *args, **kwargs):
                start = perf_counter_ns()
                mid = original(rt, *args, **kwargs)
                probe._opening[(rt.config.service_name,
                                rt.config.instance_id, mid)] = start
                return mid
            return wrapper

        def close_session(original):
            def wrapper(rt, handle, *args, **kwargs):
                if handle.state == "open" and handle.role != "external":
                    p = handle.params
                    key = (p["source_service_instance_network_address"],
                           int(p["source_plug_port"]),
                           p["dest_service_instance_network_address"],
                           int(p["dest_socket_port"]),
                           int(p["dest_socket_new_port"]))
                    probe._closing.setdefault(key, perf_counter_ns())
                return original(rt, handle, *args, **kwargs)
            return wrapper

        def session_ack(original):
            def wrapper(manager, addr, msg):
                before = len(manager.sessions)
                original(manager, addr, msg)
                if len(manager.sessions) > before:
                    end = perf_counter_ns()
                    rec = manager.sessions[-1]
                    probe.established += 1
                    probe._records[rec.key()] = rec
                    start = probe._opening.pop(
                        (rec.source_service_name, rec.source_instance_id,
                         msg.message_id), None)
                    if start is not None:
                        probe.open_us[-1].append((end - start) / 1000)
            return wrapper

        def close_info(original):
            def wrapper(manager, addr, msg):
                key = (msg.get("source_service_instance_network_address"),
                       msg.get_int("source_plug_port"),
                       msg.get("dest_service_instance_network_address"),
                       msg.get_int("dest_socket_port"),
                       msg.get_int("dest_socket_new_port"))
                rec = probe._records.get(key)
                was_open = rec is not None and rec.state is not SessionState.CLOSED
                original(manager, addr, msg)
                end = perf_counter_ns()
                start = probe._closing.pop(key, None)
                if (was_open and start is not None
                        and rec.state is SessionState.CLOSED):
                    probe.close_us[-1].append((end - start) / 1000)
            return wrapper

        patches.wrap(ServiceRuntime, "open_session", open_session)
        patches.wrap(ServiceRuntime, "close_session", close_session)
        patches.wrap(Manager, "handle_session_ack", session_ack)
        patches.wrap(Manager, "handle_close_info", close_info)


def _mix_seed(seed: int, index: int, i: int) -> int:
    return seed * 1_000_003 + index * MIX_SCENARIOS + i


def scenario_mix(seed: int, index: int, tracer, meter) -> Round:
    """A batch of generated "mixed" scenarios through run_scenario, with the
    invariant sweep at every quiescent point."""
    rnd = Round(meter=meter)
    seeds = [_mix_seed(seed, index, i) for i in range(MIX_SCENARIOS)]
    scenarios = rnd.set_up(lambda: [
        generate_scenario(s, "mixed", max_sessions=MIX_MAX_SESSIONS)
        for s in seeds], SIM_SETUPS)
    probe = SessionProbe()
    with Patches() as patches:
        probe.install(patches)
        for scenario, s in zip(scenarios, seeds):
            probe.next_scenario()
            report, _us = rnd.timed(
                tracer, "scenario", lambda: run_scenario(scenario, s))
            rnd.open_us += probe.open_us[-1]
            rnd.open_last10_us += _last_tenth(probe.open_us[-1])
            rnd.close_us += probe.close_us[-1]
            rnd.close_last10_us += _last_tenth(probe.close_us[-1])
            if report is None:
                continue
            rnd.records += len(report.records)
            if not report.ok:
                rnd.failed += 1
                bad = [v.render() for v in report.invariants + report.expects
                       if not v.ok]
                rnd.check(f"report {scenario.name} ok", False, bad[0])
    rnd.check("every report ok", rnd.failed == 0,
              f"{rnd.failed} of {rnd.attempted} failed")
    rnd.sessions = probe.established
    return rnd


def scenario_mix_determinism(seed: int) -> tuple[bool, str]:
    """One scenario run twice must give byte-identical report text."""
    s = _mix_seed(seed, 0, 0)
    scenario = generate_scenario(s, "mixed", max_sessions=MIX_MAX_SESSIONS)
    first = run_scenario(scenario, s).to_text()
    second = run_scenario(scenario, s).to_text()
    digest = hashlib.sha256(first.encode()).hexdigest()[:16]
    return first == second, f"{scenario.name} sha256={digest}"


# ---------------------------------------------------------------------------
# Loopback TCP: fig1 over build_tcp_cluster

def _wait(pred, timeout_s: float) -> bool:
    deadline = perf_counter() + timeout_s
    while not pred():
        if perf_counter() > deadline:
            return False
        time.sleep(TCP_POLL_S)
    return True


def _tcp_boot(clusters: list) -> bool:
    """Build the cluster (into `clusters`, for the caller to shut down) and
    wait for agent registration and the gateway's boot."""
    handle = build_tcp_cluster([graph.parse_graph_file(FIG1.read_text())],
                               MANAGER_ADDR, [NodeDef(NODE_ADDR, ["A", "B"])])
    clusters.append(handle)
    manager = handle.manager
    if not _wait(lambda: all(a.registered for a in handle.agents.values()),
                 TCP_BOOT_DEADLINE_S):
        return False
    handle.manager_loop.post(manager.start_app)
    return _wait(lambda: ("A", 1) in handle.runtimes
                 and bool(manager.running_instances("A")),
                 TCP_BOOT_DEADLINE_S)


def _tcp_open(manager, rt):
    before = len(manager.sessions)
    got: list = []
    rt._loop.post(lambda: rt.open_session(
        "P", on_established=lambda _rt, h: got.append(h),
        on_failed=lambda _rt, _plug, _status: got.append(None)))
    if not _wait(lambda: got == [None]
                 or (got and len(manager.sessions) > before),
                 TCP_OP_DEADLINE_S):
        return None
    if got[0] is None:
        return None
    return got[0], manager.sessions[-1]


def _tcp_close(rt, handle, record) -> bool:
    rt._loop.post(lambda: rt.close_session(handle))
    return _wait(lambda: record.state is SessionState.CLOSED,
                 TCP_OP_DEADLINE_S)


def tcp_pairs(seed: int, index: int, tracer, meter) -> Round:
    """Sequential open/close pairs over loopback TCP. The client posts to the
    source runtime's ActorLoop and polls the manager's table."""
    rnd = Round(meter=meter)
    threads_before = set(threading.enumerate())
    timers: list = []

    def keep_timers(original):
        def schedule_repeating(env, *args, **kwargs):
            timer = original(env, *args, **kwargs)
            timers.append(timer)
            return timer
        return schedule_repeating

    with Patches() as patches:
        # The manager drops its repeating-timer handle; keep them all so the
        # round can stop their threads.
        patches.wrap(TcpEnv, "schedule_repeating", keep_timers)
        clusters: list = []
        try:
            booted = rnd.set_up(lambda: _tcp_boot(clusters))
            rnd.check("cluster booted", booted)
            if booted:
                _tcp_loop(rnd, clusters[0], tracer)
        finally:
            for handle in clusters:
                handle.shutdown()
            for timer in timers:
                timer.cancel()
    # Closing a listening socket does not wake the thread blocked in its
    # accept(), so those threads outlive the cluster; count them, and wait
    # for every other thread the round started.
    def left() -> list:
        return [t for t in threading.enumerate() if t not in threads_before]

    rnd.check("threads other than blocked accept loops stopped",
              _wait(lambda: all("accept_loop" in t.name for t in left()),
                    TCP_OP_DEADLINE_S),
              ", ".join(t.name for t in left()))
    rnd.facts["threads_leaked"] += len(left())
    return rnd


def _tcp_loop(rnd: Round, handle, tracer) -> None:
    manager = handle.manager
    rt = handle.runtimes[("A", 1)]
    log_start = _log_entries(manager)

    def loop_wait_probe():
        posted = perf_counter_ns()
        handle.manager_loop.post(lambda: tracer.samples["tcp.loop_wait_us"]
                                 .append((perf_counter_ns() - posted) / 1000))

    for _ in range(TCP_PAIRS):
        if tracer.enabled:
            loop_wait_probe()
        got, us = rnd.timed(tracer, "open", lambda: _tcp_open(manager, rt))
        if not got:
            continue
        rnd.sessions += 1
        rnd.open_us.append(us)
        source, record = got
        ok, us = rnd.timed(tracer, "close",
                           lambda: _tcp_close(rt, source, record))
        if ok:
            rnd.close_us.append(us)
    rnd.open_last10_us = _last_tenth(rnd.open_us)
    rnd.close_last10_us = _last_tenth(rnd.close_us)

    all_closed = _wait(lambda: all(s.state is SessionState.CLOSED
                                   for s in manager.sessions),
                       TCP_OP_DEADLINE_S)
    rnd.check("every manager session closed", all_closed)
    rnd.check("manager sessions == client sessions",
              len(manager.sessions) == rnd.sessions,
              f"manager={len(manager.sessions)} client={rnd.sessions}")
    errors = [e for loop in handle.fabric._loops for e in loop.errors]
    rnd.check("no ActorLoop errors", not errors, "; ".join(errors[:3]))
    rnd.facts["loop_errors"] += len(errors)
    rnd.facts["log_entries"] += _log_entries(manager) - log_start
    rnd.facts["retained"] += len(manager.sessions)
    rnd.facts["held"] += len(manager.established_sessions())


@dataclass(frozen=True)
class Workload:
    name: str
    round: object
    transport: str
    # Report times at reference speed (see speed.py). Only where the speed
    # loop tracks the workload: the simulated open/close loops. Scaling made
    # scenario_mix's latencies spread more between runs, not less, as its
    # allocation-heavy harness work slows down with the host differently;
    # tcp_pairs is mostly kernel timers and thread hand-offs.
    scaled: bool = False
    final_check: object = None


WORKLOADS = {
    w.name: w for w in (
        Workload("scenario_mix", scenario_mix, "simulated",
                 final_check=scenario_mix_determinism),
        Workload("hold_ramp", hold_ramp, "simulated", scaled=True),
        Workload("open_close_churn", open_close_churn, "simulated",
                 scaled=True),
        Workload("tcp_pairs", tcp_pairs,
                 "loopback TCP (127.31.x.y addresses), not a network link"),
    )
}
