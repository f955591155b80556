"""Scenario execution over loopback TCP.

Wall-clock, and excluded from determinism guarantees. The caller's thread
starts the cluster, waits for every agent to register, and then only waits
for the answer. The timeline runs on the fabric's one I/O thread: one
callback there boots the app and schedules each event on the user node's
env at its `at_ms`, as `run_scenario` schedules them on the simulator, and
the manager-only state invariants at the last event's time plus the settle
(at most 2 s). So the simulator's interpreter (runner.py), every expect and
the invariants read the actors' tables between two callbacks, never while
one runs, and no sleep paces the events. Trace-based checks need the
deterministic trace and are reported as skipped. Agents that do not
register within REGISTER_TIMEOUT_S give the failed verdict `registration`,
and no event runs. An exception that any actor's loop or the I/O loop
caught adds the failed verdict `loop_errors`, as in the simulator.
"""

from __future__ import annotations

import queue
import time

from ..tcp import TcpFabric
from . import invariants
from .report import TraceReport, Verdict, manager_snapshot
from .runner import execute_event, loop_errors, scenario_context
from .scenario import Scenario

SKIPPED_INVARIANTS = ("session_conservation", "knowledge_asymmetry",
                      "correlation", "wire_grammar", "replay_equivalence")
REGISTER_TIMEOUT_S = 5.0
STATE_TIMEOUT_S = 5.0  # past the timeline's end, wait this long for its answer


def _state_invariants(cluster) -> list[Verdict]:
    """Port exclusivity, DNS soundness and isolation, and the skipped trace
    checks."""
    manager = cluster.manager
    return [invariants.check_port_exclusivity(manager, cluster),
            invariants.check_dns_soundness(manager),
            invariants.check_isolation(manager)] + [
        Verdict(True, name, "skipped in tcp mode")
        for name in SKIPPED_INVARIANTS]


def _await_registration(cluster) -> Verdict | None:
    """None once every agent has registered, else a failed verdict."""
    deadline = time.monotonic() + REGISTER_TIMEOUT_S
    while time.monotonic() < deadline:
        if all(a.registered for a in cluster.agents.values()):
            return None
        time.sleep(0.02)
    missing = sorted(addr for addr, a in cluster.agents.items()
                     if not a.registered)
    return Verdict(False, "registration",
                   f"not registered within {REGISTER_TIMEOUT_S}s: "
                   f"{', '.join(missing)}")


def run_scenario_tcp(scenario: Scenario, seed: int = 0) -> TraceReport:
    fabric = TcpFabric()
    ctx = scenario_context(scenario, fabric)
    cluster, manager, env = ctx.cluster, ctx.manager, ctx.user_env
    end_ms = max((ev.at_ms for ev in scenario.events), default=0) \
        + min(scenario.settle_ms, 2000)
    answer: queue.Queue = queue.Queue(maxsize=1)

    def timeline():
        manager.env.call(manager.start_app)
        for ev in scenario.events:
            env.schedule(ev.at_ms, lambda e=ev: execute_event(ctx, e))
        env.schedule(end_ms, lambda: answer.put(_state_invariants(cluster)))

    try:
        cluster.start()
        unregistered = _await_registration(cluster)
        if unregistered is not None:
            verdicts = [unregistered]
        else:
            env.call(timeline)
            try:
                verdicts = answer.get(
                    timeout=end_ms / 1000.0 + STATE_TIMEOUT_S)
            except queue.Empty:
                verdicts = [Verdict(False, "state_invariants",
                                    "the timeline did not answer")]
    finally:
        cluster.shutdown()
    verdicts += loop_errors(
        [e for loop in fabric._loops for e in loop.errors] + fabric._io.errors)
    report = TraceReport(scenario.name + "+tcp", seed)
    report.expects = ctx.expects
    report.invariants = verdicts
    report.manager_lines = manager_snapshot(cluster.manager)
    return report
