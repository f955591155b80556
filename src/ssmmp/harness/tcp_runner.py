"""Scenario execution over loopback TCP.

Wall-clock, run on the fabric's one I/O thread, and excluded from
determinism guarantees. This is only the driver: it waits for registration,
sleeps until each event's time and runs the event through the simulator's
interpreter (runner.py), which posts every change to the actor's loop.
Trace-based checks need the deterministic trace and are reported as
skipped; the manager-only state invariants run once, on the manager's loop,
after the settle. Agents that do not register in time give the failed
verdict `registration`, and no event runs. An exception that any actor's
loop or the I/O loop caught adds the failed verdict `loop_errors`, as in
the simulator.
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
STATE_TIMEOUT_S = 5.0


def _state_invariants(cluster) -> list[Verdict]:
    """Port exclusivity, DNS soundness and isolation, read on the manager's
    loop so that no handler runs while they look."""
    manager = cluster.manager
    answer: queue.Queue = queue.Queue(maxsize=1)
    manager.env.call(lambda: answer.put([
        invariants.check_port_exclusivity(manager, cluster),
        invariants.check_dns_soundness(manager),
        invariants.check_isolation(manager),
    ]))
    try:
        return answer.get(timeout=STATE_TIMEOUT_S)
    except queue.Empty:
        return [Verdict(False, "state_invariants",
                        "manager loop did not answer")]


def _await_registration(cluster, timeout_s: float) -> Verdict | None:
    """None once every agent has registered, else a failed verdict."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(a.registered for a in cluster.agents.values()):
            return None
        time.sleep(0.02)
    missing = sorted(addr for addr, a in cluster.agents.items()
                     if not a.registered)
    return Verdict(False, "registration",
                   f"not registered within {timeout_s}s: {', '.join(missing)}")


def run_scenario_tcp(scenario: Scenario, seed: int = 0,
                     register_timeout_s: float = 5.0) -> TraceReport:
    fabric = TcpFabric()
    ctx = scenario_context(scenario, fabric)
    cluster = ctx.cluster
    try:
        cluster.start()
        unregistered = _await_registration(cluster, register_timeout_s)
        if unregistered is not None:
            invariants = [unregistered]
        else:
            cluster.manager.env.call(cluster.manager.start_app)
            t0 = fabric.now_ms()
            for ev in scenario.events:
                wait_ms = ev.at_ms - (fabric.now_ms() - t0)
                if wait_ms > 0:
                    time.sleep(wait_ms / 1000.0)
                execute_event(ctx, ev)
            time.sleep(min(scenario.settle_ms, 2000) / 1000.0)
            invariants = _state_invariants(cluster) + [
                Verdict(True, name, "skipped in tcp mode")
                for name in SKIPPED_INVARIANTS]
    finally:
        cluster.shutdown()
    invariants += loop_errors(
        [e for loop in fabric._loops for e in loop.errors] + fabric._io.errors)
    report = TraceReport(scenario.name + "+tcp", seed)
    report.expects = ctx.expects
    report.invariants = invariants
    report.manager_lines = manager_snapshot(cluster.manager)
    return report
