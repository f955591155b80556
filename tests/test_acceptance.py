"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stated time budgets are asserted with wall-clock measurements.
"""

import itertools
import time
from pathlib import Path

import pytest

from conftest import FIXTURES

from ssmmp import wire
from ssmmp.graph import (AbstractConnection, ServiceKind, ServiceSpec,
                         validate_graph)
from ssmmp.harness import run_scenario, run_scenario_file
from ssmmp.harness.conformance import check_conformance
from ssmmp.harness.generator import generate_scenario

GOLDEN_DIR = Path(__file__).parent.parent / "conformance"


def _report_line(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion-{num}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {detail}"


# 1 ---------------------------------------------------------------------------

def test_criterion_1_wire_conformance():
    t0 = time.monotonic()
    results = check_conformance(GOLDEN_DIR)
    elapsed = time.monotonic() - t0
    bad = [stem for stem, ok, _ in results if not ok]
    ok = (not bad and len(results) >= 24 and elapsed < 1.0)
    _report_line(1, ok,
                 f"golden roundtrip {len(results) - len(bad)}/{len(results)} "
                 f"variants (need >= 24)", elapsed)


# 2 ---------------------------------------------------------------------------

def test_criterion_2_session_choreography():
    t0 = time.monotonic()
    report = run_scenario_file(FIXTURES / "fig1_boot.scenario", seed=42)
    elapsed = time.monotonic() - t0
    chor = [v for v in report.expects if v.name.endswith("choreography A P B S")]
    complete = [v for v in report.expects
                if v.name.endswith("session_complete A P B S")]
    ok = (report.ok and chor and chor[0].ok and complete and complete[0].ok
          and elapsed < 5.0)
    _report_line(2, ok, f"six-message establishment with one id "
                 f"({chor[0].detail if chor else 'missing'})", elapsed)


# 3 ---------------------------------------------------------------------------

def test_criterion_3_knowledge_asymmetry_500_runs():
    t0 = time.monotonic()
    violations = []
    for seed in range(500):
        scenario = generate_scenario(seed, "establish_close")
        report = run_scenario(scenario, seed)
        for verdict in report.invariants:
            if verdict.name == "knowledge_asymmetry" and not verdict.ok:
                violations.append((seed, verdict.detail))
        if not report.ok:
            violations.append((seed, "run failed"))
    elapsed = time.monotonic() - t0
    _report_line(3, not violations,
                 f"500 randomized establish/close runs, "
                 f"{len(violations)} violations", elapsed)


# 4 ---------------------------------------------------------------------------

def test_criterion_4_conservation_and_ports_200_runs():
    t0 = time.monotonic()
    violations = []
    for seed in range(200):
        scenario = generate_scenario(seed + 5000, "mixed", max_sessions=20)
        assert len(scenario.graph.vertices) <= 8
        report = run_scenario(scenario, seed)
        for verdict in report.invariants:
            if verdict.name in ("session_conservation", "port_exclusivity") \
                    and not verdict.ok:
                violations.append((seed, verdict.name, verdict.detail))
        bad_expects = [v for v in report.expects if not v.ok]
        if bad_expects:
            violations.append((seed, "expects", bad_expects[0].render()))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 60.0
    _report_line(4, ok,
                 f"200 seeded runs, three-way reconciliation at every "
                 f"quiescent point, {len(violations)} violations", elapsed)


# 5 ---------------------------------------------------------------------------

def test_criterion_5_failure_handling():
    t0 = time.monotonic()
    report = run_scenario_file(FIXTURES / "kill_agent.scenario", seed=42)
    elapsed = time.monotonic() - t0
    wanted = ["agent_isolated", "no_session_touching", "dns_targets",
              "replay_matches"]
    found = {name: False for name in wanted}
    for verdict in report.expects:
        for name in wanted:
            if name in verdict.name:
                found[name] = found[name] or verdict.ok
    ok = report.ok and all(found.values()) and elapsed < 5.0
    _report_line(5, ok, "node isolated, sessions closed from opposite "
                 "sides, DNS purged, replay table equal", elapsed)


# 6 ---------------------------------------------------------------------------

def test_criterion_6_idle_reaping_window():
    t0 = time.monotonic()
    report = run_scenario_file(FIXTURES / "idle_reap.scenario", seed=42)
    elapsed = time.monotonic() - t0
    window = [v for v in report.expects if "reap_window" in v.name]
    gateway = [v for v in report.expects
               if "instance_state A 1 running" in v.name]
    ok = (report.ok and window and window[0].ok and gateway and gateway[0].ok)
    _report_line(6, ok,
                 f"reaped inside (idle_timeout, idle_timeout + 2 polls] "
                 f"({window[0].detail if window else 'missing'}), "
                 "gateway untouched", elapsed)


# 7 ---------------------------------------------------------------------------

def _oracle_accepts(kinds, edges):
    """Independent degree/plug/cycle check on (kind string, concrete edges)."""
    n = len(kinds)
    in_deg = [0] * n
    out_deg = [0] * n
    used = set()
    for i, j, plug in edges:
        if kinds[i] == "b":
            return False  # no plugs on storage vertices
        if (i, plug) in used:
            return False
        used.add((i, plug))
        out_deg[i] += 1
        in_deg[j] += 1
    for v in range(n):
        if kinds[v] == "g" and in_deg[v]:
            return False
        if kinds[v] == "b" and out_deg[v]:
            return False
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
    state = [0] * n

    def dfs(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1 or (state[w] == 0 and dfs(w)):
                return True
        state[v] = 2
        return False

    return not any(state[v] == 0 and dfs(v) for v in range(n))


_KIND_OF = {"g": ServiceKind.GATEWAY, "r": ServiceKind.REGULAR,
            "b": ServiceKind.BAAS}


def _specs_for(kinds):
    specs = []
    for v, kind in enumerate(kinds):
        plugs = () if kind == "b" else ("e0", "e1", "e2", "e3")
        fixed = (("s0", 80),) if kind == "g" else ()
        specs.append(ServiceSpec(f"v{v}", _KIND_OF[kind], ("s0",), plugs, fixed))
    return specs


def _edge_cases(k, max_e=4):
    pairs = [(i, j) for i in range(k) for j in range(k)]
    for n_e in range(max_e + 1):
        for combo in itertools.combinations_with_replacement(
                range(len(pairs)), n_e):
            edges = [(pairs[x][0], pairs[x][1], f"e{pos}")
                     for pos, x in enumerate(combo)]
            yield edges
            counts = {}
            for x in combo:
                counts[x] = counts.get(x, 0) + 1
            repeated = [x for x, c in counts.items() if c > 1]
            if repeated:
                # same plug for every occurrence of the first repeated pair
                target = repeated[0]
                shared = [(pairs[x][0], pairs[x][1],
                           "e0" if x == target else f"e{pos + 1}")
                          for pos, x in enumerate(combo)]
                yield shared


def test_criterion_7_graph_validation_equivalence():
    t0 = time.monotonic()
    checked = 0
    disagreements = []
    for k in range(1, 5):
        for kinds in itertools.product("grb", repeat=k):
            specs = _specs_for(kinds)
            for edges in _edge_cases(k):
                conns = [AbstractConnection(f"v{i}", plug, f"v{j}", "s0")
                         for i, j, plug in edges]
                got = not validate_graph(specs, conns)
                want = _oracle_accepts(kinds, edges)
                checked += 1
                if got != want and len(disagreements) < 3:
                    disagreements.append((kinds, edges, got, want))
    elapsed = time.monotonic() - t0
    ok = not disagreements and elapsed < 30.0
    _report_line(7, ok,
                 f"exhaustive <=4 vertices x <=4 edges: {checked} multigraphs, "
                 f"{len(disagreements)} disagreements", elapsed)
    assert checked > 400_000


# 8 ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    t0 = time.monotonic()
    mismatches = []
    for name in ("fig1_boot", "kill_agent", "idle_reap"):
        for seed in (1, 42):
            a = run_scenario_file(FIXTURES / f"{name}.scenario", seed).to_text()
            b = run_scenario_file(FIXTURES / f"{name}.scenario", seed).to_text()
            if a != b:
                mismatches.append((name, seed))
    for seed in (17, 99):
        scenario = generate_scenario(seed, "mixed")
        if run_scenario(scenario, seed).to_text() != \
                run_scenario(scenario, seed).to_text():
            mismatches.append(("generated", seed))
    elapsed = time.monotonic() - t0
    _report_line(8, not mismatches,
                 f"byte-identical reports for equal seeds "
                 f"({len(mismatches)} mismatches)", elapsed)


# 9 ---------------------------------------------------------------------------

def test_criterion_9_tcp_smoke():
    from ssmmp.cluster import NodeDef
    from ssmmp.graph import parse_graph_file
    from ssmmp.manager import SessionState
    from ssmmp.tcp import build_tcp_cluster

    def wait(pred, timeout=8.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if pred():
                return True
            time.sleep(0.02)
        return False

    t0 = time.monotonic()
    graph = parse_graph_file((FIXTURES / "fig1.graph").read_text())
    handle = build_tcp_cluster([graph], "fd00::1",
                               [NodeDef("fd00::a1", ["A", "B"])])
    ok = False
    detail = ""
    try:
        if not wait(lambda: all(a.registered for a in handle.agents.values())):
            detail = "registration timed out"
        else:
            handle.manager_loop.post(handle.manager.start_app)
            if not wait(lambda: ("A", 1) in handle.runtimes):
                detail = "gateway never started"
            else:
                rt = handle.runtimes[("A", 1)]
                rt._loop.post(lambda: rt.open_session("P"))
                if not wait(lambda: handle.manager.established_sessions()):
                    detail = "session never established"
                else:
                    session = handle.manager.established_sessions()[0]
                    [src] = rt.sessions.values()
                    rt._loop.post(lambda: rt.close_session(src))
                    closed = wait(lambda: all(
                        s.state is SessionState.CLOSED
                        for s in handle.manager.sessions))
                    ok = (closed and session.session_port >= 40000
                          and session.complete())
                    detail = (f"established+closed, preamble l="
                              f"{session.session_port}")
    finally:
        handle.shutdown()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report_line(9, ok, f"loopback TCP end-to-end ({detail})", elapsed)
