"""The ssmmp benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload hold_ramp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --summary DIR
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run prints a table of every metric by name and unit, then, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`. It writes the full result, with metadata, to
`.perfbench_out/results/` (or `--out DIR`), and a traced run writes its
spans to `.perfbench_out/spans/`. It exits 1 when a correctness check
fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"

# The end-to-end metrics every run prints, with units; BENCHMARK.json names
# the ones carried in the result line.
E2E_UNITS = {
    "setup_s": "s",
    "open_us_p50": "us",
    "open_us_tail": "us",
    "open_us_p50_last10": "us",
    "close_us_p50": "us",
    "close_us_tail": "us",
    "close_us_p50_last10": "us",
    "sessions_per_s": "1/s",
    "records_per_s": "1/s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(workload, args, rounds: int) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "rounds": rounds,
        "transport": workload.transport,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def end_to_end(rounds, factor: float = 1.0) -> tuple[dict, dict]:
    """(metric -> value or None, notes) over all rounds of an untraced run,
    with every time multiplied by `factor` (see speed.py)."""
    def pooled(attr: str) -> list[float]:
        return [t * factor for r in rounds for t in getattr(r, attr)]

    opens, closes = pooled("open_us"), pooled("close_us")
    opens10, closes10 = pooled("open_last10_us"), pooled("close_last10_us")
    setups = pooled("setup_s")
    timed = sum(r.timed_s for r in rounds) * factor
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    records = sum(r.records for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "open_us_p50": stats.percentile(opens, 50) if opens else None,
        "open_us_tail": None,
        "open_us_p50_last10": statistics.median(opens10) if opens10 else None,
        "close_us_p50": stats.percentile(closes, 50) if closes else None,
        "close_us_tail": None,
        "close_us_p50_last10": (statistics.median(closes10) if closes10
                                else None),
        "sessions_per_s": sum(r.sessions for r in rounds) / timed if timed
        else None,
        "records_per_s": records / timed if records and timed else None,
        "failed_ratio": failed / attempted if attempted else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "failed_ratio": f"{failed} of {attempted} operations",
             "sessions_per_s": f"{sum(r.sessions for r in rounds)} sessions"}
    for kind, samples in (("open", opens), ("close", closes)):
        if samples:
            p, v = stats.tail(samples)
            values[f"{kind}_us_tail"] = v
            notes[f"{kind}_us_tail"] = f"p{p:g} of n={len(samples)}"
    if not records:
        notes["records_per_s"] = "no trace records: the harness is bypassed"
    return values, notes


def run_round(workload, seed: int, index: int, tracer, meter=None):
    # Garbage left by earlier rounds would otherwise make later rounds'
    # collections slower; every round starts from the same heap.
    gc.collect()
    first_op = tracer.next_op
    rnd = workload.round(seed, index, tracer, meter)
    rnd.ops = range(first_op, tracer.next_op)
    return rnd


def run_rounds(workload, seed: int, seconds: float, tracer,
               meter=None) -> list:
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        rounds.append(run_round(workload, seed, len(rounds), tracer, meter))
        if perf_counter() >= deadline:
            return rounds


def checks_of(rounds) -> list[tuple[str, bool, str]]:
    """Each distinct check once: its first failure, else its first pass."""
    seen: dict[str, tuple[str, bool, str]] = {}
    for r in rounds:
        for name, ok, detail in r.checks:
            if name not in seen or (seen[name][1] and not ok):
                seen[name] = (name, ok, detail)
    return list(seen.values())


def run_untraced(workload, args, spec) -> tuple[dict, dict]:
    meter = SpeedMeter() if workload.scaled else None
    rounds = run_rounds(workload, args.seed, args.seconds, NoTracer(), meter)
    checks = checks_of(rounds)
    if workload.final_check is not None:
        ok, detail = workload.final_check(args.seed)
        checks.append(("same seed twice gives identical report text", ok,
                       detail))
    factor = meter.factor() if meter else 1.0
    values, notes = end_to_end(rounds, factor)
    wall, _ = end_to_end(rounds)
    lines = []
    if meter:
        q1, med, q3 = stats.quartiles(meter.samples)
        lines.append(
            f"times at reference speed: x{factor:.4g}, as the speed loop "
            f"took {med * 1000:.3g} ms (quartiles {q1 * 1000:.3g}-"
            f"{q3 * 1000:.3g}, n={len(meter.samples)}) against "
            f"{REFERENCE_S * 1000:g} ms; wall values in brackets")
    for name, unit in E2E_UNITS.items():
        line = f"{name:<22} {_fmt(values[name])} {unit}"
        if values[name] != wall[name]:
            line += f" [{_fmt(wall[name])}]"
        if name in notes:
            line += f"  ({notes[name]})"
        lines.append(line)
    metrics = {}
    for m in spec["end_to_end"]:
        value = values.get(m["name"])
        if value is None:  # no sample at all: every operation failed
            checks.append((f"{m['name']} measured", False, "no samples"))
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    doc = _document(workload, args, rounds, checks, metrics,
                    {k: {"value": v, "unit": E2E_UNITS[k], "wall": wall[k],
                         "note": notes.get(k, "")}
                     for k, v in values.items()})
    doc["speed"] = {"factor": factor,
                    "loop_s": meter.samples if meter else []}
    return doc, {"table": lines}


def run_traced(workload, args, spec) -> tuple[dict, dict]:
    # One untraced round, then the same round traced, gives the overhead.
    base = run_round(workload, args.seed, 0, NoTracer())
    tracer = Tracer()
    patches = Patches()
    install(tracer, patches)
    try:
        rounds = run_rounds(workload, args.seed, args.seconds, tracer)
        facts = Counter()
        for r in rounds:
            facts.update(r.facts)
            facts["sessions"] += r.sessions
            facts["records"] += r.records
        layer = layer_metrics(tracer, facts)
        checks = checks_of(rounds)
        spans_path = OUT_DIR / "spans" / f"{workload.name}-s{args.seed}.csv.gz"
        n_spans = tracer.write(spans_path)
        overhead = rounds[0].timed_s / base.timed_s - 1 if base.timed_s else None
        layer["trace.overhead"] = (overhead, "ratio",
                                   "round 0 traced vs untraced, timed phase")
        if workload.transport == "simulated":
            counts = tracer.call_counts(rounds[0].ops)
            tracer.clear()
            repeat = run_round(workload, args.seed, 0, tracer)
            again = tracer.call_counts(repeat.ops)
            exact = counts == again
            checks.append(("traced counts repeat exactly", exact,
                           "" if exact else _diff(counts, again)))
            layer["trace.counts_repeat_exact"] = (int(exact), "count", "")
        else:
            layer["trace.counts_repeat_exact"] = (
                None, "count", "wall-clock timers make tcp counts vary")
    finally:
        patches.restore()
    violations = layer["trace.self_time_violations"][0]
    checks.append(("self times within each operation's wall time",
                   violations == 0, f"{violations} operations over"))
    lines = []
    for name, (value, unit, note) in layer.items():
        moves = LAYER_MOVES[name.split(".")[0]]
        shown = _fmt(value) if value is not None else f"n/a ({note})"
        extra = f"  ({note})" if value is not None and note else ""
        lines.append(f"{name:<42} {shown} {unit}{extra}  -> {moves}")
    lines.append(f"spans: {n_spans} written to {spans_path.relative_to(ROOT)}")
    metrics = {}
    for m in spec["per_layer"]:
        value = layer.get(m["name"], (None,))[0]
        if value is None:
            checks.append((f"{m['name']} measured", False,
                           layer.get(m["name"], (0, 0, "unknown"))[2]))
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    doc = _document(workload, args, rounds, checks, metrics,
                    {k: {"value": v, "unit": u, "note": n}
                     for k, (v, u, n) in layer.items()})
    return doc, {"table": lines}


def _diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)} vs {b.get(k)}" for k in keys[:5])


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _document(workload, args, rounds, checks, metrics, all_metrics) -> dict:
    return {"meta": metadata(workload, args, len(rounds)),
            "result": _result(rounds, checks, metrics),
            "all_metrics": all_metrics,
            "checks": checks,
            "failed_operations": [e for r in rounds for e in r.errors][:10]}


def _result(rounds, checks, metrics) -> dict:
    return {
        "correct": all(ok for _name, ok, _detail in checks),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_one(args, spec) -> int:
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    try:
        doc, shown = runner(workload, args, spec)
    except Exception:  # e.g. a set-up the program cannot complete
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    meta = doc["meta"]
    print(f"== {workload.name} seed={args.seed} trace={int(args.trace)} "
          f"rounds={meta['rounds']} transport: {meta['transport']}")
    print(f"   python {meta['python']} nproc {meta['nproc']} "
          f"{meta['platform']} commit {meta['commit']}")
    for line in shown["table"]:
        print("   " + line)
    for name, ok, detail in doc["checks"]:
        print(f"   {'PASS' if ok else 'FAIL'} {name}"
              + (f" :: {detail}" if detail else ""))
    for error in doc["failed_operations"]:
        print(f"   failed operation: {error}")
    out = Path(args.out) if args.out else OUT_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload.name}-t{int(args.trace)}-s{args.seed}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so that one failure or one peak
    RSS does not carry into the next."""
    summary, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "exit": proc.returncode}
        if proc.returncode != 0:
            code = 1
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--summary", metavar="DIR")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.summary:
        print("\n".join(stats.summarize(Path(args.summary), spec)))
        return 0
    if args.compare:
        print("\n".join(stats.compare(Path(args.compare[0]),
                                      Path(args.compare[1]), spec)))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; "
                     f"one of {', '.join(WORKLOADS)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from spans import LAYER_MOVES, NoTracer, Patches, Tracer, install, \
            layer_metrics
        from speed import REFERENCE_S, SpeedMeter
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
