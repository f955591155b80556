"""Percentiles, tails and the result-set summary and compare modes."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Tail percentiles come from a fixed ladder, so that runs with slightly
# different sample counts still report the same percentile.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; values need not be sorted."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that still has
    at least ten samples beyond it."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            chosen = p
    return chosen, percentile(values, chosen)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load_results(directory: Path) -> dict[str, list[dict]]:
    """Untraced result files of one set, grouped by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("meta", {}).get("trace"):
            continue
        by_workload.setdefault(doc["meta"]["workload"], []).append(doc)
    return by_workload


def _values(docs: list[dict], metric: str) -> list[float]:
    return [d["result"]["metrics"][metric]["value"] for d in docs
            if metric in d["result"]["metrics"]]


def summarize(directory: Path, spec: dict) -> list[str]:
    """Median, quartiles and spread of every end-to-end metric of one set."""
    lines = []
    for workload, docs in sorted(load_results(directory).items()):
        lines.append(f"{workload}: {len(docs)} runs")
        for m in spec["end_to_end"]:
            vals = _values(docs, m["name"])
            if not vals:
                lines.append(f"  {m['name']:<20} missing")
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if m["name"] == "setup_s" or s <= m["bound"] / 3 else \
                "  SPREAD ABOVE BOUND/3"
            lines.append(f"  {m['name']:<20} median {med:.6g} {m['unit']} "
                         f"q1 {q1:.6g} q3 {q3:.6g} spread {s:.3%} "
                         f"(bound {m['bound']:.0%}){flag}")
    return lines


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """Verdict of `new` against `base` under the benchmark's bound."""
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change > bound if better == "lower" else change < -bound
    improved = change < 0 if better == "lower" else change > 0
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        if not all_better:
            return f"unresolved ({change:+.2%}; spread exceeds bound)"
    if worse:
        return f"WORSE ({change:+.2%} beyond {bound:.0%})"
    if improved and abs(change) > spread(base):
        return f"better ({change:+.2%}, beyond the base's own spread)"
    return f"no worse ({change:+.2%})"


def compare(base_dir: Path, new_dir: Path, spec: dict) -> list[str]:
    base = load_results(base_dir)
    new = load_results(new_dir)
    lines = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            lines.append(f"{workload}: only in one set")
            continue
        lines.append(f"{workload}: {len(base[workload])} base runs, "
                     f"{len(new[workload])} new runs")
        for m in spec["end_to_end"]:
            b = _values(base[workload], m["name"])
            n = _values(new[workload], m["name"])
            if not b or not n:
                lines.append(f"  {m['name']:<20} missing")
                continue
            bq, nq = quartiles(b), quartiles(n)
            lines.append(
                f"  {m['name']:<20} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']}"
                f"  -> {verdict(b, n, m['better'], m['bound'])}")
    return lines
