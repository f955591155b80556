"""Compare the per-layer call counts and journal lines of two traced
benchmark result sets.

    python3 perfbench/run.py --workload all --trace 1 --seconds 0 --seed 1 --out BASE_DIR
    python3 perfbench/run.py --workload all --trace 1 --seconds 0 --seed 1 --out NEW_DIR
    python3 tools/calls_diff.py BASE_DIR NEW_DIR

Run the first command in the parent's checkout and the second in the
change's. For `scenario_mix`, `hold_ramp` and `open_close_churn`, every
`*.calls`, `*_per_send` and `messages_per_*` metric of each result file
(`all_metrics`), and `manager.log_entries`, the manager's journal lines per
session, must be equal in both directories. Each difference, and each
result file present in only one of them, is printed, and the exit status is
then 1. `tcp_pairs` is left out: its counts follow wall-clock timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WORKLOADS = ("scenario_mix", "hold_ramp", "open_close_churn")


def counted(name: str) -> bool:
    return (name.endswith(".calls") or name.endswith("_per_send")
            or ".messages_per_" in name or name == "manager.log_entries")


def counts(path: Path) -> dict[str, object]:
    metrics = json.loads(path.read_text())["all_metrics"]
    return {name: m["value"] for name, m in metrics.items() if counted(name)}


def differences(base: Path, new: Path) -> list[str]:
    out = []
    for workload in WORKLOADS:
        pattern = f"{workload}-t1-s*.json"
        names = sorted({p.name for d in (base, new) for p in d.glob(pattern)})
        if not names:
            out.append(f"{workload}: no traced result in either directory")
        for name in names:
            if not (base / name).exists() or not (new / name).exists():
                where = base if not (base / name).exists() else new
                out.append(f"{name}: missing from {where}")
                continue
            a, b = counts(base / name), counts(new / name)
            for metric in sorted(set(a) | set(b)):
                if a.get(metric) != b.get(metric):
                    out.append(f"{name}: {metric} {a.get(metric)} -> "
                               f"{b.get(metric)}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    diffs = differences(Path(argv[0]), Path(argv[1]))
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
