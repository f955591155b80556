"""Write the byte-identity report set: one `to_text()` report per run.

    python3 tools/report_set.py OUT_DIR

The set is seeds 0-199 of the `establish_close` and `mixed` generator
profiles plus every `fixtures/*.scenario` at seeds 0-9. Two trees give
the same reports when `diff -r` of their two OUT_DIRs prints nothing.
`tests/test_report_digest.py` pins the set by one SHA-256 over `runs()`; a
change that alters reports on purpose updates that digest together with its
report-version bump.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ssmmp.harness.generator import generate_scenario  # noqa: E402
from ssmmp.harness.runner import run_scenario  # noqa: E402
from ssmmp.harness.scenario import load_scenario  # noqa: E402


def runs():
    for profile in ("establish_close", "mixed"):
        for seed in range(200):
            yield f"{profile}-{seed}", generate_scenario(seed, profile), seed
    for path in sorted((ROOT / "fixtures").glob("*.scenario")):
        scenario = load_scenario(path)
        for seed in range(10):
            yield f"{path.stem}-{seed}", scenario, seed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, scenario, seed in runs():
        (out / f"{name}.txt").write_text(run_scenario(scenario, seed).to_text())
        count += 1
    print(f"{count} reports written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
