"""Peak RSS of a benchmark workload at a fixed number of rounds.

    python3 tools/rss_at_rounds.py WORKLOAD N [--seed S]

`perfbench/run.py` repeats rounds until its time is up and keeps every
round's samples, so a faster program fits more rounds into a run and reads a
higher `peak_rss_mb`. This runs exactly N rounds of WORKLOAD through
`run.run_round`, as an untraced benchmark run does, and prints:

- the RSS and the peak RSS after the first round and after each further
  quarter of the N rounds;
- `peak_rss_mb` as `run.end_to_end` reports it after the N rounds;
- the cyclic garbage of one more round: the bytes (tracemalloc) and objects
  that the cyclic GC frees after the round has run with it disabled.

Comparing two trees at the same N leaves out the effect of the round count.
`perfbench/` is imported as it stands; nothing in it is changed.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from spans import NoTracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def rss_mb() -> float:
    """The current resident set size, from /proc (Linux)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cyclic_garbage(workload, seed: int, index: int, meter) -> tuple[int, int]:
    """(bytes, objects) that only the cyclic GC frees after one round.

    The round's objects are all young, as it starts with a full collection
    and runs with the GC disabled, so collecting the young generations finds
    them. A full collection would also empty the interpreter's free lists
    and count that memory as garbage."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        rnd = run.run_round(workload, seed, index, NoTracer(), meter)
        before = tracemalloc.get_traced_memory()[0]
        objects = gc.collect(1)
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    del rnd
    return freed, objects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("rounds", type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("rounds must be at least 1")
    workload = WORKLOADS[args.workload]
    meter = SpeedMeter() if workload.scaled else None
    marks = {1} | {args.rounds * q // 4 for q in (1, 2, 3, 4)}
    rounds = []
    print(f"{workload.name} seed={args.seed} rounds={args.rounds}")
    for index in range(args.rounds):
        rounds.append(run.run_round(workload, args.seed, index, NoTracer(),
                                    meter))
        if index + 1 in marks:
            print(f"after round {index + 1:>4}: rss {rss_mb():.2f} MB, "
                  f"peak {peak_rss_mb():.2f} MB")
    values, _ = run.end_to_end(rounds, meter.factor() if meter else 1.0)
    print(f"end_to_end peak_rss_mb {values['peak_rss_mb']:.2f} MB")
    failed = sum(r.failed for r in rounds)
    if failed:
        print(f"failed operations: {failed}")
    freed, objects = cyclic_garbage(workload, args.seed, args.rounds, meter)
    print(f"cyclic garbage of one round: {freed / 2**20:.2f} MB, "
          f"{objects} objects")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
