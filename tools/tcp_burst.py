"""Open a burst of sessions over loopback TCP and count what establishes.

    python3 tools/tcp_burst.py N

Builds the `fixtures/fig1.graph` cluster on a `TcpFabric` (the manager on
fd00::1, one agent with A and B on fd00::a1), spawns B.1 with one open and
close of A.1's plug P, then posts N opens of P from A.1 in one callback. It
waits until the manager holds N open sessions, or for TIMEOUT_S (10 s, past
the manager's 5 s wait for an ack), and prints:

- the sessions established at the runtime (A.1's `on_established` calls)
  and at the manager (its open records);
- the pending sessions that expired without an ack, and the acks that came
  too late, from the manager's journal;
- the exceptions the actors' loops caught;
- the seconds from the post to the last established session, or to the
  timeout.

The exit status is 0 when all N established at the manager, else 1.
`perfbench/`'s `tcp_pairs` opens one session at a time, so it cannot show
what a burst does.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ssmmp.cluster import NodeDef  # noqa: E402
from ssmmp.graph import parse_graph_file  # noqa: E402
from ssmmp.tcp import build_tcp_cluster  # noqa: E402

POLL_S = 0.001
TIMEOUT_S = 10.0


def _wait(pred, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while not pred():
        if time.monotonic() > deadline:
            return False
        time.sleep(POLL_S)
    return True


def _journal_count(manager, text: str) -> int:
    return sum(text in line for _t, _kind, line in list(manager.journal))


def burst(n: int) -> dict[str, float]:
    graph = parse_graph_file((ROOT / "fixtures" / "fig1.graph").read_text())
    cluster = build_tcp_cluster([graph], "fd00::1",
                                [NodeDef("fd00::a1", ["A", "B"])])
    manager = cluster.manager
    try:
        if not _wait(lambda: all(a.registered
                                 for a in cluster.agents.values()), 10):
            raise SystemExit("agents did not register")
        cluster.manager_loop.post(manager.start_app)
        if not _wait(lambda: ("A", 1) in cluster.runtimes, 10):
            raise SystemExit("A.1 did not start")
        rt = cluster.runtimes[("A", 1)]
        first: list = []
        rt._loop.post(lambda: rt.open_session(
            "P", on_established=lambda _rt, h: first.append(h)))
        if not _wait(lambda: first and manager.established_sessions(), 10):
            raise SystemExit("the first session did not establish")
        rt._loop.post(lambda: rt.close_session(first[0]))
        if not _wait(lambda: not manager.established_sessions(), 10):
            raise SystemExit("the first session did not close")

        established: list = []
        t0 = time.monotonic()
        rt._loop.post(lambda: [
            rt.open_session(
                "P", on_established=lambda _rt, h: established.append(h))
            for _ in range(n)])
        _wait(lambda: len(manager.established_sessions()) >= n, TIMEOUT_S)
        return {
            "established at runtime": len(established),
            "established at manager": len(manager.established_sessions()),
            "expired pending sessions": _journal_count(
                manager, "expired without ack"),
            "late acks": _journal_count(manager,
                                        "ack without pending session"),
            "loop errors": sum(len(loop.errors)
                               for loop in cluster.fabric._loops),
            "seconds": round(time.monotonic() - t0, 3),
        }
    finally:
        cluster.shutdown()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Post N session opens in one callback over loopback TCP.")
    parser.add_argument("n", type=int, help="opens to post")
    args = parser.parse_args(argv)
    result = burst(args.n)
    for name, value in result.items():
        print(f"{name}: {value}")
    return 0 if result["established at manager"] == args.n else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
