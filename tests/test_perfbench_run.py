"""The benchmark's workloads run clean: loopback TCP traced or not, and
every workload traced.

A traced run also wraps `TcpEnv.connect` and `ActorLoop.post`, and any run
exits 1 when one of its correctness checks fails. The traced run of every
workload covers the simulated rig's boot, conservation with 1,000 held
sessions, the report-determinism check and every name the spans wrap. This
runs `perfbench/run.py` as it stands; nothing in it is changed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _run(out, workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", trace, "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tcp_pairs_workload_exits_zero(tmp_path, trace):
    proc = _run(tmp_path, "tcp_pairs", trace)
    assert proc.returncode == 0, proc.stdout[-2000:]


def test_every_workload_traced_exits_zero(tmp_path):
    proc = _run(tmp_path, "all", "1")
    assert proc.returncode == 0, proc.stdout[-2000:]
