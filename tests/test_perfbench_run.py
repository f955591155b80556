"""The benchmark's loopback-TCP workload runs clean, traced or not.

A traced run also wraps `TcpEnv.connect` and `ActorLoop.post`, and either
run exits 1 when one of its correctness checks fails. This runs
`perfbench/run.py` as it stands; nothing in it is changed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tcp_pairs_workload_exits_zero(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "tcp_pairs", "--seed", "1", "--seconds", "0",
         "--trace", trace, "--out", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
