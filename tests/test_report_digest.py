"""The 440 reports of `tools/report_set.py` are byte-identical to the
recorded set: one SHA-256 over each run's name and then its report text, in
the order `runs()` yields them.

A change that alters reports on purpose records the new digest here
together with its report-version bump.
"""

import hashlib
import importlib.util
from pathlib import Path

from ssmmp.harness.runner import run_scenario

REPORT_SET = Path(__file__).parent.parent / "tools" / "report_set.py"
DIGEST = "95c6710f7752a5207bc491e1b3bde1e3dd89efb6c1013cc82ff56f1a18d22af2"


def _report_set():
    spec = importlib.util.spec_from_file_location("report_set", REPORT_SET)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_set_digest_is_unchanged():
    digest = hashlib.sha256()
    count = 0
    for name, scenario, seed in _report_set().runs():
        digest.update(name.encode())
        digest.update(run_scenario(scenario, seed).to_text().encode())
        count += 1
    assert count == 440
    assert digest.hexdigest() == DIGEST
