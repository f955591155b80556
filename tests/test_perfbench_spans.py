"""The traced benchmark can wrap every layer entry point it names.

`perfbench/spans.py` replaces class and module attributes of `src/` for the
length of a `--trace 1` run, and fails with a KeyError on any name that is
not defined on its own class or module. This loads that file as it stands
(nothing in it is changed) and installs its wrappers against this tree.
"""

import importlib.util
from pathlib import Path

from conftest import FIXTURES

from ssmmp.harness.runner import run_scenario
from ssmmp.harness.scenario import load_scenario

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"
WRAPS = 30  # the entry points that `install` wraps


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_restore_undoes_it():
    spans = _spans_module()
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install(tracer, patches)
        wrapped = list(patches._undo)
        assert len(wrapped) == WRAPS
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, attr
        # A wrapped run still passes and records the Collector's sends.
        report = run_scenario(load_scenario(FIXTURES / "fig1_boot.scenario"),
                              seed=1)
        assert report.ok
        names = [tracer.names[row[1]] for row in tracer.rows()]
        assert names.count("harness.collector.on_send") == len(
            report.messages())
    finally:
        patches.restore()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, attr
