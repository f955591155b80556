import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ssmmp.cluster import Cluster, NodeDef
from ssmmp.graph import parse_graph_file
from ssmmp.harness.generator import generate_scenario
from ssmmp.harness.runner import Collector
from ssmmp.harness.scenario import load_scenario
from ssmmp.transport import SimNetwork

FIXTURES = Path(__file__).parent.parent / "fixtures"

FIG1_TEXT = (FIXTURES / "fig1.graph").read_text()


@pytest.fixture
def fig1_graph():
    return parse_graph_file(FIG1_TEXT)


def make_cluster(graph, nodes, seed=1, horizon_ms=120_000, **kwargs):
    """Booted cluster with registered agents; caller drives the rest."""
    net = SimNetwork(seed=seed)
    net.horizon_ms = horizon_ms
    cluster = Cluster(net, [graph], "fd00::1",
                      [NodeDef(addr, repo) for addr, repo in nodes], **kwargs)
    cluster.start()
    net.run(until_ms=20)
    return net, cluster


def observe(net):
    """Attach a Collector to `net` as its observer, and return it."""
    net.observer = Collector(net)
    return net.observer


def sent_messages(collector):
    """The control messages sent while observed, as their senders built them."""
    return [rec.message() for rec in collector.messages()]


def sweep_scenarios():
    """(name, scenario) for the fixture scenarios and four generated mixed
    ones: the runs whose every quiescent point the sweep tests inspect."""
    out = [(path.stem, load_scenario(path))
           for path in sorted(FIXTURES.glob("*.scenario"))]
    out += [(f"mixed-{seed}", generate_scenario(seed, "mixed"))
            for seed in (3, 17, 42, 101)]
    return out
