"""Scenario files: cluster layout plus a timed event script.

Format (line-based, '#' comments):

    graph <path-relative-to-scenario>
    manager <addr>
    node <addr> repo=<svc,svc,...> [behavior=<name>]
    settle <ms>
    at <ms> <event> <args...>

Events: user_request, open_session, close_session, exec_instance,
kill_instance, kill_agent, break_link, heal_link, set_health, advance_time,
and expect assertions. Event times must be nondecreasing and every referenced
service must exist in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..cluster import NodeDef
from ..graph import AbstractGraph, parse_graph_file
from ..service_runtime import BEHAVIORS

EVENT_KINDS = {
    "user_request", "open_session", "close_session", "exec_instance",
    "kill_instance", "kill_agent", "break_link", "heal_link", "set_health",
    "advance_time", "expect",
}

EXPECT_CHECKS = {
    "choreography", "session_complete", "user_replies", "agent_isolated",
    "no_session_touching", "dns_targets", "instance_state", "instance_running",
    "session_count", "replay_matches", "reap_window", "open_failed",
}


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioEvent:
    at_ms: int
    kind: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"at {self.at_ms} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass
class Scenario:
    name: str
    graph: AbstractGraph
    graph_path: str
    manager_addr: str
    nodes: list[NodeDef]
    events: list[ScenarioEvent] = field(default_factory=list)
    settle_ms: int = 1000
    manager_port: int = 7000
    latency_range: tuple[int, int] | None = None  # uniform per-hop ms

    def horizon_ms(self) -> int:
        horizon = self.settle_ms
        for ev in self.events:
            end = ev.at_ms + self.settle_ms
            if ev.kind == "advance_time":
                end += int(ev.args[0])
            horizon = max(horizon, end)
        return horizon

    def to_text(self) -> str:
        manager = f"manager {self.manager_addr}"
        if self.manager_port != 7000:
            manager += f" port={self.manager_port}"
        lines = [f"graph {self.graph_path}", manager]
        if self.latency_range is not None:
            lines.append(f"latency {self.latency_range[0]} {self.latency_range[1]}")
        for node in self.nodes:
            line = f"node {node.addr} repo={','.join(node.repo)}"
            if node.behavior != "cascade":
                line += f" behavior={node.behavior}"
            lines.append(line)
        lines.append(f"settle {self.settle_ms}")
        lines.extend(ev.render() for ev in self.events)
        return "\n".join(lines) + "\n"


def _service_args(ev: ScenarioEvent) -> list[str]:
    if ev.kind in ("user_request", "exec_instance", "kill_instance",
                   "open_session", "close_session", "set_health"):
        return [ev.args[0].split(".")[0]]
    return []


def parse_scenario_text(text: str, name: str = "inline",
                        base_dir: str | Path = ".",
                        graph: AbstractGraph | None = None) -> Scenario:
    graph_path = ""
    manager_addr = ""
    manager_port = 7000
    latency_range = None
    nodes: list[NodeDef] = []
    events: list[ScenarioEvent] = []
    settle_ms = 1000
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        head = parts[0]
        try:
            if head == "graph":
                graph_path = parts[1]
            elif head == "manager":
                manager_addr = parts[1]
                for part in parts[2:]:
                    key, _, value = part.partition("=")
                    if key != "port":
                        raise ScenarioError(f"line {line_no}: unknown manager attr {key}")
                    manager_port = int(value)
            elif head == "latency":
                latency_range = (int(parts[1]), int(parts[2]))
                if not 1 <= latency_range[0] <= latency_range[1]:
                    raise ScenarioError(f"line {line_no}: bad latency range")
            elif head == "settle":
                settle_ms = int(parts[1])
            elif head == "node":
                addr = parts[1]
                repo: list[str] = []
                behavior = "cascade"
                for part in parts[2:]:
                    key, _, value = part.partition("=")
                    if key == "repo":
                        repo = [s for s in value.split(",") if s]
                    elif key == "behavior":
                        if value not in BEHAVIORS:
                            raise ScenarioError(
                                f"line {line_no}: unknown behavior {value!r}")
                        behavior = value
                    else:
                        raise ScenarioError(f"line {line_no}: unknown node attr {key}")
                nodes.append(NodeDef(addr, repo, behavior))
            elif head == "at":
                if len(parts) < 3:
                    raise ScenarioError(f"line {line_no}: at <ms> <event> ...")
                at_ms = int(parts[1])
                kind = parts[2]
                if kind not in EVENT_KINDS:
                    raise ScenarioError(f"line {line_no}: unknown event {kind!r}")
                if kind == "expect" and (len(parts) < 4 or parts[3] not in EXPECT_CHECKS):
                    raise ScenarioError(f"line {line_no}: unknown expect check")
                events.append(ScenarioEvent(at_ms, kind, tuple(parts[3:])))
            else:
                raise ScenarioError(f"line {line_no}: unknown directive {head!r}")
        except (ValueError, IndexError) as e:  # a missing or non-integer value
            raise ScenarioError(f"line {line_no}: malformed {head!r}: {line!r}") from e

    if graph is None:
        if not graph_path:
            raise ScenarioError("scenario declares no graph")
        try:
            graph_text = (Path(base_dir) / graph_path).read_text()
        except OSError as e:
            raise ScenarioError(f"cannot read graph {graph_path}: {e.strerror}") from e
        graph = parse_graph_file(graph_text)
    if not manager_addr:
        raise ScenarioError("scenario declares no manager address")
    if not nodes:
        raise ScenarioError("scenario declares no nodes")

    last = 0
    for ev in events:
        if ev.at_ms < last:
            raise ScenarioError(f"event times must be nondecreasing: {ev.render()}")
        last = ev.at_ms
        for svc in _service_args(ev):
            if not graph.has_service(svc):
                raise ScenarioError(f"unknown service {svc!r} in {ev.render()}")
    for node in nodes:
        for svc in node.repo:
            if not graph.has_service(svc):
                raise ScenarioError(f"unknown service {svc!r} in repo of {node.addr}")

    return Scenario(name, graph, graph_path or "<inline>", manager_addr,
                    nodes, events, settle_ms, manager_port, latency_range)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path}: {e.strerror}") from e
    return parse_scenario_text(text, name=path.stem, base_dir=path.parent)
