"""Abstract architecture of a CNApp: services, plugs/sockets, connections.

The app is a directed labeled multigraph. Vertices are service names with a
kind (gateway | regular | baas); edges associate a plug of the source service
with a socket of the destination service. Gateways have in-degree 0 and fixed
socket ports; backend storage services (baas) have out-degree 0 and no plugs.
Graphs are acyclic and immutable after build.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

from .wire import TOKEN_RE


class ServiceKind(Enum):
    GATEWAY = "gateway"
    REGULAR = "regular"
    BAAS = "baas"


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    kind: ServiceKind
    sockets: tuple[str, ...] = ()
    plugs: tuple[str, ...] = ()
    fixed_ports: tuple[tuple[str, int], ...] = ()  # gateways: socket -> port

    @cached_property
    def own_issues(self) -> tuple[GraphIssue, ...]:
        """The violations this declaration has on its own, in check order."""
        issues = []
        ends = self.sockets + self.plugs
        if len(set(ends)) != len(ends):
            seen: set[str] = set()
            for n in ends:
                if n in seen:
                    issues.append(GraphIssue(
                        "DuplicateName", f"{self.name}: socket/plug name {n} reused"))
                seen.add(n)
        if self.kind is ServiceKind.BAAS and self.plugs:
            issues.append(GraphIssue(
                "KindViolation", f"baas {self.name} must have no plugs"))
        if self.kind is ServiceKind.GATEWAY:
            if {k for k, _ in self.fixed_ports} != set(self.sockets):
                issues.append(GraphIssue(
                    "KindViolation",
                    f"gateway {self.name} must fix a port for every socket"))
        elif self.fixed_ports:
            issues.append(GraphIssue(
                "KindViolation", f"{self.name}: only gateways declare fixed ports"))
        return tuple(issues)


class AbstractConnection(NamedTuple):
    source: str
    plug: str
    dest: str
    socket: str

    def __str__(self) -> str:
        return f"({self.source}, ({self.plug}, {self.socket}), {self.dest})"


class GraphIssue(NamedTuple):
    code: str  # CycleDetected | DanglingEndpoint | KindViolation | DuplicatePlugUse | DuplicateName
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class GraphValidationError(Exception):
    def __init__(self, issues: list[GraphIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class UnknownService(KeyError):
    pass


@dataclass(frozen=True)
class AbstractGraph:
    vertices: tuple[ServiceSpec, ...]
    edges: tuple[AbstractConnection, ...]

    def service(self, name: str) -> ServiceSpec:
        for v in self.vertices:
            if v.name == name:
                return v
        raise UnknownService(name)

    def has_service(self, name: str) -> bool:
        return any(v.name == name for v in self.vertices)

    def service_names(self) -> list[str]:
        return [v.name for v in self.vertices]

    def has_edge(self, source: str, plug: str, dest: str, socket: str) -> bool:
        return AbstractConnection(source, plug, dest, socket) in self.edges


def validate_graph(
    specs: Sequence[ServiceSpec], conns: Sequence[AbstractConnection]
) -> list[GraphIssue]:
    """Every violated invariant, in a deterministic order."""
    issues: list[GraphIssue] = []
    # name -> (vertex number of its first declaration, plugs and sockets of
    # its last one)
    vertex: dict[str, tuple[int, tuple[str, ...], tuple[str, ...]]] = {}
    kind_checked: list[tuple[ServiceSpec, int]] = []
    for s in specs:
        name = s.name
        known = vertex.get(name)
        if known is None:
            v = len(vertex)
        else:
            v = known[0]
            issues.append(GraphIssue("DuplicateName", f"service {name} declared twice"))
        vertex[name] = (v, s.plugs, s.sockets)
        if s.own_issues:
            issues += s.own_issues
        if s.kind is not ServiceKind.REGULAR:
            kind_checked.append((s, v))

    in_deg = [0] * len(vertex)
    out_deg = [0] * len(vertex)
    succ: dict[int, list[int]] = {}
    used_plugs: list[tuple[str, str]] = []
    for source, plug, dest, socket in conns:
        src = vertex.get(source)
        dst = vertex.get(dest)
        if src is None or dst is None:
            edge = f"({source}, ({plug}, {socket}), {dest})"
            if src is None:
                issues.append(GraphIssue(
                    "DanglingEndpoint", f"{edge}: unknown source service {source}"))
            if dst is None:
                issues.append(GraphIssue(
                    "DanglingEndpoint", f"{edge}: unknown dest service {dest}"))
            continue
        if plug not in src[1]:
            issues.append(GraphIssue(
                "DanglingEndpoint",
                f"({source}, ({plug}, {socket}), {dest}): {source} has no plug {plug}"))
        if socket not in dst[2]:
            issues.append(GraphIssue(
                "DanglingEndpoint",
                f"({source}, ({plug}, {socket}), {dest}): {dest} has no socket {socket}"))
        i, j = src[0], dst[0]
        out_deg[i] += 1
        in_deg[j] += 1
        if i in succ:
            succ[i].append(j)
        else:
            succ[i] = [j]
        used_plugs.append((source, plug))

    if len(set(used_plugs)) != len(used_plugs):
        for (svc, plug), uses in sorted(Counter(used_plugs).items()):
            if uses > 1:
                issues.append(GraphIssue(
                    "DuplicatePlugUse", f"plug {plug} of {svc} used by {uses} edges"))

    for s, v in kind_checked:
        if s.kind is ServiceKind.GATEWAY:
            if in_deg[v]:
                issues.append(GraphIssue(
                    "KindViolation", f"gateway {s.name} must have in-degree 0"))
        elif out_deg[v]:
            issues.append(GraphIssue(
                "KindViolation", f"baas {s.name} must have out-degree 0"))

    # Only a vertex with edges both in and out can lie on a cycle.
    if any(map(min, in_deg, out_deg)) \
            and _has_cycle(in_deg, succ, len(used_plugs)):
        issues.append(GraphIssue("CycleDetected", "graph contains a directed cycle"))
    return issues


def _has_cycle(in_deg: list[int], succ: dict[int, list[int]],
               arcs: int) -> bool:
    """Kahn's algorithm over vertex numbers: arcs never freed lie on or
    behind a cycle."""
    deg = in_deg[:]
    ready = [v for v in succ if not deg[v]]
    while ready:
        for w in succ[ready.pop()]:
            arcs -= 1
            deg[w] -= 1
            if not deg[w] and w in succ:
                ready.append(w)
    return arcs > 0


def build_graph(
    specs: Sequence[ServiceSpec], conns: Sequence[AbstractConnection]
) -> AbstractGraph:
    issues = validate_graph(specs, conns)
    if issues:
        raise GraphValidationError(issues)
    return AbstractGraph(tuple(specs), tuple(conns))


def topological_order(g: AbstractGraph) -> list[str]:
    """Edge-respecting order, ties broken lexicographically."""
    in_deg = {v.name: 0 for v in g.vertices}
    adj: dict[str, list[str]] = {v.name: [] for v in g.vertices}
    for e in g.edges:
        in_deg[e.dest] += 1
        adj[e.source].append(e.dest)
    ready = [n for n, d in sorted(in_deg.items()) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for nxt in adj[n]:
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order


def outgoing_connections(g: AbstractGraph, service: str) -> list[AbstractConnection]:
    """Edges with the given source, in declaration order."""
    if not g.has_service(service):
        raise UnknownService(service)
    return [e for e in g.edges if e.source == service]


# ---------------------------------------------------------------------------
# Text format
#
#   service <name> kind=<gateway|regular|baas> sockets=<s1,s2> plugs=<p1> [ports=<s1:80>]
#   edge <src> <plug> -> <dst> <socket>
#
# Blank lines and lines starting with '#' are ignored.

class GraphFileError(Exception):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")


_EDGE_RE = re.compile(
    r"edge\s+(\S+)\s+(\S+)\s+->\s+(\S+)\s+(\S+)\Z")


def _parse_csv(value: str, line_no: int) -> tuple[str, ...]:
    if value == "":
        return ()
    items = tuple(value.split(","))
    for item in items:
        if not TOKEN_RE.match(item):
            raise GraphFileError(line_no, f"illegal name {item!r}")
    return items


def parse_graph_file(text: str) -> AbstractGraph:
    specs: list[ServiceSpec] = []
    conns: list[AbstractConnection] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("service "):
            parts = line.split()
            name = parts[1]
            if not TOKEN_RE.match(name):
                raise GraphFileError(line_no, f"illegal service name {name!r}")
            attrs = {}
            for part in parts[2:]:
                if "=" not in part:
                    raise GraphFileError(line_no, f"expected key=value, got {part!r}")
                k, _, v = part.partition("=")
                if k in attrs:
                    raise GraphFileError(line_no, f"duplicate attribute {k}")
                attrs[k] = v
            try:
                kind = ServiceKind(attrs.pop("kind"))
            except (KeyError, ValueError):
                raise GraphFileError(line_no, "kind must be gateway|regular|baas")
            sockets = _parse_csv(attrs.pop("sockets", ""), line_no)
            plugs = _parse_csv(attrs.pop("plugs", ""), line_no)
            ports: list[tuple[str, int]] = []
            if "ports" in attrs:
                for item in attrs.pop("ports").split(","):
                    sock, _, port = item.partition(":")
                    if not re.fullmatch(r"[0-9]+", port):
                        raise GraphFileError(line_no, f"bad port in {item!r}")
                    ports.append((sock, int(port)))
            if attrs:
                raise GraphFileError(line_no, f"unknown attributes {sorted(attrs)}")
            specs.append(ServiceSpec(name, kind, sockets, plugs, tuple(ports)))
        elif line.startswith("edge "):
            m = _EDGE_RE.match(line)
            if not m:
                raise GraphFileError(
                    line_no, "expected: edge <src> <plug> -> <dst> <socket>")
            conns.append(AbstractConnection(
                m.group(1), m.group(2), m.group(3), m.group(4)))
        else:
            raise GraphFileError(line_no, f"unknown directive {line.split()[0]!r}")
    if not specs:
        raise GraphFileError(0, "EmptyGraph: no services declared")
    try:
        return build_graph(specs, conns)
    except GraphValidationError as e:
        raise GraphFileError(0, str(e)) from e


def serialize_graph_file(g: AbstractGraph) -> str:
    lines = []
    for v in g.vertices:
        parts = [
            f"service {v.name}",
            f"kind={v.kind.value}",
            f"sockets={','.join(v.sockets)}",
            f"plugs={','.join(v.plugs)}",
        ]
        if v.fixed_ports:
            parts.append("ports=" + ",".join(f"{s}:{p}" for s, p in v.fixed_ports))
        lines.append(" ".join(parts))
    for e in g.edges:
        lines.append(f"edge {e.source} {e.plug} -> {e.dest} {e.socket}")
    return "\n".join(lines) + "\n"
