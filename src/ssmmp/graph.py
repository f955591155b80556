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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


@dataclass(frozen=True)
class AbstractConnection:
    source: str
    plug: str
    dest: str
    socket: str

    def __str__(self) -> str:
        return f"({self.source}, ({self.plug}, {self.socket}), {self.dest})"


@dataclass(frozen=True)
class GraphIssue:
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
    names = [s.name for s in specs]
    by_name = {}
    for s in specs:
        if s.name in by_name:
            issues.append(GraphIssue("DuplicateName", f"service {s.name} declared twice"))
        by_name[s.name] = s
        seen: set[str] = set()
        for n in s.sockets + s.plugs:
            if n in seen:
                issues.append(GraphIssue(
                    "DuplicateName", f"{s.name}: socket/plug name {n} reused"))
            seen.add(n)
        if s.kind is ServiceKind.BAAS and s.plugs:
            issues.append(GraphIssue(
                "KindViolation", f"baas {s.name} must have no plugs"))
        if s.kind is ServiceKind.GATEWAY:
            covered = {k for k, _ in s.fixed_ports}
            if covered != set(s.sockets):
                issues.append(GraphIssue(
                    "KindViolation",
                    f"gateway {s.name} must fix a port for every socket"))
        elif s.fixed_ports:
            issues.append(GraphIssue(
                "KindViolation", f"{s.name}: only gateways declare fixed ports"))

    in_deg = {n: 0 for n in names}
    out_deg = {n: 0 for n in names}
    plug_uses: dict[tuple[str, str], int] = {}
    for e in conns:
        ok = True
        for end, role in ((e.source, "source"), (e.dest, "dest")):
            if end not in by_name:
                issues.append(GraphIssue(
                    "DanglingEndpoint", f"{e}: unknown {role} service {end}"))
                ok = False
        if not ok:
            continue
        if e.plug not in by_name[e.source].plugs:
            issues.append(GraphIssue(
                "DanglingEndpoint", f"{e}: {e.source} has no plug {e.plug}"))
        if e.socket not in by_name[e.dest].sockets:
            issues.append(GraphIssue(
                "DanglingEndpoint", f"{e}: {e.dest} has no socket {e.socket}"))
        in_deg[e.dest] += 1
        out_deg[e.source] += 1
        plug_uses[(e.source, e.plug)] = plug_uses.get((e.source, e.plug), 0) + 1

    for (svc, plug), uses in sorted(plug_uses.items()):
        if uses > 1:
            issues.append(GraphIssue(
                "DuplicatePlugUse", f"plug {plug} of {svc} used by {uses} edges"))

    for s in specs:
        if s.kind is ServiceKind.GATEWAY and in_deg.get(s.name, 0):
            issues.append(GraphIssue(
                "KindViolation", f"gateway {s.name} must have in-degree 0"))
        if s.kind is ServiceKind.BAAS and out_deg.get(s.name, 0):
            issues.append(GraphIssue(
                "KindViolation", f"baas {s.name} must have out-degree 0"))

    if _has_cycle(names, conns):
        issues.append(GraphIssue("CycleDetected", "graph contains a directed cycle"))
    return issues


def _has_cycle(names: Sequence[str], conns: Sequence[AbstractConnection]) -> bool:
    adj: dict[str, list[str]] = {n: [] for n in names}
    for e in conns:
        if e.source in adj and e.dest in adj:
            adj[e.source].append(e.dest)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    for start in adj:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


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
