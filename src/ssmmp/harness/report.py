"""Trace report: everything one scenario run produced, as line-based text.

The text form is the determinism unit: equal (scenario, seed) pairs must
produce byte-identical reports. It is also parseable, so the trace CLI can
filter message flows out of a stored report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .. import wire


@dataclass
class TraceRecord:
    seq: int
    time_ms: int
    kind: str  # net | msg | decision
    src: str = ""
    dst: str = ""
    text: str = ""
    _parsed: wire.Message | None = field(
        default=None, repr=False, compare=False)

    def render(self) -> str:
        if self.kind == "net":
            return f"{self.seq:05d} t={self.time_ms} net {self.text}"
        if self.kind == "msg":
            return (f"{self.seq:05d} t={self.time_ms} msg {self.src} -> "
                    f"{self.dst} :: {self.text}")
        return f"{self.seq:05d} t={self.time_ms} decision :: {self.text}"

    def message(self) -> wire.Message:
        if self.kind != "msg":
            raise ValueError("not a message record")
        if self._parsed is None:
            self._parsed = wire.parse_summary(self.text)
        return self._parsed


_MSG_LINE = re.compile(
    r"(\d+) t=(\d+) msg (\S+) -> (\S+) :: (.*)\Z")
_NET_LINE = re.compile(r"(\d+) t=(\d+) net (.*)\Z")
_DECISION_LINE = re.compile(r"(\d+) t=(\d+) decision :: (.*)\Z")


def parse_trace_line(line: str) -> TraceRecord | None:
    m = _MSG_LINE.match(line)
    if m:
        return TraceRecord(int(m.group(1)), int(m.group(2)), "msg",
                           m.group(3), m.group(4), m.group(5))
    m = _DECISION_LINE.match(line)
    if m:
        return TraceRecord(int(m.group(1)), int(m.group(2)), "decision",
                           text=m.group(3))
    m = _NET_LINE.match(line)
    if m:
        return TraceRecord(int(m.group(1)), int(m.group(2)), "net",
                           text=m.group(3))
    return None


@dataclass
class Verdict:
    ok: bool
    name: str
    detail: str = ""

    def render(self) -> str:
        out = f"{'PASS' if self.ok else 'FAIL'} {self.name}"
        if self.detail:
            out += f" :: {self.detail}"
        return out


@dataclass
class TraceReport:
    scenario: str
    seed: int
    records: list[TraceRecord] = field(default_factory=list)
    manager_lines: list[str] = field(default_factory=list)
    invariants: list[Verdict] = field(default_factory=list)
    expects: list[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.invariants + self.expects)

    def messages(self) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == "msg"]

    def to_text(self) -> str:
        lines = [
            "ssmmp-report v1",
            f"scenario: {self.scenario}",
            f"seed: {self.seed}",
            f"result: {'PASS' if self.ok else 'FAIL'}",
            "== trace ==",
        ]
        lines.extend(r.render() for r in self.records)
        lines.append("== manager ==")
        lines.extend(self.manager_lines)
        lines.append("== invariants ==")
        lines.extend(v.render() for v in self.invariants)
        lines.append("== expects ==")
        lines.extend(v.render() for v in self.expects)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> TraceReport:
        lines = text.splitlines()
        if not lines or lines[0] != "ssmmp-report v1":
            raise ValueError("not an ssmmp report")
        scenario = lines[1].removeprefix("scenario: ")
        seed = int(lines[2].removeprefix("seed: "))
        report = cls(scenario, seed)
        section = ""
        for line in lines[3:]:
            if line.startswith("== ") and line.endswith(" =="):
                section = line[3:-3]
                continue
            if section == "trace":
                rec = parse_trace_line(line)
                if rec is not None:
                    report.records.append(rec)
            elif section == "manager":
                report.manager_lines.append(line)
            elif section in ("invariants", "expects"):
                ok = line.startswith("PASS ")
                body = line[5:]
                name, _, detail = body.partition(" :: ")
                verdict = Verdict(ok, name, detail)
                (report.invariants if section == "invariants"
                 else report.expects).append(verdict)
        return report


def manager_snapshot(manager) -> list[str]:
    """Deterministic line rendering of the control plane's final state."""
    lines = []
    for addr in sorted(manager.agents):
        rec = manager.agents[addr]
        lines.append(f"agent {addr} status={rec.status.value} "
                     f"repo={wire.format_name_list(rec.repository)}")
    instances = {**manager.closed_instances, **manager.instances}
    for key in sorted(instances):
        inst = instances[key]
        sockets = wire.format_pair_list(sorted(inst.socket_ports.items()))
        plugs = wire.format_pair_list(sorted(inst.plug_config.items()))
        lines.append(
            f"instance {inst.service} {inst.instance_id} node={inst.node_address} "
            f"state={inst.state.value} gateway={int(inst.is_gateway)} "
            f"sockets={sockets} plugs={plugs}")
    for s in manager.sessions:
        lines.append(
            f"session {s.state.value} src={s.source_service_name} "
            f"i={s.source_instance_id} na_i={s.source_address} plug={s.plug_name} "
            f"m={s.plug_port if s.plug_port is not None else '-'} "
            f"dst={s.dest_service_name} j={s.dest_instance_id} "
            f"na_j={s.dest_address} socket={s.socket_name} k={s.socket_port} "
            f"l={s.session_port if s.session_port is not None else '-'} "
            f"reason={s.close_reason or '-'}")
    for alias in sorted(manager.dns.cname_records):
        for canonical in manager.dns.targets(alias):
            addr = manager.dns.a_records.get(canonical, "-")
            lines.append(f"dns {alias} {canonical} {addr}")
    return lines
