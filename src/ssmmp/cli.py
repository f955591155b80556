"""The ssmmp command line.

    ssmmp validate <graph>
    ssmmp run <scenario> --seed N [--tcp] [--out FILE]
    ssmmp conformance <dir> [--regen]
    ssmmp trace <report> [--session M,K,L] [--instance SVC[.ID]] [--type T]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import GraphFileError, parse_graph_file, topological_order


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = parse_graph_file(Path(args.graph).read_text())
    except GraphFileError as e:
        print(f"INVALID: {e}")
        return 1
    order = " -> ".join(topological_order(g))
    print(f"OK: {len(g.vertices)} services, {len(g.edges)} connections")
    print(f"order: {order}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .harness.scenario import ScenarioError, load_scenario
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, GraphFileError) as e:
        print(f"INVALID: {e}")
        return 1
    if args.tcp:
        from .harness.tcp_runner import run_scenario_tcp
        report = run_scenario_tcp(scenario, args.seed)
    else:
        from .harness.runner import run_scenario
        report = run_scenario(scenario, args.seed)
    for v in report.invariants:
        print(v.render())
    for v in report.expects:
        print(v.render())
    if args.out:
        Path(args.out).write_text(report.to_text())
        print(f"report written to {args.out}")
    print(f"result: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_conformance(args: argparse.Namespace) -> int:
    from .harness import conformance
    if args.regen:
        n = conformance.write_golden_files(args.dir)
        print(f"regenerated {n} golden files in {args.dir}")
        return 0
    results = conformance.check_conformance(args.dir)
    failed = 0
    for stem, ok, detail in results:
        if ok:
            print(f"PASS {stem}")
        else:
            failed += 1
            print(f"FAIL {stem} :: {detail}")
    print(f"{len(results) - failed}/{len(results)} conformant")
    return 0 if failed == 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .harness.report import TraceReport
    try:
        report = TraceReport.from_text(Path(args.report).read_text())
    except (ValueError, OSError) as e:
        print(f"cannot read report: {e}")
        return 1
    session = tuple(args.session.split(",")) if args.session else None
    if session is not None and len(session) != 3:
        print(f"bad --session {args.session!r}: want M,K,L")
        return 1
    shown = 0
    for rec in report.records:
        if rec.kind != "msg":
            continue
        msg = rec.message()
        if args.type and msg.msg_type.value != args.type:
            continue
        if args.instance:
            service, _, iid = args.instance.partition(".")
            fields = dict(msg.fields)
            names = {fields.get("service_name"),
                     fields.get("source_service_name"),
                     fields.get("dest_service_name")}
            if service not in names:
                continue
            if iid and iid not in (fields.get("service_instance_id"),
                                   fields.get("source_service_instance_id"),
                                   fields.get("dest_service_instance_id")):
                continue
        if session is not None:
            fields = dict(msg.fields)
            if (fields.get("source_plug_port"), fields.get("dest_socket_port"),
                    fields.get("dest_socket_new_port")) != session:
                continue
        print(rec.render())
        shown += 1
    print(f"{shown} messages")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmmp", description="service mesh management protocol harness")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tcp", action="store_true",
                   help="run over loopback TCP instead of the simulator")
    p.add_argument("--out", help="write the full report to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("conformance", help="check golden wire files")
    p.add_argument("dir")
    p.add_argument("--regen", action="store_true",
                   help="rewrite the golden files from the templates")
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("trace", help="filter message flows out of a report")
    p.add_argument("report")
    p.add_argument("--session", help="M,K,L port triple")
    p.add_argument("--instance", help="SERVICE or SERVICE.ID")
    p.add_argument("--type", help="message type name")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
