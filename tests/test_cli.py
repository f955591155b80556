"""CLI surface: validate, run, conformance, trace."""

from pathlib import Path

from conftest import FIXTURES

from ssmmp.cli import main

GOLDEN = Path(__file__).parent.parent / "conformance"


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURES / "fig1.graph")]) == 0
    out = capsys.readouterr().out
    assert "OK: 8 services, 7 connections" in out
    assert out.splitlines()[1].startswith("order: A ->")


def test_validate_cyclic_fails(capsys):
    assert main(["validate", str(FIXTURES / "cyclic.graph")]) == 1
    assert "CycleDetected" in capsys.readouterr().out


def test_conformance_all_pass(capsys):
    assert main(["conformance", str(GOLDEN)]) == 0
    out = capsys.readouterr().out
    assert "31/31 conformant" in out


def test_conformance_detects_drift(tmp_path, capsys):
    assert main(["conformance", str(tmp_path), "--regen"]) == 0
    victim = next(tmp_path.glob("session_ack__*.msg"))
    victim.write_bytes(victim.read_bytes().replace(b"200", b"201"))
    assert main(["conformance", str(tmp_path)]) == 1
    assert "serializer output differs" in capsys.readouterr().out


def test_run_and_trace(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(["run", str(FIXTURES / "fig1_boot.scenario"),
                 "--seed", "42", "--out", str(out_file)])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out
    assert out_file.exists()

    assert main(["trace", str(out_file), "--type", "session_ack"]) == 0
    out = capsys.readouterr().out
    assert "session_ack" in out
    assert main(["trace", str(out_file), "--instance", "B.1"]) == 0
    out = capsys.readouterr().out
    assert "dest_service_name: B" in out or "service_name: B" in out


def test_run_failing_expectation_exits_nonzero(tmp_path, capsys):
    scenario = tmp_path / "bad.scenario"
    scenario.write_text(
        f"graph {FIXTURES / 'fig1.graph'}\n"
        "manager fd00::1\n"
        "node fd00::a1 repo=A,B\n"
        "at 100 expect instance_running B 5\n")
    assert main(["run", str(scenario), "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_of_an_invalid_scenario_prints_one_line(tmp_path, capsys):
    scenario = tmp_path / "bogus.scenario"
    scenario.write_text(
        f"graph {FIXTURES / 'fig1.graph'}\n"
        "manager fd00::1\n"
        "node fd00::a1 repo=A,B behavior=bogus\n")
    assert main(["run", str(scenario), "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["INVALID: line 3: unknown behavior 'bogus'"]


def test_run_of_a_malformed_or_missing_input_prints_one_line(tmp_path,
                                                             capsys):
    scenario = tmp_path / "bad.scenario"
    for body, line in (
            ("graph missing.graph\n", "INVALID: cannot read graph "
             "missing.graph: No such file or directory"),
            ("settle abc\n", "INVALID: line 1: malformed 'settle': "
             "'settle abc'")):
        scenario.write_text(body + "manager fd00::1\nnode fd00::a1 repo=A\n")
        assert main(["run", str(scenario), "--seed", "1"]) == 1
        assert capsys.readouterr().out.splitlines() == [line]
    missing = tmp_path / "missing.scenario"
    assert main(["run", str(missing), "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"INVALID: cannot read scenario {missing}: No such file or directory"]


def test_trace_with_a_malformed_session_prints_one_line(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    assert main(["run", str(FIXTURES / "fig1_boot.scenario"),
                 "--seed", "1", "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["trace", str(out_file), "--session", "1,2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "bad --session '1,2': want M,K,L"]
