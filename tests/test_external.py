import os
import stat
import subprocess
import sys

import pytest

from distlab.sat.cnf import CnfFormula, emit_dimacs
from distlab.sat.external import SolverError, run_external


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


SMALL = CnfFormula(3, [[1, -2], [2, 3], [-1, -3]])


def test_sat_output_parsed(tmp_path):
    cmd = _script(
        tmp_path,
        "sat.sh",
        'echo "c banner"\necho "s SATISFIABLE"\necho "v 1 -2"\necho "v 3 0"\nexit 10\n',
    )
    status, model = run_external(cmd, SMALL)
    assert status == "sat"
    assert model == {1: True, 2: False, 3: True}


def test_unsat_output_parsed(tmp_path):
    cmd = _script(tmp_path, "unsat.sh", 'echo "s UNSATISFIABLE"\nexit 20\n')
    assert run_external(cmd, SMALL) == ("unsat", None)


def test_unknown_output_parsed(tmp_path):
    cmd = _script(tmp_path, "unk.sh", 'echo "s UNKNOWN"\nexit 0\n')
    assert run_external(cmd, SMALL) == ("unknown", None)


def test_exit_code_is_ignored(tmp_path):
    cmd = _script(tmp_path, "weird.sh", 'echo "s UNSATISFIABLE"\nexit 73\n')
    assert run_external(cmd, SMALL) == ("unsat", None)


def test_missing_status_line_raises(tmp_path):
    cmd = _script(tmp_path, "chatty.sh", 'echo "c thinking"\nexit 0\n')
    with pytest.raises(SolverError):
        run_external(cmd, SMALL)


def test_sat_without_model_raises(tmp_path):
    cmd = _script(tmp_path, "liar.sh", 'echo "s SATISFIABLE"\nexit 10\n')
    with pytest.raises(SolverError):
        run_external(cmd, SMALL)


def test_missing_binary_raises():
    with pytest.raises(SolverError) as exc:
        run_external("/no/such/solver-binary", SMALL)
    assert "not found" in str(exc.value)
    with pytest.raises(SolverError):
        run_external([], SMALL)


def test_timeout_returns_unknown(tmp_path):
    cmd = _script(tmp_path, "slow.sh", "sleep 30\n")
    assert run_external(cmd, SMALL, time_budget=0.3) == ("unknown", None)


def test_command_string_with_arguments(tmp_path):
    body = 'if [ "$1" = "--mode" ]; then shift 2; fi\necho "s UNSATISFIABLE"\n'
    cmd = _script(tmp_path, "argy.sh", body)
    assert run_external(f"{cmd} --mode fast", SMALL) == ("unsat", None)
    assert run_external([cmd, "--mode", "fast"], SMALL) == ("unsat", None)


def test_input_file_is_dimacs_and_cleaned_up(tmp_path):
    record = tmp_path / "seen.txt"
    body = f'cp "$1" "{record}.cnf"\necho "$1" > "{record}"\necho "s UNSATISFIABLE"\n'
    cmd = _script(tmp_path, "rec.sh", body)
    run_external(cmd, SMALL)
    passed_path = record.read_text().strip()
    assert not os.path.exists(passed_path)
    assert (tmp_path / "seen.txt.cnf").read_text() == emit_dimacs(SMALL)


def _run_cli(args, stdin_text=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "distlab.sat.dimacs_cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
    )


def test_dimacs_cli_sat(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(SMALL))
    proc = _run_cli([str(path)])
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout
    assert proc.stdout.strip().endswith("v 0")


def test_dimacs_cli_closes_its_input_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(SMALL))
    proc = _run_cli([str(path)], flags=("-X", "dev", "-W", "error::ResourceWarning"))
    assert proc.returncode == 10
    assert "Warning" not in proc.stderr


def test_dimacs_cli_unsat_and_stdin():
    f = CnfFormula(1, [[1], [-1]])
    proc = _run_cli(["-"], stdin_text=emit_dimacs(f))
    assert proc.returncode == 20
    assert "s UNSATISFIABLE" in proc.stdout


def test_dimacs_cli_solves_a_tautology():
    proc = _run_cli(["-"], stdin_text="p cnf 2 2\n1 -1 0\n2 0\n")
    assert proc.returncode == 10
    assert proc.stdout.splitlines()[0] == "s SATISFIABLE"


def test_dimacs_cli_refutes_an_empty_clause():
    proc = _run_cli(["-"], stdin_text="p cnf 1 1\n0\n")
    assert proc.returncode == 20
    assert proc.stdout.splitlines() == ["s UNSATISFIABLE"]


def test_dimacs_cli_bad_input(tmp_path):
    path = tmp_path / "junk.cnf"
    path.write_text("not dimacs\n")
    proc = _run_cli([str(path)])
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert _run_cli(["/no/such/file.cnf"]).returncode == 2


def test_dimacs_cli_as_external_solver():
    cmd = [sys.executable, "-m", "distlab.sat.dimacs_cli"]
    status, model = run_external(cmd, SMALL)
    assert status == "sat"
    lit_ok = lambda lit: (lit > 0) == model[abs(lit)]
    assert all(any(lit_ok(lit) for lit in clause) for clause in SMALL.clauses)
    unsat = CnfFormula(2, [[1], [-1]])
    assert run_external(cmd, unsat) == ("unsat", None)


def test_dimacs_cli_long_model_chunks(tmp_path):
    f = CnfFormula(50, [[v] for v in range(1, 51)])
    path = tmp_path / "wide.cnf"
    path.write_text(emit_dimacs(f))
    proc = _run_cli([str(path)])
    vlines = [ln for ln in proc.stdout.splitlines() if ln.startswith("v ")]
    assert len(vlines) == 4  # 20 + 20 + 10 literals, then the closing v 0
    status, model = run_external([sys.executable, "-m", "distlab.sat.dimacs_cli"], f)
    assert status == "sat"
    assert all(model[v] for v in range(1, 51))
