"""Drive an external DIMACS SAT solver through a subprocess.

The solver command gets one argument, a path to a DIMACS CNF file, and
must print an ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status line plus
``v`` literal lines for models, the standard competition output.  Exit
codes are ignored on purpose: the common solvers exit 10/20.  A missing
binary or output with no status line raises :class:`SolverError`, kept
distinct from an unsatisfiable answer.  A time budget at or above
``threading.TIMEOUT_MAX`` (``inf`` included) means no timeout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import threading

from .cnf import CnfFormula, emit_dimacs
from .dpll import SAT, UNKNOWN, UNSAT


class SolverError(RuntimeError):
    pass


def run_external(
    solver_cmd: str | list[str],
    formula: CnfFormula,
    time_budget: float | None = None,
) -> tuple[str, dict[int, bool] | None]:
    """Solve ``formula``; returns (status, model or None).

    ``unknown`` covers both solver-reported UNKNOWN and a timeout.
    """
    argv = shlex.split(solver_cmd) if isinstance(solver_cmd, str) else list(solver_cmd)
    if not argv:
        raise SolverError("empty solver command")
    if time_budget is not None and time_budget >= threading.TIMEOUT_MAX:
        time_budget = None
    fd, path = tempfile.mkstemp(suffix=".cnf", prefix="distlab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(emit_dimacs(formula))
        try:
            proc = subprocess.run(
                argv + [path],
                capture_output=True,
                text=True,
                timeout=time_budget,
            )
        except FileNotFoundError as exc:
            raise SolverError(f"solver binary not found: {argv[0]!r}") from exc
        except subprocess.TimeoutExpired:
            return UNKNOWN, None
        return _parse_output(proc.stdout, argv[0])
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _parse_output(stdout: str, name: str) -> tuple[str, dict[int, bool] | None]:
    status = None
    lits: list[int] = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            word = line[2:].strip().upper()
            if word == "SATISFIABLE":
                status = SAT
            elif word == "UNSATISFIABLE":
                status = UNSAT
            else:
                status = UNKNOWN
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                lit = int(tok)
                if lit != 0:
                    lits.append(lit)
    if status is None:
        raise SolverError(f"no status line in output of {name!r}")
    if status != SAT:
        return status, None
    if not lits:
        raise SolverError(f"{name!r} reported SAT without a model")
    model = {abs(lit): lit > 0 for lit in lits}
    return SAT, model
