"""Run the built-in DPLL solver on a DIMACS file, competition-style output.

Usage: ``python -m distlab.sat.dimacs_cli FILE`` (or ``-`` for stdin).
Prints ``s SATISFIABLE`` with ``v`` lines, ``s UNSATISFIABLE``, or
``s UNKNOWN`` when ``--budget-seconds`` runs out.  This makes the
built-in solver usable anywhere an external DIMACS solver is expected.
Unreadable or malformed input and a NaN budget exit 2 with an ``error:``
line.
"""
from __future__ import annotations

import argparse
import math
import sys

from .cnf import parse_dimacs
from .dpll import SAT, UNSAT, DpllSolver


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="DIMACS CNF path, or - for stdin")
    parser.add_argument("--budget-seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.budget_seconds is not None and math.isnan(args.budget_seconds):
        print("error: --budget-seconds must be a number, got nan", file=sys.stderr)
        return 2
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
        formula = parse_dimacs(text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    solver = DpllSolver(formula.var_count, formula.clauses)
    status, model = solver.solve(time_budget=args.budget_seconds)
    if status == SAT:
        print("s SATISFIABLE")
        lits = [v if model[v] else -v for v in sorted(model)]
        for start in range(0, len(lits), 20):
            chunk = lits[start:start + 20]
            print("v " + " ".join(str(lit) for lit in chunk))
        print("v 0")
        return 10
    if status == UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
