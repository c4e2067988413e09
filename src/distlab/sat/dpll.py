"""Chronological-backtracking DPLL with two watched literals.

Deterministic by construction: branching takes the unassigned variables
in ascending index, with the negative phase tried first.  Clauses can be
appended between ``solve`` calls, which makes the solver directly usable
for model enumeration and refinement loops.  One optional budget, in
wall-clock seconds, yields the status ``unknown`` when it runs out.

The solver takes clauses as a :class:`~distlab.sat.cnf.CnfFormula` has
checked them: non-empty, literals non-zero and within the variable count,
no literal repeated and no tautology.  It checks nothing itself.

Literals are encoded internally as ``var << 1 | sign`` with sign 1 for
negative, the usual watched-literal trick for cheap negation by xor.
"""
from __future__ import annotations

import time
from typing import Iterable, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_UNASSIGNED = 0
_TRUE = 1
_FALSE = 2


class DpllSolver:
    def __init__(self, var_count: int, clauses: Iterable[Sequence[int]] = ()):
        self.var_count = var_count
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * var_count + 2)]
        self.units: list[int] = []
        self.stats = {"decisions": 0, "conflicts": 0, "propagations": 0}
        for c in clauses:
            self.add_clause(c)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Watch one checked clause (see the module docstring)."""
        enc = [lit << 1 if lit > 0 else -lit << 1 | 1 for lit in lits]
        if len(enc) == 1:
            self.units.append(enc[0])
            return
        ci = len(self.clauses)
        self.clauses.append(enc)
        self.watches[enc[0]].append(ci)
        self.watches[enc[1]].append(ci)

    def solve(self, time_budget: float | None = None) -> tuple[str, dict[int, bool] | None]:
        """Returns (status, model); model maps every variable to a bool."""
        nv = self.var_count
        assign = bytearray(nv + 1)
        trail: list[int] = []
        qhead = 0
        deadline = time.monotonic() + time_budget if time_budget is not None else None
        watches = self.watches
        clauses = self.clauses
        stats = self.stats

        def value(enc_lit: int) -> int:
            a = assign[enc_lit >> 1]
            if a == _UNASSIGNED:
                return _UNASSIGNED
            return _TRUE if (a == _TRUE) == (enc_lit & 1 == 0) else _FALSE

        def enqueue(enc_lit: int) -> bool:
            var = enc_lit >> 1
            want = _FALSE if enc_lit & 1 else _TRUE
            cur = assign[var]
            if cur != _UNASSIGNED:
                return cur == want
            assign[var] = want
            trail.append(enc_lit)
            return True

        def propagate() -> bool:
            nonlocal qhead
            while qhead < len(trail):
                p = trail[qhead]
                qhead += 1
                stats["propagations"] += 1
                falsified = p ^ 1
                ws = watches[falsified]
                kept: list[int] = []
                wi = 0
                nws = len(ws)
                while wi < nws:
                    ci = ws[wi]
                    wi += 1
                    cl = clauses[ci]
                    if cl[0] == falsified:
                        cl[0], cl[1] = cl[1], cl[0]
                    first = cl[0]
                    v0 = value(first)
                    if v0 == _TRUE:
                        kept.append(ci)
                        continue
                    moved = False
                    for t in range(2, len(cl)):
                        if value(cl[t]) != _FALSE:
                            cl[1], cl[t] = cl[t], cl[1]
                            watches[cl[1]].append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                    kept.append(ci)
                    if v0 == _FALSE:
                        kept.extend(ws[wi:])
                        watches[falsified] = kept
                        return False
                    enqueue(first)
                watches[falsified] = kept
            return True

        for u in self.units:
            if not enqueue(u):
                return UNSAT, None

        # decision stack entries: [enc_lit, flipped, trail_mark, var]
        decisions: list[list[int]] = []
        var = 1
        while True:
            ok = propagate()
            if not ok:
                stats["conflicts"] += 1
                if deadline is not None and time.monotonic() > deadline:
                    return UNKNOWN, None
                while decisions and decisions[-1][1]:
                    mark = decisions.pop()[2]
                    for enc_lit in trail[mark:]:
                        assign[enc_lit >> 1] = _UNASSIGNED
                    del trail[mark:]
                if not decisions:
                    return UNSAT, None
                dec = decisions[-1]
                mark = dec[2]
                for enc_lit in trail[mark:]:
                    assign[enc_lit >> 1] = _UNASSIGNED
                del trail[mark:]
                qhead = mark
                dec[0] ^= 1
                dec[1] = 1
                var = dec[3]
                enqueue(dec[0])
                continue
            while var <= nv and assign[var] != _UNASSIGNED:
                var += 1
            if var > nv:
                model = {v: assign[v] == _TRUE for v in range(1, nv + 1)}
                return SAT, model
            stats["decisions"] += 1
            enc_lit = (var << 1) | 1  # negative phase first
            decisions.append([enc_lit, 0, len(trail), var])
            enqueue(enc_lit)
