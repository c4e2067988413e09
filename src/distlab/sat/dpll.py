"""Chronological-backtracking DPLL with implication lists and two watched literals.

Deterministic by construction: branching takes the unassigned variables
in ascending index, with the negative phase tried first.  Variables above
the largest that occurs in a clause get no list and no decision, and a
model sets them False.  Clauses can be appended between ``solve`` calls,
which makes the solver directly usable for model enumeration and
refinement loops.  One optional budget, in wall-clock seconds, yields the
status ``unknown`` when it runs out.

The solver takes clauses as a :class:`~distlab.sat.cnf.CnfFormula` has
checked them: non-empty, literals non-zero and within the variable count,
no literal repeated and no tautology.  It checks nothing itself.

Literals are encoded internally as ``var << 1 | sign`` with sign 1 for
negative, so ``lit ^ 1`` is the negation.  The assignment is one
``bytearray`` indexed by encoded literal: ``true[lit]`` is set while
``lit`` is true, and ``lit`` is false iff ``true[lit ^ 1]``.

Clauses are stored by length.  Each ``solve`` enqueues the unit clauses
first.  A binary clause (a or b) lives in two implication lists:
``implied[a]`` holds b and ``implied[b]`` holds a, the literals that must
be true once the list's own literal is false.  A clause of three or more
literals is watched on its first two: ``watches[lit]`` holds the clause
lists watched on ``lit``.  The constructor and ``add_clause`` store
clauses through one loop, which encodes a binary clause's two literals
without building a list, and the lists grow only when a literal passes
``top``.  Propagation takes each literal off the trail
and, for its negation, walks the implication list, enqueueing each
implied literal or stopping at a conflict, then the watched clauses.
A watched clause whose other watch is not true looks for a replacement
from its third literal on; the third is tested inline, since most
clauses the encoder makes have three literals, and only a longer clause
whose third literal is false goes on to scan the rest.

Each decision is remembered by its position ``p`` on the trail, as in
MiniSat (Eén & Sörensson, SAT 2003): its literal is ``trail[p]`` and
everything from ``p`` on is implied by it.  Since the negative phase is
tried first, a decision whose literal is positive has already been
flipped.  A conflict pops the flipped decisions, unassigns the trail once
from the deepest open decision's position, and enqueues that decision's
negation there; the refuted prefix is ``trail[p] for p in decisions``.

Unit propagation reaches the same closure, or a conflict, in any order,
so the branching order alone fixes the search: the ``decisions`` and
``conflicts`` counts and the model stay the same however clauses are
stored or visited, and tests pin them.  ``propagations`` counts the
literals taken off the trail, so it also follows the visiting order,
which decides how much of the trail is still unread at a conflict.
"""
from __future__ import annotations

import time
from typing import Iterable, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class DpllSolver:
    def __init__(self, var_count: int, clauses: Iterable[Sequence[int]] = ()):
        self.var_count = var_count
        self.units: list[int] = []
        self.top = 1  # the largest encoded literal so far, with its sign bit set
        self.implied: list[list[int]] = [[], []]
        self.watches: list[list[list[int]]] = [[], []]
        self.stats = {"decisions": 0, "conflicts": 0, "propagations": 0}
        self._load(clauses)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Store one checked clause (see the module docstring)."""
        self._load((lits,))

    def _load(self, clauses: Iterable[Sequence[int]]) -> None:
        units = self.units
        implied = self.implied
        watches = self.watches
        top = self.top
        for lits in clauses:
            if len(lits) == 2:
                a, b = lits
                a = a << 1 if a > 0 else -a << 1 | 1
                b = b << 1 if b > 0 else -b << 1 | 1
                if a > top or b > top:
                    top = self._cover(a if a > b else b)
                implied[a].append(b)
                implied[b].append(a)
                continue
            enc = [lit << 1 if lit > 0 else -lit << 1 | 1 for lit in lits]
            big = max(enc)
            if big > top:
                top = self._cover(big)
            if len(enc) == 1:
                units.append(big)
            else:
                watches[enc[0]].append(enc)
                watches[enc[1]].append(enc)

    def _cover(self, lit: int) -> int:
        """Raise ``top`` to ``lit`` with its sign bit set, growing the lists
        to at least double, up to the declared count, if they end below it."""
        top = self.top = lit | 1
        have = len(self.implied)
        if top >= have:
            extra = min(top + have, 2 * self.var_count + 2) - have
            self.implied += [[] for _ in range(extra)]
            self.watches += [[] for _ in range(extra)]
        return top

    def solve(self, time_budget: float | None = None) -> tuple[str, dict[int, bool] | None]:
        """Returns (status, model); model maps every variable to a bool."""
        nv = self.top >> 1  # the largest variable that occurs
        true = bytearray(len(self.implied))
        trail: list[int] = []
        qhead = 0
        deadline = time.monotonic() + time_budget if time_budget is not None else None
        implied = self.implied
        watches = self.watches
        stats = self.stats

        def propagate() -> bool:
            """Propagate the trail from ``qhead``, counting the literals
            taken off it in ``propagations``; False on a conflict."""
            nonlocal qhead
            q = qhead
            ok = True
            while ok and q < len(trail):
                falsified = trail[q] ^ 1
                q += 1
                for lit in implied[falsified]:
                    if not true[lit]:
                        if true[lit ^ 1]:
                            ok = False
                            break
                        true[lit] = 1
                        trail.append(lit)
                if not ok:
                    break
                ws = watches[falsified]
                if not ws:
                    continue
                kept: list[list[int]] = []
                unvisited = iter(ws)
                for cl in unvisited:
                    if cl[0] == falsified:
                        cl[0], cl[1] = cl[1], cl[0]
                    first = cl[0]
                    if true[first]:
                        kept.append(cl)
                        continue
                    # cl[1] is falsified: watch the first literal from
                    # cl[2] on that is not false in its place
                    lit = cl[2]
                    t = 2
                    if true[lit ^ 1]:
                        for t in range(3, len(cl)):
                            lit = cl[t]
                            if not true[lit ^ 1]:
                                break
                        else:
                            kept.append(cl)
                            if true[first ^ 1]:
                                kept.extend(unvisited)
                                ok = False
                                break
                            true[first] = 1
                            trail.append(first)
                            continue
                    cl[1] = lit
                    cl[t] = falsified
                    watches[lit].append(cl)
                watches[falsified] = kept
            stats["propagations"] += q - qhead
            qhead = q
            return ok

        for u in self.units:
            if true[u ^ 1]:
                return UNSAT, None
            if not true[u]:
                true[u] = 1
                trail.append(u)

        decisions: list[int] = []  # trail positions of the decision literals
        var = 1
        while True:
            if not propagate():
                stats["conflicts"] += 1
                if deadline is not None and time.monotonic() > deadline:
                    return UNKNOWN, None
                while decisions and not trail[decisions[-1]] & 1:
                    decisions.pop()
                if not decisions:
                    return UNSAT, None
                qhead = p = decisions[-1]
                lit = trail[p] ^ 1
                for q in trail[p:]:
                    true[q] = 0
                del trail[p:]
                true[lit] = 1
                trail.append(lit)
                var = lit >> 1
                continue
            while var <= nv and (true[var << 1] or true[var << 1 | 1]):
                var += 1
            if var > nv:
                declared = range(1, self.var_count + 1)  # those above nv occur in no clause
                return SAT, {v: v <= nv and bool(true[v << 1]) for v in declared}
            stats["decisions"] += 1
            decisions.append(len(trail))
            lit = var << 1 | 1  # negative phase first
            true[lit] = 1
            trail.append(lit)
