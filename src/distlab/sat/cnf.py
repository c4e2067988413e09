"""CNF containers, the adjacency/2-distance variable map, and DIMACS io.

``CnfFormula`` is the one place a clause is checked: whatever reaches a
solver, from the encoder or from a DIMACS file, went through its ``add``.
Variables are 1-based.  ``VarMap`` lays out a-variables (adjacency of
candidate graphs) first, then b-variables (2-distance adjacency), then
auxiliary definitions, all contiguous, and can serialize itself as a
sidecar that names each variable of an emitted formula, for reading a
model or a core that another tool found in it.
"""
from __future__ import annotations

from typing import Iterable

from ..graphs import MAX_VERTICES


class CnfFormula:
    """Clause list with a declared variable count; every clause is checked.

    ``var_count`` must not be negative.  A clause must be non-empty, of
    non-zero int literals within ``var_count``, and not a tautology; a
    ``ValueError`` says which rule fails.  Repeated literals are dropped,
    keeping first occurrences.  A list is stored as given, not copied,
    unless it repeats a literal.
    """

    def __init__(self, var_count: int, clauses: Iterable[Iterable[int]] = ()):
        if var_count < 0:
            raise ValueError(f"negative var count {var_count}")
        self.var_count = var_count
        self.clauses: list[list[int]] = []
        self.extend(clauses)

    def add(self, clause: Iterable[int]) -> None:
        lits = clause if type(clause) is list else list(clause)
        if not lits:
            raise ValueError("empty clause")
        top = self.var_count
        for lit in lits:
            if not isinstance(lit, int) or lit == 0:
                raise ValueError(f"bad literal {lit!r}")
            if not -top <= lit <= top:
                raise ValueError(f"literal {lit} exceeds var count {top}")
        seen = set(lits)
        for lit in seen:
            if -lit in seen:
                raise ValueError(f"tautological clause {lits}")
        if len(seen) != len(lits):
            lits = list(dict.fromkeys(lits))
        self.clauses.append(lits)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for c in clauses:
            self.add(c)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def emit_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.var_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# The most variables a DIMACS problem line may declare.  The solver
# allocates lists only up to the largest variable a clause uses (about 300
# bytes each), but a model still lists every declared variable, and
# build_formula's largest formula, at n = 64 (p2_len 0, min_d2 0, cap
# level 47), has 1,153,483 variables.
DIMACS_MAX_VARS = 2_000_000


def parse_dimacs(text: str) -> CnfFormula:
    """Strict-enough DIMACS reader; clauses may span lines, comments skipped.

    A SATLIB ``%`` line ends the clause list, and an error on a line
    names the line.  Any clause a solver accepts is read, and the formula
    keeps the file's models: a tautology holds under every assignment and
    is dropped, and an empty clause holds under none: the formula ends
    with the contradictory units 1 and -1 (raising a zero variable count
    to 1 only after every literal was checked against the declared one).
    The declared clause count is checked against the clauses read,
    dropped ones included, and a declared variable count above
    ``DIMACS_MAX_VARS`` is refused.
    """
    declared = None
    formula = None
    read = 0
    empty = False
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("%"):  # SATLIB trailer: the clause list ends here
            break
        try:
            if s.startswith("p"):
                if formula is not None:
                    raise ValueError("duplicate problem line")
                parts = s.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line {s!r}")
                var_count, declared = int(parts[2]), int(parts[3])
                if var_count > DIMACS_MAX_VARS:
                    raise ValueError(f"{var_count} variables declared, "
                                     f"more than the limit of {DIMACS_MAX_VARS}")
                formula = CnfFormula(var_count)
                continue
            if formula is None:
                raise ValueError("clause before problem line")
            for tok in s.split():
                lit = int(tok)
                if lit != 0:
                    pending.append(lit)
                    continue
                read += 1
                if not pending:
                    empty = True
                elif set(pending).isdisjoint(-x for x in pending):
                    formula.add(pending)
                elif max(map(abs, pending)) > formula.var_count:
                    raise ValueError(f"clause {pending} exceeds var count {formula.var_count}")
                pending = []
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if formula is None:
        raise ValueError("missing problem line")
    if pending:
        raise ValueError("unterminated clause at end of input")
    if read != declared:
        raise ValueError(f"declared {declared} clauses, found {read}")
    if empty:
        formula.var_count = max(formula.var_count, 1)
        formula.extend([[1], [-1]])
    return formula


class VarMap:
    """Contiguous 1-based layout: a-vars, then b-vars, then auxiliaries.

    One table lists ``(kind, vertices...)`` for every variable in index
    order; ``pairs``, ``var_count`` and the sidecar dump all read it.
    a(i, j) is adjacency of the candidate graph, b(i, j) adjacency of its
    2-distance graph; both normalize to i < j and are computed from the
    pair's position in :meth:`pairs`.  Auxiliaries come from ``tagged``,
    which appends their kind and the vertices they serve to the table.
    """

    def __init__(self, n: int):
        if not 2 <= n <= MAX_VERTICES:
            raise ValueError(f"need 2 <= n <= {MAX_VERTICES}, got {n!r}")
        self.n = n
        self._npairs = n * (n - 1) // 2
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._vars: list[tuple] = [("a", *p) for p in pairs] + [("b", *p) for p in pairs]

    def a(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError(f"no variable for the diagonal pair ({i}, {j})")
        if i > j:
            i, j = j, i
        if i < 0 or j >= self.n:
            raise KeyError((i, j))
        return i * (2 * self.n - i - 1) // 2 + j - i

    def b(self, i: int, j: int) -> int:
        return self.a(i, j) + self._npairs

    def tagged(self, kind: str, *verts: int) -> int:
        """A fresh variable listed under ``kind`` with ``verts`` in the sidecar."""
        self._vars.append((kind, *verts))
        return len(self._vars)

    @property
    def var_count(self) -> int:
        return len(self._vars)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for _, i, j in self._vars[:self._npairs]]

    def sidecar(self) -> str:
        """One line per variable: ``<index> <kind> <vertices...>``."""
        return "".join(" ".join(map(str, (idx, *entry))) + "\n"
                       for idx, entry in enumerate(self._vars, start=1))
