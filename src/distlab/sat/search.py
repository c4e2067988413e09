"""Extremal 2-distance witness search: one exact formula per cap level.

Every model of the formula is a witness, so an unsatisfiable level is a
statement about graphs.  A model is still re-verified by exact BFS: a
b-variable that disagrees with the decoded graph's distance-2 adjacency,
or a graph that fails :func:`verify_witness`, is an encoder bug and raises
:class:`EncodingMismatch`.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

from .. import _kernels
from ..graphs import MAX_VERTICES, Graph, diameter_pair, k_distance
from .dpll import SAT, UNSAT, DpllSolver
from .encode import build_formula, decode_model, geodesic_length, model_b_edges


class SearchParams:
    """Knobs for the witness search.

    ``n`` vertices; vertices ``0..p2_len`` are pinned as a geodesic of the
    2-distance graph with ``p2_len`` edges; ``min_d2`` asks for a finite
    2-distance diameter at least that large (0 disables the demand).
    ``require_sharp`` asks for the ceiling of the diameter bound,
    diam G2 >= diam G + 2; turn it off to accept any graph passing the
    other checks.  With it on, the formula also demands diam G <= D for a
    cap D that starts at max(min_d2 - 2, 3 if ``forbid_diam_le_2`` else 1)
    and rises by one each time a level is unsatisfiable, up to n - 3, and
    pins a geodesic of length max(p2_len, min_d2, D + 2).  The staircase
    is complete without assuming the theorem: a sharp witness with
    d = diam G satisfies level d, or the lowest level if d is below it.
    Each level is solved by the built-in DPLL.  An ``n``, ``p2_len`` or
    ``min_d2`` that is not an int (or is a bool), an ``n`` outside 2..64,
    a ``p2_len`` outside 0..n-1, a negative ``min_d2`` or a NaN budget is
    a ``ValueError`` here, the one check of a search's inputs.
    """

    __slots__ = ("n", "p2_len", "min_d2", "forbid_diam_le_2", "require_sharp", "budget_seconds")

    def __init__(self, n: int, p2_len: int, min_d2: int, forbid_diam_le_2: bool = True,
                 require_sharp: bool = True, budget_seconds: float | None = None):
        for name, value in (("n", n), ("p2_len", p2_len), ("min_d2", min_d2)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 2 <= n <= MAX_VERTICES:
            raise ValueError(f"n must be in 2..{MAX_VERTICES}, got {n}")
        if not 0 <= p2_len < n:
            raise ValueError(f"path with {p2_len} edges does not fit in n={n}")
        if min_d2 < 0:
            raise ValueError(f"min_d2 must be at least 0, got {min_d2}")
        if budget_seconds is not None and math.isnan(budget_seconds):
            raise ValueError("budget_seconds must be a number, got nan")
        self.n = n
        self.p2_len = p2_len
        self.min_d2 = min_d2
        self.forbid_diam_le_2 = forbid_diam_le_2
        self.require_sharp = require_sharp
        self.budget_seconds = budget_seconds


PHASES = ("encode", "solve", "decode", "verify")


class SearchStats:
    """What a search did on the way to its outcome.

    ``cap_levels`` lists the diameter caps D solved under, in order
    (``[None]`` when no cap applies), or every cap level, none solved,
    when no geodesic fits in n vertices; ``phase_seconds``
    splits the time into encode (formula and solver set-up), solve,
    decode and verify; ``solver`` tallies the ``stats`` of each level's
    solver once its ``solve`` returns, so it covers the ``solve_calls``.
    """

    def __init__(self):
        self.cap_levels: list[int | None] = []
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.solver: Counter[str] = Counter()

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] += time.perf_counter() - t0


# Each outcome of :func:`search` reports its solve calls, wall time and stats.
# ``candidates_rejected``: always 0, since every model is a witness; the field
# stays because the benchmark's tracer reads it (perfbench/spans.py::_outcome_after).
class Witness(NamedTuple):
    solve_calls: int
    elapsed: float
    stats: SearchStats
    graph: Graph
    d: int | float
    d2: int | float
    candidates_rejected: int = 0


class Unsat(NamedTuple):
    solve_calls: int
    elapsed: float
    stats: SearchStats
    candidates_rejected: int = 0


class BudgetExhausted(NamedTuple):
    solve_calls: int
    elapsed: float
    stats: SearchStats
    reason: str
    candidates_rejected: int = 0


SearchOutcome = Witness | Unsat | BudgetExhausted


def cap_levels(params: SearchParams) -> list[int | None]:
    """The diameter caps the search solves under, lowest first.

    ``[None]`` (no cap) unless ``require_sharp``; otherwise D from
    max(min_d2 - 2, 3 if ``forbid_diam_le_2`` else 1) up to
    max(that, n - 3), since a sharp witness has diam G <= n - 3.
    """
    if not params.require_sharp:
        return [None]
    lo = max(params.min_d2 - 2, 3 if params.forbid_diam_le_2 else 1)
    return list(range(lo, max(lo, params.n - 3) + 1))


def solved_levels(params: SearchParams) -> list[int | None]:
    """All of :func:`cap_levels` if the lowest level's G2 geodesic
    (:func:`~distlab.sat.encode.geodesic_length`) fits in n vertices, else
    ``[]``: p2_len < n, and D + 2 < n for every level D <= n - 3, so the
    fit is all or nothing (a lowest level above n - 3 is the only one)."""
    levels = cap_levels(params)
    return levels if geodesic_length(params, levels[0]) < params.n else []


class EncodingMismatch(RuntimeError):
    """A model's b-variables or graph disagree with the BFS oracle."""


def verify_witness(
    g: Graph, params: SearchParams
) -> tuple[bool, int | float, int | float, str]:
    """Exact BFS verdict on a candidate: (ok, d, d2, reason).

    Checks, independently of the encoding: diameter above 2 when
    demanded, the pinned path is a geodesic of the 2-distance graph, and
    the 2-distance diameter is finite and at least ``min_d2`` (when
    ``min_d2 >= 1``).  It computes every distance itself, from ``g``:
    (d, d2) by ``diameter_pair``, and the pinned pairs and d2(0, p2_len)
    on the rows of G2, which join the pairs at distance 2.
    """
    d, d2 = diameter_pair(g)
    rows2 = k_distance(g, 2).adj
    p = params.p2_len
    if params.forbid_diam_le_2 and not (math.isinf(d) or d > 2):
        return False, d, d2, f"diameter {d} is not above 2"
    for i in range(p):
        if not rows2[i] >> (i + 1) & 1:
            return False, d, d2, f"pinned pair ({i}, {i + 1}) not at distance 2"
    if p >= 1:
        # d2(0, p): the index of the BFS layer of G2 from vertex 0 that holds p
        d2p = next((k for k, layer in enumerate(_kernels.layers(rows2, 1)) if layer >> p & 1), -1)
        if d2p != p:
            return False, d, d2, f"pinned path is not a geodesic: d2(0, {p}) = {d2p}"
    if params.min_d2 >= 1:
        if math.isinf(d2):
            return False, d, d2, "2-distance graph is disconnected"
        if d2 < params.min_d2:
            return False, d, d2, f"2-distance diameter {d2} below {params.min_d2}"
    if params.require_sharp:
        if math.isinf(d) or math.isinf(d2) or d2 < d + 2:
            return False, d, d2, f"({d}, {d2}) misses the sharp gap diam G2 >= diam G + 2"
    return True, d, d2, "ok"


def _handed_over(clauses: list[list[int]]):
    """Yield each clause and drop the list's reference to it, so a solver
    built from a formula does not hold two copies of it at once."""
    for idx, clause in enumerate(clauses):
        clauses[idx] = None
        yield clause


def search(params: SearchParams) -> SearchOutcome:
    """Solve each level of :func:`cap_levels` once, lowest first.

    Each level gets its own formula and solver, and the first model is the
    witness; ``Unsat`` means every level was unsatisfiable, or none fits
    (:func:`solved_levels` is empty).  Budgets count across levels.
    """
    start = time.monotonic()
    stats = SearchStats()
    calls = 0

    def outcome(cls, *fields) -> SearchOutcome:
        return cls(calls, time.monotonic() - start, stats, *fields)

    levels = solved_levels(params)
    if not levels:
        stats.cap_levels = cap_levels(params)
        return outcome(Unsat)
    for max_d in levels:
        stats.cap_levels.append(max_d)
        with stats.phase("encode"):
            vm, formula = build_formula(params, max_d)
            solver = DpllSolver(formula.var_count, _handed_over(formula.clauses))
        remaining: float | None = None
        if params.budget_seconds is not None:
            remaining = params.budget_seconds - (time.monotonic() - start)
            if remaining <= 0:
                return outcome(BudgetExhausted, "time budget")
        calls += 1
        with stats.phase("solve"):
            status, model = solver.solve(time_budget=remaining)
        stats.solver.update(solver.stats)
        if status == UNSAT:
            continue
        if status != SAT:
            return outcome(BudgetExhausted, "solver budget")
        with stats.phase("decode"):
            g = decode_model(vm, model)
            claimed = model_b_edges(vm, model)
        with stats.phase("verify"):
            actual = set(k_distance(g, 2).edges())
            if claimed != actual:
                raise EncodingMismatch(
                    f"b-variables disagree with distance-2 adjacency: "
                    f"claimed-only {sorted(claimed - actual)}, "
                    f"missing {sorted(actual - claimed)}"
                )
            ok, d, d2, reason = verify_witness(g, params)
        if not ok:
            raise EncodingMismatch(f"model at cap level {max_d} fails verification: {reason}")
        return outcome(Witness, g, d, d2)
    return outcome(Unsat)
