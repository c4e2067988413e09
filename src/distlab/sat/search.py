"""Counterexample-guided search for extremal 2-distance witnesses.

``search`` builds the CNF, then alternates solving and exact
verification.  Every candidate model is first cross-checked: its
b-variables must agree with true distance-2 adjacency of the decoded
graph (any mismatch is an encoder bug and raises, never a silent skip).
Candidates that fail the stronger oracle conditions are excluded by a
blocking clause over the full adjacency assignment, so no candidate is
seen twice and surviving answers are verified, not trusted.  When the
sharp gap is required, the formula also caps diam G, and the cap is
raised one level at a time (see :func:`cap_levels`).
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..graphs import Graph, all_pairs_distances, k_distance, matrix_diameter
from .cnf import CnfFormula
from .dpll import SAT, UNSAT, DpllSolver
from .encode import build_formula, decode_model, model_b_edges
from .external import run_external


@dataclass
class SearchParams:
    """Knobs for the witness search.

    ``n`` vertices; vertices ``0..p2_len`` are pinned as a path of the
    2-distance graph with ``p2_len`` edges; ``min_d2`` asks for a finite
    2-distance diameter at least that large (0 disables the demand).
    ``require_sharp`` keeps refining until the witness meets the ceiling
    of the diameter bound, diam G2 >= diam G + 2; turn it off to accept
    any graph passing the other checks.  With it on, the formula also
    demands diam G <= D for a cap D that starts at
    max(min_d2 - 2, 3 if ``forbid_diam_le_2`` else 1) and rises by one
    each time a level is unsatisfiable, up to n - 3.  The staircase is
    complete without assuming the theorem: a sharp witness has a finite
    d = diam G and d + 2 <= diam G2 <= n - 1, so it satisfies the last
    level, and graphs rejected at a lower level stay blocked.
    The formula makes the pinned path a geodesic of the 2-distance graph
    exactly, so no candidate is rejected for a shortcut.  ``solver`` is an
    external DIMACS solver command; ``None`` uses the built-in DPLL.
    """

    n: int
    p2_len: int
    min_d2: int
    forbid_diam_le_2: bool = True
    require_sharp: bool = True
    budget_seconds: float | None = None
    max_candidates: int | None = None
    solver: str | None = None


PHASES = ("encode", "solve", "decode", "verify")


@dataclass
class SearchStats:
    """What a search did on the way to its outcome.

    ``cap_levels`` lists the diameter caps D solved under, in order
    (``[None]`` when no cap applies); ``rejections`` counts rejected
    candidates by the kind of check they failed; ``phase_seconds``
    splits the time into encode (formula and solver set-up), solve,
    decode and verify;
    ``solver_runs`` holds the ``stats`` of the built-in solver of each
    level (none for an external solver), and ``solver`` sums them.
    """

    cap_levels: list[int | None] = field(default_factory=list)
    rejections: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )
    solver_runs: list[dict[str, int]] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] += time.perf_counter() - t0

    @property
    def solver(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for run in self.solver_runs:
            for key, value in run.items():
                total[key] = total.get(key, 0) + value
        return total


@dataclass
class Witness:
    graph: Graph
    d: int | float
    d2: int | float
    candidates_rejected: int
    solve_calls: int
    elapsed: float
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class Unsat:
    candidates_rejected: int
    solve_calls: int
    elapsed: float
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class BudgetExhausted:
    candidates_rejected: int
    solve_calls: int
    elapsed: float
    reason: str = "budget"
    stats: SearchStats = field(default_factory=SearchStats)


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


class Reason(str):
    """A verdict's text; ``kind`` names the failed check without its numbers."""

    def __new__(cls, kind: str, text: str):
        self = super().__new__(cls, text)
        self.kind = kind
        return self


class EncodingMismatch(RuntimeError):
    """A model's b-variables disagree with oracle distance-2 adjacency."""


def verify_witness(
    g: Graph, params: SearchParams, *, dist=None
) -> tuple[bool, int | float, int | float, Reason]:
    """Exact BFS verdict on a candidate: (ok, d, d2, reason).

    Checks, independently of the encoding: diameter above 2 when
    demanded, the pinned path is a geodesic of the 2-distance graph, and
    the 2-distance diameter is finite and at least ``min_d2`` (when
    ``min_d2 >= 1``).  ``dist``, when given, must be
    ``all_pairs_distances(g)``; G2 is built from it, so the verdict runs
    one BFS (on G2) instead of two.
    """
    if dist is None:
        dist = all_pairs_distances(g)
    d = matrix_diameter(dist)
    dist2 = all_pairs_distances(k_distance(g, 2, dist))
    d2 = matrix_diameter(dist2)
    if params.forbid_diam_le_2 and not (math.isinf(d) or d > 2):
        return False, d, d2, Reason("diameter_le_2", f"diameter {d} is not above 2")
    for i in range(params.p2_len):
        if dist[i][i + 1] != 2:
            return False, d, d2, Reason(
                "pinned_pair", f"pinned pair ({i}, {i + 1}) not at distance 2"
            )
    if params.p2_len >= 1 and dist2[0][params.p2_len] != params.p2_len:
        return False, d, d2, Reason(
            "not_geodesic",
            f"pinned path is not a geodesic: d2(0, {params.p2_len}) = "
            f"{dist2[0][params.p2_len]}",
        )
    if params.min_d2 >= 1:
        if math.isinf(d2):
            return False, d, d2, Reason(
                "g2_disconnected", "2-distance graph is disconnected"
            )
        if d2 < params.min_d2:
            return False, d, d2, Reason(
                "d2_below_min", f"2-distance diameter {d2} below {params.min_d2}"
            )
    if params.require_sharp:
        if math.isinf(d) or math.isinf(d2) or d2 < d + 2:
            return False, d, d2, Reason(
                "not_sharp", f"({d}, {d2}) misses the sharp gap diam G2 >= diam G + 2"
            )
    return True, d, d2, Reason("ok", "ok")


def _handed_over(clauses: list[list[int]]):
    """Yield each clause and drop the list's reference to it, so a solver
    built from a formula does not hold two copies of it at once."""
    for idx, clause in enumerate(clauses):
        clauses[idx] = None
        yield clause


def search(params: SearchParams) -> SearchOutcome:
    """Run the encode / solve / verify / block loop to an outcome.

    Under ``require_sharp`` each level of :func:`cap_levels` gets its own
    formula and solver; blocking clauses carry over, and ``Unsat`` means
    the last level was unsatisfiable.  Budgets count across levels.
    """
    start = time.monotonic()
    stats = SearchStats()
    blocked: list[list[int]] = []
    rejected = 0
    calls = 0
    for max_d in cap_levels(params):
        stats.cap_levels.append(max_d)
        with stats.phase("encode"):
            vm, formula = build_formula(params, max_d)
            solver = None
            if not params.solver:
                solver = DpllSolver(formula.var_count, _handed_over(formula.clauses))
                stats.solver_runs.append(solver.stats)
                for block in blocked:
                    solver.add_clause(block)
        while True:
            remaining: float | None = None
            if params.budget_seconds is not None:
                remaining = params.budget_seconds - (time.monotonic() - start)
                if remaining <= 0:
                    return BudgetExhausted(
                        rejected, calls, time.monotonic() - start, "time budget", stats
                    )
            calls += 1
            with stats.phase("solve"):
                if solver is not None:
                    status, model = solver.solve(time_budget=remaining)
                else:
                    ext = CnfFormula(formula.var_count, formula.clauses + blocked)
                    status, model = run_external(params.solver, ext, remaining)
            if status == UNSAT:
                break
            if status != SAT:
                return BudgetExhausted(
                    rejected, calls, time.monotonic() - start, "solver budget", stats
                )
            with stats.phase("decode"):
                g = decode_model(vm, model)
                claimed = model_b_edges(vm, model)
            with stats.phase("verify"):
                dist = all_pairs_distances(g)
                actual = {(i, j) for i, j in vm.pairs() if dist[i][j] == 2}
                if claimed != actual:
                    raise EncodingMismatch(
                        f"b-variables disagree with distance-2 adjacency: "
                        f"claimed-only {sorted(claimed - actual)}, "
                        f"missing {sorted(actual - claimed)}"
                    )
                ok, d, d2, reason = verify_witness(g, params, dist=dist)
            if ok:
                return Witness(
                    g, d, d2, rejected, calls, time.monotonic() - start, stats
                )
            rejected += 1
            stats.rejections[reason.kind] = stats.rejections.get(reason.kind, 0) + 1
            if params.max_candidates is not None and rejected >= params.max_candidates:
                return BudgetExhausted(
                    rejected, calls, time.monotonic() - start, "candidate budget", stats
                )
            block = [
                -vm.a(i, j) if model[vm.a(i, j)] else vm.a(i, j) for i, j in vm.pairs()
            ]
            blocked.append(block)
            if solver is not None:
                solver.add_clause(block)
    return Unsat(rejected, calls, time.monotonic() - start, stats)
