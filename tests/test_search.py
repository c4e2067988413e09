import math
import random
import sys
import time
import types

import pytest

import distlab._kernels
from distlab.bounds import family_graph
from distlab.graphs import all_pairs_distances, from_edge_list
from distlab.sat.cnf import CnfFormula
from distlab.sat.dpll import UNKNOWN, DpllSolver
from distlab.sat.encode import geodesic_length
from distlab.sat.search import (
    BudgetExhausted,
    EncodingMismatch,
    SearchParams,
    Unsat,
    Witness,
    cap_levels,
    search,
    solved_levels,
    verify_witness,
)

import brute
from util import (
    are_isomorphic,
    complete_graph,
    path_graph,
    random_graph,
    reference_distances,
    reference_k_distance_edges,
)


def test_each_clause_is_checked_once_on_its_way_to_the_solver(monkeypatch):
    """Every clause the solver holds went through exactly one
    ``CnfFormula.add``, and the formula kept every clause it checked."""
    search_mod = sys.modules["distlab.sat.search"]
    adds = []
    formulas = []
    solvers = []
    real_add, real_build = CnfFormula.add, search_mod.build_formula

    def counting_add(self, clause):
        adds.append(1)
        real_add(self, clause)

    def recording_build(*args):
        vm, formula = real_build(*args)
        formulas.append(formula)
        return vm, formula

    class RecordingSolver(DpllSolver):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    monkeypatch.setattr(CnfFormula, "add", counting_add)
    monkeypatch.setattr(search_mod, "build_formula", recording_build)
    monkeypatch.setattr(search_mod, "DpllSolver", RecordingSolver)
    assert isinstance(search(SearchParams(n=9, p2_len=6, min_d2=6)), Witness)
    assert len(formulas) == len(solvers) == 1
    (formula,), (solver,) = formulas, solvers
    # A binary clause (a, b) sits in two implication lists: count it at a < b.
    binary = sum(1 for a, lits in enumerate(solver.implied) for b in lits if a < b)
    # A longer clause is watched on two literals.
    longer = sum(map(len, solver.watches)) // 2
    assert len(adds) == formula.clause_count == len(solver.units) + binary + longer


def test_small_search_returns_verified_witness():
    params = SearchParams(n=6, p2_len=2, min_d2=3, require_sharp=False)
    out = search(params)
    assert isinstance(out, Witness)
    ok, d, d2, reason = verify_witness(out.graph, params)
    assert ok, reason
    assert (out.d, out.d2) == (d, d2)
    assert out.d >= 3 and 3 <= out.d2 < math.inf
    assert out.solve_calls == out.candidates_rejected + 1
    assert out.elapsed > 0


def test_search_is_deterministic():
    params = SearchParams(n=6, p2_len=2, min_d2=3, require_sharp=False)
    a = search(params)
    b = search(params)
    assert a.graph == b.graph
    assert a.solve_calls == b.solve_calls


def test_unsat_matches_brute_exhaustion():
    params = SearchParams(n=4, p2_len=3, min_d2=5)
    out = search(params)
    assert isinstance(out, Unsat)
    # the only level, D = 3, pins a geodesic of length 5 in 4 vertices
    assert out.solve_calls == 0 and out.stats.cap_levels == [3]
    for mask in range(1 << 6):
        g = from_edge_list(4, brute.mask_edges(4, mask))
        assert not verify_witness(g, params)[0]


def test_every_solved_level_unsat_is_unsat():
    """(4, 6) needs 9 vertices, and (3, 6) would break diam G2 <= diam G + 2,
    so the one level, D = 4, is solved and refuted."""
    out = search(SearchParams(n=7, p2_len=0, min_d2=6))
    assert isinstance(out, Unsat)
    assert out.solve_calls == 1 and out.stats.cap_levels == [4]
    assert out.stats.solver["conflicts"] > 0


def test_a_solver_that_gives_up_exhausts_the_budget(monkeypatch):
    monkeypatch.setattr(DpllSolver, "solve", lambda self, time_budget=None: (UNKNOWN, None))
    out = search(SearchParams(n=6, p2_len=2, min_d2=3))
    assert isinstance(out, BudgetExhausted)
    assert out.reason == "solver budget"
    assert out.solve_calls == 1 and out.stats.cap_levels == [3]


def test_b_variables_that_disagree_with_bfs_raise(monkeypatch):
    """A model whose b-variables claim one pair too many and miss one is an
    encoder bug; the message names both pairs."""
    search_mod = sys.modules["distlab.sat.search"]
    real = search_mod.model_b_edges

    def tampered(vm, model):
        claimed = real(vm, model)
        missing = min(claimed)
        extra = min(p for p in vm.pairs() if p not in claimed)
        return claimed - {missing} | {extra}

    monkeypatch.setattr(search_mod, "model_b_edges", tampered)
    with pytest.raises(EncodingMismatch) as err:
        search(SearchParams(n=6, p2_len=2, min_d2=3))
    # the witness's 2-distance graph is the path 0-1-2-3-4-5
    assert str(err.value) == (
        "b-variables disagree with distance-2 adjacency: "
        "claimed-only [(0, 2)], missing [(0, 1)]"
    )


def test_time_budget_zero():
    params = SearchParams(n=6, p2_len=2, min_d2=3, budget_seconds=0.0)
    out = search(params)
    assert isinstance(out, BudgetExhausted)
    assert out.reason == "time budget"
    assert out.solve_calls == 0


def test_nan_budget_is_refused():
    with pytest.raises(ValueError, match="nan"):
        search(SearchParams(n=6, p2_len=2, min_d2=3, budget_seconds=math.nan))


# family_graph(4) relabeled so vertices 0..6 walk a diametral geodesic of
# its 2-distance graph, the labeling the search pins
FAMILY4_PINNED = from_edge_list(
    9,
    [(0, 4), (0, 7), (1, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 5), (6, 8), (7, 8)],
)


def test_verify_family_witness():
    params = SearchParams(n=9, p2_len=6, min_d2=6)
    ok, d, d2, reason = verify_witness(FAMILY4_PINNED, params)
    assert ok and (d, d2) == (4, 6) and reason == "ok"
    assert are_isomorphic(FAMILY4_PINNED, family_graph(4))


def test_verify_rejects_shallow_graphs():
    params = SearchParams(n=5, p2_len=0, min_d2=0)
    ok, d, _, reason = verify_witness(complete_graph(5), params)
    assert not ok and d == 1 and "not above 2" in reason
    loose = SearchParams(n=5, p2_len=0, min_d2=0, forbid_diam_le_2=False, require_sharp=False)
    assert verify_witness(complete_graph(5), loose)[0]


def test_verify_rejects_disconnected_distance_two_graph():
    params = SearchParams(n=4, p2_len=0, min_d2=1, require_sharp=False)
    ok, _, d2, reason = verify_witness(path_graph(4), params)
    assert not ok and math.isinf(d2) and "disconnected" in reason


def test_verify_rejects_low_distance_two_diameter():
    params = SearchParams(n=9, p2_len=6, min_d2=7, require_sharp=False)
    ok, _, _, reason = verify_witness(FAMILY4_PINNED, params)
    assert not ok and "below" in reason


def test_verify_rejects_non_sharp_pair():
    g = from_edge_list(9, [(i, (i + 1) % 9) for i in range(9)])
    params = SearchParams(n=9, p2_len=0, min_d2=4)
    ok, d, d2, reason = verify_witness(g, params)
    assert not ok and (d, d2) == (4, 4) and "sharp" in reason
    relaxed = SearchParams(n=9, p2_len=0, min_d2=4, require_sharp=False)
    assert verify_witness(g, relaxed)[0]


def test_verify_rejects_broken_pinned_path():
    params = SearchParams(n=5, p2_len=2, min_d2=0, forbid_diam_le_2=False, require_sharp=False)
    sharp_pin = None
    for mask in range(1 << 10):
        g = from_edge_list(5, brute.mask_edges(5, mask))
        dist = reference_distances(g)
        if dist[0][1] != 2 or dist[1][2] != 2:
            ok, _, _, reason = verify_witness(g, params)
            assert not ok
            continue
        pairs2 = {
            (i, j)
            for i in range(5)
            for j in range(i + 1, 5)
            if dist[i][j] == 2
        }
        if (0, 2) in pairs2 and sharp_pin is None:
            sharp_pin = g
    assert sharp_pin is not None
    ok, _, _, reason = verify_witness(sharp_pin, params)
    assert not ok and "geodesic" in reason


def test_cap_levels_staircase():
    assert cap_levels(SearchParams(n=9, p2_len=6, min_d2=6)) == [4, 5, 6]
    assert cap_levels(SearchParams(n=9, p2_len=6, min_d2=3)) == [3, 4, 5, 6]
    assert cap_levels(SearchParams(n=6, p2_len=2, min_d2=3, forbid_diam_le_2=False)) == [1, 2, 3]
    assert cap_levels(SearchParams(n=6, p2_len=3, min_d2=6)) == [4]
    assert cap_levels(SearchParams(n=9, p2_len=6, min_d2=6, require_sharp=False)) == [None]


def test_solved_levels_are_the_cap_levels_whose_geodesic_fits():
    assert solved_levels(SearchParams(n=9, p2_len=6, min_d2=3)) == [3, 4, 5, 6]
    # min_d2 = n: every level pins a geodesic of length at least n
    assert solved_levels(SearchParams(n=6, p2_len=3, min_d2=6)) == []
    assert solved_levels(SearchParams(n=9, p2_len=6, min_d2=6, require_sharp=False)) == [None]
    assert solved_levels(SearchParams(n=5, p2_len=3, min_d2=5, require_sharp=False)) == []
    for min_d2 in range(0, 11):
        params = SearchParams(n=8, p2_len=2, min_d2=min_d2, forbid_diam_le_2=False)
        want = [d for d in cap_levels(params) if geodesic_length(params, d) < params.n]
        assert solved_levels(params) == want


def test_the_geodesic_fits_at_every_level_or_at_none():
    """p2_len < n and D + 2 <= n - 1 for every level D <= n - 3, so only
    min_d2 >= n or a lowest level above n - 3 keeps the geodesic out."""
    for n in range(2, 17):
        for p2_len in range(n):
            for min_d2 in range(n + 2):
                for forbid in (True, False):
                    for sharp in (True, False):
                        params = SearchParams(n, p2_len, min_d2, forbid, sharp)
                        levels = cap_levels(params)
                        solved = solved_levels(params)
                        assert solved in ([], levels)
                        fits = min_d2 < n and (not sharp or levels[0] <= n - 3)
                        assert bool(solved) == fits, params


@pytest.mark.parametrize("fields, message", [
    ((1, 0, 0), "n must be in 2..64, got 1"),
    ((1, 0, 0, True, False), "n must be in 2..64, got 1"),
    ((65, 2, 3), "n must be in 2..64, got 65"),
    ((5, 5, 3), "path with 5 edges does not fit in n=5"),
    ((5, -1, 3, True, False), "path with -1 edges does not fit in n=5"),
], ids=["n-1", "n-1-non-sharp", "n-65", "p2-len-n", "p2-len-negative"])
def test_search_params_refuse_what_no_search_can_take(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SearchParams(*fields)


def test_staircase_escalates_past_unsat_level():
    params = SearchParams(n=9, p2_len=6, min_d2=3)
    out = search(params)
    assert isinstance(out, Witness)
    assert (out.d, out.d2) == (4, 6)
    assert verify_witness(out.graph, params)[0]
    assert out.stats.cap_levels == [3, 4]
    assert out.solve_calls == 2 and out.candidates_rejected == 0
    # level 1 admits only K6, whose 2-distance graph has no edge
    low = search(SearchParams(n=6, p2_len=0, min_d2=0, forbid_diam_le_2=False))
    assert isinstance(low, Witness) and low.d == 2 and low.d2 >= 4
    assert low.stats.cap_levels == [1, 2] and low.solve_calls == 2


@pytest.mark.parametrize("target", [(9, 6, 6), (13, 8, 8)])
def test_family_order_targets_take_one_solve_call(target):
    out = search(SearchParams(*target))
    assert isinstance(out, Witness)
    assert out.solve_calls == 1
    assert out.candidates_rejected == 0


def test_a_model_that_fails_verification_raises(monkeypatch):
    import distlab.sat.search as search_mod

    monkeypatch.setattr(
        search_mod, "verify_witness", lambda g, params: (False, 0, 0, "planted")
    )
    with pytest.raises(EncodingMismatch, match="planted"):
        search(SearchParams(n=6, p2_len=2, min_d2=3))


def test_search_module_import_binds_the_module():
    import distlab.sat.search as m

    assert isinstance(m, types.ModuleType)
    assert m.search is search


@pytest.fixture(scope="module")
def six_vertex_graphs():
    """Every labeled graph on 6 vertices with its distance matrix."""
    out = []
    for mask in range(1 << 15):
        g = from_edge_list(6, brute.mask_edges(6, mask))
        out.append((g, all_pairs_distances(g)))
    return out


@pytest.mark.parametrize(
    "p2_len, min_d2, forbid",
    [(2, 3, True), (4, 4, True), (5, 5, True), (3, 6, True), (2, 3, False), (0, 4, False)],
)
def test_search_matches_brute_force_on_six_vertices(six_vertex_graphs, p2_len, min_d2, forbid):
    params = SearchParams(n=6, p2_len=p2_len, min_d2=min_d2, forbid_diam_le_2=forbid)
    # a pinned pair off distance 2 fails verify_witness, so skipping it first
    # only saves time
    exists = any(
        verify_witness(g, params)[0]
        for g, dist in six_vertex_graphs
        if all(dist[i][i + 1] == 2 for i in range(p2_len))
    )
    out = search(params)
    assert isinstance(out, Witness if exists else Unsat)
    if exists:
        assert verify_witness(out.graph, params)[0]
    else:
        assert out.stats.cap_levels == cap_levels(params)


def test_time_budget_counts_across_levels(monkeypatch):
    real_solve = DpllSolver.solve
    budgets = []

    def slow_solve(self, *args, time_budget=None, **kwargs):
        budgets.append(time_budget)
        if len(budgets) == 1:
            time.sleep(0.2)
        return real_solve(self, *args, time_budget=time_budget, **kwargs)

    monkeypatch.setattr(DpllSolver, "solve", slow_solve)
    out = search(SearchParams(n=9, p2_len=6, min_d2=3, budget_seconds=60.0))
    assert isinstance(out, Witness) and out.stats.cap_levels == [3, 4]
    assert len(budgets) == 2
    assert budgets[1] <= 60.0 - 0.2


def test_rejection_histogram_and_phases():
    out = search(SearchParams(n=6, p2_len=2, min_d2=3))
    assert isinstance(out, Witness)
    # every model is a witness: nothing is rejected, so nothing is tallied
    assert not hasattr(out.stats, "rejections")
    assert out.candidates_rejected == 0 and out.solve_calls == 1
    assert set(out.stats.phase_seconds) == {"encode", "solve", "decode", "verify"}
    assert all(v > 0 for v in out.stats.phase_seconds.values())
    assert set(out.stats.solver) == {"decisions", "conflicts", "propagations"}
    assert out.stats.solver["decisions"] > 0


def test_rejection_kinds_name_the_failed_check():
    cases = [
        (complete_graph(5), SearchParams(n=5, p2_len=0, min_d2=0), "not above 2"),
        (path_graph(4), SearchParams(n=4, p2_len=0, min_d2=1, require_sharp=False),
         "disconnected"),
        (FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=7, require_sharp=False),
         "below 7"),
        (FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=6), "ok"),
    ]
    for g, params, text in cases:
        assert text in verify_witness(g, params)[3]


def _reference_verdict(g, params):
    """(ok, d, d2, reason) of ``verify_witness``, from deque BFS distances:
    the same checks in the same order, with the same reason strings."""

    def diam(dist):
        return math.inf if any(-1 in row for row in dist) else max(map(max, dist))

    dist = reference_distances(g)
    dist2 = reference_distances(from_edge_list(g.n, reference_k_distance_edges(g, 2)))
    d, d2 = diam(dist), diam(dist2)
    p = params.p2_len
    if params.forbid_diam_le_2 and d <= 2:
        return False, d, d2, f"diameter {d} is not above 2"
    for i in range(p):
        if dist[i][i + 1] != 2:
            return False, d, d2, f"pinned pair ({i}, {i + 1}) not at distance 2"
    if p >= 1 and dist2[0][p] != p:
        return False, d, d2, f"pinned path is not a geodesic: d2(0, {p}) = {dist2[0][p]}"
    if params.min_d2 >= 1 and d2 == math.inf:
        return False, d, d2, "2-distance graph is disconnected"
    if params.min_d2 >= 1 and d2 < params.min_d2:
        return False, d, d2, f"2-distance diameter {d2} below {params.min_d2}"
    if params.require_sharp and (d == math.inf or d2 == math.inf or d2 < d + 2):
        return False, d, d2, f"({d}, {d2}) misses the sharp gap diam G2 >= diam G + 2"
    return True, d, d2, "ok"


# (p2_len, min_d2, forbid_diam_le_2): the brute-force sets, then (9, 6, 6) and (13, 8, 8)
VERDICT_PARAMS = [
    (2, 3, True), (4, 4, True), (5, 5, True), (3, 6, True), (2, 3, False), (0, 4, False),
    (6, 6, True), (8, 8, True),
]

# The words of each kind of reason, one kind per check, and "ok".
REASON_WORDS = (
    "not above 2", "not at distance 2", "not a geodesic", "disconnected", "below", "sharp gap",
    "ok",
)


def test_verify_witness_matches_reference_distances():
    """The whole (ok, d, d2, reason) of ``verify_witness`` equals the one
    from deque BFS, on seeded labeled graphs of 4..9 vertices, the family
    witnesses, the planted rejection cases and the witnesses that search
    finds, under every parameter set; every kind of reason occurs."""
    rng = random.Random(20261020)
    graphs = [
        random_graph(rng, n, p)
        for n in range(4, 10)
        for p in (0.25, 0.35, 0.5)
        for _ in range(60)
    ]
    graphs += [family_graph(4), family_graph(6), complete_graph(5), path_graph(4), FAMILY4_PINNED]
    graphs += [search(SearchParams(*target)).graph for target in [(9, 6, 6), (13, 8, 8)]]
    cases = [
        (g, SearchParams(g.n, p2_len, min_d2, forbid))
        for g in graphs
        for p2_len, min_d2, forbid in VERDICT_PARAMS
        if p2_len < g.n
    ]
    cases += [
        (complete_graph(5), SearchParams(n=5, p2_len=0, min_d2=0)),
        (path_graph(4), SearchParams(n=4, p2_len=0, min_d2=1, require_sharp=False)),
        (FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=7, require_sharp=False)),
        (FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=6)),
    ]
    seen = set()
    for g, params in cases:
        got = verify_witness(g, params)
        assert got == _reference_verdict(g, params), (g.adj, params)
        seen |= {words for words in REASON_WORDS if words in got[3]}
    assert seen == set(REASON_WORDS)


def test_one_witness_check_costs_one_pair_kernel_call_and_no_distance_matrix(monkeypatch):
    """``verify_witness``, alone and inside ``search``, calls
    ``_kernels.diameter_pair`` once, on the witness's rows, and builds no
    distance matrix."""
    calls = {"distances": [], "diameter_pair": []}
    for name, log in calls.items():
        def counting(adj, _real=getattr(distlab._kernels, name), _log=log):
            _log.append(tuple(adj))
            return _real(adj)

        monkeypatch.setattr(distlab._kernels, name, counting)
    for target in [(9, 6, 6), (13, 8, 8)]:
        out = search(SearchParams(*target))
        assert isinstance(out, Witness) and out.solve_calls == 1
        assert calls == {"distances": [], "diameter_pair": [out.graph.adj]}
        calls["diameter_pair"].clear()
    verify_witness(FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=6))
    assert calls == {"distances": [], "diameter_pair": [FAMILY4_PINNED.adj]}
