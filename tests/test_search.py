import math
import sys
import time
import types

import pytest

import distlab._kernels
from distlab.bounds import family_graph
from distlab.canon import are_isomorphic
from distlab.graphs import all_pairs_distances, complete_graph, from_edge_list, path_graph
from distlab.sat.dpll import DpllSolver
from distlab.sat.external import SolverError
from distlab.sat.search import (
    BudgetExhausted,
    EncodingMismatch,
    SearchParams,
    Unsat,
    Witness,
    cap_levels,
    search,
    verify_witness,
)

import brute
from util import reference_distances

CLI_SOLVER = f"{sys.executable} -m distlab.sat.dimacs_cli"


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


def test_time_budget_zero():
    params = SearchParams(n=6, p2_len=2, min_d2=3, budget_seconds=0.0)
    out = search(params)
    assert isinstance(out, BudgetExhausted)
    assert out.reason == "time budget"
    assert out.solve_calls == 0


def test_nan_budget_is_refused():
    with pytest.raises(ValueError, match="nan"):
        search(SearchParams(n=6, p2_len=2, min_d2=3, budget_seconds=math.nan))


def test_external_solver_matches_builtin():
    base = SearchParams(n=6, p2_len=2, min_d2=3, require_sharp=False)
    ext = SearchParams(
        n=6, p2_len=2, min_d2=3, require_sharp=False, solver=CLI_SOLVER
    )
    a = search(base)
    b = search(ext)
    assert isinstance(b, Witness)
    assert a.graph == b.graph
    assert a.solve_calls == b.solve_calls


def test_external_solver_errors_propagate():
    params = SearchParams(n=6, p2_len=2, min_d2=3, solver="/no/such/solver")
    with pytest.raises(SolverError):
        search(params)


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
        search_mod, "verify_witness", lambda g, params, dist=None: (False, 0, 0, "planted")
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
        verify_witness(g, params, dist=dist)[0]
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


def test_one_candidate_costs_two_bfs_runs(monkeypatch):
    calls = []
    real = distlab._kernels.distances

    def counting(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(distlab._kernels, "distances", counting)
    out = search(SearchParams(n=9, p2_len=6, min_d2=6))
    assert isinstance(out, Witness) and out.solve_calls == 1
    assert len(calls) == 2
    calls.clear()
    verify_witness(FAMILY4_PINNED, SearchParams(n=9, p2_len=6, min_d2=6))
    assert len(calls) == 2
