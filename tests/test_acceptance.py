"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with ``pytest -v`` (test names carry the criterion numbers) or
``pytest -s`` to see the printed criterion lines as they complete.
"""

import math
import random
import time

import pytest

from distlab.bounds import VIOLATION, check_bounds, family_graph
from distlab.canon import are_isomorphic
from distlab.enumeration import enumerate_connected, survey
from distlab.graph6 import emit, parse
from distlab.graphs import (
    cycle_graph,
    diameter,
    diameter_pair,
    from_edge_list,
    k_distance,
)
from distlab.sat.cnf import CnfFormula, VarMap, emit_dimacs, parse_dimacs
from distlab.sat.dpll import SAT, DpllSolver
from distlab.sat.encode import (
    build_formula,
    decode_model,
    encode_b_definition,
    geodesic_length,
    model_b_edges,
)
from distlab.sat.search import (
    SearchParams,
    Unsat,
    Witness,
    cap_levels,
    search,
    verify_witness,
)

import brute
from util import random_graph, reference_k_distance_edges


def _line(num: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} - {text}")
    assert ok, f"criterion {num:02d}: {text}"


@pytest.fixture(scope="session")
def surveys():
    out = {}
    for n in range(3, 10):
        out[n] = survey(n)
    return out


def test_criterion_01_operator_fixtures():
    start = time.monotonic()
    two_triangles = from_edge_list(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    split_ok = k_distance(cycle_graph(6), 2) == two_triangles
    odd_ok = all(
        are_isomorphic(k_distance(cycle_graph(m), 2), cycle_graph(m))
        for m in (5, 7, 9, 11)
    )
    elapsed = time.monotonic() - start
    _line(
        1,
        split_ok and odd_ok and elapsed < 1.0,
        f"even 6-cycle splits into two triangles, odd cycles map to themselves "
        f"({elapsed:.3f}s)",
    )


def test_criterion_02_diameter_two_complement_law():
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(1, 8):
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        for g in enumerate_connected(n):
            if diameter(g) != 2:
                continue
            checked += 1
            if set(k_distance(g, 2).edges()) != pairs - set(g.edges()):
                ok = False
    elapsed = time.monotonic() - start
    _line(
        2,
        ok and checked > 0 and elapsed < 60.0,
        f"2-distance graph equals the complement on {checked} diameter-2 "
        f"graphs with n <= 7 ({elapsed:.1f}s)",
    )


def test_criterion_03_bounds_hold_exhaustively():
    start = time.monotonic()
    scanned = 0
    violations = 0
    for n in range(1, 9):
        for g in enumerate_connected(n):
            d = diameter(g)
            if math.isinf(d) or d < 3:
                continue
            scanned += 1
            if check_bounds(g).verdict == VIOLATION:
                violations += 1
    elapsed = time.monotonic() - start
    _line(
        3,
        violations == 0 and scanned > 0 and elapsed < 600.0,
        f"zero bound violations over {scanned} graphs with n <= 8 and "
        f"diameter >= 3 ({elapsed:.1f}s)",
    )


def test_criterion_04_sharp_family_pairs():
    start = time.monotonic()
    pairs = {k: diameter_pair(family_graph(k)) for k in (4, 6, 8, 10)}
    ok = all(pairs[k] == (k, k + 2) for k in pairs)
    figure_ok = pairs[4] == (4, 6) and pairs[10] == (10, 12)
    elapsed = time.monotonic() - start
    _line(
        4,
        ok and figure_ok and elapsed < 1.0,
        f"family pairs {sorted(pairs.items())} match (k, k+2) ({elapsed:.3f}s)",
    )


def test_criterion_05_survey_corner_point(surveys):
    counts = {n: surveys[n].get(2, n - 1) for n in range(5, 10)}
    _line(
        5,
        all(c >= 1 for c in counts.values()),
        f"survey cell (2, n-1) populated for n in 5..9: {counts}",
    )


def test_criterion_06_enumeration_counts(surveys):
    start = time.monotonic()
    expected = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    oracle = {n: brute.count_connected_classes(n) for n in expected}
    table_totals = {n: surveys[n].total() for n in expected}
    elapsed = time.monotonic() - start
    _line(
        6,
        oracle == expected and table_totals == expected and elapsed < 300.0,
        f"survey totals {table_totals} equal the labeled brute-force oracle "
        f"{oracle} ({elapsed:.1f}s)",
    )


def test_criterion_07_sat_pipeline_small():
    start = time.monotonic()
    params = SearchParams(n=9, p2_len=6, min_d2=6)
    out = search(params)
    witness_ok = isinstance(out, Witness) and (out.d, out.d2) == (4, 6)
    oracle_ok = witness_ok and verify_witness(out.graph, params)[0]
    unsat_params = SearchParams(n=4, p2_len=3, min_d2=5)
    unsat_out = search(unsat_params)
    brute_empty = all(
        not verify_witness(from_edge_list(4, brute.mask_edges(4, mask)), unsat_params)[0]
        for mask in range(1 << 6)
    )
    elapsed = time.monotonic() - start
    _line(
        7,
        witness_ok
        and oracle_ok
        and isinstance(unsat_out, Unsat)
        and brute_empty
        and elapsed < 300.0,
        f"search(9, 6, 6) gives a verified (4, 6) witness and search(4, 3, 5) "
        f"is unsatisfiable like brute force ({elapsed:.1f}s)",
    )


def test_criterion_08_sat_pipeline_large_scale():
    start = time.monotonic()
    params = SearchParams(n=13, p2_len=8, min_d2=8)
    out = search(params)
    witness_ok = isinstance(out, Witness) and (out.d, out.d2) == (6, 8)
    oracle_ok = witness_ok and verify_witness(out.graph, params)[0]
    elapsed = time.monotonic() - start
    _line(
        8,
        witness_ok and oracle_ok,
        f"search(13, 8, 8) gives a verified (6, 8) witness ({elapsed:.1f}s)",
    )


def test_criterion_09_encoder_property_suite():
    start = time.monotonic()
    bijection_ok = True
    for n in (2, 3, 4):
        vm = VarMap(n)
        frag = encode_b_definition(vm)
        solver = DpllSolver(vm.var_count, frag)
        a_vars = [vm.a(i, j) for i, j in vm.pairs()]
        seen = set()
        while True:
            status, model = solver.solve()
            if status != SAT:
                break
            mask = 0
            for bit, var in enumerate(a_vars):
                if model[var]:
                    mask |= 1 << bit
            if mask in seen:
                bijection_ok = False
                break
            seen.add(mask)
            g = decode_model(vm, model)
            if model_b_edges(vm, model) != reference_k_distance_edges(g, 2):
                bijection_ok = False
                break
            solver.add_clause([-v if model[v] else v for v in a_vars])
        if seen != set(range(1 << (n * (n - 1) // 2))):
            bijection_ok = False

    rng = random.Random(97)
    mismatches = 0
    for n in range(6, 14):
        vm = VarMap(n)
        frag = encode_b_definition(vm)
        for _ in range(100):
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
            solver = DpllSolver(vm.var_count, frag)
            for i, j in vm.pairs():
                var = vm.a(i, j)
                solver.add_clause([var] if (g.adj[i] >> j) & 1 else [-var])
            status, model = solver.solve()
            if status != SAT:
                mismatches += 1
                continue
            if model_b_edges(vm, model) != reference_k_distance_edges(g, 2):
                mismatches += 1
    elapsed = time.monotonic() - start
    _line(
        9,
        bijection_ok and mismatches == 0,
        f"model/graph bijection exhaustive for n <= 4; 800 random graphs at "
        f"n in 6..13 agree with the BFS oracle, {mismatches} mismatches "
        f"({elapsed:.1f}s)",
    )


def test_criterion_10_format_round_trips():
    start = time.monotonic()
    rng = random.Random(101)
    g6_ok = 0
    for _ in range(1000):
        n = rng.randrange(1, 65)
        g = random_graph(rng, n, rng.random())
        code = emit(g)
        if parse(code) == g and emit(parse(code)) == code:
            g6_ok += 1
    dimacs_ok = 0
    for _ in range(1000):
        nvars = rng.randrange(1, 40)
        f = CnfFormula(nvars)
        for _ in range(rng.randrange(1, 12)):
            width = rng.randrange(1, min(5, nvars) + 1)
            vs = rng.sample(range(1, nvars + 1), width)
            f.add([v if rng.random() < 0.5 else -v for v in vs])
        text = emit_dimacs(f)
        back = parse_dimacs(text)
        if emit_dimacs(back) == text and back.clauses == f.clauses:
            dimacs_ok += 1
    elapsed = time.monotonic() - start
    _line(
        10,
        g6_ok == 1000 and dimacs_ok == 1000,
        f"graph6 {g6_ok}/1000 and DIMACS {dimacs_ok}/1000 round trips "
        f"byte-exact ({elapsed:.1f}s)",
    )


def test_criterion_11_sharp_levels_match_the_census(surveys):
    """Cap level D is SAT iff the census has a graph with 3 <= d <= D and a
    finite d2 >= D + 2; a level skipped by counting has no such graph."""
    start = time.monotonic()
    verdicts = {}
    for n in range(5, 10):
        for max_d in cap_levels(SearchParams(n, 0, 0)):
            want = any(
                3 <= d <= max_d and not math.isinf(d2) and d2 >= max_d + 2
                for d, d2 in surveys[n].cells
            )
            params = SearchParams(n, 0, 0)
            if geodesic_length(params, max_d) >= n:
                got = False
            else:
                _, formula = build_formula(params, max_d)
                got = DpllSolver(formula.var_count, formula.clauses).solve()[0] == SAT
            verdicts[(n, max_d)] = (got, want)
    elapsed = time.monotonic() - start
    agree = all(got == want for got, want in verdicts.values())
    sat = sorted(key for key, (got, _) in verdicts.items() if got)
    _line(
        11,
        agree and len(verdicts) == 11,
        f"{len(verdicts)} sharp cap levels for n in 5..9 agree with the census; "
        f"SAT at (n, D) = {sat} ({elapsed:.1f}s)",
    )
