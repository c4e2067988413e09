import itertools

import pytest

from distlab.graphs import from_edge_list, path_graph
from distlab.sat.cnf import CnfFormula, VarMap
from distlab.sat.dpll import SAT, UNSAT, DpllSolver
from distlab.sat.encode import (
    build_formula,
    decode_model,
    encode_b_definition,
    encode_diam2_exclusion,
    encode_diameter_cap,
    encode_free_vertex_ordering,
    encode_g2_min_degree,
    encode_p2_fixing,
    encode_p2_geodesic,
    model_b_edges,
)
from distlab.sat.search import SearchParams, verify_witness

import brute
from util import reference_diameter, reference_distances, reference_k_distance_edges


def _mask_graph(n, mask):
    return from_edge_list(n, brute.mask_edges(n, mask))


def _fix_adjacency(vm, g):
    """Unit clauses pinning the a-variables to a concrete graph."""
    units = []
    for i, j in vm.pairs():
        var = vm.a(i, j)
        units.append([var] if g.has_edge(i, j) else [-var])
    return units


def _solve_with_graph(formula, vm, g):
    solver = DpllSolver(formula.var_count, formula.clauses)
    for u in _fix_adjacency(vm, g):
        solver.add_clause(u)
    return solver, *solver.solve()


def _enumerate_a_models(vm, formula):
    """All models projected to adjacency masks, via blocking clauses."""
    solver = DpllSolver(formula.var_count, formula.clauses)
    a_vars = vm.a_vars()
    out = set()
    while True:
        status, model = solver.solve()
        if status != SAT:
            assert status == UNSAT
            return out
        mask = 0
        for bit, var in enumerate(a_vars):
            if model[var]:
                mask |= 1 << bit
        assert mask not in out
        out.add(mask)
        solver.add_clause([-v if model[v] else v for v in a_vars])


def test_b_definition_forced_on_fixed_path():
    vm = VarMap(4)
    formula = encode_b_definition(vm)
    solver, status, model = _solve_with_graph(formula, vm, path_graph(4))
    assert status == SAT
    assert solver.stats["decisions"] == 0
    assert model_b_edges(vm, model) == {(0, 2), (1, 3)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_definition_exhaustive(n):
    vm = VarMap(n)
    formula = encode_b_definition(vm)
    for mask in range(1 << (n * (n - 1) // 2)):
        g = _mask_graph(n, mask)
        solver, status, model = _solve_with_graph(formula, vm, g)
        assert status == SAT
        assert solver.stats["decisions"] == 0
        assert model_b_edges(vm, model) == reference_k_distance_edges(g, 2)
        assert decode_model(vm, model) == g


def test_p2_fixing_clauses_and_validation():
    vm = VarMap(5)
    f = encode_p2_fixing(vm, 2)
    assert f.clauses == [[vm.b(0, 1)], [vm.b(1, 2)]]
    assert encode_p2_fixing(vm, 0).clauses == []
    assert encode_p2_fixing(vm, 4).clause_count == 4
    with pytest.raises(ValueError):
        encode_p2_fixing(vm, 5)
    with pytest.raises(ValueError):
        encode_p2_fixing(vm, -1)


def test_p2_fixing_models_pin_distance_two_path():
    vm = VarMap(5)
    parts = [encode_b_definition(vm), encode_p2_fixing(vm, 2)]
    formula = CnfFormula(vm.var_count)
    for part in parts:
        formula.clauses.extend(part.clauses)
    got = _enumerate_a_models(vm, formula)
    want = set()
    for mask in range(1 << 10):
        dist = reference_distances(_mask_graph(5, mask))
        if dist[0][1] == 2 and dist[1][2] == 2:
            want.add(mask)
    assert got == want


def _a_models_pinned(vm, formula, free=5):
    """Masks of the graphs whose pinned a-variables leave ``formula`` SAT.

    All but the last ``free`` a-variables are pinned by unit clauses, and
    the models over those few are enumerated by blocking clauses: the same
    per-graph verdicts as one solver per graph, in far fewer solver builds.
    """
    fixed = vm.a_vars()[:-free]
    out = set()
    for cube in range(1 << len(fixed)):
        units = [[v if cube >> bit & 1 else -v] for bit, v in enumerate(fixed)]
        part = _enumerate_a_models(vm, CnfFormula(formula.var_count, formula.clauses + units))
        assert not out & part
        out |= part
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_p2_geodesic_is_exact(n):
    """SAT iff BFS puts each pinned pair at distance 2 and d2(0, p) = p."""
    dists = [reference_distances(_mask_graph(n, m)) for m in range(1 << (n * (n - 1) // 2))]
    for p2_len in range(2, n):
        vm = VarMap(n)
        frags = [
            encode_b_definition(vm),
            encode_p2_fixing(vm, p2_len),
            encode_p2_geodesic(vm, p2_len),
        ]
        formula = CnfFormula(vm.var_count, [c for f in frags for c in f.clauses])
        want = set()
        for mask, dist in enumerate(dists):
            if any(dist[i][i + 1] != 2 for i in range(p2_len)):
                continue
            pairs2 = [(i, j) for i, j in vm.pairs() if dist[i][j] == 2]
            if reference_distances(from_edge_list(n, pairs2))[0][p2_len] == p2_len:
                want.add(mask)
        assert _a_models_pinned(vm, formula) == want, (n, p2_len)


@pytest.mark.parametrize("n", [3, 6, 10])
def test_p2_geodesic_size_and_tags(n):
    for p2_len in range(n):
        vm = VarMap(n)
        base = vm.var_count
        frag = encode_p2_geodesic(vm, p2_len)
        if p2_len < 2:
            assert frag.clauses == [] and vm.var_count == base
            continue
        assert frag.clause_count == (p2_len - 2) * (n - 1) ** 2 + n
        assert vm.var_count - base == (p2_len - 1) * (n - 1)
        fresh = [vm.describe(v) for v in range(base + 1, vm.var_count + 1)]
        assert fresh == [(f"q{s}", v) for s in range(1, p2_len) for v in range(1, n)]
        assert vm.describe(-frag.clauses[-1][0]) == (f"q{p2_len - 1}", p2_len)


# C_11 labeled so that its 2-distance graph, also an 11-cycle, runs
# 0, 1, ..., 7 and back to 0 through 10, 9, 8: the pinned path of length 7
# has a 4-step detour, and no shortcut between path vertices is shorter,
# so clauses against detours of at most 3 steps all hold; the free
# vertices are in lex order, so the ordering fragment admits the graph
PLANTED_C11 = from_edge_list(11, [
    (0, 5), (0, 6), (1, 6), (1, 7), (2, 7), (2, 10),
    (3, 9), (3, 10), (4, 8), (4, 9), (5, 8),
])


def test_planted_four_step_detour_is_unsat():
    params = SearchParams(n=11, p2_len=7, min_d2=1)
    dist2 = reference_distances(
        from_edge_list(11, reference_k_distance_edges(PLANTED_C11, 2))
    )
    assert [dist2[0][i] for i in range(8)] == [0, 1, 2, 3, 4, 5, 5, 4]
    assert _lex_ok(11, 7, PLANTED_C11)
    assert verify_witness(PLANTED_C11, params)[3].kind == "not_geodesic"
    vm, formula = build_formula(params)
    _, status, _ = _solve_with_graph(formula, vm, PLANTED_C11)
    assert status == UNSAT


def test_diam2_exclusion_is_exact():
    for n in (2, 3, 4):
        vm = VarMap(n)
        formula = encode_diam2_exclusion(vm)
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _mask_graph(n, mask)
            dist = reference_distances(g)
            within2 = all(
                0 <= dist[i][j] <= 2 for i in range(n) for j in range(i + 1, n)
            )
            _, status, _ = _solve_with_graph(formula, vm, g)
            assert (status == SAT) == (not within2)


def test_diam2_exclusion_exact_on_five_vertices():
    vm = VarMap(5)
    formula = encode_diam2_exclusion(vm)
    admitted = _enumerate_a_models(vm, formula)
    want = set()
    for mask in range(1 << 10):
        dist = reference_distances(_mask_graph(5, mask))
        if any(
            dist[i][j] < 0 or dist[i][j] > 2
            for i in range(5)
            for j in range(i + 1, 5)
        ):
            want.add(mask)
    assert admitted == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diameter_cap_is_exact(n):
    """With the a-variables pinned, the cap is SAT iff the BFS diameter <= D."""
    for max_d in range(1, n):
        vm = VarMap(n)
        formula = encode_diameter_cap(vm, max_d)
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _mask_graph(n, mask)
            d = reference_diameter(g)
            _, status, _ = _solve_with_graph(formula, vm, g)
            assert (status == SAT) == (0 <= d <= max_d), (n, max_d, mask)


@pytest.mark.parametrize("n", [2, 5, 9, 13])
def test_diameter_cap_size_closed_form(n):
    pairs = n * (n - 1) // 2
    for max_d in range(1, n):
        vm = VarMap(n)
        base = vm.var_count
        formula = encode_diameter_cap(vm, max_d)
        compositions = max_d.bit_length() - 1 + bin(max_d).count("1") - 1
        assert formula.clause_count == pairs * (compositions * (2 * n - 3) + 1)
        assert vm.var_count - base == pairs * compositions * (n - 1)
        assert formula.var_count == vm.var_count
    with pytest.raises(ValueError):
        encode_diameter_cap(VarMap(4), 0)


def test_diameter_cap_tags_its_variables():
    vm = VarMap(4)
    encode_diameter_cap(vm, 3)
    kinds = [vm.describe(v)[0] for v in range(2 * 6 + 1, vm.var_count + 1)]
    assert set(kinds) == {"r2", "m2", "r3", "m3"}
    assert vm.describe(13) == ("r2", 0, 1)
    assert vm.describe(14) == ("m2", 0, 2, 1)


def test_g2_min_degree_exhaustive():
    vm = VarMap(4)
    parts = [encode_b_definition(vm), encode_g2_min_degree(vm)]
    formula = CnfFormula(vm.var_count)
    for part in parts:
        formula.clauses.extend(part.clauses)
    for mask in range(1 << 6):
        g = _mask_graph(4, mask)
        pairs2 = reference_k_distance_edges(g, 2)
        covered = {v for e in pairs2 for v in e}
        _, status, _ = _solve_with_graph(formula, vm, g)
        assert (status == SAT) == (covered == set(range(4)))


def _lex_ok(n, p2_len, g):
    """Reference semantics for the free-vertex ordering constraint."""
    free = list(range(p2_len + 1, n))
    for u in free[:-1]:
        v = u + 1
        cols = [w for w in range(n) if w not in (u, v)]
        xs = tuple(int(g.has_edge(u, w)) for w in cols)
        ys = tuple(int(g.has_edge(v, w)) for w in cols)
        if xs > ys:
            return False
    return True


@pytest.mark.parametrize("p2_len", [0, 1, 2])
def test_free_vertex_ordering_matches_reference_predicate(p2_len):
    n = 5
    vm = VarMap(n)
    frag = encode_free_vertex_ordering(vm, p2_len)
    formula = CnfFormula(vm.var_count)
    formula.clauses.extend(frag.clauses)
    got = _enumerate_a_models(vm, formula)
    want = {
        mask for mask in range(1 << 10) if _lex_ok(n, p2_len, _mask_graph(n, mask))
    }
    assert got == want


def test_free_vertex_ordering_keeps_a_member_of_every_class():
    n = 5
    p2_len = 1
    free = list(range(p2_len + 1, n))
    survivors = {
        mask for mask in range(1 << 10) if _lex_ok(n, p2_len, _mask_graph(n, mask))
    }
    for mask in range(1 << 10):
        g = _mask_graph(n, mask)
        found = False
        for perm_free in itertools.permutations(free):
            perm = list(range(n))
            for src, dst in zip(free, perm_free):
                perm[src] = dst
            edges = [(perm[i], perm[j]) for i, j in g.edges()]
            img = from_edge_list(n, edges)
            img_mask = 0
            for bit, (i, j) in enumerate(vm_pairs_5):
                if img.has_edge(i, j):
                    img_mask |= 1 << bit
            if img_mask in survivors:
                found = True
                break
        assert found


vm_pairs_5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def _semantic_build_ok(g, n, p2_len):
    """Mirror of every fragment's meaning for the build_formula test."""
    dist = reference_distances(g)
    pairs2 = reference_k_distance_edges(g, 2)
    if any(dist[i][i + 1] != 2 for i in range(p2_len)):
        return False
    if (0, 2) in pairs2:  # the geodesic fragment at p2_len = 2: d2(0, 2) = 2
        return False
    within2 = all(
        0 <= dist[i][j] <= 2 for i in range(n) for j in range(i + 1, n)
    )
    if within2:
        return False
    covered = {v for e in pairs2 for v in e}
    if covered != set(range(n)):
        return False
    return _lex_ok(n, p2_len, g)


def test_build_formula_composite_is_exact_on_five_vertices():
    params = SearchParams(n=5, p2_len=2, min_d2=2)
    vm, formula = build_formula(params)
    got = _enumerate_a_models(vm, formula)
    want = {
        mask
        for mask in range(1 << 10)
        if _semantic_build_ok(_mask_graph(5, mask), 5, 2)
    }
    assert got == want
    assert got


def test_build_formula_respects_flags():
    loose = SearchParams(n=5, p2_len=1, min_d2=0, forbid_diam_le_2=False)
    vm, formula = build_formula(loose)
    kinds = {vm.describe(v + 1)[0] for v in range(formula.var_count)}
    assert "aux" in kinds
    strict = SearchParams(n=5, p2_len=1, min_d2=2)
    _, strict_formula = build_formula(strict)
    assert strict_formula.clause_count > formula.clause_count


def test_build_formula_appends_the_cap_last():
    params = SearchParams(n=6, p2_len=2, min_d2=3)
    vm, plain = build_formula(params)
    cap_vm, capped = build_formula(params, 3)
    cap = encode_diameter_cap(VarMap(6), 3)
    assert capped.clauses[: plain.clause_count] == plain.clauses
    assert capped.clause_count == plain.clause_count + cap.clause_count
    assert cap_vm.sidecar().startswith(vm.sidecar())


def test_decode_model_paths_and_errors():
    vm = VarMap(3)
    lits = [vm.a(0, 1), -vm.a(0, 2), vm.a(1, 2)]
    g = decode_model(vm, lits)
    assert g.edges() == [(0, 1), (1, 2)]
    mapping = {vm.a(0, 1): True, vm.a(0, 2): False, vm.a(1, 2): True}
    assert decode_model(vm, mapping) == g
    with pytest.raises(ValueError):
        decode_model(vm, [vm.a(0, 1)])
    with pytest.raises(ValueError):
        model_b_edges(vm, lits)
