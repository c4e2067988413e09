import itertools

import pytest

from distlab.graphs import diameter_pair, from_edge_list
from distlab.sat.cnf import CnfFormula, VarMap
from distlab.sat.dpll import SAT, UNSAT, DpllSolver
from distlab.sat.encode import (
    build_formula,
    decode_model,
    encode_b_definition,
    encode_diam2_exclusion,
    encode_diameter_cap,
    encode_free_vertex_ordering,
    encode_g2_connected,
    encode_p2_fixing,
    encode_p2_geodesic,
    model_b_edges,
)
from distlab.sat.search import SearchParams, verify_witness

import brute
from util import (
    nx_diameter_pair,
    path_graph,
    reference_diameter,
    reference_distances,
    reference_k_distance_edges,
    sidecar_entries,
)


def _mask_graph(n, mask):
    return from_edge_list(n, brute.mask_edges(n, mask))


def _fix_adjacency(vm, g):
    """Unit clauses pinning the a-variables to a concrete graph."""
    units = []
    for i, j in vm.pairs():
        var = vm.a(i, j)
        units.append([var] if (g.adj[i] >> j) & 1 else [-var])
    return units


def _formula(vm, *fragments):
    """The fragments' clauses as one checked formula over all of ``vm``."""
    return CnfFormula(vm.var_count, [c for frag in fragments for c in frag])


def _solve_with_graph(formula, vm, g):
    solver = DpllSolver(formula.var_count, formula.clauses)
    for u in _fix_adjacency(vm, g):
        solver.add_clause(u)
    return solver, *solver.solve()


def _enumerate_a_models(vm, formula):
    """All models projected to adjacency masks, via blocking clauses."""
    solver = DpllSolver(formula.var_count, formula.clauses)
    a_vars = [vm.a(i, j) for i, j in vm.pairs()]
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
    formula = _formula(vm, encode_b_definition(vm))
    solver, status, model = _solve_with_graph(formula, vm, path_graph(4))
    assert status == SAT
    assert solver.stats["decisions"] == 0
    assert model_b_edges(vm, model) == {(0, 2), (1, 3)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_b_definition_exhaustive(n):
    vm = VarMap(n)
    formula = _formula(vm, encode_b_definition(vm))
    for mask in range(1 << (n * (n - 1) // 2)):
        g = _mask_graph(n, mask)
        solver, status, model = _solve_with_graph(formula, vm, g)
        assert status == SAT
        assert solver.stats["decisions"] == 0
        assert model_b_edges(vm, model) == reference_k_distance_edges(g, 2)
        assert decode_model(vm, model) == g


def test_p2_fixing_clauses_and_validation():
    vm = VarMap(5)
    assert encode_p2_fixing(vm, 2) == [[vm.b(0, 1)], [vm.b(1, 2)]]
    assert encode_p2_fixing(vm, 0) == []
    assert len(encode_p2_fixing(vm, 4)) == 4
    with pytest.raises(ValueError):
        encode_p2_fixing(vm, 5)
    with pytest.raises(ValueError):
        encode_p2_fixing(vm, -1)


def test_p2_fixing_models_pin_distance_two_path():
    vm = VarMap(5)
    formula = _formula(vm, encode_b_definition(vm), encode_p2_fixing(vm, 2))
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
    fixed = [vm.a(i, j) for i, j in vm.pairs()][:-free]
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
        formula = _formula(vm, *frags)
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
            assert frag == [] and vm.var_count == base
            continue
        assert len(frag) == (p2_len - 2) * (n - 1) ** 2 + n
        assert vm.var_count - base == (p2_len - 1) * (n - 1)
        entries = sidecar_entries(vm)
        assert entries[base:] == [(f"q{s}", v) for s in range(1, p2_len) for v in range(1, n)]
        assert entries[-frag[-1][0] - 1] == (f"q{p2_len - 1}", p2_len)


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
    assert "not a geodesic" in verify_witness(PLANTED_C11, params)[3]
    vm, formula = build_formula(params)
    _, status, _ = _solve_with_graph(formula, vm, PLANTED_C11)
    assert status == UNSAT


def test_diam2_exclusion_is_exact():
    for n in (2, 3, 4):
        vm = VarMap(n)
        formula = _formula(vm, encode_diam2_exclusion(vm))
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
    formula = _formula(vm, encode_diam2_exclusion(vm))
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


@pytest.mark.parametrize("n", [2, 5, 9, 13])
def test_diam2_exclusion_size_closed_form(n):
    pairs = n * (n - 1) // 2
    vm = VarMap(n)
    base = vm.var_count
    clauses = encode_diam2_exclusion(vm)
    assert len(clauses) == pairs * (n - 1) + 1
    assert vm.var_count - base == pairs
    assert sidecar_entries(vm)[base:] == [("far", i, k) for i, k in vm.pairs()]
    assert clauses[-1] == list(range(base + 1, vm.var_count + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diameter_cap_is_exact(n):
    """With the a-variables pinned, the b-definition and the cap are SAT iff
    the BFS diameter <= D."""
    for max_d in range(1, n):
        vm = VarMap(n)
        formula = _formula(vm, encode_b_definition(vm), encode_diameter_cap(vm, max_d))
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
        clauses = encode_diameter_cap(vm, max_d)
        compositions = max(0, max_d.bit_length() - 1 + bin(max_d).count("1") - 2)
        assert len(clauses) == pairs * (compositions * (2 * n - 3) + 1)
        assert vm.var_count - base == pairs * compositions * (n - 1)
    with pytest.raises(ValueError):
        encode_diameter_cap(VarMap(4), 0)


def test_diameter_cap_tags_its_variables():
    vm = VarMap(4)
    encode_diameter_cap(vm, 3)
    entries = sidecar_entries(vm)
    assert {kind for kind, *_ in entries[2 * 6:]} == {"r3", "m3"}
    assert entries[12] == ("r3", 0, 1)
    assert entries[13] == ("m3", 0, 2, 1)
    vm = VarMap(4)
    assert encode_diameter_cap(vm, 2) == [[vm.a(i, j), vm.b(i, j)] for i, j in vm.pairs()]
    assert vm.var_count == 2 * 6


def _g2_connected(n, g):
    """Deque BFS over the 2-distance graph from vertex 0 reaches every vertex."""
    g2 = from_edge_list(n, reference_k_distance_edges(g, 2))
    return all(d >= 0 for d in reference_distances(g2)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_g2_connected_is_exact(n):
    """With the a-variables pinned, b-definition + fixing + the fragment is
    SAT iff BFS puts the pinned pairs at distance 2 and G2 is connected."""
    for path_len in range(n):
        vm = VarMap(n)
        frags = [
            encode_b_definition(vm),
            encode_p2_fixing(vm, path_len),
            encode_g2_connected(vm, path_len),
        ]
        formula = _formula(vm, *frags)
        for mask in range(1 << (n * (n - 1) // 2)):
            g = _mask_graph(n, mask)
            dist = reference_distances(g)
            want = all(dist[i][i + 1] == 2 for i in range(path_len)) and _g2_connected(n, g)
            _, status, _ = _solve_with_graph(formula, vm, g)
            assert (status == SAT) == want, (n, path_len, mask)


@pytest.mark.parametrize("n", [2, 6, 13])
def test_g2_connected_size_and_tags(n):
    for path_len in range(n):
        vm = VarMap(n)
        base = vm.var_count
        frag = encode_g2_connected(vm, path_len)
        f = n - path_len - 1
        assert len(frag) == f * (2 + (f - 1) * (2 * f - 1))
        assert vm.var_count - base == f * f + f * (f - 1) ** 2
        kinds = {kind for kind, *_ in sidecar_entries(vm)[base:]}
        assert kinds == {f"c{s}" for s in range(1, f + 1)} | {f"cm{s}" for s in range(2, f + 1)}


def _lex_ok(n, p2_len, g):
    """Reference semantics for the free-vertex ordering constraint."""
    free = list(range(p2_len + 1, n))
    for u in free[:-1]:
        v = u + 1
        cols = [w for w in range(n) if w not in (u, v)]
        xs = tuple((g.adj[u] >> w) & 1 for w in cols)
        ys = tuple((g.adj[v] >> w) & 1 for w in cols)
        if xs > ys:
            return False
    return True


@pytest.mark.parametrize("p2_len", [0, 1, 2])
def test_free_vertex_ordering_matches_reference_predicate(p2_len):
    n = 5
    vm = VarMap(n)
    formula = _formula(vm, encode_free_vertex_ordering(vm, p2_len))
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
                if (img.adj[i] >> j) & 1:
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
    if not _g2_connected(n, g):
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
    assert len(sidecar_entries(vm)) == formula.var_count
    kinds = {kind for kind, *_ in sidecar_entries(vm)}
    assert {"t", "eq"} <= kinds and "far" not in kinds
    strict = SearchParams(n=5, p2_len=1, min_d2=2)
    strict_vm, strict_formula = build_formula(strict)
    assert "far" in {kind for kind, *_ in sidecar_entries(strict_vm)}
    assert strict_formula.clause_count > formula.clause_count


def test_every_auxiliary_variable_names_its_kind():
    vm, formula = build_formula(SearchParams(n=13, p2_len=8, min_d2=8), 6)
    assert (formula.clause_count, formula.var_count) == (10128, 3130)
    entries = sidecar_entries(vm)  # checks that line v numbers variable v
    assert len(entries) == formula.var_count
    kinds = {kind for kind, *_ in entries}
    assert "aux" not in kinds
    assert {"t", "far", "eq", "q1", "c1", "r4", "m4", "r6", "m6"} <= kinds
    assert not {"cn", "w", "r2", "m2"} & kinds


def test_violation_level_is_refuted_by_its_cap():
    """Violation level D = 3 at n = 7 (diam G <= 3, G2 connected, a pinned G2
    geodesic of length 6) is UNSAT.  Without the cap the same formula is SAT
    with a (5, 6) graph, so the cap is what refutes the level."""
    params = SearchParams(7, 0, 6)
    _, capped = build_formula(params, 3)
    assert capped.clause_count == 1082
    assert DpllSolver(capped.var_count, capped.clauses).solve()[0] == UNSAT
    vm, uncapped = build_formula(params)
    assert uncapped.clause_count == 830
    status, model = DpllSolver(uncapped.var_count, uncapped.clauses).solve()
    assert status == SAT
    g = decode_model(vm, model)
    assert diameter_pair(g) == (5, 6) == nx_diameter_pair(g.n, g.edges())


def test_decode_model_paths_and_errors():
    vm = VarMap(3)
    mapping = {vm.a(0, 1): True, vm.a(0, 2): False, vm.a(1, 2): True}
    assert decode_model(vm, mapping).edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        decode_model(vm, {vm.a(0, 1): True})
    with pytest.raises(ValueError):
        model_b_edges(vm, mapping)
