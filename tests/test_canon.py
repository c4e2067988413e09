import itertools
import random

import networkx as nx

from distlab.canon import (
    are_isomorphic,
    canonical_form,
    canonical_labeling_rows,
    orbits_from_generators,
    refine,
)
from distlab.graphs import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
)

import brute
from util import brute_isomorphic, brute_orbits, random_graph, reference_refine, relabeled


def _graph_from_mask(n, mask):
    return from_edge_list(n, brute.mask_edges(n, mask))


def _small_zoo():
    rng = random.Random(41)
    zoo = [
        path_graph(1),
        path_graph(2),
        path_graph(5),
        cycle_graph(6),
        complete_graph(4),
        from_edge_list(5, [(0, 1), (2, 3)]),
    ]
    for _ in range(40):
        zoo.append(random_graph(rng, rng.randrange(1, 11), rng.random()))
    return zoo


def test_form_invariant_under_relabeling():
    rng = random.Random(43)
    for g in _small_zoo():
        base = canonical_form(g)
        for _ in range(8):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base


def test_form_separates_all_classes_up_to_six():
    for n in range(1, 7):
        reps = [_graph_from_mask(n, m) for m in brute.connected_class_reps(n)]
        forms = {canonical_form(g) for g in reps}
        assert len(forms) == len(reps)


def test_are_isomorphic_matches_brute_force():
    rng = random.Random(47)
    graphs = [random_graph(rng, 6, rng.random()) for _ in range(25)]
    for g1, g2 in itertools.combinations(graphs, 2):
        assert are_isomorphic(g1, g2) == brute_isomorphic(g1, g2)
    for g in graphs[:10]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabeled(g, perm))


def test_canonical_order_is_a_permutation_and_idempotent():
    for g in _small_zoo():
        res = canonical_labeling_rows(g.adj)
        assert sorted(res.order) == list(range(g.n))
        rel = relabeled(g, _inverse_of_order(res.order))
        again = canonical_form(rel)
        assert again == canonical_form(g)


def _inverse_of_order(order):
    # order[p] = original vertex at canonical position p; build position map
    perm = [0] * len(order)
    for p, v in enumerate(order):
        perm[v] = p
    return perm


def test_generators_are_automorphisms():
    for g in _small_zoo():
        res = canonical_labeling_rows(g.adj)
        edges = set(g.edges())
        for perm in res.generators:
            assert sorted(perm) == list(range(g.n))
            mapped = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges}
            assert mapped == edges


def test_generators_span_the_full_automorphism_group():
    rng = random.Random(53)
    samples = [cycle_graph(5), path_graph(4), complete_graph(4)]
    for _ in range(20):
        samples.append(random_graph(rng, 6, rng.random()))
    for g in samples:
        res = canonical_labeling_rows(g.adj)
        assert _closure_size(res.generators, g.n) == _brute_aut_count(g)


def _closure_size(gens, n):
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for gperm in gens:
                q = tuple(gperm[p[v]] for v in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _brute_aut_count(g):
    edges = set(g.edges())
    count = 0
    for perm in itertools.permutations(range(g.n)):
        if all((min(perm[i], perm[j]), max(perm[i], perm[j])) in edges for i, j in edges):
            count += 1
    return count


def test_orbits_match_brute_force():
    rng = random.Random(59)
    samples = [cycle_graph(6), path_graph(5)]
    for _ in range(15):
        samples.append(random_graph(rng, 6, rng.random()))
    for g in samples:
        res = canonical_labeling_rows(g.adj)
        assert orbits_from_generators(res.generators, g.n) == brute_orbits(g)


def test_known_group_orders():
    assert _closure_size(
        canonical_labeling_rows(cycle_graph(5).adj).generators, 5
    ) == 10
    assert _closure_size(
        canonical_labeling_rows(complete_graph(4).adj).generators, 4
    ) == 24
    assert _closure_size(
        canonical_labeling_rows(path_graph(3).adj).generators, 3
    ) == 2


def test_canonical_order_never_decreases_in_degree():
    """The enumeration's degree test rests on this: it makes the last
    non-cut vertex in canonical order one of largest non-cut degree."""
    graphs = [from_edge_list(h.number_of_nodes(), h.edges())
              for h in nx.graph_atlas_g() if h.number_of_nodes()]
    rng = random.Random(71)
    for n in range(8, 13):
        graphs += [random_graph(rng, n, rng.random()) for _ in range(40)]
    for g in graphs:
        rows = g.adj
        degrees = [rows[v].bit_count() for v in canonical_labeling_rows(rows).order]
        assert degrees == sorted(degrees)


def _atlas_and_random_graphs():
    """Every atlas graph (1 <= n <= 7) and 40 random graphs each for n = 8..12."""
    graphs = [from_edge_list(h.number_of_nodes(), h.edges())
              for h in nx.graph_atlas_g() if h.number_of_nodes()]
    rng = random.Random(73)
    for n in range(8, 13):
        graphs += [random_graph(rng, n, rng.random()) for _ in range(40)]
    return graphs


def _refinement_inputs(rows, n):
    """The root's (cells, splitters), then one child per vertex of each
    non-singleton root cell, individualized as the search does it."""
    root = [list(range(n))], [(1 << n) - 1]
    yield root
    cells = refine(rows, *root)
    for i, c in enumerate(cells):
        if len(c) > 1:
            for v in c:
                yield cells[:i] + [[v], [u for u in c if u != v]] + cells[i + 1:], [1 << v]


def _is_equitable(rows, cells):
    masks = [sum(1 << v for v in c) for c in cells]
    return all(len({(rows[v] & m).bit_count() for v in c}) == 1 for c in cells for m in masks)


def test_refine_is_the_equitable_refinement_and_commutes_with_relabeling():
    rng = random.Random(79)
    checked = 0
    for g in _atlas_and_random_graphs():
        rows, n = g.adj, g.n
        perm = list(range(n))
        rng.shuffle(perm)
        moved = relabeled(g, perm).adj
        for cells, splitters in _refinement_inputs(rows, n):
            got = refine(rows, cells, splitters)
            want = reference_refine(rows, cells)
            assert {frozenset(c) for c in got} == {frozenset(c) for c in want}
            assert _is_equitable(rows, got)
            images = refine(
                moved,
                [sorted(perm[v] for v in c) for c in cells],
                [sum(1 << perm[v] for v in range(n) if w >> v & 1) for w in splitters],
            )
            assert [{perm[v] for v in c} for c in got] == [set(c) for c in images]
            checked += 1
    assert checked > 5000  # about 1,450 roots, the rest children


def _root_cells(rows, n):
    return refine(rows, [list(range(n))], [(1 << n) - 1])


def _cell_order_inputs():
    """Every atlas graph with 1 <= n <= 6, then a random relabeling of
    every atlas graph with n = 7 and of 300 random graphs with n = 8."""
    rng = random.Random(83)
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if not n:
            continue
        g = from_edge_list(n, h.edges())
        if n <= 6:
            yield g.adj, n
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabeled(g, perm).adj, n
    for _ in range(300):
        g = random_graph(rng, 8, rng.random())
        perm = list(range(8))
        rng.shuffle(perm)
        yield relabeled(g, perm).adj, 8


def test_given_root_cells_change_nothing():
    for rows, n in _cell_order_inputs():
        given = canonical_labeling_rows(rows, _root_cells(rows, n))
        fresh = canonical_labeling_rows(rows)
        assert (given.code, given.order, given.generators) == (
            fresh.code, fresh.order, fresh.generators)


def test_canonical_order_keeps_the_root_cell_order():
    """The enumeration's partition rule rests on this: the last non-cut
    vertex in canonical order lies in the last root cell that holds a
    non-cut vertex."""
    checked = 0
    for rows, n in _cell_order_inputs():
        cells = _root_cells(rows, n)
        order = canonical_labeling_rows(rows, cells).order
        ends = list(itertools.accumulate(len(c) for c in cells))
        assert [set(order[a:b]) for a, b in zip([0] + ends, ends)] == [set(c) for c in cells]
        checked += len(cells) < n
    assert checked > 1000  # graphs whose root partition is not discrete
