import itertools
import random

import networkx as nx

from distlab.canon import (
    are_isomorphic,
    canonical_form,
    canonical_form_rows,
    canonical_labeling_rows,
    orbits_from_generators,
    relabel_rows,
)
from distlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
)

import brute
from util import brute_isomorphic, brute_orbits, random_graph, relabeled


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
        res = canonical_labeling_rows(g.rows(), g.n)
        assert sorted(res.order) == list(range(g.n))
        rel = relabel_rows(g.rows(), _inverse_of_order(res.order))
        again = canonical_form_rows(rel, g.n)
        assert again == canonical_form(g)


def _inverse_of_order(order):
    # order[p] = original vertex at canonical position p; build position map
    perm = [0] * len(order)
    for p, v in enumerate(order):
        perm[v] = p
    return perm


def test_generators_are_automorphisms():
    for g in _small_zoo():
        res = canonical_labeling_rows(g.rows(), g.n)
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
        res = canonical_labeling_rows(g.rows(), g.n)
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
        res = canonical_labeling_rows(g.rows(), g.n)
        assert orbits_from_generators(res.generators, g.n) == brute_orbits(g)


def test_known_group_orders():
    assert _closure_size(
        canonical_labeling_rows(cycle_graph(5).rows(), 5).generators, 5
    ) == 10
    assert _closure_size(
        canonical_labeling_rows(complete_graph(4).rows(), 4).generators, 4
    ) == 24
    assert _closure_size(
        canonical_labeling_rows(path_graph(3).rows(), 3).generators, 3
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
        rows = g.rows()
        degrees = [rows[v].bit_count() for v in canonical_labeling_rows(rows, g.n).order]
        assert degrees == sorted(degrees)
