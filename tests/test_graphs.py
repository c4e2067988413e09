import math
import random

import networkx as nx
import pytest

from distlab.graphs import (
    Graph,
    all_pairs_distances,
    bitset_to_vertices,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    diameter,
    diameter_pair,
    empty_graph,
    from_edge_list,
    is_connected,
    k_distance,
    path_graph,
)

from util import (
    random_graph,
    reference_diameter,
    reference_distances,
    reference_k_distance_edges,
)


def test_from_edge_list_basic():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 1)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count() == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(-1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(0, [])
    with pytest.raises(ValueError):
        from_edge_list(65, [])


def test_graph_is_immutable_and_hashable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    h = from_edge_list(3, [(0, 1), (1, 2)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != path_graph(4)
    assert len({g, h, path_graph(4)}) == 2


def test_builders_shapes():
    assert cycle_graph(5).edge_count() == 5
    assert all(cycle_graph(5).degree(v) == 2 for v in range(5))
    assert path_graph(6).edge_count() == 5
    assert complete_graph(5).edge_count() == 10
    assert empty_graph(4).edge_count() == 0
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complement_involution():
    rng = random.Random(7)
    for n in (1, 2, 5, 9):
        g = random_graph(rng, n, 0.5)
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() == n * (n - 1) // 2


def test_distances_match_reference_bfs():
    rng = random.Random(11)
    for n in (2, 5, 8, 13, 20):
        for _ in range(20):
            g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
            got = all_pairs_distances(g)
            want = reference_distances(g)
            assert got == want


def test_diameter_values():
    assert diameter(path_graph(7)) == 6
    assert diameter(complete_graph(5)) == 1
    assert diameter(path_graph(1)) == 0
    assert diameter(empty_graph(3)) == math.inf
    assert diameter(from_edge_list(4, [(0, 1), (2, 3)])) == math.inf


def test_diameter_pair_matches_separate_calls():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 12), rng.random())
        d, d2 = diameter_pair(g)
        assert d == diameter(g)
        assert d2 == diameter(k_distance(g, 2))


def test_k_distance_identity_at_one():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 8, 0.4)
        assert k_distance(g, 1) == g


def test_k_distance_matches_reference():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, 9, 0.3)
        for k in (2, 3, 4):
            assert set(k_distance(g, k).edges()) == reference_k_distance_edges(g, k)
    with pytest.raises(ValueError):
        k_distance(path_graph(3), 0)


def test_even_cycle_halves_into_two_cycles():
    g2 = k_distance(cycle_graph(8), 2)
    comps = connected_components(g2)
    assert comps == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_components_ordering_and_connectivity():
    g = from_edge_list(7, [(3, 5), (0, 6), (1, 2)])
    assert connected_components(g) == [[0, 6], [1, 2], [3, 5], [4]]
    assert not is_connected(g)
    assert is_connected(cycle_graph(4))
    assert is_connected(path_graph(1))


def test_components_match_networkx_on_the_atlas():
    graphs = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(graphs) == 1252  # every graph on 1..7 vertices
    for h in graphs:
        g = from_edge_list(h.number_of_nodes(), h.edges())
        want = sorted(sorted(c) for c in nx.connected_components(h))
        assert connected_components(g) == want
        assert is_connected(g) == nx.is_connected(h)


def test_bitset_round_trip():
    verts = [0, 3, 5, 11]
    bits = 0
    for v in verts:
        bits |= 1 << v
    assert bitset_to_vertices(bits) == verts
    assert bitset_to_vertices(0) == []
