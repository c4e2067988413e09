import math
import random
import re

import networkx as nx
import pytest

from distlab.graphs import (
    Graph,
    all_pairs_distances,
    bitset_to_vertices,
    diameter,
    diameter_pair,
    from_edge_list,
    k_distance,
)

from util import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    reference_distances,
    reference_k_distance_edges,
)


def test_from_edge_list_basic():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 1)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count() == 2
    assert g.adj == (0b10, 0b101, 0b10, 0)


def test_edges_in_row_order_at_every_order():
    """Pairs (i, j), i < j, sorted, from the set bits of each row, up to
    bit 63 of n = 64."""
    rng = random.Random(53)
    for n in [*range(1, 65)] * 2:
        g = random_graph(rng, n, rng.random())
        assert g.edges() == [(i, j) for i in range(n) for j in range(i + 1, n)
                             if g.adj[i] >> j & 1]
    assert complete_graph(64).edges()[-1] == (62, 63)


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


@pytest.mark.parametrize("n, rows, want", [
    (0, (), "vertex count must be in 1..64, got 0"),
    (65, (0,) * 65, "vertex count must be in 1..64, got 65"),
    (2.0, (0b10, 0b01), "vertex count must be in 1..64, got 2.0"),
    (3, (0b10, 0b01), "expected 3 adjacency rows, got 2"),
    (2, (0b10, 0b101), "row 1 references vertices >= 2"),
    (2, (0b11, 0b01), "self-loop at vertex 0"),
    (3, (0b010, 0b000, 0b000), "adjacency not symmetric at (0, 1)"),
    (4, [0b0010, 0b0101, 0b0010, 0b0000], [(0, 1), (1, 2)]),
    (1, (0,), []),
], ids=["n-0", "n-65", "n-float", "row-count", "bit-above-n", "self-loop", "asymmetric",
        "path-plus-isolated", "k1"])
def test_graph_rows_are_validated(n, rows, want):
    """A message is the ``ValueError`` the rows raise; an edge list is the
    graph they describe, as ``from_edge_list`` builds it."""
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            Graph(n, rows)
    else:
        g = Graph(n, rows)
        assert g == from_edge_list(n, want)
        assert type(g.adj) is tuple


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
    assert all(r.bit_count() == 2 for r in cycle_graph(5).adj)
    assert path_graph(6).edge_count() == 5
    assert complete_graph(5).edge_count() == 10
    assert from_edge_list(4, []).edge_count() == 0
    with pytest.raises(ValueError):
        cycle_graph(2)


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
    assert diameter(from_edge_list(3, [])) == math.inf
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
    assert g2 == from_edge_list(8, [(v, (v + 2) % 8) for v in range(8)])
    assert diameter(g2) == math.inf


def test_components_ordering_and_connectivity():
    g = from_edge_list(7, [(3, 5), (0, 6), (1, 2)])
    assert diameter(g) == math.inf
    assert diameter(cycle_graph(4)) == 2
    assert diameter(path_graph(1)) == 0


def test_components_match_networkx_on_the_atlas():
    graphs = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(graphs) == 1252  # every graph on 1..7 vertices
    for h in graphs:
        g = from_edge_list(h.number_of_nodes(), h.edges())
        # Pairs at some finite distance are exactly the pairs in one component.
        reached = {e for k in range(1, g.n) for e in k_distance(g, k).edges()}
        same = {(i, j) for c in nx.connected_components(h) for i in c for j in c if i < j}
        assert reached == same
        assert (diameter(g) < math.inf) == nx.is_connected(h)


def test_bitset_round_trip():
    verts = [0, 3, 5, 11]
    bits = 0
    for v in verts:
        bits |= 1 << v
    assert bitset_to_vertices(bits) == verts
    assert bitset_to_vertices(0) == []
