import math

import pytest

from distlab.bounds import (
    HOLDS,
    HOLDS_VACUOUSLY,
    NOT_APPLICABLE,
    VIOLATION,
    check_bounds,
    family_graph,
)
from distlab.canon import are_isomorphic
from distlab.enumeration import enumerate_connected
from distlab.graphs import (
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    k_distance,
    path_graph,
)

from util import reference_diameter, reference_k_distance_edges


def _reference_pair(g):
    d = reference_diameter(g)
    g2 = from_edge_list(g.n, sorted(reference_k_distance_edges(g, 2)))
    d2 = reference_diameter(g2)
    return d, d2


def test_family_graph_shape():
    for k in (4, 6, 8, 10):
        g = family_graph(k)
        assert g.n == 2 * k + 1
        apex = 2 * k
        assert g.adj[apex] == 0b11
        assert g.adj[0].bit_count() == 3 and g.adj[1].bit_count() == 3
        assert all(g.adj[v].bit_count() == 2 for v in range(2, apex))
        assert g.edge_count() == 2 * k + 2


def test_family_graph_rejects_bad_k():
    for k in (0, 2, 3, 5, 7):
        with pytest.raises(ValueError):
            family_graph(k)


def test_family_graph_stops_at_64_vertices():
    """k = 30 is the largest even k with 2k + 1 <= 64; beyond it the error
    names k, not the vertex count."""
    assert family_graph(30).n == 61
    with pytest.raises(ValueError, match=r"^family is defined for even k in 4\.\.30, got 32$"):
        family_graph(32)


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_family_pair_dual_route(k):
    g = family_graph(k)
    assert diameter(g) == k
    assert diameter(k_distance(g, 2)) == k + 2
    assert _reference_pair(g) == (k, k + 2)


def test_family_k4_is_the_chorded_nine_cycle():
    chorded = from_edge_list(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 2)])
    assert are_isomorphic(family_graph(4), chorded)


def test_verdict_holds():
    r = check_bounds(family_graph(4))
    assert r.verdict == HOLDS
    assert (r.d, r.d2) == (4, 6)
    assert (r.lower, r.upper) == (2, 6)


def test_verdict_holds_vacuously():
    r = check_bounds(path_graph(4))
    assert r.verdict == HOLDS_VACUOUSLY
    assert r.d == 3 and math.isinf(r.d2)
    assert (r.lower, r.upper) == (2, 5)


def test_verdict_not_applicable():
    for g in (complete_graph(4), cycle_graph(4), path_graph(3), from_edge_list(4, [(0, 1)])):
        r = check_bounds(g)
        assert r.verdict == NOT_APPLICABLE
        assert r.lower is None and r.upper is None


def test_bound_arithmetic():
    for k, lower in ((4, 2), (6, 3), (8, 4), (10, 5)):
        r = check_bounds(family_graph(k))
        assert r.lower == math.ceil(k / 2) == lower
        assert r.upper == k + 2


def test_no_violation_up_to_seven():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert check_bounds(g).verdict != VIOLATION


def test_lower_bound_witness_search_and_checks():
    hits = []
    for n in (6, 7):
        for g in enumerate_connected(n):
            r = check_bounds(g)
            if r.verdict == HOLDS and r.d2 == r.lower:
                hits.append(g)
    assert hits
    for g in hits[:5]:
        d, d2 = _reference_pair(g)
        assert d >= 3 and d2 == math.ceil(d / 2)


def test_lower_bound_witness_rejects():
    r = check_bounds(family_graph(4))
    assert not (r.verdict == HOLDS and r.d2 == r.lower)
    assert check_bounds(path_graph(4)).verdict == HOLDS_VACUOUSLY
    assert check_bounds(complete_graph(4)).verdict == NOT_APPLICABLE
