"""The all-sources BFS of ``distlab._kernels`` against a deque-BFS oracle."""
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from distlab import _kernels
from distlab.graph6 import emit, parse
from distlab.bounds import family_graph
from distlab.enumeration import enumerate_connected
from distlab.graphs import (
    all_pairs_distances,
    diameter,
    from_edge_list,
    k_distance,
)

from util import (
    complete_graph,
    cycle_graph,
    nx_diameter_pair,
    path_graph,
    random_connected_graph,
    random_graph,
    random_tree_plus,
    reference_diameter,
    reference_distances,
)


def _want(g):
    """(distance matrix, diam G, diam G2) by deque BFS, -1 for infinity."""
    dist = reference_distances(g)
    g2 = from_edge_list(
        g.n, [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if dist[i][j] == 2]
    )
    return dist, _diam(dist), _diam(reference_distances(g2))


def _diam(dist):
    if any(-1 in row for row in dist):
        return -1
    return max(max(row) for row in dist)


def _check(g):
    dist, d, d2 = _want(g)
    assert all_pairs_distances(g) == dist
    assert _kernels.diameter_pair(g.adj) == (d, d2)
    assert _kernels.diameter(g.adj) == d
    for k in range(1, max(d, 1) + 2):
        want = [sum(1 << j for j, x in enumerate(row) if x == k) for row in dist]
        assert _kernels.ring_rows(g.adj, k) == want


def _atlas(connected: bool):
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h) == connected:
            yield from_edge_list(n, h.edges())


def test_every_connected_graph_up_to_seven_vertices():
    graphs = list(_atlas(connected=True))
    assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853  # OEIS A001349
    for g in graphs:
        _check(g)


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64])
def test_random_graphs_at_packed_block_boundaries(n):
    rng = random.Random(1000 + n)
    for p in (0.0, 0.03, 0.1, 0.3, 0.7, 1.0):
        for _ in range(3):
            _check(random_graph(rng, n, p))
    for _ in range(3):
        _check(random_connected_graph(rng, n, 2.0 / n))


def test_disconnected_graphs_have_both_diameters_infinite():
    graphs = list(_atlas(connected=False))
    rng = random.Random(5)
    for n in (3, 17, 32, 64):
        a = rng.randrange(1, n)
        left = random_connected_graph(rng, a, 0.3)
        right = random_connected_graph(rng, n - a, 0.3)
        edges = left.edges() + [(a + i, a + j) for i, j in right.edges()]
        graphs.append(from_edge_list(n, edges))
    for g in graphs:
        _check(g)
        assert _kernels.diameter_pair(g.adj) == (-1, -1)


def test_bounded_levels_agree_with_unbounded_bfs_and_networkx():
    """``ring_rows(rows, k)`` stops its BFS at level k and ``diameter_pair``
    skips the G2 BFS of a disconnected G; neither changes an answer."""
    rng = random.Random(31)
    disconnected = 0
    for _ in range(30):
        n = rng.randrange(1, 65)
        g = random_graph(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3)))
        lv, connected = _kernels.levels(g.adj)
        disconnected += not connected
        h = nx.empty_graph(n)
        h.add_edges_from(g.edges())
        dist = dict(nx.all_pairs_shortest_path_length(h))
        for k in range(1, n + 2):
            assert _kernels.levels(g.adj, last=k)[0] == lv[:k + 1]
            rows = _kernels.ring_rows(g.adj, k)
            assert rows == (_kernels.unpack(lv[k], n) if k < len(lv) else [0] * n)
            assert rows == [sum(1 << j for j, x in dist[i].items() if x == k)
                            for i in range(n)]
        h2 = nx.empty_graph(n)
        h2.add_edges_from((i, j) for i in range(n) for j, x in dist[i].items() if x == 2)
        want = tuple(nx.diameter(x) if nx.is_connected(x) else -1 for x in (h, h2))
        assert _kernels.diameter_pair(g.adj) == want
    assert 5 <= disconnected <= 25


@pytest.fixture
def passes(monkeypatch):
    """A list that grows, for each packed BFS pass, by the number of sources
    the pass advances."""
    calls = []
    advance = _kernels._advance

    def counted(rows, frontier, col):
        calls.append(col.bit_count())
        return advance(rows, frontier, col)

    monkeypatch.setattr(_kernels, "_advance", counted)
    return calls


def _passes_of(passes, fn, *args):
    passes.clear()
    out = fn(*args)
    return out, len(passes)


def _ecc0(g):
    """The eccentricity of vertex 0 in a connected g."""
    return len(_kernels.layers(g.adj, 1)) - 1


def test_bfs_runs_only_the_passes_its_answer_needs(passes):
    # Level 1 is the adjacency, so level k costs k - 1 passes.
    p = path_graph(12).adj
    for k in range(1, 12):
        assert _passes_of(passes, _kernels.ring_rows, p, k)[1] == k - 1
    # levels from every source stops at full coverage, after d - 1 passes,
    # and so does diameter when vertex 0 lies within 3 of every vertex.
    rng = random.Random(41)
    graphs = [path_graph(1), complete_graph(5), cycle_graph(9), family_graph(4)]
    graphs += [random_connected_graph(rng, n, 3.0 / n) for n in (2, 8, 33, 64)]
    for g in graphs:
        d = reference_diameter(g)
        assert _passes_of(passes, _kernels.levels, g.adj)[1] == max(d - 1, 0)
        if _ecc0(g) <= 3:
            assert _passes_of(passes, _kernels.diameter, g.adj) == (d, max(d - 1, 0))
    # Otherwise every pass runs from the far set only, and a tree of even
    # diameter has an empty far set (its centre is u), so it runs no pass.
    trees = [path_graph(n) for n in range(9, 65, 2)]
    trees += [random_tree_plus(rng, n, 0.0) for n in range(20, 65) for _ in range(4)]
    even = 0
    for g in trees + [cycle_graph(n) for n in range(9, 65, 5)]:
        d = reference_diameter(g)
        if _ecc0(g) <= 3:
            continue
        assert _passes_of(passes, _kernels.diameter, g.adj)[0] == d
        assert all(count < g.n for count in passes)
        if g in trees and d % 2 == 0:
            assert not passes
            even += 1
    assert even >= 40
    # (4, 6) is not bipartite: d - 1 passes for G, then d2 - 1 for G2.
    assert _passes_of(passes, _kernels.diameter_pair, family_graph(4).adj) == ((4, 6), 8)
    # A disconnected G runs no pass at all.
    for g in (from_edge_list(2, []), from_edge_list(40, [(i, i + 1) for i in range(38)])):
        assert _passes_of(passes, _kernels.diameter, g.adj) == (-1, 0)
        assert _passes_of(passes, _kernels.diameter_pair, g.adj) == ((-1, -1), 0)
    # A connected bipartite G runs no G2 pass, only the passes of diam G: none
    # for a path, 4 from the far set {6, 7, 8, 9} of C10, 1 from every source
    # for a star whose vertex 0 lies within 3 of every vertex.
    star = from_edge_list(6, [(0, i) for i in range(1, 6)])
    for g, d, want in ((path_graph(12), 11, []), (cycle_graph(10), 5, [4] * 4), (star, 2, [6])):
        for fn, pair in ((_kernels.diameter, d), (_kernels.diameter_pair, (d, -1))):
            assert _passes_of(passes, fn, g.adj)[0] == pair
            assert passes == want


def _sweep_bound(rows):
    """ecc(b) of the double sweep: a is the lowest vertex farthest from
    vertex 0, b the lowest farthest from a."""
    far = _kernels.layers(rows, 1)[-1]
    far = _kernels.layers(rows, far & -far)[-1]
    return len(_kernels.layers(rows, far & -far)) - 1


def _check_far_set(g):
    """diameter, diameter_pair and the far-set diameter against the
    all-sources BFS and networkx; the sweeps' bound when G is connected."""
    lv, connected = _kernels.levels(g.adj)
    d = len(lv) - 1 if connected else -1
    pair = nx_diameter_pair(g.n, g.edges())
    assert pair[0] == d
    assert _kernels.diameter(g.adj) == d
    assert _kernels.diameter_pair(g.adj) == pair
    if not connected:
        return None
    assert _kernels._far_diameter(g.adj, _kernels.layers(g.adj, 1)) == d
    return _sweep_bound(g.adj)


def test_far_set_diameter_matches_every_source_bfs_on_random_graphs():
    rng = random.Random(83)
    below = 0
    for n in range(1, 65):
        graphs = [random_graph(rng, n, p) for p in (1.0 / n, 0.3)]
        graphs += [random_tree_plus(rng, n, p) for p in (0.0, 1.0 / n, 3.0 / n)]
        for g in graphs:
            lb = _check_far_set(g)
            below += lb is not None and lb < reference_diameter(g)
    assert below >= 20


def test_far_set_diameter_on_named_graphs():
    graphs = [path_graph(n) for n in range(1, 65)]
    graphs += [cycle_graph(n) for n in range(3, 65)]
    graphs += [complete_graph(n) for n in (1, 2, 3, 17, 64)]
    for n in (2, 3, 9, 33, 64):
        graphs.append(from_edge_list(n, [(0, i) for i in range(1, n)]))  # star
        graphs.append(from_edge_list(n, [(n - 1, i) for i in range(n - 1)]))  # star, centre n - 1
        for a in {1, n // 2, n - 1}:
            graphs.append(from_edge_list(n, [(i, j) for i in range(a) for j in range(a, n)]))
    graphs += [family_graph(d) for d in range(4, 32, 2)]
    graphs += [from_edge_list(n, [(i, i + 1) for i in range(n - 1) if i != n // 2])
               for n in (2, 5, 40, 64)]  # two paths
    for g in graphs:
        _check_far_set(g)


# Connected graphs whose double sweep from vertex 0 (a the lowest farthest
# vertex, b the lowest farthest from a) bounds the diameter from below
# strictly, so only the far set finds it: (graph6, sweep bound, diameter).
# The first two have vertex 0 within 3 of every vertex; the rest do not,
# so diameter itself takes the far set on them, the first three of those
# bipartite.
SWEEP_MISSES = [
    ("C}", 1, 2),
    ("EYIO", 2, 3),
    ("HU@GASc", 4, 5),
    ("I?h??_LW_", 4, 6),
    ("L@oA?GAGC?CHS?", 4, 8),
    ("IQG?K@TH?", 4, 5),
    ("KaG?e?oAOG_O", 4, 7),
]


@pytest.mark.parametrize("text, lb, d", SWEEP_MISSES, ids=[t for t, _, _ in SWEEP_MISSES])
def test_far_set_finds_what_the_sweeps_miss(text, lb, d):
    g = parse(text)
    assert _check_far_set(g) == lb
    assert reference_diameter(g) == d


def test_bounded_levels_flag_covers_only_the_levels_listed():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 65)
        g = random_graph(rng, n, rng.choice((0.03, 0.08, 0.2, 0.5)))
        dist = reference_distances(g)
        for k in range(1, n + 2):
            covered = all(0 <= x <= k for row in dist for x in row)
            assert _kernels.levels(g.adj, last=k)[1] == covered


def test_bipartite_rule_agrees_with_networkx():
    assert _kernels.diameter_pair(path_graph(1).adj) == (0, 0)
    assert _kernels.diameter_pair(path_graph(2).adj) == (1, -1)
    assert _kernels.diameter_pair(cycle_graph(5).adj) == (2, 2)
    rng = random.Random(47)
    cases = []
    for n in range(2, 65):
        cases.append((n, path_graph(n).edges()))
        cases.append((n, [(0, i) for i in range(1, n)]))  # star
        cases.append((n, [(rng.randrange(v), v) for v in range(1, n)]))  # random tree
        a = rng.randrange(1, n)
        cases.append((n, [(i, j) for i in range(a) for j in range(a, n)]))  # K_{a,n-a}
        if n >= 3:
            cases.append((n, cycle_graph(n).edges()))  # even and odd cycles
    for n, edges in cases:
        g = from_edge_list(n, edges)
        want = nx_diameter_pair(n, edges)
        assert _kernels.diameter_pair(g.adj) == want


def _with_twin(g, v, adjacent):
    """g plus a vertex n with v's neighbourhood, joined to v when ``adjacent``."""
    extra = [(u, g.n) for u in range(g.n) if (g.adj[v] >> u) & 1]
    return from_edge_list(g.n + 1, g.edges() + extra + [(v, g.n)] * adjacent)


def test_twins_keep_the_diameter_pair():
    """A false twin (same neighbourhood, not adjacent) keeps (diam G, diam G2)
    when diam G >= 2 or G is disconnected; a true twin (same neighbourhood,
    adjacent) keeps it when G is connected.  The README proves both."""
    rng = random.Random(61)
    kept = {False: 0, True: 0}
    for _ in range(150):
        n = rng.randrange(2, 64)
        p = rng.choice((0.03, 0.08, 0.15, 0.3, 0.6))
        g = random_connected_graph(rng, n, p) if rng.random() < 0.5 else random_graph(rng, n, p)
        pair = _kernels.diameter_pair(g.adj)
        v = rng.randrange(n)
        d = pair[0]
        for adjacent in [False] * (d == -1 or d >= 2) + [True] * (d != -1):
            twin = _with_twin(g, v, adjacent)
            assert _kernels.diameter_pair(twin.adj) == pair == nx_diameter_pair(twin.n, twin.edges())
            kept[adjacent] += 1
    assert kept[False] >= 100 and kept[True] >= 100


@pytest.mark.parametrize("d", [4, 6, 8])
def test_family_with_false_twins_meets_the_upper_bound_at_every_larger_order(d):
    """``family_graph(d)`` plus false twins, added one at a time, has
    (diam G, diam G2) = (d, d + 2) at every order from 2d + 1 up to 64, so
    the upper bound is attained at every order above the least."""
    g = family_graph(d)
    while True:
        assert _kernels.diameter_pair(g.adj) == (d, d + 2) == nx_diameter_pair(g.n, g.edges())
        if g.n == 64:
            break
        g = _with_twin(g, g.n % (2 * d + 1), adjacent=False)


def _leaf(rows, s):
    """P plus a vertex m = len(rows) joined to the vertices of the bitset s."""
    m = len(rows)
    return [r | (s >> x & 1) << m for x, r in enumerate(rows)] + [s]


def _nx_graph(rows):
    h = nx.empty_graph(len(rows))
    h.add_edges_from((x, y) for x, r in enumerate(rows) for y in range(x) if r >> y & 1)
    return h


def test_leaf_distances_follow_from_the_parent():
    """A leaf is a connected P plus a vertex m joined to a non-empty set S.
    With a_x = d_P(x, S): d(x, y) = min(d_P(x, y), a_x + a_y + 2) and
    d(x, m) = a_x + 1; the leaf's distance-2 rows are P's, plus S less
    N_P[x] for each x in S, plus m joined to the x with a_x = 1; and the
    leaf is bipartite iff P is and S lies on one side (the README proves
    these).  ``leaf_pair`` agrees with ``diameter_pair`` on every leaf."""
    rng = random.Random(73)
    seen = [0, 0, 0]  # P not bipartite; S on one side of P; S on both
    for n in list(range(1, 64)) * 2:
        rows = [0] * n
        # a random tree plus a few or many random edges: diameters from 1 to about n
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        extra = rng.choice((0, 0, 1, n // 4, 2 * n)) * (n > 1)
        edges += [rng.sample(range(n), 2) for _ in range(extra)]
        for x, y in edges:
            rows[x] |= 1 << y
            rows[y] |= 1 << x
        size = min(n, rng.choice((1, 1, 2, 3, n // 2 + 1, n)))
        s = sum(1 << x for x in rng.sample(range(n), size))
        child = _leaf(rows, s)
        dist_p = _kernels.distances(rows)
        a = [min(dist_p[x][y] for y in range(n) if s >> y & 1) for x in range(n)]
        dist = _kernels.distances(child)
        for x in range(n):
            assert dist[x][n] == a[x] + 1
            for y in range(n):
                assert dist[x][y] == min(dist_p[x][y], a[x] + a[y] + 2)
        want = _kernels.ring_rows(rows, 2) + [sum(1 << x for x in range(n) if a[x] == 1)]
        for x in range(n):
            if s >> x & 1:
                want[x] |= s & ~(rows[x] | 1 << x)
            want[x] |= (a[x] == 1) << n
        assert _kernels.ring_rows(child, 2) == want
        h = _nx_graph(rows)
        sides = ()
        if nx.is_bipartite(h):
            sides = {c for x, c in nx.bipartite.color(h).items() if s >> x & 1}
        assert nx.is_bipartite(_nx_graph(child)) == (len(sides) == 1)
        seen[len(sides)] += 1
        assert _kernels.leaf_pair(_kernels.leaf_basis(rows), s) == _kernels.diameter_pair(child)
    assert min(seen) >= 20


def test_leaf_pair_matches_the_pair_kernel_on_every_small_leaf():
    """Every connected P on at most six vertices, every non-empty S."""
    for n in range(1, 7):
        for g in enumerate_connected(n):
            basis = _kernels.leaf_basis(g.adj)
            for s in range(1, 1 << n):
                pair = _kernels.diameter_pair(_leaf(g.adj, s))
                assert _kernels.leaf_pair(basis, s) == pair, (g.adj, s)


def test_reach_matches_a_plain_fixpoint():
    rng = random.Random(53)
    for n in range(1, 65):
        for p in (0.02, 0.08, 0.3):
            rows = random_graph(rng, n, p).adj
            within = rng.getrandbits(n) | 1
            start = rng.getrandbits(n) & within
            want = start
            while True:
                grown = want
                for v in range(n):
                    if (want >> v) & 1:
                        grown |= rows[v] & within
                if grown == want:
                    break
                want = grown
            assert _kernels.reach(rows, start, within) == want


def test_distances_match_reference_bfs():
    rng = random.Random(17)
    for n in (1, 2, 3, 7, 12, 20, 33):
        for p in (0.0, 0.15, 0.5, 0.9):
            g = random_graph(rng, n, p)
            assert _kernels.distances(g.adj) == reference_distances(g)


def test_pair_kernel_matches_plain_diameters():
    rng = random.Random(17)
    for n in (1, 2, 3, 7, 12, 20, 33):
        for p in (0.0, 0.15, 0.5, 0.9):
            g = random_graph(rng, n, p)
            d, d2 = _kernels.diameter_pair(g.adj)
            want_d = diameter(g)
            want_d2 = diameter(k_distance(g, 2))
            assert (d == -1) == (want_d == float("inf"))
            assert (d2 == -1) == (want_d2 == float("inf"))
            if d != -1:
                assert d == want_d
            if d2 != -1:
                assert d2 == want_d2


def test_pack_rows_round_trip():
    rng = random.Random(23)
    for n in (1, 5, 17, 40, 64):
        rows = list(random_graph(rng, n, 0.4).adj)
        packed = _kernels.pack(rows)
        assert packed.bit_length() <= n * n
        assert _kernels.unpack(packed, n) == rows
        for s in range(n):
            assert (packed >> (s * n)) & ((1 << n) - 1) == rows[s]


def test_library_runs_without_numpy():
    """The library, its search and the brute-force oracle run with numpy
    blocked."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import brute, distlab\n"
        "from distlab.cli import main\n"
        "print(distlab.survey(6).total())\n"
        "out = distlab.search(distlab.SearchParams(9, 6, 6))\n"
        "print(type(out).__name__, out.d, out.d2)\n"
        "print(len(brute.connected_class_reps(5)))\n"
        "sys.exit(main(['transform', '--k', '2']))\n"
    )
    line = emit(cycle_graph(6))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=line + "\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "112", "Witness 4 6", "21", emit(k_distance(cycle_graph(6), 2))
    ]
