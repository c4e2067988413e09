import hashlib
import itertools
import random

import networkx as nx

from distlab.canon import (
    automorphism_mapping,
    canonical_form,
    canonical_labeling_rows,
    orbits_from_generators,
    refine,
)
from distlab.graphs import bitset_to_vertices, from_edge_list

import brute
from util import (
    are_isomorphic,
    brute_isomorphic,
    brute_orbits,
    complete_graph,
    cycle_graph,
    list_cell_refine,
    path_graph,
    random_graph,
    reference_refine,
    relabeled,
    split_in_place,
)


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
    non-singleton root cell, individualized as the search does it; cells
    are bitsets."""
    root = [(1 << n) - 1], [(1 << n) - 1]
    yield root
    cells = refine(rows, *root)
    for i, c in enumerate(cells):
        if c.bit_count() > 1:
            for v in bitset_to_vertices(c):
                yield cells[:i] + [1 << v, c & ~(1 << v)] + cells[i + 1:], [1 << v]


def _is_equitable(rows, cells):
    return all(len({(rows[v] & m).bit_count() for v in bitset_to_vertices(c)}) == 1
               for c in cells for m in cells)


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
            want = reference_refine(rows, [bitset_to_vertices(c) for c in cells])
            assert {frozenset(bitset_to_vertices(c)) for c in got} == {frozenset(c) for c in want}
            assert _is_equitable(rows, got)
            image = lambda w: sum(1 << perm[v] for v in bitset_to_vertices(w))
            images = refine(moved, [image(c) for c in cells], [image(w) for w in splitters])
            assert [image(c) for c in got] == images
            checked += 1
    assert checked > 5000  # about 1,450 roots, the rest children


def test_refine_keeps_the_cell_order_of_list_cells():
    """Bitset cells are the ascending vertex lists that cells once were,
    in the same order: the canonical codes, orders and generators, and
    every census table, rest on it."""
    checked = 0
    for g in _atlas_and_random_graphs():
        rows, n = g.adj, g.n
        for cells, splitters in _refinement_inputs(rows, n):
            want = list_cell_refine(rows, [bitset_to_vertices(c) for c in cells], splitters)
            assert [bitset_to_vertices(c) for c in refine(rows, cells, splitters)] == want
            checked += 1
    assert checked > 5000


def test_stopped_refinement_is_split_in_place_and_commutes_with_relabeling():
    """With a stop condition (random ``watch`` and ``mark``), refine returns
    cells that the full refinement splits in place, each a union of a
    consecutive run of its cells, in order; at return, the last cell that
    meets ``watch`` misses ``mark`` or meets ``watch`` in ``mark`` alone,
    or else the cells are equitable.  The result commutes with
    relabeling, ``watch`` and ``mark`` relabeled too."""
    rng = random.Random(89)
    checked = stopped = 0
    for g in _atlas_and_random_graphs():
        rows, n = g.adj, g.n
        perm = list(range(n))
        rng.shuffle(perm)
        moved = relabeled(g, perm).adj
        image = lambda w: sum(1 << perm[v] for v in bitset_to_vertices(w))
        for cells, splitters in _refinement_inputs(rows, n):
            watch = rng.randrange(1, 1 << n)
            mark = 1 << rng.randrange(n) if rng.random() < 0.5 else rng.randrange(1 << n)
            got = refine(rows, cells, splitters, watch, mark)
            full = refine(rows, cells, splitters)
            assert split_in_place(got, full)
            last = next(c for c in reversed(got) if c & watch)
            assert not last & mark or not last & watch & ~mark or _is_equitable(rows, got)
            moved_got = refine(moved, [image(c) for c in cells], [image(w) for w in splitters],
                               image(watch), image(mark))
            assert moved_got == [image(c) for c in got]
            checked += 1
            stopped += got != full
    assert checked > 5000 and stopped > 1000  # 7,045 and 1,198


def _root_cells(rows, n):
    return refine(rows, [(1 << n) - 1], [(1 << n) - 1])


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


# sha256 over repr((code, order, generators)) of the canonical labeling of
# each of _cell_order_inputs(), recorded before cells were bitsets.
LABELINGS_SHA256 = "04a78989ace5070a867f3c0d21b0cbd373448fcaf449bc5f3724abc0e09c08fd"


def test_canonical_labelings_are_pinned():
    """Orders and generators, not only codes: the search branches on each
    cell's vertices in ascending order and keeps the first best leaf."""
    digest = hashlib.sha256()
    for rows, _ in _cell_order_inputs():
        res = canonical_labeling_rows(rows)
        digest.update(repr((res.code, res.order, res.generators)).encode())
    assert digest.hexdigest() == LABELINGS_SHA256


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
        ends = list(itertools.accumulate(c.bit_count() for c in cells))
        assert [sum(1 << v for v in order[a:b]) for a, b in zip([0] + ends, ends)] == cells
        checked += len(cells) < n
    assert checked > 1000  # graphs whose root partition is not discrete


def _planted_symmetry_graphs(rng, count):
    """Rows of random graphs on 9..20 vertices, each relabeled at random:
    three kinds with planted automorphisms (a random graph grown by true
    and false twins; a random graph with one random module substituted
    for every vertex; two copies of a random graph, the second relabeled,
    joined vertex to vertex, so that swapping the copies is an
    automorphism) and random regular graphs, whose root partition is one
    cell however few automorphisms they have."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            n = rng.randrange(9, 21)
            rows = list(random_graph(rng, rng.randrange(4, 9), rng.random()).adj)
            while len(rows) < n:
                v, w = rng.randrange(len(rows)), len(rows)
                nbrs = rows[v] | (1 << v if rng.random() < 0.5 else 0)
                rows = [r | (nbrs >> u & 1) << w for u, r in enumerate(rows)] + [nbrs]
        elif kind == 1:
            base = random_graph(rng, rng.randrange(3, 6), rng.random()).adj
            module = random_graph(rng, rng.randrange(3, 5), rng.random()).adj
            t = len(module)
            rows = [sum(1 << h * t + j for j in range(t) if module[i] >> j & 1)
                    | sum(((1 << t) - 1) << g * t for g in range(len(base)) if base[h] >> g & 1)
                    for h in range(len(base)) for i in range(t)]
        elif kind == 2:
            half = random_graph(rng, rng.randrange(5, 11), rng.random())
            h = half.n
            sigma = list(range(h))
            rng.shuffle(sigma)
            copy = relabeled(half, sigma).adj
            rows = [r | 1 << h + sigma[u] for u, r in enumerate(half.adj)]
            rows += [copy[u] << h for u in range(h)]
            for u in range(h):
                rows[h + sigma[u]] |= 1 << u
        else:
            n, d = rng.choice([(10, 3), (12, 3), (16, 3), (20, 3), (11, 4), (15, 4), (20, 5)])
            g = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
            rows = [sum(1 << v for v in g[u]) for u in range(n)]
        n = len(rows)
        perm = list(range(n))
        rng.shuffle(perm)
        yield relabeled(from_edge_list(n, [(u, v) for u in range(n) for v in range(u)
                                          if rows[u] >> v & 1]), perm).adj


def _nx_marked(rows, mark):
    """The graph with only ``mark`` marked, and added first: GraphMatcher
    pairs the first node of its second graph first, so the marked pair is
    fixed before any twin is tried."""
    g = nx.Graph()
    g.add_node(mark, mark=True)
    g.add_nodes_from((u, {"mark": False}) for u in range(len(rows)) if u != mark)
    g.add_edges_from((u, v) for u in range(len(rows)) for v in range(u) if rows[u] >> v & 1)
    return g


def test_automorphism_certificates_hold_on_planted_symmetry():
    """Whenever ``automorphism_mapping`` maps u to v, its map sends every
    edge to an edge and networkx's GraphMatcher finds an automorphism
    mapping u to v.  It maps most tried pairs of two vertices of a root
    cell, and not all of them."""
    rng = random.Random(97)
    tried = found = 0
    for rows in _planted_symmetry_graphs(rng, 80):
        n = len(rows)
        assert 9 <= n <= 20
        cells = refine(rows, [(1 << n) - 1], [(1 << n) - 1])
        for c in cells:
            vs = bitset_to_vertices(c)
            if len(vs) < 2:
                continue
            u = rng.choice(vs)
            vs.remove(u)
            for v in rng.sample(vs, min(len(vs), 4)):
                tried += 1
                perm = automorphism_mapping(rows, cells, u, v)
                if perm is None:
                    continue
                found += 1
                assert sorted(perm) == list(range(n)) and perm[u] == v
                assert all(rows[perm[x]] >> perm[y] & 1 == rows[x] >> y & 1
                           for x in range(n) for y in range(n))
                matcher = nx.algorithms.isomorphism.GraphMatcher(
                    _nx_marked(rows, u), _nx_marked(rows, v),
                    node_match=lambda a, b: a["mark"] == b["mark"])
                assert matcher.is_isomorphic(), (rows, u, v)
    assert tried // 2 < found < tried
