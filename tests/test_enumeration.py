import collections
import concurrent.futures
import hashlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import distlab._kernels
import distlab.canon
import distlab.enumeration
from distlab.canon import canonical_form, canonical_labeling_rows, orbits_from_generators
from distlab.enumeration import (
    ENUM_CAP,
    SurveyTable,
    _attachment_reps,
    _children,
    _cut_parts,
    enumerate_connected,
    survey,
)
from distlab.graph6 import emit
from distlab.graphs import from_edge_list

import brute
from util import (
    nx_diameter_pair,
    reference_diameter,
    reference_k_distance_edges,
    relabeled,
    split_in_place,
)

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}  # OEIS A001349


@pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
def test_class_counts(n, count):
    assert sum(1 for _ in enumerate_connected(n)) == count


def test_output_is_connected_and_isomorph_free():
    for n in range(1, 8):
        forms = set()
        for g in enumerate_connected(n):
            assert g.n == n
            assert nx.is_connected(_nx_graph(g.adj))
            forms.add(canonical_form(g))
        assert len(forms) == CLASS_COUNTS[n]


def _connected_without(rows, v):
    rest = [u for u in range(len(rows)) if u != v]
    seen = {rest[0]} if rest else set()
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in rest:
            if w not in seen and rows[u] >> w & 1:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def _children_by_canonizing_all(rows, gens):
    """The acceptance rule without the degree test or the partition
    rule: canonize every attachment representative and keep those whose
    new vertex shares an orbit with the last non-cut vertex in canonical
    order."""
    m = len(rows)
    out = []
    for s in _attachment_reps(m, gens, [0] * (m + 1)):
        child = [r | (s >> i & 1) << m for i, r in enumerate(rows)] + [s]
        res = canonical_labeling_rows(child)
        orbit = orbits_from_generators(res.generators, m + 1)
        vstar = next(v for v in reversed(res.order) if _connected_without(child, v))
        if orbit[vstar] == orbit[m]:
            out.append((tuple(child), res.generators))
    return out


def test_degree_test_accepts_what_canonizing_every_child_accepts():
    """At every node of order <= 7, the degree test and the partition
    rule accept exactly the children that canonizing each one accepts,
    with its generators wherever the walk grows the child further."""
    nodes = [((0,), [])]
    seen = 0
    while nodes:
        rows, gens = nodes.pop()
        seen += 1
        want = _children_by_canonizing_all(rows, gens)
        assert list(_children(rows, gens, False)) == want
        assert [c for c, _ in _children(rows, gens, True)] == [c for c, _ in want]
        if len(rows) < 7:
            nodes += want
    assert seen == sum(CLASS_COUNTS[n] for n in range(1, 8))


def _orbit_minima(m, gens):
    """Least member of each orbit of nonempty subsets of 0..m-1, ascending,
    from the whole group: the generators closed under composition."""
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(m))
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    image = lambda p, s: sum(1 << p[i] for i in range(m) if s >> i & 1)
    return sorted({min(image(p, s) for p in group) for s in range(1, 1 << m)})


def _nodes_up_to(order):
    """Every node of the augmentation tree of order <= ``order``, with its generators."""
    nodes, out = [((0,), [])], []
    while nodes:
        rows, gens = nodes.pop()
        out.append((rows, gens))
        if len(rows) < order:
            nodes += _children(rows, gens, False)
    return out


def test_attachment_reps_are_the_least_members_of_the_orbits():
    """At every node of order <= 6 the representatives are the ascending
    least members of the subset orbits of the node's automorphism group."""
    nodes = _nodes_up_to(6)
    for rows, gens in nodes:
        m = len(rows)
        assert list(_attachment_reps(m, gens, [0] * (m + 1))) == _orbit_minima(m, gens)
    assert len(nodes) == sum(CLASS_COUNTS[n] for n in range(1, 7))


def _nx_graph(rows):
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((u, v) for u in range(len(rows)) for v in range(u) if rows[u] >> v & 1)
    return g


def _twin_of_m(child, m, v):
    """Whether N(m) less v equals N(v) less m, by comparing neighbour sets."""
    nbrs = lambda u: {w for w in range(len(child)) if child[u] >> w & 1}
    return nbrs(m) - {v} == nbrs(v) - {m}


def test_twins_of_m_are_read_from_the_parent_rows():
    """At every node of order <= 6, for every attachment representative s
    (unmasked) and every v < m: v is a twin of m in the child iff the
    parent's row of v is s less v, the test ``_children`` runs before it
    builds the child.  Both kinds occur: true twins (v in s, so v and m
    are adjacent) and false twins (v not in s)."""
    kinds = collections.Counter()
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        for s in _attachment_reps(m, gens, [0] * (m + 1)):
            child = tuple(r | (s >> i & 1) << m for i, r in enumerate(rows)) + (s,)
            for v in range(m):
                twin = _twin_of_m(child, m, v)
                assert (rows[v] == s & ~(1 << v)) == twin, (rows, s, v)
                if twin:
                    kinds["true" if s >> v & 1 else "false"] += 1
    assert kinds == {"true": 579, "false": 573}


def _degree_cells(rows):
    """The vertices of each degree, as bitsets, in increasing degree."""
    by_degree = collections.defaultdict(int)
    for u, r in enumerate(rows):
        by_degree[r.bit_count()] |= 1 << u
    return [by_degree[d] for d in sorted(by_degree)]


def _rule_verdict(cells, noncut, m):
    """The partition rule on ``cells``: "reject" when m is not in the last
    cell that holds a non-cut vertex, else the rivals, that cell's other
    non-cut vertices (0 accepts)."""
    last = next(c for c in reversed(cells) if c & noncut)
    return noncut & last & ~(1 << m) if last >> m & 1 else "reject"


def test_children_refine_through_the_canon_module(monkeypatch):
    """A leaf child that passes the degree test is refined once, from its
    degree cells in increasing degree, each of them a splitter (none when
    the child is regular), by a call that a wrapper on
    ``distlab.canon.refine`` sees (the benchmark's tracer counts
    ``canon.refine`` there), exactly when another non-cut vertex has m's
    degree and is not a twin of m; the others are not refined at all.
    That call stops at the partition rule's verdict: it watches the
    child's non-cut vertices and marks m, its cells give the verdict that
    refining from the whole vertex set gives, and that full refinement
    splits them in place; a child left with rivals gets the full
    refinement, which the certificates start from.  Without ``leaf``
    every child that passes is refined once from its degree cells, with
    no stop, to the full refinement.  Every other refine call on a child
    is the certificate's, by one individualized vertex, with no stop."""
    seeded, seen = [], set()
    regular = stopped = 0
    leaf = False  # _nodes_up_to grows the nodes below with no stop
    real = distlab.canon.refine

    def recording(rows, cells, splitters, watch=0, mark=0):
        nonlocal regular, stopped
        seen.add(tuple(rows))
        degree = _degree_cells(rows)
        got = real(rows, cells, splitters, watch, mark)
        if cells == degree and splitters == (degree if len(degree) > 1 else []):
            full = (1 << len(rows)) - 1
            want = real(rows, [full], [full])
            if leaf:
                m = len(rows) - 1
                assert watch == sum(1 << u for u in range(m + 1) if _connected_without(rows, u))
                assert mark == 1 << m
                verdict = _rule_verdict(got, watch, m)
                assert verdict == _rule_verdict(want, watch, m)
                assert split_in_place(got, want)
                if verdict not in ("reject", 0):
                    assert got == want
                stopped += got != want
            else:
                assert got == want and not watch
            seeded.append(tuple(rows))
            regular += len(degree) == 1
        else:
            assert len(splitters) == 1 and splitters[0] & splitters[0] - 1 == 0 and not watch
        return got

    monkeypatch.setattr(distlab.canon, "refine", recording)
    skipped = 0
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        survivors, tied = [], []
        for s in _attachment_reps(m, gens, [0] * (m + 1)):
            child = tuple(r | (s >> i & 1) << m for i, r in enumerate(rows)) + (s,)
            noncut = [u for u in range(m) if _connected_without(child, u)]
            if any(child[u].bit_count() > s.bit_count() for u in noncut):
                continue
            survivors.append(child)
            if any(child[u].bit_count() == s.bit_count() and not _twin_of_m(child, m, u)
                   for u in noncut):
                tied.append(child)
        seeded.clear()
        seen.clear()
        leaf = True
        list(_children(rows, gens, True))
        assert seeded == tied and seen == set(tied)
        skipped += len(survivors) - len(tied)
        seeded.clear()
        leaf = False
        list(_children(rows, gens, False))
        assert seeded == survivors
    assert skipped and regular and stopped


def _refined_leaf_children(rows, gens):
    """Each child of (rows, gens) that passes the degree test and the
    partition rule, with m's refined cells and its rivals, the other
    non-cut vertices of that cell, found with networkx's cut vertices."""
    m = len(rows)
    full = (1 << m + 1) - 1
    for s in _attachment_reps(m, gens, [0] * (m + 1)):
        child = tuple(r | (s >> i & 1) << m for i, r in enumerate(rows)) + (s,)
        noncut = set(range(m + 1)) - set(nx.articulation_points(_nx_graph(child)))
        if any(child[u].bit_count() > s.bit_count() for u in noncut):
            continue
        cells = distlab.canon.refine(child, [full], [full])
        last = next(c for c in reversed(cells) if any(c >> u & 1 for u in noncut))
        if last >> m & 1:
            yield child, cells, sorted(u for u in noncut if u != m and last >> u & 1)


def test_leaf_children_are_canonized_only_for_a_rival_that_is_not_a_twin(monkeypatch):
    """At every node of order <= 6, with ``leaf``, a wrapper on
    ``distlab.enumeration.canonical_labeling_rows`` (where the benchmark's
    tracer counts ``canon.labeling``) sees exactly the children that pass
    the degree test and the partition rule and have a rival, another
    non-cut vertex of m's refined cell, that is not a twin of m and onto
    which ``canon.automorphism_mapping`` from the refined cells maps no m,
    in order.  A child whose rivals are all twins of m, or mapped onto by
    that certificate, is accepted: (m v), or the certificate, is an
    automorphism for each of them, so v* shares m's orbit."""
    seen = []
    real = distlab.enumeration.canonical_labeling_rows

    def recording(rows, cells=None):
        seen.append(tuple(rows))
        return real(rows, cells)

    monkeypatch.setattr(distlab.enumeration, "canonical_labeling_rows", recording)
    twins_only = certified = 0
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        want = []
        for child, cells, rivals in _refined_leaf_children(rows, gens):
            others = [v for v in rivals if not _twin_of_m(child, m, v)]
            if not others:
                twins_only += bool(rivals)
            elif all(distlab.canon.automorphism_mapping(child, cells, m, v) for v in others):
                certified += 1
            else:
                want.append(child)
        seen.clear()
        list(_children(rows, gens, True))
        assert seen == want, rows
    assert twins_only and certified


def test_certificates_cover_every_leaf_whose_rivals_share_ms_orbit():
    """At every node of order <= 6, on every child that the partition rule
    leaves with rivals, all of them in m's orbit by the generators that
    canonizing the child finds, the certificate maps m onto each rival,
    twins of m included, by an automorphism."""
    covered = 0
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        for child, cells, rivals in _refined_leaf_children(rows, gens):
            orbit = orbits_from_generators(canonical_labeling_rows(child).generators, m + 1)
            if not rivals or any(orbit[v] != orbit[m] for v in rivals):
                continue
            for v in rivals:
                perm = distlab.canon.automorphism_mapping(child, cells, m, v)
                assert perm is not None and perm[m] == v, (child, v)
                assert all(child[perm[x]] == sum(1 << perm[y] for y in range(m + 1)
                                                 if child[x] >> y & 1)
                           for x in range(m + 1))
            covered += 1
    assert covered > 100


def test_size_bound_drops_only_children_that_fail_the_degree_test(monkeypatch):
    """At every node of order <= 6, ``_children`` lists the attachment sets
    through the degree masks built from the parent's non-cut vertices (cut
    vertices from networkx), the masked representatives are the unmasked
    ones less the sets that meet their mask, and each dropped set's child
    has a non-cut vertex of larger degree than m.  A mask that drops one
    whole size filters the list the same way."""
    used = []

    def recording(m, gens, bad):
        used.append(bad)
        return _attachment_reps(m, gens, bad)

    nodes = _nodes_up_to(6)
    monkeypatch.setattr(distlab.enumeration, "_attachment_reps", recording)
    dropped = 0
    for rows, gens in nodes:
        m = len(rows)
        full = (1 << m) - 1
        cut = set(nx.articulation_points(_nx_graph(rows)))
        solid = [u for u in range(m) if u not in cut]
        kmin = max((rows[u].bit_count() for u in solid), default=0)
        bad = [full if k < kmin else sum(1 << u for u in solid if rows[u].bit_count() == k)
               for k in range(m + 1)]
        strong = [u for u in solid if rows[u].bit_count() >= 2]
        bad[1] = full if len(strong) >= 2 else full & ~(1 << strong[0]) if strong else 0
        used.clear()
        list(_children(rows, gens, False))
        assert [b[1:] for b in used] == [bad[1:]], rows  # bad[0] is never read
        unmasked = list(_attachment_reps(m, gens, [0] * (m + 1)))
        want = [s for s in unmasked if not s & bad[s.bit_count()]]
        assert list(_attachment_reps(m, gens, bad)) == want, rows
        for k in range(1, m + 1):
            one_size = [full if j == k else 0 for j in range(m + 1)]
            want = [s for s in unmasked if s.bit_count() != k]
            assert list(_attachment_reps(m, gens, one_size)) == want, (rows, k)
        for s in unmasked:
            if s & bad[s.bit_count()]:
                child = tuple(r | (s >> i & 1) << m for i, r in enumerate(rows)) + (s,)
                noncut = set(range(m + 1)) - set(nx.articulation_points(_nx_graph(child)))
                assert any(child[u].bit_count() > s.bit_count() for u in noncut), (rows, s)
                dropped += 1
    assert dropped


def test_parent_cut_parts_give_each_childs_non_cut_vertices():
    """At every node of order <= 6, K1 included, and for every attachment
    representative s: u < m is a non-cut vertex of the child iff s meets
    every component of the parent without u, and m is never a cut vertex."""
    steps = 0
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        parts = _cut_parts(rows)
        for s in _attachment_reps(m, gens, [0] * (m + 1)):
            child = [r | (s >> i & 1) << m for i, r in enumerate(rows)] + [s]
            derived = {u for u in range(m) if all(s & c for c in parts[u])} | {m}
            cut = set(nx.articulation_points(_nx_graph(child)))
            assert derived == set(range(m + 1)) - cut, (rows, s)
            steps += 1
    assert steps and _cut_parts((0,)) == [[]]


def test_children_reach_once_per_component_of_the_parent_without_a_vertex(monkeypatch):
    """One ``_children`` call makes one ``_kernels.layers`` search per
    component of parent - u, summed over u, however many attachment sets
    it tries."""
    calls = []
    real = distlab._kernels.layers

    def counting(rows, start, within=-1):
        calls.append(1)
        return real(rows, start, within)

    monkeypatch.setattr(distlab._kernels, "layers", counting)
    for rows, gens in _nodes_up_to(6):
        m = len(rows)
        g = _nx_graph(rows)
        want = sum(nx.number_connected_components(nx.restricted_view(g, [u], [])) for u in range(m))
        for pruned in (gens, []):  # all 2^m - 1 attachment sets without generators
            for leaf in (True, False):
                calls.clear()
                list(_children(rows, pruned, leaf))
                assert len(calls) == want, (rows, pruned, leaf)


# sha256 of ''.join(repr(g.adj) for g in enumerate_connected(n)), recorded
# before canon kept its cells as bitsets.
ENUMERATION_SHA256 = {
    1: "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
    2: "34e6f08aad18ac9868a9da1b5d2ad0bf2fabf191e92652264ecfc9bde7460695",
    3: "1d1760dca281514c696bf4c39f2a0701491d9ea3fe5bff9d48fa9f4d2d80c4a0",
    4: "6f49767a516df6b023a967b3fb13054210cc8f7ffd09040baad257300a9ce381",
    5: "94317dea556421cd17d94da081298309138dc9de8c7ce79aee7d736b86d87241",
    6: "f0c03f443fb86c5acf2d0d13afbcbb4b3aebe74e1c59f3b3ef412e666db45efb",
    7: "3152964449823a5b38b8bd20531affa246777d9f934a1b6c947dabeaed20ed0f",
    8: "a7264597696150d9168204d9ef24a61ee5693507e01e59022b846f6bec1219be",
}


def test_enumeration_order_is_pinned():
    """The stream itself, rows and order included, not only its classes:
    the canonical orders, generators and accepted children it rests on
    must not move when canon's internals do."""
    for n, want in ENUMERATION_SHA256.items():
        got = hashlib.sha256("".join(repr(g.adj) for g in enumerate_connected(n)).encode())
        assert got.hexdigest() == want, n


def test_enumeration_is_deterministic():
    first = [emit(g) for g in enumerate_connected(6)]
    second = [emit(g) for g in enumerate_connected(6)]
    assert first == second


def test_classes_match_brute_force_oracle():
    for n in range(1, 7):
        ours = {canonical_form(g) for g in enumerate_connected(n)}
        theirs = {
            canonical_form(from_edge_list(n, brute.mask_edges(n, mask)))
            for mask in brute.connected_class_reps(n)
        }
        assert ours == theirs


def test_random_relabelings_land_in_the_enumerated_set():
    for n in (7, 8):
        forms = {canonical_form(g) for g in enumerate_connected(n)}
        rng = random.Random(61)
        members = [g for g in itertools.islice(enumerate_connected(n), 40)]
        for g in members:
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) in forms


def test_caps():
    assert next(enumerate_connected(ENUM_CAP)).n == ENUM_CAP
    with pytest.raises(ValueError):
        next(enumerate_connected(ENUM_CAP + 1))
    with pytest.raises(ValueError):
        survey(ENUM_CAP + 1)


@pytest.mark.parametrize("n", [True, False, 0, -1, 2.0, "3", None])
def test_orders_that_are_not_positive_ints_are_refused(n):
    """A bool is an int to Python, but True is no vertex count: survey(True)
    once wrote the row ``True,0,0,1``."""
    with pytest.raises(ValueError, match="vertex count must be a positive integer"):
        survey(n)
    with pytest.raises(ValueError, match="vertex count must be a positive integer"):
        next(enumerate_connected(n))


def _brute_cells(n):
    cells = {}
    for mask in brute.connected_class_reps(n):
        g = from_edge_list(n, brute.mask_edges(n, mask))
        d = reference_diameter(g)
        g2 = from_edge_list(n, sorted(reference_k_distance_edges(g, 2)))
        d2 = reference_diameter(g2)
        key = (d, math.inf if d2 < 0 else d2)
        cells[key] = cells.get(key, 0) + 1
    return cells


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_survey_cells_match_brute_force(n):
    table = survey(n)
    assert table.n == n
    assert table.cells == _brute_cells(n)
    assert table.total() == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", [1, 7, 8])
def test_survey_cells_match_networkx(n):
    """The orders the brute-force oracle does not reach, and n = 1, whose
    root has no parent."""
    cells = {}
    for g in enumerate_connected(n):
        d, d2 = nx_diameter_pair(n, g.edges())
        key = (d, math.inf if d2 < 0 else d2)
        cells[key] = cells.get(key, 0) + 1
    assert survey(n).cells == cells


def test_census_measures_each_leaf_from_its_parent(monkeypatch):
    """A census makes one ``leaf_basis`` BFS per order-(n - 1) node and one
    ``leaf_pair`` per graph it counts, and no ``diameter_pair`` or
    ``diameter``, which test connectivity: every graph it counts is
    connected."""
    calls = collections.Counter()

    def counted(name):
        real = getattr(distlab._kernels, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(distlab._kernels, name, counting)

    for name in ("diameter_pair", "diameter", "leaf_basis", "leaf_pair"):
        counted(name)
    monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda: 1)
    for n in range(3, 9):
        calls.clear()
        assert survey(n).total() == CLASS_COUNTS[n]
        assert calls == {"leaf_basis": CLASS_COUNTS[n - 1], "leaf_pair": CLASS_COUNTS[n]}, n


def test_census_canonizes_each_root_once(monkeypatch):
    """Every canonization in a census is of a child, from the cells its
    partition rule refined: the subtree roots come with the generators
    that listing them found, and none is canonized again."""
    fresh = []
    real = distlab.enumeration.canonical_labeling_rows

    def recording(rows, cells=None):
        if cells is None:
            fresh.append(tuple(rows))
        return real(rows, cells)

    monkeypatch.setattr(distlab.enumeration, "canonical_labeling_rows", recording)
    monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda: 1)
    for n in range(1, 9):
        assert survey(n).total() == CLASS_COUNTS[n]
    assert fresh == []


def test_census_round_work_is_pinned(monkeypatch):
    """One census round, survey(7) then survey(8) in this process, lists
    23,082 attachment sets and makes 1,183 canonical labelings, and the
    refinements of children at the walk's final order, which stop at the
    partition rule's verdict, run 34,814 splitter passes (72,385 when
    each ran to an equitable partition).  A pass is one execution of the
    ``stack.pop()`` line of ``canon.refine``, counted by a line tracer."""
    counts = collections.Counter()
    reps = distlab.enumeration._attachment_reps
    labeling = distlab.enumeration.canonical_labeling_rows
    real = distlab.canon.refine
    lines, first = inspect.getsourcelines(real)
    pop_line = first + next(i for i, line in enumerate(lines) if "stack.pop()" in line)

    def counting_reps(m, gens, bad):
        for s in reps(m, gens, bad):
            counts["sets"] += 1
            yield s

    def counting_labeling(rows, cells=None):
        counts["labelings"] += 1
        return labeling(rows, cells)

    def passes(frame, event, arg):
        if event == "line" and frame.f_lineno == pop_line:
            counts["leaf passes"] += 1
        return passes

    def counting_refine(rows, cells, splitters, watch=0, mark=0):
        if not watch:
            return real(rows, cells, splitters)
        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: passes if frame.f_code is real.__code__ else None)
        try:
            return real(rows, cells, splitters, watch, mark)
        finally:
            sys.settrace(outer)

    monkeypatch.setattr(distlab.enumeration, "_attachment_reps", counting_reps)
    monkeypatch.setattr(distlab.enumeration, "canonical_labeling_rows", counting_labeling)
    monkeypatch.setattr(distlab.canon, "refine", counting_refine)
    monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda: 1)
    assert survey(7).total() + survey(8).total() == 11970
    assert counts == {"sets": 23082, "labelings": 1183, "leaf passes": 34814}


def test_survey_parallel_merge_is_identical(monkeypatch):
    """On one usable CPU and on two, the tables for n = 1..8 agree and
    total A001349; two CPUs fan n = 7 and n = 8 out to two worker
    processes, which receive each root of order n - 2 with the generators
    that prune its subtree's attachment sets."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for n in range(1, 9):
        monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda: 1)
        serial = survey(n)
        monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda: 2)
        fanned = survey(n)
        assert fanned.n == serial.n
        assert fanned.cells == serial.cells
        assert serial.total() == CLASS_COUNTS[n]
    assert sizes == [2, 2]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("affinity, cpu_count, n, sizes", [
    ({0, 1}, 64, 7, [2]),
    ({0, 1, 2, 3}, 4, 7, [3]),
    ({5}, 8, 8, []),
    (None, 2, 7, [2]),
    (None, None, 8, []),
    (set(range(64)), 64, 6, []),
], ids=["affinity-caps", "chunks-below-cpus", "one-usable-cpu", "no-affinity", "cpus-unknown",
        "one-chunk"])
def test_survey_pool_never_outnumbers_the_usable_cpus(
    monkeypatch, affinity, cpu_count, n, sizes
):
    """One worker per chunk of 8 subtrees, at most one per usable CPU.  A
    pool of one worker adds a process and no parallelism, so one usable
    CPU, or one chunk (n <= 6, at most 6 subtrees), counts them here."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert survey(n).total() == CLASS_COUNTS[n]
    assert _SerialPool.sizes == sizes


def test_a_serial_census_imports_no_process_pool():
    """``import distlab.cli`` and a census on one usable CPU, or of one
    chunk of subtrees (n = 6), leave ``concurrent.futures.process``
    unimported; a census fanned out over two CPUs loads it."""
    code = ("import sys, distlab.cli\n"
            "from distlab import enumeration\n"
            "def loaded():\n"
            "    print('concurrent.futures.process' in sys.modules)\n"
            "enumeration._usable_cpus = lambda: 1\n"
            "enumeration.survey(7)\n"
            "loaded()\n"
            "enumeration._usable_cpus = lambda: 2\n"
            "enumeration.survey(6)\n"
            "loaded()\n"
            "enumeration.survey(7)\n"
            "loaded()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["False", "False", "True"]


def test_census_support_grows_with_the_order():
    """Adding a false twin keeps (diam G, diam G2) when diam G >= 2, so a
    cell with d >= 2 that is filled at order n - 1 is filled at order n."""
    below = survey(2)
    for n in range(3, 9):
        table = survey(n)
        lost = {cell for cell in below.cells if cell[0] >= 2} - table.cells.keys()
        assert not lost, (n, lost)
        below = table


def _committed_table(n: int, *path: str) -> dict[tuple[int, str], int]:
    """The census CSV at ``path`` below the repository root, checked to be
    order n, as {(d, d2): count} with d2 as written ("inf" or a number)."""
    with open(os.path.join(os.path.dirname(__file__), "..", *path)) as f:
        header, *lines = f.read().splitlines()
    assert header == "n,d,d2,count"
    cells = {}
    for line in lines:
        order, d, d2, count = line.split(",")
        assert order == str(n)
        cells[int(d), d2] = int(count)
    return cells


def test_committed_n9_table_totals_a001349():
    """``tests/data/survey_9.csv``, which the CI diffs against a one-CPU
    ``distlab survey --n 9``, totals A001349(9) and holds the (3,5),
    (4,6), (5,6) and (7,7) counts of the n = 9 census that ROADMAP.md
    records."""
    cells = _committed_table(9, "tests", "data", "survey_9.csv")
    assert sum(cells.values()) == 261080
    assert cells[3, "5"] == 2566 and cells[4, "6"] == 1
    assert cells[5, "6"] == 109 and cells[7, "7"] == 2


def test_committed_n10_table_holds_the_census_oracles():
    """``results/census_10.csv``, which the CI diffs against an all-CPU
    ``distlab survey --n 10``, read without rerunning the census: it totals
    A001349(10), every finite cell with d >= 3 lies in the theorem's window
    ceil(d/2) <= d2 <= d + 2, the (4,6) cell holds the 10 classes that the
    SAT enumeration of (4,6) graphs found, and every cell with d >= 2 that
    is filled at n = 9 is filled here (twin lemma), with the new ones."""
    cells = _committed_table(10, "results", "census_10.csv")
    assert sum(cells.values()) == 11716571
    outside = [(d, d2) for d, d2 in cells
               if d >= 3 and d2 != "inf" and not -(-d // 2) <= int(d2) <= d + 2]
    assert outside == []
    assert cells[4, "6"] == 10
    below = {cell for cell in _committed_table(9, "tests", "data", "survey_9.csv") if cell[0] >= 2}
    assert below - cells.keys() == set()
    new = {(2, "9"), (6, "3"), (7, "5"), (8, "7"), (8, "8"), (9, "inf")}
    assert new <= cells.keys() - below


def test_survey_table_accessors():
    t = SurveyTable(5)
    t.add(2, 3)
    t.add(2, math.inf, 4)
    t.add(1, 1, 2)
    t.add(2, 3, 2)
    assert t.get(2, 3) == 3
    assert t.get(9, 9) == 0
    assert t.total() == 9
    keys = [k for k, _ in t.sorted_items()]
    assert keys == [(1, 1), (2, 3), (2, math.inf)]
    # Equality and repr by (n, cells), and a Counter of its own per table.
    same = SurveyTable(5)
    for d, d2, count in ((2, math.inf, 4), (1, 1, 2), (2, 3, 3)):
        same.add(d, d2, count)
    assert t == same
    assert t != SurveyTable(6, same.cells)
    assert t != SurveyTable(5)
    assert t != (5, t.cells)
    assert repr(t) == f"SurveyTable(n=5, cells={t.cells!r})"
    a, b = SurveyTable(3), SurveyTable(3)
    a.add(1, 1)
    assert a.cells is not b.cells
    assert b.total() == 0


def test_survey_csv_round_trip():
    t = survey(5)
    text = t.to_csv()
    assert text.splitlines()[0] == "n,d,d2,count"
    assert "inf" in text
