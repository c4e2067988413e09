import itertools
import math
import os
import random

import pytest

import distlab.enumeration
from distlab.canon import canonical_form, canonical_labeling_rows, orbits_from_generators
from distlab.enumeration import (
    ENUM_CAP,
    SurveyTable,
    _attachment_reps,
    _children,
    enumerate_connected,
    survey,
)
from distlab.graph6 import emit
from distlab.graphs import from_edge_list, is_connected

import brute
from util import (
    random_graph,
    reference_diameter,
    reference_k_distance_edges,
    relabeled,
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
            assert is_connected(g)
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
    for s in _attachment_reps(m, gens):
        child = [r | (s >> i & 1) << m for i, r in enumerate(rows)] + [s]
        res = canonical_labeling_rows(child, m + 1)
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


def test_children_refine_through_the_canon_module(monkeypatch):
    """Each child that passes the degree test is refined once from the
    whole vertex set, by a call that a wrapper on ``distlab.canon.refine``
    sees (the benchmark's tracer counts ``canon.refine`` there)."""
    whole = []
    real = distlab.canon.refine

    def counting(rows, cells, splitters):
        whole.append(cells == [list(range(len(rows)))])
        return real(rows, cells, splitters)

    monkeypatch.setattr(distlab.canon, "refine", counting)
    for rows in ((0b110, 0b1, 0b1), (0b1110, 0b1, 0b1, 0b1), (0b10, 0b101, 0b1010, 0b100)):
        m = len(rows)
        gens = canonical_labeling_rows(rows, m).generators
        whole.clear()
        list(_children(rows, gens, True))
        survivors = 0
        for s in _attachment_reps(m, gens):
            child = [r | (s >> i & 1) << m for i, r in enumerate(rows)] + [s]
            survivors += not any(
                child[u].bit_count() > s.bit_count() and _connected_without(child, u)
                for u in range(m))
        assert survivors and whole.count(True) == survivors


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


def test_survey_parallel_merge_is_identical():
    """Both paths total A001349; ``survey`` canonizes each root of order
    n - 2 for the generators that prune its subtree's attachment sets."""
    for n in range(1, 9):
        serial = survey(n)
        fanned = survey(n, jobs=2)
        assert fanned.n == serial.n
        assert fanned.cells == serial.cells
        assert serial.total() == CLASS_COUNTS[n]


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


@pytest.mark.parametrize("affinity, cpu_count, jobs, workers", [
    ({0, 1}, 64, 500, 2),
    ({0, 1, 2, 3}, 4, 2, 2),
    ({5}, 8, 3, 1),
    (None, 3, 500, 3),
    (None, None, 500, 1),
], ids=["affinity-caps", "jobs-below-cpus", "one-usable-cpu", "no-affinity", "cpus-unknown"])
def test_survey_pool_never_outnumbers_the_usable_cpus(
    monkeypatch, affinity, cpu_count, jobs, workers
):
    monkeypatch.setattr(distlab.enumeration, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert survey(5, jobs=jobs).cells == survey(5).cells
    assert _SerialPool.sizes == [workers]


@pytest.mark.parametrize("jobs", [0, -3])
def test_survey_refuses_a_job_count_below_one(jobs):
    with pytest.raises(ValueError, match="job count"):
        survey(5, jobs=jobs)


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


def test_survey_csv_round_trip():
    t = survey(5)
    text = t.to_csv()
    assert text.splitlines()[0] == "n,d,d2,count"
    back = SurveyTable.from_csv(text)
    assert back.n == t.n
    assert back.cells == t.cells
    assert "inf" in text


def test_survey_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        SurveyTable.from_csv("d,d2,count\n1,1,1\n")
    with pytest.raises(ValueError):
        SurveyTable.from_csv("n,d,d2,count\n5,1,1,1\n6,1,1,1\n")
    with pytest.raises(ValueError):
        SurveyTable.from_csv("n,d,d2,count\n")
