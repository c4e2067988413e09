import itertools
import math
import random

import pytest

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

CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


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
    """The acceptance rule without the degree test: canonize every
    attachment representative and keep those whose new vertex shares an
    orbit with the last non-cut vertex in canonical order."""
    m = len(rows)
    out = []
    for s in _attachment_reps(m, gens):
        child = [r | (s >> i & 1) << m for i, r in enumerate(rows)] + [s]
        res = canonical_labeling_rows(child, m + 1)
        orbit = orbits_from_generators(res.generators, m + 1)
        vstar = [v for v in res.order if _connected_without(child, v)][-1]
        if orbit[vstar] == orbit[m]:
            out.append((tuple(child), res.generators))
    return out


def test_degree_test_accepts_what_canonizing_every_child_accepts():
    nodes = [((0,), [])]
    seen = 0
    while nodes:
        rows, gens = nodes.pop()
        seen += 1
        got = list(_children(rows, gens))
        assert got == _children_by_canonizing_all(rows, gens)
        if len(rows) < 6:
            nodes += got
    assert seen == sum(CLASS_COUNTS[n] for n in range(1, 7))


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
    for n in range(1, 8):
        serial = survey(n)
        fanned = survey(n, jobs=2)
        assert fanned.n == serial.n
        assert fanned.cells == serial.cells
        assert serial.total() == CLASS_COUNTS[n]


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
