"""The variable layout: ``a`` and ``b`` compute an index from the pair
alone, while ``pairs`` and the sidecar read ``VarMap``'s table, so the
arithmetic is checked against the table.
"""
from distlab.sat.cnf import VarMap
from distlab.sat.encode import build_formula
from distlab.sat.search import SearchParams

from util import sidecar_entries


def test_a_and_b_are_the_positions_of_their_pair():
    for n in range(2, 65):
        vm = VarMap(n)
        npairs = n * (n - 1) // 2
        for pos, (i, j) in enumerate(vm.pairs(), start=1):
            for u, v in ((i, j), (j, i)):
                assert vm.a(u, v) == pos, (n, u, v)
                assert vm.b(u, v) == pos + npairs, (n, u, v)


def test_every_sidecar_line_is_describe_of_its_index():
    vm, formula = build_formula(SearchParams(13, 8, 8), 6)
    entries = sidecar_entries(vm)  # checks that line v numbers variable v
    assert len(entries) == formula.var_count == vm.var_count
    npairs = 13 * 12 // 2
    for idx, (kind, *verts) in enumerate(entries, start=1):
        if idx <= 2 * npairs:
            assert kind == "ab"[idx > npairs]
            assert getattr(vm, kind)(*verts) == idx
        else:
            assert kind not in ("a", "b") and verts
