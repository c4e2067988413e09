"""The variable layout: ``a`` and ``b`` compute an index from the pair
alone, while ``pairs``, ``describe`` and the sidecar read ``VarMap``'s
table, so the arithmetic is checked against the table.
"""
from distlab.sat.cnf import VarMap
from distlab.sat.encode import build_formula
from distlab.sat.search import SearchParams


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
    lines = vm.sidecar().splitlines()
    assert len(lines) == formula.var_count == vm.var_count
    for idx, line in enumerate(lines, start=1):
        assert line == " ".join(map(str, (idx, *vm.describe(idx))))
