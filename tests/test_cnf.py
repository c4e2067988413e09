import random

import pytest

from distlab.sat.cnf import CnfFormula, VarMap, emit_dimacs, parse_dimacs


def test_add_validates_clauses():
    f = CnfFormula(3)
    f.add([1, -2])
    f.add([3])
    assert f.clause_count == 2
    with pytest.raises(ValueError):
        f.add([])
    with pytest.raises(ValueError):
        f.add([0])
    with pytest.raises(ValueError):
        f.add([4])
    with pytest.raises(ValueError):
        f.add([-4])
    with pytest.raises(ValueError):
        f.add([1, -1])


def test_constructor_validates_clauses():
    with pytest.raises(ValueError):
        CnfFormula(2, [[3]])
    with pytest.raises(ValueError):
        CnfFormula(2, [[1], [2, -2]])
    with pytest.raises(ValueError):
        CnfFormula(2, [[]])
    with pytest.raises(ValueError):
        CnfFormula(-1)


def test_add_drops_repeated_literals_keeping_first_occurrences():
    f = CnfFormula(3, [[2, 1, 2, 3, 1]])
    f.add(iter([-3, -3]))
    assert f.clauses == [[2, 1, 3], [-3]]


def test_extend():
    f = CnfFormula(2)
    f.extend([[1], [1, 2], [-2]])
    assert f.clauses == [[1], [1, 2], [-2]]


def test_emit_format():
    f = CnfFormula(3, [[1, -2], [2, 3]])
    assert emit_dimacs(f) == "p cnf 3 2\n1 -2 0\n2 3 0\n"


def test_parse_round_trip():
    f = CnfFormula(4, [[1, -2, 4], [3], [-1, -3]])
    back = parse_dimacs(emit_dimacs(f))
    assert back.var_count == f.var_count
    assert back.clauses == f.clauses


def test_parse_accepts_comments_and_split_clauses():
    text = "c header comment\np cnf 3 2\nc mid\n1 -2\n0\n2\n3 0\n"
    f = parse_dimacs(text)
    assert f.var_count == 3
    assert f.clauses == [[1, -2], [2, 3]]


def test_parse_keeps_the_models_of_tautologies_and_empty_clauses():
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert (f.var_count, f.clauses) == (2, [[2]])
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert (f.var_count, f.clauses) == (1, [[1], [-1]])
    f = parse_dimacs("p cnf 0 1\n0\n")
    assert (f.var_count, f.clauses) == (1, [[1], [-1]])
    with pytest.raises(ValueError, match="declared 3 clauses, found 2"):
        parse_dimacs("p cnf 2 3\n1 -1 0\n0\n")
    with pytest.raises(ValueError, match="exceeds var count"):
        parse_dimacs("p cnf 2 1\n1 -1 3 0\n")


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf -2 0\n")


@pytest.mark.parametrize("text, lineno", [
    ("p cnf 2 1\n1 x 0\n", 2),
    ("c note\np cnf 2 1\n1\n3 0\n", 4),
    ("p cnf 2 1\n1 -1 3 0\n", 2),
    ("p cnf x 1\n", 1),
    ("p dnf 2 1\n", 1),
    ("p cnf 2 1\np cnf 2 1\n", 2),
    ("c note\n1 2 0\n", 2),
    ("p cnf 0 2\n0\n1 0\n", 3),
    ("p cnf 0 2\n0\n1 -1 0\n", 3),
])
def test_parse_errors_name_their_line(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_dimacs(text)


def test_parse_stops_at_the_satlib_trailer():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n\n")
    assert (f.var_count, f.clauses) == (2, [[1, 2]])
    with pytest.raises(ValueError, match="unterminated clause"):
        parse_dimacs("p cnf 2 1\n1 2\n%\n0\n")


def test_random_round_trips():
    rng = random.Random(67)
    for _ in range(200):
        nvars = rng.randrange(1, 30)
        f = CnfFormula(nvars)
        for _ in range(rng.randrange(1, 15)):
            width = rng.randrange(1, min(6, nvars + 1))
            clause = []
            seen = set()
            while len(clause) < width:
                v = rng.randrange(1, nvars + 1)
                if v in seen:
                    continue
                seen.add(v)
                clause.append(v if rng.random() < 0.5 else -v)
            f.add(clause)
        text = emit_dimacs(f)
        assert emit_dimacs(parse_dimacs(text)) == text


def test_varmap_layout():
    vm = VarMap(4)
    assert vm.a(0, 1) == 1
    assert vm.a(2, 3) == 6
    assert vm.b(0, 1) == 7
    assert vm.b(3, 2) == 12
    assert vm.a(1, 0) == vm.a(0, 1)
    assert vm.var_count == 12
    assert vm.a_vars() == list(range(1, 7))
    assert vm.b_vars() == list(range(7, 13))
    assert vm.pairs() == [(i, j) for i in range(4) for j in range(i + 1, 4)]


def test_varmap_aux_and_describe():
    vm = VarMap(3)
    t = vm.tagged("tri", 0, 2)
    assert t == 7
    assert vm.var_count == 7
    assert vm.describe(1) == ("a", 0, 1)
    assert vm.describe(4) == ("b", 0, 1)
    assert vm.describe(7) == ("tri", 0, 2)
    with pytest.raises(KeyError):
        vm.describe(8)
    with pytest.raises(KeyError):
        vm.describe(0)


def test_varmap_rejects_bad_n_and_diagonal():
    with pytest.raises(ValueError):
        VarMap(1)
    with pytest.raises(ValueError):
        VarMap(65)
    with pytest.raises(ValueError):
        VarMap(4).a(2, 2)


def test_sidecar_lines():
    vm = VarMap(3)
    vm.tagged("t", 1, 0, 2)
    lines = vm.sidecar().splitlines()
    assert lines[0] == "1 a 0 1"
    assert lines[3] == "4 b 0 1"
    assert lines[-1] == "7 t 1 0 2"
    assert len(lines) == vm.var_count


def test_tagged_variables_keep_their_kind():
    vm = VarMap(3)
    vm.tagged("far", 1, 2)
    r = vm.tagged("r4", 0, 2)
    m = vm.tagged("m4", 0, 1, 2)
    assert (r, m) == (8, 9)
    assert vm.describe(7) == ("far", 1, 2)
    assert vm.describe(m) == ("m4", 0, 1, 2)
    assert vm.sidecar().splitlines()[-2:] == ["8 r4 0 2", "9 m4 0 1 2"]
