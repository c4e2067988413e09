import itertools
import random
import tracemalloc

import pytest

from distlab.graph6 import emit
from distlab.sat.dpll import SAT, UNKNOWN, UNSAT, DpllSolver
from distlab.sat.search import SearchParams, Witness, search


def _brute_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses):
            return True
    return False


def _satisfies(model, clauses):
    return all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses)


def _random_formula(rng, nvars, nclauses):
    clauses = []
    for _ in range(nclauses):
        width = rng.randrange(1, min(4, nvars) + 1)
        vs = rng.sample(range(1, nvars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _pigeonhole(pigeons, holes):
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def test_agrees_with_truth_tables():
    rng = random.Random(71)
    for _ in range(400):
        nvars = rng.randrange(1, 9)
        clauses = _random_formula(rng, nvars, rng.randrange(1, 20))
        solver = DpllSolver(nvars, clauses)
        status, model = solver.solve()
        assert status in (SAT, UNSAT)
        if status == SAT:
            assert set(model) == set(range(1, nvars + 1))
            assert _satisfies(model, clauses)
        assert (status == SAT) == _brute_sat(nvars, clauses)


def test_unit_chain_needs_no_decisions():
    n = 30
    clauses = [[1]] + [[-v, v + 1] for v in range(1, n)]
    solver = DpllSolver(n, clauses)
    status, model = solver.solve()
    assert status == SAT
    assert all(model[v] for v in range(1, n + 1))
    assert solver.stats["decisions"] == 0
    assert solver.stats["conflicts"] == 0


def test_trivial_formulas():
    status, model = DpllSolver(0, []).solve()
    assert status == SAT and model == {}
    status, model = DpllSolver(3, []).solve()
    assert status == SAT and set(model) == {1, 2, 3}
    assert DpllSolver(1, [[1], [-1]]).solve()[0] == UNSAT


def test_pigeonhole_unsat():
    for pigeons in (2, 3, 4):
        nvars, clauses = _pigeonhole(pigeons, pigeons - 1)
        solver = DpllSolver(nvars, clauses)
        assert solver.solve()[0] == UNSAT
        assert solver.stats["conflicts"] > 0


def test_incremental_model_enumeration():
    rng = random.Random(73)
    for _ in range(40):
        nvars = rng.randrange(1, 7)
        clauses = _random_formula(rng, nvars, rng.randrange(1, 10))
        want = sum(
            1
            for bits in itertools.product([False, True], repeat=nvars)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
        )
        solver = DpllSolver(nvars, clauses)
        got = 0
        while True:
            status, model = solver.solve()
            if status == UNSAT:
                break
            got += 1
            assert got <= want
            solver.add_clause([-v if model[v] else v for v in range(1, nvars + 1)])
        assert got == want


def test_budgets_give_unknown():
    nvars, clauses = _pigeonhole(5, 4)
    assert DpllSolver(nvars, clauses).solve(time_budget=0.0)[0] == UNKNOWN
    assert DpllSolver(nvars, clauses).solve()[0] == UNSAT


def test_branches_ascending_negative_phase_first():
    solver = DpllSolver(3, [[1, 2, 3], [-2, -3]])
    status, model = solver.solve()
    assert status == SAT
    assert model == {1: False, 2: False, 3: True}
    assert solver.stats["decisions"] == 2


def test_lists_are_sized_by_the_variables_that_occur():
    """A formula over three variables that declares 2,000,000 allocates
    lists for three, and the variables above the largest that occurs are
    False in the model without a decision."""
    tracemalloc.start()
    try:
        DpllSolver(2_000_000, [[1, 2, 3]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    solver = DpllSolver(9, [[1, 2, 3], [-2, -3]])
    status, model = solver.solve()
    assert model == {1: False, 2: False, 3: True} | dict.fromkeys(range(4, 10), False)
    assert solver.stats["decisions"] == 2
    solver.add_clause([7])
    solver.add_clause([-1, -8])
    assert solver.solve()[1] == {1: False, 2: False, 3: True, 4: False, 5: False,
                                 6: False, 7: True, 8: False, 9: False}
    assert solver.stats["decisions"] == 2 + 6  # 1, 2 and 4..6 and 8; 3 and 7 are implied


def test_deterministic_models():
    rng = random.Random(79)
    clauses = _random_formula(rng, 9, 18)
    runs = [DpllSolver(9, clauses).solve() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# The exact search trace: a change to branching or backtracking moves the
# decisions and conflicts, so a rewrite that keeps them runs the same search.
# Propagations count the literals taken off the trail before a conflict, so
# they also follow the order in which clauses are visited.  Each search
# takes well under a second; the budget turns a propagation that stays sound
# but gets weaker into a quick failure, not a minutes-long run.
@pytest.mark.parametrize(
    "target, stats, witness",
    [
        ((9, 6, 6), (204, 127, 8_727), "H?_r?z?"),
        ((13, 8, 8), (391, 145, 41_283), "L???p__@?[K?oC"),
    ],
)
def test_family_targets_pin_the_search_trace(target, stats, witness):
    out = search(SearchParams(*target, budget_seconds=60.0))
    assert isinstance(out, Witness)
    assert out.stats.solver == dict(zip(("decisions", "conflicts", "propagations"), stats))
    assert emit(out.graph) == witness


def test_pigeonhole_pins_the_search_trace_across_solve_calls():
    nvars, clauses = _pigeonhole(5, 4)
    solver = DpllSolver(nvars, clauses)
    assert solver.solve()[0] == UNSAT
    assert solver.stats == {"decisions": 51, "conflicts": 52, "propagations": 389}
    assert solver.solve()[0] == UNSAT
    assert solver.stats == {"decisions": 102, "conflicts": 104, "propagations": 778}


def test_second_solve_returns_the_same_answer():
    rng = random.Random(83)
    for _ in range(60):
        nvars = rng.randrange(1, 9)
        clauses = _random_formula(rng, nvars, rng.randrange(1, 20))
        solver = DpllSolver(nvars, clauses)
        assert solver.solve() == solver.solve()


def _random_width_formula(rng, nvars, nclauses, widths):
    clauses = []
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), min(rng.choice(widths), nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def test_binary_clauses_live_in_implication_lists():
    solver = DpllSolver(3, [[1, -2], [2, 3], [-1], [1, 2, 3]])
    # encoded literals: x is 2x and -x is 2x + 1
    assert solver.units == [3]
    assert solver.implied[2] == [5] and solver.implied[5] == [2]
    assert solver.implied[4] == [6] and solver.implied[6] == [4]
    assert sum(map(len, solver.implied)) == 4
    assert solver.watches[2] == solver.watches[4] == [[2, 4, 6]]
    assert sum(map(len, solver.watches)) == 2


@pytest.mark.parametrize("widths", [(2,), (1, 2, 2, 2, 3)], ids=["2-sat", "mostly-binary"])
def test_binary_heavy_formulas_agree_with_truth_tables(widths):
    rng = random.Random(89)
    verdicts = set()
    for _ in range(300):
        nvars = rng.randrange(2, 10)
        clauses = _random_width_formula(rng, nvars, rng.randrange(1, 3 * nvars), widths)
        status, model = DpllSolver(nvars, clauses).solve()
        verdicts.add(status)
        assert (status == SAT) == _brute_sat(nvars, clauses)
        if status == SAT:
            assert _satisfies(model, clauses)
    assert verdicts == {SAT, UNSAT}


def test_binary_blocking_clauses_between_solve_calls():
    """Enumerate the satisfiable values of one variable pair by adding a
    binary blocking clause after each model."""
    rng = random.Random(97)
    for _ in range(60):
        nvars = rng.randrange(2, 8)
        clauses = _random_width_formula(rng, nvars, rng.randrange(1, 12), (1, 2, 3))
        x, y = rng.sample(range(1, nvars + 1), 2)
        want = {
            (bits[x - 1], bits[y - 1])
            for bits in itertools.product([False, True], repeat=nvars)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
        }
        solver = DpllSolver(nvars, clauses)
        got = set()
        while True:
            status, model = solver.solve()
            if status == UNSAT:
                break
            assert _satisfies(model, clauses)
            pair = (model[x], model[y])
            assert pair not in got
            got.add(pair)
            solver.add_clause([-x if model[x] else x, -y if model[y] else y])
        assert got == want


def test_unit_and_shuffled_binary_chain_need_no_decisions():
    """A unit forces a shuffled chain of implications that alternates
    signs; closing the chain back onto the unit's negation is refuted by
    propagation alone."""
    rng = random.Random(101)
    n = 40
    order = list(range(2, n + 1))
    rng.shuffle(order)
    order = [1] + order
    sign = {v: 1 if i % 2 == 0 else -1 for i, v in enumerate(order)}
    chain = [[-sign[a] * a, sign[b] * b] for a, b in zip(order, order[1:])]
    rng.shuffle(chain)
    solver = DpllSolver(n, [[1]] + chain)
    status, model = solver.solve()
    assert status == SAT
    assert all(model[v] == (sign[v] > 0) for v in range(1, n + 1))
    assert solver.stats == {"decisions": 0, "conflicts": 0, "propagations": n}
    last = order[-1]
    solver = DpllSolver(n, chain + [[-sign[last] * last, -1], [1]])
    assert solver.solve() == (UNSAT, None)
    assert solver.stats["decisions"] == 0 and solver.stats["conflicts"] == 1
