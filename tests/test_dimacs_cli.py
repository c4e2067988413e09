"""``distlab solve``: the built-in solver behind a
DIMACS front end with competition-style output."""
import resource
import subprocess
import sys

from distlab.graphs import from_edge_list
from distlab.sat.cnf import DIMACS_MAX_VARS, CnfFormula, emit_dimacs
from distlab.sat.search import SearchParams, search

from util import nx_diameter_pair


SMALL = CnfFormula(3, [[1, -2], [2, 3], [-1, -3]])


def _run_cli(args, stdin_text=None, flags=(), command="solve", **run_args):
    return subprocess.run(
        [sys.executable, *flags, "-m", "distlab.cli", command, *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        **run_args,
    )


def test_dimacs_cli_sat(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(SMALL))
    proc = _run_cli([str(path)])
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout
    assert proc.stdout.strip().endswith("v 0")


def test_dimacs_cli_closes_its_input_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(emit_dimacs(SMALL))
    proc = _run_cli([str(path)], flags=("-X", "dev", "-W", "error::ResourceWarning"))
    assert proc.returncode == 10
    assert "Warning" not in proc.stderr


def test_dimacs_cli_unsat_and_stdin():
    f = CnfFormula(1, [[1], [-1]])
    proc = _run_cli(["-"], stdin_text=emit_dimacs(f))
    assert proc.returncode == 20
    assert "s UNSATISFIABLE" in proc.stdout


def test_dimacs_cli_solves_a_tautology():
    proc = _run_cli(["-"], stdin_text="p cnf 2 2\n1 -1 0\n2 0\n")
    assert proc.returncode == 10
    assert proc.stdout.splitlines()[0] == "s SATISFIABLE"


def test_dimacs_cli_refutes_an_empty_clause():
    proc = _run_cli(["-"], stdin_text="p cnf 1 1\n0\n")
    assert proc.returncode == 20
    assert proc.stdout.splitlines() == ["s UNSATISFIABLE"]


def test_dimacs_cli_bad_input(tmp_path):
    path = tmp_path / "junk.cnf"
    path.write_text("not dimacs\n")
    proc = _run_cli([str(path)])
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert _run_cli(["/no/such/file.cnf"]).returncode == 2


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_dimacs_cli_refuses_a_huge_var_count():
    """A declared count far above ``DIMACS_MAX_VARS`` ends in exit 2 with a
    line-numbered error before the solver allocates per variable.  The
    child runs under a 1 GiB address-space limit, so a solver that
    allocates first fails this test fast instead of filling memory."""
    proc = _run_cli(["-"], stdin_text="p cnf 3000000000 1\n1 0\n",
                    preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: line 1: 3000000000 variables declared, "
                           f"more than the limit of {DIMACS_MAX_VARS}\n")


def test_solve_help_names_the_var_limit():
    assert f"at most {DIMACS_MAX_VARS} variables" in " ".join(_run_cli(["-h"]).stdout.split())


def _model(stdout):
    """The model of the ``v`` lines, var -> bool, after an ``s`` line."""
    assert stdout.splitlines()[0] == "s SATISFIABLE"
    lits = [int(tok) for line in stdout.splitlines() if line.startswith("v ")
            for tok in line.split()[1:]]
    assert lits[-1] == 0 and 0 not in lits[:-1]
    return {abs(lit): lit > 0 for lit in lits[:-1]}


def test_dimacs_cli_as_external_solver(tmp_path):
    """Read back as an outside program's answer: the ``s`` line and the
    model of the ``v`` lines."""
    path = tmp_path / "small.cnf"
    path.write_text(emit_dimacs(SMALL))
    model = _model(_run_cli([str(path)]).stdout)
    lit_ok = lambda lit: (lit > 0) == model[abs(lit)]
    assert all(any(lit_ok(lit) for lit in clause) for clause in SMALL.clauses)
    path.write_text(emit_dimacs(CnfFormula(2, [[1], [-1]])))
    assert _run_cli([str(path)]).stdout.splitlines() == ["s UNSATISFIABLE"]


def test_dimacs_cli_long_model_chunks(tmp_path):
    f = CnfFormula(50, [[v] for v in range(1, 51)])
    path = tmp_path / "wide.cnf"
    path.write_text(emit_dimacs(f))
    proc = _run_cli([str(path)])
    vlines = [ln for ln in proc.stdout.splitlines() if ln.startswith("v ")]
    assert len(vlines) == 4  # 20 + 20 + 10 literals, then the closing v 0
    model = _model(proc.stdout)
    assert all(model[v] for v in range(1, 51))


def test_dimacs_cli_binary_only_formulas(tmp_path):
    """Formulas of binary clauses alone, which the solver keeps only in its
    implication lists: a chain whose one model sets every variable true, and
    the four clauses over x1, x2 that refute each other."""
    n = 12
    chain = [[v, v + 1] for v in range(1, n)] + [[-v, v + 1] for v in range(1, n)]
    sat = CnfFormula(n, chain + [[1, -n], [1, n]])
    path = tmp_path / "chain.cnf"
    path.write_text(emit_dimacs(sat))
    proc = _run_cli([str(path)])
    assert proc.returncode == 10
    assert _model(proc.stdout) == {v: True for v in range(1, n + 1)}
    unsat = CnfFormula(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    path.write_text(emit_dimacs(unsat))
    proc = _run_cli([str(path)])
    assert proc.returncode == 20
    assert proc.stdout.splitlines() == ["s UNSATISFIABLE"]


def test_emitted_formula_solves_to_the_search_witness(tmp_path):
    """``sat-search --emit-cnf F`` then ``solve F``: the model's ``a``
    variables, read through ``F.vars``, are the edges of the witness."""
    path = tmp_path / "search.cnf"
    emitted = _run_cli(["--n", "9", "--p2-len", "6", "--min-d2", "6", "--emit-cnf", str(path)],
                       command="sat-search")
    assert emitted.returncode == 0, emitted.stderr
    proc = _run_cli([str(path)])
    assert proc.returncode == 10
    model = _model(proc.stdout)
    edges = []
    for line in (tmp_path / "search.cnf.vars").read_text().splitlines():
        index, kind, *vertices = line.split()
        if kind == "a" and model[int(index)]:
            edges.append(tuple(int(v) for v in vertices))
    g = from_edge_list(9, edges)
    assert g == search(SearchParams(9, 6, 6)).graph
    assert nx_diameter_pair(g.n, g.edges()) == (4, 6)
