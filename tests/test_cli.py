import io
import os
import subprocess
import sys

import pytest

import distlab.enumeration
from distlab.bounds import family_graph
from distlab.cli import main
from distlab.enumeration import survey
from distlab.graph6 import emit, parse
from distlab.graphs import from_edge_list, k_distance
from distlab.sat.cnf import parse_dimacs
from distlab.sat.encode import build_formula
from distlab.sat.search import SearchParams, cap_levels, search, solved_levels, verify_witness

from util import cycle_graph, path_graph


def _feed(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def _meta(err):
    out = {}
    for line in err.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def test_family_to_stdout(capsys):
    assert main(["family", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert out == emit(family_graph(4)) + "\n"


def test_family_rejects_odd_k(capsys):
    assert main(["family", "--k", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_transform_stream(monkeypatch, capsys):
    _feed(monkeypatch, emit(cycle_graph(6)) + "\n" + emit(path_graph(4)) + "\n")
    assert main(["transform", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [parse(s) for s in lines] == [
        k_distance(cycle_graph(6), 2),
        k_distance(path_graph(4), 2),
    ]


def test_transform_files(tmp_path):
    src = tmp_path / "in.g6"
    dst = tmp_path / "out.g6"
    src.write_text(emit(cycle_graph(5)) + "\n")
    assert main(["transform", "--k", "2", "--input", str(src), "--out", str(dst)]) == 0
    assert parse(dst.read_text().strip()) == k_distance(cycle_graph(5), 2)
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".distlab-")]
    assert leftovers == []


@pytest.mark.parametrize("k", ["0", "-1"])
def test_transform_rejects_nonpositive_k_on_empty_input(monkeypatch, capsys, tmp_path, k):
    _feed(monkeypatch, "")
    assert main(["transform", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k must be a positive integer" in captured.err
    dst = tmp_path / "out.g6"
    assert main(["transform", "--k", k, "--input", os.devnull, "--out", str(dst)]) == 2
    assert not dst.exists()


def test_diam_lines(monkeypatch, capsys):
    two_parts = from_edge_list(4, [(0, 1), (2, 3)])
    _feed(monkeypatch, emit(cycle_graph(6)) + "\n" + emit(two_parts) + "\n")
    assert main(["diam"]) == 0
    assert capsys.readouterr().out == "0,3\n1,inf\n"


def test_survey_csv_and_heatmap(tmp_path):
    csv_path = tmp_path / "t.csv"
    svg_path = tmp_path / "t.svg"
    rc = main([
        "survey", "--n", "5", "--out", str(csv_path), "--heatmap", str(svg_path)
    ])
    assert rc == 0
    assert csv_path.read_text() == survey(5).to_csv()
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_survey_csv_is_the_same_on_one_cpu_and_two(tmp_path, monkeypatch):
    """From n = 7 two usable CPUs fan the census out to worker processes."""
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(distlab.enumeration, "_usable_cpus", lambda c=cpus: c)
        out = tmp_path / f"cpus{cpus}.csv"
        assert main(["survey", "--n", "7", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] == survey(7).to_csv()


def test_survey_cap(capsys):
    assert main(["survey", "--n", "12", "--out", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_verdicts(monkeypatch, capsys):
    _feed(
        monkeypatch,
        emit(family_graph(4)) + "\n" + emit(cycle_graph(5)) + "\n" + emit(path_graph(4)) + "\n",
    )
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == (
        "0,4,6,Holds\n1,2,2,NotApplicable\n2,3,inf,HoldsVacuously\n"
    )


def test_sat_search_witness(capsys):
    rc = main([
        "sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3",
        "--allow-non-sharp",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    meta = _meta(captured.err)
    assert meta["status"] == "witness"
    g = parse(captured.out.strip())
    params = SearchParams(n=6, p2_len=2, min_d2=3, require_sharp=False)
    ok, d, d2, _ = verify_witness(g, params)
    assert ok
    assert meta["d"] == str(d) and meta["d2"] == str(d2)


def test_sat_search_reports_levels_phases_rejections_and_solver(capsys):
    rc = main(["sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    meta = _meta(captured.err)
    assert meta["status"] == "witness"
    assert meta["cap_levels"] == "3"
    for phase in ("encode", "solve", "decode", "verify"):
        assert float(meta[f"{phase}_seconds"]) >= 0
    for key in ("decisions", "conflicts", "propagations"):
        assert int(meta[f"dpll.{key}"]) >= 0
    assert int(meta["dpll.decisions"]) > 0


def test_sat_search_solves_the_level_once(capsys):
    rc = main(["sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3"])
    err = capsys.readouterr().err
    assert rc == 0
    assert _meta(err)["solve_calls"] == "1"
    assert "rejected" not in err


def test_sat_search_nan_budget_is_a_usage_error(capsys):
    rc = main([
        "sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3",
        "--budget-seconds", "nan",
    ])
    assert rc == 2
    assert "nan" in capsys.readouterr().err


def test_sat_search_unsat(capsys):
    rc = main(["sat-search", "--n", "4", "--p2-len", "3", "--min-d2", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert _meta(captured.err)["status"] == "unsat"


def test_sat_search_budget(capsys):
    rc = main([
        "sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3",
        "--budget-seconds", "0",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    meta = _meta(captured.err)
    assert meta["status"] == "budget-exhausted"
    assert meta["budget"] == "time budget"


def test_sat_search_emit_only(tmp_path, capsys):
    cnf_path = tmp_path / "search.cnf"
    rc = main([
        "sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3",
        "--emit-cnf", str(cnf_path),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert "emitted" in captured.err
    formula = parse_dimacs(cnf_path.read_text())
    sidecar = (tmp_path / "search.cnf.vars").read_text().splitlines()
    assert len(sidecar) == formula.var_count
    assert sidecar[0] == "1 a 0 1"


def test_sat_search_emit_cnf_refuses_a_geodesic_that_does_not_fit(tmp_path, capsys):
    # n = 5 at cap 3 would pin a G2 geodesic of length 5, so the search solves
    # no level; the emit ends as the search does
    cnf_path = tmp_path / "search.cnf"
    rc = main([
        "sat-search", "--n", "5", "--p2-len", "2", "--min-d2", "2",
        "--emit-cnf", str(cnf_path),
    ])
    assert rc == 1
    assert "does not fit" in capsys.readouterr().err
    assert not cnf_path.exists()


def test_sat_search_emit_cnf_without_a_solved_level_ends_as_the_search_does(tmp_path, capsys):
    argv = ["sat-search", "--n", "5", "--p2-len", "3", "--min-d2", "3"]
    assert main(argv) == 1
    assert _meta(capsys.readouterr().err)["status"] == "unsat"
    cnf_path = tmp_path / "search.cnf"
    assert main(argv + ["--emit-cnf", str(cnf_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no formula emitted" in captured.err
    assert "status=unsat" not in captured.err
    assert not cnf_path.exists() and not (tmp_path / "search.cnf.vars").exists()


@pytest.mark.parametrize("n, p2_len, min_d2", [(6, 2, 3), (9, 6, 6), (11, 7, 7), (13, 8, 8)])
def test_sat_search_emit_cnf_builds_one_formula_and_stops(
    tmp_path, capsys, monkeypatch, n, p2_len, min_d2
):
    """``--emit-cnf`` builds the lowest solved level's formula once and
    runs no search, which would build it again."""
    built = []

    def counted(params, max_d):
        built.append(max_d)
        return build_formula(params, max_d)

    monkeypatch.setattr("distlab.cli.build_formula", counted)
    monkeypatch.setattr("distlab.sat.search.build_formula", counted)
    cnf_path = tmp_path / "search.cnf"
    argv = ["sat-search", "--n", str(n), "--p2-len", str(p2_len), "--min-d2", str(min_d2)]
    assert main(argv + ["--emit-cnf", str(cnf_path)]) == 0
    assert capsys.readouterr().out == ""
    assert built == [solved_levels(SearchParams(n, p2_len, min_d2))[0]]


def test_sat_search_emits_the_lowest_cap_level(tmp_path, capsys):
    cnf_path = tmp_path / "search.cnf"
    rc = main([
        "sat-search", "--n", "9", "--p2-len", "6", "--min-d2", "6",
        "--emit-cnf", str(cnf_path),
    ])
    capsys.readouterr()
    assert rc == 0
    params = SearchParams(n=9, p2_len=6, min_d2=6)
    _, want = build_formula(params, cap_levels(params)[0])
    assert parse_dimacs(cnf_path.read_text()).clauses == want.clauses
    kinds = {line.split()[1] for line in (tmp_path / "search.cnf.vars").read_text().splitlines()}
    assert {"a", "b", "t", "far", "eq", "r4", "m4"} <= kinds
    assert not {"aux", "cn", "w", "r2", "m2"} & kinds
    assert not any(k.startswith(("r5", "r6")) for k in kinds)


def test_sat_search_sidecar_lists_the_geodesic_reach_variables(tmp_path, capsys):
    cnf_path = tmp_path / "search.cnf"
    rc = main([
        "sat-search", "--n", "9", "--p2-len", "6", "--min-d2", "6",
        "--emit-cnf", str(cnf_path),
    ])
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "search.cnf.vars").read_text().splitlines()
    reach = [line.split()[1:] for line in lines if line.split()[1].startswith("q")]
    assert reach == [[f"q{s}", str(v)] for s in range(1, 6) for v in range(1, 9)]


def test_convert_round_trip(tmp_path):
    g6 = tmp_path / "in.g6"
    edges = tmp_path / "mid.txt"
    back = tmp_path / "back.g6"
    graphs = [cycle_graph(5), path_graph(3), from_edge_list(3, [])]
    g6.write_text("".join(emit(g) + "\n" for g in graphs))
    assert main([
        "convert", "--source", "graph6", "--to", "edges",
        "--input", str(g6), "--out", str(edges),
    ]) == 0
    assert main([
        "convert", "--source", "edges", "--to", "graph6",
        "--input", str(edges), "--out", str(back),
    ]) == 0
    assert back.read_text() == g6.read_text()


def test_convert_edge_block_format(monkeypatch, capsys):
    _feed(monkeypatch, emit(path_graph(3)) + "\n")
    assert main(["convert", "--to", "edges"]) == 0
    assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"


def test_convert_rejects_malformed_edge_blocks(monkeypatch, capsys):
    _feed(monkeypatch, "3\n0 1\n")
    assert main(["convert", "--source", "edges", "--to", "graph6"]) == 2
    capsys.readouterr()
    _feed(monkeypatch, io.StringIO("3 2\n0 1\n").read())
    assert main(["convert", "--source", "edges", "--to", "graph6"]) == 2
    capsys.readouterr()
    _feed(monkeypatch, "3 -1\n")
    assert main(["convert", "--source", "edges", "--to", "graph6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: line 1: negative edge count" in err


@pytest.mark.parametrize("text, lineno", [
    ("3 x\n", 1),
    ("x 1\n", 1),
    ("70 0\n", 1),
    ("3 1\n0 7\n", 2),
    ("3 1\n1 1\n", 2),
    ("3 1\n0 y\n", 2),
    ("3 2\n0 1\n", 3),
    ("3 1\n0 1\n\n4 2\n0 1\n1 4\n", 6),
], ids=["bad-count", "bad-order", "order-65-plus", "edge-out-of-range", "self-loop",
        "bad-endpoint", "truncated", "second-block"])
def test_edge_block_errors_name_their_line(monkeypatch, capsys, text, lineno):
    _feed(monkeypatch, text)
    assert main(["convert", "--source", "edges", "--to", "graph6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: line {lineno}: ")


def test_bad_graph6_input_is_a_usage_error(monkeypatch, capsys):
    _feed(monkeypatch, "D" + chr(20) + "\n")
    assert main(["diam"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "verify", "diam"])
def test_graph6_error_names_its_line(tmp_path, command):
    """A bad byte on line 2 is one ``error:`` line and exit 2, never a
    traceback, and the regular-file output is not created."""
    src = tmp_path / "in.g6"
    src.write_text(emit(cycle_graph(5)) + "\n" + "D" + chr(20) + "c\n")
    dst = tmp_path / "out.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "distlab.cli", command, "--input", str(src), "--out", str(dst)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error: line 2: byte 20 at position 1 outside 63..126" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not dst.exists()
    assert sorted(os.listdir(tmp_path)) == ["in.g6"]


def test_missing_input_file(capsys):
    assert main(["diam", "--input", "/no/such/file.g6"]) == 2
    assert "io error" in capsys.readouterr().err


def test_write_error_names_the_requested_path(tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    assert main(["survey", "--n", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error:")
    assert str(out) in err
    assert ".distlab-" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_sat_search_has_no_solver_option(capsys):
    """The built-in DPLL is the only solver; ``--solver`` is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3", "--solver", "x"])
    assert exc.value.code == 2
    assert "--solver" in capsys.readouterr().err


SAT_SEARCH_6 = ["distlab.cli", "sat-search", "--n", "6", "--p2-len", "2", "--min-d2", "3"]


@pytest.mark.parametrize("argv, code, message", [
    (SAT_SEARCH_6 + ["--budget-seconds", "inf"], 0, None),
    (SAT_SEARCH_6 + ["--budget-seconds", "1e300"], 0, None),
    (["distlab.cli", "solve", "{cnf}", "--budget-seconds", "nan"], 2,
     "--budget-seconds must be a number"),
    (["distlab.cli", "sat-search", "--n", "5", "--p2-len", "2", "--min-d2", "-3"], 2,
     "min_d2 must be at least 0"),
    (["distlab.cli", "sat-search", "--n", "65", "--p2-len", "2", "--min-d2", "3"], 2,
     "n must be in 2..64"),
    (["distlab.cli", "sat-search", "--n", "0", "--p2-len", "2", "--min-d2", "3"], 2,
     "n must be in 2..64"),
    (["distlab.cli", "sat-search", "--n", "-3", "--p2-len", "2", "--min-d2", "3"], 2,
     "n must be in 2..64"),
    (["distlab.cli", "sat-search", "--n", "1", "--p2-len", "0", "--min-d2", "0"], 2,
     "n must be in 2..64"),
    (["distlab.cli", "sat-search", "--n", "1", "--p2-len", "0", "--min-d2", "0",
      "--allow-non-sharp"], 2, "n must be in 2..64"),
    (["distlab.cli", "sat-search", "--n", "5", "--p2-len", "5", "--min-d2", "3"], 2,
     "path with 5 edges does not fit in n=5"),
    (SAT_SEARCH_6 + ["--emit-only"], 2, "unrecognized arguments: --emit-only"),
    (["distlab.cli", "survey", "--n", "0", "--out", "-"], 2,
     "vertex count must be a positive integer"),
    (["distlab.cli", "family", "--k", "100"], 2, "family is defined for even k in 4..30"),
], ids=["inf-budget", "huge-budget", "dimacs-nan-budget", "negative-min-d2", "n-65", "n-0",
        "n-negative", "n-1", "n-1-non-sharp", "p2-len-5-in-n-5", "emit-only-without-emit-cnf", "survey-n-0",
        "family-k-100"])
def test_edge_inputs_exit_cleanly(tmp_path, argv, code, message):
    """A huge budget is no budget; a bad value is an ``error:`` line that
    names what is wrong and exit 2, never a traceback."""
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    argv = [str(cnf) if arg == "{cnf}" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout == emit(search(SearchParams(6, 2, 3)).graph) + "\n"
    else:
        assert proc.stdout == "" and f"error: {message}" in proc.stderr
