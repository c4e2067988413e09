"""Self-tests of the benchmark: its oracles, inputs, tracer and quick runs.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

run.import_distlab()
import distlab.cli  # noqa: E402
from distlab import SearchParams, search, survey  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_census_oracle_rejects_count_off_by_one():
    cells = survey(6).cells
    atlas = oracles.atlas_census(6)
    assert oracles.check_census(6, cells, atlas) == []
    key = next(iter(cells))
    for delta in (1, -1):
        bad = dict(cells)
        bad[key] += delta
        assert oracles.check_census(6, bad, atlas)
        assert oracles.check_census(6, bad)  # the A001349 total alone catches it


def test_census_oracle_rejects_cell_outside_bounds():
    cells = {(4, 7): 1, (2, 2): oracles.A001349[8] - 1}
    assert any("breaks" in e for e in oracles.check_census(8, cells))


def test_witness_oracle_rejects_an_edge_removed():
    p = SearchParams(7, 5, 5)
    g = search(p).graph
    edges = g.edges()
    assert oracles.check_witness(p.n, p.p2_len, p.min_d2, g.n, edges) == []
    for drop in edges:
        kept = [e for e in edges if e != drop]
        assert oracles.check_witness(p.n, p.p2_len, p.min_d2, g.n, kept), drop
    assert oracles.check_witness(p.n + 1, p.p2_len, p.min_d2, g.n, edges)


def _cli_outputs(path: Path) -> dict[str, str]:
    outs = {}
    for name, argv in run.Stream.COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert distlab.cli.main(argv + ["--input", str(path), "--out", "-"]) == 0
        outs[name] = buf.getvalue()
    return outs


def test_stream_oracle_rejects_an_altered_line(tmp_path):
    text = inputs.stream_text(inputs.stream_records(3, quick=True))
    path = tmp_path / "in.g6"
    path.write_text(text)
    outs = _cli_outputs(path)
    expected = oracles.expected_stream(text)
    assert oracles.check_stream(expected, outs) == []
    for name, out in outs.items():
        lines = out.splitlines()
        for idx in (0, len(lines) // 2, len(lines) - 1):
            altered = lines[:]
            altered[idx] = altered[idx][:-1] + chr(ord(altered[idx][-1]) ^ 1)
            bad = dict(outs, **{name: "\n".join(altered) + "\n"})
            assert oracles.check_stream(expected, bad), (name, idx)
        assert oracles.check_stream(expected, dict(outs, **{name: "\n".join(lines[:-1])}))


def test_stream_inputs_follow_the_seed_and_the_make_up():
    a = inputs.stream_records(5)
    assert a == inputs.stream_records(5)
    assert inputs.stream_text(a) != inputs.stream_text(inputs.stream_records(6))
    made_up = {}
    for kind, n, _edges in a:
        made_up[(kind, n)] = made_up.get((kind, n), 0) + 1
    assert made_up == {
        (kind, n): inputs.STREAM_PER_CLASS
        for kind in inputs.KINDS
        for n in inputs.STREAM_ORDERS
    }
    for line, (kind, n, edges) in zip(inputs.stream_text(a).splitlines(), a):
        g = nx.from_graph6_bytes(line.encode("ascii"))  # our writer against networkx
        assert g.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in g.edges()} == edges
        assert nx.is_connected(g) == (kind != "split")


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def mid():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    tracer.wrap("mid", mid)()
    totals = tracer.layer_totals()
    assert totals["leaf"]["calls"] == 2
    assert totals["mid"]["total_s"] >= totals["leaf"]["total_s"] + 0.01
    assert totals["mid"]["self_s"] == pytest.approx(
        totals["mid"]["total_s"] - totals["leaf"]["total_s"]
    )
    assert 0.01 <= totals["mid"]["self_s"] < 0.02


def test_scaled_time_drops_probe_time_and_rescales():
    probe = speed.SpeedProbe()
    ref = speed.REF_LOOP_S
    probe.samples = [(0.0, 2 * ref), (0.5, 4 * ref), (1.0, ref)]
    # loops at half and quarter speed inside [0, 1): mean rate 0.375
    assert probe.scaled(0.0, 1.0) == pytest.approx((1.0 - 6 * ref) * 0.375)
    # no loop inside: the nearest one gives the rate
    assert probe.scaled(0.9, 0.95) == pytest.approx(0.05)


def test_speed_probe_samples_while_running():
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        time.sleep(0.2)
        t1 = time.perf_counter()
    assert len(probe.samples) >= 4
    assert probe.scaled(t0, t1) > 0


def test_patched_targets_are_restored():
    before = distlab.cli.cmd_diam
    with Tracer().patched([("cli.diam", distlab.cli, "cmd_diam")]):
        assert distlab.cli.cmd_diam is not before
    assert distlab.cli.cmd_diam is before


def _bench(*args, cwd=HERE.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_mode_runs_every_workload(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "census", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
