"""distlab's benchmark: one workload per run, checked, with its metrics.

    python3 perfbench/run.py --workload {census,witness,stream} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from a checkout; distlab is imported from its ``src`` tree, never
from an installed copy.  A run sets up (imports distlab and builds the
workload's inputs), then repeats whole rounds of the workload in this
process for about ``--seconds`` seconds (at least one round), then
checks every round's outputs against ``oracles`` and prints one JSON
line last.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one untraced round, then traced rounds, and reports the per-layer
metrics.  ``--quick`` shrinks every workload for the self-tests.
Times are scaled to a reference CPU speed by ``speed.SpeedProbe``.
Each run also writes its record, with machine metadata, and in a traced
run every span, under ``.perfbench_out/`` at the checkout root.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh interpreters

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402


class Census:
    """survey(n) for each order of a round; an operation is one survey."""

    def __init__(self, seed: int, quick: bool):
        import distlab.enumeration

        self.enum = distlab.enumeration
        self.orders = inputs.CENSUS_ORDERS_QUICK if quick else inputs.CENSUS_ORDERS
        self.ops = len(self.orders)

    def run_round(self):
        """Each survey's cells (None where it raised) and the failed count."""
        outs = []
        for n in self.orders:
            try:
                outs.append(self.enum.survey(n).cells)
            except Exception:
                traceback.print_exc()
                outs.append(None)
        return outs, outs.count(None)

    def items(self, oracles) -> int:
        return sum(oracles.A001349[n] for n in self.orders)

    def check(self, oracles, rounds) -> list[str]:
        atlas = {n: oracles.atlas_census(n) for n in self.orders
                 if n <= oracles.ATLAS_MAX_ORDER}
        errors = []
        for outs in rounds:
            for n, cells in zip(self.orders, outs):
                if cells is not None:
                    errors += oracles.check_census(n, cells, atlas.get(n))
        return errors

    def close(self):
        pass


class Witness:
    """search(SearchParams) for each target; an operation is one search."""

    def __init__(self, seed: int, quick: bool):
        import distlab.sat.search

        self.search_mod = sys.modules["distlab.sat.search"]
        targets = inputs.WITNESS_TARGETS_QUICK if quick else inputs.WITNESS_TARGETS
        self.params = [self.search_mod.SearchParams(*t) for t in targets]
        self.ops = len(self.params)

    def run_round(self):
        """Each search's outcome (None where it raised) and the failed count."""
        outs = []
        for params in self.params:
            try:
                outs.append(self.search_mod.search(params))
            except Exception:
                traceback.print_exc()
                outs.append(None)
        return outs, outs.count(None)

    def items(self, oracles) -> int:
        return len(self.params)

    def check(self, oracles, rounds) -> list[str]:
        errors = []
        for outs in rounds:
            for p, outcome in zip(self.params, outs):
                if outcome is None:
                    continue
                if not isinstance(outcome, self.search_mod.Witness):
                    errors.append(f"search{(p.n, p.p2_len, p.min_d2)} gave {outcome!r}")
                    continue
                g = outcome.graph
                errors += oracles.check_witness(p.n, p.p2_len, p.min_d2, g.n, g.edges())
        return errors

    def close(self):
        pass


class Stream:
    """``distlab transform --k 2``, ``verify`` and ``diam`` on one seeded
    graph6 file through ``distlab.cli.main``; an operation is one record
    through one command."""

    COMMANDS = {
        "transform": ["transform", "--k", "2"],
        "verify": ["verify"],
        "diam": ["diam"],
    }

    def __init__(self, seed: int, quick: bool):
        import distlab.cli

        self.cli = distlab.cli
        self.text = inputs.stream_text(inputs.stream_records(seed, quick))
        self.records = self.text.count("\n")
        self.ops = self.records * len(self.COMMANDS)
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / f"stream-seed{seed}-{os.getpid()}.g6"
        self.path.write_text(self.text)

    def run_round(self):
        """Each command's output (None where it raised or exited non-zero)
        and the failed count: every record of a failed command."""
        outs = {}
        for name, argv in self.COMMANDS.items():
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv + ["--input", str(self.path), "--out", "-"])
            except Exception:
                traceback.print_exc()
                code = None
            outs[name] = buf.getvalue() if code == 0 else None
        return outs, list(outs.values()).count(None) * self.records

    def items(self, oracles) -> int:
        return self.records

    def check(self, oracles, rounds) -> list[str]:
        expected = oracles.expected_stream(self.text)
        errors = []
        for outs in rounds:
            ok = {k: v for k, v in outs.items() if v is not None}
            errors += oracles.check_stream({k: expected[k] for k in ok}, ok)
        return errors

    def close(self):
        self.path.unlink(missing_ok=True)


WORKLOADS = {"census": Census, "witness": Witness, "stream": Stream}


def import_distlab():
    """Import distlab from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "distlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no distlab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import distlab

    if Path(distlab.__file__).resolve().parent != SRC / "distlab":
        raise SystemExit(f"error: imported distlab from {distlab.__file__}, not {SRC}")
    return distlab


def set_up(name: str, seed: int, quick: bool):
    """Import distlab and build the inputs; the span that ``setup_s`` times."""
    import_distlab()
    return WORKLOADS[name](seed, quick)


def setup_sample(args) -> float:
    """One set-up in a fresh interpreter, timed there in scaled seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-sample",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float, probe: SpeedProbe):
    """Whole rounds until the next one would end past ``seconds`` of wall
    time.  Returns each round's wall and scaled seconds, every round's
    outputs and the count of failed operations."""
    walls, scaled, rounds, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs, round_failed = workload.run_round()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        scaled.append(probe.scaled(t0, t1))
        rounds.append(outs)
        failed += round_failed
        if t1 - start + statistics.median(walls) > seconds:
            return walls, scaled, rounds, failed


def layer_metrics(tracer, rounds: int, classes: int, speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, from the spans and counters.
    Span times are scaled by ``speed``, scaled over wall seconds of the
    traced rounds."""
    totals = tracer.layer_totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name, key):
        value = totals.get(name, empty)[key] / rounds
        return value if key == "calls" else value * speed

    def count(key):
        return tracer.counters.get(key, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    labeling_calls = span("canon.labeling", "calls")
    pair_s, pair_calls = span("kernels.pair", "total_s"), span("kernels.pair", "calls")
    solve_s = span("dpll.solve", "total_s")
    s, n = "s", "count"
    return {
        "enumeration.children_tested": (labeling_calls, n),
        "enumeration.accept_ratio": (ratio(classes, labeling_calls), "ratio"),
        "enumeration.self_s": (span("enumeration.survey", "self_s"), s),
        "canon.labeling_s": (span("canon.labeling", "total_s"), s),
        "canon.labeling_calls": (labeling_calls, n),
        "canon.refine_s": (span("canon.refine", "total_s"), s),
        "canon.refine_calls": (span("canon.refine", "calls"), n),
        "canon.orbits_s": (span("canon.orbits", "total_s"), s),
        "kernels.pair_s": (pair_s, s),
        "kernels.pair_calls": (pair_calls, n),
        "kernels.pair_us": (ratio(pair_s, pair_calls) * 1e6, "us"),
        "kernels.distances_s": (span("kernels.distances", "total_s"), s),
        "kernels.distances_calls": (span("kernels.distances", "calls"), n),
        "graphs.k_distance_s": (span("graphs.k_distance", "total_s"), s),
        "graph6.parse_s": (span("graph6.parse", "total_s"), s),
        "graph6.emit_s": (span("graph6.emit", "total_s"), s),
        "graph6.records": (span("graph6.parse", "calls"), n),
        "bounds.check_s": (span("bounds.check", "total_s"), s),
        "cli.transform_s": (span("cli.transform", "total_s"), s),
        "cli.verify_s": (span("cli.verify", "total_s"), s),
        "cli.diam_s": (span("cli.diam", "total_s"), s),
        "encode.build_s": (span("encode.build", "total_s"), s),
        "encode.clauses": (count("encode.clauses"), n),
        "encode.vars": (count("encode.vars"), n),
        "dpll.solve_s": (solve_s, s),
        "dpll.solve_calls": (span("dpll.solve", "calls"), n),
        "dpll.decisions": (count("dpll.decisions"), n),
        "dpll.conflicts": (count("dpll.conflicts"), n),
        "dpll.propagations": (count("dpll.propagations"), n),
        "dpll.propagations_per_s": (ratio(count("dpll.propagations"), solve_s), "1/s"),
        "search.rejected": (count("search.rejected"), n),
        "search.decode_s": (span("search.decode", "total_s"), s),
        "search.verify_s": (span("search.verify", "total_s"), s),
        "search.self_s": (span("search.search", "self_s"), s),
    }


def machine_metadata(distlab, cpu: int | None, nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": distlab._kernels.njit is not None,
        "kernel_backend": distlab._kernels.active_backend(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes of every workload, for the self-tests")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = pin_to_one_cpu()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        workload = set_up(args.workload, args.seed, args.quick)
        setup_s = probe.scaled(t0, time.perf_counter())
        if args.setup_sample:
            workload.close()
            print(repr(setup_s))
            return 0
        try:
            return run(args, workload, setup_s, probe, cpus)
        finally:
            workload.close()


def run(args, workload, setup_s: float, probe: SpeedProbe, cpus: tuple) -> int:
    import distlab

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick,
              "machine": machine_metadata(distlab, *cpus)}
    if args.trace:
        from spans import Tracer, program_targets

        _, untraced, rounds, failed = measure(workload, 0, probe)
        tracer = Tracer()
        with tracer.patched(program_targets()):
            walls, scaled, traced_rounds, traced_failed = measure(workload, args.seconds, probe)
        rounds += traced_rounds
        failed += traced_failed
    else:
        setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        walls, scaled, rounds, failed = measure(workload, args.seconds, probe)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["setup_samples_s"] = setups

    import oracles  # networkx is imported only after the measured rounds

    errors = workload.check(oracles, rounds)
    items = workload.items(oracles)
    if args.trace:
        classes = items if args.workload == "census" else 0
        metrics = layer_metrics(tracer, len(walls), classes, sum(scaled) / sum(walls))
        metrics["trace.wall_s"] = (statistics.median(scaled), "s")
        metrics["trace.untraced_wall_s"] = (untraced[0], "s")
    else:
        metrics = {
            "round_s": (statistics.median(scaled), "s"),
            "items_per_s": (statistics.median(items / t for t in scaled), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    result = {
        "correct": not errors,
        "attempted": workload.ops * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(round_wall_s=walls, round_scaled_s=scaled, items_per_round=items,
                  errors=errors, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.quick:
        stem = stem.with_name(stem.name + "-quick")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.tsv.gz"))
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    meta = record["machine"]
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# {len(walls)} round(s), {items} items per round, "
          f"median wall {statistics.median(walls):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
