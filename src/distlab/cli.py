"""Command-line front end.

Subcommands: ``transform`` (apply the k-distance operator to a graph6
stream), ``diam``, ``survey`` (the (d, d2) census as CSV),
``family`` (sharp even-k witness), ``verify`` (bound verdicts),
``sat-search`` (extremal witness search), ``solve`` (the built-in solver
on a DIMACS file) and ``convert``.

Exit codes: 0 success or witness found, 1 clean negative (unsatisfiable
search, exhausted budget, or bound violations), 2 usage or input error.
The one exception is ``solve``, which keeps the DIMACS solver codes:
10 satisfiable, 20 unsatisfiable, 0 unknown (budget spent).
File outputs land as a plain write would (see ``_write_atomic``), but a
regular file is replaced whole or not at all.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import tempfile
from typing import Iterable, Iterator, TextIO

from . import bounds, graph6
from .enumeration import ENUM_CAP, survey
from .graphs import Graph, diameter, from_edge_list, k_distance
from .sat.cnf import DIMACS_MAX_VARS, emit_dimacs, parse_dimacs
from .sat.dpll import SAT, UNSAT, DpllSolver
from .sat.encode import build_formula
from .sat.search import SearchParams, Unsat, Witness, search, solved_levels

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _fmt_ext(value: int | float) -> str:
    return "inf" if math.isinf(value) else str(int(value))


@contextlib.contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """The input at ``path``; ``-`` is stdin, which is left open."""
    if path == "-":
        yield sys.stdin
        return
    with open(path, "r") as fh:
        yield fh


def _umask() -> int:
    # os.umask reads the mask only by setting one; the CLI runs one thread
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _write_atomic(path: str, content: str) -> None:
    """Write ``content`` to ``path`` (``-`` is stdout) as ``open(path, "w")``
    would, but so that a regular file is replaced whole or not at all.

    A regular file is written to a temp file beside it and renamed into
    place: a new file gets 0o666 less the umask, a replaced one keeps its
    mode, and a symlink stays a symlink, since the rename lands on the
    path it resolves to. Any other existing target, such as a FIFO or a
    device, is written in place: a rename would replace the node itself.
    """
    if path == "-":
        sys.stdout.write(content)
        return
    tmp = None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w") as fh:
                fh.write(content)
            return
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".distlab-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~_umask() if mode is None else stat.S_IMODE(mode))
            fh.write(content)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):  # name the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _input_graphs(path: str) -> Iterator[Graph]:
    with _opened(path) as fh:
        yield from graph6.iter_graphs(fh)


def cmd_transform(args) -> int:
    if args.k < 1:  # before any input is read, so an empty stream is refused too
        raise ValueError(f"k must be a positive integer, got {args.k!r}")
    graphs = _input_graphs(args.input)
    _write_atomic(args.out, _lines(graph6.emit(k_distance(g, args.k)) for g in graphs))
    return EXIT_OK


def cmd_diam(args) -> int:
    graphs = enumerate(_input_graphs(args.input))
    _write_atomic(args.out, _lines(f"{idx},{_fmt_ext(diameter(g))}" for idx, g in graphs))
    return EXIT_OK


def cmd_survey(args) -> int:
    table = survey(args.n)
    _write_atomic(args.out, table.to_csv())
    return EXIT_OK


def cmd_family(args) -> int:
    _write_atomic(args.out, _lines([graph6.emit(bounds.family_graph(args.k))]))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = [bounds.check_bounds(g) for g in _input_graphs(args.input)]
    _write_atomic(args.out, _lines(
        f"{idx},{_fmt_ext(r.d)},{_fmt_ext(r.d2)},{r.verdict}" for idx, r in enumerate(reports)
    ))
    return EXIT_NEGATIVE if any(r.verdict == bounds.VIOLATION for r in reports) else EXIT_OK


def cmd_sat_search(args) -> int:
    if args.emit_cnf == "-":
        raise ValueError("--emit-cnf needs a file path: its .vars sidecar goes beside "
                         "the formula")
    params = SearchParams(
        n=args.n,
        p2_len=args.p2_len,
        min_d2=args.min_d2,
        forbid_diam_le_2=not args.allow_diam_le_2,
        require_sharp=not args.allow_non_sharp,
        budget_seconds=args.budget_seconds,
    )
    if args.emit_cnf:
        solved = solved_levels(params)
        if not solved:
            print(f"no formula emitted: the G2 geodesic of every cap level does "
                  f"not fit in n={params.n}, so no level is solved", file=sys.stderr)
            return EXIT_NEGATIVE
        vm, formula = build_formula(params, solved[0])
        _write_atomic(args.emit_cnf, emit_dimacs(formula))
        _write_atomic(args.emit_cnf + ".vars", vm.sidecar())
        print(f"emitted {formula.clause_count} clauses over {formula.var_count} "
              f"variables to {args.emit_cnf}", file=sys.stderr)
        return EXIT_OK
    outcome = search(params)
    meta = {
        "n": params.n,
        "p2_len": params.p2_len,
        "min_d2": params.min_d2,
        "solve_calls": outcome.solve_calls,
        "elapsed_seconds": f"{outcome.elapsed:.2f}",
        "cap_levels": ",".join(
            "none" if d is None else str(d) for d in outcome.stats.cap_levels
        ),
    }
    for phase, seconds in outcome.stats.phase_seconds.items():
        meta[f"{phase}_seconds"] = f"{seconds:.3f}"
    for key, value in outcome.stats.solver.items():
        meta[f"dpll.{key}"] = value
    if isinstance(outcome, Witness):
        meta.update(status="witness", d=_fmt_ext(outcome.d), d2=_fmt_ext(outcome.d2))
    elif isinstance(outcome, Unsat):
        meta["status"] = "unsat"
    else:
        meta.update(status="budget-exhausted", budget=outcome.reason)
    for key, value in meta.items():
        print(f"{key}={value}", file=sys.stderr)
    if not isinstance(outcome, Witness):
        return EXIT_NEGATIVE
    _write_atomic("-", _lines([graph6.emit(outcome.graph)]))
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.budget_seconds is not None and math.isnan(args.budget_seconds):
        raise ValueError("--budget-seconds must be a number, got nan")
    with _opened(args.file) as fh:
        formula = parse_dimacs(fh.read())
    solver = DpllSolver(formula.var_count, formula.clauses)
    status, model = solver.solve(time_budget=args.budget_seconds)
    if status == SAT:
        lits = [str(v if model[v] else -v) for v in sorted(model)]
        vlines = ["v " + " ".join(lits[start:start + 20]) for start in range(0, len(lits), 20)]
        _write_atomic("-", _lines(["s SATISFIABLE", *vlines, "v 0"]))
        return 10
    _write_atomic("-", "s UNSATISFIABLE\n" if status == UNSAT else "s UNKNOWN\n")
    return 20 if status == UNSAT else 0


def cmd_convert(args) -> int:
    read = graph6.iter_graphs if args.source == "graph6" else _parse_edge_lists
    with _opened(args.input) as fh:
        graphs = list(read(fh))
    if args.to == "graph6":
        content = _lines(graph6.emit(g) for g in graphs)
    else:
        content = "\n".join(
            _lines([f"{g.n} {g.edge_count()}"] + [f"{u} {v}" for u, v in g.edges()])
            for g in graphs
        )
    _write_atomic(args.out, content)
    return EXIT_OK


def _parse_edge_lists(fh: TextIO) -> Iterable[Graph]:
    """Blocks of ``n m`` then m ``u v`` lines, blank line between graphs.

    Every error names the line it is on.
    """
    lines = [ln.strip() for ln in fh]
    pos = 0

    def edges(m: int) -> Iterator[tuple[int, int]]:
        # pos follows the edge being read, so an edge that from_edge_list
        # refuses is reported on its own line
        nonlocal pos
        for _ in range(m):
            pos += 1
            if pos >= len(lines) or not lines[pos]:
                raise ValueError("truncated edge block")
            parts = lines[pos].split()
            if len(parts) != 2:
                raise ValueError("expected 'u v' edge")
            yield int(parts[0]), int(parts[1])

    while pos < len(lines):
        if not lines[pos]:
            pos += 1
            continue
        try:
            head = lines[pos].split()
            if len(head) != 2:
                raise ValueError("expected 'n m' header")
            n, m = int(head[0]), int(head[1])
            if m < 0:
                raise ValueError(f"negative edge count {m}")
            g = from_edge_list(n, edges(m))
        except ValueError as exc:
            raise ValueError(f"line {pos + 1}: {exc}") from None
        pos += 1
        yield g


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distlab",
        description="k-distance graph transforms, diameter surveys and witness search",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io_args = argparse.ArgumentParser(add_help=False)
    io_args.add_argument("--input", default="-", help="input file, - for stdin")
    io_args.add_argument("--out", default="-", help="output file, - for stdout")

    p = sub.add_parser("transform", parents=[io_args],
                       help="apply the k-distance operator to graph6 input")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("diam", parents=[io_args],
                       help="diameters of graph6 input, one 'index,d' per line")
    p.set_defaults(func=cmd_diam)

    p = sub.add_parser("survey", help="joint (d, d2) census over connected graphs")
    p.add_argument("--n", type=int, required=True,
                   help=f"vertex count, at most {ENUM_CAP} "
                        f"(n = {ENUM_CAP} takes about 0.15 h on one core; "
                        f"from n = 7 the census spreads over the usable CPUs)")
    p.add_argument("--out", required=True, help="CSV path, - for stdout")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("family", help="sharp even-k witness graph as graph6")
    p.add_argument("--k", type=int, required=True, help=f"even diameter, 4..{bounds.FAMILY_MAX_K}")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", parents=[io_args], help="bound verdicts for graph6 input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sat-search", help="search for an extremal witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p2-len", type=int, required=True, dest="p2_len")
    p.add_argument("--min-d2", type=int, required=True, dest="min_d2")
    p.add_argument("--allow-diam-le-2", action="store_true",
                   help="drop the diameter > 2 requirement")
    p.add_argument("--allow-non-sharp", action="store_true",
                   help="accept witnesses even when diam G2 < diam G + 2 "
                        "(and drop the diameter-cap staircase)")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--emit-cnf", default=None,
                   help="write the DIMACS formula of the first solve call to this "
                        "file path, not -, and stop without searching (nothing "
                        "is written, exit 1, when no level is solved), "
                        "with a .vars sidecar of '<index> <kind> <vertices>' "
                        "lines; besides a (i j) and b (i j), kind t (i j k) "
                        "says j joins the non-adjacent i and k, far (i k) "
                        "that i and k lie beyond distance 2, eq (u v w) that "
                        "the rows of free vertices u and v agree up to "
                        "column w, q<s> (v) that v lies within s of vertex 0 "
                        "in G2, c<s> (v) that v lies within s of the pinned "
                        "path in G2 and cm<s> (u v) that it does through u; "
                        "unless --allow-non-sharp this is the lowest "
                        "diameter-cap level, whose reach variables have kinds "
                        "r<s> (i j within distance s, s >= 3; distance 2 is "
                        "a or b) and m<s> (i k j, joined through k)")
    p.set_defaults(func=cmd_sat_search)

    p = sub.add_parser("solve", help="run the built-in solver on a DIMACS file, "
                                     "competition-style output")
    p.add_argument("file", help=f"DIMACS CNF path, - for stdin; "
                                f"at most {DIMACS_MAX_VARS} variables")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convert", parents=[io_args],
                       help="convert between graph6 and edge-list blocks")
    p.add_argument("--source", choices=["graph6", "edges"], default="graph6")
    p.add_argument("--to", choices=["graph6", "edges"], required=True)
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # Graph6Error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
