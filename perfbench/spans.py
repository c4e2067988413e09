"""Spans around distlab's layers, recorded from outside the program.

:class:`Tracer` wraps functions at the module or class attribute where
the program looks them up, records one span per call (name, parent,
start, end) in flat arrays, and computes per-layer totals, call counts
and self times (a span's duration minus its direct children's) when the
run ends.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.  Outside the span,
        ``before(args)`` runs first and ``after(tracer, args, result, state)``
        runs once the call returns, with ``state`` from ``before``."""
        ix = self.name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (name, owner, attribute[, before, after]) target;
        restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, *hooks in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        child_s = [0.0] * len(self.span_start)
        for sid in range(len(self.span_start) - 1, -1, -1):
            dur = self.span_end[sid] - self.span_start[sid]
            row = out[self.names[self.span_name[sid]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child_s[parent] += dur
        return out

    def write(self, path) -> None:
        """Every span as one tab-separated line: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n"
                )


def _solver_stats(args) -> dict:
    return dict(args[0].stats)


def _solver_stats_after(tracer: Tracer, args, result, before: dict) -> None:
    """Count what one ``DpllSolver.solve`` call added to ``self.stats``."""
    for key, value in args[0].stats.items():
        tracer.count(f"dpll.{key}", value - before.get(key, 0))


def _formula_after(tracer: Tracer, args, result, _state) -> None:
    _vm, formula = result
    tracer.count("encode.clauses", formula.clause_count)
    tracer.count("encode.vars", formula.var_count)


def _outcome_after(tracer: Tracer, args, result, _state) -> None:
    tracer.count("search.rejected", result.candidates_rejected)


def program_targets() -> list[tuple]:
    """Every wrapped lookup site in distlab, by layer span name.

    ``distlab.sat.search`` is taken from ``sys.modules``: the package
    re-exports the function ``search`` under the submodule's name, so
    ``import distlab.sat.search as m`` binds the function.
    """
    import distlab._kernels
    import distlab.bounds
    import distlab.canon
    import distlab.cli
    import distlab.enumeration
    import distlab.graph6
    from distlab.sat.dpll import DpllSolver

    search_mod = sys.modules["distlab.sat.search"]
    enum = distlab.enumeration
    return [
        ("enumeration.survey", enum, "survey"),
        ("canon.labeling", enum, "canonical_labeling_rows"),
        ("canon.orbits", enum, "orbits_from_generators"),
        ("canon.refine", distlab.canon, "refine"),
        ("kernels.pair", distlab._kernels, "diameter_pair"),
        ("kernels.distances", distlab._kernels, "distances"),
        ("graphs.k_distance", distlab.cli, "k_distance"),
        ("graphs.k_distance", search_mod, "k_distance"),
        ("graph6.parse", distlab.graph6, "parse"),
        ("graph6.emit", distlab.graph6, "emit"),
        ("bounds.check", distlab.bounds, "check_bounds"),
        ("cli.transform", distlab.cli, "cmd_transform"),
        ("cli.verify", distlab.cli, "cmd_verify"),
        ("cli.diam", distlab.cli, "cmd_diam"),
        ("search.search", search_mod, "search", None, _outcome_after),
        ("encode.build", search_mod, "build_formula", None, _formula_after),
        ("dpll.solve", DpllSolver, "solve", _solver_stats, _solver_stats_after),
        ("search.decode", search_mod, "decode_model"),
        ("search.verify", search_mod, "verify_witness"),
    ]
