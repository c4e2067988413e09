"""Wall time scaled to a reference CPU speed.

On a shared host the speed of a CPU drifts by a factor of two within
seconds, so raw wall times of identical runs spread by tens of percent.
:class:`SpeedProbe` runs a fixed pure-Python loop on a thread of the
measured process every ``PERIOD_S`` seconds, with the process pinned to
one CPU, so each loop time tells how fast that CPU ran the measured
code at that moment.  :meth:`SpeedProbe.scaled` turns an interval of
wall time into the seconds the same work would take at the reference
speed, at which the loop takes ``REF_LOOP_S``: the interval minus the
probe's own time, times the mean of ``REF_LOOP_S / loop time`` over the
loops inside it.
"""
from __future__ import annotations

import os
import threading
import time

PERIOD_S = 0.025
REF_LOOP_S = 0.0003


def pin_to_one_cpu() -> tuple[int | None, int]:
    """Keep this process, its threads and its children on one CPU.
    Returns that CPU (None where pinning is refused) and how many CPUs
    the process could use before."""
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None, len(cpus)
    return cpu, len(cpus)


def _loop() -> int:
    """Fixed work mixing integer bit counting and small-dict updates with
    tuple and string building, the two kinds of pure-Python code distlab
    runs.  A loop of bit counting alone slows down more than distlab under
    contention and over-corrects the stream workload."""
    acc = 0
    tally: dict[int, int] = {}
    for i in range(500):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc += (x & (x >> 3)).bit_count()
        tally[x & 1023] = tally.get(x & 1023, 0) + 1
    parts = []
    for i in range(200):
        row = (i, i * 3, str(i))
        parts.append(f"{row[0]},{row[1]},{row[2]}")
        tally[i & 31] = len(row)
    return acc + len("".join(parts))


class SpeedProbe:
    """Context manager sampling (start, loop seconds) on a daemon thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.perf_counter
        while True:
            t = clock()
            _loop()
            self.samples.append((t, clock() - t))
            if self._stop.wait(PERIOD_S):
                return

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the work done in [t0, t1]."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        busy = sum(inside)
        if not inside:  # shorter than one period: the nearest loop stands in
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        rate = sum(REF_LOOP_S / d for d in inside) / len(inside)
        return (t1 - t0 - busy) * rate
