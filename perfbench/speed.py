"""How fast the machine is running right now, sampled while the timed work runs.

On a shared machine the same batch can take 50% longer from one minute to the
next, and the slowdown comes and goes within seconds.  A probe times a fixed
piece of work that never changes with patcol, again and again; the samples
say how fast the machine runs at that moment.  Scaling each operation's time
by the probe's reference time over the samples taken around it gives its
time at a fixed reference speed.  The probe's own time is left out of every
time measured.

Two probes exist.  ``slice_probe`` runs the benchmark's reference search on
a fixed instance; during an in-process batch a timer signal takes two slices
every INTERVAL_S, inside the operations.  ``start_probe`` starts a bare
interpreter; a CLI batch, whose commands are mostly interpreter start-up,
takes one between commands, never alongside them.
"""
from __future__ import annotations

import random
import signal
import subprocess
import sys
import time
from itertools import combinations

import reference

INTERVAL_S = 0.2

_rng = random.Random(7)
_EDGES = sorted(_rng.sample(list(combinations(range(10), 3)), 36))


def _slice() -> None:
    for k in range(1, 11):
        reference.colourable(10, _EDGES, k, [(2, 1), (1, 1, 1)])


def _bare_start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Probe:
    def __init__(self, work, reference_s: float, per_tick: int) -> None:
        self.work = work
        self.reference_s = reference_s  # median sample on the machine the bounds were set on
        self.per_tick = per_tick
        self.samples: list[float] = []  # duration of each sample, in order
        self.spent = 0.0  # total time spent probing

    def tick(self, signum=None, frame=None) -> None:
        """Take per_tick samples now (also the timer signal's handler)."""
        entered = time.perf_counter()
        for _ in range(self.per_tick):
            started = time.perf_counter()
            self.work()
            self.samples.append(time.perf_counter() - started)
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # The handler stays installed: a tick already under way may still land.
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, first: int, last: int) -> float:
        """Reference time over the mean of samples first..last-1.

        An operation too short to contain a sample takes the next sample
        after it (or the last one taken).
        """
        window = self.samples[first:last] or self.samples[min(first, len(self.samples) - 1) :][:1]
        if not window:
            return 1.0
        return self.reference_s / (sum(window) / len(window))


# Reference times: medians on a 2-vCPU Xeon at 2.1 GHz (CPython 3.11).
def slice_probe() -> Probe:
    return Probe(_slice, 0.006, per_tick=2)


def start_probe() -> Probe:
    return Probe(_bare_start, 0.045, per_tick=1)
