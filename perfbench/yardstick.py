"""Yardsticks: fixed computations whose wall time tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by
a factor of up to two, at times within a fraction of a second and at
times for many seconds.  CPU time swings with wall time, so neither
reads the program's cost alone.  So while a pass runs, a timer
interrupts it every ``INTERVAL`` seconds (``SETUP_INTERVAL`` during a
set-up) to run a short yardstick, and each stretch of the pass between
two probes is counted in multiples of the yardstick time measured at
its end.  A slow patch of the host
stretches both, and their ratio stays.

A yardstick is made of the benchmark's own numpy code and never calls
dpplab, so a change to the program cannot move it.  Each workload takes
the yardstick whose work is most like its own:

* ``small``: a few rounds of tiny numpy calls and Python objects, as in
  the sampler's per-draw work and the battery's per-trial work;
* ``dense``: symmetric eigenvalues and a product of an n x n matrix, as
  in the exhaustion study's linear algebra.

A time in yardsticks times the yardstick's ``REFERENCE_S`` reads as
seconds on a machine that runs the yardstick in that time; the harness
reports set-up time so, since it must read in seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


def _small(basis) -> None:
    out = []
    for i in range(12):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        keep = rng.random(basis.shape[1]) < 0.8
        q, _ = np.linalg.qr(basis[:, keep] if keep.any() else basis)
        p = np.einsum("ij,ij->i", q, q)
        j = int(rng.choice(len(p), p=p / p.sum()))
        q[j] = 0.0
        out.append(frozenset((j, i % len(p), float(np.dot(q.T, q).trace()))))


def _dense(matrix) -> None:
    np.linalg.eigvalsh(matrix)
    matrix @ matrix


class Yardstick:
    """One named yardstick, built once from a fixed seed, and the timer that probes it during a pass.

    Building one installs a SIGALRM handler for the life of the process;
    the timer runs only inside ``time``.
    """

    KINDS = ("small", "dense")

    #: Median time of each yardstick over 2000 back-to-back runs on the
    #: machine of README.md's reference figures.
    REFERENCE_S = {"small": 7.5e-4, "dense": 1.4e-3}

    #: Wall-clock seconds between two probes while a pass runs.
    INTERVAL = 0.1

    #: The same while a set-up runs: a set-up takes 0.05-0.2 s.
    SETUP_INTERVAL = 0.02

    #: Probes after a pass ends; the last stretch counts in their median.
    END_PROBES = 3

    def __init__(self, kind: str):
        rng = np.random.default_rng(7)
        if kind == "small":
            self._fn, self._state = _small, rng.normal(size=(6, 3))
        elif kind == "dense":
            m = rng.normal(size=(160, 160))
            self._fn, self._state = _dense, m + m.T
        else:
            raise ValueError(f"unknown yardstick {kind!r}; expected one of {self.KINDS}")
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        self._probes = None  # (start, duration) of each probe while a pass runs
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.measure()  # warm-up

    def measure(self) -> float:
        """Wall time of one run of the yardstick."""
        start = time.perf_counter()
        self._fn(self._state)
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        probes, self._probes = self._probes, None  # no probe inside a probe
        if probes is None:
            return
        start = time.perf_counter()
        self._fn(self._state)
        probes.append((start, time.perf_counter() - start))
        self._probes = probes

    def time(self, fn, *args, interval: float = INTERVAL):
        """Run ``fn(*args)`` under a probe timer that fires every ``interval`` seconds.

        Returns the result, the wall seconds spent in ``fn`` (probes left
        out), and the same time in yardsticks: the sum, over the stretches
        between probes, of each stretch's length over the probe that ends
        it.  The last stretch ends with ``END_PROBES`` probes made after
        ``fn`` returns, and counts in their median.
        """
        probes = []
        self._probes = probes
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._probes = None
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        probes.append((end, statistics.median(self.measure() for _ in range(self.END_PROBES))))
        seconds = yardsticks = 0.0
        stretch_start = start
        for probe_start, duration in probes:
            stretch = probe_start - stretch_start
            seconds += stretch
            yardsticks += stretch / duration
            stretch_start = probe_start + duration
        return result, seconds, yardsticks
