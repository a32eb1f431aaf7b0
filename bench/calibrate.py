"""A fixed reference computation that tracks the speed of the host.

The benchmark runs on a shared host whose speed drifts by tens of percent
within seconds and between runs as other tenants load it, so a program that
did not change reads that much slower or faster in wall time.  Short bursts
of a fixed reference computation, timed between pieces of work, measure the
drift, and the calibrated timings divide it out: a piece of work's slowdown
is the median over the bursts just before, during and just after it.  The
reference uses numpy alone, never uavstream, so no change to the program can
move it.

Set-up time is calibrated apart, by a fresh interpreter that only imports
uavstream's dependencies (REFERENCE_SETUP_CODE).

A burst has two parts, timed apart because contention slows them by
different amounts: dense algebra (a Cholesky factor and two triangular solves
at n = 302 and 602, the sizes of the large P5 Newton systems), and an
interpreter loop of small-array numpy calls like the program's callbacks and
its Newton steps at n < 100.  The slowdown at a burst is the mean of the two
parts' time over their nominal time, weighted by the workload's dense weight:
1 where dense algebra at n >= 300 dominates the cells, 0 where call overhead
does.
"""

import statistics
import time

import numpy as np

# Seconds the two parts of a burst take on an unloaded host of the kind the
# benchmark was built on (2 vCPUs of an Intel Xeon at 2.1 GHz, one BLAS
# thread).  They only fix the scale of the calibrated seconds; comparisons
# between commits depend on them not changing.
NOMINAL_DENSE_S = 0.05
NOMINAL_INTERP_S = 0.03

# The reference for set-up: a fresh interpreter that imports what uavstream
# imports, without uavstream.  Set-up is mostly such imports, so the ratio of
# the two tracks the host; its nominal time has the same role as the above.
REFERENCE_SETUP_CODE = "import argparse, csv, concurrent.futures, dataclasses, numpy, scipy.special"
NOMINAL_SETUP_S = 0.45


class Calibrator:
    """Times reference bursts and reports the host's slowdown over a run.

    ``sample`` runs one burst; ``maybe_sample`` runs one if ``interval``
    seconds have passed since the last, so short cells are not each paid for
    with a burst.  ``dense_weight`` weights the dense part against the
    interpreter part.  ``spent`` is the total time spent in bursts, for
    callers that time a span of work with bursts inside it.
    """

    def __init__(self, dense_weight, interval=0.0):
        rng = np.random.default_rng(12345)
        self._systems = []
        for n in (302, 602):
            a = rng.standard_normal((n, n))
            self._systems.append((a @ a.T + n * np.eye(n), rng.standard_normal(n)))
        self._v = rng.random(30) + 0.5
        self.dense_weight = dense_weight
        self.interval = interval
        self.samples = []
        self.bursts = []                    # (end time, dense_s, interp_s)
        self.spent = 0.0
        self._last = -float("inf")
        self._burst()                       # warm-up: first BLAS call, page faults

    def _burst(self):
        """Run one burst; return the seconds of its dense and interpreter parts."""
        start = time.perf_counter()
        for _ in range(2):
            for h, rhs in self._systems:
                lower = np.linalg.cholesky(h)
                np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
        middle = time.perf_counter()
        v, acc, table = self._v, 0.0, {}
        for i in range(4000):
            g = np.log1p(v * (i % 7 + 1))
            acc += float(g @ v) + float(np.exp(-v).sum())
            for j in range(30):
                table[j] = table.get(j, 0.0) + acc * 1e-9
        return middle - start, time.perf_counter() - middle

    def sample(self):
        dense_s, interp_s = self._burst()
        self.spent += dense_s + interp_s
        self._last = time.perf_counter()
        self.bursts.append((self._last, dense_s, interp_s))
        self.samples.append(self.dense_weight * dense_s / NOMINAL_DENSE_S
                            + (1.0 - self.dense_weight) * interp_s / NOMINAL_INTERP_S)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def slowdown(self, first=0, stop=None):
        """Median of the host's slowdown against nominal speed over the
        bursts ``samples[first:stop]``."""
        return statistics.median(self.samples[first:stop])
