"""Machine speed during a run, from a fixed reference kernel.

On a small shared box the same op can take 1.5x longer from one minute to
the next, because other tenants load the host. The benchmark therefore
samples a fixed reference kernel between ops, at most every
``SAMPLE_EVERY_S``, and divides each op's wall time by the machine's
slowdown around it: the median kernel time of the samples taken near the op,
over the kernel's nominal time. Reported times are thus wall times at the
reference speed; the run's median slowdown is printed beside them.

There are two kernels, each the same kind of work as the ops it scales but
never medli's code: small complex Hermitian eigendecompositions and products
for in-process ops, and a fresh ``python -c "import numpy"`` for ops that
are whole processes (the cli workload and the set-up probes). On the
reference box the process kernel cut the spread of the cli median five-fold,
where the in-process kernel cut it by a quarter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Typical kernel times on the 2-core reference box (scipy-openblas 0.3.31, one
# BLAS thread). They only set the unit.
NOMINAL_S = 0.004
NOMINAL_PROCESS_S = 0.15
# A speed sample is taken before an op when the last one is older than this.
SAMPLE_EVERY_S = 0.1
# In-process kernel runs per sample; the sample is their median.
RUNS_PER_SAMPLE = 3
# Samples this close to an op, before or after it, set its slowdown; for an op
# longer than twice this, half its own duration. A short window tracks the
# host's load best: on the reference box it more than halved the spread of the
# qubit-pairs tail against one run-wide factor.
WINDOW_S = 0.25


class Speed:
    """Reference-kernel samples through a run: in-process, or one process each."""

    def __init__(self, process: bool = False):
        self.process = process
        self.nominal = NOMINAL_PROCESS_S if process else NOMINAL_S
        rng = np.random.default_rng(0)
        self._mats = []
        for dim in (4, 8, 12):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            self._mats.append((z + z.conj().T) / 2)
        # Bound now, so that a tracer installed later never sees the kernel.
        self._eigh = np.linalg.eigh
        self.stamps: list[float] = []
        self.values: list[float] = []

    def _kernel(self) -> float:
        started = time.perf_counter()
        if self.process:
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
            return time.perf_counter() - started
        for _ in range(20):
            for h in self._mats:
                w, v = self._eigh(h)
                u = (v * np.exp(1j * w)) @ v.conj().T
                float(np.trace(u @ h @ u.conj().T).real)
        return time.perf_counter() - started

    def sample(self) -> None:
        runs = 1 if self.process else RUNS_PER_SAMPLE
        value = statistics.median(self._kernel() for _ in range(runs))
        self.stamps.append(time.perf_counter())
        self.values.append(value)

    def sample_if_stale(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Median kernel time over its nominal: around [start, end], or over the whole run."""
        picks = self.values
        if start is not None:
            window = max(WINDOW_S, (end - start) / 2)
            lo = bisect_left(self.stamps, start - window)
            hi = bisect_right(self.stamps, end + window)
            # Fall back to the nearest samples when none lies in the window.
            picks = self.values[lo:hi] or self.values[max(lo - 1, 0):lo + 1]
        return statistics.median(picks) / self.nominal
