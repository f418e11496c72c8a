"""Machine-speed probe used to scale the benchmark's timings.

On a small shared machine the speed of every computation drifts together,
by up to 2x over tens of seconds, because of load outside the container.
A fixed kernel of small matrix products, ufuncs and Python arithmetic,
which never calls spectpp, is timed after every timed operation. Its
matrices take about as much memory as the target model's weights, so
contention for the shared caches slows it as it slows the model. An
operation's seconds are scaled by ``NOMINAL_SECONDS`` over the median of
the last ``WINDOW`` probes, the one just after it included, which gives
its duration at the reference speed. The scaled times are what the
end-to-end metrics report.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Median probe time on a 2-CPU Intel Xeon sandbox, one BLAS thread, while
# it was otherwise idle; it fixes the unit of scaled seconds, not their ratios.
NOMINAL_SECONDS = 1.4e-3
WINDOW = 5
_REPEATS = 5
_MATRICES = [np.random.default_rng(i).standard_normal((48, 48)) for i in range(64)]


def _kernel() -> float:
    x = _MATRICES[0]
    acc = 0.0
    for i in range(100):
        x = np.tanh(x @ _MATRICES[i % len(_MATRICES)] * 0.1)
        acc += float(x[0, 0]) + sum(range(50))
    return acc


class ScaledClock:
    """Times calls and scales each by the probes taken since just before it."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def _probe(self) -> float:
        times = []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
        self.probes.append(median(times))
        return self.probes[-1]

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its seconds, and its seconds at the
        reference speed."""
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            self._probe()
        return result, seconds, seconds * NOMINAL_SECONDS / median(self.probes[-WINDOW:])
