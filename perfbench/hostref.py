"""A fixed reference kernel that gauges the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts by 20% or more over
tens of seconds, so whole runs can land in a slow stretch and no median
within a run removes that. The harness therefore reads this kernel's time
through a ``Gauge`` between the timed calls of a run, at most every
``INTERVAL_S``, and scales each call's wall time by ``NOMINAL_S`` over
the mean of the two readings around it. The timing metrics then read as
on a host where the kernel takes ``NOMINAL_S``.

The kernel is ``npref.sra_forward`` on fixed weights and windows: plain
numpy on small arrays, the same mix of interpreter and array work as the
program, and no code shared with it. A change to the program cannot move
the kernel, so it cannot move the scale either. A run also reports its
unscaled times and the kernel's median time.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

import npref

# the kernel's time on the host these figures were first taken on (2 cores
# of a shared x86-64 host, numpy with one BLAS thread), so scaled times
# stay close to the wall times there
NOMINAL_S = 0.030
CROWDS = (2, 4, 8)
REPEATS = 2
# a reading costs about 30 ms, so at this spacing the gauge takes about 6%
# of a run; a train-crowd step lasts longer and gets its own readings
INTERVAL_S = 0.5


def _inputs():
    rng = np.random.default_rng(20210331)
    shapes = {"w_re": (32, 2), "b_re": (32, 1), "w_e": (32, 2), "b_e": (32, 1),
              "w_p": (2, 64), "b_p": (2, 1), "w_at": (1, 192)}
    for prefix, width in (("rel", 96), ("motion", 160)):
        for gate in "ifgo":
            shapes[f"{prefix}_w{gate}"] = (64, width)
            shapes[f"{prefix}_b{gate}"] = (64, 1)
    weights = {name: rng.normal(0.0, 0.1, shape) for name, shape in sorted(shapes.items())}
    windows = [np.cumsum(rng.normal(0.0, 0.3, (n, 20, 2)), axis=1) for n in CROWDS]
    return weights, windows


_WEIGHTS, _WINDOWS = _inputs()


def measure() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        for positions in _WINDOWS:
            npref.sra_forward(_WEIGHTS, positions)
    return perf_counter() - t0


class Gauge:
    """Readings of the kernel's time, taken between a run's timed calls."""

    def __init__(self):
        self.at: list[float] = []      # when each reading started
        self.kernel: list[float] = []  # what each reading took
        self.spent = 0.0

    def read(self) -> None:
        t0 = perf_counter()
        self.kernel.append(measure())
        self.at.append(t0)
        self.spent += perf_counter() - t0

    def due(self) -> None:
        """Read if no reading was taken in the last ``INTERVAL_S``."""
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.read()

    def scale(self, start: float) -> float:
        """The factor to nominal speed for a call that started at ``start``.

        It uses the last reading before the call and the first after it,
        so a reading must be taken after the run's last timed call.
        """
        i = bisect.bisect_right(self.at, start) - 1
        return 2 * NOMINAL_S / (self.kernel[i] + self.kernel[i + 1])
