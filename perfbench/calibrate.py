"""Host-speed calibration for the training workloads' timings.

The benchmark runs on a small shared host whose speed drifts: between
runs of the same code, and within one run, the same work takes up to
1.6x as long for seconds to minutes at a time.  A median over one run
cannot remove drift that lasts as long as the run.  So each timed
training episode is bracketed by samples of a fixed kernel that touches
nothing of the program under test, and the episode's time is scaled by
``REFERENCE_S`` over the kernel's time around it: timings are reported
as they would read on a host on which the kernel takes ``REFERENCE_S``.

The kernel mixes the two kinds of work the training workloads do: a
Python loop of small numpy operations on 2-vectors (like the MPE envs'
physics and rewards) and float64 matmuls with a ``tanh`` (like an MLP
layer of the update).  A change to the program moves the episode time
and not the kernel's, so it shows in full in the scaled figures.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time that defines the reference host speed
REFERENCE_S = 1.5e-3


class Calibrator:
    """A fixed kernel on fixed inputs, timed on demand."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._pos = rng.random(2)
        self._goal = rng.random(2)
        self._x = rng.random((256, 100))
        self._w = rng.random((100, 64))

    def _kernel(self) -> None:
        pos, goal = self._pos, self._goal
        for _ in range(100):
            delta = pos - goal
            dist = np.sqrt(np.sum(np.square(delta)))
            pos = pos - 0.01 * delta * (dist > 0.1)
        for _ in range(4):
            y = self._x @ self._w
            np.tanh(y, out=y)

    def sample(self) -> float:
        """Seconds the kernel takes now: the faster of two timings, so that
        a single interrupt does not read as a slow host."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best
