"""Open-loop request schedule driven from the calling thread.

Request ``i`` is due at ``t0 + i / rate`` whatever happened to earlier
requests: independent users do not wait for each other.  Each request is
timed from the moment it was *due*, not from the moment the generator
got round to sending it, so a stall in the generator (or in the server
call it makes) shows up as latency on every request it delayed.  How
late the generator ran is reported as lag, so a run whose generator
could not keep up can be recognised.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Optional


class OpenLoop:
    """Issue ``count`` requests at ``rate`` per second on this thread.

    ``issue(i, due)`` sends request ``i``; ``tick(now)`` runs once per
    wake-up, before the requests that are due (the serving workload
    publishes snapshots from it).  ``clock`` and ``sleep`` are
    injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        count: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.rate = rate
        self.count = count
        self.clock = clock
        self.sleep = sleep
        #: per-request lag: send time minus due time, in seconds (float32,
        #: so the generator's own state stays small)
        self.lags = array("f", bytes(4 * count))
        self.start = 0.0
        self.end = 0.0

    def due(self, i: int) -> float:
        return self.start + i / self.rate

    def run(
        self,
        issue: Callable[[int, float], None],
        tick: Optional[Callable[[float], None]] = None,
    ) -> "OpenLoop":
        clock = self.clock
        rate = self.rate
        count = self.count
        lags = self.lags
        self.start = start = clock()
        i = 0
        while i < count:
            now = clock()
            if tick is not None:
                tick(now)
            while i < count and start + i / rate <= now:
                due = start + i / rate
                lags[i] = clock() - due
                issue(i, due)
                i += 1
                now = clock()
            if i < count:
                delay = start + i / rate - clock()
                if delay > 0:
                    self.sleep(delay)
        self.end = clock()
        return self
