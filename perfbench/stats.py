"""Small statistics and measurement helpers shared by the benchmark's parts.

Kept free of third-party imports so the orchestrator (``run.py``) can
use them before anything of the program under test is loaded.
"""

from __future__ import annotations

import math
import re
import resource
from typing import Iterable, List, Optional, Sequence, Tuple

#: metric and workload names: letter or digit first, then at most 63 more
#: of letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: units such as ``ms``, ``s``, ``1/s``, ``count``
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method).

    ``q`` is in [0, 100]; raises on an empty sequence.
    """
    if not len(values):
        raise ValueError("percentile of no samples")
    return sorted_percentile(sorted(values), q)


def sorted_percentile(data: Sequence[float], q: float) -> float:
    """``percentile`` of values already sorted ascending (a list or array)."""
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == data[lo]:  # also keeps inf (a missed request) from giving nan
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """Highest ``TAIL_LADDER`` percentile with ``MIN_BEYOND`` samples above it.

    Returns ``(q, value, n)`` where ``n`` is the sample count, or None
    when not even the lowest rung has enough samples beyond it.
    """
    n = len(values)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:  # 99.9 is inexact
            return q, percentile(values, q), n
    return None


def merged_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def iqr_share(values: List[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles Python's statistics module gives."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
