"""Summary statistics for benchmark samples.

Kept free of numpy so the maths can be checked on scripted samples
without loading the program under test.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks.

    Rank r = q/100 * (n - 1) on the sorted samples, as numpy's default
    method defines it, so p50 of an even-length list is the mean of the
    two middle samples.
    """
    if not samples:
        raise ValueError("percentile: need at least one sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile: q must lie in [0, 100], got {q}")
    xs = sorted(samples)
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, refusing a zero or negative base."""
    if not denominator > 0:
        raise ValueError(f"ratio: base must be positive, got {denominator}")
    return numerator / denominator


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("error_rate: no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"error_rate: {failed} failed out of {attempted} attempted")
    return failed / attempted


def self_time(duration: float, children: Sequence[tuple[float, float]], start: float) -> float:
    """Span duration minus the part of [start, start + duration] its children cover.

    Children are (start, end) pairs; overlaps between them are counted once.
    """
    end = start + duration
    covered = 0.0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            cursor = c1
    return duration - covered
