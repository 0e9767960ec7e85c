"""Percentiles of benchmark samples.

Percentiles use the nearest-rank rule. A tail percentile is reported only
when at least ``MIN_BEYOND`` samples lie beyond it, so that one outlier can
not set it on its own.
"""
from __future__ import annotations

import math

MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(p * n / 100.0))


def reportable(n: int, p: float) -> bool:
    """True when the p-th percentile of n samples has enough samples beyond it."""
    return n >= 1 and n - rank(n, p) >= MIN_BEYOND


def percentile(samples, p: float) -> float:
    ordered = sorted(samples)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(samples, p: float) -> float | None:
    """The p-th percentile, or None when too few samples lie beyond it."""
    return percentile(samples, p) if reportable(len(samples), p) else None
