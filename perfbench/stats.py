"""Summary statistics with the benchmark's honesty rules.

A percentile is only reported when the sample supports it: at least
``MIN_TAIL`` samples must lie beyond it on the far side, so p50 needs 20
samples and p90 needs 100.  Throughput is a median over per-pass values.
"""

from __future__ import annotations

import math

MIN_TAIL = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample size with ``MIN_TAIL`` samples beyond quantile ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
    return math.ceil(MIN_TAIL / (1.0 - q) - 1e-9)


def percentile(samples, q: float) -> float:
    """The ``q`` quantile (linear interpolation, like numpy's default).

    Raises :class:`UnsupportedPercentile` when fewer than ``MIN_TAIL``
    samples lie above it, instead of extrapolating from a tiny sample.
    """
    values = sorted(float(v) for v in samples)
    need = min_samples(q)
    if len(values) < need:
        raise UnsupportedPercentile(
            f"p{round(q * 100)} needs {need} samples ({MIN_TAIL} beyond it), got {len(values)}"
        )
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)

