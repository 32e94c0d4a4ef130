"""Summary statistics used by the benchmark and its spread check."""

import math
import statistics

MIN_BEYOND = 10   # a percentile is reported only with this many samples above it


def percentile(samples, q):
    """Nearest-rank q-th percentile of ``samples``.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond the
    rank, because such a tail percentile rests on too few observations.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    beyond = len(values) - rank
    if q > 50 and beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{len(values)} samples leave {beyond}")
    return values[rank - 1]


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
