"""Statistics the benchmark reports: medians with quartiles, the tail
percentile a sample supports, and failure accounting."""

import statistics

# Percentiles tried for a latency tail, highest first (driver.cpp emits
# exactly these).
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def summarize(values):
    """Median, first and third quartile and count of `values`.

    Quartiles follow `statistics.quantiles(values, n=4)` (its default
    exclusive method); with fewer than two values both equal the median.
    """
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def samples_beyond(count, pct):
    """Samples strictly above the `pct`-th percentile of `count` samples."""
    # Percentiles are given to at most one decimal place, so scale by 1000
    # and stay in integers: ceil(count * pct / 100) without float error.
    at_or_below = -(-count * round(pct * 10) // 1000)
    return count - at_or_below


def tail_percentile(count, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest percentile in `ladder` with >= `min_beyond` samples beyond it,
    or None when even the lowest one lacks them."""
    for pct in sorted(ladder, reverse=True):
        if samples_beyond(count, pct) >= min_beyond:
            return pct
    return None


def fail_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
