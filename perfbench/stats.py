"""Arithmetic of the benchmark's summary figures.

Kept free of any kdrecon import so the tests can check it in isolation.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the value is
    the ``n - beyond``-th smallest, so exactly ``beyond`` samples lie beyond it
    (ties aside) and it is the ``100 * (n - beyond) / n``-th percentile.  With
    ``beyond`` samples or fewer no such percentile exists; the maximum is then
    returned as the 100th percentile, and callers report the sample count so
    the reader can see it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    rank = n - beyond  # 1-based rank of the reported sample
    return xs[rank - 1], 100.0 * rank / n, n


def median(samples) -> float:
    return float(statistics.median(samples))


def fail_ratio(failed: int, attempted: int) -> float:
    """Cases that raised or missed their check, over cases attempted."""
    if attempted < 1:
        raise ValueError("no cases attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count out of range")
    return failed / attempted


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` is a sequence of ``(name, start, end, parent, case_id)`` with
    ``parent`` the index of the enclosing span, or -1 at top level.  Spans
    come from one call stack, so a span's children are disjoint and lie
    inside it.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
