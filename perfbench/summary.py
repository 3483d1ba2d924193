"""Arithmetic of the end-to-end metrics: the tail percentile, the failure
share and the scaling of a time to the reference speed. Kept free of any
halfmatch import so it can be tested with synthetic samples."""

from __future__ import annotations

#: the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> tuple[int, float] | None:
    """Rank and percentile of the tail sample among ``n`` sorted samples.

    The tail is the highest sample that still has ``beyond`` samples above
    it, the one at 0-based rank ``n - beyond - 1``. Its percentile is the
    share of samples at or below it. Returns None when fewer than
    ``beyond + 1`` samples exist, because no sample qualifies.
    """
    rank = n - beyond - 1
    if rank < 0:
        return None
    return rank, 100.0 * (rank + 1) / n


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(value, percentile) of the tail sample, or None when too few samples."""
    found = tail_rank(len(samples), beyond)
    if found is None:
        return None
    rank, pct = found
    return sorted(samples)[rank], pct


def failed_frac(outcomes: list[bool]) -> float:
    """Share of attempted requests that failed; ``outcomes`` holds one
    success flag per attempted request."""
    if not outcomes:
        raise ValueError("no request was attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def speed_scale(before: float, after: float, reference_s: float) -> float:
    """Factor that turns seconds measured between two probes of the
    reference into seconds at the reference speed. ``before`` and
    ``after`` are the probes' seconds per reference run; the host's speed
    over the interval is taken as their mean."""
    if before <= 0 or after <= 0:
        raise ValueError("a probe took no time")
    return reference_s / ((before + after) / 2)
