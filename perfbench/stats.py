"""Summary statistics: medians, the tail-percentile rule, failure counting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float | None]:
    """``(value, percentile)`` at the highest percentile with ten samples beyond it.

    With ``n`` sorted samples that is the sample of rank ``n - 10`` (1-based),
    percentile ``100 * (n - 10) / n``.  Below twenty samples that percentile
    would not lie above the median, so the maximum is returned instead, with
    percentile ``None``.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND:
        return ordered[-1], None
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


@dataclass
class Summary:
    """Mean, median and tail of one population of timings, with its sample count."""

    mean: float
    median: float
    tail: float
    tail_percentile: float | None
    count: int

    @classmethod
    def of(cls, values: list[float]) -> "Summary":
        value, percentile = tail(values)
        return cls(
            statistics.fmean(values), statistics.median(values), value, percentile, len(values)
        )


def failed_fraction(failed: int, attempted: int) -> float:
    """(failed or errored points + points failing a check) / points attempted."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
