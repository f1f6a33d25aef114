"""Statistics rules shared by the benchmark and its comparison script.

* :func:`summarize` reports a timing the way every metric of this
  benchmark is reported: its median, the highest standard percentile that
  still has at least ten samples beyond it, and the sample count.
* :func:`worse_by` and :func:`regressed` apply a metric's bound: the share
  of the baseline median by which a metric may get worse before a change
  counts as a regression, in the metric's own direction.
* :func:`spread` is the quartile distance of a set of run values as a share
  of their median, the steadiness measure a bound is checked against.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Percentiles considered for the tail, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, count: int) -> int:
    """Nearest rank of ``pct`` among ``count`` samples, in exact arithmetic."""
    return math.ceil(Fraction(str(pct)) * count / 100)


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, _rank(pct, len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(samples: list[float]) -> dict:
    """Median, highest supported tail percentile and count of ``samples``.

    The tail is the highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples strictly beyond its rank; with fewer
    than that many samples there is no tail and only the median is given.
    """
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    result = {"count": len(ordered), "p50": statistics.median(ordered)}
    for pct in reversed(TAIL_PERCENTILES):
        rank = _rank(pct, len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            result["tail_pct"] = pct
            result["tail"] = ordered[rank - 1]
            break
    return result


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``baseline``, as a share of it.

    Negative when the candidate is better.  ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if baseline == 0:
        raise ValueError("a relative bound needs a non-zero baseline")
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def regressed(baseline: float, candidate: float, better: str, bound: float) -> bool:
    """Whether ``candidate`` is worse than ``baseline`` by more than ``bound``."""
    return worse_by(baseline, candidate, better) > bound


def spread(values: list[float]) -> float:
    """Quartile distance of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf
