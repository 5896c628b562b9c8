"""Small statistics shared by the benchmark harness and ``compare.py``.

Pure functions only (no program imports), so the self-tests exercise
them without running a workload.
"""

from __future__ import annotations

import re
import statistics
from collections.abc import Sequence

#: What a metric name in BENCHMARK.json may contain.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile needs beyond it before it is reported.
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` uses only the metric-name alphabet (max 64 chars)."""
    return len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def tail_percentile(count: int) -> float | None:
    """The highest percentile with at least ten samples beyond it.

    ``None`` when even the median lacks ten samples above it.
    """
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def relative_range(values: Sequence[float]) -> float:
    """``(max - min) / median`` (0 for a zero median)."""
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it.

    Positive means worse in the metric's direction; a zero ``parent``
    makes any worsening infinite.
    """
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> tuple[str, float]:
    """Classify a change against its parent; ``(verdict, win share)``.

    Runs pair up in order (run ``i`` of each side alternated).  The
    change *improved* when it wins at least nine tenths of the pairs and
    the medians differ, in its favour, by more than the parent's
    quartile distance; it is *worse* when its median is worse than the
    parent's by more than ``bound``; it is *unresolved* when the
    parent's own spread exceeds the bound and not every change run
    beats every parent run; otherwise it is *unchanged*.
    """
    pairs = list(zip(parent, change, strict=False))
    if better == "lower":
        wins = sum(1 for p, c in pairs if c < p)
    else:
        wins = sum(1 for p, c in pairs if c > p)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gain = (p_median - c_median) if better == "lower" else (c_median - p_median)
    if win_share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_share
    if worse_by(p_median, c_median, better) > bound:
        return "worse", win_share
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if relative_iqr(parent) > bound and not dominates:
        return "unresolved", win_share
    return "unchanged", win_share
