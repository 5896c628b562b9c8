"""Loaded-latency analysis: the latency-vs-offered-load curve.

Closed-loop simulation answers "how fast can this pattern go"; systems
also need "how long does a request wait at a given traffic level".  This
module injects a pattern's requests open loop at a chosen fraction of
peak bandwidth and measures queueing latency, producing the classic
hockey-stick curve: flat near-idle latency until the pattern's sustainable
bandwidth, then unbounded growth.  The knee's position *is* the pattern's
achievable bandwidth -- a third, independent way to see the baseline
column walk saturating at ~1 % of peak while DDL traffic rides to ~100 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.memory3d.memory import Memory3D
from repro.trace.request import TraceArray
from repro.units import ELEMENT_BYTES


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load measurement."""

    offered_fraction: float
    offered_bytes_per_s: float
    achieved_bytes_per_s: float
    mean_latency_ns: float
    max_latency_ns: float

    @property
    def saturated(self) -> bool:
        """True when the memory cannot keep up with the offered rate."""
        return self.achieved_bytes_per_s < 0.95 * self.offered_bytes_per_s


def with_offered_load(
    trace: TraceArray, fraction: float, peak_bytes_per_s: float
) -> TraceArray:
    """Attach uniform arrivals at ``fraction`` of peak bandwidth."""
    if not (0.0 < fraction):
        raise SimulationError(f"fraction must be positive, got {fraction}")
    if peak_bytes_per_s <= 0:
        raise SimulationError("peak bandwidth must be positive")
    inter_arrival_ns = ELEMENT_BYTES / (fraction * peak_bytes_per_s) * 1e9
    arrivals = np.arange(len(trace), dtype=np.float64) * inter_arrival_ns
    return trace.with_arrivals(arrivals)


def latency_load_curve(
    memory: Memory3D,
    pattern: TraceArray,
    fractions: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
    discipline: str = "per_vault",
) -> list[LoadPoint]:
    """Sweep offered load over a pattern and measure queueing latency.

    The trace is replayed with uniform arrivals at each offered fraction
    of the device peak; ``mean_request_latency_ns`` comes straight from
    the timing engines.  The whole pattern is replayed; pass
    ``pattern.head(k)`` to price a prefix.
    """
    peak = memory.config.peak_bandwidth
    points: list[LoadPoint] = []
    for fraction in fractions:
        loaded = with_offered_load(pattern, fraction, peak)
        stats = memory.simulate(loaded, discipline)
        points.append(LoadPoint(
            offered_fraction=fraction,
            offered_bytes_per_s=fraction * peak,
            achieved_bytes_per_s=stats.bandwidth_bytes_per_s,
            mean_latency_ns=stats.mean_request_latency_ns,
            max_latency_ns=stats.max_request_latency_ns,
        ))
    return points


def knee_fraction(points: list[LoadPoint]) -> float:
    """Offered fraction at which the pattern saturates (first saturated
    point, or 1.0 if it never does)."""
    for point in points:
        if point.saturated:
            return point.offered_fraction
    return 1.0
