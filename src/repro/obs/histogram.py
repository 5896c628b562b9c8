"""Latency-histogram conventions shared by serve, sweep and the CLI.

:mod:`repro.obs.metrics` provides the mergeable fixed-bucket
:class:`~repro.obs.metrics.Histogram`; this module pins down *which*
buckets the latency-bearing subsystems use and how quantiles are read
back out of plain snapshots.  Consumers like ``/status``, ``repro
tail`` and the flight recorder only ever see ``as_dict()`` snapshots
(often from another process), so the quantile math here works on the
dict form, not on live instruments.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.obs.metrics import Histogram, MetricsRegistry, quantile_from_snapshot

#: End-to-end ``POST /plan`` latency (seconds): sub-ms cache hits up to
#: multi-second deadline-bounded computes.
SERVE_LATENCY_BOUNDS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Time a request spends queued before a pool thread picks it up.
QUEUE_WAIT_BOUNDS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

#: One retryable attempt of a point computation; a warm pool worker
#: answers a small point in a few milliseconds.
ATTEMPT_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Engine phases (row/column pass, permutation) inside a worker.
ENGINE_PHASE_BOUNDS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Whole sweep points, as seen by the monitor.
POINT_DURATION_BOUNDS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0)

#: The quantiles every latency surface reports.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def observe_latency(
    registry: MetricsRegistry,
    name: str,
    seconds: float,
    bounds: tuple[float, ...],
    exemplar: str | None = None,
    help: str = "",
) -> Histogram:
    """Record one latency observation on a shared-bounds histogram."""
    hist = registry.histogram(name, bounds, help)
    hist.observe(seconds, exemplar=exemplar)
    return hist


def latency_summary(entry: Mapping[str, object]) -> dict:
    """p50/p95/p99 + count summary of a histogram snapshot (JSON-ready)."""
    return {
        "count": int(entry["count"]),  # type: ignore[arg-type]
        "p50_s": quantile_from_snapshot(entry, 0.5),
        "p95_s": quantile_from_snapshot(entry, 0.95),
        "p99_s": quantile_from_snapshot(entry, 0.99),
    }


def summarize_latencies(snapshot: Mapping[str, Mapping[str, object]]) -> dict:
    """Latency summaries for every histogram in a registry snapshot."""
    return {
        name: latency_summary(entry)
        for name, entry in sorted(snapshot.items())
        if entry.get("type") == "histogram"
    }
