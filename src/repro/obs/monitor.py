"""Live sweep monitoring: an embedded ``/status`` + ``/metrics`` server.

PR 5 made sweeps observable *after the fact* (merged traces, OpenMetrics
dumps, HTML reports); this module makes them observable *while running*.
Two pieces:

* :class:`SweepStatus` -- thread-safe accounting the sweep runner
  updates as points complete: grid progress, per-worker state, retry
  and quarantine counts, cache hit rate, and a throughput-based ETA.
  It also accumulates the per-point metrics snapshots into a live
  :class:`~repro.obs.metrics.MetricsRegistry` so ``/metrics`` serves
  real mid-run numbers, not an end-of-run merge.
* :class:`SweepMonitor` -- an
  :class:`~repro.obs.endpoint.EndpointServer` thread in the parent
  process (``repro sweep --monitor PORT``; port 0 binds an ephemeral
  port) exposing:

  - ``GET /status`` -- one JSON document (:data:`STATUS_SCHEMA`):
    progress, throughput, ETA, per-worker state, failures, cache hits;
  - ``GET /metrics`` -- the OpenMetrics text exposition of the live
    registry plus progress gauges (scrapeable by any Prometheus agent,
    reusing :func:`repro.obs.openmetrics.render_openmetrics`);
  - ``GET /logs?n=N`` -- the newest N structured log records from the
    global ring buffer (:mod:`repro.obs.logging`), oldest first.

``python -m repro tail --url http://...`` polls ``/status`` and renders
the single-line live view (:func:`render_status_line`).

Monitoring is run *metadata*: the deterministic sweep document is
byte-identical with the monitor on or off (enforced by tests).
``repro serve`` (:class:`~repro.serve.app.PlanServer`) runs on the same
:mod:`repro.obs.endpoint` server and shares :data:`OPENMETRICS_CONTENT_TYPE`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.obs.endpoint import EndpointServer
from repro.obs.histogram import (
    POINT_DURATION_BOUNDS,
    observe_latency,
    summarize_latencies,
)
from repro.obs.logging import RingBufferSink, global_ring
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import render_openmetrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.handler import EndpointHandler

#: Schema tag stamped into every ``/status`` document (v2 added the
#: ``latency`` summary section).
STATUS_SCHEMA = "repro-status/v2"

#: Exact key set of a ``repro-status/v2`` document.  SCHEMA001 holds
#: every producer of the tag to this declaration (``repro tail`` and CI
#: scrapers key off it); new fields need a new tag version.
STATUS_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "state",
        "total",
        "completed",
        "simulated",
        "cached",
        "resumed",
        "failed",
        "failure_reasons",
        "retries",
        "jobs",
        "progress",
        "cache_hit_rate",
        "elapsed_s",
        "throughput_pts_per_s",
        "eta_s",
        "workers",
        "latency",
    }
)

#: The retired v1 status contract, kept declared so SCHEMA001 still
#: recognizes recorded v1 documents (no shipped producer remains).
STATUS_V1_SCHEMA = "repro-status/v1"
STATUS_V1_KEYS = frozenset(
    {
        "schema",
        "run_id",
        "state",
        "total",
        "completed",
        "simulated",
        "cached",
        "resumed",
        "failed",
        "failure_reasons",
        "retries",
        "jobs",
        "progress",
        "cache_hit_rate",
        "elapsed_s",
        "throughput_pts_per_s",
        "eta_s",
        "workers",
    }
)

#: Content type served by ``/metrics`` (OpenMetrics text exposition).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Default record count for ``/logs`` when ``n`` is not given.
DEFAULT_LOG_TAIL = 100


class MonitorError(ReproError):
    """Invalid monitor configuration or use."""


# ---------------------------------------------------------------- sweep status
class SweepStatus:
    """Thread-safe live accounting of one sweep run.

    The runner calls the ``mark_*`` methods from its outcome loop; the
    monitor's HTTP threads call :meth:`snapshot` and
    :meth:`metrics_snapshot` concurrently.  All host-time reads live
    here (``repro.obs`` is the DET001-exempt zone) -- status is run
    metadata and never part of a deterministic result document.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.run_id: str | None = None
        self.state = "idle"
        self.total = 0
        self.simulated = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.resumed = 0
        self.jobs = 0
        self._started_perf: float | None = None
        self._finished_perf: float | None = None
        #: worker_id -> {"points": n, "last_point": i, "last_seen_s": t}
        self._workers: dict[int, dict[str, Any]] = {}
        #: canonical QuarantineReason value -> count of quarantined points
        self._failure_reasons: dict[str, int] = {}
        self._registry = MetricsRegistry()

    # ------------------------------------------------------------- transitions
    def start_run(
        self, total: int, run_id: str | None = None,
        jobs: int = 1, resumed: int = 0,
    ) -> None:
        """Begin a run: reset counters, record identity and grid size."""
        with self._lock:
            self.run_id = run_id
            self.state = "running"
            self.total = int(total)
            self.simulated = 0
            self.cached = 0
            self.failed = 0
            self.retries = 0
            self.resumed = int(resumed)
            self.jobs = int(jobs)
            self._started_perf = time.perf_counter()
            self._finished_perf = None
            self._workers = {}
            self._failure_reasons = {}
            self._registry = MetricsRegistry()

    def finish(self) -> None:
        """Mark the run complete (``/status`` reports ``"done"``)."""
        with self._lock:
            self.state = "done"
            self._finished_perf = time.perf_counter()

    # --------------------------------------------------------------- progress
    def mark_cached(self, index: int) -> None:
        """One point replayed from the result cache."""
        with self._lock:
            self.cached += 1

    def mark_ok(
        self,
        index: int,
        worker_id: int | None = None,
        metrics: dict[str, Any] | None = None,
        duration_s: float | None = None,
    ) -> None:
        """One point simulated successfully.

        ``metrics`` is the worker's registry snapshot; folding it here
        keeps ``/metrics`` live instead of end-of-run.  ``duration_s``
        (the winning attempt's wall time) feeds the
        ``sweep.point_duration_s`` latency histogram behind the
        ``latency`` section of ``/status``.
        """
        with self._lock:
            self.simulated += 1
            if metrics:
                self._registry.merge_snapshot(metrics)
            if duration_s is not None:
                observe_latency(
                    self._registry,
                    "sweep.point_duration_s",
                    float(duration_s),
                    POINT_DURATION_BOUNDS,
                    help="per-point simulation wall time",
                )
            if worker_id is not None:
                entry = self._workers.setdefault(
                    worker_id, {"points": 0, "last_point": None,
                                "last_seen_s": 0.0},
                )
                entry["points"] += 1
                entry["last_point"] = index
                entry["last_seen_s"] = time.time()

    def mark_failed(self, index: int, reason: str | None = None) -> None:
        """One point quarantined after exhausting its attempts.

        ``reason`` is the canonical
        :class:`~repro.sweep.resilience.QuarantineReason` value from the
        failure record; ``/status`` reports the per-reason breakdown.
        """
        with self._lock:
            self.failed += 1
            if reason:
                key = str(reason)
                self._failure_reasons[key] = (
                    self._failure_reasons.get(key, 0) + 1
                )

    def mark_retry(self, index: int, attempts: int = 1) -> None:
        """``attempts`` extra attempts were spent on one point."""
        with self._lock:
            self.retries += int(attempts)

    # ------------------------------------------------------------------ views
    def _completed(self) -> int:
        return self.simulated + self.cached + self.failed

    def snapshot(self) -> dict[str, Any]:
        """The ``/status`` JSON document (consistent point-in-time copy)."""
        with self._lock:
            completed = self._completed()
            now = time.perf_counter()
            if self._started_perf is None:
                elapsed = 0.0
            else:
                end = (
                    self._finished_perf
                    if self._finished_perf is not None
                    else now
                )
                elapsed = max(0.0, end - self._started_perf)
            throughput = completed / elapsed if elapsed > 0 else 0.0
            remaining = max(0, self.total - completed - self.resumed)
            eta_s = remaining / throughput if throughput > 0 else None
            attempted = self.simulated + self.cached
            return {
                "schema": STATUS_SCHEMA,
                "run_id": self.run_id,
                "state": self.state,
                "total": self.total,
                "completed": completed + self.resumed,
                "simulated": self.simulated,
                "cached": self.cached,
                "resumed": self.resumed,
                "failed": self.failed,
                "failure_reasons": dict(sorted(self._failure_reasons.items())),
                "retries": self.retries,
                "jobs": self.jobs,
                "progress": (
                    (completed + self.resumed) / self.total
                    if self.total
                    else 0.0
                ),
                "cache_hit_rate": (
                    self.cached / attempted if attempted else 0.0
                ),
                "elapsed_s": elapsed,
                "throughput_pts_per_s": throughput,
                "eta_s": eta_s,
                "workers": {
                    str(worker_id): dict(entry)
                    for worker_id, entry in sorted(self._workers.items())
                },
                "latency": summarize_latencies(self._registry.as_dict()),
            }

    def metrics_snapshot(self) -> dict[str, dict]:
        """The live registry plus progress gauges (``/metrics`` source)."""
        with self._lock:
            merged = MetricsRegistry.from_snapshot(self._registry.as_dict())
        snap = self.snapshot()
        merged.gauge(
            "sweep.progress", help="completed fraction of the grid"
        ).set(snap["progress"])
        merged.gauge(
            "sweep.points_total", help="grid points in this run"
        ).set(snap["total"])
        merged.gauge(
            "sweep.points_completed", help="points finished so far"
        ).set(snap["completed"])
        merged.gauge(
            "sweep.points_failed", help="points quarantined so far"
        ).set(snap["failed"])
        merged.gauge(
            "sweep.cache_hit_rate", help="cache hits / attempted points"
        ).set(snap["cache_hit_rate"])
        merged.gauge(
            "sweep.throughput_pts_per_s", help="completed points per second"
        ).set(snap["throughput_pts_per_s"])
        merged.gauge(
            "sweep.workers_seen", help="distinct worker processes observed"
        ).set(len(snap["workers"]))
        return merged.as_dict()


# ----------------------------------------------------------------- HTTP server
class SweepMonitor(EndpointServer):
    """The embedded monitoring server around one :class:`SweepStatus`.

    Usage (the CLI does exactly this for ``--monitor PORT``)::

        status = SweepStatus()
        with SweepMonitor(status, port=0) as monitor:
            print(monitor.url)
            run_sweep(grid, status=status, telemetry=True)

    The server runs in a daemon thread (``ThreadingHTTPServer``: each
    request gets its own thread, so a slow scraper never blocks the
    sweep).  ``port=0`` binds an ephemeral port; read :attr:`port` /
    :attr:`url` after construction.  :meth:`close` is idempotent.
    """

    error = MonitorError
    role = "monitor"
    server_version = "repro-monitor/1"
    thread_name = "repro-monitor"
    log_name = "repro.obs.monitor"

    def __init__(
        self,
        status: SweepStatus | None = None,
        port: int = 0,
        host: str = "127.0.0.1",
        ring: RingBufferSink | None = None,
    ) -> None:
        self.status = status if status is not None else SweepStatus()
        self._ring = ring
        super().__init__(
            {
                ("GET", "/status"): lambda request: request.send_json(
                    self.status.snapshot()
                ),
                ("GET", "/metrics"): self._get_metrics,
                ("GET", "/logs"): self._get_logs,
            },
            port=port,
            host=host,
        )

    @property
    def ring(self) -> RingBufferSink:
        """The ring buffer ``/logs`` serves (global pipeline's default)."""
        return self._ring if self._ring is not None else global_ring()

    def _get_metrics(self, request: EndpointHandler) -> None:
        text = render_openmetrics(self.status.metrics_snapshot())
        request.send_body(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))

    def _get_logs(self, request: EndpointHandler) -> None:
        query = parse_qs(request.query)
        try:
            n = int(query.get("n", [str(DEFAULT_LOG_TAIL)])[0])
        except ValueError:
            request.send_json(
                {"error": "query parameter n must be an integer"}, code=400
            )
            return
        records = self.ring.tail(n)
        request.send_json(
            {
                "schema": "repro-logs-tail/v1",
                "count": len(records),
                "dropped": self.ring.dropped,
                "records": [record.as_dict() for record in records],
            }
        )


# ------------------------------------------------------------------- tail view
def render_status_line(snapshot: dict[str, Any], width: int = 24) -> str:
    """One-line live progress view of a ``/status`` snapshot.

    ``repro tail`` redraws this with a carriage return; it is also
    usable as a plain one-shot summary (``--once``).
    """
    total = snapshot.get("total", 0) or 0
    completed = snapshot.get("completed", 0) or 0
    progress = snapshot.get("progress", 0.0) or 0.0
    filled = int(round(width * min(1.0, max(0.0, progress))))
    bar = "#" * filled + "-" * (width - filled)
    run_id = snapshot.get("run_id") or "-"
    state = snapshot.get("state", "?")
    parts = [
        f"run {run_id}",
        f"[{bar}] {completed}/{total} ({100 * progress:.0f}%)",
        f"{len(snapshot.get('workers', {}))} worker(s)",
    ]
    cached = snapshot.get("cached", 0)
    if cached:
        parts.append(f"{cached} cached")
    failed = snapshot.get("failed", 0)
    if failed:
        parts.append(f"{failed} FAILED")
    retries = snapshot.get("retries", 0)
    if retries:
        parts.append(f"{retries} retries")
    throughput = snapshot.get("throughput_pts_per_s") or 0.0
    if throughput > 0:
        parts.append(f"{throughput:.2f} pt/s")
    latency = snapshot.get("latency") or {}
    summary = (
        latency.get("sweep.point_duration_s")
        or latency.get("serve.request_s")
    )
    if summary and summary.get("count"):
        p50 = summary.get("p50_s")
        p99 = summary.get("p99_s")
        if p50 is not None and p99 is not None:
            parts.append(f"p50 {p50:.3g}s p99 {p99:.3g}s")
    eta = snapshot.get("eta_s")
    if state == "done":
        parts.append("done")
    elif eta is not None:
        parts.append(f"ETA {eta:.0f}s")
    return " | ".join(parts)
