"""Live sweep monitoring: ``repro sweep --monitor`` and ``repro tail``.

* :class:`SweepStatus` -- the sweep's :class:`~repro.obs.live.LiveStatus`:
  the runner updates it as points complete (progress, per-worker state,
  retries, quarantines, cache hits) and folds each point's metrics into
  its live registry, so ``/metrics`` serves real mid-run numbers.
* :class:`SweepMonitor` -- an
  :class:`~repro.obs.endpoint.EndpointServer` thread in the sweep parent
  (``--monitor PORT``; port 0 binds an ephemeral port) serving the
  shared ``/status`` (:data:`STATUS_SCHEMA`), ``/metrics``, ``/logs``
  and ``/debug/bundle`` routes.

``python -m repro tail --url http://...`` polls ``/status`` and renders
the single-line live view (:func:`render_status_line`).

Monitoring is run *metadata*: the deterministic sweep document is
byte-identical with the monitor on or off (enforced by tests).
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Any

from repro.errors import ReproError
from repro.obs.endpoint import EndpointServer
from repro.obs.flight import FlightRecorder
from repro.obs.histogram import (
    POINT_DURATION_BOUNDS,
    observe_latency,
    summarize_latencies,
)
from repro.obs.live import LiveStatus, Scraped
from repro.obs.logging import RingBufferSink
from repro.obs.metrics import MetricsRegistry

#: Schema tag stamped into every ``/status`` document (v2 added the
#: ``latency`` summary section; v3 dropped the checkpoint replay count,
#: so a point a rerun replays counts as ``cached``).
STATUS_SCHEMA = "repro-status/v3"

#: Exact key set of a ``repro-status/v3`` document.  SCHEMA001 holds
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

#: The progress gauges ``/metrics`` derives from the ``/status`` document.
PROGRESS_GAUGES: tuple[Scraped, ...] = (
    ("sweep.progress", "gauge", "completed fraction of the grid",
     itemgetter("progress")),
    ("sweep.points_total", "gauge", "grid points in this run",
     itemgetter("total")),
    ("sweep.points_completed", "gauge", "points finished so far",
     itemgetter("completed")),
    ("sweep.points_failed", "gauge", "points quarantined so far",
     itemgetter("failed")),
    ("sweep.cache_hit_rate", "gauge", "cache hits / attempted points",
     itemgetter("cache_hit_rate")),
    ("sweep.throughput_pts_per_s", "gauge", "completed points per second",
     itemgetter("throughput_pts_per_s")),
    ("sweep.workers_seen", "gauge", "distinct worker processes observed",
     lambda doc: len(doc["workers"])),
)


class MonitorError(ReproError):
    """Invalid monitor configuration or use."""


# ---------------------------------------------------------------- sweep status
class SweepStatus(LiveStatus):
    """Thread-safe live accounting of one sweep run.

    The runner calls the ``mark_*`` methods from its outcome loop; the
    monitor's HTTP threads call :meth:`snapshot` and
    :meth:`metrics_snapshot` concurrently.  All host-time reads live
    here (``repro.obs`` is the DET001-exempt zone) -- status is run
    metadata and never part of a deterministic result document.
    """

    def __init__(self) -> None:
        super().__init__(self._status_document, scraped=PROGRESS_GAUGES)
        self.run_id: str | None = None
        self.state = "idle"
        self.total = self.simulated = self.cached = self.failed = 0
        self.retries = self.jobs = 0
        self._started_perf: float | None = None
        self._finished_perf: float | None = None
        #: worker_id -> {"points": n, "last_point": i, "last_seen_s": t}
        self._workers: dict[int, dict[str, Any]] = {}

    # ------------------------------------------------------------- transitions
    def start_run(
        self, total: int, run_id: str | None = None, jobs: int = 1
    ) -> None:
        """Begin a run: reset counters, record identity and grid size."""
        with self.lock:
            self.run_id = run_id
            self.state = "running"
            self.total = int(total)
            self.simulated = self.cached = self.failed = self.retries = 0
            self.jobs = int(jobs)
            self._started_perf = time.perf_counter()
            self._finished_perf = None
            self._workers = {}
            self.failure_reasons.clear()
            self.registry = MetricsRegistry()

    def finish(self) -> None:
        """Mark the run complete (``/status`` reports ``"done"``)."""
        with self.lock:
            self.state = "done"
            self._finished_perf = time.perf_counter()

    # --------------------------------------------------------------- progress
    def mark_cached(self, index: int) -> None:
        """One point replayed from the result cache."""
        with self.lock:
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
        with self.lock:
            self.simulated += 1
            if metrics:
                self.registry.merge_snapshot(metrics)
            if duration_s is not None:
                observe_latency(
                    self.registry,
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
        with self.lock:
            self.failed += 1
            if reason:
                self.failure_reasons[str(reason)] += 1

    def mark_retry(self, index: int, attempts: int = 1) -> None:
        """``attempts`` extra attempts were spent on one point."""
        with self.lock:
            self.retries += int(attempts)

    # ------------------------------------------------------------------ views
    def _status_document(
        self, metrics: dict[str, dict], failure_reasons: dict[str, int]
    ) -> dict[str, Any]:
        """The ``/status`` JSON document (called with the lock held)."""
        completed = self.simulated + self.cached + self.failed
        start, end = self._started_perf, self._finished_perf
        if end is None:
            end = time.perf_counter()
        elapsed = 0.0 if start is None else max(0.0, end - start)
        throughput = completed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - completed)
        attempted = self.simulated + self.cached
        return {
            "schema": STATUS_SCHEMA,
            "run_id": self.run_id,
            "state": self.state,
            "total": self.total,
            "completed": completed,
            "simulated": self.simulated,
            "cached": self.cached,
            "failed": self.failed,
            "failure_reasons": failure_reasons,
            "retries": self.retries,
            "jobs": self.jobs,
            "progress": completed / self.total if self.total else 0.0,
            "cache_hit_rate": self.cached / attempted if attempted else 0.0,
            "elapsed_s": elapsed,
            "throughput_pts_per_s": throughput,
            "eta_s": remaining / throughput if throughput > 0 else None,
            "workers": {
                str(worker_id): dict(entry)
                for worker_id, entry in sorted(self._workers.items())
            },
            "latency": summarize_latencies(metrics),
        }


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
    ``ring`` (default: the global one) feeds ``/logs`` and the bundle.
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
        self.live = status if status is not None else SweepStatus()
        self._ring = ring
        self.recorder = FlightRecorder()
        self.live.attach(self.recorder, ring)
        super().__init__({}, port=port, host=host)


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
