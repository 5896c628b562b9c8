"""The OpenMetrics families both live endpoints expose, pinned.

A fixed request script against ``repro serve`` and a fixed monitored
sweep must expose exactly these families -- name, type and help text --
on ``/metrics``.  Scrapers and dashboards key off them, so a rename, a
type change or a lost zero-valued family fails here; a new family is a
deliberate edit of this list.
"""

import json
import urllib.error
import urllib.request

from repro.obs import SweepMonitor, SweepStatus, parse_openmetrics
from repro.obs.tracectx import RequestTracer
from repro.serve import PlanServer, PlanService
from repro.sweep import RetryPolicy, SweepGrid, run_sweep

SERVE_FAMILIES = [
    ("serve_accepted", "counter", "requests admitted"),
    ("serve_attempt_s", "histogram", "one killable worker attempt (seconds)"),
    ("serve_breaker_state", "gauge", "0 closed, 1 half-open, 2 open"),
    ("serve_breaker_trips", "counter", "times the breaker opened"),
    ("serve_cache_hits", "counter", "points answered from cache"),
    ("serve_cancelled", "counter", "admitted requests abandoned"),
    ("serve_coalesced", "counter", "point computations joined in flight"),
    ("serve_completed", "counter", "admitted requests answered"),
    ("serve_compute_failures", "counter", "requests failed by workers"),
    ("serve_computed_points", "counter", "points computed by workers"),
    ("serve_deadline_misses", "counter", "requests past their deadline"),
    ("serve_degraded_answers", "counter", "cache-only degraded 200s"),
    ("serve_degraded_refusals", "counter", "degraded 503 refusals"),
    ("serve_draining", "gauge", "1 while draining, else 0"),
    ("serve_engine_phase_s", "histogram",
     "engine simulation phase inside a worker (seconds)"),
    ("serve_flight_dumps", "counter", "flight-recorder bundles written"),
    ("serve_queue_depth", "gauge", "admitted requests in flight"),
    ("serve_queue_limit", "gauge", "admission bound"),
    ("serve_queue_wait_s", "histogram",
     "admission-to-pool-thread pickup wait (seconds)"),
    ("serve_request_s", "histogram",
     "end-to-end POST /plan latency (seconds)"),
    ("serve_requests", "counter", "requests submitted"),
    ("serve_shed", "counter", "requests shed with 429"),
    ("serve_workers_replaced_cancelled", "counter",
     "pool workers killed when their attempt was cancelled"),
    ("serve_workers_replaced_timeout", "counter",
     "pool workers killed when their attempt timed out"),
    ("serve_workers_replaced_worker_crash", "counter",
     "pool workers that died during an attempt"),
]

MONITOR_FAMILIES = [
    ("sweep_cache_hit_rate", "gauge", "cache hits / attempted points"),
    ("sweep_memory_utilization_pct", "histogram",
     "per-point memory bandwidth as % of peak"),
    ("sweep_point_duration_s", "histogram", "per-point simulation wall time"),
    ("sweep_points", "counter", "points simulated"),
    ("sweep_points_completed", "gauge", "points finished so far"),
    ("sweep_points_failed", "gauge", "points quarantined so far"),
    ("sweep_points_total", "gauge", "grid points in this run"),
    ("sweep_progress", "gauge", "completed fraction of the grid"),
    ("sweep_requests", "counter", "extrapolated requests across points"),
    ("sweep_row_activations", "counter", "row activations across points"),
    ("sweep_row_hits", "counter", "open-row hits across points"),
    ("sweep_throughput_pts_per_s", "gauge", "completed points per second"),
    ("sweep_workers_seen", "gauge", "distinct worker processes observed"),
]


def scrape_families(url):
    """``[(name, type, help)]`` of every family on ``url``/metrics."""
    with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
        text = response.read().decode("utf-8")
    families = parse_openmetrics(text)
    helps = dict(
        line[len("# HELP "):].split(" ", 1)
        for line in text.splitlines()
        if line.startswith("# HELP ")
    )
    return sorted(
        (name, family["type"], helps.get(name, ""))
        for name, family in families.items()
    )


def post(url, body):
    request = urllib.request.Request(
        url + "/plan", data=json.dumps(body).encode("utf-8")
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def test_serve_metrics_families_are_pinned():
    spec = {"n": 256, "layouts": ["ddl"], "max_requests": 2048}
    with PlanService(jobs=1, tracer=RequestTracer()) as service:
        with PlanServer(service) as server:
            codes = [post(server.url, spec) for _ in range(2)]
            codes.append(post(server.url, {"n": -4}))
            families = scrape_families(server.url)
    assert codes == [200, 200, 400]
    assert families == SERVE_FAMILIES


def test_monitor_metrics_families_are_pinned():
    status = SweepStatus()
    with SweepMonitor(status) as monitor:
        run_sweep(
            SweepGrid(sizes=(128,), layouts=("row-major", "ddl")),
            max_requests=2048,
            jobs=1,
            telemetry=True,
            status=status,
            policy=RetryPolicy(retries=1),
        )
        families = scrape_families(monitor.url)
    assert families == MONITOR_FAMILIES
