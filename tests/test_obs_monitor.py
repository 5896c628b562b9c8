"""Live monitoring: SweepStatus accounting and the embedded HTTP server."""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.cli
import repro.sweep
from repro.cli import main
from repro.obs import (
    STATUS_SCHEMA,
    SweepMonitor,
    SweepStatus,
    parse_openmetrics,
    render_status_line,
    validate_flight_bundle,
)
from repro.obs.logging import (
    LogRecord,
    RingBufferSink,
    configure_logging,
    get_logger,
    reset_logging,
    validate_log_line,
)
from repro.obs.endpoint import OPENMETRICS_CONTENT_TYPE
from repro.sweep import SweepGrid, run_sweep


@pytest.fixture(autouse=True)
def _clean_logging():
    reset_logging()
    yield
    reset_logging()


def get(url, timeout=5.0):
    """GET a URL, returning (status_code, content_type, body_bytes)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.headers["Content-Type"], (
                response.read()
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers["Content-Type"], exc.read()


def get_json(url, timeout=5.0):
    code, _, body = get(url, timeout=timeout)
    return code, json.loads(body)


class TestSweepStatus:
    def test_lifecycle_counts_and_progress(self):
        status = SweepStatus()
        assert status.snapshot()["state"] == "idle"
        status.start_run(10, run_id="abc123", jobs=2)
        status.mark_cached(0)
        status.mark_cached(4)
        status.mark_cached(5)
        status.mark_ok(1, worker_id=41, metrics=None)
        status.mark_ok(2, worker_id=42, metrics=None)
        status.mark_retry(3, attempts=2)
        status.mark_failed(3)
        snap = status.snapshot()
        assert snap["schema"] == STATUS_SCHEMA
        assert snap["run_id"] == "abc123"
        assert snap["state"] == "running"
        assert snap["total"] == 10
        assert snap["simulated"] == 2
        assert snap["cached"] == 3
        assert snap["failed"] == 1
        assert snap["retries"] == 2
        assert "resumed" not in snap
        assert snap["completed"] == 6  # 2 sim + 3 cached + 1 failed
        assert snap["progress"] == pytest.approx(0.6)
        assert snap["cache_hit_rate"] == pytest.approx(3 / 5)
        assert snap["jobs"] == 2
        assert set(snap["workers"]) == {"41", "42"}
        assert snap["workers"]["41"]["points"] == 1
        assert snap["workers"]["42"]["last_point"] == 2

    def test_eta_appears_with_throughput_and_clears_on_finish(self):
        status = SweepStatus()
        status.start_run(4)
        assert status.snapshot()["eta_s"] is None  # nothing completed yet
        status.mark_ok(0)
        snap = status.snapshot()
        assert snap["throughput_pts_per_s"] > 0
        assert snap["eta_s"] is not None and snap["eta_s"] >= 0
        status.finish()
        done = status.snapshot()
        assert done["state"] == "done"
        # Elapsed freezes once finished.
        assert done["elapsed_s"] == status.snapshot()["elapsed_s"]

    def test_mark_ok_duration_feeds_latency_summary(self):
        status = SweepStatus()
        status.start_run(4, run_id="r")
        status.mark_ok(0, duration_s=0.2)
        status.mark_ok(1, duration_s=0.3)
        status.mark_ok(2)  # no duration: must not observe
        snap = status.snapshot()
        assert snap["schema"] == STATUS_SCHEMA
        summary = snap["latency"]["sweep.point_duration_s"]
        assert summary["count"] == 2
        assert summary["p50_s"] > 0
        assert summary["p99_s"] >= summary["p50_s"]
        # The histogram also reaches /metrics.
        metrics = status.metrics_snapshot()
        assert metrics["sweep.point_duration_s"]["type"] == "histogram"

    def test_latency_section_empty_without_durations(self):
        status = SweepStatus()
        status.start_run(2)
        status.mark_ok(0)
        assert status.snapshot()["latency"] == {}

    def test_metrics_snapshot_carries_progress_gauges(self):
        status = SweepStatus()
        status.start_run(2, run_id="r")
        status.mark_ok(
            0,
            worker_id=7,
            metrics={
                "sim.requests": {"type": "counter", "value": 5.0, "help": ""}
            },
        )
        snap = status.metrics_snapshot()
        assert snap["sim.requests"]["value"] == 5.0
        assert snap["sweep.points_total"]["value"] == 2.0
        assert snap["sweep.points_completed"]["value"] == 1.0
        assert snap["sweep.progress"]["value"] == pytest.approx(0.5)
        assert snap["sweep.workers_seen"]["value"] == 1.0

    def test_start_run_resets_previous_run(self):
        status = SweepStatus()
        status.start_run(5, run_id="one")
        status.mark_failed(0)
        status.mark_ok(1, worker_id=9)
        status.start_run(3, run_id="two")
        snap = status.snapshot()
        assert snap["run_id"] == "two"
        assert snap["completed"] == 0
        assert snap["failed"] == 0
        assert snap["workers"] == {}

    def test_failure_reasons_tally_in_snapshot(self):
        status = SweepStatus()
        status.start_run(6, run_id="reasons")
        status.mark_failed(0, reason="timeout")
        status.mark_failed(1, reason="timeout")
        status.mark_failed(2, reason="exception")
        status.mark_failed(3)  # legacy callers: no reason, no tally
        snap = status.snapshot()
        assert snap["failed"] == 4
        assert snap["failure_reasons"] == {"exception": 1, "timeout": 2}
        # A new run clears the breakdown with the other counters.
        status.start_run(2, run_id="fresh")
        assert status.snapshot()["failure_reasons"] == {}

    def test_every_scrape_is_one_instant(self):
        """Progress gauges and the registry come from one lock hold: a
        ``mark_ok`` never lands between them, so the completed count
        always equals cached + failed + timed points."""
        status = SweepStatus()
        status.start_run(10_000, run_id="instant")
        for index in range(4):
            status.mark_cached(index)
        status.mark_failed(1, reason="timeout")
        stop = threading.Event()

        def finish_points():
            index = 0
            while not stop.is_set():
                index += 1
                status.mark_ok(index, duration_s=0.1)

        workers = [threading.Thread(target=finish_points) for _ in range(3)]
        interval = sys.getswitchinterval()
        # Switch threads often, so a scrape that reads its gauges and its
        # registry under two lock holds gets interleaved.
        sys.setswitchinterval(1e-5)
        for worker in workers:
            worker.start()
        try:
            for _ in range(300):
                snap = status.metrics_snapshot()
                timed = snap.get("sweep.point_duration_s", {"count": 0})
                assert snap["sweep.points_completed"]["value"] == (
                    4 + 1 + timed["count"]
                )
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert status.snapshot()["simulated"] > 0


@pytest.fixture()
def monitor():
    """A running SweepMonitor on an ephemeral port with seeded status."""
    status = SweepStatus()
    status.start_run(4, run_id="feedface", jobs=2)
    status.mark_ok(0, worker_id=11)
    status.mark_cached(1)
    with SweepMonitor(status, port=0) as running:
        yield running


class TestEndpoints:
    def test_status_serves_the_snapshot(self, monitor):
        code, doc = get_json(monitor.url + "/status")
        assert code == 200
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["run_id"] == "feedface"
        assert doc["state"] == "running"
        assert doc["completed"] == 2
        assert "11" in doc["workers"]

    def test_metrics_serves_valid_openmetrics(self, monitor):
        code, content_type, body = get(monitor.url + "/metrics")
        assert code == 200
        assert content_type == OPENMETRICS_CONTENT_TYPE
        text = body.decode("utf-8")
        parsed = parse_openmetrics(text)
        assert "sweep_progress" in parsed
        samples = parsed["sweep_points_total"]["samples"]
        assert samples["sweep_points_total"] == 4.0

    def test_logs_tail_respects_n_and_reports_drops(self, monitor):
        ring = RingBufferSink(capacity=3)
        monitor._ring = ring
        for i in range(5):
            ring.emit(
                LogRecord(
                    level=20,
                    logger="repro.test",
                    message=f"line {i}",
                    ts_s=1.0,
                    perf_s=float(i),
                )
            )
        code, doc = get_json(monitor.url + "/logs?n=2")
        assert code == 200
        assert doc["schema"] == "repro-logs-tail/v1"
        assert doc["count"] == 2
        assert doc["dropped"] == 2
        messages = [record["message"] for record in doc["records"]]
        assert messages == ["line 3", "line 4"]
        for record in doc["records"]:
            validate_log_line(json.dumps(record))

    def test_logs_defaults_to_global_ring(self, monitor):
        configure_logging(level="info")
        get_logger("repro.test", run_id="feedface").info("hello monitor")
        code, doc = get_json(monitor.url + "/logs")
        assert code == 200
        messages = [record["message"] for record in doc["records"]]
        assert "hello monitor" in messages

    def test_logs_rejects_non_integer_n(self, monitor):
        code, doc = get_json(monitor.url + "/logs?n=lots")
        assert code == 400
        assert "integer" in doc["error"]

    def test_unknown_path_404_lists_endpoints(self, monitor):
        code, doc = get_json(monitor.url + "/nope")
        assert code == 404
        assert doc["endpoints"] == [
            "/status", "/metrics", "/logs", "/debug/bundle",
        ]


GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"))
SAMPLE = 2_048


class TestLiveSweep:
    def test_endpoints_serve_during_and_after_a_run(self):
        status = SweepStatus()
        with SweepMonitor(status, port=0) as monitor:
            result = run_sweep(
                GRID, max_requests=SAMPLE, jobs=1,
                telemetry=True, status=status,
            )
            code, doc = get_json(monitor.url + "/status")
            assert code == 200
            assert doc["state"] == "done"
            assert doc["completed"] == doc["total"] == 2
            assert doc["run_id"] == result.telemetry.run_id
            assert doc["workers"], "per-worker state missing"
            _, _, body = get(monitor.url + "/metrics")
            parsed = parse_openmetrics(body.decode("utf-8"))
            samples = parsed["sweep_points_completed"]["samples"]
            assert samples["sweep_points_completed"] == 2.0

    def test_document_byte_identical_with_monitor_on(self):
        plain = run_sweep(GRID, max_requests=SAMPLE, jobs=1)
        status = SweepStatus()
        with SweepMonitor(status, port=0):
            monitored = run_sweep(
                GRID, max_requests=SAMPLE, jobs=1,
                telemetry=True, status=status,
            )
        assert monitored.to_json() == plain.to_json()


class TestStatusLine:
    def test_render_running_snapshot(self):
        line = render_status_line(
            {
                "run_id": "feedface",
                "state": "running",
                "total": 10,
                "completed": 5,
                "progress": 0.5,
                "workers": {"1": {}, "2": {}},
                "cached": 2,
                "failed": 1,
                "retries": 3,
                "throughput_pts_per_s": 2.0,
                "eta_s": 2.5,
            },
            width=10,
        )
        assert "run feedface" in line
        assert "[#####-----] 5/10 (50%)" in line
        assert "2 worker(s)" in line
        assert "2 cached" in line
        assert "1 FAILED" in line
        assert "3 retries" in line
        assert "2.00 pt/s" in line
        assert "ETA 2s" in line

    def test_render_appends_latency_quantiles_when_present(self):
        line = render_status_line(
            {
                "run_id": "feedface",
                "state": "running",
                "total": 4,
                "completed": 2,
                "progress": 0.5,
                "workers": {},
                "latency": {
                    "sweep.point_duration_s": {
                        "count": 2, "p50_s": 0.25, "p95_s": 0.5, "p99_s": 0.5,
                    }
                },
            }
        )
        assert "p50 0.25s p99 0.5s" in line

    def test_render_ignores_empty_latency_section(self):
        line = render_status_line(
            {
                "run_id": "feedface",
                "state": "running",
                "total": 4,
                "completed": 2,
                "progress": 0.5,
                "workers": {},
                "latency": {},
            }
        )
        assert "p50" not in line

    def test_render_done_snapshot_omits_eta(self):
        line = render_status_line(
            {
                "run_id": None,
                "state": "done",
                "total": 2,
                "completed": 2,
                "progress": 1.0,
                "workers": {},
                "eta_s": 0.0,
            }
        )
        assert line.startswith("run -")
        assert line.endswith("done")
        assert "ETA" not in line


class TestCliCompose:
    def test_tail_once_renders_the_status_line(self, monitor, capsys):
        code = main(["tail", "--url", monitor.url, "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run feedface" in out
        assert "2/4" in out

    def test_tail_unreachable_url_is_a_repro_error(self, capsys):
        code = main(
            ["tail", "--url", "http://127.0.0.1:9", "--once",
             "--timeout", "0.5"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bundle_fetches_a_monitor_flight_bundle(
        self, monitor, tmp_path, capsys
    ):
        out = tmp_path / "sweep-bundle.json"
        assert main(["bundle", "--url", monitor.url, "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        bundle = validate_flight_bundle(json.loads(out.read_text("utf-8")))
        assert bundle["trigger"] == "on-demand"
        sections = bundle["sections"]
        assert set(sections) == {"logs", "metrics", "status"}
        assert sections["status"]["schema"] == STATUS_SCHEMA
        assert sections["status"]["run_id"] == "feedface"
        assert sections["metrics"]["sweep.points_completed"]["value"] == 2.0
        assert sections["logs"]["schema"] == "repro-logs-tail/v1"

    def test_profile_monitor_telemetry_compose(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(repro.cli, "MONITOR_LINGER_S", 0.0)
        argv = [
            "--profile", "50",
            "--log-level", "debug",
            "--log-out", str(tmp_path / "run.jsonl"),
            "sweep",
            "--sizes", "128",
            "--layouts", "row-major",
            "--max-requests", str(SAMPLE),
            "--no-cache",
            "--monitor", "0",
            "--telemetry",
            "--trace-out", str(tmp_path / "sweep-trace.json"),
            "--openmetrics-out", str(tmp_path / "sweep-metrics.prom"),
            "--out", str(tmp_path / "result.json"),
        ]
        assert main(list(argv)) == 0
        first = capsys.readouterr()
        assert "monitoring at http://127.0.0.1:" in first.out
        assert "samples" in first.err  # profiler table reported on stderr
        # Same process, same flags again: atexit hooks and global state
        # must not stack (the --profile + --monitor compose fix).
        assert main(list(argv)) == 0
        lines = (tmp_path / "run.jsonl").read_text("utf-8").splitlines()
        records = [validate_log_line(line) for line in lines]
        assert any(r.message == "sweep finished" for r in records)
        assert json.loads((tmp_path / "result.json").read_text("utf-8"))


class TestSweepMonitorLinger:
    def test_status_after_the_sweep_returned_reports_done(
        self, monkeypatch, capsys
    ):
        """A scrape that lands after ``run_sweep`` returned still gets an
        answer: the monitor keeps serving the finished run's status."""
        monkeypatch.setattr(repro.cli, "MONITOR_LINGER_S", 1.0)
        monitors = []
        returned = threading.Event()
        real_run, real_start = repro.sweep.run_sweep, SweepMonitor.start

        def run_then_mark(*args, **kwargs):
            result = real_run(*args, **kwargs)
            returned.set()
            return result

        def start_and_keep(self):
            monitors.append(self)
            return real_start(self)

        monkeypatch.setattr(repro.sweep, "run_sweep", run_then_mark)
        monkeypatch.setattr(SweepMonitor, "start", start_and_keep)
        argv = [
            "sweep", "--sizes", "128", "--layouts", "row-major", "ddl",
            "--max-requests", "2048", "--no-cache", "--monitor", "0", "--json",
        ]
        thread = threading.Thread(target=main, args=(argv,))
        thread.start()
        try:
            assert returned.wait(timeout=60.0)
            code, _, body = get(monitors[0].url + "/status")
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        status = json.loads(body)
        assert code == 200
        assert status["state"] == "done"
        assert status["completed"] == status["total"] == 2
        assert "stays up 1 s" in capsys.readouterr().err
