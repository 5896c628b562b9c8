"""Cross-process run telemetry: contexts, payloads, clock-aligned merge."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.obs import (
    ClockAnchor,
    ListSink,
    RequestTracer,
    RunTelemetry,
    TraceContext,
    WorkerTelemetry,
    configure_logging,
    reset_logging,
)
from repro.obs.telemetry import (
    POINTS_PID,
    RUNNER_PID,
    WORKER_PID_BASE,
    WORKER_TELEMETRY_SCHEMA,
    TelemetryError,
    fold_worker,
    sweep_context,
)
from repro.serialization import system_to_dict
from repro.serve import PlanService
from repro.sweep import RetryPolicy, SweepGrid, run_sweep
from repro.sweep.runner import _execute_task, point_payload


@pytest.fixture
def debug_records():
    """The records the global pipeline receives at debug level."""
    sink = configure_logging(level="debug").add_sink(ListSink())
    yield sink.records
    reset_logging()


def make_run(run_id="run", wall=1000.0, perf=50.0) -> RunTelemetry:
    """A RunTelemetry with a pinned (deterministic) parent anchor."""
    run = RunTelemetry(run_id)
    run.anchor = ClockAnchor(wall_s=wall, perf_s=perf)
    return run


def make_worker(
    run_id="run",
    point_id=0,
    worker_id=4242,
    wall=1000.0,
    perf=7.0,
    span_at=8.0,
    span_len=0.5,
) -> WorkerTelemetry:
    """A WorkerTelemetry with a pinned anchor and one closed span."""
    telemetry = WorkerTelemetry(
        sweep_context(run_id, point_id),
        point_id=point_id,
        worker_id=worker_id,
        anchor=ClockAnchor(wall_s=wall, perf_s=perf),
    )
    with telemetry.timeline.span("point", n=128):
        pass
    span = telemetry.timeline.spans[0]
    span.start_s = span_at
    span.end_s = span_at + span_len
    return telemetry


class TestClockAnchor:
    def test_offset_between_synthetic_clocks(self):
        # Worker's perf clock started 43 s after the parent's: a worker
        # perf timestamp needs +43 s to land in the parent domain.
        parent = ClockAnchor(wall_s=1000.0, perf_s=50.0)
        worker = ClockAnchor(wall_s=1000.0, perf_s=7.0)
        assert worker.offset_to(parent) == pytest.approx(43.0)
        assert parent.offset_to(worker) == pytest.approx(-43.0)
        assert parent.offset_to(parent) == 0.0

    def test_round_trip(self):
        anchor = ClockAnchor(wall_s=123.5, perf_s=9.25)
        assert ClockAnchor.from_dict(anchor.as_dict()) == anchor

    def test_now_reads_both_clocks(self):
        anchor = ClockAnchor.now()
        assert anchor.wall_s > 0 and anchor.perf_s > 0


class TestTraceIdentity:
    """One trace context and one span-id rule for sweep and serve."""

    def test_sweep_contexts_derive_from_run_point_and_attempt(self):
        ctx = sweep_context("abc123", 7, 3)
        assert ctx == sweep_context("abc123", 7, 3)
        assert ctx == (
            TraceContext.root("abc123").child("point", 7).child("attempt", 3)
        )
        assert sweep_context("abc123", 7) == sweep_context("abc123", 7, 1)
        # One trace per run; every (point, attempt) is its own span.
        siblings = [
            sweep_context("abc123", 7, 2),
            sweep_context("abc123", 8, 3),
        ]
        assert {other.trace_id for other in siblings} == {ctx.trace_id}
        assert ctx.span_id not in {other.span_id for other in siblings}
        assert sweep_context("other", 7, 3).trace_id != ctx.trace_id

    def test_sweep_worker_spans_hang_under_their_attempt(self):
        result = run_sweep(
            SweepGrid(sizes=(128,), layouts=("row-major", "ddl")),
            max_requests=2_048,
            jobs=2,
            telemetry=True,
        )
        run_id = result.telemetry.run_id
        spans = [
            event
            for event in result.telemetry.chrome_trace()["traceEvents"]
            if event["ph"] == "X" and event["pid"] >= WORKER_PID_BASE
        ]
        assert {span["name"] for span in spans} == {"point", "simulate"}
        roots = 0
        for span in spans:
            args = span["args"]
            assert args["trace_id"] == TraceContext.root(run_id).trace_id
            same_worker = {
                other["args"]["span_id"]
                for other in spans
                if other["pid"] == span["pid"] and other is not span
            }
            attempt = sweep_context(run_id, args["point"]).span_id
            assert args["parent_id"] in same_worker | {attempt}
            roots += args["parent_id"] == attempt
        assert roots == 2  # one "point" root per grid point

    def test_serve_worker_span_ids_follow_the_attempt_rule(self):
        tracer = RequestTracer()
        with PlanService(jobs=1, tracer=tracer) as service:
            code, envelope, _ = service.handle({"n": 256, "max_requests": 2048})
        assert code == 200
        spans = tracer.spans_for(envelope["trace_id"])
        attempts = [span.context for span in spans if span.name == "attempt"]
        expected = set()
        for attempt in attempts:
            point = attempt.child("wspan", 0)
            expected.add(TraceContext(point.trace_id, point.span_id, attempt.span_id))
            simulate = attempt.child("wspan", 1)
            expected.add(
                TraceContext(simulate.trace_id, simulate.span_id, point.span_id)
            )
        workers = {
            span.context for span in spans if span.name.startswith("worker:")
        }
        assert attempts and workers == expected

    def test_sweep_and_serve_build_the_same_worker_tree(self):
        """One point through both paths: the same spans below the attempt."""

        def tree(spans, attempt_span_id):
            # Each span as (name, parent position, meta keys); a parent
            # is another worker span (by index) or the attempt itself.
            position = {
                span.context.span_id: index for index, span in enumerate(spans)
            }
            position[attempt_span_id] = "attempt"
            return [
                (
                    span.name.removeprefix("worker:"),
                    position[span.context.parent_id],
                    sorted(span.meta),
                )
                for span in spans
            ]

        swept = run_sweep(
            SweepGrid(sizes=(256,), layouts=("ddl",)),
            max_requests=2_048,
            jobs=1,
            policy=RetryPolicy(),
            telemetry=True,
        )
        (record,) = swept.telemetry.workers
        (sweep_attempt,) = [
            span
            for span in swept.telemetry.point_spans[record["point_id"]]
            if span.name == "attempt"
        ]
        assert sweep_attempt.context == sweep_context(
            swept.telemetry.run_id, record["point_id"], record["attempt"]
        )
        sweep_tree = tree(record["spans"], sweep_attempt.context.span_id)

        tracer = RequestTracer()
        with PlanService(jobs=1, tracer=tracer) as service:
            code, envelope, _ = service.handle(
                {"n": 256, "layouts": ["ddl"], "max_requests": 2_048}
            )
        assert code == 200
        spans = tracer.spans_for(envelope["trace_id"])
        (serve_attempt,) = [span for span in spans if span.name == "attempt"]
        workers = [span for span in spans if span.name.startswith("worker:")]
        serve_tree = tree(workers, serve_attempt.context.span_id)

        assert sweep_tree == [
            ("point", "attempt", ["attempt", "config", "layout", "n"]),
            ("simulate", 0, []),
        ]
        assert serve_tree == sweep_tree
        # The attempt itself: one helper names and annotates it for both.
        for attempt in (sweep_attempt, serve_attempt):
            assert attempt.name == "attempt"
            assert attempt.meta == {"attempt": 1, "status": "ok"}
        (serve_point,) = [span for span in spans if span.name == "point"]
        assert serve_attempt.context.parent_id == serve_point.context.span_id
        assert sweep_attempt.context.parent_id == (
            TraceContext.root(swept.telemetry.run_id).child("point", 0).span_id
        )

    def test_sweep_and_serve_deliver_the_same_worker_log(self, debug_records):
        """The worker's "point simulated" record reaches the pipeline from
        both paths, with the same level, message and fields."""

        def simulated():
            (record,) = [
                r for r in debug_records if r.message == "point simulated"
            ]
            debug_records.clear()
            return record

        run_sweep(
            SweepGrid(sizes=(256,), layouts=("ddl",)),
            max_requests=2_048,
            jobs=1,
            telemetry=True,
        )
        swept = simulated()
        with PlanService(jobs=1, tracer=RequestTracer()) as service:
            code, _, _ = service.handle(
                {"n": 256, "layouts": ["ddl"], "max_requests": 2_048}
            )
        assert code == 200
        served = simulated()

        def comparable(record):
            # Run and request ids (and the worker's pid) name this
            # execution, not the point.
            context = {
                key: value
                for key, value in record.context.items()
                if key not in ("run_id", "trace_id", "request_id", "worker_id")
            }
            return (
                record.level, record.logger, record.message, record.fields,
                context,
            )

        assert comparable(served) == comparable(swept)
        assert served.fields["layout"] == "ddl" and served.fields["n"] == 256


class TestWorkerTelemetry:
    def test_point_span_brackets_the_worker(self):
        (point,) = SweepGrid(sizes=(128,), layouts=("ddl",)).points()
        payload = point_payload(point, system_to_dict(SystemConfig()), 2_048)
        context = sweep_context("run", 5)
        outcome = _execute_task(
            {"index": 5, **payload, "tracectx": context.as_dict()}
        )
        worker = WorkerTelemetry.from_dict(outcome["telemetry"])
        first, *inner = worker.timeline.spans
        assert (first.name, first.context.parent_id) == ("point", context.span_id)
        assert first.meta["attempt"] == 1
        assert inner and all(
            first.start_s <= span.start_s and span.end_s <= first.end_s
            for span in inner
        )

    def test_payload_round_trips_through_json(self):
        telemetry = make_worker(point_id=2)
        telemetry.logger(run_id="run").debug("point simulated", n=128)

        wire = json.loads(json.dumps(telemetry.as_dict()))
        assert set(wire) == {
            "schema", "tracectx", "point_id", "attempt", "worker_id",
            "anchor", "spans", "logs",
        }
        rebuilt = WorkerTelemetry.from_dict(wire)

        assert rebuilt.context == telemetry.context
        assert rebuilt.worker_id == telemetry.worker_id
        assert rebuilt.anchor == telemetry.anchor
        assert rebuilt.logs == telemetry.logs
        assert [s.name for s in rebuilt.timeline.spans] == ["point"]
        assert rebuilt.timeline.spans[0].meta == {"n": 128}
        # Serialization is idempotent: the rebuilt payload re-serializes
        # to the exact same wire form.
        assert rebuilt.as_dict() == wire

    def test_foreign_schema_rejected(self):
        payload = make_worker().as_dict()
        payload["schema"] = "something-else/v9"
        with pytest.raises(TelemetryError, match="schema"):
            WorkerTelemetry.from_dict(payload)
        with pytest.raises(TelemetryError):
            WorkerTelemetry.from_dict("not a mapping")

    def test_malformed_member_rejected(self):
        payload = make_worker().as_dict()
        payload["anchor"] = {"wall_s": "NaN-ish", "perf_s": {}}
        with pytest.raises(TelemetryError, match="malformed"):
            WorkerTelemetry.from_dict(payload)

    def test_malformed_span_rejected(self):
        payload = make_worker().as_dict()
        del payload["spans"][0]["name"]
        with pytest.raises(TelemetryError, match="malformed"):
            WorkerTelemetry.from_dict(payload)


class TestRunTelemetryMerge:
    def test_clock_alignment_shifts_worker_spans(self):
        run = make_run()  # parent perf clock at 50.0
        worker = make_worker(span_at=8.0)  # worker perf clock at 7.0
        record = run.merge_worker(worker.as_dict())
        # Same wall instant, perf 7.0 vs 50.0: offset is +43 s, so the
        # span recorded at worker-perf 8.0 lands at parent-perf 51.0.
        assert record["clock_offset_s"] == pytest.approx(43.0)
        assert record["spans"][0].start_s == pytest.approx(51.0)
        assert record["spans"][0].end_s == pytest.approx(51.5)

    def test_run_id_mismatch_rejected(self):
        run = make_run(run_id="expected")
        with pytest.raises(TelemetryError, match="expected"):
            run.merge_worker(make_worker(run_id="other").as_dict())

    def test_duplicate_span_ids_namespaced_per_worker(self):
        run = make_run()
        # Two workers, each with local span index 0 for different points:
        # the derived span ids still differ.
        run.merge_worker(make_worker(worker_id=111, point_id=0).as_dict())
        run.merge_worker(make_worker(worker_id=222, point_id=1).as_dict())
        ids = [
            span.context.span_id
            for record in run.workers
            for span in record["spans"]
        ]
        assert len(ids) == 2
        assert len(set(ids)) == len(ids)

    def test_queue_wait_derived_from_submit_mark(self):
        run = make_run()
        run._submits[0] = 50.2  # dispatched at parent-perf 50.2
        run.merge_worker(make_worker(span_at=8.0).as_dict())  # starts at 51.0
        (wait,) = run.point_spans[0]
        assert wait.name == "queue_wait"
        assert wait.duration_s == pytest.approx(0.8)
        assert wait.start_s == pytest.approx(50.2)
        assert wait.meta == {"worker": 4242}
        assert wait.context == sweep_context("run", 0).child("queue_wait")
        hist = run.registry.as_dict()["telemetry.queue_wait_s"]
        assert hist["count"] == 1

    def test_attempts_and_cache_hits_are_point_spans(self):
        run = make_run()
        point = TraceContext.root("run").child("point", 2)
        run.record_attempts(
            2,
            [
                {
                    "attempt": attempt,
                    "status": status,
                    "start_s": start_s,
                    "duration_s": 0.25,
                    "context": point.child("attempt", attempt),
                }
                for attempt, status, start_s in ((1, "error", 51.0), (2, "ok", 52.0))
            ],
        )
        run.mark_cache_hit(3)
        first, second = run.point_spans[2]
        assert [(s.name, s.meta) for s in (first, second)] == [
            ("attempt", {"attempt": 1, "status": "error"}),
            ("attempt", {"attempt": 2, "status": "ok"}),
        ]
        assert second.context == sweep_context("run", 2, 2)
        assert (second.start_s, second.end_s) == (52.0, 52.25)
        (hit,) = run.point_spans[3]
        assert (hit.name, hit.duration_s) == ("cache_hit", 0.0)
        assert hit.context.parent_id == sweep_context("run", 3).span_id

    def test_fold_sends_logs_of_its_trace_only(self, debug_records):
        worker = make_worker()
        worker.logger().debug("point simulated", n=128)
        with pytest.raises(TelemetryError, match="expected"):
            fold_worker(worker.as_dict(), ClockAnchor(1000.0, 50.0), "other")
        assert debug_records == []
        record = fold_worker(worker.as_dict(), ClockAnchor(1000.0, 50.0))
        (log,) = debug_records
        assert log == record["logs"][0]
        assert log.perf_s == pytest.approx(worker.logs[0].perf_s + 43.0)

    def test_worker_ids_first_seen_order(self):
        run = make_run()
        for worker_id, point in ((222, 0), (111, 1), (222, 2)):
            run.merge_worker(
                make_worker(worker_id=worker_id, point_id=point).as_dict()
            )
        assert run.worker_ids() == [222, 111]
        assert "2 process(es)" in run.summary()


class TestChromeTrace:
    def test_empty_run_is_valid_and_minimal(self):
        run = make_run(run_id="empty")
        doc = run.chrome_trace()
        # Only the runner's process metadata; still a valid trace doc.
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        assert doc["otherData"]["run_id"] == "empty"
        assert json.loads(json.dumps(doc)) == doc

    def test_tracks_and_alignment(self):
        run = make_run()
        with run.timeline.span("execute", tasks=2):
            pass
        run.mark_cache_hit(3)
        run.merge_worker(make_worker(worker_id=111, point_id=0).as_dict())
        run.merge_worker(make_worker(worker_id=222, point_id=1).as_dict())
        doc = run.chrome_trace(metadata={"jobs": 2})

        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {RUNNER_PID, POINTS_PID, WORKER_PID_BASE,
                        WORKER_PID_BASE + 1}
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {
            "sweep runner", "sweep points", "worker pid=111",
            "worker pid=222",
        }
        # Monotonic alignment: all timestamps relative to a t=0 origin.
        stamps = [e["ts"] for e in events if "ts" in e]
        assert stamps and min(stamps) == 0.0
        # Every slice is a span; the cache hit is a zero-length one on
        # the point's thread.
        slices = [e for e in events if e["ph"] != "M"]
        assert {e["cat"] for e in slices} == {"span"}
        (hit,) = [e for e in slices if e["name"] == "cache_hit"]
        assert (hit["pid"], hit["tid"], hit["dur"]) == (POINTS_PID, 3, 0.0)
        assert doc["otherData"]["jobs"] == "2"

    def test_write_chrome_trace_path_and_handle(self, tmp_path):
        run = make_run()
        run.merge_worker(make_worker().as_dict())
        target = tmp_path / "trace.json"
        run.write_chrome_trace(str(target))
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]
        with open(tmp_path / "trace2.json", "w") as handle:
            run.write_chrome_trace(handle)
        assert json.loads((tmp_path / "trace2.json").read_text()) == doc


class TestSchemaConstant:
    def test_payload_carries_schema(self):
        assert make_worker().as_dict()["schema"] == WORKER_TELEMETRY_SCHEMA
