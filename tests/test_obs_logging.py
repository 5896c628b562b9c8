"""Structured logging: records, sinks, pipelines, worker propagation."""

import json
from pathlib import Path

import pytest

from repro.obs import logging as rlog
from repro.obs.logging import (
    CONTEXT_KEYS,
    DEBUG,
    ERROR,
    INFO,
    LOG_SCHEMA,
    WARNING,
    JsonlSink,
    ListSink,
    LoggingError,
    LogPipeline,
    LogRecord,
    RingBufferSink,
    StructuredLogger,
    configure_logging,
    get_logger,
    global_pipeline,
    global_ring,
    level_number,
    reset_logging,
    shutdown_logging,
    validate_log_line,
)
from repro.sweep import SweepGrid, run_sweep


@pytest.fixture(autouse=True)
def _clean_logging():
    """Every test starts and ends with the default unconfigured pipeline."""
    reset_logging()
    yield
    reset_logging()


def make_record(level=INFO, **kwargs):
    defaults = dict(
        level=level,
        logger="repro.test",
        message="hello",
        ts_s=1000.0,
        perf_s=50.0,
    )
    defaults.update(kwargs)
    return LogRecord(**defaults)


class TestLevels:
    def test_names_and_numbers_round_trip(self):
        assert level_number("debug") == DEBUG
        assert level_number("ERROR") == ERROR
        assert level_number(WARNING) == WARNING

    def test_unknown_level_rejected(self):
        with pytest.raises(LoggingError, match="unknown log level"):
            level_number("verbose")
        with pytest.raises(LoggingError, match="unknown log level"):
            level_number(15)


class TestLogRecord:
    def test_round_trips_through_json(self):
        record = make_record(
            context={"run_id": "r1", "point_id": 3},
            fields={"note": "x"},
        )
        wire = json.loads(json.dumps(record.as_dict()))
        assert wire["schema"] == LOG_SCHEMA
        rebuilt = LogRecord.from_dict(wire)
        assert rebuilt == record
        assert rebuilt.as_dict() == wire

    def test_unregistered_level_rejected(self):
        with pytest.raises(LoggingError, match="unregistered log level"):
            make_record(level=15)

    def test_unregistered_context_key_rejected(self):
        with pytest.raises(LoggingError, match="unregistered context key"):
            make_record(context={"hostname": "x"})

    def test_foreign_schema_rejected(self):
        wire = make_record().as_dict()
        wire["schema"] = "something-else/v9"
        with pytest.raises(LoggingError, match="schema"):
            LogRecord.from_dict(wire)

    def test_shifted_moves_only_perf_clock(self):
        record = make_record()
        shifted = record.shifted(2.5)
        assert shifted.perf_s == record.perf_s + 2.5
        assert shifted.ts_s == record.ts_s

    def test_validate_log_line(self):
        line = json.dumps(make_record().as_dict())
        assert validate_log_line(line).message == "hello"
        with pytest.raises(LoggingError, match="not JSON"):
            validate_log_line("{nope")
        with pytest.raises(LoggingError, match="not a log record"):
            validate_log_line('{"schema": "other"}')

    def test_context_keys_are_the_registered_schema(self):
        assert CONTEXT_KEYS == (
            "run_id", "point_id", "worker_id", "attempt", "request_id",
            "trace_id",
        )


class TestRingBufferSink:
    def test_overflow_drops_oldest_and_counts(self):
        ring = RingBufferSink(capacity=3)
        for i in range(5):
            ring.emit(make_record(fields={"i": i}))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [r.fields["i"] for r in ring.tail()] == [2, 3, 4]

    def test_tail_returns_newest_oldest_first(self):
        ring = RingBufferSink(capacity=10)
        for i in range(4):
            ring.emit(make_record(fields={"i": i}))
        assert [r.fields["i"] for r in ring.tail(2)] == [2, 3]
        assert len(ring.tail(99)) == 4

    def test_clear_resets_everything(self):
        ring = RingBufferSink(capacity=1)
        ring.emit(make_record())
        ring.emit(make_record())
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(LoggingError, match="capacity"):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_lazy_open_and_parseable_lines(self, tmp_path):
        path = tmp_path / "logs" / "run.jsonl"
        sink = JsonlSink(path)
        assert not path.exists()  # quiet run leaves no file behind
        sink.emit(make_record(fields={"i": 1}))
        sink.emit(make_record(fields={"i": 2}))
        sink.close()
        sink.close()  # idempotent
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [validate_log_line(l).fields["i"] for l in lines] == [1, 2]

    def test_reopens_after_close(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.emit(make_record())
        sink.close()
        sink.emit(make_record())
        sink.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2


class TestPipelineAndLogger:
    def test_level_threshold_filters_before_sinks(self):
        pipeline = LogPipeline(level="warning")
        captured = pipeline.add_sink(ListSink())
        logger = StructuredLogger("repro.test", pipeline=pipeline)
        logger.debug("quiet")
        logger.info("quiet")
        logger.warning("loud")
        logger.error("loud")
        assert [r.level_name for r in captured.records] == ["warning", "error"]

    def test_bind_merges_context_into_children(self):
        pipeline = LogPipeline(level="debug")
        captured = pipeline.add_sink(ListSink())
        base = StructuredLogger("repro.test", pipeline=pipeline)
        child = base.bind(run_id="r1").bind(point_id=7)
        grandchild = child.bind(point_id=8, attempt=2)
        child.info("one")
        grandchild.info("two")
        assert captured.records[0].context == {"run_id": "r1", "point_id": 7}
        assert captured.records[1].context == {
            "run_id": "r1", "point_id": 8, "attempt": 2,
        }
        # Binding never mutates the parent.
        base.info("three")
        assert captured.records[2].context == {}

    def test_unregistered_bound_context_rejected(self):
        with pytest.raises(LoggingError, match="unregistered context key"):
            StructuredLogger("repro.test", {"host": "x"})

    def test_fields_coerced_json_safe(self):
        pipeline = LogPipeline(level="debug")
        captured = pipeline.add_sink(ListSink())
        StructuredLogger("t", pipeline=pipeline).info(
            "m", path=Path("/tmp/x"), n=3
        )
        assert captured.records[0].fields == {"path": "/tmp/x", "n": 3}


class TestGlobalConfiguration:
    def test_default_pipeline_is_quiet_warning(self):
        assert global_pipeline().level == WARNING
        get_logger("repro.test").info("invisible")
        assert len(global_ring()) == 0
        get_logger("repro.test").warning("visible")
        assert len(global_ring()) == 1

    def test_configure_swaps_pipeline_for_existing_loggers(self):
        logger = get_logger("repro.test")
        configure_logging(level="debug")
        logger.debug("now visible")
        assert [r.message for r in global_ring().tail()] == ["now visible"]

    def test_configure_attaches_jsonl_sink(self, tmp_path):
        path = tmp_path / "cli.jsonl"
        configure_logging(level="info", log_path=path)
        get_logger("repro.test", run_id="abc").info("ran")
        shutdown_logging()
        record = validate_log_line(
            path.read_text(encoding="utf-8").splitlines()[0]
        )
        assert record.context == {"run_id": "abc"}

    def test_shutdown_is_idempotent_and_atexit_registers_once(self):
        configure_logging(level="info")
        configure_logging(level="debug")
        shutdown_logging()
        shutdown_logging()
        # The registration guard stays set after repeated configuration
        # -- the compose fix (--profile + --monitor) depends on this.
        assert rlog._ATEXIT_REGISTERED
        # The pipeline survives shutdown: records still flow.
        get_logger("repro.test").warning("after shutdown")
        assert [r.message for r in global_ring().tail()] == ["after shutdown"]


GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"))
SAMPLE = 2_048


class TestSweepIntegration:
    def test_worker_logs_ship_home_with_context(self):
        configure_logging(level="debug")
        result = run_sweep(GRID, max_requests=SAMPLE, jobs=2, telemetry=True)
        assert result.telemetry is not None
        worker_logs = [
            log for record in result.telemetry.workers
            for log in record["logs"]
        ]
        assert worker_logs, "workers shipped no log records"
        for log in worker_logs:
            assert log.context["run_id"] == result.telemetry.run_id
            assert log.context["attempt"] >= 1
            assert set(log.context) == {
                "run_id", "point_id", "worker_id", "attempt", "trace_id",
            }
        # Merge forwarded the aligned records into the global pipeline.
        ring_messages = [r.message for r in global_ring().tail()]
        assert "point simulated" in ring_messages

    def test_worker_logs_clock_aligned_like_spans(self):
        configure_logging(level="debug")
        result = run_sweep(GRID, max_requests=SAMPLE, jobs=1, telemetry=True)
        for record in result.telemetry.workers:
            span_starts = [s.start_s for s in record["spans"]]
            for log in record["logs"]:
                # Aligned log timestamps land inside the aligned span
                # window (same offset applied to both).
                assert min(span_starts) - 1.0 <= log.perf_s

    def test_documents_byte_identical_logging_on_vs_off(self):
        plain = run_sweep(GRID, max_requests=SAMPLE, jobs=1)
        configure_logging(level="debug")
        logged = run_sweep(GRID, max_requests=SAMPLE, jobs=1, telemetry=True)
        assert logged.to_json() == plain.to_json()
