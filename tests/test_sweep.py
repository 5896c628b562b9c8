"""The design-space sweep engine: grids, cache, runner, determinism."""

import json
import multiprocessing
import threading

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.obs.telemetry import sweep_context
from repro.obs.tracectx import TraceContext
from repro.serialization import stable_digest, system_to_dict
from repro.sweep import (
    CACHE_VERSION,
    ConfigVariant,
    QuarantineReason,
    ResultCache,
    RetryPolicy,
    SweepError,
    SweepGrid,
    SweepPoint,
    WorkerChaos,
    backoff_jitter,
    grid_from_dict,
    load_grid_spec,
    reason_for_status,
    run_sweep,
)
from repro.sweep.resilience import attempt_point, failure_record

#: Cheap but non-trivial request budget for engine tests.
SAMPLE = 2_048


@pytest.fixture(scope="module")
def grid24():
    """A 28-point grid spanning every axis (the >= 24-point gate)."""
    return SweepGrid(
        sizes=(128, 256),
        layouts=("row-major", "ddl"),
        heights=(1, 2, 4, 8, 16, 32),
        configs=(
            ConfigVariant("default", {}),
            ConfigVariant(
                "slow-stream",
                {"memory": {"timing": {"t_in_row": 3.2}}},
            ),
        ),
    )


@pytest.fixture(scope="module")
def serial_result(grid24):
    return run_sweep(grid24, max_requests=SAMPLE, jobs=1)


class TestGrid:
    def test_point_expansion_order_and_count(self, grid24):
        points = grid24.points()
        assert len(points) == 28 == grid24.n_points()
        # configs outermost, then sizes, then layouts, then heights.
        assert points[0] == SweepPoint(128, "row-major", None, "default")
        assert points[1] == SweepPoint(128, "ddl", 1, "default")
        assert points[14].config_label == "slow-stream"
        # Expansion is deterministic.
        assert points == grid24.points()

    def test_heights_apply_only_to_ddl(self):
        grid = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"),
                         heights=(2, 4))
        layouts = [(p.layout, p.height) for p in grid.points()]
        assert layouts == [("row-major", None), ("ddl", 2), ("ddl", 4)]

    def test_zero_height_means_eq1(self):
        grid = SweepGrid(sizes=(128,), layouts=("ddl",), heights=(0,))
        assert grid.points()[0].height is None

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(ConfigError):
            SweepGrid(sizes=())
        with pytest.raises(ConfigError):
            SweepGrid(sizes=(-4,))
        with pytest.raises(ConfigError):
            SweepGrid(sizes=(128,), heights=(-2,))
        with pytest.raises(ConfigError):
            SweepGrid(
                sizes=(128,),
                configs=(ConfigVariant("a"), ConfigVariant("a")),
            )

    def test_bad_block_shape_fails_fast(self):
        grid = SweepGrid(sizes=(100,), layouts=("ddl",), heights=(8,))
        with pytest.raises(ConfigError, match="does not tile"):
            run_sweep(grid, max_requests=SAMPLE)
        with pytest.raises(ConfigError, match="row buffer"):
            run_sweep(
                SweepGrid(sizes=(128,), layouts=("ddl",), heights=(24,)),
                max_requests=SAMPLE,
            )


class TestSpecFiles:
    def test_json_spec_round_trip(self, tmp_path, grid24):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid24.as_dict()}))
        assert load_grid_spec(path).points() == grid24.points()

    def test_toml_spec(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            "[grid]\n"
            "sizes = [128, 256]\n"
            'layouts = ["row-major", "ddl"]\n'
            "heights = [0, 4]\n"
            "[[grid.configs]]\n"
            'label = "hot"\n'
            "[grid.configs.overrides.memory.timing]\n"
            "t_in_row = 1.25\n"
        )
        grid = load_grid_spec(path)
        assert grid.sizes == (128, 256)
        assert grid.heights == (None, 4)
        assert grid.configs[0].label == "hot"
        assert grid.configs[0].overrides["memory"]["timing"]["t_in_row"] == 1.25

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            grid_from_dict({"sizes": [128], "sises": [256]})
        with pytest.raises(ConfigError, match="required"):
            grid_from_dict({"layouts": ["ddl"]})


class TestCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        payload = {"point": {"n": 128}, "config": {}, "max_requests": SAMPLE}
        key = cache.key_for(payload)
        assert cache.get(key) is None
        cache.put(key, payload, {"answer": 42.5})
        assert cache.get(key) == {"answer": 42.5}
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "stores": 1, "invalid": 0, "healed": 0,
        }
        assert len(cache) == 1

    def test_key_covers_version_salt_and_inputs(self):
        payload = {"point": {"n": 128}, "config": {}, "max_requests": SAMPLE}
        key = ResultCache.key_for(payload)
        assert key == stable_digest(
            {"version": CACHE_VERSION, "payload": payload}
        )
        other = dict(payload, max_requests=SAMPLE * 2)
        assert ResultCache.key_for(other) != key

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"p": 1})
        cache.put(key, {"p": 1}, {"v": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.invalid == 1

    def test_foreign_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"p": 1})
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text(
            json.dumps({"version": "other/v9", "result": {"v": 1}}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.stats.invalid == 1


class TestDeterminism:
    """The satellite gate: jobs=1, jobs=4 and warm cache are byte-identical."""

    def test_parallel_matches_serial(self, grid24, serial_result):
        parallel = run_sweep(grid24, max_requests=SAMPLE, jobs=4)
        assert parallel.to_json() == serial_result.to_json()

    def test_warm_cache_matches_serial(self, grid24, serial_result, tmp_path):
        cold_cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(grid24, max_requests=SAMPLE, jobs=2, cache=cold_cache)
        assert cold.to_json() == serial_result.to_json()
        assert cold_cache.stats.stores == 28

        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_sweep(grid24, max_requests=SAMPLE, jobs=1, cache=warm_cache)
        assert warm.to_json() == serial_result.to_json()
        assert warm.meta["cached"] == 28
        assert warm.meta["simulated"] == 0
        assert warm_cache.stats.hits == 28

    def test_metrics_merge_is_jobs_independent(self, grid24, serial_result):
        parallel = run_sweep(grid24, max_requests=SAMPLE, jobs=4)
        serial = serial_result.registry.as_dict()
        merged = parallel.registry.as_dict()
        for name in ("sweep.points", "sweep.requests", "sweep.row_hits",
                     "sweep.row_activations"):
            assert merged[name]["value"] == serial[name]["value"]
        hist = merged["sweep.memory_utilization_pct"]
        assert hist["counts"] == serial["sweep.memory_utilization_pct"]["counts"]

    def test_cache_ignores_request_budget_match_only(self, grid24, tmp_path):
        """A different request budget re-keys every point (no stale hits)."""
        cache = ResultCache(tmp_path)
        run_sweep(grid24, max_requests=SAMPLE, jobs=1, cache=cache)
        again = ResultCache(tmp_path)
        run_sweep(grid24, max_requests=2 * SAMPLE, jobs=1, cache=again)
        assert again.stats.hits == 0
        assert again.stats.stores == 28


class TestResults:
    def test_config_axis_changes_results(self, serial_result):
        base = serial_result.one(n=128, layout="ddl", height=8,
                                 config="default")
        slow = serial_result.one(n=128, layout="ddl", height=8,
                                 config="slow-stream")
        # Halving the streaming beat rate must cost the streaming-bound DDL.
        assert slow["memory_bandwidth_gbps"] < base["memory_bandwidth_gbps"]

    def test_eq1_height_resolved(self, serial_result):
        entry = serial_result.one(n=128, layout="ddl", height=1,
                                  config="default")
        assert entry["width"] == 32
        assert entry["discipline"] == "per_vault"

    def test_one_rejects_ambiguity(self, serial_result):
        with pytest.raises(SweepError):
            serial_result.one(layout="ddl")

    def test_markdown_has_a_row_per_point(self, serial_result):
        table = serial_result.render_markdown()
        assert table.count("\n") == 28 + 1  # header + separator + 28 rows

    def test_json_document_shape(self, serial_result):
        doc = serial_result.to_json_dict()
        assert doc["schema"] == "repro-sweep-result/v3"
        assert len(doc["results"]) == 28
        assert doc["grid"]["sizes"] == [128, 256]
        assert doc["failures"] == []
        # The deterministic payload carries no run metadata.
        assert "wall_s" not in json.dumps(doc)


class TestRetryPolicy:
    def test_jitter_is_deterministic_and_bounded(self):
        values = {backoff_jitter(i, a) for i in range(8) for a in range(1, 4)}
        assert len(values) == 24  # distinct per (point, attempt)
        assert all(0.0 <= v < 1.0 for v in values)
        assert backoff_jitter(3, 2) == backoff_jitter(3, 2)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(retries=5, backoff_s=0.1,
                             backoff_multiplier=2.0, max_backoff_s=0.3)
        delays = [policy.backoff_for(0, attempt) for attempt in (1, 2, 3, 4)]
        # Each delay sits in [base/2, base) for base = min(0.1 * 2^(a-1), cap).
        for delay, base in zip(delays, (0.1, 0.2, 0.3, 0.3)):
            assert base / 2 <= delay < base
        assert policy.max_attempts == 6

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ConfigError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=2.0, max_backoff_s=1.0)

    def test_invalid_chaos_rejected(self):
        with pytest.raises(ConfigError):
            WorkerChaos(fail_attempts=0)
        with pytest.raises(ConfigError):
            WorkerChaos(hang_s=0)


class TestQuarantine:
    """Worker failures land in ``failures``; the grid always completes."""

    def test_bad_point_is_quarantined_not_fatal(self):
        # N=100 with Eq. (1) passes fail-fast validation but the layout
        # constructor rejects it in the worker -- the classic mid-sweep
        # surprise the quarantine exists for.
        grid = SweepGrid(sizes=(100, 128), layouts=("ddl",))
        result = run_sweep(grid, max_requests=SAMPLE, jobs=1)
        assert len(result.results) == 1
        assert result.results[0]["n"] == 128
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["index"] == 0
        assert failure["point"]["n"] == 100
        assert failure["error"] == "LayoutError"
        assert failure["attempts"] == 1
        assert failure["timed_out"] is False
        assert result.meta["failed"] == 1

    def test_quarantine_is_jobs_independent(self):
        grid = SweepGrid(sizes=(100, 128, 256), layouts=("ddl",))
        serial = run_sweep(grid, max_requests=SAMPLE, jobs=1)
        parallel = run_sweep(grid, max_requests=SAMPLE, jobs=3)
        assert parallel.to_json() == serial.to_json()
        assert parallel.registry.as_dict()["sweep.failures"]["value"] == 1

    def test_failures_never_poison_the_cache(self, tmp_path):
        grid = SweepGrid(sizes=(100, 128), layouts=("ddl",))
        cache = ResultCache(tmp_path)
        run_sweep(grid, max_requests=SAMPLE, cache=cache)
        assert cache.stats.stores == 1  # only the healthy point
        again = ResultCache(tmp_path)
        rerun = run_sweep(grid, max_requests=SAMPLE, cache=again)
        assert again.stats.hits == 1
        assert len(rerun.failures) == 1  # the bad point fails afresh


class TestQuarantineReasons:
    """The canonical failure vocabulary is pinned: every failure surface
    (attempt statuses, quarantine records, /status, degraded envelopes)
    speaks these exact strings."""

    def test_enum_values_are_frozen(self):
        assert {r.value for r in QuarantineReason} == {
            "timeout", "worker-crash", "exception", "cancelled",
        }
        assert QuarantineReason.TIMEOUT.value == "timeout"
        assert QuarantineReason.WORKER_CRASH.value == "worker-crash"
        assert QuarantineReason.EXCEPTION.value == "exception"
        assert QuarantineReason.CANCELLED.value == "cancelled"
        # str-valued members serialize as themselves.
        assert json.dumps(QuarantineReason.TIMEOUT) == '"timeout"'

    def test_status_mapping_is_total(self):
        assert reason_for_status("timeout") is QuarantineReason.TIMEOUT
        assert reason_for_status("crashed") is QuarantineReason.WORKER_CRASH
        assert reason_for_status("error") is QuarantineReason.EXCEPTION
        assert reason_for_status("cancelled") is QuarantineReason.CANCELLED
        with pytest.raises(ConfigError):
            reason_for_status("mystery")

    def test_failure_record_carries_the_reason(self):
        record = failure_record(
            3, {"n": 128}, "TimeoutError", "attempt timed out", 2,
            timed_out=True, reason=QuarantineReason.TIMEOUT,
        )
        assert record["reason"] == "timeout"
        # Plain strings coerce through the enum (typos raise).
        assert failure_record(
            0, {}, "E", "m", 1, reason="worker-crash"
        )["reason"] == "worker-crash"
        with pytest.raises(ValueError):
            failure_record(0, {}, "E", "m", 1, reason="oops")

    def test_chaos_failures_report_reasons_in_documents(self):
        grid = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"),
                         heights=(2,))
        result = run_sweep(
            grid, max_requests=SAMPLE, jobs=1,
            policy=RetryPolicy(retries=0),
            chaos=WorkerChaos(fail_points=(0,)),
        )
        assert [f["reason"] for f in result.failures] == ["exception"]


class _BackoffEvent:
    """A cancel event that records backoff waits; ``cancel_after`` of them
    report the event set (``None``: never)."""

    def __init__(self, cancel_after=None):
        self.waits = []
        self.cancel_after = cancel_after

    def is_set(self):
        return False

    def wait(self, delay):
        self.waits.append(delay)
        return self.cancel_after is not None and len(self.waits) >= self.cancel_after


class TestAttemptPoint:
    """The one retry loop, driven by a scripted ``run`` (no child processes)."""

    TASK = {"index": 3, "point": {"n": 256, "layout": "row-major"}}

    #: Non-ok status -> (attempt status dict, error, message, reason).
    FAILURES = {
        "timeout": (
            {"status": "timeout", "reason": "timeout", "duration_s": 0.5},
            "TimeoutError",
            "attempt exceeded the 0.5s budget and was killed",
            QuarantineReason.TIMEOUT,
        ),
        "crashed": (
            {"status": "crashed", "exitcode": -9, "reason": "worker-crash",
             "duration_s": 0.25},
            "WorkerCrash",
            "worker died without reporting (exit code -9)",
            QuarantineReason.WORKER_CRASH,
        ),
        "error": (
            {"status": "error", "error": "ValueError", "message": "bad {n}",
             "reason": "exception", "duration_s": 0.125},
            "ValueError",
            "bad {n}",
            QuarantineReason.EXCEPTION,
        ),
    }

    @staticmethod
    def scripted(*statuses):
        """A fake ``run_attempt`` answering ``statuses`` in turn."""
        calls = []

        def run(payload, timeout_s, cancel_event=None):
            calls.append((payload, timeout_s, cancel_event))
            return dict(statuses[min(len(calls), len(statuses)) - 1])

        run.calls = calls
        return run

    @pytest.fixture
    def sleeps(self, monkeypatch):
        delays = []
        monkeypatch.setattr("time.sleep", delays.append)
        return delays

    @pytest.mark.parametrize("status", ["timeout", "crashed", "error"])
    def test_exhausted_policy_builds_the_failure_record(self, status, sleeps):
        attempt, error, message, reason = self.FAILURES[status]
        policy = RetryPolicy(timeout_s=0.5, retries=1)
        run = self.scripted(attempt)
        settled = attempt_point(self.TASK, policy, run)
        assert settled["status"] == "failed"
        assert settled["retries"] == 1
        assert settled["failure"] == failure_record(
            3, self.TASK["point"], error, message, 2,
            timed_out=status == "timeout", reason=reason,
        )
        assert [r["attempt"] for r in settled["attempts"]] == [1, 2]
        for record in settled["attempts"]:
            assert set(record) == {
                "attempt", "status", "start_s", "duration_s", "context",
            }
            assert record["status"] == status
            assert record["duration_s"] == attempt["duration_s"]
            assert record["context"] is None
        assert [call[0]["attempt"] for call in run.calls] == [1, 2]
        assert all(call[1] == 0.5 for call in run.calls)

    def test_recovery_returns_the_outcome(self, sleeps):
        chaos = WorkerChaos(fail_points=(3,), fail_attempts=1)
        run = self.scripted(
            self.FAILURES["error"][0], {"status": "ok", "outcome": {"index": 3}}
        )
        settled = attempt_point(self.TASK, RetryPolicy(retries=2), run, chaos=chaos)
        assert settled["status"] == "ok"
        assert settled["outcome"] == {"index": 3}
        assert settled["retries"] == 1
        assert [r["status"] for r in settled["attempts"]] == ["error", "ok"]
        assert all(call[0]["chaos"] == chaos.as_dict() for call in run.calls)
        assert "tracectx" not in run.calls[0][0]

    def test_cancel_before_the_first_attempt(self):
        event = threading.Event()
        event.set()
        run = self.scripted({"status": "ok", "outcome": {}})
        settled = attempt_point(
            self.TASK, RetryPolicy(retries=2), run, cancel_event=event
        )
        assert settled == {"status": "cancelled", "retries": 0, "attempts": []}
        assert run.calls == []

    def test_cancel_during_an_attempt(self):
        event = threading.Event()
        run = self.scripted({"status": "cancelled", "reason": "cancelled"})
        settled = attempt_point(
            self.TASK, RetryPolicy(retries=3), run, cancel_event=event
        )
        assert settled["status"] == "cancelled"
        assert [r["status"] for r in settled["attempts"]] == ["cancelled"]
        assert run.calls[0][2] is event

    def test_cancel_during_backoff(self):
        policy = RetryPolicy(retries=3, backoff_s=0.2)
        event = _BackoffEvent(cancel_after=1)
        run = self.scripted(self.FAILURES["error"][0])
        settled = attempt_point(self.TASK, policy, run, cancel_event=event)
        assert settled["status"] == "cancelled"
        assert len(run.calls) == 1
        assert event.waits == [policy.backoff_for(3, 1)]

    def test_backoff_delays_follow_the_policy(self, sleeps):
        policy = RetryPolicy(retries=3, backoff_s=0.2, max_backoff_s=0.5)
        expected = [policy.backoff_for(3, k) for k in (1, 2, 3)]
        run = self.scripted(self.FAILURES["crashed"][0])
        attempt_point(self.TASK, policy, run)
        assert sleeps == expected
        event = _BackoffEvent()
        attempt_point(self.TASK, policy, run, cancel_event=event)
        assert event.waits == expected

    def test_attempt_contexts_are_the_sweep_contexts(self, sleeps):
        context = TraceContext.root("run-1").child("point", 3)
        run = self.scripted(self.FAILURES["timeout"][0])
        settled = attempt_point(
            self.TASK, RetryPolicy(timeout_s=0.5, retries=2), run, context=context
        )
        expected = [sweep_context("run-1", 3, k) for k in (1, 2, 3)]
        assert [r["context"] for r in settled["attempts"]] == expected
        assert [call[0]["tracectx"] for call in run.calls] == [
            ctx.as_dict() for ctx in expected
        ]


class TestResilientExecution:
    """Chaos-driven acceptance: crash + hang + healthy in one grid."""

    #: 3-point grid: row-major (idx 0), ddl h=2 (idx 1), ddl h=4 (idx 2).
    GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"),
                     heights=(2, 4))

    def test_crash_hang_and_healthy_points(self):
        policy = RetryPolicy(timeout_s=2.0, retries=1, backoff_s=0.01,
                             max_backoff_s=0.02)
        chaos = WorkerChaos(fail_points=(0,), hang_points=(2,), hang_s=30.0)
        result = run_sweep(self.GRID, max_requests=SAMPLE, jobs=2,
                           policy=policy, chaos=chaos)
        # The healthy point survives; the crasher and the hanger are
        # quarantined with their retry counts; nothing aborted.
        assert [r["height"] for r in result.results] == [2]
        by_index = {f["index"]: f for f in result.failures}
        assert set(by_index) == {0, 2}
        assert by_index[0]["error"] == "SweepExecutionError"
        assert by_index[0]["attempts"] == 2
        assert by_index[0]["timed_out"] is False
        assert by_index[2]["error"] == "TimeoutError"
        assert by_index[2]["attempts"] == 2
        assert by_index[2]["timed_out"] is True
        assert result.meta["failed"] == 2
        assert result.meta["retries"] == 2

    def test_retry_then_recover_matches_clean_run(self):
        clean = run_sweep(self.GRID, max_requests=SAMPLE, jobs=1)
        policy = RetryPolicy(retries=2, backoff_s=0.01, max_backoff_s=0.02)
        chaos = WorkerChaos(fail_points=(1,), fail_attempts=1)
        recovered = run_sweep(self.GRID, max_requests=SAMPLE, jobs=1,
                              policy=policy, chaos=chaos)
        # One retry heals the point and the document is byte-identical
        # to an undisturbed run -- resilience never changes results.
        assert recovered.to_json() == clean.to_json()
        assert recovered.failures == []
        assert recovered.meta["retries"] == 1

    def test_policy_without_chaos_matches_plain_run(self):
        clean = run_sweep(self.GRID, max_requests=SAMPLE, jobs=1)
        guarded = run_sweep(self.GRID, max_requests=SAMPLE, jobs=2,
                            policy=RetryPolicy(timeout_s=60.0, retries=1))
        assert guarded.to_json() == clean.to_json()


class TestCacheResume:
    """A rerun on the same cache is how an interrupted sweep resumes."""

    GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"),
                     heights=(2, 4))

    def test_rerun_after_failure_is_byte_identical(self, tmp_path):
        clean = run_sweep(self.GRID, max_requests=SAMPLE, jobs=1)
        # First run: point 1 fails every attempt; the others are cached
        # as they settle.
        partial = run_sweep(
            self.GRID, max_requests=SAMPLE, jobs=1,
            cache=ResultCache(tmp_path),
            policy=RetryPolicy(retries=0),
            chaos=WorkerChaos(fail_points=(1,)),
        )
        assert [f["index"] for f in partial.failures] == [1]
        # Rerun with the fault gone: only the missing point simulates,
        # and the document matches an uninterrupted run exactly.
        rerun = run_sweep(self.GRID, max_requests=SAMPLE, jobs=1,
                          cache=ResultCache(tmp_path))
        assert rerun.meta["cached"] == 2
        assert rerun.meta["simulated"] == 1
        assert rerun.to_json() == clean.to_json()

    def test_rerun_under_another_budget_replays_nothing(self, tmp_path):
        run_sweep(self.GRID, max_requests=SAMPLE, cache=ResultCache(tmp_path))
        # A different request budget is a different sweep: no entry of
        # the first run can be spliced into it.
        other = run_sweep(self.GRID, max_requests=2 * SAMPLE,
                          cache=ResultCache(tmp_path))
        assert other.meta["cached"] == 0
        assert other.meta["simulated"] == 3

    def test_run_id_digest_stable(self):
        def run_id(max_requests):
            result = run_sweep(self.GRID, max_requests=max_requests,
                               telemetry=True)
            return result.meta["run_id"]

        digest = stable_digest({
            "grid": self.GRID.as_dict(),
            "configs": {"default": system_to_dict(SystemConfig())},
            "max_requests": SAMPLE,
            "version": CACHE_VERSION,
        })
        assert run_id(SAMPLE) == digest[:12] == run_id(SAMPLE)
        assert run_id(SAMPLE + 1) != digest[:12]


class TestCacheSelfHealing:
    GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"),
                     heights=(2, 4))

    def _entries(self, root):
        return sorted(root.glob("*/*.json"))

    def test_truncated_and_bitflipped_entries_heal(self, tmp_path):
        cache = ResultCache(tmp_path)
        clean = run_sweep(self.GRID, max_requests=SAMPLE, cache=cache)
        entries = self._entries(tmp_path)
        assert len(entries) == 3
        # Truncate one entry (torn write) and bit-flip another's result.
        entries[0].write_text(
            entries[0].read_text(encoding="utf-8")[:40], encoding="utf-8"
        )
        doc = json.loads(entries[1].read_text(encoding="utf-8"))
        doc["result"]["throughput_gbps"] += 1.0  # digest now lies
        entries[1].write_text(json.dumps(doc), encoding="utf-8")

        healed_cache = ResultCache(tmp_path)
        rerun = run_sweep(self.GRID, max_requests=SAMPLE, cache=healed_cache)
        assert rerun.to_json() == clean.to_json()
        assert healed_cache.stats.as_dict() == {
            "hits": 1, "misses": 2, "stores": 2, "invalid": 2, "healed": 2,
        }
        # The rewrites are good: a third run is all hits.
        warm = ResultCache(tmp_path)
        run_sweep(self.GRID, max_requests=SAMPLE, cache=warm)
        assert warm.stats.as_dict() == {
            "hits": 3, "misses": 0, "stores": 0, "invalid": 0, "healed": 0,
        }

    def test_miskeyed_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"p": 1})
        cache.put(key, {"p": 1}, {"v": 1})
        # Graft the valid entry under a different key: digest still
        # matches, but the embedded key does not.
        other = cache.key_for({"p": 2})
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other).write_text(
            cache.path_for(key).read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert cache.get(other) is None
        assert cache.stats.invalid == 1
        assert cache.stats.healed == 1
        assert cache.get(key) == {"v": 1}  # the original is untouched

    def test_scrub_reports_and_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(4):
            key = cache.key_for({"p": n})
            cache.put(key, {"p": n}, {"v": n})
        victim = self._entries(tmp_path)[2]
        victim.write_text("garbage", encoding="utf-8")
        report = ResultCache(tmp_path).scrub()
        assert report == {"checked": 4, "healed": 1}
        assert len(self._entries(tmp_path)) == 3


class TestSweepCli:
    def test_markdown_output(self, capsys):
        assert main([
            "sweep", "--sizes", "128", "--heights", "0", "4",
            "--no-cache", "--max-requests", str(SAMPLE),
        ]) == 0
        out = capsys.readouterr().out
        assert "| config | N | layout |" in out
        assert "row-major" in out and "ddl" in out
        assert "3 points" in out

    def test_json_out_matches_engine(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert main([
            "sweep", "--sizes", "128", "--layouts", "ddl",
            "--heights", "2", "--no-cache",
            "--max-requests", str(SAMPLE), "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        engine = run_sweep(
            SweepGrid(sizes=(128,), layouts=("ddl",), heights=(2,)),
            max_requests=SAMPLE,
        )
        assert out_path.read_text(encoding="utf-8") == engine.to_json()

    def test_spec_file_and_cache_flags(self, capsys, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"sizes": [128], "layouts": ["ddl"]}))
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "--spec", str(spec), "--cache-dir", str(cache_dir),
            "--max-requests", str(SAMPLE), "--metrics",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 simulated" in first
        assert "`sweep.points`" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 from cache" in second

    def test_telemetry_flag_writes_trace_and_openmetrics(
        self, capsys, tmp_path
    ):
        from repro.obs import parse_openmetrics

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "sweep", "--sizes", "128", "--layouts", "ddl",
            "--heights", "2", "--no-cache",
            "--max-requests", str(SAMPLE),
            "--trace-out", str(trace_path),
            "--openmetrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        doc = json.loads(trace_path.read_text())
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert "sweep runner" in names
        assert any(name.startswith("worker pid=") for name in names)

        families = parse_openmetrics(metrics_path.read_text())
        assert "sweep_points" in families
        assert "telemetry_queue_wait_s" in families


class TestTelemetry:
    GRID = SweepGrid(sizes=(128,), layouts=("row-major", "ddl"), heights=(2,))

    def test_off_by_default_and_byte_identical(self):
        plain = run_sweep(self.GRID, max_requests=SAMPLE)
        traced = run_sweep(self.GRID, max_requests=SAMPLE, telemetry=True)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        # Telemetry is run metadata: the deterministic document is
        # byte-identical with it on or off, serial or parallel.
        assert traced.to_json() == plain.to_json()
        parallel = run_sweep(
            self.GRID, max_requests=SAMPLE, jobs=2, telemetry=True
        )
        assert parallel.to_json() == plain.to_json()

    def test_parallel_run_merges_every_worker(self):
        result = run_sweep(
            self.GRID, max_requests=SAMPLE, jobs=2, telemetry=True
        )
        telemetry = result.telemetry
        # One payload per simulated point, clock-aligned into one trace.
        assert len(telemetry.workers) == self.GRID.n_points()
        assert result.meta["run_id"] == telemetry.run_id
        doc = telemetry.chrome_trace()
        span_names = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert {"execute", "point", "simulate"} <= span_names
        stamps = [e["ts"] for e in doc["traceEvents"] if "ts" in e]
        assert min(stamps) >= 0.0
        # Queue waits were derived for each merged payload.
        hist = telemetry.registry.as_dict()["telemetry.queue_wait_s"]
        assert hist["count"] == self.GRID.n_points()

    def test_cache_hits_recorded(self, tmp_path):
        run_sweep(
            self.GRID, max_requests=SAMPLE, cache=ResultCache(tmp_path / "cache")
        )
        warm = run_sweep(
            self.GRID,
            max_requests=SAMPLE,
            cache=ResultCache(tmp_path / "cache"),
            telemetry=True,
        )
        hits = {
            point: [span.name for span in spans]
            for point, spans in warm.telemetry.point_spans.items()
        }
        assert hits == {
            point: ["cache_hit"] for point in range(self.GRID.n_points())
        }

    def test_retry_events_under_chaos(self):
        result = run_sweep(
            self.GRID,
            max_requests=SAMPLE,
            policy=RetryPolicy(retries=2, backoff_s=0.0),
            chaos=WorkerChaos(fail_points=(0,), fail_attempts=1),
            telemetry=True,
        )
        assert not result.failures
        attempts = {
            point: [
                (span.meta["attempt"], span.meta["status"])
                for span in spans
                if span.name == "attempt"
            ]
            for point, spans in result.telemetry.point_spans.items()
        }
        assert attempts[0] == [(1, "error"), (2, "ok")]
        assert all(
            attempts[point] == [(1, "ok")]
            for point in range(1, self.GRID.n_points())
        )


class TestWarmWorkerReuse:
    """Differential: one warm worker reused across mixed points gives the
    inline documents, and a killed or hung worker is replaced."""

    GRID = SweepGrid(
        sizes=(256, 512),
        layouts=("ddl", "row-major", "block-ddl-w1h32"),
        configs=(
            ConfigVariant(),
            ConfigVariant(
                "refresh",
                {"memory": {"refresh": {"t_refi_ns": 7800.0, "t_rfc_ns": 160.0}}},
            ),
        ),
    )

    @pytest.fixture
    def pool(self, monkeypatch):
        """A private pool standing in for the shared one."""
        import repro.sweep.runner as runner
        from repro.sweep.resilience import WorkerPool

        pool = WorkerPool()
        monkeypatch.setattr(runner, "run_attempt", pool.run)
        yield pool
        pool.close()

    @staticmethod
    def workers(before=frozenset()):
        """This process's live pool workers, by pid, minus ``before``."""
        return {
            process.pid: process
            for process in multiprocessing.active_children()
            if process.name == "repro-worker" and process.pid not in before
        }

    @pytest.fixture(scope="class")
    def inline(self):
        return run_sweep(self.GRID, max_requests=SAMPLE, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reused_worker_matches_inline(self, pool, inline, jobs):
        assert self.GRID.n_points() == 12
        before = set(self.workers())
        pooled = run_sweep(
            self.GRID, max_requests=SAMPLE, jobs=jobs, policy=RetryPolicy()
        )
        assert pooled.to_json() == inline.to_json()
        # The pool grows to the attempts run at once: one worker served
        # every point of the serial run.
        assert 1 <= len(self.workers(before)) <= jobs

    def test_concurrent_checkouts_never_share_a_worker(self):
        import sys

        from repro.sweep.resilience import WorkerPool
        from repro.sweep.runner import point_payload

        point = SweepPoint(n=256, layout="ddl", height=None, config_label="default")
        payload = point_payload(point, system_to_dict(SystemConfig()), SAMPLE)
        pool = WorkerPool()
        answers: dict[int, dict] = {}

        def client(first: int) -> None:
            for index in range(first, 16, 4):
                answers[index] = pool.run(dict(payload, index=index), 30.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        # A worker handed to two callers at once would answer one of them
        # with the other's point.
        assert sorted(answers) == list(range(16))
        for index, status in answers.items():
            assert status["status"] == "ok", status
            assert status["outcome"]["index"] == index

    def test_worker_logs_reach_the_caller_at_its_level(self, pool):
        from repro.obs.logging import configure_logging, global_ring, reset_logging

        grid = SweepGrid(sizes=(256,), layouts=("ddl", "row-major"))
        try:
            for level, expected in (("info", 0), ("debug", 2)):
                configure_logging(level)
                run_sweep(
                    grid, max_requests=SAMPLE, policy=RetryPolicy(), telemetry=True
                )
                simulated = [
                    record
                    for record in global_ring().tail()
                    if record.message == "point simulated"
                ]
                assert len(simulated) == expected, level
            assert sorted(r.context["point_id"] for r in simulated) == [0, 1]
        finally:
            reset_logging()

    def test_killed_and_hung_workers_are_replaced(self, pool, inline, monkeypatch):
        import os
        import signal

        import repro.sweep.runner as runner

        kill_before, hang_at = 4, 7
        before = set(self.workers())
        pids = set()

        def run(task, timeout_s, cancel_event=None):
            if task["index"] == kill_before:
                (worker,) = self.workers(before).values()
                os.kill(worker.pid, signal.SIGKILL)
                worker.join()
            status = pool.run(task, timeout_s, cancel_event)
            pids.update(self.workers(before))
            return status

        monkeypatch.setattr(runner, "run_attempt", run)
        result = run_sweep(
            self.GRID,
            max_requests=SAMPLE,
            jobs=1,
            policy=RetryPolicy(timeout_s=2.0),
            chaos=WorkerChaos(hang_points=(hang_at,), hang_s=60.0),
        )
        (failure,) = result.failures
        assert failure["index"] == hang_at
        assert failure["error"] == "TimeoutError"
        assert failure["reason"] == "timeout"
        expected = [r for i, r in enumerate(inline.results) if i != hang_at]
        assert result.results == expected
        # Three workers served the sequence: before the kill, until the
        # hang, and after it.
        assert len(pids) == 3
        counters = result.registry.as_dict()
        assert counters["sweep.workers_replaced.timeout"]["value"] == 1
        # The killed worker was idle: no attempt failed, none counted.
        assert "sweep.workers_replaced.worker_crash" not in counters
