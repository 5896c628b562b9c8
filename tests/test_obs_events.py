"""Event tracing: recorder wiring, engine parity, exporters."""

import io
import json

import numpy as np
import pytest

from repro.core.simulate import phase_trace
from repro.layouts import BlockDDLLayout, RowMajorLayout
from repro.memory3d import Memory3D, Memory3DConfig, RefreshParameters
from repro.obs import (
    NULL_RECORDER,
    EventKind,
    EventTrace,
    MetricsRegistry,
    SpanTimeline,
    chrome_trace,
    event_summary_table,
    stats_vault_table,
    vault_utilization_table,
    write_chrome_trace,
)
from repro.trace import (
    TraceArray,
    block_column_read_trace,
    column_walk_trace,
    linear_trace,
)


def random_trace(rng, n=3000):
    return TraceArray(rng.integers(0, 1 << 16, size=n, dtype=np.int64) * 8)


class TestRecorderBasics:
    def test_default_recorder_is_null(self, mem_config):
        assert Memory3D(mem_config).recorder is NULL_RECORDER
        assert not NULL_RECORDER.enabled

    def test_event_trace_records_all_accesses(self, mem_config):
        recorder = EventTrace()
        memory = Memory3D(mem_config, recorder=recorder)
        stats = memory.simulate(linear_trace(0, 500), "in_order")
        assert recorder.count(EventKind.ACTIVATE) == stats.row_activations
        assert recorder.count(EventKind.ROW_HIT) == stats.row_hits

    def test_recording_does_not_change_timing(self, mem_config, rng):
        trace = random_trace(rng)
        plain = Memory3D(mem_config).simulate(trace, "per_vault", engine="exact")
        recorded = Memory3D(mem_config, recorder=EventTrace()).simulate(
            trace, "per_vault"
        )
        assert recorded.elapsed_ns == pytest.approx(plain.elapsed_ns)
        assert recorded.row_activations == plain.row_activations

    def test_clear_resets_the_recorder(self, mem_config):
        recorder = EventTrace()
        memory = Memory3D(mem_config, recorder=recorder)
        memory.simulate(linear_trace(0, 100))
        assert len(recorder) > 0
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.end_ns == 0.0

    def test_events_are_typed_views(self, mem_config):
        recorder = EventTrace()
        Memory3D(mem_config, recorder=recorder).simulate(linear_trace(0, 10))
        activates = recorder.events(EventKind.ACTIVATE)
        assert activates
        first = activates[0]
        assert first.kind is EventKind.ACTIVATE
        assert first.end_ns == first.ts_ns + first.dur_ns

    def test_sampling_records_prefix_only(self, mem_config):
        """A priced phase extrapolates its stats, never its events."""
        recorder = EventTrace()
        memory = Memory3D(mem_config, recorder=recorder)
        phase = phase_trace(RowMajorLayout(64, 64), "column-walk", 1000, units=64)
        stats = phase.price(memory)
        assert stats.requests == 64 * 64
        assert len(recorder) == len(phase.prefix) < stats.requests


class TestEngineEventParity:
    """Both engines must emit the identical event stream."""

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    @pytest.mark.parametrize("with_refresh", [False, True])
    def test_random_trace_streams_match(self, rng, discipline, with_refresh):
        config = Memory3DConfig(
            refresh=RefreshParameters() if with_refresh else None
        )
        trace = random_trace(rng)
        fast_rec = EventTrace()
        Memory3D(config, recorder=fast_rec).simulate(
            trace, discipline, engine="exact"
        )
        ref_rec = EventTrace()
        Memory3D(config, recorder=ref_rec).simulate_reference(trace, discipline)
        assert fast_rec.kinds == ref_rec.kinds
        assert fast_rec.vaults == ref_rec.vaults
        assert fast_rec.banks == ref_rec.banks
        assert fast_rec.rows == ref_rec.rows
        np.testing.assert_allclose(fast_rec.ts_ns, ref_rec.ts_ns)
        np.testing.assert_allclose(fast_rec.dur_ns, ref_rec.dur_ns)

    def test_refresh_stalls_recorded(self):
        config = Memory3DConfig(
            refresh=RefreshParameters(t_refi_ns=500.0, t_rfc_ns=100.0)
        )
        recorder = EventTrace()
        Memory3D(config, recorder=recorder).simulate(
            linear_trace(0, 5000), "per_vault"
        )
        stalls = recorder.count(EventKind.REFRESH_STALL)
        assert stalls > 0
        assert recorder.stall_ns(EventKind.REFRESH_STALL) > 0.0

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    def test_tsv_contention_never_fires_under_blocking_issue(
        self, mem_config, rng, discipline
    ):
        """Invariant: blocking disciplines cannot outrun the TSV bundle.

        Under both disciplines a request's ready time is a completion
        time that already includes the vault's TSV watermark, so the
        TSV_CONTENTION detector must stay silent; it exists for future
        overlapped-issue disciplines.
        """
        recorder = EventTrace()
        Memory3D(mem_config, recorder=recorder).simulate(
            random_trace(rng), discipline
        )
        assert recorder.count(EventKind.TSV_CONTENTION) == 0


class TestEventBreakdowns:
    def test_per_vault_row_hit_rate(self, mem_config):
        layout = BlockDDLLayout(512, 512, width=2, height=16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        recorder = EventTrace()
        stats = Memory3D(mem_config, recorder=recorder).simulate(
            trace, "per_vault"
        )
        rates = recorder.per_vault_row_hit_rate()
        assert len(rates) == mem_config.vaults
        for rate in rates.values():
            assert rate == pytest.approx(stats.row_hit_rate)

    def test_counts_zero_filled(self):
        counts = EventTrace().counts()
        assert counts == {
            "ACTIVATE": 0, "ROW_HIT": 0, "REFRESH_STALL": 0,
            "TSV_CONTENTION": 0, "BIT_ERROR": 0,
        }

    def test_to_metrics(self, mem_config):
        recorder = EventTrace()
        stats = Memory3D(mem_config, recorder=recorder).simulate(
            linear_trace(0, 2000), "per_vault"
        )
        registry = recorder.to_metrics(MetricsRegistry())
        assert registry.counter("events.activate").value == stats.row_activations
        assert registry.counter("events.row_hit").value == stats.row_hits
        assert registry.gauge("memory.row_hit_rate").value == pytest.approx(
            stats.row_hit_rate
        )
        assert registry.histogram("memory.activate_gap_ns").count > 0


class TestChromeExport:
    def make_recorded_run(self, mem_config):
        recorder = EventTrace()
        memory = Memory3D(mem_config, recorder=recorder)
        trace = column_walk_trace(RowMajorLayout(256, 256), cols=range(2))
        stats = memory.simulate(trace, "in_order")
        return recorder, stats

    def test_activate_slices_equal_row_activations(self, mem_config):
        recorder, stats = self.make_recorded_run(mem_config)
        doc = chrome_trace(recorder)
        activates = [
            e for e in doc["traceEvents"] if e.get("name") == "ACTIVATE"
        ]
        assert len(activates) == stats.row_activations

    def test_document_shape(self, mem_config):
        recorder, _ = self.make_recorded_run(mem_config)
        spans = SpanTimeline()
        with spans.span("run"):
            pass
        doc = chrome_trace(recorder, spans=spans, metadata={"n": 256})
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"] == {"n": "256"}
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"process_name", "thread_name", "run"} <= names
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for event in slices:
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_json_serializable_roundtrip(self, mem_config):
        recorder, _ = self.make_recorded_run(mem_config)
        buffer = io.StringIO()
        write_chrome_trace(buffer, recorder)
        doc = json.loads(buffer.getvalue())
        assert len(doc["traceEvents"]) >= len(recorder)

    def test_write_to_path(self, mem_config, tmp_path):
        recorder, _ = self.make_recorded_run(mem_config)
        target = tmp_path / "trace.json"
        write_chrome_trace(str(target), recorder)
        doc = json.loads(target.read_text())
        assert "traceEvents" in doc


class TestTables:
    def test_vault_utilization_table(self, mem_config):
        recorder = EventTrace()
        stats = Memory3D(mem_config, recorder=recorder).simulate(
            linear_trace(0, 4096), "per_vault"
        )
        table = vault_utilization_table(recorder, stats.elapsed_ns, mem_config)
        # One header, one separator, one row per vault.
        assert len(table.splitlines()) == 2 + mem_config.vaults
        assert "row-hit rate" in table

    def test_stats_vault_table(self, memory, mem_config):
        stats = memory.simulate(linear_trace(0, 4096), "per_vault")
        table = stats_vault_table(stats, mem_config)
        assert len(table.splitlines()) == 2 + mem_config.vaults

    def test_event_summary_table(self, mem_config):
        recorder = EventTrace()
        Memory3D(mem_config, recorder=recorder).simulate(linear_trace(0, 100))
        table = event_summary_table(recorder)
        assert "ACTIVATE" in table and "refresh stall ns" in table
