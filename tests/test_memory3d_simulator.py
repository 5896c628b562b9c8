"""The trace-driven Memory3D simulator: engines, disciplines, calibration."""

import numpy as np
import pytest

from repro.core.simulate import phase_trace
from repro.errors import SimulationError
from repro.layouts import BlockDDLLayout, RowMajorLayout
from repro.memory3d import Memory3D
from repro.memory3d.memory import ENGINES
from repro.trace import (
    TraceArray,
    block_column_read_trace,
    column_walk_trace,
    linear_trace,
    row_walk_trace,
)


class TestBasics:
    def test_empty_trace(self, memory):
        stats = memory.simulate(TraceArray(np.empty(0, dtype=np.int64)))
        assert stats.requests == 0
        assert stats.elapsed_ns == 0.0

    def test_unknown_discipline_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.simulate(linear_trace(0, 4), discipline="chaos")

    def test_single_request(self, memory, mem_config):
        stats = memory.simulate(linear_trace(0, 1))
        assert stats.requests == 1
        assert stats.row_activations == 1
        assert stats.elapsed_ns == pytest.approx(mem_config.timing.t_in_row)

    def test_bytes_counted(self, memory):
        stats = memory.simulate(linear_trace(0, 100))
        assert stats.bytes_transferred == 800


class TestLinearStream:
    def test_sequential_stream_mostly_hits(self, memory, mem_config):
        n = 4 * mem_config.row_elements
        stats = memory.simulate(linear_trace(0, n), "in_order")
        assert stats.row_activations == 4
        assert stats.row_hits == n - 4

    def test_sequential_per_vault_hits_peak(self, memory, mem_config):
        # A long sequential stream split over all vaults streams at peak.
        n = 64 * mem_config.vaults * mem_config.row_elements
        stats = memory.simulate(linear_trace(0, n), "per_vault")
        assert stats.utilization(mem_config.peak_bandwidth) > 0.95


class TestPaperCalibration:
    """The Table-1 baseline numbers, from first principles."""

    def test_n2048_column_walk_is_6_4_gbit(self, memory, mem_config):
        trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(1))
        stats = memory.simulate(trace, "in_order")
        assert stats.bandwidth_gbitps == pytest.approx(6.4, rel=0.02)
        assert stats.utilization(mem_config.peak_bandwidth) == pytest.approx(
            0.01, rel=0.02
        )

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_large_column_walk_is_3_2_gbit(self, memory, mem_config, n):
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(1))
        stats = memory.simulate(trace, "in_order")
        assert stats.bandwidth_gbitps == pytest.approx(3.2, rel=0.02)

    def test_column_walk_has_zero_hits(self, memory):
        trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(1))
        stats = memory.simulate(trace, "in_order")
        assert stats.row_hits == 0
        assert stats.row_activations == stats.requests

    def test_ddl_block_read_reaches_peak(self, memory, mem_config):
        layout = BlockDDLLayout(2048, 2048, width=2, height=16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        stats = memory.simulate(trace, "per_vault")
        assert stats.utilization(mem_config.peak_bandwidth) > 0.99

    def test_ddl_activations_one_per_block(self, memory):
        layout = BlockDDLLayout(2048, 2048, width=2, height=16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        stats = memory.simulate(trace, "per_vault")
        blocks = 16 * layout.n_block_rows
        assert stats.row_activations == blocks


class TestEngineAgreement:
    """Both engines must equal the independent reference model.

    Each engine is named, so the exact loop is checked whatever the
    default is; ``"vector"`` is checked as callers get it, with its
    exact fallback (random in-order traces fall back).
    """

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    def test_random_trace(self, memory, mem_config, rng, discipline):
        addresses = rng.integers(0, 1 << 16, size=2000, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        reference = memory.simulate_reference(trace, discipline)
        for engine in ENGINES:
            fast = memory.simulate(trace, discipline, engine=engine)
            assert fast.elapsed_ns == pytest.approx(reference.elapsed_ns), engine
            assert fast.row_activations == reference.row_activations, engine
            assert fast.row_hits == reference.row_hits, engine
            assert fast.first_response_ns == pytest.approx(
                reference.first_response_ns
            ), engine

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    def test_structured_traces(self, memory, discipline):
        layout = RowMajorLayout(256, 256)
        for trace in (
            column_walk_trace(layout, cols=range(2)),
            row_walk_trace(layout, rows=range(2)),
        ):
            reference = memory.simulate_reference(trace, discipline)
            for engine in ENGINES:
                fast = memory.simulate(trace, discipline, engine=engine)
                assert memory.last_engine == engine
                assert fast.elapsed_ns == pytest.approx(
                    reference.elapsed_ns
                ), engine
                assert fast.row_activations == reference.row_activations, engine


class TestSampling:
    """Only :meth:`PhaseTrace.price` extrapolates a prefix; it relies on
    the access patterns being periodic in the device geometry."""

    def test_sampling_extrapolates_periodic_pattern(self, memory):
        layout = RowMajorLayout(1024, 1024)
        whole = phase_trace(layout, "column-walk", 4 * 1024, units=4)
        capped = phase_trace(layout, "column-walk", 1024, units=4)
        assert 4 * len(capped.prefix) == len(whole.prefix) == whole.extent
        full = whole.price(memory)
        sampled = capped.price(memory)
        assert sampled.elapsed_ns == pytest.approx(full.elapsed_ns, rel=0.02)
        assert sampled.requests == full.requests
        assert sampled.bytes_transferred == full.bytes_transferred

    def test_sample_larger_than_trace_is_exact(self, memory):
        layout = RowMajorLayout(64, 64)
        phase = phase_trace(layout, "column-walk", 10_000, units=64)
        assert len(phase.prefix) == phase.extent
        assert phase.price(memory) == memory.simulate(
            column_walk_trace(layout), "in_order", engine="exact"
        )


class TestTransitionClassifier:
    def test_column_walk_2048_classification(self, memory):
        trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(1))
        classes = memory.classify_transitions(trace)
        assert classes["same_row"] == 0
        assert classes["diff_vault"] == 0
        assert classes["diff_bank_same_vault"] == len(trace) - 1

    def test_column_walk_4096_is_same_bank(self, memory):
        trace = column_walk_trace(RowMajorLayout(4096, 4096), cols=range(1))
        classes = memory.classify_transitions(trace)
        assert classes["diff_row_same_bank"] == len(trace) - 1

    def test_sequential_is_mostly_diff_vault(self, memory, mem_config):
        trace = linear_trace(0, mem_config.row_elements * 4)
        classes = memory.classify_transitions(trace)
        assert classes["same_row"] == 4 * (mem_config.row_elements - 1)

    def test_short_trace(self, memory):
        classes = memory.classify_transitions(linear_trace(0, 1))
        assert sum(classes.values()) == 0


class TestPerVaultParallelism:
    def test_parallel_vault_streams_overlap(self, memory, mem_config):
        """16 single-vault streams finish ~16x faster per-vault than serialized."""
        layout = BlockDDLLayout(512, 512, width=2, height=16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        parallel = memory.simulate(trace, "per_vault")
        serial = memory.simulate(trace, "in_order")
        assert parallel.elapsed_ns < serial.elapsed_ns
        assert parallel.elapsed_ns == pytest.approx(serial.elapsed_ns / 16, rel=0.05)


class TestBandwidthTimeline:
    def test_sequential_stream_is_flat_at_peak(self, memory, mem_config):
        trace = linear_trace(0, 100_000)
        timeline = memory.bandwidth_timeline(trace, "per_vault", bucket_ns=200.0)
        # Interior buckets run at peak; edges may be partial.
        interior = timeline[1:-1]
        assert interior.size > 10
        assert interior.min() > 0.95 * mem_config.peak_bandwidth

    def test_column_walk_is_flat_and_low(self, memory, mem_config):
        trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(2))
        timeline = memory.bandwidth_timeline(trace, "in_order", bucket_ns=1000.0)
        # The N=2048 walk runs at 0.8 GB/s = 1% of peak, steadily.
        assert timeline.max() < 0.015 * mem_config.peak_bandwidth

    def test_total_bytes_conserved(self, memory):
        trace = linear_trace(0, 5000)
        bucket = 100.0
        timeline = memory.bandwidth_timeline(trace, "per_vault", bucket_ns=bucket)
        total = timeline.sum() * (bucket / 1e9)
        assert total == pytest.approx(trace.total_bytes)

    def test_refresh_dips_visible(self):
        from repro.memory3d import Memory3DConfig, RefreshParameters

        config = Memory3DConfig(
            refresh=RefreshParameters(t_refi_ns=2000.0, t_rfc_ns=500.0)
        )
        refreshing = Memory3D(config)
        trace = linear_trace(0, 100_000)
        timeline = refreshing.bandwidth_timeline(
            trace, "per_vault", bucket_ns=100.0
        )
        # Staggered refresh shows as variation, not a flat line.
        interior = timeline[2:-2]
        assert interior.max() > interior.min()

    def test_empty_trace(self, memory):
        import numpy as np

        trace = TraceArray(np.empty(0, dtype=np.int64))
        assert memory.bandwidth_timeline(trace).size == 0

    def test_bad_bucket_rejected(self, memory):
        with pytest.raises(SimulationError):
            memory.bandwidth_timeline(linear_trace(0, 10), bucket_ns=0.0)

    def test_sampling(self, memory):
        trace = linear_trace(0, 100_000)
        sampled = memory.bandwidth_timeline(
            trace.head(10_000), "per_vault", bucket_ns=100.0
        )
        full = memory.bandwidth_timeline(trace, "per_vault", bucket_ns=100.0)
        assert sampled.size < full.size

    def test_sampled_buckets_conserve_prefix_bytes(self, memory):
        trace = linear_trace(0, 50_000)
        bucket = 250.0
        sampled = memory.bandwidth_timeline(
            trace.head(10_000), "per_vault", bucket_ns=bucket
        )
        total = sampled.sum() * (bucket / 1e9)
        assert total == pytest.approx(trace.head(10_000).total_bytes)

    def test_completion_on_bucket_edge_lands_in_next_bucket(
        self, memory, mem_config
    ):
        # One request completes at exactly t_in_row; a bucket width equal
        # to that time puts the completion at the edge, which belongs to
        # the second bucket ([1*b, 2*b)), leaving the first empty.
        t_in_row = mem_config.timing.t_in_row
        timeline = memory.bandwidth_timeline(
            linear_trace(0, 1), "in_order", bucket_ns=t_in_row
        )
        assert timeline.size == 2
        assert timeline[0] == 0.0
        assert timeline[1] > 0.0

    def test_random_trace_buckets_conserve_bytes(self, memory, rng):
        addresses = rng.integers(0, 1 << 16, size=4000, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        bucket = 50.0
        timeline = memory.bandwidth_timeline(trace, "in_order", bucket_ns=bucket)
        total = timeline.sum() * (bucket / 1e9)
        assert total == pytest.approx(trace.total_bytes)
