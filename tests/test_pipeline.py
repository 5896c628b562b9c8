"""Multi-frame streaming pipeline."""

import pytest

from repro.core import AnalyticModel
from repro.core.pipeline import PipelineConfig, PipelineMetrics, StreamingPipeline
from repro.errors import ConfigError, SimulationError


@pytest.fixture
def optimized():
    return AnalyticModel().optimized_system(2048)


@pytest.fixture
def baseline():
    return AnalyticModel().baseline_system(2048)


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.frames == 1
        assert cfg.overlap_phases

    def test_rejects_zero_frames(self):
        with pytest.raises(ConfigError):
            PipelineConfig(frames=0)

    def test_rejects_zero_prefetch(self):
        with pytest.raises(ConfigError):
            PipelineConfig(prefetch_groups=0)


class TestSchedule:
    def test_single_frame_is_serial(self, optimized):
        overlapped = StreamingPipeline(
            optimized, PipelineConfig(frames=1, overlap_phases=True)
        ).evaluate()
        serial = StreamingPipeline(
            optimized, PipelineConfig(frames=1, overlap_phases=False)
        ).evaluate()
        assert overlapped.total_time_ns == pytest.approx(serial.total_time_ns)

    def test_overlap_approaches_2x_for_balanced_phases(self, optimized):
        """The optimized design has equal phase times (both kernel bound),
        so overlapping across many frames halves the time per frame."""
        pipeline = StreamingPipeline(optimized, PipelineConfig(frames=100))
        assert pipeline.speedup_over_serial() == pytest.approx(2.0, rel=0.02)

    def test_overlap_useless_for_skewed_baseline(self, baseline):
        """The baseline column phase dominates, so overlap buys little."""
        pipeline = StreamingPipeline(baseline, PipelineConfig(frames=100))
        assert pipeline.speedup_over_serial() < 1.1

    def test_overlapped_optimized_beats_serial_baseline_35x(
        self, optimized, baseline
    ):
        overlapped = StreamingPipeline(
            optimized, PipelineConfig(frames=64, overlap_phases=True)
        ).evaluate()
        serial = StreamingPipeline(
            baseline, PipelineConfig(frames=64, overlap_phases=False)
        ).evaluate()
        assert overlapped.frame_rate_hz > 35 * serial.frame_rate_hz

    def test_total_time_formula(self, optimized):
        frames = 10
        metrics = StreamingPipeline(
            optimized, PipelineConfig(frames=frames)
        ).evaluate()
        row = optimized.row_phase.time_ns
        col = optimized.column_phase.time_ns
        expected = row + (frames - 1) * max(row, col) + col
        assert metrics.total_time_ns == pytest.approx(expected)

    def test_frame_rate(self, optimized):
        metrics = StreamingPipeline(
            optimized, PipelineConfig(frames=50)
        ).evaluate()
        assert metrics.frame_rate_hz == pytest.approx(
            50 / (metrics.total_time_ns / 1e9)
        )

    def test_overlap_doubles_intermediate_footprint(self, optimized):
        single = StreamingPipeline(
            optimized, PipelineConfig(frames=4, overlap_phases=False)
        ).evaluate()
        double = StreamingPipeline(
            optimized, PipelineConfig(frames=4, overlap_phases=True)
        ).evaluate()
        assert double.intermediate_footprint_bytes == 2 * single.intermediate_footprint_bytes
        assert single.intermediate_footprint_bytes == 2048 * 2048 * 8


class TestPrefetch:
    def test_prefetch_hides_fetch_latency(self, optimized):
        with_prefetch = StreamingPipeline(
            optimized, PipelineConfig(prefetch_groups=2)
        ).evaluate()
        without = StreamingPipeline(
            optimized, PipelineConfig(prefetch_groups=1)
        ).evaluate()
        assert with_prefetch.first_output_latency_ns < without.first_output_latency_ns

    def test_deeper_prefetch_saturates(self, optimized):
        two = StreamingPipeline(
            optimized, PipelineConfig(prefetch_groups=2)
        ).evaluate()
        eight = StreamingPipeline(
            optimized, PipelineConfig(prefetch_groups=8)
        ).evaluate()
        assert two.first_output_latency_ns == pytest.approx(
            eight.first_output_latency_ns
        )


class TestMetrics:
    def test_frame_time(self):
        metrics = PipelineMetrics(
            frames=4, total_time_ns=400.0, first_output_latency_ns=10.0,
            intermediate_footprint_bytes=64,
        )
        assert metrics.frame_time_ns == 100.0

    def test_zero_time_rejected(self):
        metrics = PipelineMetrics(
            frames=1, total_time_ns=0.0, first_output_latency_ns=0.0,
            intermediate_footprint_bytes=0,
        )
        with pytest.raises(SimulationError):
            _ = metrics.frame_rate_hz
