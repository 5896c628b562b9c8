"""Baseline and optimized architectures: function and performance."""

import numpy as np
import pytest

from repro.core import BaselineArchitecture, OptimizedArchitecture
from repro.errors import ConfigError
from repro.layouts import LayoutRegime


class TestFunctionalCorrectness:
    """The full data path must compute real 2D FFTs."""

    @pytest.mark.parametrize("arch_cls", [BaselineArchitecture, OptimizedArchitecture])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_numpy_fft2(self, rng, arch_cls, n):
        arch = arch_cls(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.allclose(arch.compute(x), np.fft.fft2(x), atol=1e-7)

    def test_architectures_agree(self, rng):
        x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        baseline = BaselineArchitecture(64).compute(x)
        optimized = OptimizedArchitecture(64).compute(x)
        assert np.allclose(baseline, optimized)

    def test_rejects_wrong_shape(self):
        arch = BaselineArchitecture(16)
        with pytest.raises(ConfigError):
            arch.compute(np.zeros((8, 16), dtype=complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            BaselineArchitecture(100)

    def test_rejects_tiny(self):
        with pytest.raises(ConfigError):
            OptimizedArchitecture(2)


class TestOptimizedStructure:
    def test_geometry_is_eq1(self):
        arch = OptimizedArchitecture(2048)
        assert (arch.geometry.width, arch.geometry.height) == (2, 16)
        assert arch.geometry.regime is LayoutRegime.SAME_BANK

    def test_layout_matches_geometry(self):
        arch = OptimizedArchitecture(2048)
        assert arch.layout.width == arch.geometry.width
        assert arch.layout.height == arch.geometry.height

    def test_custom_geometry_honoured(self, mem_config):
        from repro.layouts.optimizer import BlockGeometry

        geo = BlockGeometry(
            width=4, height=8, raw_height=8.0,
            regime=LayoutRegime.CROSS_BANK, row_elements=32,
        )
        arch = OptimizedArchitecture(512, geometry=geo)
        assert arch.layout.height == 8

    def test_reorg_buffer_reported(self):
        arch = OptimizedArchitecture(2048)
        # Double-buffered h x N staging.
        assert arch.reorganization_buffer_words == 2 * 16 * 2048


class TestEvaluation:
    def test_baseline_evaluation_shape(self):
        metrics = BaselineArchitecture(512).evaluate(max_requests=65_536)
        assert metrics.architecture == "baseline"
        assert metrics.data_parallelism == 1
        assert metrics.column_phase.bound == "memory"

    def test_optimized_evaluation_shape(self):
        metrics = OptimizedArchitecture(512).evaluate(max_requests=65_536)
        assert metrics.architecture == "optimized"
        assert metrics.data_parallelism == 16
        assert metrics.column_phase.bound == "kernel"

    def test_optimized_beats_baseline(self):
        baseline = BaselineArchitecture(512).evaluate(max_requests=65_536)
        optimized = OptimizedArchitecture(512).evaluate(max_requests=65_536)
        assert optimized.throughput_gbps > 5 * baseline.throughput_gbps
        assert optimized.latency_ns < baseline.latency_ns

    def test_improvement_in_paper_range_at_2048(self):
        baseline = BaselineArchitecture(2048).evaluate(max_requests=65_536)
        optimized = OptimizedArchitecture(2048).evaluate(max_requests=65_536)
        improvement = optimized.improvement_over(baseline)
        assert improvement == pytest.approx(95.1, abs=0.5)

    @pytest.mark.parametrize("n, gbps, improvement", [
        (2048, 32.0, 95.1), (4096, 25.6, 97.0), (8192, 23.04, 96.6),
    ])
    def test_simulated_table2_rows(self, n, gbps, improvement):
        """Table 2 from trace-driven architectures: throughput,
        improvement and a latency cut of more than 2.5x per size."""
        baseline = BaselineArchitecture(n).evaluate(max_requests=65_536)
        optimized = OptimizedArchitecture(n).evaluate(max_requests=65_536)
        assert optimized.throughput_gbps == pytest.approx(gbps, rel=0.02)
        assert optimized.improvement_over(baseline) == pytest.approx(
            improvement, abs=0.3
        )
        assert optimized.latency_ns < baseline.latency_ns / 2.5

    def test_repr(self):
        assert "2048" in repr(BaselineArchitecture(2048))
