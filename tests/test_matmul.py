"""Streaming-panel matrix multiplication (refs [13, 14])."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.matmul import (
    MatMulArchitecture,
    matmul_baseline,
    matmul_optimized,
)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("b_layout", ["row-major", "column-major", "block-ddl"])
    def test_matches_numpy(self, rng, b_layout):
        n = 64
        arch = MatMulArchitecture(n, b_layout=b_layout)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.allclose(arch.compute(a, b), a @ b, atol=1e-9 * n)

    def test_identity(self, rng):
        n = 32
        arch = matmul_optimized(n)
        a = rng.standard_normal((n, n)) + 0j
        assert np.allclose(arch.compute(a, np.eye(n, dtype=complex)), a)

    def test_shape_checked(self):
        arch = matmul_baseline(16)
        with pytest.raises(ConfigError):
            arch.compute(np.zeros((8, 16), dtype=complex), np.zeros((16, 16), dtype=complex))


class TestValidation:
    def test_rejects_non_power(self):
        with pytest.raises(ConfigError):
            MatMulArchitecture(100)

    def test_rejects_bad_layout(self):
        with pytest.raises(ConfigError):
            MatMulArchitecture(64, b_layout="diagonal")

    def test_rejects_nondividing_panel(self):
        with pytest.raises(ConfigError):
            MatMulArchitecture(64, panel_rows=7)

    def test_rejects_zero_macs(self):
        with pytest.raises(ConfigError):
            MatMulArchitecture(64, macs=0)


class TestPerformanceShape:
    """B's layout decides whether the kernel is memory- or compute-bound."""

    def test_baseline_memory_bound(self):
        metrics = matmul_baseline(1024).evaluate(max_requests=32_768)
        assert metrics.bound == "memory"
        # Row-major B column streams collapse to the activate gap.
        assert metrics.b_stream_bandwidth < 5e9

    def test_optimized_streams_b_at_peak(self, system_config):
        metrics = matmul_optimized(1024).evaluate(max_requests=32_768)
        assert metrics.b_stream_bandwidth > 0.99 * system_config.peak_bandwidth

    def test_optimized_compute_bound(self):
        metrics = matmul_optimized(1024).evaluate(max_requests=32_768)
        assert metrics.bound == "compute"

    def test_optimized_runs_at_the_mac_array_rate(self):
        """512 complex MACs at 250 MHz: 1024 GFLOP/s."""
        metrics = matmul_optimized(1024).evaluate(max_requests=32_768)
        assert metrics.gflops == pytest.approx(1024.0, rel=0.02)

    def test_layout_speedup_is_large(self):
        base = matmul_baseline(1024).evaluate(max_requests=32_768)
        opt = matmul_optimized(1024).evaluate(max_requests=32_768)
        assert opt.speedup_over(base) > 5.0

    def test_column_major_b_matches_ddl_memory_side(self, system_config):
        cm = MatMulArchitecture(1024, b_layout="column-major").evaluate(
            max_requests=32_768
        )
        ddl = matmul_optimized(1024).evaluate(max_requests=32_768)
        assert cm.b_stream_bandwidth == pytest.approx(
            ddl.b_stream_bandwidth, rel=0.05
        )

    def test_gflops_positive_and_bounded(self):
        metrics = matmul_optimized(512).evaluate(max_requests=16_384)
        peak_gflops = 8 * 512 * 250e6 / 1e9  # macs * clock * 8 flops
        assert 0 < metrics.gflops <= peak_gflops * 1.01

    def test_smaller_panels_pay_more_b_traffic(self):
        wide = MatMulArchitecture(512, b_layout="block-ddl", panel_rows=64)
        narrow = MatMulArchitecture(512, b_layout="block-ddl", panel_rows=8)
        assert (
            narrow.evaluate(max_requests=16_384).memory_time_ns
            > wide.evaluate(max_requests=16_384).memory_time_ns
        )
