"""3D FFT: function and three-phase performance model."""

import numpy as np
import pytest

from repro.errors import FFTError
from repro.fft.fft3d import FFT3D, FFT3DModel


class TestNumerics:
    @pytest.mark.parametrize("shape", [(8, 8, 8), (4, 8, 16), (16, 16, 16)])
    def test_matches_numpy_fftn(self, rng, shape):
        fft = FFT3D(*shape)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.allclose(fft.transform(x), np.fft.fftn(x), atol=1e-8)

    def test_inverse_round_trip(self, rng):
        fft = FFT3D(8, 16, 8)
        x = rng.standard_normal((8, 16, 8)) + 1j * rng.standard_normal((8, 16, 8))
        assert np.allclose(fft.inverse(fft.transform(x)), x, atol=1e-9)

    def test_dc_volume(self):
        fft = FFT3D(8, 8, 8)
        out = fft.transform(np.ones((8, 8, 8), dtype=complex))
        assert out[0, 0, 0] == pytest.approx(512.0)
        assert np.abs(out).sum() == pytest.approx(512.0)

    def test_rejects_tiny(self):
        with pytest.raises(FFTError):
            FFT3D(1, 8, 8)

    def test_rejects_wrong_shape(self):
        fft = FFT3D(8, 8, 8)
        with pytest.raises(FFTError):
            fft.transform(np.zeros((8, 8, 4), dtype=complex))


class TestModel:
    @pytest.fixture
    def model(self, system_config):
        return FFT3DModel(system_config)

    def test_baseline_z_phase_is_worst(self, model):
        metrics = model.baseline(256)
        x, y, z = metrics.phases
        assert x.throughput_gbps > y.throughput_gbps >= z.throughput_gbps

    def test_baseline_strided_phases_memory_bound(self, model):
        metrics = model.baseline(256)
        assert metrics.phases[1].bound == "memory"
        assert metrics.phases[2].bound == "memory"

    def test_optimized_all_phases_kernel_bound(self, model):
        metrics = model.optimized(256)
        for phase in metrics.phases:
            assert phase.bound == "kernel"

    @staticmethod
    def improvements(model, system_config, n):
        """(3D improvement, 2D improvement) over the baseline at size n."""
        from repro.core import AnalyticModel

        base2, opt2 = AnalyticModel(system_config).table2((n,))[0]
        return (
            model.optimized(n).improvement_over(model.baseline(n)),
            opt2.improvement_over(base2),
        )

    def test_improvement_exceeds_2d(self, model, system_config):
        """Two crippled phases out of three: the 3D gain tops the 2D one."""
        improvement_3d, improvement_2d = self.improvements(model, system_config, 2048)
        assert improvement_3d > improvement_2d

    @pytest.mark.parametrize("n", [256, 1024])
    def test_improvement_exceeds_2d_at_smaller_sizes(self, model, system_config, n):
        improvement_3d, improvement_2d = self.improvements(model, system_config, n)
        assert improvement_3d > improvement_2d

    def test_total_bytes(self, model):
        metrics = model.baseline(64)
        assert metrics.total_bytes == 3 * 64**3 * 8

    def test_throughput_positive(self, model):
        assert model.optimized(128).throughput_gbps > 0

    def test_n2048_phase_breakdown(self, model):
        """Baseline: x kernel-bound, y at 6.4 Gb/s; optimized: the 2D
        kernel rate, 32 GB/s."""
        x, y, _ = model.baseline(2048).phases
        assert x.bound == "kernel"
        assert y.throughput_gbitps == pytest.approx(6.4, rel=0.02)
        assert model.optimized(2048).throughput_gbps == pytest.approx(32.0, rel=0.01)

    def test_n2048_z_phase_rate(self, model):
        """Stride n^2 = 2048^2 elements: 32 MiB stride wraps onto one
        bank -> t_diff_row per element, like the 2D case at N>=4096."""
        metrics = model.baseline(2048)
        z = metrics.phases[2]
        assert z.throughput_gbitps == pytest.approx(3.2, rel=0.02)
