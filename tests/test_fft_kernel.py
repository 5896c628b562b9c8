"""The streaming 1D FFT kernel and its hardware model."""

import numpy as np
import pytest

from repro.errors import FFTError
from repro.fft import KernelHardwareModel, StreamingFFT1D
from repro.fft.kernel1d import dif_output_permutation, stage_radices


class TestStageRadices:
    def test_radix2(self):
        assert stage_radices(16, 2) == (2, 2, 2, 2)

    def test_radix4_even_log(self):
        assert stage_radices(16, 4) == (4, 4)

    def test_radix4_odd_log_leads_with_2(self):
        assert stage_radices(32, 4) == (2, 4, 4)

    def test_rejects_non_power(self):
        with pytest.raises(FFTError):
            stage_radices(24, 4)

    def test_rejects_radix8(self):
        with pytest.raises(FFTError):
            stage_radices(64, 8)


class TestOutputPermutation:
    def test_is_permutation(self):
        for n, radix in [(16, 2), (64, 4), (32, 4)]:
            perm = dif_output_permutation(n, stage_radices(n, radix))
            assert sorted(perm.tolist()) == list(range(n))

    def test_radix2_is_bit_reversal(self):
        perm = dif_output_permutation(8, (2, 2, 2))
        assert list(perm) == [0, 4, 2, 6, 1, 5, 3, 7]


class TestNumerics:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 256, 1024])
    @pytest.mark.parametrize("radix", [2, 4])
    def test_matches_numpy(self, rng, n, radix):
        kernel = StreamingFFT1D(n, radix=radix)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        assert np.allclose(kernel.transform(x), np.fft.fft(x, axis=-1), atol=1e-8 * n)

    def test_impulse_gives_flat_spectrum(self):
        kernel = StreamingFFT1D(64)
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        assert np.allclose(kernel.transform(x), np.ones(64))

    def test_dc_gives_impulse(self):
        kernel = StreamingFFT1D(64)
        out = kernel.transform(np.ones(64, dtype=complex))
        assert out[0] == pytest.approx(64.0)
        assert np.allclose(out[1:], 0.0, atol=1e-10)

    def test_single_tone(self):
        n = 128
        kernel = StreamingFFT1D(n)
        tone = np.exp(2j * np.pi * 5 * np.arange(n) / n)
        out = kernel.transform(tone)
        assert out[5] == pytest.approx(n, abs=1e-8)

    def test_linearity(self, rng):
        kernel = StreamingFFT1D(64)
        a = rng.standard_normal(64) + 0j
        b = rng.standard_normal(64) + 0j
        lhs = kernel.transform(2 * a + 3 * b)
        rhs = 2 * kernel.transform(a) + 3 * kernel.transform(b)
        assert np.allclose(lhs, rhs)

    def test_parseval(self, rng):
        n = 256
        kernel = StreamingFFT1D(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.sum(np.abs(kernel.transform(x)) ** 2) == pytest.approx(
            n * np.sum(np.abs(x) ** 2)
        )

    def test_inverse_round_trip(self, rng):
        kernel = StreamingFFT1D(128)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert np.allclose(kernel.inverse(kernel.transform(x)), x)

    def test_multidim_batches(self, rng):
        kernel = StreamingFFT1D(32)
        x = rng.standard_normal((2, 3, 32)) + 0j
        assert np.allclose(kernel.transform(x), np.fft.fft(x, axis=-1))

    def test_rejects_wrong_length(self):
        kernel = StreamingFFT1D(32)
        with pytest.raises(FFTError):
            kernel.transform(np.zeros(16, dtype=complex))

    def test_rejects_bad_lanes(self):
        with pytest.raises(FFTError):
            StreamingFFT1D(32, lanes=3)

    def test_rejects_bad_clock(self):
        with pytest.raises(FFTError):
            StreamingFFT1D(32, clock_hz=0.0)


class TestHardwareModel:
    @pytest.fixture
    def model(self):
        return KernelHardwareModel(n=2048, radix=4, lanes=16, clock_hz=250e6)

    def test_stage_count(self, model):
        assert model.stages == 6  # 2 x 4^5 = 2048

    def test_throughput_is_paper_rate(self, model):
        assert model.throughput_bytes_per_s == pytest.approx(32e9)

    def test_buffer_words_shrink_with_depth(self, model):
        depths = [unit.buffer_words for unit in model.dpp_units]
        assert depths == sorted(depths, reverse=True)

    def test_last_stage_needs_no_tfc(self, model):
        assert len(model.tfc_units) == model.stages - 1

    def test_latency_dominated_by_first_dpp(self, model):
        assert model.latency_cycles > 2048 // 16 // 2

    @pytest.mark.parametrize("n, gbps, stages", [
        (2048, 32.0, 6), (4096, 25.6, 6), (8192, 23.04, 7),
    ])
    def test_paper_sizes(self, system_config, n, gbps, stages):
        """Each evaluated size streams at its paper rate with log4 stages
        (plus one radix-2 stage when log2 N is odd)."""
        kernel = system_config.kernel
        model = KernelHardwareModel(
            n=n, radix=kernel.radix, lanes=kernel.lanes, clock_hz=kernel.clock_for(n)
        )
        assert model.throughput_bytes_per_s == pytest.approx(gbps * 1e9)
        assert model.stages == stages

    def test_fill_latency_grows_with_size(self, system_config):
        kernel = system_config.kernel
        latencies = [
            KernelHardwareModel(
                n=n, radix=kernel.radix, lanes=kernel.lanes,
                clock_hz=kernel.clock_for(n),
            ).latency_ns
            for n in (2048, 4096, 8192)
        ]
        assert latencies == sorted(latencies)

    def test_latency_ns_uses_clock(self):
        fast = KernelHardwareModel(n=256, radix=4, lanes=16, clock_hz=500e6)
        slow = KernelHardwareModel(n=256, radix=4, lanes=16, clock_hz=250e6)
        assert slow.latency_ns == pytest.approx(2 * fast.latency_ns)

    def test_multipliers_scale_with_lanes(self):
        narrow = KernelHardwareModel(n=256, radix=4, lanes=4, clock_hz=250e6)
        wide = KernelHardwareModel(n=256, radix=4, lanes=16, clock_hz=250e6)
        assert wide.real_multipliers == 4 * narrow.real_multipliers

    def test_summary_mentions_key_figures(self, model):
        text = model.summary()
        assert "2048-point" in text
        assert "32.00 GB/s" in text

    def test_kernel_exposes_hardware(self):
        kernel = StreamingFFT1D(2048, radix=4, lanes=16, clock_hz=250e6)
        assert kernel.hardware.throughput_bytes_per_s == pytest.approx(32e9)
        assert kernel.throughput_bytes_per_s == pytest.approx(32e9)
