"""Fixed-point FFT emulation and SNR behaviour."""

import numpy as np
import pytest

from repro.errors import FFTError
from repro.fft.quantization import (
    FixedPointFFT,
    FixedPointFormat,
    snr_vs_wordlength,
)


class TestFormat:
    def test_step(self):
        assert FixedPointFormat(frac_bits=15).step == 2.0**-15

    def test_total_bits(self):
        assert FixedPointFormat(frac_bits=15, int_bits=1).total_bits == 17

    def test_quantize_rounds(self):
        fmt = FixedPointFormat(frac_bits=2)  # step 0.25
        out = fmt.quantize(np.array([0.3 + 0.6j]))
        assert out[0] == pytest.approx(0.25 + 0.5j)

    def test_quantize_saturates(self):
        fmt = FixedPointFormat(frac_bits=4, int_bits=1)
        out = fmt.quantize(np.array([5.0 - 5.0j]))
        assert out[0].real == pytest.approx(2.0 - fmt.step)
        assert out[0].imag == pytest.approx(-2.0)

    def test_rejects_bad_format(self):
        with pytest.raises(FFTError):
            FixedPointFormat(frac_bits=0)


class TestFixedPointFFT:
    def test_wide_format_matches_exact(self, rng):
        n = 64
        fft = FixedPointFFT(n, FixedPointFormat(frac_bits=40))
        x = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        exact = np.fft.fft(x) / n
        assert np.allclose(fft.transform(x), exact, atol=1e-9)

    def test_output_is_1_over_n_scaled(self, rng):
        n = 32
        fft = FixedPointFFT(n, FixedPointFormat(frac_bits=30))
        x = np.zeros(n, dtype=complex)
        x[0] = 0.5
        out = fft.transform(x)
        assert np.allclose(out, 0.5 / n, atol=1e-6)

    def test_snr_improves_with_bits(self, rng):
        n = 128
        x = 0.3 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        narrow = FixedPointFFT(n, FixedPointFormat(frac_bits=8)).snr_db(x)
        wide = FixedPointFFT(n, FixedPointFormat(frac_bits=16)).snr_db(x)
        assert wide > narrow + 30  # ~6 dB per bit

    def test_six_db_per_bit_law(self):
        results = snr_vs_wordlength(256, frac_bits=(10, 14))
        assert results[14] - results[10] == pytest.approx(24.0, abs=4.0)

    def test_larger_fft_slightly_noisier(self):
        small = snr_vs_wordlength(64, frac_bits=(12,))[12]
        large = snr_vs_wordlength(1024, frac_bits=(12,))[12]
        assert large < small

    def test_q1_15_datapath_is_adequate_at_2048(self):
        """A 16-bit (Q1.15) kernel keeps > 55 dB SNR at N=2048."""
        assert snr_vs_wordlength(2048, frac_bits=(15,))[15] > 55.0

    def test_wrong_length_rejected(self, rng):
        fft = FixedPointFFT(32)
        with pytest.raises(FFTError):
            fft.transform(np.zeros(16, dtype=complex))

    def test_rejects_bad_size(self):
        with pytest.raises(FFTError):
            FixedPointFFT(20)

    def test_infinite_snr_for_exact_zero_noise(self):
        fft = FixedPointFFT(4, FixedPointFormat(frac_bits=45))
        x = np.zeros(4, dtype=complex)
        assert fft.snr_db(x) == float("inf")
