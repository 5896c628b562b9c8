"""Unit helpers: time, frequency, bandwidth and size conversions.

The paper quotes throughput in GB/s (and, for the baseline column phase,
Gb/s), latency in ns, clocks in MHz and row buffers in bytes.  Keeping the
conversions in one place avoids the classic factor-of-8 and 1000-vs-1024
mistakes.  Internally the library uses:

* time        -- nanoseconds (float)
* frequency   -- hertz (float)
* bandwidth   -- bytes per second (float)
* sizes       -- bytes (int)

All conversions use decimal (SI) multipliers, matching the paper's GB/s.
"""

from __future__ import annotations

#: Number of bytes occupied by one complex sample (32-bit real + 32-bit imag).
ELEMENT_BYTES = 8

#: SI multipliers.
KILO = 1_000.0
MEGA = 1_000_000.0
GIGA = 1_000_000_000.0

#: One second expressed in nanoseconds.
NS_PER_S = 1e9


def ns_to_s(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_S


def s_to_ns(seconds: float) -> float:
    """Convert seconds to nanoseconds."""
    return seconds * NS_PER_S


def mhz(value: float) -> float:
    """A frequency given in MHz, as Hz."""
    return value * MEGA


def ghz(value: float) -> float:
    """A frequency given in GHz, as Hz."""
    return value * GIGA


def period_ns(freq_hz: float) -> float:
    """Clock period in nanoseconds for a frequency in Hz."""
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return NS_PER_S / freq_hz


def gbps(value: float) -> float:
    """A bandwidth given in GB/s, as bytes/second."""
    return value * GIGA


def to_gbps(bytes_per_second: float) -> float:
    """Express a bytes/second bandwidth in GB/s."""
    return bytes_per_second / GIGA


def to_gbitps(bytes_per_second: float) -> float:
    """Express a bytes/second bandwidth in Gb/s (gigabits)."""
    return bytes_per_second * 8.0 / GIGA


def bandwidth_bytes_per_s(total_bytes: int, elapsed_ns: float) -> float:
    """Average bandwidth in bytes/second over an interval in nanoseconds."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_ns} ns")
    return total_bytes / ns_to_s(elapsed_ns)


def elements_to_bytes(n_elements: int) -> int:
    """Size in bytes of ``n_elements`` complex samples."""
    return n_elements * ELEMENT_BYTES


def bytes_to_elements(n_bytes: int) -> int:
    """Number of complex samples that fit in ``n_bytes`` (must divide evenly)."""
    if n_bytes % ELEMENT_BYTES:
        raise ValueError(
            f"{n_bytes} bytes is not a whole number of {ELEMENT_BYTES}-byte elements"
        )
    return n_bytes // ELEMENT_BYTES


def is_power_of_two(value: int) -> bool:
    """True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= ``value`` (value must be positive)."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    return 1 << (value - 1).bit_length()


def ilog2(value: int) -> int:
    """Integer log2 of a power of two."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1
