"""Streaming-panel matrix multiplication architectures (refs [13, 14]).

``C = A @ B`` with ``n x n`` complex matrices:

* a **panel** of ``panel_rows`` rows of A is loaded on chip (row-major
  streams -- cheap under any layout);
* **all of B streams past the panel, column by column**; each column
  produces one column-slice of the panel's C rows.  B is re-streamed once
  per panel, i.e. ``n / panel_rows`` times -- the dominant traffic;
* the finished C panel is written back row-major.

B's column streams make its layout the performance knob: row-major B
collapses exactly like the paper's FFT column phase, while column-major
or block-DDL B streams at device bandwidth.  The compute side is a MAC
array of ``macs`` complex multiply-accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SystemConfig
from repro.core.memory_image import MemoryImage
from repro.core.simulate import column_phase_layout, phase_trace
from repro.errors import ConfigError
from repro.layouts import BlockDDLLayout, Layout
from repro.memory3d.memory import Memory3D
from repro.units import ELEMENT_BYTES, is_power_of_two

#: B-matrix layout choices.
B_LAYOUTS = ("row-major", "column-major", "block-ddl")


@dataclass(frozen=True)
class MatMulMetrics:
    """Performance of one n x n multiplication."""

    n: int
    b_layout: str
    memory_time_ns: float
    compute_time_ns: float
    b_stream_bandwidth: float

    @property
    def time_ns(self) -> float:
        """Streaming design: memory and compute overlap."""
        return max(self.memory_time_ns, self.compute_time_ns)

    @property
    def bound(self) -> str:
        return "memory" if self.memory_time_ns > self.compute_time_ns else "compute"

    @property
    def gflops(self) -> float:
        """Complex MACs counted as 8 real flops (4 mult + 4 add)."""
        flops = 8.0 * self.n**3
        return flops / (self.time_ns / 1e9) / 1e9

    def speedup_over(self, other: "MatMulMetrics") -> float:
        """How many times faster this configuration is than ``other``."""
        return other.time_ns / self.time_ns


class MatMulArchitecture:
    """Streaming-panel matmul with a configurable B layout."""

    def __init__(
        self,
        n: int,
        config: SystemConfig | None = None,
        b_layout: str = "block-ddl",
        panel_rows: int = 16,
        macs: int = 512,
        clock_hz: float = 250e6,
    ) -> None:
        if n < 4 or not is_power_of_two(n):
            raise ConfigError(f"matrix size must be a power of two >= 4, got {n}")
        if b_layout not in B_LAYOUTS:
            raise ConfigError(f"b_layout must be one of {B_LAYOUTS}, got {b_layout!r}")
        if panel_rows < 1 or n % panel_rows:
            raise ConfigError(
                f"panel_rows ({panel_rows}) must divide the matrix size ({n})"
            )
        if macs < 1 or clock_hz <= 0:
            raise ConfigError("macs and clock must be positive")
        self.n = n
        self.config = config or SystemConfig()
        self.b_layout_name = b_layout
        self.panel_rows = panel_rows
        self.macs = macs
        self.clock_hz = clock_hz

    # ---------------------------------------------------------------- layout
    def build_b_layout(self) -> Layout:
        """Instantiate B's layout (``block-ddl`` applies Eq. (1))."""
        name = "ddl" if self.b_layout_name == "block-ddl" else self.b_layout_name
        return column_phase_layout(self.config, self.n, name)

    # ------------------------------------------------------------- evaluate
    def evaluate(self, max_requests: int = 65_536) -> MatMulMetrics:
        """Trace-driven performance of the whole multiplication."""
        n = self.n
        b_layout = self.build_b_layout()

        # Representative B column-stream slice, priced by the simulator.
        blocked = isinstance(b_layout, BlockDDLLayout)
        phase = phase_trace(
            b_layout,
            "block-reads" if blocked else "column-walk",
            max_requests,
            streams=self.config.column_streams,
            discipline="in_order" if self.b_layout_name == "row-major" else "per_vault",
        )
        b_rate = phase.price(Memory3D(self.config.memory)).bandwidth_bytes_per_s

        panels = n // self.panel_rows
        b_traffic = panels * n * n * ELEMENT_BYTES          # B re-streamed per panel
        a_traffic = n * n * ELEMENT_BYTES                    # A read once
        c_traffic = n * n * ELEMENT_BYTES                    # C written once
        # A and C are unit-stride streams at device bandwidth.
        memory_time_ns = (
            b_traffic / b_rate
            + (a_traffic + c_traffic) / self.config.peak_bandwidth
        ) * 1e9

        complex_macs = n**3
        compute_time_ns = complex_macs / (self.macs * self.clock_hz) * 1e9
        return MatMulMetrics(
            n=n,
            b_layout=self.b_layout_name,
            memory_time_ns=memory_time_ns,
            compute_time_ns=compute_time_ns,
            b_stream_bandwidth=b_rate,
        )

    # -------------------------------------------------------------- function
    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Actually multiply, with B round-tripping through its layout.

        The panel loop mirrors the hardware schedule: A panels arrive
        row-major, B is fetched column by column *through its layout's
        addresses* in a memory image, C panels are emitted row-major.
        """
        n = self.n
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        if a.shape != (n, n) or b.shape != (n, n):
            raise ConfigError(f"operands must be {n}x{n}, got {a.shape} and {b.shape}")
        b_layout = self.build_b_layout()
        image = MemoryImage(b_layout.footprint_bytes)
        image.store_matrix(b_layout, b)

        c = np.empty((n, n), dtype=np.complex128)
        for start in range(0, n, self.panel_rows):
            panel = a[start : start + self.panel_rows]
            b_streamed = image.load_columns(b_layout, range(n))
            c[start : start + self.panel_rows] = panel @ b_streamed
        return c

    def __repr__(self) -> str:
        return (
            f"MatMulArchitecture(n={self.n}, b_layout={self.b_layout_name!r}, "
            f"panel_rows={self.panel_rows})"
        )


def matmul_baseline(n: int, config: SystemConfig | None = None) -> MatMulArchitecture:
    """All-row-major matmul (the naive port)."""
    return MatMulArchitecture(n, config=config, b_layout="row-major")


def matmul_optimized(n: int, config: SystemConfig | None = None) -> MatMulArchitecture:
    """Matmul with B in the Eq. (1) block layout."""
    return MatMulArchitecture(n, config=config, b_layout="block-ddl")
