"""Optimal block geometry -- paper Eq. (1).

Given the memory timing parameters, the row-buffer capacity ``s`` (in
elements), the banks per vault ``b``, the number of vaults ``n_v`` a single
kernel stream engages, and the FFT problem dimension ``m`` (= N for an
N x N 2D FFT), the paper picks the block height ``h`` piecewise::

    h = n_v * s * b / m              if 0 < m <  s*b * t_in_row / t_diff_row
    h = n_v * t_diff_bank / t_in_row if      ... <= m < s*b
    h = n_v * t_diff_row  / t_in_row if m >= s*b

and ``w = s / h``.  The published equation is OCR-damaged; this module
implements the reconstruction argued in DESIGN.md: each case makes the
data streamed per row visit (``h`` elements at ``t_in_row`` each) cover the
activate-to-activate gap of the bank that serves the next block -- the
same-bank row cycle ``t_diff_row`` for large matrices (block columns stride
far enough to wrap onto one bank), the cross-bank ``t_diff_bank`` for
mid-size matrices, and a capacity-driven expression when the whole matrix
is small enough to spread across all banks.

The raw value is rounded **up** to a power of two (so ``w = s/h`` stays
integral) and clamped to ``[1, min(s, m)]``.  The trace-driven simulator
verifies that the resulting layout actually hides all activations
(``tests/test_core_simulate.py::TestHeightAblation`` sweeps ``h`` to show
the knee).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError
from repro.memory3d.config import Memory3DConfig
from repro.units import next_power_of_two


class LayoutRegime(Enum):
    """Which piece of Eq. (1) applied."""

    SMALL_MATRIX = "small_matrix"
    CROSS_BANK = "cross_bank"
    SAME_BANK = "same_bank"


@dataclass(frozen=True)
class BlockGeometry:
    """Chosen block shape plus provenance.

    Attributes:
        width: block width ``w`` in matrix columns.
        height: block height ``h`` in matrix rows.
        raw_height: the un-rounded Eq. (1) value.
        regime: which piecewise case applied.
        row_elements: the row-buffer capacity the block fills.
    """

    width: int
    height: int
    raw_height: float
    regime: LayoutRegime
    row_elements: int

    @property
    def elements(self) -> int:
        """Elements per block (equals the row-buffer capacity)."""
        return self.width * self.height

    def hides_activation(self, config: Memory3DConfig, n_v: int = 1) -> bool:
        """True if ``h`` beats per visit cover the governing activate gap."""
        timing = config.timing
        gap = (
            timing.t_diff_row
            if self.regime is LayoutRegime.SAME_BANK
            else timing.t_diff_bank
        )
        return self.height * timing.t_in_row * max(n_v, 1) >= gap


def optimal_block_geometry(
    config: Memory3DConfig,
    problem_size: int,
    n_v: int = 1,
) -> BlockGeometry:
    """Apply paper Eq. (1) and return the block shape for an N x N 2D FFT.

    Args:
        config: the 3D memory whose timing parameters govern the choice.
        problem_size: the FFT dimension ``m`` (= N).
        n_v: vaults engaged in parallel by one kernel stream (paper's
            ``n_v``; the evaluated architecture dedicates one vault per
            stream, ``n_v = 1``).

    Returns:
        The chosen :class:`BlockGeometry`.

    Raises:
        ConfigError: on non-positive inputs.
    """
    if problem_size <= 0:
        raise ConfigError(f"problem_size must be positive, got {problem_size}")
    if n_v <= 0:
        raise ConfigError(f"n_v must be positive, got {n_v}")
    if n_v > config.vaults:
        raise ConfigError(
            f"n_v={n_v} exceeds the device's {config.vaults} vaults"
        )

    timing = config.timing
    s = config.row_elements
    b = config.banks_per_vault
    small_cutoff = s * b * timing.t_in_row / timing.t_diff_row

    if problem_size < small_cutoff:
        regime = LayoutRegime.SMALL_MATRIX
        raw = n_v * s * b / problem_size
    elif problem_size < s * b:
        regime = LayoutRegime.CROSS_BANK
        raw = n_v * timing.t_diff_bank / timing.t_in_row
    else:
        regime = LayoutRegime.SAME_BANK
        raw = n_v * timing.t_diff_row / timing.t_in_row

    height = next_power_of_two(max(1, round(raw)))
    if height < raw:
        height *= 2
    # A block cannot be taller than the matrix or the row buffer.
    height = min(height, s, next_power_of_two(problem_size))
    width = s // height
    return BlockGeometry(
        width=width,
        height=height,
        raw_height=raw,
        regime=regime,
        row_elements=s,
    )
