"""Energy accounting over simulation statistics and kernel models.

The model composes three meters:

* **memory**: activations x activation energy + bytes x streaming energy
  (taken from an :class:`~repro.memory3d.stats.AccessStats`);
* **reorganization**: every staged element is written into and read out
  of the on-chip slab buffer, plus the permutation-network buffer traffic;
* **kernel**: real-operation counts from the
  :class:`~repro.fft.kernel1d.KernelHardwareModel` times the per-op cost.

All results are reported in nanojoules via :class:`EnergyBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.core.simulate import phase_trace
from repro.energy.params import EnergyParameters, pact15_energy_params
from repro.errors import SimulationError
from repro.fft.kernel1d import KernelHardwareModel
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d.memory import Memory3D
from repro.memory3d.stats import AccessStats
from repro.units import ELEMENT_BYTES


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one phase or application run, in nanojoules."""

    activation_nj: float = 0.0
    dram_transfer_nj: float = 0.0
    tsv_transfer_nj: float = 0.0
    sram_nj: float = 0.0
    kernel_nj: float = 0.0

    @property
    def memory_nj(self) -> float:
        """All external-memory energy (activation + array + TSV)."""
        return self.activation_nj + self.dram_transfer_nj + self.tsv_transfer_nj

    @property
    def total_nj(self) -> float:
        return self.memory_nj + self.sram_nj + self.kernel_nj

    def per_element_pj(self, n_elements: int) -> float:
        """Average picojoules spent per complex element processed."""
        if n_elements <= 0:
            raise SimulationError("n_elements must be positive")
        return self.total_nj * 1e3 / n_elements

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            activation_nj=self.activation_nj + other.activation_nj,
            dram_transfer_nj=self.dram_transfer_nj + other.dram_transfer_nj,
            tsv_transfer_nj=self.tsv_transfer_nj + other.tsv_transfer_nj,
            sram_nj=self.sram_nj + other.sram_nj,
            kernel_nj=self.kernel_nj + other.kernel_nj,
        )

    def summary(self) -> str:
        """One-line component split."""
        return (
            f"total {self.total_nj / 1e6:.3f} mJ = "
            f"activation {self.activation_nj / 1e6:.3f} + "
            f"DRAM {self.dram_transfer_nj / 1e6:.3f} + "
            f"TSV {self.tsv_transfer_nj / 1e6:.3f} + "
            f"SRAM {self.sram_nj / 1e6:.3f} + "
            f"kernel {self.kernel_nj / 1e6:.3f} mJ"
        )


class EnergyModel:
    """Prices memory traffic, on-chip staging and FFT compute."""

    def __init__(self, params: EnergyParameters | None = None) -> None:
        self.params = params or pact15_energy_params()

    # --------------------------------------------------------------- memory
    def memory_energy(self, stats: AccessStats) -> EnergyBreakdown:
        """Energy of the external-memory traffic a simulation measured."""
        p = self.params
        return EnergyBreakdown(
            activation_nj=stats.row_activations * p.activation_nj,
            dram_transfer_nj=stats.bytes_transferred
            * p.dram_access_pj_per_byte
            / 1e3,
            tsv_transfer_nj=stats.bytes_transferred * p.tsv_pj_per_byte / 1e3,
        )

    # -------------------------------------------------------------- staging
    def reorganization_energy(
        self, staged_elements: int, network_buffer_accesses: int = 0
    ) -> EnergyBreakdown:
        """On-chip cost of the DDL: each staged element is written to and
        read from the slab buffer once; network buffer traffic is extra."""
        if staged_elements < 0 or network_buffer_accesses < 0:
            raise SimulationError("element counts must be non-negative")
        traffic_bytes = (2 * staged_elements + network_buffer_accesses) * ELEMENT_BYTES
        return EnergyBreakdown(
            sram_nj=traffic_bytes * self.params.sram_pj_per_byte / 1e3
        )

    # --------------------------------------------------------------- kernel
    def kernel_energy(
        self, hardware: KernelHardwareModel, transforms: int
    ) -> EnergyBreakdown:
        """Datapath energy of running ``transforms`` n-point FFTs.

        Ops per transform follow the classic counts: each stage touches all
        ``n`` samples; adders/subtractors and multipliers fire once per
        sample per stage they serve.
        """
        if transforms < 0:
            raise SimulationError("transforms must be non-negative")
        n = hardware.n
        samples_per_stage = n
        # Real ops per sample: the stage's add/sub tree plus (except the
        # trivially-twiddled last stage) one complex multiply = 4 mult + 2 add.
        radix_ops = {2: 4, 4: 16}[hardware.radix] / hardware.radix
        ops = 0.0
        for index in range(hardware.stages):
            ops += samples_per_stage * radix_ops
            if index < hardware.stages - 1:
                ops += samples_per_stage * 6  # complex multiplier
        total_ops = ops * transforms
        return EnergyBreakdown(kernel_nj=total_ops * self.params.fft_op_pj / 1e3)

    # --------------------------------------------------------------- system
    def application_energy(
        self,
        phase_stats: list[AccessStats],
        hardware: KernelHardwareModel,
        transforms: int,
        staged_elements: int = 0,
    ) -> EnergyBreakdown:
        """Whole-application energy: all phases' memory traffic, the
        kernel's transforms, and any staging the layout required."""
        total = EnergyBreakdown()
        for stats in phase_stats:
            total = total + self.memory_energy(stats)
        total = total + self.kernel_energy(hardware, transforms)
        total = total + self.reorganization_energy(staged_elements)
        return total


@dataclass(frozen=True)
class ColumnEnergyComparison:
    """Baseline vs DDL column-phase energy over the same ``columns``."""

    columns: int
    baseline_stats: AccessStats
    ddl_stats: AccessStats
    baseline: EnergyBreakdown
    ddl: EnergyBreakdown

    @property
    def ratio(self) -> float:
        """How many times the DDL's energy the baseline spends."""
        return self.baseline.total_nj / self.ddl.total_nj


def column_energy_comparison(
    config: SystemConfig, n: int, max_requests: int
) -> ColumnEnergyComparison:
    """Column-phase energy of the baseline and the DDL over ``2 * w`` columns.

    The baseline walks the columns row-major; the DDL reads them as two
    block-column streams and also pays for reorganizing them on chip.
    ``repro energy`` and the reproduction report both render this.
    """
    geometry = optimal_block_geometry(config.memory, n)
    columns = 2 * geometry.width
    memory = Memory3D(config.memory)
    baseline_stats = phase_trace(
        RowMajorLayout(n, n), "column-walk", max_requests, units=columns
    ).price(memory)
    ddl_phase = phase_trace(
        BlockDDLLayout(n, n, geometry.width, geometry.height),
        "block-reads", max_requests, streams=2,
    )
    ddl_stats = ddl_phase.price(memory)
    model = EnergyModel()
    return ColumnEnergyComparison(
        columns=columns,
        baseline_stats=baseline_stats,
        ddl_stats=ddl_stats,
        baseline=model.memory_energy(baseline_stats),
        ddl=model.memory_energy(ddl_stats)
        + model.reorganization_energy(ddl_phase.extent),
    )
