"""Energy accounting for the 3D MI-FPGA system.

The paper's lineage is explicitly energy-driven: the authors' kernel
components carry the energy optimizations of refs [3-5], and ref [6]
(the work this paper extends to 3D memory) optimizes *DRAM row-activation
energy* for stride access.  This package prices the same quantities for
our architectures:

* row-activation energy (the dominant waste of the baseline column walk),
* DRAM array access and TSV transfer energy per byte moved,
* on-chip SRAM energy for the DDL's staging/permutation buffers,
* FFT datapath energy per butterfly/multiply.

so the DDL's activation-energy savings — the headline of ref [6] — can be
reproduced quantitatively (``tests/test_energy.py::TestDDLActivationSavings``).
"""

from repro.energy.params import EnergyParameters, pact15_energy_params
from repro.energy.model import (
    ColumnEnergyComparison,
    EnergyBreakdown,
    EnergyModel,
    column_energy_comparison,
)

__all__ = [
    "ColumnEnergyComparison",
    "EnergyBreakdown",
    "EnergyModel",
    "column_energy_comparison",
    "EnergyParameters",
    "pact15_energy_params",
]
