"""Deterministic, seeded fault injection for the 3D-memory simulator.

The subsystem separates three concerns:

* :mod:`repro.faults.injectors` -- the five declarative failure modes
  (dead vaults, latency jitter, refresh storms, thermal throttling,
  bit errors), each a frozen pure-literal dataclass.
* :mod:`repro.faults.plan` -- :class:`FaultPlan` composition, JSON/TOML
  spec loading, and :func:`compile_plan`, which turns a plan into the
  seeded per-run :class:`FaultState` the timing engines consume.
* :mod:`repro.faults.report` -- the degradation report comparing how
  the paper's layouts survive each fault class.

Everything is deterministic under a fixed plan seed: draws come from
``(seed, injector index)`` sub-streams, so results are reproducible
across machines and worker processes.
"""

from repro.faults.injectors import (
    INJECTOR_KINDS,
    BitErrorModel,
    Injector,
    LatencyJitter,
    RefreshStorm,
    ThermalThrottle,
    VaultFailure,
    injector_from_dict,
)
from repro.faults.plan import (
    FaultPlan,
    FaultState,
    builtin_fault_plans,
    compile_plan,
    fault_plan_from_dict,
    load_fault_plan,
    plan_to_dict,
)
from repro.faults.report import (
    REPORT_LAYOUTS,
    column_phase_stats,
    degradation_report,
    render_degradation,
)
from repro.memory3d.prepare import ERR_CORRECTED, ERR_NONE, ERR_UNCORRECTABLE

__all__ = [
    "ERR_CORRECTED",
    "ERR_NONE",
    "ERR_UNCORRECTABLE",
    "INJECTOR_KINDS",
    "REPORT_LAYOUTS",
    "BitErrorModel",
    "FaultPlan",
    "FaultState",
    "Injector",
    "LatencyJitter",
    "RefreshStorm",
    "ThermalThrottle",
    "VaultFailure",
    "builtin_fault_plans",
    "column_phase_stats",
    "compile_plan",
    "degradation_report",
    "fault_plan_from_dict",
    "injector_from_dict",
    "load_fault_plan",
    "plan_to_dict",
    "render_degradation",
]
