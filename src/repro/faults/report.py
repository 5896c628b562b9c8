"""Degradation reporting: layout bandwidth under injected faults.

The paper's argument for the block DDL is a *healthy-device* argument:
with all vaults alive the blocked layout turns the column phase from a
row-activation storm into parallel near-peak streams.  This module asks
the robustness question a deployment cares about: **how does each layout
degrade when the device misbehaves?**  For every shipped fault class
(:func:`~repro.faults.plan.builtin_fault_plans`) it prices the column
phase under ``row-major``, ``column-major`` and ``block-ddl`` and
reports retained bandwidth plus the DDL's surviving advantage.

The headline result -- pinned by the regression suite -- is that the
DDL degrades *gracefully*: its bandwidth advantage over the row-major
baseline shrinks under every fault class but never inverts, because the
faults tax both layouts' streams while only the baseline also pays the
activation storm.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.core.config import SystemConfig
from repro.core.simulate import column_phase_trace
from repro.faults.plan import FaultPlan, builtin_fault_plans
from repro.memory3d.memory import Memory3D
from repro.memory3d.stats import AccessStats

#: The layouts a degradation report compares, in row order.
REPORT_LAYOUTS = ("row-major", "column-major", "block-ddl")

#: Default matrix size for degradation reports (large enough that the
#: column phase shows the paper's bandwidth cliff, small enough to run
#: in a smoke test).
DEFAULT_N = 512

#: Default cap on simulated requests per cell.
DEFAULT_MAX_REQUESTS = 32_768


def _core_name(layout: str) -> str:
    """The core.simulate name of a report layout."""
    return "ddl" if layout == "block-ddl" else layout


def column_phase_stats(
    config: SystemConfig,
    n: int,
    layout: str,
    max_requests: int = DEFAULT_MAX_REQUESTS,
    fault_plan: FaultPlan | None = None,
) -> AccessStats:
    """Column-phase :class:`AccessStats` for one layout, optionally faulted.

    Runs the same trace shape the reproduction report uses (stride walks
    for the flat layouts, parallel block-column streams for the DDL) on
    a fresh :class:`~repro.memory3d.memory.Memory3D`, capped at
    ``max_requests`` simulated accesses.  An unknown layout raises
    :class:`~repro.errors.SimulationError`.
    """
    phase = column_phase_trace(config, n, _core_name(layout), max_requests)
    return phase.price(Memory3D(config.memory), fault_plan=fault_plan)


def degradation_report(
    config: SystemConfig | None = None,
    n: int = DEFAULT_N,
    max_requests: int = DEFAULT_MAX_REQUESTS,
    seed: int = 0,
    plans: Mapping[str, FaultPlan] | None = None,
) -> dict[str, Any]:
    """Quantify how each layout's column-phase bandwidth survives faults.

    For every layout in :data:`REPORT_LAYOUTS` and every plan (default:
    the shipped :func:`~repro.faults.plan.builtin_fault_plans`), the
    report records achieved GB/s, the fraction of healthy bandwidth
    retained, and the fault accounting; an ``advantage`` table gives the
    DDL's bandwidth ratio over row-major, healthy and per fault class.

    Fully deterministic under a fixed ``seed`` -- the JSON-able return
    value is byte-stable across runs and machines.
    """
    config = config or SystemConfig()
    plans = dict(plans) if plans is not None else builtin_fault_plans(seed)
    layouts: dict[str, Any] = {}
    for layout in REPORT_LAYOUTS:
        phase = column_phase_trace(config, n, _core_name(layout), max_requests)
        memory = Memory3D(config.memory)
        healthy = phase.price(memory)
        cells: dict[str, Any] = {}
        for name, plan in plans.items():
            faulted = phase.price(memory, fault_plan=plan)
            retained = (
                faulted.bandwidth_gbps / healthy.bandwidth_gbps
                if healthy.bandwidth_gbps > 0 else 0.0
            )
            cells[name] = {
                "bandwidth_gbps": faulted.bandwidth_gbps,
                "retained": retained,
                "faults": memory.last_fault_summary,
            }
        layouts[layout] = {
            "discipline": phase.discipline,
            "healthy_gbps": healthy.bandwidth_gbps,
            "plans": cells,
        }
    advantage: dict[str, float] = {}
    ddl = layouts["block-ddl"]
    base = layouts["row-major"]
    if base["healthy_gbps"] > 0:
        advantage["healthy"] = ddl["healthy_gbps"] / base["healthy_gbps"]
    for name in plans:
        base_gbps = base["plans"][name]["bandwidth_gbps"]
        if base_gbps > 0:
            advantage[name] = ddl["plans"][name]["bandwidth_gbps"] / base_gbps
    return {
        "n": n,
        "max_requests": max_requests,
        "seed": seed,
        "plans": sorted(plans),
        "layouts": layouts,
        "advantage": advantage,
    }


def degradation_rows(
    report: Mapping[str, Any],
) -> tuple[list[str], list[list[str]]]:
    """The degradation table as (header, formatted rows).

    Shared by the markdown renderer below and the HTML run report
    (:mod:`repro.obs.report`), so both always show the same cells.
    """
    header = ["layout", "healthy"] + [str(p) for p in report["plans"]]
    rows = []
    for layout in REPORT_LAYOUTS:
        entry = report["layouts"][layout]
        row = [layout, f"{entry['healthy_gbps']:.2f} GB/s"]
        for plan in report["plans"]:
            cell = entry["plans"][plan]
            row.append(
                f"{cell['bandwidth_gbps']:.2f} GB/s "
                f"({100 * cell['retained']:.0f}%)"
            )
        rows.append(row)
    return header, rows


def render_degradation(
    report: Mapping[str, Any], heading: str | None = None
) -> str:
    """Render a :func:`degradation_report` as a markdown document.

    ``heading`` overrides the default top-level title (useful when the
    table is embedded as a section of a larger report).
    """
    if heading is None:
        heading = (
            f"# Fault degradation report (N={report['n']}, "
            f"seed={report['seed']})"
        )
    lines = [
        heading,
        "",
        "Column-phase bandwidth per layout, healthy and under each fault "
        "class; `retained` is the fraction of the layout's own healthy "
        "bandwidth that survives.",
        "",
    ]
    header, rows = degradation_rows(report)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines += [
        "",
        "DDL bandwidth advantage over row-major (ratio, >1 means the "
        "blocked layout still wins):",
        "",
    ]
    for name, ratio in report["advantage"].items():
        lines.append(f"- {name}: **{ratio:.1f}x**")
    lines.append("")
    return "\n".join(lines)
