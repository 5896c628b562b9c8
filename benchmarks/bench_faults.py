"""Robustness guard -- graceful degradation under injected faults.

The fault subsystem's two claims, pinned:

* **graceful degradation**: the block DDL keeps a column-phase bandwidth
  advantage over row-major under *every* shipped fault class -- faults
  shrink the margin, they never invert it;
* **bounded cost**: a faulted run of the exact loop is a constant
  factor of a healthy run of the same loop (the plan adds its
  precomputed service tail and its window checks), and the full
  degradation report finishes in seconds.

Determinism is asserted outright: the same seed must reproduce the
byte-identical report.  The run writes ``BENCH_faults.json`` for
``tools/check_bench.py``, CI's benchmark-regression gate.

Run quick mode (``pytest benchmarks/bench_faults.py --quick``) for the
CI smoke variant: a smaller matrix and request budget.
"""

from __future__ import annotations

import json
import time

from conftest import banner, write_bench_json
from repro.faults import builtin_fault_plans, degradation_report
from repro.layouts import BlockDDLLayout, optimal_block_geometry
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.trace import block_column_read_trace

#: Workload per mode: (N, max_requests, healthy advantage floor).
FULL = (512, 32_768, 10.0)
QUICK = (256, 8_192, 5.0)


def test_degradation_and_fault_loop_cost(quick):
    n, requests, advantage_floor = QUICK if quick else FULL

    start = time.perf_counter()
    report = degradation_report(n=n, max_requests=requests)
    report_s = time.perf_counter() - start
    again = degradation_report(n=n, max_requests=requests)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        again, sort_keys=True
    ), "degradation report must be deterministic under a fixed seed"

    advantage = report["advantage"]
    faulted_advantages = {k: v for k, v in advantage.items() if k != "healthy"}
    ddl = report["layouts"]["block-ddl"]
    retained_min = min(
        cell["retained"] for cell in ddl["plans"].values()
    )

    # Fault overhead on the exact loop: the same DDL trace priced healthy
    # and under the jitter plan (every request pays its service tail).
    config = pact15_hmc_config()
    geometry = optimal_block_geometry(config, n)
    layout = BlockDDLLayout(n, n, geometry.width, geometry.height)
    trace = block_column_read_trace(layout, n_streams=2, block_cols=range(2))
    memory = Memory3D(config)
    plan = builtin_fault_plans()["latency-jitter"]
    memory.simulate(trace, "per_vault", sample=requests)  # warm-up
    start = time.perf_counter()
    memory.simulate(trace, "per_vault", sample=requests)
    healthy_s = time.perf_counter() - start
    start = time.perf_counter()
    memory.simulate(trace, "per_vault", sample=requests, fault_plan=plan)
    faulted_s = time.perf_counter() - start
    overhead_x = faulted_s / healthy_s if healthy_s > 0 else 1.0

    print(banner("FAULTS: DDL advantage under every fault class"))
    print(f"  report              : N={n}, {requests:,} requests/cell, "
          f"{report_s:.2f} s")
    print(f"  healthy advantage   : {advantage['healthy']:.1f}x over row-major")
    for name in sorted(faulted_advantages):
        print(f"  {name:<20}: {faulted_advantages[name]:.1f}x "
              f"(DDL retains {100 * ddl['plans'][name]['retained']:.0f}%)")
    print(f"  fault-plan cost     : {overhead_x:.2f}x a healthy run")

    write_bench_json(
        "faults",
        {
            "advantage_healthy": advantage["healthy"],
            "advantage_min_faulted": min(faulted_advantages.values()),
            "retained_ddl_min": retained_min,
            "report_s": report_s,
            "faulted_overhead_x": overhead_x,
        },
        info={"n": n, "requests": requests, "quick": quick,
              "plans": report["plans"]},
    )

    # The pinned claims.
    assert advantage["healthy"] >= advantage_floor
    for name, ratio in faulted_advantages.items():
        assert ratio > 1.0, (
            f"{name}: DDL advantage inverted ({ratio:.2f}x <= 1)"
        )
    assert retained_min > 0.1, (
        f"DDL bandwidth collapsed under a fault class ({retained_min:.2f})"
    )
