#!/usr/bin/env python3
"""Exact-vs-vector timing engine equivalence gate.

Builds the full corpus -- every layout family x device config x trace
generator, under both scheduling disciplines, healthy and under every
builtin fault plan, as raw request arrays and as compiled run
descriptors -- prices each case on both engines and demands:

* **stat-for-stat equality**: the two :class:`AccessStats` compare
  ``==`` (not approximately; both engines share the integer-picosecond
  timebase, so agreement is exact or it is a bug);
* **fault-accounting equality**: the compiled fault summaries match
  field for field;
* **event-count equality**: the vector engine's aggregate
  activation/row-hit counters equal the number of ACTIVATE / ROW_HIT
  events the exact engine emits to a recorder.

Two sweep-sized traces (65,536 requests, :data:`STEADY_TRACES`) reach
the vector engine's steady-state path, which shifts repeated blocks
instead of pricing them; the summary counts the vector-priced cases
that did.  A structured JSON report (one record per case) is always
written; the exit status is nonzero iff any case disagrees or no case
shifted a block (so a silently disabled steady-state path fails too).
CI runs this as the ``engine-equivalence`` job and uploads the report
as an artifact on failure.

Usage::

    python tools/check_engine_equivalence.py [--report engine-equivalence-report.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    BlockDDLLayout,
    ColumnMajorLayout,
    EventTrace,
    Memory3D,
    RowMajorLayout,
    TiledLayout,
    TraceArray,
    block_column_read_trace,
    block_write_trace,
    column_walk_trace,
    compile_trace,
    row_walk_trace,
)
from repro.faults.plan import builtin_fault_plans  # noqa: E402
from repro.memory3d.config import (  # noqa: E402
    hmc_gen2_config,
    pact15_hmc_config,
    wideio_like_config,
)
from repro.trace.generators import (  # noqa: E402
    linear_trace,
    strided_trace,
    tiled_walk_trace,
)

#: Matrix edge for the corpus layouts: big enough to span banks, rows
#: and block seams on every config, small enough that the exact engine
#: prices the whole corpus in seconds.
N = 64

#: Matrix edge of the sweep-sized traces: one whole N=256 column phase
#: is 65,536 requests, the sweeps' pricing cap.
STEADY_N = 256

#: The sweep-sized traces, which repeat enough for steady-state pricing.
STEADY_TRACES = ("ddl-h1-read-256", "col-walk-rm-256")


def build_traces() -> dict[str, TraceArray]:
    """The trace corpus: one entry per generator x layout family."""
    rm = RowMajorLayout(N, N)
    cm = ColumnMajorLayout(N, N)
    tiled = TiledLayout(N, N, 16, 16)
    ddl = BlockDDLLayout(N, N, width=16, height=16)
    rng = np.random.default_rng(20150214)
    random_addr = rng.integers(0, (N * N), size=N * N, dtype=np.int64) * 8
    arrivals = np.cumsum(rng.uniform(0.0, 3.0, size=N * N))
    traces = {
        "linear": linear_trace(0, N * N),
        "strided-row": strided_trace(0, N * N, N * 8),
        "strided-bank": strided_trace(0, 2048, 1 << 15),
        "row-walk-rm": row_walk_trace(rm),
        "col-walk-rm": column_walk_trace(rm),
        "row-walk-cm": row_walk_trace(cm),
        "col-walk-cm": column_walk_trace(cm),
        "tiled-walk": tiled_walk_trace(tiled, 16, 16),
        "col-walk-tiled": column_walk_trace(tiled),
        "ddl-block-write": block_write_trace(ddl),
        "ddl-block-read": block_column_read_trace(ddl, n_streams=4),
        "ddl-narrow-read": block_column_read_trace(
            ddl, n_streams=4, whole_blocks=False
        ),
        "random": TraceArray(random_addr),
        "linear-arrivals": TraceArray(
            linear_trace(0, N * N).addresses, arrival_ns=arrivals
        ),
        "ddl-h1-read-256": block_column_read_trace(
            BlockDDLLayout(STEADY_N, STEADY_N, width=32, height=1), n_streams=8
        ),
        "col-walk-rm-256": column_walk_trace(RowMajorLayout(STEADY_N, STEADY_N)),
    }
    return traces


def build_configs() -> dict[str, Any]:
    """Device configs under test (the paper's part plus two variants)."""
    return {
        "pact15-hmc": pact15_hmc_config(),
        "hmc-gen2": hmc_gen2_config(),
        "wideio": wideio_like_config(),
    }


def _stats_dict(stats: Any) -> dict[str, Any]:
    """JSON-able dump of an AccessStats for the diff report."""
    return {
        "requests": stats.requests,
        "bytes_transferred": stats.bytes_transferred,
        "elapsed_ns": stats.elapsed_ns,
        "row_activations": stats.row_activations,
        "row_hits": stats.row_hits,
        "per_vault_busy_ns": {str(k): v for k, v in stats.per_vault_busy_ns.items()},
        "first_response_ns": stats.first_response_ns,
        "mean_request_latency_ns": stats.mean_request_latency_ns,
        "max_request_latency_ns": stats.max_request_latency_ns,
    }


def compare_case(
    config: Any,
    trace: Any,
    discipline: str,
    plan: Any,
) -> dict[str, Any]:
    """Price one corpus case on both engines; return the case record."""
    mem_exact = Memory3D(config)
    mem_vector = Memory3D(config)
    exact = mem_exact.simulate(
        trace, discipline=discipline, fault_plan=plan, engine="exact"
    )
    exact_summary = mem_exact.last_fault_summary if plan is not None else None
    vector = mem_vector.simulate(
        trace, discipline=discipline, fault_plan=plan, engine="vector"
    )
    vector_summary = mem_vector.last_fault_summary if plan is not None else None

    steady = mem_vector.last_steady_state
    record: dict[str, Any] = {
        "engine_used": mem_vector.last_engine,
        "fallback_reason": mem_vector.last_fallback_reason,
        "requests_shifted": steady.requests_extrapolated if steady else 0,
        "stats_equal": exact == vector,
        "summary_equal": exact_summary == vector_summary,
    }
    if not record["stats_equal"]:
        record["exact"] = _stats_dict(exact)
        record["vector"] = _stats_dict(vector)
    if not record["summary_equal"]:
        record["exact_summary"] = exact_summary
        record["vector_summary"] = vector_summary

    # Event-count cross-check (healthy runs: the recorder runs on the
    # exact loop, so we compare its event tally to the vector engine's
    # aggregate counters).
    if plan is None:
        recorder = EventTrace()
        Memory3D(config, recorder=recorder).simulate(
            trace, discipline=discipline, engine="exact"
        )
        counts = recorder.counts()
        record["events_equal"] = (
            counts.get("ACTIVATE", 0) == vector.row_activations
            and counts.get("ROW_HIT", 0) == vector.row_hits
        )
        if not record["events_equal"]:
            record["exact_events"] = counts
            record["vector_counts"] = {
                "ACTIVATE": vector.row_activations,
                "ROW_HIT": vector.row_hits,
            }
    else:
        record["events_equal"] = True
    record["ok"] = bool(
        record["stats_equal"] and record["summary_equal"] and record["events_equal"]
    )
    return record


def run_corpus() -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Run every corpus case; return (records, tally)."""
    traces = build_traces()
    configs = build_configs()
    plans: dict[str, Any] = {"healthy": None}
    plans.update(builtin_fault_plans(seed=7))

    records: list[dict[str, Any]] = []
    tally = {
        "cases": 0,
        "failed": 0,
        "vector_priced": 0,
        "fallbacks": 0,
        "shifted": 0,
    }
    for config_name, config in configs.items():
        for trace_name, trace in traces.items():
            for form in ("array", "compiled"):
                run_trace = compile_trace(trace) if form == "compiled" else trace
                for discipline in ("in_order", "per_vault"):
                    for plan_name, plan in plans.items():
                        if plan_name == "vault-failure" and config.vaults < 16:
                            # The builtin plan kills vaults 0/5/10/15.
                            continue
                        record = compare_case(config, run_trace, discipline, plan)
                        record.update(
                            config=config_name,
                            trace=trace_name,
                            form=form,
                            discipline=discipline,
                            plan=plan_name,
                        )
                        records.append(record)
                        tally["cases"] += 1
                        if not record["ok"]:
                            tally["failed"] += 1
                        if record["engine_used"] == "vector":
                            tally["vector_priced"] += 1
                            tally["shifted"] += record["requests_shifted"] > 0
                        else:
                            tally["fallbacks"] += 1
    return records, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        default="engine-equivalence-report.json",
        help="where to write the structured JSON diff report",
    )
    args = parser.parse_args(argv)

    records, tally = run_corpus()
    failures = [r for r in records if not r["ok"]]
    report = {
        "tally": tally,
        "failures": failures,
        "cases": records,
    }
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        f"engine equivalence: {tally['cases']} cases, "
        f"{tally['vector_priced']} vector-priced, "
        f"{tally['fallbacks']} exact fallbacks, "
        f"{tally['shifted']} shifted repeated blocks, "
        f"{tally['failed']} failed"
    )
    if failures:
        for rec in failures[:10]:
            print(
                f"  MISMATCH {rec['config']}/{rec['trace']}/{rec['form']}"
                f"/{rec['discipline']}/{rec['plan']}: "
                f"stats_equal={rec['stats_equal']} "
                f"summary_equal={rec['summary_equal']} "
                f"events_equal={rec['events_equal']}"
            )
        print(f"report: {args.report}")
        return 1
    if not tally["shifted"]:
        print("  no vector-priced case shifted a repeated block")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
