"""Engineering guard -- structured logging must not tax the sweep worker.

The logging layer gates every emit on one integer compare
(:meth:`repro.obs.logging.LogPipeline.enabled_for` runs *before* the
record is built), and the sweep worker only logs at all when a trace
context rides on the task.  This benchmark pins both costs:

* logging **off** (the process-global pipeline at its quiet WARNING
  default, no trace context) vs a seed replica of the worker body: the
  instrumentation is free unless asked for;
* logging **on** (``configure_logging(level="debug")`` plus worker-side
  capture through the telemetry context): bounded constant factor,
  reported for the record.

Logging is run metadata: a debug-logged run's deterministic result
document is asserted byte-identical to the plain run before anything is
timed.

Run quick mode (``pytest benchmarks/bench_logging.py --quick``) for the
CI smoke variant: a smaller workload and looser thresholds.
"""

from __future__ import annotations

import time

from conftest import banner, write_bench_json
from repro.core.config import SystemConfig
from repro.obs.logging import configure_logging, reset_logging
from repro.obs.telemetry import sweep_context
from repro.serialization import system_to_dict
from repro.sweep import SweepGrid, run_sweep
from repro.sweep.grid import SweepPoint
from repro.sweep.runner import (
    MetricsRegistry,
    _execute_task,
    _record_point_metrics,
    point_result,
    system_from_dict,
)

#: Workload and tolerance per mode: (requests, repeats, off_overhead_cap).
FULL = (16_384, 5, 1.05)
QUICK = (2_048, 3, 1.25)

#: Grid the worker-body timing loop walks (point variety, small N).
GRID = SweepGrid(sizes=(128, 256), layouts=("row-major", "ddl"), heights=(2, 8))


def seed_execute_task(task):
    """Verbatim replica of the pre-logging sweep worker body.

    Identical simulation and metrics assembly with no logging or
    telemetry gates; agreement with the live worker is asserted before
    timing.
    """
    config = system_from_dict(task["config"])
    point = SweepPoint(**task["point"])
    registry = MetricsRegistry()
    result = point_result(point, config, task["max_requests"])
    _record_point_metrics(registry, result)
    return {
        "index": task["index"],
        "result": result,
        "metrics": registry.as_dict(),
    }


def build_tasks(requests: int, telemetry: bool) -> list[dict]:
    """Worker task dicts for every grid point, optionally with context."""
    cfg = system_to_dict(SystemConfig())
    tasks = []
    for index, point in enumerate(GRID.points()):
        task = {
            "index": index,
            "key": None,
            "point": point.as_dict(),
            "config": cfg,
            "max_requests": requests,
        }
        if telemetry:
            task["run_id"] = "bench"
            task["tracectx"] = sweep_context("bench", index).as_dict()
        tasks.append(task)
    return tasks


def best_of(repeats: int, fn, *args) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def run_all(tasks: list[dict], worker) -> None:
    for task in tasks:
        worker(task)


def test_logging_off_matches_seed_worker(quick):
    requests, repeats, cap = QUICK if quick else FULL
    off_tasks = build_tasks(requests, telemetry=False)
    on_tasks = build_tasks(requests, telemetry=True)

    # The replica must be the same worker, and a debug-logged run must
    # never leak into the deterministic result document.
    reset_logging()
    seed_out = seed_execute_task(off_tasks[0])
    live_out = _execute_task(off_tasks[0])
    assert seed_out == live_out
    plain = run_sweep(GRID, max_requests=requests)
    configure_logging(level="debug")
    try:
        logged = run_sweep(GRID, max_requests=requests, telemetry=True)
    finally:
        reset_logging()
    assert logged.to_json() == plain.to_json()

    # Logging off: quiet global pipeline, no context on the task.
    run_all(off_tasks, seed_execute_task)
    run_all(off_tasks, _execute_task)
    seed_s = best_of(repeats, run_all, off_tasks, seed_execute_task)
    off_s = best_of(repeats, run_all, off_tasks, _execute_task)

    # Logging on: debug threshold plus worker-side capture via the
    # telemetry context (what ``--log-level debug --monitor`` costs).
    configure_logging(level="debug")
    try:
        run_all(on_tasks, _execute_task)
        on_s = best_of(repeats, run_all, on_tasks, _execute_task)
    finally:
        reset_logging()

    ratio = off_s / seed_s
    n_points = len(off_tasks)

    print(banner("LOGGING: structured-logging overhead on the sweep worker"))
    print(f"  workload            : {n_points} points x {requests:,} requests")
    print(f"  seed replica        : {1e3 * seed_s / n_points:7.2f} ms/point")
    print(f"  logging off         : {1e3 * off_s / n_points:7.2f} ms/point "
          f"({ratio:.3f}x seed)")
    print(f"  logging on (debug)  : {1e3 * on_s / n_points:7.2f} ms/point "
          f"({on_s / seed_s:.3f}x seed)")

    write_bench_json(
        "logging",
        {
            "off_overhead_x": ratio,
            "on_overhead_x": on_s / seed_s,
            "seed_ms_per_point": 1e3 * seed_s / n_points,
            "off_ms_per_point": 1e3 * off_s / n_points,
            "on_ms_per_point": 1e3 * on_s / n_points,
        },
        info={
            "points": n_points,
            "requests": requests,
            "repeats": repeats,
            "quick": quick,
        },
    )

    # The acceptance gate: unconfigured logging stays at seed speed.
    assert ratio < cap, (
        f"logging-off worker is {ratio:.3f}x the seed replica "
        f"(cap {cap}x)"
    )
    # Debug logging + capture costs a bounded constant factor.
    assert on_s / seed_s < 5.0
