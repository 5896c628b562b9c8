"""In-process speed ratios, each with a floor or cap near its measured value.

Absolute times depend on the machine; a ratio of two paths timed in one
process on one machine mostly does not.  Each test times a layer against
the path without it (or the path it replaces) and bounds the ratio so
that the layer running at half speed fails.  Exact work counts live in
``tests/test_work_counters.py``; end-to-end times live in the repository
benchmark under ``bench/``.

Run with ``python -m pytest benchmarks -q``.  The bounds come from
repeated runs on a 2-vCPU VM; the ``jobs=4`` test needs 4 usable cores
and is skipped below that.
"""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Callable
from typing import Any

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.faults import builtin_fault_plans
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.obs import EventTrace
from repro.obs.logging import configure_logging, reset_logging
from repro.obs.telemetry import sweep_context
from repro.obs.tracectx import RequestTracer
from repro.serialization import system_to_dict
from repro.serve import PlanService
from repro.sweep import ConfigVariant, ResultCache, SweepGrid, run_sweep
from repro.sweep.grid import SweepPoint
from repro.sweep.runner import (
    MetricsRegistry,
    _execute_task,
    _record_point_metrics,
    point_result,
    system_from_dict,
)
from repro.trace import (
    TraceArray,
    block_column_read_trace,
    column_walk_trace,
    compile_trace,
)

#: Bounds, each from 10 runs on a 2-vCPU VM (measured range in the
#: comment), set so that the timed layer at half speed fails at the
#: median: a floor above half the median speedup, a cap below the ratio
#: with the layer's own cost doubled.
VECTOR_SPEEDUP_FLOOR = 45.0  # 57-71x, median 65x
COMPILED_SPEEDUP_FLOOR = 300.0  # 374-601x, median 488x
RECORDER_BAND = (1.3, 2.15)  # 1.55-2.05x, median 1.64x
FAULTED_CAP = 2.0  # 1.52-1.81x, median 1.57x
LOGGING_OFF_CAP = 1.15  # 0.94-1.05x
LOGGING_ON_CAP = 1.40  # 1.16-1.34x, median 1.23x
#: The tracer books one span per warm request, about 1% of it; its call
#: count is pinned exactly in tests/test_work_counters.py.
TRACER_CAP = 1.10  # 0.98-1.04x
CACHE_SPEEDUP_FLOOR = 26.0  # 34-41x, median 38x
#: Not measurable on 2 vCPUs; the bound the sweep engine shipped with.
PARALLEL_SPEEDUP_FLOOR = 2.0


def best_of(repeats: int, *fns: Callable[[], Any]) -> list[float]:
    """Minimum wall-clock seconds of each of ``fns`` over ``repeats`` rounds.

    Each round calls every function once, in turn, so a slow spell of
    the machine lands on all of them rather than on one.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def usable_cores() -> int:
    """CPUs this process may run on (affinity and cgroup masks count)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


# ------------------------------------------------------------------ engines
def test_vector_and_compiled_engines_over_the_exact_loop():
    """A 256-column walk of a row-major N=4096 image (1M requests)."""
    trace = column_walk_trace(RowMajorLayout(4096, 4096), cols=range(256))
    compiled = compile_trace(trace)
    memory = Memory3D(pact15_hmc_config())
    exact = memory.simulate(trace, "in_order", engine="exact")
    for what in (trace, compiled):
        assert memory.simulate(what, "in_order", engine="vector") == exact
        assert memory.last_engine == "vector", memory.last_fallback_reason
    exact_s, vector_s, compiled_s = best_of(
        3,
        lambda: memory.simulate(trace, "in_order", engine="exact"),
        lambda: memory.simulate(trace, "in_order", engine="vector"),
        lambda: memory.simulate(compiled, "in_order", engine="vector"),
    )
    assert exact_s / vector_s >= VECTOR_SPEEDUP_FLOOR
    assert exact_s / compiled_s >= COMPILED_SPEEDUP_FLOOR


def test_event_recorder_on_over_off():
    """The exact loop over 16,384 random requests, recorder on vs off."""
    rng = np.random.default_rng(0x0B5)
    trace = TraceArray(rng.integers(0, 1 << 20, size=16_384, dtype=np.int64) * 8)
    plain = Memory3D(pact15_hmc_config())
    recorder = EventTrace()
    recorded = Memory3D(pact15_hmc_config(), recorder=recorder)

    def run_on() -> None:
        recorder.clear()
        recorded.simulate(trace, "per_vault", engine="exact")

    def run_off() -> None:
        plain.simulate(trace, "per_vault", engine="exact")

    run_on()
    assert recorded.simulate(trace, "per_vault", engine="exact") == plain.simulate(
        trace, "per_vault", engine="exact"
    )
    on_s, off_s = best_of(15, run_on, run_off)
    on_off = on_s / off_s
    assert RECORDER_BAND[0] <= on_off <= RECORDER_BAND[1]


def test_fault_plan_over_healthy_exact_loop():
    """An N=256 DDL column read on the exact loop, latency-jitter plan on
    vs off: the plan adds a precomputed service tail per request."""
    config = pact15_hmc_config()
    geometry = optimal_block_geometry(config, 256)
    layout = BlockDDLLayout(256, 256, geometry.width, geometry.height)
    trace = block_column_read_trace(layout, n_streams=2, block_cols=range(2))
    memory = Memory3D(config)
    plan = builtin_fault_plans()["latency-jitter"]

    def healthy() -> None:
        memory.simulate(trace, "per_vault", engine="exact")

    def faulted() -> None:
        memory.simulate(trace, "per_vault", fault_plan=plan, engine="exact")

    faulted_s, healthy_s = best_of(40, faulted, healthy)
    assert faulted_s / healthy_s <= FAULTED_CAP


# ------------------------------------------------------------ sweep worker
#: Points the worker-body timings walk (point variety at small N).
WORKER_GRID = SweepGrid(sizes=(128, 256), layouts=("row-major", "ddl"), heights=(2, 8))


def seed_execute_task(task: dict[str, Any]) -> dict[str, Any]:
    """The sweep worker body without logging or telemetry gates."""
    config = system_from_dict(task["config"])
    registry = MetricsRegistry()
    result = point_result(SweepPoint(**task["point"]), config, task["max_requests"])
    _record_point_metrics(registry, result)
    return {"index": task["index"], "result": result, "metrics": registry.as_dict()}


def worker_tasks(context: bool) -> list[dict[str, Any]]:
    config = system_to_dict(SystemConfig())
    tasks = []
    for index, point in enumerate(WORKER_GRID.points()):
        task = {
            "index": index,
            "key": None,
            "point": point.as_dict(),
            "config": config,
            "max_requests": 512,
        }
        if context:
            task["run_id"] = "speed"
            task["tracectx"] = sweep_context("speed", index).as_dict()
        tasks.append(task)
    return tasks


def test_logging_and_telemetry_over_the_seed_worker():
    """Off: the quiet default pipeline and no trace context cost nothing
    over a worker body without the gates.  On: debug logging plus the
    worker's span timeline and telemetry payload cost a bounded share."""
    plain, traced = worker_tasks(context=False), worker_tasks(context=True)

    def run(worker: Callable, tasks: list[dict[str, Any]]) -> Callable[[], None]:
        return lambda: [worker(task) for task in tasks]

    def run_on() -> None:
        configure_logging(level="debug")
        try:
            run(_execute_task, traced)()
        finally:
            reset_logging()

    reset_logging()
    assert seed_execute_task(plain[0]) == _execute_task(plain[0])
    seed_s, off_s, on_s = best_of(
        30, run(seed_execute_task, plain), run(_execute_task, plain), run_on
    )
    assert off_s / seed_s <= LOGGING_OFF_CAP
    assert on_s / seed_s <= LOGGING_ON_CAP


# ------------------------------------------------------------------- serve
def test_request_tracer_on_over_off_warm_p50(tmp_path):
    """Warm ``PlanService.handle`` calls (every point cached), tracer on
    vs off, alternated so both see the same machine state."""
    spec = {"n": 256, "max_requests": 2048}
    cache_dir = tmp_path / "cache"
    run_sweep(SweepGrid(sizes=(256,)), max_requests=2048, cache=ResultCache(cache_dir))
    latencies: dict[bool, list[float]] = {False: [], True: []}
    plain = PlanService(cache=ResultCache(cache_dir), jobs=1)
    traced = PlanService(cache=ResultCache(cache_dir), jobs=1, tracer=RequestTracer())
    with plain, traced:
        for _ in range(150):
            for on, service in ((False, plain), (True, traced)):
                start = time.perf_counter()
                code, envelope, _ = service.handle(dict(spec))
                latencies[on].append(time.perf_counter() - start)
                assert code == 200 and envelope["computed"] == 0
    ratio = statistics.median(latencies[True]) / statistics.median(latencies[False])
    assert ratio <= TRACER_CAP


# ------------------------------------------------------------------- sweep
def sweep_grid(sizes: tuple[int, ...], heights: tuple[int, ...]) -> SweepGrid:
    """Every axis: N, layout, h and a timing variant."""
    return SweepGrid(
        sizes=sizes,
        layouts=("row-major", "ddl"),
        heights=heights,
        configs=(
            ConfigVariant("default", {}),
            ConfigVariant("slow-stream", {"memory": {"timing": {"t_in_row": 3.2}}}),
        ),
    )


def test_warm_cache_replay_over_serial_sweep(tmp_path):
    """16 exact-loop points: simulating them vs reading them back."""
    grid = sweep_grid((256, 512), (2, 8, 32))
    kwargs = {"max_requests": 16_384, "jobs": 1, "engine": "exact"}
    serial = run_sweep(grid, cache=ResultCache(tmp_path / "cache"), **kwargs)
    warm = run_sweep(grid, cache=ResultCache(tmp_path / "cache"), **kwargs)
    serial_s, warm_s = best_of(
        5,
        lambda: run_sweep(grid, **kwargs),
        lambda: run_sweep(grid, cache=ResultCache(tmp_path / "cache"), **kwargs),
    )
    assert warm.to_json() == serial.to_json()
    assert warm.meta["cached"] == grid.n_points()
    assert serial_s / warm_s >= CACHE_SPEEDUP_FLOOR


@pytest.mark.skipif(usable_cores() < 4, reason="needs 4 usable cores")
def test_four_jobs_over_serial_first_call():
    """The first ``jobs=4`` call of a process, pool start included."""
    grid = sweep_grid((512, 1024, 2048), (1, 2, 4, 8, 16, 32))
    kwargs = {"max_requests": 131_072, "engine": "exact"}
    start = time.perf_counter()
    serial = run_sweep(grid, jobs=1, **kwargs)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(grid, jobs=4, **kwargs)
    parallel_s = time.perf_counter() - start
    assert parallel.to_json() == serial.to_json()
    assert serial_s / parallel_s >= PARALLEL_SPEEDUP_FLOOR
