"""Sweep execution: serial fallback, process-pool fan-out, cache reuse.

The runner walks a grid's points in their deterministic order and, for
each point, either replays a cached result or simulates the column
phase via :func:`repro.core.simulate.simulate_column_phase`.  Uncached
points that price the same phase (equal
:func:`~repro.core.simulate.column_phase_key`) share one simulation:
the first is attempted, the others take its result under their own
labels.  Uncached points fan out across worker processes
(:class:`concurrent.futures.ProcessPoolExecutor`); ``jobs=1`` runs the
identical code path inline, so parallelism can never change results.

Each worker returns its point result together with a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot; the parent merges
the snapshots (counters add, histograms combine bucket-wise) in grid
order into one run-level registry.

Execution is *resilient*: a worker exception is quarantined as a
structured record in the result's ``failures`` section instead of
aborting the grid.  A :class:`~repro.sweep.resilience.RetryPolicy`
runs every point's attempts on the warm, killable workers of a shared
pool, even with ``jobs=1``, with timeouts and deterministic exponential
backoff.  With a cache, every settled point is stored as it completes,
so rerunning an interrupted sweep on the same cache replays what
finished and computes only the rest.  See :mod:`repro.sweep.resilience`
and ``docs/sweep.md``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Hashable, Iterator
from typing import Any

from repro.core.config import SystemConfig
from repro.core.simulate import column_phase_key, simulate_column_phase
from repro.errors import ConfigError, ReproError
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import SweepStatus
from repro.obs.spans import span_or_null
from repro.obs.telemetry import RunTelemetry, WorkerTelemetry, sweep_context
from repro.obs.tracectx import TraceContext
from repro.serialization import (
    stable_digest,
    system_from_dict,
    system_to_dict,
    system_with_overrides,
)
from repro.sweep.cache import CACHE_VERSION, ResultCache
from repro.sweep.grid import SweepGrid, SweepPoint
from repro.sweep.resilience import (
    WORKER_REPLACEMENTS,
    RetryPolicy,
    WorkerChaos,
    apply_chaos,
    attempt_point,
    failure_record,
    replaced_workers,
    run_attempt,
)
from repro.sweep.results import SweepResult

#: Default cap on exactly-simulated requests per point.
DEFAULT_SWEEP_REQUESTS = 65_536

#: Bucket bounds for the per-run utilization histogram (% of peak).
_UTILIZATION_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: ``<= 0`` means one per CPU."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def validate_grid(grid: SweepGrid, config: SystemConfig) -> None:
    """Fail fast on points the simulator would reject later.

    Checks every ``"ddl"`` point's block shape against the row-buffer
    capacity and the matrix dimensions, so a bad grid dies with one
    clear error instead of mid-sweep inside a worker.
    """
    s = config.memory.row_elements
    for point in grid.points():
        if point.layout != "ddl" or point.height is None:
            continue
        if s % point.height:
            raise ConfigError(
                f"grid point N={point.n}: height {point.height} does not "
                f"divide the {s}-element row buffer"
            )
        width = s // point.height
        if point.n % point.height or point.n % width:
            raise ConfigError(
                f"grid point N={point.n}: block {width}x{point.height} does "
                f"not tile an {point.n}x{point.n} matrix"
            )


def point_result(
    point: SweepPoint,
    config: SystemConfig,
    max_requests: int,
    engine: str = "vector",
) -> dict[str, Any]:
    """Simulate one sweep point and package the result as a plain dict.

    The dict is JSON-native (string keys, scalars only) so it survives
    the cache round-trip byte-for-byte -- a replayed point is
    indistinguishable from a fresh one.  ``engine`` picks the timing
    engine; the two are stat-for-stat equivalent (CI's
    ``engine-equivalence`` gate), so it changes wall-clock only, never
    the result dict.
    """
    run = simulate_column_phase(
        config,
        point.n,
        layout=point.layout,
        height=point.height,
        whole_blocks=point.whole_blocks,
        max_requests=max_requests,
        engine=engine,
    )
    metrics = run.metrics
    stats = metrics.stats
    assert stats is not None  # every column-phase path simulates a trace
    peak = config.peak_bandwidth
    return {
        "n": point.n,
        "layout": point.layout,
        "config": point.config_label,
        "height": run.height,
        "width": run.width,
        "discipline": run.discipline,
        "whole_blocks": point.whole_blocks,
        "throughput_gbps": metrics.throughput_gbps,
        "throughput_gbitps": metrics.throughput_gbitps,
        "utilization": metrics.utilization(peak),
        "bound": metrics.bound,
        "memory_time_ns": metrics.memory_time_ns,
        "kernel_time_ns": metrics.kernel_time_ns,
        "first_output_latency_ns": metrics.first_output_latency_ns,
        "memory_bandwidth_gbps": stats.bandwidth_gbps,
        "memory_utilization": stats.utilization(peak),
        "requests": stats.requests,
        "row_activations": stats.row_activations,
        "row_hits": stats.row_hits,
        "row_hit_rate": stats.row_hit_rate,
    }


def _record_point_metrics(registry: MetricsRegistry, result: dict[str, Any]) -> None:
    registry.counter("sweep.points", help="points simulated").inc()
    registry.counter("sweep.requests", help="extrapolated requests across points").inc(
        result["requests"]
    )
    registry.counter("sweep.row_activations", help="row activations across points").inc(
        result["row_activations"]
    )
    registry.counter("sweep.row_hits", help="open-row hits across points").inc(
        result["row_hits"]
    )
    registry.histogram(
        "sweep.memory_utilization_pct",
        _UTILIZATION_BOUNDS,
        help="per-point memory bandwidth as % of peak",
    ).observe(100.0 * result["memory_utilization"])


def _shared_strings(result: dict[str, Any]) -> dict[str, Any]:
    """``result`` with its keys and string values interned.

    A result unpickled from a worker or read from the cache carries its
    own copy of every key; a sweep holds every result until it ends, so
    sharing them halves the memory each finished point costs.
    """
    return {
        sys.intern(key): sys.intern(value) if isinstance(value, str) else value
        for key, value in result.items()
    }


def _execute_task(task: dict[str, Any]) -> dict[str, Any]:
    """Worker body: simulate one point, return result + metrics snapshot.

    Module-level (picklable) and fed only JSON-native payloads, so it
    runs identically inline, in a forked process-pool worker and on a
    forkserver pool worker.  An
    optional ``chaos`` member (see
    :class:`~repro.sweep.resilience.WorkerChaos`) makes the attempt
    misbehave for executor testing.

    When the task carries its attempt's ``tracectx`` (a
    :class:`~repro.obs.tracectx.TraceContext` dict) the worker records a
    local span timeline around the simulation and ships the serialized
    :class:`~repro.obs.telemetry.WorkerTelemetry` payload back on the
    outcome; without it the spans are no-ops.  A sweep task's ``run_id``
    only tags the worker's log records.
    """
    attempt = task.get("attempt", 1)
    chaos = task.get("chaos")
    if chaos:
        apply_chaos(chaos, task["index"], attempt)
    worker_tel: WorkerTelemetry | None = None
    if task.get("tracectx"):
        worker_tel = WorkerTelemetry(
            TraceContext.from_dict(task["tracectx"]), task["index"], attempt
        )
    timeline = worker_tel.timeline if worker_tel is not None else None
    config = system_from_dict(task["config"])
    point = SweepPoint(**task["point"])
    registry = MetricsRegistry()
    engine = task.get("engine", "vector")
    with span_or_null(
        timeline,
        "point",
        n=point.n,
        layout=point.layout,
        config=point.config_label,
        attempt=attempt,
    ):
        with span_or_null(timeline, "simulate"):
            result = point_result(point, config, task["max_requests"], engine=engine)
    _record_point_metrics(registry, result)
    outcome = {
        "index": task["index"],
        "result": result,
        "metrics": registry.as_dict(),
    }
    if worker_tel is not None:
        worker_tel.logger(run_id=task.get("run_id")).debug(
            "point simulated",
            n=result["n"],
            layout=result["layout"],
            config=result["config"],
            throughput_gbps=result["throughput_gbps"],
        )
        outcome["telemetry"] = worker_tel.as_dict()
    return outcome


# -------------------------------------------------------------- outcome plumbing
def _execute_entry(task: dict[str, Any]) -> dict[str, Any]:
    """Pool body without a retry policy: one attempt in this process.

    Returns the one-entry attempt log
    :func:`~repro.sweep.resilience.attempt_point` would, its ``context``
    the attempt-1 context the task carries, so a traced sweep records
    the ``attempt`` span its worker ``point`` span hangs under.
    """
    start_s = time.perf_counter()  # repro: ignore[DET001]
    outcome = _execute_task(task)
    duration_s = time.perf_counter() - start_s  # repro: ignore[DET001]
    tracectx = task.get("tracectx")
    attempt = {
        "attempt": 1,
        "status": "ok",
        "start_s": start_s,
        "duration_s": duration_s,
        "context": TraceContext.from_dict(tracectx) if tracectx else None,
    }
    return {"status": "ok", "outcome": outcome, "retries": 0, "attempts": [attempt]}


def _settle(task: dict[str, Any], call: Callable[[], dict[str, Any]]) -> dict[str, Any]:
    """The entry ``call()`` returns for ``task``; an exception quarantines it."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - quarantine, never abort
        failure = failure_record(
            index=task["index"],
            point=task["point"],
            error=type(exc).__name__,
            message=str(exc),
            attempts=1,
        )
        return {"status": "failed", "failure": failure, "retries": 0, "attempts": []}


def _drain(
    pool: Executor,
    body: Callable[[dict[str, Any]], dict[str, Any]],
    tasks: list[dict[str, Any]],
) -> Iterator[dict[str, Any]]:
    """Submit every task to ``pool``; yield entries as they complete."""
    futures = {pool.submit(body, task): task for task in tasks}
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            yield _settle(futures[future], future.result)


def _iter_outcomes(
    tasks: list[dict[str, Any]],
    jobs: int,
    body: Callable[[dict[str, Any]], dict[str, Any]],
    isolated: bool,
) -> Iterator[dict[str, Any]]:
    """Run ``body`` over ``tasks`` inline or on a pool, in completion order.

    ``isolated`` bodies run each attempt on a warm worker of the shared
    pool (:func:`~repro.sweep.resilience.attempt_point`), so threads
    drive them; other bodies compute in the pool's worker processes.
    """
    workers = min(jobs, len(tasks))
    if workers == 1:
        for task in tasks:
            yield _settle(task, lambda task=task: body(task))
    elif isolated:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from _drain(pool, body, tasks)
    else:
        # Workers are forked before this module's thread pool exists (the
        # isolated path runs its attempts on the forkserver pool instead),
        # and the worker body re-imports everything it touches.  Forked
        # workers start at once and inherit the caller's module state
        # (wrapped callables included); the forkserver pool would add
        # its one-off start to every one-shot `repro sweep --jobs N`.
        # repro: ignore[CONC003]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _drain(pool, body, tasks)


def point_phase_key(
    config: SystemConfig, point: SweepPoint, max_requests: int
) -> Hashable | None:
    """``point``'s :func:`~repro.core.simulate.column_phase_key`.

    Points with equal keys price one phase, so the sweep runner and the
    serving layer run each key once.  ``None`` when the layout does not
    resolve: such a point shares no run, and its own attempt reports
    the error.
    """
    try:
        return column_phase_key(
            config, point.n, point.layout, point.height,
            point.whole_blocks, max_requests,
        )
    except ReproError:
        return None


def point_payload(
    point: SweepPoint, config_dict: dict[str, Any], max_requests: int
) -> dict[str, Any]:
    """The ``{point, config, max_requests}`` payload a point's cache key hashes.

    The sweep runner and the serving layer both build it here, so their
    cache keys -- and cached results -- are shared.
    """
    return {
        "point": point.as_dict(),
        "config": config_dict,
        "max_requests": max_requests,
    }


def _run_digest(
    grid: SweepGrid, config_dicts: dict[str, Any], max_requests: int
) -> str:
    """Content digest of everything that determines a sweep's results.

    Its prefix is the run id that stamps telemetry, trace ids and
    ``/status``.
    """
    return stable_digest(
        {
            "grid": grid.as_dict(),
            "configs": config_dicts,
            "max_requests": max_requests,
            "version": CACHE_VERSION,
        }
    )


def run_sweep(
    grid: SweepGrid,
    config: SystemConfig | None = None,
    max_requests: int = DEFAULT_SWEEP_REQUESTS,
    jobs: int = 1,
    cache: ResultCache | None = None,
    policy: RetryPolicy | None = None,
    chaos: WorkerChaos | None = None,
    telemetry: bool = False,
    status: SweepStatus | None = None,
    engine: str = "vector",
) -> SweepResult:
    """Execute every point of ``grid`` and return the merged result.

    Args:
        grid: the design space to sweep.
        config: base system configuration; each grid config variant's
            overrides are merged on top of it.
        max_requests: exactly-simulated request budget per point.
        jobs: worker processes; ``1`` runs inline (deterministic serial
            fallback), ``<= 0`` uses one worker per CPU.
        cache: optional on-disk result cache; hits skip simulation,
            misses are stored as each settles.  Rerunning an
            interrupted sweep on the same cache is how it resumes: the
            document is byte-identical to an uninterrupted run.
        policy: optional :class:`~repro.sweep.resilience.RetryPolicy`;
            when given (or when ``chaos`` is), every attempt runs on a
            warm, killable worker of the shared pool, even with
            ``jobs=1``, with timeouts and deterministic backoff between
            retries.
        chaos: optional executor fault injection
            (:class:`~repro.sweep.resilience.WorkerChaos`); test/CI only.
        telemetry: record cross-process run telemetry -- every worker
            task carries its attempt's trace context
            (:func:`~repro.obs.telemetry.sweep_context`), workers ship
            span and log payloads back, and the merged
            :class:`~repro.obs.telemetry.RunTelemetry` lands on the
            result's ``telemetry`` attribute (run metadata only: the
            deterministic JSON document is untouched).
        status: optional :class:`~repro.obs.monitor.SweepStatus` the
            runner keeps current while executing, so an embedded
            :class:`~repro.obs.monitor.SweepMonitor` can serve live
            ``/status`` + ``/metrics`` from another thread.  Run
            metadata only -- the deterministic document is identical
            with or without it.
        engine: timing engine workers use (``"vector"`` by default,
            ``"exact"`` for the reference loop).  The engines are
            stat-for-stat equivalent (CI's ``engine-equivalence``
            gate), so the choice never enters cache keys or result
            documents -- a cache written by one engine replays under
            the other.

    A point that keeps failing is quarantined into the result's
    ``failures`` list instead of aborting the grid; infrastructure
    errors (invalid grid, unknown engine) still raise.
    """
    config = config or SystemConfig()
    if engine not in ("exact", "vector"):
        raise ConfigError(
            f"unknown engine {engine!r}; expected 'exact' or 'vector'"
        )
    if max_requests <= 0:
        raise ConfigError(f"max_requests must be positive, got {max_requests}")
    validate_grid(grid, config)
    jobs = resolve_jobs(jobs)
    # Wall-clock is run *metadata* (meta["wall_s"]), never part of the
    # deterministic result document results.py serializes.
    started = time.perf_counter()  # repro: ignore[DET001]

    configs = {
        variant.label: system_with_overrides(config, dict(variant.overrides))
        for variant in grid.configs
    }
    config_dicts = {label: system_to_dict(c) for label, c in configs.items()}
    run_tel: RunTelemetry | None = None
    run_id: str | None = None
    if telemetry or status is not None:
        run_id = _run_digest(grid, config_dicts, max_requests)[:12]
    if telemetry:
        assert run_id is not None
        run_tel = RunTelemetry(run_id)
    log = get_logger("repro.sweep", **({"run_id": run_id} if run_id else {}))
    points = grid.points()
    results: list[dict[str, Any] | None] = [None] * len(points)
    registry = MetricsRegistry()

    if status is not None:
        status.start_run(len(points), run_id=run_id, jobs=jobs)
    log.info("sweep started", points=len(points), jobs=jobs)

    tasks: list[dict[str, Any]] = []
    # index -> (cache key, payload) of each point to cache once computed.
    to_store: dict[int, tuple[str, dict[str, Any]]] = {}
    # Points to compute that price the same phase share one run: the
    # first of them (the representative) is attempted, and the others
    # take its result under their own labels.
    representatives: dict[Hashable, int] = {}
    sharers: dict[int, list[int]] = {}
    cached = 0
    for index, point in enumerate(points):
        payload = point_payload(point, config_dicts[point.config_label], max_requests)
        if cache is not None:
            key = cache.key_for(payload)
            hit = cache.get(key)
            if hit is not None:
                hit = _shared_strings(hit)
                results[index] = hit
                cached += 1
                if status is not None:
                    status.mark_cached(index)
                if run_tel is not None:
                    run_tel.mark_cache_hit(index)
                log.debug("cache hit", point=index)
                continue
            to_store[index] = (key, payload)
        phase = point_phase_key(configs[point.config_label], point, max_requests)
        if phase is not None:
            first = representatives.setdefault(phase, index)
            if first != index:
                sharers.setdefault(first, []).append(index)
                continue
        task = {"index": index, **payload}
        # Attached AFTER key_for(payload): the engine choice (like the
        # trace context below) must never influence cache identity --
        # both engines produce the identical result document.
        task["engine"] = engine
        if run_tel is not None:
            # Attached AFTER key_for(payload): the trace context must
            # never influence cache identity.
            task["run_id"] = run_tel.run_id
            task["tracectx"] = sweep_context(run_tel.run_id, index).as_dict()
        tasks.append(task)

    failures: list[dict[str, Any]] = []
    retries_total = 0
    replaced: Counter[str] = Counter()
    simulated = 0
    shared = sum(len(members) for members in sharers.values())
    outcomes_by_index: dict[int, dict[str, Any]] = {}

    if tasks:
        if run_tel is not None:
            for task in tasks:
                run_tel.mark_submit(task["index"])
        if policy is not None or chaos is not None:
            retry = policy or RetryPolicy()
            root = TraceContext.root(run_tel.run_id) if run_tel is not None else None

            def attempt_body(task: dict[str, Any]) -> dict[str, Any]:
                point_ctx = None if root is None else root.child("point", task["index"])
                return attempt_point(
                    task, retry, run_attempt, context=point_ctx, chaos=chaos
                )

            stream = _iter_outcomes(tasks, jobs, attempt_body, isolated=True)
        else:
            stream = _iter_outcomes(tasks, jobs, _execute_entry, isolated=False)
        with span_or_null(
            run_tel.timeline if run_tel is not None else None,
            "execute",
            tasks=len(tasks),
            jobs=jobs,
        ):
            for entry in stream:
                retries_total += entry["retries"]
                replaced.update(replaced_workers(entry["attempts"]))
                ok = entry["status"] == "ok"
                index = (entry["outcome"] if ok else entry["failure"])["index"]
                if run_tel is not None:
                    run_tel.record_attempts(index, entry["attempts"])
                if ok:
                    outcome = entry["outcome"]
                    outcomes_by_index[index] = outcome
                    worker_id: int | None = None
                    if run_tel is not None and "telemetry" in outcome:
                        record = run_tel.merge_worker(outcome["telemetry"])
                        worker_id = record["worker_id"]
                    if status is not None:
                        status.mark_ok(
                            index,
                            worker_id=worker_id,
                            metrics=outcome["metrics"],
                            duration_s=entry["attempts"][-1]["duration_s"],
                        )
                if status is not None and entry["retries"]:
                    status.mark_retry(index, entry["retries"])
                members = sharers.get(index, [])
                for member in members:
                    if run_tel is not None:
                        run_tel.mark_shared(member, index)
                    log.debug("point shared", point=member, representative=index)
                # The representative and its sharers settle alike, each
                # under its own labels, cache entry and failure record.
                for member in (index, *members):
                    point = points[member]
                    if ok:
                        result = _shared_strings(
                            dict(
                                outcome["result"],
                                layout=point.layout,
                                config=point.config_label,
                            )
                        )
                        results[member] = result
                        simulated += 1
                        if status is not None and member != index:
                            status.mark_ok(member)
                        if cache is not None:
                            cache.put(*to_store[member], result)
                    else:
                        failure = dict(
                            entry["failure"], index=member, point=point.as_dict()
                        )
                        failures.append(failure)
                        if status is not None:
                            status.mark_failed(member, reason=failure["reason"])
                        log.warning(
                            "point quarantined",
                            point=member,
                            error=failure["error"],
                            reason=failure["reason"],
                            attempts=failure["attempts"],
                        )

    failures.sort(key=lambda f: f["index"])
    for index in sorted(outcomes_by_index):
        registry.merge_snapshot(outcomes_by_index[index]["metrics"])

    registry.counter("sweep.cache.hits", help="points replayed from cache").inc(
        cached
    )
    registry.counter("sweep.cache.misses", help="points simulated fresh").inc(
        len(tasks) + shared
    )
    if retries_total:
        registry.counter("sweep.retries", help="extra attempts across points").inc(
            retries_total
        )
    if failures:
        registry.counter("sweep.failures", help="points quarantined").inc(
            len(failures)
        )
    for key in sorted(replaced):
        registry.counter(
            f"sweep.workers_replaced.{key}", help=WORKER_REPLACEMENTS[key]
        ).inc(replaced[key])
    final: list[dict[str, Any]] = []
    failed_indices = {failure["index"] for failure in failures}
    for index, entry in enumerate(results):
        if entry is None:
            assert index in failed_indices, f"point {index} produced no result"
            continue
        final.append(entry)
    meta = {
        "jobs": jobs,
        "simulated": simulated,
        "shared": shared,
        "cached": cached,
        "failed": len(failures),
        "retries": retries_total,
        "wall_s": time.perf_counter() - started,  # repro: ignore[DET001]
        "cache": cache.stats.as_dict() if cache is not None else None,
    }
    if run_tel is not None:
        meta["run_id"] = run_tel.run_id
    if status is not None:
        status.finish()
    log.info(
        "sweep finished",
        simulated=simulated,
        shared=shared,
        cached=cached,
        failed=len(failures),
        retries=retries_total,
        wall_s=meta["wall_s"],
    )
    return SweepResult(
        grid=grid,
        max_requests=max_requests,
        results=final,
        registry=registry,
        meta=meta,
        failures=failures,
        telemetry=run_tel,
    )
