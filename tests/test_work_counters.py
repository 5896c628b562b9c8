"""Exact work counters for the sweep and serve paths.

The paper attributes time to row activations versus bursts by counting
them.  These tests count our own work the same way: one short run per
path, in process, with counting wrappers on each layer boundary, and
every count compared exactly to a committed value.  Counts do not
depend on the machine or its load, so the gate cannot drift; doubling
a layer's work (one more relaxation pass per block, a trace built twice
per point, a log record emitted twice) moves a count and fails here.

The counted layers:

* ``price_arrays`` / ``relax`` -- :meth:`repro.memory3d.vector._Engine.price_arrays`
  calls and :func:`repro.memory3d.vector._relax` passes;
* ``steady.blocks`` / ``steady.shifted`` -- the blocks steady-state
  pricing priced and the requests it shifted
  (:attr:`Memory3D.last_steady_state`);
* ``trace.<generator>`` / ``trace.requests`` -- calls to each trace
  generator :mod:`repro.core.simulate` builds phases with, and the
  requests they return;
* ``simulate.<engine>`` / ``simulate.requests`` / ``fallbacks`` --
  :meth:`Memory3D.simulate` calls per engine that ran, the requests
  they priced and the vector-to-exact fallbacks;
* ``cache.get`` / ``cache.put``, ``attempt``, ``tracer.record`` /
  ``tracer.link`` -- result-cache reads and writes, point attempts and
  request-tracer calls;
* ``log.records`` -- records the debug-level log pipeline received.

A count that moves on purpose (an engine change that prices less, a new
log record) is re-pinned here in the same change, with the reason.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from typing import Any

import pytest

import repro.core.simulate as core_simulate
import repro.memory3d.memory as memory
import repro.memory3d.vector as vector
import repro.serve.service as service
import repro.sweep.cache as cache
import repro.sweep.runner as runner
from repro.obs.logging import ListSink, configure_logging, reset_logging
from repro.obs.tracectx import RequestTracer
from repro.serve import PlanService
from repro.sweep import ConfigVariant, ResultCache, SweepGrid, run_sweep

#: The five layouts and three heights (Eq. (1), 4, 32) the repository
#: benchmark sweeps, at the two smallest sizes it uses.
LAYOUTS = ("row-major", "ddl", "column-major", "tiled-1x32", "block-ddl-w1h32")
GRID = SweepGrid(sizes=(256, 512), layouts=LAYOUTS, heights=(None, 4, 32))

#: The same grid with DRAM refresh on: every point falls back to the
#: exact loop.
REFRESH = ConfigVariant(
    "refresh", {"memory": {"refresh": {"t_refi_ns": 7800.0, "t_rfc_ns": 160.0}}}
)
REFRESH_GRID = SweepGrid(
    sizes=GRID.sizes, layouts=LAYOUTS, heights=GRID.heights, configs=(REFRESH,)
)

#: Trace generators the phase builder calls, by the names it imports.
GENERATORS = (
    "column_walk_trace",
    "block_column_read_trace",
    "row_walk_trace",
    "block_write_trace",
)

#: One plan request: the grid's N=256 half (7 points).
SPEC = {"n": 256, "layouts": list(LAYOUTS), "heights": [0, 4, 32]}


def _count_calls(
    monkeypatch: pytest.MonkeyPatch, counts: Counter, owner: Any, attr: str, name: str
) -> None:
    original = getattr(owner, attr)

    def counting(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


class Work:
    """Counts made by the wrappers plus the records the log pipeline got."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.sink = ListSink()

    def snapshot(self) -> dict[str, int]:
        """The non-zero counts so far, then start over."""
        counts = dict(self.counts, **{"log.records": len(self.sink.records)})
        self.counts.clear()
        self.sink.records.clear()
        return {name: value for name, value in counts.items() if value}


@pytest.fixture
def work(monkeypatch: pytest.MonkeyPatch) -> Iterator[Work]:
    """Install the counting wrappers and a debug-level log sink."""
    work = Work()
    counts = work.counts
    _count_calls(monkeypatch, counts, vector._Engine, "price_arrays", "price_arrays")
    _count_calls(monkeypatch, counts, vector, "_relax", "relax")
    _count_calls(monkeypatch, counts, cache.ResultCache, "get", "cache.get")
    _count_calls(monkeypatch, counts, cache.ResultCache, "put", "cache.put")
    _count_calls(monkeypatch, counts, RequestTracer, "record", "tracer.record")
    _count_calls(monkeypatch, counts, RequestTracer, "link", "tracer.link")

    for name in GENERATORS:
        generate = getattr(core_simulate, name)

        def counting_trace(
            *args: Any, _generate: Any = generate, _name: str = name, **kwargs: Any
        ) -> Any:
            trace = _generate(*args, **kwargs)
            counts[f"trace.{_name}"] += 1
            counts["trace.requests"] += len(trace)
            return trace

        monkeypatch.setattr(core_simulate, name, counting_trace)

    simulate = memory.Memory3D.simulate

    def counting_simulate(self: memory.Memory3D, *args: Any, **kwargs: Any) -> Any:
        stats = simulate(self, *args, **kwargs)
        counts[f"simulate.{self.last_engine}"] += 1
        counts["simulate.requests"] += stats.requests
        if self.last_fallback_reason is not None:
            counts["fallbacks"] += 1
        steady = self.last_steady_state
        if steady is not None:
            counts["steady.blocks"] += steady.blocks_priced
            counts["steady.shifted"] += steady.requests_extrapolated
        return stats

    monkeypatch.setattr(memory.Memory3D, "simulate", counting_simulate)

    def inline_attempt(
        task: dict[str, Any], timeout_s: float | None, cancel_event: Any = None
    ) -> dict[str, Any]:
        # The attempt runs in this process, so the engine counters see
        # its work (a pool worker inherits no wrapper).
        counts["attempt"] += 1
        return {"status": "ok", "outcome": runner._execute_task(task)}

    monkeypatch.setattr(service, "run_attempt", inline_attempt)
    monkeypatch.setattr(runner, "run_attempt", inline_attempt)

    configure_logging(level="debug").add_sink(work.sink)
    yield work
    reset_logging()


#: Cold vector sweep of GRID with a cache and telemetry: 14 points, of
#: which 4 share a phase already priced (per size, ``tiled-1x32`` is
#: ``row-major`` and ``block-ddl-w1h32`` is ``ddl`` h=32), so 10 runs
#: on the vector engine, 144 relaxation passes, steady-state pricing
#: shifts 364,544 of the 397,312 requests; every point still reads and
#: writes its own cache entry.  One debug record per run ("point
#: simulated") and per sharer ("point shared"), plus "sweep started"
#: and "sweep finished".
VECTOR_SWEEP = {
    "trace.column_walk_trace": 4,
    "trace.block_column_read_trace": 6,
    "trace.requests": 397_312,
    "simulate.vector": 10,
    "simulate.requests": 397_312,
    "price_arrays": 10,
    "relax": 144,
    "steady.blocks": 40,
    "steady.shifted": 364_544,
    "cache.get": 14,
    "cache.put": 14,
    "log.records": 16,
}

#: REFRESH_GRID: the same 10 distinct phases, every run falls back to
#: the exact loop, which prices each request; no cache and no worker
#: records, one "point shared" record per sharer.
REFRESH_SWEEP = {
    "trace.column_walk_trace": 4,
    "trace.block_column_read_trace": 6,
    "trace.requests": 397_312,
    "simulate.exact": 10,
    "simulate.requests": 397_312,
    "fallbacks": 10,
    "log.records": 6,
}

#: A cold SPEC request: its 7 points price 5 distinct phases
#: (``tiled-1x32`` is ``row-major`` and ``block-ddl-w1h32`` is ``ddl``
#: h=32, as in a sweep), so one attempt per phase, and still one cache
#: read and write per point.  The tracer gets the request span plus a
#: point, an attempt and two worker spans per attempt; seven records:
#: "request admitted", "request served" and each attempt's worker
#: record ("point simulated"), forwarded by the worker-payload fold as
#: a sweep does.
SERVE_COLD = {
    "trace.column_walk_trace": 2,
    "trace.block_column_read_trace": 3,
    "trace.requests": 176_128,
    "simulate.vector": 5,
    "simulate.requests": 176_128,
    "price_arrays": 5,
    "relax": 80,
    "steady.blocks": 24,
    "steady.shifted": 157_696,
    "attempt": 5,
    "cache.get": 7,
    "cache.put": 7,
    "tracer.record": 21,
    "log.records": 7,
}

#: The same request again: seven cache reads, one request span, and
#: nothing simulated.
SERVE_WARM = {"cache.get": 7, "tracer.record": 1, "log.records": 2}


class TestSweepCounters:
    def test_vector_sweep(self, work, tmp_path):
        result = run_sweep(
            GRID, jobs=1, cache=ResultCache(tmp_path / "cache"), telemetry=True
        )
        assert len(result.results) == 14
        assert work.snapshot() == VECTOR_SWEEP

    def test_refresh_sweep_on_the_exact_loop(self, work):
        result = run_sweep(REFRESH_GRID, jobs=1)
        assert len(result.results) == 14
        assert work.snapshot() == REFRESH_SWEEP


class TestServeCounters:
    def test_cold_then_warm_request(self, work, tmp_path):
        with PlanService(
            cache=ResultCache(tmp_path / "cache"), jobs=1, tracer=RequestTracer()
        ) as plan_service:
            assert work.snapshot() == {"log.records": 1}  # "service started"
            assert plan_service.handle(dict(SPEC))[0] == 200
            cold = work.snapshot()
            assert plan_service.handle(dict(SPEC))[0] == 200
            warm = work.snapshot()
        assert cold == SERVE_COLD
        assert warm == SERVE_WARM
