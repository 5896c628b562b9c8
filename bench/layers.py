"""Per-layer tracing for the benchmark's traced run.

The traced run times each layer of the program from outside: it wraps
the layer's public callables at the names their callers import and
records one span per call (name, start, end, parent, a few attributes).
Nothing here is imported by an untraced run.

Spans use ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so spans from different processes share one timeline.
A span's parent is the innermost span open in the same thread (kept in
a context variable, which a forked child inherits), so a point computed
in a pool worker or a ``run_attempt`` child hangs under the span that
forked it.  Each process appends its spans to ``<dir>/<pid>.jsonl``:
the main program process when it calls :meth:`SpanRecorder.flush`,
forked ``multiprocessing`` children through a finalizer that runs as
they exit.  :func:`load_spans` merges the files afterwards.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from stats import percentile

#: Ids of the spans open in the current thread (or task), innermost last.
_OPEN: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "bench_open_spans", default=()
)

AttrsOf = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """Collects finished spans in memory; one instance per traced program."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._spans: list[tuple] = []

    def _own_pid(self) -> int:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked child: the inherited list holds the
            # parent's unflushed spans, which the parent writes itself.
            self._pid = pid
            self._ids = itertools.count()
            self._spans = []
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)
        return pid

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """A span around a block; yields its attribute dict to fill in."""
        span_id = f"{self._own_pid()}.{next(self._ids)}"
        outer = _OPEN.get()
        token = _OPEN.set(outer + (span_id,))
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            _OPEN.reset(token)
            parent = outer[-1] if outer else None
            self._spans.append(
                (span_id, parent, name, start, end, threading.get_native_id(), attrs)
            )

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        attrs_of: AttrsOf | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``attrs_of(args, kwargs, result)`` fills the span's attributes
        after the span has ended, so it is not timed.
        """
        with self.span(name) as attrs:
            result = fn(*args, **kwargs)
        if attrs_of is not None:
            attrs.update(attrs_of(args, kwargs, result))
        return result

    def flush(self) -> None:
        """Append this process's finished spans to its ``<pid>.jsonl``.

        The write is itself a ``bench.flush`` span under the innermost
        open span.  In a forked child that is the span that forked it,
        which waits for the child to exit; self time then leaves the
        benchmark's own I/O out of that span.
        """
        spans, self._spans = self._spans, []
        if not spans:
            return
        with self.span("bench.flush", spans=len(spans)):
            lines = [_record(span) for span in spans]
            with open(self._path(), "a", encoding="utf-8") as out:
                out.writelines(lines)
        with open(self._path(), "a", encoding="utf-8") as out:
            out.write(_record(self._spans.pop()))

    def _path(self) -> Path:
        return self.out_dir / f"{os.getpid()}.jsonl"


def _record(span: tuple) -> str:
    span_id, parent, name, start, end, tid, attrs = span
    record = {
        "id": span_id,
        "parent": parent,
        "name": name,
        "pid": int(span_id.split(".")[0]),
        "tid": tid,
        "start": start,
        "end": end,
        "attrs": attrs,
    }
    return json.dumps(record) + "\n"


# ----------------------------------------------------------------- wrapping
def _trace_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"requests": len(result)}


def _simulate_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    memory = args[0]
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    sample = args[3] if len(args) > 3 else kwargs.get("sample")
    total = len(trace)
    used = sample if sample is not None and 0 < sample < total else total
    return {
        "engine": memory.last_engine,
        "fallback": memory.last_fallback_reason,
        "requests": used,
    }


def _get_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"hit": result is not None}


def _attempt_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    task = args[0] if args else kwargs["task"]
    return {
        "status": result.get("status"),
        "attempt": task.get("attempt", 1),
        "trace_id": (task.get("tracectx") or {}).get("trace_id"),
    }


def _handle_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    code, payload, _ = result
    return {"code": code, "trace_id": payload.get("trace_id")}


def _envelope_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"trace_id": result.get("trace_id")}


def _tracer_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    context = args[1] if len(args) > 1 else kwargs["context"]
    return {"trace_id": context.trace_id}


def _log_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    logger, level = args[0], args[1]
    return {"emitted": logger.pipeline().enabled_for(level)}


def _compute_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    context = args[4] if len(args) > 4 else kwargs.get("ctx")
    return {"trace_id": context.trace_id if context is not None else None}


def _in_caller_span(original: Callable[..., Any]) -> Callable[..., Any]:
    """Make a coroutine method run under the span open where it was called.

    ``PlanService.handle`` builds its ``_handle`` coroutine on the HTTP
    thread and runs it on the event loop; this carries the handle span
    across, so the loop-side work nests under it.
    """

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        outer = _OPEN.get()
        coroutine = original(*args, **kwargs)

        async def run() -> Any:
            _OPEN.set(outer)  # the task runs in its own copied context
            return await coroutine

        return run()

    return wrapper


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every traced layer boundary; returns the targets not found.

    Module-level functions are replaced in the module their callers
    import them from, methods on their class, so calls made from forked
    children are traced too.  Two private service methods are wrapped
    only to keep parentage across the service's thread hops:
    ``_handle`` (HTTP thread -> event loop) and ``_compute_point``
    (event loop -> worker thread, linked back by ``trace_id``).
    """
    import repro.core.simulate as core_simulate
    import repro.memory3d.memory as memory
    import repro.obs.logging as obs_logging
    import repro.obs.tracectx as tracectx
    import repro.serve.schemas as schemas
    import repro.serve.service as service
    import repro.sweep.cache as cache
    import repro.sweep.runner as runner

    targets: list[tuple[Any, str, str, AttrsOf | None]] = [
        (core_simulate, "column_walk_trace", "trace.gen", _trace_attrs),
        (core_simulate, "block_column_read_trace", "trace.gen", _trace_attrs),
        (core_simulate, "row_walk_trace", "trace.gen", _trace_attrs),
        (core_simulate, "block_write_trace", "trace.gen", _trace_attrs),
        (memory.Memory3D, "simulate", "memory3d.simulate", _simulate_attrs),
        (runner, "simulate_column_phase", "core.simulate_column_phase", None),
        (runner, "point_result", "sweep.point_result", None),
        (cache.ResultCache, "get", "cache.get", _get_attrs),
        (cache.ResultCache, "put", "cache.put", None),
        (runner, "run_attempt", "attempt", _attempt_attrs),
        (service, "run_attempt", "attempt", _attempt_attrs),
        (service, "parse_plan_request", "serve.parse", None),
        (schemas.PlanRequest, "point_payloads", "serve.point_payloads", None),
        (service, "response_envelope", "serve.envelope", _envelope_attrs),
        (service.PlanService, "handle", "serve.handle", _handle_attrs),
        (service.PlanService, "_compute_point", "serve.compute_point", _compute_attrs),
        (tracectx.RequestTracer, "record", "obs.tracer.record", _tracer_attrs),
        (tracectx.RequestTracer, "link", "obs.tracer.link", _tracer_attrs),
        (obs_logging.StructuredLogger, "log", "obs.log", _log_attrs),
    ]
    missing = []
    for owner, attr, name, attrs_of in targets:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, _wrapped(recorder, name, original, attrs_of))
    handle_core = getattr(service.PlanService, "_handle", None)
    if handle_core is None:
        missing.append("PlanService._handle")
    else:
        service.PlanService._handle = _in_caller_span(handle_core)
    return missing


def _wrapped(
    recorder: SpanRecorder,
    name: str,
    original: Callable[..., Any],
    attrs_of: AttrsOf | None,
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, original, args, kwargs, attrs_of)

    return wrapper


# ------------------------------------------------------------------ analysis
def load_spans(directory: str | Path) -> list[dict]:
    """Every span written under ``directory``, ordered by start time."""
    spans = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    spans.sort(key=lambda span: span["start"])
    return spans


def link_requests(spans: list[dict]) -> None:
    """Hang cross-thread service work under its request's handle span.

    The service hands a request from the HTTP thread to its event loop
    and worker threads, where the thread-local parent is lost; spans
    that carry the request's ``trace_id`` are re-parented to the
    ``serve.handle`` span that answered it.
    """
    handles = {
        span["attrs"].get("trace_id"): span["id"]
        for span in spans
        if span["name"] == "serve.handle" and span["attrs"].get("trace_id")
    }
    for span in spans:
        trace_id = span["attrs"].get("trace_id")
        if span["parent"] is None and trace_id in handles:
            if handles[trace_id] != span["id"]:
                span["parent"] = handles[trace_id]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the time its children cover."""
    ids = {span["id"] for span in spans}
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] in ids:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(span["start"], span["end"], children.get(span["id"], []))
        for span in spans
    }


#: The benchmark's own work (span writes): in no share, and no whole.
BENCH_LAYER = "bench"

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "trace.gen": "trace",
    "core.simulate_column_phase": "core",
    "sweep.point_result": "sweep",
    "bench.sweep_call": "sweep",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "attempt": "attempt",
    "serve.handle": "serve.handle",
    "serve.compute_point": "serve.handle",
    "serve.parse": "serve.parse",
    "serve.point_payloads": "serve.payloads",
    "serve.envelope": "serve.envelope",
    "obs.tracer.record": "obs.tracer",
    "obs.tracer.link": "obs.tracer",
    "obs.log": "obs.log",
    "bench.flush": BENCH_LAYER,
}

#: Layers that get a ``<layer>.self_share`` metric.
SHARE_LAYERS = (
    "trace",
    "memory3d.vector",
    "memory3d.exact",
    "core",
    "sweep",
    "cache.get",
    "cache.put",
    "attempt",
    "serve.handle",
    "serve.parse",
    "serve.payloads",
    "serve.envelope",
    "obs.tracer",
    "obs.log",
)


def layer_of(span: dict) -> str:
    """The layer a span's self time belongs to."""
    if span["name"] == "memory3d.simulate":
        return "memory3d." + (span["attrs"].get("engine") or "exact")
    return LAYER_OF.get(span["name"], span["name"])


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[dict], ops: int, capacity_s: float) -> dict[str, Any]:
    """Per-layer metrics of one traced workload window.

    ``ops`` is the number of operations the window completed (requests
    or sweep calls); ``capacity_s`` is worker slots times wall seconds,
    the denominator of ``sweep.parallel_efficiency``.
    """
    link_requests(spans)
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durations(name: str) -> list[float]:
        return [span["end"] - span["start"] for span in by_name[name]]

    def own_times(name: str) -> list[float]:
        return [own[span["id"]] for span in by_name[name]]

    layer_self: Counter[str] = Counter()
    for span in spans:
        layer_self[layer_of(span)] += own[span["id"]]
    total_self = sum(layer_self.values()) - layer_self[BENCH_LAYER]

    generated = sum(span["attrs"].get("requests", 0) for span in by_name["trace.gen"])
    sims = by_name["memory3d.simulate"]
    per_engine: dict[str, list[dict]] = {"vector": [], "exact": []}
    for span in sims:
        per_engine[span["attrs"].get("engine") or "exact"].append(span)
    simulated = sum(span["attrs"]["requests"] for span in sims)
    fallbacks = Counter(
        span["attrs"]["fallback"] for span in sims if span["attrs"].get("fallback")
    )

    def ns_per_request(engine: str) -> float:
        spans_of = per_engine[engine]
        requests = sum(span["attrs"]["requests"] for span in spans_of)
        busy = sum(span["end"] - span["start"] for span in spans_of)
        return _share(busy, requests) * 1e9

    gets = by_name["cache.get"]
    attempts = by_name["attempt"]
    logs = by_name["obs.log"]
    tracer_s = sum(durations("obs.tracer.record")) + sum(durations("obs.tracer.link"))
    busy_s = sum(durations("sweep.point_result"))
    metrics: dict[str, Any] = {
        "trace.gen_s": sum(durations("trace.gen")),
        "trace.generated_requests": generated,
        "trace.used_share": _share(simulated, generated),
        "memory3d.vector.calls": len(per_engine["vector"]),
        "memory3d.vector.ns_per_request": ns_per_request("vector"),
        "memory3d.exact.calls": len(per_engine["exact"]),
        "memory3d.exact.ns_per_request": ns_per_request("exact"),
        "memory3d.vector_share": _share(len(per_engine["vector"]), len(sims)),
        "memory3d.fallbacks": sum(fallbacks.values()),
        "memory3d.fallback_reasons": dict(sorted(fallbacks.items())),
        "memory3d.simulated_requests": simulated,
        "core.point_s_p50": _p(durations("core.simulate_column_phase"), 50),
        "core.point_s_p90": _p(durations("core.simulate_column_phase"), 90),
        "core.self_s": sum(own_times("core.simulate_column_phase")),
        "sweep.points": len(by_name["sweep.point_result"]),
        "sweep.busy_s": busy_s,
        "sweep.parallel_efficiency": _share(busy_s, capacity_s),
        "cache.get.calls": len(gets),
        "cache.get.s_p50": _p(durations("cache.get"), 50),
        "cache.hit_share": _share(
            sum(1 for span in gets if span["attrs"].get("hit")), len(gets)
        ),
        "cache.put.calls": len(by_name["cache.put"]),
        "cache.put.s_p50": _p(durations("cache.put"), 50),
        "attempt.calls": len(attempts),
        "attempt.s_p50": _p(durations("attempt"), 50),
        "attempt.overhead_s_p50": _p(own_times("attempt"), 50),
        "attempt.retries": sum(
            1 for span in attempts if span["attrs"].get("attempt", 1) > 1
        ),
        "serve.handle.s_p50": _p(durations("serve.handle"), 50),
        "serve.handle.s_p99": _p(durations("serve.handle"), 99),
        "serve.parse.s_p50": _p(durations("serve.parse"), 50),
        "serve.envelope.s_p50": _p(durations("serve.envelope"), 50),
        "obs.tracer.s_per_request": _share(tracer_s, ops),
        "obs.log.records": sum(1 for span in logs if span["attrs"].get("emitted")),
        "obs.log.records_per_request": _share(
            sum(1 for span in logs if span["attrs"].get("emitted")), ops
        ),
        "obs.log.s_per_request": _share(sum(durations("obs.log")), ops),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = _share(layer_self[layer], total_self)
    return metrics


def in_window(spans: list[dict], start: float, end: float) -> list[dict]:
    """The spans that started inside ``[start, end)``."""
    return [span for span in spans if start <= span["start"] < end]


def chrome_trace(spans: list[dict]) -> dict:
    """A Perfetto-loadable Chrome trace (``traceEvents``) of ``spans``.

    Complete (``"X"``) events on one track per process and thread, in
    microseconds from the first span; ids, parent and attributes ride in
    ``args``.  Processes are named after the ``workload`` key the
    harness stamps on each span.
    """
    origin = min((span["start"] for span in spans), default=0.0)
    events: list[dict] = []
    named: set[int] = set()
    for span in spans:
        pid = span["pid"]
        if pid not in named:
            named.add(pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{span.get('workload', 'program')} pid {pid}"},
                }
            )
        events.append(
            {
                "name": span["name"],
                "cat": layer_of(span),
                "ph": "X",
                "pid": pid,
                "tid": span["tid"],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": span["id"], "parent": span["parent"], **span["attrs"]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
