"""Cross-process run telemetry: worker payloads, their fold, the run trace.

The parallel sweep engine and the planning service both run points in
worker processes.  This module threads one trace through them, and
:class:`~repro.obs.spans.Span` is its only record of host time:

* every worker task carries the W3C
  :class:`~repro.obs.tracectx.TraceContext` of its attempt (``tracectx``,
  for sweeps :func:`sweep_context` of the run id, point and attempt);
* :class:`WorkerTelemetry` -- what a worker records locally (a
  :class:`~repro.obs.spans.SpanTimeline` whose span ids derive from the
  attempt's context, and its structured log records) plus a
  :class:`ClockAnchor` pairing its monotonic clock with wall time, all
  serialized as one JSON-native payload shipped back with the result;
* :func:`fold_worker` -- the one fold of such a payload, for sweep and
  serve alike: spans and log records are shifted into the caller's
  monotonic clock domain and the records go to the global log pipeline;
* :func:`attempt_span` -- the ``attempt`` span of one entry of the
  retry loop's attempt log, again for sweep and serve alike;
* :class:`RunTelemetry` -- a sweep's run trace: runner spans, per-point
  lifecycle spans (``queue_wait``, ``attempt``, ``cache_hit``) and the
  folded worker payloads, exported as ONE Chrome ``trace_event`` JSON
  whose slices carry the same ``trace_id``/``span_id``/``parent_id``
  args as a serve trace.

All wall-clock reads in the repository's deterministic layers happen
here (``repro.obs`` is the DET001-exempt zone); telemetry is run
*metadata* and never part of a deterministic result document.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import IO, Any

from repro.errors import ReproError
from repro.obs.export import chrome_track_name, dump_json
from repro.obs.histogram import QUEUE_WAIT_BOUNDS
from repro.obs.logging import (
    DEBUG,
    ListSink,
    LogPipeline,
    LogRecord,
    StructuredLogger,
    global_pipeline,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanTimeline
from repro.obs.tracectx import TraceContext, TraceError

#: Schema tag stamped into every serialized worker payload (v2 replaced
#: the run id with the attempt's ``tracectx`` and gave every span its
#: derived ``span_id``/``parent_id``; v3 ships each span as
#: :meth:`~repro.obs.spans.Span.as_dict`; v4 drops the ``events`` and
#: ``metrics`` members: spans and log records are all a worker ships).
WORKER_TELEMETRY_SCHEMA = "repro-worker-telemetry/v4"

#: Chrome pid of the parent runner's span track.
RUNNER_PID = 0

#: Chrome pid of the per-point lifecycle track group.
POINTS_PID = 1

#: First chrome pid assigned to worker processes (then sequential).
WORKER_PID_BASE = 100


class TelemetryError(ReproError):
    """Malformed telemetry payload or invalid telemetry use."""


# ---------------------------------------------------------------- clock anchor
@dataclass(frozen=True)
class ClockAnchor:
    """A simultaneous reading of the wall clock and the monotonic clock.

    ``perf_counter`` timestamps are only meaningful within one process;
    pairing each process's monotonic clock with wall time at a known
    instant lets the parent translate worker timestamps into its own
    monotonic domain: two anchors differ by the (wall-estimated) offset
    between the two monotonic clocks.
    """

    wall_s: float
    perf_s: float

    @classmethod
    def now(cls) -> "ClockAnchor":
        """Anchor this instant (one wall read, one monotonic read)."""
        return cls(wall_s=time.time(), perf_s=time.perf_counter())

    def offset_to(self, other: "ClockAnchor") -> float:
        """Seconds to ADD to this clock's perf timestamps to express
        them in ``other``'s perf domain."""
        return (self.wall_s - self.perf_s) - (other.wall_s - other.perf_s)

    def as_dict(self) -> dict[str, float]:
        """JSON-native form."""
        return {"wall_s": self.wall_s, "perf_s": self.perf_s}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClockAnchor":
        """Inverse of :meth:`as_dict`."""
        return cls(wall_s=float(data["wall_s"]), perf_s=float(data["perf_s"]))


# --------------------------------------------------------------- trace context
def sweep_context(run_id: str, point_id: int, attempt: int = 1) -> TraceContext:
    """The trace context of one sweep point attempt.

    A pure function of (run id, point index, attempt): every point of a
    run shares the run's ``trace_id``, and reruns derive the same ids.
    """
    return (
        TraceContext.root(run_id)
        .child("point", point_id)
        .child("attempt", attempt)
    )


# ---------------------------------------------------------------- attempt span
def attempt_span(record: dict[str, Any]) -> Span:
    """The ``attempt`` span of one entry of an attempt log.

    ``record`` is one ``{attempt, status, start_s, duration_s, context}``
    entry of the ``attempts`` list
    :func:`~repro.sweep.resilience.attempt_point` returns.  Sweep and
    serve both build their ``attempt`` spans here, so the two traces
    name and annotate attempts alike.
    """
    return Span(
        name="attempt",
        start_s=record["start_s"],
        end_s=record["start_s"] + record["duration_s"],
        meta={"attempt": record["attempt"], "status": record["status"]},
        context=record["context"],
    )


class _Recorder:
    """Clock anchor and span timeline of one process."""

    def __init__(
        self, context: TraceContext, anchor: ClockAnchor | None = None
    ) -> None:
        self.anchor = anchor or ClockAnchor.now()
        #: The process's trace context; its spans' ids derive from it.
        self.context = context
        self.timeline = SpanTimeline(context)


# ------------------------------------------------------------ worker telemetry
class WorkerTelemetry(_Recorder):
    """What one worker records about one point attempt.

    Created at task pickup (which anchors the clocks), filled by the
    worker body (a ``point`` span bracketing the attempt's work, log
    records), and shipped back to the parent as the JSON-native
    :meth:`as_dict` payload riding on the task outcome.
    """

    def __init__(
        self,
        context: TraceContext,
        point_id: int = 0,
        attempt: int = 1,
        worker_id: int | None = None,
        anchor: ClockAnchor | None = None,
    ) -> None:
        super().__init__(context, anchor)
        self.point_id = point_id
        self.attempt = attempt
        self.worker_id = os.getpid() if worker_id is None else worker_id
        #: Structured log records captured by :meth:`logger`, shipped
        #: home with the payload and clock-aligned on merge like spans.
        self.logs: list[LogRecord] = []
        self._log_pipeline = LogPipeline(level=DEBUG)
        self._log_pipeline.sinks = [ListSink(self.logs)]

    def logger(
        self, name: str = "repro.sweep.worker", **extra: Any
    ) -> StructuredLogger:
        """A logger whose records are captured into :attr:`logs`.

        The returned logger is pre-bound with the full correlation
        context (point, worker pid, attempt, trace id, plus any
        non-``None`` ``extra`` context such as the sweep's ``run_id``)
        and writes into this payload only -- records travel home with
        the task outcome and reach the parent's sinks via
        :func:`fold_worker`, clock-aligned like spans.
        """
        context: dict[str, Any] = {
            key: value for key, value in extra.items() if value is not None
        }
        context.update(
            point_id=self.point_id,
            worker_id=self.worker_id,
            attempt=self.attempt,
            trace_id=self.context.trace_id,
        )
        return StructuredLogger(name, context, self._log_pipeline)

    def as_dict(self) -> dict[str, Any]:
        """The JSON-native payload shipped back with the task outcome."""
        return {
            "schema": WORKER_TELEMETRY_SCHEMA,
            "tracectx": self.context.as_dict(),
            "point_id": self.point_id,
            "attempt": self.attempt,
            "worker_id": self.worker_id,
            "anchor": self.anchor.as_dict(),
            "spans": [span.as_dict() for span in self.timeline.spans],
            "logs": [record.as_dict() for record in self.logs],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkerTelemetry":
        """Rebuild a worker payload (inverse of :meth:`as_dict`).

        Raises :class:`TelemetryError` on a missing/foreign schema tag
        or malformed members -- a worker payload is machine-generated,
        so anything unexpected is a bug, not user input to coerce.
        """
        if not isinstance(data, dict):
            raise TelemetryError("worker telemetry payload must be a mapping")
        if data.get("schema") != WORKER_TELEMETRY_SCHEMA:
            raise TelemetryError(
                f"not a worker telemetry payload "
                f"(schema {data.get('schema')!r} != {WORKER_TELEMETRY_SCHEMA!r})"
            )
        try:
            telemetry = cls(
                TraceContext.from_dict(data["tracectx"]),
                point_id=int(data["point_id"]),
                attempt=int(data.get("attempt", 1)),
                worker_id=int(data["worker_id"]),
                anchor=ClockAnchor.from_dict(data["anchor"]),
            )
            spans = telemetry.timeline.spans
            index_of: dict[str, int] = {}
            for entry in data.get("spans", []):
                context = TraceContext(
                    str(entry["trace_id"]),
                    str(entry["span_id"]),
                    entry["parent_id"],
                )
                parent = index_of.get(str(context.parent_id), -1)
                start_s = float(entry["start_s"])
                index_of[context.span_id] = len(spans)
                spans.append(
                    Span(
                        name=str(entry["name"]),
                        start_s=start_s,
                        end_s=start_s + float(entry["duration_s"]),
                        depth=spans[parent].depth + 1 if parent >= 0 else 0,
                        parent=parent,
                        meta=dict(entry["meta"]),
                        context=context,
                    )
                )
            telemetry.logs.extend(
                LogRecord.from_dict(entry)
                for entry in data.get("logs", [])
            )
        except (
            KeyError, TypeError, ValueError, AttributeError, TraceError
        ) as exc:
            raise TelemetryError(
                f"malformed worker telemetry payload ({exc!r})"
            ) from exc
        return telemetry


# ----------------------------------------------------------------- worker fold
def fold_worker(
    payload: dict[str, Any], anchor: ClockAnchor, trace_id: str | None = None
) -> dict[str, Any]:
    """Fold one worker payload into the clock domain of ``anchor``.

    The one fold of sweep and serve: rebuilds the
    :class:`WorkerTelemetry`, shifts its spans and log records by the
    anchor-pair offset (each span keeps its derived trace ids) and sends
    the shifted records to the global log pipeline.  Returns the aligned
    record: the payload's ``worker_id``, ``point_id``, ``attempt`` and
    ``trace_id``, the ``clock_offset_s`` applied, and the shifted
    ``spans`` and ``logs``.

    Raises :class:`TelemetryError` on a malformed payload or, when
    ``trace_id`` is given, on a payload of another trace, before any
    record is sent.
    """
    telemetry = WorkerTelemetry.from_dict(payload)
    if trace_id is not None and telemetry.context.trace_id != trace_id:
        raise TelemetryError(
            f"worker payload belongs to trace {telemetry.context.trace_id!r}, "
            f"expected {trace_id!r}"
        )
    offset = telemetry.anchor.offset_to(anchor)
    logs = [log.shifted(offset) for log in telemetry.logs]
    pipeline = global_pipeline()
    for log in logs:
        if pipeline.enabled_for(log.level):
            pipeline.emit(log)
    return {
        "worker_id": telemetry.worker_id,
        "point_id": telemetry.point_id,
        "attempt": telemetry.attempt,
        "trace_id": telemetry.context.trace_id,
        "clock_offset_s": offset,
        "spans": [span.shifted(offset) for span in telemetry.timeline.spans],
        "logs": logs,
    }


# --------------------------------------------------------------- run telemetry
class RunTelemetry(_Recorder):
    """A sweep's run trace, in the parent's monotonic clock domain.

    Collects the runner's own spans, each point's lifecycle spans
    (``queue_wait``, ``attempt``, ``cache_hit``, ``shared``) and every
    worker's :class:`WorkerTelemetry` payload folded by
    :func:`fold_worker`, and exports the lot as one Chrome/Perfetto
    trace.  :attr:`registry`
    holds the run's ``telemetry.queue_wait_s`` histogram.
    """

    def __init__(self, run_id: str) -> None:
        # The run's root context: every worker payload shares its trace.
        super().__init__(TraceContext.root(run_id))
        self.run_id = run_id
        self.registry = MetricsRegistry()
        #: Aligned worker records (:func:`fold_worker`), in merge order.
        self.workers: list[dict[str, Any]] = []
        #: Point index -> its lifecycle spans, in record order.
        self.point_spans: dict[int, list[Span]] = {}
        self._submits: dict[int, float] = {}

    # ------------------------------------------------------------- recording
    def mark_submit(self, point_id: int) -> None:
        """Record the dispatch instant of one point (queue-wait origin)."""
        self._submits[point_id] = time.perf_counter()

    def mark_cache_hit(self, point_id: int) -> None:
        """Record a zero-length ``cache_hit`` span on the point's track."""
        now = time.perf_counter()
        self._point_span(point_id, "cache_hit", now, now)

    def mark_shared(self, point_id: int, representative: int) -> None:
        """Record a zero-length ``shared`` span on the point's track.

        The point took the run of point ``representative``, which
        priced the same column phase.
        """
        now = time.perf_counter()
        self._point_span(
            point_id, "shared", now, now, representative=representative
        )

    def record_attempts(
        self, point_id: int, attempts: list[dict[str, Any]]
    ) -> None:
        """One ``attempt`` span per entry of the point's attempt log."""
        self.point_spans.setdefault(point_id, []).extend(
            attempt_span(record) for record in attempts
        )

    def _point_span(
        self, point_id: int, name: str, start_s: float, end_s: float,
        **meta: Any,
    ) -> None:
        context = sweep_context(self.run_id, point_id).child(name)
        self.point_spans.setdefault(point_id, []).append(
            Span(name, start_s, end_s, meta=meta, context=context)
        )

    # --------------------------------------------------------------- merging
    def merge_worker(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Fold one worker payload in; returns the aligned record.

        :func:`fold_worker` aligns it into the parent's clock domain,
        and a ``queue_wait`` span runs from the point's dispatch to the
        worker's first span.
        """
        record = fold_worker(payload, self.anchor, self.context.trace_id)
        self.workers.append(record)
        point_id = record["point_id"]
        submitted = self._submits.get(point_id)
        started = min((span.start_s for span in record["spans"]), default=None)
        if submitted is not None and started is not None:
            wait = max(0.0, started - submitted)
            self._point_span(
                point_id, "queue_wait", submitted, submitted + wait,
                worker=record["worker_id"],
            )
            self.registry.histogram(
                "telemetry.queue_wait_s",
                QUEUE_WAIT_BOUNDS,
                help="dispatch-to-worker-start wait per point (seconds)",
            ).observe(wait)
        return record

    # ----------------------------------------------------------------- views
    def worker_ids(self) -> list[int]:
        """Distinct worker (OS process) ids, in first-seen order."""
        seen: dict[int, None] = {}
        for record in self.workers:
            seen.setdefault(record["worker_id"], None)
        return list(seen)

    def _all_spans(self) -> list[Span]:
        spans = list(self.timeline.spans)
        for point_spans in self.point_spans.values():
            spans += point_spans
        for record in self.workers:
            spans += record["spans"]
        return spans

    def origin_s(self) -> float:
        """Earliest aligned timestamp across the whole run (0 if empty)."""
        candidates = [span.start_s for span in self._all_spans()]
        return min(candidates + list(self._submits.values()), default=0.0)

    def summary(self) -> str:
        """One-line human description of the merged trace."""
        return (
            f"run {self.run_id}: {len(self.workers)} worker payload(s) from "
            f"{len(self.worker_ids())} process(es), "
            f"{len(self._all_spans())} spans"
        )

    # ---------------------------------------------------------------- export
    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """ONE Chrome ``trace_event`` JSON for the entire run.

        Track layout: pid :data:`RUNNER_PID` carries the parent runner's
        span timeline; pid :data:`POINTS_PID` has one thread per grid
        point with its lifecycle spans (``queue_wait``, ``attempt``,
        zero-length ``cache_hit`` and ``shared``); each worker process
        gets its own pid (named after the worker's OS pid) whose slices are the
        clock-aligned worker spans.  Every slice is a span carrying
        ``trace_id``/``span_id``/``parent_id`` args like a serve trace.  All timestamps are
        microseconds relative to the earliest aligned instant, so the
        viewer opens at t=0 with every process on one monotonic axis.
        """
        origin = self.origin_s()
        out = [chrome_track_name(RUNNER_PID, "sweep runner")]
        out.extend(
            self.timeline.to_chrome_events(
                pid=RUNNER_PID, tid=0, clock_offset_s=origin
            )
        )

        point_ids = sorted(
            set(self.point_spans)
            | {record["point_id"] for record in self.workers}
        )
        if point_ids:
            out.append(chrome_track_name(POINTS_PID, "sweep points"))
        out.extend(
            chrome_track_name(POINTS_PID, f"point {point_id}", tid=point_id)
            for point_id in point_ids
        )
        for point_id, spans in self.point_spans.items():
            out.extend(
                span.chrome_event(POINTS_PID, point_id, origin, point=point_id)
                for span in spans
            )

        pid_of = {
            worker_id: WORKER_PID_BASE + index
            for index, worker_id in enumerate(self.worker_ids())
        }
        out.extend(
            chrome_track_name(pid, f"worker pid={worker_id}")
            for worker_id, pid in pid_of.items()
        )
        for record in self.workers:
            pid = pid_of[record["worker_id"]]
            out.extend(
                span.chrome_event(pid, 0, origin, point=record["point_id"])
                for span in record["spans"]
            )

        doc: dict = {"traceEvents": out, "displayTimeUnit": "ms"}
        other = {"run_id": self.run_id, "workers": len(pid_of)}
        if metadata:
            other.update({str(k): str(v) for k, v in metadata.items()})
        doc["otherData"] = {str(k): str(v) for k, v in other.items()}
        return doc

    def write_chrome_trace(
        self, target: str | IO[str], metadata: dict | None = None
    ) -> None:
        """Serialize :meth:`chrome_trace` to a path or open text file."""
        dump_json(self.chrome_trace(metadata=metadata), target)
