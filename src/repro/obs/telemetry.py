"""Cross-process run telemetry: worker payloads and their merge.

The parallel sweep engine and the planning service both run points in
worker processes, and before this module those workers were
observability black holes: per-point spans, retry timing and cache
behaviour died inside the child process, leaving a 40-point sweep
summarised by one wall-clock number.  This module threads one trace
through the whole run:

* every worker task carries the W3C
  :class:`~repro.obs.tracectx.TraceContext` of its attempt (``tracectx``,
  for sweeps :func:`sweep_context` of the run id, point and attempt);
* :class:`WorkerTelemetry` -- what a worker records locally (a
  :class:`~repro.obs.spans.SpanTimeline` whose span ids derive from the
  attempt's context, run-telemetry events, a
  :class:`~repro.obs.metrics.MetricsRegistry`) plus a
  :class:`ClockAnchor` pairing its monotonic clock with wall time, all
  serialized as one JSON-native payload shipped back with the result;
* :class:`RunTelemetry` -- the parent-side merge: every worker payload
  is aligned into the parent's monotonic clock domain via the anchors,
  queue waits are derived from dispatch-vs-start timestamps, and the
  whole run exports as ONE Chrome ``trace_event`` JSON -- runner spans,
  per-point lifecycle tracks (queue wait, retries, cache hits) and one
  process per worker, whose spans carry the same
  ``trace_id``/``span_id``/``parent_id`` args as a serve trace.

All wall-clock reads in the repository's deterministic layers happen
here (``repro.obs`` is the DET001-exempt zone); telemetry is run
*metadata* and never part of a deterministic result document.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import IO, Any

from repro.errors import ReproError
from repro.obs.events import (
    EV_QUEUE_WAIT,
    EV_WORKER_START,
    EventKind,
    registered_event_names,
)
from repro.obs.export import chrome_track_name, dump_json, event_slice_name
from repro.obs.histogram import QUEUE_WAIT_BOUNDS
from repro.obs.logging import (
    DEBUG,
    ListSink,
    LogPipeline,
    LogRecord,
    StructuredLogger,
    global_pipeline,
    json_safe,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanTimeline
from repro.obs.tracectx import TraceContext, TraceError

#: Schema tag stamped into every serialized worker payload (v2 replaced
#: the run id with the attempt's ``tracectx`` and gave every span its
#: derived ``span_id``/``parent_id``; v3 ships each span as
#: :meth:`~repro.obs.spans.Span.as_dict`).
WORKER_TELEMETRY_SCHEMA = "repro-worker-telemetry/v3"

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


# ------------------------------------------------------------ telemetry events
@dataclass(frozen=True)
class TelemetryEvent:
    """One run-telemetry event in some process's monotonic clock.

    Attributes:
        kind: a registered :class:`~repro.obs.events.EventKind` value.
        ts_s: ``perf_counter`` timestamp (process-local until aligned).
        dur_s: duration (0 for instants).
        meta: free-form JSON-native annotations (point, attempt, ...).
    """

    kind: int
    ts_s: float
    dur_s: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-native form."""
        return {
            "kind": int(self.kind),
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetryEvent":
        """Inverse of :meth:`as_dict` (validates the kind is registered)."""
        kind = int(data["kind"])
        try:
            name = EventKind(kind).name
        except ValueError:
            name = ""
        if name not in registered_event_names():
            raise TelemetryError(f"unregistered telemetry event kind {kind}")
        return cls(
            kind=kind,
            ts_s=float(data["ts_s"]),
            dur_s=float(data.get("dur_s", 0.0)),
            meta=dict(data.get("meta", {})),
        )

    def chrome_event(self, pid: int, tid: int, origin_s: float) -> dict:
        """This event as a Chrome slice (``X``) or instant (``i``)."""
        entry = {
            "name": event_slice_name(self.kind),
            "cat": "telemetry",
            "pid": pid,
            "tid": tid,
            "ts": (self.ts_s - origin_s) * 1e6,
            "args": {k: json_safe(v) for k, v in self.meta.items()},
        }
        if self.dur_s > 0:
            entry.update(ph="X", dur=self.dur_s * 1e6)
        else:
            entry.update(ph="i", s="t")
        return entry


class _Recorder:
    """Clock anchor, span timeline, events and metrics of one process."""

    def __init__(
        self, context: TraceContext, anchor: ClockAnchor | None = None
    ) -> None:
        self.anchor = anchor or ClockAnchor.now()
        #: The process's trace context; its spans' ids derive from it.
        self.context = context
        self.timeline = SpanTimeline(context)
        self.registry = MetricsRegistry()
        self.events: list[TelemetryEvent] = []

    def now(self) -> float:
        """This process's monotonic clock (``perf_counter`` seconds)."""
        return time.perf_counter()

    def record_event(
        self, kind: int, dur_s: float = 0.0, ts_s: float | None = None,
        **meta: Any,
    ) -> TelemetryEvent:
        """Record one run-telemetry event (timestamped now by default)."""
        event = TelemetryEvent(
            kind=int(kind),
            ts_s=self.now() if ts_s is None else ts_s,
            dur_s=dur_s,
            meta={k: json_safe(v) for k, v in meta.items()},
        )
        self.events.append(event)
        return event


# ------------------------------------------------------------ worker telemetry
class WorkerTelemetry(_Recorder):
    """What one worker records about one point attempt.

    Created at task pickup (:meth:`start` anchors the clocks and records
    a ``WORKER_START`` event), filled by the worker body (spans around
    trace generation and simulation, telemetry events, metrics), and
    shipped back to the parent as the JSON-native :meth:`as_dict`
    payload riding on the task outcome.
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

    @classmethod
    def start(
        cls, context: TraceContext, point_id: int = 0, attempt: int = 1
    ) -> "WorkerTelemetry":
        """Begin recording: anchor the clocks, mark ``WORKER_START``."""
        telemetry = cls(context, point_id, attempt)
        telemetry.record_event(EV_WORKER_START, point=point_id, attempt=attempt)
        return telemetry

    def logger(
        self, name: str = "repro.sweep.worker", **extra: Any
    ) -> StructuredLogger:
        """A logger whose records are captured into :attr:`logs`.

        The returned logger is pre-bound with the full correlation
        context (point, worker pid, attempt, trace id, plus any
        non-``None`` ``extra`` context such as the sweep's ``run_id``)
        and writes into this payload only -- records travel home with
        the task outcome and reach the parent's sinks via
        :meth:`RunTelemetry.merge_worker`, clock-aligned like spans.
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
            "events": [event.as_dict() for event in self.events],
            "metrics": self.registry.as_dict(),
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
            telemetry.events = [
                TelemetryEvent.from_dict(entry)
                for entry in data.get("events", [])
            ]
            telemetry.registry = MetricsRegistry().merge_snapshot(
                data.get("metrics", {})
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


# --------------------------------------------------------------- run telemetry
class RunTelemetry(_Recorder):
    """The parent-side merge of a whole run's telemetry.

    Collects the runner's own spans and events, dispatch timestamps per
    point, and every worker's :class:`WorkerTelemetry` payload -- each
    aligned into the parent's monotonic clock domain via the paired
    :class:`ClockAnchor` readings -- and exports the lot as one
    Chrome/Perfetto trace plus a merged metrics registry.
    """

    def __init__(self, run_id: str) -> None:
        # The run's root context: every worker payload shares its trace.
        super().__init__(TraceContext.root(run_id))
        self.run_id = run_id
        #: Aligned worker records, in merge order.  Each holds the raw
        #: payload's identity plus spans/events shifted into the parent
        #: clock domain.
        self.workers: list[dict[str, Any]] = []
        self._submits: dict[int, float] = {}

    @classmethod
    def start(cls, run_id: str) -> "RunTelemetry":
        """Anchor the parent clocks and begin a run trace."""
        return cls(run_id)

    # ------------------------------------------------------------- recording
    def mark_submit(self, point_id: int) -> None:
        """Record the dispatch instant of one point (queue-wait origin)."""
        self._submits[point_id] = self.now()

    # --------------------------------------------------------------- merging
    def merge_worker(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Fold one worker payload in; returns the aligned record.

        Spans and events are shifted into the parent's monotonic domain
        (anchor-pair offset), each span keeping its derived trace ids, a
        ``QUEUE_WAIT`` event is derived from the dispatch timestamp, and
        the worker's metrics fold into :attr:`registry`.
        """
        telemetry = WorkerTelemetry.from_dict(payload)
        trace_id = telemetry.context.trace_id
        if trace_id != self.context.trace_id:
            raise TelemetryError(
                f"worker payload belongs to trace {trace_id!r}, "
                f"expected run {self.run_id!r}"
            )
        offset = telemetry.anchor.offset_to(self.anchor)
        point_id = telemetry.point_id
        spans = [span.shifted(offset) for span in telemetry.timeline.spans]
        events = [
            replace(event, ts_s=event.ts_s + offset)
            for event in telemetry.events
        ]
        logs = [log.shifted(offset) for log in telemetry.logs]
        record = {
            "worker_id": telemetry.worker_id,
            "point_id": point_id,
            "attempt": telemetry.attempt,
            "trace_id": trace_id,
            "clock_offset_s": offset,
            "spans": spans,
            "events": events,
            "logs": logs,
        }
        self.workers.append(record)
        self.registry.merge_snapshot(telemetry.registry.as_dict())
        pipeline = global_pipeline()
        for log in logs:
            if pipeline.enabled_for(log.level):
                pipeline.emit(log)
        submitted = self._submits.get(point_id)
        started = min((span.start_s for span in spans), default=None)
        if submitted is not None and started is not None:
            wait = max(0.0, started - submitted)
            self.record_event(
                EV_QUEUE_WAIT,
                dur_s=wait,
                ts_s=submitted,
                point=point_id,
                worker=telemetry.worker_id,
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

    def origin_s(self) -> float:
        """Earliest aligned timestamp across the whole run (0 if empty)."""
        candidates = [span.start_s for span in self.timeline.spans]
        candidates += [event.ts_s for event in self.events]
        candidates += list(self._submits.values())
        for record in self.workers:
            candidates += [span.start_s for span in record["spans"]]
            candidates += [event.ts_s for event in record["events"]]
        return min(candidates, default=0.0)

    def summary(self) -> str:
        """One-line human description of the merged trace."""
        spans = len(self.timeline) + sum(
            len(record["spans"]) for record in self.workers
        )
        events = len(self.events) + sum(
            len(record["events"]) for record in self.workers
        )
        return (
            f"run {self.run_id}: {len(self.workers)} worker payload(s) from "
            f"{len(self.worker_ids())} process(es), {spans} spans, "
            f"{events} telemetry events"
        )

    # ---------------------------------------------------------------- export
    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """ONE Chrome ``trace_event`` JSON for the entire run.

        Track layout: pid :data:`RUNNER_PID` carries the parent runner's
        span timeline; pid :data:`POINTS_PID` has one thread per grid
        point with its lifecycle slices (``QUEUE_WAIT`` waits, ``RETRY``
        and ``CACHE_HIT`` instants); each worker process gets its own
        pid (named after the worker's OS pid) whose slices are the
        clock-aligned worker spans, carrying ``trace_id``/``span_id``/
        ``parent_id`` args like a serve trace.  All timestamps are
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
            {event.meta["point"] for event in self.events
             if "point" in event.meta}
            | {record["point_id"] for record in self.workers}
        )
        if point_ids:
            out.append(chrome_track_name(POINTS_PID, "sweep points"))
        out.extend(
            chrome_track_name(POINTS_PID, f"point {point_id}", tid=point_id)
            for point_id in point_ids
        )
        out.extend(
            event.chrome_event(POINTS_PID, event.meta.get("point", 0), origin)
            for event in self.events
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
            out.extend(
                event.chrome_event(pid, 0, origin) for event in record["events"]
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
