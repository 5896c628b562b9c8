"""Structured logging: JSONL records with bound correlation context.

A multi-hour sweep (and the planned ``repro serve`` layout-planning
service) needs operational logs that a machine can aggregate: which run
emitted a line, which grid point it was about, which worker process and
attempt produced it.  This module supplies that with zero third-party
dependencies:

* :class:`LogRecord` -- one frozen, JSON-native log line.  The schema
  (:data:`LOG_SCHEMA`, :data:`CONTEXT_KEYS`) is the logging sibling of
  :data:`repro.obs.events.EVENT_REGISTRY`: every record carries a level,
  a logger name, a message, free-form ``fields`` and a *correlation
  context* restricted to the registered keys (``run_id``, ``point_id``,
  ``worker_id``, ``attempt``) so downstream tooling can join logs
  against telemetry spans and sweep documents.
* :class:`StructuredLogger` -- ``bind(**context)`` returns a child
  logger with merged context; ``debug/info/warning/error`` build a
  record and hand it to a pipeline.  Level filtering happens *before*
  record construction, which is what keeps logging-off code at seed
  speed (one integer compare per call site).
* Sinks -- :class:`RingBufferSink` (bounded in-memory tail, served by
  the monitor's ``/logs`` endpoint), :class:`JsonlSink` (on-disk JSONL
  behind the CLI's ``--log-out``) and :class:`ListSink` (worker-side
  capture shipped home inside
  :class:`~repro.obs.telemetry.WorkerTelemetry` payloads).
* A process-global :class:`LogPipeline` managed by
  :func:`configure_logging` / :func:`get_logger` /
  :func:`shutdown_logging` / :func:`reset_logging`.  Shutdown is
  idempotent and registered with ``atexit`` exactly once, so repeated
  CLI invocations in one process (tests, notebooks) never stack
  handlers -- the ``--profile`` + ``--monitor`` compose fix depends on
  this.

Every record carries two timestamps: ``ts_s`` (wall clock, for humans
and cross-host aggregation) and ``perf_s`` (monotonic, process-local).
Worker-process records are aligned into the parent's monotonic domain
by :func:`repro.obs.telemetry.fold_worker` exactly like spans, via
the paired :class:`~repro.obs.telemetry.ClockAnchor` readings.

Logging is run *metadata*: it never touches a deterministic sweep
document (``tests/test_obs_logging.py`` compares a debug-logged
sweep's document with a plain one byte for byte).
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError

#: Schema tag stamped into every serialized log record.
LOG_SCHEMA = "repro-log/v1"

#: Exact key set of a serialized ``repro-log/v1`` record.  SCHEMA001
#: holds every producer of the tag to this declaration; adding a key
#: means versioning the tag, since JSONL consumers byte-diff records.
LOG_KEYS = frozenset(
    {
        "schema",
        "level",
        "logger",
        "message",
        "ts_s",
        "perf_s",
        "context",
        "fields",
    }
)

#: The registered correlation-context keys (the logging counterpart of
#: the event registry): everything a record can be joined on.
#: ``request_id`` correlates ``repro serve`` request lifecycles;
#: ``trace_id`` joins records to the end-to-end request trace.
CONTEXT_KEYS = (
    "run_id",
    "point_id",
    "worker_id",
    "attempt",
    "request_id",
    "trace_id",
)

#: Level numbers (stdlib-compatible spacing, but no stdlib dependency).
DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

#: Level name -> number, the only names :class:`LogRecord` accepts.
LEVELS: dict[str, int] = {
    "debug": DEBUG,
    "info": INFO,
    "warning": WARNING,
    "error": ERROR,
}

#: Level number -> canonical name.
LEVEL_NAMES: dict[int, str] = {number: name for name, number in LEVELS.items()}

#: Default bounded ring capacity (records kept for ``/logs`` tails).
DEFAULT_RING_CAPACITY = 1024


class LoggingError(ReproError):
    """Invalid logger configuration or a malformed log record."""


def level_number(level: int | str) -> int:
    """Normalise a level given by name or number to its number."""
    if isinstance(level, str):
        try:
            return LEVELS[level.lower()]
        except KeyError:
            known = ", ".join(LEVELS)
            raise LoggingError(
                f"unknown log level {level!r} (known: {known})"
            ) from None
    if level not in LEVEL_NAMES:
        known = ", ".join(str(n) for n in LEVEL_NAMES)
        raise LoggingError(f"unknown log level {level} (known: {known})")
    return int(level)


def json_safe(value: Any) -> Any:
    """``value`` if JSON-native (bool/int/float/str/None), else ``str(value)``."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# ------------------------------------------------------------------ log record
@dataclass(frozen=True)
class LogRecord:
    """One structured log line (frozen, JSON-native).

    Attributes:
        level: a registered level number (:data:`LEVELS`).
        logger: dotted logger name (``repro.sweep``, ...).
        message: human-readable message (no interpolated identifiers --
            those belong in ``context``/``fields`` where machines can
            read them).
        ts_s: wall-clock seconds at emission.
        perf_s: monotonic (``perf_counter``) seconds at emission;
            process-local until clock-aligned by the telemetry merge.
        context: correlation context, keys restricted to
            :data:`CONTEXT_KEYS`.
        fields: free-form JSON-native annotations.
    """

    level: int
    logger: str
    message: str
    ts_s: float
    perf_s: float
    context: dict[str, Any] = field(default_factory=dict)
    fields: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.level not in LEVEL_NAMES:
            raise LoggingError(f"unregistered log level {self.level}")
        unknown = set(self.context) - set(CONTEXT_KEYS)
        if unknown:
            raise LoggingError(
                f"unregistered context key(s) {sorted(unknown)} "
                f"(registered: {', '.join(CONTEXT_KEYS)})"
            )

    @property
    def level_name(self) -> str:
        """Canonical level name (``"info"``, ...)."""
        return LEVEL_NAMES[self.level]

    def shifted(self, offset_s: float) -> "LogRecord":
        """A copy with ``perf_s`` moved into another clock domain."""
        return dataclasses.replace(self, perf_s=self.perf_s + offset_s)

    def as_dict(self) -> dict[str, Any]:
        """JSON-native form (one JSONL line's payload)."""
        return {
            "schema": LOG_SCHEMA,
            "level": self.level_name,
            "logger": self.logger,
            "message": self.message,
            "ts_s": self.ts_s,
            "perf_s": self.perf_s,
            "context": dict(self.context),
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogRecord":
        """Rebuild a record, validating it against the schema.

        Raises :class:`LoggingError` on a missing/foreign schema tag,
        an unregistered level or context key, or malformed members.
        """
        if not isinstance(data, dict):
            raise LoggingError("log record must be a mapping")
        if data.get("schema") != LOG_SCHEMA:
            raise LoggingError(
                f"not a log record "
                f"(schema {data.get('schema')!r} != {LOG_SCHEMA!r})"
            )
        try:
            return cls(
                level=level_number(data["level"]),
                logger=str(data["logger"]),
                message=str(data["message"]),
                ts_s=float(data["ts_s"]),
                perf_s=float(data["perf_s"]),
                context=dict(data.get("context", {})),
                fields=dict(data.get("fields", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LoggingError(f"malformed log record ({exc!r})") from exc


def validate_log_line(line: str) -> LogRecord:
    """Parse one JSONL line and validate it against the record schema."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LoggingError(f"log line is not JSON ({exc})") from exc
    return LogRecord.from_dict(payload)


# ----------------------------------------------------------------------- sinks
class LogSink:
    """Where emitted records go.  Subclasses override :meth:`emit`."""

    def emit(self, record: LogRecord) -> None:
        """Accept one record (no-op in the base class)."""

    def close(self) -> None:
        """Release resources (idempotent no-op by default)."""


class ListSink(LogSink):
    """Append records to a plain list (worker capture, tests)."""

    def __init__(self, records: list[LogRecord] | None = None) -> None:
        self.records: list[LogRecord] = records if records is not None else []

    def emit(self, record: LogRecord) -> None:
        """Append the record."""
        self.records.append(record)


class RingBufferSink(LogSink):
    """A bounded in-memory tail of the most recent records.

    Backing store is a ``deque(maxlen=capacity)``: overflow silently
    drops the *oldest* records, so a million-point sweep can log freely
    while the monitor's ``/logs`` endpoint serves a fixed-size window.
    Thread-safe (the sweep runner's outcome loop and the monitor's HTTP
    threads share it).
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise LoggingError(
                f"ring capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._records: deque[LogRecord] = deque(maxlen=self.capacity)
        self._dropped = 0
        self._lock = threading.Lock()

    def emit(self, record: LogRecord) -> None:
        """Append, evicting the oldest record once at capacity."""
        with self._lock:
            if len(self._records) == self.capacity:
                self._dropped += 1
            self._records.append(record)

    def tail(self, n: int | None = None) -> list[LogRecord]:
        """The newest ``n`` records, oldest first (all when ``None``)."""
        with self._lock:
            records = list(self._records)
        if n is None or n >= len(records):
            return records
        return records[len(records) - max(0, int(n)):]

    @property
    def dropped(self) -> int:
        """Records evicted by overflow since construction."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        """Drop everything (tests)."""
        with self._lock:
            self._records.clear()
            self._dropped = 0


class JsonlSink(LogSink):
    """Append records to an on-disk JSONL file (one record per line).

    The file is opened lazily on the first emit (a configured-but-quiet
    run leaves no empty file behind), written line-buffered, and closed
    by :func:`shutdown_logging` / :meth:`close`.  Thread-safe.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: Any = None
        self._lock = threading.Lock()

    def emit(self, record: LogRecord) -> None:
        """Serialize the record as one JSON line."""
        line = json.dumps(record.as_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(  # noqa: SIM115 - held across emits
                    self.path, "a", encoding="utf-8", buffering=1
                )
            self._handle.write(line + "\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# -------------------------------------------------------------------- pipeline
class LogPipeline:
    """A level threshold plus the sinks every accepted record reaches.

    One pipeline serves a whole process; loggers look it up at call
    time, so reconfiguration (``--log-level``/``--log-out``) applies to
    every logger already handed out.
    """

    def __init__(
        self,
        level: int | str = WARNING,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        self.level = level_number(level)
        self.ring = RingBufferSink(ring_capacity)
        self.sinks: list[LogSink] = [self.ring]

    def enabled_for(self, level: int) -> bool:
        """Whether records at ``level`` pass the threshold."""
        return level >= self.level

    def add_sink(self, sink: LogSink) -> LogSink:
        """Attach another sink; returns it for chaining."""
        self.sinks.append(sink)
        return sink

    def emit(self, record: LogRecord) -> None:
        """Deliver one record to every sink (level-checked by callers)."""
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()


# ------------------------------------------------------------------- loggers
class StructuredLogger:
    """A named logger with bound correlation context.

    Loggers are cheap immutable views: :meth:`bind` returns a child
    carrying merged context, and every emit consults the pipeline's
    level *first*, so disabled levels cost one comparison.

    A logger created by :func:`get_logger` resolves the process-global
    pipeline at each call; a logger given an explicit ``pipeline``
    (worker-side capture) uses only that one.
    """

    def __init__(
        self,
        name: str,
        context: dict[str, Any] | None = None,
        pipeline: LogPipeline | None = None,
    ) -> None:
        self.name = name
        self.context = dict(context or {})
        unknown = set(self.context) - set(CONTEXT_KEYS)
        if unknown:
            raise LoggingError(
                f"unregistered context key(s) {sorted(unknown)} "
                f"(registered: {', '.join(CONTEXT_KEYS)})"
            )
        self._pipeline = pipeline

    def bind(self, **context: Any) -> "StructuredLogger":
        """A child logger with ``context`` merged over the current one."""
        merged = {**self.context, **context}
        return StructuredLogger(self.name, merged, self._pipeline)

    def pipeline(self) -> LogPipeline:
        """The pipeline this logger emits into."""
        return self._pipeline if self._pipeline is not None else _pipeline()

    # --------------------------------------------------------------- emitting
    def log(self, level: int, message: str, **fields: Any) -> None:
        """Emit one record at ``level`` (skipped below the threshold)."""
        pipeline = self.pipeline()
        if not pipeline.enabled_for(level):
            return
        record = LogRecord(
            level=level,
            logger=self.name,
            message=message,
            ts_s=time.time(),
            perf_s=time.perf_counter(),
            context={k: json_safe(v) for k, v in self.context.items()},
            fields={k: json_safe(v) for k, v in fields.items()},
        )
        pipeline.emit(record)

    def debug(self, message: str, **fields: Any) -> None:
        """Emit at DEBUG."""
        self.log(DEBUG, message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        """Emit at INFO."""
        self.log(INFO, message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        """Emit at WARNING."""
        self.log(WARNING, message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        """Emit at ERROR."""
        self.log(ERROR, message, **fields)


# ------------------------------------------------------------- global pipeline
#: The process-global pipeline.  Default threshold is WARNING so an
#: unconfigured library import logs nothing on the hot path.
_GLOBAL: LogPipeline = LogPipeline()

_ATEXIT_REGISTERED = False
_STATE_LOCK = threading.Lock()


def _pipeline() -> LogPipeline:
    return _GLOBAL


def configure_logging(
    level: int | str = INFO,
    log_path: str | Path | None = None,
    ring_capacity: int = DEFAULT_RING_CAPACITY,
) -> LogPipeline:
    """(Re)configure the process-global pipeline.

    Replaces the global pipeline with a fresh one at ``level`` with a
    ``ring_capacity``-bounded ring buffer, plus a :class:`JsonlSink` on
    ``log_path`` when given.  The previous pipeline's file sinks are
    closed first, and the shutdown hook is registered with ``atexit``
    at most once per process -- calling this from every CLI invocation
    (or test) never stacks handlers.
    """
    global _GLOBAL, _ATEXIT_REGISTERED
    with _STATE_LOCK:
        _GLOBAL.close()
        pipeline = LogPipeline(level=level, ring_capacity=ring_capacity)
        if log_path is not None:
            pipeline.add_sink(JsonlSink(log_path))
        _GLOBAL = pipeline
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_logging)
            _ATEXIT_REGISTERED = True
        return pipeline


def get_logger(name: str, **context: Any) -> StructuredLogger:
    """A logger on the process-global pipeline, optionally pre-bound."""
    return StructuredLogger(name, context or None)


def global_pipeline() -> LogPipeline:
    """The process-global pipeline (telemetry merge forwards into it)."""
    return _GLOBAL


def global_ring() -> RingBufferSink:
    """The global pipeline's ring buffer (the ``/logs`` tail source)."""
    return _GLOBAL.ring


def shutdown_logging() -> None:
    """Flush and close the global pipeline's sinks (idempotent).

    Safe to call any number of times and from ``atexit``; the pipeline
    object survives (records emitted afterwards reopen file sinks),
    which keeps long-lived test processes working after a CLI run.
    """
    with _STATE_LOCK:
        _GLOBAL.close()


def reset_logging() -> None:
    """Restore the default unconfigured pipeline (tests)."""
    global _GLOBAL
    with _STATE_LOCK:
        _GLOBAL.close()
        _GLOBAL = LogPipeline()
