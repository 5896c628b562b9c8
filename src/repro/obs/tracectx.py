"""W3C-traceparent-style trace contexts with deterministic ids.

A :class:`TraceContext` identifies one request-scoped trace: a 32-hex
``trace_id`` shared by every span in the tree, a 16-hex ``span_id`` for
the current operation, and the parent span's id (``None`` at the root).
Ids are *derived* -- ``sha256`` over the request id plus the span path --
so two runs of the same request produce the same tree (DET001/DET002
clean: no wall clock, no global RNG).

The wire format follows the W3C ``traceparent`` header
(https://www.w3.org/TR/trace-context/)::

    00-<32 hex trace_id>-<16 hex span_id>-01

:class:`RequestTracer` collects finished :class:`~repro.obs.spans.Span`
records per trace into a bounded ring (always-on tracing must not leak
memory) and exports any tree in the Chrome/Perfetto ``traceEvents``
format so serve traces line up with the sweep traces from
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256

from repro.errors import ReproError
from repro.obs.export import chrome_track_name
from repro.obs.spans import Span

TRACEPARENT_SCHEMA = "repro-traceparent/v1"
TRACEPARENT_KEYS = frozenset({"schema", "trace_id", "span_id", "parent_id"})

#: Perfetto pid for the serve-side request track (sweep uses 0/1/100+).
SERVE_PID = 50

_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-"
    r"(?P<trace_id>[0-9a-f]{32})-"
    r"(?P<span_id>[0-9a-f]{16})-"
    r"(?P<flags>[0-9a-f]{2})$"
)


class TraceError(ReproError):
    """Malformed traceparent header or trace-context misuse."""


def _hex_digest(material: str, nbytes: int) -> str:
    return sha256(material.encode("utf-8")).hexdigest()[: 2 * nbytes]


@dataclass(frozen=True)
class TraceContext:
    """One node in a request's span tree (immutable, deterministic ids)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def root(cls, request_id: str) -> "TraceContext":
        """The root context for a request, derived from its request id."""
        trace_id = _hex_digest(f"trace:{request_id}", 16)
        span_id = _hex_digest(f"span:{trace_id}:root", 8)
        return cls(trace_id=trace_id, span_id=span_id, parent_id=None)

    def child(self, name: str, index: int = 0) -> "TraceContext":
        """A child context for operation ``name`` (``index`` disambiguates
        repeats of the same operation, e.g. retry attempts)."""
        span_id = _hex_digest(
            f"span:{self.trace_id}:{self.span_id}:{name}:{index}", 8
        )
        return TraceContext(
            trace_id=self.trace_id, span_id=span_id, parent_id=self.span_id
        )

    def format_traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-ready, schema-tagged for the wire)."""
        return {
            "schema": TRACEPARENT_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Rebuild a context shipped via :meth:`as_dict`."""
        if payload.get("schema") != TRACEPARENT_SCHEMA:
            raise TraceError(
                f"expected {TRACEPARENT_SCHEMA}, got {payload.get('schema')!r}"
            )
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
        )


def parse_traceparent(header: str) -> TraceContext:
    """Parse a W3C ``traceparent`` header into a :class:`TraceContext`.

    The parsed span becomes the *parent* of whatever the service does
    next, so the returned context carries the remote span id with no
    local parent.
    """
    match = _TRACEPARENT.match(header.strip().lower())
    if match is None:
        raise TraceError(f"malformed traceparent header {header!r}")
    if match.group("version") == "ff":
        raise TraceError("traceparent version 0xff is forbidden")
    return TraceContext(
        trace_id=match.group("trace_id"),
        span_id=match.group("span_id"),
        parent_id=None,
    )


@dataclass(frozen=True)
class TraceLink:
    """A cross-trace link (a coalesced request pointing at the shared
    computation's trace)."""

    context: TraceContext
    linked_trace_id: str
    reason: str

    def as_dict(self) -> dict:
        """JSON-ready form (flight bundle ``traces``)."""
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "linked_trace_id": self.linked_trace_id,
            "reason": self.reason,
        }


class RequestTracer:
    """Bounded, thread-safe collector of per-request span trees.

    Keeps the ``max_traces`` most recent traces; older trees are evicted
    in insertion order so always-on tracing has a hard memory ceiling.
    """

    def __init__(self, max_traces: int = 256) -> None:
        if max_traces < 1:
            raise TraceError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._spans: OrderedDict[str, list[Span]] = OrderedDict()
        self._links: OrderedDict[str, list[TraceLink]] = OrderedDict()
        self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def record(
        self,
        context: TraceContext,
        name: str,
        start_s: float,
        duration_s: float,
        **meta: object,
    ) -> None:
        """Record one finished span under its trace."""
        record = Span(
            name=name,
            start_s=start_s,
            end_s=start_s + duration_s,
            meta=meta,
            context=context,
        )
        with self._lock:
            self._spans.setdefault(context.trace_id, []).append(record)
            self._spans.move_to_end(context.trace_id)
            self._evict_locked()

    def link(self, context: TraceContext, linked_trace_id: str, reason: str) -> None:
        """Record a cross-trace link (e.g. a coalesced request)."""
        entry = TraceLink(
            context=context, linked_trace_id=linked_trace_id, reason=reason
        )
        with self._lock:
            self._spans.setdefault(context.trace_id, [])
            self._spans.move_to_end(context.trace_id)
            self._links.setdefault(context.trace_id, []).append(entry)
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._spans) > self.max_traces:
            trace_id, _ = self._spans.popitem(last=False)
            self._links.pop(trace_id, None)
            self.evicted += 1

    def spans_for(self, trace_id: str) -> list[Span]:
        """All recorded spans of one trace (tree order not guaranteed)."""
        with self._lock:
            return list(self._spans.get(trace_id, ()))

    def links_for(self, trace_id: str) -> list[TraceLink]:
        """All cross-trace links recorded under ``trace_id``."""
        with self._lock:
            return list(self._links.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        """Trace ids currently retained, oldest first."""
        with self._lock:
            return list(self._spans)

    def snapshot(self, limit: int = 16) -> list[dict]:
        """JSON-ready dump of the most recent ``limit`` traces."""
        with self._lock:
            recent = list(self._spans.items())[-limit:]
            links = {tid: list(entries) for tid, entries in self._links.items()}
        return [
            {
                "trace_id": trace_id,
                "spans": [record.as_dict() for record in spans],
                "links": [
                    entry.as_dict() for entry in links.get(trace_id, [])
                ],
            }
            for trace_id, spans in recent
        ]

    def to_chrome_events(self, trace_id: str, pid: int = SERVE_PID) -> list[dict]:
        """The Chrome/Perfetto ``traceEvents`` for one trace tree.

        Spans become complete ("X") events on one process track, timed
        from the trace's first span; the span/parent ids ride in
        ``args`` so the tree is reconstructable, and links become
        instant ("i") events at the trace's start.
        """
        spans = self.spans_for(trace_id)
        origin = min((span.start_s for span in spans), default=0.0)
        events = [chrome_track_name(pid, f"serve trace {trace_id[:8]}")]
        events.extend(span.chrome_event(pid, 0, origin) for span in spans)
        events.extend(
            {
                "name": f"link:{link.reason}",
                "ph": "i",
                "pid": pid,
                "tid": 0,
                "ts": 0.0,
                "s": "p",
                "args": link.as_dict(),
            }
            for link in self.links_for(trace_id)
        )
        return events
