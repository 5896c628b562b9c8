"""Hierarchical wall-clock spans for the modelling pipeline.

Where :mod:`repro.obs.events` traces *simulated* time inside the memory
device, spans trace *host* time spent in the modelling code itself --
trace generation, engine runs, planner scoring, FFT phases -- as a
nested timeline::

    timeline = SpanTimeline()
    with timeline.span("fft2d", n=2048):
        with timeline.span("row-phase"):
            ...
        with timeline.span("column-phase"):
            ...
    print(timeline.render())

The instrumented entry points (:mod:`repro.core.simulate`,
:class:`repro.fft.fft2d.FFT2D`, :class:`repro.framework.planner.LayoutPlanner`)
accept an optional timeline; passing None keeps them span-free with no
overhead beyond a single ``is None`` test (:func:`span_or_null`).

:class:`Span` is the one span type of the repository: sweep workers,
the sweep runner and ``repro serve``'s
:class:`~repro.obs.tracectx.RequestTracer` all store it.  A timeline
built with a :class:`~repro.obs.tracectx.TraceContext` gives every span
a derived context as it opens, so a span exports the same
``trace_id``/``span_id``/``parent_id`` wherever it is recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.obs.logging import json_safe

if TYPE_CHECKING:
    from repro.obs.tracectx import TraceContext


@dataclass
class Span:
    """One completed (or still-open) timeline region.

    Attributes:
        name: human-readable region label.
        start_s: ``perf_counter`` timestamp at entry.
        end_s: ``perf_counter`` timestamp at exit (None while open).
        depth: nesting depth (0 for roots).
        parent: index of the enclosing span in the timeline, or -1.
        meta: free-form key/value annotations (problem size, layout, ...).
        context: the span's place in a trace tree, or None for a span
            recorded outside any trace.
    """

    name: str
    start_s: float
    end_s: float | None = None
    depth: int = 0
    parent: int = -1
    meta: dict[str, Any] = field(default_factory=dict)
    context: TraceContext | None = None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def shifted(self, offset_s: float) -> Span:
        """A copy moved ``offset_s`` seconds along the clock axis."""
        return replace(
            self,
            start_s=self.start_s + offset_s,
            end_s=None if self.end_s is None else self.end_s + offset_s,
        )

    def ids(self) -> dict[str, str | None]:
        """``trace_id``/``span_id``/``parent_id`` (all None without a
        context)."""
        context = self.context
        if context is None:
            return {"trace_id": None, "span_id": None, "parent_id": None}
        return {
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "parent_id": context.parent_id,
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-native form (worker payloads, flight ``traces``)."""
        return {
            **self.ids(),
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "meta": {str(k): json_safe(v) for k, v in self.meta.items()},
        }

    def chrome_event(
        self, pid: int, tid: int, origin_s: float, **args: Any
    ) -> dict:
        """This span as a Chrome ``trace_event`` slice (``ph: "X"``).

        ``ts`` is microseconds after ``origin_s``; ``args`` holds the
        span's meta, then the extra ``args``, then its trace ids.
        """
        event_args = {str(k): json_safe(v) for k, v in self.meta.items()}
        event_args.update(args)
        if self.context is not None:
            event_args.update(self.ids())
        event: dict[str, Any] = {
            "name": self.name,
            "cat": "span",
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": (self.start_s - origin_s) * 1e6,
            "dur": self.duration_s * 1e6,
        }
        if event_args:
            event["args"] = event_args
        return event


class SpanTimeline:
    """An ordered collection of nested spans with rendering helpers.

    With a ``context``, span ``i`` gets the context
    ``context.child("wspan", i)``, parented on its enclosing span or, for
    a root span, on ``context`` itself.
    """

    def __init__(self, context: TraceContext | None = None) -> None:
        self.context = context
        self.spans: list[Span] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Context manager timing one region; nests under any open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(
            name=name,
            start_s=time.perf_counter(),
            depth=len(self._stack),
            parent=parent,
            meta=meta,
            context=self._context_for(index, parent),
        )
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end_s = time.perf_counter()
            self._stack.pop()

    def _context_for(self, index: int, parent: int) -> TraceContext | None:
        if self.context is None:
            return None
        enclosing = self.spans[parent].context if parent >= 0 else None
        parent_id = (enclosing or self.context).span_id
        return replace(self.context.child("wspan", index), parent_id=parent_id)

    # ----------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Top-level spans (depth 0), in start order."""
        return [span for span in self.spans if span.depth == 0]

    def total_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(span.duration_s for span in self.roots())

    def render(self) -> str:
        """Indented text timeline with per-span durations and shares."""
        if not self.spans:
            return "(no spans recorded)"
        total = self.total_s() or 1.0
        lines = []
        for span in self.spans:
            meta = ""
            if span.meta:
                meta = " [" + ", ".join(
                    f"{k}={v}" for k, v in span.meta.items()
                ) + "]"
            lines.append(
                f"{'  ' * span.depth}{span.name:<{32 - 2 * span.depth}} "
                f"{span.duration_s * 1e3:9.2f} ms "
                f"({100 * span.duration_s / total:5.1f}%)"
                f"{meta}"
            )
        return "\n".join(lines)

    def to_chrome_events(
        self, pid: int = 0, tid: int = 0, clock_offset_s: float | None = None
    ) -> list[dict]:
        """Chrome ``trace_event`` slices for the timeline (``ph: "X"``).

        Timestamps are microseconds relative to the first span (or to
        ``clock_offset_s`` when stitching several timelines together).
        """
        if not self.spans:
            return []
        origin = (
            clock_offset_s
            if clock_offset_s is not None
            else min(span.start_s for span in self.spans)
        )
        return [span.chrome_event(pid, tid, origin) for span in self.spans]


def span_or_null(timeline: SpanTimeline | None, name: str, **meta: Any):
    """``timeline.span(name)`` when a timeline is given, else a no-op.

    The uninstrumented call costs one ``is None`` test plus a shared
    :func:`contextlib.nullcontext`, so hot modelling paths can be
    instrumented unconditionally.
    """
    if timeline is None:
        return nullcontext()
    return timeline.span(name, **meta)
