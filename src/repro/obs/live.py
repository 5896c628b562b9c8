"""One live status per process: the source of ``/status`` and ``/metrics``.

:class:`~repro.obs.monitor.SweepStatus` builds on :class:`LiveStatus`;
:class:`~repro.serve.service.PlanService` holds one.  The ``/status``
document, the ``/metrics`` families and the flight bundle's ``status``
and ``metrics`` sections all come from one acquisition of its lock, so
a scrape never mixes two instants.  Values another object owns (the
admission ledger, the breaker) or that depend on time (throughput) are
read once, into the ``/status`` document; *scraped* families derive
from it.
"""

from __future__ import annotations

import threading
from collections import Counter as Tally
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.obs.histogram import observe_latency
from repro.obs.logging import RingBufferSink, global_ring
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.flight import FlightRecorder

#: Builds the ``/status`` document from a registry snapshot and the
#: sorted failure-reason tally; runs with :attr:`LiveStatus.lock` held.
Document = Callable[[dict[str, dict], dict[str, int]], dict[str, Any]]

#: A family computed at scrape time from the ``/status`` document:
#: ``(name, "counter" | "gauge", help, value_of(document))``.
Scraped = tuple[str, str, str, Callable[[dict[str, Any]], float]]

#: Log records a flight bundle's ``logs`` section carries.
FLIGHT_LOG_TAIL = 200


def log_tail(n: int, ring: RingBufferSink | None = None) -> dict[str, Any]:
    """The ``repro-logs-tail/v1`` document: the newest ``n`` records of
    ``ring`` (the global pipeline's by default), oldest first."""
    ring = ring if ring is not None else global_ring()
    records = ring.tail(n)
    return {
        "schema": "repro-logs-tail/v1",
        "count": len(records),
        "dropped": ring.dropped,
        "records": [record.as_dict() for record in records],
    }


class LiveStatus:
    """A process's live registry and failure tally under one lock.

    ``counters`` (name -> help) are declared at construction, so a
    family that never fires still exports zero.  ``scraped`` families
    are derived from the ``document`` on every :meth:`metrics_snapshot`.
    Callers updating the registry together with state of their own take
    :attr:`lock` themselves.
    """

    def __init__(
        self,
        document: Document,
        counters: Mapping[str, str] | None = None,
        scraped: Sequence[Scraped] = (),
    ) -> None:
        self.lock = threading.Lock()
        self.registry = MetricsRegistry()
        #: canonical QuarantineReason value -> count of failed points
        self.failure_reasons: Tally[str] = Tally()
        for name, help_text in (counters or {}).items():
            self.registry.counter(name, help_text)
        self._document = document
        self._scraped = tuple(scraped)

    def count(self, name: str, by: float = 1) -> None:
        """Add ``by`` to the counter ``name``."""
        with self.lock:
            self.registry.counter(name).inc(by)

    def observe(
        self,
        name: str,
        seconds: float,
        bounds: tuple[float, ...],
        exemplar: str | None = None,
        help: str = "",
    ) -> None:
        """Record one latency observation on the histogram ``name``."""
        with self.lock:
            observe_latency(
                self.registry, name, seconds, bounds,
                exemplar=exemplar, help=help,
            )

    def fail(self, reason: str) -> None:
        """Tally one failed point under its canonical reason."""
        with self.lock:
            self.failure_reasons[reason] += 1

    def _read(self) -> tuple[dict[str, Any], dict[str, dict]]:
        """``(/status document, registry snapshot)`` at one instant."""
        with self.lock:
            metrics = self.registry.as_dict()
            reasons = dict(sorted(self.failure_reasons.items()))
            return self._document(metrics, reasons), metrics

    def snapshot(self) -> dict[str, Any]:
        """The ``/status`` document."""
        return self._read()[0]

    def metrics_snapshot(self) -> dict[str, dict]:
        """The ``/metrics`` source: the registry plus the scraped families."""
        document, metrics = self._read()
        for name, kind, help_text, value_of in self._scraped:
            metrics[name] = {
                "type": kind,
                "value": float(value_of(document)),
                "help": help_text,
            }
        return dict(sorted(metrics.items()))

    def attach(
        self, recorder: FlightRecorder, ring: RingBufferSink | None = None
    ) -> None:
        """Register the ``status``, ``metrics`` and ``logs`` flight sections."""
        recorder.register("status", self.snapshot)
        recorder.register("metrics", self.metrics_snapshot)
        recorder.register("logs", lambda: log_tail(FLIGHT_LOG_TAIL, ring))
