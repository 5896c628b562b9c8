"""Typed per-request event tracing for the memory timing engines.

The timing engines compute exactly *where* every nanosecond of a trace
goes -- which bank activated, which access hit an open row, how long a
request waited for the vault TSV bundle or sat behind a refresh -- and
the aggregate :class:`~repro.memory3d.stats.AccessStats` then throws
that structure away.  A :class:`Recorder` passed to
:class:`~repro.memory3d.memory.Memory3D` keeps it:

* :class:`NullRecorder` -- the default; ``enabled`` is False and the hot
  loop skips all event construction (one pointer check per request).
* :class:`EventTrace` -- columnar storage of every event, convertible to
  Chrome ``trace_event`` JSON (:mod:`repro.obs.export`), to a
  :class:`~repro.obs.metrics.MetricsRegistry`, or iterated as typed
  :class:`Event` objects.

Event kinds (:class:`EventKind`):

``ACTIVATE``
    A row-buffer miss opened ``row`` in ``(vault, bank)`` at ``ts_ns``;
    the bank is occupied for the row cycle (``dur_ns = t_diff_row``).
``ROW_HIT``
    An access was served from the open row; ``dur_ns`` is the data beat.
``TSV_CONTENTION``
    The request was ready but its vault's shared TSV bundle was still
    draining an earlier beat; ``dur_ns`` is the wait.
``REFRESH_STALL``
    The command was pushed out of a refresh window; ``dur_ns`` is the
    deferral (summed per request when both activate and beat defer).
``BIT_ERROR``
    A fault-injected transient bit flip was detected on the data beat
    (:class:`~repro.faults.BitErrorModel`); ``dur_ns`` is the ECC
    correction penalty (zero for detected-but-uncorrectable errors).

The execution machinery of sweeps and serve (workers, queue waits,
attempts, cache replay) is not an event stream: it is recorded as
:class:`~repro.obs.spans.Span` records in host seconds
(:mod:`repro.obs.telemetry`).

Kinds ``REQUEST_START`` .. ``FLIGHT_DUMP`` are *request-tracing*
events recorded at the serving edge (:mod:`repro.obs.tracectx` /
:mod:`repro.obs.flight`) in host seconds; they never appear in an
engine :class:`EventTrace`, and share this registry so the OBS001 lint
rule covers every ``record`` call site from one vocabulary:

``REQUEST_START``
    A ``POST /plan`` request was admitted and a trace root created.
``COALESCE_LINK``
    A request attached to another request's in-flight computation; the
    trace carries a link to the shared computation's trace.
``BREAKER_TRANSITION``
    The serve circuit breaker changed state (closed/open/half-open).
``FLIGHT_DUMP``
    A flight-recorder bundle was written (quarantine, breaker-open,
    SIGTERM, or on demand).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from collections.abc import Iterator

from repro.obs.metrics import MetricsRegistry


class EventKind(IntEnum):
    """The event types emitted by the memory timing engines."""

    ACTIVATE = 0
    ROW_HIT = 1
    REFRESH_STALL = 2
    TSV_CONTENTION = 3
    BIT_ERROR = 4
    # Request-tracing kinds (serve edge, recorded via repro.obs.tracectx).
    REQUEST_START = 10
    COALESCE_LINK = 11
    BREAKER_TRANSITION = 12
    FLIGHT_DUMP = 13


#: The engine-emitted kinds: events with device (vault/bank/row)
#: coordinates, recorded in simulated nanoseconds.
ENGINE_EVENT_KINDS = frozenset(
    {
        EventKind.ACTIVATE,
        EventKind.ROW_HIT,
        EventKind.REFRESH_STALL,
        EventKind.TSV_CONTENTION,
        EventKind.BIT_ERROR,
    }
)

#: The registered event vocabulary: name -> kind.  This mapping is the
#: single source of truth for event names; the engines' ``EV_*`` aliases
#: below are derived from it, and the OBS001 lint rule
#: (:mod:`repro.analysis.rules.obs`) imports it to verify that every
#: ``record`` call site uses a registered name.
EVENT_REGISTRY: dict[str, EventKind] = {kind.name: kind for kind in EventKind}


def registered_event_names() -> frozenset[str]:
    """The names every ``record`` call site must draw from."""
    return frozenset(EVENT_REGISTRY)


#: Module-level aliases so the hot loop avoids enum attribute lookups.
EV_ACTIVATE = int(EVENT_REGISTRY["ACTIVATE"])
EV_ROW_HIT = int(EVENT_REGISTRY["ROW_HIT"])
EV_REFRESH_STALL = int(EVENT_REGISTRY["REFRESH_STALL"])
EV_TSV_CONTENTION = int(EVENT_REGISTRY["TSV_CONTENTION"])
EV_BIT_ERROR = int(EVENT_REGISTRY["BIT_ERROR"])
EV_REQUEST_START = int(EVENT_REGISTRY["REQUEST_START"])
EV_COALESCE_LINK = int(EVENT_REGISTRY["COALESCE_LINK"])
EV_BREAKER_TRANSITION = int(EVENT_REGISTRY["BREAKER_TRANSITION"])
EV_FLIGHT_DUMP = int(EVENT_REGISTRY["FLIGHT_DUMP"])


@dataclass(frozen=True)
class Event:
    """One timing event: what happened, where, and when.

    Attributes:
        kind: the :class:`EventKind`.
        vault: vault id the event occurred in.
        bank: vault-local bank index.
        row: row index within the bank.
        ts_ns: event start time (simulated nanoseconds).
        dur_ns: event duration (occupancy, beat or stall length).
    """

    kind: EventKind
    vault: int
    bank: int
    row: int
    ts_ns: float
    dur_ns: float

    @property
    def end_ns(self) -> float:
        """Event end time (``ts_ns + dur_ns``)."""
        return self.ts_ns + self.dur_ns


class Recorder:
    """Interface the timing engines record events through.

    ``enabled`` is checked once per simulation; when False the engines
    bypass event construction entirely, which is what keeps the
    default (uninstrumented) hot loop at seed speed.
    """

    #: Engines skip all recording when this is False.
    enabled: bool = False

    def record(
        self, kind: int, vault: int, bank: int, row: int, ts_ns: float, dur_ns: float
    ) -> None:
        """Record one event (no-op in the base class)."""


class NullRecorder(Recorder):
    """The recording-off fast path: drops everything, costs nothing."""

    enabled = False

    def record(
        self, kind: int, vault: int, bank: int, row: int, ts_ns: float, dur_ns: float
    ) -> None:
        """Discard the event."""


#: Shared no-op recorder instance used as the engines' default.
NULL_RECORDER = NullRecorder()


class EventTrace(Recorder):
    """Columnar recorder keeping every event of a simulation.

    Events are stored as parallel plain lists (append is one bytecode
    dispatch away from the hot loop); typed :class:`Event` views are
    materialized on demand.
    """

    enabled = True

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.vaults: list[int] = []
        self.banks: list[int] = []
        self.rows: list[int] = []
        self.ts_ns: list[float] = []
        self.dur_ns: list[float] = []

    # ------------------------------------------------------------- recording
    def record(
        self, kind: int, vault: int, bank: int, row: int, ts_ns: float, dur_ns: float
    ) -> None:
        """Append one event."""
        self.kinds.append(kind)
        self.vaults.append(vault)
        self.banks.append(bank)
        self.rows.append(row)
        self.ts_ns.append(ts_ns)
        self.dur_ns.append(dur_ns)

    def clear(self) -> None:
        """Drop all recorded events (reuse the recorder across runs)."""
        self.kinds.clear()
        self.vaults.clear()
        self.banks.clear()
        self.rows.clear()
        self.ts_ns.clear()
        self.dur_ns.clear()

    # ----------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Event]:
        for kind, vault, bank, row, ts, dur in zip(
            self.kinds, self.vaults, self.banks, self.rows, self.ts_ns, self.dur_ns,
            strict=True,
        ):
            yield Event(EventKind(kind), vault, bank, row, ts, dur)

    def events(self, kind: EventKind | None = None) -> list[Event]:
        """All events, optionally filtered to one kind."""
        if kind is None:
            return list(self)
        want = int(kind)
        return [event for event in self if event.kind == want]

    def counts(self) -> dict[str, int]:
        """Event count per kind name (engine kinds present, zero-filled).

        Engine traces only ever carry :data:`ENGINE_EVENT_KINDS`; should
        another kind be recorded anyway it is still counted under its
        own name rather than dropped.
        """
        result = {
            kind.name: 0 for kind in sorted(ENGINE_EVENT_KINDS)
        }
        for kind in self.kinds:
            name = EventKind(kind).name
            result[name] = result.get(name, 0) + 1
        return result

    def count(self, kind: EventKind) -> int:
        """Event count for one kind."""
        want = int(kind)
        return sum(1 for k in self.kinds if k == want)

    @property
    def end_ns(self) -> float:
        """Latest event end time (0 when empty)."""
        return max(
            (ts + dur for ts, dur in zip(self.ts_ns, self.dur_ns, strict=True)),
            default=0.0,
        )

    # ------------------------------------------------------------ breakdowns
    def stall_ns(self, kind: EventKind) -> float:
        """Total stalled nanoseconds attributed to one stall kind."""
        want = int(kind)
        return sum(
            dur for k, dur in zip(self.kinds, self.dur_ns, strict=True) if k == want
        )

    def per_vault_counts(self, kind: EventKind) -> dict[int, int]:
        """Events of ``kind`` per vault."""
        want = int(kind)
        result: dict[int, int] = {}
        for k, vault in zip(self.kinds, self.vaults, strict=True):
            if k == want:
                result[vault] = result.get(vault, 0) + 1
        return result

    def per_vault_row_hit_rate(self) -> dict[int, float]:
        """Fraction of each vault's accesses served from an open row."""
        hits = self.per_vault_counts(EventKind.ROW_HIT)
        activations = self.per_vault_counts(EventKind.ACTIVATE)
        result: dict[int, float] = {}
        for vault in sorted(set(hits) | set(activations)):
            h = hits.get(vault, 0)
            total = h + activations.get(vault, 0)
            result[vault] = h / total if total else 0.0
        return result

    def per_vault_busy_ns(self) -> dict[int, float]:
        """Data-beat nanoseconds per vault (ACTIVATE + ROW_HIT beats)."""
        result: dict[int, float] = {}
        for kind, vault, dur in zip(self.kinds, self.vaults, self.dur_ns, strict=True):
            if kind == EV_ROW_HIT:
                result[vault] = result.get(vault, 0.0) + dur
        return result

    # --------------------------------------------------------------- metrics
    def to_metrics(self, registry: MetricsRegistry | None = None) -> MetricsRegistry:
        """Fold the event stream into a :class:`MetricsRegistry`.

        Produces per-kind counters, stall-time counters, and fixed-bucket
        histograms of the row-cycle (ACTIVATE) timestamps' inter-arrival
        gaps per bank plus stall durations -- the distributions the paper's
        bandwidth argument is about.
        """
        registry = registry or MetricsRegistry()
        counts = self.counts()
        for name, value in counts.items():
            registry.counter(
                f"events.{name.lower()}", help=f"{name} events recorded"
            ).inc(value)
        registry.counter(
            "stall.refresh_ns", help="total refresh-stall nanoseconds"
        ).inc(self.stall_ns(EventKind.REFRESH_STALL))
        registry.counter(
            "stall.tsv_contention_ns", help="total TSV-contention nanoseconds"
        ).inc(self.stall_ns(EventKind.TSV_CONTENTION))
        total = counts["ACTIVATE"] + counts["ROW_HIT"]
        if total:
            registry.gauge(
                "memory.row_hit_rate", help="fraction of accesses hitting open rows"
            ).set(counts["ROW_HIT"] / total)
        stall_hist = registry.histogram(
            "stall.duration_ns",
            bounds=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0),
            help="stall durations (refresh + TSV contention)",
        )
        cycle_hist = registry.histogram(
            "memory.activate_gap_ns",
            bounds=(5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0),
            help="gap between consecutive row activations in one vault",
        )
        last_activate: dict[int, float] = {}
        for kind, vault, ts, dur in zip(
            self.kinds, self.vaults, self.ts_ns, self.dur_ns, strict=True
        ):
            if kind == EV_ACTIVATE:
                prev = last_activate.get(vault)
                if prev is not None:
                    cycle_hist.observe(ts - prev)
                last_activate[vault] = ts
            elif kind in (EV_REFRESH_STALL, EV_TSV_CONTENTION):
                stall_hist.observe(dur)
        return registry

    def __repr__(self) -> str:
        counts = self.counts()
        parts = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        return f"EventTrace(n={len(self)}{', ' + parts if parts else ''})"
