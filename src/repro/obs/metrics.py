"""A zero-dependency metrics registry: counters, gauges, histograms.

The simulator stack records its internal behaviour (activation counts,
stall time, service-time distributions, queue depths) into a
:class:`MetricsRegistry`.  The registry is deliberately tiny -- three
instrument kinds, plain-dict export, markdown rendering -- so it can be
embedded in hot paths, CLI commands and reports without pulling in a
telemetry framework.

Instruments are created lazily and get-or-create by name, so independent
components can contribute to one registry without coordination::

    registry = MetricsRegistry()
    registry.counter("memory.requests").inc(1024)
    registry.histogram("memory.service_ns", (2, 5, 10, 20, 50)).observe(4.8)
    print(registry.render_markdown())
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.errors import ReproError


class MetricsError(ReproError):
    """Invalid metric construction or use."""


def pick_exemplar(
    current: tuple[float, str] | None, candidate: tuple[float, str]
) -> tuple[float, str]:
    """Choose between two bucket exemplars, order-independently.

    The slower observation wins (exemplars exist to explain the bucket
    tail); equal values tie-break on the lexicographically smaller
    label, so any observation/merge order converges on the same pick.
    """
    if current is None:
        return candidate
    if candidate[0] != current[0]:
        return candidate if candidate[0] > current[0] else current
    return candidate if candidate[1] < current[1] else current


def quantile_from_snapshot(entry: Mapping[str, object], q: float) -> float:
    """The ``q``-quantile of a histogram ``as_dict()`` snapshot.

    Returns the upper bound of the bucket holding the requested rank
    (the observed max for the overflow bucket) -- the usual fixed-bucket
    estimate, biased at most one bucket width upward.  It runs on the
    plain dict, so remote snapshots need no instrument reconstruction.
    """
    count = int(entry["count"])  # type: ignore[arg-type]
    if not count:
        return 0.0
    bounds = list(entry["bounds"])  # type: ignore[call-overload]
    counts = list(entry["counts"])  # type: ignore[call-overload]
    rank = q * count
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= rank and bucket_count:
            if index < len(bounds):
                return float(bounds[index])
            return float(entry["max"])  # type: ignore[arg-type]
    return float(entry["max"])  # type: ignore[arg-type]


@dataclass
class Counter:
    """A monotonically increasing count (requests served, events seen)."""

    name: str
    help: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise MetricsError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready)."""
        return {"type": "counter", "value": self.value, "help": self.help}


@dataclass
class Gauge:
    """A point-in-time value that can move both ways (depth, utilization)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (may be negative)."""
        self.value += delta

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready)."""
        return {"type": "gauge", "value": self.value, "help": self.help}


@dataclass
class Histogram:
    """A fixed-bucket histogram of observations (latency, depth, size).

    Buckets are defined by their inclusive upper bounds; one implicit
    overflow bucket catches everything above the last bound.  Bounds are
    fixed at construction -- observation is O(log buckets) and allocation
    free, which keeps it safe to call from the simulator hot loop.
    """

    name: str
    bounds: tuple[float, ...]
    help: str = ""
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min_value: float = float("inf")
    max_value: float = float("-inf")
    #: bucket index -> (observed value, exemplar label, e.g. a trace_id)
    exemplars: dict[int, tuple[float, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bounds = tuple(float(b) for b in self.bounds)
        if not self.bounds:
            raise MetricsError(f"histogram {self.name}: needs at least one bound")
        if any(b >= a for b, a in zip(self.bounds, self.bounds[1:], strict=False)):
            raise MetricsError(
                f"histogram {self.name}: bounds must be strictly increasing"
            )
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation, optionally tagged with an exemplar.

        An exemplar ties the bucket tail back to the event that produced
        it (by convention a trace_id).  Each bucket keeps one exemplar,
        chosen by :func:`pick_exemplar` so the choice is independent of
        observation and merge order.
        """
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if exemplar is not None:
            self.exemplars[index] = pick_exemplar(
                self.exemplars.get(index), (value, exemplar)
            )

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (see :func:`quantile_from_snapshot`)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        return quantile_from_snapshot(self.as_dict(), q)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready)."""
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value if self.count else 0.0,
            "help": self.help,
            "exemplars": {
                str(index): [value, label]
                for index, (value, label) in sorted(self.exemplars.items())
            },
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are get-or-create by name; re-requesting a name returns
    the existing instrument (and raises if the kind disagrees), so
    independent producers can share one registry.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def _get_or_create(self, name: str, factory, kind: type):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, requested {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] = (), help: str = ""
    ) -> Histogram:
        """Get or create the histogram ``name`` with the given bucket bounds."""
        bounds = tuple(bounds)

        def build() -> Histogram:
            if not bounds:
                raise MetricsError(
                    f"histogram {name!r} does not exist yet; bounds required"
                )
            return Histogram(name, bounds, help)

        return self._get_or_create(name, build, Histogram)

    def as_dict(self) -> dict[str, dict]:
        """Snapshot every instrument, keyed by name (JSON-ready)."""
        return {
            name: inst.as_dict() for name, inst in sorted(self._instruments.items())
        }

    def merge_snapshot(self, snapshot: Mapping[str, dict]) -> "MetricsRegistry":
        """Fold another registry's :meth:`as_dict` snapshot into this one.

        This is how sweep workers ship their registries across process
        boundaries: ``as_dict`` on the worker side, ``merge_snapshot``
        (into a fresh registry to rebuild one) on the parent side.

        Counters add, gauges take the incoming value, histograms add
        bucket counts (bounds must agree) -- see :func:`merge_registries`.
        Returns ``self`` so merges chain across a worker-result stream.
        """
        merge_registries(self, snapshot)
        return self

    def render_markdown(self) -> str:
        """Render the registry as markdown tables.

        Counters and gauges share one name/value table; each histogram
        gets its own bucket table with count, mean and p50/p95 rows.
        """
        snapshot = self.as_dict()
        scalars = {
            name: entry
            for name, entry in snapshot.items()
            if entry["type"] in ("counter", "gauge")
        }
        lines: list[str] = []
        if scalars:
            lines += ["| metric | type | value |", "|---|---|---|"]
            for name, entry in scalars.items():
                lines.append(
                    f"| `{name}` | {entry['type']} | {entry['value']:,.6g} |"
                )
        for name, entry in snapshot.items():
            if entry["type"] != "histogram":
                continue
            hist = self._instruments[name]
            assert isinstance(hist, Histogram)
            if lines:
                lines.append("")
            lines += [
                f"**`{name}`** -- {entry['count']:,} observations, "
                f"mean {entry['mean']:,.3g}, "
                f"p50 {hist.quantile(0.5):,.3g}, p95 {hist.quantile(0.95):,.3g}, "
                f"p99 {hist.quantile(0.99):,.3g}",
                "",
                "| bucket | count |",
                "|---|---|",
            ]
            labels = [f"<= {b:g}" for b in entry["bounds"]] + [
                f"> {entry['bounds'][-1]:g}"
            ]
            for label, count in zip(labels, entry["counts"], strict=True):
                lines.append(f"| {label} | {count:,} |")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_registries(target: MetricsRegistry, source: Mapping[str, dict]) -> None:
    """Fold an :meth:`MetricsRegistry.as_dict` snapshot into ``target``.

    Counters add, gauges take the source value, histograms require equal
    bounds and add bucket counts -- the natural composition for stats
    gathered by independent workers.
    """
    for name, entry in source.items():
        kind = entry["type"]
        if kind == "counter":
            target.counter(name, entry.get("help", "")).inc(entry["value"])
        elif kind == "gauge":
            target.gauge(name, entry.get("help", "")).set(entry["value"])
        elif kind == "histogram":
            hist = target.histogram(
                name, entry["bounds"], entry.get("help", "")
            )
            if list(hist.bounds) != list(entry["bounds"]):
                raise MetricsError(f"histogram {name!r}: bounds mismatch on merge")
            hist.counts = [a + b for a, b in zip(hist.counts, entry["counts"], strict=True)]
            hist.count += entry["count"]
            hist.total += entry["mean"] * entry["count"]
            if entry["count"]:
                hist.min_value = min(hist.min_value, entry["min"])
                hist.max_value = max(hist.max_value, entry["max"])
            for raw_index, (value, label) in entry.get("exemplars", {}).items():
                index = int(raw_index)
                hist.exemplars[index] = pick_exemplar(
                    hist.exemplars.get(index), (float(value), str(label))
                )
        else:
            raise MetricsError(f"unknown instrument type {kind!r} for {name!r}")
