"""Sweep results: deterministic JSON documents plus markdown rendering.

A :class:`SweepResult` separates two kinds of information:

* the **deterministic payload** (:meth:`SweepResult.to_json`) -- grid
  spec, request budget and the per-point result dicts, in grid order.
  Running the same grid with any ``--jobs`` value, or replaying it from
  a warm cache, produces byte-identical JSON (the test suite enforces
  this);
* the **run metadata** (``meta``, ``registry``, ``telemetry``) --
  wall-clock time, worker count, cache hit rates, merged metrics and
  cross-process trace telemetry, which describe *this execution* and
  are deliberately excluded from the payload.

Quarantined point failures (schema v2) live in the document's
``failures`` list: structured records of every point the resilient
executor gave up on (index, point identity, error class, message,
attempt count, timeout flag), in grid order.  The healthy points'
``results`` payload is unaffected -- a run where some points fail is
byte-identical, over the surviving points, to a failure-free run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.sweep.grid import SweepGrid

#: Schema tag stamped into every result document.  v2 added the
#: ``failures`` quarantine section; v3 added the canonical ``reason``
#: (:class:`~repro.sweep.resilience.QuarantineReason`) to each record.
RESULT_SCHEMA = "repro-sweep-result/v3"


class SweepError(ReproError):
    """Sweep execution or result-selection failure."""


@dataclass
class SweepResult:
    """Everything a finished sweep produced."""

    grid: SweepGrid
    max_requests: int
    results: list[dict[str, Any]]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    meta: dict[str, Any] = field(default_factory=dict)
    #: Quarantine records of points the executor gave up on (grid order);
    #: see :func:`repro.sweep.resilience.failure_record` for the shape.
    failures: list[dict[str, Any]] = field(default_factory=list)
    #: Merged cross-process run telemetry (``run_sweep(telemetry=True)``);
    #: run metadata like ``meta``/``registry``, never part of the
    #: deterministic payload.
    telemetry: RunTelemetry | None = None

    # ------------------------------------------------------------- selection
    def select(self, **criteria: Any) -> list[dict[str, Any]]:
        """Point results whose fields equal every given criterion.

        Criteria use result-dict keys: ``n``, ``layout``, ``config``,
        ``height``, ...  e.g. ``result.select(n=2048, layout="ddl")``.
        """
        return [
            entry
            for entry in self.results
            if all(entry.get(key) == value for key, value in criteria.items())
        ]

    def one(self, **criteria: Any) -> dict[str, Any]:
        """The unique point result matching the criteria."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise SweepError(
                f"expected exactly one result for {criteria}, got {len(matches)}"
            )
        return matches[0]

    # ---------------------------------------------------------------- export
    def to_json_dict(self) -> dict[str, Any]:
        """The deterministic result document (JSON-native values only)."""
        return {
            "schema": RESULT_SCHEMA,
            "max_requests": self.max_requests,
            "grid": self.grid.as_dict(),
            "results": self.results,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        """Canonical pretty-printed JSON of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def render_markdown(self) -> str:
        """Human-readable sweep table, one row per point in grid order."""
        header = [
            "config",
            "N",
            "layout",
            "h",
            "discipline",
            "phase GB/s",
            "phase util",
            "mem util",
            "row hits",
            "bound",
        ]
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        for entry in self.results:
            height = entry.get("height")
            lines.append(
                "| "
                + " | ".join(
                    [
                        str(entry["config"]),
                        str(entry["n"]),
                        str(entry["layout"]),
                        "--" if height is None else str(height),
                        str(entry["discipline"]),
                        f"{entry['throughput_gbps']:.2f}",
                        f"{100 * entry['utilization']:.1f}%",
                        f"{100 * entry['memory_utilization']:.1f}%",
                        f"{100 * entry['row_hit_rate']:.1f}%",
                        str(entry["bound"]),
                    ]
                )
                + " |"
            )
        return "\n".join(lines)

    def describe_run(self) -> str:
        """One-line execution summary (non-deterministic run metadata)."""
        parts = [f"{len(self.results)} points"]
        simulated = self.meta.get("simulated")
        cached = self.meta.get("cached")
        if simulated is not None:
            parts.append(f"{simulated} simulated")
        shared = self.meta.get("shared")
        if shared:
            parts.append(f"{shared} of them sharing a phase")
        if cached is not None:
            parts.append(f"{cached} from cache")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        jobs = self.meta.get("jobs")
        if jobs is not None:
            parts.append(f"jobs={jobs}")
        wall = self.meta.get("wall_s")
        if wall is not None:
            parts.append(f"{wall:.2f}s")
        return ", ".join(parts)
