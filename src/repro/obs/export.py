"""Exporters: Chrome ``trace_event`` JSON and markdown breakdown tables.

The Chrome/Perfetto trace format is the lingua franca of timeline
viewers: a JSON object with a ``traceEvents`` list of slices.  We map
the memory stack onto it as one *process per vault* with one *thread
(track) per bank*, so opening the file in https://ui.perfetto.dev (or
``chrome://tracing``) shows per-bank occupancy slices -- ACTIVATE row
cycles, open-row data beats, refresh and TSV stalls -- exactly the view
the paper's bandwidth argument is about.  Simulated nanoseconds are
exported as trace microseconds (the format's native unit) to keep the
viewers' zoom behaviour sane.

Markdown table helpers render the same data for terminals and reports.
"""

from __future__ import annotations

import json
from typing import IO

from repro.memory3d.config import Memory3DConfig
from repro.memory3d.stats import AccessStats
from repro.obs.events import EventKind, EventTrace
from repro.obs.spans import SpanTimeline
from repro.units import ELEMENT_BYTES

#: Slice names per event kind (short, so Perfetto labels stay readable).
_EVENT_NAMES = {
    int(EventKind.ACTIVATE): "ACTIVATE",
    int(EventKind.ROW_HIT): "HIT",
    int(EventKind.REFRESH_STALL): "REFRESH",
    int(EventKind.TSV_CONTENTION): "TSV_WAIT",
    int(EventKind.BIT_ERROR): "BIT_ERR",
    int(EventKind.REQUEST_START): "REQUEST_START",
    int(EventKind.COALESCE_LINK): "COALESCE_LINK",
    int(EventKind.BREAKER_TRANSITION): "BREAKER_TRANSITION",
    int(EventKind.FLIGHT_DUMP): "FLIGHT_DUMP",
}


def chrome_track_name(pid: int, name: str, tid: int | None = None) -> dict:
    """The metadata event naming process ``pid`` (or its thread ``tid``)."""
    return {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": 0 if tid is None else tid,
        "args": {"name": name},
    }


def dump_json(doc: dict, target: str | IO[str]) -> None:
    """Write ``doc`` as JSON to a path or an open text file."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    else:
        json.dump(doc, target)


#: Process id offset for the span (host-time) track, clear of vault pids.
SPAN_PID = 10_000


def chrome_trace_events(events: EventTrace) -> list[dict]:
    """The ``traceEvents`` list for a recorded simulation.

    One metadata-named process per vault, one thread per bank; every
    event becomes a complete slice (``ph: "X"``) whose ``args`` carry
    the row.  Timestamps/durations are microseconds (simulated ns/1000).
    """
    out: list[dict] = []
    seen_tracks: set[tuple[int, int]] = set()
    for vault, bank in zip(events.vaults, events.banks, strict=True):
        seen_tracks.add((vault, bank))
    for vault in sorted({v for v, _ in seen_tracks}):
        out.append(chrome_track_name(vault, f"vault {vault}"))
    for vault, bank in sorted(seen_tracks):
        out.append(chrome_track_name(vault, f"bank {bank}", tid=bank))
    for kind, vault, bank, row, ts, dur in zip(
        events.kinds, events.vaults, events.banks, events.rows,
        events.ts_ns, events.dur_ns, strict=True,
    ):
        out.append(
            {
                "name": _EVENT_NAMES[kind],
                "cat": _EVENT_NAMES[kind],
                "ph": "X",
                "pid": vault,
                "tid": bank,
                "ts": ts / 1e3,
                "dur": dur / 1e3,
                "args": {"row": row},
            }
        )
    return out


def chrome_trace(
    events: EventTrace,
    spans: SpanTimeline | None = None,
    metadata: dict | None = None,
) -> dict:
    """A complete Chrome ``trace_event`` JSON object.

    Args:
        events: the recorded memory events (vault/bank tracks).
        spans: optional host-time phase timeline, added as its own
            process (pid :data:`SPAN_PID`).
        metadata: free-form run description stored under ``otherData``.
    """
    trace_events = chrome_trace_events(events)
    if spans is not None and len(spans):
        trace_events.append(chrome_track_name(SPAN_PID, "host phases"))
        trace_events.extend(spans.to_chrome_events(pid=SPAN_PID))
    doc: dict = {"traceEvents": trace_events, "displayTimeUnit": "ns"}
    if metadata:
        doc["otherData"] = {str(k): str(v) for k, v in metadata.items()}
    return doc


def write_chrome_trace(
    target: str | IO[str],
    events: EventTrace,
    spans: SpanTimeline | None = None,
    metadata: dict | None = None,
) -> None:
    """Serialize :func:`chrome_trace` to a path or open text file."""
    dump_json(chrome_trace(events, spans=spans, metadata=metadata), target)


# ------------------------------------------------------------------- tables
def markdown_table(header: list[str], rows: list[list[str]]) -> str:
    """A pipe-delimited markdown table (header, ``---`` rule, rows)."""
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def vault_utilization_table(
    events: EventTrace, elapsed_ns: float, config: Memory3DConfig
) -> str:
    """Per-vault utilization and row-hit-rate breakdown (markdown).

    Utilization is the fraction of each vault's TSV peak actually used
    over the run: ``accesses * element_bytes / (elapsed * vault_peak)``.
    """
    hits = events.per_vault_counts(EventKind.ROW_HIT)
    activations = events.per_vault_counts(EventKind.ACTIVATE)
    hit_rate = events.per_vault_row_hit_rate()
    rows = []
    vault_peak = config.vault_peak_bandwidth
    for vault in range(config.vaults):
        accesses = hits.get(vault, 0) + activations.get(vault, 0)
        util = 0.0
        if elapsed_ns > 0:
            util = (accesses * ELEMENT_BYTES) / (
                elapsed_ns / 1e9 * vault_peak
            )
        rows.append(
            [
                f"{vault}",
                f"{accesses:,}",
                f"{activations.get(vault, 0):,}",
                f"{100 * hit_rate.get(vault, 0.0):.1f}%",
                f"{100 * util:.1f}%",
            ]
        )
    return markdown_table(
        ["vault", "accesses", "activations", "row-hit rate", "utilization"], rows
    )


def stats_vault_table(stats: AccessStats, config: Memory3DConfig) -> str:
    """Per-vault busy-time share from plain :class:`AccessStats` (markdown).

    Needs no recorder -- uses the ``per_vault_busy_ns`` the engines
    always collect; ``busy`` is each vault's last-completion watermark
    relative to the run's elapsed time.
    """
    rows = []
    elapsed = stats.elapsed_ns
    for vault in range(config.vaults):
        busy = stats.per_vault_busy_ns.get(vault, 0.0)
        share = busy / elapsed if elapsed > 0 else 0.0
        rows.append([f"{vault}", f"{busy:,.0f}", f"{100 * share:.1f}%"])
    return markdown_table(["vault", "busy ns (watermark)", "of elapsed"], rows)


def event_summary_table(events: EventTrace) -> str:
    """Event counts and total stall time as a compact markdown table."""
    counts = events.counts()
    rows = [[name, f"{count:,}"] for name, count in counts.items()]
    rows.append(
        ["refresh stall ns", f"{events.stall_ns(EventKind.REFRESH_STALL):,.1f}"]
    )
    rows.append(
        ["TSV wait ns", f"{events.stall_ns(EventKind.TSV_CONTENTION):,.1f}"]
    )
    return markdown_table(["event", "count / total"], rows)
