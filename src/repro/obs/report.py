"""A self-contained static HTML run report.

``python -m repro report --html`` renders one file a reviewer can open
with no server, no JavaScript framework and no network access: inline
CSS, inline SVG charts, everything computed from this repository's own
models and artifacts.  Sections:

* **Modelled system** -- the resolved 3D-memory configuration;
* **Per-vault utilization** -- the event-recorder breakdown for the
  baseline (row-major) and optimized (block-DDL) column phases;
* **Sweep telemetry** -- when a merged :class:`RunTelemetry` is
  supplied, its summary, an SVG timeline of runner/point/worker tracks
  and the merged metrics registry;
* **Fault degradation** -- the :func:`repro.faults.report.degradation_rows`
  table plus the DDL-advantage list.

Everything accepts precomputed inputs so tests and the CLI can assemble
reports at any fidelity without re-simulating.
"""

from __future__ import annotations

import html
from typing import Any

from repro.core.config import SystemConfig
from repro.faults.report import degradation_report, degradation_rows
from repro.obs.telemetry import RunTelemetry
from repro.reporting import column_vault_tables

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #30507a; padding-bottom: .3rem; }
h2 { color: #30507a; margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; }
th, td { border: 1px solid #c5cede; padding: .3rem .6rem; text-align: right; }
th { background: #eef2f8; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f4f6fa; padding: .75rem; overflow-x: auto; }
svg { background: #fbfcfe; border: 1px solid #c5cede; }
.note { color: #5a6478; font-size: .9em; }
"""

#: Track colours for the timeline SVG, cycled per process.
_TRACK_COLORS = ("#30507a", "#b0562c", "#3a7a4a", "#7a3a6e", "#807020")


# ------------------------------------------------------------- tiny renderers
def markdown_table_html(markdown: str) -> str:
    """Convert a pipe-style markdown table to an HTML ``<table>``.

    Only the subset our renderers emit (header row, ``---`` separator,
    body rows); inline backticks become ``<code>``.
    """
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in markdown.strip().splitlines()
        if line.strip().startswith("|")
    ]
    if len(rows) < 2:
        return f"<pre>{html.escape(markdown)}</pre>"

    def cell_html(text: str) -> str:
        escaped = html.escape(text)
        while "`" in escaped:
            before, _, rest = escaped.partition("`")
            code, _, after = rest.partition("`")
            escaped = f"{before}<code>{code}</code>{after}"
        return escaped

    out = ["<table>", "<tr>"]
    out += [f"<th>{cell_html(cell)}</th>" for cell in rows[0]]
    out.append("</tr>")
    for row in rows[2:]:
        out.append("<tr>")
        out += [f"<td>{cell_html(cell)}</td>" for cell in row]
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def svg_timeline(telemetry: RunTelemetry, width: int = 880) -> str:
    """An SVG swimlane view of a merged run trace.

    One lane per Chrome track (runner, each sweep point, each worker),
    every span slice as a bar (a zero-length one one pixel wide) -- a
    static stand-in for opening the full Perfetto trace.
    """
    doc = telemetry.chrome_trace()
    names: dict[tuple[int, int], str] = {}
    process: dict[int, str] = {}
    slices: list[dict] = []
    for event in doc["traceEvents"]:
        if event.get("ph") == "M":
            if event["name"] == "process_name":
                process[event["pid"]] = event["args"]["name"]
            else:
                names[(event["pid"], event["tid"])] = event["args"]["name"]
        elif event.get("ph") == "X":
            slices.append(event)
    if not slices:
        return '<p class="note">(no telemetry recorded)</p>'
    tracks: list[tuple[int, int]] = sorted(
        {(event["pid"], event["tid"]) for event in slices}
    )
    end_us = max(
        event["ts"] + event["dur"] for event in slices
    ) or 1.0
    lane_h, pad, label_w = 20, 4, 150
    height = len(tracks) * lane_h + 2 * pad + 16
    scale = (width - label_w - 2 * pad) / end_us
    row_of = {track: index for index, track in enumerate(tracks)}
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    color_of: dict[int, str] = {}
    for pid, tid in tracks:
        color_of.setdefault(pid, _TRACK_COLORS[len(color_of) % len(_TRACK_COLORS)])
        y = pad + row_of[(pid, tid)] * lane_h
        label = names.get(
            (pid, tid), process.get(pid, f"pid {pid}")
        )
        if (pid, tid) not in names and tid == 0:
            label = process.get(pid, f"pid {pid}")
        parts.append(
            f'<text x="{pad}" y="{y + lane_h - 7}" font-size="10" '
            f'fill="#1a1a2e">{html.escape(str(label))}</text>'
        )
    for event in slices:
        track = (event["pid"], event["tid"])
        y = pad + row_of[track] * lane_h
        x = label_w + pad + event["ts"] * scale
        color = color_of[event["pid"]]
        title = html.escape(str(event["name"]))
        bar_width = max(1.0, event["dur"] * scale)
        parts.append(
            f'<rect x="{x:.1f}" y="{y + 2}" width="{bar_width:.1f}" '
            f'height="{lane_h - 6}" fill="{color}" fill-opacity="0.75">'
            f"<title>{title}</title></rect>"
        )
    axis_y = len(tracks) * lane_h + pad + 12
    parts.append(
        f'<text x="{label_w + pad}" y="{axis_y}" font-size="10" '
        f'fill="#5a6478">0</text>'
    )
    parts.append(
        f'<text x="{width - pad - 60}" y="{axis_y}" font-size="10" '
        f'fill="#5a6478">{end_us / 1e3:.1f} ms</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


# --------------------------------------------------------------- the report
def _vault_sections(
    config: SystemConfig, n: int, max_requests: int
) -> list[str]:
    parts = [f"<h2>Per-vault utilization &mdash; column phase (N={n})</h2>"]
    for caption, table in column_vault_tables(config, n, max_requests):
        parts += [f"<p>{html.escape(caption)}</p>", markdown_table_html(table)]
    return parts


def _fault_section(
    config: SystemConfig, n: int, max_requests: int, seed: int
) -> list[str]:
    report = degradation_report(
        config=config, n=n, max_requests=max_requests, seed=seed
    )
    header, rows = degradation_rows(report)
    table = ["<table><tr>"]
    table += [f"<th>{html.escape(cell)}</th>" for cell in header]
    table.append("</tr>")
    for row in rows:
        table.append("<tr>")
        table += [f"<td>{html.escape(cell)}</td>" for cell in row]
        table.append("</tr>")
    table.append("</table>")
    advantage = "".join(
        f"<li>{html.escape(name)}: <strong>{ratio:.1f}x</strong></li>"
        for name, ratio in report["advantage"].items()
    )
    return [
        f"<h2>Degradation under injected faults (N={n})</h2>",
        "<p>Column-phase bandwidth per layout, healthy and under each "
        "fault class; parenthesized: fraction of the layout's own "
        "healthy bandwidth that survives.</p>",
        "".join(table),
        "<p>DDL bandwidth advantage over row-major (ratio, &gt;1 means "
        "the blocked layout still wins):</p>",
        f"<ul>{advantage}</ul>",
    ]


def build_run_report(
    config: SystemConfig | None = None,
    n: int = 512,
    max_requests: int = 32_768,
    telemetry: RunTelemetry | None = None,
    include_faults: bool = True,
    seed: int = 0,
    title: str = "repro run report",
    generated: str | None = None,
) -> str:
    """Assemble the self-contained HTML run report.

    Args:
        config: the modelled system (default: paper-calibrated).
        n: matrix size for the utilization / degradation sections.
        max_requests: simulated-request cap per section run.
        telemetry: a merged sweep :class:`RunTelemetry` to embed as the
            timeline section (omit to skip the section).
        include_faults: render the degradation section (the most
            expensive section; reports for quick smoke runs skip it).
        seed: fault-plan seed for the degradation section.
        title: document title.
        generated: optional human-readable provenance line (timestamp,
            host, commit) -- caller-supplied so report content stays a
            pure function of its inputs.
    """
    config = config or SystemConfig()
    parts: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    if generated:
        parts.append(f'<p class="note">{html.escape(generated)}</p>')

    parts += [
        "<h2>Modelled system</h2>",
        f"<pre>{html.escape(config.memory.describe())}</pre>",
    ]
    parts += _vault_sections(config, n, max_requests)

    if telemetry is not None:
        parts += [
            "<h2>Sweep telemetry</h2>",
            f'<p class="note">{html.escape(telemetry.summary())}</p>',
            svg_timeline(telemetry),
        ]
        if len(telemetry.registry):
            parts.append(
                "<pre>"
                + html.escape(telemetry.registry.render_markdown())
                + "</pre>"
            )

    if include_faults:
        parts += _fault_section(config, n, max_requests, seed)

    parts.append("</body></html>")
    return "\n".join(parts)


def write_run_report(path: str, **kwargs: Any) -> None:
    """Build :func:`build_run_report` and write it to ``path``."""
    text = build_run_report(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
