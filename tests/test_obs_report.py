"""The self-contained static HTML run report."""

from repro.obs import ClockAnchor, RunTelemetry, WorkerTelemetry
from repro.obs.report import (
    build_run_report,
    markdown_table_html,
    svg_timeline,
    write_run_report,
)
from repro.obs.telemetry import sweep_context


def merged_run() -> RunTelemetry:
    """A RunTelemetry with one worker payload, deterministic clocks."""
    run = RunTelemetry.start("report-run")
    run.anchor = ClockAnchor(wall_s=100.0, perf_s=10.0)
    worker = WorkerTelemetry(
        sweep_context("report-run", 0),
        worker_id=777,
        anchor=ClockAnchor(wall_s=100.0, perf_s=3.0),
    )
    with worker.timeline.span("point", n=64):
        pass
    span = worker.timeline.spans[0]
    span.start_s, span.end_s = 4.0, 4.5
    run.merge_worker(worker.as_dict())
    return run


class TestMarkdownTableHtml:
    def test_converts_pipe_table(self):
        markdown = (
            "| a | b |\n"
            "|---|---|\n"
            "| `x` | 1 |\n"
        )
        out = markdown_table_html(markdown)
        assert out.startswith("<table>")
        assert "<th>a</th>" in out and "<td><code>x</code></td>" in out
        assert "<td>1</td>" in out

    def test_non_table_falls_back_to_pre(self):
        out = markdown_table_html("plain <text>")
        assert out == "<pre>plain &lt;text&gt;</pre>"

    def test_cells_escaped(self):
        out = markdown_table_html("| <b> |\n|---|\n| <i> |")
        assert "<b>" not in out and "&lt;b&gt;" in out


class TestSvgTimeline:
    def test_empty_run_notes_absence(self):
        run = RunTelemetry.start("empty")
        assert svg_timeline(run) == '<p class="note">(no telemetry recorded)</p>'

    def test_merged_run_renders_lanes(self):
        out = svg_timeline(merged_run())
        assert out.startswith("<svg")
        assert "worker pid=777" in out
        assert "<rect" in out  # the worker's point span


class TestBuildRunReport:
    def test_report_contains_all_sections(self):
        html_text = build_run_report(
            n=64,
            max_requests=512,
            telemetry=merged_run(),
            include_faults=True,
            title="test report",
            generated="generated for the test suite",
        )
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<title>test report</title>" in html_text
        assert "generated for the test suite" in html_text
        assert "Modelled system" in html_text
        assert "Per-vault utilization" in html_text
        assert "Sweep telemetry" in html_text
        assert "worker pid=777" in html_text
        assert "Degradation under injected faults" in html_text

    def test_optional_sections_skippable(self):
        html_text = build_run_report(
            n=64, max_requests=512, include_faults=False
        )
        assert "Degradation" not in html_text
        assert "Sweep telemetry" not in html_text

    def test_write_run_report(self, tmp_path):
        target = tmp_path / "report.html"
        write_run_report(str(target), n=64, max_requests=512,
                         include_faults=False)
        assert target.read_text().startswith("<!DOCTYPE html>")
