"""The self-contained static HTML run report."""

import json

from repro.obs import ClockAnchor, RunTelemetry, WorkerTelemetry
from repro.obs.report import (
    build_run_report,
    load_bench_history,
    markdown_table_html,
    svg_sparkline,
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


class TestSvgSparkline:
    def test_empty_series(self):
        assert svg_sparkline([]) == ""

    def test_single_point(self):
        out = svg_sparkline([5.0])
        assert out.startswith('<svg') and "<circle" in out

    def test_series_renders_polyline(self):
        out = svg_sparkline([1.0, 3.0, 2.0])
        assert "<polyline" in out and "<circle" in out

    def test_flat_series_no_division_by_zero(self):
        assert "<polyline" in svg_sparkline([2.0, 2.0, 2.0])


class TestSvgTimeline:
    def test_empty_run_notes_absence(self):
        run = RunTelemetry.start("empty")
        assert svg_timeline(run) == '<p class="note">(no telemetry recorded)</p>'

    def test_merged_run_renders_lanes(self):
        out = svg_timeline(merged_run())
        assert out.startswith("<svg")
        assert "worker pid=777" in out
        assert "<rect" in out  # the worker's point span


class TestLoadBenchHistory:
    def test_groups_by_benchmark_in_order(self, tmp_path):
        for index, value in enumerate((1.0, 2.0)):
            path = tmp_path / f"BENCH_sweep_{index}.json"
            path.write_text(json.dumps(
                {"benchmark": "sweep", "metrics": {"serial_s": value}}
            ))
        history = load_bench_history(
            [str(tmp_path / "BENCH_sweep_0.json"),
             str(tmp_path / "BENCH_sweep_1.json")]
        )
        assert list(history) == ["sweep"]
        assert [s["metrics"]["serial_s"] for s in history["sweep"]] == [1.0, 2.0]

    def test_corrupt_and_foreign_files_skipped(self, tmp_path):
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "foreign.json").write_text('{"other": "shape"}')
        history = load_bench_history(
            [str(tmp_path / "corrupt.json"),
             str(tmp_path / "foreign.json"),
             str(tmp_path / "missing.json")]
        )
        assert history == {}


class TestBuildRunReport:
    def test_report_contains_all_sections(self, tmp_path):
        bench = tmp_path / "BENCH_sweep.json"
        bench.write_text(json.dumps(
            {"benchmark": "sweep", "metrics": {"serial_s": 1.5, "points": 4}}
        ))
        html_text = build_run_report(
            n=64,
            max_requests=512,
            telemetry=merged_run(),
            bench_paths=[str(bench)],
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
        assert "Bench trajectory" in html_text
        assert "serial_s" in html_text

    def test_optional_sections_skippable(self):
        html_text = build_run_report(
            n=64, max_requests=512, include_faults=False
        )
        assert "Degradation" not in html_text
        assert "Sweep telemetry" not in html_text
        assert "(no BENCH_*.json artifacts supplied)" in html_text

    def test_write_run_report(self, tmp_path):
        target = tmp_path / "report.html"
        write_run_report(str(target), n=64, max_requests=512,
                         include_faults=False)
        assert target.read_text().startswith("<!DOCTYPE html>")
