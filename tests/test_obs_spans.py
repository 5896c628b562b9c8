"""Hierarchical host-time spans."""

import pytest

from repro.core.config import SystemConfig
from repro.core.simulate import simulate_baseline_column_phase
from repro.fft import FFT2D
from repro.framework import LayoutPlanner, fft2d_spec
from repro.memory3d import pact15_hmc_config
from repro.obs import SpanTimeline
from repro.obs.spans import span_or_null

import numpy as np


class TestSpanTimeline:
    def test_nesting_depth_and_parent(self):
        timeline = SpanTimeline()
        with timeline.span("outer"):
            with timeline.span("inner"):
                pass
        outer, inner = timeline.spans
        assert outer.depth == 0 and outer.parent == -1
        assert inner.depth == 1 and inner.parent == 0

    def test_durations_are_positive_and_nested(self):
        timeline = SpanTimeline()
        with timeline.span("outer"):
            with timeline.span("inner"):
                sum(range(1000))
        outer, inner = timeline.spans
        assert 0.0 < inner.duration_s <= outer.duration_s
        assert timeline.total_s() == pytest.approx(outer.duration_s)

    def test_meta_is_kept(self):
        timeline = SpanTimeline()
        with timeline.span("run", n=2048, layout="ddl"):
            pass
        assert timeline.spans[0].meta == {"n": 2048, "layout": "ddl"}

    def test_sequential_roots(self):
        timeline = SpanTimeline()
        with timeline.span("a"):
            pass
        with timeline.span("b"):
            pass
        assert [span.name for span in timeline.roots()] == ["a", "b"]

    def test_render_contains_names_and_meta(self):
        timeline = SpanTimeline()
        with timeline.span("phase", n=128):
            pass
        out = timeline.render()
        assert "phase" in out and "[n=128]" in out and "ms" in out

    def test_render_empty(self):
        assert SpanTimeline().render() == "(no spans recorded)"

    def test_chrome_events_relative_to_first_span(self):
        timeline = SpanTimeline()
        with timeline.span("outer", n=1):
            with timeline.span("inner"):
                pass
        events = timeline.to_chrome_events(pid=7, tid=3)
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] >= 0.0
        assert events[0]["pid"] == 7 and events[0]["tid"] == 3
        assert events[0]["args"] == {"n": 1}

    def test_chrome_events_empty(self):
        assert SpanTimeline().to_chrome_events() == []


class TestSpanOrNull:
    def test_none_timeline_is_noop(self):
        with span_or_null(None, "anything", n=1):
            pass  # must not raise and record nothing anywhere

    def test_timeline_records(self):
        timeline = SpanTimeline()
        with span_or_null(timeline, "region"):
            pass
        assert [span.name for span in timeline.spans] == ["region"]


class TestInstrumentedEntryPoints:
    def test_core_simulate_records_phase_spans(self):
        spans = SpanTimeline()
        simulate_baseline_column_phase(
            SystemConfig(), 256, max_requests=8192, spans=spans
        )
        names = [span.name for span in spans.spans]
        assert names == ["column-phase/baseline", "generate-trace", "simulate"]
        assert spans.spans[1].parent == 0

    def test_fft2d_records_row_and_column_phases(self):
        spans = SpanTimeline()
        fft = FFT2D(8, 8, spans=spans)
        data = np.arange(64, dtype=float).reshape(8, 8)
        np.testing.assert_allclose(fft.transform(data), np.fft.fft2(data))
        names = [span.name for span in spans.spans]
        assert names == ["fft2d", "row-phase", "column-phase"]

    def test_planner_records_candidate_scores(self):
        spans = SpanTimeline()
        planner = LayoutPlanner(
            pact15_hmc_config(), sample_requests=4096, spans=spans
        )
        planner.plan(fft2d_spec(256))
        names = [span.name for span in spans.spans]
        assert names[0].startswith("plan/fft2d")
        assert any(name.startswith("matrix/") for name in names)
        assert any(name.startswith("score/") for name in names)

    def test_uninstrumented_paths_record_nothing(self):
        fft = FFT2D(8, 8)
        fft.transform(np.zeros((8, 8)))
        assert fft.spans is None
