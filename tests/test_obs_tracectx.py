"""Deterministic trace contexts, traceparent parsing, the span tracer."""

import json

import pytest

from repro.obs.tracectx import (
    SERVE_PID,
    TRACEPARENT_SCHEMA,
    RequestTracer,
    TraceContext,
    TraceError,
    parse_traceparent,
)


class TestTraceContext:
    def test_root_ids_are_deterministic(self):
        a = TraceContext.root("req-000001")
        b = TraceContext.root("req-000001")
        assert a == b
        assert len(a.trace_id) == 32
        assert len(a.span_id) == 16
        assert a.parent_id is None

    def test_distinct_requests_get_distinct_traces(self):
        assert (
            TraceContext.root("req-1").trace_id
            != TraceContext.root("req-2").trace_id
        )

    def test_child_keeps_trace_and_links_parent(self):
        root = TraceContext.root("req-1")
        child = root.child("attempt", 2)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        # Index disambiguates repeats of the same operation.
        assert child.span_id != root.child("attempt", 3).span_id
        # And the derivation is stable.
        assert child == root.child("attempt", 2)

    def test_traceparent_round_trip(self):
        root = TraceContext.root("req-1")
        header = root.format_traceparent()
        assert header == f"00-{root.trace_id}-{root.span_id}-01"
        parsed = parse_traceparent(header)
        assert parsed.trace_id == root.trace_id
        assert parsed.span_id == root.span_id
        assert parsed.parent_id is None

    def test_parse_rejects_malformed_headers(self):
        for bad in (
            "",
            "00-short-span-01",
            "zz-" + "0" * 32 + "-" + "1" * 16 + "-01",
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",
            "00-" + "0" * 32 + "-" + "1" * 16,
            "ff-" + "0" * 32 + "-" + "1" * 16 + "-01",
        ):
            with pytest.raises(TraceError):
                parse_traceparent(bad)

    def test_parse_accepts_whitespace_and_case(self):
        root = TraceContext.root("req-1")
        parsed = parse_traceparent(
            "  " + root.format_traceparent().upper() + "  "
        )
        assert parsed.trace_id == root.trace_id

    def test_dict_round_trip_is_schema_tagged(self):
        context = TraceContext.root("req-1").child("point")
        payload = context.as_dict()
        assert payload["schema"] == TRACEPARENT_SCHEMA
        assert TraceContext.from_dict(payload) == context
        assert json.loads(json.dumps(payload)) == payload

    def test_from_dict_rejects_wrong_schema(self):
        payload = TraceContext.root("req-1").as_dict()
        payload["schema"] = "repro-other/v1"
        with pytest.raises(TraceError):
            TraceContext.from_dict(payload)


class TestRequestTracer:
    def test_records_spans_per_trace(self):
        tracer = RequestTracer()
        root = TraceContext.root("req-1")
        tracer.record(root, "request", start_s=1.0, duration_s=0.5, code=200)
        tracer.record(
            root.child("attempt"), "attempt", start_s=1.1, duration_s=0.2
        )
        spans = tracer.spans_for(root.trace_id)
        assert [s.name for s in spans] == ["request", "attempt"]
        assert spans[0].meta == {"code": 200}
        assert tracer.spans_for("0" * 32) == []

    def test_ring_evicts_oldest_trace(self):
        tracer = RequestTracer(max_traces=2)
        roots = [TraceContext.root(f"req-{i}") for i in range(3)]
        for root in roots:
            tracer.record(root, "request", start_s=0.0, duration_s=0.1)
        assert len(tracer) == 2
        assert tracer.evicted == 1
        assert tracer.trace_ids() == [r.trace_id for r in roots[1:]]

    def test_rejects_empty_ring(self):
        with pytest.raises(TraceError):
            RequestTracer(max_traces=0)

    def test_links_ride_with_the_linking_trace(self):
        tracer = RequestTracer()
        follower = TraceContext.root("req-2")
        owner = TraceContext.root("req-1")
        tracer.link(follower, owner.trace_id, "coalesced")
        (link,) = tracer.links_for(follower.trace_id)
        assert link.linked_trace_id == owner.trace_id
        assert link.reason == "coalesced"

    def test_snapshot_is_json_ready(self):
        tracer = RequestTracer()
        root = TraceContext.root("req-1")
        tracer.record(root, "request", start_s=0.0, duration_s=0.1)
        tracer.link(root, TraceContext.root("req-2").trace_id, "coalesced")
        snap = tracer.snapshot()
        assert len(snap) == 1
        assert snap[0]["trace_id"] == root.trace_id
        assert len(snap[0]["spans"]) == 1
        assert len(snap[0]["links"]) == 1
        json.dumps(snap)  # must not raise

    def test_chrome_events_are_timed_from_the_first_span(self):
        # Spans carry perf_counter seconds hours from the clock's zero;
        # every event, link instants included, lands in the trace extent.
        tracer = RequestTracer()
        root = TraceContext.root("req-1")
        tracer.record(root, "request", start_s=26_665.0, duration_s=0.25)
        tracer.record(
            root.child("attempt"), "attempt", start_s=26_665.1, duration_s=0.1
        )
        tracer.link(root, TraceContext.root("req-2").trace_id, "coalesced")
        events = tracer.to_chrome_events(root.trace_id)
        timed = [e for e in events if e["ph"] != "M"]
        assert {e["ph"] for e in timed} == {"X", "i"}
        extent_us = 0.25e6
        for event in timed:
            assert 0.0 <= event["ts"] <= extent_us
            assert event["ts"] + event.get("dur", 0.0) <= extent_us + 1e-3

    def test_chrome_events_form_one_tree(self):
        tracer = RequestTracer()
        root = TraceContext.root("req-1")
        attempt = root.child("attempt")
        tracer.record(root, "request", start_s=0.0, duration_s=1.0)
        tracer.record(attempt, "attempt", start_s=0.1, duration_s=0.5)
        tracer.record(
            attempt.child("wspan", "abc"), "worker:simulate",
            start_s=0.2, duration_s=0.3,
        )
        events = tracer.to_chrome_events(root.trace_id)
        meta, *spans = events
        assert meta["ph"] == "M"
        assert all(e["ph"] == "X" for e in spans)
        assert all(e["pid"] == SERVE_PID for e in spans)
        by_span = {e["args"]["span_id"]: e for e in spans}
        # Every non-root span's parent is present: one connected tree.
        for event in spans:
            parent = event["args"]["parent_id"]
            if parent is not None:
                assert parent in by_span
        roots = [
            e for e in spans if e["args"]["parent_id"] is None
        ]
        assert len(roots) == 1
