import multiprocessing

import layers
import pytest


def span(span_id, start, end, parent=None, name="x", **attrs):
    return {
        "id": span_id, "parent": parent, "name": name, "pid": 1, "tid": 1,
        "start": start, "end": end, "attrs": attrs,
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent="a"),
        span("c", 3.0, 6.0, parent="a"),  # overlaps b
        span("d", 8.0, 12.0, parent="a"),  # runs past its parent
        span("e", 2.0, 3.0, parent="b"),
    ]
    own = layers.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(3.0)
    assert own["e"] == pytest.approx(1.0)


def test_cross_thread_work_links_to_its_request():
    spans = [
        span("h", 0.0, 5.0, name="serve.handle", trace_id="t1"),
        span("w", 1.0, 4.0, name="serve.compute_point", trace_id="t1"),
        span("other", 1.0, 2.0, name="serve.compute_point", trace_id="t2"),
    ]
    layers.link_requests(spans)
    assert spans[1]["parent"] == "h"
    assert spans[2]["parent"] is None
    assert layers.self_times(spans)["h"] == pytest.approx(2.0)


def test_layer_shares_sum_to_one():
    spans = [
        span("p", 0.0, 4.0, name="core.simulate_column_phase"),
        span("g", 0.0, 1.0, parent="p", name="trace.gen", requests=100),
        span("s", 1.0, 3.0, parent="p", name="memory3d.simulate",
             engine="vector", fallback=None, requests=50),
    ]
    metrics = layers.layer_metrics(spans, ops=1, capacity_s=4.0)
    assert metrics["trace.self_share"] == pytest.approx(0.25)
    assert metrics["memory3d.vector.self_share"] == pytest.approx(0.5)
    assert metrics["core.self_share"] == pytest.approx(0.25)
    assert metrics["trace.used_share"] == pytest.approx(0.5)
    assert metrics["memory3d.vector_share"] == 1.0
    assert metrics["memory3d.vector.ns_per_request"] == pytest.approx(2e9 / 50)


def _child_work(recorder):
    recorder.call("child.work", lambda: None, (), {})


def test_forked_child_spans_hang_under_the_forking_span(tmp_path):
    recorder = layers.SpanRecorder(tmp_path)

    def fork_one():
        child = multiprocessing.get_context("fork").Process(
            target=_child_work, args=(recorder,)
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0

    recorder.call("parent.fork", fork_one, (), {})
    recorder.flush()
    by_name = {
        s["name"]: s for s in layers.load_spans(tmp_path) if s["name"] != "bench.flush"
    }
    assert set(by_name) == {"parent.fork", "child.work"}
    assert by_name["child.work"]["parent"] == by_name["parent.fork"]["id"]
    assert by_name["child.work"]["pid"] != by_name["parent.fork"]["pid"]


def test_child_flush_is_not_self_time_of_the_forking_span(tmp_path):
    recorder = layers.SpanRecorder(tmp_path)

    def fork_one():
        child = multiprocessing.get_context("fork").Process(
            target=_child_work, args=(recorder,)
        )
        child.start()
        child.join(timeout=30)

    recorder.call("attempt", fork_one, (), {})
    recorder.flush()
    spans = layers.load_spans(tmp_path)
    fork = next(s for s in spans if s["name"] == "attempt")
    flushes = [s for s in spans if s["name"] == "bench.flush"]
    child_flush = next(s for s in flushes if s["pid"] != fork["pid"])
    work = next(s for s in spans if s["name"] == "child.work")
    assert child_flush["parent"] == fork["id"]
    assert child_flush["start"] >= work["end"]
    def duration(s):
        return s["end"] - s["start"]

    own = layers.self_times(spans)
    assert own[fork["id"]] == pytest.approx(
        duration(fork) - duration(work) - duration(child_flush)
    )
    metrics = layers.layer_metrics(spans, ops=1, capacity_s=duration(fork))
    assert metrics["attempt.self_share"] == pytest.approx(
        own[fork["id"]] / (own[fork["id"]] + own[work["id"]])
    )


def test_chrome_trace_events():
    trace = layers.chrome_trace([span("a", 1.0, 1.5, name="cache.get", hit=True)])
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert complete[0]["ts"] == 0.0
    assert complete[0]["dur"] == pytest.approx(5e5)
    assert complete[0]["args"]["hit"] is True
