"""The layout-planning service: admission, deadlines, breaker, drain.

End-to-end through the real HTTP transport wherever the behaviour is
externally observable (status codes, Retry-After, envelopes), dropping
to the service/state-machine level where HTTP adds only noise.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.obs.logging import reset_logging
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.serve import (
    RESPONSE_SCHEMA,
    SERVE_STATUS_SCHEMA,
    AdmissionController,
    CircuitBreaker,
    PlanRequest,
    PlanServer,
    PlanService,
    ServeError,
    best_point,
    parse_plan_request,
    serve_forever,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN
from repro.sweep import (
    QuarantineReason,
    ResultCache,
    RetryPolicy,
    SweepGrid,
    WorkerChaos,
    run_sweep,
)

#: Small, fast request used across the suite.
SPEC = {"n": 256, "max_requests": 2048}


@pytest.fixture(autouse=True)
def _clean_logging():
    reset_logging()
    yield
    reset_logging()


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def post(url, payload, timeout=60.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), (
                json.loads(response.read())
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


# --------------------------------------------------------------------- schemas
class TestPlanRequest:
    def test_minimal_request_gets_defaults(self):
        request = parse_plan_request({"n": 512})
        assert request.layouts == ("row-major", "ddl")
        assert request.heights == (None,)
        assert request.label == "default"
        assert request.deadline_s is None

    def test_rejects_malformed_bodies(self):
        for bad in (
            [],
            {"layouts": ["ddl"]},
            {"n": 0},
            {"n": "many"},
            {"n": 512, "bogus": 1},
            {"n": 512, "layouts": []},
            {"n": 512, "heights": "tall"},
            {"n": 512, "max_requests": -1},
            {"n": 512, "deadline_s": 0},
            {"n": 512, "overrides": 7},
        ):
            with pytest.raises(ConfigError):
                parse_plan_request(bad)

    def test_zero_height_means_eq1(self):
        request = parse_plan_request({"n": 512, "heights": [0, 8]})
        assert request.heights == (None, 8)

    def test_grid_matches_offline_sweep_grid(self):
        request = parse_plan_request(
            {"n": 512, "layouts": ["ddl"], "heights": [8, 16]}
        )
        grid = SweepGrid(sizes=(512,), layouts=("ddl",), heights=(8, 16))
        assert request.grid().as_dict() == grid.as_dict()

    def test_point_payloads_share_sweep_cache_keys(self):
        from repro.core.config import SystemConfig
        from repro.serialization import system_to_dict

        request = parse_plan_request(SPEC)
        payloads = request.point_payloads(SystemConfig())
        assert len(payloads) == 2
        key, payload = payloads[0]
        assert payload["config"] == system_to_dict(SystemConfig())
        assert key == ResultCache.key_for(payload)

    def test_best_point_prefers_throughput_then_grid_order(self):
        lo = {"layout": "row-major", "throughput_gbps": 1.0}
        hi = {"layout": "ddl", "throughput_gbps": 2.0}
        tie = {"layout": "other", "throughput_gbps": 2.0}
        assert best_point([lo, hi, tie]) is hi
        with pytest.raises(ServeError):
            best_point([])


# ------------------------------------------------------------------- admission
class TestAdmissionController:
    def test_limit_sheds_and_counts(self):
        admission = AdmissionController(limit=2)
        assert admission.try_admit() and admission.try_admit()
        assert not admission.try_admit()
        admission.complete()
        assert admission.try_admit()
        admission.cancel()
        admission.complete()
        snap = admission.snapshot()
        assert snap["submitted"] == 4
        assert snap["accepted"] == 3
        assert snap["shed"] == 1
        assert snap["completed"] == 2
        assert snap["cancelled"] == 1
        assert snap["depth"] == 0
        admission.check_invariants()

    def test_drain_sheds_everything_new(self):
        admission = AdmissionController(limit=4)
        assert admission.try_admit()
        admission.begin_drain()
        assert not admission.try_admit()
        assert not admission.idle()
        admission.complete()
        assert admission.idle()

    def test_misuse_raises(self):
        with pytest.raises(ConfigError):
            AdmissionController(limit=0)
        admission = AdmissionController(limit=1)
        with pytest.raises(ConfigError):
            admission.complete()
        with pytest.raises(ConfigError):
            admission.cancel()


# --------------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(threshold=3, reset_s=10.0, clock=lambda: 0.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_open_refuses_then_half_open_probes_once(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_s=5.0, clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(5.0)
        now[0] = 6.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # concurrent callers wait
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_fresh_timer(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_s=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        now[0] = 12.0
        assert breaker.allow()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(reset_s=0)


# ------------------------------------------------------------------ end-to-end
class TestServiceHTTP:
    def test_plan_roundtrip_envelope(self):
        with PlanService(jobs=2) as service, PlanServer(service) as server:
            code, headers, envelope = post(server.url + "/plan", SPEC)
        assert code == 200
        assert envelope["schema"] == RESPONSE_SCHEMA
        assert envelope["degraded"] is False
        assert envelope["computed"] == 2
        assert envelope["best"]["layout"] == "ddl"
        assert envelope["request_id"]
        assert envelope["document"]["schema"].startswith("repro-sweep-result/")

    def test_document_byte_identical_to_sweep(self):
        with PlanService(jobs=2) as service, PlanServer(service) as server:
            _, _, envelope = post(server.url + "/plan", SPEC)
        sweep = run_sweep(
            SweepGrid(sizes=(SPEC["n"],)), max_requests=SPEC["max_requests"]
        )
        served = json.dumps(
            envelope["document"], indent=2, sort_keys=True
        ) + "\n"
        assert served == sweep.to_json()

    def test_cache_interop_both_directions(self, tmp_path):
        # Sweep writes, service replays ...
        sweep_cache = ResultCache(tmp_path / "cache")
        expected = run_sweep(
            SweepGrid(sizes=(SPEC["n"],)),
            max_requests=SPEC["max_requests"],
            cache=sweep_cache,
        ).to_json()
        service = PlanService(cache=ResultCache(tmp_path / "cache"), jobs=2)
        with service, PlanServer(service) as server:
            _, _, envelope = post(server.url + "/plan", SPEC)
        assert envelope["cached"] == 2 and envelope["computed"] == 0
        served = json.dumps(
            envelope["document"], indent=2, sort_keys=True
        ) + "\n"
        assert served == expected

        # ... and the service writes, the sweep replays.
        service = PlanService(cache=ResultCache(tmp_path / "cache2"), jobs=2)
        with service, PlanServer(service) as server:
            _, _, envelope = post(server.url + "/plan", SPEC)
        assert envelope["computed"] == 2
        replay_cache = ResultCache(tmp_path / "cache2")
        replay = run_sweep(
            SweepGrid(sizes=(SPEC["n"],)),
            max_requests=SPEC["max_requests"],
            cache=replay_cache,
        )
        assert replay_cache.stats.hits == 2
        assert replay.to_json() == expected

    def test_bad_request_and_unknown_path(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            code, _, envelope = post(server.url + "/plan", {"n": -4})
            assert code == 400 and envelope["error"] == "bad-request"
            code, _, envelope = post(server.url + "/plan", {"n": 512, "x": 1})
            assert code == 400
            code, _, _ = post(server.url + "/other", {})
            assert code == 404
            code, _, body = get(server.url + "/nope")
            assert code == 404 and b"endpoints" in body

    def test_health_status_metrics_endpoints(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            post(server.url + "/plan", SPEC)
            code, _, _ = get(server.url + "/healthz")
            assert code == 200
            code, _, _ = get(server.url + "/readyz")
            assert code == 200
            code, _, body = get(server.url + "/status")
            status = json.loads(body)
            assert code == 200
            assert status["schema"] == SERVE_STATUS_SCHEMA
            assert status["state"] == "serving"
            assert status["admission"]["completed"] == 1
            assert status["breaker"]["state"] == CLOSED
            code, headers, body = get(server.url + "/metrics")
            assert code == 200
            assert "openmetrics" in headers["Content-Type"]
            metrics = parse_openmetrics(body.decode())
            assert metrics["serve_completed"]["samples"][
                "serve_completed_total"
            ] == 1
            assert metrics["serve_queue_depth"]["samples"][
                "serve_queue_depth"
            ] == 0
            assert metrics["serve_breaker_state"]["samples"][
                "serve_breaker_state"
            ] == 0

    def test_overload_sheds_with_retry_after(self):
        # One hung in-flight request saturates a queue of 1; the next
        # request must shed immediately with 429 + Retry-After.
        service = PlanService(
            jobs=1,
            queue_limit=1,
            chaos=WorkerChaos(hang_points=(0,), hang_s=30.0),
            policy=RetryPolicy(retries=0),
        )
        with service, PlanServer(service) as server:
            slow = {}

            def fire():
                slow["response"] = post(
                    server.url + "/plan",
                    {**SPEC, "deadline_s": 3.0},
                    timeout=30.0,
                )

            thread = threading.Thread(target=fire)
            thread.start()
            deadline = time.monotonic() + 5.0
            while service.admission.snapshot()["depth"] < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            code, headers, envelope = post(server.url + "/plan", SPEC)
            assert code == 429
            assert envelope["error"] == "shed"
            assert int(headers["Retry-After"]) >= 1
            thread.join(timeout=30.0)
        code, _, envelope = slow["response"]
        assert code == 504
        assert envelope["error"] == "deadline-exceeded"
        assert envelope["reason"] == QuarantineReason.TIMEOUT.value
        snap = service.admission.snapshot()
        assert snap["shed"] == 1
        assert snap["cancelled"] == 1  # the deadline-missed request
        service.admission.check_invariants()

    def test_coalescing_shares_identical_inflight_points(self):
        service = PlanService(jobs=4)
        responses = []
        with service, PlanServer(service) as server:
            lock = threading.Lock()

            def fire():
                response = post(server.url + "/plan", SPEC, timeout=60.0)
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert len(responses) == 4
        documents = set()
        coalesced = 0
        for code, _, envelope in responses:
            assert code == 200
            coalesced += envelope["coalesced"]
            documents.add(
                json.dumps(envelope["document"], sort_keys=True)
            )
        assert len(documents) == 1  # identical answers
        assert coalesced >= 1  # at least one join actually happened
        snap = service.admission.snapshot()
        assert snap["accepted"] == snap["completed"] == 4
        service.admission.check_invariants()

    def test_concurrent_burst_computes_each_point_once(self, tmp_path):
        """Four identical concurrent requests over a cache: every point
        is computed once, and the other three answers share it through
        the cache or by coalescing (share 3/4 of the points served)."""
        service = PlanService(cache=ResultCache(tmp_path / "cache"), jobs=4)
        envelopes = []
        lock = threading.Lock()

        def fire():
            code, envelope, _ = service.handle(dict(SPEC))
            assert code == 200
            with lock:
                envelopes.append(envelope)

        with service:
            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert len(envelopes) == 4
        served = sum(e["cached"] + e["computed"] for e in envelopes)
        shared = sum(e["cached"] + e["coalesced"] for e in envelopes)
        assert served == 4 * 2
        assert served - shared == 2  # one computation per point
        assert shared / served == 0.75

    def test_breaker_demo_degraded_and_half_open_recovery(self, tmp_path):
        # Warm the cache with a healthy request first.
        now = [0.0]
        service = PlanService(
            cache=ResultCache(tmp_path / "cache"),
            jobs=1,
            policy=RetryPolicy(retries=0),
            breaker=CircuitBreaker(
                threshold=1, reset_s=30.0, clock=lambda: now[0]
            ),
        )
        with service, PlanServer(service) as server:
            code, _, _ = post(server.url + "/plan", SPEC)
            assert code == 200

            # Kill the worker pool mid-run: every attempt now fails.
            service.chaos = WorkerChaos(fail_points=(0,))
            fresh = {"n": 512, "max_requests": 2048}
            code, _, envelope = post(server.url + "/plan", fresh)
            assert code == 500
            assert envelope["reason"] == QuarantineReason.EXCEPTION.value
            assert service.breaker.state == OPEN
            code, _, _ = get(server.url + "/readyz")
            assert code == 503

            # Cached spec still answers, flagged degraded.
            code, _, envelope = post(server.url + "/plan", SPEC)
            assert code == 200
            assert envelope["degraded"] is True
            assert envelope["cached"] == 2

            # Uncached spec is refused while the circuit is open.
            code, headers, envelope = post(server.url + "/plan", fresh)
            assert code == 503
            assert envelope["error"] == "degraded"
            assert envelope["reason"] == QuarantineReason.EXCEPTION.value
            assert "Retry-After" in headers

            # Workers heal; the cool-down elapses; one half-open probe
            # recovers the service without a restart.
            service.chaos = None
            now[0] = 31.0
            code, _, envelope = post(server.url + "/plan", fresh)
            assert code == 200
            assert envelope["degraded"] is False
            assert service.breaker.state == CLOSED
            code, _, _ = get(server.url + "/readyz")
            assert code == 200
        status = service.live.snapshot()
        # The failing request had two points; whether the second one
        # also records a failure before the first one's cancellation
        # lands is a benign race -- the *vocabulary* is what's pinned.
        assert set(status["failure_reasons"]) == {
            QuarantineReason.EXCEPTION.value
        }
        assert status["failure_reasons"]["exception"] >= 1
        assert status["counters"]["degraded_answers"] == 1
        assert status["counters"]["degraded_refusals"] == 1

    def test_drain_finishes_accepted_requests_then_sheds(self):
        service = PlanService(jobs=2)
        with service, PlanServer(service) as server:
            responses = []

            def fire():
                responses.append(post(server.url + "/plan", SPEC, timeout=60.0))

            thread = threading.Thread(target=fire)
            thread.start()
            deadline = time.monotonic() + 5.0
            while service.admission.snapshot()["accepted"] < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.005)
            service.begin_drain()
            code, _, _ = get(server.url + "/readyz")
            assert code == 503
            code, _, envelope = post(server.url + "/plan", SPEC)
            assert code == 429 and envelope["error"] == "shed"
            assert service.drain(deadline_s=30.0)
            thread.join(timeout=30.0)
        assert len(responses) == 1
        code, _, envelope = responses[0]
        assert code == 200  # the accepted request was never dropped
        snap = service.admission.snapshot()
        assert snap["completed"] == 1 and snap["cancelled"] == 0

    def test_serve_forever_graceful_shutdown(self):
        service = PlanService(jobs=1)
        stop = threading.Event()
        outcome = {}

        def run():
            outcome["code"] = serve_forever(
                service,
                port=0,
                stop_event=stop,
                install_signals=False,
            )

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 5.0
        while service._loop is None:
            assert time.monotonic() < deadline, "service never started"
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=30.0)
        assert outcome["code"] == 0
        assert service.admission.draining


# -------------------------------------------------------------------- tracing
class TestFailureParity:
    """A point that fails the same way fails with the same words in a
    sweep's quarantine record and in a serve 500 envelope."""

    @pytest.mark.parametrize(
        "chaos",
        [WorkerChaos(hang_points=(0,)), WorkerChaos(fail_points=(0,))],
        ids=["hang", "fail"],
    )
    def test_sweep_and_serve_report_the_same_failure(self, chaos):
        policy = RetryPolicy(timeout_s=0.5, retries=0)
        swept = run_sweep(
            SweepGrid(sizes=(256,), layouts=("row-major",)),
            max_requests=2048,
            jobs=1,
            policy=policy,
            chaos=chaos,
        )
        (failure,) = swept.failures
        with PlanService(jobs=1, policy=policy, chaos=chaos) as service:
            code, envelope, _ = service.handle(
                {"n": 256, "layouts": ["row-major"], "max_requests": 2048}
            )
        assert code == 500
        served = {key: envelope[key] for key in ("error", "message", "reason")}
        assert served == {key: failure[key] for key in served}


class TestWorkerReplacement:
    """Pool workers the service replaces are counted on ``/metrics``."""

    def test_timed_out_worker_is_counted_by_reason(self):
        policy = RetryPolicy(timeout_s=0.5, retries=0)
        chaos = WorkerChaos(hang_points=(0,))
        with PlanService(jobs=1, policy=policy, chaos=chaos) as service:
            code, _, _ = service.handle(
                {"n": 256, "layouts": ["row-major"], "max_requests": 2048}
            )
            snapshot = service.live.metrics_snapshot()
        assert code == 500
        families = parse_openmetrics(render_openmetrics(snapshot))
        replaced = {
            reason: families[f"serve_workers_replaced_{reason}"]["samples"][
                f"serve_workers_replaced_{reason}_total"
            ]
            for reason in ("timeout", "worker_crash", "cancelled")
        }
        assert replaced == {"timeout": 1, "worker_crash": 0, "cancelled": 0}

    def test_warm_attempts_land_in_millisecond_buckets(self):
        with PlanService(jobs=1) as service:
            for t_in_row in (1.5, 1.6):
                code, _, _ = service.handle(
                    {
                        "n": 256,
                        "layouts": ["ddl"],
                        "max_requests": 2048,
                        "overrides": {"memory": {"timing": {"t_in_row": t_in_row}}},
                    }
                )
                assert code == 200
            snapshot = service.live.metrics_snapshot()
        samples = parse_openmetrics(render_openmetrics(snapshot))[
            "serve_attempt_s"
        ]["samples"]
        for bound in ("0.001", "0.0025", "0.005"):
            assert f'serve_attempt_s_bucket{{le="{bound}"}}' in samples
        assert samples["serve_attempt_s_count"] == 2


class TestRequestTracing:
    def test_every_response_carries_trace_id_and_traceparent(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            code, headers, envelope = post(server.url + "/plan", SPEC)
            assert code == 200
            assert len(envelope["trace_id"]) == 32
            assert headers["traceparent"].startswith(
                f"00-{envelope['trace_id']}-"
            )
            code, headers, envelope = post(server.url + "/plan", {"n": -4})
            assert code == 400
            assert envelope["trace_id"]
            assert "traceparent" in headers

    def test_shed_responses_carry_trace_id(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            service.begin_drain()
            code, headers, envelope = post(server.url + "/plan", SPEC)
            assert code == 429 and envelope["error"] == "shed"
            assert envelope["trace_id"]
            assert "traceparent" in headers
            service.drain(deadline_s=5.0)

    def test_incoming_traceparent_is_honoured(self):
        from repro.obs.tracectx import TraceContext

        remote = TraceContext.root("caller-request")
        with PlanService(jobs=1) as service:
            code, envelope, headers = service.handle(
                dict(SPEC), traceparent=remote.format_traceparent()
            )
        assert code == 200
        assert envelope["trace_id"] == remote.trace_id
        assert headers["traceparent"].startswith(f"00-{remote.trace_id}-")

    def test_malformed_traceparent_falls_back_to_fresh_trace(self):
        with PlanService(jobs=1) as service:
            code, envelope, _ = service.handle(
                dict(SPEC), traceparent="not-a-header"
            )
        assert code == 200
        assert len(envelope["trace_id"]) == 32

    def test_tracer_builds_one_tree_down_to_the_engine(self):
        from repro.obs.tracectx import RequestTracer

        tracer = RequestTracer()
        service = PlanService(jobs=1, tracer=tracer)
        with service, PlanServer(service) as server:
            code, _, envelope = post(server.url + "/plan", SPEC)
            assert code == 200
        trace_id = envelope["trace_id"]
        spans = tracer.spans_for(trace_id)
        names = {span.name for span in spans}
        assert "request" in names
        assert "attempt" in names
        # Worker spans came back via telemetry and were clock-aligned.
        assert "worker:point" in names
        assert "worker:simulate" in names
        events = tracer.to_chrome_events(trace_id)
        complete = [e for e in events if e["ph"] == "X"]
        by_span = {e["args"]["span_id"]: e for e in complete}
        orphans = [
            e for e in complete
            if e["args"]["parent_id"] is not None
            and e["args"]["parent_id"] not in by_span
        ]
        assert not orphans  # one connected tree, HTTP accept to engine
        assert json.dumps(events)  # Perfetto-loadable

    def test_coalesced_requests_link_to_the_owner_trace(self):
        from repro.obs.tracectx import RequestTracer

        tracer = RequestTracer()
        service = PlanService(jobs=4, tracer=tracer)
        responses = []
        with service, PlanServer(service) as server:
            lock = threading.Lock()

            def fire():
                response = post(server.url + "/plan", SPEC, timeout=60.0)
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        coalesced = sum(env["coalesced"] for _, _, env in responses)
        links = [
            link
            for trace_id in tracer.trace_ids()
            for link in tracer.links_for(trace_id)
        ]
        assert len(links) == coalesced
        response_ids = {env["trace_id"] for _, _, env in responses}
        for link in links:
            assert link.reason == "coalesced"
            assert link.linked_trace_id in response_ids
            assert link.context.trace_id != link.linked_trace_id

    def test_document_bytes_identical_with_tracing_on(self):
        from repro.obs.tracectx import RequestTracer

        with PlanService(jobs=2, tracer=RequestTracer()) as service:
            _, traced, _ = service.handle(dict(SPEC))
        with PlanService(jobs=2) as service:
            _, plain, _ = service.handle(dict(SPEC))
        assert json.dumps(traced["document"], sort_keys=True) == json.dumps(
            plain["document"], sort_keys=True
        )

    def test_status_and_metrics_expose_latency_histograms(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            post(server.url + "/plan", SPEC)
            _, _, body = get(server.url + "/status")
            status = json.loads(body)
            latency = status["latency"]
            assert latency["serve.request_s"]["count"] == 1
            assert latency["serve.queue_wait_s"]["count"] == 1
            assert latency["serve.attempt_s"]["count"] >= 1
            assert latency["serve.request_s"]["p99_s"] >= (
                latency["serve.request_s"]["p50_s"]
            )
            _, _, body = get(server.url + "/metrics")
            families = parse_openmetrics(body.decode("utf-8"))
            assert "serve_request_s" in families
            # Bucket tails carry the request's trace_id as exemplar.
            exemplars = families["serve_request_s"]["exemplars"]
            assert exemplars
            for entry in exemplars.values():
                assert 'trace_id="' in entry["labels"]


# ------------------------------------------------------------- flight recorder
class TestFlightRecorder:
    def test_debug_bundle_endpoint_serves_a_valid_bundle(self, tmp_path):
        from repro.obs.flight import FlightRecorder, validate_flight_bundle

        recorder = FlightRecorder(out_dir=str(tmp_path))
        service = PlanService(jobs=1, recorder=recorder)
        with service, PlanServer(service) as server:
            post(server.url + "/plan", SPEC)
            code, _, body = get(server.url + "/debug/bundle")
            assert code == 200
            bundle = validate_flight_bundle(json.loads(body))
        assert bundle["trigger"] == "on-demand"
        sections = bundle["sections"]
        assert sections["status"]["schema"] == SERVE_STATUS_SCHEMA
        assert sections["breaker"]["state"] == CLOSED
        assert "records" in sections["logs"]
        assert isinstance(sections["in_flight"], list)
        assert "memory" in sections["config"]  # the resolved SystemConfig

    def test_debug_bundle_404_without_recorder(self):
        with PlanService(jobs=1) as service, PlanServer(service) as server:
            code, _, body = get(server.url + "/debug/bundle")
        assert code == 404
        assert json.loads(body)["error"] == "no-recorder"

    def test_breaker_open_auto_dumps_an_inspectable_bundle(self, tmp_path):
        from repro.obs.flight import (
            FlightRecorder,
            load_flight_bundle,
            render_flight_bundle,
        )

        recorder = FlightRecorder(out_dir=str(tmp_path / "flight"))
        service = PlanService(
            jobs=1,
            policy=RetryPolicy(retries=0),
            breaker=CircuitBreaker(threshold=1, reset_s=30.0),
            recorder=recorder,
        )
        with service, PlanServer(service) as server:
            service.chaos = WorkerChaos(fail_points=(0,))
            code, _, envelope = post(server.url + "/plan", SPEC)
            assert code == 500
            assert service.breaker.state == OPEN
        dump = tmp_path / "flight" / "flight-breaker-open.json"
        assert dump.exists()
        bundle = load_flight_bundle(str(dump))
        assert bundle["trigger"] == "breaker-open"
        text = render_flight_bundle(bundle)
        assert "trigger:  breaker-open" in text
        # The quarantine that tripped the breaker dumped its own bundle,
        # named after the failing request's trace.
        quarantine = tmp_path / "flight" / f"flight-{envelope['trace_id']}.json"
        assert quarantine.exists()
        assert load_flight_bundle(str(quarantine))["trigger"] == "quarantine"
        assert service.live.snapshot()["counters"]["flight_dumps"] >= 2

    def test_sigterm_shutdown_dumps_a_bundle(self, tmp_path):
        from repro.obs.flight import FlightRecorder, load_flight_bundle

        recorder = FlightRecorder(out_dir=str(tmp_path))
        service = PlanService(jobs=1, recorder=recorder)
        stop = threading.Event()
        outcome = {}

        def run():
            outcome["code"] = serve_forever(
                service, port=0, stop_event=stop, install_signals=False
            )

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 5.0
        while service._loop is None:
            assert time.monotonic() < deadline, "service never started"
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=30.0)
        assert outcome["code"] == 0
        bundle = load_flight_bundle(str(tmp_path / "flight-sigterm.json"))
        assert bundle["trigger"] == "sigterm"


# ------------------------------------------------------------------ tail retry
class TestTailRetries:
    def test_exhausted_retries_exit_2_with_one_line(self, capsys):
        from repro.cli import main

        code = main(
            [
                "tail",
                "--url",
                "http://127.0.0.1:1",  # nothing listens on port 1
                "--once",
                "--retries",
                "2",
                "--retry-interval",
                "0.01",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert "after 3 attempt(s)" in captured.err

    def test_retries_bridge_a_late_server(self):
        from repro.cli import main
        from repro.obs import SweepMonitor, SweepStatus

        status = SweepStatus()
        status.start_run(2, run_id="tail-test")
        status.finish()
        with SweepMonitor(status) as monitor:
            # Already up: the retry path is a no-op and tail succeeds.
            code = main(
                [
                    "tail",
                    "--url",
                    monitor.url,
                    "--once",
                    "--retries",
                    "3",
                    "--retry-interval",
                    "0.01",
                ]
            )
        assert code == 0
