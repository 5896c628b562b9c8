"""The layout-planning service core: plain threads over the sweep machinery.

:class:`PlanService` is the transport-independent heart of ``repro
serve``.  The calling (HTTP) thread admits a request, reads the cache
and checks the breaker itself; each point it still needs is one
:class:`concurrent.futures.Future` on a thread pool whose threads run
attempts on the sweep stack's warm, killable worker processes
(:func:`repro.sweep.resilience.run_attempt`), so every robustness
property composes from pieces the offline path already trusts:

* **Admission** -- :class:`~repro.serve.admission.AdmissionController`
  bounds in-flight requests; excess load is shed *before* any work is
  scheduled (HTTP 429 + ``Retry-After``).
* **Coalescing** -- identical in-flight points share one computation,
  keyed by the *same* content address the sweep's
  :class:`~repro.sweep.cache.ResultCache` uses, so the service and
  ``repro sweep`` interoperate through a shared on-disk cache.  Within
  a request, points that price one column phase
  (:func:`~repro.sweep.runner.point_phase_key`) share one computation
  too, as in a sweep.
* **Deadlines** -- each request waits on its futures for at most its
  budget (:func:`concurrent.futures.wait`); the last waiter to leave a
  computation sets its ``threading.Event``, and :func:`run_attempt`
  kills the abandoned worker process (the pool replaces it).
* **Retries** -- transient worker failures replay through the sweep's
  retry loop, :func:`~repro.sweep.resilience.attempt_point`, so an
  exhausted point fails with the sweep's quarantine wording.
* **Circuit breaking** -- consecutive worker failures trip the
  :class:`~repro.serve.breaker.CircuitBreaker`; while OPEN the service
  answers from cache only (``"degraded": true`` envelopes, ``/readyz``
  503) and recovers through a half-open probe without a restart.
* **Draining** -- :meth:`PlanService.drain` stops admission and waits
  for in-flight requests; accepted requests are never dropped.

Result documents embedded in response envelopes are byte-identical to
``repro sweep`` output for the same resolved config (enforced by test):
the service builds the same grid, hashes the same payloads and
assembles the same :class:`~repro.sweep.results.SweepResult`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Callable, Hashable
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from concurrent.futures import CancelledError as FutureCancelled
from dataclasses import dataclass, replace
from typing import Any

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.obs.flight import FlightRecorder
from repro.obs.histogram import (
    ATTEMPT_BOUNDS,
    ENGINE_PHASE_BOUNDS,
    QUEUE_WAIT_BOUNDS,
    SERVE_LATENCY_BOUNDS,
    observe_latency,
    summarize_latencies,
)
from repro.obs.live import LiveStatus, Scraped
from repro.obs.logging import get_logger
from repro.obs.spans import Span
from repro.obs.telemetry import (
    ClockAnchor,
    TelemetryError,
    attempt_span,
    fold_worker,
)
from repro.obs.tracectx import RequestTracer, TraceContext, parse_traceparent
from repro.serialization import system_to_dict, system_with_overrides
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CLOSED, OPEN, STATE_VALUES, CircuitBreaker
from repro.serve.schemas import (
    SERVE_STATUS_SCHEMA,
    PlanRequest,
    ServeError,
    error_envelope,
    parse_plan_request,
    response_envelope,
)
from repro.sweep.cache import ResultCache
from repro.sweep.grid import SweepPoint
from repro.sweep.resilience import (
    WORKER_REPLACEMENTS,
    QuarantineReason,
    RetryPolicy,
    WorkerChaos,
    attempt_point,
    replaced_workers,
    run_attempt,
)
from repro.sweep.runner import point_phase_key

#: Default bound on concurrently admitted requests.
DEFAULT_QUEUE_LIMIT = 16

#: Default per-request wall-clock budget in seconds.
DEFAULT_DEADLINE_S = 30.0

#: Default drain budget on graceful shutdown, seconds.
DEFAULT_DRAIN_S = 10.0

#: ``Retry-After`` hint (seconds) on shed responses.
SHED_RETRY_AFTER_S = 1

#: How often the drain loop re-checks for idleness, seconds.
_DRAIN_POLL_S = 0.02

#: The service's event counters, declared once in its live registry;
#: ``/status`` lists them under ``counters`` without the prefix.
_COUNTERS = {
    "serve.deadline_misses": "requests past their deadline",
    "serve.cache_hits": "points answered from cache",
    "serve.coalesced": "point computations joined in flight",
    "serve.computed_points": "points computed by workers",
    "serve.degraded_answers": "cache-only degraded 200s",
    "serve.degraded_refusals": "degraded 503 refusals",
    "serve.compute_failures": "requests failed by workers",
    "serve.flight_dumps": "flight-recorder bundles written",
    **{
        f"serve.workers_replaced.{key}": help_text
        for key, help_text in WORKER_REPLACEMENTS.items()
    },
}


def _admitted(key: str) -> Callable[[dict[str, Any]], float]:
    return lambda status: status["admission"][key]


#: Families ``/metrics`` derives from the ``/status`` document: the
#: admission ledger and the breaker own these values.
_SCRAPED: tuple[Scraped, ...] = (
    ("serve.queue_depth", "gauge", "admitted requests in flight", _admitted("depth")),
    ("serve.queue_limit", "gauge", "admission bound", _admitted("limit")),
    ("serve.draining", "gauge", "1 while draining, else 0", _admitted("draining")),
    ("serve.breaker_state", "gauge", "0 closed, 1 half-open, 2 open",
     lambda status: STATE_VALUES[status["breaker"]["state"]]),
    ("serve.requests", "counter", "requests submitted", _admitted("submitted")),
    ("serve.accepted", "counter", "requests admitted", _admitted("accepted")),
    ("serve.shed", "counter", "requests shed with 429", _admitted("shed")),
    ("serve.completed", "counter", "admitted requests answered",
     _admitted("completed")),
    ("serve.cancelled", "counter", "admitted requests abandoned",
     _admitted("cancelled")),
    ("serve.breaker_trips", "counter", "times the breaker opened",
     lambda status: status["breaker"]["trips"]),
)


class _PointFailure(ServeError):
    """A point exhausted its attempts; carries the canonical reason."""

    def __init__(self, error: str, message: str, reason: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.detail = message
        self.reason = reason


@dataclass(eq=False)
class _SharedPoint:
    """One in-flight column-phase computation, shared by coalesced waiters."""

    #: The phase's :func:`~repro.sweep.runner.point_phase_key` (its
    #: ``_inflight`` key) and the cache key of the point computed for it.
    phase: Hashable
    key: str
    future: "Future[dict[str, Any] | None]"
    cancel_event: threading.Event
    #: Trace of the request that started the computation; coalesced
    #: joiners link their traces to it.
    trace_id: str
    waiters: int = 0


class PlanService:
    """The serving core: admission, coalescing, deadlines, degradation.

    Thread model: HTTP handler threads call :meth:`handle`, which does
    admission, the cache lookup and the breaker check on the calling
    thread, then waits on one future per missing column phase.  Each
    future runs on a thread pool of ``jobs`` threads that drive killable
    pool workers, so a point makes one hop: calling thread -> pool
    thread -> worker process.

    Args:
        config: base system configuration requests override.
        cache: shared result cache (interoperable with ``repro sweep``).
        policy: retry policy for transient worker failures.
        jobs: thread-pool width (concurrent point computations).
        queue_limit: max concurrently admitted requests (excess sheds).
        default_deadline_s: per-request budget when the request names
            none.
        drain_s: default drain budget on graceful shutdown.
        breaker: circuit breaker (injectable clock for tests).
        chaos: worker fault injection (tests; point index is always 0).
        tracer: span collector for end-to-end request traces; ``None``
            disables span retention (every response still carries a
            deterministic trace_id -- result bytes are identical either
            way, enforced by test).
        recorder: flight recorder for crash-forensics bundles; the
            service registers its providers and auto-dumps on
            quarantine and breaker-open transitions.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        cache: ResultCache | None = None,
        policy: RetryPolicy | None = None,
        jobs: int = 4,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_deadline_s: float = DEFAULT_DEADLINE_S,
        drain_s: float = DEFAULT_DRAIN_S,
        breaker: CircuitBreaker | None = None,
        chaos: WorkerChaos | None = None,
        tracer: RequestTracer | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"serve jobs must be >= 1, got {jobs}")
        if default_deadline_s <= 0:
            raise ConfigError(
                f"default deadline must be positive, got {default_deadline_s}"
            )
        self.config = config if config is not None else SystemConfig()
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy(retries=1)
        self.jobs = int(jobs)
        self.default_deadline_s = float(default_deadline_s)
        self.drain_s = float(drain_s)
        self.admission = AdmissionController(queue_limit)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.chaos = chaos
        self._pool: ThreadPoolExecutor | None = None
        #: column phase -> its in-flight shared computation.
        self._inflight: dict[Hashable, _SharedPoint] = {}
        #: Shares that have left ``_inflight`` so far (see :meth:`_acquire`).
        self._settled = 0
        self._seq = itertools.count(1)
        #: Counters, latency histograms (end-to-end, queue-wait, attempt,
        #: engine phase) and failure reasons; its lock also guards
        #: ``_active``, ``_inflight`` and ``_settled``.
        self.live = LiveStatus(
            self._status_document, counters=_COUNTERS, scraped=_SCRAPED
        )
        self._closed = False
        self.tracer = tracer
        self.recorder = recorder
        #: Clock anchor pairing wall and perf time, used to shift worker
        #: span timestamps into this process's perf domain.
        self._anchor = ClockAnchor.now()
        #: request_id -> in-flight descriptor (the flight recorder's
        #: in-flight request table).
        self._active: dict[str, dict[str, Any]] = {}
        if self.breaker.on_transition is None:
            self.breaker.on_transition = self._on_breaker_transition
        if recorder is not None:
            # Serve's flight sections on top of the shared three.
            self.live.attach(recorder)
            recorder.register("breaker", self.breaker.snapshot)
            recorder.register("config", lambda: system_to_dict(self.config))
            recorder.register("in_flight", self.inflight_snapshot)
            recorder.register(
                "traces",
                lambda: self.tracer.snapshot() if self.tracer is not None else [],
            )

    # ------------------------------------------------------------- forensics

    def inflight_snapshot(self) -> list[dict[str, Any]]:
        """The in-flight request table (flight-bundle section)."""
        now = time.perf_counter()
        with self.live.lock:
            entries = [dict(entry) for entry in self._active.values()]
        for entry in entries:
            entry["age_s"] = max(0.0, now - entry.pop("started_s"))
        return entries

    def dump_flight(self, trigger: str, trace_id: str | None = None) -> str | None:
        """Write a flight bundle; forensics failures never propagate."""
        if self.recorder is None:
            return None
        try:
            path = self.recorder.dump(trigger, trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 - never fail the request path
            get_logger("repro.serve").error(
                "flight dump failed", trigger=trigger, error=str(exc)
            )
            return None
        self.live.count("serve.flight_dumps")
        context = {"trace_id": trace_id} if trace_id else {}
        get_logger("repro.serve", **context).warning(
            "flight bundle dumped", event="FLIGHT_DUMP", trigger=trigger, path=path
        )
        return path

    def _on_breaker_transition(
        self, old_state: str, new_state: str, snapshot: dict[str, Any]
    ) -> None:
        """Breaker observer (runs outside the breaker lock): log every
        transition, dump a flight bundle when the breaker opens."""
        get_logger("repro.serve").warning(
            "breaker transition",
            event="BREAKER_TRANSITION",
            old=old_state,
            new=new_state,
            consecutive_failures=snapshot["consecutive_failures"],
            trips=snapshot["trips"],
        )
        if new_state == OPEN:
            self.dump_flight("breaker-open")

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "PlanService":
        """Start the thread pool that drives point computations (idempotent)."""
        if self._pool is not None:
            return self
        self._pool = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve-worker"
        )
        get_logger("repro.serve").info(
            "service started", jobs=self.jobs, queue_limit=self.admission.limit
        )
        return self

    def begin_drain(self) -> None:
        """Stop admitting new requests (they shed with 429)."""
        self.admission.begin_drain()
        get_logger("repro.serve").info("drain started")

    def drain(self, deadline_s: float | None = None) -> bool:
        """Stop admission and wait for in-flight requests to finish.

        Returns ``True`` when the service went idle within the budget;
        ``False`` means requests were still running when it expired
        (close() will cancel them).
        """
        self.begin_drain()
        budget = self.drain_s if deadline_s is None else deadline_s
        deadline = time.monotonic() + budget
        while not self.admission.idle():
            if time.monotonic() >= deadline:
                get_logger("repro.serve").warning(
                    "drain deadline expired",
                    in_flight=self.admission.snapshot()["depth"],
                )
                return False
            time.sleep(_DRAIN_POLL_S)
        get_logger("repro.serve").info("drain complete")
        return True

    def close(self) -> None:
        """Tear down: cancel leftovers and join the pool threads.

        Idempotent.  Callers wanting a graceful exit run :meth:`drain`
        first; anything still in flight here is cancelled (its waiters
        receive a shutdown error, their pool workers are killed).
        """
        if self._closed:
            return
        with self.live.lock:
            self._closed = True
            abandoned = list(self._inflight.values())
            self._inflight.clear()
        for shared in abandoned:
            shared.cancel_event.set()
            shared.future.cancel()
        if self._pool is not None:
            # Running computations see their cancel event within one
            # poll of the worker pipe and return.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        get_logger("repro.serve").info("service closed")

    def __enter__(self) -> "PlanService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- public API
    def ready(self) -> bool:
        """``/readyz`` truth: started, admitting and breaker closed."""
        return (
            self._pool is not None
            and not self._closed
            and not self.admission.draining
            and self.breaker.state == CLOSED
        )

    def _trace_root(
        self, request_id: str, traceparent: str | None
    ) -> TraceContext:
        """The root trace context of one request.

        Without an incoming header the root is derived from the request
        id alone (deterministic); with one, the request joins the
        remote trace as a child span.
        """
        if traceparent:
            try:
                remote = parse_traceparent(traceparent)
            except Exception:  # noqa: BLE001 - bad headers never fail a request
                return TraceContext.root(request_id)
            return remote.child(f"request:{request_id}")
        return TraceContext.root(request_id)

    def handle(
        self, data: Any, traceparent: str | None = None
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Answer one decoded request body; ``(code, payload, headers)``.

        Called from transport threads.  Validation failures are 400 and
        never enter admission; shed requests are 429 with
        ``Retry-After`` and never schedule work.  Every response --
        including errors -- carries a ``trace_id``; ``traceparent`` (the
        W3C header, when the caller sent one) makes the request a child
        of the caller's trace.
        """
        if self._pool is None or self._closed:
            raise ServeError("service is not running (call start())")
        try:
            request = parse_plan_request(data)
            payloads = request.point_payloads(self.config)
        except ConfigError as exc:
            ctx = self._trace_root(f"bad-request-{next(self._seq)}", traceparent)
            return (
                400,
                error_envelope("bad-request", str(exc), trace_id=ctx.trace_id),
                {"traceparent": ctx.format_traceparent()},
            )
        request_id = f"{request.digest()[:8]}-{next(self._seq)}"
        ctx = self._trace_root(request_id, traceparent)
        trace_headers = {"traceparent": ctx.format_traceparent()}
        if not self.admission.try_admit():
            why = "draining" if self.admission.draining else "queue full"
            return (
                429,
                error_envelope(
                    "shed",
                    f"request shed ({why}); retry after a backoff",
                    request_id=request_id,
                    trace_id=ctx.trace_id,
                ),
                {"Retry-After": str(SHED_RETRY_AFTER_S), **trace_headers},
            )
        disposition = "cancelled"
        admitted_s = time.perf_counter()
        with self.live.lock:
            self._active[request_id] = {
                "request_id": request_id,
                "trace_id": ctx.trace_id,
                "n": request.n,
                "points": len(payloads),
                "started_s": admitted_s,
            }
            settled = self._settled
        code = 0
        try:
            code, payload, headers, disposition = self._answer(
                request, request_id, payloads, ctx, admitted_s, settled
            )
            return code, payload, {**headers, **trace_headers}
        except FutureCancelled:
            code = 503
            envelope = error_envelope(
                "shutdown", "service shut down before the request completed",
                request_id=request_id, reason=QuarantineReason.CANCELLED.value,
                trace_id=ctx.trace_id,
            )
            return 503, envelope, trace_headers
        finally:
            duration_s = time.perf_counter() - admitted_s
            with self.live.lock:
                self._active.pop(request_id, None)
                observe_latency(
                    self.live.registry,
                    "serve.request_s",
                    duration_s,
                    SERVE_LATENCY_BOUNDS,
                    exemplar=ctx.trace_id,
                    help="end-to-end POST /plan latency (seconds)",
                )
            if self.tracer is not None:
                self.tracer.record(
                    ctx, "request", start_s=admitted_s, duration_s=duration_s,
                    request_id=request_id, code=code,
                )
            if disposition == "completed":
                self.admission.complete()
            else:
                self.admission.cancel()

    # ------------------------------------------------------------ request core
    def _answer(
        self,
        request: PlanRequest,
        request_id: str,
        payloads: list[tuple[str, dict[str, Any]]],
        ctx: TraceContext,
        admitted_s: float,
        settled: int,
    ) -> tuple[int, dict[str, Any], dict[str, str], str]:
        """One admitted request on the calling thread: cache, breaker,
        compute.  Raises :class:`~concurrent.futures.CancelledError`
        when the service closes under it."""
        log = get_logger("repro.serve", request_id=request_id, trace_id=ctx.trace_id)

        def refuse(
            code: int, error: str, message: str, reason: str | None, **headers: str
        ) -> tuple[int, dict[str, Any], dict[str, str], str]:
            envelope = error_envelope(
                error, message, request_id=request_id, reason=reason,
                trace_id=ctx.trace_id,
            )
            return code, envelope, headers, "cancelled" if code == 504 else "completed"

        deadline_s = request.deadline_s or self.default_deadline_s
        results: dict[int, dict[str, Any]] = {}
        missing: list[tuple[int, str, dict[str, Any]]] = []
        for index, (key, payload) in enumerate(payloads):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                results[index] = hit
            else:
                missing.append((index, key, payload))
        cached = len(results)
        if cached:
            self.live.count("serve.cache_hits", cached)
        log.info(
            "request admitted", event="REQUEST_START", n=request.n,
            points=len(payloads), cached=cached, deadline_s=deadline_s,
        )

        degraded = False
        coalesced = 0
        if missing:
            if not self.breaker.allow():
                self.live.count("serve.degraded_refusals")
                log.warning(
                    "degraded refusal", missing=len(missing), breaker=self.breaker.state
                )
                return refuse(
                    503,
                    "degraded",
                    "worker pool unavailable (circuit open) and "
                    f"{len(missing)} point(s) not cached",
                    self._last_failure_reason(),
                    **{"Retry-After": str(max(1, int(self.breaker.retry_after_s())))},
                )
            phases = self._phases(request, missing)
            # The first computation this request starts is the first a
            # pool thread picks up (FIFO): it observes the queue wait.
            first_start: float | None = admitted_s
            shares: list[_SharedPoint] = []
            try:
                for phase, members in phases.items():
                    shared, joined = self._acquire(
                        phase, members, ctx, settled, first_start
                    )
                    shares.append(shared)
                    if not joined:
                        first_start = None
                        continue
                    coalesced += len(members)
                    if shared.trace_id != ctx.trace_id:
                        if self.tracer is not None:
                            self.tracer.link(ctx, shared.trace_id, "coalesced")
                        log.info(
                            "coalesce link",
                            event="COALESCE_LINK",
                            linked_trace_id=shared.trace_id,
                            key=shared.key[:12],
                        )
                if coalesced:
                    self.live.count("serve.coalesced", coalesced)
                done, late = wait(
                    [shared.future for shared in shares],
                    timeout=deadline_s,
                    return_when=FIRST_EXCEPTION,
                )
                raised = [f.exception() for f in done if not f.cancelled()]
                exc = next((error for error in raised if error is not None), None)
                if isinstance(exc, _PointFailure):
                    self.live.count("serve.compute_failures")
                    log.error("compute failed", error=exc.error, reason=exc.reason)
                    self.dump_flight("quarantine", trace_id=ctx.trace_id)
                    return refuse(500, exc.error, exc.detail, exc.reason)
                if exc is not None:
                    raise exc
                if late or any(f.cancelled() or f.result() is None for f in done):
                    # Past the deadline, or cancelled under us: only
                    # close() cancels a computation that has waiters.
                    self.live.count("serve.deadline_misses")
                    log.warning("deadline missed", deadline_s=deadline_s)
                    if self._closed:
                        raise FutureCancelled()
                    return refuse(
                        504,
                        "deadline-exceeded",
                        f"request exceeded its {deadline_s}s deadline; "
                        "abandoned work was cancelled",
                        QuarantineReason.TIMEOUT.value,
                    )
                # Every member of a phase takes the computed result under
                # its own labels and keeps its own cache entry, before the
                # share is released (see _acquire).
                for shared, members in zip(shares, phases.values()):
                    result = shared.future.result()
                    for index, key, payload in members:
                        point = payload["point"]
                        results[index] = own = dict(
                            result, layout=point["layout"], config=point["config_label"]
                        )
                        if self.cache is not None and key != shared.key:
                            self.cache.put(key, payload, own)
            finally:
                for shared in shares:
                    self._release(shared)
            self.live.count("serve.computed_points", len(missing))
        elif self.breaker.state != CLOSED:
            # Every point answered from cache while the pool is sick:
            # still a correct document, flagged so callers know.
            degraded = True
            self.live.count("serve.degraded_answers")

        ordered = [results[index] for index in range(len(payloads))]
        envelope = response_envelope(
            request, request_id, ordered, cached=cached, computed=len(missing),
            coalesced=coalesced, degraded=degraded, trace_id=ctx.trace_id,
        )
        log.info(
            "request served", best_layout=envelope["best"]["layout"],
            cached=cached, computed=len(missing), degraded=degraded,
        )
        return 200, envelope, {}, "completed"

    def _phases(
        self, request: PlanRequest, missing: list[tuple[int, str, dict[str, Any]]]
    ) -> dict[Hashable, list[tuple[int, str, dict[str, Any]]]]:
        """``missing`` grouped by column phase, in request order.  A point
        whose layout does not resolve is its own group, keyed by its
        cache key."""
        config = system_with_overrides(self.config, dict(request.overrides))
        phases: dict[Hashable, list[tuple[int, str, dict[str, Any]]]] = {}
        for entry in missing:
            point = SweepPoint(**entry[2]["point"])
            phase = point_phase_key(config, point, request.max_requests)
            phases.setdefault(entry[1] if phase is None else phase, []).append(entry)
        return phases

    # ------------------------------------------------------------- coalescing
    def _acquire(
        self,
        phase: Hashable,
        members: list[tuple[int, str, dict[str, Any]]],
        ctx: TraceContext,
        settled: int,
        admitted_s: float | None,
    ) -> tuple[_SharedPoint, bool]:
        """Join (or start) the in-flight computation of ``phase``; the
        flag is ``True`` for a join.  A started one computes the first
        member and, given ``admitted_s``, observes the request's queue
        wait.

        A share leaves ``_inflight`` only when its last waiter releases
        it, after writing its members' cache entries, and ``settled``
        is :attr:`_settled` as read before the request's cache lookup.
        If a share has left since, the entries the lookup missed may be
        cached now, so they are read again before anything starts; a
        hit counts as a join.
        """
        with self.live.lock:
            if self._closed or self._pool is None:
                raise FutureCancelled()
            shared = self._inflight.get(phase)
            if shared is None and settled != self._settled and self.cache is not None:
                for _, key, _ in members:
                    hit = self.cache.get(key)
                    if hit is not None:
                        done: Future[dict[str, Any] | None] = Future()
                        done.set_result(hit)
                        event = threading.Event()
                        return _SharedPoint(phase, key, done, event, ctx.trace_id), True
            if shared is None:
                _, key, payload = members[0]
                cancel_event = threading.Event()
                future = self._pool.submit(
                    self._compute_point, key, payload, cancel_event,
                    ctx.child(f"point:{key[:12]}"), admitted_s,
                )
                shared = _SharedPoint(phase, key, future, cancel_event, ctx.trace_id)
                self._inflight[phase] = shared
            shared.waiters += 1
            return shared, shared.waiters > 1

    def _release(self, shared: _SharedPoint) -> None:
        """Drop one waiter; the last one retires the share and cancels
        the computation if it is still running."""
        with self.live.lock:
            shared.waiters -= 1
            if shared.waiters > 0:
                return
            if self._inflight.get(shared.phase) is shared:
                del self._inflight[shared.phase]
                self._settled += 1
            if not shared.future.done():
                shared.cancel_event.set()
                shared.future.cancel()

    # ----------------------------------------------------------- worker bridge
    def _compute_point(
        self,
        key: str,
        payload: dict[str, Any],
        cancel_event: threading.Event,
        ctx: TraceContext,
        admitted_s: float | None = None,
    ) -> dict[str, Any] | None:
        """Pool-thread body: one point through the sweep's retry loop.

        Runs :func:`~repro.sweep.resilience.attempt_point` over killable
        pool-worker attempts.  Returns the point result, ``None`` when
        cancelled, or raises :class:`_PointFailure` after the policy is
        exhausted.  Breaker outcomes are recorded here, per point.  With
        a tracer attached, each attempt ships its trace context into the
        pool worker and folds the returned telemetry spans back into
        the request tree; the task payload gains them *after* the cache
        key is fixed, so results and keys are byte-identical either way.
        ``admitted_s`` is set for the first computation a request starts:
        its pickup here ends the request's ``serve.queue_wait_s``.
        """
        if admitted_s is not None:
            self.live.observe(
                "serve.queue_wait_s",
                max(0.0, time.perf_counter() - admitted_s),
                QUEUE_WAIT_BOUNDS,
                exemplar=ctx.trace_id,
                help="admission-to-pool-thread pickup wait (seconds)",
            )
        task = dict(payload, index=0)
        point_start_s = time.perf_counter()
        try:
            settled = attempt_point(
                task, self.policy, run_attempt,
                context=ctx if self.tracer is not None else None,
                chaos=self.chaos, cancel_event=cancel_event,
            )
            self._record_attempts(settled["attempts"], ctx)
            if settled["status"] == "cancelled":
                return None
            if settled["status"] == "ok":
                outcome = settled["outcome"]
                self._merge_worker_trace(outcome.get("telemetry"))
                self.breaker.record_success()
                if self.cache is not None:
                    self.cache.put(key, payload, outcome["result"])
                return outcome["result"]
            failure = settled["failure"]
            self.breaker.record_failure()
            self.live.fail(failure["reason"])
            raise _PointFailure(failure["error"], failure["message"], failure["reason"])
        finally:
            if self.tracer is not None:
                self.tracer.record(
                    ctx, "point", start_s=point_start_s,
                    duration_s=time.perf_counter() - point_start_s, key=key[:12],
                )

    def _record_attempts(
        self, attempts: list[dict[str, Any]], ctx: TraceContext
    ) -> None:
        """``serve.attempt_s``, worker replacements and the tracer's
        ``attempt`` spans of a point."""
        replaced = replaced_workers(attempts)
        with self.live.lock:
            for key, count in replaced.items():
                self.live.registry.counter(f"serve.workers_replaced.{key}").inc(count)
            for record in attempts:
                observe_latency(
                    self.live.registry,
                    "serve.attempt_s",
                    record["duration_s"],
                    ATTEMPT_BOUNDS,
                    exemplar=ctx.trace_id,
                    help="one killable worker attempt (seconds)",
                )
        if self.tracer is not None:
            for record in attempts:
                self._trace(attempt_span(record))

    def _merge_worker_trace(self, payload: dict[str, Any] | None) -> None:
        """Fold a pool worker's telemetry into the request trace.

        :func:`~repro.obs.telemetry.fold_worker` shifts the worker's
        spans into this process's perf domain and sends its log records
        to the global pipeline, as a sweep does.  Telemetry defects are
        swallowed -- tracing must never fail a successful compute.
        """
        if self.tracer is None or not payload:
            return
        try:
            folded = fold_worker(payload, self._anchor)
        except TelemetryError:
            return
        for span in folded["spans"]:
            self._trace(replace(span, name=f"worker:{span.name}"))
            if span.name == "simulate":
                self.live.observe(
                    "serve.engine_phase_s",
                    max(0.0, span.duration_s),
                    ENGINE_PHASE_BOUNDS,
                    exemplar=folded["trace_id"],
                    help="engine simulation phase inside a worker (seconds)",
                )

    def _trace(self, span: Span) -> None:
        """Record one finished span with the request tracer."""
        assert self.tracer is not None and span.context is not None
        self.tracer.record(
            span.context,
            span.name,
            start_s=span.start_s,
            duration_s=max(0.0, span.duration_s),
            **span.meta,
        )

    # ----------------------------------------------------------------- metrics
    def _last_failure_reason(self) -> str | None:
        """The most common recorded failure reason (degraded envelopes)."""
        with self.live.lock:
            reasons = self.live.failure_reasons
            return min(reasons, key=lambda r: (-reasons[r], r), default=None)

    def _status_document(
        self, metrics: dict[str, dict], failure_reasons: dict[str, int]
    ) -> dict[str, Any]:
        """The ``/status`` document (called with the live lock held)."""
        admission = self.admission.snapshot()
        return {
            "schema": SERVE_STATUS_SCHEMA,
            "state": "draining" if admission["draining"] else "serving",
            "ready": self.ready(),
            "admission": admission,
            "breaker": self.breaker.snapshot(),
            "counters": {
                name.removeprefix("serve."): int(metrics[name]["value"])
                for name in _COUNTERS
            },
            "failure_reasons": failure_reasons,
            "latency": summarize_latencies(metrics),
        }
