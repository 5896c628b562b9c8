"""Resilient sweep execution: timeouts, retries, quarantine.

A long design-space sweep dies in practice for boring reasons -- one
pathological point OOMs a worker, a shared machine stalls, a speculative
code change makes one configuration hang.  This module supplies the
pieces :func:`repro.sweep.runner.run_sweep` composes so a single bad
point can never take the grid down:

* :class:`RetryPolicy` -- per-attempt timeout plus bounded retries with
  exponential backoff and *deterministic* jitter (derived from the point
  index and attempt number, never the wall clock, so reruns behave
  identically);
* :class:`WorkerChaos` -- test-only fault injection for the executor
  itself: make chosen points crash or hang inside the worker, so the
  recovery machinery is exercised by the real failure path;
* :class:`WorkerPool` and :func:`run_attempt` -- one attempt of one
  point on a warm worker process of a process-wide pool (a hung worker
  is killed and replaced, not waited on);
* :func:`attempt_point` -- the one retry loop: numbered attempts under a
  policy, with backoff, cancellation and a quarantine record at the end,
  shared by the sweep runner and the serving layer.

Failures are quarantined as plain JSON records (:func:`failure_record`)
in the result document's ``failures`` section -- the healthy points'
payload stays deterministic and byte-identical to a failure-free run.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import multiprocessing
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError, SweepExecutionError
from repro.obs.logging import get_logger

if TYPE_CHECKING:
    from repro.obs.tracectx import TraceContext


# ----------------------------------------------------------- failure reasons
class QuarantineReason(str, enum.Enum):
    """Why an attempt (or a whole point) was given up on.

    The canonical vocabulary every failure surface shares: per-attempt
    statuses from :func:`run_attempt`, quarantine records in sweep
    result documents, the monitor's ``/status`` breakdown, and the
    serving layer's degraded-mode envelopes.  String-valued so the
    members serialize as themselves in JSON documents.
    """

    #: The attempt exceeded its wall-clock budget and was killed.
    TIMEOUT = "timeout"
    #: The worker process died without reporting (hard crash).
    WORKER_CRASH = "worker-crash"
    #: The worker raised an exception (including injected fault chaos).
    EXCEPTION = "exception"
    #: The attempt was abandoned by its caller (deadline/shutdown).
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ``run_attempt`` status string -> canonical reason.
_STATUS_REASONS = {
    "timeout": QuarantineReason.TIMEOUT,
    "crashed": QuarantineReason.WORKER_CRASH,
    "error": QuarantineReason.EXCEPTION,
    "cancelled": QuarantineReason.CANCELLED,
}


def reason_for_status(status: str) -> QuarantineReason:
    """Map a non-ok :func:`run_attempt` status to its canonical reason."""
    try:
        return _STATUS_REASONS[status]
    except KeyError:
        raise ConfigError(
            f"unknown attempt status {status!r} "
            f"(known: {sorted(_STATUS_REASONS)})"
        ) from None


#: Metric-name key -> help text of each reason the pool replaces a
#: worker for (the ``workers_replaced.<key>`` counters of serve and sweep).
WORKER_REPLACEMENTS = {
    "timeout": "pool workers killed when their attempt timed out",
    "worker_crash": "pool workers that died during an attempt",
    "cancelled": "pool workers killed when their attempt was cancelled",
}


def replaced_workers(attempts: list[dict[str, Any]]) -> collections.Counter[str]:
    """Workers the pool replaced over ``attempts`` (records of
    :func:`attempt_point`), keyed like :data:`WORKER_REPLACEMENTS`: every
    attempt that timed out, crashed or was cancelled cost its worker."""
    return collections.Counter(
        reason_for_status(record["status"]).value.replace("-", "_")
        for record in attempts
        if record["status"] in ("timeout", "crashed", "cancelled")
    )


# ---------------------------------------------------------------- retry policy
def backoff_jitter(index: int, attempt: int) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` for one (point, attempt).

    Hash-derived rather than drawn from a clock-seeded RNG, so two runs
    of the same sweep back off identically -- resilience never makes a
    run less reproducible.
    """
    digest = hashlib.sha256(f"{index}:{attempt}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor tries before quarantining a point.

    Attributes:
        timeout_s: wall-clock budget per attempt (``None`` = unbounded);
            a timed-out worker process is terminated, so hangs cannot
            wedge the sweep.
        retries: extra attempts after the first failure.
        backoff_s: base delay before the first retry.
        backoff_multiplier: exponential growth factor per retry.
        max_backoff_s: cap on any single delay.
    """

    timeout_s: float | None = None
    retries: int = 0
    backoff_s: float = 0.1
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(
                f"retry policy: timeout_s must be positive, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise ConfigError(
                f"retry policy: retries must be >= 0, got {self.retries}"
            )
        if self.backoff_s < 0:
            raise ConfigError(
                f"retry policy: backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"retry policy: backoff_multiplier must be >= 1, "
                f"got {self.backoff_multiplier}"
            )
        if self.max_backoff_s < self.backoff_s:
            raise ConfigError(
                f"retry policy: max_backoff_s ({self.max_backoff_s}) must be "
                f">= backoff_s ({self.backoff_s})"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts per point (first try plus retries)."""
        return 1 + self.retries

    def backoff_for(self, index: int, attempt: int) -> float:
        """Delay in seconds after failed attempt ``attempt`` (1-based).

        Exponential in the attempt number, capped, with half-range
        deterministic jitter: ``base * (0.5 + 0.5 * jitter)``.
        """
        base = min(
            self.backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        return base * (0.5 + 0.5 * backoff_jitter(index, attempt))


# ---------------------------------------------------------------- worker chaos
@dataclass(frozen=True)
class WorkerChaos:
    """Executor-level fault injection (testing/CI only).

    Makes selected grid points misbehave *inside the worker*, so retry,
    timeout and quarantine handling are exercised through the identical
    code path a real failure takes.  Chaos parameters are excluded from
    cache keys -- a chaos run never poisons the result cache.

    Attributes:
        fail_points: grid indices whose attempts raise.
        hang_points: grid indices whose attempts sleep for ``hang_s``
            (long enough to trip any sane per-attempt timeout).
        fail_attempts: number of attempts that fail before the point
            recovers; ``None`` means every attempt fails.
        hang_s: how long a hanging attempt sleeps.
    """

    fail_points: tuple[int, ...] = ()
    hang_points: tuple[int, ...] = ()
    fail_attempts: int | None = None
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fail_points", tuple(int(i) for i in self.fail_points)
        )
        object.__setattr__(
            self, "hang_points", tuple(int(i) for i in self.hang_points)
        )
        if self.fail_attempts is not None and self.fail_attempts < 1:
            raise ConfigError(
                f"chaos: fail_attempts must be >= 1, got {self.fail_attempts}"
            )
        if self.hang_s <= 0:
            raise ConfigError(f"chaos: hang_s must be positive, got {self.hang_s}")

    def as_dict(self) -> dict[str, Any]:
        """JSON-native form shipped inside worker task payloads."""
        return {
            "fail_points": list(self.fail_points),
            "hang_points": list(self.hang_points),
            "fail_attempts": self.fail_attempts,
            "hang_s": self.hang_s,
        }


def apply_chaos(chaos: dict[str, Any], index: int, attempt: int) -> None:
    """Worker-side chaos hook: hang and/or raise for the configured points."""
    import time

    if index in chaos.get("hang_points", ()):
        time.sleep(chaos.get("hang_s", 30.0))
    if index in chaos.get("fail_points", ()):
        fail_attempts = chaos.get("fail_attempts")
        if fail_attempts is None or attempt <= fail_attempts:
            raise SweepExecutionError(
                f"chaos: injected failure at point {index} (attempt {attempt})"
            )


# ----------------------------------------------------------------- worker pool
#: Workers fork from a forkserver that imported the sweep stack once, never
#: from the calling process: the caller's threads (serve's HTTP and pool
#: threads, a sweep's attempt threads) cannot leave a lock held in a
#: worker, and no worker pays an interpreter + numpy start.
_FORKSERVER = multiprocessing.get_context("forkserver")

#: Modules the forkserver imports before it forks any worker.
_PRELOAD = ["repro.sweep.runner"]

#: How often a cancellable attempt re-checks its cancel event (seconds).
CANCEL_POLL_S = 0.05


def _worker_main(conn: Any) -> None:
    """Worker process body: run the tasks sent on ``conn`` until EOF.

    A forkserver worker inherits nothing from the pool's process, so each
    task carries what it needs: its trace context and ``run_id``, read by
    :func:`~repro.sweep.runner._execute_task`.  Records the task logs
    through :meth:`~repro.obs.telemetry.WorkerTelemetry.logger` travel
    home in its telemetry payload, and the caller emits them at its own
    level; the worker's process-global pipeline reaches no caller sink.
    """
    import signal

    from repro.sweep.runner import _execute_task

    # Ctrl-C belongs to the pool's process, which kills its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            status = {"status": "ok", "outcome": _execute_task(task)}
        except Exception as exc:  # noqa: BLE001 - quarantine, never abort
            status = {
                "status": "error",
                "error": type(exc).__name__,
                "message": str(exc),
            }
        conn.send(status)


class _Worker:
    """One warm worker process and the pool's end of its pipe."""

    def __init__(self) -> None:
        self.conn, child_conn = _FORKSERVER.Pipe()
        self.process = _FORKSERVER.Process(
            target=_worker_main, args=(child_conn,), name="repro-worker", daemon=True
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        """Stop the worker at once and reap it."""
        self.conn.close()
        self.process.kill()
        self.process.join()


def _wait_for_report(
    conn: Any, timeout_s: float | None, cancel_event: Any | None
) -> str:
    """Poll ``conn``: ``"ready"``, ``"timeout"`` or ``"cancelled"``."""
    import time

    if cancel_event is None:
        return "ready" if conn.poll(timeout_s) else "timeout"
    deadline = (
        None
        if timeout_s is None
        else time.perf_counter() + timeout_s  # repro: ignore[DET001]
    )
    while True:
        if cancel_event.is_set():
            return "cancelled"
        slice_s = CANCEL_POLL_S
        if deadline is not None:
            remaining = deadline - time.perf_counter()  # repro: ignore[DET001]
            if remaining <= 0:
                return "timeout"
            slice_s = min(slice_s, remaining)
        if conn.poll(slice_s):
            return "ready"


def _exchange(
    worker: _Worker,
    task: dict[str, Any],
    timeout_s: float | None,
    cancel_event: Any | None,
) -> dict[str, Any]:
    """Send ``task`` to ``worker`` and take its report (or say why not)."""
    try:
        worker.conn.send(task)
    except OSError:
        waited = "crashed"
    else:
        waited = _wait_for_report(worker.conn, timeout_s, cancel_event)
    if waited == "ready":
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            waited = "crashed"
    if waited == "crashed":
        worker.kill()  # reaps it: a dead process keeps its exit code
        return {"status": "crashed", "exitcode": worker.process.exitcode}
    return {"status": waited}


class WorkerPool:
    """Warm, killable worker processes that run point attempts.

    :meth:`run` checks out an idle worker, or starts one when none is
    idle, sends it the task and waits for its report under the attempt's
    timeout and cancel event.  A worker that reports goes back to the
    idle list.  One that times out, is cancelled or dies is killed and
    dropped, and a later check-out starts its replacement (callers count
    them from the attempt statuses, :func:`replaced_workers`).  Nothing
    starts before the first attempt, and the pool grows to the number of
    attempts its callers run at once (each sweep or serve thread runs
    one attempt at a time).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._closed = False
        _FORKSERVER.set_forkserver_preload(_PRELOAD)

    def _checkout(self) -> _Worker:
        """An idle live worker, or a freshly started one."""
        dead: list[_Worker] = []
        worker: _Worker | None = None
        with self._lock:
            if self._closed:
                raise SweepExecutionError("worker pool is closed")
            while self._idle and worker is None:
                candidate = self._idle.pop()
                if candidate.process.is_alive():
                    worker = candidate
                else:
                    dead.append(candidate)
        for candidate in dead:
            candidate.kill()
            get_logger("repro.sweep.resilience").warning(
                "idle worker died", exitcode=candidate.process.exitcode
            )
        return worker if worker is not None else _Worker()

    def _checkin(self, worker: _Worker, status: dict[str, Any] | None) -> None:
        """Keep a worker that reported; kill any other."""
        if status is not None and status["status"] in ("ok", "error"):
            with self._lock:
                if not self._closed:
                    self._idle.append(worker)
                    return
        worker.kill()

    def run(
        self,
        task: dict[str, Any],
        timeout_s: float | None,
        cancel_event: Any | None = None,
    ) -> dict[str, Any]:
        """Run one point attempt on a warm worker; see :func:`run_attempt`."""
        # Attempt duration is telemetry about THIS execution (it feeds the
        # run trace's retry annotations), never part of the deterministic
        # result payload -- same carve-out as the runner's meta["wall_s"].
        import time

        worker = self._checkout()
        status: dict[str, Any] | None = None
        # Timed from the send, like the timeout: starting a worker is not
        # part of the attempt.
        started = time.perf_counter()  # repro: ignore[DET001]
        try:
            status = _exchange(worker, task, timeout_s, cancel_event)
        finally:
            self._checkin(worker, status)
        status["duration_s"] = time.perf_counter() - started  # repro: ignore[DET001]
        log = get_logger(
            "repro.sweep.resilience",
            point_id=task["index"],
            attempt=task.get("attempt", 1),
        )
        if status["status"] == "timeout":
            log.warning("attempt timed out", timeout_s=timeout_s)
        elif status["status"] == "cancelled":
            log.info("attempt cancelled")
        elif status["status"] == "crashed":
            log.warning("worker crashed", exitcode=status["exitcode"])
        elif status["status"] == "error":
            log.warning(
                "attempt raised",
                error=status.get("error"),
                detail=status.get("message"),
            )
        if status["status"] != "ok":
            status["reason"] = reason_for_status(status["status"]).value
        return status

    def close(self) -> None:
        """Kill the idle workers; busy ones are killed as they report."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.kill()


_SHARED_POOL: WorkerPool | None = None
_SHARED_LOCK = threading.Lock()


def shared_pool() -> WorkerPool:
    """The process-wide pool :func:`run_attempt` checks workers out of."""
    global _SHARED_POOL
    with _SHARED_LOCK:
        if _SHARED_POOL is None:
            _SHARED_POOL = WorkerPool()
        return _SHARED_POOL


def run_attempt(
    task: dict[str, Any],
    timeout_s: float | None,
    cancel_event: Any | None = None,
) -> dict[str, Any]:
    """Run one point attempt on a warm worker of :func:`shared_pool`.

    Returns the worker's status dict: ``{"status": "ok", "outcome": ...}``
    on success, ``{"status": "error", ...}`` when the worker raised,
    ``{"status": "timeout"}`` when the attempt exceeded ``timeout_s``
    (the worker is killed and later replaced), ``{"status": "crashed"}``
    when the worker died without reporting (hard crash),
    ``{"status": "cancelled"}`` when ``cancel_event`` was set while the
    attempt ran (the worker is killed -- abandoned work never lingers).
    Every non-ok status carries its canonical ``reason``
    (:class:`QuarantineReason`), and every status the attempt's measured
    ``duration_s``.

    ``cancel_event`` is any object with an ``is_set()`` method (a
    ``threading.Event`` in practice); when given, the wait polls in
    :data:`CANCEL_POLL_S` slices so cancellation lands promptly even
    under an unbounded timeout.  This is the cancellation hook the
    serving layer uses to propagate per-request deadlines to workers.
    The timeout and ``duration_s`` count from the moment the task is
    sent: starting the forkserver or a replacement worker is not charged
    to the attempt.
    """
    return shared_pool().run(task, timeout_s, cancel_event)


def failure_record(
    index: int,
    point: dict[str, Any],
    error: str,
    message: str,
    attempts: int,
    timed_out: bool = False,
    reason: QuarantineReason | str = QuarantineReason.EXCEPTION,
) -> dict[str, Any]:
    """The quarantine record one failed point leaves in ``failures``.

    ``reason`` is the canonical :class:`QuarantineReason` of the *last*
    attempt (free-text stays in ``message``); ``timed_out`` is kept as
    a redundant boolean for schema-v2 consumers.
    """
    return {
        "index": index,
        "point": point,
        "error": error,
        "message": message,
        "attempts": attempts,
        "timed_out": timed_out,
        "reason": QuarantineReason(reason).value,
    }


#: ``run_attempt`` status -> ``(error, message)`` of its quarantine
#: record; an ``error`` status reports the worker's own exception.
_FAILURE_TEXT = {
    "timeout": (
        "TimeoutError",
        "attempt exceeded the {timeout_s}s budget and was killed",
    ),
    "crashed": ("WorkerCrash", "worker died without reporting (exit code {exitcode})"),
}


def attempt_point(
    task: dict[str, Any],
    policy: RetryPolicy,
    run: Callable[..., dict[str, Any]],
    *,
    context: TraceContext | None = None,
    chaos: WorkerChaos | None = None,
    cancel_event: Any | None = None,
) -> dict[str, Any]:
    """Run one point under ``policy``: the retry loop of sweep and serve.

    Attempt ``k`` calls ``run(payload, policy.timeout_s,
    cancel_event=cancel_event)`` -- :func:`run_attempt`, passed in so
    callers keep their own name for it -- on a copy of ``task`` numbered
    ``k`` that carries ``chaos`` and, when ``context`` is given, the
    trace context ``context.child("attempt", k)``.  A failed attempt
    backs off ``policy.backoff_for(index, k)`` seconds, waiting on
    ``cancel_event`` when one is given.

    Returns ``{"status": "ok", "outcome": ...}``, ``{"status": "failed",
    "failure": <failure_record>}`` or ``{"status": "cancelled"}`` (the
    event was set before or during an attempt or during a backoff),
    each with ``retries`` and an ``attempts`` log of ``{attempt, status,
    start_s, duration_s, context}`` records.
    """
    # Attempt timings are telemetry about this execution, never part of
    # a result payload (the same carve-out as run_attempt's duration_s).
    import time

    attempts: list[dict[str, Any]] = []

    def settled(status: str, **outcome: Any) -> dict[str, Any]:
        retries = max(len(attempts) - 1, 0)
        return {"status": status, **outcome, "retries": retries, "attempts": attempts}

    for attempt in range(1, policy.max_attempts + 1):
        if cancel_event is not None and cancel_event.is_set():
            return settled("cancelled")
        payload = dict(task, attempt=attempt)
        attempt_ctx = None if context is None else context.child("attempt", attempt)
        if attempt_ctx is not None:
            payload["tracectx"] = attempt_ctx.as_dict()
        if chaos is not None:
            payload["chaos"] = chaos.as_dict()
        start_s = time.perf_counter()  # repro: ignore[DET001]
        status = run(payload, policy.timeout_s, cancel_event=cancel_event)
        end_s = time.perf_counter()  # repro: ignore[DET001]
        attempts.append(
            {
                "attempt": attempt,
                "status": status["status"],
                "start_s": start_s,
                "duration_s": float(status.get("duration_s", end_s - start_s)),
                "context": attempt_ctx,
            }
        )
        if status["status"] == "ok":
            return settled("ok", outcome=status["outcome"])
        if status["status"] == "cancelled":
            return settled("cancelled")
        if attempt < policy.max_attempts:
            delay = policy.backoff_for(task["index"], attempt)
            if cancel_event is None:
                time.sleep(delay)
            elif cancel_event.wait(delay):
                return settled("cancelled")
    if status["status"] in _FAILURE_TEXT:
        error, template = _FAILURE_TEXT[status["status"]]
        message = template.format(
            timeout_s=policy.timeout_s, exitcode=status.get("exitcode")
        )
    else:
        error = status.get("error", "Exception")
        message = status.get("message", "")
    failure = failure_record(
        index=task["index"],
        point=task["point"],
        error=error,
        message=message,
        attempts=len(attempts),
        timed_out=status["status"] == "timeout",
        reason=status["reason"],
    )
    return settled("failed", failure=failure)

