"""The resilient layout-planning service (``python -m repro serve``).

The ROADMAP's serving layer: a long-running HTTP front end that answers
"which Eq. (1)-optimal layout for this matrix/workload?" on demand by
running single-size sweeps through the existing ``repro.sweep`` stack.
Robustness is the headline -- every mechanism composes from pieces the
offline path already trusts:

* :mod:`repro.serve.admission` -- bounded admission with explicit load
  shedding (429 + ``Retry-After``; never unbounded queueing);
* :mod:`repro.serve.breaker` -- circuit breaker with half-open probing;
  while OPEN the service degrades to cache-only answers and
  ``/readyz`` reports 503;
* :mod:`repro.serve.schemas` -- request/response envelopes around
  result documents byte-identical to ``repro sweep`` output;
* :mod:`repro.serve.service` -- the core, on plain threads: the
  calling thread admits, reads the cache and waits on one future per
  missing column phase; per-request deadlines with worker
  cancellation, in-flight coalescing of identical phases, retries under
  the sweep :class:`~repro.sweep.resilience.RetryPolicy`, graceful
  drain;
* :mod:`repro.serve.app` -- the stdlib HTTP transport (``POST /plan``,
  ``/healthz`` and ``/readyz`` on top of the shared ``/status``
  ``/metrics`` ``/logs`` ``/debug/bundle`` route set).

See ``docs/serving.md`` for endpoint and overload semantics.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import PlanServer, serve_forever
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.schemas import (
    ERROR_SCHEMA,
    RESPONSE_SCHEMA,
    SERVE_STATUS_SCHEMA,
    PlanRequest,
    ServeError,
    best_point,
    error_envelope,
    parse_plan_request,
    response_envelope,
)
from repro.serve.service import (
    DEFAULT_DEADLINE_S,
    DEFAULT_DRAIN_S,
    DEFAULT_QUEUE_LIMIT,
    PlanService,
)

__all__ = [
    "AdmissionController",
    "CLOSED",
    "CircuitBreaker",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_DRAIN_S",
    "DEFAULT_QUEUE_LIMIT",
    "ERROR_SCHEMA",
    "HALF_OPEN",
    "OPEN",
    "PlanRequest",
    "PlanServer",
    "PlanService",
    "RESPONSE_SCHEMA",
    "SERVE_STATUS_SCHEMA",
    "ServeError",
    "best_point",
    "error_envelope",
    "parse_plan_request",
    "response_envelope",
    "serve_forever",
]
