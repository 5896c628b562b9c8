"""Parallel design-space sweeps with on-disk result caching.

The paper's headline figures come from sweeping block height ``h``,
matrix size ``N`` and memory timing parameters and comparing layouts --
an embarrassingly parallel exploration this package runs as one:

* :mod:`repro.sweep.grid` -- declarative :class:`SweepGrid` over
  ``(N, layout, h, config)`` with JSON/TOML spec files;
* :mod:`repro.sweep.runner` -- :func:`run_sweep`: process-pool fan-out
  with a deterministic serial fallback, per-worker
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots merged in the
  parent;
* :mod:`repro.sweep.cache` -- :class:`ResultCache`: content-addressed
  on-disk memoization keyed by the resolved configuration plus a
  code-version salt, so repeated and incremental sweeps skip
  already-simulated points;
* :mod:`repro.sweep.results` -- :class:`SweepResult`: a deterministic
  JSON document (identical for any ``--jobs`` value and for warm-cache
  replays) plus markdown rendering;
* :mod:`repro.sweep.resilience` -- :class:`RetryPolicy` (per-attempt
  timeouts, bounded retries, deterministic backoff) and
  :class:`WorkerChaos` (executor fault injection for tests/CI).  Worker
  failures are quarantined into the result's ``failures`` section; one
  bad point never aborts the grid, and a rerun on the same cache
  computes only what is still missing.

``python -m repro sweep`` is the CLI entry point; the ``reproduce``
report's N-sweep and h-sweep sections run on this engine.  See
``docs/sweep.md``.
"""

from repro.sweep.cache import CACHE_VERSION, CacheStats, ResultCache
from repro.sweep.grid import (
    ConfigVariant,
    SweepGrid,
    SweepPoint,
    grid_from_dict,
    load_grid_spec,
)
from repro.sweep.resilience import (
    QuarantineReason,
    RetryPolicy,
    WorkerChaos,
    backoff_jitter,
    failure_record,
    reason_for_status,
    run_attempt,
)
from repro.sweep.results import RESULT_SCHEMA, SweepError, SweepResult
from repro.sweep.runner import (
    DEFAULT_SWEEP_REQUESTS,
    point_result,
    resolve_jobs,
    run_sweep,
    validate_grid,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "ConfigVariant",
    "DEFAULT_SWEEP_REQUESTS",
    "QuarantineReason",
    "RESULT_SCHEMA",
    "ResultCache",
    "RetryPolicy",
    "SweepError",
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "WorkerChaos",
    "backoff_jitter",
    "failure_record",
    "grid_from_dict",
    "load_grid_spec",
    "point_result",
    "reason_for_status",
    "resolve_jobs",
    "run_attempt",
    "run_sweep",
    "validate_grid",
]
