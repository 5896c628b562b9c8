"""Engineering guard -- event recording on the exact timing loop.

The observability layer hooks the exact per-request timing loop
(:meth:`repro.memory3d.memory.Memory3D._simulate_exact`): with recording
off the loop pays one pointer test per request, with an
:class:`~repro.obs.EventTrace` attached it additionally appends one
columnar record per event.  This benchmark times both on the same loop
and pins their ratio (recorder on / recorder off) in a band, and reports
the exact loop's ns/request with recording off -- the number the
performance ledger in ``docs/performance.md`` tracks.

Run quick mode (``pytest benchmarks/bench_observability.py --quick``)
for the CI smoke variant: a smaller workload.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import banner, write_bench_json
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.obs import EventTrace
from repro.trace import TraceArray

#: Workload per mode: (requests, repeats).
FULL = (131_072, 5)
QUICK = (16_384, 5)


def best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_recorder_on_off_ratio(quick):
    requests, repeats = QUICK if quick else FULL
    rng = np.random.default_rng(0x0B5)
    trace = TraceArray(
        rng.integers(0, 1 << 20, size=requests, dtype=np.int64) * 8
    )
    plain = Memory3D(pact15_hmc_config())
    recorder = EventTrace()
    instrumented = Memory3D(pact15_hmc_config(), recorder=recorder)

    def run_off():
        plain.simulate(trace, "per_vault")

    def run_on():
        recorder.clear()
        instrumented.simulate(trace, "per_vault")

    # Recording observes the run; it must not change it.
    run_on()
    assert instrumented.simulate(trace, "per_vault") == plain.simulate(
        trace, "per_vault"
    )
    assert plain.last_engine == instrumented.last_engine == "exact"

    run_off()
    off_s = best_of(repeats, run_off)
    on_s = best_of(repeats, run_on)
    on_off = on_s / off_s

    print(banner("OBS: event recording on the exact timing loop"))
    print(f"  requests            : {requests:,}")
    print(f"  recorder off        : {1e9 * off_s / requests:7.1f} ns/request")
    print(f"  recorder on         : {1e9 * on_s / requests:7.1f} ns/request "
          f"({on_off:.3f}x off, {len(recorder):,} events)")

    write_bench_json(
        "observability",
        {
            "on_off_x": on_off,
            "exact_ns_per_request": 1e9 * off_s / requests,
            "on_ns_per_request": 1e9 * on_s / requests,
        },
        info={"requests": requests, "repeats": repeats, "quick": quick},
    )
