"""Engineering guard -- the planning service must answer fast and share.

The robustness layers of ``repro serve`` (admission accounting, the
breaker consult, coalescing bookkeeping, envelope assembly) wrap every
request; this benchmark pins what they cost on the serving hot path and
what the two sharing mechanisms buy:

* **warm latency** -- with every point cached, a ``POST /plan`` is pure
  service overhead: parse, hash, admission, cache reads, envelope.  p50
  and p99 over a sustained single-client run are reported and the p99
  is capped (loosely: CI boxes jitter);
* **sustained throughput** -- concurrent clients hammering the warm
  path must clear a floor in requests/second;
* **sharing** -- a concurrent cold burst of identical requests must
  answer mostly from the cache/coalescing machinery: the combined
  cache + coalesce hit rate over points is floored, and the document
  must stay byte-identical to the offline ``run_sweep`` answer.

Run quick mode (``pytest benchmarks/bench_serve.py --quick``) for the
CI smoke variant: smaller workloads, looser thresholds.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from conftest import banner, write_bench_json
from repro.serve import PlanServer, PlanService
from repro.sweep import ResultCache, SweepGrid, run_sweep

#: (warm requests, concurrent clients, requests/client, p99 cap s,
#:  min req/s, min shared hit rate) per mode.
FULL = (200, 4, 25, 0.25, 40.0, 0.5)
QUICK = (50, 2, 10, 1.0, 5.0, 0.5)

#: The planned workload (small: the warm path never simulates).
SPEC = {"n": 256, "max_requests": 2048}


def post_plan(url: str, spec: dict) -> dict:
    body = json.dumps(spec).encode("utf-8")
    request = urllib.request.Request(
        url + "/plan", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return json.loads(response.read())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1])."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def test_serve_latency_throughput_and_sharing(quick, tmp_path):
    warm_n, clients, per_client, p99_cap, rps_floor, share_floor = (
        QUICK if quick else FULL
    )
    offline = run_sweep(
        SweepGrid(sizes=(SPEC["n"],)), max_requests=SPEC["max_requests"]
    ).to_json()

    # ---- cold burst: identical concurrent requests share one compute.
    service = PlanService(cache=ResultCache(tmp_path / "cache"), jobs=4)
    with service, PlanServer(service) as server:
        envelopes: list[dict] = []
        lock = threading.Lock()

        def cold_client():
            envelope = post_plan(server.url, SPEC)
            with lock:
                envelopes.append(envelope)

        burst = [threading.Thread(target=cold_client) for _ in range(clients)]
        cold_start = time.perf_counter()
        for thread in burst:
            thread.start()
        for thread in burst:
            thread.join()
        cold_s = time.perf_counter() - cold_start

        total_points = sum(
            e["cached"] + e["computed"] for e in envelopes
        )
        shared_points = sum(
            e["cached"] + e["coalesced"] for e in envelopes
        )
        share_rate = shared_points / total_points
        for envelope in envelopes:
            served = json.dumps(
                envelope["document"], indent=2, sort_keys=True
            ) + "\n"
            assert served == offline  # sharing never changes the answer

        # ---- warm latency: sustained single client, everything cached.
        latencies: list[float] = []
        for _ in range(warm_n):
            start = time.perf_counter()
            post_plan(server.url, SPEC)
            latencies.append(time.perf_counter() - start)
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)

        # ---- sustained concurrent throughput on the warm path.
        def warm_client():
            for _ in range(per_client):
                post_plan(server.url, SPEC)

        pool = [threading.Thread(target=warm_client) for _ in range(clients)]
        sustained_start = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        sustained_s = time.perf_counter() - sustained_start
        rps = clients * per_client / sustained_s
        counters = service.live.snapshot()["counters"]

    print(banner("SERVE: plan-request latency, throughput and sharing"))
    print(f"  warm p50 latency    : {1e3 * p50:7.2f} ms")
    print(f"  warm p99 latency    : {1e3 * p99:7.2f} ms")
    print(f"  sustained           : {rps:7.1f} req/s "
          f"({clients} clients x {per_client})")
    print(f"  cold burst          : {clients} clients in {cold_s:.2f}s, "
          f"share rate {share_rate:.2f} "
          f"(cache {counters['cache_hits']}, "
          f"coalesced {counters['coalesced']})")

    write_bench_json(
        "serve",
        {
            "warm_p50_ms": 1e3 * p50,
            "warm_p99_ms": 1e3 * p99,
            "sustained_rps": rps,
            "share_rate": share_rate,
        },
        info={
            "warm_requests": warm_n,
            "clients": clients,
            "per_client": per_client,
            "quick": quick,
        },
    )

    assert p99 <= p99_cap, (
        f"warm p99 {1e3 * p99:.1f} ms exceeds the {1e3 * p99_cap:.0f} ms cap"
    )
    assert rps >= rps_floor, (
        f"sustained {rps:.1f} req/s under the {rps_floor} req/s floor"
    )
    assert share_rate >= share_floor, (
        f"cold-burst share rate {share_rate:.2f} under {share_floor}"
    )
