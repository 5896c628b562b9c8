"""The repository benchmark: sweep and serve workloads, measured end to end.

Usage (from the repository root)::

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload serve-warm --seed 3
    python3 bench/run.py --seed 7 --out DIR --trace   # plus a traced run
    python3 bench/run.py --write-golden           # re-pin bench/golden.json

Every workload measures for ``run_seconds`` of ``BENCHMARK.json``;
``--seconds`` is accepted only with that value.  Every end-to-end
metric named in ``BENCHMARK.json`` is printed with its unit, the
outputs are checked (see :func:`check_sweeps` and :func:`check_serve`),
``DIR/results.json`` is written, and stdout ends with one JSON result
line per workload run, in order: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace`` (or ``--trace 1``) each workload runs
once untraced and once with the layer wrappers of ``layers.py``; the
metrics are then the per-layer ones, and ``DIR/layers.json`` and a
Perfetto ``DIR/trace.json`` are written too.  The exit code is non-zero
when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Any

from stats import percentile
from workloads import (
    ROOT,
    SIZES,
    WORKLOADS,
    Processes,
    ProgramError,
    Workload,
    run_serve,
    run_sweeps,
)

BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "bench" / "golden.json"
DEFAULT_OUT = ROOT / "bench" / "out"
DEFAULT_SEED = 0

#: Program starts per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Outputs re-derived offline per workload.
SAMPLED_CHECKS = 8
#: serve-cold latency objective from the request's due time.
SLO_S = 1.0
#: Wall-clock cap on one workload pass, after which everything is killed.
WATCHDOG_S = 80
RESPONSE_SCHEMA = "repro-serve-response/v2"


class Run:
    """What one pass of one workload measured and checked."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.extra: dict[str, Any] = {}
        self.window = (0.0, 0.0)
        self.ops = 0
        self.capacity_s = 0.0
        self.client_p50_s = 0.0
        #: Per-layer metrics measured outside the spans (zero on sweeps).
        self.supplied: dict[str, float] = {
            "serve.queue_wait.s_p50": 0.0,
            "serve.coalesced_share": 0.0,
            "serve.shed": 0,
            "loadgen.lag_p95_ms": 0.0,
            "loadgen.sent": 0,
        }

    def as_result(self) -> dict:
        return {
            "correct": not self.errors,
            "errors": self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_share": self.failed / self.attempted if self.attempted else 1.0,
            "metrics": self.metrics,
            "extra": self.extra,
        }


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


# ---------------------------------------------------------------- checking
def check_sweeps(run: Run, seed: int, report: dict) -> None:
    """Sweep gates: golden document, no quarantine, exact-engine samples.

    At the default seed the warm-up sweep's document must hash to the
    committed golden digest; no point may be quarantined; and a seeded
    sample of points must match a fresh ``engine="exact"`` computation
    in this process.
    """
    from repro.core.config import SystemConfig
    from repro.serialization import (
        system_from_dict,
        system_to_dict,
        system_with_overrides,
    )
    from repro.sweep import DEFAULT_SWEEP_REQUESTS, grid_from_dict, point_result

    calls = [report["warmup"], *report["calls"]]
    quarantined = sum(len(call["failures"]) for call in calls)
    if quarantined:
        run.errors.append(f"{quarantined} point(s) quarantined")
    golden = json.loads(GOLDEN.read_text())
    if seed == golden["seed"]:
        expected = golden["documents"][run.workload.name]
        if report["warmup"]["sha256"] != expected:
            run.errors.append(
                f"golden document mismatch: {report['warmup']['sha256']} != {expected}"
            )
    population = [
        (call_index, point_index)
        for call_index, call in enumerate(calls)
        for point_index in range(len(call["results"]))
    ]
    rng = random.Random(f"check:{seed}")
    for call_index, point_index in rng.sample(population, SAMPLED_CHECKS):
        grid = grid_from_dict(report["grids"][call_index])
        overrides = dict(grid.configs[0].overrides)
        config = system_from_dict(
            system_to_dict(system_with_overrides(SystemConfig(), overrides))
        )
        expected = point_result(
            grid.points()[point_index], config, DEFAULT_SWEEP_REQUESTS, engine="exact"
        )
        got = calls[call_index]["results"][point_index]
        if _canonical(expected) != _canonical(got):
            run.errors.append(f"call {call_index} point {point_index} != exact engine")


def check_serve(run: Run, seed: int, samples: list, plans: list[dict]) -> None:
    """Serve gates: every 200 is a v2 envelope; sampled documents match.

    A seeded sample of answered requests must carry a ``document``
    byte-identical to an offline ``run_sweep`` of the same request.
    """
    from repro.serve import parse_plan_request
    from repro.sweep import run_sweep

    by_plan: dict[int, dict] = {}
    for sample in samples:
        status, body, plan = sample.outcome
        if status != 200:
            continue
        envelope = json.loads(body)
        if envelope.get("schema") != RESPONSE_SCHEMA:
            run.errors.append(f"response schema {envelope.get('schema')!r}")
            return
        by_plan.setdefault(plan, envelope)
    rng = random.Random(f"check:{seed}")
    for plan in rng.sample(sorted(by_plan), min(SAMPLED_CHECKS, len(by_plan))):
        request = parse_plan_request(plans[plan])
        offline = run_sweep(request.grid(), max_requests=request.max_requests)
        if _canonical(offline.to_json_dict()) != _canonical(by_plan[plan]["document"]):
            run.errors.append(f"plan {plan}: document differs from offline run_sweep")


# --------------------------------------------------------------- measuring
def block_rate(calls: list[dict]) -> float:
    """Points per second: the median over blocks of one call per size.

    A median over ~20 blocks keeps a few seconds of host contention
    from moving the run's figure; a run too short for a whole block
    falls back to all points over all call time.
    """
    size = len(SIZES)
    rates = [
        sum(call["points"] for call in block)
        / sum(call["end"] - call["start"] for call in block)
        for block in (calls[i : i + size] for i in range(0, len(calls) - size + 1, size))
    ]
    if rates:
        return statistics.median(rates)
    return sum(call["points"] for call in calls) / sum(
        call["end"] - call["start"] for call in calls
    )


def stratified(walls_by_size: dict[int, list[float]], q: float) -> float:
    """The ``q``-th percentile of call time, averaged over grid sizes.

    Call time grows several-fold from N=256 to N=4096, so a percentile
    of the pooled calls sits on a boundary between sizes and jumps
    between them from run to run; each size's own percentile does not.
    """
    return statistics.mean(percentile(walls, q) for walls in walls_by_size.values())


def second_rate(samples: list, start: float) -> float:
    """Responses per second: the median over the window's whole seconds."""
    counts = [0] * int(max(sample.end for sample in samples) - start)
    for sample in samples:
        second = int(sample.end - start)
        if second < len(counts):
            counts[second] += 1
    return statistics.median(counts) if counts else len(samples)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    work: Path,
    procs: Processes,
    setups: int,
    spans_dir: Path | None = None,
) -> Run:
    """Run one workload once and derive its end-to-end metrics."""
    run = Run(workload)
    tail = workload.tail_pct
    if workload.kind == "sweep":
        report = run_sweeps(workload, seed, seconds, work, procs, setups, spans_dir)
        calls = report["calls"]
        walls = [call["end"] - call["start"] for call in calls]
        points = sum(call["points"] for call in calls)
        run.attempted = points
        run.failed = sum(len(call["failures"]) for call in calls)
        by_size: dict[int, list[float]] = {}
        for grid, wall in zip(report["grids"][1:], walls, strict=False):
            by_size.setdefault(grid["sizes"][0], []).append(wall)
        run.metrics = {
            "setup_s": statistics.median(report["setup_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "throughput_per_s": block_rate(calls),
            "latency_p50_ms": stratified(by_size, 50.0) * 1e3,
        }
        run.extra = {
            "operation": "run_sweep call",
            "operations": len(calls),
            "latency_tail_ms": stratified(by_size, tail) * 1e3,
        }
        run.window = (calls[0]["start"], calls[-1]["end"])
        run.ops = len(calls)
        run.capacity_s = workload.jobs * sum(walls)
        run.supplied["loadgen.sent"] = len(calls)
        check_sweeps(run, seed, report)
    else:
        result = run_serve(workload, seed, seconds, work, procs, setups, spans_dir)
        samples = result["samples"]
        latencies = [sample.latency for sample in samples]
        ok = [sample for sample in samples if sample.outcome[0] == 200]
        start, end = result["window"]
        run.attempted = len(samples)
        run.failed = len(samples) - len(ok)
        if workload.kind == "serve-warm":
            throughput = second_rate(ok, start)
        else:  # open loop: the offered rate, unless the service falls behind
            throughput = len(ok) / (end - start)
        run.client_p50_s = statistics.median(latencies)
        run.metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "throughput_per_s": throughput,
            "latency_p50_ms": run.client_p50_s * 1e3,
        }
        lags = [sample.lag for sample in samples]
        run.extra = {
            "operation": "POST /plan",
            "operations": len(samples),
            "latency_tail_ms": percentile(latencies, tail) * 1e3,
            "within_slo_share": sum(
                1 for sample in ok if sample.latency <= SLO_S
            ) / len(samples),
        }
        before, after = result["status"]

        def delta(section: str, key: str) -> int:
            return after[section][key] - before[section][key]

        computed = delta("counters", "computed_points")
        run.window = (start, end)
        run.ops = len(samples)
        run.capacity_s = 2 * (end - start)
        queue_wait = after["latency"].get("serve.queue_wait_s", {})
        run.supplied = {
            "serve.queue_wait.s_p50": queue_wait.get("p50_s", 0.0),
            "serve.coalesced_share": (
                delta("counters", "coalesced") / computed if computed else 0.0
            ),
            "serve.shed": delta("admission", "shed"),
            "loadgen.lag_p95_ms": percentile(lags, 95) * 1e3,
            "loadgen.sent": len(samples),
        }
        check_serve(run, seed, samples, result["plans"])
    run.extra["tail_percentile"] = tail
    return run


def layer_pass(
    workload: Workload, seed: int, seconds: float, work: Path, procs: Processes
) -> tuple[Run, dict, list[dict]]:
    """A traced pass: ``(run, per-layer metrics, spans in the window)``."""
    import layers

    spans_dir = work / "spans"
    run = measure(workload, seed, seconds, work, procs, 1, spans_dir)
    spans = layers.in_window(layers.load_spans(spans_dir), *run.window)
    metrics = layers.layer_metrics(spans, run.ops, run.capacity_s)
    metrics.update(run.supplied)
    metrics["serve.http.s_p50"] = (
        run.client_p50_s - metrics["serve.handle.s_p50"] if run.client_p50_s else 0.0
    )
    for span in spans:
        span["workload"] = workload.name
    return run, metrics, spans


# ------------------------------------------------------------------ output
def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def declared(metrics: dict[str, Any], entries: list[dict]) -> dict[str, dict]:
    """``{name: {value, unit}}`` for every metric the spec declares."""
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in entries
    }


def print_metrics(name: str, metrics: dict[str, dict]) -> None:
    for metric, entry in metrics.items():
        print(f"{name:<13} {metric:<32} {entry['value']:>16.6f} {entry['unit']}")


def run_workloads(
    names: list[str], seed: int, seconds: float, out: Path, trace: bool
) -> tuple[dict, list[dict]]:
    """Run each named workload; ``(results document, one result line each)``.

    A result line holds ``correct``, ``attempted``, ``failed`` and
    ``metrics``: the workload's end-to-end metrics, or with ``trace``
    its per-layer ones (whose pass is then also what was attempted).
    """
    spec = load_spec()
    procs = Processes()

    def watchdog(signum: int, frame: Any) -> None:
        procs.close()
        print("bench: watchdog expired; every program process stopped", file=sys.stderr)
        os._exit(3)

    signal.signal(signal.SIGALRM, watchdog)
    results: dict[str, dict] = {}
    layer_doc: dict[str, dict] = {}
    all_spans: list[dict] = []
    lines: list[dict] = []
    try:
        for name in names:
            workload = WORKLOADS[name]
            signal.alarm(int(WATCHDOG_S + (2 if trace else 1) * seconds))
            work = out / "work" / name
            shutil.rmtree(work, ignore_errors=True)
            untraced = measure(workload, seed, seconds, work, procs, SETUPS)
            results[name] = untraced.as_result()
            e2e = declared(untraced.metrics, spec["end_to_end"])
            print_metrics(name, e2e)
            for key, value in untraced.extra.items():
                print(f"{name:<13} {key:<32} {value}")
            for error in untraced.errors:
                print(f"{name:<13} CHECK FAILED: {error}")
            reported, shown = untraced, e2e
            if trace:
                traced, metrics, spans = layer_pass(workload, seed, seconds, work, procs)
                # Latency, not throughput: serve-cold's throughput is its
                # offered rate, whatever tracing costs.
                base = untraced.metrics["latency_p50_ms"]
                slowdown = traced.metrics["latency_p50_ms"] / base
                metrics["tracing.overhead_share"] = slowdown - 1.0
                layer_doc[name] = {
                    "correct": not traced.errors,
                    "layers": metrics,
                    "untraced": untraced.metrics,
                    "traced": traced.metrics,
                }
                all_spans.extend(spans)
                for error in traced.errors:
                    print(f"{name:<13} TRACED CHECK FAILED: {error}")
                reported, shown = traced, declared(metrics, spec["per_layer"])
                print_metrics(name, shown)
            signal.alarm(0)
            shutil.rmtree(work, ignore_errors=True)
            lines.append(
                {
                    "correct": not (untraced.errors or reported.errors),
                    "attempted": reported.attempted,
                    "failed": reported.failed,
                    "metrics": shown,
                }
            )
    finally:
        signal.alarm(0)
        procs.close()
    shutil.rmtree(out / "work", ignore_errors=True)
    document = {
        "schema": "repro-bench-results/v1",
        "seed": seed,
        "seconds": seconds,
        "workloads": results,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(document, indent=2) + "\n")
    if trace:
        import layers

        (out / "layers.json").write_text(json.dumps(layer_doc, indent=2) + "\n")
        with open(out / "trace.json", "w", encoding="utf-8") as handle:
            json.dump(layers.chrome_trace(all_spans), handle)
    return document, lines


def write_golden() -> None:
    """Re-pin the default seed's warm-up sweep document digests."""
    documents = {}
    procs = Processes()
    try:
        for workload in WORKLOADS.values():
            if workload.kind != "sweep":
                continue
            work = DEFAULT_OUT / "work" / f"golden-{workload.name}"
            report = run_sweeps(workload, DEFAULT_SEED, 0.0, work, procs, 1)
            documents[workload.name] = report["warmup"]["sha256"]
            shutil.rmtree(work, ignore_errors=True)
    finally:
        procs.close()
    GOLDEN.write_text(
        json.dumps({"seed": DEFAULT_SEED, "documents": documents}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="must equal run_seconds of BENCHMARK.json, which fixes every run length",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_golden:
        write_golden()
        return 0
    seconds = load_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g} differs from run_seconds {seconds}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        _, lines = run_workloads(names, args.seed, seconds, args.out, bool(args.trace))
    except ProgramError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
