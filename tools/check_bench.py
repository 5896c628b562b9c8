#!/usr/bin/env python
"""Benchmark-regression gate: fresh BENCH_*.json vs committed baselines.

CI's bench job runs the benchmark suite (each file writes a
``BENCH_<name>.json`` artifact), then calls this tool to compare every
fresh artifact against the committed baseline of the same name under
``benchmarks/baselines/``::

    python tools/check_bench.py BENCH_sweep.json BENCH_observability.json

A baseline is a tolerance band, not a golden number -- wall-clock values
vary across runners, so bounds gate *ratios* (speedups, overhead
factors) and only sanity-cap absolute times.  Baseline schema::

    {
      "benchmark": "sweep",
      "metrics": {
        "parallel_speedup": {"min": 2.0, "require_cores": 4},
        "cache_speedup":    {"min": 5.0},
        "serial_s":         {"max": 120.0}
      }
    }

Each rule may set ``min`` and/or ``max`` (inclusive bounds) and
``require_cores``: when the fresh artifact reports fewer CPU cores than
required (metric ``cores`` or info key ``cores``), the rule is skipped
rather than failed -- a 2x-parallel-speedup demand is meaningless on a
single-core box.  A baseline metric missing from the fresh artifact
fails the gate: silently dropping a measurement is itself a regression.

``--check-coverage`` additionally scans ``benchmarks/bench_*.py`` and
fails when a benchmark file has no committed baseline of the matching
name (``bench_engine.py`` -> ``baselines/BENCH_engine.json``), so a new
benchmark cannot land without a regression band.  Benchmarks that
predate the gate are grandfathered in ``LEGACY_UNGATED``; do not add new
entries -- write a baseline instead.

Exit status: 0 when every rule holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: Where committed baselines live, relative to the repository root.
DEFAULT_BASELINE_DIR = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
)

#: Where the benchmark files themselves live.
DEFAULT_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: Benchmarks that predate the coverage gate and have no baseline yet.
#: Frozen: new benchmarks must ship a ``baselines/BENCH_<name>.json``
#: band instead of growing this list.
LEGACY_UNGATED = frozenset(
    {
        "ablation_height",
        "ablation_timing",
        "ablation_vaults",
        "energy",
        "fft3d",
        "fft_kernel",
        "framework",
        "interference",
        "layout_comparison",
        "load_latency",
        "matmul",
        "permutation",
        "pipeline",
        "quantization",
        "scheduler",
        "table1",
        "table2",
        "technology",
        "validation",
    }
)


def check_coverage(
    bench_dir: Path, baseline_dir: Path
) -> list[tuple[str, str, str]]:
    """One row per ``bench_*.py``: does a committed baseline exist?"""
    rows: list[tuple[str, str, str]] = []
    for bench in sorted(bench_dir.glob("bench_*.py")):
        name = bench.stem.removeprefix("bench_")
        baseline = baseline_dir / f"BENCH_{name}.json"
        if baseline.is_file():
            rows.append((name, f"baseline {baseline.name}", "ok"))
        elif name in LEGACY_UNGATED:
            rows.append(
                (name, "legacy benchmark, no baseline (grandfathered)", "skip")
            )
        else:
            rows.append(
                (
                    name,
                    f"{bench.name} has no committed {baseline.name} "
                    "(new benchmarks must ship a regression band)",
                    "FAIL",
                )
            )
    return rows


class CheckFailure(Exception):
    """A malformed artifact or baseline (distinct from a regression)."""


def load_json(path: Path) -> dict[str, Any]:
    """Read a JSON object from ``path`` with actionable errors."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CheckFailure(f"{path}: not found") from exc
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise CheckFailure(f"{path}: expected a JSON object")
    return data


def fresh_cores(fresh: dict[str, Any]) -> int | None:
    """CPU core count reported by the fresh artifact, if any."""
    metrics = fresh.get("metrics", {})
    if isinstance(metrics.get("cores"), (int, float)):
        return int(metrics["cores"])
    info = fresh.get("info", {})
    if isinstance(info.get("cores"), (int, float)):
        return int(info["cores"])
    return None


def check_artifact(
    fresh_path: Path, baseline_path: Path
) -> list[tuple[str, str, str]]:
    """Compare one artifact; returns (metric, detail, status) rows.

    Status is ``ok``, ``skip`` or ``FAIL``.
    """
    fresh = load_json(fresh_path)
    baseline = load_json(baseline_path)
    rules = baseline.get("metrics")
    if not isinstance(rules, dict) or not rules:
        raise CheckFailure(f"{baseline_path}: no metrics rules")
    metrics = fresh.get("metrics")
    if not isinstance(metrics, dict):
        raise CheckFailure(f"{fresh_path}: no metrics")
    cores = fresh_cores(fresh)
    rows: list[tuple[str, str, str]] = []
    for name, rule in sorted(rules.items()):
        if not isinstance(rule, dict):
            raise CheckFailure(f"{baseline_path}: rule {name!r} must be an object")
        unknown = set(rule) - {"min", "max", "require_cores"}
        if unknown:
            raise CheckFailure(
                f"{baseline_path}: rule {name!r} has unknown keys {sorted(unknown)}"
            )
        required = rule.get("require_cores")
        if required is not None and (cores is None or cores < required):
            rows.append(
                (name, f"needs >= {required} cores, runner has {cores}", "skip")
            )
            continue
        if name not in metrics:
            rows.append((name, "missing from fresh artifact", "FAIL"))
            continue
        value = metrics[name]
        if not isinstance(value, (int, float)):
            rows.append((name, f"non-numeric value {value!r}", "FAIL"))
            continue
        bounds = []
        ok = True
        if "min" in rule:
            bounds.append(f">= {rule['min']}")
            ok = ok and value >= rule["min"]
        if "max" in rule:
            bounds.append(f"<= {rule['max']}")
            ok = ok and value <= rule["max"]
        detail = f"{value:.4g} (want {' and '.join(bounds) or 'anything'})"
        rows.append((name, detail, "ok" if ok else "FAIL"))
    return rows


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="*",
        type=Path,
        help="freshly produced BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help="directory of committed baseline JSON files",
    )
    parser.add_argument(
        "--check-coverage",
        action="store_true",
        help="fail when a bench_*.py has no committed baseline",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=DEFAULT_BENCH_DIR,
        help="directory of bench_*.py files (for --check-coverage)",
    )
    args = parser.parse_args(argv)
    if not args.fresh and not args.check_coverage:
        parser.error("nothing to do: pass fresh artifacts or --check-coverage")
    failed = False
    if args.check_coverage:
        print(f"baseline coverage of {args.bench_dir}/bench_*.py:")
        coverage_rows = check_coverage(args.bench_dir, args.baseline_dir)
        for name, detail, status in coverage_rows:
            print(f"  [{status:>4s}] {name}: {detail}")
            if status == "FAIL":
                failed = True
    for fresh_path in args.fresh:
        baseline_path = args.baseline_dir / fresh_path.name
        try:
            rows = check_artifact(fresh_path, baseline_path)
        except CheckFailure as exc:
            print(f"ERROR: {exc}")
            failed = True
            continue
        print(f"{fresh_path.name} vs {baseline_path}:")
        for name, detail, status in rows:
            print(f"  [{status:>4s}] {name}: {detail}")
            if status == "FAIL":
                failed = True
    if failed:
        print("benchmark regression gate: FAILED")
        return 1
    print("benchmark regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
