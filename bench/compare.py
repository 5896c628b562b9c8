"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds at least ten ``results.json`` files (searched
recursively), one per untraced ``bench/run.py --out`` run; run ``i`` of
one side should alternate with run ``i`` of the other, and files pair up
in path order.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the
share of pairs the change wins and a verdict (improved, unchanged,
worse or unresolved; see :func:`stats.verdict`), then each side's
mean ``error_share``, which may not rise at all.  Exits 1 when any
metric is worse, and 2 when the runs do not all have the same length.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stats import quartiles, verdict

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 10


def load_runs(directory: Path) -> list[dict]:
    paths = sorted(directory.rglob("results.json"))
    return [json.loads(path.read_text()) for path in paths]


def series(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in runs
        if workload in run["workloads"]
    ]


def error_shares(runs: list[dict], workload: str) -> list[float]:
    return [
        run["workloads"][workload]["error_share"]
        for run in runs
        if workload in run["workloads"]
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load_runs(Path(arg)) for arg in argv)
    for name, runs in (("parent", parent), ("change", change)):
        if len(runs) < MIN_RUNS:
            print(f"{name}: {len(runs)} results.json, need {MIN_RUNS}", file=sys.stderr)
            return 2
    lengths = {run["seconds"] for run in parent + change}
    if len(lengths) > 1:
        print(f"runs of different lengths: {sorted(lengths)} s", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(
        {name for run in parent for name in run["workloads"]}
        & {name for run in change for name in run["workloads"]}
    )
    header = (
        f"{'workload':<13} {'metric':<18} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'wins':>5}  verdict"
    )
    print(header)
    worse = False
    for workload in workloads:
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            p_values = series(parent, workload, metric)
            c_values = series(change, workload, metric)
            outcome, wins = verdict(p_values, c_values, entry["better"], entry["bound"])
            worse = worse or outcome == "worse"
            p_text = "/".join(f"{v:.4g}" for v in quartiles(p_values))
            c_text = "/".join(f"{v:.4g}" for v in quartiles(c_values))
            print(
                f"{workload:<13} {metric:<18} {p_text:>32} {c_text:>32} "
                f"{wins:>5.0%}  {outcome} (bound {entry['bound']:g})"
            )
        p_errors = error_shares(parent, workload)
        c_errors = error_shares(change, workload)
        p_mean, c_mean = statistics.mean(p_errors), statistics.mean(c_errors)
        rose = c_mean > p_mean
        worse = worse or rose
        print(
            f"{workload:<13} {'error_share':<18} parent mean {p_mean:.4f} "
            f"change mean {c_mean:.4f}  {'worse' if rose else 'unchanged'}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
