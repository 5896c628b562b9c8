"""Program side of the sweep workloads.

``python bench/sweep_child.py [SPANS_DIR]`` imports the program, prints
``ready`` and reads one JSON job from stdin: the sweep grids to run, the
worker count, the seconds to measure and a work directory.
An empty line instead of a job exits at once (a set-up timing).  The
first grid is a warm-up; the rest run one cold ``run_sweep`` each, with
a fresh on-disk cache, until the seconds are spent.  One JSON line with
every document and timing goes back on stdout.

With ``SPANS_DIR`` the layer wrappers of ``layers.py`` are installed
before the program is imported and every call runs inside a
``bench.sweep_call`` span.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    recorder = None
    if argv:
        import layers

        recorder = layers.SpanRecorder(argv[0])
        missing = layers.install(recorder)
        if missing:
            print(f"untraced (not found): {missing}", file=sys.stderr)
    from repro.sweep import ResultCache, grid_from_dict, run_sweep

    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    work = Path(job["work_dir"])

    def one_call(index: int, spec: dict) -> dict:
        cache_dir = work / f"cache-{index}"
        span = (
            recorder.span("bench.sweep_call", call=index)
            if recorder is not None
            else contextlib.nullcontext()
        )
        started = time.perf_counter()
        with span:
            result = run_sweep(
                grid_from_dict(spec), jobs=job["jobs"], cache=ResultCache(cache_dir)
            )
        ended = time.perf_counter()
        shutil.rmtree(cache_dir, ignore_errors=True)
        text = result.to_json()
        return {
            "start": started,
            "end": ended,
            "points": len(result.results) + len(result.failures),
            "failures": result.failures,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "results": result.results,
        }

    grids = job["grids"]
    warmup = one_call(0, grids[0])
    calls = []
    stop_at = time.perf_counter() + job["seconds"]
    for index, spec in enumerate(grids[1:], start=1):
        if time.perf_counter() >= stop_at:
            break
        calls.append(one_call(index, spec))
    if recorder is not None:
        recorder.flush()
    from workloads import peak_rss_mb  # after the timed work: not in setup_s

    out = {"warmup": warmup, "calls": calls, "peak_rss_mb": peak_rss_mb(os.getpid())}
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
