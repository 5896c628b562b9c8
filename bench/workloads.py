"""The four workloads: their inputs, and how each drives the program.

Inputs are generated here from the seed; the program only ever sees
the generated grids and request bodies.  Sweeps run in
``sweep_child.py``; serve traffic goes to ``python -m repro serve``
(or ``serve_child.py`` when traced) over HTTP from this process.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from loadgen import closed_loop, http_request, open_loop

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

SIZES = (256, 512, 1024, 2048, 4096)
LAYOUTS = ("row-major", "ddl", "column-major", "tiled-1x32", "block-ddl-w1h32")
#: ``None`` is Eq. (1).
HEIGHTS = (None, 1, 2, 4, 8, 16, 32)
REFRESH = {"t_refi_ns": 7800.0, "t_rfc_ns": 160.0}

#: serve-warm: distinct plans, Zipf exponent, untimed warm-up seconds.
WARM_PLANS = 64
ZIPF_S = 1.1
WARMUP_S = 2.0

#: serve-cold: every request prices this one point at its own t_in_row.
COLD_SIZE = 512
COLD_LAYOUTS = ("ddl",)

#: Seconds to wait for a program to start, answer or stop.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``tail_pct`` is the tail percentile its (reported, ungated)
    ``latency_tail_ms`` uses: the highest percentile with at least ten
    samples beyond it at the sample count a 20 s run gives.  It is fixed
    so that a faster commit does not switch percentiles.
    """

    name: str
    kind: str
    tail_pct: float
    jobs: int = 1
    refresh: bool = False
    rate_per_s: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-vector", "sweep", 75.0, jobs=2),
        Workload("sweep-exact", "sweep", 75.0, jobs=1, refresh=True),
        Workload("serve-warm", "serve-warm", 99.0),
        Workload("serve-cold", "serve-cold", 95.0, rate_per_s=20.0),
    )
}


# ------------------------------------------------------------------ inputs
def sweep_grids(seed: int, refresh: bool, blocks: int) -> list[dict]:
    """A warm-up grid, then ``blocks`` blocks of five single-size grids.

    Each block covers every size once, in seeded order.  Every grid has
    its own seeded ``t_in_row``; with ``refresh`` every grid also
    enables DRAM refresh, which the vector engine cannot price, so every
    point runs on the exact loop.
    """
    rng = random.Random(f"sweep:{seed}")

    def grid(n: int) -> dict:
        t_in_row = round(rng.uniform(1.2, 2.2), 3)
        memory: dict[str, Any] = {"timing": {"t_in_row": t_in_row}}
        if refresh:
            memory["refresh"] = dict(REFRESH)
        return {
            "sizes": [n],
            "layouts": list(LAYOUTS),
            "heights": list(HEIGHTS),
            "configs": [
                {"label": f"t_in_row={t_in_row}", "overrides": {"memory": memory}}
            ],
        }

    grids = [grid(rng.choice(SIZES))]
    for _ in range(blocks):
        grids.extend(grid(n) for n in rng.sample(SIZES, len(SIZES)))
    return grids


def _timing(t_in_row: float) -> dict:
    return {"memory": {"timing": {"t_in_row": t_in_row}}}


def warm_plans(seed: int) -> list[dict]:
    """The 64 distinct plans of serve-warm, hottest first.

    Plan ``r`` has ``2 + r % 3`` points, so the mix of plan sizes is the
    same for every seed; the seed picks each plan's size, layouts and
    ``t_in_row`` from a small pool, so the plans share ~20 points.
    """
    rng = random.Random(f"warm:{seed}")
    plans: list[dict] = []
    seen: set[str] = set()
    while len(plans) < WARM_PLANS:
        points = 2 + len(plans) % 3
        plan = {
            "n": rng.choice((256, 512)),
            "layouts": rng.sample(LAYOUTS, points),
            "overrides": _timing(rng.choice((1.6, 1.8))),
        }
        key = json.dumps(plan, sort_keys=True)
        if key not in seen:
            seen.add(key)
            plans.append(plan)
    return plans


def zipf_stream(seed: int, count: int) -> list[int]:
    """``count`` seeded Zipf(1.1) draws of a plan rank."""
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(WARM_PLANS)]
    return rng.choices(range(WARM_PLANS), weights=weights, k=count)


def cold_requests(seed: int, count: int) -> list[dict]:
    """``count`` plans of one shape that share no point.

    Each has its own seeded ``t_in_row``, so every point misses the
    cache.  One shape keeps the service time the same for every
    request, so latency percentiles do not straddle shapes.
    """
    rng = random.Random(f"cold:{seed}")
    return [
        {
            "n": COLD_SIZE,
            "layouts": list(COLD_LAYOUTS),
            "overrides": _timing(round(1.2 + k * 1e-4, 4)),
        }
        for k in rng.sample(range(10_000), count)
    ]


def poisson_offsets(seed: int, rate_per_s: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process conditioned on its count.

    Exactly ``round(rate * seconds)`` arrivals, uniform and sorted over
    the window, so every seed offers the same load.
    """
    rng = random.Random(f"arrivals:{seed}")
    count = max(1, round(rate_per_s * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


# --------------------------------------------------------------- processes
def program_env() -> dict[str, str]:
    """The environment program processes run with (``src`` importable)."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


class Processes:
    """Every program process a run starts; :meth:`close` stops them all."""

    def __init__(self) -> None:
        self._live: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], cwd: Path, stderr_path: Path, **kw: Any):
        cwd.mkdir(parents=True, exist_ok=True)
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                argv, cwd=cwd, env=program_env(), stderr=stderr, **kw
            )
        self._live.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, sig: int | None = signal.SIGTERM) -> int:
        """Signal ``proc`` (unless ``sig`` is None) and wait for it to end.

        A process still running after the stop timeout is killed.
        """
        if sig is not None and proc.poll() is None:
            proc.send_signal(sig)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
        if proc in self._live:
            self._live.remove(proc)
        return code

    def close(self) -> None:
        for proc in list(self._live):
            self.stop(proc, signal.SIGKILL)


class ProgramError(RuntimeError):
    """The program failed to start, answer or stop as expected."""


def _stderr_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ProgramError(f"VmHWM missing for pid {pid}")


# ------------------------------------------------------------------- sweeps
def run_sweeps(
    workload: Workload,
    seed: int,
    seconds: float,
    work: Path,
    procs: Processes,
    setups: int,
    spans_dir: Path | None = None,
) -> dict:
    """One sweep workload run: set-up timings, then the timed sweeps.

    Returns the child's report plus ``setup_s`` (one per start) and the
    grids it ran.
    """
    # Far more blocks than a window can use (~1 block per second today).
    grids = sweep_grids(seed, workload.refresh, int(seconds * 20) + 2)
    argv = [sys.executable, str(BENCH / "sweep_child.py")]
    if spans_dir is not None:
        argv.append(str(spans_dir))
    setup_s = []
    for attempt in range(setups):
        stderr_path = work / f"sweep-{attempt}.stderr"
        started = time.perf_counter()
        proc = procs.spawn(
            argv, work, stderr_path, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if proc.stdout.readline().strip() != b"ready":
            procs.stop(proc, signal.SIGKILL)
            raise ProgramError(f"sweep child never got ready:\n{_stderr_tail(stderr_path)}")
        setup_s.append(time.perf_counter() - started)
        if attempt < setups - 1:
            proc.stdin.write(b"\n")
            proc.stdin.flush()
            procs.stop(proc, sig=None)
            continue
        job = {
            "grids": grids,
            "jobs": workload.jobs,
            "seconds": seconds,
            "work_dir": str(work),
        }
        proc.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
        proc.stdin.close()
        line = proc.stdout.readline()
        code = procs.stop(proc, sig=None)
        if code != 0 or not line:
            raise ProgramError(f"sweep child failed:\n{_stderr_tail(stderr_path)}")
        report = json.loads(line)
    report["setup_s"] = setup_s
    report["grids"] = grids
    return report


# -------------------------------------------------------------------- serve
_BANNER = re.compile(rb"serving at http://([0-9.]+):([0-9]+)")


@dataclass
class Server:
    """A running service process."""

    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float

    def request(self, method: str, path: str, body: bytes | None = None):
        return http_request(self.host, self.port, method, path, body)

    def status(self) -> dict:
        code, body = self.request("GET", "/status")
        if code != 200:
            raise ProgramError(f"GET /status answered {code}")
        return json.loads(body)


def start_server(
    procs: Processes, work: Path, index: int, spans_dir: Path | None
) -> Server:
    """Start the service on an ephemeral port; ready once /readyz is 200.

    Each start gets a fresh working directory, so the default cache
    directory starts empty.
    """
    cwd = work / f"serve-{index}"
    shutil.rmtree(cwd, ignore_errors=True)
    flags = ["serve", "--port", "0", "--jobs", "2"]
    if spans_dir is None:
        argv = [sys.executable, "-m", "repro", *flags]
    else:
        argv = [sys.executable, str(BENCH / "serve_child.py"), str(spans_dir), *flags]
    stderr_path = work / f"serve-{index}.stderr"
    started = time.perf_counter()
    proc = procs.spawn(argv, cwd, stderr_path, stdout=subprocess.DEVNULL)
    deadline = started + START_TIMEOUT_S
    host, port = "", 0
    while not port:
        match = _BANNER.search(stderr_path.read_bytes())
        if match:
            host, port = match.group(1).decode(), int(match.group(2))
        elif proc.poll() is not None or time.perf_counter() > deadline:
            procs.stop(proc, signal.SIGKILL)
            raise ProgramError(f"service did not start:\n{_stderr_tail(stderr_path)}")
        else:
            time.sleep(0.002)
    while True:
        try:
            code, _ = http_request(host, port, "GET", "/readyz", timeout=5.0)
        except OSError:
            code = 0
        if code == 200:
            return Server(proc, host, port, time.perf_counter() - started)
        if proc.poll() is not None or time.perf_counter() > deadline:
            procs.stop(proc, signal.SIGKILL)
            raise ProgramError(f"service never ready:\n{_stderr_tail(stderr_path)}")
        time.sleep(0.002)


def _post(server: Server, body: bytes) -> tuple[int, bytes]:
    try:
        return server.request("POST", "/plan", body)
    except OSError as exc:
        return 0, str(exc).encode("utf-8")


def run_serve(
    workload: Workload,
    seed: int,
    seconds: float,
    work: Path,
    procs: Processes,
    setups: int,
    spans_dir: Path | None = None,
) -> dict:
    """One serve workload run against a fresh service.

    Returns the window's samples (each outcome is ``(status, body,
    plan)``), the plans, the window bounds on the shared clock, the
    service's ``/status`` before and after the window, set-up timings
    and the service's peak RSS.
    """
    setup_s = []
    for index in range(setups - 1):
        server = start_server(procs, work, index, None)
        setup_s.append(server.setup_s)
        procs.stop(server.proc)
    server = start_server(procs, work, setups - 1, spans_dir)
    setup_s.append(server.setup_s)

    if workload.kind == "serve-warm":
        plans = warm_plans(seed)
        bodies = [json.dumps(plan).encode("utf-8") for plan in plans]
        prefill = open_loop([0.0] * len(bodies), lambda i: _post(server, bodies[i]))
        if any(sample.outcome[0] != 200 for sample in prefill):
            raise ProgramError("pre-fill request failed")
        stream = zipf_stream(seed, 200_000)

        def send(i: int) -> tuple[int, bytes, int]:
            rank = stream[i % len(stream)]
            return (*_post(server, bodies[rank]), rank)

        closed_loop(lambda i: send(len(stream) // 2 + i), WARMUP_S)
        before = server.status()
        window_start = time.perf_counter()
        samples = closed_loop(send, seconds)
    else:
        offsets = poisson_offsets(seed, workload.rate_per_s, seconds)
        warmup = round(workload.rate_per_s * WARMUP_S)
        plans = cold_requests(seed, len(offsets) + warmup)
        bodies = [json.dumps(plan).encode("utf-8") for plan in plans]
        open_loop(
            [i / workload.rate_per_s for i in range(warmup)],
            lambda i: _post(server, bodies[len(offsets) + i]),
        )
        before = server.status()
        window_start = time.perf_counter()
        samples = open_loop(offsets, lambda i: (*_post(server, bodies[i]), i))
    window_end = max(sample.end for sample in samples)
    after = server.status()
    rss = peak_rss_mb(server.proc.pid)
    code = procs.stop(server.proc)
    if code != 0:
        raise ProgramError(f"service exited with {code} after SIGTERM")
    return {
        "samples": samples,
        "plans": plans,
        "window": (window_start, window_end),
        "status": (before, after),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
