#!/usr/bin/env python3
"""Load-shedding smoke gate for ``repro serve``.

Launches the real CLI (``python -m repro serve``) as a subprocess,
overloads it with a synchronized burst of concurrent plan requests, and
demands the issue's overload semantics end to end:

* the burst overflows the (deliberately tiny) admission queue, so at
  least one request is shed with **429 + a ``Retry-After`` header**;
* every *accepted* request completes cleanly -- **zero 5xx**; accepted
  work is never lost or double-executed (the response envelopes'
  ``request_id``\\ s are distinct, their documents identical);
* a ``/metrics`` scrape parses as valid OpenMetrics and reports the
  shed count (dumped to ``load-smoke-metrics.prom`` as a CI artifact);
* **every response carries a trace** -- accepted and shed envelopes
  alike expose a 32-hex ``trace_id`` (PR 10 end-to-end tracing);
* ``GET /debug/bundle`` returns a valid flight-recorder bundle
  (dumped to ``load-smoke-bundle.json`` as a CI artifact);
* ``GET /logs?n=20`` returns a ``repro-logs-tail/v1`` tail of at most
  20 records;
* **a deadline cancels the work**: one request whose cold point takes
  at least 10x its ``deadline_s`` (the size is found by timing cold
  points of growing N) answers 504 ``deadline-exceeded``, ``/metrics``
  then counts a cancelled worker replacement, and the next plain
  request answers 200;
* **SIGTERM drains cleanly**: the server exits 0 within the drain
  budget and leaves a ``flight-sigterm.json`` forensic bundle behind;
* **no orphans**: the server runs in its own session, and once it has
  exited no process of that group is left -- no pool worker and no
  forkserver.

A JSON report of every response lands in ``load-smoke-report.json``.
Exit status: 0 when every property holds, 1 otherwise.

Usage::

    python tools/load_smoke.py [--burst 12] [--queue-limit 2] [--n 256]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.flight import load_flight_bundle, validate_flight_bundle  # noqa: E402
from repro.obs.openmetrics import parse_openmetrics  # noqa: E402


def is_trace_id(value: Any) -> bool:
    """True when ``value`` looks like a 32-hex W3C trace id."""
    return (
        isinstance(value, str)
        and len(value) == 32
        and all(ch in "0123456789abcdef" for ch in value)
    )


def free_port() -> int:
    """An ephemeral TCP port that was free a moment ago."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(url: str, deadline_s: float = 20.0) -> None:
    """Poll ``/healthz`` until the server answers (or give up loudly)."""
    # Host time on purpose: this tool supervises a real server process.
    deadline = time.monotonic() + deadline_s  # repro: ignore[DET001]
    while True:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2.0):
                return
        except (urllib.error.URLError, OSError):
            if time.monotonic() >= deadline:  # repro: ignore[DET001]
                raise SystemExit(f"server at {url} never became healthy")
            time.sleep(0.1)


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid`` (Linux)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return members


def wait_group_gone(pgid: int, deadline_s: float = 10.0) -> list[int]:
    """Poll until group ``pgid`` is empty; returns what is left."""
    deadline = time.monotonic() + deadline_s  # repro: ignore[DET001]
    while True:
        left = group_members(pgid)
        if not left or time.monotonic() >= deadline:  # repro: ignore[DET001]
            return left
        time.sleep(0.1)


def post_plan(url: str, spec: dict[str, Any]) -> dict[str, Any]:
    """One ``POST /plan``; returns ``{code, headers, body}``."""
    body = json.dumps(spec).encode("utf-8")
    request = urllib.request.Request(
        url + "/plan", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            return {
                "code": response.status,
                "headers": dict(response.headers),
                "body": json.loads(response.read()),
            }
    except urllib.error.HTTPError as exc:
        return {
            "code": exc.code,
            "headers": dict(exc.headers),
            "body": json.loads(exc.read()),
        }


#: Budget of the deadline check's request, seconds.
DEADLINE_S = 0.025

#: A config whose refresh windows send every point to the exact loop,
#: whose cost grows with the requests priced.
EXACT_LOOP = {"memory": {"refresh": {"t_refi_ns": 7800.0, "t_rfc_ns": 160.0}}}


def slow_spec(url: str, deadline_s: float) -> tuple[dict[str, Any], float]:
    """A one-point plan whose cold point takes at least 10x ``deadline_s``.

    Doubles N from 256 and times each cold point, whole column phase on
    the exact loop (the server runs without a cache, so every point is
    cold).  Returns the plan and its measured seconds; past N=2048 it
    returns the largest one, and the check reports the shortfall.
    """
    n = 256
    while True:
        spec = {
            "n": n,
            "layouts": ["row-major"],
            "max_requests": n * n,
            "overrides": EXACT_LOOP,
        }
        started = time.perf_counter()  # repro: ignore[DET001]
        post_plan(url, spec)
        elapsed = time.perf_counter() - started  # repro: ignore[DET001]
        if elapsed >= 10 * deadline_s or n >= 2048:
            return spec, elapsed
        n *= 2


def cancelled_replacements(url: str) -> float:
    """``serve_workers_replaced_cancelled_total`` from ``/metrics``."""
    with urllib.request.urlopen(url + "/metrics", timeout=5.0) as resp:
        families = parse_openmetrics(resp.read().decode("utf-8"))
    return families["serve_workers_replaced_cancelled"]["samples"][
        "serve_workers_replaced_cancelled_total"
    ]


def fire_burst(
    url: str, spec: dict[str, Any], burst: int
) -> list[dict[str, Any]]:
    """``burst`` synchronized concurrent requests; returns all responses."""
    barrier = threading.Barrier(burst)
    responses: list[dict[str, Any]] = []
    lock = threading.Lock()

    def shoot() -> None:
        barrier.wait()
        response = post_plan(url, spec)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=shoot) for _ in range(burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    return responses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--burst", type=int, default=12,
                        help="concurrent requests in the overload burst")
    parser.add_argument("--queue-limit", type=int, default=2,
                        help="server admission bound (small = easy to shed)")
    parser.add_argument("--n", type=int, default=256,
                        help="matrix size of the planned workload")
    parser.add_argument("--max-requests", type=int, default=4096,
                        help="simulated request budget per point")
    parser.add_argument("--report", default="load-smoke-report.json",
                        help="where to write the JSON response report")
    parser.add_argument("--metrics-out", default="load-smoke-metrics.prom",
                        help="where to dump the OpenMetrics scrape")
    parser.add_argument("--bundle-out", default="load-smoke-bundle.json",
                        help="where to dump the on-demand /debug/bundle")
    parser.add_argument("--flight-dir", default="load-smoke-flight",
                        help="server-side directory for flight-recorder dumps")
    args = parser.parse_args(argv)

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--queue-limit", str(args.queue_limit),
            "--jobs", "2",
            "--no-cache",
            "--drain", "30",
            "--flight-dir", args.flight_dir,
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        start_new_session=True,
    )
    checks: list[tuple[str, bool, str]] = []
    responses: list[dict[str, Any]] = []
    try:
        wait_healthy(url)
        spec = {"n": args.n, "max_requests": args.max_requests}
        responses = fire_burst(url, spec, args.burst)

        shed = [r for r in responses if r["code"] == 429]
        ok = [r for r in responses if r["code"] == 200]
        fivexx = [r for r in responses if 500 <= r["code"] <= 599]
        checks.append((
            "burst fully answered",
            len(responses) == args.burst,
            f"{len(responses)}/{args.burst} responses",
        ))
        checks.append((
            ">=1 request shed with 429",
            len(shed) >= 1,
            f"{len(shed)} shed",
        ))
        checks.append((
            "every 429 carries Retry-After",
            all("Retry-After" in r["headers"] for r in shed),
            f"{sum('Retry-After' in r['headers'] for r in shed)}/{len(shed)}",
        ))
        checks.append((
            "zero 5xx on accepted requests",
            not fivexx,
            f"{len(fivexx)} server errors",
        ))
        request_ids = [r["body"].get("request_id") for r in ok]
        documents = {
            json.dumps(r["body"].get("document"), sort_keys=True) for r in ok
        }
        checks.append((
            "accepted answers distinct-by-id, identical-by-document",
            len(ok) >= 1
            and len(set(request_ids)) == len(request_ids)
            and len(documents) == 1,
            f"{len(ok)} accepted, {len(set(request_ids))} ids, "
            f"{len(documents)} distinct documents",
        ))

        traced = [r for r in responses if is_trace_id(r["body"].get("trace_id"))]
        checks.append((
            "every response (200 and 429) carries a trace_id",
            len(traced) == len(responses),
            f"{len(traced)}/{len(responses)} traced envelopes",
        ))
        header_traced = sum(
            "Traceparent" in r["headers"] or "traceparent" in r["headers"]
            for r in responses
        )
        checks.append((
            "every response carries a traceparent header",
            header_traced == len(responses),
            f"{header_traced}/{len(responses)} traceparent headers",
        ))

        with urllib.request.urlopen(url + "/debug/bundle", timeout=10.0) as resp:
            bundle = json.loads(resp.read())
        Path(args.bundle_out).write_text(
            json.dumps(bundle, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        try:
            validate_flight_bundle(bundle)
            bundle_ok, bundle_detail = True, (
                f"trigger={bundle['trigger']}, "
                f"{len(bundle['sections'])} sections"
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            bundle_ok, bundle_detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((
            "/debug/bundle returns a valid flight bundle",
            bundle_ok,
            bundle_detail,
        ))

        with urllib.request.urlopen(url + "/logs?n=20", timeout=5.0) as resp:
            tail = json.loads(resp.read())
        records = tail.get("records")
        checks.append((
            "/logs serves a repro-logs-tail/v1 tail",
            tail.get("schema") == "repro-logs-tail/v1"
            and isinstance(records, list)
            and tail.get("count") == len(records) <= 20
            and isinstance(tail.get("dropped"), int),
            f"schema={tail.get('schema')}, count={tail.get('count')}",
        ))

        with urllib.request.urlopen(url + "/metrics", timeout=5.0) as resp:
            exposition = resp.read().decode("utf-8")
        Path(args.metrics_out).write_text(exposition, encoding="utf-8")
        families = parse_openmetrics(exposition)
        shed_total = families["serve_shed"]["samples"]["serve_shed_total"]
        checks.append((
            "metrics parse and report the sheds",
            shed_total >= len(shed) >= 1,
            f"serve_shed_total={shed_total}",
        ))

        slow, slow_s = slow_spec(url, DEADLINE_S)
        checks.append((
            "a cold point of the deadline plan takes >= 10x its deadline",
            slow_s >= 10 * DEADLINE_S,
            f"N={slow['n']}: {slow_s:.3f} s against deadline_s={DEADLINE_S}",
        ))
        late = post_plan(url, {**slow, "deadline_s": DEADLINE_S})
        checks.append((
            "the deadline request answers 504 deadline-exceeded",
            late["code"] == 504
            and late["body"].get("error") == "deadline-exceeded",
            f"{late['code']} {late['body'].get('error')}",
        ))
        # The pool thread records the replacement once the cancelled
        # attempt's worker is killed, just after the 504 goes out.
        deadline = time.monotonic() + 10.0  # repro: ignore[DET001]
        replaced = cancelled_replacements(url)
        while replaced < 1 and time.monotonic() < deadline:  # repro: ignore[DET001]
            time.sleep(0.1)
            replaced = cancelled_replacements(url)
        checks.append((
            "/metrics counts the cancelled worker replacement",
            replaced >= 1,
            f"serve_workers_replaced_cancelled_total={replaced}",
        ))
        after = post_plan(url, spec)
        checks.append((
            "the next plain request answers 200",
            after["code"] == 200,
            f"{after['code']}",
        ))

        server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            code = None
        checks.append((
            "SIGTERM drains cleanly (exit 0)",
            code == 0,
            f"exit code {code}",
        ))
        left = wait_group_gone(server.pid)
        checks.append((
            "no pool worker or forkserver outlives the server",
            not left,
            f"{len(left)} processes left in the server's group {left}",
        ))

        sigterm_bundle = REPO_ROOT / args.flight_dir / "flight-sigterm.json"
        try:
            load_flight_bundle(str(sigterm_bundle))
            sigterm_ok, sigterm_detail = True, str(sigterm_bundle)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            sigterm_ok, sigterm_detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((
            "SIGTERM leaves a valid flight-sigterm.json bundle",
            sigterm_ok,
            sigterm_detail,
        ))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10.0)
        for pid in group_members(server.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        Path(args.report).write_text(
            json.dumps(
                {
                    "checks": [
                        {"check": name, "ok": good, "detail": detail}
                        for name, good, detail in checks
                    ],
                    "responses": [
                        {"code": r["code"], "body": r["body"]}
                        for r in responses
                    ],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    failed = [name for name, good, _ in checks if not good]
    for name, good, detail in checks:
        print(f"  [{'ok' if good else 'FAIL':>4s}] {name}: {detail}")
    if failed:
        print(f"load smoke: FAILED ({len(failed)} checks)")
        return 1
    print("load smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
