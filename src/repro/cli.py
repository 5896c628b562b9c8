"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's evaluation artifacts:

* ``table1``           -- column-wise FFT throughput comparison (Table 1)
* ``table2``           -- entire-application comparison (Table 2)
* ``describe-memory``  -- the 3D memory organisation (Fig. 1 structure)
* ``kernel``           -- 1D FFT kernel resource model (Fig. 2 components)
* ``geometry``         -- Eq. (1) block geometry for a problem size
* ``simulate``         -- trace-driven validation of one size
* ``plan``             -- automatic layout optimization for a kernel
* ``energy``           -- column-phase energy, baseline vs DDL
* ``trace``            -- record a run and export a Chrome/Perfetto trace
* ``sweep``            -- parallel design-space sweep with result caching
* ``serve``            -- resilient layout-planning HTTP service
* ``tail``             -- live progress view of a monitored sweep
* ``bundle``           -- fetch or inspect a flight-recorder bundle
* ``faults``           -- layout degradation under injected memory faults
* ``report``           -- self-contained static HTML run report
* ``lint``             -- repo-specific static analysis (domain rules)

Every command reports a :class:`~repro.errors.ReproError` as a one-line
message on stderr with exit code 2; pass ``--debug`` (before the
command) to re-raise with the full traceback instead.  A global
``--profile HZ`` samples the whole command with the zero-dependency
profiler (:mod:`repro.obs.profile`) and prints a self-time table to
stderr when it finishes; global ``--log-level``/``--log-out`` configure
the structured JSONL logger (:mod:`repro.obs.logging`).  The three
compose in one invocation with a fixed shutdown order: the sweep
monitor closes first, then the profiler stops and reports, then the
log sinks flush.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, TextIO

from repro.core import (
    AnalyticModel,
    BaselineArchitecture,
    OptimizedArchitecture,
    format_table1,
    format_table2,
)
from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.fft import StreamingFFT1D
from repro.layouts import optimal_block_geometry
from repro.memory3d import pact15_hmc_config

if TYPE_CHECKING:
    from repro.obs import SweepMonitor
    from repro.sweep import RetryPolicy, SweepResult

#: Seconds ``sweep --monitor`` keeps serving the finished run's
#: ``"done"`` status before it closes, so a scraper polling a short run
#: still sees how it ended (Ctrl-C ends the wait early).
MONITOR_LINGER_S = 3.0


def _add_sizes(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[2048, 4096, 8192],
        help="2D FFT sizes N (N x N matrices)",
    )


def _add_sweep_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Execution flags shared by the sweep-engine commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = deterministic serial fallback, "
             "0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=".sweep-cache",
        help="on-disk result cache directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )


def _add_retry_flags(parser: argparse.ArgumentParser, retries_default: int) -> None:
    """The retry-policy flags of the commands that run killable attempts."""
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-attempt wall-clock budget in seconds; a hung worker "
             "process is killed and the attempt retried or quarantined",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=retries_default,
        help="extra attempts per failing point (exponential backoff with "
             "deterministic jitter between attempts)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base backoff delay in seconds before the first retry",
    )


def _retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The :class:`~repro.sweep.RetryPolicy` of :func:`_add_retry_flags`."""
    from repro.sweep import RetryPolicy

    return RetryPolicy(
        timeout_s=args.timeout, retries=args.retries, backoff_s=args.backoff
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    model = AnalyticModel()
    print(format_table1(model.table1(tuple(args.sizes))))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    model = AnalyticModel()
    print(format_table2(model.table2(tuple(args.sizes))))
    return 0


def _cmd_describe_memory(_: argparse.Namespace) -> int:
    print(pact15_hmc_config().describe())
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    config = SystemConfig()
    for n in args.sizes:
        kernel = StreamingFFT1D(
            n,
            radix=config.kernel.radix,
            lanes=config.kernel.lanes,
            clock_hz=config.kernel.clock_for(n),
        )
        print(kernel.hardware.summary())
        print()
    return 0


def _cmd_geometry(args: argparse.Namespace) -> int:
    memory = pact15_hmc_config()
    for n in args.sizes:
        geo = optimal_block_geometry(memory, n, n_v=args.n_v)
        print(
            f"N={n}: w={geo.width} h={geo.height} "
            f"(raw h={geo.raw_height:.2f}, regime={geo.regime.value})"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    for n in args.sizes:
        baseline = BaselineArchitecture(n).evaluate(max_requests=args.max_requests)
        optimized = OptimizedArchitecture(n).evaluate(max_requests=args.max_requests)
        print(format_table2([(baseline, optimized)], title=f"Simulated N={n}"))
        if args.metrics:
            print()
            print(_column_phase_metrics(n, args.max_requests))
        print()
    return 0


def _instrumented_column_run(
    n: int, layout_kind: str, max_requests: int, discipline: str | None = None
):
    """Column-phase run of one layout with an event recorder attached.

    Returns ``(recorder, spans, stats, discipline, memory)`` for the
    exactly-simulated (unextrapolated) request prefix, so recorded event
    counts agree with the returned :class:`AccessStats` counters.
    """
    from repro.core.simulate import column_phase_trace
    from repro.memory3d import Memory3D
    from repro.obs import EventTrace, SpanTimeline

    config = SystemConfig()
    recorder = EventTrace()
    spans = SpanTimeline()
    memory = Memory3D(config.memory, recorder=recorder)
    with spans.span("trace-run", size=n, layout=layout_kind):
        with spans.span("generate-trace"):
            phase = column_phase_trace(
                config, n, layout_kind, max_requests, discipline=discipline
            )
        with spans.span(
            "simulate", requests=len(phase.prefix), discipline=phase.discipline
        ):
            stats = memory.simulate(phase.prefix, phase.discipline)
    return recorder, spans, stats, phase.discipline, memory


def _column_phase_metrics(n: int, max_requests: int) -> str:
    """Metrics-registry dump of instrumented baseline + DDL column phases."""
    from repro.obs import MetricsRegistry

    sections = []
    for layout_kind in ("row-major", "ddl"):
        recorder, _, stats, discipline, _ = _instrumented_column_run(
            n, layout_kind, max_requests
        )
        registry = recorder.to_metrics(MetricsRegistry())
        registry.gauge(
            "memory.bandwidth_gbps", help="achieved bandwidth (GB/s)"
        ).set(stats.bandwidth_bytes_per_s / 1e9)
        sections.append(
            f"### Column-phase metrics, N={n}, {layout_kind} ({discipline})\n\n"
            + registry.render_markdown()
        )
    return "\n\n".join(sections)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        event_summary_table,
        vault_utilization_table,
        write_chrome_trace,
    )

    recorder, spans, stats, discipline, memory = _instrumented_column_run(
        args.size, args.layout, args.max_requests, discipline=args.discipline
    )
    print(
        f"N={args.size} {args.layout} column phase ({discipline}): "
        f"{stats.requests:,} requests in {stats.elapsed_ns:,.0f} ns "
        f"({stats.bandwidth_gbps:.2f} GB/s, "
        f"{100 * stats.row_hit_rate:.1f}% row hits)"
    )
    print()
    print(event_summary_table(recorder))
    print()
    print(vault_utilization_table(recorder, stats.elapsed_ns, memory.config))
    if args.metrics:
        print()
        print(recorder.to_metrics(MetricsRegistry()).render_markdown())
    if args.out:
        write_chrome_trace(
            args.out,
            recorder,
            spans=spans,
            metadata={
                "size": args.size,
                "layout": args.layout,
                "discipline": discipline,
                "requests": stats.requests,
            },
        )
        print(f"\nwrote {args.out} ({len(recorder):,} events)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.framework import (
        LayoutPlanner,
        fft2d_spec,
        matmul_spec,
        transpose_spec,
    )

    specs = {
        "fft2d": fft2d_spec,
        "transpose": transpose_spec,
        "matmul": matmul_spec,
    }
    planner = LayoutPlanner(pact15_hmc_config(), sample_requests=args.max_requests)
    for n in args.sizes:
        spec = specs[args.kernel](n)
        print(spec.describe())
        print(planner.plan(spec).describe())
        print()
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.energy import column_energy_comparison

    for n in args.sizes:
        energy = column_energy_comparison(SystemConfig(), n, args.max_requests)
        print(f"N={n}, column phase over {energy.columns} columns:")
        print(f"  baseline: {energy.baseline.summary()}")
        print(f"  DDL     : {energy.ddl.summary()}")
        print(f"  ratio   : {energy.ratio:.1f}x")
        print()
    return 0


def _cmd_fft3d(args: argparse.Namespace) -> int:
    from repro.fft.fft3d import FFT3DModel

    model = FFT3DModel()
    print(f"{'N^3':>7s} {'baseline':>10s} {'optimized':>10s} {'improvement':>12s}")
    for n in args.sizes:
        base = model.baseline(n)
        opt = model.optimized(n)
        print(
            f"{n:>5d}^3 {base.throughput_gbps:>9.2f}G {opt.throughput_gbps:>9.2f}G "
            f"{opt.improvement_over(base):>11.1f}%"
        )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.simulate import phase_trace
    from repro.layouts import BlockDDLLayout, RowMajorLayout
    from repro.memory3d import Memory3D
    from repro.viz import sparkline

    config = SystemConfig()
    memory = Memory3D(config.memory)
    peak = config.memory.peak_bandwidth
    for n in args.sizes:
        geo = optimal_block_geometry(config.memory, n)
        phases = {
            "baseline ": phase_trace(
                RowMajorLayout(n, n), "column-walk", args.max_requests, units=4
            ),
            "optimized": phase_trace(
                BlockDDLLayout(n, n, geo.width, geo.height), "block-reads",
                args.max_requests, streams=config.column_streams,
            ),
        }
        print(f"N={n} column-phase bandwidth over time "
              f"({args.bucket_ns:.0f} ns buckets, % of peak):")
        for label, phase in phases.items():
            rates = memory.bandwidth_timeline(
                phase.prefix, phase.discipline, bucket_ns=args.bucket_ns
            )
            print(f"  {label}: {sparkline((rates / peak).tolist(), bounds=(0, 1))} "
                  f"(mean {100 * rates.mean() / peak:.1f}%)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import validate_model

    report = validate_model(
        sizes=tuple(args.sizes), max_requests=args.max_requests
    )
    print(report.describe())
    return 0 if report.max_relative_error < 0.05 else 1


def _sweep_cache(args: argparse.Namespace):
    """The ResultCache the flags ask for (None when caching is off)."""
    from repro.sweep import ResultCache

    if getattr(args, "no_cache", False) or not args.cache_dir:
        return None
    return ResultCache(args.cache_dir)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.reporting import reproduce_report

    report = reproduce_report(
        sizes=tuple(args.sizes),
        max_requests=args.max_requests,
        jobs=args.jobs,
        cache=_sweep_cache(args),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _write_sweep_telemetry(args: argparse.Namespace, result) -> None:
    """Export a telemetry-enabled sweep's trace and OpenMetrics files.

    Notices go to stderr under ``--json`` so stdout stays a parseable
    result document.
    """
    from repro.obs import MetricsRegistry, write_openmetrics

    chatter = sys.stderr if args.json else sys.stdout
    trace_path = args.trace_out or "sweep-trace.json"
    result.telemetry.write_chrome_trace(
        trace_path,
        metadata={
            "points": len(result.results),
            "jobs": result.meta["jobs"],
        },
    )
    print(
        f"wrote {trace_path} ({result.telemetry.summary()})", file=chatter
    )
    metrics_path = args.openmetrics_out or "sweep-metrics.prom"
    merged = MetricsRegistry().merge_snapshot(result.registry.as_dict())
    merged.merge_snapshot(result.telemetry.registry.as_dict())
    write_openmetrics(metrics_path, merged)
    print(f"wrote {metrics_path} ({len(merged)} metrics)", file=chatter)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        SweepGrid,
        WorkerChaos,
        load_grid_spec,
        run_sweep,
    )

    if args.spec:
        grid = load_grid_spec(args.spec)
    else:
        heights = tuple(args.heights) if args.heights else (None,)
        grid = SweepGrid(
            sizes=tuple(args.sizes),
            layouts=tuple(args.layouts),
            heights=heights,
            whole_blocks=not args.partial_blocks,
        )
    policy = None
    if args.timeout is not None or args.retries:
        policy = _retry_policy(args)
    chaos = None
    if args.chaos_fail or args.chaos_hang:
        chaos = WorkerChaos(
            fail_points=tuple(args.chaos_fail or ()),
            hang_points=tuple(args.chaos_hang or ()),
            fail_attempts=args.chaos_fail_attempts,
            hang_s=args.chaos_hang_s,
        )
    telemetry_requested = bool(
        args.telemetry or args.trace_out or args.openmetrics_out
    )
    monitor = None
    status = None
    chatter = sys.stderr if args.json else sys.stdout
    if args.monitor is not None:
        from repro.obs import SweepMonitor, SweepStatus

        status = SweepStatus()
        monitor = SweepMonitor(status, port=args.monitor).start()
        print(
            f"monitoring at {monitor.url} ({' '.join(monitor.endpoints())})",
            file=chatter,
        )
    try:
        result = run_sweep(
            grid,
            max_requests=args.max_requests,
            jobs=args.jobs,
            cache=_sweep_cache(args),
            policy=policy,
            chaos=chaos,
            checkpoint=args.checkpoint,
            resume=args.resume,
            # The monitor needs telemetry so worker identities flow back,
            # but only the explicit flags trigger the trace/metrics files.
            telemetry=telemetry_requested or monitor is not None,
            status=status,
            engine=args.engine,
        )
        _print_sweep(args, result, telemetry_requested)
        if monitor is not None:
            _linger(monitor, chatter)
    finally:
        if monitor is not None:
            monitor.close()
    return 0


def _linger(monitor: SweepMonitor, chatter: TextIO) -> None:
    """Keep a finished sweep's monitor up for :data:`MONITOR_LINGER_S`."""
    import time

    print(
        f"sweep done; {monitor.url} stays up {MONITOR_LINGER_S:g} s "
        "(Ctrl-C to stop)",
        file=chatter,
        flush=True,
    )
    sys.stdout.flush()
    try:
        time.sleep(MONITOR_LINGER_S)
    except KeyboardInterrupt:
        pass


def _print_sweep(
    args: argparse.Namespace, result: SweepResult, telemetry_requested: bool
) -> None:
    """Write and print a finished sweep the way the flags ask."""
    if result.telemetry is not None and telemetry_requested:
        _write_sweep_telemetry(args, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"wrote {args.out} ({result.describe_run()})")
    if args.json:
        print(result.to_json(), end="")
    elif not args.out:
        print(result.render_markdown())
        print()
        print(f"({result.describe_run()})")
    if result.failures and not args.json:
        print()
        print(f"quarantined {len(result.failures)} point(s):")
        for failure in result.failures:
            point = failure["point"]
            print(
                f"  - point {failure['index']} "
                f"(N={point['n']} {point['layout']}): "
                f"{failure['error']}: {failure['message']} "
                f"[{failure['attempts']} attempt(s)]"
            )
    if args.metrics:
        print()
        print(result.registry.render_markdown())


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracectx import RequestTracer
    from repro.serve import CircuitBreaker, PlanService, serve_forever

    service = PlanService(
        cache=_sweep_cache(args),
        policy=_retry_policy(args),
        jobs=args.jobs if args.jobs > 0 else 4,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline,
        drain_s=args.drain,
        breaker=CircuitBreaker(
            threshold=args.breaker_threshold,
            reset_s=args.breaker_reset,
        ),
        engine=args.engine,
        tracer=None if args.no_trace else RequestTracer(),
        recorder=FlightRecorder(out_dir=args.flight_dir),
    )
    return serve_forever(
        service, port=args.port, host=args.host, announce=sys.stderr
    )


def _cmd_bundle(args: argparse.Namespace) -> int:
    import json
    import urllib.request

    from repro.obs.flight import (
        FlightError,
        load_flight_bundle,
        render_flight_bundle,
        validate_flight_bundle,
    )

    if args.inspect:
        print(render_flight_bundle(load_flight_bundle(args.inspect)))
        return 0
    url = args.url.rstrip("/") + "/debug/bundle"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            bundle = json.load(resp)
    except (OSError, ValueError) as exc:
        raise FlightError(f"cannot fetch {url} ({exc})") from exc
    validate_flight_bundle(bundle)
    name = bundle.get("trace_id") or bundle.get("trigger") or "bundle"
    out = args.out or f"flight-{name}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    if args.show:
        print()
        print(render_flight_bundle(bundle))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.obs import render_status_line
    from repro.obs.monitor import MonitorError

    url = args.url.rstrip("/") + "/status"
    seen = False
    failures = 0
    while True:
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as resp:
                snapshot = json.load(resp)
        except (OSError, ValueError) as exc:
            if seen and not args.once:
                # The server vanished after serving us: the monitored
                # sweep (and its embedded server) finished.
                print()
                print(f"monitor at {args.url} went away (run finished)")
                return 0
            # Not up yet (connection refused/reset): retry on a bounded
            # deterministic schedule before giving up.
            failures += 1
            if failures <= args.retries:
                time.sleep(args.retry_interval)
                continue
            raise MonitorError(
                f"cannot poll {url} after {failures} attempt(s) ({exc})"
            ) from exc
        seen = True
        failures = 0
        line = render_status_line(snapshot)
        if args.once:
            print(line)
            return 0
        sys.stdout.write("\r\x1b[K" + line)
        sys.stdout.flush()
        if snapshot.get("state") == "done":
            print()
            return 0
        time.sleep(args.interval)


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.faults import (
        degradation_report,
        load_fault_plan,
        render_degradation,
    )

    plans = None
    if args.plan:
        plan = load_fault_plan(args.plan)
        plans = {plan.name: plan}
    report = degradation_report(
        n=args.size,
        max_requests=args.max_requests,
        seed=args.seed,
        plans=plans,
    )
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = render_degradation(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_run_report
    from repro.sweep import SweepGrid, run_sweep

    telemetry = None
    if not args.no_sweep:
        sweep = run_sweep(
            SweepGrid(sizes=(args.size,), layouts=("row-major", "ddl")),
            max_requests=args.max_requests,
            jobs=args.jobs,
            telemetry=True,
        )
        telemetry = sweep.telemetry
    html_text = build_run_report(
        n=args.size,
        max_requests=args.max_requests,
        telemetry=telemetry,
        include_faults=not args.no_faults,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html_text)
    print(f"wrote {args.out} ({len(html_text):,} bytes)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        FAMILY_TITLES,
        changed_python_files,
        default_lint_paths,
        rule_catalog,
        rule_family,
        run_lint,
    )

    if args.list_rules:
        catalog = rule_catalog()
        families: dict[str, list[str]] = {}
        for rule_id in catalog:
            families.setdefault(rule_family(rule_id), []).append(rule_id)
        for family in sorted(families):
            title = FAMILY_TITLES.get(family, family)
            print(f"{family} — {title}")
            for rule_id in families[family]:
                rule_cls = catalog[rule_id]
                scope = (
                    "project-wide" if rule_cls.scope == "project" else "per-file"
                )
                print(f"  {rule_id}  [{scope}]  {rule_cls.title}")
        return 0
    root = Path.cwd()
    if args.changed_only:
        paths: list[Path] = [
            path
            for path in changed_python_files(base=args.base, root=root)
            if not args.paths
            or any(
                path.resolve().is_relative_to(Path(p).resolve())
                for p in args.paths
            )
        ]
        if not paths:
            print("lint: no changed Python files")
            return 0
    elif args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = default_lint_paths(root)
    report = run_lint(
        paths, rule_ids=args.rules, root=root, flow=not args.skip_flow
    )
    if args.format == "json":
        print(report.render_json(), end="")
    elif args.format == "sarif":
        print(report.render_sarif(), end="")
    else:
        print(report.render_text())
    return 0 if report.clean else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise errors with full tracebacks instead of the "
             "one-line exit-code-2 summary",
    )
    parser.add_argument(
        "--profile",
        type=float,
        default=None,
        metavar="HZ",
        help="sample the command with the built-in profiler at HZ and "
             "print a self-time table to stderr",
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        metavar="PATH",
        help="also write collapsed (folded) stacks for flamegraph tools",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable structured logging at this level (default: logging "
             "stays at the quiet warning threshold)",
    )
    parser.add_argument(
        "--log-out",
        type=str,
        default=None,
        metavar="PATH",
        help="append structured JSONL log records to this file "
             "(implies --log-level info unless given)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="reproduce Table 1 (analytic model)")
    _add_sizes(p1)
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="reproduce Table 2 (analytic model)")
    _add_sizes(p2)
    p2.set_defaults(func=_cmd_table2)

    pm = sub.add_parser("describe-memory", help="3D memory organisation")
    pm.set_defaults(func=_cmd_describe_memory)

    pk = sub.add_parser("kernel", help="FFT kernel resource model")
    _add_sizes(pk)
    pk.set_defaults(func=_cmd_kernel)

    pg = sub.add_parser("geometry", help="Eq. (1) block geometry")
    _add_sizes(pg)
    pg.add_argument("--n-v", type=int, default=1, help="vaults per stream")
    pg.set_defaults(func=_cmd_geometry)

    ps = sub.add_parser("simulate", help="trace-driven validation")
    _add_sizes(ps)
    ps.add_argument(
        "--max-requests",
        type=int,
        default=262_144,
        help="exactly-simulated requests per phase (rest extrapolated)",
    )
    ps.add_argument(
        "--metrics",
        action="store_true",
        help="also print instrumented column-phase metrics tables",
    )
    ps.set_defaults(func=_cmd_simulate)

    pp = sub.add_parser("plan", help="automatic layout optimization")
    _add_sizes(pp)
    pp.add_argument(
        "--kernel",
        choices=["fft2d", "transpose", "matmul"],
        default="fft2d",
        help="which kernel spec to plan for",
    )
    pp.add_argument("--max-requests", type=int, default=65_536)
    pp.set_defaults(func=_cmd_plan)

    pe = sub.add_parser("energy", help="column-phase energy comparison")
    _add_sizes(pe)
    pe.add_argument("--max-requests", type=int, default=65_536)
    pe.set_defaults(func=_cmd_energy)

    p3 = sub.add_parser("fft3d", help="three-phase 3D FFT model")
    _add_sizes(p3)
    p3.set_defaults(func=_cmd_fft3d)

    pt = sub.add_parser("timeline", help="bandwidth-over-time sparklines")
    _add_sizes(pt)
    pt.add_argument("--bucket-ns", type=float, default=500.0)
    pt.add_argument("--max-requests", type=int, default=32_768)
    pt.set_defaults(func=_cmd_timeline)

    pv = sub.add_parser("validate", help="analytic model vs simulator grid")
    _add_sizes(pv)
    pv.add_argument("--max-requests", type=int, default=65_536)
    pv.set_defaults(func=_cmd_validate)

    pr = sub.add_parser(
        "reproduce", help="regenerate every paper artifact as markdown"
    )
    _add_sizes(pr)
    pr.add_argument("--max-requests", type=int, default=131_072)
    pr.add_argument("--out", type=str, default=None,
                    help="write the report to a file instead of stdout")
    _add_sweep_exec_flags(pr)
    pr.set_defaults(func=_cmd_reproduce)

    pw = sub.add_parser(
        "sweep",
        help="parallel design-space sweep (N x layout x h x config)",
    )
    _add_sizes(pw)
    pw.add_argument(
        "--layouts",
        nargs="+",
        default=["row-major", "ddl"],
        help="layout names: row-major, ddl, or planner candidates "
             "(column-major, block-ddl-w4h8, ...)",
    )
    pw.add_argument(
        "--heights",
        type=int,
        nargs="+",
        default=None,
        help="block heights for the ddl layout (0 = the Eq. (1) choice)",
    )
    pw.add_argument(
        "--spec",
        type=str,
        default=None,
        help="JSON/TOML grid spec file (overrides --sizes/--layouts/--heights)",
    )
    pw.add_argument(
        "--partial-blocks",
        action="store_true",
        help="read column slices instead of whole blocks per block visit",
    )
    pw.add_argument("--max-requests", type=int, default=65_536)
    pw.add_argument(
        "--engine",
        choices=["exact", "vector"],
        default="vector",
        help="timing engine for workers: 'vector' (batch array pricer, "
             "default) or 'exact' (per-request reference loop); both "
             "produce byte-identical result documents",
    )
    pw.add_argument(
        "--out", type=str, default=None,
        help="write the deterministic result JSON here",
    )
    pw.add_argument(
        "--json",
        action="store_true",
        help="print the result JSON to stdout instead of the markdown table",
    )
    pw.add_argument(
        "--metrics",
        action="store_true",
        help="also print the merged cross-worker metrics registry",
    )
    _add_sweep_exec_flags(pw)
    _add_retry_flags(pw, retries_default=0)
    pw.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="write periodic atomic progress snapshots to this file",
    )
    pw.add_argument(
        "--resume",
        action="store_true",
        help="replay completed points from --checkpoint before executing "
             "the remainder",
    )
    pw.add_argument(
        "--chaos-fail",
        type=int,
        nargs="+",
        default=None,
        metavar="INDEX",
        help="(testing) grid indices whose worker attempts raise",
    )
    pw.add_argument(
        "--chaos-hang",
        type=int,
        nargs="+",
        default=None,
        metavar="INDEX",
        help="(testing) grid indices whose worker attempts hang",
    )
    pw.add_argument(
        "--chaos-fail-attempts",
        type=int,
        default=None,
        help="(testing) attempts that fail before a chaos point recovers "
             "(default: all)",
    )
    pw.add_argument(
        "--chaos-hang-s",
        type=float,
        default=30.0,
        help="(testing) how long a hanging chaos attempt sleeps",
    )
    pw.add_argument(
        "--telemetry",
        action="store_true",
        help="record cross-process run telemetry and write the merged "
             "Chrome/Perfetto trace plus an OpenMetrics dump "
             "(sweep-trace.json / sweep-metrics.prom by default)",
    )
    pw.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="merged Chrome trace_event JSON path (implies --telemetry)",
    )
    pw.add_argument(
        "--openmetrics-out",
        type=str,
        default=None,
        help="OpenMetrics text exposition path (implies --telemetry)",
    )
    pw.add_argument(
        "--monitor",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live GET /status, /metrics and /logs on this port "
             "while the sweep runs (0 = ephemeral; enables telemetry)",
    )
    pw.set_defaults(func=_cmd_sweep)

    pz = sub.add_parser(
        "serve",
        help="resilient layout-planning HTTP service (POST /plan)",
    )
    pz.add_argument(
        "--port", type=int, default=8790,
        help="listen port (0 = ephemeral)",
    )
    pz.add_argument(
        "--host", type=str, default="127.0.0.1", help="listen address"
    )
    pz.add_argument(
        "--jobs", type=int, default=4,
        help="concurrent point computations (0 = default of 4)",
    )
    pz.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="max concurrently admitted requests; excess is shed with "
             "429 + Retry-After",
    )
    pz.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request wall-clock budget in seconds "
             "(requests may name their own deadline_s)",
    )
    pz.add_argument(
        "--drain",
        type=float,
        default=10.0,
        help="graceful-shutdown budget for draining in-flight requests",
    )
    _add_retry_flags(pz, retries_default=1)
    pz.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive worker failures that trip the circuit "
             "breaker into cache-only degraded mode",
    )
    pz.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="cool-down in seconds before the open breaker probes a "
             "worker again (half-open recovery)",
    )
    pz.add_argument(
        "--engine",
        choices=["exact", "vector"],
        default="vector",
        help="timing engine for workers (never affects results)",
    )
    pz.add_argument(
        "--cache-dir",
        type=str,
        default=".sweep-cache",
        help="on-disk result cache directory (shared with repro sweep)",
    )
    pz.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    pz.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing (trace_id envelopes remain; only "
             "the in-memory span rings are skipped)",
    )
    pz.add_argument(
        "--flight-dir",
        type=str,
        default=".",
        help="directory for crash-forensics flight-recorder bundles "
             "(flight-<trace_id>.json on quarantine/breaker-open/SIGTERM)",
    )
    pz.set_defaults(func=_cmd_serve)

    pb = sub.add_parser(
        "bundle",
        help="fetch a live flight-recorder bundle or inspect a saved one",
    )
    pb.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:8790",
        help="base URL of a running repro serve or sweep monitor "
             "(GET /debug/bundle)",
    )
    pb.add_argument(
        "--inspect",
        type=str,
        default=None,
        metavar="PATH",
        help="pretty-print a saved flight-<trace_id>.json instead of "
             "fetching one",
    )
    pb.add_argument(
        "--out", type=str, default=None,
        help="output path for the fetched bundle "
             "(default: flight-<trace_id>.json)",
    )
    pb.add_argument(
        "--show",
        action="store_true",
        help="also pretty-print the fetched bundle after writing it",
    )
    pb.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-request timeout in seconds",
    )
    pb.set_defaults(func=_cmd_bundle)

    pq = sub.add_parser(
        "tail",
        help="poll a monitored sweep's /status and render live progress",
    )
    pq.add_argument(
        "--url",
        type=str,
        required=True,
        help="base URL of the monitor (e.g. http://127.0.0.1:8787)",
    )
    pq.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between polls",
    )
    pq.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-request timeout in seconds",
    )
    pq.add_argument(
        "--once",
        action="store_true",
        help="print one status line and exit instead of live-updating",
    )
    pq.add_argument(
        "--retries",
        type=int,
        default=5,
        help="connection attempts before giving up when the monitor "
             "is not (yet) reachable",
    )
    pq.add_argument(
        "--retry-interval",
        type=float,
        default=0.5,
        help="fixed delay in seconds between connection retries",
    )
    pq.set_defaults(func=_cmd_tail)

    pf = sub.add_parser(
        "faults",
        help="layout degradation under injected memory faults",
    )
    pf.add_argument("--size", type=int, default=512, help="2D FFT size N")
    pf.add_argument("--max-requests", type=int, default=32_768)
    pf.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (deterministic)"
    )
    pf.add_argument(
        "--plan",
        type=str,
        default=None,
        help="JSON/TOML fault-plan spec file (default: the built-in "
             "single-injector plans, one per fault class)",
    )
    pf.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of markdown",
    )
    pf.add_argument(
        "--out", type=str, default=None,
        help="write the report to a file instead of stdout",
    )
    pf.set_defaults(func=_cmd_faults)

    px = sub.add_parser(
        "trace", help="record one run, export Chrome trace + metrics"
    )
    px.add_argument("--size", type=int, default=2048, help="2D FFT size N")
    px.add_argument(
        "--layout",
        choices=["row-major", "ddl"],
        default="ddl",
        help="data layout for the column-phase run",
    )
    px.add_argument(
        "--discipline",
        choices=["in_order", "per_vault"],
        default=None,
        help="override the layout's default issue discipline",
    )
    px.add_argument("--max-requests", type=int, default=65_536)
    px.add_argument(
        "--metrics",
        action="store_true",
        help="also print the metrics-registry dump",
    )
    px.add_argument(
        "--out", type=str, default=None,
        help="write a Chrome trace_event JSON (Perfetto-loadable) here",
    )
    px.set_defaults(func=_cmd_trace)

    ph = sub.add_parser(
        "report",
        help="self-contained static HTML run report (no server needed)",
    )
    ph.add_argument(
        "--html",
        action="store_true",
        help="emit HTML (the only format today; kept explicit for "
             "forward compatibility)",
    )
    ph.add_argument(
        "--out", type=str, default="run-report.html",
        help="output HTML path",
    )
    ph.add_argument("--size", type=int, default=512, help="2D FFT size N")
    ph.add_argument("--max-requests", type=int, default=32_768)
    ph.add_argument(
        "--jobs", type=int, default=1,
        help="workers for the embedded telemetry sweep",
    )
    ph.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed for the degradation section",
    )
    ph.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the (expensive) fault-degradation section",
    )
    ph.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the embedded telemetry sweep / timeline section",
    )
    ph.set_defaults(func=_cmd_report)

    pl = sub.add_parser(
        "lint",
        help="repo-specific static analysis (determinism, units, schema)",
    )
    pl.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro and tools)",
    )
    pl.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="diagnostics output format (sarif: SARIF 2.1.0 for code "
             "scanning upload)",
    )
    pl.add_argument(
        "--skip-flow",
        action="store_true",
        help="skip the project-wide (cross-module) rule pass; per-file "
             "rules only — for linting partial file subsets",
    )
    pl.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE-ID",
        help="run only these rule ids (default: the full battery)",
    )
    pl.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only Python files changed relative to --base "
             "(plus untracked files)",
    )
    pl.add_argument(
        "--base",
        type=str,
        default="HEAD",
        help="git revision (or A...B range) --changed-only diffs against",
    )
    pl.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    pl.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Expected failures (any :class:`~repro.errors.ReproError`: bad specs,
    invalid grids, corrupt checkpoints, ...) become a one-line stderr
    message and exit code 2; ``--debug`` re-raises them with the full
    traceback.  Genuine bugs always propagate.
    """
    args = build_parser().parse_args(argv)
    if args.log_level or args.log_out:
        from repro.obs.logging import configure_logging

        # Registers the shutdown hook with atexit exactly once per
        # process, however many times the CLI runs in it.
        configure_logging(
            level=args.log_level or "info", log_path=args.log_out
        )
    profiler = None
    try:
        if args.profile:
            from repro.obs.profile import SamplingProfiler

            profiler = SamplingProfiler(hz=args.profile).start()
        code = args.func(args)
        # Shutdown order when --profile/--monitor/--telemetry compose:
        # the monitor server closed inside the command, the profiler
        # stops and reports here, and the log sinks flush last (below).
        if profiler is not None:
            profiler.stop()
            if args.profile_out:
                with open(args.profile_out, "w", encoding="utf-8") as handle:
                    handle.write(profiler.collapsed() + "\n")
                print(f"wrote {args.profile_out}", file=sys.stderr)
            print(profiler.top_table(), file=sys.stderr)
        return code
    except ReproError as exc:
        if args.debug:
            raise
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if profiler is not None:
            profiler.stop()
        from repro.obs.logging import shutdown_logging

        shutdown_logging()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
