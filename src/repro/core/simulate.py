"""Trace-driven phase simulation.

These drivers generate the real access traces of each phase, run them
through the 3D-memory timing simulator and package the result as
:class:`~repro.core.metrics.PhaseMetrics`.  Because the patterns are
periodic in the device geometry, large problems are simulated on a
representative slice (a few columns, block rows or DDL block visits) and
extrapolated -- ``max_requests`` caps how many requests are simulated
exactly, only those requests are generated, and the test suite validates
the extrapolation against full runs at small sizes.

Every driver takes ``engine`` (``"exact"`` or ``"vector"``) and forwards
it to :meth:`Memory3D.simulate`; the engines are stat-for-stat
equivalent (CI's ``engine-equivalence`` gate), so the choice is purely a
throughput knob.  The sweep workers default to ``"vector"``; these
drivers default to ``"exact"`` so direct callers keep the reference
path unless they opt in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.core.metrics import PhaseMetrics
from repro.errors import SimulationError
from repro.fft.kernel1d import KernelHardwareModel
from repro.layouts.block_ddl import BlockDDLLayout
from repro.layouts.optimizer import optimal_block_geometry
from repro.layouts.row_major import RowMajorLayout
from repro.memory3d.memory import Memory3D
from repro.memory3d.stats import AccessStats
from repro.obs.spans import SpanTimeline, span_or_null
from repro.trace.generators import (
    block_column_read_trace,
    block_write_trace,
    column_walk_trace,
    row_walk_trace,
)
from repro.units import ELEMENT_BYTES

#: Default cap on exactly-simulated requests per phase.
DEFAULT_SAMPLE_REQUESTS = 262_144


def _kernel_time_ns(config: SystemConfig, n: int, n_bytes: int) -> float:
    return n_bytes / config.kernel.throughput_bytes_per_s(n) * 1e9


def _fill_latency_ns(config: SystemConfig, n: int) -> float:
    kernel = config.kernel
    model = KernelHardwareModel(
        n=n, radix=kernel.radix, lanes=kernel.lanes, clock_hz=kernel.clock_for(n)
    )
    return model.latency_ns


def _sampled(stats: AccessStats, simulated: int, total: int) -> AccessStats:
    if simulated >= total:
        return stats
    return stats.scaled(total / simulated)


def simulate_baseline_column_phase(
    config: SystemConfig,
    n: int,
    max_requests: int = DEFAULT_SAMPLE_REQUESTS,
    spans: SpanTimeline | None = None,
    engine: str = "exact",
) -> PhaseMetrics:
    """Phase 2 of the baseline: stride-``n`` walks over a row-major image.

    Pass a :class:`~repro.obs.spans.SpanTimeline` to time the trace
    generation and engine run as nested host-time spans.
    """
    memory = Memory3D(config.memory)
    layout = RowMajorLayout(n, n)
    total = n * n
    sample_cols = max(1, min(n, max_requests // n))
    with span_or_null(spans, "column-phase/baseline", n=n):
        with span_or_null(spans, "generate-trace", cols=sample_cols):
            trace = column_walk_trace(layout, cols=range(sample_cols))
        with span_or_null(spans, "simulate", requests=len(trace)):
            stats = _sampled(
                memory.simulate(trace, "in_order", engine=engine),
                len(trace),
                total,
            )
    # After extrapolation, elapsed covers all n uniform columns.
    first_column_ns = stats.elapsed_ns / n
    return PhaseMetrics(
        name="column",
        n_bytes=total * ELEMENT_BYTES,
        memory_time_ns=stats.elapsed_ns,
        kernel_time_ns=_kernel_time_ns(config, n, total * ELEMENT_BYTES),
        first_output_latency_ns=first_column_ns + _fill_latency_ns(config, n),
        stats=stats,
    )


def simulate_optimized_column_phase(
    config: SystemConfig,
    n: int,
    layout: BlockDDLLayout,
    whole_blocks: bool = True,
    max_requests: int = DEFAULT_SAMPLE_REQUESTS,
    spans: SpanTimeline | None = None,
    engine: str = "exact",
) -> PhaseMetrics:
    """Phase 2 under the DDL: parallel block-column streams, per-vault queues.

    Pass a :class:`~repro.obs.spans.SpanTimeline` to time the trace
    generation and engine run as nested host-time spans.
    """
    if (layout.n_rows, layout.n_cols) != (n, n):
        raise SimulationError(
            f"layout covers {layout.n_rows}x{layout.n_cols}, expected {n}x{n}"
        )
    memory = Memory3D(config.memory)
    streams = min(config.column_streams, layout.blocks_per_row_band)
    total = n * n
    # One "round" of streams covers `streams` block columns.
    round_elements = streams * layout.n_block_rows * layout.block_elements
    rounds_total = max(1, layout.blocks_per_row_band // streams)
    with span_or_null(spans, "column-phase/ddl", n=n, streams=streams):
        with span_or_null(spans, "generate-trace"):
            trace = block_column_read_trace(
                layout,
                n_streams=streams,
                whole_blocks=whole_blocks,
                block_cols=range(streams),
                # As with Memory3D.simulate(sample=...), a cap of zero or
                # less simulates the whole round.
                limit=max_requests if max_requests > 0 else None,
            )
        with span_or_null(spans, "simulate", requests=len(trace)):
            stats = memory.simulate(trace, "per_vault", engine=engine)
        # Prefix -> one round -> every round.
        stats = _sampled(stats, len(trace), round_elements)
        stats = _sampled(stats, round_elements, rounds_total * round_elements)
    # First column: a stream fetches its block column's first N elements
    # (w*h per block visit) at the vault beat.
    first_column_ns = n * layout.width * config.memory.timing.t_in_row
    return PhaseMetrics(
        name="column",
        n_bytes=total * ELEMENT_BYTES,
        memory_time_ns=stats.elapsed_ns,
        kernel_time_ns=_kernel_time_ns(config, n, total * ELEMENT_BYTES),
        first_output_latency_ns=first_column_ns + _fill_latency_ns(config, n),
        stats=stats,
    )


@dataclass(frozen=True)
class ColumnPhaseRun:
    """A column-phase simulation plus the resolved run parameters.

    ``height``/``width`` are the realised block shape for blocked layouts
    (``None`` for flat layouts); ``discipline`` is the issue discipline
    the run used.  The sweep engine records these alongside the metrics
    so a result is interpretable without re-deriving Eq. (1).
    """

    metrics: PhaseMetrics
    layout: str
    discipline: str
    height: int | None = None
    width: int | None = None


def simulate_column_phase(
    config: SystemConfig,
    n: int,
    layout: str = "row-major",
    height: int | None = None,
    whole_blocks: bool = True,
    max_requests: int = DEFAULT_SAMPLE_REQUESTS,
    spans: SpanTimeline | None = None,
    engine: str = "exact",
) -> ColumnPhaseRun:
    """Phase 2 of the application under a named data layout.

    The single dispatch point the design-space sweep engine fans out over:

    * ``"row-major"`` -- the baseline stride-``n`` column walk
      (:func:`simulate_baseline_column_phase`);
    * ``"ddl"`` -- the paper's block DDL with ``height`` rows per block
      (``None`` applies Eq. (1)); runs
      :func:`simulate_optimized_column_phase`;
    * any candidate name from
      :func:`repro.framework.planner.layout_candidates_by_name`
      (``"column-major"``, ``"tiled-1x32"``, ``"block-ddl-w4h8"``, ...) --
      blocked candidates take the optimized path, flat candidates a
      sequential column walk.
    """
    if layout == "row-major":
        metrics = simulate_baseline_column_phase(
            config, n, max_requests=max_requests, spans=spans, engine=engine
        )
        return ColumnPhaseRun(metrics, layout, "in_order")
    s = config.memory.row_elements
    if layout == "ddl":
        if height is None:
            height = optimal_block_geometry(config.memory, n).height
        if height <= 0 or s % height:
            raise SimulationError(
                f"block height {height} must divide the {s}-element row buffer"
            )
        block = BlockDDLLayout(n, n, s // height, height)
        metrics = simulate_optimized_column_phase(
            config, n, block, whole_blocks=whole_blocks,
            max_requests=max_requests, spans=spans, engine=engine,
        )
        return ColumnPhaseRun(
            metrics, layout, "per_vault", height=block.height, width=block.width
        )
    # Named candidate from the planner's enumeration.
    from repro.framework.planner import layout_candidates_by_name

    candidates = layout_candidates_by_name(config.memory, n, n)
    if layout not in candidates:
        raise SimulationError(
            f"unknown layout {layout!r} for N={n}; expected 'row-major', "
            f"'ddl' or one of {sorted(candidates)}"
        )
    built = candidates[layout].build(n, n)
    if isinstance(built, BlockDDLLayout):
        metrics = simulate_optimized_column_phase(
            config, n, built, whole_blocks=whole_blocks,
            max_requests=max_requests, spans=spans, engine=engine,
        )
        return ColumnPhaseRun(
            metrics, layout, "per_vault", height=built.height, width=built.width
        )
    memory = Memory3D(config.memory)
    total = n * n
    sample_cols = max(1, min(n, max_requests // n))
    with span_or_null(spans, f"column-phase/{layout}", n=n):
        with span_or_null(spans, "generate-trace", cols=sample_cols):
            trace = column_walk_trace(built, cols=range(sample_cols))
        with span_or_null(spans, "simulate", requests=len(trace)):
            stats = _sampled(
                memory.simulate(trace, "in_order", engine=engine),
                len(trace),
                total,
            )
    metrics = PhaseMetrics(
        name="column",
        n_bytes=total * ELEMENT_BYTES,
        memory_time_ns=stats.elapsed_ns,
        kernel_time_ns=_kernel_time_ns(config, n, total * ELEMENT_BYTES),
        first_output_latency_ns=stats.elapsed_ns / n + _fill_latency_ns(config, n),
        stats=stats,
    )
    return ColumnPhaseRun(metrics, layout, "in_order")


def simulate_row_phase(
    config: SystemConfig,
    n: int,
    layout: BlockDDLLayout | None = None,
    max_requests: int = DEFAULT_SAMPLE_REQUESTS,
    spans: SpanTimeline | None = None,
    engine: str = "exact",
) -> PhaseMetrics:
    """Phase 1: streaming writes of row-FFT results.

    Baseline (``layout=None``) writes row-major; the optimized
    architecture writes staged block slabs.  Both are near-peak streams.
    Pass a :class:`~repro.obs.spans.SpanTimeline` to time the trace
    generation and engine run as nested host-time spans.
    """
    memory = Memory3D(config.memory)
    total = n * n
    variant = "baseline" if layout is None else "ddl"
    with span_or_null(spans, f"row-phase/{variant}", n=n):
        with span_or_null(spans, "generate-trace"):
            if layout is None:
                plain = RowMajorLayout(n, n)
                sample_rows = max(1, min(n, max_requests // n))
                trace = row_walk_trace(
                    plain, rows=range(sample_rows), is_write=True
                )
                simulated = len(trace)
            else:
                if (layout.n_rows, layout.n_cols) != (n, n):
                    raise SimulationError(
                        f"layout covers {layout.n_rows}x{layout.n_cols}, "
                        f"expected {n}x{n}"
                    )
                slab = layout.height * n
                sample_slabs = max(
                    1, min(layout.n_block_rows, max_requests // slab)
                )
                trace = block_write_trace(layout, block_rows=range(sample_slabs))
                simulated = len(trace)
        with span_or_null(spans, "simulate", requests=simulated):
            stats = _sampled(
                memory.simulate(trace, "per_vault", engine=engine),
                simulated,
                total,
            )
    first_row_ns = n * ELEMENT_BYTES / config.kernel.throughput_bytes_per_s(n) * 1e9
    return PhaseMetrics(
        name="row",
        n_bytes=total * ELEMENT_BYTES,
        memory_time_ns=stats.elapsed_ns,
        kernel_time_ns=_kernel_time_ns(config, n, total * ELEMENT_BYTES),
        first_output_latency_ns=first_row_ns + _fill_latency_ns(config, n),
        stats=stats,
    )
