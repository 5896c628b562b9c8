"""Trace-driven phase simulation and the one phase-trace builder.

Every caller that prices a column- or row-phase access pattern -- the
phase drivers below, the CLI, both reports, the fault-degradation
report, the matmul model and the layout planner -- builds it with
:func:`phase_trace`.  The builder returns a :class:`PhaseTrace`: the
``prefix`` to simulate (nothing past it is generated), its issue
``discipline`` and the closed-form ``extent``, the request count of the
whole walk or round the prefix stands for.  :meth:`PhaseTrace.price`
runs the prefix and extrapolates it to the extent in one step; the walk
drivers pass the whole ``N x N`` phase as the extent, and the DDL driver
scales its one round of block columns up to every round.  The patterns
are periodic in the device geometry, and the test suite validates the
extrapolation against full runs at small sizes.  The request cap must
be positive: :func:`phase_trace` raises
:class:`~repro.errors.ConfigError` for ``max_requests <= 0``.

Every driver takes ``engine`` (``"exact"`` or ``"vector"``) and forwards
it to :meth:`Memory3D.simulate`; the engines are stat-for-stat
equivalent (CI's ``engine-equivalence`` gate), so the choice is purely a
throughput knob.  The sweep workers default to ``"vector"``; these
drivers default to ``"exact"`` so direct callers keep the reference
path unless they opt in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import SystemConfig
from repro.core.metrics import PhaseMetrics
from repro.errors import ConfigError, SimulationError
from repro.fft.kernel1d import KernelHardwareModel
from repro.layouts.base import Layout
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
from repro.trace.request import TraceArray
from repro.units import ELEMENT_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> core)
    from repro.faults.plan import FaultPlan

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


@dataclass(frozen=True)
class PhaseTrace:
    """The prefix to price, its discipline and the extent it stands for."""

    prefix: TraceArray
    discipline: str
    extent: int

    def price(
        self,
        memory: Memory3D,
        engine: str = "exact",
        fault_plan: FaultPlan | None = None,
    ) -> AccessStats:
        """Run the prefix on ``memory`` and extrapolate it to the extent."""
        stats = memory.simulate(
            self.prefix, self.discipline, fault_plan=fault_plan, engine=engine
        )
        return _sampled(stats, len(self.prefix), self.extent)


def _block_layout(layout: Layout, pattern: str) -> BlockDDLLayout:
    if not isinstance(layout, BlockDDLLayout):
        raise SimulationError(
            f"{pattern} needs a block DDL layout, got {type(layout).__name__}"
        )
    return layout


def phase_trace(
    layout: Layout,
    pattern: str,
    max_requests: int,
    units: int | None = None,
    streams: int = 1,
    discipline: str | None = None,
    whole_blocks: bool = True,
    is_write: bool = False,
) -> PhaseTrace:
    """The priced prefix of one phase access pattern under ``layout``.

    ``pattern`` is ``"column-walk"`` or ``"row-walk"`` (whole columns or
    rows, any layout), ``"block-writes"`` (DDL slabs of ``h`` rows, the
    optimized phase 1) or ``"block-reads"`` (one round of ``streams``
    parallel DDL block-column streams, clamped to the layout's block
    columns: the optimized phase 2).

    Block reads price the first ``max_requests`` requests of the round.
    Walks price the whole columns, rows or slabs that fit in
    ``max_requests`` (at least one) out of ``units``, the extent;
    ``units=None`` walks only those, so nothing is extrapolated.
    """
    if max_requests <= 0:
        raise ConfigError(f"max_requests must be positive, got {max_requests}")
    if pattern == "block-reads":
        block = _block_layout(layout, pattern)
        streams = min(streams, block.blocks_per_row_band)
        return PhaseTrace(
            block_column_read_trace(
                block,
                n_streams=streams,
                whole_blocks=whole_blocks,
                block_cols=range(streams),
                limit=max_requests,
            ),
            discipline or "per_vault",
            streams * block.n_block_rows * block.block_elements,
        )
    if pattern == "column-walk":
        unit, available = layout.n_rows, layout.n_cols
    elif pattern == "row-walk":
        unit, available = layout.n_cols, layout.n_rows
    elif pattern == "block-writes":
        slabs = _block_layout(layout, pattern)
        unit, available = slabs.height * slabs.n_cols, slabs.n_block_rows
    else:
        raise SimulationError(
            f"unknown phase pattern {pattern!r}; expected column-walk, "
            "row-walk, block-writes or block-reads"
        )
    count = max(1, min(units or available, max_requests // unit))
    if pattern == "column-walk":
        prefix = column_walk_trace(layout, cols=range(count), is_write=is_write)
    elif pattern == "row-walk":
        prefix = row_walk_trace(layout, rows=range(count), is_write=is_write)
    else:
        prefix = block_write_trace(slabs, block_rows=range(count))
    default = "per_vault" if pattern == "block-writes" else "in_order"
    return PhaseTrace(prefix, discipline or default, (units or count) * unit)


def column_phase_layout(
    config: SystemConfig, n: int, layout: str, height: int | None = None
) -> Layout:
    """The ``n x n`` layout of a column-phase layout name.

    ``"row-major"``, ``"ddl"`` (``height`` rows per block; ``None``
    applies Eq. (1)) or a planner candidate name (``"column-major"``,
    ``"tiled-1x32"``, ``"block-ddl-w4h8"``, ...).
    """
    if layout == "row-major":
        return RowMajorLayout(n, n)
    if layout == "ddl":
        s = config.memory.row_elements
        if height is None:
            height = optimal_block_geometry(config.memory, n).height
        if height <= 0 or s % height:
            raise SimulationError(
                f"block height {height} must divide the {s}-element row buffer"
            )
        return BlockDDLLayout(n, n, s // height, height)
    from repro.framework.planner import layout_candidates_by_name

    candidates = layout_candidates_by_name(config.memory, n, n)
    if layout not in candidates:
        raise SimulationError(
            f"unknown layout {layout!r} for N={n}; expected 'row-major', "
            f"'ddl' or one of {sorted(candidates)}"
        )
    return candidates[layout].build(n, n)


def column_phase_trace(
    config: SystemConfig,
    n: int,
    layout: str,
    max_requests: int,
    discipline: str | None = None,
) -> PhaseTrace:
    """The column-phase prefix of a named layout (:func:`column_phase_layout`).

    Blocked layouts read ``config.column_streams`` block-column streams;
    flat ones walk only the columns that fit in ``max_requests``.
    """
    built = column_phase_layout(config, n, layout)
    pattern = "block-reads" if isinstance(built, BlockDDLLayout) else "column-walk"
    return phase_trace(
        built, pattern, max_requests,
        streams=config.column_streams, discipline=discipline,
    )


def _phase_metrics(
    config: SystemConfig,
    n: int,
    name: str,
    stats: AccessStats,
    first_ns: float,
) -> PhaseMetrics:
    n_bytes = n * n * ELEMENT_BYTES
    return PhaseMetrics(
        name=name,
        n_bytes=n_bytes,
        memory_time_ns=stats.elapsed_ns,
        kernel_time_ns=_kernel_time_ns(config, n, n_bytes),
        first_output_latency_ns=first_ns + _fill_latency_ns(config, n),
        stats=stats,
    )


def _walk_column_phase(
    config: SystemConfig,
    n: int,
    layout: Layout,
    label: str,
    max_requests: int,
    spans: SpanTimeline | None,
    engine: str,
) -> PhaseMetrics:
    """Phase 2 as sequential column walks over a flat layout."""
    with span_or_null(spans, f"column-phase/{label}", n=n):
        with span_or_null(spans, "generate-trace"):
            phase = phase_trace(layout, "column-walk", max_requests, units=n)
        with span_or_null(spans, "simulate", requests=len(phase.prefix)):
            stats = phase.price(Memory3D(config.memory), engine)
    # After extrapolation, elapsed covers all n uniform columns.
    return _phase_metrics(config, n, "column", stats, stats.elapsed_ns / n)


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
    return _walk_column_phase(
        config, n, RowMajorLayout(n, n), "baseline", max_requests, spans, engine
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
    streams = min(config.column_streams, layout.blocks_per_row_band)
    rounds = max(1, layout.blocks_per_row_band // streams)
    with span_or_null(spans, "column-phase/ddl", n=n, streams=streams):
        with span_or_null(spans, "generate-trace"):
            phase = phase_trace(
                layout, "block-reads", max_requests,
                streams=streams, whole_blocks=whole_blocks,
            )
        with span_or_null(spans, "simulate", requests=len(phase.prefix)):
            stats = phase.price(Memory3D(config.memory), engine)
        # One round of streams -> every round.
        stats = _sampled(stats, phase.extent, rounds * phase.extent)
    # First column: a stream fetches its block column's first N elements
    # (w*h per block visit) at the vault beat.
    first_column_ns = n * layout.width * config.memory.timing.t_in_row
    return _phase_metrics(config, n, "column", stats, first_column_ns)


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

    The single dispatch point the design-space sweep engine fans out
    over.  ``layout`` is resolved by :func:`column_phase_layout`:
    blocked layouts (``"ddl"`` and the ``block-ddl-*`` candidates) take
    :func:`simulate_optimized_column_phase`, flat ones (``"row-major"``,
    ``"column-major"``, ``"tiled-1x32"``, ...) sequential column walks
    as in :func:`simulate_baseline_column_phase`.
    """
    built = column_phase_layout(config, n, layout, height)
    if isinstance(built, BlockDDLLayout):
        metrics = simulate_optimized_column_phase(
            config, n, built, whole_blocks=whole_blocks,
            max_requests=max_requests, spans=spans, engine=engine,
        )
        return ColumnPhaseRun(
            metrics, layout, "per_vault", height=built.height, width=built.width
        )
    label = "baseline" if layout == "row-major" else layout
    metrics = _walk_column_phase(
        config, n, built, label, max_requests, spans, engine
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
    if layout is not None and (layout.n_rows, layout.n_cols) != (n, n):
        raise SimulationError(
            f"layout covers {layout.n_rows}x{layout.n_cols}, expected {n}x{n}"
        )
    variant = "baseline" if layout is None else "ddl"
    with span_or_null(spans, f"row-phase/{variant}", n=n):
        with span_or_null(spans, "generate-trace"):
            if layout is None:
                phase = phase_trace(
                    RowMajorLayout(n, n), "row-walk", max_requests,
                    units=n, discipline="per_vault", is_write=True,
                )
            else:
                phase = phase_trace(
                    layout, "block-writes", max_requests,
                    units=layout.n_block_rows,
                )
        with span_or_null(spans, "simulate", requests=len(phase.prefix)):
            stats = phase.price(Memory3D(config.memory), engine)
    first_row_ns = _kernel_time_ns(config, n, n * ELEMENT_BYTES)
    return _phase_metrics(config, n, "row", stats, first_row_ns)
