"""The layout planner: score candidates, pick winners.

For every matrix of a :class:`~repro.framework.spec.KernelSpec`, the
planner generates each phase's real access trace under each candidate
layout, prices it on the trace-driven memory simulator (sampled), and
selects the layout with the highest combined throughput over the
matrix's phases (time-weighted: phases execute back to back, so the
score is total bytes over summed phase times).

Ties break toward the earliest candidate, which orders the simplest
layouts first -- a kernel that only ever streams rows gets row-major,
not an equally-fast but needlessly exotic blocked layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simulate import PhaseTrace, phase_trace
from repro.errors import ConfigError
from repro.framework.candidates import LayoutCandidate, candidate_layouts
from repro.framework.spec import AccessPattern, KernelSpec, PhaseSpec
from repro.layouts import BlockDDLLayout, Layout
from repro.memory3d.config import Memory3DConfig
from repro.memory3d.memory import Memory3D
from repro.obs.spans import SpanTimeline, span_or_null
from repro.trace.generators import tiled_walk_trace
from repro.units import ELEMENT_BYTES

#: Default cap on exactly-simulated requests per (phase, candidate).
DEFAULT_SAMPLE = 65_536


def layout_candidates_by_name(
    config: Memory3DConfig, n_rows: int, n_cols: int
) -> dict[str, LayoutCandidate]:
    """Candidate enumeration keyed by candidate name.

    The planner iterates this to score every candidate; the sweep engine
    (:mod:`repro.sweep`) uses the same enumeration to resolve explicit
    layout names (``"column-major"``, ``"block-ddl-w4h8"``, ...) so both
    subsystems agree on what a layout name means.
    """
    return {
        candidate.name: candidate
        for candidate in candidate_layouts(config, n_rows, n_cols)
    }


@dataclass(frozen=True)
class PlannedMatrix:
    """The planner's verdict for one matrix."""

    matrix: str
    layout_name: str
    candidate: LayoutCandidate
    throughput_bytes_per_s: float
    phase_utilization: dict[str, float]
    ranking: tuple[tuple[str, float], ...]

    def build_layout(self, n_rows: int, n_cols: int) -> Layout:
        """Instantiate the winning layout."""
        return self.candidate.build(n_rows, n_cols)


@dataclass(frozen=True)
class LayoutPlan:
    """Layouts for all matrices of a kernel."""

    kernel: str
    matrices: dict[str, PlannedMatrix]

    def describe(self) -> str:
        """Human-readable plan summary."""
        lines = [f"layout plan for {self.kernel}:"]
        for label, planned in self.matrices.items():
            utils = ", ".join(
                f"{name} {100 * u:.0f}%"
                for name, u in planned.phase_utilization.items()
            )
            lines.append(
                f"  {label}: {planned.layout_name} "
                f"({planned.throughput_bytes_per_s / 1e9:.1f} GB/s; {utils})"
            )
        return "\n".join(lines)


class LayoutPlanner:
    """Automatic data-layout optimization against a 3D memory model."""

    def __init__(
        self,
        config: Memory3DConfig,
        sample_requests: int = DEFAULT_SAMPLE,
        spans: SpanTimeline | None = None,
    ) -> None:
        if sample_requests <= 0:
            raise ConfigError("sample_requests must be positive")
        self.config = config
        self.memory = Memory3D(config)
        self.sample_requests = sample_requests
        #: Optional host-time timeline; when set, :meth:`plan` records a
        #: nested kernel -> matrix -> candidate span hierarchy.
        self.spans = spans

    # ------------------------------------------------------------------ plan
    def plan(self, kernel: KernelSpec) -> LayoutPlan:
        """Choose a layout for every matrix of the kernel."""
        with span_or_null(self.spans, f"plan/{kernel.name}"):
            planned = {
                label: self._plan_matrix(kernel, label, shape)
                for label, shape in kernel.matrices.items()
            }
        return LayoutPlan(kernel=kernel.name, matrices=planned)

    def _plan_matrix(
        self, kernel: KernelSpec, label: str, shape: tuple[int, int]
    ) -> PlannedMatrix:
        n_rows, n_cols = shape
        phases = kernel.phases_of(label)
        if not phases:
            raise ConfigError(
                f"kernel {kernel.name}: matrix {label} has no phases to plan for"
            )
        best: tuple[float, LayoutCandidate, dict[str, float]] | None = None
        ranking: list[tuple[str, float]] = []
        with span_or_null(
            self.spans, f"matrix/{label}", shape=f"{n_rows}x{n_cols}"
        ):
            for candidate in layout_candidates_by_name(
                self.config, n_rows, n_cols
            ).values():
                layout = candidate.build(n_rows, n_cols)
                with span_or_null(self.spans, f"score/{candidate.name}"):
                    throughput, utils = self._score(layout, phases)
                ranking.append((candidate.name, throughput))
                if best is None or throughput > best[0] * (1 + 1e-6):
                    best = (throughput, candidate, utils)
        assert best is not None  # candidate list is never empty
        throughput, candidate, utils = best
        ranking.sort(key=lambda item: item[1], reverse=True)
        return PlannedMatrix(
            matrix=label,
            layout_name=candidate.name,
            candidate=candidate,
            throughput_bytes_per_s=throughput,
            phase_utilization=utils,
            ranking=tuple(ranking),
        )

    # ----------------------------------------------------------------- score
    def _score(
        self, layout: Layout, phases: tuple[PhaseSpec, ...]
    ) -> tuple[float, dict[str, float]]:
        """Combined throughput over the matrix's phases under one layout."""
        peak = self.config.peak_bandwidth
        total_bytes = 0.0
        total_time_s = 0.0
        utils: dict[str, float] = {}
        for phase in phases:
            stats = self._phase_trace(layout, phase).price(self.memory)
            utilization = max(stats.utilization(peak), 1e-9)
            utils[phase.name] = min(utilization, 1.0)
            phase_bytes = phase.weight * layout.n_elements * ELEMENT_BYTES
            total_bytes += phase_bytes
            total_time_s += phase_bytes / (utilization * peak)
        return total_bytes / total_time_s, utils

    def _phase_trace(self, layout: Layout, phase: PhaseSpec) -> PhaseTrace:
        """The capped trace the phase would issue under the layout."""
        limit = self.sample_requests
        discipline = "per_vault" if phase.streams > 1 else "in_order"
        blocked = isinstance(layout, BlockDDLLayout) and phase.block_reorder
        if phase.pattern is AccessPattern.ROW_WALK:
            if blocked:
                # The controlling unit stages h rows and emits whole blocks.
                return phase_trace(layout, "block-writes", limit)
            return phase_trace(
                layout, "row-walk", limit,
                discipline=discipline, is_write=phase.is_write,
            )
        if phase.pattern is AccessPattern.COLUMN_WALK:
            if blocked:
                return phase_trace(
                    layout, "block-reads", limit, streams=phase.streams
                )
            return phase_trace(
                layout, "column-walk", limit,
                discipline=discipline, is_write=phase.is_write,
            )
        if phase.pattern is AccessPattern.TILE_WALK:
            tile_cols = min(self.config.row_elements, layout.n_cols)
            trace = tiled_walk_trace(layout, 1, tile_cols)
            return PhaseTrace(trace.head(limit), discipline, len(trace))
        if phase.pattern is AccessPattern.CUSTOM:
            trace = phase.walk.trace(layout)  # type: ignore[union-attr]
            prefix = trace.head(limit)
            return PhaseTrace(prefix, discipline, len(prefix))
        raise ConfigError(f"unsupported access pattern {phase.pattern}")
