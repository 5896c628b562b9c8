"""Trace-driven timing for the planar DRAM (delegates to the 3D engine)."""

from __future__ import annotations

from repro.memory2d.config import Memory2DConfig
from repro.memory3d.memory import Memory3D
from repro.memory3d.stats import AccessStats
from repro.trace.request import TraceArray


class Memory2D:
    """Single-channel DRAM simulator.

    All requests share one bus, so only the blocking ``in_order``
    discipline is meaningful; the per-bank/row rules are identical to the
    3D model's single-vault case.
    """

    def __init__(self, config: Memory2DConfig | None = None) -> None:
        self.config = config or Memory2DConfig()
        self._engine = Memory3D(self.config.as_memory3d())

    @property
    def mapping(self):
        """Address decoding of the underlying single-vault view."""
        return self._engine.mapping

    def simulate(self, trace: TraceArray) -> AccessStats:
        """Run a trace on the channel and return aggregate statistics."""
        return self._engine.simulate(trace, discipline="in_order")

    def classify_transitions(self, trace: TraceArray) -> dict[str, int]:
        """Consecutive-request transition fingerprint (see Memory3D)."""
        return self._engine.classify_transitions(trace)
