"""Open-page request reordering (FR-FCFS-style) for the vault controllers.

A natural objection to the paper's approach: couldn't a smarter memory
controller recover the lost column-phase bandwidth by reordering requests
to hit open rows, with no layout change at all?  This module implements
that controller -- a greedy first-ready, first-come-first-served policy
over a lookahead window -- so the question gets a quantitative answer
(``tests/test_scheduler.py::TestSchedulingVsLayout``):

under a row-major layout, two column-walk accesses to the same DRAM row
are a full matrix column apart in the request stream, so the window must
hold ~N requests *per open row* before any hits appear; realistic windows
(tens of requests) recover essentially nothing, while the DDL reaches
peak with plain in-order controllers.  Scheduling is not a substitute for
layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.memory3d.memory import Memory3D
from repro.memory3d.stats import AccessStats
from repro.obs.metrics import MetricsRegistry
from repro.trace.request import TraceArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> memory3d)
    from repro.faults.plan import FaultPlan

#: Upper bucket bounds for the scheduler's queue-depth histogram.
_DEPTH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class ScheduledResult:
    """Outcome of a scheduled simulation."""

    stats: AccessStats
    reordered: TraceArray
    window: int
    displaced: int  # requests served out of arrival order

    @property
    def reorder_fraction(self) -> float:
        """Share of requests the scheduler moved."""
        if not len(self.reordered):
            return 0.0
        return self.displaced / len(self.reordered)


class OpenPageScheduler:
    """Greedy row-hit-first reordering within a bounded window.

    The scheduler sees the next ``window`` outstanding requests.  Each
    step it issues, per the FR-FCFS policy, the *oldest request that hits
    an open row*; if none hits, the oldest request overall (which opens a
    new row).  Row state is tracked per bank exactly as the timing engine
    does, so the produced order is what a real open-page controller would
    issue; the reordered trace is then priced by the normal engine.
    """

    def __init__(
        self,
        memory: Memory3D,
        window: int = 32,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window <= 0:
            raise SimulationError(f"window must be positive, got {window}")
        self.memory = memory
        self.window = window
        #: Optional registry; when set, :meth:`reorder` records the
        #: queue-depth distribution and issue/displacement counters under
        #: the ``scheduler.`` prefix.
        self.metrics = metrics

    # ---------------------------------------------------------------- reorder
    def reorder(self, trace: TraceArray) -> tuple[TraceArray, int]:
        """Produce the issue order; returns (reordered trace, displaced)."""
        n = len(trace)
        if n == 0:
            return trace, 0
        mapping = self.memory.mapping
        vaults, banks, rows, _ = mapping.decode_array(trace.addresses)
        gbank = (vaults * self.memory.config.banks_per_vault + banks).tolist()
        rows_list = rows.tolist()

        open_row: dict[int, int] = {}
        window: deque[int] = deque()
        order: list[int] = []
        next_index = 0
        displaced = 0
        depth_hist = None
        hit_issues = 0
        if self.metrics is not None:
            depth_hist = self.metrics.histogram(
                "scheduler.window_depth",
                bounds=_DEPTH_BOUNDS,
                help="outstanding requests visible at each issue decision",
            )

        while len(order) < n:
            while next_index < n and len(window) < self.window:
                window.append(next_index)
                next_index += 1
            if depth_hist is not None:
                depth_hist.observe(len(window))
            chosen_pos = None
            for pos, idx in enumerate(window):
                if open_row.get(gbank[idx]) == rows_list[idx]:
                    chosen_pos = pos
                    hit_issues += 1
                    break
            if chosen_pos is None:
                chosen_pos = 0
            if chosen_pos != 0:
                displaced += 1
            idx = window[chosen_pos]
            del window[chosen_pos]
            open_row[gbank[idx]] = rows_list[idx]
            order.append(idx)

        if self.metrics is not None:
            self.metrics.counter(
                "scheduler.issued", help="requests issued by the scheduler"
            ).inc(n)
            self.metrics.counter(
                "scheduler.displaced", help="requests issued out of arrival order"
            ).inc(displaced)
            self.metrics.counter(
                "scheduler.row_hit_issues",
                help="issue decisions that found an open-row hit in the window",
            ).inc(hit_issues)

        index = np.asarray(order, dtype=np.int64)
        reordered = TraceArray(trace.addresses[index], trace.is_write[index])
        return reordered, displaced

    # --------------------------------------------------------------- simulate
    def simulate(
        self,
        trace: TraceArray,
        discipline: str = "in_order",
        fault_plan: FaultPlan | None = None,
    ) -> ScheduledResult:
        """Reorder then price the trace with the normal timing engine.

        ``fault_plan`` degrades the pricing run exactly as in
        :meth:`Memory3D.simulate` -- the reordering itself is unaffected
        (the controller does not know which vaults will misbehave).
        """
        reordered, displaced = self.reorder(trace)
        stats = self.memory.simulate(reordered, discipline, fault_plan=fault_plan)
        return ScheduledResult(
            stats=stats, reordered=reordered, window=self.window,
            displaced=displaced,
        )
