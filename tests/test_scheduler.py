"""Open-page scheduler: correctness and the scheduling-vs-layout result."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d.scheduler import OpenPageScheduler
from repro.trace import (
    TraceArray,
    block_column_read_trace,
    column_walk_trace,
    linear_trace,
)


class TestReorderCorrectness:
    def test_preserves_request_multiset(self, memory, rng):
        addresses = rng.integers(0, 1 << 14, size=500, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        reordered, _ = OpenPageScheduler(memory, window=16).reorder(trace)
        assert sorted(reordered.addresses.tolist()) == sorted(addresses.tolist())

    def test_sequential_stream_untouched(self, memory):
        trace = linear_trace(0, 200)
        reordered, displaced = OpenPageScheduler(memory, window=16).reorder(trace)
        assert reordered == trace
        assert displaced == 0

    def test_window_one_is_fifo(self, memory, rng):
        addresses = rng.integers(0, 1 << 12, size=300, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        reordered, displaced = OpenPageScheduler(memory, window=1).reorder(trace)
        assert reordered == trace
        assert displaced == 0

    def test_gathers_same_row_pairs(self, memory, mem_config):
        """Two interleaved rows: the scheduler batches each row's accesses."""
        row_bytes = mem_config.row_bytes
        a = np.arange(0, 4) * 8  # row 0 of bank 0
        stride = row_bytes * mem_config.vaults * mem_config.banks_per_vault
        b = stride + np.arange(0, 4) * 8  # another row, same bank
        interleaved = np.empty(8, dtype=np.int64)
        interleaved[0::2] = a
        interleaved[1::2] = b
        trace = TraceArray(interleaved)
        reordered, displaced = OpenPageScheduler(memory, window=8).reorder(trace)
        stats = memory.simulate(reordered, "in_order")
        assert stats.row_activations == 2  # one per row, not per access
        assert displaced > 0

    def test_empty_trace(self, memory):
        result = OpenPageScheduler(memory, 8).simulate(
            TraceArray(np.empty(0, dtype=np.int64))
        )
        assert result.stats.requests == 0

    def test_rejects_bad_window(self, memory):
        with pytest.raises(SimulationError):
            OpenPageScheduler(memory, window=0)


class TestSchedulingVsLayout:
    """The module's thesis: windows can't fix a stride walk."""

    def test_small_window_recovers_nothing(self, memory):
        n = 1024
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(4))
        fifo = memory.simulate(trace, "in_order")
        scheduled = OpenPageScheduler(memory, window=64).simulate(trace)
        assert scheduled.stats.row_hits == 0
        assert scheduled.stats.elapsed_ns == pytest.approx(fifo.elapsed_ns, rel=0.01)

    def test_huge_window_finally_finds_hits(self, memory):
        """With the window spanning a whole column, cross-column same-row
        pairs become visible -- at an absurd buffer cost."""
        n = 256
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(4))
        scheduled = OpenPageScheduler(memory, window=n + 8).simulate(trace)
        assert scheduled.stats.row_hits > 0

    def test_column_spanning_window_stays_under_half_the_ddl(
        self, memory, mem_config
    ):
        """Even a window wider than a column recovers under half of what
        the DDL delivers with a plain in-order controller."""
        n = 1024
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(8))
        giant = OpenPageScheduler(memory, window=n + 16).simulate(trace)
        geo = optimal_block_geometry(mem_config, n)
        layout = BlockDDLLayout(n, n, geo.width, geo.height)
        ddl = memory.simulate(
            block_column_read_trace(
                layout, n_streams=16, block_cols=range(16)
            ).head(16_384),
            "per_vault",
        )
        assert giant.stats.bandwidth_gbps < ddl.bandwidth_gbps / 2
        assert ddl.bandwidth_gbps > 0.99 * mem_config.peak_bandwidth / 1e9
        assert giant.displaced > 0

    def test_reorder_fraction_reported(self, memory):
        n = 256
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(4))
        result = OpenPageScheduler(memory, window=n + 8).simulate(trace)
        assert 0.0 < result.reorder_fraction <= 1.0

    def test_sampling(self, memory):
        n = 512
        trace = column_walk_trace(RowMajorLayout(n, n), cols=range(8))
        full = OpenPageScheduler(memory, window=32).simulate(trace)
        sampled = OpenPageScheduler(memory, window=32).simulate(trace.head(1024))
        assert sampled.stats.scaled(len(trace) / 1024).elapsed_ns == pytest.approx(
            full.stats.elapsed_ns, rel=0.05
        )
