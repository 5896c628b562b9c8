"""The affine access-pattern IR: semantics, lowering, analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError, TraceError
from repro.framework.ir import (
    AffineWalk,
    Loop,
    WalkAnalysis,
    analyze_walk,
    column_walk,
    diagonal_walk,
    row_walk,
    tile_walk,
)
from repro.layouts import BlockDDLLayout, RowMajorLayout, TiledLayout
from repro.memory3d import Memory3DConfig
from repro.trace.generators import (
    column_walk_trace,
    row_walk_trace,
    tiled_walk_trace,
)


class TestLoop:
    def test_rejects_zero_extent(self):
        with pytest.raises(TraceError):
            Loop(0)

    def test_walk_requires_loops(self):
        with pytest.raises(TraceError):
            AffineWalk(loops=())


class TestSemantics:
    def test_length_is_product_of_extents(self):
        walk = AffineWalk(loops=(Loop(3, row_step=1), Loop(4, col_step=1)))
        assert walk.length == 12

    def test_coordinates_of_simple_nest(self):
        walk = AffineWalk(loops=(Loop(2, row_step=1), Loop(3, col_step=1)))
        rows, cols = walk.coordinates()
        assert rows.tolist() == [0, 0, 0, 1, 1, 1]
        assert cols.tolist() == [0, 1, 2, 0, 1, 2]

    def test_base_offsets(self):
        walk = AffineWalk(loops=(Loop(2, col_step=1),), base_row=5, base_col=7)
        rows, cols = walk.coordinates()
        assert rows.tolist() == [5, 5]
        assert cols.tolist() == [7, 8]

    def test_bounds_with_negative_steps(self):
        walk = AffineWalk(loops=(Loop(4, row_step=-1),), base_row=3)
        assert walk.bounds() == (0, 3, 0, 0)

    def test_shifted(self):
        walk = row_walk(2, 2).shifted(rows=4, cols=0)
        rows, _ = walk.coordinates()
        assert rows.min() == 4

    def test_then_appends_innermost(self):
        outer = AffineWalk(loops=(Loop(2, row_step=1),))
        nested = outer.then(Loop(3, col_step=1))
        assert nested.length == 6


class TestEquivalenceWithGenerators:
    """The IR constructors reproduce the hand-written trace generators."""

    def test_row_walk(self):
        layout = RowMajorLayout(16, 32)
        assert row_walk(16, 32).trace(layout) == row_walk_trace(layout)

    def test_column_walk(self):
        layout = RowMajorLayout(16, 32)
        assert column_walk(16, 32).trace(layout) == column_walk_trace(layout)

    def test_tile_walk(self):
        layout = TiledLayout(16, 16, 4, 4)
        assert tile_walk(16, 16, 4, 4).trace(layout) == tiled_walk_trace(layout, 4, 4)

    def test_works_under_any_layout(self):
        ddl = BlockDDLLayout(16, 16, width=2, height=8)
        trace = column_walk(16, 16).trace(ddl)
        assert sorted(trace.addresses.tolist()) == list(range(0, 16 * 16 * 8, 8))

    def test_write_flag(self):
        layout = RowMajorLayout(4, 4)
        assert row_walk(4, 4, is_write=True).trace(layout).is_write.all()


class TestLowering:
    def test_out_of_bounds_rejected(self):
        layout = RowMajorLayout(8, 8)
        with pytest.raises(LayoutError):
            row_walk(16, 8).trace(layout)

    def test_diagonal(self):
        layout = RowMajorLayout(8, 8)
        trace = diagonal_walk(8).trace(layout)
        assert trace.addresses.tolist() == [(i * 8 + i) * 8 for i in range(8)]

    def test_tile_walk_validation(self):
        with pytest.raises(TraceError):
            tile_walk(8, 8, 3, 4)


class TestAnalysis:
    @pytest.fixture
    def config(self):
        return Memory3DConfig()

    def test_row_walk_is_long_bursts(self, config):
        layout = RowMajorLayout(64, 64)
        analysis = analyze_walk(row_walk(64, 64), layout, config)
        assert analysis.mean_burst_elements == 64 * 64  # one contiguous run
        assert analysis.vault_spread == 16

    def test_column_walk_unit_bursts(self, config):
        layout = RowMajorLayout(2048, 2048)
        walk = AffineWalk(loops=(Loop(1, col_step=1), Loop(64, row_step=1)))
        analysis = analyze_walk(walk, layout, config)
        assert analysis.mean_burst_elements == 1.0
        assert analysis.vault_spread == 1  # the paper's single-vault fact

    def test_column_walk_activates_every_access(self, config):
        layout = RowMajorLayout(2048, 2048)
        walk = AffineWalk(loops=(Loop(1, col_step=1), Loop(256, row_step=1)))
        analysis = analyze_walk(walk, layout, config)
        assert analysis.estimated_activations == analysis.accesses
        assert analysis.estimated_hit_rate == 0.0

    def test_ddl_block_read_mostly_hits(self, config):
        n = 256
        layout = BlockDDLLayout(n, n, width=2, height=16)
        # A block column read: 16 rows per visit, both columns.
        walk = AffineWalk(
            loops=(Loop(n // 16, row_step=16), Loop(2, col_step=1),
                   Loop(16, row_step=1))
        )
        analysis = analyze_walk(walk, layout, config)
        assert analysis.estimated_hit_rate > 0.9

    def test_analysis_matches_simulation_hits(self, config):
        """The static activation estimate equals the simulator's count for
        single-stream walks."""
        from repro.memory3d import Memory3D

        layout = RowMajorLayout(512, 512)
        walk = column_walk(512, 512)
        analysis = analyze_walk(walk, layout, config)
        stats = Memory3D(config).simulate(
            walk.trace(layout), "in_order", engine="exact"
        )
        assert analysis.estimated_activations == stats.row_activations

    def test_empty_analysis(self):
        assert WalkAnalysis(0, 0.0, 0, 0, 0).estimated_hit_rate == 0.0


class TestIRProperties:
    @given(
        extents=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_length_always_matches_coordinates(self, extents, seed):
        rng = np.random.default_rng(seed)
        loops = tuple(
            Loop(e, row_step=int(rng.integers(0, 3)), col_step=int(rng.integers(0, 3)))
            for e in extents
        )
        walk = AffineWalk(loops=loops)
        rows, cols = walk.coordinates()
        assert rows.size == cols.size == walk.length

    @given(extents=st.lists(st.integers(1, 5), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_bounds_contain_all_coordinates(self, extents):
        loops = tuple(Loop(e, row_step=1, col_step=2) for e in extents)
        walk = AffineWalk(loops=loops)
        rows, cols = walk.coordinates()
        min_r, max_r, min_c, max_c = walk.bounds()
        assert rows.min() >= min_r and rows.max() <= max_r
        assert cols.min() >= min_c and cols.max() <= max_c
