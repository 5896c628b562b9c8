"""Data layouts: addressing, bijectivity, round trips, permutations."""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.layouts import (
    BlockDDLLayout,
    ColumnMajorLayout,
    RowMajorLayout,
    TiledLayout,
    optimal_block_geometry,
)
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.trace import (
    block_column_read_trace,
    block_write_trace,
    column_walk_trace,
    row_walk_trace,
    tiled_walk_trace,
)

ALL_LAYOUTS = [
    lambda r, c: RowMajorLayout(r, c),
    lambda r, c: ColumnMajorLayout(r, c),
    lambda r, c: TiledLayout(r, c, 4, 8),
    lambda r, c: BlockDDLLayout(r, c, width=2, height=8),
]


@pytest.mark.parametrize("factory", ALL_LAYOUTS)
class TestLayoutContracts:
    """Properties every layout must satisfy."""

    def test_bijective(self, factory):
        layout = factory(16, 32)
        rows, cols = np.divmod(np.arange(layout.n_elements), layout.n_cols)
        indices = layout.element_index_array(rows, cols)
        assert sorted(indices.tolist()) == list(range(layout.n_elements))

    def test_scalar_matches_array(self, factory):
        layout = factory(16, 32)
        for row, col in [(0, 0), (3, 7), (15, 31), (8, 16)]:
            scalar = layout.element_index(row, col)
            array = layout.element_index_array(np.array([row]), np.array([col]))[0]
            assert scalar == array

    def test_coordinate_inverts_index(self, factory):
        layout = factory(16, 32)
        for index in range(layout.n_elements):
            row, col = layout.coordinate(index)
            assert layout.element_index(row, col) == index

    def test_address_round_trip(self, factory):
        layout = factory(8, 16)
        for row in range(8):
            for col in range(16):
                assert layout.coordinate_of_address(layout.address(row, col)) == (
                    row, col,
                )

    def test_base_offsets_addresses(self, factory):
        plain = factory(8, 16)
        # Rebuild with a base offset via the class of the plain layout.
        assert plain.base == 0
        assert plain.address(0, 0) >= 0

    def test_footprint(self, factory):
        layout = factory(16, 32)
        assert layout.footprint_bytes == 16 * 32 * 8

    def test_out_of_range_rejected(self, factory):
        layout = factory(8, 16)
        with pytest.raises(LayoutError):
            layout.address(8, 0)
        with pytest.raises(LayoutError):
            layout.address(0, 16)
        with pytest.raises(LayoutError):
            layout.address(-1, 0)

    def test_address_outside_footprint_rejected(self, factory):
        layout = factory(8, 16)
        with pytest.raises(LayoutError):
            layout.coordinate_of_address(layout.footprint_bytes)

    def test_describe_mentions_shape(self, factory):
        assert "8x16" in factory(8, 16).describe()


class TestRowMajor:
    def test_rows_contiguous(self):
        layout = RowMajorLayout(4, 8)
        addresses = [layout.address(1, c) for c in range(8)]
        assert addresses == list(range(64, 128, 8))

    def test_column_stride_is_row_length(self):
        layout = RowMajorLayout(4, 8)
        assert layout.address(2, 3) - layout.address(1, 3) == 8 * 8


class TestColumnMajor:
    def test_columns_contiguous(self):
        layout = ColumnMajorLayout(4, 8)
        addresses = [layout.address(r, 1) for r in range(4)]
        assert addresses == list(range(32, 64, 8))

    def test_transpose_of_row_major(self):
        rm = RowMajorLayout(4, 8)
        cm = ColumnMajorLayout(8, 4)
        assert rm.element_index(2, 5) == cm.element_index(5, 2)


class TestTiled:
    def test_tile_is_contiguous(self):
        layout = TiledLayout(8, 8, 4, 4)
        indices = [layout.element_index(r, c) for r in range(4) for c in range(4)]
        assert indices == list(range(16))

    def test_second_tile_follows(self):
        layout = TiledLayout(8, 8, 4, 4)
        assert layout.element_index(0, 4) == 16

    def test_rejects_nondividing_tile(self):
        with pytest.raises(LayoutError):
            TiledLayout(8, 8, 3, 4)

    def test_rejects_empty_tile(self):
        with pytest.raises(LayoutError):
            TiledLayout(8, 8, 0, 4)


class TestBlockDDL:
    @pytest.fixture
    def layout(self):
        return BlockDDLLayout(32, 32, width=2, height=16)

    def test_block_fills_row_buffer(self, layout):
        assert layout.block_elements == 32

    def test_interior_column_major(self, layout):
        # Column elements of a block are consecutive.
        first_column = [layout.element_index(r, 0) for r in range(16)]
        assert first_column == list(range(16))
        second_column = [layout.element_index(r, 1) for r in range(16)]
        assert second_column == list(range(16, 32))

    def test_block_row_major_ordering(self, layout):
        # Block (0, 1) follows block (0, 0).
        assert layout.element_index(0, 2) == 32

    def test_block_base_address(self, layout):
        assert layout.block_base_address(0, 1) == 32 * 8
        assert layout.block_base_address(1, 0) == layout.blocks_per_row_band * 32 * 8

    def test_block_index_bounds(self, layout):
        with pytest.raises(LayoutError):
            layout.block_index(layout.n_block_rows, 0)
        with pytest.raises(LayoutError):
            layout.block_index(0, layout.blocks_per_row_band)

    def test_column_burst_address(self, layout):
        assert layout.column_burst_address(0, 1) == 16 * 8
        assert layout.column_burst_address(1, 0) == layout.block_base_address(1, 0)

    def test_staging_buffer_is_double_buffered_slab(self, layout):
        assert layout.staging_buffer_elements() == 2 * 16 * 32

    def test_rejects_nondividing_block(self):
        with pytest.raises(LayoutError):
            BlockDDLLayout(33, 32, width=2, height=16)

    def test_rejects_empty_block(self):
        with pytest.raises(LayoutError):
            BlockDDLLayout(32, 32, width=0, height=16)


class TestPermutationFrom:
    def test_identity(self):
        a = RowMajorLayout(8, 8)
        b = RowMajorLayout(8, 8)
        assert np.array_equal(a.permutation_from(b), np.arange(64))

    def test_row_to_column_major(self):
        rm = RowMajorLayout(4, 4)
        cm = ColumnMajorLayout(4, 4)
        perm = cm.permutation_from(rm)
        # Element at row-major index i=(r,c) lands at column-major c*4+r.
        for i in range(16):
            r, c = divmod(i, 4)
            assert perm[i] == c * 4 + r

    def test_permutation_is_bijection(self):
        ddl = BlockDDLLayout(16, 16, width=4, height=8)
        perm = ddl.permutation_from(RowMajorLayout(16, 16))
        assert sorted(perm.tolist()) == list(range(256))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(LayoutError):
            RowMajorLayout(4, 4).permutation_from(RowMajorLayout(4, 8))

    def test_geometry_validation(self):
        with pytest.raises(LayoutError):
            RowMajorLayout(0, 4)
        with pytest.raises(LayoutError):
            RowMajorLayout(4, 4, base=-8)
        with pytest.raises(LayoutError):
            RowMajorLayout(4, 4, base=3)


class TestLayoutComparison:
    """N=1024 on the 3D memory: column-major wins the column phase but
    loses the row phase; the block DDL matches it on columns and keeps
    rows at peak -- the conflicting-layouts problem resolved."""

    N = 1024

    @pytest.fixture
    def run(self):
        config = pact15_hmc_config()
        memory = Memory3D(config)

        def utilization(trace, discipline):
            stats = memory.simulate(trace, discipline, sample=16_384)
            return stats.utilization(config.peak_bandwidth)

        return utilization

    def ddl(self):
        geo = optimal_block_geometry(pact15_hmc_config(), self.N)
        return BlockDDLLayout(self.N, self.N, geo.width, geo.height)

    def test_column_phase(self, run):
        n = self.N
        row_major = run(column_walk_trace(RowMajorLayout(n, n), cols=range(8)),
                        "in_order")
        column_major = run(
            column_walk_trace(ColumnMajorLayout(n, n), cols=range(8)), "per_vault"
        )
        # The priced prefix is the first 16 tile rows; a 16-row matrix
        # maps them to the same addresses at a sliver of the build cost.
        tiled = run(tiled_walk_trace(TiledLayout(16, n, 1, 32), 1, 32), "per_vault")
        ddl = run(
            block_column_read_trace(self.ddl(), n_streams=16, block_cols=range(16)),
            "per_vault",
        )
        assert row_major < 0.03
        assert ddl > 0.99
        assert tiled > 0.9
        assert ddl >= 0.95 * column_major

    def test_row_phase(self, run):
        n = self.N
        row_major = run(
            row_walk_trace(RowMajorLayout(n, n), rows=range(32), is_write=True),
            "per_vault",
        )
        column_major = run(
            row_walk_trace(ColumnMajorLayout(n, n), rows=range(32), is_write=True),
            "in_order",
        )
        ddl = run(block_write_trace(self.ddl(), block_rows=range(8)), "per_vault")
        assert row_major > 0.95
        assert ddl > 0.95
        assert column_major < 0.05
