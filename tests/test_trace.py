"""Request, TraceArray, the trace generators and the run compiler."""

import numpy as np
import pytest

from repro.errors import LayoutError, TraceError
from repro.layouts import (
    BlockDDLLayout,
    ColumnMajorLayout,
    RowMajorLayout,
    TiledLayout,
)
from repro.trace import (
    RUN_DTYPE,
    CompiledTrace,
    Request,
    TraceArray,
    block_column_read_trace,
    block_write_trace,
    column_walk_trace,
    compile_trace,
    expand_runs,
    linear_trace,
    row_walk_trace,
    strided_trace,
    tiled_walk_trace,
)


class TestRequest:
    def test_valid(self):
        r = Request(64, is_write=True)
        assert r.address == 64 and r.is_write

    def test_rejects_negative(self):
        with pytest.raises(TraceError):
            Request(-8)

    def test_rejects_unaligned(self):
        with pytest.raises(TraceError):
            Request(13)


class TestTraceArray:
    def test_from_requests_round_trip(self):
        reqs = [Request(0), Request(8, True), Request(16)]
        trace = TraceArray.from_requests(reqs)
        assert list(trace) == reqs

    def test_len_and_bytes(self):
        trace = linear_trace(0, 10)
        assert len(trace) == 10
        assert trace.total_bytes == 80

    def test_slice(self):
        trace = linear_trace(0, 10)
        assert list(trace[2:4].addresses) == [16, 24]

    def test_head(self):
        assert len(linear_trace(0, 10).head(3)) == 3

    def test_head_rejects_negative(self):
        with pytest.raises(TraceError):
            linear_trace(0, 10).head(-1)

    def test_rejects_unaligned(self):
        with pytest.raises(TraceError):
            TraceArray(np.array([1, 2]))

    def test_rejects_negative(self):
        with pytest.raises(TraceError):
            TraceArray(np.array([-8]))

    def test_rejects_2d(self):
        with pytest.raises(TraceError):
            TraceArray(np.zeros((2, 2), dtype=np.int64))

    def test_write_flag_broadcast(self):
        trace = linear_trace(0, 5, is_write=True)
        assert trace.is_write.all()

    def test_write_array_shape_checked(self):
        with pytest.raises(TraceError):
            TraceArray(np.array([0, 8]), np.array([True]))

    def test_concatenate(self):
        joined = TraceArray.concatenate([linear_trace(0, 3), linear_trace(80, 2)])
        assert len(joined) == 5
        assert joined.addresses[-1] == 88

    def test_concatenate_empty(self):
        assert len(TraceArray.concatenate([])) == 0

    def test_equality(self):
        assert linear_trace(0, 4) == linear_trace(0, 4)
        assert linear_trace(0, 4) != linear_trace(8, 4)


class TestLinearAndStrided:
    def test_linear_unit_stride(self):
        assert list(linear_trace(0, 4).addresses) == [0, 8, 16, 24]

    def test_linear_element_stride(self):
        assert list(linear_trace(0, 3, stride_elements=4).addresses) == [0, 32, 64]

    def test_strided_bytes(self):
        assert list(strided_trace(8, 3, 256).addresses) == [8, 264, 520]

    def test_strided_rejects_unaligned(self):
        with pytest.raises(TraceError):
            strided_trace(0, 3, 13)

    def test_negative_count_rejected(self):
        with pytest.raises(TraceError):
            linear_trace(0, -1)


class TestWalks:
    def test_row_walk_row_major_is_sequential(self):
        layout = RowMajorLayout(8, 8)
        trace = row_walk_trace(layout)
        assert np.array_equal(trace.addresses, np.arange(64) * 8)

    def test_column_walk_row_major_strides(self):
        layout = RowMajorLayout(8, 8)
        trace = column_walk_trace(layout, cols=range(1))
        assert np.array_equal(trace.addresses, np.arange(8) * 64)

    def test_column_walk_covers_all(self):
        layout = RowMajorLayout(16, 16)
        trace = column_walk_trace(layout)
        assert sorted(trace.addresses.tolist()) == list(range(0, 16 * 16 * 8, 8))

    def test_row_walk_band(self):
        layout = RowMajorLayout(8, 8)
        trace = row_walk_trace(layout, rows=range(2, 4))
        assert trace.addresses[0] == 2 * 8 * 8

    def test_write_flag_propagates(self):
        layout = RowMajorLayout(4, 4)
        assert row_walk_trace(layout, is_write=True).is_write.all()

    def test_tiled_walk_visits_each_once(self):
        layout = TiledLayout(8, 8, 4, 4)
        trace = tiled_walk_trace(layout, 4, 4)
        assert sorted(trace.addresses.tolist()) == list(range(0, 8 * 8 * 8, 8))

    def test_tiled_walk_rejects_nondividing_tile(self):
        layout = RowMajorLayout(8, 8)
        with pytest.raises(TraceError):
            tiled_walk_trace(layout, 3, 4)


class TestBlockTraces:
    @pytest.fixture
    def layout(self):
        return BlockDDLLayout(64, 64, width=2, height=16)

    def test_block_write_is_contiguous_per_block(self, layout):
        trace = block_write_trace(layout, block_rows=range(1))
        block_bytes = layout.block_elements * 8
        first = trace.addresses[: layout.block_elements]
        assert np.array_equal(first, np.arange(layout.block_elements) * 8)
        assert trace.addresses[layout.block_elements] == block_bytes

    def test_block_write_covers_slab(self, layout):
        trace = block_write_trace(layout, block_rows=range(1))
        assert len(trace) == layout.height * layout.n_cols
        assert trace.is_write.all()

    def test_block_write_full_matrix(self, layout):
        trace = block_write_trace(layout)
        assert len(trace) == layout.n_elements
        assert len(set(trace.addresses.tolist())) == layout.n_elements

    def test_whole_block_read_covers_streams(self, layout):
        trace = block_column_read_trace(layout, n_streams=4, block_cols=range(4))
        expected = 4 * layout.n_block_rows * layout.block_elements
        assert len(trace) == expected

    def test_column_slice_read_same_coverage(self, layout):
        whole = block_column_read_trace(layout, n_streams=4, block_cols=range(4))
        sliced = block_column_read_trace(
            layout, n_streams=4, whole_blocks=False, block_cols=range(4)
        )
        assert sorted(whole.addresses.tolist()) == sorted(sliced.addresses.tolist())

    def test_column_slice_bursts_are_contiguous(self, layout):
        trace = block_column_read_trace(
            layout, n_streams=1, whole_blocks=False, block_cols=range(1)
        )
        h = layout.height
        burst = trace.addresses[:h]
        assert np.array_equal(np.diff(burst), np.full(h - 1, 8))

    def test_streams_interleave_round_robin(self, layout):
        trace = block_column_read_trace(layout, n_streams=2, block_cols=range(2))
        per_visit = layout.block_elements
        first_visit = trace.addresses[:per_visit]
        second_visit = trace.addresses[per_visit : 2 * per_visit]
        assert first_visit[0] == layout.block_base_address(0, 0)
        assert second_visit[0] == layout.block_base_address(0, 1)

    def test_rejects_zero_streams(self, layout):
        with pytest.raises(TraceError):
            block_column_read_trace(layout, n_streams=0)

    def test_empty_block_cols(self, layout):
        assert len(block_column_read_trace(layout, 4, block_cols=range(0))) == 0


def _reference_block_write(layout, block_rows=None):
    """Block-by-block loop the closed-form write trace must equal."""
    band = block_rows if block_rows is not None else range(layout.n_block_rows)
    offsets = np.arange(layout.block_elements, dtype=np.int64) * 8
    pieces = [
        layout.block_base_address(block_r, block_c) + offsets
        for block_r in band
        for block_c in range(layout.blocks_per_row_band)
    ]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def _reference_block_read(layout, n_streams, whole_blocks, block_cols):
    """Per-stream visit loop, merged round-robin one visit at a time."""
    per_visit = layout.block_elements if whole_blocks else layout.height
    offsets = np.arange(per_visit, dtype=np.int64) * 8
    local_cols = range(1) if whole_blocks else range(layout.width)
    streams = [
        [
            layout.block_base_address(block_r, block_c)
            + local_col * layout.height * 8
            + offsets
            for local_col in local_cols
            for block_r in range(layout.n_block_rows)
        ]
        for block_c in list(block_cols)[:n_streams]
    ]
    visits = [visit for step in zip(*streams) for visit in step]
    return np.concatenate(visits) if visits else np.empty(0, dtype=np.int64)


class TestClosedFormBlockTraces:
    """The closed-form DDL generators against block-by-block loops."""

    @pytest.fixture
    def layout(self):
        # 64 block columns of w=2, 4 block rows of h=16; base off zero.
        return BlockDDLLayout(64, 128, width=2, height=16, base=1 << 20)

    @pytest.mark.parametrize(
        "block_rows", [None, range(1), range(1, 3), range(3, -1, -1), range(0)]
    )
    def test_block_write_matches_reference_loop(self, layout, block_rows):
        trace = block_write_trace(layout, block_rows=block_rows)
        expected = _reference_block_write(layout, block_rows)
        assert np.array_equal(trace.addresses, expected)
        assert trace.is_write.all()

    def test_block_write_rejects_out_of_range_rows(self, layout):
        with pytest.raises(LayoutError):
            block_write_trace(layout, block_rows=range(3, 5))

    @pytest.mark.parametrize("whole_blocks", [True, False])
    @pytest.mark.parametrize("n_streams", [1, 2, 4, 16])
    @pytest.mark.parametrize("first_col", [0, 5])
    def test_unbounded_read_matches_reference_loop(
        self, layout, whole_blocks, n_streams, first_col
    ):
        cols = range(first_col, first_col + n_streams)
        trace = block_column_read_trace(
            layout, n_streams, whole_blocks=whole_blocks, block_cols=cols
        )
        expected = _reference_block_read(layout, n_streams, whole_blocks, cols)
        assert np.array_equal(trace.addresses, expected)

    @pytest.mark.parametrize("whole_blocks", [True, False])
    @pytest.mark.parametrize("n_streams", [1, 2, 4, 16])
    @pytest.mark.parametrize(
        "block_cols", [range(3, 40), range(1, 64, 3)], ids=["from-3", "stride-3"]
    )
    def test_limit_is_a_prefix_of_the_unbounded_trace(
        self, layout, whole_blocks, n_streams, block_cols
    ):
        full = block_column_read_trace(
            layout, n_streams, whole_blocks=whole_blocks, block_cols=block_cols
        ).addresses
        visit = layout.block_elements if whole_blocks else layout.height
        total = len(full)
        assert total == n_streams * layout.n_block_rows * layout.block_elements
        for k in (1, visit - 1, visit + 1, total, total + visit + 3):
            bounded = block_column_read_trace(
                layout,
                n_streams,
                whole_blocks=whole_blocks,
                block_cols=block_cols,
                limit=k,
            )
            assert np.array_equal(bounded.addresses, full[:k]), k

    def test_zero_limit_is_empty(self, layout):
        assert len(block_column_read_trace(layout, 4, limit=0)) == 0

    def test_rejects_negative_limit(self, layout):
        with pytest.raises(TraceError):
            block_column_read_trace(layout, 4, limit=-1)

    @pytest.mark.parametrize("n_streams", [0, -3])
    def test_rejects_non_positive_streams_with_limit(self, layout, n_streams):
        with pytest.raises(TraceError):
            block_column_read_trace(layout, n_streams, limit=16)

    @pytest.mark.parametrize("whole_blocks", [True, False])
    def test_out_of_range_block_column_raises(self, layout, whole_blocks):
        with pytest.raises(LayoutError):
            block_column_read_trace(
                layout, 2, whole_blocks=whole_blocks, block_cols=range(63, 65),
                limit=1,
            )
        with pytest.raises(LayoutError):
            block_column_read_trace(layout, 1, block_cols=range(-1, 1))


def generator_corpus() -> dict[str, TraceArray]:
    """One trace per shipped generator (plus mixed-flag stress cases)."""
    rm = RowMajorLayout(32, 32)
    cm = ColumnMajorLayout(32, 32)
    tiled = TiledLayout(32, 32, 8, 8)
    ddl = BlockDDLLayout(32, 32, width=8, height=8)
    rng = np.random.default_rng(19411218)
    return {
        "linear": linear_trace(0, 257),
        "linear-write": linear_trace(64, 100, stride_elements=3, is_write=True),
        "strided": strided_trace(8, 129, 4096),
        "row-walk-rm": row_walk_trace(rm),
        "row-walk-cm": row_walk_trace(cm),
        "col-walk-rm": column_walk_trace(rm),
        "col-walk-cm": column_walk_trace(cm),
        "col-walk-tiled": column_walk_trace(tiled),
        "tiled-walk": tiled_walk_trace(tiled, 8, 8),
        "block-write": block_write_trace(ddl),
        "block-read": block_column_read_trace(ddl, n_streams=2),
        "narrow-read": block_column_read_trace(
            ddl, n_streams=2, whole_blocks=False
        ),
        "random": TraceArray(
            rng.integers(0, 1 << 20, size=513, dtype=np.int64) * 8,
            rng.integers(0, 2, size=513).astype(bool),
        ),
        "single": linear_trace(8, 1),
        "empty": linear_trace(0, 0),
    }


class TestCompileTrace:
    @pytest.mark.parametrize("name", sorted(generator_corpus()))
    def test_round_trip_every_generator(self, name):
        trace = generator_corpus()[name]
        compiled = compile_trace(trace)
        expanded = compiled.expand()
        assert expanded == trace, name
        assert len(compiled) == len(trace)

    def test_runs_are_dtype_stable(self):
        compiled = compile_trace(column_walk_trace(RowMajorLayout(16, 16)))
        assert compiled.runs.dtype == RUN_DTYPE

    def test_column_walk_compresses_to_one_run_per_column(self):
        layout = RowMajorLayout(64, 64)
        compiled = compile_trace(column_walk_trace(layout))
        # Each column is one arithmetic stretch; column seams may merge
        # when the wrap stride happens to match, so <= is the contract.
        assert len(compiled.runs) <= 2 * 64
        assert compiled.n_requests == 64 * 64

    def test_singleton_runs_normalize_step_to_zero(self):
        trace = TraceArray(np.array([0, 1 << 12, 8], dtype=np.int64))
        compiled = compile_trace(trace)
        assert (compiled.runs["count"] >= 1).all()
        assert (compiled.runs["step"][compiled.runs["count"] == 1] == 0).all()
        assert compiled.expand() == trace

    def test_write_flag_flip_breaks_runs(self):
        addr = np.arange(8, dtype=np.int64) * 8
        flags = np.array([0, 0, 0, 1, 1, 0, 0, 0], dtype=bool)
        compiled = compile_trace(TraceArray(addr, flags))
        assert len(compiled.runs) == 3
        assert compiled.expand() == TraceArray(addr, flags)

    def test_arrivals_carried_verbatim(self):
        arrivals = np.linspace(0.0, 99.0, 100)
        trace = TraceArray(linear_trace(0, 100).addresses, arrival_ns=arrivals)
        compiled = compile_trace(trace)
        assert np.array_equal(compiled.arrival_ns, arrivals)
        assert np.array_equal(compiled.expand().arrival_ns, arrivals)

    def test_expand_runs_helper(self):
        runs = np.array([(0, 8, 3, False), (64, 0, 1, True)], dtype=RUN_DTYPE)
        addresses, is_write = expand_runs(runs)
        assert addresses.tolist() == [0, 8, 16, 64]
        assert is_write.tolist() == [False, False, False, True]

    def test_rejects_zero_count_run(self):
        bad = np.array([(0, 8, 0, False)], dtype=RUN_DTYPE)
        with pytest.raises(ValueError):
            CompiledTrace(runs=bad)

    def test_rejects_2d_runs(self):
        with pytest.raises(ValueError):
            CompiledTrace(runs=np.zeros((2, 2), dtype=RUN_DTYPE))

    def test_rejects_mismatched_arrivals(self):
        runs = np.array([(0, 8, 3, False)], dtype=RUN_DTYPE)
        with pytest.raises(ValueError):
            CompiledTrace(runs=runs, arrival_ns=np.zeros(2))
