"""Access-trace generators for the 2D FFT phases and layout studies.

Each generator returns a :class:`~repro.trace.request.TraceArray` of
element-granularity byte addresses in the order the hardware would issue
them.  Generators are pure functions of a layout plus walk parameters, so
the same generator drives every layout under study.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.layouts.base import Layout
from repro.layouts.block_ddl import BlockDDLLayout
from repro.trace.request import TraceArray
from repro.units import ELEMENT_BYTES


def linear_trace(
    start: int, n_elements: int, stride_elements: int = 1, is_write: bool = False
) -> TraceArray:
    """``n_elements`` accesses starting at ``start`` with a fixed stride."""
    if n_elements < 0:
        raise TraceError(f"n_elements must be non-negative, got {n_elements}")
    addresses = (
        start
        + np.arange(n_elements, dtype=np.int64) * (stride_elements * ELEMENT_BYTES)
    )
    return TraceArray(addresses, is_write)


def strided_trace(
    start: int, n_elements: int, stride_bytes: int, is_write: bool = False
) -> TraceArray:
    """Byte-stride variant of :func:`linear_trace`."""
    if stride_bytes % ELEMENT_BYTES:
        raise TraceError(f"stride {stride_bytes} not element aligned")
    addresses = start + np.arange(n_elements, dtype=np.int64) * stride_bytes
    return TraceArray(addresses, is_write)


def row_walk_trace(
    layout: Layout,
    rows: range | None = None,
    is_write: bool = False,
) -> TraceArray:
    """Walk whole matrix rows left to right -- the phase-1 access pattern.

    Under a row-major layout this is a unit-stride stream; under other
    layouts it reveals their phase-1 cost.
    """
    row_range = rows if rows is not None else range(layout.n_rows)
    row_idx = np.repeat(np.fromiter(row_range, dtype=np.int64), layout.n_cols)
    col_idx = np.tile(np.arange(layout.n_cols, dtype=np.int64), len(row_range))
    return TraceArray(layout.address_array(row_idx, col_idx), is_write)


def column_walk_trace(
    layout: Layout,
    cols: range | None = None,
    is_write: bool = False,
) -> TraceArray:
    """Walk whole matrix columns top to bottom -- the phase-2 pattern.

    Under a row-major layout each step strides ``n_cols`` elements, the
    row-activation-per-access pattern that cripples the baseline.
    """
    col_range = cols if cols is not None else range(layout.n_cols)
    col_idx = np.repeat(np.fromiter(col_range, dtype=np.int64), layout.n_rows)
    row_idx = np.tile(np.arange(layout.n_rows, dtype=np.int64), len(col_range))
    return TraceArray(layout.address_array(row_idx, col_idx), is_write)


def tiled_walk_trace(layout: Layout, tile_rows: int, tile_cols: int) -> TraceArray:
    """Visit the matrix tile by tile (row-major tiles, row-major interior).

    Used to exercise the Akin-style tiled layout the way its local
    transposer would read it.
    """
    if layout.n_rows % tile_rows or layout.n_cols % tile_cols:
        raise TraceError(
            f"tile {tile_rows}x{tile_cols} must divide matrix "
            f"{layout.n_rows}x{layout.n_cols}"
        )
    in_r = np.repeat(np.arange(tile_rows, dtype=np.int64), tile_cols)
    in_c = np.tile(np.arange(tile_cols, dtype=np.int64), tile_rows)
    pieces = []
    for tile_r in range(layout.n_rows // tile_rows):
        for tile_c in range(layout.n_cols // tile_cols):
            rows = tile_r * tile_rows + in_r
            cols = tile_c * tile_cols + in_c
            pieces.append(layout.address_array(rows, cols))
    return TraceArray(np.concatenate(pieces))


def block_write_trace(
    layout: BlockDDLLayout,
    block_rows: range | None = None,
) -> TraceArray:
    """Phase-1 writes under the DDL: whole blocks, slab by slab.

    The controlling unit stages ``h`` FFT output rows on chip, then writes
    each slab's blocks in block-column order; every block is one contiguous
    memory-row burst, and consecutive blocks land in consecutive vaults.
    """
    band = block_rows if block_rows is not None else range(layout.n_block_rows)
    block_r = np.fromiter(band, dtype=np.int64)
    if block_r.size:
        # Range checks (LayoutError) for the lowest and highest block row.
        layout.block_index(int(block_r.min()), 0)
        layout.block_index(int(block_r.max()), 0)
    block_c = np.arange(layout.blocks_per_row_band, dtype=np.int64)
    blocks = (block_r[:, None] * layout.blocks_per_row_band + block_c).ravel()
    addresses = _visit_bursts(layout, blocks, 0, layout.block_elements)
    _check_block_alignment(addresses, layout.block_elements * ELEMENT_BYTES)
    return TraceArray(addresses, is_write=True)


def block_column_read_trace(
    layout: BlockDDLLayout,
    n_streams: int,
    whole_blocks: bool = True,
    block_cols: range | None = None,
    limit: int | None = None,
) -> TraceArray:
    """Phase-2 reads under the DDL.

    ``n_streams`` parallel column streams each own one block column and walk
    it top to bottom.  With ``whole_blocks=True`` (the optimized
    architecture) a visit fetches the entire ``w*h``-element block -- all
    ``w`` columns at once, which the on-chip permutation network then
    splits; one row activation serves ``w*h`` beats.  With
    ``whole_blocks=False`` the consumer has no local transpose buffer and
    each of the block's ``w`` columns is fetched separately: ``h``
    consecutive elements per visit, revisiting the block ``w`` times in
    column order.  The latter exposes the activate-to-activate gap when
    ``h`` is below the paper's Eq. (1) value -- the knob the block-height
    ablation sweeps.

    The returned trace interleaves the streams round-robin at visit
    granularity, matching how the per-vault controllers see concurrent
    queues; simulate it with the ``per_vault`` discipline.  ``limit``
    returns exactly the first ``limit`` requests of that trace (all of
    it when ``None`` or larger), and only those are ever built: the
    addresses are computed in closed form from the visit index.
    """
    if n_streams <= 0:
        raise TraceError(f"n_streams must be positive, got {n_streams}")
    if limit is not None and limit < 0:
        raise TraceError(f"limit must be non-negative, got {limit}")
    cols = block_cols if block_cols is not None else range(layout.blocks_per_row_band)
    stream_cols = np.array(list(cols)[:n_streams], dtype=np.int64)
    if not stream_cols.size:
        return TraceArray(np.empty(0, dtype=np.int64))
    for block_c in stream_cols.tolist():
        layout.block_index(0, block_c)  # LayoutError when out of range

    per_visit = layout.block_elements if whole_blocks else layout.height
    visits_per_stream = layout.n_block_rows * (1 if whole_blocks else layout.width)
    total = len(stream_cols) * visits_per_stream * per_visit
    n = total if limit is None else min(limit, total)
    # Global visit g is stream g % S's visit g // S (streams are equal
    # length).  A stream walks its block column top to bottom once per
    # local column -- once in all when visits fetch whole blocks.
    visit_of, stream_of = np.divmod(
        np.arange(-(-n // per_visit), dtype=np.int64), stream_cols.size
    )
    local_col, block_r = np.divmod(visit_of, layout.n_block_rows)
    blocks = block_r * layout.blocks_per_row_band + stream_cols[stream_of]
    addresses = _visit_bursts(layout, blocks, local_col, per_visit)[:n]
    return TraceArray(addresses)


def _visit_bursts(
    layout: BlockDDLLayout,
    blocks: np.ndarray,
    local_cols: np.ndarray | int,
    burst: int,
) -> np.ndarray:
    """``burst`` consecutive addresses per visit, visits in order.

    A visit starts at local column ``local_cols[i]`` of block
    ``blocks[i]``; interiors are column-major, so a column slice (or the
    whole block, from local column 0) is one contiguous burst.
    """
    starts = layout.base + (
        blocks * layout.block_elements + local_cols * layout.height
    ) * ELEMENT_BYTES
    offsets = np.arange(burst, dtype=np.int64) * ELEMENT_BYTES
    return (starts[:, None] + offsets).ravel()


def _check_block_alignment(addresses: np.ndarray, block_bytes: int) -> None:
    """Sanity check: block bursts start on block boundaries."""
    if addresses.size and addresses[0] % block_bytes:
        raise TraceError("block trace does not start on a block boundary")


def interleave_tenant_traces(
    traces: list[TraceArray], granularity: int = 32
) -> tuple[TraceArray, np.ndarray]:
    """Merge several tenants' traces round-robin for shared-memory studies.

    Returns the merged trace plus a per-request tenant tag array (tenant
    index into ``traces``), suitable for
    :meth:`repro.memory3d.memory.Memory3D.simulate_tagged`.
    """
    if not traces:
        raise TraceError("need at least one tenant trace")
    if granularity < 1:
        raise TraceError(f"granularity must be >= 1, got {granularity}")
    chunks: list[np.ndarray] = []
    tag_chunks: list[np.ndarray] = []
    cursors = [0] * len(traces)
    remaining = sum(len(t) for t in traces)
    while remaining:
        for idx, tenant in enumerate(traces):
            cursor = cursors[idx]
            if cursor >= len(tenant):
                continue
            end = min(cursor + granularity, len(tenant))
            chunks.append(tenant.addresses[cursor:end])
            tag_chunks.append(np.full(end - cursor, idx, dtype=np.int64))
            cursors[idx] = end
            remaining -= end - cursor
    merged = TraceArray(np.concatenate(chunks))
    return merged, np.concatenate(tag_chunks)
