#!/usr/bin/env python
"""Layout explorer: see where the data actually lands in the stack.

Prints, for a small matrix, the (vault, bank) each element maps to under
row-major and under the block DDL -- making the paper's core idea visible:
a column walk under row-major hammers one vault/bank pair with row misses,
while under the DDL each block column becomes a private streaming channel
into one vault.  Then sweeps the block height to show the Eq. (1) knee.

Run:  python examples/layout_explorer.py
"""

from repro import (
    BlockDDLLayout,
    Memory3D,
    RowMajorLayout,
    block_column_read_trace,
    column_walk_trace,
    optimal_block_geometry,
    pact15_hmc_config,
)
from repro.layouts.base import Layout


def vault_map(layout: Layout, memory: Memory3D, rows: int, cols: int) -> str:
    """ASCII map: hex vault id of each element's home."""
    lines = []
    for r in range(rows):
        cells = []
        for c in range(cols):
            decoded = memory.mapping.decode(layout.address(r, c))
            cells.append(f"{decoded.vault:x}")
        lines.append("".join(cells))
    return "\n".join(lines)


def main() -> None:
    config = pact15_hmc_config()
    memory = Memory3D(config)
    n = 64

    print(f"Vault map of a {n}x{n} matrix (one hex digit per element)\n")
    print("row-major layout (rows sweep the vaults left to right):")
    print(vault_map(RowMajorLayout(n, n), memory, rows=8, cols=64))
    print()

    # At the paper's sizes a row is a multiple of 16 row-buffer chunks, so
    # a column walk revisits ONE vault forever; show that fact numerically.
    big = RowMajorLayout(2048, 2048)
    vaults_hit = {
        memory.mapping.decode(big.address(r, 0)).vault for r in range(64)
    }
    print("N=2048: the first 64 accesses of a column walk touch vaults "
          f"{sorted(vaults_hit)} -- a single vault, activation after "
          f"activation.\n")

    geo = optimal_block_geometry(config, n)
    ddl = BlockDDLLayout(n, n, geo.width, geo.height)
    print(
        f"block DDL (w={geo.width}, h={geo.height}, regime={geo.regime.value}): "
        "block columns own vaults:"
    )
    print(vault_map(ddl, memory, rows=8, cols=64))
    print()

    # ----------------------------------------------------- measured impact
    base_trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(4))
    base = memory.simulate(base_trace, "in_order")
    print(
        f"row-major column walk (N=2048): {base.bandwidth_gbps:5.2f} GB/s, "
        f"row-hit rate {base.row_hit_rate:.0%}"
    )

    print("\nblock-height sweep, column-at-a-time consumer (N=2048):")
    geo_2048 = optimal_block_geometry(config, 2048)
    for h in (1, 2, 4, 8, 16, 32):
        layout = BlockDDLLayout(2048, 2048, width=32 // h, height=h)
        trace = block_column_read_trace(
            layout, n_streams=16, whole_blocks=False, block_cols=range(16)
        )
        stats = memory.simulate(trace.head(65_536), "per_vault")
        util = stats.utilization(config.peak_bandwidth)
        marker = "  <- Eq. (1) optimum" if h == geo_2048.height else ""
        print(f"  h={h:2d}: {stats.bandwidth_gbps:6.2f} GB/s "
              f"({util:6.1%} of peak){marker}")


if __name__ == "__main__":
    main()
