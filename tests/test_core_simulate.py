"""Trace-driven phase simulation vs the analytic model.

The paper's evaluation is model-based; our simulator rebuilds the same
numbers from individual memory requests.  These tests pin the agreement.
"""

from dataclasses import replace

import pytest

from repro.core import AnalyticModel
from repro.core.simulate import (
    phase_trace,
    simulate_baseline_column_phase,
    simulate_column_phase,
    simulate_optimized_column_phase,
    simulate_row_phase,
)
from repro.errors import ConfigError, SimulationError
from repro.faults import builtin_fault_plans
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d import Memory3D
from repro.trace import block_column_read_trace


@pytest.fixture
def model(system_config):
    return AnalyticModel(system_config)


def ddl_layout(system_config, n):
    geo = optimal_block_geometry(system_config.memory, n)
    return BlockDDLLayout(n, n, geo.width, geo.height)


class TestBaselineColumn:
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_simulation_matches_model(self, system_config, model, n):
        simulated = simulate_baseline_column_phase(system_config, n)
        analytic = model.baseline_column_phase(n)
        assert simulated.throughput_gbps == pytest.approx(
            analytic.throughput_gbps, rel=0.03
        )

    def test_n2048_is_paper_number(self, system_config):
        phase = simulate_baseline_column_phase(system_config, 2048)
        assert phase.throughput_gbitps == pytest.approx(6.4, rel=0.02)

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_larger_sizes_are_paper_numbers(self, system_config, n):
        """Table 1: 3.2 Gb/s at N=4096 and 8192 (a same-bank stride)."""
        phase = simulate_baseline_column_phase(
            system_config, n, max_requests=131_072, engine="vector"
        )
        assert phase.throughput_gbitps == pytest.approx(3.2, rel=0.02)

    def test_memory_bound(self, system_config):
        phase = simulate_baseline_column_phase(system_config, 2048)
        assert phase.bound == "memory"

    def test_stats_populated(self, system_config):
        phase = simulate_baseline_column_phase(system_config, 1024)
        assert phase.stats is not None
        assert phase.stats.requests == 1024 * 1024

    def test_sampling_consistent_with_full(self, system_config):
        full = simulate_baseline_column_phase(system_config, 512, max_requests=1 << 30)
        sampled = simulate_baseline_column_phase(system_config, 512, max_requests=4096)
        assert sampled.memory_time_ns == pytest.approx(full.memory_time_ns, rel=0.05)


class TestOptimizedColumn:
    def test_kernel_bound_at_paper_sizes(self, system_config):
        layout = ddl_layout(system_config, 2048)
        phase = simulate_optimized_column_phase(system_config, 2048, layout)
        assert phase.bound == "kernel"
        assert phase.throughput_gbps == pytest.approx(32.0, rel=0.01)

    @pytest.mark.parametrize("n, gbps, utilization", [
        (4096, 25.6, 0.32), (8192, 23.04, 0.288),
    ])
    def test_larger_sizes_are_paper_numbers(
        self, system_config, n, gbps, utilization
    ):
        """Table 1: the DDL column phase is kernel-bound at the paper's
        rate for the larger sizes too."""
        phase = simulate_optimized_column_phase(
            system_config, n, ddl_layout(system_config, n),
            max_requests=131_072, engine="vector",
        )
        assert phase.bound == "kernel"
        assert phase.throughput_gbps == pytest.approx(gbps, rel=0.02)
        assert phase.utilization(system_config.peak_bandwidth) == pytest.approx(
            utilization, rel=0.02
        )

    def test_memory_side_near_peak(self, system_config):
        layout = ddl_layout(system_config, 2048)
        phase = simulate_optimized_column_phase(system_config, 2048, layout)
        memory_rate = phase.n_bytes / (phase.memory_time_ns / 1e9)
        assert memory_rate > 0.98 * system_config.peak_bandwidth

    def test_column_slices_slower_when_short(self, system_config):
        """Without whole-block fetches a too-flat block exposes activations."""
        n = 1024
        flat = BlockDDLLayout(n, n, width=16, height=2)
        tall = BlockDDLLayout(n, n, width=2, height=16)
        slow = simulate_optimized_column_phase(
            system_config, n, flat, whole_blocks=False
        )
        fast = simulate_optimized_column_phase(
            system_config, n, tall, whole_blocks=False
        )
        assert slow.memory_time_ns > 2 * fast.memory_time_ns

    def test_layout_shape_checked(self, system_config):
        layout = ddl_layout(system_config, 512)
        with pytest.raises(SimulationError):
            simulate_optimized_column_phase(system_config, 1024, layout)

    @pytest.mark.parametrize("streams", [3, 12])
    def test_streams_not_dividing_block_columns_cover_the_phase(
        self, system_config, streams
    ):
        # N=1024 h=8 has 1024 / 4 = 256 block columns: 3 and 12 streams
        # leave a partial last round, which still belongs to the phase.
        n = 1024
        config = replace(system_config, column_streams=streams)
        layout = BlockDDLLayout(n, n, width=4, height=8)
        assert layout.blocks_per_row_band % streams
        phase = simulate_optimized_column_phase(
            config, n, layout, max_requests=65_536, engine="vector"
        )
        assert phase.stats.requests == n * n
        assert phase.stats.bytes_transferred == phase.n_bytes

    def test_matches_analytic(self, system_config, model):
        layout = ddl_layout(system_config, 1024)
        simulated = simulate_optimized_column_phase(system_config, 1024, layout)
        analytic = model.optimized_column_phase(1024)
        assert simulated.throughput_gbps == pytest.approx(
            analytic.throughput_gbps, rel=0.03
        )


class TestRowPhase:
    def test_baseline_row_kernel_bound(self, system_config):
        phase = simulate_row_phase(system_config, 2048)
        assert phase.bound == "kernel"
        assert phase.throughput_gbps == pytest.approx(32.0, rel=0.02)

    def test_ddl_row_write_also_kernel_bound(self, system_config):
        layout = ddl_layout(system_config, 2048)
        phase = simulate_row_phase(system_config, 2048, layout=layout)
        assert phase.bound == "kernel"
        assert phase.throughput_gbps == pytest.approx(32.0, rel=0.02)

    def test_ddl_writes_stream_near_peak_memory_side(self, system_config):
        layout = ddl_layout(system_config, 2048)
        phase = simulate_row_phase(system_config, 2048, layout=layout)
        memory_rate = phase.n_bytes / (phase.memory_time_ns / 1e9)
        assert memory_rate > 0.95 * system_config.peak_bandwidth

    def test_layout_shape_checked(self, system_config):
        layout = ddl_layout(system_config, 512)
        with pytest.raises(SimulationError):
            simulate_row_phase(system_config, 1024, layout=layout)

    def test_row_phase_stats(self, system_config):
        phase = simulate_row_phase(system_config, 512)
        assert phase.stats is not None
        assert phase.stats.row_hit_rate > 0.9


class TestPhaseTrace:
    @pytest.mark.parametrize("layout", ["row-major", "ddl", "column-major"])
    def test_column_phase_rejects_zero_cap(self, system_config, layout):
        with pytest.raises(ConfigError, match="max_requests"):
            simulate_column_phase(system_config, 256, layout, max_requests=0)

    def test_row_phase_rejects_zero_cap(self, system_config):
        with pytest.raises(ConfigError, match="max_requests"):
            simulate_row_phase(system_config, 256, max_requests=0)
        with pytest.raises(ConfigError, match="max_requests"):
            simulate_row_phase(
                system_config, 256, layout=ddl_layout(system_config, 256),
                max_requests=-1,
            )

    @pytest.mark.parametrize(
        "pattern", ["column-walk", "row-walk", "block-writes", "block-reads"]
    )
    def test_builder_rejects_non_positive_cap(self, system_config, pattern):
        with pytest.raises(ConfigError):
            phase_trace(ddl_layout(system_config, 256), pattern, 0)

    def test_walk_prices_whole_columns(self):
        capped = phase_trace(RowMajorLayout(256, 256), "column-walk", 1000)
        assert len(capped.prefix) == capped.extent == 3 * 256
        assert capped.discipline == "in_order"
        whole = phase_trace(
            RowMajorLayout(256, 256), "column-walk", 1000, units=256
        )
        assert len(whole.prefix) == 3 * 256
        assert whole.extent == 256 * 256
        tiny = phase_trace(RowMajorLayout(256, 256), "row-walk", 10)
        assert len(tiny.prefix) == tiny.extent == 256

    def test_block_reads_generate_only_the_prefix(self, system_config):
        layout = ddl_layout(system_config, 512)
        phase = phase_trace(layout, "block-reads", 1000, streams=64)
        assert len(phase.prefix) == 1000
        assert phase.extent == 64 * layout.n_block_rows * layout.block_elements
        assert phase.discipline == "per_vault"
        # Streams are clamped to the layout's block columns.
        clamped = phase_trace(layout, "block-reads", 1000, streams=10_000)
        assert clamped.extent == layout.n_elements

    def test_block_patterns_need_a_ddl_layout(self):
        with pytest.raises(SimulationError, match="block DDL"):
            phase_trace(RowMajorLayout(64, 64), "block-reads", 4096)
        with pytest.raises(SimulationError, match="unknown phase pattern"):
            phase_trace(RowMajorLayout(64, 64), "diagonal", 4096)

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("cap", [4096, 16_384])
    def test_prefix_pricing_matches_sampled_whole_round(
        self, system_config, n, cap
    ):
        """Pricing the limit= prefix equals simulate(whole round, sample=)."""
        layout = ddl_layout(system_config, n)
        streams = system_config.column_streams
        phase = phase_trace(layout, "block-reads", cap, streams=streams)
        whole = block_column_read_trace(
            layout, n_streams=streams, block_cols=range(streams)
        )
        plans = {"healthy": None, **builtin_fault_plans(0)}
        for name, plan in plans.items():
            ours, reference = Memory3D(system_config.memory), Memory3D(
                system_config.memory
            )
            assert phase.price(ours, fault_plan=plan) == reference.simulate(
                whole, phase.discipline, sample=cap, fault_plan=plan
            ), name
            assert ours.last_fault_summary == reference.last_fault_summary


class TestHeightAblation:
    """Block height h for a column-at-a-time consumer at N=2048: below
    the Eq. (1) height activations leak through; at it the streams reach
    peak.  Whole-block fetches reach peak at every height."""

    N = 2048
    HEIGHTS = (1, 2, 4, 8, 16, 32)

    def utilization(self, system_config, whole_blocks):
        memory = Memory3D(system_config.memory)
        out = {}
        for h in self.HEIGHTS:
            layout = BlockDDLLayout(self.N, self.N, width=32 // h, height=h)
            trace = block_column_read_trace(
                layout, n_streams=16, whole_blocks=whole_blocks,
                block_cols=range(16), limit=32_768,
            )
            stats = memory.simulate(trace, "per_vault", engine="vector")
            out[h] = stats.utilization(system_config.peak_bandwidth)
        return out

    def test_column_at_a_time_knee_sits_at_eq1(self, system_config):
        util = self.utilization(system_config, whole_blocks=False)
        height = optimal_block_geometry(system_config.memory, self.N).height
        assert [h for h in self.HEIGHTS if util[h] > 0.99][0] == height
        assert util[height // 2] < 0.75
        assert util[1] < 0.25
        values = [util[h] for h in self.HEIGHTS]
        assert values == sorted(values)
        assert AnalyticModel(system_config).geometry(self.N).height == height

    def test_whole_blocks_reach_peak_at_every_height(self, system_config):
        util = self.utilization(system_config, whole_blocks=True)
        assert min(util.values()) > 0.99


class TestVaultParallelism:
    """Engaged column streams at N=2048: 5 GB/s per vault until the
    16-lane kernel (32 GB/s) binds, between 6 and 7 vaults."""

    @pytest.mark.parametrize("streams, gbps, bound", [
        (1, 5.0, "memory"), (2, 10.0, "memory"), (4, 20.0, "memory"),
        (8, 32.0, "kernel"), (16, 32.0, "kernel"),
    ])
    def test_throughput_per_stream_count(self, system_config, streams, gbps, bound):
        config = replace(system_config, column_streams=streams)
        phase = simulate_optimized_column_phase(
            config, 2048, ddl_layout(system_config, 2048),
            max_requests=32_768, engine="vector",
        )
        assert phase.throughput_gbps == pytest.approx(gbps, rel=0.03)
        assert phase.bound == bound

    def test_crossover_between_six_and_seven_vaults(self, system_config, model):
        vault_rate = system_config.memory.vault_peak_bandwidth
        assert 6.0 < model.kernel_rate(2048) / vault_rate < 7.0
