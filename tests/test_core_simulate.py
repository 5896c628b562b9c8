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
