"""Planar DRAM model and the 3D-vs-2D comparison."""

import pytest

from repro.errors import ConfigError
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory2d import Memory2D, Memory2DConfig, ddr3_like_config
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.trace import block_column_read_trace, column_walk_trace, linear_trace


class TestConfig:
    def test_peak_bandwidth(self):
        config = ddr3_like_config()
        # 64 bits at 0.8 GHz -> 6.4 GB/s.
        assert config.peak_bandwidth == pytest.approx(6.4e9)

    def test_as_memory3d_is_single_vault(self):
        view = ddr3_like_config().as_memory3d()
        assert view.vaults == 1
        assert view.layers == 1
        assert view.banks_per_vault == 8

    def test_rejects_non_power_banks(self):
        with pytest.raises(ConfigError):
            Memory2DConfig(banks=6)

    def test_rejects_zero_bus(self):
        with pytest.raises(ConfigError):
            Memory2DConfig(bus_freq_hz=0.0)


class TestTiming:
    def test_sequential_stream_near_peak(self):
        memory = Memory2D(ddr3_like_config())
        stats = memory.simulate(linear_trace(0, 50_000))
        assert stats.utilization(memory.config.peak_bandwidth) > 0.9

    def test_column_walk_collapses(self):
        memory = Memory2D(ddr3_like_config())
        trace = column_walk_trace(RowMajorLayout(2048, 2048), cols=range(1))
        stats = memory.simulate(trace)
        assert stats.utilization(memory.config.peak_bandwidth) < 0.25

    def test_classifier_exposed(self):
        memory = Memory2D(ddr3_like_config())
        classes = memory.classify_transitions(linear_trace(0, 100))
        assert sum(classes.values()) == 99

    def test_sampling(self):
        memory = Memory2D(ddr3_like_config())
        trace = linear_trace(0, 10_000)
        full = memory.simulate(trace)
        sampled = memory.simulate(trace, sample=2000)
        assert sampled.elapsed_ns == pytest.approx(full.elapsed_ns, rel=0.05)


class Test3DAdvantage:
    """The premise of the paper: 3D memory offers ~10x the 2D bandwidth."""

    def test_peak_ratio_order_of_magnitude(self):
        ratio = pact15_hmc_config().peak_bandwidth / ddr3_like_config().peak_bandwidth
        assert 10.0 <= ratio <= 15.0

    def test_sequential_stream_ratio(self):
        mem3d = Memory3D(pact15_hmc_config())
        mem2d = Memory2D(ddr3_like_config())
        trace = linear_trace(0, 65_536)
        bw3 = mem3d.simulate(trace, "per_vault").bandwidth_gbps
        bw2 = mem2d.simulate(trace).bandwidth_gbps
        assert bw3 > 8 * bw2


class TestPlanarDDL:
    def test_ddl_rescues_a_single_channel_part(self):
        """Ref [6]'s setting, N=1024: the Eq. (1) block layout lifts a
        planar DDR column phase above 80% of peak, over 3x the walk."""
        n = 1024
        memory = Memory2D(ddr3_like_config())
        peak = memory.config.peak_bandwidth
        geo = optimal_block_geometry(memory.config.as_memory3d(), n)
        ddl = BlockDDLLayout(n, n, geo.width, geo.height)
        base = memory.simulate(
            column_walk_trace(RowMajorLayout(n, n), cols=range(4)), sample=16_384
        ).utilization(peak)
        opt = memory.simulate(
            block_column_read_trace(ddl, n_streams=1, block_cols=range(2)),
            sample=16_384,
        ).utilization(peak)
        assert opt > 3 * base
        assert opt > 0.8
