"""The analytic model must reproduce the paper's Tables 1 and 2."""

import pytest

from repro.core import AnalyticModel
from repro.core.config import KernelConfig, SystemConfig
from repro.errors import ConfigError
from repro.memory3d import Memory3DConfig, TimingParameters


@pytest.fixture
def model():
    return AnalyticModel()


class TestBaselineColumnGap:
    """The per-element gap behind Table 1's baseline rows."""

    def test_n2048_pays_t_diff_bank(self, model):
        assert model.baseline_column_gap_ns(2048) == pytest.approx(10.0)

    @pytest.mark.parametrize("n", [4096, 8192, 16384])
    def test_large_sizes_pay_t_diff_row(self, model, n):
        assert model.baseline_column_gap_ns(n) == pytest.approx(20.0)

    def test_small_stride_amortizes_in_row(self, model):
        # n=16: two column elements share a row buffer chunk.
        gap = model.baseline_column_gap_ns(16)
        assert gap < 20.0

    def test_vault_rotating_stride_streams(self):
        # A 24-chunk stride (n = 768) rotates vaults: 768*8/256 = 24, 24%16 != 0.
        model = AnalyticModel()
        assert model.baseline_column_gap_ns(768) == pytest.approx(1.6)

    def test_cross_layer_stride(self):
        """A stride stepping banks by an odd amount crosses layers."""
        model = AnalyticModel()
        # n=512: stride chunks = 16 -> bank_step 1 -> t_in_vault pairs,
        # but the 8-bank cycle means t_diff_row/8 = 2.5 < 4.8.
        assert model.baseline_column_gap_ns(512) == pytest.approx(4.8)


class TestTable1:
    """Exact reproduction of the paper's Table 1."""

    def test_baseline_throughputs(self, model):
        rows = model.table1()
        assert [round(r.baseline_gbitps, 1) for r in rows] == [6.4, 3.2, 3.2]

    def test_baseline_utilizations(self, model):
        rows = model.table1()
        assert [round(100 * r.baseline_utilization, 2) for r in rows] == [
            1.0, 0.5, 0.5,
        ]

    def test_optimized_throughputs(self, model):
        rows = model.table1()
        assert [round(r.optimized_gbps, 2) for r in rows] == [32.0, 25.6, 23.04]

    def test_optimized_utilizations(self, model):
        rows = model.table1()
        assert [round(100 * r.optimized_utilization, 1) for r in rows] == [
            40.0, 32.0, 28.8,
        ]


class TestTable2:
    """Exact reproduction of the paper's Table 2 headline numbers."""

    def test_optimized_application_throughput(self, model):
        pairs = model.table2()
        optimized = [round(opt.throughput_gbps, 2) for _, opt in pairs]
        assert optimized == [32.0, 25.6, 23.04]

    def test_improvements_match_paper(self, model):
        pairs = model.table2()
        improvements = [opt.improvement_over(base) for base, opt in pairs]
        # Paper: 95.1%, 97.0%, 96.6% (we land within rounding).
        assert improvements[0] == pytest.approx(95.1, abs=0.1)
        assert improvements[1] == pytest.approx(97.0, abs=0.2)
        assert improvements[2] == pytest.approx(96.6, abs=0.1)

    def test_data_parallelism(self, model):
        base, opt = model.table2((2048,))[0]
        assert base.data_parallelism == 1
        assert opt.data_parallelism == 16

    def test_latency_reduced_up_to_3x_and_beyond(self, model):
        """Paper: 'latency is reduced by up to 3x'.  Our N=2048 case lands at
        2.99x; the larger sizes (which pay t_diff_row per element in the
        baseline) improve even more."""
        reductions = [
            opt.latency_reduction_over(base) for base, opt in model.table2()
        ]
        assert reductions[0] == pytest.approx(3.0, abs=0.05)
        assert reductions[1] > reductions[0]
        assert reductions[2] > reductions[0]

    def test_baseline_column_is_memory_bound(self, model):
        base, opt = model.table2((2048,))[0]
        assert base.column_phase.bound == "memory"
        assert opt.column_phase.bound == "kernel"

    def test_row_phases_equal(self, model):
        base, opt = model.table2((2048,))[0]
        assert base.row_phase.time_ns == pytest.approx(opt.row_phase.time_ns)


class TestModelStructure:
    def test_kernel_rate_matches_config(self, model):
        assert model.kernel_rate(2048) == pytest.approx(32e9)

    def test_fill_latency_positive(self, model):
        assert model.kernel_fill_latency_ns(2048) > 0

    def test_geometry_passthrough(self, model):
        geo = model.geometry(2048)
        assert (geo.width, geo.height) == (2, 16)

    def test_rejects_tiny_size(self, model):
        with pytest.raises(ConfigError):
            model.baseline_system(1)

    def test_custom_memory_changes_numbers(self):
        slow = SystemConfig(
            memory=Memory3DConfig(
                timing=TimingParameters(
                    t_in_row=1.6, t_in_vault=4.8, t_diff_bank=10.0, t_diff_row=40.0
                )
            )
        )
        model = AnalyticModel(slow)
        assert model.baseline_column_gap_ns(4096) == pytest.approx(40.0)

    def test_fewer_streams_cap_optimized_memory(self):
        config = SystemConfig(column_streams=4)
        model = AnalyticModel(config)
        phase = model.optimized_column_phase(2048)
        # 4 vaults x 5 GB/s = 20 GB/s < kernel 32 -> memory bound.
        assert phase.bound == "memory"
        assert phase.throughput_gbps == pytest.approx(20.0)

    def test_narrow_kernel_binds_earlier(self):
        config = SystemConfig(kernel=KernelConfig(lanes=4))
        model = AnalyticModel(config)
        phase = model.optimized_column_phase(2048)
        assert phase.throughput_gbps == pytest.approx(8.0)


class TestTimingSensitivity:
    """Eq. (1) absorbs slower rows: the baseline column phase slows in
    proportion to t_diff_row while the optimized one stays kernel-bound."""

    @staticmethod
    def model(t_diff_row, t_in_row=1.6, tsv_freq_hz=1.25e9):
        timing = TimingParameters(
            t_in_row=t_in_row, t_in_vault=4.8, t_diff_bank=10.0,
            t_diff_row=t_diff_row,
        )
        memory = Memory3DConfig(timing=timing, tsv_freq_hz=tsv_freq_hz)
        return AnalyticModel(SystemConfig(memory=memory))

    def test_baseline_inverse_in_penalty_optimized_flat(self):
        penalties = (10.0, 20.0, 40.0, 80.0)
        models = [self.model(p) for p in penalties]
        base = [m.baseline_column_phase(4096).throughput_gbps for m in models]
        heights = [m.geometry(4096).height for m in models]
        assert base[0] == pytest.approx(2 * base[1], rel=0.01)
        assert base[1] == pytest.approx(2 * base[2], rel=0.01)
        assert heights == sorted(heights) and heights[-1] > heights[0]
        for m in models:
            assert m.optimized_column_phase(4096).throughput_gbps == pytest.approx(
                25.6, rel=0.01
            )

    def test_half_speed_beat_halves_peak_kernel_still_binds(self):
        fast = self.model(20.0)
        slow = self.model(20.0, t_in_row=3.2, tsv_freq_hz=0.625e9)
        assert fast.config.peak_bandwidth == pytest.approx(
            2 * slow.config.peak_bandwidth, rel=0.01
        )
        assert slow.optimized_column_phase(4096).throughput_gbps == pytest.approx(
            25.6, rel=0.01
        )
