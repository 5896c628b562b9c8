"""Memory3DConfig and TimingParameters validation and derived sizes."""

import pytest

from repro.errors import ConfigError
from repro.core import AnalyticModel
from repro.core.config import SystemConfig
from repro.memory3d import Memory3DConfig, TimingParameters, pact15_hmc_config
from repro.memory3d.config import hmc_gen2_config, wideio_like_config


class TestTimingParameters:
    def test_defaults_are_paper_calibration(self):
        t = TimingParameters()
        assert t.t_in_row == 1.6
        assert t.t_in_vault == 4.8
        assert t.t_diff_bank == 10.0
        assert t.t_diff_row == 20.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            TimingParameters(t_in_row=-1.0)

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            TimingParameters(t_diff_row=0.0)

    def test_rejects_misordered(self):
        # The streaming beat cannot exceed the row cycle.
        with pytest.raises(ConfigError):
            TimingParameters(t_in_row=30.0, t_diff_row=20.0)

    def test_rejects_bank_gap_above_row_cycle(self):
        with pytest.raises(ConfigError):
            TimingParameters(t_diff_bank=25.0, t_diff_row=20.0)

    def test_equal_values_allowed(self):
        t = TimingParameters(t_in_row=5.0, t_in_vault=5.0, t_diff_bank=5.0, t_diff_row=5.0)
        assert t.t_in_row == t.t_diff_row


class TestGeometry:
    def test_banks_per_vault(self, mem_config):
        assert mem_config.banks_per_vault == mem_config.layers * mem_config.banks_per_layer

    def test_total_banks(self, mem_config):
        assert mem_config.total_banks == mem_config.vaults * mem_config.banks_per_vault

    def test_row_elements(self, mem_config):
        assert mem_config.row_elements == mem_config.row_bytes // 8

    def test_capacity(self, mem_config):
        expected = (
            mem_config.row_bytes
            * mem_config.rows_per_bank
            * mem_config.total_banks
        )
        assert mem_config.capacity_bytes == expected

    def test_rejects_non_power_of_two_vaults(self):
        with pytest.raises(ConfigError):
            Memory3DConfig(vaults=3)

    def test_rejects_non_power_of_two_row(self):
        with pytest.raises(ConfigError):
            Memory3DConfig(row_bytes=100)

    def test_rejects_zero_layers(self):
        with pytest.raises(ConfigError):
            Memory3DConfig(layers=0)

    def test_rejects_non_int(self):
        with pytest.raises(ConfigError):
            Memory3DConfig(vaults=16.0)  # type: ignore[arg-type]


class TestBandwidth:
    def test_vault_peak_is_5gbps(self, mem_config):
        # 32 TSVs at 1.25 GHz, 1 bit each -> 5 GB/s.
        assert mem_config.vault_peak_bandwidth == pytest.approx(5e9)

    def test_device_peak_is_80gbps(self, mem_config):
        assert mem_config.peak_bandwidth == pytest.approx(80e9)

    def test_peak_scales_with_vaults(self):
        half = Memory3DConfig(vaults=8)
        assert half.peak_bandwidth == pytest.approx(40e9)


class TestPreset:
    def test_pact15_preset_matches_defaults(self):
        assert pact15_hmc_config() == Memory3DConfig()

    def test_describe_mentions_key_numbers(self, mem_config):
        text = mem_config.describe()
        assert "16 vaults" in text
        assert "80.00 GB/s" in text
        assert "t_diff_row=20.0" in text


class TestTechnologyPresets:
    def test_gen2_peak(self):
        from repro.memory3d.config import hmc_gen2_config

        config = hmc_gen2_config()
        assert config.peak_bandwidth == pytest.approx(320e9)
        assert config.vaults == 32

    def test_wideio_peak(self):
        from repro.memory3d.config import wideio_like_config

        config = wideio_like_config()
        # 4 vaults x 128 bits x 0.2 GHz / 8 = 12.8 GB/s.
        assert config.peak_bandwidth == pytest.approx(12.8e9)

    def test_presets_are_valid_configs(self):
        from repro.memory3d.config import hmc_gen2_config, wideio_like_config

        for config in (hmc_gen2_config(), wideio_like_config()):
            assert config.row_elements >= 1
            assert config.timing.t_in_row <= config.timing.t_diff_row


class TestTechnologySurvey:
    """The N=4096 column phase across stacks: the baseline stays
    activate-gap-bound under 1% of peak while peak quadruples, and
    Eq. (1) re-derives the block shape per stack."""

    N = 4096

    @staticmethod
    def model(memory):
        return AnalyticModel(
            SystemConfig(memory=memory, column_streams=min(16, memory.vaults))
        )

    def test_baseline_stays_under_one_percent(self):
        gen1, gen2 = pact15_hmc_config(), hmc_gen2_config()
        assert gen2.peak_bandwidth == pytest.approx(4 * gen1.peak_bandwidth)
        for memory in (gen1, gen2):
            phase = self.model(memory).baseline_column_phase(self.N)
            assert phase.utilization(memory.peak_bandwidth) < 0.01

    def test_eq1_adapts_per_stack(self):
        assert self.model(hmc_gen2_config()).geometry(self.N).height >= 16
        wide = wideio_like_config()
        geo = self.model(wide).geometry(self.N)
        assert geo.width * geo.height == wide.row_elements
        for memory in (pact15_hmc_config(), hmc_gen2_config(), wide):
            ratio = memory.timing.t_diff_row / memory.timing.t_in_row
            assert self.model(memory).geometry(self.N).height <= 2 * ratio

    def test_optimized_memory_side_tracks_peak(self):
        for memory in (pact15_hmc_config(), hmc_gen2_config(), wideio_like_config()):
            streams = min(16, memory.vaults)
            rate = min(memory.peak_bandwidth, streams * memory.vault_peak_bandwidth)
            assert rate >= 0.2 * memory.peak_bandwidth
