"""DRAM refresh modeling."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memory3d import Memory3D, Memory3DConfig, RefreshParameters
from repro.obs import EventKind, EventTrace
from repro.trace import TraceArray, linear_trace


@pytest.fixture
def refreshing_memory():
    config = Memory3DConfig(
        refresh=RefreshParameters(t_refi_ns=1000.0, t_rfc_ns=100.0)
    )
    return Memory3D(config)


class TestParameters:
    def test_ceiling(self):
        assert RefreshParameters(1000.0, 100.0).bandwidth_ceiling == pytest.approx(0.9)

    def test_rejects_rfc_above_refi(self):
        with pytest.raises(ConfigError):
            RefreshParameters(t_refi_ns=100.0, t_rfc_ns=100.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            RefreshParameters(t_refi_ns=0.0)

    def test_disabled_by_default(self):
        assert Memory3DConfig().refresh is None


class TestRefreshTiming:
    def test_utilization_approaches_ceiling(self, refreshing_memory):
        config = refreshing_memory.config
        stats = refreshing_memory.simulate(linear_trace(0, 100_000), "per_vault")
        util = stats.utilization(config.peak_bandwidth)
        ceiling = config.refresh.bandwidth_ceiling
        assert util < ceiling + 0.005
        assert util > ceiling - 0.05

    def test_no_refresh_is_faster(self, refreshing_memory):
        plain = Memory3D(Memory3DConfig())
        trace = linear_trace(0, 50_000)
        with_refresh = refreshing_memory.simulate(trace, "per_vault")
        without = plain.simulate(trace, "per_vault")
        assert with_refresh.elapsed_ns > without.elapsed_ns

    def test_engines_agree_under_refresh(self, refreshing_memory, rng):
        addresses = rng.integers(0, 1 << 14, size=400, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        for discipline in ("in_order", "per_vault"):
            fast = refreshing_memory.simulate(trace, discipline, engine="exact")
            reference = refreshing_memory.simulate_reference(trace, discipline)
            assert fast.elapsed_ns == pytest.approx(reference.elapsed_ns)
            assert fast.row_activations == reference.row_activations

    def test_vaults_stagger(self, refreshing_memory):
        """Vault v's first refresh window opens at v * t_refi / vaults."""
        config = refreshing_memory.config
        recorder = EventTrace()
        Memory3D(config, recorder=recorder).simulate(
            linear_trace(0, 20_000), "per_vault", engine="exact"
        )
        first_window: dict[int, float] = {}
        for kind, vault, ts, dur in zip(
            recorder.kinds, recorder.vaults, recorder.ts_ns, recorder.dur_ns,
            strict=True,
        ):
            if kind == EventKind.REFRESH_STALL and vault not in first_window:
                # A stall ends when the window closes, t_rfc after it opens.
                first_window[vault] = ts + dur - config.refresh.t_rfc_ns
        spacing = config.refresh.t_refi_ns / config.vaults
        assert first_window[0] == pytest.approx(0.0, abs=1e-6)
        assert first_window[1] == pytest.approx(spacing)
        assert first_window[1] - first_window[0] == pytest.approx(spacing)

    def test_command_in_window_deferred(self):
        from repro.memory3d.vault import VaultTimingModel

        config = Memory3DConfig(
            refresh=RefreshParameters(t_refi_ns=1000.0, t_rfc_ns=100.0)
        )
        vault = VaultTimingModel(config, vault_id=0)
        # t=50 falls inside vault 0's first window [0, 100).
        assert vault.defer_for_refresh(50.0) == pytest.approx(100.0)
        assert vault.defer_for_refresh(150.0) == pytest.approx(150.0)
        # The window repeats every t_refi.
        assert vault.defer_for_refresh(1050.0) == pytest.approx(1100.0)

    def test_staggered_vault_window(self):
        from repro.memory3d.vault import VaultTimingModel

        config = Memory3DConfig(
            refresh=RefreshParameters(t_refi_ns=1600.0, t_rfc_ns=100.0)
        )
        vault = VaultTimingModel(config, vault_id=4)
        offset = 4 * 1600.0 / 16
        assert vault.defer_for_refresh(offset + 10.0) == pytest.approx(offset + 100.0)
        assert vault.defer_for_refresh(offset - 10.0) == pytest.approx(offset - 10.0)
