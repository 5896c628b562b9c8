"""Fault injection: injectors, plans, determinism, degradation pins."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.errors import FaultError, SimulationError
from repro.faults import (
    ERR_CORRECTED,
    ERR_NONE,
    ERR_UNCORRECTABLE,
    REPORT_LAYOUTS,
    BitErrorModel,
    FaultPlan,
    LatencyJitter,
    RefreshStorm,
    ThermalThrottle,
    VaultFailure,
    builtin_fault_plans,
    column_phase_stats,
    compile_plan,
    degradation_report,
    fault_plan_from_dict,
    injector_from_dict,
    load_fault_plan,
    plan_to_dict,
    render_degradation,
)
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d import Memory3D, pact15_hmc_config
from repro.memory3d.scheduler import OpenPageScheduler
from repro.obs import EventTrace
from repro.obs.events import EventKind
from repro.trace import block_column_read_trace, column_walk_trace

CONFIG = pact15_hmc_config()

#: Small but representative request budget for engine-level tests.
SAMPLE = 8_192


def _ddl_trace(n=512):
    geometry = optimal_block_geometry(CONFIG, n)
    layout = BlockDDLLayout(n, n, geometry.width, geometry.height)
    return block_column_read_trace(layout, n_streams=2, block_cols=range(2))


def _row_major_trace(n=256, cols=8):
    return column_walk_trace(RowMajorLayout(n, n), cols=range(cols))


class TestInjectorValidation:
    def test_vault_failure_rejects_bad_ids(self):
        with pytest.raises(FaultError):
            VaultFailure(dead_vaults=())
        with pytest.raises(FaultError):
            VaultFailure(dead_vaults=(0, 0))
        with pytest.raises(FaultError):
            VaultFailure(dead_vaults=(-1,))

    def test_jitter_and_storm_bounds(self):
        with pytest.raises(FaultError):
            LatencyJitter(amplitude_ns=0.0)
        with pytest.raises(FaultError):
            RefreshStorm(period_ns=100.0, duration_ns=100.0)
        with pytest.raises(FaultError):
            RefreshStorm(period_ns=0.0, duration_ns=10.0)

    def test_throttle_and_bit_error_bounds(self):
        with pytest.raises(FaultError):
            ThermalThrottle(threshold=1.5)
        with pytest.raises(FaultError):
            ThermalThrottle(derate=1.0)
        with pytest.raises(FaultError):
            BitErrorModel(rate=0.0)
        with pytest.raises(FaultError):
            BitErrorModel(rate=1e-3, uncorrectable_fraction=2.0)

    def test_storm_lockout_fraction(self):
        storm = RefreshStorm(period_ns=2000.0, duration_ns=200.0)
        assert storm.lockout_fraction == pytest.approx(0.1)


class TestPlanSpecs:
    def test_plan_rejects_duplicates_and_bad_seed(self):
        with pytest.raises(FaultError, match="duplicate"):
            FaultPlan(
                (LatencyJitter(1.0), LatencyJitter(2.0)), name="dup"
            )
        with pytest.raises(FaultError, match="seed"):
            FaultPlan(seed=-1)
        with pytest.raises(FaultError, match="name"):
            FaultPlan(name="")

    def test_dict_round_trip_every_builtin(self):
        for name, plan in builtin_fault_plans(seed=7).items():
            restored = fault_plan_from_dict(plan_to_dict(plan))
            assert restored == plan, name

    def test_json_spec_file(self, tmp_path):
        plan = FaultPlan(
            (VaultFailure((3,)), BitErrorModel(rate=1e-3)),
            seed=11, name="mixed",
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
        assert load_fault_plan(path) == plan

    def test_toml_spec_file_with_faults_table(self, tmp_path):
        path = tmp_path / "plan.toml"
        path.write_text(
            "[faults]\n"
            'name = "stormy"\n'
            "seed = 3\n"
            "[[faults.injectors]]\n"
            'kind = "refresh-storm"\n'
            "period_ns = 1000.0\n"
            "duration_ns = 50.0\n"
            "vaults = [0, 1]\n"
        )
        plan = load_fault_plan(path)
        assert plan.name == "stormy"
        assert plan.seed == 3
        assert plan.injectors == (
            RefreshStorm(period_ns=1000.0, duration_ns=50.0, vaults=(0, 1)),
        )

    def test_bad_specs_raise_fault_error(self, tmp_path):
        with pytest.raises(FaultError, match="unknown injector kind"):
            injector_from_dict({"kind": "cosmic-rays"})
        with pytest.raises(FaultError, match="unknown keys"):
            injector_from_dict({"kind": "latency-jitter", "amp": 1.0})
        with pytest.raises(FaultError, match="unknown keys"):
            fault_plan_from_dict({"seed": 0, "injektors": []})
        torn = tmp_path / "plan.json"
        torn.write_text("{torn", encoding="utf-8")
        with pytest.raises(FaultError, match="invalid JSON"):
            load_fault_plan(torn)
        with pytest.raises(FaultError, match="cannot read"):
            load_fault_plan(tmp_path / "absent.json")


class TestCompile:
    def test_vault_remap_targets_survivors(self):
        plan = FaultPlan((VaultFailure((0, 5)),), name="dead")
        state = compile_plan(plan, CONFIG, 16)
        assert state.remap is not None
        dead = {0, 5}
        for vault, target in enumerate(state.remap):
            if vault in dead:
                assert target not in dead
            else:
                assert target == vault

    def test_vault_failure_rejects_out_of_range_and_total_loss(self):
        with pytest.raises(FaultError, match="outside"):
            compile_plan(
                FaultPlan((VaultFailure((99,)),)), CONFIG, 4
            )
        with pytest.raises(FaultError, match="every vault"):
            compile_plan(
                FaultPlan((VaultFailure(tuple(range(CONFIG.vaults))),)),
                CONFIG, 4,
            )

    def test_substreams_are_independent_of_other_injectors(self):
        # The jitter draws depend only on (seed, injector index), so a
        # plan that *prepends* another injector shifts them, while one
        # keeping jitter at index 0 reproduces them exactly.
        alone = compile_plan(
            FaultPlan((LatencyJitter(2.0),), seed=5), CONFIG, 64
        )
        again = compile_plan(
            FaultPlan((LatencyJitter(2.0), ThermalThrottle()), seed=5),
            CONFIG, 64,
        )
        assert alone.jitter == again.jitter

    def test_bit_error_classes_follow_rate(self):
        plan = FaultPlan((BitErrorModel(rate=0.5),), seed=1)
        state = compile_plan(plan, CONFIG, 10_000)
        classes = state.error_class
        errored = sum(1 for c in classes if c != ERR_NONE)
        assert 0.4 < errored / len(classes) < 0.6
        assert any(c == ERR_CORRECTED for c in classes)
        assert any(c == ERR_UNCORRECTABLE for c in classes)


class TestFaultedSimulation:
    """The faulted timing loop, one injector at a time."""

    def test_healthy_plan_changes_nothing(self):
        trace = _ddl_trace()
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(trace, "per_vault", sample=SAMPLE)
        nop = memory.simulate(
            trace, "per_vault", sample=SAMPLE, fault_plan=FaultPlan()
        )
        assert nop.elapsed_ns == healthy.elapsed_ns
        assert nop.row_activations == healthy.row_activations
        # An injector-free plan is the healthy fast path: no fault
        # machinery runs, so no fault summary is produced.
        assert memory.last_fault_summary is None

    def test_determinism_across_runs_and_instances(self):
        trace = _ddl_trace()
        plan = builtin_fault_plans(seed=42)["bit-errors"]
        first = Memory3D(CONFIG).simulate(
            trace, "per_vault", sample=SAMPLE, fault_plan=plan
        )
        second = Memory3D(CONFIG).simulate(
            trace, "per_vault", sample=SAMPLE, fault_plan=plan
        )
        assert first == second  # dataclass equality: every field matches

    def test_seed_changes_stochastic_outcomes(self):
        trace = _ddl_trace()
        memory = Memory3D(CONFIG)
        memory.simulate(
            trace, "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans(seed=1)["latency-jitter"],
        )
        first = memory.last_fault_summary["jitter_ns"]
        memory.simulate(
            trace, "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans(seed=2)["latency-jitter"],
        )
        assert memory.last_fault_summary["jitter_ns"] != first

    def test_vault_failure_slows_and_remaps(self):
        trace = _ddl_trace()
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(trace, "per_vault", sample=SAMPLE)
        faulted = memory.simulate(
            trace, "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans()["vault-failure"],
        )
        assert faulted.elapsed_ns > healthy.elapsed_ns
        assert memory.last_fault_summary["remapped_requests"] > 0

    def test_latency_jitter_accumulates(self):
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(_ddl_trace(), "per_vault", sample=SAMPLE)
        faulted = memory.simulate(
            _ddl_trace(), "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans()["latency-jitter"],
        )
        assert faulted.elapsed_ns > healthy.elapsed_ns
        assert memory.last_fault_summary["jitter_ns"] > 0.0

    def test_refresh_storm_stalls(self):
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(_ddl_trace(), "per_vault", sample=SAMPLE)
        faulted = memory.simulate(
            _ddl_trace(), "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans()["refresh-storm"],
        )
        assert faulted.elapsed_ns > healthy.elapsed_ns
        assert memory.last_fault_summary["storm_stall_ns"] > 0.0

    def test_thermal_throttle_trips_on_sustained_streaming(self):
        # Long per-vault streams keep the duty cycle above threshold, so
        # windows close hot and the following windows run derated.
        trace = _ddl_trace(n=512)
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(trace, "per_vault", sample=65_536)
        faulted = memory.simulate(
            trace, "per_vault", sample=65_536,
            fault_plan=builtin_fault_plans()["thermal-throttle"],
        )
        summary = memory.last_fault_summary
        assert summary["throttled_windows"] > 0
        assert summary["throttle_stall_ns"] > 0.0
        assert faulted.elapsed_ns > healthy.elapsed_ns

    def test_bit_errors_pay_correction_and_count(self):
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(_ddl_trace(), "per_vault", sample=SAMPLE)
        faulted = memory.simulate(
            _ddl_trace(), "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans()["bit-errors"],
        )
        summary = memory.last_fault_summary
        assert summary["corrected_errors"] > 0
        assert faulted.elapsed_ns > healthy.elapsed_ns

    def test_constructor_default_plan_applies(self):
        plan = builtin_fault_plans()["latency-jitter"]
        memory = Memory3D(CONFIG, fault_plan=plan)
        healthy = Memory3D(CONFIG).simulate(
            _ddl_trace(), "per_vault", sample=SAMPLE
        )
        faulted = memory.simulate(_ddl_trace(), "per_vault", sample=SAMPLE)
        assert faulted.elapsed_ns > healthy.elapsed_ns

    def test_request_accounting_is_preserved(self):
        """Faults move time, never requests: counts match the healthy run."""
        trace = _row_major_trace()
        memory = Memory3D(CONFIG)
        healthy = memory.simulate(trace, "in_order", sample=SAMPLE)
        for name, plan in builtin_fault_plans().items():
            faulted = memory.simulate(
                trace, "in_order", sample=SAMPLE, fault_plan=plan
            )
            assert faulted.requests == healthy.requests, name


class TestFaultObservability:
    def test_bit_error_events_recorded(self):
        recorder = EventTrace()
        memory = Memory3D(CONFIG, recorder=recorder)
        memory.simulate(
            _ddl_trace(), "per_vault", sample=SAMPLE,
            fault_plan=builtin_fault_plans()["bit-errors"],
        )
        events = recorder.events(EventKind.BIT_ERROR)
        summary = memory.last_fault_summary
        assert len(events) == (
            summary["corrected_errors"] + summary["uncorrectable_errors"]
        )
        # Corrected errors carry the ECC penalty, uncorrectable are 0-dur.
        durations = {event.dur_ns for event in events}
        assert 20.0 in durations

    def test_simulate_tagged_supports_faults(self):
        import numpy as np

        trace = _ddl_trace()
        tags = np.zeros(len(trace), dtype=np.int64)
        memory = Memory3D(CONFIG)
        plan = builtin_fault_plans()["refresh-storm"]
        plain = memory.simulate(trace, "per_vault", fault_plan=plan)
        per_tag = memory.simulate_tagged(
            trace, tags, "per_vault", fault_plan=plan
        )
        assert set(per_tag) == {-1, 0}
        assert per_tag[-1].elapsed_ns == plain.elapsed_ns
        assert per_tag[-1].row_activations == plain.row_activations

    def test_scheduler_passes_plan_through(self):
        scheduler = OpenPageScheduler(Memory3D(CONFIG))
        trace = _row_major_trace()
        healthy = scheduler.simulate(trace)
        faulted = scheduler.simulate(
            trace, fault_plan=builtin_fault_plans()["latency-jitter"]
        )
        # Same issue order, degraded pricing.
        assert (faulted.reordered.addresses == healthy.reordered.addresses).all()
        assert faulted.stats.elapsed_ns > healthy.stats.elapsed_ns


class TestDegradationReport:
    @pytest.fixture(scope="class")
    def report(self):
        return degradation_report(n=256, max_requests=SAMPLE)

    def test_shape_and_determinism(self, report):
        assert set(report["layouts"]) == set(REPORT_LAYOUTS)
        assert report["plans"] == sorted(builtin_fault_plans())
        again = degradation_report(n=256, max_requests=SAMPLE)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_every_cell_retains_some_bandwidth(self, report):
        for layout, entry in report["layouts"].items():
            assert entry["healthy_gbps"] > 0
            for name, cell in entry["plans"].items():
                assert 0.0 < cell["retained"] <= 1.0, (layout, name)

    def test_ddl_advantage_survives_every_fault_class(self, report):
        """The pinned regression: faults shrink the DDL's advantage but
        never invert it -- block DDL stays ahead of row-major under every
        shipped fault class."""
        advantage = report["advantage"]
        assert advantage["healthy"] > 10.0
        for name in report["plans"]:
            assert advantage[name] > 1.0, name
            assert advantage[name] <= advantage["healthy"] * 1.01, name

    def test_advantage_and_retained_shares_pinned(self, report):
        """The exact model outputs at N=256: the DDL's advantage halves
        when a vault fails (half its streams), and that is also the worst
        share of its healthy bandwidth any fault class leaves it."""
        assert report["advantage"] == {
            "healthy": 23.998046875,
            "vault-failure": 11.9990234375,
            "latency-jitter": 16.52980685750984,
            "refresh-storm": 24.100470957613815,
            "thermal-throttle": 23.998046875,
            "bit-errors": 22.698817106460414,
        }
        ddl = report["layouts"]["block-ddl"]["plans"]
        assert min(cell["retained"] for cell in ddl.values()) == 0.5
        assert ddl["vault-failure"]["retained"] == 0.5

    def test_render_markdown(self, report):
        text = render_degradation(report)
        assert text.startswith("# Fault degradation report")
        for layout in REPORT_LAYOUTS:
            assert f"| {layout} |" in text
        assert "**" in text  # the advantage ratios
        embedded = render_degradation(report, heading="## Custom")
        assert embedded.startswith("## Custom")

    def test_column_phase_stats_matches_report(self, report):
        stats = column_phase_stats(
            SystemConfig(), 256, "row-major", max_requests=SAMPLE
        )
        assert stats.bandwidth_gbps == pytest.approx(
            report["layouts"]["row-major"]["healthy_gbps"]
        )

    def test_column_phase_stats_unknown_layout_is_a_simulation_error(self):
        with pytest.raises(SimulationError, match="unknown layout"):
            column_phase_stats(SystemConfig(), 256, "diagonal", max_requests=SAMPLE)

    def test_custom_plan_mapping(self):
        plans = {"dead-vault": FaultPlan((VaultFailure((2,)),),
                                         name="dead-vault")}
        report = degradation_report(n=256, max_requests=SAMPLE, plans=plans)
        assert report["plans"] == ["dead-vault"]
        assert "dead-vault" in report["advantage"]
