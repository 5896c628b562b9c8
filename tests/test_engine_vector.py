"""The vectorized batch timing engine vs the exact reference loop.

The contract under test is *identity*, not approximation: both engines
share the integer-picosecond timebase, so every supported case must
compare ``==`` on the full :class:`AccessStats` -- and every unsupported
case must fall back to the exact loop loudly
(:attr:`Memory3D.last_fallback_reason`), never silently diverge.
CI's ``engine-equivalence`` job runs the full corpus via
``tools/check_engine_equivalence.py``; these tests pin the same contract
plus the dispatch/fallback machinery at unit granularity.
"""

import numpy as np
import pytest

from repro.core.simulate import phase_trace
from repro.errors import ConfigError, SimulationError
from repro.faults.plan import builtin_fault_plans
from repro.layouts import (
    BlockDDLLayout,
    ColumnMajorLayout,
    RowMajorLayout,
    optimal_block_geometry,
)
from repro.memory3d import Memory3D, Memory3DConfig, pact15_hmc_config
from repro.memory3d import vector as vector_engine
from repro.memory3d.config import (
    RefreshParameters,
    hmc_gen2_config,
    wideio_like_config,
)
from repro.obs import EventTrace
from repro.sweep import SweepGrid, run_sweep
from repro.trace import (
    TraceArray,
    block_column_read_trace,
    column_walk_trace,
    compile_trace,
    linear_trace,
    row_walk_trace,
    strided_trace,
)

N = 32


def corpus():
    rm = RowMajorLayout(N, N)
    cm = ColumnMajorLayout(N, N)
    ddl = BlockDDLLayout(N, N, width=8, height=8)
    return {
        "linear": linear_trace(0, N * N),
        "strided-bank": strided_trace(0, 512, 1 << 15),
        "col-walk-rm": column_walk_trace(rm),
        "row-walk-cm": row_walk_trace(cm),
        "ddl-read": block_column_read_trace(ddl, n_streams=4),
    }


def both_engines(trace, discipline, config=None, **kwargs):
    config = config or pact15_hmc_config()
    mem_exact = Memory3D(config)
    mem_vector = Memory3D(config)
    exact = mem_exact.simulate(trace, discipline, engine="exact", **kwargs)
    vector = mem_vector.simulate(trace, discipline, engine="vector", **kwargs)
    return exact, vector, mem_exact, mem_vector


class TestEquivalence:
    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_stats_identical(self, name, discipline):
        exact, vector, _, _ = both_engines(corpus()[name], discipline)
        assert exact == vector

    @pytest.mark.parametrize(
        "config",
        [pact15_hmc_config(), hmc_gen2_config(), wideio_like_config()],
        ids=["pact15", "gen2", "wideio"],
    )
    def test_stats_identical_across_configs(self, config):
        trace = column_walk_trace(RowMajorLayout(N, N))
        exact, vector, _, _ = both_engines(trace, "per_vault", config=config)
        assert exact == vector

    def test_compiled_trace_identical_on_both_engines(self):
        trace = column_walk_trace(RowMajorLayout(N, N))
        compiled = compile_trace(trace)
        exact, vector, _, mem = both_engines(compiled, "in_order")
        assert exact == vector
        assert mem.last_engine == "vector"
        assert exact == Memory3D(pact15_hmc_config()).simulate(
            trace, engine="exact"
        )

    def test_headline_column_walk_identical_raw_and_compiled(self):
        """The speed-ratio workload (a row-major N=4096 column walk), cut
        to 16 columns: identical stats from the exact loop, the vector
        engine on raw requests and on the compiled trace."""
        trace = column_walk_trace(RowMajorLayout(4096, 4096), cols=range(16))
        exact, vector, _, mem = both_engines(trace, "in_order")
        assert mem.last_engine == "vector", mem.last_fallback_reason
        assert exact == vector
        _, from_compiled, _, mem = both_engines(compile_trace(trace), "in_order")
        assert mem.last_engine == "vector", mem.last_fallback_reason
        assert exact == from_compiled

    def test_closed_form_run_pricing_matches_exact(self):
        # Stride 1<<15 keeps every request of a run on one (vault, bank)
        # with affine rows: the compiled walker prices it in closed form.
        compiled = compile_trace(strided_trace(0, 2048, 1 << 15))
        exact, vector, _, mem = both_engines(compiled, "in_order")
        assert mem.last_engine == "vector"
        assert exact == vector

    def test_event_counts_match_vector_aggregates(self):
        trace = column_walk_trace(RowMajorLayout(N, N))
        recorder = EventTrace()
        Memory3D(pact15_hmc_config(), recorder=recorder).simulate(
            trace, engine="exact"
        )
        vector = Memory3D(pact15_hmc_config()).simulate(trace, engine="vector")
        counts = recorder.counts()
        assert counts.get("ACTIVATE", 0) == vector.row_activations
        assert counts.get("ROW_HIT", 0) == vector.row_hits

    def test_sampled_extrapolation_identical(self):
        phase = phase_trace(RowMajorLayout(N, N), "column-walk", 200, units=N)
        exact = phase.price(Memory3D(pact15_hmc_config()), engine="exact")
        vector = phase.price(Memory3D(pact15_hmc_config()), engine="vector")
        assert exact == vector

    def test_arrival_times_identical(self):
        rng = np.random.default_rng(7)
        base = linear_trace(0, 600)
        trace = TraceArray(
            base.addresses,
            arrival_ns=np.cumsum(rng.uniform(0.0, 3.0, size=600)),
        )
        exact, vector, _, _ = both_engines(trace, "in_order")
        assert exact == vector

    def test_tagged_split_identical(self):
        trace = column_walk_trace(RowMajorLayout(N, N))
        tags = np.arange(len(trace)) % 3
        exact = Memory3D(pact15_hmc_config()).simulate_tagged(
            trace, tags, engine="exact"
        )
        vector = Memory3D(pact15_hmc_config()).simulate_tagged(
            trace, tags, engine="vector"
        )
        assert exact == vector


class TestArrayStretches:
    """How a compiled trace splits between closed-form runs and array scans.

    ``compile_trace`` cuts a single-request run at every stride break, so
    each block visit of a DDL read starts with one; those runs ride with
    their neighbours instead of cutting the scan into per-visit pieces.
    """

    @pytest.fixture
    def price_arrays_calls(self, monkeypatch):
        calls = []
        original = vector_engine._Engine.price_arrays

        def counting(engine, *args, **kwargs):
            calls.append(len(args[0]))
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(vector_engine._Engine, "price_arrays", counting)
        return calls

    def test_ddl_block_read_is_one_array_stretch(self, price_arrays_calls):
        config = pact15_hmc_config()
        geometry = optimal_block_geometry(config, 4096)
        layout = BlockDDLLayout(4096, 4096, geometry.width, geometry.height)
        trace = block_column_read_trace(
            layout, n_streams=16, block_cols=range(16), limit=65_536
        )
        compiled = compile_trace(trace)
        assert (compiled.runs["count"] == 1).any()
        mem = Memory3D(config)
        stats = mem.simulate(compiled, "per_vault", engine="vector")
        assert mem.last_engine == "vector"
        assert price_arrays_calls == [65_536]
        assert stats == Memory3D(config).simulate(
            trace, "per_vault", engine="exact"
        )

    def test_row_major_column_walk_stays_closed_form(self, price_arrays_calls):
        compiled = compile_trace(
            column_walk_trace(RowMajorLayout(4096, 4096), cols=range(16))
        )
        assert (compiled.runs["count"] == 1).any()
        mem = Memory3D(pact15_hmc_config())
        mem.simulate(compiled, "in_order", engine="vector")
        assert mem.last_engine == "vector"
        assert price_arrays_calls == []


class TestFaultPlans:
    @pytest.mark.parametrize(
        "plan_name", ["vault-failure", "latency-jitter", "bit-errors"]
    )
    def test_vectorized_fault_plans_identical(self, plan_name):
        plan = builtin_fault_plans(seed=11)[plan_name]
        trace = column_walk_trace(RowMajorLayout(N, N))
        exact, vector, mem_exact, mem_vector = both_engines(
            trace, "per_vault", fault_plan=plan
        )
        assert exact == vector
        assert mem_exact.last_fault_summary == mem_vector.last_fault_summary
        assert mem_vector.last_engine == "vector"

    @pytest.mark.parametrize(
        "plan_name,reason_word",
        [("refresh-storm", "storm"), ("thermal-throttle", "throttle")],
    )
    def test_window_plans_fall_back_exactly(self, plan_name, reason_word):
        plan = builtin_fault_plans(seed=11)[plan_name]
        trace = column_walk_trace(RowMajorLayout(N, N))
        exact, vector, mem_exact, mem_vector = both_engines(
            trace, "per_vault", fault_plan=plan
        )
        assert exact == vector  # fallback is equivalence too
        assert mem_vector.last_engine == "exact"
        assert reason_word in mem_vector.last_fallback_reason
        assert mem_exact.last_fault_summary == mem_vector.last_fault_summary


class TestDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            Memory3D(pact15_hmc_config()).simulate(
                linear_trace(0, 8), engine="warp"
            )

    def test_vector_engine_reported(self):
        mem = Memory3D(pact15_hmc_config())
        mem.simulate(column_walk_trace(RowMajorLayout(N, N)), engine="vector")
        assert mem.last_engine == "vector"
        assert mem.last_fallback_reason is None

    def test_exact_engine_reported(self):
        mem = Memory3D(pact15_hmc_config())
        mem.simulate(linear_trace(0, 64), engine="exact")
        assert mem.last_engine == "exact"
        assert mem.last_fallback_reason is None

    def test_recorder_forces_exact_fallback(self):
        mem = Memory3D(pact15_hmc_config(), recorder=EventTrace())
        mem.simulate(linear_trace(0, 64), engine="vector")
        assert mem.last_engine == "exact"
        assert "recorder" in mem.last_fallback_reason

    def test_refresh_config_forces_exact_fallback(self):
        config = Memory3DConfig(refresh=RefreshParameters())
        mem = Memory3D(config)
        stats = mem.simulate(linear_trace(0, 64), engine="vector")
        assert mem.last_engine == "exact"
        assert "refresh" in mem.last_fallback_reason
        assert stats == Memory3D(config).simulate(
            linear_trace(0, 64), engine="exact"
        )

    def test_fallback_still_prices_compiled_traces(self):
        # The exact loop sees an expanded TraceArray even when the caller
        # handed a CompiledTrace and the vector engine bowed out.
        mem = Memory3D(pact15_hmc_config(), recorder=EventTrace())
        compiled = compile_trace(linear_trace(0, 64))
        stats = mem.simulate(compiled, engine="vector")
        assert mem.last_engine == "exact"
        assert stats == Memory3D(pact15_hmc_config()).simulate(
            linear_trace(0, 64), engine="exact"
        )


class TestSweepIntegration:
    GRID = dict(sizes=(128,), layouts=("row-major", "ddl"))

    def test_sweep_documents_byte_identical_across_engines(self):
        grid = SweepGrid(**self.GRID)
        exact = run_sweep(grid, max_requests=4096, engine="exact")
        vector = run_sweep(grid, max_requests=4096, engine="vector")
        assert exact.to_json() == vector.to_json()

    def test_cache_is_shared_across_engines(self, tmp_path):
        from repro.sweep import ResultCache

        grid = SweepGrid(**self.GRID)
        cold = run_sweep(
            grid,
            max_requests=4096,
            cache=ResultCache(tmp_path / "c"),
            engine="exact",
        )
        warm = run_sweep(
            grid,
            max_requests=4096,
            cache=ResultCache(tmp_path / "c"),
            engine="vector",
        )
        assert warm.meta["cached"] == grid.n_points()
        assert warm.to_json() == cold.to_json()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepGrid(**self.GRID), engine="warp")


class TestSteadyState:
    """Repeating blocks are priced once and shifted, exactly.

    The corpus above is 1,024 requests, below the four smallest periods
    a segment needs before a repeat is worth looking for; these cases
    are sweep-sized (65,536 requests) so the shift path really runs.
    """

    POINTS = [
        ("row-major", None),
        ("column-major", None),
        ("tiled-1x32", None),
        ("block-ddl-w1h32", None),
    ] + [("ddl", h) for h in (None, 1, 2, 4, 8, 16, 32)]

    @staticmethod
    def phase(n, layout, height):
        from repro.core.config import SystemConfig
        from repro.core.simulate import column_phase_layout, phase_trace

        config = SystemConfig()
        built = column_phase_layout(config, n, layout, height)
        pattern = "block-reads" if isinstance(built, BlockDDLLayout) else "column-walk"
        return phase_trace(
            built, pattern, 65_536, streams=config.column_streams
        ).prefix

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    @pytest.mark.parametrize("n", [256, 512, 1024])
    @pytest.mark.parametrize(
        "layout,height", POINTS, ids=[f"{lay}-{h}" for lay, h in POINTS]
    )
    def test_sweep_points_identical_and_shifted(self, layout, height, n, discipline):
        trace = self.phase(n, layout, height)
        exact, vector, _, mem = both_engines(trace, discipline)
        assert exact == vector
        assert mem.last_engine == "vector"
        steady = mem.last_steady_state
        assert steady is not None
        assert steady.requests_extrapolated > 0
        assert steady.requests_extrapolated % steady.period == 0

    def test_perturbed_block_breaks_and_resumes_the_period(self):
        trace = block_column_read_trace(
            BlockDDLLayout(256, 256, width=32, height=1), n_streams=8
        )
        clean = Memory3D(pact15_hmc_config())
        clean.simulate(trace, "per_vault", engine="vector")
        period = clean.last_steady_state.period
        addresses = trace.addresses.copy()
        # Move one request of a middle block to another row of its bank.
        mid = len(addresses) // 2 + period // 2
        addresses[mid] += 1 << 15
        perturbed = TraceArray(addresses)
        exact, vector, _, mem = both_engines(perturbed, "per_vault")
        assert exact == vector
        steady = mem.last_steady_state
        assert steady.period == period
        # Shifting resumed after the broken block: more was shifted than
        # the half before it holds.
        assert len(addresses) // 2 < steady.requests_extrapolated
        assert steady.requests_extrapolated < (
            clean.last_steady_state.requests_extrapolated
        )

    @pytest.mark.parametrize("discipline", ["in_order", "per_vault"])
    def test_recorded_completions_identical(self, discipline):
        trace = column_walk_trace(RowMajorLayout(256, 256))
        mem = Memory3D(pact15_hmc_config())
        stats, completions, steady = vector_engine.simulate_vector(
            mem, trace, discipline, record=True
        )
        assert steady is not None
        exact_stats, exact_completions = Memory3D(
            pact15_hmc_config()
        )._simulate_exact(trace, discipline, None, True)
        assert stats == exact_stats
        assert np.array_equal(completions, exact_completions)

    def test_record_resets_on_every_simulation(self):
        mem = Memory3D(pact15_hmc_config())
        mem.simulate(column_walk_trace(RowMajorLayout(256, 256)), engine="vector")
        assert mem.last_steady_state is not None
        mem.simulate(linear_trace(0, 64), engine="vector")
        assert mem.last_steady_state is None

    def test_faulted_runs_price_every_block(self):
        plan = builtin_fault_plans(seed=11)["latency-jitter"]
        trace = column_walk_trace(RowMajorLayout(256, 256))
        exact, vector, _, mem = both_engines(trace, "per_vault", fault_plan=plan)
        assert exact == vector
        assert mem.last_engine == "vector"
        assert mem.last_steady_state is None
