"""Open-loop arrivals and loaded-latency curves."""

import numpy as np
import pytest

from repro.errors import SimulationError, TraceError
from repro.layouts import BlockDDLLayout, RowMajorLayout
from repro.memory3d.load_latency import (
    knee_fraction,
    latency_load_curve,
    with_offered_load,
)
from repro.memory3d.memory import ENGINES
from repro.trace import TraceArray, block_column_read_trace, column_walk_trace, linear_trace


class TestArrivalPlumbing:
    def test_with_arrivals_round_trip(self):
        trace = linear_trace(0, 10)
        arrivals = np.arange(10) * 5.0
        loaded = trace.with_arrivals(arrivals)
        assert np.array_equal(loaded.arrival_ns, arrivals)
        assert loaded.arrival_ns is not None

    def test_arrivals_must_be_monotone(self):
        with pytest.raises(TraceError):
            linear_trace(0, 3).with_arrivals(np.array([0.0, 5.0, 1.0]))

    def test_arrivals_must_be_nonnegative(self):
        with pytest.raises(TraceError):
            linear_trace(0, 2).with_arrivals(np.array([-1.0, 0.0]))

    def test_arrival_shape_checked(self):
        with pytest.raises(TraceError):
            linear_trace(0, 3).with_arrivals(np.zeros(2))

    def test_slicing_preserves_arrivals(self):
        loaded = linear_trace(0, 10).with_arrivals(np.arange(10) * 2.0)
        assert np.array_equal(loaded[2:5].arrival_ns, [4.0, 6.0, 8.0])

    def test_closed_loop_has_none(self):
        assert linear_trace(0, 4).arrival_ns is None


class TestOpenLoopTiming:
    def test_sparse_arrivals_gate_service(self, memory, mem_config):
        """With arrivals far apart, completions track arrivals."""
        trace = linear_trace(0, 10).with_arrivals(np.arange(10) * 1000.0)
        stats = memory.simulate(trace, "per_vault")
        assert stats.elapsed_ns == pytest.approx(
            9 * 1000.0 + mem_config.timing.t_in_row
        )
        assert stats.mean_request_latency_ns == pytest.approx(
            mem_config.timing.t_in_row, rel=0.5
        )

    def test_closed_loop_reports_zero_latency(self, memory):
        stats = memory.simulate(linear_trace(0, 100))
        assert stats.mean_request_latency_ns == 0.0

    def test_engines_agree_with_arrivals(self, memory, rng):
        addresses = rng.integers(0, 1 << 14, size=300, dtype=np.int64) * 8
        arrivals = np.cumsum(rng.uniform(0.5, 5.0, size=300))
        trace = TraceArray(addresses).with_arrivals(arrivals)
        for discipline in ("in_order", "per_vault"):
            reference = memory.simulate_reference(trace, discipline)
            for engine in ENGINES:
                fast = memory.simulate(trace, discipline, engine=engine)
                assert fast.elapsed_ns == pytest.approx(reference.elapsed_ns), engine
                assert fast.mean_request_latency_ns == pytest.approx(
                    reference.mean_request_latency_ns
                ), engine
                assert fast.max_request_latency_ns == pytest.approx(
                    reference.max_request_latency_ns
                ), engine

    def test_overload_latency_grows(self, memory):
        """Arrivals faster than service accumulate unbounded queueing."""
        trace = column_walk_trace(RowMajorLayout(1024, 1024), cols=range(2))
        fast_arrivals = with_offered_load(trace, 0.5, memory.config.peak_bandwidth)
        light_arrivals = with_offered_load(trace, 0.005, memory.config.peak_bandwidth)
        overloaded = memory.simulate(fast_arrivals, "in_order")
        light = memory.simulate(light_arrivals, "in_order")
        assert overloaded.mean_request_latency_ns > 100 * light.mean_request_latency_ns


class TestLoadCurve:
    def test_baseline_knee_near_two_percent(self, memory):
        trace = column_walk_trace(RowMajorLayout(1024, 1024), cols=range(8))
        points = latency_load_curve(
            memory, trace, fractions=(0.01, 0.02, 0.05, 0.25),
            discipline="in_order",
        )
        assert knee_fraction(points) <= 0.05

    def test_ddl_never_saturates(self, memory):
        layout = BlockDDLLayout(1024, 1024, 2, 16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        points = latency_load_curve(
            memory, trace.head(16_384), fractions=(0.25, 0.75, 1.0)
        )
        assert knee_fraction(points) == 1.0
        assert not points[-1].saturated

    def test_latency_monotone_in_load(self, memory):
        layout = BlockDDLLayout(512, 512, 2, 16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        points = latency_load_curve(
            memory, trace.head(8192), fractions=(0.1, 0.5, 0.9)
        )
        latencies = [p.mean_latency_ns for p in points]
        assert latencies == sorted(latencies)

    def test_validation(self, memory):
        with pytest.raises(SimulationError):
            with_offered_load(linear_trace(0, 4), 0.0, 80e9)
        with pytest.raises(SimulationError):
            with_offered_load(linear_trace(0, 4), 0.5, 0.0)


class TestHockeyStick:
    """N=1024 column patterns, open loop: the row-major walk saturates at
    its ~2% closed-loop share and its latency explodes; the DDL stays
    within a few beats out to full peak."""

    def test_baseline_knee_and_explosion(self, memory, mem_config):
        trace = column_walk_trace(RowMajorLayout(1024, 1024), cols=range(8))
        points = latency_load_curve(
            memory, trace, fractions=(0.005, 0.01, 0.02, 0.05, 0.25),
            discipline="in_order",
        )
        assert points[-1].mean_latency_ns > 1000 * points[0].mean_latency_ns
        best = max(p.achieved_bytes_per_s for p in points if not p.saturated)
        assert best / mem_config.peak_bandwidth == pytest.approx(0.02, abs=0.005)

    def test_ddl_latency_stays_a_few_beats(self, memory, mem_config):
        layout = BlockDDLLayout(1024, 1024, 2, 16)
        trace = block_column_read_trace(layout, n_streams=16, block_cols=range(16))
        points = latency_load_curve(memory, trace.head(16_384), fractions=(1.0,))
        assert points[-1].mean_latency_ns < 50 * mem_config.timing.t_in_row
