"""Multi-tenant (tagged) simulation and tenant interleaving."""

import numpy as np
import pytest

from repro.errors import SimulationError, TraceError
from repro.layouts import BlockDDLLayout, RowMajorLayout
from repro.trace import block_column_read_trace, column_walk_trace, linear_trace
from repro.trace.generators import interleave_tenant_traces


class TestInterleaveTenants:
    def test_preserves_all_requests(self):
        a = linear_trace(0, 100)
        b = linear_trace(8000, 50)
        merged, tags = interleave_tenant_traces([a, b], granularity=8)
        assert len(merged) == 150
        assert (tags == 0).sum() == 100
        assert (tags == 1).sum() == 50
        assert sorted(merged.addresses.tolist()) == sorted(
            a.addresses.tolist() + b.addresses.tolist()
        )

    def test_round_robin_granularity(self):
        a = linear_trace(0, 8)
        b = linear_trace(8000, 8)
        merged, tags = interleave_tenant_traces([a, b], granularity=4)
        assert tags[:12].tolist() == [0] * 4 + [1] * 4 + [0] * 4

    def test_per_tenant_order_preserved(self):
        a = linear_trace(0, 64)
        b = linear_trace(8000, 64)
        merged, tags = interleave_tenant_traces([a, b], granularity=16)
        tenant0 = merged.addresses[tags == 0]
        assert np.array_equal(tenant0, a.addresses)

    def test_single_tenant(self):
        a = linear_trace(0, 10)
        merged, tags = interleave_tenant_traces([a])
        assert merged == a
        assert (tags == 0).all()

    def test_validation(self):
        with pytest.raises(TraceError):
            interleave_tenant_traces([])
        with pytest.raises(TraceError):
            interleave_tenant_traces([linear_trace(0, 4)], granularity=0)


class TestTaggedSimulation:
    def test_merged_key_carries_global_stats(self, memory):
        trace = linear_trace(0, 1000)
        tags = np.zeros(1000, dtype=np.int64)
        stats = memory.simulate_tagged(trace, tags)
        assert stats[-1].requests == 1000
        assert stats[-1].row_activations > 0

    def test_per_tenant_request_counts(self, memory):
        a = linear_trace(0, 500)
        b = linear_trace(80_000, 300)
        merged, tags = interleave_tenant_traces([a, b], granularity=10)
        stats = memory.simulate_tagged(merged, tags)
        assert stats[0].requests == 500
        assert stats[1].requests == 300

    def test_fair_sharing_of_streaming_tenants(self, memory, mem_config):
        """Two streaming tenants each get about half of peak."""
        a = linear_trace(0, 20_000)
        b = linear_trace(1 << 24, 20_000)
        merged, tags = interleave_tenant_traces([a, b], granularity=32)
        stats = memory.simulate_tagged(merged, tags)
        half = mem_config.peak_bandwidth / 2
        assert stats[0].bandwidth_bytes_per_s == pytest.approx(half, rel=0.1)
        assert stats[1].bandwidth_bytes_per_s == pytest.approx(half, rel=0.1)

    def test_baseline_column_tenant_drags_the_device(self, memory, mem_config):
        """Co-running a stride walk with a stream: the stride tenant's
        in-queue activations stall the shared vault pipeline far below
        the sum of the solo rates."""
        n = 1024
        stride = column_walk_trace(RowMajorLayout(n, n), cols=range(16)).head(8192)
        stream = linear_trace(1 << 24, 8192)
        merged, tags = interleave_tenant_traces([stride, stream], granularity=16)
        stats = memory.simulate_tagged(merged, tags)
        combined = stats[-1].bandwidth_bytes_per_s
        assert combined < 0.5 * mem_config.peak_bandwidth

    def test_ddl_tenant_coexists_with_stream(self, memory, mem_config):
        n = 1024
        layout = BlockDDLLayout(n, n, 2, 16)
        ddl = block_column_read_trace(layout, n_streams=16,
                                      block_cols=range(16)).head(8192)
        stream = linear_trace(layout.footprint_bytes, 8192)
        merged, tags = interleave_tenant_traces([ddl, stream], granularity=32)
        stats = memory.simulate_tagged(merged, tags)
        combined = stats[-1].bandwidth_bytes_per_s
        assert combined > 0.95 * mem_config.peak_bandwidth

    def test_bad_neighbour_starves_the_stream(self, memory):
        """The streaming tenant next to a row-major column tenant gets
        under 0.6x what it gets next to a DDL tenant."""
        n = 1024
        layout = BlockDDLLayout(n, n, 2, 16)
        stream = linear_trace(1 << 26, 8192)
        shares = {}
        for name, tenant in (
            ("row-major", column_walk_trace(RowMajorLayout(n, n), cols=range(32))),
            ("ddl", block_column_read_trace(layout, n_streams=16,
                                            block_cols=range(16))),
        ):
            merged, tags = interleave_tenant_traces(
                [tenant.head(8192), stream], granularity=32
            )
            shares[name] = memory.simulate_tagged(merged, tags)[1].bandwidth_gbps
        assert shares["row-major"] < 0.6 * shares["ddl"]

    def test_ddl_tenant_halves_fairly_when_shared(self, memory):
        n = 1024
        layout = BlockDDLLayout(n, n, 2, 16)
        ddl = block_column_read_trace(
            layout, n_streams=16, block_cols=range(16)
        ).head(8192)
        solo = memory.simulate(ddl, "per_vault")
        merged, tags = interleave_tenant_traces(
            [ddl, linear_trace(1 << 26, 8192)], granularity=32
        )
        shared = memory.simulate_tagged(merged, tags)[0]
        slowdown = solo.bandwidth_bytes_per_s / shared.bandwidth_bytes_per_s
        assert slowdown == pytest.approx(2.0, abs=0.4)

    def test_late_starting_tenant_bandwidth_uses_its_own_span(self, memory):
        """A tenant that starts late must not be billed for time before
        its first completion: elapsed_ns is its first-to-last completion
        span, so both halves of a serialized stream report the same rate.
        """
        trace = linear_trace(0, 2000)
        tags = np.concatenate(
            [np.zeros(1000, dtype=np.int64), np.ones(1000, dtype=np.int64)]
        )
        stats = memory.simulate_tagged(trace, tags, discipline="in_order")
        late = stats[1]
        # The late tenant's span excludes the first tenant's runtime...
        assert late.first_response_ns > stats[0].first_response_ns
        assert late.elapsed_ns == pytest.approx(
            stats[-1].elapsed_ns - late.first_response_ns
        )
        # ...so its achieved bandwidth matches the early tenant's.
        assert late.bandwidth_bytes_per_s == pytest.approx(
            stats[0].bandwidth_bytes_per_s, rel=0.01
        )

    def test_single_request_tenant_has_zero_span(self, memory):
        trace = linear_trace(0, 5)
        tags = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        stats = memory.simulate_tagged(trace, tags, discipline="in_order")
        assert stats[1].elapsed_ns == 0.0
        assert stats[1].bandwidth_bytes_per_s == 0.0
        assert stats[1].first_response_ns > 0.0

    def test_tags_shape_checked(self, memory):
        with pytest.raises(SimulationError):
            memory.simulate_tagged(linear_trace(0, 4), np.zeros(3, dtype=np.int64))

    def test_empty_trace(self, memory):
        from repro.trace import TraceArray

        stats = memory.simulate_tagged(
            TraceArray(np.empty(0, dtype=np.int64)), np.empty(0, dtype=np.int64)
        )
        assert stats[-1].requests == 0
