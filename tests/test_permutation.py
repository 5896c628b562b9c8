"""Permutation network and controlling unit."""

import numpy as np
import pytest

from repro.fft.dpp import stride_permutation_indices
from repro.layouts import BlockDDLLayout, optimal_block_geometry
from repro.permutation import ControllingUnit, PermutationNetwork
from repro.permutation.network import PermutationError


class TestConfiguration:
    def test_rejects_non_power_width(self):
        with pytest.raises(PermutationError):
            PermutationNetwork(3)

    def test_rejects_unconfigured_use(self):
        net = PermutationNetwork(4)
        with pytest.raises(PermutationError):
            net.permute(np.arange(8))

    def test_rejects_non_bijection(self):
        net = PermutationNetwork(4)
        with pytest.raises(PermutationError):
            net.configure(np.array([0, 0, 1, 2]))

    def test_rejects_partial_frame(self):
        net = PermutationNetwork(4)
        with pytest.raises(PermutationError):
            net.configure(np.arange(6))

    def test_rejects_empty(self):
        net = PermutationNetwork(4)
        with pytest.raises(PermutationError):
            net.configure(np.array([], dtype=np.int64))


class TestFunctional:
    def test_identity(self):
        net = PermutationNetwork(4)
        net.configure(np.arange(8))
        x = np.arange(8) * 10
        assert np.array_equal(net.permute(x), x)

    def test_reversal(self):
        net = PermutationNetwork(4)
        net.configure(np.arange(8)[::-1].copy())
        assert np.array_equal(net.permute(np.arange(8)), np.arange(8)[::-1])

    def test_gather_convention(self):
        net = PermutationNetwork(2)
        net.configure(np.array([2, 3, 0, 1]))
        assert list(net.permute(np.array([10, 11, 12, 13]))) == [12, 13, 10, 11]

    def test_stream_applies_per_frame(self):
        net = PermutationNetwork(2)
        net.configure(np.array([1, 0, 3, 2]))
        out = net.permute_stream(np.arange(8))
        assert list(out) == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_stream_rejects_partial(self):
        net = PermutationNetwork(2)
        net.configure(np.arange(4))
        with pytest.raises(PermutationError):
            net.permute_stream(np.arange(6))

    def test_frame_length_checked(self):
        net = PermutationNetwork(2)
        net.configure(np.arange(4))
        with pytest.raises(PermutationError):
            net.permute(np.arange(8))


class TestRouting:
    def test_identity_needs_minimal_buffer(self):
        net = PermutationNetwork(4)
        schedule = net.configure(np.arange(16))
        assert schedule.conflict_free
        assert schedule.buffer_depth == 1

    def test_stride_permutation_schedule(self):
        net = PermutationNetwork(4)
        perm = stride_permutation_indices(16, 4)
        schedule = net.configure(perm)
        assert schedule.frame == 16
        assert schedule.buffer_depth >= 1
        assert schedule.latency_cycles >= 1

    def test_full_reversal_buffers_whole_frame_lane(self):
        net = PermutationNetwork(4)
        schedule = net.configure(np.arange(16)[::-1].copy())
        # Last input beat holds the first output beat's data.
        assert schedule.latency_cycles >= 16 // 4

    def test_conflicting_lanes_detected(self):
        # Both first-cycle inputs target lane 0 (outputs 0 and 2 with width 2).
        net = PermutationNetwork(2)
        perm = np.array([0, 2, 1, 3])  # output0 <- in0, output1 <- in2 ...
        schedule = net.configure(perm)
        assert schedule.max_writes_per_lane_cycle >= 1

    def test_buffer_words(self):
        net = PermutationNetwork(4)
        schedule = net.configure(np.arange(16)[::-1].copy())
        assert schedule.buffer_words == schedule.buffer_depth * 4


class TestControllingUnit:
    @pytest.fixture
    def geometry(self, mem_config):
        return optimal_block_geometry(mem_config, 2048)

    @pytest.fixture
    def cu(self, geometry):
        return ControllingUnit(geometry, width=16)

    def test_write_permutation_is_stride(self, cu, geometry):
        perm = cu.block_write_permutation()
        w, h = geometry.width, geometry.height
        # Output (c*h + r) reads input (r*w + c).
        assert perm[0] == 0
        assert perm[1] == w  # second element of column 0 is input row 1
        assert sorted(perm.tolist()) == list(range(w * h))

    def test_read_inverts_write(self, cu):
        write = cu.block_write_permutation()
        read = cu.block_read_permutation()
        assert np.array_equal(write[read], np.arange(write.size))

    def test_configure_both_paths(self, cu):
        ws = cu.configure_for_write()
        rs = cu.configure_for_read()
        assert ws.frame == rs.frame == cu.geometry.elements
        assert cu.total_buffer_words == ws.buffer_words + rs.buffer_words

    def test_total_buffer_zero_before_configure(self, cu):
        assert cu.total_buffer_words == 0

    def test_reorganize_slab_matches_layout_addresses(self, cu, geometry, rng):
        """The CU's stream order must equal the block-write trace order."""
        from repro.core import MemoryImage
        from repro.trace import block_write_trace

        n = 64
        layout = BlockDDLLayout(n, n, geometry.width, geometry.height)
        slab = rng.standard_normal((geometry.height, n)) + 0j
        stream = cu.reorganize_slab(slab, layout)
        image = MemoryImage(layout.footprint_bytes)
        trace = block_write_trace(layout, block_rows=range(1))
        image.store_stream(trace.addresses, stream)
        # Reading rows 0..h-1 through the layout recovers the slab.
        recovered = image.load_rows(layout, range(geometry.height))
        assert np.allclose(recovered, slab)

    def test_restore_inverts_reorganize(self, cu, geometry, rng):
        n = 128
        layout = BlockDDLLayout(n, n, geometry.width, geometry.height)
        slab = rng.standard_normal((geometry.height, n)) + 0j
        stream = cu.reorganize_slab(slab, layout)
        assert np.allclose(cu.restore_slab(stream, layout), slab)

    def test_reorganize_validates_shape(self, cu, geometry):
        layout = BlockDDLLayout(64, 64, geometry.width, geometry.height)
        with pytest.raises(ValueError):
            cu.reorganize_slab(np.zeros((3, 64), dtype=complex), layout)


class TestPhaseBoundaryHardware:
    """The CU's write-path network and staging buffer stay small at the
    evaluated sizes: one 32-element block frame, KBs of staging."""

    @pytest.mark.parametrize("n", [2048, 4096, 8192])
    def test_write_frame_is_one_block(self, mem_config, n):
        geo = optimal_block_geometry(mem_config, n)
        schedule = ControllingUnit(geo, width=16).configure_for_write()
        assert schedule.frame == geo.elements == 32
        assert schedule.buffer_words <= 4 * geo.elements

    @pytest.mark.parametrize("n", [2048, 4096, 8192])
    def test_staging_buffer_is_modest(self, mem_config, n):
        geo = optimal_block_geometry(mem_config, n)
        layout = BlockDDLLayout(n, n, geo.width, geo.height)
        assert layout.staging_buffer_elements() < n * n / 50
