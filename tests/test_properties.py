"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MemoryImage
from repro.fft import StreamingFFT1D
from repro.fft.dpp import digit_reversal_indices, stride_permutation_indices
from repro.layouts import (
    BlockDDLLayout,
    ColumnMajorLayout,
    RowMajorLayout,
    TiledLayout,
    optimal_block_geometry,
)
from repro.memory3d import Memory3D, Memory3DConfig
from repro.memory3d.memory import ENGINES
from repro.permutation import PermutationNetwork
from repro.trace import TraceArray, column_walk_trace, compile_trace

# ---------------------------------------------------------------- strategies

powers_of_two = st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256])

small_matrix_dims = st.tuples(
    st.sampled_from([8, 16, 32, 64]), st.sampled_from([8, 16, 32, 64])
)


def complex_array(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# --------------------------------------------------------------------- FFT


class TestFFTProperties:
    @given(n=powers_of_two, radix=st.sampled_from([2, 4]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_on_random_input(self, n, radix, seed):
        kernel = StreamingFFT1D(n, radix=radix)
        x = complex_array(n, seed)
        assert np.allclose(kernel.transform(x), np.fft.fft(x), atol=1e-7 * n)

    @given(n=powers_of_two, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_inverse_is_left_inverse(self, n, seed):
        kernel = StreamingFFT1D(n)
        x = complex_array(n, seed)
        assert np.allclose(kernel.inverse(kernel.transform(x)), x, atol=1e-8 * n)

    @given(n=powers_of_two, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_parseval_energy_conservation(self, n, seed):
        kernel = StreamingFFT1D(n)
        x = complex_array(n, seed)
        freq_energy = np.sum(np.abs(kernel.transform(x)) ** 2)
        assert freq_energy == pytest.approx(n * np.sum(np.abs(x) ** 2), rel=1e-9)

    @given(
        n=st.sampled_from([16, 64, 256]),
        shift=st.integers(0, 255),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_circular_shift_theorem(self, n, shift, seed):
        """A time shift multiplies the spectrum by a phase ramp."""
        kernel = StreamingFFT1D(n)
        x = complex_array(n, seed)
        shifted = np.roll(x, shift % n)
        k = np.arange(n)
        phase = np.exp(-2j * np.pi * k * (shift % n) / n)
        assert np.allclose(
            kernel.transform(shifted), kernel.transform(x) * phase, atol=1e-7 * n
        )


# ------------------------------------------------------------------ layouts

LAYOUT_BUILDERS = {
    "row_major": lambda r, c: RowMajorLayout(r, c),
    "column_major": lambda r, c: ColumnMajorLayout(r, c),
    "tiled": lambda r, c: TiledLayout(r, c, min(r, 4), min(c, 8)),
    "block_ddl": lambda r, c: BlockDDLLayout(r, c, width=2, height=min(r, 8)),
}


class TestLayoutProperties:
    @given(dims=small_matrix_dims, name=st.sampled_from(sorted(LAYOUT_BUILDERS)))
    @settings(max_examples=40, deadline=None)
    def test_bijectivity(self, dims, name):
        rows, cols = dims
        layout = LAYOUT_BUILDERS[name](rows, cols)
        r_idx, c_idx = np.divmod(np.arange(layout.n_elements), cols)
        indices = layout.element_index_array(r_idx, c_idx)
        assert sorted(indices.tolist()) == list(range(layout.n_elements))

    @given(dims=small_matrix_dims, name=st.sampled_from(sorted(LAYOUT_BUILDERS)))
    @settings(max_examples=40, deadline=None)
    def test_coordinate_round_trip(self, dims, name):
        rows, cols = dims
        layout = LAYOUT_BUILDERS[name](rows, cols)
        for index in range(0, layout.n_elements, max(1, layout.n_elements // 37)):
            r, c = layout.coordinate(index)
            assert layout.element_index(r, c) == index

    @given(
        dims=small_matrix_dims,
        name=st.sampled_from(sorted(LAYOUT_BUILDERS)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_memory_image_round_trip(self, dims, name, seed):
        rows, cols = dims
        layout = LAYOUT_BUILDERS[name](rows, cols)
        image = MemoryImage(layout.footprint_bytes)
        matrix = complex_array(rows * cols, seed).reshape(rows, cols)
        image.store_matrix(layout, matrix)
        assert np.allclose(image.load_matrix(layout), matrix)

    @given(m=st.integers(1, 1 << 16), n_v=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_optimizer_always_fills_row_buffer(self, m, n_v):
        config = Memory3DConfig()
        geo = optimal_block_geometry(config, m, n_v=n_v)
        assert geo.width * geo.height == config.row_elements
        assert 1 <= geo.height <= config.row_elements


# ------------------------------------------------------------- permutations


class TestPermutationProperties:
    @given(
        width=st.sampled_from([2, 4, 8]),
        frames=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_network_output_is_permutation_of_input(self, width, frames, seed):
        rng = np.random.default_rng(seed)
        frame = width * frames
        perm = rng.permutation(frame)
        net = PermutationNetwork(width)
        schedule = net.configure(perm)
        x = rng.standard_normal(frame)
        out = net.permute(x)
        assert sorted(out.tolist()) == sorted(x.tolist())
        assert schedule.buffer_depth >= 1

    @given(n=st.sampled_from([8, 16, 64]), stride=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_stride_permutation_transpose_identity(self, n, stride):
        forward = stride_permutation_indices(n, stride)
        backward = stride_permutation_indices(n, n // stride)
        x = np.arange(n)
        assert np.array_equal(x[forward][backward], x)

    @given(n=st.sampled_from([8, 16, 32, 64, 128]), radix=st.sampled_from([2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_digit_reversal_is_bijection(self, n, radix):
        perm = digit_reversal_indices(n, radix)
        assert sorted(perm.tolist()) == list(range(n))


# ----------------------------------------------------------------- memory


class TestMemoryProperties:
    @given(
        seed=st.integers(0, 2**16),
        discipline=st.sampled_from(["in_order", "per_vault"]),
        span=st.sampled_from([1 << 10, 1 << 14, 1 << 18]),
    )
    @settings(max_examples=20, deadline=None)
    def test_engines_agree_on_random_traces(self, seed, discipline, span):
        config = Memory3DConfig()
        memory = Memory3D(config)
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, span, size=400, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        reference = memory.simulate_reference(trace, discipline)
        for engine in ENGINES:
            fast = memory.simulate(trace, discipline, engine=engine)
            assert fast.elapsed_ns == pytest.approx(reference.elapsed_ns), engine
            assert fast.row_activations == reference.row_activations, engine
            assert fast.row_hits == reference.row_hits, engine

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_hits_plus_activations_cover_requests(self, seed):
        memory = Memory3D(Memory3DConfig())
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 14, size=300, dtype=np.int64) * 8
        stats = memory.simulate(TraceArray(addresses))
        assert stats.row_hits + stats.row_activations == stats.requests

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_per_vault_never_slower_than_in_order(self, seed):
        """Relaxing the global ordering cannot hurt."""
        memory = Memory3D(Memory3DConfig())
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 16, size=300, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        parallel = memory.simulate(trace, "per_vault")
        serial = memory.simulate(trace, "in_order")
        assert parallel.elapsed_ns <= serial.elapsed_ns + 1e-9

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_elapsed_bounded_below_by_beat_rate(self, seed):
        """No trace can beat one element per t_in_row per vault."""
        config = Memory3DConfig()
        memory = Memory3D(config)
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 16, size=200, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        stats = memory.simulate(trace, "per_vault")
        vault, _, _, _ = memory.mapping.decode_array(trace.addresses)
        busiest = max(np.bincount(vault, minlength=config.vaults))
        assert stats.elapsed_ns >= busiest * config.timing.t_in_row - 1e-9


# ------------------------------------------------- trace compiler / engines


def random_runs_trace(seed: int, with_arrivals: bool) -> TraceArray:
    """A trace of random arithmetic stretches -- the compiler's worst food:
    run seams everywhere, mixed strides, flag flips, duplicate addresses."""
    rng = np.random.default_rng(seed)
    pieces = []
    flags = []
    for _ in range(int(rng.integers(1, 12))):
        count = int(rng.integers(1, 40))
        start = int(rng.integers(0, 1 << 16)) * 8
        step = int(rng.integers(-16, 17)) * 8
        if step < 0:
            start += (count - 1) * (-step)
        pieces.append(start + np.arange(count, dtype=np.int64) * step)
        flags.append(np.full(count, bool(rng.integers(0, 2))))
    addresses = np.concatenate(pieces)
    is_write = np.concatenate(flags)
    arrivals = None
    if with_arrivals:
        arrivals = np.cumsum(rng.uniform(0.0, 2.0, size=len(addresses)))
    return TraceArray(addresses, is_write, arrival_ns=arrivals)


class TestTraceCompileProperties:
    @given(seed=st.integers(0, 2**16), with_arrivals=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_compile_expand_is_identity(self, seed, with_arrivals):
        trace = random_runs_trace(seed, with_arrivals)
        compiled = compile_trace(trace)
        expanded = compiled.expand()
        assert expanded == trace
        if with_arrivals:
            assert np.array_equal(expanded.arrival_ns, trace.arrival_ns)
        else:
            assert expanded.arrival_ns is None
        # Compression is real: runs never outnumber requests, and every
        # request is accounted for.
        assert len(compiled.runs) <= len(trace)
        assert compiled.n_requests == len(trace)

    @given(
        seed=st.integers(0, 2**16),
        discipline=st.sampled_from(["in_order", "per_vault"]),
        n=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_vector_engine_matches_exact(self, seed, discipline, n):
        """Same trace, both engines, stat-for-stat identical results."""
        rng = np.random.default_rng(seed)
        walk = column_walk_trace(
            RowMajorLayout(n, n), cols=range(int(rng.integers(1, n)))
        )
        config = Memory3DConfig()
        exact = Memory3D(config).simulate(walk, discipline, engine="exact")
        vector = Memory3D(config).simulate(walk, discipline, engine="vector")
        assert exact == vector

    @given(
        seed=st.integers(0, 2**16),
        discipline=st.sampled_from(["in_order", "per_vault"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_compiled_form_prices_like_raw_arrays(self, seed, discipline):
        """Compiling a trace never changes what either engine computes."""
        trace = random_runs_trace(seed, with_arrivals=False)
        compiled = compile_trace(trace)
        config = Memory3DConfig()
        raw = Memory3D(config).simulate(trace, discipline, engine="vector")
        from_compiled = Memory3D(config).simulate(
            compiled, discipline, engine="vector"
        )
        assert raw == from_compiled


# ---------------------------------------------------------- address mapping


class TestAddressProperties:
    @given(
        vault=st.integers(0, 15),
        bank=st.integers(0, 7),
        row=st.integers(0, (1 << 16) - 1),
        column=st.integers(0, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip(self, vault, bank, row, column):
        from repro.memory3d import AddressMapping, Memory3DConfig

        mapping = AddressMapping(Memory3DConfig())
        address = mapping.encode(vault, bank, row, column * 8)
        decoded = mapping.decode(address)
        assert (decoded.vault, decoded.bank, decoded.row, decoded.column) == (
            vault, bank, row, column * 8,
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_distinct_addresses_decode_distinct(self, seed):
        from repro.memory3d import AddressMapping, Memory3DConfig

        mapping = AddressMapping(Memory3DConfig())
        rng = np.random.default_rng(seed)
        addresses = np.unique(rng.integers(0, 1 << 20, size=200, dtype=np.int64) * 8)
        vault, bank, row, col = mapping.decode_array(addresses)
        coords = set(zip(vault.tolist(), bank.tolist(), row.tolist(), col.tolist()))
        assert len(coords) == addresses.size


# ------------------------------------------------------- streaming kernels


class TestStreamingKernelProperties:
    @given(
        log_n=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_r2sdf_matches_numpy(self, log_n, seed):
        from repro.fft.streaming import R2SDFPipeline

        n = 1 << log_n
        x = complex_array(n, seed)
        got = R2SDFPipeline(n).transform_stream(x)
        assert np.allclose(got, np.fft.fft(x), atol=1e-8 * n)

    @given(seed=st.integers(0, 2**16), frames=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_r2sdf_back_to_back(self, seed, frames):
        from repro.fft.streaming import R2SDFPipeline

        n = 32
        data = complex_array(frames * n, seed).reshape(frames, n)
        got = R2SDFPipeline(n).transform_stream(data)
        assert np.allclose(got, np.fft.fft(data, axis=-1), atol=1e-8 * n)


# ------------------------------------------------------------------ matmul


class TestMatMulProperties:
    @given(
        seed=st.integers(0, 2**16),
        layout=st.sampled_from(["row-major", "column-major", "block-ddl"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_compute_matches_numpy(self, seed, layout):
        from repro.matmul import MatMulArchitecture

        n = 32
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        arch = MatMulArchitecture(n, b_layout=layout, panel_rows=8)
        assert np.allclose(arch.compute(a, b), a @ b, atol=1e-9 * n)


# --------------------------------------------------------------- scheduler


class TestSchedulerProperties:
    @given(seed=st.integers(0, 2**16), window=st.sampled_from([1, 4, 16, 64]))
    @settings(max_examples=15, deadline=None)
    def test_reorder_preserves_multiset(self, seed, window):
        from repro.memory3d import Memory3D, Memory3DConfig
        from repro.memory3d.scheduler import OpenPageScheduler

        memory = Memory3D(Memory3DConfig())
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 14, size=250, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        reordered, _ = OpenPageScheduler(memory, window=window).reorder(trace)
        assert sorted(reordered.addresses.tolist()) == sorted(addresses.tolist())

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_scheduling_never_hurts_hits(self, seed):
        """Reordered traces have at least as many row hits as FIFO."""
        from repro.memory3d import Memory3D, Memory3DConfig
        from repro.memory3d.scheduler import OpenPageScheduler

        memory = Memory3D(Memory3DConfig())
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1 << 12, size=200, dtype=np.int64) * 8
        trace = TraceArray(addresses)
        fifo = memory.simulate(trace, "in_order")
        scheduled = OpenPageScheduler(memory, window=32).simulate(trace)
        assert scheduled.stats.row_hits >= fifo.row_hits
