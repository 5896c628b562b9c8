"""The automatic layout-optimization framework."""

import pytest

from repro.errors import ConfigError
from repro.framework import (
    AccessPattern,
    KernelSpec,
    LayoutPlanner,
    PhaseSpec,
    candidate_layouts,
    fft2d_spec,
    matmul_spec,
    transpose_spec,
)


@pytest.fixture(scope="module")
def planner():
    from repro.memory3d import pact15_hmc_config

    return LayoutPlanner(pact15_hmc_config(), sample_requests=32_768)


class TestSpecs:
    def test_fft2d_spec_shape(self):
        spec = fft2d_spec(1024)
        assert spec.matrices == {"intermediate": (1024, 1024)}
        assert len(spec.phases) == 2
        assert spec.phases[0].is_write
        assert not spec.phases[1].is_write

    def test_transpose_spec_two_matrices(self):
        spec = transpose_spec(512)
        assert set(spec.matrices) == {"source", "destination"}

    def test_matmul_weight_counts_passes(self):
        spec = matmul_spec(1024, tile=128)
        b_phase = spec.phases_of("B")[0]
        assert b_phase.weight == 8.0

    def test_matmul_rejects_nondividing_tile(self):
        with pytest.raises(ConfigError):
            matmul_spec(1024, tile=100)

    def test_spec_validates_matrix_reference(self):
        with pytest.raises(ConfigError):
            KernelSpec(
                name="bad",
                matrices={"X": (8, 8)},
                phases=(
                    PhaseSpec("p", matrix="Y", pattern=AccessPattern.ROW_WALK),
                ),
            )

    def test_spec_requires_phases(self):
        with pytest.raises(ConfigError):
            KernelSpec(name="empty", matrices={"X": (8, 8)}, phases=())

    def test_phase_validates_weight(self):
        with pytest.raises(ConfigError):
            PhaseSpec("p", matrix="X", pattern=AccessPattern.ROW_WALK, weight=0)

    def test_describe_lists_phases(self):
        text = fft2d_spec(256).describe()
        assert "row-wise FFTs" in text
        assert "column-wise FFTs" in text


class TestCandidates:
    def test_includes_extremes(self, mem_config):
        names = [c.name for c in candidate_layouts(mem_config, 256, 256)]
        assert "row-major" in names
        assert "column-major" in names

    def test_includes_all_block_shapes(self, mem_config):
        names = [c.name for c in candidate_layouts(mem_config, 256, 256)]
        for height in (2, 4, 8, 16, 32):
            assert f"block-ddl-w{32 // height}h{height}" in names

    def test_skips_nondividing_blocks(self, mem_config):
        # A 48-row matrix can't take a 32-tall block.
        names = [c.name for c in candidate_layouts(mem_config, 48, 256)]
        assert "block-ddl-w1h32" not in names

    def test_factories_build(self, mem_config):
        for candidate in candidate_layouts(mem_config, 256, 256):
            layout = candidate.build(256, 256)
            assert layout.n_elements == 256 * 256


class TestPlannerChoices:
    """The planner must rediscover the paper's conclusions on its own."""

    def test_fft2d_gets_a_block_ddl(self, planner):
        plan = planner.plan(fft2d_spec(1024))
        chosen = plan.matrices["intermediate"]
        assert chosen.layout_name.startswith("block-ddl")
        assert chosen.throughput_bytes_per_s > 0.99 * planner.config.peak_bandwidth

    def test_fft2d_row_major_ranks_last_tier(self, planner):
        plan = planner.plan(fft2d_spec(1024))
        ranking = dict(plan.matrices["intermediate"].ranking)
        assert ranking["row-major"] < ranking[plan.matrices["intermediate"].layout_name] / 10

    def test_transpose_source_stays_row_major(self, planner):
        plan = planner.plan(transpose_spec(1024))
        assert plan.matrices["source"].layout_name == "row-major"

    def test_transpose_destination_goes_column_friendly(self, planner):
        plan = planner.plan(transpose_spec(1024))
        assert plan.matrices["destination"].layout_name in (
            "column-major",
            "block-ddl-w16h2",
        )

    def test_matmul_b_matrix_column_friendly(self, planner):
        plan = planner.plan(matmul_spec(1024, tile=256))
        assert plan.matrices["A"].layout_name == "row-major"
        assert plan.matrices["B"].layout_name != "row-major"
        assert plan.matrices["C"].layout_name == "row-major"

    def test_without_reorder_hardware_needs_eq1_height(self, planner):
        """No permutation network -> only sufficiently tall blocks reach
        peak, exactly the Eq. (1) constraint."""
        spec = KernelSpec(
            name="col-only",
            matrices={"X": (1024, 1024)},
            phases=(
                PhaseSpec(
                    "read columns",
                    matrix="X",
                    pattern=AccessPattern.COLUMN_WALK,
                    streams=16,
                    block_reorder=False,
                ),
            ),
        )
        plan = planner.plan(spec)
        ranking = dict(plan.matrices["X"].ranking)
        # Flat blocks leak activations; the winner is column-major or a
        # tall block.
        assert ranking["block-ddl-w16h2"] < 0.5 * ranking["column-major"]
        assert plan.matrices["X"].layout_name in (
            "column-major", "block-ddl-w1h32", "block-ddl-w2h16",
        )

    def test_planning_premium_over_row_major(self, planner):
        """The planned FFT intermediate streams over 10x the naive
        row-major default."""
        chosen = planner.plan(fft2d_spec(1024)).matrices["intermediate"]
        naive = dict(chosen.ranking)["row-major"]
        assert chosen.throughput_bytes_per_s > 10 * naive

    def test_candidate_space_stays_small(self, planner):
        assert 4 <= len(candidate_layouts(planner.config, 1024, 1024)) <= 12

    def test_plan_describe(self, planner):
        text = planner.plan(fft2d_spec(256)).describe()
        assert "intermediate" in text
        assert "GB/s" in text


class TestPlannerValidation:
    def test_rejects_zero_sample(self, mem_config):
        with pytest.raises(ConfigError):
            LayoutPlanner(mem_config, sample_requests=0)

    def test_utilizations_bounded(self, planner):
        plan = planner.plan(fft2d_spec(512))
        for planned in plan.matrices.values():
            for util in planned.phase_utilization.values():
                assert 0.0 < util <= 1.0


class TestCustomWalkPhases:
    """CUSTOM phases carry an explicit AffineWalk through the planner."""

    def test_custom_walk_plans(self, planner):
        from repro.framework.ir import diagonal_walk

        n = 256
        spec = KernelSpec(
            name="diagonal",
            matrices={"X": (n, n)},
            phases=(
                PhaseSpec(
                    "diagonal sweep",
                    matrix="X",
                    pattern=AccessPattern.CUSTOM,
                    walk=diagonal_walk(n),
                    streams=1,
                ),
            ),
        )
        plan = planner.plan(spec)
        assert plan.matrices["X"].throughput_bytes_per_s > 0

    def test_custom_requires_walk(self):
        with pytest.raises(ConfigError):
            PhaseSpec("p", matrix="X", pattern=AccessPattern.CUSTOM)

    def test_walk_forbidden_for_builtin_patterns(self):
        from repro.framework.ir import row_walk

        with pytest.raises(ConfigError):
            PhaseSpec(
                "p", matrix="X", pattern=AccessPattern.ROW_WALK,
                walk=row_walk(4, 4),
            )
