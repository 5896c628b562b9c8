"""Grid points that price the same column phase share one run.

:func:`repro.core.simulate.column_phase_key` decides when two points
price the same phase; :func:`repro.sweep.run_sweep` prices one
representative per key and hands its result to the others under their
own labels.  Two checks hold it to that:

* the key is sound: over every layout a sweep resolves at sizes
  64-1024, points with equal keys give ``point_result`` dicts that
  differ only in ``layout`` and ``config``;
* sharing is invisible: on a grid with all three kinds of repeat, every
  execution path (serial, process pool, retry pool, warm cache, rerun
  after a failure) returns exactly what ``point_result`` gives run once
  per point.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.simulate import column_phase_key
from repro.framework.planner import layout_candidates_by_name
from repro.layouts.optimizer import optimal_block_geometry
from repro.layouts.row_major import RowMajorLayout
from repro.layouts.tiled import TiledLayout
from repro.obs.logging import ListSink, configure_logging, reset_logging
from repro.obs.monitor import SweepStatus
from repro.serialization import system_with_overrides
from repro.sweep import (
    ResultCache,
    RetryPolicy,
    SweepGrid,
    SweepPoint,
    WorkerChaos,
    run_sweep,
)
from repro.sweep.runner import point_result

#: Cheap but non-trivial request budget.
SAMPLE = 4_096

SIZES = (64, 128, 256, 512, 1024)

#: Every kind of repeat, at two sizes where Eq. (1) gives h=16:
#: ``ddl`` at Eq. (1) is ``ddl`` h=16, ``block-ddl-w1h32`` is ``ddl``
#: h=32 and ``tiled-1x32`` is ``row-major``.
GRID = SweepGrid(
    sizes=(256, 512),
    layouts=("row-major", "ddl", "tiled-1x32", "block-ddl-w1h32"),
    heights=(None, 16, 32),
)

#: GRID's points that share an earlier point's run -> that point.
SHARERS = {2: 1, 4: 0, 5: 3, 8: 7, 10: 6, 11: 9}


def _specs(config: SystemConfig, n: int) -> list[tuple[str, int | None]]:
    """Every (layout, height) a sweep resolves at size ``n`` (``n >= s``)."""
    s = config.memory.row_elements
    heights = [None] + [h for h in range(1, s + 1) if s % h == 0]
    return (
        [("row-major", None)]
        + [("ddl", h) for h in heights]
        + [(name, None) for name in layout_candidates_by_name(config.memory, n, n)]
    )


def _point(n: int, layout: str, height: int | None) -> SweepPoint:
    return SweepPoint(n=n, layout=layout, height=height, config_label="default")


def _unlabelled(result: dict) -> dict:
    return {k: v for k, v in result.items() if k not in ("layout", "config")}


def _oracle(grid: SweepGrid) -> list[dict]:
    """``point_result`` run once per point: what a sweep must return."""
    config = SystemConfig()
    return [point_result(point, config, SAMPLE) for point in grid.points()]


class TestPhaseKey:
    @pytest.mark.parametrize("n", SIZES)
    def test_equal_keys_price_equal_phases(self, n):
        config = SystemConfig()
        s = config.memory.row_elements
        groups: dict[tuple, list[tuple[str, int | None]]] = defaultdict(list)
        for layout, height in _specs(config, n):
            groups[column_phase_key(config, n, layout, height, True, SAMPLE)].append(
                (layout, height)
            )
        # Not vacuous: the two row-major names and tiled-1x32 share one
        # phase, and every block-ddl-wWhH shares ddl h=H's.
        row_major = groups[column_phase_key(config, n, "row-major", None, True, SAMPLE)]
        assert row_major == [
            ("row-major", None), ("row-major", None), (f"tiled-1x{s}", None)
        ]
        for height in (2, 4, 8, 16, 32):
            ddl = groups[column_phase_key(config, n, "ddl", height, True, SAMPLE)]
            assert (f"block-ddl-w{s // height}h{height}", None) in ddl
        for specs in groups.values():
            if len(specs) == 1:
                continue
            results = [
                _unlabelled(point_result(_point(n, layout, height), config, SAMPLE))
                for layout, height in specs
            ]
            assert all(result == results[0] for result in results), specs

    @pytest.mark.parametrize("n", SIZES)
    def test_eq1_keys_as_its_explicit_height(self, n):
        config = SystemConfig()
        height = optimal_block_geometry(config.memory, n).height
        assert column_phase_key(config, n, "ddl") == column_phase_key(
            config, n, "ddl", height
        )

    def test_key_separates_what_decides_the_phase(self):
        config = SystemConfig()
        base = column_phase_key(config, 256, "ddl", 16, True, SAMPLE)
        assert column_phase_key(config, 256, "ddl", 8, True, SAMPLE) != base
        assert column_phase_key(config, 512, "ddl", 16, True, SAMPLE) != base
        assert column_phase_key(config, 256, "ddl", 16, False, SAMPLE) != base
        assert column_phase_key(config, 256, "ddl", 16, True, 2 * SAMPLE) != base
        slower = system_with_overrides(
            config, {"memory": {"timing": {"t_in_row": 3.2}}}
        )
        assert column_phase_key(slower, 256, "ddl", 16, True, SAMPLE) != base
        assert column_phase_key(config, 256, "column-major") != column_phase_key(
            config, 256, "row-major"
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_one_row_tiles_store_row_major(self, n):
        rows, cols = np.indices((n, n))
        row_major = RowMajorLayout(n, n).element_index_array(rows, cols)
        width = 1
        while width <= n:
            tiled = TiledLayout(n, n, 1, width).element_index_array(rows, cols)
            assert np.array_equal(tiled, row_major), width
            width *= 2


class TestSharedSweep:
    def test_grid_has_every_kind_of_repeat(self):
        config = SystemConfig()
        first: dict[tuple, int] = {}
        sharers = {}
        for index, p in enumerate(GRID.points()):
            key = column_phase_key(
                config, p.n, p.layout, p.height, p.whole_blocks, SAMPLE
            )
            if first.setdefault(key, index) != index:
                sharers[index] = first[key]
        assert sharers == SHARERS

    def test_serial_run_matches_per_point_oracle(self):
        result = run_sweep(GRID, max_requests=SAMPLE, jobs=1)
        assert result.results == _oracle(GRID)
        assert result.meta["simulated"] == 12
        assert result.meta["shared"] == len(SHARERS)

    def test_process_pool_matches_per_point_oracle(self):
        result = run_sweep(GRID, max_requests=SAMPLE, jobs=2)
        assert result.results == _oracle(GRID)
        assert result.meta["shared"] == len(SHARERS)

    def test_retry_pool_matches_per_point_oracle(self):
        result = run_sweep(
            GRID, max_requests=SAMPLE, jobs=2, policy=RetryPolicy(retries=1)
        )
        assert result.results == _oracle(GRID)
        assert result.meta["shared"] == len(SHARERS)

    def test_warm_cache_matches_per_point_oracle(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(GRID, max_requests=SAMPLE, jobs=1, cache=cache)
        # Every point, sharers included, stored its own cache entry.
        assert cold.meta["cache"]["stores"] == 12
        warm = run_sweep(GRID, max_requests=SAMPLE, jobs=1, cache=cache)
        assert warm.results == cold.results == _oracle(GRID)
        assert warm.meta["cached"] == 12
        assert warm.meta["shared"] == 0

    def test_partly_warm_cache_shares_only_the_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(
            SweepGrid(sizes=(256,), layouts=("row-major",)),
            max_requests=SAMPLE, cache=cache,
        )
        # row-major N=256 replays, so tiled-1x32 N=256 has no
        # representative left and prices its own phase.
        result = run_sweep(GRID, max_requests=SAMPLE, jobs=1, cache=cache)
        assert result.results == _oracle(GRID)
        assert result.meta["cached"] == 1
        assert result.meta["shared"] == len(SHARERS) - 1

    def test_rerun_on_cache_matches_per_point_oracle(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # Point 0 (row-major N=256) fails; its sharer tiled-1x32 (point
        # 4) is quarantined with it, under its own index and point.
        partial = run_sweep(
            GRID, max_requests=SAMPLE, jobs=1,
            cache=ResultCache(cache_dir),
            policy=RetryPolicy(retries=0),
            chaos=WorkerChaos(fail_points=(0,)),
        )
        representative, sharer = partial.failures
        assert (representative["index"], sharer["index"]) == (0, 4)
        assert sharer["point"] == GRID.points()[4].as_dict()
        assert dict(sharer, index=0, point=representative["point"]) == representative
        # Rerun on the same cache: the two missing points share one run
        # again.
        rerun = run_sweep(
            GRID, max_requests=SAMPLE, jobs=1, cache=ResultCache(cache_dir)
        )
        assert rerun.meta["cached"] == 10
        assert rerun.meta["simulated"] == 2
        assert rerun.meta["shared"] == 1
        assert rerun.results == _oracle(GRID)

    def test_unresolved_layout_runs_alone_and_is_quarantined(self):
        grid = SweepGrid(
            sizes=(256,), layouts=("row-major", "no-such-layout", "tiled-1x32")
        )
        result = run_sweep(grid, max_requests=SAMPLE, jobs=1)
        assert [(f["index"], f["error"]) for f in result.failures] == [
            (1, "SimulationError")
        ]
        assert result.meta["shared"] == 1
        assert result.results == [
            point_result(grid.points()[i], SystemConfig(), SAMPLE) for i in (0, 2)
        ]


class TestSharingIsVisible:
    @pytest.fixture
    def records(self):
        sink = configure_logging(level="debug").add_sink(ListSink())
        yield sink.records
        reset_logging()

    def test_span_status_log_and_meta(self, records):
        status = SweepStatus()
        result = run_sweep(
            GRID, max_requests=SAMPLE, jobs=1, telemetry=True, status=status
        )
        telemetry = result.telemetry
        for member, representative in SHARERS.items():
            spans = telemetry.point_spans[member]
            assert [span.name for span in spans] == ["shared"]
            assert spans[0].meta == {"representative": representative}
            assert spans[0].start_s == spans[0].end_s
        # Only representatives are attempted and reach a worker.
        assert {record["point_id"] for record in telemetry.workers} == (
            set(range(12)) - set(SHARERS)
        )
        assert status.simulated == 12
        shared = [r for r in records if r.message == "point shared"]
        assert {
            r.fields["point"]: r.fields["representative"] for r in shared
        } == SHARERS
        assert len(shared) == len(SHARERS)
        assert result.meta["shared"] == len(SHARERS)
        assert "12 simulated, 6 of them sharing a phase" in result.describe_run()
