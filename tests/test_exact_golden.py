"""Golden pins for the exact timing loop where no oracle reaches.

``simulate_reference`` only checks healthy runs and the engine
equivalence corpus compares refresh runs exact-vs-exact, so the exact
loop's behaviour under refresh *combined with* every shipped fault
class, with an event recorder attached, is pinned here against a
committed fixture: full :class:`~repro.memory3d.stats.AccessStats`,
``last_fault_summary``, per-kind event counts and summed durations, and
a digest of the whole event stream.

Regenerate the fixture only for an intended timing change::

    PYTHONPATH=src python tests/test_exact_golden.py --write
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults import builtin_fault_plans
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d import Memory3D, RefreshParameters, pact15_hmc_config
from repro.obs import EventTrace
from repro.obs.events import EventKind
from repro.trace import TraceArray, block_column_read_trace, column_walk_trace

FIXTURE = Path(__file__).parent / "data" / "exact_loop_golden.json"

BASE = pact15_hmc_config()
REFRESHING = dataclasses.replace(
    BASE, refresh=RefreshParameters(t_refi_ns=1000.0, t_rfc_ns=100.0)
)
DISCIPLINES = ("in_order", "per_vault")


@functools.cache
def _traces():
    """DDL and row-major column phases, plus random reads with arrivals.

    Sized so every shipped fault class fires in at least one case
    (throttled windows, corrected and uncorrectable bit errors).
    """
    geometry = optimal_block_geometry(BASE, 512)
    ddl = BlockDDLLayout(512, 512, geometry.width, geometry.height)
    rng = np.random.default_rng(5)
    n = 4096
    return {
        "ddl": block_column_read_trace(ddl, n_streams=2, block_cols=range(2)),
        "row-major": column_walk_trace(RowMajorLayout(256, 256), cols=range(16)),
        "arrivals": TraceArray(
            rng.integers(0, 1 << 20, size=n, dtype=np.int64) * 8,
            arrival_ns=np.sort(rng.uniform(0.0, 2.0 * n, n)),
        ),
    }


def _plans():
    return {"healthy": None, **builtin_fault_plans(seed=7)}


def _case_ids():
    return [
        f"{trace}/{refresh}/{plan}/{discipline}"
        for trace in _traces()
        for refresh in ("refresh", "no-refresh")
        for plan in _plans()
        for discipline in DISCIPLINES
    ]


def _run(case_id: str) -> dict:
    trace_name, refresh, plan_name, discipline = case_id.split("/")
    config = REFRESHING if refresh == "refresh" else BASE
    recorder = EventTrace()
    memory = Memory3D(config, recorder=recorder)
    stats = memory.simulate(
        _traces()[trace_name], discipline, fault_plan=_plans()[plan_name],
        engine="exact",
    )
    assert memory.last_engine == "exact"
    events = {}
    for kind in sorted({*recorder.kinds}):
        durations = [
            dur for k, dur in zip(recorder.kinds, recorder.dur_ns, strict=True)
            if k == kind
        ]
        events[EventKind(kind).name] = {
            "count": len(durations),
            "dur_ns": math.fsum(durations),
        }
    stream = hashlib.sha256()
    for record in zip(
        recorder.kinds, recorder.vaults, recorder.banks, recorder.rows,
        recorder.ts_ns, recorder.dur_ns, strict=True,
    ):
        stream.update(repr(record).encode())
    return {
        "stats": dataclasses.asdict(stats),
        "fault_summary": memory.last_fault_summary,
        "events": events,
        "event_stream_sha256": stream.hexdigest(),
    }


def _normalize(value):
    """JSON round-trip (int dict keys become strings)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_ids())


@pytest.mark.parametrize("case_id", _case_ids())
def test_exact_loop_matches_golden(golden, case_id):
    assert _normalize(_run(case_id)) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({case: _run(case) for case in _case_ids()}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
