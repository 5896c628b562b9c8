"""Byte-for-byte pins of whole sweep result documents.

Every layout the repository benchmark sweeps, at every ddl height, for
three sizes, with DRAM refresh on and off and with whole-block and
column-at-a-time DDL visits.  The documents are what ``repro sweep``
prints and what the cache and ``repro serve`` embed, so any change to
trace generation, sampling or either timing engine that moves a single
byte of a result shows up here -- under both engines, since the vector
engine must price every point exactly like the exact loop.

Regenerate the fixtures only for an intended change to the documents::

    PYTHONPATH=src python tests/test_sweep_documents.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.sweep import grid_from_dict, run_sweep

FIXTURES = Path(__file__).parent / "data" / "sweep_documents"

SIZES = (256, 512, 1024)
LAYOUTS = ("row-major", "ddl", "column-major", "tiled-1x32", "block-ddl-w1h32")
#: ``None`` is Eq. (1).
HEIGHTS = (None, 1, 2, 4, 8, 16, 32)
REFRESH = {"t_refi_ns": 7800.0, "t_rfc_ns": 160.0}


def _case_ids() -> list[str]:
    return [
        f"refresh-{refresh}_whole-blocks-{whole}"
        for refresh in ("off", "on")
        for whole in ("true", "false")
    ]


def _document(case_id: str, engine: str) -> str:
    refresh, whole = (part.rsplit("-", 1)[1] for part in case_id.split("_"))
    overrides = {"memory": {"refresh": dict(REFRESH)}} if refresh == "on" else {}
    spec = {
        "sizes": list(SIZES),
        "layouts": list(LAYOUTS),
        "heights": list(HEIGHTS),
        "whole_blocks": whole == "true",
        "configs": [{"label": f"refresh-{refresh}", "overrides": overrides}],
    }
    return run_sweep(grid_from_dict(spec), engine=engine).to_json()


def test_fixtures_cover_every_case():
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(_case_ids())


@pytest.mark.parametrize("engine", ["vector", "exact"])
@pytest.mark.parametrize("case_id", _case_ids())
def test_sweep_document_matches_fixture(case_id, engine):
    expected = (FIXTURES / f"{case_id}.json").read_text(encoding="utf-8")
    assert _document(case_id, engine) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for case in _case_ids():
        (FIXTURES / f"{case}.json").write_text(
            _document(case, "exact"), encoding="utf-8"
        )
    print(f"wrote {len(_case_ids())} documents to {FIXTURES}")
