"""Byte-for-byte pins of every output that prices a phase trace.

The CLI commands, reports, the matmul model and the layout planner all
price column- and row-phase access patterns on a capped request prefix
and extrapolate.  These fixtures pin what each of them prints or
returns, so a change to how a phase trace is built, capped, priced or
extrapolated that moves a single byte shows up here.

Regenerate the fixtures only for an intended change to the outputs::

    PYTHONPATH=src python tests/test_phase_outputs.py --write
"""

from __future__ import annotations

import io
import json
import sys
from collections.abc import Callable
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import degradation_report
from repro.framework import LayoutPlanner, fft2d_spec, matmul_spec, transpose_spec
from repro.matmul.architecture import B_LAYOUTS, MatMulArchitecture
from repro.memory3d import pact15_hmc_config
from repro.obs.report import build_run_report
from repro.reporting import reproduce_report

FIXTURES = Path(__file__).parent / "data" / "phase_outputs"


def _stdout(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return f"exit {code}\n{buffer.getvalue()}"


def _matmul() -> str:
    return "".join(
        f"{MatMulArchitecture(512, b_layout=b_layout).evaluate(max_requests=16_384)!r}\n"
        for b_layout in B_LAYOUTS
    )


def _plan(spec_factory: Callable) -> Callable[[], str]:
    def build() -> str:
        planner = LayoutPlanner(pact15_hmc_config(), sample_requests=16_384)
        plan = planner.plan(spec_factory(256))
        ranking = "".join(
            f"{label}: {planned.ranking!r}\n"
            for label, planned in plan.matrices.items()
        )
        return plan.describe() + "\n" + ranking

    return build


#: Fixture file name -> the output it pins.
CASES: dict[str, Callable[[], str]] = {
    "energy.txt": lambda: _stdout(["energy", "--sizes", "512", "1024"]),
    "energy-capped.txt": lambda: _stdout(
        ["energy", "--sizes", "1024", "--max-requests", "2048"]
    ),
    "timeline.txt": lambda: _stdout(["timeline", "--sizes", "512"]),
    "trace-ddl.txt": lambda: _stdout(["trace", "--size", "512", "--layout", "ddl"]),
    "trace-row-major.txt": lambda: _stdout(
        ["trace", "--size", "512", "--layout", "row-major"]
    ),
    "trace-ddl-in-order.txt": lambda: _stdout(
        ["trace", "--size", "512", "--layout", "ddl", "--discipline", "in_order"]
    ),
    "trace-ddl-capped.txt": lambda: _stdout(
        ["trace", "--size", "1024", "--layout", "ddl", "--max-requests", "4096"]
    ),
    "simulate-metrics.txt": lambda: _stdout(
        ["simulate", "--sizes", "256", "--max-requests", "16384", "--metrics"]
    ),
    "degradation.json": lambda: json.dumps(
        degradation_report(n=256), indent=2, sort_keys=True
    ),
    "reproduce.md": lambda: reproduce_report(sizes=(512,), max_requests=16_384),
    "run-report.html": lambda: build_run_report(n=256, max_requests=8_192),
    "matmul.txt": _matmul,
    "plan-fft2d.txt": _plan(fft2d_spec),
    "plan-transpose.txt": _plan(transpose_spec),
    "plan-matmul.txt": _plan(matmul_spec),
}


def test_fixtures_cover_every_case():
    assert sorted(p.name for p in FIXTURES.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_fixture(case):
    expected = (FIXTURES / case).read_text(encoding="utf-8")
    assert CASES[case]() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, build in CASES.items():
        (FIXTURES / name).write_text(build(), encoding="utf-8")
    print(f"wrote {len(CASES)} outputs to {FIXTURES}")
