"""The generated API reference stays in sync with the code."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def rendered():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_api_docs

        return gen_api_docs.render()
    finally:
        sys.path.pop(0)


class TestGeneratedDocs:
    def test_committed_file_in_sync(self, rendered):
        committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert committed == rendered, (
            "docs/api.md is stale; run python tools/gen_api_docs.py"
        )

    def test_covers_core_modules(self, rendered):
        for module in (
            "repro.memory3d.memory",
            "repro.fft.kernel1d",
            "repro.layouts.optimizer",
            "repro.core.architecture",
            "repro.framework.planner",
        ):
            assert f"## `{module}`" in rendered

    def test_key_classes_present(self, rendered):
        for name in ("Memory3D", "StreamingFFT1D", "OptimizedArchitecture",
                     "LayoutPlanner", "BlockDDLLayout"):
            assert name in rendered

    def test_no_undocumented_entries(self, rendered):
        assert "(undocumented)" not in rendered

    def test_tool_runs_standalone(self, tmp_path):
        out = tmp_path / "api.md"
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "wrote" in result.stdout
        committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == committed
