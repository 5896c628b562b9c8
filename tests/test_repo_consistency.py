"""Meta-tests: the documentation and the code stay consistent."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def experiments_text():
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


class TestDesignIndex:
    def test_every_referenced_bench_exists(self, design_text):
        benches = set(re.findall(r"benchmarks/(bench_\w+\.py)", design_text))
        assert benches, "DESIGN.md must reference benchmark files"
        for bench in benches:
            assert (ROOT / "benchmarks" / bench).exists(), f"missing {bench}"

    def test_every_bench_file_is_indexed(self, design_text, experiments_text):
        on_disk = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        documented = set(
            re.findall(r"benchmarks/(bench_\w+\.py)", design_text)
        ) | set(re.findall(r"benchmarks/(bench_\w+\.py)", experiments_text))
        undocumented = on_disk - documented
        assert not undocumented, f"benches not in DESIGN/EXPERIMENTS: {undocumented}"

    def test_experiment_ids_cover_tables_and_figures(self, design_text):
        for exp_id in ("T1", "T2", "F1", "F2", "F3", "A1", "A2", "A3", "A4"):
            assert f"| {exp_id} |" in design_text, f"missing experiment {exp_id}"

    def test_paper_check_recorded(self, design_text):
        assert "Paper-text check" in design_text


class TestExamplesDocumented:
    def test_every_example_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme, f"{example.name} not in README"

    def test_every_example_has_docstring_and_main(self):
        for example in (ROOT / "examples").glob("*.py"):
            text = example.read_text(encoding="utf-8")
            assert text.lstrip().startswith(("#!", '"""')), example.name
            assert "def main" in text, f"{example.name} lacks main()"
            assert '__main__' in text, f"{example.name} not runnable"


class TestExperimentsRecordsPaperNumbers:
    def test_table1_values_present(self, experiments_text):
        for value in ("6.4 Gb/s", "3.2 Gb/s", "32 GB/s", "23.04 GB/s",
                      "40.0 %", "28.8 %"):
            assert value in experiments_text, f"missing {value}"

    def test_table2_improvements_present(self, experiments_text):
        for value in ("95.1", "96.9", "96.6"):
            assert value in experiments_text

    def test_deviations_section_exists(self, experiments_text):
        assert "Deviations / substitutions" in experiments_text


class TestNoTrackedRunArtifacts:
    """Run outputs must never be committed (they drift every run)."""

    def test_no_metrics_or_trace_artifacts_tracked(self):
        import fnmatch
        import subprocess

        try:
            listing = subprocess.run(
                ["git", "ls-files"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        tracked = listing.stdout.splitlines()
        offenders = [
            path
            for path in tracked
            if fnmatch.fnmatch(path, "*.prom")
            or fnmatch.fnmatch(Path(path).name, "sweep-trace*.json")
            or fnmatch.fnmatch(Path(path).name, "flight-*.json")
        ]
        assert not offenders, f"run artifacts committed: {offenders}"


class TestMemoryFitValidation:
    def test_architecture_rejects_oversized_matrix(self):
        from repro.core import BaselineArchitecture
        from repro.core.config import SystemConfig
        from repro.errors import ConfigError
        from repro.memory3d import Memory3DConfig

        tiny = SystemConfig(memory=Memory3DConfig(rows_per_bank=256))
        with pytest.raises(ConfigError):
            BaselineArchitecture(8192, tiny)

    def test_paper_sizes_fit_default_device(self):
        from repro.core import BaselineArchitecture

        for n in (2048, 4096, 8192):
            BaselineArchitecture(n)  # must not raise


class TestPhaseTraceLayering:
    """Phase traces are built for pricing in one place: core.simulate.

    Only :func:`repro.core.simulate.phase_trace`, the ``repro.trace``
    package that defines the generators and the ``repro`` facade that
    re-exports them may import the phase generators.
    ``repro.core.architecture`` is also allowed: its functional write
    path stores data and prices nothing.
    """

    GENERATORS = {
        "column_walk_trace",
        "block_column_read_trace",
        "row_walk_trace",
        "block_write_trace",
    }
    ALLOWED = {"repro", "repro.core.simulate", "repro.core.architecture"}

    def _importers(self) -> dict[str, list[str]]:
        src = ROOT / "src"
        importers: dict[str, list[str]] = {}
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                for name in sorted(names & self.GENERATORS):
                    importers.setdefault(module, []).append(
                        f"{path.name}:{node.lineno} {name}"
                    )
        return importers

    def test_only_the_builder_imports_phase_generators(self):
        importers = self._importers()
        assert "repro.core.simulate" in importers
        offenders = {
            module: uses
            for module, uses in importers.items()
            if module not in self.ALLOWED
            and module != "repro.trace"
            and not module.startswith("repro.trace.")
        }
        assert not offenders, f"build phase traces with phase_trace: {offenders}"


class TestBenchLayerTargets:
    """The benchmark's traced run wraps program callables by name
    (``bench/layers.py``); a refactor that renames or moves one would
    silently drop its layer spans, so every target must still resolve."""

    def test_install_finds_every_target(self, tmp_path):
        import subprocess
        import sys

        script = (
            "import sys\n"
            f"sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]\n"
            "import layers\n"
            f"print(layers.install(layers.SpanRecorder({str(tmp_path)!r})))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
