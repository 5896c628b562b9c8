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


#: A pin a document row can name: a test node or a CLI command.
PIN = re.compile(
    r"`((?:tests/\w+|benchmarks/test_speed_ratios)\.py(?:::\w+)+)`"
    r"|`python -m repro ([\w-]+)"
)


def _pins(text: str) -> list[tuple[str, str]]:
    return [(node, command) for node, command in PIN.findall(text)]


def _node_exists(node: str) -> bool:
    """Whether ``path.py::[Class::]test_name`` names a test in the tree."""
    path, *names = node.split("::")
    if not names[-1].startswith("test_") or not (ROOT / path).exists():
        return False
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        found = [
            item
            for item in scope
            if isinstance(item, (ast.ClassDef, ast.FunctionDef))
            and item.name == name
        ]
        if not found:
            return False
        scope = getattr(found[0], "body", [])
    return True


def _cli_commands() -> set[str]:
    import argparse

    from repro.cli import build_parser

    return {
        name
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def _experiment_rows(design_text: str) -> list[str]:
    section = design_text.split("## 4. Experiment index", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return rows[1:]  # the header row; the separator starts with "|-"


class TestDesignIndex:
    def test_every_referenced_bench_exists(self, design_text, experiments_text):
        """Every test node and ``python -m repro`` command that DESIGN.md
        or EXPERIMENTS.md cites exists."""
        commands = _cli_commands()
        pins = _pins(design_text) + _pins(experiments_text)
        assert pins, "DESIGN.md must cite the tests that pin its claims"
        for node, command in pins:
            if node:
                assert _node_exists(node), f"no such test: {node}"
            else:
                assert command in commands, f"no such command: repro {command}"

    def test_every_bench_file_is_indexed(self, design_text, experiments_text):
        """Every experiment row and section names a pin, and every speed
        ratio is indexed in DESIGN.md."""
        rows = _experiment_rows(design_text)
        assert len(rows) >= 20
        for row in rows:
            assert _pins(row), f"experiment row names no pin: {row[:60]}"
        for section in experiments_text.split("\n## ")[1:]:
            if section.startswith(("T", "F", "A", "E", "V", "L", "Q")):
                assert _pins(section), f"section names no pin: {section[:40]}"
        ratios = ast.parse(
            (ROOT / "benchmarks" / "test_speed_ratios.py").read_text("utf-8")
        )
        for item in ratios.body:
            if isinstance(item, ast.FunctionDef) and item.name.startswith("test_"):
                node = f"benchmarks/test_speed_ratios.py::{item.name}"
                assert node in design_text, f"{node} not in DESIGN.md"

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


class TestPricingContract:
    """``Memory3D`` prices exactly the trace it is given, on the vector
    engine (with its exact fallback) unless a caller names ``"exact"``.

    Prefix extrapolation lives in ``repro.core.simulate`` alone, and no
    public callable makes the exact loop its default.
    """

    def test_only_core_simulate_extrapolates(self):
        callers = []
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "scaled"
                ):
                    callers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
        assert callers, "the scan found no AccessStats.scaled call"
        offenders = [
            c for c in callers if not c.startswith("src/repro/core/simulate.py:")
        ]
        assert not offenders, f"extrapolate only in repro.core.simulate: {offenders}"

    def test_no_public_callable_defaults_to_the_exact_engine(self):
        import importlib
        import inspect
        import pkgutil

        import repro

        defaults: dict[str, object] = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != info.name:
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):
                    members += [
                        (f"{name}.{attr}", value)
                        for attr, value in vars(obj).items()
                        if callable(value)
                        and (not attr.startswith("_") or attr == "__init__")
                    ]
                for qualname, member in members:
                    try:
                        engine = inspect.signature(member).parameters.get("engine")
                    except (TypeError, ValueError):
                        continue
                    if engine is not None:
                        defaults[f"{info.name}.{qualname}"] = engine.default
        assert "repro.memory3d.memory.Memory3D.simulate" in defaults
        assert "repro.core.simulate.PhaseTrace.price" in defaults
        offenders = sorted(k for k, v in defaults.items() if v == "exact")
        assert not offenders, f"default engine must be 'vector': {offenders}"


class TestBenchLayerTargets:
    """The benchmark's traced run wraps program callables by name
    (``bench/layers.py``); a refactor that renames or moves one would
    silently drop its layer spans, so every target must still resolve.

    The one exception is ``PlanService._handle``: the coroutine the
    service ran on its event loop, which ``layers.install`` re-parents
    across that hop.  The service answers on the calling thread now, so
    the name is gone on purpose and ``install`` reports it missing until
    the benchmark drops the hook.
    """

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
        assert run.stdout.strip() == "['PlanService._handle']"
