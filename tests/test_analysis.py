"""Domain lint framework: rules, suppression, CLI and self-lint."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Diagnostic,
    build_rules,
    default_lint_paths,
    parse_suppressions,
    rule_catalog,
    run_lint,
)
from repro.cli import main
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(
    tmp_path: Path,
    source: str,
    rule_id: str,
    rel: str = "module.py",
) -> list[Diagnostic]:
    """Write ``source`` at ``tmp_path/rel`` and run one rule over it."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_lint([tmp_path], rule_ids=[rule_id], root=tmp_path)
    return report.diagnostics


class TestFramework:
    def test_catalog_has_the_shipped_battery(self):
        assert set(rule_catalog()) >= {
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "UNIT001",
            "CFG001",
            "OBS001",
            "API001",
            "CLI001",
            "LOG001",
            "CONC001",
            "CONC002",
            "CONC003",
            "SCHEMA001",
        }

    def test_catalog_scopes(self):
        catalog = rule_catalog()
        assert all(
            cls.scope in ("file", "project") for cls in catalog.values()
        )
        project_scoped = {
            rule_id
            for rule_id, cls in catalog.items()
            if cls.scope == "project"
        }
        assert project_scoped == {
            "CONC001",
            "CONC002",
            "CONC003",
            "SCHEMA001",
        }

    def test_catalog_rules_carry_metadata(self):
        for rule_id, rule_cls in rule_catalog().items():
            assert rule_cls.id == rule_id
            assert rule_cls.title
            assert rule_cls.rationale

    def test_unknown_rule_id_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            build_rules(["NOPE999"])

    def test_rule_selection_is_case_insensitive(self):
        (rule,) = build_rules(["det001"])
        assert rule.id == "DET001"

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            run_lint([tmp_path / "ghost"])

    def test_syntax_error_reported_as_diagnostic(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        report = run_lint([tmp_path], root=tmp_path)
        assert [d.rule_id for d in report.diagnostics] == ["SYNTAX"]

    def test_diagnostics_sorted_and_anchored(self, tmp_path):
        source = """\
            import time

            def b():
                return time.time()

            def a():
                return time.monotonic()
        """
        diags = lint_source(tmp_path, source, "DET001")
        assert [d.line for d in diags] == [4, 7]
        assert all(d.path == "module.py" for d in diags)
        assert all(d.col > 0 for d in diags)

    def test_json_rendering_is_deterministic(self, tmp_path):
        source = "import time\nx = time.time()\n"
        (tmp_path / "m.py").write_text(source, encoding="utf-8")
        report = run_lint([tmp_path], rule_ids=["DET001"], root=tmp_path)
        doc = json.loads(report.render_json())
        assert doc["schema"] == "repro-lint/v1"
        assert doc["count"] == 1
        assert doc["diagnostics"][0]["rule"] == "DET001"
        assert report.render_json() == report.render_json()


class TestSuppression:
    def test_same_line_comment(self):
        sup = parse_suppressions("x = 1  # repro: ignore[DET001]\n")
        assert "DET001" in sup[1]

    def test_standalone_comment_covers_next_line(self):
        sup = parse_suppressions("# repro: ignore[OBS001]\nx = 1\n")
        assert "OBS001" in sup[1] and "OBS001" in sup[2]

    def test_multiple_ids_one_comment(self):
        sup = parse_suppressions("x = 1  # repro: ignore[DET001, UNIT001]\n")
        assert sup[1] == {"DET001", "UNIT001"}

    def test_suppressed_rule_does_not_fire(self, tmp_path):
        source = """\
            import time

            def stamp():
                return time.time()  # repro: ignore[DET001]
        """
        assert lint_source(tmp_path, source, "DET001") == []

    def test_suppression_is_per_rule(self, tmp_path):
        source = """\
            import time

            def stamp():
                return time.time()  # repro: ignore[DET002]
        """
        diags = lint_source(tmp_path, source, "DET001")
        assert [d.rule_id for d in diags] == ["DET001"]


class TestDET001:
    POSITIVE = """\
        import time
        from datetime import datetime

        def stamp():
            return time.perf_counter(), datetime.now()
    """

    def test_positive(self, tmp_path):
        diags = lint_source(tmp_path, self.POSITIVE, "DET001")
        assert len(diags) == 2
        assert all(d.rule_id == "DET001" for d in diags)

    def test_negative_simulated_time(self, tmp_path):
        source = """\
            def advance(now_ns, step_ns):
                return now_ns + step_ns
        """
        assert lint_source(tmp_path, source, "DET001") == []

    def test_obs_modules_exempt(self, tmp_path):
        diags = lint_source(tmp_path, self.POSITIVE, "DET001", rel="obs/spans.py")
        assert diags == []

    def test_bench_files_exempt(self, tmp_path):
        diags = lint_source(tmp_path, self.POSITIVE, "DET001", rel="benchmarks/speed.py")
        assert diags == []

    def test_from_import_alias_detected(self, tmp_path):
        source = """\
            from time import perf_counter as pc

            def stamp():
                return pc()
        """
        diags = lint_source(tmp_path, source, "DET001")
        assert len(diags) == 1
        assert "perf_counter" in diags[0].message


class TestDET002:
    def test_positive_numpy_global(self, tmp_path):
        source = """\
            import numpy as np

            def jitter():
                return np.random.rand()
        """
        diags = lint_source(tmp_path, source, "DET002", rel="sweep/jitter.py")
        assert len(diags) == 1
        assert "numpy.random.rand" in diags[0].message

    def test_positive_stdlib_from_import(self, tmp_path):
        source = """\
            from random import shuffle

            def mix(items):
                shuffle(items)
        """
        diags = lint_source(tmp_path, source, "DET002", rel="faults/mix.py")
        assert len(diags) == 1

    def test_negative_default_rng(self, tmp_path):
        source = """\
            import numpy as np

            def draws(seed, n):
                return np.random.default_rng(seed).random(n)
        """
        assert lint_source(tmp_path, source, "DET002", rel="faults/p.py") == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = """\
            import numpy as np

            def noise():
                return np.random.rand()
        """
        assert lint_source(tmp_path, source, "DET002", rel="apps/noise.py") == []

    def test_suppressed(self, tmp_path):
        source = """\
            import numpy as np

            def jitter():
                return np.random.rand()  # repro: ignore[DET002]
        """
        assert lint_source(tmp_path, source, "DET002", rel="sweep/j.py") == []


class TestDET003:
    def test_positive_bare_open(self, tmp_path):
        source = """\
            import json

            def save(path, doc):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
        """
        diags = lint_source(tmp_path, source, "DET003", rel="sweep/cache.py")
        assert len(diags) == 1
        assert "os.replace" in diags[0].message

    def test_positive_direct_write_text(self, tmp_path):
        source = """\
            def save(self, doc):
                self.path.write_text(doc)
        """
        diags = lint_source(tmp_path, source, "DET003", rel="sweep/ckpt.py")
        assert len(diags) == 1

    def test_negative_tmp_then_replace(self, tmp_path):
        source = """\
            import os

            def save(path, text):
                tmp = path.with_name(path.name + ".tmp")
                tmp.write_text(text)
                os.replace(tmp, path)
        """
        assert lint_source(tmp_path, source, "DET003", rel="sweep/cache.py") == []

    def test_reads_are_fine(self, tmp_path):
        source = """\
            def load(path):
                with open(path, encoding="utf-8") as handle:
                    return handle.read()
        """
        assert lint_source(tmp_path, source, "DET003", rel="sweep/cache.py") == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = """\
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """
        assert lint_source(tmp_path, source, "DET003", rel="reporting.py") == []


class TestDET004:
    REL = "memory3d/vector.py"

    def test_positive_loop_over_requests(self, tmp_path):
        source = """\
            def price(addresses):
                total = 0
                for address in addresses:
                    total += address
                return total
        """
        diags = lint_source(tmp_path, source, "DET004", rel=self.REL)
        assert len(diags) == 1
        assert "array-at-a-time" in diags[0].message

    def test_positive_comprehension_over_zip(self, tmp_path):
        source = """\
            def pair(vaults, banks):
                return [v * 8 + b for v, b in zip(vaults, banks)]
        """
        diags = lint_source(tmp_path, source, "DET004", rel=self.REL)
        assert len(diags) == 1

    def test_negative_range_loops(self, tmp_path):
        source = """\
            def relax(n, block):
                for start in range(0, n, block):
                    yield start
                return [i * 2 for i in range(4)]
        """
        assert lint_source(tmp_path, source, "DET004", rel=self.REL) == []

    def test_suppressed_with_ignore_comment(self, tmp_path):
        source = """\
            def summarize(counters):
                total = 0
                for value in counters:  # repro: ignore[DET004]
                    total += value
                return total
        """
        assert lint_source(tmp_path, source, "DET004", rel=self.REL) == []

    def test_other_modules_out_of_scope(self, tmp_path):
        source = """\
            def walk(requests):
                for request in requests:
                    yield request
        """
        assert lint_source(tmp_path, source, "DET004", rel="memory3d/memory.py") == []
        assert lint_source(tmp_path, source, "DET004", rel="sweep/vector.py") == []

    def test_shipped_vector_module_is_clean(self):
        report = run_lint(
            [REPO_ROOT / "src" / "repro" / "memory3d" / "vector.py"],
            rule_ids=["DET004"],
            root=REPO_ROOT,
        )
        assert report.diagnostics == []


class TestUNIT001:
    def test_positive_keyword_mismatch(self, tmp_path):
        source = """\
            def wait(delay_ns):
                return delay_ns

            def run(budget_cycles):
                wait(delay_ns=budget_cycles)
        """
        diags = lint_source(tmp_path, source, "UNIT001")
        assert len(diags) == 1
        assert "'cycles'" in diags[0].message and "'ns'" in diags[0].message

    def test_positive_positional_mismatch(self, tmp_path):
        source = """\
            def wait(delay_ns):
                return delay_ns

            def run(size_bytes):
                wait(size_bytes)
        """
        diags = lint_source(tmp_path, source, "UNIT001")
        assert len(diags) == 1

    def test_negative_matching_units(self, tmp_path):
        source = """\
            def wait(delay_ns):
                return delay_ns

            def run(elapsed_ns, total_bytes):
                wait(elapsed_ns)
                wait(delay_ns=elapsed_ns)
        """
        assert lint_source(tmp_path, source, "UNIT001") == []

    def test_negative_rates_are_exempt(self, tmp_path):
        source = """\
            def bandwidth(total_bytes, elapsed_ns):
                return total_bytes / elapsed_ns

            def run(bytes_per_s):
                bandwidth(total_bytes=bytes_per_s, elapsed_ns=bytes_per_s)
        """
        assert lint_source(tmp_path, source, "UNIT001") == []

    def test_attribute_arguments_checked(self, tmp_path):
        source = """\
            def wait(delay_ns):
                return delay_ns

            def run(stats):
                wait(delay_ns=stats.total_cycles)
        """
        diags = lint_source(tmp_path, source, "UNIT001")
        assert len(diags) == 1

    def test_suppressed(self, tmp_path):
        source = """\
            def wait(delay_ns):
                return delay_ns

            def run(budget_cycles):
                wait(budget_cycles)  # repro: ignore[UNIT001]
        """
        assert lint_source(tmp_path, source, "UNIT001") == []


class TestCFG001:
    def test_positive_bare_frequency_literal(self, tmp_path):
        source = """\
            from dataclasses import dataclass

            @dataclass
            class Link:
                freq_hz: float = 1.25
        """
        diags = lint_source(tmp_path, source, "CFG001")
        assert len(diags) == 1
        assert "ghz" in diags[0].message

    def test_negative_units_helper(self, tmp_path):
        source = """\
            from dataclasses import dataclass

            from repro.units import ghz

            @dataclass
            class Link:
                freq_hz: float = ghz(1.25)
                t_rfc_ns: float = 160.0
                row_bytes: int = 256
        """
        assert lint_source(tmp_path, source, "CFG001") == []

    def test_positive_fractional_bytes(self, tmp_path):
        source = """\
            from dataclasses import dataclass

            @dataclass
            class Row:
                row_bytes: float = 0.5
        """
        diags = lint_source(tmp_path, source, "CFG001")
        assert len(diags) == 1

    def test_positive_negative_duration(self, tmp_path):
        source = """\
            from dataclasses import dataclass

            @dataclass
            class Timing:
                t_wait_ns: float = -1.0
        """
        diags = lint_source(tmp_path, source, "CFG001")
        assert len(diags) == 1

    def test_plain_class_ignored(self, tmp_path):
        source = """\
            class Link:
                freq_hz: float = 1.25
        """
        assert lint_source(tmp_path, source, "CFG001") == []

    def test_suppressed(self, tmp_path):
        source = """\
            from dataclasses import dataclass

            @dataclass
            class Link:
                freq_hz: float = 1.25  # repro: ignore[CFG001]
        """
        assert lint_source(tmp_path, source, "CFG001") == []


class TestOBS001:
    def test_positive_unregistered_alias(self, tmp_path):
        source = """\
            def emit(trace):
                trace.record(EV_BOGUS, 0, 0, 0, 0.0, 1.0)
        """
        diags = lint_source(tmp_path, source, "OBS001")
        assert len(diags) == 1
        assert "EV_BOGUS" in diags[0].message

    def test_positive_unregistered_kind_member(self, tmp_path):
        source = """\
            from repro.obs import EventKind

            def emit(trace):
                trace.record(EventKind.WARP_DRIVE, 0, 0, 0, 0.0, 1.0)
        """
        diags = lint_source(tmp_path, source, "OBS001")
        assert len(diags) == 1

    def test_positive_raw_int(self, tmp_path):
        source = """\
            def emit(trace):
                trace.record(3, 0, 0, 0, 0.0, 1.0)
        """
        diags = lint_source(tmp_path, source, "OBS001")
        assert len(diags) == 1
        assert "raw event kind" in diags[0].message

    def test_negative_registered_names(self, tmp_path):
        source = """\
            from repro.obs.events import EV_ACTIVATE, EventKind

            def emit(trace, record_event):
                trace.record(EV_ACTIVATE, 0, 0, 0, 0.0, 1.0)
                record_event(EventKind.ROW_HIT, 0, 0, 0, 0.0, 1.0)
        """
        assert lint_source(tmp_path, source, "OBS001") == []

    def test_variable_kind_not_resolvable(self, tmp_path):
        source = """\
            def emit(trace, kind):
                trace.record(kind, 0, 0, 0, 0.0, 1.0)
        """
        assert lint_source(tmp_path, source, "OBS001") == []

    def test_registry_matches_event_kind(self):
        from repro.obs import EVENT_REGISTRY, EventKind, registered_event_names

        assert registered_event_names() == {k.name for k in EventKind}
        assert all(EVENT_REGISTRY[k.name] is k for k in EventKind)


class TestAPI001:
    def test_positive_missing_reexport(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from pkg.impl import missing\n", encoding="utf-8"
        )
        (pkg / "impl.py").write_text("def present():\n    pass\n", encoding="utf-8")
        report = run_lint([tmp_path], rule_ids=["API001"], root=tmp_path)
        assert len(report.diagnostics) == 1
        assert "missing" in report.diagnostics[0].message

    def test_positive_stale_dunder_all(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from pkg.impl import present\n\n__all__ = ['present', 'ghost']\n",
            encoding="utf-8",
        )
        (pkg / "impl.py").write_text("def present():\n    pass\n", encoding="utf-8")
        report = run_lint([tmp_path], rule_ids=["API001"], root=tmp_path)
        assert len(report.diagnostics) == 1
        assert "ghost" in report.diagnostics[0].message

    def test_negative_resolving_facade(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from pkg.impl import present\n\n__all__ = ['present']\n",
            encoding="utf-8",
        )
        (pkg / "impl.py").write_text(
            "present = 1\nhidden = 2\n", encoding="utf-8"
        )
        report = run_lint([tmp_path], rule_ids=["API001"], root=tmp_path)
        assert report.diagnostics == []

    def test_relative_imports_resolve(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from .impl import present, absent\n", encoding="utf-8"
        )
        (pkg / "impl.py").write_text("present = 1\n", encoding="utf-8")
        report = run_lint([tmp_path], rule_ids=["API001"], root=tmp_path)
        assert len(report.diagnostics) == 1
        assert "absent" in report.diagnostics[0].message

    def test_external_imports_skipped(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from os.path import join\nfrom numpy import ndarray\n",
            encoding="utf-8",
        )
        report = run_lint([tmp_path], rule_ids=["API001"], root=tmp_path)
        assert report.diagnostics == []


class TestCLI001:
    def test_positive_sys_exit_in_handler(self, tmp_path):
        source = """\
            import sys

            from repro.errors import ReproError

            def _cmd_boom(args):
                sys.exit(3)

            def main(argv=None):
                try:
                    return _cmd_boom(None)
                except ReproError:
                    return 2
        """
        diags = lint_source(tmp_path, source, "CLI001", rel="cli.py")
        assert len(diags) == 1
        assert "sys.exit" in diags[0].message

    def test_positive_swallowed_exception(self, tmp_path):
        source = """\
            from repro.errors import ReproError

            def _cmd_eat(args):
                try:
                    return 0
                except Exception:
                    return 1

            def main(argv=None):
                try:
                    return _cmd_eat(None)
                except ReproError:
                    return 2
        """
        diags = lint_source(tmp_path, source, "CLI001", rel="cli.py")
        assert len(diags) == 1
        assert "swallows" in diags[0].message

    def test_positive_main_without_reproerror(self, tmp_path):
        source = """\
            def _cmd_ok(args):
                return 0

            def main(argv=None):
                return _cmd_ok(None)
        """
        diags = lint_source(tmp_path, source, "CLI001", rel="cli.py")
        assert len(diags) == 1
        assert "ReproError" in diags[0].message

    def test_negative_disciplined_module(self, tmp_path):
        source = """\
            from repro.errors import ReproError

            def _cmd_ok(args):
                try:
                    return 0
                except ValueError:
                    raise ReproError("bad value") from None

            def main(argv=None):
                try:
                    return _cmd_ok(None)
                except ReproError:
                    return 2
        """
        assert lint_source(tmp_path, source, "CLI001", rel="cli.py") == []

    def test_non_cli_modules_exempt(self, tmp_path):
        source = """\
            import sys

            def _cmd_like(args):
                sys.exit(1)
        """
        assert lint_source(tmp_path, source, "CLI001", rel="worker.py") == []


class TestLOG001:
    def test_positive_bare_print_in_library_code(self, tmp_path):
        source = """\
            def report_progress(i, total):
                print(f"{i}/{total} done")
        """
        diags = lint_source(tmp_path, source, "LOG001", rel="sweep/runner.py")
        assert len(diags) == 1
        assert "get_logger" in diags[0].message

    def test_cli_and_report_renderers_exempt(self, tmp_path):
        source = """\
            def _cmd_show(args):
                print("table goes here")
                return 0
        """
        assert lint_source(tmp_path, source, "LOG001", rel="cli.py") == []
        assert lint_source(tmp_path, source, "LOG001", rel="obs/report.py") == []

    def test_tests_benches_and_tools_exempt(self, tmp_path):
        source = """\
            def check():
                print("debugging aid")
        """
        assert lint_source(tmp_path, source, "LOG001", rel="tests/test_x.py") == []
        assert lint_source(tmp_path, source, "LOG001", rel="benchmarks/speed.py") == []
        assert lint_source(tmp_path, source, "LOG001", rel="tools/gen.py") == []

    def test_suppression_comment_honoured(self, tmp_path):
        source = """\
            def banner():
                print("ascii art")  # repro: ignore[LOG001]
        """
        assert lint_source(tmp_path, source, "LOG001", rel="sweep/x.py") == []

    def test_shadowed_or_method_print_not_flagged(self, tmp_path):
        source = """\
            def render(doc):
                doc.print()
                return doc
        """
        assert lint_source(tmp_path, source, "LOG001", rel="sweep/x.py") == []


def write_violation_tree(root: Path) -> int:
    """A fixture tree with >= 1 violation of each shipped rule."""
    (root / "sweep").mkdir(parents=True)
    (root / "pkg").mkdir()
    (root / "wallclock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    (root / "sweep" / "rng.py").write_text(
        "import numpy as np\n\n\ndef jitter():\n    return np.random.rand()\n",
        encoding="utf-8",
    )
    (root / "sweep" / "cache_store.py").write_text(
        'def save(path, text):\n    with open(path, "w") as handle:\n'
        "        handle.write(text)\n",
        encoding="utf-8",
    )
    (root / "units_mix.py").write_text(
        "def wait(delay_ns):\n    return delay_ns\n\n\n"
        "def run(budget_cycles):\n    wait(budget_cycles)\n",
        encoding="utf-8",
    )
    (root / "config_defaults.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Link:\n"
        "    freq_hz: float = 1.25\n",
        encoding="utf-8",
    )
    (root / "emit.py").write_text(
        "def emit(trace):\n    trace.record(EV_BOGUS, 0, 0, 0, 0.0, 1.0)\n",
        encoding="utf-8",
    )
    (root / "pkg" / "__init__.py").write_text(
        "from pkg.impl import missing\n", encoding="utf-8"
    )
    (root / "pkg" / "impl.py").write_text("present = 1\n", encoding="utf-8")
    (root / "cli.py").write_text(
        "import sys\n\n\ndef _cmd_boom(args):\n    sys.exit(3)\n",
        encoding="utf-8",
    )
    (root / "sweep" / "progress.py").write_text(
        'def report(i, total):\n    print(f"{i}/{total}")\n',
        encoding="utf-8",
    )
    (root / "conc_lock.py").write_text(
        "import threading\n\n\nclass Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n\n"
        "    def reset(self):\n"
        "        self.count = 0\n",
        encoding="utf-8",
    )
    (root / "conc_async.py").write_text(
        "import time\n\n\nasync def handler():\n    time.sleep(1.0)\n",
        encoding="utf-8",
    )
    (root / "conc_fork.py").write_text(
        "import multiprocessing\nimport threading\n\n\ndef go():\n"
        "    threading.Thread(target=print).start()\n"
        "    multiprocessing.Process(target=print).start()\n",
        encoding="utf-8",
    )
    (root / "wire_drift.py").write_text(
        'THING_SCHEMA = "repro-thing/v1"\n'
        'THING_KEYS = frozenset({"schema", "a", "b"})\n\n\n'
        "def make():\n"
        '    return {"schema": THING_SCHEMA, "a": 1, "c": 2}\n',
        encoding="utf-8",
    )
    return 13


class TestLintCLI:
    def test_fixture_tree_exits_2_with_anchors(self, tmp_path, capsys):
        write_violation_tree(tmp_path)
        assert main(["lint", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        for rule_id in (
            "DET001",
            "DET002",
            "DET003",
            "UNIT001",
            "CFG001",
            "OBS001",
            "API001",
            "CLI001",
            "LOG001",
            "CONC001",
            "CONC002",
            "CONC003",
            "SCHEMA001",
        ):
            assert rule_id in out, f"{rule_id} missing from:\n{out}"
        # file:line:col anchors
        assert "wallclock.py:5:" in out

    def test_json_format(self, tmp_path, capsys):
        write_violation_tree(tmp_path)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-lint/v1"
        rules_hit = {d["rule"] for d in doc["diagnostics"]}
        assert len(rules_hit) >= 13

    def test_rule_filter(self, tmp_path, capsys):
        write_violation_tree(tmp_path)
        assert main(["lint", str(tmp_path), "--rules", "DET001"]) == 2
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" not in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            "def advance(now_ns, step_ns):\n    return now_ns + step_ns\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_exits_2_via_reproerror(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "--rules", "NOPE999", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "API001" in out
        # Grouped by family, with per-file vs project-wide scope shown.
        assert "DET — Determinism" in out
        assert "CONC — Concurrency contracts" in out
        assert "SCHEMA — Wire-schema contracts" in out
        assert "[per-file]" in out and "[project-wide]" in out

    def test_skip_flow_suppresses_project_rules(self, tmp_path, capsys):
        write_violation_tree(tmp_path)
        assert main(["lint", "--skip-flow", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "DET001" in out
        for rule_id in ("CONC001", "CONC002", "CONC003", "SCHEMA001"):
            # Findings carry "RULE-ID message"; the summary line lists the
            # battery, so assert on anchored findings only.
            assert f" {rule_id} " not in out

    def test_sarif_format(self, tmp_path, capsys):
        write_violation_tree(tmp_path)
        assert main(["lint", "--format", "sarif", str(tmp_path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"CONC001", "SCHEMA001", "DET001"} <= rule_ids
        results = run["results"]
        assert results and all(r["level"] == "error" for r in results)
        hit = {r["ruleId"] for r in results}
        assert {"CONC001", "CONC002", "CONC003", "SCHEMA001"} <= hit
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1


class TestSelfLint:
    def test_repo_tree_is_clean(self, capsys, monkeypatch):
        """`python -m repro lint` exits 0 over the repo's own sources."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0

    def test_default_paths_cover_sources_and_tools(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        paths = {p.as_posix() for p in default_lint_paths(REPO_ROOT)}
        assert any(path.endswith("src/repro") for path in paths)
        assert any(path.endswith("tools") for path in paths)
