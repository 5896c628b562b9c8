"""Project-wide flow rules: CONC001-003, SCHEMA001, mutation + determinism.

The per-file battery is covered in ``tests/test_analysis.py``; this
module exercises the cross-module layer: the :class:`ProjectModel`
itself, each flow rule's positive/negative/suppressed fixtures (written
as multi-file trees, since the whole point is reasoning across
modules), a seeded mutation check that deletes a *real* lock guard from
``repro.serve.admission`` and proves CONC001 catches it, and a
Hypothesis property pinning analyzer determinism under shuffled file
discovery order.
"""

import ast
import random
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Diagnostic, iter_python_files, run_lint
from repro.analysis.flow import ProjectModel, build_project_model, module_name_for
from repro.analysis.core import load_context

REPO_ROOT = Path(__file__).resolve().parent.parent
ADMISSION_PY = REPO_ROOT / "src" / "repro" / "serve" / "admission.py"

#: The project rules the shipped-tree cases check.
SHIPPED_RULES = ("CONC002", "CONC003", "SCHEMA001")


@pytest.fixture(scope="module")
def real_tree_model() -> ProjectModel:
    """The project model of ``src/repro``, built once for this module."""
    contexts = [
        ctx
        for path in iter_python_files([REPO_ROOT / "src" / "repro"])
        if (ctx := load_context(path, REPO_ROOT)) is not None
    ]
    return build_project_model(contexts)


@pytest.fixture(scope="module")
def real_tree_lint() -> dict[str, list[Diagnostic]]:
    """Each of :data:`SHIPPED_RULES`' diagnostics over ``src/repro``, from one lint."""
    report = run_lint(
        [REPO_ROOT / "src" / "repro"],
        rule_ids=list(SHIPPED_RULES),
        root=REPO_ROOT,
    )
    return {
        rule_id: [d for d in report.diagnostics if d.rule_id == rule_id]
        for rule_id in SHIPPED_RULES
    }


def lint_tree(
    tmp_path: Path, files: dict[str, str], rule_id: str
) -> list[Diagnostic]:
    """Write a multi-file tree and run one project rule over it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_lint([tmp_path], rule_ids=[rule_id], root=tmp_path)
    return report.diagnostics


# ------------------------------------------------------------- project model
class TestProjectModel:
    def test_module_names(self):
        assert module_name_for("src/repro/serve/service.py") == (
            "repro.serve.service"
        )
        assert module_name_for("src/repro/analysis/__init__.py") == (
            "repro.analysis"
        )
        assert module_name_for("tools/lint_changed.py") == (
            "tools.lint_changed"
        )

    def test_model_over_real_tree(self, real_tree_model):
        model = real_tree_model
        admission = model.modules["repro.serve.admission"]
        controller = admission.classes["AdmissionController"]
        assert "_lock" in controller.lock_attrs
        assert any(w.attr == "submitted" and w.locked for w in controller.writes)
        runner = model.modules["repro.sweep.runner"]
        assert runner.creates_threads
        assert runner.process_sites
        resilience = model.modules["repro.sweep.resilience"]
        assert resilience.process_sites
        assert all(site.pinned for site in resilience.process_sites)

    def test_breaker_trip_is_recognized_as_lock_protected(self):
        ctx = load_context(
            REPO_ROOT / "src" / "repro" / "serve" / "breaker.py", REPO_ROOT
        )
        assert ctx is not None
        model = ProjectModel.build([ctx])
        breaker = model.modules["repro.serve.breaker"].classes["CircuitBreaker"]
        assert "_trip" in breaker.locked_methods()

    def test_build_is_order_independent(self, tmp_path):
        files = {
            "a.py": "import threading\nt = threading.Thread(target=print)\n",
            "b.py": "X_SCHEMA = 'repro-x/v1'\nX_KEYS = frozenset({'schema'})\n",
        }
        for rel, source in files.items():
            (tmp_path / rel).write_text(source, encoding="utf-8")
        contexts = [
            load_context(path, tmp_path)
            for path in iter_python_files([tmp_path])
        ]
        forward = build_project_model(contexts)
        backward = build_project_model(list(reversed(contexts)))
        assert list(forward.modules) == list(backward.modules)
        assert forward.declared_schema_keys().keys() == (
            backward.declared_schema_keys().keys()
        )


# ------------------------------------------------------------------- CONC001
class TestCONC001:
    MIXED = """\
        import threading


        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0
    """

    def test_positive_mixed_regime(self, tmp_path):
        diags = lint_tree(tmp_path, {"counter.py": self.MIXED}, "CONC001")
        assert len(diags) == 1
        (diag,) = diags
        assert diag.rule_id == "CONC001"
        assert "self.count" in diag.message
        assert "reset" in diag.message

    def test_positive_lock_inherited_from_base_class(self, tmp_path):
        source = """\
            import threading


            class Base:
                def __init__(self):
                    self.lock = threading.Lock()


            class Progress(Base):
                def bump(self):
                    with self.lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
        """
        diags = lint_tree(tmp_path, {"progress.py": source}, "CONC001")
        assert [d.rule_id for d in diags] == ["CONC001"]
        assert "Progress" in diags[0].message
        assert "reset" in diags[0].message

    def test_negative_all_writes_locked(self, tmp_path):
        source = """\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    with self._lock:
                        self.count = 0
        """
        assert lint_tree(tmp_path, {"counter.py": source}, "CONC001") == []

    def test_negative_attribute_never_locked(self, tmp_path):
        source = """\
            import threading


            class Tagged:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.label = ""

                def rename(self, label):
                    self.label = label

                def relabel(self, label):
                    self.label = label.strip()
        """
        assert lint_tree(tmp_path, {"tagged.py": source}, "CONC001") == []

    def test_constructor_writes_exempt(self, tmp_path):
        source = """\
            import threading


            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
        """
        assert lint_tree(tmp_path, {"counter.py": source}, "CONC001") == []

    def test_private_method_called_under_lock_counts_as_locked(self, tmp_path):
        source = """\
            import threading


            class Breaker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = "closed"
                    self._failures = 0

                def record_failure(self):
                    with self._lock:
                        self._failures += 1
                        if self._failures >= 3:
                            self._trip()

                def _trip(self):
                    self._state = "open"
                    self._failures = 0
        """
        assert lint_tree(tmp_path, {"breaker.py": source}, "CONC001") == []

    def test_container_element_store_counts_as_write(self, tmp_path):
        source = """\
            import threading


            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}

                def add(self, key, value):
                    with self._lock:
                        self.entries[key] = value

                def sneak(self, key, value):
                    self.entries[key] = value
        """
        diags = lint_tree(tmp_path, {"registry.py": source}, "CONC001")
        assert len(diags) == 1
        assert "sneak" in diags[0].message

    def test_suppressed(self, tmp_path):
        source = self.MIXED.replace(
            "self.count = 0\n",
            "self.count = 0  # repro: ignore[CONC001]\n",
        )
        assert lint_tree(tmp_path, {"counter.py": source}, "CONC001") == []

    def test_test_files_exempt(self, tmp_path):
        diags = lint_tree(
            tmp_path, {"tests/test_counter.py": self.MIXED}, "CONC001"
        )
        assert diags == []


# ------------------------------------------------------------------- CONC002
class TestCONC002:
    def test_positive_direct_sleep(self, tmp_path):
        source = """\
            import time


            async def handler():
                time.sleep(0.5)
        """
        diags = lint_tree(tmp_path, {"svc.py": source}, "CONC002")
        assert len(diags) == 1
        assert "time.sleep" in diags[0].message

    def test_positive_transitive_cross_module(self, tmp_path):
        files = {
            "helpers.py": """\
                import time


                def settle():
                    time.sleep(1.0)
            """,
            "svc.py": """\
                from helpers import settle


                async def handler():
                    settle()
            """,
        }
        diags = lint_tree(tmp_path, files, "CONC002")
        assert len(diags) == 1
        (diag,) = diags
        assert diag.path == "svc.py"
        assert "helpers.settle" in diag.message
        assert "time.sleep" in diag.message

    def test_positive_subprocess_and_untimed_acquire(self, tmp_path):
        source = """\
            import subprocess
            import threading

            _lock = threading.Lock()


            async def handler():
                subprocess.run(["true"])
                _lock.acquire()
        """
        diags = lint_tree(tmp_path, {"svc.py": source}, "CONC002")
        assert len(diags) == 2

    def test_positive_direct_file_io(self, tmp_path):
        source = """\
            async def handler(path):
                return path.read_text()
        """
        diags = lint_tree(tmp_path, {"svc.py": source}, "CONC002")
        assert len(diags) == 1
        assert "file I/O" in diags[0].message

    def test_negative_executor_and_timed_acquire(self, tmp_path):
        source = """\
            import asyncio
            import threading

            _lock = threading.Lock()


            def blocking_work():
                return 42


            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, blocking_work)
                _lock.acquire(timeout=1.0)
        """
        assert lint_tree(tmp_path, {"svc.py": source}, "CONC002") == []

    def test_negative_awaited_async_acquire(self, tmp_path):
        source = """\
            import asyncio

            _lock = asyncio.Lock()


            async def handler():
                await _lock.acquire()
        """
        assert lint_tree(tmp_path, {"svc.py": source}, "CONC002") == []

    def test_suppressed(self, tmp_path):
        source = """\
            import time


            async def handler():
                time.sleep(0.5)  # repro: ignore[CONC002]
        """
        assert lint_tree(tmp_path, {"svc.py": source}, "CONC002") == []

    def test_shipped_serve_service_is_clean(self, real_tree_lint):
        assert real_tree_lint["CONC002"] == []


# ------------------------------------------------------------------- CONC003
class TestCONC003:
    def test_positive_same_module(self, tmp_path):
        source = """\
            import multiprocessing
            import threading


            def go():
                threading.Thread(target=print).start()
                multiprocessing.Process(target=print).start()
        """
        diags = lint_tree(tmp_path, {"forky.py": source}, "CONC003")
        assert len(diags) == 1
        assert "multiprocessing.Process" in diags[0].message

    def test_positive_cross_module_reachability(self, tmp_path):
        files = {
            "driver.py": """\
                from concurrent.futures import ThreadPoolExecutor

                from worker import attempt


                def run(tasks):
                    with ThreadPoolExecutor() as pool:
                        return list(pool.map(attempt, tasks))
            """,
            "worker.py": """\
                import multiprocessing


                def attempt(task):
                    proc = multiprocessing.Process(target=print, args=(task,))
                    proc.start()
                    proc.join()
            """,
        }
        diags = lint_tree(tmp_path, files, "CONC003")
        assert len(diags) == 1
        assert diags[0].path == "worker.py"
        assert "reachable from thread-starting" in diags[0].message

    def test_positive_fork_context_alias(self, tmp_path):
        source = """\
            import multiprocessing
            import threading

            _ctx = multiprocessing.get_context("fork")


            def go():
                threading.Thread(target=print).start()
                _ctx.Process(target=print).start()
        """
        diags = lint_tree(tmp_path, {"forky.py": source}, "CONC003")
        assert len(diags) == 1
        assert "multiprocessing.Process" in diags[0].message

    def test_positive_fork_mp_context_kwarg(self, tmp_path):
        source = """\
            import multiprocessing
            import threading
            from concurrent.futures import ProcessPoolExecutor


            def go():
                threading.Thread(target=print).start()
                with ProcessPoolExecutor(
                    mp_context=multiprocessing.get_context("fork")
                ) as pool:
                    pool.submit(print)
        """
        diags = lint_tree(tmp_path, {"forky.py": source}, "CONC003")
        assert len(diags) == 1
        assert "ProcessPoolExecutor" in diags[0].message

    def test_negative_mp_context_kwarg(self, tmp_path):
        source = """\
            import multiprocessing
            import threading
            from concurrent.futures import ProcessPoolExecutor


            def go():
                threading.Thread(target=print).start()
                with ProcessPoolExecutor(
                    mp_context=multiprocessing.get_context("spawn")
                ) as pool:
                    pool.submit(print)
        """
        assert lint_tree(tmp_path, {"forky.py": source}, "CONC003") == []

    def test_negative_get_context_alias(self, tmp_path):
        source = """\
            import multiprocessing
            import threading

            _ctx = multiprocessing.get_context("spawn")


            def go():
                threading.Thread(target=print).start()
                _ctx.Process(target=print).start()
        """
        assert lint_tree(tmp_path, {"forky.py": source}, "CONC003") == []

    def test_negative_no_threads_anywhere(self, tmp_path):
        source = """\
            import multiprocessing


            def go():
                multiprocessing.Process(target=print).start()
        """
        assert lint_tree(tmp_path, {"forky.py": source}, "CONC003") == []

    def test_suppressed(self, tmp_path):
        source = """\
            import multiprocessing
            import threading


            def go():
                threading.Thread(target=print).start()
                # justified: child execs immediately  # repro: ignore[CONC003]
                multiprocessing.Process(target=print).start()
        """
        assert lint_tree(tmp_path, {"forky.py": source}, "CONC003") == []

    def test_shipped_tree_carries_one_justified_suppression(self, real_tree_lint):
        suppressed = {}
        for path in iter_python_files([REPO_ROOT / "src" / "repro"]):
            count = path.read_text(encoding="utf-8").count("repro: ignore[CONC003]")
            if count:
                suppressed[path.relative_to(REPO_ROOT).as_posix()] = count
        assert suppressed == {"src/repro/sweep/runner.py": 1}
        assert real_tree_lint["CONC003"] == []


# ----------------------------------------------------------------- SCHEMA001
class TestSCHEMA001:
    def test_positive_drift_same_module(self, tmp_path):
        source = """\
            THING_SCHEMA = "repro-thing/v1"
            THING_KEYS = frozenset({"schema", "a", "b"})


            def make():
                return {"schema": THING_SCHEMA, "a": 1, "c": 2}
        """
        diags = lint_tree(tmp_path, {"wire.py": source}, "SCHEMA001")
        assert len(diags) == 1
        (diag,) = diags
        assert "repro-thing/v1" in diag.message
        assert "b" in diag.message and "c" in diag.message

    def test_positive_cross_module_producer(self, tmp_path):
        files = {
            "wire.py": """\
                THING_SCHEMA = "repro-thing/v1"
                THING_KEYS = frozenset({"schema", "a"})
            """,
            "producer.py": """\
                from wire import THING_SCHEMA


                def make():
                    return {"schema": THING_SCHEMA, "a": 1, "extra": 2}
            """,
        }
        diags = lint_tree(tmp_path, files, "SCHEMA001")
        assert len(diags) == 1
        assert diags[0].path == "producer.py"
        assert "extra" in diags[0].message

    def test_negative_matching_producer(self, tmp_path):
        source = """\
            THING_SCHEMA = "repro-thing/v1"
            THING_KEYS = frozenset({"schema", "a", "b"})


            def make():
                return {"schema": THING_SCHEMA, "a": 1, "b": 2}
        """
        assert lint_tree(tmp_path, {"wire.py": source}, "SCHEMA001") == []

    def test_negative_undeclared_tag_skipped(self, tmp_path):
        source = """\
            def make():
                return {"schema": "repro-mystery/v1", "whatever": 1}
        """
        assert lint_tree(tmp_path, {"wire.py": source}, "SCHEMA001") == []

    def test_negative_dynamic_keys_skipped(self, tmp_path):
        source = """\
            THING_SCHEMA = "repro-thing/v1"
            THING_KEYS = frozenset({"schema", "a"})


            def make(extra):
                return {"schema": THING_SCHEMA, **extra}
        """
        assert lint_tree(tmp_path, {"wire.py": source}, "SCHEMA001") == []

    def test_suppressed(self, tmp_path):
        source = """\
            THING_SCHEMA = "repro-thing/v1"
            THING_KEYS = frozenset({"schema", "a"})


            def make():
                # repro: ignore[SCHEMA001]
                return {"schema": THING_SCHEMA, "a": 1, "b": 2}
        """
        assert lint_tree(tmp_path, {"wire.py": source}, "SCHEMA001") == []

    def test_shipped_declarations_cover_the_four_envelopes(self, real_tree_model):
        declared = real_tree_model.declared_schema_keys()
        assert {
            "repro-serve-response/v1",
            "repro-status/v3",
            "repro-log/v1",
            "repro-lint/v1",
        } <= set(declared)

    def test_shipped_producers_match_declarations(self, real_tree_lint):
        assert real_tree_lint["SCHEMA001"] == []


# ----------------------------------------------------------- mutation check
class TestMutationCheck:
    """CONC001 must notice when a real admission guard disappears."""

    @staticmethod
    def _guard_lines(source: str) -> list[int]:
        """1-based line numbers of write-bearing ``with self._lock:``.

        Restricted to the transition methods (try_admit / complete /
        cancel) whose guarded attributes are also written by the other
        transitions -- removing any one of these guards leaves a mixed
        regime CONC001 must flag.  (Removing begin_drain's guard makes
        ``draining`` consistently *unguarded*, which is the rule's
        documented blind spot, so it is excluded on purpose.)
        """
        tree = ast.parse(source)
        lines: list[int] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name not in ("try_admit", "complete", "cancel"):
                    continue
                for inner in ast.walk(method):
                    if isinstance(inner, ast.With) and any(
                        "self._lock" in ast.unparse(item.context_expr)
                        for item in inner.items
                    ):
                        lines.append(inner.lineno)
        return sorted(lines)

    def test_seeded_guard_removal_is_flagged(self, tmp_path):
        source = ADMISSION_PY.read_text(encoding="utf-8")
        guards = self._guard_lines(source)
        assert len(guards) >= 3, "admission.py lost its transition guards?"
        rng = random.Random(0xC0FFEE)
        target = rng.choice(guards)
        lines = source.splitlines(keepends=True)
        original = lines[target - 1]
        assert "with self._lock:" in original
        # Same indentation, still parses, guard gone.
        lines[target - 1] = original.replace("with self._lock:", "if True:")
        mutated = "".join(lines)
        serve = tmp_path / "serve"
        serve.mkdir()
        (serve / "admission.py").write_text(mutated, encoding="utf-8")
        report = run_lint([tmp_path], rule_ids=["CONC001"], root=tmp_path)
        assert report.diagnostics, (
            f"CONC001 missed the unguarded write after removing the "
            f"'with self._lock:' at admission.py:{target}"
        )
        assert all(d.rule_id == "CONC001" for d in report.diagnostics)

    def test_every_transition_guard_removal_is_flagged(self, tmp_path):
        source = ADMISSION_PY.read_text(encoding="utf-8")
        for target in self._guard_lines(source):
            lines = source.splitlines(keepends=True)
            lines[target - 1] = lines[target - 1].replace(
                "with self._lock:", "if True:"
            )
            tree = tmp_path / f"mutant_{target}"
            (tree / "serve").mkdir(parents=True)
            (tree / "serve" / "admission.py").write_text(
                "".join(lines), encoding="utf-8"
            )
            report = run_lint([tree], rule_ids=["CONC001"], root=tree)
            assert report.diagnostics, f"guard at line {target} not flagged"

    def test_pristine_admission_is_clean(self, tmp_path):
        serve = tmp_path / "serve"
        serve.mkdir()
        (serve / "admission.py").write_text(
            ADMISSION_PY.read_text(encoding="utf-8"), encoding="utf-8"
        )
        report = run_lint([tmp_path], rule_ids=["CONC001"], root=tmp_path)
        assert report.diagnostics == []


# ------------------------------------------------------ determinism property
@pytest.mark.property
class TestAnalyzerDeterminism:
    """Diagnostics are byte-identical under shuffled discovery order."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shuffled_file_order_is_byte_identical(self, tmp_path, seed):
        from tests.test_analysis import write_violation_tree

        root = tmp_path / f"tree_{seed}"
        root.mkdir()
        write_violation_tree(root)
        files = list(iter_python_files([root]))
        shuffled = files[:]
        random.Random(seed).shuffle(shuffled)
        baseline = run_lint(files, root=root).render_json()
        shuffled_report = run_lint(shuffled, root=root).render_json()
        assert shuffled_report == baseline
        # The SARIF rendering inherits the same ordering guarantees.
        assert (
            run_lint(shuffled, root=root).render_sarif()
            == run_lint(files, root=root).render_sarif()
        )
