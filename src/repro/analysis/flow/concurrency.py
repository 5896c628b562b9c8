"""Concurrency contracts: CONC001 (locks), CONC002 (async), CONC003 (fork).

These are the project-scoped complements of the runtime discipline the
serve and obs layers rely on: the HTTP/monitor threads share mutable
state behind per-instance locks, a coroutine must never run a blocking
primitive on its event loop's thread, and any process started from
code where thread pools are already alive must not fork it.  All three
rules walk the :class:`~repro.analysis.flow.model.ProjectModel` built
by :func:`repro.analysis.core.run_lint`'s project pass.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.core import Diagnostic, ProjectRule, register
from repro.analysis.flow.model import (
    _CONSTRUCTION_METHODS,
    AttrWrite,
    ClassInfo,
    ModuleInfo,
    ProjectModel,
)


def _iter_real_modules(model: ProjectModel) -> Iterator[ModuleInfo]:
    """Project modules in sorted-name order, tests and benches excluded."""
    for name in sorted(model.modules):
        info = model.modules[name]
        if not info.is_test:
            yield info


@register
class LockDisciplineRule(ProjectRule):
    """CONC001: one lock regime per attribute of a lock-owning class."""

    id = "CONC001"
    title = (
        "attributes of a lock-owning class must be written under its lock "
        "everywhere or nowhere"
    )
    rationale = (
        "AdmissionController, CircuitBreaker, LiveStatus (and its "
        "SweepStatus) and the log sinks are mutated from HTTP/monitor "
        "threads; an attribute "
        "written both under 'with self._lock:' and outside it is a race "
        "the lock only pretends to close.  Constructor writes are exempt "
        "(the instance has not escaped yet), and private methods only "
        "ever called with the lock held count as locked."
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        for info in _iter_real_modules(model):
            for class_name in sorted(info.classes):
                yield from self._check_class(info, info.classes[class_name])

    def _check_class(
        self, info: ModuleInfo, cls: ClassInfo
    ) -> Iterator[Diagnostic]:
        if not cls.lock_attrs:
            return
        locked_methods = cls.locked_methods()
        by_attr: dict[str, list[AttrWrite]] = {}
        for write in cls.writes:
            if write.method not in _CONSTRUCTION_METHODS:
                by_attr.setdefault(write.attr, []).append(write)
        lock_display = "/".join(sorted(cls.lock_attrs))
        for attr in sorted(by_attr):
            writes = by_attr[attr]

            def guarded(write: AttrWrite) -> bool:
                return write.locked or write.method in locked_methods

            locked_lines = sorted(
                {
                    getattr(w.node, "lineno", 0)
                    for w in writes
                    if guarded(w)
                }
            )
            if not locked_lines:
                continue  # never guarded: a different (consistent) regime
            for write in writes:
                if guarded(write):
                    continue
                yield info.ctx.diagnostic(
                    self.id,
                    write.node,
                    f"attribute 'self.{attr}' of {cls.name} is written "
                    f"here outside 'with self.{lock_display}:' but under "
                    f"it at line(s) "
                    f"{', '.join(str(n) for n in locked_lines)} "
                    f"(method '{write.method}')",
                )


@register
class AsyncBlockingRule(ProjectRule):
    """CONC002: no blocking primitives inside ``async def`` coroutines."""

    id = "CONC002"
    title = "async coroutines must not call blocking primitives"
    rationale = (
        "an event loop runs its coroutines on one thread; a "
        "time.sleep, subprocess wait, un-timed Lock.acquire or direct "
        "file read inside a coroutine stalls every coroutine on that "
        "loop at once.  Blocking work belongs in loop.run_in_executor "
        "-- the rule follows sync helper calls transitively, so hiding "
        "the sleep one call deep does not help."
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        closure = model.blocking_closure()
        for info in _iter_real_modules(model):
            for qualname in sorted(info.functions):
                function = info.functions[qualname]
                if not function.is_async:
                    continue
                for blocked in function.blocking:
                    yield info.ctx.diagnostic(
                        self.id,
                        blocked.node,
                        f"blocking call {blocked.what} inside "
                        f"'async def {qualname}'; run it in an executor",
                    )
                for callee, node in model.call_edges(function):
                    if callee.is_async:
                        continue
                    inner = closure.get((callee.module, callee.qualname))
                    if inner is None:
                        continue
                    yield info.ctx.diagnostic(
                        self.id,
                        node,
                        f"'async def {qualname}' calls sync helper "
                        f"{callee.module}.{callee.qualname}() which blocks "
                        f"({inner}); run it in an executor",
                    )


@register
class ThreadBeforeForkRule(ProjectRule):
    """CONC003: pin the start method where forks meet live threads."""

    id = "CONC003"
    title = (
        "process pools created where threads are alive must pin the "
        "multiprocessing start method"
    )
    rationale = (
        "fork() in a threaded process clones the owning thread only; "
        "locks held by the other threads stay locked forever in the "
        "child.  The sweep runner and serve layer both start thread "
        "pools, so any ProcessPoolExecutor/multiprocessing child they "
        "can reach must pin a literal 'spawn' or 'forkserver' start "
        "method via mp_context / get_context; get_context('fork') does "
        "not count."
    )

    def check_project(self, model: ProjectModel) -> Iterator[Diagnostic]:
        reachable = model.reachable_from_threaded_modules()
        for info in _iter_real_modules(model):
            for site in info.process_sites:
                if site.pinned:
                    continue
                if info.creates_threads:
                    origin = "a module that also starts threads"
                elif (
                    site.function is not None
                    and (info.name, site.function) in reachable
                ):
                    origin = "code reachable from thread-starting modules"
                else:
                    continue
                yield info.ctx.diagnostic(
                    self.id,
                    site.node,
                    f"{site.factory} created in {origin} without a pinned "
                    f"start method; pass an explicit mp_context/"
                    f"get_context('spawn' or 'forkserver')",
                )
