"""Project-wide, flow-aware analysis layer.

The per-file rules of :mod:`repro.analysis.rules` see one module at a
time; the contracts PRs 6-8 introduced span modules: a lock declared in
``repro.serve.admission`` guards writes its HTTP threads perform, the
``repro.sweep.resilience`` worker pool is driven from thread pools that
live in *other* modules, and the ``repro-*/v1`` wire envelopes are
produced and validated in different packages.  This package builds one
cross-module :class:`~repro.analysis.flow.model.ProjectModel` -- parsed
modules, an alias-resolved constant table, a class-attribute/lock model
and a lightweight call graph -- and hosts the project-scoped rule
families that walk it:

========== ==========================================================
CONC001    lock discipline: attributes of a lock-owning class written
           both under and outside its ``with self._lock:`` regions
CONC002    no blocking calls (``time.sleep``, ``subprocess.*``,
           un-timed ``Lock.acquire``, direct file I/O) inside
           ``async def`` coroutines, directly or via sync helpers
CONC003    thread-before-fork: process pools / ``multiprocessing``
           children created where threads are (transitively) alive
           must pin an explicit start method
SCHEMA001  wire-schema drift: dict literals tagged with a declared
           ``repro-*/vN`` schema must carry exactly its declared keys
========== ==========================================================

Project rules subclass :class:`repro.analysis.core.ProjectRule` and run
from :func:`repro.analysis.core.run_lint` after the per-file pass, over
a model built from every linted module; ``# repro: ignore[RULE-ID]``
suppression and report rendering are shared with the per-file battery.
"""

from repro.analysis.flow.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    SchemaDict,
    build_project_model,
    module_name_for,
)

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "SchemaDict",
    "build_project_model",
    "module_name_for",
]
