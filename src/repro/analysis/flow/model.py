"""The cross-module model project-scoped rules walk.

One :class:`ProjectModel` is built per lint run from every parsed
module (:class:`~repro.analysis.core.LintContext`).  It is deliberately
*lightweight*: everything is derived syntactically from the ASTs plus
the alias resolution :class:`~repro.analysis.core.ImportMap` already
provides -- no imports are executed, so the model builds in one pass
over the tree and is byte-deterministic regardless of file discovery
order (modules are keyed and iterated by sorted dotted name).

What the model knows:

* **Modules** -- dotted name (``src/repro/serve/app.py`` ->
  ``repro.serve.app``), module-level string constants, declared
  ``*_KEYS`` frozensets, whether the module creates threads, and every
  process-creation site (``ProcessPoolExecutor``, ``multiprocessing``).
* **Classes** -- which attributes hold locks, every ``self.attr``
  write with its enclosing method and whether it happens inside a
  ``with self.<lock>:`` region, and the class-internal ``self.m()``
  call sites (so methods only ever entered with the lock held --
  ``CircuitBreaker._trip`` -- count as locked).
* **Functions** -- a call graph over project modules (alias-resolved
  dotted callees, local calls, same-class ``self.m()`` calls) plus the
  blocking primitives each body contains, for the async-blocking and
  thread-before-fork rules.
* **Schema dicts** -- every dict literal carrying a ``"schema"`` key,
  with its resolved tag and literal key set, for the drift rule.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import ImportMap, LintContext, dotted_name

#: Wire-schema tag shape (``repro-serve-response/v1``).
SCHEMA_TAG_PATTERN = re.compile(r"^repro-[a-z0-9-]+/v\d+$")

#: Canonical ``module.Class`` tails that construct OS threads.
_THREAD_FACTORY_TAILS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "futures.ThreadPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "server.ThreadingHTTPServer",
        "http.server.ThreadingHTTPServer",
    }
)

#: Canonical tails that fork/spawn OS processes.
_PROCESS_FACTORY_TAILS = frozenset(
    {
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "futures.ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Start methods that never fork the calling process itself.
_PINNED_START_METHODS = frozenset({"spawn", "forkserver"})

#: Canonical tails that construct (or are) locks for CONC001 purposes.
_LOCK_FACTORY_TAILS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Methods that run during construction, before the instance escapes to
#: other threads; writes there need no lock.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: Receiver-name fragments that mark an ``.acquire()`` target as a lock.
_LOCKISH_FRAGMENTS = ("lock", "mutex", "sem", "cond")

#: Attribute calls that are direct (blocking) file I/O.
_FILE_IO_ATTRS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "open"}
)


def module_name_for(rel: str) -> str:
    """Dotted module name of a display path (``src/`` stripped)."""
    parts = list(Path(rel).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return rel
    if parts[-1] == "__init__.py":
        parts = parts[:-1] or [Path(rel).parent.name or "__init__"]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(parts)


def _is_test_like(ctx: LintContext) -> bool:
    name = ctx.filename
    return (
        name.startswith(("test_", "bench_", "conftest"))
        or "tests" in ctx.parts
        or "benchmarks" in ctx.parts
    )


# ---------------------------------------------------------------- data classes
@dataclass
class AttrWrite:
    """One ``self.attr`` store site inside a class body."""

    attr: str
    method: str
    node: ast.AST
    locked: bool  # lexically inside a ``with self.<lock>:`` region


@dataclass
class SelfCall:
    """One ``self.method()`` call site inside a class body."""

    method: str
    caller: str
    node: ast.Call
    locked: bool


@dataclass
class ClassInfo:
    """Lock/attribute model of one class definition."""

    name: str
    module: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    methods: set[str] = field(default_factory=set)
    writes: list[AttrWrite] = field(default_factory=list)
    self_calls: list[SelfCall] = field(default_factory=list)

    def locked_methods(self) -> set[str]:
        """Private methods only ever entered with the lock held.

        Fixpoint over the class-internal call sites: ``m`` qualifies
        when it has at least one ``self.m()`` caller and every one of
        them is lexically locked or sits inside an already-qualified
        method.  Dunder and public methods never qualify -- external
        callers can reach them lock-free.
        """
        sites: dict[str, list[SelfCall]] = {}
        for call in self.self_calls:
            sites.setdefault(call.method, []).append(call)
        locked: set[str] = set()
        changed = True
        while changed:
            changed = False
            for method in sorted(self.methods):
                if method in locked or not method.startswith("_"):
                    continue
                if method.startswith("__") and method.endswith("__"):
                    continue
                calls = sites.get(method)
                if not calls:
                    continue
                if all(c.locked or c.caller in locked for c in calls):
                    locked.add(method)
                    changed = True
        return locked


@dataclass
class BlockingCall:
    """One blocking primitive found in a function body."""

    node: ast.AST
    what: str


@dataclass
class FunctionInfo:
    """One function or method, with its calls and blocking primitives.

    ``calls`` holds direct call sites; ``refs`` holds function
    references passed as call arguments (``pool.submit(fn, x)``,
    ``Thread(target=fn)``).  CONC003 reachability follows both --
    a reference handed to an executor does run; CONC002 follows only
    direct calls, since handing blocking work to an executor is exactly
    the sanctioned pattern.
    """

    module: str
    qualname: str  # ``func`` or ``Class.method``
    cls: str | None
    node: ast.AST
    is_async: bool
    calls: list[tuple[str, ast.Call]] = field(default_factory=list)
    refs: list[tuple[str, ast.Call]] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)


@dataclass
class ProcessSite:
    """One process-creation call site."""

    node: ast.Call
    factory: str  # canonical dotted factory name
    function: str | None  # enclosing function qualname (None = module level)
    pinned: bool  # carries an explicit mp context


@dataclass
class SchemaDict:
    """One dict literal carrying a ``"schema"`` key."""

    node: ast.Dict
    tag_expr: ast.expr
    literal_keys: frozenset[str]
    dynamic_keys: bool
    function: str | None


@dataclass
class ModuleInfo:
    """Everything the project rules need to know about one module."""

    name: str
    ctx: LintContext
    imports: ImportMap
    is_test: bool
    constants: dict[str, str] = field(default_factory=dict)
    key_sets: dict[str, frozenset[str]] = field(default_factory=dict)
    key_set_nodes: dict[str, ast.AST] = field(default_factory=dict)
    #: module-level ``get_context(...)`` alias -> whether it pins a
    #: non-fork start method (see :func:`_pinned_context`).
    mp_context_aliases: dict[str, bool] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    creates_threads: bool = False
    process_sites: list[ProcessSite] = field(default_factory=list)
    schema_dicts: list[SchemaDict] = field(default_factory=list)


# ------------------------------------------------------------------- visitors
def _self_attr(node: ast.expr) -> str | None:
    """``attr`` for an ``self.attr`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _write_targets(node: ast.stmt) -> Iterator[ast.expr]:
    """The store-target expressions of an assignment statement."""
    if isinstance(node, ast.Assign):
        targets: Iterable[ast.expr] = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from target.elts
        else:
            yield target


def _written_self_attr(target: ast.expr) -> str | None:
    """The instance attribute a store target mutates, if any.

    Covers plain stores (``self.x = ...``) and container-element stores
    (``self.x[k] = ...``), which mutate the object behind ``self.x``.
    """
    attr = _self_attr(target)
    if attr is not None:
        return attr
    if isinstance(target, ast.Subscript):
        return _self_attr(target.value)
    return None


def _tail(canonical: str, n: int = 2) -> str:
    return ".".join(canonical.split(".")[-n:])


def _call_is_lock_factory(canonical: str | None) -> bool:
    return canonical is not None and (
        canonical in _LOCK_FACTORY_TAILS or _tail(canonical) in _LOCK_FACTORY_TAILS
    )


def _name_is_lockish(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


class _MethodScan(ast.NodeVisitor):
    """Walk one method body tracking ``with self.<lock>:`` nesting.

    Nested function/lambda bodies are skipped: they execute later, when
    the lexical lock region gives no guarantee.
    """

    def __init__(self, info: ClassInfo, method: str) -> None:
        self.info = info
        self.method = method
        self.depth = 0

    # -- lock regions
    def _item_locks(self, items: list[ast.withitem]) -> bool:
        return any(
            (attr := _self_attr(item.context_expr)) is not None
            and attr in self.info.lock_attrs
            for item in items
        )

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = self._item_locks(node.items)
        if locked:
            self.depth += 1
        self.generic_visit(node)
        if locked:
            self.depth -= 1

    # -- stores and self-calls
    def _record_writes(self, node: ast.stmt) -> None:
        for target in _write_targets(node):
            attr = _written_self_attr(target)
            if attr is None or attr in self.info.lock_attrs:
                continue
            self.info.writes.append(
                AttrWrite(
                    attr=attr,
                    method=self.method,
                    node=node,
                    locked=self.depth > 0,
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_writes(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_writes(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_writes(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        attr = _self_attr(node.func)
        if attr is not None:
            self.info.self_calls.append(
                SelfCall(
                    method=attr,
                    caller=self.method,
                    node=node,
                    locked=self.depth > 0,
                )
            )
        self.generic_visit(node)

    # -- do not descend into deferred bodies
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


def _scan_blocking(
    body: ast.AST, imports: ImportMap
) -> tuple[
    list[tuple[str, ast.Call]],
    list[tuple[str, ast.Call]],
    list[BlockingCall],
]:
    """Collect (call, reference, blocking) triples for one function body.

    Calls whose result is immediately awaited are not blocking (the
    callee is an awaitable variant, e.g. ``asyncio.Lock.acquire``).
    Nested function bodies are skipped -- they belong to the nested
    function's own entry.
    """
    calls: list[tuple[str, ast.Call]] = []
    refs: list[tuple[str, ast.Call]] = []
    blocking: list[BlockingCall] = []
    awaited: set[int] = set()
    skip: set[int] = set()

    for node in ast.walk(body):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited.add(id(node.value))
        if (
            node is not body
            and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
        ):
            for inner in ast.walk(node):
                if inner is not node:
                    skip.add(id(inner))

    for node in ast.walk(body):
        if id(node) in skip or not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is not None:
            calls.append((dotted, node))
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            ref = dotted_name(arg)
            if ref is not None:
                refs.append((ref, node))
        if id(node) in awaited:
            continue
        what = _blocking_what(node, dotted, imports)
        if what is not None:
            blocking.append(BlockingCall(node=node, what=what))
    return calls, refs, blocking


def _blocking_what(
    node: ast.Call, dotted: str | None, imports: ImportMap
) -> str | None:
    """Describe why this call blocks the event loop, or None."""
    canonical = imports.resolve(dotted) if dotted else None
    if canonical is not None:
        if canonical == "time.sleep" or _tail(canonical) == "time.sleep":
            return "time.sleep()"
        root = canonical.split(".", 1)[0]
        if root == "subprocess":
            return f"{canonical}() (child-process wait)"
        if canonical == "os.system":
            return "os.system() (child-process wait)"
        if canonical == "open":
            return "open() (direct file I/O)"
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in _FILE_IO_ATTRS:
            return f".{attr}() (direct file I/O)"
        if attr == "acquire":
            receiver = dotted_name(node.func.value)
            leaf = (receiver or "").split(".")[-1]
            if _name_is_lockish(leaf) and not _acquire_is_bounded(node):
                return f"{leaf}.acquire() without a timeout"
    return None


def _acquire_is_bounded(node: ast.Call) -> bool:
    """True when an ``.acquire`` call cannot block indefinitely."""
    for keyword in node.keywords:
        if keyword.arg == "timeout":
            return True
        if keyword.arg == "blocking" and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
        ):
            return True
    if node.args:
        first = node.args[0]
        # Positional ``blocking=False`` (or dynamic) short-circuits.
        if not (isinstance(first, ast.Constant) and first.value is True):
            return True
        return len(node.args) >= 2
    return False


# --------------------------------------------------------------- module build
def _literal_key_set(value: ast.expr) -> frozenset[str] | None:
    """The string members of a frozenset/set/tuple/list literal."""
    elts: list[ast.expr] | None = None
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in ("frozenset", "set") and len(value.args) == 1:
            inner = value.args[0]
            if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
                elts = inner.elts
    elif isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        elts = value.elts
    if elts is None:
        return None
    members: set[str] = set()
    for elt in elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        members.add(elt.value)
    return frozenset(members)


def _build_module(ctx: LintContext) -> ModuleInfo:
    imports = ImportMap(ctx.tree)
    info = ModuleInfo(
        name=module_name_for(ctx.rel),
        ctx=ctx,
        imports=imports,
        is_test=_is_test_like(ctx),
    )

    # Module-level constants, declared key sets and mp-context aliases.
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        if value is None or len(targets) != 1:
            continue
        target = targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            info.constants[target.id] = value.value
        elif target.id.endswith("_KEYS"):
            keys = _literal_key_set(value)
            if keys is not None:
                info.key_sets[target.id] = keys
                info.key_set_nodes[target.id] = stmt
        elif isinstance(value, ast.Call):
            pinned = _pinned_context(imports, value)
            if pinned is not None:
                info.mp_context_aliases[target.id] = pinned

    # Classes: lock attributes first, then lock-region method scans.
    for stmt in ast.walk(ctx.tree):
        if isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _build_class(stmt, info)

    # Functions (module-level and methods) with calls + blocking scan.
    _collect_functions(ctx.tree, info)

    # Thread/process factories and schema dict literals.
    _collect_factories(info)
    return info


def _build_class(node: ast.ClassDef, info: ModuleInfo) -> ClassInfo:
    cls = ClassInfo(name=node.name, module=info.name, node=node)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls.methods.add(method.name)
        for stmt in ast.walk(method):
            for target in _write_targets(stmt) if isinstance(
                stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ) else ():
                attr = _self_attr(target)
                if attr is None:
                    continue
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Call) and _call_is_lock_factory(
                    info.imports.resolve_call(value)
                ):
                    cls.lock_attrs.add(attr)
                elif _name_is_lockish(attr):
                    cls.lock_attrs.add(attr)
            # A lock inherited from a base class shows up only as the
            # context manager of ``with self.<lockish>:``.
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and _name_is_lockish(attr):
                        cls.lock_attrs.add(attr)
    for method in node.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan = _MethodScan(cls, method.name)
            for stmt in method.body:
                scan.visit(stmt)
    return cls


def _collect_functions(tree: ast.Module, info: ModuleInfo) -> None:
    def handle(
        node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> None:
        qualname = f"{cls}.{node.name}" if cls else node.name
        calls, refs, blocking = _scan_blocking(node, info.imports)
        info.functions[qualname] = FunctionInfo(
            module=info.name,
            qualname=qualname,
            cls=cls,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            calls=calls,
            refs=refs,
            blocking=blocking,
        )

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            handle(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    handle(member, stmt.name)


def _enclosing_function(info: ModuleInfo, node: ast.AST) -> str | None:
    """The qualname of the function whose body contains ``node``."""
    for qualname, function in info.functions.items():
        for inner in ast.walk(function.node):
            if inner is node:
                return qualname
    return None


def _collect_factories(info: ModuleInfo) -> None:
    for node in ast.walk(info.ctx.tree):
        if isinstance(node, ast.Dict):
            schema_dict = _schema_dict(info, node)
            if schema_dict is not None:
                info.schema_dicts.append(schema_dict)
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        head, _, attr = dotted.rpartition(".")
        if head in info.mp_context_aliases and attr in ("Process", "Pool"):
            # ``ctx.Process(...)`` on a module-level ``get_context`` alias.
            info.process_sites.append(
                ProcessSite(
                    node=node,
                    factory=f"multiprocessing.{attr}",
                    function=_enclosing_function(info, node),
                    pinned=info.mp_context_aliases[head],
                )
            )
            continue
        canonical = info.imports.resolve(dotted)
        tail = _tail(canonical)
        if canonical in _THREAD_FACTORY_TAILS or tail in _THREAD_FACTORY_TAILS:
            info.creates_threads = True
        elif (
            canonical in _PROCESS_FACTORY_TAILS
            or tail in _PROCESS_FACTORY_TAILS
        ):
            pinned = any(
                keyword.arg == "mp_context"
                and _pinned_context_expr(info, keyword.value)
                for keyword in node.keywords
            )
            info.process_sites.append(
                ProcessSite(
                    node=node,
                    factory=canonical,
                    function=_enclosing_function(info, node),
                    pinned=pinned,
                )
            )


def _pinned_context(imports: ImportMap, call: ast.Call) -> bool | None:
    """Whether a ``multiprocessing.get_context(...)`` call pins a literal
    ``"spawn"`` or ``"forkserver"`` start method; ``None`` for any other
    call.  ``get_context("fork")``, a bare ``get_context()`` and a
    computed method may all fork the caller, so none of them pins."""
    canonical = imports.resolve_call(call)
    if canonical is None or _tail(canonical) != "multiprocessing.get_context":
        return None
    method = call.args[0] if call.args else None
    return (
        isinstance(method, ast.Constant)
        and method.value in _PINNED_START_METHODS
    )


def _pinned_context_expr(info: ModuleInfo, value: ast.expr) -> bool:
    """Whether an ``mp_context=`` value pins a non-fork start method."""
    if isinstance(value, ast.Call):
        return bool(_pinned_context(info.imports, value))
    if isinstance(value, ast.Name):
        return info.mp_context_aliases.get(value.id, False)
    return False


def _schema_dict(info: ModuleInfo, node: ast.Dict) -> SchemaDict | None:
    tag_expr: ast.expr | None = None
    literal_keys: set[str] = set()
    dynamic = False
    for key, value in zip(node.keys, node.values):
        if key is None:  # ``**spread``
            dynamic = True
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            literal_keys.add(key.value)
            if key.value == "schema":
                tag_expr = value
        else:
            dynamic = True
    if tag_expr is None:
        return None
    return SchemaDict(
        node=node,
        tag_expr=tag_expr,
        literal_keys=frozenset(literal_keys),
        dynamic_keys=dynamic,
        function=None,
    )


# ------------------------------------------------------------------ the model
class ProjectModel:
    """The cross-module view one lint run's project rules share."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        #: dotted module name -> info, in sorted-name order.
        self.modules: dict[str, ModuleInfo] = dict(sorted(modules.items()))

    @classmethod
    def build(cls, contexts: Iterable[LintContext]) -> "ProjectModel":
        """Build the model; deterministic under any context order."""
        ordered = sorted(contexts, key=lambda ctx: ctx.rel)
        modules: dict[str, ModuleInfo] = {}
        for ctx in ordered:
            info = _build_module(ctx)
            modules.setdefault(info.name, info)
        return cls(modules)

    # ------------------------------------------------------------- resolution
    def resolve_function(
        self, module: ModuleInfo, raw: str, cls: str | None = None
    ) -> FunctionInfo | None:
        """The project function a raw call-site name refers to.

        ``raw`` is the dotted name as written (``run_attempt``,
        ``self._bump``, ``resilience.run_attempt``); resolution goes
        through the module's import aliases, then the project's module
        table.  Returns None for externals and dynamic calls.
        """
        head, _, rest = raw.partition(".")
        if head == "self" and cls is not None and rest and "." not in rest:
            return module.functions.get(f"{cls}.{rest}")
        if "." not in raw:
            local = module.functions.get(raw)
            if local is not None or raw not in module.imports.aliases:
                return local
        canonical = module.imports.resolve(raw)
        owner, _, leaf = canonical.rpartition(".")
        target = self.modules.get(owner)
        if target is not None:
            found = target.functions.get(leaf)
            if found is not None:
                return found
        # ``module.Class.method`` / ``package.module.func`` one level up.
        owner2, _, mid = owner.rpartition(".")
        target = self.modules.get(owner2)
        if target is not None:
            return target.functions.get(f"{mid}.{leaf}")
        return None

    def resolve_string_constant(
        self, module: ModuleInfo, expr: ast.expr
    ) -> str | None:
        """The string a literal / (imported) constant expression names."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        if "." not in dotted:
            local = module.constants.get(dotted)
            if local is not None:
                return local
        canonical = module.imports.resolve(dotted)
        owner, _, leaf = canonical.rpartition(".")
        target = self.modules.get(owner)
        if target is not None:
            return target.constants.get(leaf)
        return None

    # ------------------------------------------------------------ call graph
    def call_edges(
        self, function: FunctionInfo
    ) -> Iterator[tuple[FunctionInfo, ast.Call]]:
        """Resolved project-internal callees of one function."""
        module = self.modules[function.module]
        for raw, node in function.calls:
            callee = self.resolve_function(module, raw, cls=function.cls)
            if callee is not None:
                yield callee, node

    def ref_edges(
        self, function: FunctionInfo
    ) -> Iterator[tuple[FunctionInfo, ast.Call]]:
        """Project functions passed by reference from one function."""
        module = self.modules[function.module]
        for raw, node in function.refs:
            callee = self.resolve_function(module, raw, cls=function.cls)
            if callee is not None:
                yield callee, node

    def reachable_from_threaded_modules(self) -> set[tuple[str, str]]:
        """(module, qualname) pairs reachable from thread-starting code.

        Seeds are every function defined in a module that constructs
        threads (that module's code may run with threads alive); edges
        follow the project call graph, so a process fork buried two
        calls deep below a thread-pool driver is still reached.
        """
        seeds: list[FunctionInfo] = []
        for name in sorted(self.modules):
            info = self.modules[name]
            if info.creates_threads and not info.is_test:
                seeds.extend(
                    info.functions[q] for q in sorted(info.functions)
                )
        visited: set[tuple[str, str]] = set()
        stack = seeds
        while stack:
            function = stack.pop()
            key = (function.module, function.qualname)
            if key in visited:
                continue
            visited.add(key)
            for callee, _ in self.call_edges(function):
                stack.append(callee)
            # A reference handed to an executor/thread does run there.
            for callee, _ in self.ref_edges(function):
                stack.append(callee)
        return visited

    def blocking_closure(self) -> dict[tuple[str, str], str]:
        """(module, qualname) -> blocking description, transitively.

        A *sync* function blocks when its own body contains a blocking
        primitive or when any resolvable sync project callee blocks.
        Async callees are excluded -- their own bodies are policed
        directly by CONC002 at their definition site.
        """
        blocks: dict[tuple[str, str], str] = {}
        for name in sorted(self.modules):
            info = self.modules[name]
            for qualname in sorted(info.functions):
                function = info.functions[qualname]
                if function.blocking:
                    blocks[(name, qualname)] = function.blocking[0].what
        changed = True
        while changed:
            changed = False
            for name in sorted(self.modules):
                info = self.modules[name]
                for qualname in sorted(info.functions):
                    key = (name, qualname)
                    if key in blocks:
                        continue
                    function = info.functions[qualname]
                    if function.is_async:
                        continue
                    for callee, _ in self.call_edges(function):
                        if callee.is_async:
                            continue
                        inner = blocks.get((callee.module, callee.qualname))
                        if inner is not None:
                            blocks[key] = (
                                f"{inner} via {callee.module}.{callee.qualname}()"
                            )
                            changed = True
                            break
        return blocks

    # ---------------------------------------------------------------- schemas
    def declared_schema_keys(
        self,
    ) -> dict[str, tuple[frozenset[str], ModuleInfo, ast.AST]]:
        """Schema tag -> (declared key set, declaring module, node).

        Declared by convention: a module-level ``NAME_KEYS`` frozenset
        paired with a ``NAME_SCHEMA`` string constant holding a
        ``repro-*/vN`` tag in the same module.
        """
        declared: dict[str, tuple[frozenset[str], ModuleInfo, ast.AST]] = {}
        for name in sorted(self.modules):
            info = self.modules[name]
            for const_name in sorted(info.key_sets):
                prefix = const_name[: -len("_KEYS")]
                tag = info.constants.get(f"{prefix}_SCHEMA")
                if tag is None or not SCHEMA_TAG_PATTERN.match(tag):
                    continue
                if tag not in declared:
                    declared[tag] = (
                        info.key_sets[const_name],
                        info,
                        info.key_set_nodes[const_name],
                    )
        return declared


def build_project_model(contexts: Iterable[LintContext]) -> ProjectModel:
    """Convenience wrapper around :meth:`ProjectModel.build`."""
    return ProjectModel.build(contexts)
