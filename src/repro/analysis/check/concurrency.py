"""Concurrency rules: thread-safety of shared state, statically.

* ``RPR-T001`` -- in modules that import ``threading`` or
  ``concurrent.futures`` (i.e. whose functions run on many threads:
  serve handlers, queue heartbeats, cache flushers), module-level mutable
  state must only be mutated inside a ``with <lock>:`` block.  This is the
  pattern the experiment/strategy registries already follow
  (``with _REGISTRY_LOCK: _REGISTRY[name] = ...``).
* ``RPR-T002`` -- in the persistent-cache modules
  (``engine/diskcache.py``, ``sweep/queue.py``), files must be published
  atomically: a write-mode ``open``/``os.fdopen``/``write_text`` is only
  legal inside a function that also calls ``os.replace`` (temp file +
  rename) or claims via ``os.open(..., O_CREAT | O_EXCL)``.  Concurrent
  readers must never observe a torn file.
* ``RPR-T003`` -- in the same hardened modules, write I/O
  (``os.replace``, write-mode opens, ``write_text``/``write_bytes``) must
  run under the shared :func:`repro.faults.retry.with_retries` helper so a
  transient ``EIO`` does not lose a publish.  Exclusive-claim writes
  (``O_CREAT | O_EXCL`` lease files) are exempt: losing a claim race is
  contention control, not a fault to retry.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.check.findings import Finding
from repro.analysis.check.pysource import PySource

#: Method calls that mutate dict/list/set/deque receivers in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Constructor calls whose module-level result counts as mutable state.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)

#: Cache modules under the atomic-publish contract (RPR-T002).
_ATOMIC_MODULES = frozenset({"diskcache.py", "queue.py"})


def check_t001(module: PySource) -> Iterator[Finding]:
    """RPR-T001: unlocked module-state mutation in a threaded module."""
    if not module.in_repro_src():
        return
    if not module.imports_any("threading", "concurrent.futures"):
        return
    mutable, module_names = _module_level_state(module)
    for func in _functions(module.tree):
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        declared_global &= module_names
        yield from _check_function(module, func, mutable, declared_global)


def _module_level_state(module: PySource) -> "tuple[Set[str], Set[str]]":
    """Module-level mutable bindings, and all module-level simple names."""
    mutable: Set[str] = set()
    names: Set[str] = set()
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            names.add(target.id)
            if _is_mutable_value(module, value):
                mutable.add(target.id)
    return mutable, names


def _is_mutable_value(module: PySource, value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return module.resolved_name(value.func) in _MUTABLE_CONSTRUCTORS
    return False


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _check_function(
    module: PySource,
    func: ast.AST,
    mutable: Set[str],
    declared_global: Set[str],
) -> Iterator[Finding]:
    """Walk one function, tracking the enclosing ``with <lock>`` blocks."""

    def visit(node: ast.AST, locked: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions are visited as their own roots
            child_locked = locked
            if isinstance(child, (ast.With, ast.AsyncWith)) and _holds_lock(module, child):
                child_locked = True
            if not child_locked:
                finding = _mutation_finding(module, child, mutable, declared_global)
                if finding is not None:
                    yield finding
            yield from visit(child, child_locked)

    yield from visit(func, locked=False)


def _holds_lock(module: PySource, node: ast.AST) -> bool:
    """True for ``with`` statements acquiring something lock-shaped."""
    for item in node.items:  # type: ignore[attr-defined]
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        name = module.dotted_name(expr)
        if name and "lock" in name.rsplit(".", 1)[-1].lower():
            return True
    return False


def _mutation_finding(
    module: PySource,
    node: ast.AST,
    mutable: Set[str],
    declared_global: Set[str],
) -> Optional[Finding]:
    """A finding if ``node`` mutates module-level state, else ``None``."""
    target_name: Optional[str] = None
    what = ""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared_global:
                target_name, what = target.id, "rebinds module-level"
                break
            base = _subscript_base(target)
            if base is not None and base in mutable:
                target_name, what = base, "writes into module-level"
                break
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            base = _subscript_base(target)
            if base is not None and base in mutable:
                target_name, what = base, "deletes from module-level"
                break
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATING_METHODS
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in mutable
        ):
            target_name, what = call.func.value.id, f".{call.func.attr}() mutates module-level"
    if target_name is None:
        return None
    return Finding(
        rule_id="RPR-T001",
        severity="error",
        path=module.path,
        line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", -1) + 1,
        message=(
            f"{what} state {target_name!r} outside a `with <lock>:` block in "
            f"a threaded module; guard it like the registry/cache locks"
        ),
    )


def _subscript_base(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


def check_t002(module: PySource) -> Iterator[Finding]:
    """RPR-T002: non-atomic file publish in the cache modules."""
    if not module.in_repro_src() or module.basename() not in _ATOMIC_MODULES:
        return
    for func in _functions(module.tree):
        if _is_atomic_aware(module, func):
            continue
        for node in _walk_own_body(func):
            message = _write_message(module, node)
            if message is not None:
                yield Finding(
                    rule_id="RPR-T002",
                    severity="error",
                    path=module.path,
                    line=getattr(node, "lineno", 0),
                    column=getattr(node, "col_offset", -1) + 1,
                    message=message,
                )


def _walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, not those of nested functions
    (nested functions are checked as their own roots)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_atomic_aware(module: PySource, func: ast.AST) -> bool:
    """True when the function publishes atomically (os.replace / O_EXCL)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and module.resolved_name(node.func) == "os.replace":
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = module.dotted_name(node)
            if name and name.rsplit(".", 1)[-1] == "O_EXCL":
                return True
    return False


def _write_message(module: PySource, node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "write_text",
        "write_bytes",
    ):
        return (
            f".{node.func.attr}() publishes non-atomically; publish through "
            f"engine.diskcache.publish_file (a temp file, then os.replace())"
        )
    name = module.resolved_name(node.func)
    if name in ("open", "os.fdopen", "io.open"):
        mode = _open_mode(node)
        if mode is not None and mode.startswith(("w", "x")):
            return (
                f"{name}(..., {mode!r}) outside an atomic-publish function; "
                f"write a temp file and os.replace() it so concurrent "
                f"readers never see a torn file"
            )
    return None


def check_t003(module: PySource) -> Iterator[Finding]:
    """RPR-T003: retry-less write I/O in a hardened (crash-consistent) module."""
    if not module.in_repro_src() or module.basename() not in _ATOMIC_MODULES:
        return

    def visit(node: ast.AST, guarded: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Entering a function whose subtree calls with_retries(...)
                # (or claims via O_EXCL) guards everything inside it --
                # including the nested `_publish` closures the helper runs.
                child_guarded = (
                    guarded
                    or _calls_with_retries(module, child)
                    or _claims_exclusively(module, child)
                )
            elif not guarded:
                message = _retry_less_write_message(module, child)
                if message is not None:
                    yield Finding(
                        rule_id="RPR-T003",
                        severity="error",
                        path=module.path,
                        line=getattr(child, "lineno", 0),
                        column=getattr(child, "col_offset", -1) + 1,
                        message=message,
                    )
            yield from visit(child, child_guarded)

    yield from visit(module.tree, guarded=False)


def _calls_with_retries(module: PySource, func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = module.resolved_name(node.func) or ""
            if name.rsplit(".", 1)[-1] == "with_retries":
                return True
    return False


def _claims_exclusively(module: PySource, func: ast.AST) -> bool:
    """True when the function claims via ``O_CREAT | O_EXCL`` (lease files).

    Losing an exclusive-claim race is expected contention control; wrapping
    it in retries would turn mutual exclusion into a spin."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = module.dotted_name(node)
            if name and name.rsplit(".", 1)[-1] == "O_EXCL":
                return True
    return False


def _retry_less_write_message(module: PySource, node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    name = module.resolved_name(node.func)
    if name == "os.replace":
        return (
            "os.replace() outside with_retries(); route the publish "
            "through the shared retry helper (repro.faults.retry) so a "
            "transient EIO does not lose it"
        )
    message = _write_message(module, node)
    if message is not None:
        return (
            "write I/O outside with_retries(); route it through the "
            "shared retry helper (repro.faults.retry) so a transient "
            "EIO does not lose the publish"
        )
    return None


def _open_mode(node: ast.Call) -> Optional[str]:
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            return str(keyword.value.value)
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        value = node.args[1].value
        return value if isinstance(value, str) else None
    return None
