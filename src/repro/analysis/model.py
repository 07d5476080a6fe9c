"""Pure-AST extraction of ALPS object declarations.

The linter never imports the code it checks — examples spawn kernels at
module scope and fixtures are deliberately broken — so everything it
knows about an object comes from the syntax tree: ``@entry``/``@local``
decorators, the ``@manager_process(intercepts=...)`` clause and the
manager body.  Classes are discovered at any nesting depth (example
programs define objects inside functions).

The extraction is best-effort by design.  Anything it cannot resolve
syntactically — a computed intercepts mapping, an ``array=`` bound read
from configuration — is recorded as *unknown* and the checks that would
need it stay silent rather than guess (``repro.analysis.lint_class``
offers the reflective mode for exact specs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

#: Sentinel for values the AST cannot determine.
UNKNOWN = object()


def decorator_name(node: ast.expr) -> str | None:
    """Final identifier of a decorator: ``entry``, ``core.entry`` → ``entry``."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def call_name(node: ast.Call) -> str | None:
    """Final identifier of a call's callee: ``f()``/``x.f()`` → ``f``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def const_value(node: ast.expr | None, default: Any = UNKNOWN) -> Any:
    if node is None:
        return default
    if isinstance(node, ast.Constant):
        return node.value
    return UNKNOWN


@dataclass
class InterceptInfo:
    """Parsed ``icpt(params=, results=)`` value (or a bare procedure name)."""

    params: Any = 0  # int or UNKNOWN
    results: Any = 0
    line: int = 0


@dataclass
class EntryInfo:
    """One ``@entry``/``@local`` declaration as the AST shows it."""

    name: str
    line: int
    exported: bool = True
    #: Formal parameter count of the def, minus ``self``.
    n_formals: int = 0
    returns: Any = 0  # int or UNKNOWN
    array: Any = None  # None (scalar), int, str (attribute bound) or UNKNOWN
    hidden_params: Any = 0
    hidden_results: Any = 0
    intercept: InterceptInfo | None = None
    #: Compatibility groups from ``compatible=`` (multiactive annotation);
    #: empty when undeclared, UNKNOWN when syntactically unresolvable.
    compatible: Any = ()
    #: The body ``def`` node (None in reflective mode when unavailable).
    fn: ast.FunctionDef | None = None

    @property
    def def_params(self) -> Any:
        """Definition-part parameter count (formals minus hidden, §2.8)."""
        if self.hidden_params is UNKNOWN:
            return UNKNOWN
        return self.n_formals - self.hidden_params

    @property
    def array_size(self) -> Any:
        """Statically known slot count: 1 for scalars, N for ``array=N``."""
        if self.array is None:
            return 1
        if isinstance(self.array, int):
            return self.array
        return UNKNOWN  # attribute-named or unparsable bound


@dataclass
class ManagerInfo:
    """The ``@manager_process`` declaration plus its body."""

    name: str
    line: int
    fn: ast.FunctionDef
    #: Parsed intercepts clause; None when it was not syntactically a
    #: list/tuple/set of names or a dict of names to icpt() calls.
    intercepts: dict[str, InterceptInfo] | None = None
    intercepts_line: int = 0


@dataclass
class ObjectInfo:
    """Everything the linter knows about one ALPS object class."""

    name: str
    line: int
    path: str = "<source>"
    entries: dict[str, EntryInfo] = field(default_factory=dict)
    manager: ManagerInfo | None = None
    #: Plain (undecorated) methods — ``setup``, helpers — by name; the
    #: whole-program analysis inlines these when a body calls them.
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def intercepted(self) -> dict[str, EntryInfo]:
        if self.manager is None or self.manager.intercepts is None:
            return {}
        return {
            name: self.entries[name]
            for name in self.manager.intercepts
            if name in self.entries
        }


def _parse_intercept_value(node: ast.expr) -> InterceptInfo:
    """``icpt(1, results=2)`` / ``Intercept(params=1)`` → InterceptInfo."""
    info = InterceptInfo(line=node.lineno)
    if not (
        isinstance(node, ast.Call)
        and decorator_name(node) in ("icpt", "Intercept")
    ):
        info.params = info.results = UNKNOWN
        return info
    positional = [const_value(a) for a in node.args]
    if len(positional) >= 1:
        info.params = positional[0]
    if len(positional) >= 2:
        info.results = positional[1]
    for kw in node.keywords:
        if kw.arg == "params":
            info.params = const_value(kw.value)
        elif kw.arg == "results":
            info.results = const_value(kw.value)
    return info


def _parse_intercepts(node: ast.expr) -> dict[str, InterceptInfo] | None:
    """Parse the ``intercepts=`` argument of ``@manager_process``."""
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        out: dict[str, InterceptInfo] = {}
        for element in node.elts:
            name = const_value(element)
            if not isinstance(name, str):
                return None
            out[name] = InterceptInfo(line=element.lineno)
        return out
    if isinstance(node, ast.Dict):
        out = {}
        for key, value in zip(node.keys, node.values):
            name = const_value(key)
            if not isinstance(name, str):
                return None
            out[name] = _parse_intercept_value(value)
        return out
    return None


def _parse_entry(fn: ast.FunctionDef, deco: ast.expr, kind: str) -> EntryInfo:
    info = EntryInfo(
        name=fn.name,
        line=fn.lineno,
        exported=(kind == "entry"),
        n_formals=max(0, len(fn.args.args) - 1)
        + len(fn.args.posonlyargs),
    )
    info.fn = fn
    if isinstance(deco, ast.Call):
        for kw in deco.keywords:
            if kw.arg == "returns":
                info.returns = const_value(kw.value)
            elif kw.arg == "array":
                value = const_value(kw.value)
                info.array = value if isinstance(value, (int, str)) else UNKNOWN
            elif kw.arg == "hidden_params":
                info.hidden_params = const_value(kw.value)
            elif kw.arg == "hidden_results":
                info.hidden_results = const_value(kw.value)
            elif kw.arg == "compatible":
                info.compatible = _parse_compatible(kw.value)
    return info


def _parse_compatible(node: ast.expr) -> Any:
    """``compatible="g"`` / ``compatible=("g", "h")`` → tuple of names."""
    value = const_value(node)
    if isinstance(value, str):
        return (value,)
    if isinstance(node, (ast.Tuple, ast.List)):
        names = [const_value(el) for el in node.elts]
        if all(isinstance(n, str) for n in names):
            return tuple(dict.fromkeys(names))
    return UNKNOWN


def _parse_manager(fn: ast.FunctionDef, deco: ast.expr) -> ManagerInfo:
    info = ManagerInfo(name=fn.name, line=fn.lineno, fn=fn)
    if isinstance(deco, ast.Call):
        for kw in deco.keywords:
            if kw.arg == "intercepts":
                info.intercepts = _parse_intercepts(kw.value)
                info.intercepts_line = kw.value.lineno
    return info


def extract_objects(
    tree: ast.Module, path: str = "<source>", managed_only: bool = True
) -> list[ObjectInfo]:
    """All ALPS object classes in a module (any nesting depth).

    By default only classes declaring a ``@manager_process`` are returned
    — they are the per-class lint targets; a managerless object has no
    protocol to get wrong.  The whole-program analysis passes
    ``managed_only=False`` to also see unmanaged objects (their bodies
    participate in cross-object wait cycles through hidden procedure
    arrays).  Single-module inheritance is resolved by base-class name so
    fixture hierarchies behave like the metaclass does.
    """
    by_name: dict[str, ObjectInfo] = {}
    objects: list[ObjectInfo] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ObjectInfo(name=node.name, line=node.lineno, path=path)
        # Same-module inheritance: start from the base's declarations.
        for base in node.bases:
            base_name = decorator_name(base)
            parent = by_name.get(base_name or "")
            if parent is not None:
                info.entries.update(parent.entries)
                info.methods.update(parent.methods)
                info.manager = parent.manager
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            handled = False
            for deco in stmt.decorator_list:
                kind = decorator_name(deco)
                if kind in ("entry", "local") and isinstance(
                    stmt, ast.FunctionDef
                ):
                    info.entries[stmt.name] = _parse_entry(stmt, deco, kind)
                    handled = True
                elif kind == "manager_process" and isinstance(
                    stmt, ast.FunctionDef
                ):
                    info.manager = _parse_manager(stmt, deco)
                    handled = True
            if not handled and isinstance(stmt, ast.FunctionDef):
                info.methods[stmt.name] = stmt
        by_name[node.name] = info
        if info.manager is not None:
            # Attach intercept info to the entries (mirrors the metaclass).
            for entry in info.entries.values():
                entry.intercept = None
            if info.manager.intercepts is not None:
                for name, icpt_info in info.manager.intercepts.items():
                    if name in info.entries:
                        info.entries[name].intercept = icpt_info
            objects.append(info)
        elif not managed_only and info.entries:
            objects.append(info)
    return objects


def object_info_from_class(cls: type, path: str, tree: ast.Module) -> ObjectInfo:
    """Reflective extraction: exact specs from the class, body from AST.

    Used by :func:`repro.analysis.lint_class` so tests can lint a class
    object directly — decorated specs (``__alps_entries__``,
    ``__alps_manager__``) are authoritative, only the manager *body*
    comes from the source tree.
    """
    class_node = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            class_node = node
            break
    if class_node is None:
        raise ValueError(f"class {cls.__name__} not found in parsed source")

    info = ObjectInfo(name=cls.__name__, line=class_node.lineno, path=path)
    manager_spec = cls.__alps_manager__
    for name, spec in cls.__alps_entries__.items():
        entry = EntryInfo(
            name=name,
            line=class_node.lineno,
            exported=spec.exported,
            n_formals=spec.params + spec.hidden_params,
            returns=spec.returns,
            array=spec.array,
            hidden_params=spec.hidden_params,
            hidden_results=spec.hidden_results,
            compatible=tuple(getattr(spec, "compatible", ()) or ()),
        )
        if spec.intercept is not None:
            entry.intercept = InterceptInfo(
                params=spec.intercept.params,
                results=spec.intercept.results,
                line=class_node.lineno,
            )
        for stmt in class_node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                entry.fn = stmt
                entry.line = stmt.lineno
        info.entries[name] = entry
    if manager_spec is not None:
        for stmt in class_node.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == manager_spec.fn.__name__
            ):
                info.manager = ManagerInfo(
                    name=stmt.name,
                    line=stmt.lineno,
                    fn=stmt,
                    intercepts={
                        name: InterceptInfo(
                            params=icpt.params,
                            results=icpt.results,
                            line=stmt.lineno,
                        )
                        for name, icpt in manager_spec.intercepts.items()
                    },
                    intercepts_line=stmt.lineno,
                )
    return info
