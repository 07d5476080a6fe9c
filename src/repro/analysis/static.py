"""The ALPS protocol linter: static checks over manager bodies.

The analysis is a whole-body *site/coverage* analysis with candidate
entry sets, not a path enumeration.  Manager loops carry protocol state
across iterations — readers_writers accepts in one select arm and awaits
the same call in a different arm, many iterations later — so "does a
start exist on the path from this accept" is the wrong question.  What
is checkable is coverage: for each intercepted entry, does *any* site in
the body accept it / start it / await it / finish it, and are the
arities at those sites consistent with the declarations?

Values flow through a small environment: ``c = yield self.accept("x")``
binds ``c`` to the candidate set ``{x}``; ``r = yield Select(guards)``
binds ``r.value`` to the union of the guards' entries; anything the
analysis cannot resolve (subscripts, queue pops, helper returns) means
*all intercepted entries*.  A site contributes coverage to every
candidate, and an arity site is accepted if **any** candidate
interpretation is consistent — the conservative direction: unresolved
dynamism silences checks instead of fabricating findings, so the linter
runs clean over correct code and the fixture corpus keeps it honest on
broken code.

Finding codes are shared with the runtime (``ProtocolError.code``); the
catalogue lives in :mod:`repro.analysis.findings` and DESIGN.md §10.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable

from .findings import Finding
from .model import (
    UNKNOWN,
    EntryInfo,
    ObjectInfo,
    call_name,
    const_value,
    extract_objects,
)

#: Method/function names recognized as protocol operations.  ``describe``
#: strings and guard classes follow repro.core naming.
_ACCEPT_NAMES = {"accept", "AcceptGuard", "ShedGuard"}
_AWAIT_NAMES = {"await_", "await_call", "AwaitGuard"}


def _call_signature(op: str, extra: int) -> str:
    """Corrected ``Start``/``Finish`` call text with ``extra`` extras.

    Placeholder names follow the op: hidden params for ``Start``
    (``h0, h1, ...``), fabricated/forwarded results for ``Finish``
    (``r0, r1, ...``).
    """
    prefix = "h" if op == "Start" else "r"
    extras = "".join(f", {prefix}{i}" for i in range(extra))
    return f"yield {op}(call{extras})"


class _Site:
    """One protocol operation site inside the manager body."""

    __slots__ = ("kind", "entries", "node", "arity", "exact")

    def __init__(
        self,
        kind: str,
        entries: frozenset[str],
        node: ast.AST,
        arity: int | None = None,
        exact: bool = True,
    ) -> None:
        self.kind = kind  # accept | await | start | finish | execute
        self.entries = entries
        self.node = node
        #: Extra positional argument count (hidden params for start,
        #: results for finish); None when unparsable (starred args).
        self.arity = arity
        #: False when the entry set came from the "could be anything"
        #: fallback — coverage still counts, arity checks stay silent.
        self.exact = exact


class ManagerLinter:
    """Lints one object's manager body against its declarations."""

    def __init__(self, obj: ObjectInfo) -> None:
        self.obj = obj
        self.manager = obj.manager
        self.findings: list[Finding] = []
        #: Variable name → candidate entry set (from accept/await sugar).
        self.env: dict[str, frozenset[str]] = {}
        #: Variable name → entry set for select results (``var.value``).
        self.select_env: dict[str, frozenset[str]] = {}
        self.sites: list[_Site] = []
        self.intercepted = frozenset(obj.intercepted())

    # -- entry points ------------------------------------------------------

    def run(self) -> list[Finding]:
        self.check_declarations()
        if self.manager is not None and self.manager.intercepts is not None:
            self.collect_sites(self.manager.fn)
            self.check_coverage()
        return self.findings

    def report(
        self,
        code: str,
        message: str,
        node: ast.AST | None = None,
        line: int | None = None,
        entry: str | None = None,
        suggestion: str | None = None,
    ) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                path=self.obj.path,
                line=line if line is not None else getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                obj=self.obj.name,
                entry=entry,
                suggestion=suggestion,
            )
        )

    # -- declaration-level checks (no body needed) -------------------------

    def check_declarations(self) -> None:
        manager = self.manager
        intercepts = manager.intercepts if manager else None
        for name, icpt in (intercepts or {}).items():
            if name not in self.obj.entries:
                self.report(
                    "ALP112",
                    f"intercepts clause names {name!r}, which "
                    f"{self.obj.name} does not declare",
                    line=icpt.line or (manager.intercepts_line if manager else 0),
                    entry=name,
                )
        for name, entry in self.obj.entries.items():
            icpt = (intercepts or {}).get(name)
            if icpt is None:
                # Hidden params/results require interception (§2.8) — the
                # manager is the only party that could supply/consume them.
                for attr, label in (
                    (entry.hidden_params, "hidden_params"),
                    (entry.hidden_results, "hidden_results"),
                ):
                    if isinstance(attr, int) and attr > 0:
                        self.report(
                            "ALP105",
                            f"entry {name!r} declares {label}={attr} but the "
                            f"manager does not intercept it",
                            line=entry.line,
                            entry=name,
                            suggestion=(
                                f"add {name!r} to the manager's intercepts — "
                                f'@manager_process(intercepts={{..., "{name}": '
                                f"icpt()}}) — or drop {label}={attr} from the "
                                f"@entry declaration"
                            ),
                        )
                continue
            if (
                isinstance(icpt.params, int)
                and entry.def_params is not UNKNOWN
                and icpt.params > entry.def_params
            ):
                self.report(
                    "ALP105",
                    f"intercepts {icpt.params} params of {name!r}, which has "
                    f"only {entry.def_params} definition parameter(s)",
                    line=icpt.line,
                    entry=name,
                    suggestion=(
                        f'"{name}": icpt(params={entry.def_params}) — an '
                        f"intercept can take at most the entry's "
                        f"{entry.def_params} definition parameter(s)"
                    ),
                )
            if (
                isinstance(icpt.results, int)
                and isinstance(entry.returns, int)
                and icpt.results > entry.returns
            ):
                self.report(
                    "ALP105",
                    f"intercepts {icpt.results} results of {name!r}, which "
                    f"declares only returns={entry.returns}",
                    line=icpt.line,
                    entry=name,
                    suggestion=(
                        f'"{name}": icpt(results={entry.returns}) — an '
                        f"intercept can take at most the entry's "
                        f"returns={entry.returns} result(s)"
                    ),
                )

    # -- site collection ---------------------------------------------------

    def collect_sites(self, fn: ast.FunctionDef) -> None:
        for stmt in fn.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        # Track assignments for the candidate-set environment, in source
        # order; everything else is a straight recursive walk.
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                bound = self._binding_for(value)
                if bound is not None:
                    kind, entries = bound
                    if kind == "select":
                        self.select_env[target.id] = entries
                        self.env.pop(target.id, None)
                    else:
                        self.env[target.id] = entries
                        self.select_env.pop(target.id, None)
                else:
                    self.env.pop(target.id, None)
                    self.select_env.pop(target.id, None)
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        if isinstance(node, ast.Call):
            self._classify_call(node)

    def _binding_for(self, value: ast.expr) -> tuple[str, frozenset[str]] | None:
        """What a RHS binds: ('call', entries) or ('select', entries)."""
        if isinstance(value, ast.Yield) and value.value is not None:
            return self._binding_for(value.value)
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name in ("accept", "await_", "await_call"):
                entry = self._guard_entry_name(value)
                if entry is not None:
                    return ("call", frozenset({entry}))
                return ("call", self.intercepted)
            if name == "Select":
                entries: set[str] = set()
                exact = True
                for arg in value.args:
                    if isinstance(arg, ast.Call):
                        arg_name = call_name(arg)
                        if arg_name in _ACCEPT_NAMES | _AWAIT_NAMES:
                            entry = self._guard_entry_name(arg)
                            if entry is None:
                                exact = False
                            else:
                                entries.add(entry)
                if not exact or not entries:
                    return ("select", self.intercepted)
                return ("select", frozenset(entries))
        if isinstance(value, ast.Attribute) and value.attr == "value":
            inner = value.value
            if isinstance(inner, ast.Name) and inner.id in self.select_env:
                return ("call", self.select_env[inner.id])
        if isinstance(value, ast.Name):
            if value.id in self.env:
                return ("call", self.env[value.id])
            if value.id in self.select_env:
                return ("select", self.select_env[value.id])
        return None

    @staticmethod
    def _is_self_method(node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        )

    def _guard_entry_name(self, node: ast.Call) -> str | None:
        """The entry-name argument of a guard/sugar call, if a literal.

        ``self.accept("x")`` puts the name first; ``AcceptGuard(self, "x")``
        and ``accept(self, "x")`` put it second.
        """
        name = call_name(node)
        args = node.args
        if self._is_self_method(node):
            candidates = args[:1]
        elif name in ("AcceptGuard", "AwaitGuard", "ShedGuard", "accept", "await_call"):
            candidates = args[1:2]
        else:
            candidates = args[:1]
        for arg in candidates:
            value = const_value(arg)
            if isinstance(value, str):
                return value
        return None

    def _candidates(self, node: ast.expr) -> tuple[frozenset[str], bool]:
        """Candidate entries for a call-valued expression; (set, exact)."""
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id], True
        if isinstance(node, ast.Attribute) and node.attr == "value":
            inner = node.value
            if isinstance(inner, ast.Name) and inner.id in self.select_env:
                return self.select_env[inner.id], True
        return self.intercepted, False

    @staticmethod
    def _extra_arity(node: ast.Call, skip: int) -> int | None:
        """Count positional args past ``skip``; None when starred."""
        rest = node.args[skip:]
        if any(isinstance(a, ast.Starred) for a in node.args):
            return None
        return len(rest)

    def _classify_call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is None:
            return
        is_self = self._is_self_method(node)

        if name in _ACCEPT_NAMES or name in _AWAIT_NAMES:
            kind = "accept" if name in _ACCEPT_NAMES else "await"
            entry = self._guard_entry_name(node)
            if entry is None:
                self.sites.append(_Site(kind, self.intercepted, node, exact=False))
            else:
                self.sites.append(_Site(kind, frozenset({entry}), node))
                self._check_guard(kind, entry, node)
            return

        if name == "Start" and node.args:
            entries, exact = self._candidates(node.args[0])
            arity = self._extra_arity(node, 1)
            self.sites.append(_Site("start", entries, node, arity, exact))
            self._check_start_arity(entries, exact, arity, node)
            return

        if name == "Finish" and node.args:
            entries, exact = self._candidates(node.args[0])
            arity = self._extra_arity(node, 1)
            self.sites.append(_Site("finish", entries, node, arity, exact))
            return

        if name in ("execute", "execute_call"):
            # Both forms put the call first: self.execute(c) / execute_call(c).
            if not node.args:
                return
            entries, exact = self._candidates(node.args[0])
            arity = self._extra_arity(node, 1)
            self.sites.append(_Site("execute", entries, node, arity, exact))
            self._check_start_arity(entries, exact, arity, node)
            return

        if name == "pending" and is_self:
            entry = const_value(node.args[0]) if node.args else UNKNOWN
            if isinstance(entry, str) and entry not in self.obj.entries:
                self.report(
                    "ALP112",
                    f"#pending names {entry!r}, which {self.obj.name} does "
                    f"not declare",
                    node=node,
                    entry=entry,
                )
            return

        if name == "call" and is_self:
            entry = const_value(node.args[0]) if node.args else UNKNOWN
            if isinstance(entry, str) and entry in self.intercepted:
                self.report(
                    "ALP111",
                    f"manager invokes intercepted entry {entry!r} of its own "
                    f"object; it would wait for itself to accept",
                    node=node,
                    entry=entry,
                )
            return

        if is_self and name in self.intercepted:
            # ``self.deposit(...)`` inside the manager: the bound entry
            # builds an EntryCall on this very object.
            self.report(
                "ALP111",
                f"manager invokes intercepted entry {name!r} of its own "
                f"object; it would wait for itself to accept",
                node=node,
                entry=name,
            )

    # -- per-site arity / guard checks -------------------------------------

    def _entry_or_report(self, kind: str, entry: str, node: ast.Call) -> EntryInfo | None:
        info = self.obj.entries.get(entry)
        if info is None:
            self.report(
                "ALP112",
                f"{kind} guard names {entry!r}, which {self.obj.name} does "
                f"not declare",
                node=node,
                entry=entry,
            )
            return None
        if entry not in self.intercepted:
            self.report(
                "ALP113",
                f"{kind} guard on {entry!r}, which the manager does not "
                f"intercept",
                node=node,
                entry=entry,
            )
            return None
        return info

    def _check_guard(self, kind: str, entry: str, node: ast.Call) -> None:
        info = self._entry_or_report(kind, entry, node)
        if info is None:
            return
        icpt = info.intercept
        for kw in node.keywords:
            if kw.arg == "slot":
                slot = const_value(kw.value)
                size = info.array_size
                if (
                    isinstance(slot, int)
                    and isinstance(size, int)
                    and not 0 <= slot < size
                ):
                    self.report(
                        "ALP110",
                        f"{kind} {entry}[{slot}]: slot outside the procedure "
                        f"array (size {size}, valid slots 0..{size - 1})",
                        node=kw.value,
                        entry=entry,
                    )
            elif kw.arg == "when" and isinstance(kw.value, ast.Lambda):
                self._check_when(kind, entry, icpt, kw.value)

    def _check_when(
        self, kind: str, entry: str, icpt: Any, lam: ast.Lambda
    ) -> None:
        body_const = const_value(lam.body, default=UNKNOWN)
        if body_const is not UNKNOWN and not body_const:
            self.report(
                "ALP109",
                f"when-condition on {kind} {entry!r} is constant "
                f"{body_const!r}: the guard can never fire",
                node=lam,
                entry=entry,
            )
        if lam.args.vararg is not None or icpt is None:
            return
        expected = icpt.params if kind == "accept" else icpt.results
        if not isinstance(expected, int):
            return
        got = len(lam.args.args) + len(lam.args.posonlyargs)
        required = got - len(lam.args.defaults)
        if required > expected or got < expected:
            what = "params" if kind == "accept" else "results"
            prefix = "p" if kind == "accept" else "r"
            names = ", ".join(f"{prefix}{i}" for i in range(expected))
            corrected = f"lambda {names}: ..." if expected else "lambda: ..."
            self.report(
                "ALP106",
                f"when-condition on {kind} {entry!r} takes {got} argument(s) "
                f"but the guard passes the {expected} intercepted {what}",
                node=lam,
                entry=entry,
                suggestion=(
                    f"when={corrected} — the condition receives exactly the "
                    f"{expected} intercepted {what} of {entry!r}"
                ),
            )

    def _check_start_arity(
        self,
        entries: frozenset[str],
        exact: bool,
        arity: int | None,
        node: ast.Call,
    ) -> None:
        if not exact or arity is None or not entries:
            return
        hidden_counts = set()
        for entry in entries:
            info = self.obj.entries.get(entry)
            if info is None:
                continue
            if not isinstance(info.hidden_params, int):
                return  # any unknown declaration silences the check
            hidden_counts.add(info.hidden_params)
        if hidden_counts and arity not in hidden_counts:
            declared = "/".join(str(c) for c in sorted(hidden_counts))
            self.report(
                "ALP108",
                f"start supplies {arity} hidden parameter(s) but "
                f"{self._entries_label(entries)} declare(s) "
                f"hidden_params={declared}",
                node=node,
                entry=next(iter(entries)) if len(entries) == 1 else None,
                suggestion=" or ".join(
                    _call_signature("Start", count)
                    for count in sorted(hidden_counts)
                )
                + f" — match hidden_params={declared}",
            )

    @staticmethod
    def _entries_label(entries: frozenset[str]) -> str:
        return "/".join(sorted(entries))

    # -- whole-body coverage checks ----------------------------------------

    def _coverage(self, kind: str) -> dict[str, list[_Site]]:
        out: dict[str, list[_Site]] = {name: [] for name in self.intercepted}
        kinds = {kind, "execute"} if kind in ("start", "await", "finish") else {kind}
        for site in self.sites:
            if site.kind in kinds:
                for entry in site.entries:
                    if entry in out:
                        out[entry].append(site)
        return out

    def check_coverage(self) -> None:
        accepts = self._coverage("accept")
        starts = self._coverage("start")
        awaits = self._coverage("await")
        finishes = self._coverage("finish")
        manager_line = self.manager.line if self.manager else 0

        for entry in sorted(self.intercepted):
            info = self.obj.entries[entry]
            if not accepts[entry]:
                self.report(
                    "ALP101",
                    f"entry {entry!r} is intercepted but the manager body "
                    f"never accepts it: every call stalls forever",
                    line=manager_line,
                    entry=entry,
                )
                continue
            if awaits[entry] and not starts[entry]:
                site = awaits[entry][0]
                self.report(
                    "ALP102",
                    f"manager awaits {entry!r} but never starts it: the "
                    f"await can never become ready",
                    node=site.node,
                    entry=entry,
                )
            if starts[entry] and not awaits[entry] and not finishes[entry]:
                site = starts[entry][0]
                self.report(
                    "ALP103",
                    f"manager starts {entry!r} but neither awaits nor "
                    f"finishes it: callers are never resumed",
                    node=site.node,
                    entry=entry,
                )
            if starts[entry] and finishes[entry] and not awaits[entry]:
                site = finishes[entry][0]
                self.report(
                    "ALP104",
                    f"manager starts {entry!r} and finishes it without an "
                    f"await in between: finish requires the call to be "
                    f"awaited first",
                    node=site.node,
                    entry=entry,
                )

        # ALP107: finish result arity, judged per site with candidate
        # semantics — valid if ANY candidate interpretation fits.
        for site in self.sites:
            if site.kind != "finish" or site.arity is None or not site.exact:
                continue
            ok = False
            expectations: list[str] = []
            valid_counts: list[int] = []
            for entry in site.entries:
                info = self.obj.entries.get(entry)
                if info is None:
                    continue
                icpt = info.intercept
                icpt_results = icpt.results if icpt is not None else 0
                if not isinstance(icpt_results, int) or not isinstance(
                    info.returns, int
                ):
                    ok = True  # unknown declaration: stay silent
                    break
                if starts.get(entry) and site.arity == icpt_results:
                    ok = True
                    break
                if site.arity == info.returns:
                    ok = True  # combining: manager fabricates all results
                    break
                if starts.get(entry):
                    expectations.append(f"{icpt_results} (awaited {entry})")
                    valid_counts.append(icpt_results)
                expectations.append(f"{info.returns} (combining {entry})")
                valid_counts.append(info.returns)
            if not ok and expectations:
                self.report(
                    "ALP107",
                    f"finish supplies {site.arity} result(s); expected "
                    + " or ".join(dict.fromkeys(expectations)),
                    node=site.node,
                    entry=(
                        next(iter(site.entries))
                        if len(site.entries) == 1
                        else None
                    ),
                    suggestion=" or ".join(
                        _call_signature("Finish", count)
                        for count in sorted(dict.fromkeys(valid_counts))
                    )
                    + " — the result count must match what the protocol "
                    "expects at this site",
                )


# -- module-level checks (not tied to one object's manager) -----------------

#: Retry-policy constructors recognized by the ALP114 check.
_POLICY_CTORS = {"FixedBackoff", "ExponentialBackoff"}


def _is_none(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _retry_policy_arg(call: ast.Call) -> ast.expr | None:
    """The policy argument of a ``retry(call_factory, policy, ...)`` site."""
    for kw in call.keywords:
        if kw.arg == "policy":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _unbounded_policy_ctor(node: ast.expr | None) -> str | None:
    """Constructor name if *node* is ``Ctor(..., max_attempts=None)``."""
    if not isinstance(node, ast.Call):
        return None
    ctor = call_name(node)
    if ctor not in _POLICY_CTORS:
        return None
    unbounded = any(
        kw.arg == "max_attempts" and _is_none(kw.value) for kw in node.keywords
    )
    return ctor if unbounded else None


def lint_retry_sites(tree: ast.Module, path: str = "<source>") -> list[Finding]:
    """ALP114: ``retry()`` with an unbounded policy and no budget.

    Flags call sites of ``retry`` — at module level, in class methods,
    or in nested functions — whose policy is an explicit
    ``max_attempts=None`` constructor and which pass no (or a ``None``)
    ``budget=``.  The policy may be written inline at the call site or
    held in a local variable; variable bindings are tracked per lexical
    scope (nested functions see enclosing bindings, reassignment to
    anything unrecognized clears the binding, and class-level names are
    not visible inside methods — matching Python's scoping).  Policies
    that arrive as parameters or attributes stay unflagged: they may be
    bounded elsewhere, and the linter fabricates no findings it cannot
    see locally.
    """
    findings: list[Finding] = []
    _RetryScopeWalker(findings, path).scan(tree.body, {})
    return findings


class _RetryScopeWalker:
    """Order-sensitive walk tracking unbounded-policy variable bindings."""

    def __init__(self, findings: list[Finding], path: str) -> None:
        self.findings = findings
        self.path = path

    def scan(self, stmts: Iterable[ast.stmt], env: dict[str, str]) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, env)

    def _scan_stmt(self, stmt: ast.stmt, env: dict[str, str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested scope: closures see the enclosing bindings; local
            # reassignments must not leak back out.
            self.scan(stmt.body, dict(env))
            return
        if isinstance(stmt, ast.ClassDef):
            # Class-level assignments are not visible as bare names in
            # method bodies; methods close over the *enclosing* scope.
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.scan(sub.body, dict(env))
                elif isinstance(sub, ast.ClassDef):
                    self._scan_stmt(sub, env)
            return
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            self._check_expr(stmt.value, env)
            if isinstance(target, ast.Name):
                ctor = _unbounded_policy_ctor(stmt.value)
                if ctor is not None:
                    env[target.id] = ctor
                else:
                    env.pop(target.id, None)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child, env)
            else:
                self._check_expr(child, env)

    def _check_expr(self, node: ast.AST, env: dict[str, str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and call_name(sub) == "retry":
                self._check_retry_site(sub, env)

    def _check_retry_site(self, node: ast.Call, env: dict[str, str]) -> None:
        policy = _retry_policy_arg(node)
        held = None
        ctor = _unbounded_policy_ctor(policy)
        if ctor is None and isinstance(policy, ast.Name):
            ctor = env.get(policy.id)
            held = policy.id if ctor is not None else None
        if ctor is None:
            return
        budget = next(
            (kw.value for kw in node.keywords if kw.arg == "budget"), None
        )
        if budget is not None and not _is_none(budget):
            return
        source = (
            f"policy {held!r} = {ctor}(max_attempts=None)"
            if held is not None
            else f"{ctor}(max_attempts=None)"
        )
        self.findings.append(
            Finding(
                code="ALP114",
                message=(
                    f"retry() with {source} and no budget: a persistent "
                    f"fault makes this caller re-offer its call forever "
                    f"(retry storm)"
                ),
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                suggestion=(
                    "pass budget=shared_budget(kernel, caller, obj) so "
                    "excess retries become immediate AdmissionErrors, or "
                    f"bound the policy: {ctor}(..., max_attempts=N)"
                ),
            )
        )


# -- public API -------------------------------------------------------------


def lint_tree(
    tree: ast.Module, path: str = "<source>", program_checks: bool = True
) -> list[Finding]:
    findings: list[Finding] = []
    for obj in extract_objects(tree, path=path):
        findings.extend(ManagerLinter(obj).run())
    findings.extend(lint_retry_sites(tree, path=path))
    if program_checks:
        # Single-module whole-program checks (ALP120/ALP121): cycles and
        # interference confined to one file surface on every lint path;
        # the --whole-program CLI mode merges files first and disables
        # the per-module run to avoid duplicate findings.
        from .wholeprogram import lint_tree_program

        findings.extend(lint_tree_program(tree, path=path))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def lint_source(
    source: str, path: str = "<source>", program_checks: bool = True
) -> list[Finding]:
    """Lint python source text; returns the findings (possibly empty)."""
    tree = ast.parse(source, filename=path)
    return lint_tree(tree, path=path, program_checks=program_checks)


def lint_file(path: str, program_checks: bool = True) -> list[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=str(path), program_checks=program_checks)


def lint_paths(
    paths: Iterable[str], program_checks: bool = True
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    import os

    findings: list[Finding] = []
    for root_path in paths:
        if os.path.isfile(root_path):
            findings.extend(lint_file(root_path, program_checks=program_checks))
            continue
        for dirpath, dirnames, filenames in os.walk(root_path):
            dirnames[:] = [
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            ]
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    findings.extend(
                        lint_file(
                            os.path.join(dirpath, filename),
                            program_checks=program_checks,
                        )
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def lint_class(cls: type) -> list[Finding]:
    """Reflective mode: lint an imported AlpsObject subclass directly.

    Uses the class's authoritative ``__alps_entries__``/``__alps_manager__``
    specs (so attribute-named array bounds and inherited entries resolve
    exactly) and only the manager *body* from ``inspect.getsource``.
    """
    import inspect
    import textwrap

    from .model import object_info_from_class

    source = textwrap.dedent(inspect.getsource(cls))
    tree = ast.parse(source)
    try:
        path = inspect.getsourcefile(cls) or "<class>"
    except TypeError:  # pragma: no cover - builtins
        path = "<class>"
    obj = object_info_from_class(cls, path, tree)
    return ManagerLinter(obj).run()
