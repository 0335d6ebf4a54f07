"""The shared AST walk every REP rule plugs into.

One parse, one traversal per module: the engine resolves import
aliases (so a rule can ask "does this call bottom out in
``numpy.random.default_rng``?" regardless of ``import numpy as np`` vs
``from numpy.random import default_rng``), tracks the enclosing
function stack and locally-defined function names, and dispatches every
node to each active rule.  Rules stay tiny predicate objects; all
context bookkeeping lives here.

The same traversal also carries the *concurrency* context the REP1xx
family needs: on entering a :class:`ast.ClassDef` the engine prescans
the class body once into a :class:`ClassInfo` (``guarded_by``
declarations, lock-typed attributes, constructor types of shared
attributes), and it tracks which declared locks are statically held at
every node — ``with self.<lock>:`` blocks push onto
:attr:`ModuleContext.held_locks`, and a ``# lint: holds(<lock>)``
comment on a helper's ``def`` line seeds the stack for its body (the
checkable form of a "caller holds the lock" docstring).

Public entry points: :func:`check_source` for one module's text,
:func:`check_paths` for trees of files (deterministic, sorted order).
"""

from __future__ import annotations

import ast
import os.path
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import TYPE_CHECKING, Iterable, Iterator

from .config import LintConfig
from .findings import Finding, fingerprint_findings

if TYPE_CHECKING:  # pragma: no cover
    from .rules import Rule

__all__ = ["ClassInfo", "ModuleContext", "check_paths", "check_source",
           "iter_files"]

#: constructors whose instances count as declared locks.  Matched on
#: the call's terminal name so both ``threading.RLock()`` and the
#: bare ``WatchedLock(...)`` of a relative import are recognized.
LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "WatchedLock", "WatchedCondition",
})

#: the ``# lint: holds(_cond)`` escape on a helper's signature.
_HOLDS_RE = re.compile(r"#\s*lint:\s*holds\(([^)]*)\)")


def _call_name(func: ast.expr) -> str | None:
    """Terminal name of a call target (``threading.RLock`` -> RLock)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attr name, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


@dataclass
class ClassInfo:
    """One prescanned class body, as the REP1xx rules see it."""

    name: str
    #: guarded attribute -> lock attribute (``guarded_by`` declarations)
    guarded: dict[str, str] = field(default_factory=dict)
    #: attributes bound to a lock/condition anywhere in the class
    locks: set[str] = field(default_factory=set)
    #: ``self.<attr>`` -> constructor names observed in assignments
    attr_types: dict[str, set[str]] = field(default_factory=dict)
    #: method name -> its ``def``, for rules that follow
    #: ``self.<method>(...)`` calls one level deep (REP102)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict)


class ModuleContext:
    """Everything a rule may ask about the module being walked."""

    def __init__(self, rel_path: str, source: str,
                 config: LintConfig) -> None:
        self.rel_path = rel_path
        self.config = config
        self.lines = source.splitlines()
        #: local name -> dotted origin ("np" -> "numpy",
        #: "default_rng" -> "numpy.random.default_rng")
        self.imports: dict[str, str] = {}
        #: enclosing function names, innermost last
        self.function_stack: list[str] = []
        #: per enclosing function: names of functions defined *inside*
        #: it (those never pickle across an Executor boundary)
        self.local_function_names: list[set[str]] = []
        #: enclosing classes, innermost last (prescanned summaries)
        self.class_stack: list[ClassInfo] = []
        #: lock attributes statically held at the current node —
        #: ``with self.<lock>:`` entries plus ``holds()`` escapes
        self.held_locks: list[str] = []
        self.findings: list[Finding] = []

    # -- queries ----------------------------------------------------------

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a name/attribute chain, or ``None``.

        ``np.random.default_rng`` resolves to
        ``"numpy.random.default_rng"`` under ``import numpy as np``;
        unknown roots stay unresolved rather than guessed.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    @property
    def current_function(self) -> str | None:
        """Name of the innermost enclosing function, if any."""
        return self.function_stack[-1] if self.function_stack else None

    def in_locally_defined(self, name: str) -> bool:
        """Whether ``name`` is a function defined inside an enclosing
        function (hence unpicklable by reference)."""
        return any(name in local for local in self.local_function_names)

    @property
    def current_class(self) -> ClassInfo | None:
        """Prescan of the innermost enclosing class, if any."""
        return self.class_stack[-1] if self.class_stack else None

    def with_locks(self, node: ast.With | ast.AsyncWith) -> list[str]:
        """Declared locks entered by a ``with`` statement.

        Only ``with self.<attr>:`` items where ``<attr>`` is a known
        lock of the enclosing class count — a file handle in the same
        statement does not.
        """
        info = self.current_class
        if info is None:
            return []
        entered = []
        for item in node.items:
            attr = _is_self_attr(item.context_expr)
            if attr is not None and attr in info.locks:
                entered.append(attr)
        return entered

    def holds_escapes(
            self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        """Locks a ``# lint: holds(<lock>)`` signature comment asserts.

        The comment lives on the ``def`` line (or the closing line of a
        multi-line signature) and is the checkable replacement for a
        "caller holds the lock" docstring: REP101/REP102/REP105 treat
        the named locks as held throughout the body.
        """
        start = node.lineno - 1
        end = max(node.lineno, node.body[0].lineno - 1) if node.body \
            else node.lineno
        names: list[str] = []
        for line in self.lines[start:end]:
            match = _HOLDS_RE.search(line)
            if match:
                names.extend(part.strip() for part in
                             match.group(1).split(",") if part.strip())
        return names

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- reporting --------------------------------------------------------

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(
            rule=rule, path=self.rel_path, line=lineno, col=col,
            message=message, code_line=self.source_line(lineno)))


def _record_import(ctx: ModuleContext, node: ast.AST) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            origin = alias.name if alias.asname else \
                alias.name.partition(".")[0]
            ctx.imports[local] = origin
    elif isinstance(node, ast.ImportFrom):
        if node.level or node.module is None:
            return  # relative imports never reach numpy/stdlib roots
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            ctx.imports[local] = f"{node.module}.{alias.name}"


def _scan_class(node: ast.ClassDef) -> ClassInfo:
    """One-pass summary of a class body for the concurrency rules.

    Collects ``guarded_by`` declarations and lock-typed class
    attributes from the body's top level, then sweeps the methods for
    ``self.<attr> = ...`` assignments to learn which attributes hold
    locks and what constructors shared attributes are built from.
    This inspects the subtree the walk is about to visit anyway — it
    is not a second parse.
    """
    info = ClassInfo(node.name)
    for stmt in node.body:
        target: str | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        if target is None or not isinstance(value, ast.Call):
            continue
        name = _call_name(value.func)
        if name == "guarded_by" and value.args \
                and isinstance(value.args[0], ast.Constant) \
                and isinstance(value.args[0].value, str):
            info.guarded[target] = value.args[0].value
        elif name in LOCK_CONSTRUCTORS:
            info.locks.add(target)
    for method in node.body:
        if not isinstance(method,
                          (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        info.methods[method.name] = method
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign):
                targets: list[ast.expr] = list(sub.targets)
                assigned = sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, assigned = [sub.target], sub.value
            else:
                continue
            for tgt in targets:
                attr = _is_self_attr(tgt)
                if attr is None:
                    continue
                for call in ast.walk(assigned):
                    if not isinstance(call, ast.Call):
                        continue
                    name = _call_name(call.func)
                    if name is None:
                        continue
                    info.attr_types.setdefault(attr, set()).add(name)
                    if name in LOCK_CONSTRUCTORS:
                        info.locks.add(attr)
    info.locks.update(info.guarded.values())
    return info


class _Walker:
    """Single recursive traversal dispatching to every rule."""

    def __init__(self, ctx: ModuleContext, rules: list["Rule"]) -> None:
        self.ctx = ctx
        self.rules = rules

    def walk(self, tree: ast.Module) -> None:
        # Imports are collected up front so a use that precedes a
        # function-local import in source order still resolves.
        for node in ast.walk(tree):
            _record_import(self.ctx, node)
        for child in tree.body:
            self._visit(child)

    def _visit(self, node: ast.AST) -> None:
        # Structural handlers push context *after* rule dispatch, so a
        # rule looking at e.g. a `with self._lock:` statement sees the
        # held-lock state from *outside* it (what REP105 needs).
        if isinstance(node, ast.ClassDef):
            self.ctx.class_stack.append(_scan_class(node))
        for rule in self.rules:
            if isinstance(node, rule.interests):
                rule.visit(node, self.ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node)
            return
        if isinstance(node, ast.ClassDef):
            try:
                for child in ast.iter_child_nodes(node):
                    self._visit(child)
            finally:
                self.ctx.class_stack.pop()
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        ctx = self.ctx
        entered = ctx.with_locks(node)
        ctx.held_locks.extend(entered)
        try:
            for child in ast.iter_child_nodes(node):
                self._visit(child)
        finally:
            if entered:
                del ctx.held_locks[-len(entered):]

    def _visit_function(
            self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        ctx = self.ctx
        ctx.function_stack.append(node.name)
        ctx.local_function_names.append({
            child.name for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node})
        # A nested def's body does not run under the enclosing `with`;
        # it starts from whatever its holds() escape asserts.
        saved_held = ctx.held_locks
        ctx.held_locks = ctx.holds_escapes(node)
        try:
            for child in ast.iter_child_nodes(node):
                self._visit(child)
        finally:
            ctx.held_locks = saved_held
            ctx.function_stack.pop()
            ctx.local_function_names.pop()


def check_source(source: str, *, path: str = "<string>",
                 config: LintConfig | None = None) -> list[Finding]:
    """Lint one module's source text; returns fingerprinted findings.

    ``path`` should be the repo-relative posix path — it drives the
    per-path rule scoping and baseline identity.  A syntax error is
    itself reported as a ``REP000`` finding: an unparseable module on
    the determinism path is never "clean".
    """
    from .rules import active_rules

    cfg = config if config is not None else LintConfig()
    ctx = ModuleContext(path, source, cfg)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        node = ast.Module(body=[], type_ignores=[])
        node.lineno = exc.lineno or 1  # type: ignore[attr-defined]
        node.col_offset = (exc.offset or 1) - 1  # type: ignore[attr-defined]
        ctx.report("REP000", node, f"module does not parse: {exc.msg}")
        return fingerprint_findings(ctx.findings)
    _Walker(ctx, active_rules(cfg, path)).walk(tree)
    return fingerprint_findings(ctx.findings)


def iter_files(paths: Iterable[str | Path],
               root: str | Path = ".") -> Iterator[Path]:
    """Python files under ``paths``, deterministically sorted.

    Directory entries expand recursively; missing paths raise — a
    silently-skipped tree would report itself clean.
    """
    base = Path(root)
    seen: set[Path] = set()
    for raw in paths:
        target = Path(raw)
        if not target.is_absolute():
            target = base / target
        if target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        elif target.is_file():
            candidates = [target]
        else:
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def check_paths(paths: Iterable[str | Path] | None = None, *,
                root: str | Path = ".",
                config: LintConfig | None = None) -> list[Finding]:
    """Lint files/directories against ``config``.

    ``paths`` defaults to the configured check paths.  Returned
    findings are sorted (path, line, col) with stable fingerprints,
    ready for baseline matching.
    """
    cfg = config if config is not None else LintConfig()
    chosen = tuple(paths) if paths else cfg.paths
    findings: list[Finding] = []
    base = Path(root)
    for file_path in iter_files(chosen, root=base):
        rel_posix = PurePath(
            os.path.relpath(file_path, base)).as_posix()
        source = file_path.read_text(encoding="utf-8")
        findings.extend(check_source(source, path=rel_posix,
                                     config=cfg))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col,
                                           f.rule))
