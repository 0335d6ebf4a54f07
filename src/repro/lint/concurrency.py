"""The six thread-safety rules (REP101..REP106).

The concurrency siblings of the determinism family: they run in the
*same* shared AST walk (:mod:`repro.lint.engine` dispatches one
traversal to both families — no second parse pass) and are driven by
the in-code annotations :mod:`repro.sim.sync` provides:

REP101  guarded-attribute access outside its lock — an attribute
        declared ``guarded_by("<lock>")`` may only be touched inside
        ``with self.<lock>:`` (or in a helper whose signature carries
        the ``# lint: holds(<lock>)`` escape).
REP102  blocking call under a lock — HTTP, subprocess, sleeps,
        evaluation entry points, and non-atomic disk writes must never
        run while a declared lock is held.
REP103  mutable class-level attribute on a shared singleton class —
        a ``dict``/``list``/``set`` in the class body of a
        once-instantiated, cross-thread object is process-global
        state in disguise.
REP104  ``threading.Thread`` without an explicit ``daemon=`` — the
        shutdown behavior of every thread must be a decision, not a
        default.
REP105  nested acquisition of a different declared lock — static
        lock-order discipline; pairs must be whitelisted in
        ``[tool.repro-lint] lock-order`` as ``"outer->inner"``.
REP106  shared-cache mutation from executor-boundary code on an object
        not declared thread-safe — caches crossing thread boundaries
        must be internally synchronized.
"""

from __future__ import annotations

import ast

from .config import LintConfig, path_selected
from .engine import ModuleContext, _call_name, _is_self_attr
from .rules import Rule

__all__ = ["CONCURRENCY_RULES"]

#: methods where lock-free guarded access is fine: the object is not
#: yet (or no longer) shared, or the interpreter guarantees exclusivity.
_REP101_EXEMPT = frozenset({
    "__init__", "__new__", "__post_init__",
    "__getstate__", "__setstate__", "__del__",
})

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "defaultdict", "deque", "OrderedDict",
    "Counter",
})


class Rep101GuardedAccess(Rule):
    """Guarded attributes may only be touched while their lock is held.

    A class-level ``attr = guarded_by("_lock")`` declaration is a
    contract: every read or write of ``self.attr`` in the class body
    must sit inside ``with self._lock:``.  Helpers documented as
    called-under-lock carry ``# lint: holds(_lock)`` on their ``def``
    line, which this rule honors (and the runtime watchdog verifies).
    Fix: widen the ``with`` block, add the ``holds()`` escape to a
    caller-holds-the-lock helper, or stop sharing the attribute.
    """

    code = "REP101"
    category = "concurrency"
    title = "guarded attribute accessed without its lock"
    interests = (ast.Attribute,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Attribute)
        info = ctx.current_class
        if info is None:
            return
        attr = _is_self_attr(node)
        if attr is None or attr not in info.guarded:
            return
        where = ctx.current_function
        if where is None or where in _REP101_EXEMPT:
            return
        lock = info.guarded[attr]
        if lock in ctx.held_locks:
            return
        ctx.report(
            self.code, node,
            f"'self.{attr}' is declared guarded_by({lock!r}) but is "
            f"accessed in {where}() without holding self.{lock}; wrap "
            f"in 'with self.{lock}:' or mark the helper with "
            f"'# lint: holds({lock})'")


class Rep102BlockingUnderLock(Rule):
    """Never block (or write files non-atomically) while holding a lock.

    A lock held across HTTP, subprocess, ``time.sleep``, an
    ``evaluate``/``sample_run`` call, or a plain disk write serializes
    every other thread behind I/O latencies.  Fix: compute the value
    outside the critical section and only publish it under the lock
    (racing duplicate work is fine when the value is a pure function
    of its key); only atomic renames (``os.replace``) of pre-written
    temp files are exempt.  Reviewed-safe remnants go into the
    baseline with a reason.

    A ``self.<method>(...)`` call made under the lock is followed one
    level into that method of the same class, and a blocking call in
    its body is reported at the call site.  A method whose signature
    carries ``# lint: holds(<lock>)`` is not followed: its body is
    already checked as running under the lock.
    """

    code = "REP102"
    category = "concurrency"
    title = "blocking call while holding a lock"
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        if not ctx.held_locks:
            return
        held = ctx.held_locks[-1]
        blocking = self._blocking(node, ctx)
        if blocking is not None:
            ctx.report(
                self.code, node,
                f"'{blocking}' may block while self.{held} is held; "
                f"move it outside the critical section")
            return
        name = _is_self_attr(node.func)
        info = ctx.current_class
        if name is None or info is None or name not in info.methods \
                or held in ctx.holds_escapes(info.methods[name]):
            return
        inner = sorted((call.lineno, blocking)
                       for call in ast.walk(info.methods[name])
                       if isinstance(call, ast.Call)
                       and (blocking := self._blocking(call, ctx)))
        if inner:
            line, blocking = inner[0]
            ctx.report(
                self.code, node,
                f"'self.{name}()' runs '{blocking}' (line {line}) while "
                f"self.{held} is held; move the call outside the "
                f"critical section, or mark the helper "
                f"'# lint: holds({held})' so its body is checked")

    def _blocking(self, node: ast.Call, ctx: ModuleContext) -> str | None:
        """The blocking target ``node`` calls — a dotted origin, or
        ``.name()`` for a configured method name — else ``None``."""
        resolved = ctx.resolve(node.func)
        if resolved is not None:
            for entry in self.config.rep102_blocking:
                if resolved.startswith(entry) if entry.endswith(".") \
                        else resolved == entry:
                    return resolved
        name = _call_name(node.func)
        if name in self.config.rep102_blocking_methods:
            return f".{name}()"
        return None


class Rep103MutableClassAttr(Rule):
    """Shared singleton classes must not carry mutable class attributes.

    The configured classes (broker, caches, stores, clients) are
    instantiated once and shared across threads; a ``dict``/``list``/
    ``set`` in their class body is shared by *every* instance and
    mutates without any lock ever being declared for it.  Fix: move
    the attribute into ``__init__`` (and guard it), or make it an
    immutable tuple/frozenset/constant.
    """

    code = "REP103"
    category = "concurrency"
    title = "mutable class-level attribute on a shared class"
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.ClassDef)
        if node.name not in self.config.rep103_classes:
            return
        for stmt in node.body:
            target: str | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0].id, stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                target, value = stmt.target.id, stmt.value
            if target is None or value is None:
                continue
            if self._is_mutable(value):
                ctx.report(
                    self.code, value,
                    f"class-level '{target}' on shared class "
                    f"'{node.name}' is mutable and visible to every "
                    f"thread; move it into __init__ under a lock or "
                    f"make it immutable")

    @staticmethod
    def _is_mutable(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set,
                              ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        return (isinstance(value, ast.Call)
                and _call_name(value.func) in _MUTABLE_CONSTRUCTORS)


class Rep104ThreadDaemon(Rule):
    """Every thread must pick its shutdown story explicitly.

    ``threading.Thread(...)`` without ``daemon=`` inherits the parent's
    flag — usually non-daemon, so a forgotten thread blocks process
    exit (or, flipped, dies mid-write).  Fix: pass ``daemon=True`` for
    best-effort background work, or ``daemon=False`` plus an explicit
    join/stop path for work that must complete.
    """

    code = "REP104"
    category = "concurrency"
    title = "threading.Thread without explicit daemon="
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        if ctx.resolve(node.func) != "threading.Thread":
            return
        if any(kw.arg == "daemon" for kw in node.keywords):
            return
        ctx.report(
            self.code, node,
            "threading.Thread created without explicit daemon=; "
            "decide the shutdown behavior (daemon=True, or "
            "daemon=False with a join/stop path)")


class Rep105LockOrder(Rule):
    """Acquiring a second declared lock needs a whitelisted order.

    Nested ``with self.<lockB>:`` inside ``with self.<lockA>:`` (for
    different declared locks) is how deadlocks are built; any such
    pair must be declared in ``[tool.repro-lint] lock-order`` as
    ``"lockA->lockB"`` — making the global acquisition order a
    reviewed, single-direction contract.  The runtime
    ``WatchedLock`` watchdog enforces the same ordering dynamically.
    Fix: restructure to one lock per critical section, or whitelist
    the ordered pair.
    """

    code = "REP105"
    category = "concurrency"
    title = "nested acquisition of a different declared lock"
    interests = (ast.With, ast.AsyncWith)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, (ast.With, ast.AsyncWith))
        entered = ctx.with_locks(node)
        if not entered:
            return
        allowed = {"".join(entry.split())
                   for entry in self.config.lock_order}
        for inner in entered:
            for outer in ctx.held_locks:
                if outer == inner:
                    continue  # reentrant re-acquisition
                if f"{outer}->{inner}" in allowed:
                    continue
                ctx.report(
                    self.code, node,
                    f"acquiring self.{inner} while holding "
                    f"self.{outer}; whitelist "
                    f"'{outer}->{inner}' in [tool.repro-lint] "
                    f"lock-order or restructure to one lock per "
                    f"critical section")


class Rep106SharedCacheMutation(Rule):
    """Executor-boundary code may only mutate thread-safe caches.

    In the configured executor-boundary modules (thread-pool
    executors, worker loops), ``self.<cache>.<mutator>(...)`` runs on
    arbitrary pool threads; the attribute must be built from a class
    reviewed as internally synchronized ([tool.repro-lint]
    rep106-threadsafe).  Fix: synchronize the cache class (declare
    its state ``guarded_by`` a lock) and add it to the thread-safe
    list, or marshal mutations back to a single owner thread.
    """

    code = "REP106"
    category = "concurrency"
    title = "shared-cache mutation from executor-boundary code"
    interests = (ast.Call,)

    @classmethod
    def applies_to(cls, config: LintConfig, rel_path: str) -> bool:
        if not config.rule_enabled(cls.code):
            return False
        return path_selected(rel_path, config.rep106_exec_paths)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in self.config.rep106_mutators:
            return
        attr = _is_self_attr(func.value)
        if attr is None or attr not in self.config.rep106_shared_attrs:
            return
        info = ctx.current_class
        types = info.attr_types.get(attr, set()) if info else set()
        if not types:
            return  # provenance unknown; stay silent, not wrong
        if types & set(self.config.rep106_threadsafe):
            return
        built = ", ".join(sorted(types))
        ctx.report(
            self.code, node,
            f"'self.{attr}.{func.attr}()' mutates a shared object "
            f"(built from {built}) on an executor-boundary path, but "
            f"none of its types are declared rep106-threadsafe; "
            f"synchronize the class or marshal the mutation to one "
            f"thread")


#: the concurrency family, in code order.
CONCURRENCY_RULES: tuple[type[Rule], ...] = (
    Rep101GuardedAccess,
    Rep102BlockingUnderLock,
    Rep103MutableClassAttr,
    Rep104ThreadDaemon,
    Rep105LockOrder,
    Rep106SharedCacheMutation,
)
