"""resource-discipline: tracked allocations must be freed on every path.

The checker recognises handle-creating calls — ``<tracker>.allocate(...)``,
``<tracker>.acquire(...)``, ``<tracker>.track_array(...)`` where the
receiver mentions a tracker, arena construction (``FrontArena(...)``) and
ownership-transferring tuple returns (``take_schur()``) — and follows the
handle through the control-flow graph of the enclosing scope
(:mod:`tools.analysis.engine`):

* a discarded handle (bare expression statement) is a leak (RES001);
* a handle bound to a local must reach ``.free()`` on every path
  (``if``/``else`` branches, early ``return``) or escape — be returned,
  stored into a container/attribute, or passed to another call, all of
  which transfer ownership (RES002);
* freeing a handle twice on one path is a static double-free (RES003);
* rebinding a name that still holds a live handle loses it (RES004);
* a handle stored on ``self`` must have a matching ``self.<attr>.free()``
  somewhere in the class (RES005);
* ``borrow()`` is a context manager; calling it outside ``with`` never
  releases (RES006);
* calling ``.resize()`` after ``.free()`` on the same path is a
  use-after-free (RES007);
* a handle that is live when an exception escapes the scope leaks on the
  exception path (RES008) — the flow-sensitive engine models exception
  edges out of every call, ``raise`` and ``assert``, duplicates
  ``finally`` suites per continuation, and distinguishes the normal path
  from the unwind path, so ``try``/``finally`` cleanup is credited
  exactly where it runs.

RES008 is the contract PR 2's lexical checker could not express: the
trackers *are* per-run objects, but the panel runtime recycles tracker
budget across panels inside one run, so a handle leaked on an admission
failure is real budget gone for the rest of the factorization.  Fix by
freeing in an ``except``/``finally`` before the exception propagates, or
waive with ``# resource-ok: <reason>`` on the allocation line when the
leak is provably benign.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from tools.analysis.base import (
    Checker,
    Finding,
    ModuleSource,
    attribute_chain,
    receiver_root,
)
from tools.analysis.config import (
    ALLOC_METHODS,
    ALLOC_TUPLE_METHODS,
    ARENA_CONSTRUCTORS,
    ARENA_KEEPALIVE_METHODS,
    BORROW_METHOD,
    TRACKER_RECEIVER_HINT,
)
from tools.analysis.engine import (Analysis, Node, iter_scopes,
                                   none_test_name, run_analysis)

LIVE = "live"
FREED = "freed"
#: ``free()`` itself raised: the charge is released (tracker frees are
#: idempotent), but a defensive re-free in the handler is *not* a double
#: free — it is the correct cleanup pattern.
FREED_UNWIND = "freed-unwinding"
#: The handle escaped through a ``return`` still pending unwind: safe on
#: the normal path, leaked if an exception discards the return value.
RETURNED = "returned"


def _is_tracker_receiver(node: ast.AST) -> bool:
    """Heuristic: the receiver of the method mentions a tracker."""
    chain = attribute_chain(node)
    root = receiver_root(node)
    parts = chain[:-1] + ([root] if root else [])
    return any(TRACKER_RECEIVER_HINT in p.lower() for p in parts if p)


def alloc_call(node: ast.AST) -> Optional[str]:
    """The allocating method name when ``node`` is a handle-creating call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ALLOC_METHODS
        and _is_tracker_receiver(node.func)
    ):
        return node.func.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ARENA_CONSTRUCTORS
    ):
        # constructing an arena creates the tracked workspace handle
        return node.func.id
    return None


def tuple_alloc_call(node: ast.AST) -> Optional[str]:
    """Ownership-transferring tuple return (``take_schur`` -> (data, alloc))."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ALLOC_TUPLE_METHODS
    ):
        return node.func.attr
    return None


def borrow_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == BORROW_METHOD
        and _is_tracker_receiver(node.func)
    )


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


#: Environment: sorted tuple of (name, status, alloc_line).
Env = Tuple[Tuple[str, str, int], ...]


def _to_env(state: Dict[str, Tuple[str, int]]) -> Env:
    return tuple(sorted(
        (name, status, line) for name, (status, line) in state.items()
    ))


def _to_state(env: Env) -> Dict[str, Tuple[str, int]]:
    return {name: (status, line) for name, status, line in env}


class _ResourceAnalysis(Analysis):
    """Handle liveness over one scope's CFG (path- and exception-sensitive)."""

    def __init__(self, label: str, is_method: bool):
        super().__init__()
        self.label = label
        self.is_method = is_method
        #: self.<attr> allocations seen in this scope: attr -> line.
        self.self_allocs: Dict[str, int] = {}

    # -- dataflow interface ---------------------------------------------------
    def initial(self) -> Env:
        return ()

    def at_exit(self, env: Env) -> None:
        for name, status, line in env:
            if status == LIVE:
                self.report(
                    "RES002", line,
                    f"handle '{name}' allocated here is never freed "
                    f"on a path reaching the end of {self.label} (free it "
                    f"on every path, or use 'with tracker.borrow(...)')",
                )

    def at_raise_exit(self, env: Env) -> None:
        for name, status, line in env:
            if status in (LIVE, RETURNED):
                self.report(
                    "RES008", line,
                    f"handle '{name}' allocated here leaks when an "
                    f"exception escapes {self.label} — free it in an "
                    f"'except'/'finally' before the exception propagates",
                )

    def transfer(self, node: Node, env: Env, edge: str) -> Iterable[Env]:
        state = _to_state(env)
        stmt = node.stmt
        if node.kind == "assume":
            # a tracked handle is definitely not None: prune the branch
            # arm that asserts it is (`if alloc is not None: alloc.free()`
            # cleanup would otherwise look skippable)
            decomposed = none_test_name(stmt) if stmt is not None else None
            if decomposed is not None:
                name, none_when_true = decomposed
                if name in state:
                    infeasible = (none_when_true == (node.meta == "then"))
                    if infeasible:
                        return []
            return [env]
        if node.kind == "stmt" and isinstance(stmt, (ast.Assign,
                                                     ast.AnnAssign,
                                                     ast.AugAssign)):
            self._assign(stmt, state, edge)
        elif node.kind == "stmt" and isinstance(stmt, ast.Expr):
            self._expr(stmt, state, edge)
        elif node.kind == "with_enter" and isinstance(stmt, ast.With):
            self._with_enter(stmt, state, edge)
        elif node.kind == "return":
            value = stmt.value if isinstance(stmt, ast.Return) else None
            if value is not None:
                for name in _names_in(value) & set(state):
                    status, line = state[name]
                    if status == LIVE:
                        state[name] = (RETURNED, line)
        elif node.kind == "raise":
            for expr in node.exprs:
                self._escape(state, expr)
        elif node.kind in ("branch", "loop", "handler", "with_exit", "join",
                          "dispatch", "entry"):
            pass  # tests/iterators do not consume ownership
        elif node.kind == "stmt" and stmt is not None:
            # default: any handle mentioned escapes (conservative)
            self._escape(state, stmt)
        return [_to_env(state)]

    # -- transfer helpers -----------------------------------------------------
    def _escape(self, state: Dict, node: ast.AST,
                keep: Set[str] = frozenset()) -> None:
        """Ownership transfer: stop tracking names mentioned in ``node``."""
        for name in _names_in(node):
            if name in state and name not in keep:
                del state[name]

    def _assign(self, stmt, state: Dict, edge: str) -> None:
        value = stmt.value
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        if value is None:  # bare annotation
            return
        method = alloc_call(value)
        if method is None and borrow_call(value):
            if edge == "normal":
                self.report(
                    "RES006", stmt.lineno,
                    "borrow() is a context manager; assigning it never "
                    "releases the charge — use 'with tracker.borrow(...)'",
                )
            return
        if method is not None and len(targets) == 1:
            target = targets[0]
            if edge == "exc":
                return  # the allocating call itself raised: no handle
            if isinstance(target, ast.Name):
                prev = state.get(target.id)
                if prev is not None and prev[0] == LIVE:
                    self.report(
                        "RES004", stmt.lineno,
                        f"rebinding '{target.id}' loses the live handle "
                        f"allocated at line {prev[1]}",
                    )
                state[target.id] = (LIVE, stmt.lineno)
                return
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self.self_allocs.setdefault(target.attr, stmt.lineno)
                return
            # other targets (containers, foreign attributes): ownership
            # escapes to the target
            return
        if tuple_alloc_call(value) is not None and len(targets) == 1:
            # ``data, alloc = x.take_schur()``: the trailing element is
            # the transferred handle
            if edge == "exc":
                return
            target = targets[0]
            if (isinstance(target, (ast.Tuple, ast.List)) and target.elts
                    and isinstance(target.elts[-1], ast.Name)):
                handle = target.elts[-1].id
                prev = state.get(handle)
                if prev is not None and prev[0] == LIVE:
                    self.report(
                        "RES004", stmt.lineno,
                        f"rebinding '{handle}' loses the live handle "
                        f"allocated at line {prev[1]}",
                    )
                state[handle] = (LIVE, stmt.lineno)
            return
        # a keepalive-method result (``view = arena.frame(...)``) borrows
        # from the arena without transferring ownership: check for use
        # after free, keep tracking the arena itself
        keep: Set[str] = set()
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ARENA_KEEPALIVE_METHODS
                and isinstance(value.func.value, ast.Name)):
            owner = value.func.value.id
            keep.add(owner)
            prev = state.get(owner)
            if (prev is not None and prev[0] in (FREED, FREED_UNWIND)
                    and edge == "normal"):
                self.report(
                    "RES007", stmt.lineno,
                    f"{value.func.attr}() on '{owner}' after "
                    f"free() — use after free",
                )
        # non-allocating assignment: rebinding a live handle loses it;
        # handles mentioned on the RHS escape into the new binding
        if edge == "normal":
            for target in targets:
                if isinstance(target, ast.Name):
                    prev = state.get(target.id)
                    if prev is not None and prev[0] == LIVE:
                        self.report(
                            "RES004", stmt.lineno,
                            f"rebinding '{target.id}' loses the live handle "
                            f"allocated at line {prev[1]}",
                        )
                    state.pop(target.id, None)
        self._escape(state, value, keep=keep)

    def _expr(self, stmt: ast.Expr, state: Dict, edge: str) -> None:
        value = stmt.value
        if alloc_call(value) is not None or tuple_alloc_call(value):
            if edge == "normal":
                self.report(
                    "RES001", stmt.lineno,
                    "allocation handle is discarded — the charge can never "
                    "be released",
                )
            return
        if borrow_call(value):
            if edge == "normal":
                self.report(
                    "RES006", stmt.lineno,
                    "borrow() outside 'with' never releases the charge",
                )
            return
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)):
            owner = value.func.value.id
            if value.func.attr == "free":
                prev = state.get(owner)
                if prev is not None:
                    if prev[0] == FREED:
                        if edge == "normal":
                            self.report(
                                "RES003", stmt.lineno,
                                f"'{owner}' (allocated at line {prev[1]}) is "
                                f"already freed on this path — double free",
                            )
                    else:
                        # the free is credited on the exception edge too
                        # (but as FREED_UNWIND: a handler re-freeing after
                        # a free that raised mid-release is defensive, not
                        # a double free)
                        state[owner] = (
                            FREED if edge == "normal" else FREED_UNWIND,
                            prev[1],
                        )
                return
            if (value.func.attr == "resize"
                    or value.func.attr in ARENA_KEEPALIVE_METHODS):
                prev = state.get(owner)
                if (prev is not None and prev[0] in (FREED, FREED_UNWIND)
                        and edge == "normal"):
                    self.report(
                        "RES007", stmt.lineno,
                        f"{value.func.attr}() on '{owner}' after "
                        f"free() — use after free",
                    )
                # resize/ensure/frame/reset recycle the workspace without
                # releasing it: the handle stays live, no transfer
                return
        self._escape(state, value)

    def _with_enter(self, stmt: ast.With, state: Dict, edge: str) -> None:
        for item in stmt.items:
            if alloc_call(item.context_expr) is not None and edge == "normal":
                self.report(
                    "RES001", stmt.lineno,
                    "allocate()/acquire() handles are not context managers; "
                    "use 'with tracker.borrow(...)' for scoped charges",
                )
            self._escape(state, item.context_expr)


class ResourceDisciplineChecker(Checker):
    name = "resource-discipline"
    waiver = "resource-ok"

    def check(self, mod: ModuleSource) -> List[Finding]:
        findings = list(self.check_waivers(mod))
        # class -> {attr: alloc line} for the RES005 pairing check
        class_allocs: Dict[ast.ClassDef, Dict[str, int]] = {}

        for scope in iter_scopes(mod.tree):
            analysis = _ResourceAnalysis(scope.label,
                                         scope.enclosing_class is not None)
            for code, line, message in run_analysis(scope.cfg(), analysis):
                f = self.finding(mod, code, line, message)
                if f is not None:
                    findings.append(f)
            if analysis.self_allocs and scope.enclosing_class is not None:
                dest = class_allocs.setdefault(scope.enclosing_class, {})
                for attr, line in analysis.self_allocs.items():
                    dest.setdefault(attr, line)

        for cls, allocs in class_allocs.items():
            freed = self._class_freed_attrs(cls)
            for attr, line in sorted(allocs.items()):
                if attr not in freed:
                    f = self.finding(
                        mod, "RES005", line,
                        f"allocation stored on self.{attr} has no "
                        f"matching self.{attr}.free() anywhere in "
                        f"class {cls.name}",
                    )
                    if f is not None:
                        findings.append(f)
        return findings

    def _class_freed_attrs(self, cls: ast.ClassDef) -> Set[str]:
        freed = set()
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "free"
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == "self"):
                freed.add(node.func.value.attr)
        return freed
