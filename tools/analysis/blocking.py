"""blocking-under-lock: never wait for another thread while holding a lock.

The deadlock shape PR 5's drain-and-retry admission exists to avoid: a
thread holding a :data:`~tools.analysis.config.LOCK_HIERARCHY` lock
blocks on progress (a future's ``result()``, a condition ``wait``, a
blocking ``acquire``, a pool ``submit`` on a saturated queue) that can
only be made by another thread which needs that same lock.  The checker
runs the held-lock-set dataflow, so a wait after the ``with`` released
the lock — or on an exception edge past the release — is not flagged.

* BLK001 — a blocking call (``Condition.wait``/``wait_for``, a
  ``Future.result``/``join`` on a future/thread-shaped receiver, a
  ``.acquire(timeout=...)`` or a blocking tracker ``acquire``) while a
  hierarchy lock is held.  The one sanctioned shape is waiting on the
  *only* held lock itself (``with self._cond: self._cond.wait()``) —
  ``Condition.wait`` atomically releases it while sleeping.
* BLK002 — a pool interaction (``submit``/``map``/``shutdown`` on an
  executor/pool-shaped receiver) while a hierarchy lock is held: pool
  submission can block on a full call queue and completion callbacks may
  take scheduler locks.
* BLK003 — thread-blocking work called directly (non-awaited) inside an
  ``async def`` body of the serving layer
  (:data:`~tools.analysis.config.ASYNC_SERVING_PATH_FRAGMENTS`): a panel
  ``solve``, a factor-cache ``get_or_build``, a concurrent-futures
  ``result``/``join``, a threading ``wait``/``wait_for`` or a blocking
  tracker ``acquire`` stalls the event loop — and with it every batch
  linger timer and every other connection.  The sanctioned shape is a
  nested sync ``def`` thunk handed to ``loop.run_in_executor`` (nested
  function bodies are exempt: they run on executor threads).  ``await``
  of an asyncio primitive with the same method name (``event.wait()``,
  ``lock.acquire()`` under ``await``/``async with``) is fine.

Waive with ``# blk-ok: <reason>``.
"""

from __future__ import annotations

import ast
from typing import List

from tools.analysis.base import Checker, Finding, ModuleSource, \
    attribute_chain, receiver_root
from tools.analysis.config import (
    ASYNC_BLOCKING_METHODS,
    ASYNC_SERVING_PATH_FRAGMENTS,
    BLOCKING_RECEIVER_HINTS,
    POOL_RECEIVER_HINTS,
    TRACKER_RECEIVER_HINT,
)
from tools.analysis.engine import Node, iter_scopes, run_analysis, \
    walk_expressions
from tools.analysis.engine.locksets import LockTrackingAnalysis, self_attr

_POOL_METHODS = frozenset({"submit", "map", "shutdown"})


def _receiver_text(func: ast.Attribute) -> str:
    """Lower-cased dotted receiver (``self._done_futs.pop`` -> self._done_futs)."""
    root = receiver_root(func) or ""
    chain = attribute_chain(func)[:-1]
    return ".".join([root] + chain).lower()


def _false_keyword(call: ast.Call, names) -> bool:
    """True when the call passes ``<name>=False`` for one of ``names``."""
    for kw in call.keywords:
        if (kw.arg in names and isinstance(kw.value, ast.Constant)
                and kw.value.value is False):
            return True
    return False


class _BlockingAnalysis(LockTrackingAnalysis):
    def __init__(self, context: str):
        super().__init__()
        self.context = context

    def on_node(self, node: Node, held) -> None:
        if not held:
            return
        for expr in node.exprs:
            for sub in walk_expressions(expr):
                if isinstance(sub, ast.Call):
                    self._check_call(sub, held)

    def _check_call(self, call: ast.Call, held) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        attr = call.func.attr
        receiver = _receiver_text(call.func)
        held_desc = "', '".join(held)

        def blocked(what: str, code: str = "BLK001") -> None:
            self.report(
                code, call.lineno,
                f"{what} while holding '{held_desc}' in {self.context} — "
                f"the awaited progress may need the held lock (deadlock "
                f"shape); release first, or drain-and-retry non-blocking",
            )

        if attr in ("wait", "wait_for"):
            lock_attr = self_attr(call.func.value)
            if lock_attr is not None and lock_attr in held:
                if len(held) == 1:
                    return  # Condition.wait releases the lock it waits on
                blocked(f"'{receiver}.{attr}()' releases only its own lock "
                        f"while sleeping")
                return
            blocked(f"blocking '{receiver}.{attr}()'")
            return
        if attr in ("result", "join"):
            if any(h in receiver for h in BLOCKING_RECEIVER_HINTS):
                blocked(f"blocking '{receiver}.{attr}()'")
            return
        if attr == "acquire":
            if _false_keyword(call, ("block", "blocking")):
                return
            if (TRACKER_RECEIVER_HINT in receiver
                    or any(kw.arg == "timeout" for kw in call.keywords)):
                blocked(f"blocking '{receiver}.acquire(...)' admission")
            return
        if attr in _POOL_METHODS:
            if any(h in receiver for h in POOL_RECEIVER_HINTS):
                blocked(f"pool interaction '{receiver}.{attr}()'", "BLK002")


def _in_serving_layer(mod: ModuleSource) -> bool:
    posix = mod.path.as_posix()
    return any(frag in posix for frag in ASYNC_SERVING_PATH_FRAGMENTS)


def _awaited_calls(func: ast.AsyncFunctionDef) -> set:
    """ids of Call nodes that are the direct operand of an ``await``."""
    return {
        id(node.value) for node in ast.walk(func)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
    }


def _pruned_body_walk(func: ast.AsyncFunctionDef):
    """Walk ``func``'s body, skipping nested function scopes entirely.

    Nested sync ``def`` bodies are the run_in_executor thunks — blocking
    there is the whole point; nested ``async def`` bodies are visited as
    their own BLK003 scope.
    """
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


#: ``.acquire()`` receivers that actually block a thread (an asyncio
#: ``lock.acquire()`` would be awaited and is skipped before this gate).
_ASYNC_ACQUIRE_HINTS = ("tracker", "lock", "cond", "sem")


class BlockingUnderLockChecker(Checker):
    name = "blocking-under-lock"
    waiver = "blk-ok"

    def check(self, mod: ModuleSource) -> List[Finding]:
        findings = list(self.check_waivers(mod))
        for scope in iter_scopes(mod.tree):
            if scope.is_module:
                continue
            if mod.waived(scope.node.lineno, "blk-ok"):
                continue
            analysis = _BlockingAnalysis(scope.label)
            for code, line, message in run_analysis(scope.cfg(), analysis):
                f = self.finding(mod, code, line, message)
                if f is not None:
                    findings.append(f)
        if _in_serving_layer(mod):
            findings.extend(self._check_async_bodies(mod))
        return findings

    # -- BLK003: event-loop protection -----------------------------------------
    def _check_async_bodies(self, mod: ModuleSource) -> List[Finding]:
        findings = []
        for func in ast.walk(mod.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            if mod.waived(func.lineno, "blk-ok"):
                continue
            awaited = _awaited_calls(func)
            for node in _pruned_body_walk(func):
                if (not isinstance(node, ast.Call)
                        or id(node) in awaited
                        or not isinstance(node.func, ast.Attribute)):
                    continue
                message = self._async_blocking_message(
                    node, func.name,
                )
                if message is None:
                    continue
                f = self.finding(mod, "BLK003", node.lineno, message)
                if f is not None:
                    findings.append(f)
        return findings

    @staticmethod
    def _async_blocking_message(call: ast.Call, func_name: str):
        """The BLK003 message for ``call``, or None when it is benign."""
        attr = call.func.attr
        if attr not in ASYNC_BLOCKING_METHODS:
            return None
        receiver = _receiver_text(call.func)
        if attr in ("result", "join"):
            if not any(h in receiver for h in BLOCKING_RECEIVER_HINTS):
                return None
        elif attr == "acquire":
            if _false_keyword(call, ("block", "blocking")):
                return None
            if not any(h in receiver for h in _ASYNC_ACQUIRE_HINTS):
                return None
        return (
            f"thread-blocking '{receiver}.{attr}(...)' called directly in "
            f"'async def {func_name}' — this stalls the event loop (batch "
            f"linger timers and every other connection); wrap it in a sync "
            f"thunk and run it via loop.run_in_executor"
        )
