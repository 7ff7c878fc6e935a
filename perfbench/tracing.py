"""Outside-in layer tracing: wrappers around each layer's public calls.

The benchmark records spans without touching the program: a
:class:`Tracer` replaces the public entry points of the ``repro``
layers with thin wrappers for the length of a ``with`` block and puts
the originals back afterwards, so the timed (untraced) runs execute the
program exactly as it ships.

Each span records its name, layer, thread, start, end and parent.  The
parent is the innermost open span of the same thread; a span opened on
a thread with no open span (a runtime worker running a panel task) takes
the innermost open ``runtime.run`` span as its cross-thread parent.

A span's *self time* is its duration minus the part its same-thread
children cover.  Threads whose outermost span is a ``core`` span are
coordinators; the others are workers, whose busy time is reported apart
from coordinator wall.  On a coordinator thread the self times of every
layer, ``core`` included, sum to the wall of the outermost spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: index of the outermost span on this span's thread
    root: int = -1
    child_time: float = 0.0
    #: right-hand-side columns (sparse solves) or tasks (runtime runs)
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _columns(b: Any) -> int:
    shape = getattr(b, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _entry_points() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, count extractor)`` per entry point.

    Module-level functions are patched at the module attribute their
    callers look up (``from x import f`` binds a name per module).
    """
    # import_module: the package re-exports ``aca`` over its submodule name
    aca_mod = importlib.import_module("repro.hmatrix.aca")
    hmatrix_mod = importlib.import_module("repro.hmatrix.hmatrix")
    rk_mod = importlib.import_module("repro.hmatrix.rk")
    strong_mod = importlib.import_module("repro.hmatrix.strong")
    from repro.core.factorized import CoupledFactorization
    from repro.dense.solver import DenseFactorization, DenseSolver
    from repro.hmatrix.factorization import HLUFactorization
    from repro.hmatrix.hmatrix import HMatrix
    from repro.hmatrix.ldlt_factorization import HLDLTFactorization
    from repro.runtime.scheduler import ParallelRuntime
    from repro.sparse.multifrontal import MultifrontalFactorization
    from repro.sparse.solver import SparseSolver

    def rhs_cols(args, kwargs):
        return _columns(args[1] if len(args) > 1 else kwargs.get("b"))

    return [
        (CoupledFactorization, "__init__", "core.factorize", None),
        (CoupledFactorization, "solve", "core.solve", None),
        (SparseSolver, "factorize", "sparse.factorize", None),
        (SparseSolver, "factorize_schur", "sparse.factorize", None),
        (MultifrontalFactorization, "solve", "sparse.solve", rhs_cols),
        (MultifrontalFactorization, "solve_transpose", "sparse.solve",
         rhs_cols),
        (aca_mod, "aca", "hmatrix.aca", None),
        (hmatrix_mod, "aca", "hmatrix.aca", None),
        (strong_mod, "aca", "hmatrix.aca", None),
        (rk_mod, "svd_truncate", "hmatrix.svd_truncate", None),
        (HMatrix, "precompress_axpy", "hmatrix.axpy", None),
        (HMatrix, "precompress_axpy_rk", "hmatrix.axpy", None),
        (HMatrix, "precompress_axpy_sampled", "hmatrix.axpy", None),
        (HMatrix, "commit_axpy", "hmatrix.axpy", None),
        (HMatrix, "flush_accumulators", "hmatrix.flush", None),
        (HLUFactorization, "__init__", "hmatrix.hlu", None),
        (HLDLTFactorization, "__init__", "hmatrix.hlu", None),
        (HLUFactorization, "solve", "hmatrix.hsolve", None),
        (HLDLTFactorization, "solve", "hmatrix.hsolve", None),
        (DenseSolver, "factorize", "dense.factorize", None),
        (DenseFactorization, "solve", "dense.solve", None),
        (ParallelRuntime, "run", "runtime.run", None),
    ]


class Tracer:
    """Installs layer wrappers on ``__enter__``; removes them on ``__exit__``.

    Spans are kept in memory; :meth:`summary` folds them into per-layer
    self times and call counts.  Only spans opened while the tracer is
    installed are recorded.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_runs: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, count: int = 0) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent: Optional[int] = stack[-1]
                root = self.spans[stack[0]].root
            else:
                parent = self._open_runs[-1] if self._open_runs else None
                root = len(self.spans)
            index = len(self.spans)
            self.spans.append(Span(
                name, name.split(".", 1)[0], threading.get_ident(),
                time.perf_counter(), parent=parent, root=root, count=count,
            ))
            if name == "runtime.run":
                self._open_runs.append(index)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            span = self.spans[index]
            span.end = end
            if stack:
                self.spans[stack[-1]].child_time += span.duration
            if span.name == "runtime.run":
                self._open_runs.remove(index)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around the block (the benchmark's own roots)."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- installation ------------------------------------------------------------
    def _wrap(self, original: Callable, name: str,
              count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name == "runtime.run":
                # materialise once so the task count is known up front
                if len(args) > 1:
                    args = (args[0], list(args[1])) + args[2:]
                    n = len(args[1])
                else:
                    kwargs["tasks"] = list(kwargs["tasks"])
                    n = len(kwargs["tasks"])
            else:
                n = count(args, kwargs) if count is not None else 0
            index = tracer.open(name, n)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, count in _entry_points():
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                setattr(owner, attr, self._wrap(original, name, count))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding ---------------------------------------------------------------
    def summary(self) -> "TraceSummary":
        """Per-name self time, call count and extra count, split by thread role."""
        with self._lock:
            spans = list(self.spans)
        out = TraceSummary()
        for span in spans:
            coordinator = spans[span.root].layer == "core"
            role = out.coordinator if coordinator else out.worker
            role[span.layer] = role.get(span.layer, 0.0) + span.self_time
            out.self_s[span.name] = out.self_s.get(span.name, 0.0) + span.self_time
            out.calls[span.name] = out.calls.get(span.name, 0) + 1
            out.counts[span.name] = out.counts.get(span.name, 0) + span.count
            if span.name == "runtime.run" and coordinator:
                out.runtime_wall_s += span.duration
            if span.parent is None and span.layer == "core":
                out.root_wall_s += span.duration
        return out


@dataclass
class TraceSummary:
    #: self seconds per span name, over every thread (busy time)
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: self seconds per layer on coordinator threads (these sum to
    #: ``root_wall_s``) and on worker threads
    coordinator: Dict[str, float] = field(default_factory=dict)
    worker: Dict[str, float] = field(default_factory=dict)
    #: inclusive coordinator seconds inside ``ParallelRuntime.run``
    runtime_wall_s: float = 0.0
    #: summed duration of the outermost ``core`` spans
    root_wall_s: float = 0.0

