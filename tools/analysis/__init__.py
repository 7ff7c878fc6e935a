"""Repo-specific static invariant checkers (``python -m tools.analysis``).

The paper's capacity results rest on invariants the type system cannot
express; each checker turns one of them into a CI-enforced contract.
Flow-sensitive checkers run on the CFG/dataflow engine in
:mod:`tools.analysis.engine`, so exception paths, early returns and
``finally`` blocks are real paths, not blind spots.

``resource-discipline``
    Every ``MemoryTracker.allocate``/``acquire``/``track_array`` call must
    be paired with a ``free()`` on every path — including the path where
    an exception escapes the scope (RES008) — so tracked peaks stay
    truthful and capacity headroom is never silently consumed.

``lock-discipline``
    Attributes annotated ``# guarded-by: <lock>`` may only be touched
    while the declared lock is held on the current path, and nested lock
    acquisitions must follow the declared hierarchy.

``dense-schur``
    The dense Schur complement ``S`` must never be fully materialised
    outside the sanctioned uncompressed paths — no ``.to_dense()``,
    ``.toarray()`` or full ``(n_bem, n_bem)`` allocations on Schur-typed
    objects outside the whitelist.

``dtype-safety``
    Kernel modules must construct arrays with an explicit ``dtype=`` and
    must not hard-code real dtypes where a problem dtype is in scope
    (silent complex -> real truncation).

``axpy-discipline``
    Deferred-recompression accumulators (the batched compressed AXPY)
    must be flushed on every path: a constructed ``RkAccumulator`` must
    flush or escape, a receiver with staged updates must see a flush in
    the module, and ``factorize()`` must be preceded by one.

``blocking-under-lock``
    Never block waiting for another thread (``wait``/``result``/
    ``join``/blocking ``acquire``) while holding a lock — the classic
    scheduler/tracker deadlock shape.

``determinism``
    Nothing order-unstable (set iteration, global-state randomness,
    wall-clock values) may feed the ordered commit pipeline that backs
    the byte-identity guarantee across worker counts.

The PKL001–PKL003 and SLB001–SLB003 codes are retired: they guarded the
process-pool runtime, which was removed with its worker kernels and
shared-memory slabs.

See ``docs/static_analysis.md`` for the conventions, waiver/baseline
workflow and how to extend the suite.  The runtime companion
(:mod:`tools.analysis.watchdog`) records the actual lock-acquisition
graph during the concurrency tests and fails on cycles.
"""

from tools.analysis.base import Checker, Finding, ModuleSource, iter_sources
from tools.analysis.axpy import AxpyDisciplineChecker
from tools.analysis.blocking import BlockingUnderLockChecker
from tools.analysis.determinism import DeterminismChecker
from tools.analysis.dtype_safety import DtypeSafetyChecker
from tools.analysis.locks import LockDisciplineChecker
from tools.analysis.resource import ResourceDisciplineChecker
from tools.analysis.schur import DenseSchurChecker

#: All checkers, in reporting order.
ALL_CHECKERS = (
    ResourceDisciplineChecker,
    LockDisciplineChecker,
    DenseSchurChecker,
    DtypeSafetyChecker,
    AxpyDisciplineChecker,
    BlockingUnderLockChecker,
    DeterminismChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "AxpyDisciplineChecker",
    "BlockingUnderLockChecker",
    "Checker",
    "DenseSchurChecker",
    "DeterminismChecker",
    "DtypeSafetyChecker",
    "Finding",
    "LockDisciplineChecker",
    "ModuleSource",
    "ResourceDisciplineChecker",
    "iter_sources",
]
