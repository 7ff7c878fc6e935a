"""Task-based shared-memory parallel runtime for the coupling algorithms.

The paper's machine is a single 24-core node; this package supplies the
matching execution layer: a :class:`~repro.runtime.scheduler.ParallelRuntime`
that runs independent panel tasks (blocked sparse solves, Schur block
factorizations) on a thread pool — the NumPy/SciPy kernels underneath
release the GIL — with **budget-aware admission control** against the run's
:class:`~repro.memory.tracker.MemoryTracker` and a **deterministic
reduction order**, so solutions are bit-identical for any worker count.
"""

from repro.runtime.scheduler import (
    PanelTask,
    ParallelRuntime,
    resolve_n_workers,
)

__all__ = [
    "PanelTask",
    "ParallelRuntime",
    "resolve_n_workers",
]
