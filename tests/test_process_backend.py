"""Panel-runtime guarantees first stated for the retired process pool.

The thread pool (:class:`repro.runtime.ParallelRuntime`) is the only panel
runtime.  The guarantees these tests pin used to be checked against a
second, process-based runtime; they now hold the thread runtime to the
same contract from angles ``test_runtime.py`` does not take:

* scheduler mechanics — ``consume`` runs on the calling thread in task
  order, budget pressure shows up in the runtime report, an oversized task
  raises at every width, a failed run leaves the runtime reusable, the
  serial width never starts a pool, and a closed runtime stays closed;
* parity — the Schur complement ``S`` itself (not only the solution) is
  byte-identical for any worker count, for both coupling algorithms and
  both dense backends, and a serial run reproduces its tracked peak to
  the byte;
* memory-bounded execution of the compressed multi-solve.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.multi_solve import (
    assemble_multi_solve,
    make_multi_solve_context,
)
from repro.core.schur_tools import finalize_solution
from repro.memory.tracker import MemoryTracker
from repro.runtime import PanelTask, ParallelRuntime
from repro.utils.errors import MemoryLimitExceeded
from repro.utils.timer import PhaseTimer

UNCOMPRESSED = SolverConfig(dense_backend="spido", n_c=64, n_b=2)
COMPRESSED = SolverConfig(dense_backend="hmat", n_c=64, n_s_block=192, n_b=2)


# ---------------------------------------------------------------------------
# scheduler mechanics
# ---------------------------------------------------------------------------

def _task(index, cost=0, delay=0.0):
    def fn(timer, alloc):
        if delay:
            time.sleep(delay)
        with timer.phase("sparse_solve"):
            pass
        return index

    return PanelTask(index=index, fn=fn, cost_bytes=cost,
                     label=f"task {index}")


class TestProcessScheduler:
    def test_consumption_is_in_task_order(self):
        # later tasks finish first: consumption stays in submission order,
        # and always on the thread that called run()
        tracker = MemoryTracker()
        seen = []
        caller = threading.get_ident()

        def consume(task, result):
            assert threading.get_ident() == caller
            seen.append(result)

        tasks = [_task(i, delay=0.02 * (5 - i)) for i in range(5)]
        with ParallelRuntime(tracker, n_workers=2) as runtime:
            runtime.run(tasks, consume)
        assert seen == list(range(5))
        tracker.assert_all_freed()

    def test_budget_admission_keeps_peak_within_limit(self):
        # 8 tasks of 40 B under a 100 B limit: at most two are outstanding
        # at once, and the blocked admissions show in the runtime report
        tracker = MemoryTracker(limit_bytes=100)
        seen = []
        tasks = [_task(i, cost=40, delay=0.01) for i in range(8)]
        with ParallelRuntime(tracker, n_workers=4) as runtime:
            runtime.run(tasks, lambda task, result: seen.append(result))
            report = runtime.report()
        assert seen == list(range(8))
        assert tracker.peak <= 100
        assert report.n_tasks == 8
        assert report.scheduler_wait_seconds > 0.0
        tracker.assert_all_freed()

    def test_oversized_task_raises_like_serial(self):
        for n_workers in (1, 2):
            tracker = MemoryTracker(limit_bytes=100)
            with ParallelRuntime(tracker, n_workers=n_workers) as runtime:
                with pytest.raises(MemoryLimitExceeded):
                    runtime.run([_task(0, cost=150)])
                if n_workers > 1:
                    # the failed admission is still on the books
                    assert any("scheduler_wait" in phases
                               for phases in runtime.worker_phases.values())
            tracker.assert_all_freed()

    def test_task_error_propagates_and_frees_budget(self):
        tracker = MemoryTracker(limit_bytes=1000)

        def boom(timer, alloc):
            raise RuntimeError("panel exploded")

        tasks = [_task(i, cost=100) for i in range(6)]
        tasks[2] = PanelTask(index=2, fn=boom, cost_bytes=100)
        with ParallelRuntime(tracker, n_workers=2) as runtime:
            with pytest.raises(RuntimeError, match="panel exploded"):
                runtime.run(tasks, lambda t, r: None)
            tracker.assert_all_freed()
            # the failed run leaves the runtime usable for the next one
            seen = []
            runtime.run([_task(i, cost=100) for i in range(3)],
                        lambda t, r: seen.append(r))
        assert seen == [0, 1, 2]
        tracker.assert_all_freed()

    def test_worker_phases_report_per_process_totals(self):
        # one phase table per pool thread; finalize() merges their sum
        tracker = MemoryTracker()
        runtime = ParallelRuntime(tracker, n_workers=2)
        runtime.run([_task(i, delay=0.005) for i in range(6)])
        report = runtime.report()
        workers = [k for k in report.worker_phases if k.startswith("worker-")]
        assert 1 <= len(workers) <= 2
        assert len(workers) == len(report.worker_phases)
        total_wait = sum(phases.get("scheduler_wait", 0.0)
                         for phases in report.worker_phases.values())
        main = PhaseTimer()
        runtime.finalize(main)
        assert main.get("scheduler_wait") == pytest.approx(total_wait)
        with pytest.raises(RuntimeError):
            runtime.run([])  # finalize() closed the runtime

    def test_serial_width_runs_local_fns(self):
        # n_workers=1 executes task.fn on the caller thread with the same
        # accounting as the pool, and never starts a pool
        tracker = MemoryTracker()
        caller = threading.get_ident()
        seen = []

        def fn(timer, alloc):
            assert alloc.nbytes == 10
            assert threading.get_ident() == caller
            return "local"

        task = PanelTask(index=0, fn=fn, cost_bytes=10)
        with ParallelRuntime(tracker, n_workers=1) as runtime:
            runtime.run([task], lambda t, r: seen.append(r))
            assert runtime._pool is None
        assert seen == ["local"]
        assert tracker.peak == 10
        tracker.assert_all_freed()

    def test_closed_runtime_rejects_runs(self):
        # leaving the context manager closes the runtime, idempotently
        tracker = MemoryTracker()
        with ParallelRuntime(tracker, n_workers=2) as runtime:
            runtime.run([_task(0)])
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.run([])


# ---------------------------------------------------------------------------
# end-to-end parity across worker counts
# ---------------------------------------------------------------------------

def _assemble_and_solve(problem, algorithm, config):
    """Run one coupled solve, returning ``(S_dense, solution, ctx)`` with
    the (factored) Schur complement densified for bitwise comparison."""
    if algorithm == "multi_solve":
        ctx = make_multi_solve_context(problem, config)
        pieces = assemble_multi_solve(ctx)
    else:
        from repro.core.multi_factorization import (
            assemble_multi_factorization,
            make_multi_factorization_context,
        )

        ctx = make_multi_factorization_context(problem, config)
        pieces = assemble_multi_factorization(ctx)
    container = pieces[1]
    s = container.s
    s_dense = s.copy() if isinstance(s, np.ndarray) else s.to_dense()
    solution = finalize_solution(ctx, *pieces)
    return s_dense, solution, ctx


class TestBackendParity:
    """Serial vs pooled: byte-identical S and solutions, exact peaks."""

    _baselines: dict = {}

    def _serial_run(self, problem, algorithm, config):
        key = (algorithm, config.dense_backend)
        if key not in self._baselines:
            self._baselines[key] = _assemble_and_solve(
                problem, algorithm, config.with_(n_workers=1)
            )
        return self._baselines[key]

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("algorithm",
                             ["multi_solve", "multi_factorization"])
    @pytest.mark.parametrize("config", [UNCOMPRESSED, COMPRESSED],
                             ids=["spido", "hmat"])
    def test_s_and_solution_are_byte_identical(self, pipe_small, algorithm,
                                               config, n_workers):
        s_ref, sol_ref, ctx_ref = self._serial_run(
            pipe_small, algorithm, config
        )
        s_run, sol_run, ctx_run = _assemble_and_solve(
            pipe_small, algorithm, config.with_(n_workers=n_workers)
        )
        assert np.array_equal(s_ref, s_run)
        assert np.array_equal(sol_ref.x, sol_run.x)
        assert sol_run.stats.params["n_workers"] == n_workers
        if n_workers == 1:
            # a serial run charges the same allocations in the same order:
            # its tracked peak is reproducible to the byte
            assert ctx_ref.tracker.peak == ctx_run.tracker.peak
        ctx_run.tracker.assert_all_freed()

    def test_sparse_counters_match_thread_backend(self, pipe_small):
        _, sol_ref, _ = self._serial_run(
            pipe_small, "multi_factorization", UNCOMPRESSED
        )
        _, sol_run, _ = _assemble_and_solve(
            pipe_small, "multi_factorization",
            UNCOMPRESSED.with_(n_workers=4),
        )
        assert (sol_run.stats.n_sparse_solves
                == sol_ref.stats.n_sparse_solves)
        assert (sol_run.stats.n_sparse_factorizations
                == sol_ref.stats.n_sparse_factorizations)
        assert sol_run.stats.worker_phases
        assert sol_run.stats.runtime_wall_seconds > 0.0


class TestMemoryBoundedProcessExecution:
    def test_peak_within_limit_under_four_workers(self, pipe_small):
        """The compressed multi-solve under a limit barely above its serial
        peak: four workers must block on admission (not raise), keep the
        tracked peak within the limit and reproduce the solution bit for
        bit."""
        config = COMPRESSED.with_(n_workers=1)
        _, serial, ctx_serial = _assemble_and_solve(
            pipe_small, "multi_solve", config
        )
        limit = int(ctx_serial.tracker.peak * 1.02)
        _, bounded, ctx = _assemble_and_solve(
            pipe_small, "multi_solve",
            config.with_(n_workers=4, memory_limit=limit),
        )
        assert ctx.tracker.peak <= limit
        assert np.array_equal(serial.x, bounded.x)
        ctx.tracker.assert_all_freed()
