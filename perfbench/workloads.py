"""The benchmark's workloads, their correctness checks and their metrics.

Two kinds of workload (see ``README.md`` for why each was chosen):

* **pipe** workloads call :func:`repro.solve_coupled` on a short-pipe
  case in a closed loop from one caller, the paper's time to a solution
  at ε;
* **serve** workloads drive an in-process
  :class:`repro.serving.SolverServer` over its unix socket: one cold
  ``factorize`` and then a closed-loop stream of load-case solves from
  :data:`CONNECTIONS` connections with :data:`OUTSTANDING` requests in
  flight on each.

Every run returns ``(result, info)``: ``result`` is the object the
benchmark prints last, ``info`` the resolved configuration and the
correctness figures printed before it.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    SolverConfig,
    generate_aircraft_case,
    generate_pipe_case,
    solve_coupled,
)
from repro.serving import ServingClient, SolverServer
from tracing import Tracer

MIB = float(2 ** 20)

#: set-ups per run; ``setup_s`` (and a serve run's ``factorize_s``) is
#: their median
SETUP_REPEATS = 9
#: serve workloads: client connections and requests in flight on each
CONNECTIONS = 2
OUTSTANDING = 4
#: p95 (and a serve stream's throughput) is a median over this many
#: equal slices of the window, so a stall of the machine in one slice
#: does not move it
SLICES = 5
#: a serve run completes at least this many solves, so that on average
#: at least ten client latencies per slice lie beyond p95
MIN_SOLVES = 200 * SLICES

#: end-to-end metrics (reported with tracing off) and their units
END_TO_END = {
    "solve_s": "s",
    "factorize_s": "s",
    "solves_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_mib": "MiB",
    "setup_s": "s",
}

MEMORY_CATEGORIES = (
    "sparse_factor", "schur_store", "axpy_accumulator", "solve_panel",
    "solve_workspace", "dense_factor", "front_arena", "update_stack",
)

#: per-layer metrics (reported by the traced run) and their units
PER_LAYER = {
    "sparse.factorize_s": "s",
    "sparse.factorize_calls": "count",
    "sparse.analyses": "count",
    "sparse.factor_mib": "MiB",
    "sparse.solve_s": "s",
    "sparse.solve_calls": "count",
    "sparse.solve_cols": "count",
    "sparse.coord_self_s": "s",
    "hmatrix.aca_s": "s",
    "hmatrix.aca_calls": "count",
    "hmatrix.svd_truncate_s": "s",
    "hmatrix.svd_truncate_calls": "count",
    "hmatrix.axpy_s": "s",
    "hmatrix.flush_s": "s",
    "hmatrix.schur_ratio": "ratio",
    "hmatrix.hlu_s": "s",
    "hmatrix.hsolve_s": "s",
    "hmatrix.coord_self_s": "s",
    "dense.factorize_s": "s",
    "dense.solve_s": "s",
    "dense.coord_self_s": "s",
    "runtime.run_wall_s": "s",
    "runtime.serial_share": "ratio",
    "runtime.scheduler_wait_s": "s",
    "runtime.tasks": "count",
    "runtime.coord_self_s": "s",
    "runtime.worker_busy_s": "s",
    **{f"memory.{cat}_mib": "MiB" for cat in MEMORY_CATEGORIES},
    "serving.queue_wait_ms": "ms",
    "serving.batch_requests_mean": "count",
    "serving.batch_solve_ms": "ms",
    "serving.cache_misses": "count",
    "serving.errors": "count",
    "core.self_s": "s",
    "fembem.generate_s": "s",
    "trace.coord_wall_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipe" or "serve"
    n_total: int
    algorithm: str
    #: paper parameters only: dense_backend, n_b, epsilon, n_workers
    config: Dict[str, Any]

    @property
    def epsilon(self) -> float:
        return float(self.config["epsilon"])


WORKLOADS = {w.name: w for w in (
    Workload("pipe-multisolve-hmat", "pipe", 8000, "multi_solve",
             dict(dense_backend="hmat", epsilon=1e-3, n_workers=2)),
    Workload("pipe-multifacto-hmat", "pipe", 4000, "multi_factorization",
             dict(dense_backend="hmat", epsilon=1e-3, n_b=2, n_workers=2)),
    Workload("aircraft-serve-sweep", "serve", 4000, "multi_solve",
             dict(dense_backend="spido", epsilon=1e-3)),
)}


# -- helpers -------------------------------------------------------------------
def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample ≥ a share ``q`` of all."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _slices(samples: List[Tuple[float, float]],
            elapsed: float) -> List[List[float]]:
    """Split ``(completed_at, value)`` samples into :data:`SLICES` equal
    slices of ``[0, elapsed]`` by completion time."""
    width = elapsed / SLICES
    out: List[List[float]] = [[] for _ in range(SLICES)]
    for done, value in samples:
        out[min(SLICES - 1, int(done / width))].append(value)
    return out


def _sliced_p95(slices: List[List[float]]) -> float:
    return _median([percentile(s, 0.95) for s in slices if s])


def resolved_config(config: SolverConfig) -> Dict[str, Any]:
    """Every field and every ``effective_*`` property of ``config``."""
    out: Dict[str, Any] = {f.name: getattr(config, f.name)
                           for f in fields(config)}
    for name in dir(type(config)):
        if name.startswith("effective_"):
            out[name] = getattr(config, name)
    return out


@dataclass
class Ledger:
    """Operations attempted and failed, with the accuracy figures."""

    epsilon: float
    attempted: int = 0
    failed: int = 0
    max_relative_error: float = 0.0

    def error(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        traceback.print_exception(type(exc), exc, exc.__traceback__)

    def check(self, relative_error: float) -> bool:
        """Count one completed operation; True when it met ε."""
        self.attempted += 1
        self.max_relative_error = max(self.max_relative_error,
                                      relative_error)
        if not relative_error <= self.epsilon:  # NaN fails too
            self.failed += 1
            return False
        return True


def _scaled_error(exact: np.ndarray, exact_norm: float, scale: float,
                  x_v: np.ndarray, x_s: np.ndarray) -> float:
    got = np.concatenate([np.ravel(x_v), np.ravel(x_s)])
    return float(np.linalg.norm(got - scale * exact) / (abs(scale) * exact_norm))


def _generate(workload: Workload, n_total: int, seed: int):
    if workload.kind == "pipe":
        return generate_pipe_case(n_total, seed=seed)
    return generate_aircraft_case(n_total, seed=seed, bem_fraction=0.25)


def _layer_metrics(summary, n_ops: int, solve_stats: List[Any],
                   serving: Optional[Dict[str, Any]], generate_s: float,
                   wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Fold one traced run into the :data:`PER_LAYER` metrics.

    Times and counts from spans are per operation (``n_ops`` is 1 for a
    whole traced phase); sizes and ratios are medians over the
    operations' :class:`repro.SolveStats`.
    """
    n = max(1, n_ops)
    s, calls, counts = summary.self_s, summary.calls, summary.counts

    def per(value: float) -> float:
        return float(value) / n

    def stat(get: Callable[[Any], float]) -> float:
        values = [float(get(st)) for st in solve_stats]
        return _median([v for v in values if not math.isnan(v)] or [0.0])

    root = summary.root_wall_s
    m = {
        "sparse.factorize_s": per(s.get("sparse.factorize", 0.0)),
        "sparse.factorize_calls": per(calls.get("sparse.factorize", 0)),
        "sparse.analyses": stat(lambda st: st.n_symbolic_analyses),
        "sparse.factor_mib": stat(lambda st: st.sparse_factor_bytes) / MIB,
        "sparse.solve_s": per(s.get("sparse.solve", 0.0)),
        "sparse.solve_calls": per(calls.get("sparse.solve", 0)),
        "sparse.solve_cols": per(counts.get("sparse.solve", 0)),
        "hmatrix.aca_s": per(s.get("hmatrix.aca", 0.0)),
        "hmatrix.aca_calls": per(calls.get("hmatrix.aca", 0)),
        "hmatrix.svd_truncate_s": per(s.get("hmatrix.svd_truncate", 0.0)),
        "hmatrix.svd_truncate_calls":
            per(calls.get("hmatrix.svd_truncate", 0)),
        "hmatrix.axpy_s": per(s.get("hmatrix.axpy", 0.0)),
        "hmatrix.flush_s": per(s.get("hmatrix.flush", 0.0)),
        "hmatrix.schur_ratio": stat(lambda st: st.schur_compression_ratio),
        "hmatrix.hlu_s": per(s.get("hmatrix.hlu", 0.0)),
        "hmatrix.hsolve_s": per(s.get("hmatrix.hsolve", 0.0)),
        "dense.factorize_s": per(s.get("dense.factorize", 0.0)),
        "dense.solve_s": per(s.get("dense.solve", 0.0)),
        "runtime.run_wall_s": per(summary.runtime_wall_s),
        "runtime.serial_share":
            1.0 - summary.runtime_wall_s / root if root > 0 else 1.0,
        "runtime.scheduler_wait_s":
            stat(lambda st: st.scheduler_wait_seconds),
        "runtime.tasks": per(counts.get("runtime.run", 0)),
        "runtime.worker_busy_s": per(sum(summary.worker.values())),
        "core.self_s": per(summary.coordinator.get("core", 0.0)),
        "fembem.generate_s": generate_s,
        "trace.coord_wall_s": per(root),
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    for layer in ("sparse", "hmatrix", "dense", "runtime"):
        m[f"{layer}.coord_self_s"] = per(summary.coordinator.get(layer, 0.0))
    for cat in MEMORY_CATEGORIES:
        m[f"memory.{cat}_mib"] = stat(
            lambda st, c=cat: st.peak_by_category.get(c, 0)) / MIB
    serving = serving or {}
    solve = serving.get("solve", {})
    cache = serving.get("cache", {})
    m.update({
        "serving.queue_wait_ms":
            1e3 * (solve.get("queue_wait", {}).get("mean_seconds") or 0.0),
        "serving.batch_requests_mean":
            float(solve.get("mean_batch_requests") or 0.0),
        "serving.batch_solve_ms":
            1e3 * (solve.get("latency", {}).get("mean_seconds") or 0.0),
        "serving.cache_misses": float(cache.get("misses", 0)),
        "serving.errors": float(serving.get("errors", 0)),
    })
    return m


def _result(ledger: Ledger, values: Dict[str, float],
            units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


# -- pipe workloads -------------------------------------------------------------
def _final_solve_s(stats) -> float:
    """Seconds of the final right-hand-side solve inside one call."""
    return (stats.phases.get("sparse_solve_rhs", 0.0)
            + stats.phases.get("dense_solve", 0.0))


def run_pipe(workload: Workload, seed: int, seconds: float, trace: bool,
             n_total: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    setup_times: List[float] = []  # set-up is case generation only
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        problem = _generate(workload, n_total, seed)
        setup_times.append(time.perf_counter() - t0)
    config = SolverConfig(**workload.config)
    ledger = Ledger(workload.epsilon)
    tracer = Tracer() if trace else None
    last = None

    def one(traced: bool):
        """One solve_coupled call: ``(wall, stats)`` or None on failure."""
        nonlocal last
        try:
            if traced:
                with tracer:
                    t0 = time.perf_counter()
                    with tracer.span("core.solve_coupled"):
                        sol = solve_coupled(problem, workload.algorithm, config)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                sol = solve_coupled(problem, workload.algorithm, config)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, counted
            ledger.error(exc)
            return None
        if not ledger.check(problem.relative_error(sol.x_v, sol.x_s)):
            return None
        last = sol
        return wall, sol.stats

    # warm-up: thread pools, BLAS and lazy imports, outside the window
    one(False)
    walls: Dict[bool, List[float]] = {False: [], True: []}
    ends: List[float] = []  # completion of each untraced call
    stats: List[Any] = []
    start = time.perf_counter()
    traced = False

    def short() -> bool:  # every measured side needs one success
        return ((not walls[False] or (trace and not walls[True]))
                and ledger.failed < 3)

    while time.perf_counter() - start < seconds or short():
        done = one(traced)
        if done is not None:
            walls[traced].append(done[0])
            if not traced:
                ends.append(time.perf_counter() - start)
            if traced or not trace:
                stats.append(done[1])
        if trace:
            traced = not traced
    window_s = time.perf_counter() - start

    info = {
        "relative_error_max": ledger.max_relative_error,
        "residual_norm": (problem.residual_norm(last.x_v, last.x_s)
                          if last is not None else float("nan")),
        "operations": ledger.attempted,
    }
    if trace:
        summary = tracer.summary()
        values = _layer_metrics(
            summary, len(walls[True]), stats, None, _median(setup_times),
            statistics.fmean(walls[True]), statistics.fmean(walls[False]),
        )
        return _result(ledger, values, PER_LAYER), info
    lat = walls[False]
    values = {
        "solve_s": _median(lat),
        "factorize_s": _median([w - _final_solve_s(st)
                                for w, st in zip(lat, stats)]),
        "solves_per_s": len(lat) / window_s,
        "request_p50_ms": 1e3 * _median(lat),
        "request_p95_ms":
            1e3 * _sliced_p95(_slices(list(zip(ends, lat)), window_s)),
        "peak_mib": _median([st.peak_bytes for st in stats]) / MIB,
        "setup_s": _median(setup_times),
    }
    return _result(ledger, values, END_TO_END), info


# -- serve workloads -------------------------------------------------------------
class _Stream:
    """Closed-loop load-case solves against one cached factorization."""

    def __init__(self, problem, key: str, seed: int, ledger: Ledger) -> None:
        self.problem = problem
        self.key = key
        self.ledger = ledger
        self.exact = np.concatenate([problem.x_v_exact, problem.x_s_exact])
        self.exact_norm = float(np.linalg.norm(self.exact))
        self._rng = np.random.default_rng(seed)
        self.last: Optional[Tuple[float, Any, Any]] = None

    def next_scale(self) -> float:
        """Load-case amplitude, drawn from the workload seed."""
        return float(self._rng.uniform(0.5, 2.0))

    async def run(self, clients: List[ServingClient],
                  seconds: float) -> Tuple[List[float], float]:
        """Stream for ``seconds`` (and ≥ :data:`MIN_SOLVES` solves).

        Returns ``(completed_at, latency)`` per solve, ``completed_at``
        counted from the stream start, and the elapsed stream wall.
        """
        latencies: List[Tuple[float, float]] = []
        start = time.perf_counter()
        stop_at = start + seconds
        p = self.problem

        async def loop(client: ServingClient) -> None:
            while (time.perf_counter() < stop_at
                   or (len(latencies) < MIN_SOLVES
                       and self.ledger.failed < MIN_SOLVES)):
                scale = self.next_scale()
                t0 = time.perf_counter()
                try:
                    x_v, x_s = await client.solve(
                        self.key, scale * p.b_v, scale * p.b_s)
                except Exception as exc:  # a failed request, counted
                    self.ledger.error(exc)
                    continue
                done = time.perf_counter()
                latencies.append((done - start, done - t0))
                if self.ledger.check(_scaled_error(
                        self.exact, self.exact_norm, scale, x_v, x_s)):
                    self.last = (scale, x_v, x_s)

        await asyncio.gather(*[loop(c) for c in clients
                               for _ in range(OUTSTANDING)])
        return latencies, time.perf_counter() - start


async def _serve(workload: Workload, seed: int, seconds: float, trace: bool,
                 n_total: int, socket_path: str):
    config = SolverConfig(**workload.config)
    ledger = Ledger(workload.epsilon)
    gen_times: List[float] = []
    setup_times: List[float] = []
    factorize_times: List[float] = []
    server: Optional[SolverServer] = None
    clients: List[ServingClient] = []
    tracer = Tracer() if trace else None
    try:
        # each set-up starts a fresh server, so each factorize is cold;
        # the stream runs against the last one
        for repeat in range(SETUP_REPEATS):
            for client in clients:
                await client.close()
            if server is not None:
                await server.stop()
            t0 = time.perf_counter()
            problem = _generate(workload, n_total, seed)
            gen_times.append(time.perf_counter() - t0)
            server = SolverServer(config, socket_path=socket_path)
            await server.start()
            clients = [await ServingClient.connect(socket_path)
                       for _ in range(CONNECTIONS)]
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None and repeat == SETUP_REPEATS - 1:
                tracer.__enter__()
            t0 = time.perf_counter()
            result = await clients[0].factorize(problem, workload.algorithm)
            factorize_times.append(time.perf_counter() - t0)
            ledger.attempted += 1
            if result.hit:  # the first factorize must build
                ledger.failed += 1
        stream = _Stream(problem, result.key, seed, ledger)
        if trace:
            # traced half, then an untraced half for the overhead
            lat_t, wall_t = await stream.run(clients, seconds / 2)
            tracer.__exit__(None, None, None)
            lat_u, wall_u = await stream.run(clients, seconds / 2)
        else:
            lat_u, wall_u = await stream.run(clients, seconds)
        snapshot = await clients[0].stats()
        fact = server.cache.lookup(result.key)
        fact_stats = [fact.stats] if fact is not None else []
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
        for client in clients:
            await client.close()
        if server is not None:
            await server.stop()

    # the clients see every server error as a raised request; count any
    # the last server reports beyond the failures already counted
    ledger.failed += max(0, snapshot["errors"] - ledger.failed)
    info = {
        "relative_error_max": ledger.max_relative_error,
        "residual_norm": (
            problem.residual_norm(stream.last[1] / stream.last[0],
                                  stream.last[2] / stream.last[0])
            if stream.last is not None else float("nan")),
        "operations": ledger.attempted,
        "mean_batch_requests": snapshot["solve"]["mean_batch_requests"],
        "batch_request_hist": snapshot["solve"]["batch_request_hist"],
    }
    if trace:
        values = _layer_metrics(
            tracer.summary(), 1, fact_stats, snapshot, _median(gen_times),
            wall_t / max(1, len(lat_t)), wall_u / max(1, len(lat_u)),
        )
        return _result(ledger, values, PER_LAYER), info
    latency = [lat for _, lat in lat_u]
    slices = _slices(lat_u, wall_u)
    values = {
        "solve_s": _median(latency),
        "factorize_s": _median(factorize_times),
        "solves_per_s": _median([SLICES * len(s) / wall_u for s in slices]),
        "request_p50_ms": 1e3 * _median(latency),
        "request_p95_ms": 1e3 * _sliced_p95(slices),
        "peak_mib": snapshot["cache"]["bytes_peak"] / MIB,
        "setup_s": _median(setup_times),
    }
    return _result(ledger, values, END_TO_END), info


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_total: Optional[int] = None,
                 socket_dir: str = ".") -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; ``n_total`` shrinks the case (tests only)."""
    workload = WORKLOADS[name]
    n = n_total or workload.n_total
    if workload.kind == "pipe":
        result, info = run_pipe(workload, seed, seconds, trace, n)
    else:
        socket_path = os.path.join(socket_dir, f"serve-{os.getpid()}.sock")
        result, info = asyncio.run(
            _serve(workload, seed, seconds, trace, n, socket_path))
    info.update({
        "workload": name, "seed": seed, "n_total": n,
        "algorithm": workload.algorithm, "epsilon": workload.epsilon,
        "nproc": os.cpu_count(), "trace": trace,
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "config": resolved_config(SolverConfig(**workload.config)),
    })
    return result, info
