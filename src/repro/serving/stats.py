"""Server-side observability: request counters, batching and latency.

:class:`ServerStats` is the single mutable stats surface of the solver
server.  The batching/latency aggregates are **event-loop confined** —
only the asyncio loop thread mutates them (executor results come back
through loop callbacks), so they need no lock; the factor-cache counters
live inside :class:`repro.serving.factor_cache.FactorCache` (which *is*
shared with executor threads and has its own lock) and are merged into
:meth:`snapshot` on demand.

A snapshot is a plain JSON-able dict, served over the wire for the
``stats`` request and embedded into ``BENCH_serving.json``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional


class _LatencyAggregate:
    """Count/total/max plus a window of recent samples for percentiles."""

    __slots__ = ("count", "total", "max", "_samples")

    def __init__(self, sample_cap: int = 4096) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        # the most recent samples: percentiles keep tracking a
        # long-running server, with no RNG to keep deterministic
        self._samples: Deque[float] = deque(maxlen=int(sample_cap))

    def add(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)
        self._samples.append(seconds)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the retained samples."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    def to_dict(self) -> Dict[str, object]:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": mean,
            "max_seconds": self.max if self.count else None,
            "p50_seconds": self.percentile(0.50),
            "p99_seconds": self.percentile(0.99),
        }


class ServerStats:
    """Counters of one :class:`repro.serving.server.SolverServer` run."""

    def __init__(self) -> None:
        self.n_connections = 0
        self.n_requests: Dict[str, int] = {}
        self.n_errors = 0
        self.n_solve_requests = 0
        self.n_solve_columns = 0
        self.n_batches = 0
        self.n_batched_requests = 0
        #: batch size histograms: requests coalesced per dispatch and
        #: total RHS columns per dispatch
        self.batch_request_hist: Dict[int, int] = {}
        self.batch_column_hist: Dict[int, int] = {}
        self.queue_wait = _LatencyAggregate()
        self.solve_latency = _LatencyAggregate()
        self.factorize_latency = _LatencyAggregate()

    # -- recording (event-loop thread only) -----------------------------------
    def record_request(self, op: str) -> None:
        self.n_requests[op] = self.n_requests.get(op, 0) + 1

    def record_error(self) -> None:
        self.n_errors += 1

    def record_batch(self, n_requests: int, n_columns: int,
                     queue_waits: List[float], solve_seconds: float) -> None:
        self.n_batches += 1
        self.n_batched_requests += n_requests
        self.n_solve_requests += n_requests
        self.n_solve_columns += n_columns
        self.batch_request_hist[n_requests] = (
            self.batch_request_hist.get(n_requests, 0) + 1
        )
        self.batch_column_hist[n_columns] = (
            self.batch_column_hist.get(n_columns, 0) + 1
        )
        for wait in queue_waits:
            self.queue_wait.add(wait)
        self.solve_latency.add(solve_seconds)

    def record_factorize(self, seconds: float) -> None:
        self.factorize_latency.add(seconds)

    # -- export ---------------------------------------------------------------
    def snapshot(self, cache_stats: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        """JSON-able snapshot, optionally merged with the factor cache's."""
        out: Dict[str, object] = {
            "connections": self.n_connections,
            "requests": dict(self.n_requests),
            "errors": self.n_errors,
            "solve": {
                "requests": self.n_solve_requests,
                "columns": self.n_solve_columns,
                "batches": self.n_batches,
                "batched_requests": self.n_batched_requests,
                "mean_batch_requests": (
                    self.n_batched_requests / self.n_batches
                    if self.n_batches else None
                ),
                "batch_request_hist": {
                    str(k): v
                    for k, v in sorted(self.batch_request_hist.items())
                },
                "batch_column_hist": {
                    str(k): v
                    for k, v in sorted(self.batch_column_hist.items())
                },
                "queue_wait": self.queue_wait.to_dict(),
                "latency": self.solve_latency.to_dict(),
            },
            "factorize": {
                "latency": self.factorize_latency.to_dict(),
            },
        }
        if cache_stats is not None:
            out["cache"] = cache_stats
        return out
