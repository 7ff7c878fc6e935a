"""Compressed-front pipeline: FCSU panels and sampled Schur borders.

Covers the low-rank frontal pipeline end to end:

* FCSU (compress-before-update) panels in the multifrontal kernels keep
  LDLᵀ/LU solves — including ``solve_transpose`` — accurate, and fall
  back *bit-identically* to the historical FSCU path when the panel
  threshold never fires;
* the randomized sampled Schur border feeding the HODLR container stays
  within the solver tolerance, is byte-identical for any worker count,
  and degrades bitwise to the dense-border path
  when ``front_compress`` is off or the block threshold is out of reach;
* the new counters surface (``fcsu_compressed_updates`` in the sparse
  statistics, ``n_sampled_borders`` in the run parameters).

Runs under the lock-order watchdog and tracker-balance recorder (see
``conftest.py``), so every parallel case doubles as a deadlock and leak
check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.multi_factorization import (
    assemble_multi_factorization,
    make_multi_factorization_context,
)
from repro.core.schur_tools import finalize_solution
from repro.sparse import BLRConfig, SparseSolver

# front_compress_min=64 puts both halves of the pipe surface (256 each
# at n_b=2) above the sampling threshold and lets FCSU fire on the
# medium fronts of the interior.
FRONT = SolverConfig(dense_backend="hmat", n_c=64, n_s_block=192, n_b=2,
                     front_compress=True, front_compress_min=64)
DENSE = FRONT.with_(front_compress=False)


def _run(problem, config):
    """One multi_factorization run; densified S for bitwise comparison."""
    ctx = make_multi_factorization_context(problem, config)
    pieces = assemble_multi_factorization(ctx)
    container = pieces[1]
    s = container.s
    s_dense = s.copy() if isinstance(s, np.ndarray) else s.to_dense()
    solution = finalize_solution(ctx, *pieces)
    ctx.tracker.assert_all_freed()
    return s_dense, solution, ctx


# ---------------------------------------------------------------------------
# FCSU at the multifrontal level
# ---------------------------------------------------------------------------

def _fcsu_blr(**overrides):
    kw = dict(tol=1e-4, min_panel=16, compress_before_update=True,
              fcsu_min_panel=16)
    kw.update(overrides)
    return BLRConfig(**kw)


class TestFcsuPanels:
    def test_ldlt_accuracy_and_counter(self, pipe_small, rng):
        a = pipe_small.a_vv.tocsr()
        f = SparseSolver(blr=_fcsu_blr()).factorize(
            a, coords=pipe_small.coords_v, symmetric_values=True)
        assert f.statistics()["fcsu_compressed_updates"] > 0
        b = rng.standard_normal(a.shape[0])
        x = f.solve(b)
        res = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert res < 1e-6
        f.free()

    def test_lu_solve_and_solve_transpose(self, aircraft_small, rng):
        a = aircraft_small.a_vv.tocsr()
        f = SparseSolver(blr=_fcsu_blr(fcsu_min_panel=32)).factorize(
            a, coords=aircraft_small.coords_v, symmetric_values=False)
        assert f.statistics()["fcsu_compressed_updates"] > 0
        n = a.shape[0]
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-6
        # the transpose solve runs through the same compressed panels
        y = f.solve_transpose(b)
        assert np.linalg.norm(a.T @ y - b) / np.linalg.norm(b) < 1e-6
        f.free()

    def test_unreachable_threshold_is_bit_identical_to_fscu(
            self, pipe_small, rng):
        """FCSU with a panel floor no front reaches must take the exact
        path everywhere — factors and solutions match FSCU to the byte."""
        a = pipe_small.a_vv.tocsr()
        b = rng.standard_normal(a.shape[0])
        f_off = SparseSolver(
            blr=_fcsu_blr(compress_before_update=False)
        ).factorize(a, coords=pipe_small.coords_v, symmetric_values=True)
        f_gated = SparseSolver(
            blr=_fcsu_blr(fcsu_min_panel=10 ** 6)
        ).factorize(a, coords=pipe_small.coords_v, symmetric_values=True)
        assert f_gated.statistics()["fcsu_compressed_updates"] == 0
        assert np.array_equal(f_off.solve(b), f_gated.solve(b))
        f_off.free()
        f_gated.free()


# ---------------------------------------------------------------------------
# sampled Schur borders, end to end
# ---------------------------------------------------------------------------

class TestSampledBorders:
    def test_accuracy_and_counters_match_dense_path(self, pipe_small):
        s_dense, sol_dense, _ = _run(pipe_small, DENSE)
        s_samp, sol_samp, ctx = _run(pipe_small, FRONT)
        assert ctx.n_sampled_borders > 0
        params = sol_samp.stats.params
        assert params["front_compress"] is True
        assert params["n_sampled_borders"] == ctx.n_sampled_borders
        n_fem = pipe_small.n_fem
        for sol in (sol_dense, sol_samp):
            err = pipe_small.relative_error(sol.x[:n_fem], sol.x[n_fem:])
            assert err < 1e-3
        # both compress the same operator to the same tolerance
        rel = (np.linalg.norm(s_samp - s_dense)
               / np.linalg.norm(s_dense))
        assert rel < 1e-3

    def test_out_of_reach_threshold_falls_back_bitwise(self, pipe_small):
        """Blocks below ``front_compress_min`` must take the *identical*
        dense-border path — flipping the flag on changes nothing."""
        s_dense, sol_dense, _ = _run(pipe_small, DENSE)
        s_gated, sol_gated, ctx = _run(
            pipe_small, FRONT.with_(front_compress_min=10 ** 6))
        assert ctx.n_sampled_borders == 0
        assert np.array_equal(s_dense, s_gated)
        assert np.array_equal(sol_dense.x, sol_gated.x)

    _baseline: dict = {}

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_byte_identity_across_workers(self, pipe_small, n_workers):
        """The sampled pipeline must preserve the ordered-commit
        guarantee: byte-identical S and solution for every worker count."""
        if not self._baseline:
            s, sol, _ = _run(pipe_small, FRONT.with_(n_workers=1))
            self._baseline["s"] = s
            self._baseline["x"] = sol.x
        s, sol, ctx = _run(pipe_small, FRONT.with_(n_workers=n_workers))
        assert ctx.n_sampled_borders > 0
        assert np.array_equal(self._baseline["s"], s)
        assert np.array_equal(self._baseline["x"], sol.x)
