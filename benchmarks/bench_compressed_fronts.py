"""Compressed fronts: FCSU panels + randomized sampled Schur borders.

A/B lanes of the low-rank frontal pipeline on the multi-factorization
algorithm (the paper's larger-systems workhorse):

* **baseline** — ``front_compress`` off: exact FSCU panel updates and a
  dense Schur border extracted per block, subtracted from the HODLR
  container through the dense AXPY path;
* **compressed** — ``front_compress`` on: FCSU compresses large coupling
  panels *before* the contribution-block update, and the Schur border of
  each large block is sampled against the sparse factorization by the
  randomized range finder, flowing into the container as low-rank
  quadrants without ever materializing the dense border.

The quantity held to the acceptance target is the
``sparse_factorization_schur`` phase — the per-block sparse
factorization + Schur border construction the compression exists to
shrink — at an *equal* solution-accuracy budget (both lanes ≤ ε).  The
sampled path must also keep the ordered-commit guarantee: solutions are
asserted byte-identical across worker counts.

Emits ``BENCH_compressed_fronts.json`` for the CI perf-smoke job; the
≥1.4× phase-reduction assertion is gated on a full-size run
(``REPRO_BENCH_SCALE >= 1``) like every wall-clock target.
"""

import time

import numpy as np

from repro.core import SolverConfig, solve_coupled
from repro.runner.reporting import render_table

from bench_utils import bench_scale, write_bench_json, write_result

#: n_b=1 keeps a single large surface block — the regime where border
#: sampling pays most (the measured reduction shrinks as n_b grows and
#: blocks drop toward the sampling threshold).
COMPRESSED = SolverConfig(dense_backend="hmat", n_c=64, n_b=1,
                          front_compress=True, front_compress_min=64)
BASELINE = COMPRESSED.with_(front_compress=False)

PHASE = "sparse_factorization_schur"


def _run(problem, config):
    t0 = time.perf_counter()
    sol = solve_coupled(problem, "multi_factorization", config)
    wall = time.perf_counter() - t0
    err = problem.relative_error(sol.x[:problem.n_fem],
                                 sol.x[problem.n_fem:])
    return sol, wall, err


def test_compressed_fronts(benchmark, pipe_4k):
    epsilon = COMPRESSED.epsilon
    sol_base, wall_base, err_base = _run(pipe_4k, BASELINE)
    sol_comp, wall_comp, err_comp = _run(pipe_4k, COMPRESSED)
    assert err_base <= epsilon and err_comp <= epsilon

    phase_base = sol_base.stats.phases[PHASE]
    phase_comp = sol_comp.stats.phases[PHASE]
    ratio = phase_base / max(phase_comp, 1e-9)
    params = sol_comp.stats.params
    assert params["front_compress"] is True
    assert params["n_sampled_borders"] > 0

    # ordered commits: the sampled pipeline is byte-identical for any
    # worker count
    byte_identical = True
    for n_workers in (2, 4):
        sol, _, _ = _run(pipe_4k, COMPRESSED.with_(n_workers=n_workers))
        byte_identical &= bool(np.array_equal(sol_comp.x, sol.x))
    assert byte_identical

    rows = [
        ("baseline", f"{phase_base:.3f}s", f"{wall_base:.2f}s",
         f"{err_base:.2e}", "-", "-"),
        ("compressed", f"{phase_comp:.3f}s", f"{wall_comp:.2f}s",
         f"{err_comp:.2e}", str(params["n_sampled_borders"]),
         str(params["n_border_fallbacks"])),
    ]
    write_result(
        "compressed_fronts",
        render_table(
            ["lane", PHASE, "wall", "rel err", "sampled", "fallbacks"],
            rows,
            title=f"Compressed fronts (pipe N={pipe_4k.n_total:,}, "
                  f"n_b={COMPRESSED.n_b}): phase reduction "
                  f"{ratio:.2f}x at epsilon={epsilon:g}",
        ),
    )
    write_bench_json("compressed_fronts", {
        "case": {
            "n_total": pipe_4k.n_total,
            "n_fem": pipe_4k.n_fem,
            "n_bem": pipe_4k.n_bem,
            "n_b": COMPRESSED.n_b,
            "n_c": COMPRESSED.n_c,
            "front_compress_min": COMPRESSED.front_compress_min,
            "bench_scale": bench_scale(),
        },
        "epsilon": epsilon,
        "phase": PHASE,
        "phase_seconds": {"baseline": phase_base,
                          "compressed": phase_comp},
        "reduction_factor": ratio,
        "wall_seconds": {"baseline": wall_base, "compressed": wall_comp},
        "relative_error": {"baseline": err_base, "compressed": err_comp},
        "sampling_seconds": sol_comp.stats.phases.get("schur_sampling",
                                                      0.0),
        "front_compress_seconds": sol_comp.stats.phases.get(
            "front_compress", 0.0),
        "n_sampled_borders": params["n_sampled_borders"],
        "n_border_fallbacks": params["n_border_fallbacks"],
        "byte_identical_across_workers": byte_identical,
    })
    if bench_scale() >= 1.0:
        # acceptance target: compressing the border construction buys
        # >= 1.4x on the sparse factorization+Schur phase at equal
        # accuracy (scaled-down CI smoke runs skip the wall-clock gate)
        assert ratio >= 1.4, (phase_base, phase_comp)
    benchmark.pedantic(
        solve_coupled,
        args=(pipe_4k, "multi_factorization", COMPRESSED),
        rounds=1, iterations=1,
    )
