"""Tests of the benchmark itself, on shrunk cases.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload  # noqa: E402

#: shrunk case sizes: same code paths, a fraction of the time
SMALL = {
    "pipe-multisolve-hmat": 1500,
    "pipe-multifacto-hmat": 1500,
    "aircraft-serve-sweep": 1200,
}


@pytest.fixture(autouse=True)
def _pinned(monkeypatch, tmp_path):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)


def _entry_point_values():
    return [
        (owner.__dict__[attr] if isinstance(owner, type)
         else getattr(owner, attr))
        for owner, attr, _, _ in tracing._entry_points()
    ]


def _check_metrics(result, units):
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics(name, tmp_path):
    result, info = run_workload(name, seed=1, seconds=0.3, trace=False,
                                n_total=SMALL[name], socket_dir=str(tmp_path))
    _check_metrics(result, END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert info["relative_error_max"] <= WORKLOADS[name].epsilon
    assert info["residual_norm"] < 1.0
    assert info["failed_frac"] == 0.0
    assert info["nproc"] == os.cpu_count()
    assert info["config"]["effective_n_workers"] == (
        WORKLOADS[name].config.get("n_workers", 1))
    if WORKLOADS[name].kind == "serve":
        assert result["attempted"] > workloads.MIN_SOLVES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_unwraps(name, tmp_path):
    before = _entry_point_values()
    # a second seed: other inputs, the same correctness checks
    result, _ = run_workload(name, seed=2, seconds=0.3, trace=True,
                             n_total=SMALL[name], socket_dir=str(tmp_path))
    _check_metrics(result, PER_LAYER)
    assert _entry_point_values() == before
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if WORKLOADS[name].kind == "pipe":
        assert m["hmatrix.svd_truncate_calls"] > 0
        assert m["runtime.tasks"] > 0
    else:
        assert m["hmatrix.aca_calls"] == 0
        assert m["dense.solve_s"] > 0
        assert m["serving.batch_requests_mean"] >= 1


def test_self_times_account_for_the_traced_wall(tmp_path):
    result, _ = run_workload("pipe-multifacto-hmat", seed=1, seconds=0.3,
                             trace=True, n_total=SMALL["pipe-multifacto-hmat"],
                             socket_dir=str(tmp_path))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    attributed = m["core.self_s"] + sum(
        m[f"{layer}.coord_self_s"]
        for layer in ("sparse", "hmatrix", "dense", "runtime"))
    assert attributed == pytest.approx(m["trace.coord_wall_s"], rel=1e-9)
    assert m["trace.coord_wall_s"] == pytest.approx(m["trace.wall_s"],
                                                    rel=1e-2)
    assert m["core.self_s"] >= 0
    assert math.isfinite(m["trace.overhead_s"])


def test_tracer_restores_entry_points_on_error():
    before = _entry_point_values()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer() as tracer:
            assert _entry_point_values() != before
            with tracer.span("core.probe"):
                1 / 0
    assert _entry_point_values() == before
    summary = tracer.summary()
    assert summary.calls == {"core.probe": 1}
    assert summary.root_wall_s == pytest.approx(
        summary.coordinator["core"])


@pytest.mark.parametrize("name", ["pipe-multisolve-hmat",
                                  "aircraft-serve-sweep"])
def test_seed_changes_the_inputs(name):
    one = workloads._generate(WORKLOADS[name], SMALL[name], seed=1)
    two = workloads._generate(WORKLOADS[name], SMALL[name], seed=2)
    assert not np.array_equal(one.b_s, two.b_s)
    again = workloads._generate(WORKLOADS[name], SMALL[name], seed=1)
    assert np.array_equal(one.b_s, again.b_s)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert workloads.percentile(samples, 0.95) == 190
    assert workloads.percentile(samples, 0.50) == 100
    assert workloads.percentile([7.0], 0.95) == 7.0


def test_sliced_p95_ignores_one_stalled_slice():
    # 5 slices of 100 samples over 10 s; every sample in the last slice
    # is a stall
    samples = [(i / 50.0, 1.0 + (i % 100) / 100.0) for i in range(400)]
    samples += [(8.0 + i / 50.0, 50.0) for i in range(100)]
    slices = workloads._slices(samples, 10.0)
    assert [len(s) for s in slices] == [100] * workloads.SLICES
    assert workloads._sliced_p95(slices) == pytest.approx(1.94)


def test_pin_environment(monkeypatch):
    monkeypatch.setenv("REPRO_N_WORKERS", "4")
    monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "process")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    run.pin_environment()
    assert not [k for k in os.environ if k.startswith("REPRO_")]
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "aircraft-serve-sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
