"""Smoke and exactness tests of the benchmark, at tiny pool sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs as bi  # noqa: E402
import run  # noqa: E402
from bench_speed import HostSpeed  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402
from rotalign import experiments  # noqa: E402
from rotalign.ga3 import UnitBivector, rotation_matrix  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"mc-linear": 60, "grid-cli": 3, "piecewise": 3}


@pytest.fixture(autouse=True)
def tiny_pools(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setattr(WORKLOADS[name], "default_pool", size)


def bench(workload, trace, seed=7):
    """Run the benchmark in-process; return (exit code, result object)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_reports_every_metric(workload):
    code, result = bench(workload, trace=0)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= TINY[workload]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())

    code, traced = bench(workload, trace=1)
    assert code == 0 and traced["correct"], traced
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want


@pytest.mark.parametrize("workload", ["mc-linear", "grid-cli", "piecewise"])
def test_self_times_add_up_to_the_call(workload, tmp_path):
    w = WORKLOADS[workload]()
    w.setup(7, TINY[workload], tmp_path)
    tracer, results, _, traced_s, failures = run.measure_traced(
        w, 0, HostSpeed())
    assert not failures
    layers = tracer.layers
    root_ns = layers[w.root].total_ns
    assert sum(s.self_ns for s in layers.values()) == root_ns
    assert 0 < root_ns / 1e9 <= traced_s


COUNTS = ("correlation.calls", "correlation.cell_pairs",
          "correlation.bytes_computed", "fields.rotate_calls",
          "detector.iterations_mean", "detector.iterations_max")


@pytest.mark.parametrize("workload", ["mc-linear", "grid-cli", "piecewise"])
def test_counts_repeat_exactly_on_the_same_seed(workload):
    runs = [bench(workload, trace=1, seed=3)[1]["metrics"] for _ in range(2)]
    assert [runs[0][k]["value"] for k in COUNTS] == \
        [runs[1][k]["value"] for k in COUNTS]
    m = runs[0]
    if workload == "grid-cli":
        assert m["correlation.bytes_computed"]["value"] > 0
    if workload == "piecewise":
        assert m["correlation.cell_pairs"]["value"] == \
            m["correlation.calls"]["value"] * bi.PIECEWISE_CELLS ** 2


def fake_run_trials(errors):
    """A stand-in for run_trials: trial i errs by errors(i, eps) and takes the
    paper's average iterations."""
    def run_trials(n, epsilon, master_seed):
        error = errors(master_seed & 0xFFFFFFFF, epsilon)
        iterations = round(bi.PAPER_TABLE[epsilon][1])
        return experiments.TrialStats(n, error, error, iterations, 0)
    return run_trials


def test_precision_tail_at_the_smallest_tolerance_sets_error_p99(monkeypatch):
    # Every trial errs by 2 eps, except two eps = 1e-3 trials that err by
    # 30 eps: still ten times less than a typical eps = 0.1 trial.
    tail = {2, 32}
    monkeypatch.setattr(experiments, "run_trials", fake_run_trials(
        lambda i, eps: (30 if i in tail else 2) * eps))
    code, result = bench("mc-linear", trace=1)
    assert code == 0, result
    assert result["metrics"]["detector.error_p99"]["value"] > 10


def test_trials_beyond_any_rotation_fail(monkeypatch):
    monkeypatch.setattr(experiments, "run_trials", fake_run_trials(
        lambda i, eps: 6.0 if i == 5 else 2 * eps))
    code, result = bench("mc-linear", trace=0)
    assert code == 1 and result["failed"] == 1


def test_too_many_imprecise_trials_fail(monkeypatch):
    pool = 3 * WORKLOADS["mc-linear"].WINDOW_MIN_TRIALS
    monkeypatch.setattr(WORKLOADS["mc-linear"], "default_pool", pool)
    # 2 % of the eps = 1e-3 trials err by 100 eps, i.e. their residual
    # rotation is far above MC_TAIL_BOUND eps.
    monkeypatch.setattr(experiments, "run_trials", fake_run_trials(
        lambda i, eps: (100 if i % 150 == 2 else 2) * eps))
    code, result = bench("mc-linear", trace=0)
    assert code == 1 and result["failed"] == 1


def test_mc_fields_are_redrawn_as_the_program_draws_them():
    for trial in bi.mc_trials(9, 6):
        spec = experiments.draw_trial(trial.master_seed, 0, trial.epsilon)
        np.testing.assert_array_equal(bi.mc_field(trial.master_seed),
                                      spec.field.matrix)
        assert trial.field_norm == pytest.approx(np.linalg.norm(spec.field.matrix))


def test_wrong_answers_fail_the_run(monkeypatch):
    monkeypatch.setattr(bi, "MISFIT_TOL", 0.0)
    code, result = bench("piecewise", trace=0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]


def test_rodrigues_rebuild_matches_the_program_convention():
    rng = np.random.default_rng(11)
    for _ in range(20):
        plane = UnitBivector.from_normal(rng.standard_normal(3))
        angle = float(rng.uniform(0.0, math.pi))
        np.testing.assert_allclose(
            bi.reported_rotation(angle, plane.components),
            rotation_matrix(plane, angle), atol=1e-14)


def test_misfit_separates_right_from_wrong_rotations():
    pair = bi.piecewise_pairs(0, 1)[0]
    assert pair.pattern.shape == (bi.PIECEWISE_CELLS, 3)
    right = bi.relative_misfit(pair.reference, pair.reference, np.eye(3),
                               pair.volumes)
    wrong = bi.relative_misfit(pair.reference, pair.reference,
                               bi.random_rotation(np.random.default_rng(1)),
                               pair.volumes)
    assert right == 0.0 and wrong > 10 * bi.MISFIT_TOL


def test_inputs_are_seeded_prefixes():
    a = bi.piecewise_pairs(5, 4)
    b = bi.piecewise_pairs(5, 2)
    c = bi.piecewise_pairs(6, 2)
    assert all(np.array_equal(x.pattern, y.pattern) for x, y in zip(a, b))
    assert not np.array_equal(a[0].pattern, c[0].pattern)
    assert [t.master_seed for t in bi.mc_trials(5, 3)] == \
        [t.master_seed for t in bi.mc_trials(5, 6)[:3]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-linear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
