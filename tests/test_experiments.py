"""Benchmark harness tests: seeding discipline, draw distributions, the
error metric, and aggregation."""

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from rotalign.ga3 import E12, rotation_matrix
from rotalign.fields import Box, LinearVectorField, rotate_outer
from rotalign.experiments import (
    ANGLE_CAP, CSV_HEADER, TrialStats, coefficient_error, draw_trial,
    random_linear_field, random_rotation, run_trial, run_trials,
    stats_csv_row, stats_to_dict, trial_generator,
)


# ---------------------------------------------------------------------------
# seeding

def test_trial_generator_is_positional():
    a = trial_generator(42, 7).uniform(size=4)
    b = trial_generator(42, 7).uniform(size=4)
    assert np.array_equal(a, b)
    c = trial_generator(42, 8).uniform(size=4)
    assert not np.array_equal(a, c)


def test_draw_trial_deterministic():
    a = draw_trial(42, 3, 1e-3)
    b = draw_trial(42, 3, 1e-3)
    assert np.array_equal(a.field.matrix, b.field.matrix)
    assert a.angle == b.angle
    assert tuple(a.plane.components) == tuple(b.plane.components)


# ---------------------------------------------------------------------------
# draws

def test_random_field_entries_in_range():
    rng = trial_generator(1, 0)
    for _ in range(100):
        f = random_linear_field(rng)
        assert np.all(np.abs(f.matrix) <= 1.0)


def test_random_field_mean_concentration():
    rng = trial_generator(2, 0)
    total = np.zeros((3, 3))
    n = 100_000
    draws = rng.uniform(-1.0, 1.0, (n, 3, 3))  # same distribution, batched
    total = draws.mean(axis=0)
    assert np.all(np.abs(total) < 0.02)


def test_random_rotation_plane_is_unit():
    rng = trial_generator(3, 0)
    for _ in range(200):
        plane, angle = random_rotation(rng)
        assert math.isclose(float(np.linalg.norm(plane.components)), 1.0,
                            abs_tol=1e-12)
        assert 0.0 <= angle < ANGLE_CAP


def test_random_rotation_normal_mean_concentration():
    rng = trial_generator(4, 0)
    n = 100_000
    acc = np.zeros(3)
    for _ in range(n):
        plane, _ = random_rotation(rng)
        acc += plane.normal()
    assert np.all(np.abs(acc / n) < 0.02)


def test_random_rotation_angle_uniform():
    rng = trial_generator(5, 0)
    angles = np.array([random_rotation(rng)[1] for _ in range(100_000)])
    counts, _ = np.histogram(angles, bins=20, range=(0.0, math.pi))
    result = sps.chisquare(counts)
    assert result.pvalue > 1e-4


# ---------------------------------------------------------------------------
# error metric

def test_coefficient_error_examples():
    m = np.arange(9, dtype=float).reshape(3, 3)
    a = LinearVectorField(m)
    assert coefficient_error(a, LinearVectorField(m.copy())) == 0.0
    m2 = m.copy()
    m2[1, 2] += 1.0
    assert math.isclose(coefficient_error(a, LinearVectorField(m2)), 1.0,
                        abs_tol=1e-15)


def test_coefficient_error_of_half_turn():
    m = np.array([[0.3, -0.2, 0.5], [0.1, 0.9, -0.4], [-0.7, 0.2, 0.6]])
    f = LinearVectorField(m)
    rotated = rotate_outer(f, E12, math.pi)
    got = coefficient_error(f, rotated)
    r = rotation_matrix(E12, math.pi)
    want = float(np.linalg.norm((r - np.eye(3)) @ m))
    assert math.isclose(got, want, abs_tol=1e-12)


def test_coefficient_error_needs_matching_boxes():
    a = LinearVectorField(np.eye(3))
    b = LinearVectorField(np.eye(3), Box((-2, -1, -1), (1, 1, 1)))
    with pytest.raises(ValueError):
        coefficient_error(a, b)


# ---------------------------------------------------------------------------
# trial running

def test_run_trials_deterministic_and_converged():
    a = run_trials(50, 0.01, master_seed=11)
    b = run_trials(50, 0.01, master_seed=11)
    assert a == b
    assert a.n_trials == 50
    assert a.n_nonconverged == 0
    assert a.average_error <= a.max_error
    assert a.average_error < 0.2


def test_single_trial_matches_aggregate():
    stats = run_trials(1, 0.01, master_seed=13)
    err, iters, converged = run_trial(draw_trial(13, 0, 0.01))
    assert stats.average_error == err
    assert stats.max_error == err
    assert stats.average_iterations == float(iters)
    assert converged


def test_angle_cap_strictly_below_pi():
    assert ANGLE_CAP < math.pi
    for i in range(100):
        assert draw_trial(17, i, 0.1).angle < math.pi


def test_run_trials_rejects_empty():
    with pytest.raises(ValueError):
        run_trials(0, 0.1, master_seed=0)


def test_error_shrinks_with_epsilon():
    coarse = run_trials(40, 0.1, master_seed=23)
    fine = run_trials(40, 0.001, master_seed=23)
    assert fine.average_error < coarse.average_error
    assert fine.average_iterations > coarse.average_iterations


# ---------------------------------------------------------------------------
# emission

def test_csv_row_shape():
    stats = TrialStats(10, 0.01, 0.05, 4.5, 0)
    assert CSV_HEADER.split(",") == ["epsilon", "n", "avg_error", "max_error",
                                     "avg_iters", "n_nonconverged"]
    row = stats_csv_row(0.1, stats)
    parts = row.split(",")
    assert len(parts) == 6
    assert float(parts[0]) == 0.1
    assert int(parts[1]) == 10
    assert float(parts[4]) == 4.5


def test_json_round_trip():
    stats = TrialStats(10, 0.01, 0.05, 4.5, 1)
    doc = json.loads(json.dumps(stats_to_dict(0.1, stats)))
    assert doc == stats_to_dict(0.1, stats)
    assert doc["n_nonconverged"] == 1
