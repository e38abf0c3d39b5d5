"""Benchmark harness tests: seeding discipline, draw distributions, the
error metric, and aggregation."""

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from rotalign.ga3 import E12, rotation_matrix
from rotalign.fields import Box, LinearVectorField, rotate_outer
from rotalign.detector import DetectionConfig, detect
from rotalign.experiments import (
    ANGLE_CAP, CSV_HEADER, TrialSpec, TrialStats, draw_trial,
    random_linear_field, random_rotation, run_trial, run_trials,
    stats_csv_row, stats_to_dict, trial_generator,
)

from conftest import coefficient_error


# ---------------------------------------------------------------------------
# seeding

def test_trial_generator_is_positional():
    a = trial_generator(42, 7).uniform(size=4)
    b = trial_generator(42, 7).uniform(size=4)
    assert np.array_equal(a, b)
    c = trial_generator(42, 8).uniform(size=4)
    assert not np.array_equal(a, c)


def test_draw_trial_matches_a_recorded_trial():
    spec = draw_trial(0, 0, 0.1)
    assert spec.field.matrix.tolist() == [
        [0.8858751057657588, -0.3673256952290038, 0.44468517729965074],
        [-0.7487938291346135, -0.15404727497005988, 0.2960761951745656],
        [-0.8866455159387963, 0.6378340728103582, -0.4626065588231665]]
    assert tuple(spec.plane) == (0.43757041620510956, 0.544946991545594,
                                 0.7152376578924614)
    assert spec.angle == 2.861567443487878


# ---------------------------------------------------------------------------
# draws

def test_random_field_entries_in_range():
    rng = trial_generator(1, 0)
    for _ in range(100):
        f = random_linear_field(rng)
        assert np.all(np.abs(f.matrix) <= 1.0)


@pytest.mark.parametrize("seed, n, draw", [
    (2, 20_000, lambda rng: random_linear_field(rng).matrix),
    (4, 100_000, lambda rng: random_rotation(rng)[0].normal()),
], ids=["field", "rotation-normal"])
def test_draws_concentrate_about_a_zero_mean(seed, n, draw):
    rng = trial_generator(seed, 0)
    assert np.all(np.abs(np.mean([draw(rng) for _ in range(n)], axis=0)) < 0.02)


@pytest.mark.parametrize("index, n", [(0, 200), (1, 20)])
def test_random_rotation_draws_floats_a_unit_plane_and_an_angle_below_the_cap(
        index, n):
    rng = trial_generator(3, index)
    for _ in range(n):
        plane, angle = random_rotation(rng)
        assert all(type(c) is float for c in (*plane, angle))
        assert math.isclose(float(np.linalg.norm(plane.components)), 1.0,
                            abs_tol=1e-12)
        assert 0.0 <= angle < ANGLE_CAP < math.pi


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


def field_path_trial(spec: TrialSpec, max_iterations: int = 1000):
    """run_trial through field objects: rotate, detect, score."""
    pattern = rotate_outer(spec.field, spec.plane, spec.angle)
    report = detect(spec.field, pattern,
                    DetectionConfig(spec.epsilon, max_iterations))
    err = coefficient_error(spec.field, report.corrected_pattern)
    return err, report.iterations, report.converged


def assert_same_trial(spec, max_iterations=1000):
    """The same passes and exit as the field path, and the same error to
    the behaviour lock's 1e-12: run_trial reads K as R S and scores the
    residual rotor, so its error is the field path's up to rounding."""
    err, iterations, converged = run_trial(spec, max_iterations)
    want_err, want_iterations, want_converged = field_path_trial(
        spec, max_iterations)
    assert (iterations, converged) == (want_iterations, want_converged)
    assert abs(err - want_err) <= 1e-12


def test_closed_form_trial_matches_the_field_path():
    for epsilon, n in ((0.1, 300), (0.01, 300), (0.001, 300), (1e-6, 100)):
        for i in range(n):
            assert_same_trial(draw_trial(0, i, epsilon))
    # off-centre boxes, so X is not (8/3) I and has off-diagonal terms
    rng = trial_generator(29, 0)
    for box in (Box((-0.5, -2.0, 0.0), (1.5, 1.0, 3.0)),
                Box((2.0, 3.0, -4.0), (2.5, 5.0, -3.0))):
        for _ in range(20):
            plane, angle = random_rotation(rng)
            field = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)), box)
            assert_same_trial(TrialSpec(29, 0, 0.01, field, plane, angle))
    # the first pass's real fold (angle 0), and runs cut short
    assert_same_trial(TrialSpec(0, 0, 0.01, draw_trial(0, 0, 0.01).field,
                                E12, 0.0))
    for max_iterations in (1, 3):
        for i in range(20):
            assert_same_trial(draw_trial(0, i, 0.001), max_iterations)


def test_closed_form_trial_checks_its_input(monkeypatch):
    spec = draw_trial(0, 1, 0.01)
    for angle in (-0.1, math.pi + 1e-6, math.nan):
        with pytest.raises(ValueError, match="outside"):
            run_trial(TrialSpec(0, 1, 0.01, spec.field, spec.plane, angle))
    zero = TrialSpec(0, 1, 0.01, LinearVectorField(np.zeros((3, 3))),
                     spec.plane, spec.angle)
    with pytest.raises(ValueError, match="cannot detect rotation against a zero field"):
        run_trial(zero)

    built = []
    check = LinearVectorField.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(LinearVectorField, "__post_init__", counted)
    run_trial(spec)
    assert built == []  # scored on the coefficient matrices, no field built
    field_path_trial(spec)
    assert len(built) == 2  # the pattern and the corrected pattern


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
