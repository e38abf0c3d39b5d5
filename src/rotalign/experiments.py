"""Monte-Carlo benchmark: random linear fields, random outer rotations,
detection error and iteration statistics.

Each trial draws a field with nine coefficients uniform on [-1, 1] over the
standard box, an outer rotation with a uniformly distributed plane normal and
an angle uniform up to just below pi, rotates the field, runs the detector,
and scores the corrected pattern against the original by the Frobenius
distance of the coefficient matrices.

Seeding is positional: trial i derives its generator from
SeedSequence(master_seed, spawn_key=(i,)), so statistics are independent of
execution order and any subset of trials can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ga3 import UnitBivector
from .fields import LinearVectorField, rotate_outer
from .detector import DetectionConfig, detect

# Stay strictly inside [0, pi): the convergence guarantee is open at pi and
# the aggregate statistics must not depend on the disturbance heuristic.
ANGLE_CAP = math.pi * (1.0 - 1e-9)


def trial_generator(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial RNG, independent of trial execution order."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=(index,))))


def random_linear_field(rng: np.random.Generator) -> LinearVectorField:
    """Field with nine i.i.d. uniform [-1, 1] coefficients on the unit box."""
    return LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))


def random_rotation(rng: np.random.Generator) -> tuple[UnitBivector, float]:
    """Uniform rotation plane (via a uniform unit normal) and an angle
    uniform on [0, ANGLE_CAP)."""
    n = rng.standard_normal(3)
    while np.linalg.norm(n) < 1e-12:
        n = rng.standard_normal(3)
    plane = UnitBivector.from_normal(n)
    return plane, float(rng.uniform(0.0, ANGLE_CAP))


def coefficient_error(original: LinearVectorField,
                      recovered: LinearVectorField) -> float:
    """Frobenius distance between the coefficient matrices."""
    if original.box != recovered.box:
        raise ValueError("fields must share a support box")
    return float(np.linalg.norm(original.matrix - recovered.matrix))


@dataclass(frozen=True)
class TrialSpec:
    """Everything one trial draws, reproducible from (master_seed, index)."""

    master_seed: int
    index: int
    epsilon: float
    field: LinearVectorField
    plane: UnitBivector
    angle: float


@dataclass(frozen=True)
class TrialStats:
    n_trials: int
    average_error: float
    max_error: float
    average_iterations: float
    n_nonconverged: int


def draw_trial(master_seed: int, index: int, epsilon: float) -> TrialSpec:
    rng = trial_generator(master_seed, index)
    field = random_linear_field(rng)
    plane, angle = random_rotation(rng)
    return TrialSpec(master_seed, index, epsilon, field, plane, angle)


def run_trial(spec: TrialSpec,
              max_iterations: int = 1000) -> tuple[float, int, bool]:
    """Run one detection; returns (coefficient error, iterations, converged)."""
    pattern = rotate_outer(spec.field, spec.plane, spec.angle)
    report = detect(spec.field, pattern,
                    DetectionConfig(epsilon=spec.epsilon,
                                    max_iterations=max_iterations))
    err = coefficient_error(spec.field, report.corrected_pattern)
    return err, report.iterations, report.converged


def run_trials(n: int, epsilon: float, master_seed: int,
               max_iterations: int = 1000) -> TrialStats:
    """Aggregate n seeded trials at one tolerance into TrialStats."""
    if n < 1:
        raise ValueError("need at least one trial")
    total_err = 0.0
    max_err = 0.0
    total_iters = 0
    nonconverged = 0
    for i in range(n):
        err, iters, converged = run_trial(
            draw_trial(master_seed, i, epsilon), max_iterations)
        total_err += err
        max_err = max(max_err, err)
        total_iters += iters
        if not converged:
            nonconverged += 1
    return TrialStats(
        n_trials=n,
        average_error=total_err / n,
        max_error=max_err,
        average_iterations=total_iters / n,
        n_nonconverged=nonconverged,
    )


CSV_HEADER = "epsilon,n,avg_error,max_error,avg_iters,n_nonconverged"


def stats_csv_row(epsilon: float, stats: TrialStats) -> str:
    return (f"{epsilon:g},{stats.n_trials},{stats.average_error:.6g},"
            f"{stats.max_error:.6g},{stats.average_iterations:.6g},"
            f"{stats.n_nonconverged}")


def stats_to_dict(epsilon: float, stats: TrialStats) -> dict:
    return {
        "epsilon": epsilon,
        "n": stats.n_trials,
        "avg_error": stats.average_error,
        "max_error": stats.max_error,
        "avg_iters": stats.average_iterations,
        "n_nonconverged": stats.n_nonconverged,
    }
