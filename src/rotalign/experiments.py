"""Monte-Carlo benchmark: random linear fields, random outer rotations,
detection error and iteration statistics.

Each trial draws a field with nine coefficients uniform on [-1, 1] over the
standard box, an outer rotation with a uniformly distributed plane normal and
an angle uniform up to just below pi, and detects it from its moments,
S = A X A^T (X the box's second moment) and K = R S, with detect_moments,
the loop that detect runs, and no pattern field built.  The error is the
Frobenius distance of the coefficient matrices, read off the residual rotor
and equal to detect's on rotate_outer's copy to 1e-12.

Seeding is positional: trial i derives its generator from
SeedSequence(master_seed, spawn_key=(i,)), so statistics are independent of
execution order and any subset of trials can be reproduced in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ga3 import UnitBivector, rotation_matrix, rotation_rotor, rotor_product
from .fields import LinearVectorField, check_angle, cross_moment
from .detector import DetectionConfig, detect_moments

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
    plane = UnitBivector.from_normal(rng.standard_normal(3))
    return plane, ANGLE_CAP * rng.random()  # the value uniform(0, cap) draws


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
    """Run one detection; returns (coefficient error, iterations, converged).

    detect(field, rotate_outer(field, plane, angle)) scored by the Frobenius
    distance of the coefficients, with no field built: S = A X A^T and K = R S,
    R the outer rotation acting on K as the correlation module states, so R A
    is never formed.  The corrected coefficients are E A, E the sandwich by the
    residual rotor e = net * rotation_rotor(R).  For a unit e = w + v, with
    v = (e23, -e13, e12) read as rotation_matrix reads a plane,
    |(E - I) a|^2 = 4 |v x a|^2, so |A - E A| = 2 sqrt(sum_j |v x a_j|^2)
    over A's columns, with no angle read.  Passes and exit are detect's, and
    the error agrees with the field path to 1e-12.  An angle outside [0, pi]
    raises ValueError.  The loop's check of tr S rejects a zero or
    non-finite field, and covers the pattern too: an exact rotated copy has
    the reference's energy.
    """
    check_angle(spec.angle)
    s = cross_moment(spec.field, spec.field)
    loop = detect_moments(
        rotation_matrix(spec.plane, spec.angle).dot(s).ravel().tolist(),
        s.ravel().tolist(), DetectionConfig(spec.epsilon, max_iterations))
    _, e12, e13, e23 = rotor_product(
        loop.net, rotation_rotor(spec.plane, spec.angle))
    x, y, z = e23, -e13, e12
    sq = 0.0
    for ax, ay, az in spec.field.matrix.T.tolist():
        sq += ((y * az - z * ay) ** 2 + (z * ax - x * az) ** 2
               + (x * ay - y * ax) ** 2)
    return 2.0 * math.sqrt(sq), loop.iterations, loop.converged


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
        nonconverged += not converged
    return TrialStats(n, total_err / n, max_err, total_iters / n, nonconverged)


CSV_HEADER = "epsilon,n,avg_error,max_error,avg_iters,n_nonconverged"


def stats_csv_row(epsilon: float, stats: TrialStats) -> str:
    return (f"{epsilon:g},{stats.n_trials},{stats.average_error:.6g},"
            f"{stats.max_error:.6g},{stats.average_iterations:.6g},"
            f"{stats.n_nonconverged}")


def stats_to_dict(epsilon: float, stats: TrialStats) -> dict:
    """The CSV row's columns, unrounded, keyed by CSV_HEADER."""
    return dict(zip(CSV_HEADER.split(","), (epsilon, *vars(stats).values())))
