"""Acceptance gate: the eight go/no-go checks for the package.

Each check prints exactly one PASS/FAIL line (bypassing capture) with the
measured numbers, then asserts.  The thousand-trial convergence ensemble is
shared between checks 4 and 5; the desk-scale benchmark sweep in check 6 runs
ten thousand trials per tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from rotalign.ga3 import (
    E12, E13, Multivector, UnitBivector, exp_bivector, polar_decompose,
    rotation_rotor, sandwich,
)
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, UNIT_BOX,
    decompose, l2_norm, normalize, rotate_outer,
)
from rotalign.correlation import (
    correlate_at_origin, normalized_correlation, quadrature_correlate,
)
from rotalign.detector import DetectionConfig, detect, residual_angle
from rotalign.experiments import draw_trial, run_trials, coefficient_error

MASTER_SEED = 0          # fixed for bit-reproducible acceptance runs
N_CONVERGENCE = 1000
CONVERGENCE_EPS = 1e-6


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} "
              f"{name}: {detail}")


def two_halves(right, left):
    return PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), right),
        (Box((-1, -1, -1), (0, 1, 1)), left),
    ))


def best_of(repeats, fn):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def convergence_trials():
    """The shared thousand-trial ensemble at the tightest tolerance."""
    out = []
    t0 = time.perf_counter()
    for i in range(N_CONVERGENCE):
        spec = draw_trial(MASTER_SEED, i, CONVERGENCE_EPS)
        pattern = rotate_outer(spec.field, spec.plane, spec.angle)
        rep = detect(spec.field, pattern,
                     DetectionConfig(epsilon=CONVERGENCE_EPS))
        out.append((spec, pattern, rep))
    return out, time.perf_counter() - t0


def test_criterion_1_golden_correlation(capsys):
    original = two_halves((1, 0, 0), (0, 1, 0))
    copy = rotate_outer(original, E13, math.pi / 2)
    cor = correlate_at_origin(copy, original)
    want = np.zeros(8)
    want[0], want[5] = 4.0, -4.0
    value_ok = bool(np.all(np.abs(cor.coeffs - want) <= 1e-12))
    seconds = best_of(20, lambda: correlate_at_origin(copy, original))
    ok = value_ok and seconds < 1e-3
    report(capsys, 1, "golden correlation", ok,
           f"value = {cor}, runtime = {seconds * 1e6:.1f} us")
    assert ok


def test_criterion_2_golden_counterexample(capsys):
    original = two_halves((1, 1, 0), (0, 1, 0))
    copy = rotate_outer(original, E13, math.pi / 2)
    pf = polar_decompose(correlate_at_origin(original, copy))
    want_plane = np.ones(3) / math.sqrt(3)
    want_angle = math.atan(math.sqrt(3) / 2)
    value_ok = (np.all(np.abs(pf.plane.components - want_plane) <= 1e-10)
                and abs(pf.angle - want_angle) <= 1e-10)
    seconds = best_of(
        20, lambda: polar_decompose(correlate_at_origin(original, copy)))
    ok = bool(value_ok) and seconds < 1e-3
    report(capsys, 2, "golden counterexample", ok,
           f"angle = {pf.angle:.9f} (want {want_angle:.9f}), "
           f"plane = {pf.plane.components}, runtime = {seconds * 1e6:.1f} us")
    assert ok


def test_criterion_3_planar_exactness(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        matrix = rng.uniform(-1.0, 1.0, (3, 3))
        matrix[2, :] = 0.0          # values stay in the e1-e2 plane
        field = LinearVectorField(matrix)
        angle = rng.uniform(0.0, math.pi)
        pattern = rotate_outer(field, E12, angle)
        rep = detect(field, pattern,
                     DetectionConfig(epsilon=1e-12, max_iterations=50))
        assert len(rep.phi_trace) >= 2
        worst = max(worst, rep.phi_trace[1])
    ok = worst <= 1e-10
    report(capsys, 3, "planar one-step exactness", ok,
           f"worst second-pass angle over 100 fields = {worst:.3g}")
    assert ok


def test_criterion_4_residual_monotonicity(convergence_trials, capsys):
    trials, detect_seconds = convergence_trials
    t0 = time.perf_counter()
    worst_increase = -math.inf
    for spec, pattern, rep in trials:
        # Same recurrence residual_angle evaluates, kept incremental so the
        # scan stays linear in the step count; the last value is cross-checked
        # against the public function below.
        prev = residual_angle((), spec.plane, spec.angle)
        net = rotation_rotor(spec.plane, spec.angle).as_multivector()
        cur = prev
        for c in rep.corrections:
            net = c.as_multivector() * net
            cur = 2.0 * polar_decompose(net).angle
            if cur > math.pi:
                cur = 2.0 * math.pi - cur
            worst_increase = max(worst_increase, cur - prev)
            prev = cur
        full = residual_angle(rep.corrections, spec.plane, spec.angle)
        assert abs(cur - full) <= 1e-12
    seconds = detect_seconds + (time.perf_counter() - t0)
    ok = worst_increase <= 1e-9 and seconds < 30.0
    report(capsys, 4, "residual monotonicity", ok,
           f"worst per-step increase over {len(trials)} trials = "
           f"{worst_increase:.3g}, runtime = {seconds:.1f} s")
    assert ok


def test_criterion_5_convergence_and_error(convergence_trials, capsys):
    trials, _ = convergence_trials
    n_converged = sum(rep.converged for _, _, rep in trials)
    max_iters = max(rep.iterations for _, _, rep in trials)
    errors = np.array([coefficient_error(spec.field, rep.corrected_pattern)
                       for spec, _, rep in trials])
    bound = 10.0 * CONVERGENCE_EPS
    n_over = int((errors > bound).sum())
    ok = n_converged == len(trials) and max_iters <= 1000 and n_over == 0
    report(capsys, 5, "convergence and rotor error", ok,
           f"converged {n_converged}/{len(trials)} (max {max_iters} iters), "
           f"{n_over} trials exceed error bound {bound:.1e}, "
           f"max error = {errors.max():.3g}")
    assert ok, (f"{n_over} of {len(trials)} trials exceed the "
                f"{bound:.1e} coefficient-error bound (max {errors.max():.3g})")


def test_criterion_6_benchmark_table(capsys):
    expectations = [
        (0.1, 0.17, 4.23),
        (0.01, 0.02, 11.76),
        (0.001, 0.002, 21.44),
    ]
    t0 = time.perf_counter()
    rows, ok = [], True
    for eps, want_err, want_iters in expectations:
        stats = run_trials(10_000, eps, MASTER_SEED)
        row_ok = (stats.n_nonconverged == 0
                  and 0.5 * want_err <= stats.average_error <= 5.0 * want_err
                  and 0.5 * want_iters <= stats.average_iterations
                  <= 1.5 * want_iters)
        ok &= row_ok
        rows.append(
            f"eps={eps:g}: avg_err={stats.average_error:.4f} "
            f"(want ~{want_err:g}), avg_iters={stats.average_iterations:.2f} "
            f"(want ~{want_iters:g}), max_err={stats.max_error:.3g} (ungated), "
            f"nonconverged={stats.n_nonconverged}")
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 300.0
    report(capsys, 6, "benchmark table", ok,
           "; ".join(rows) + f"; runtime = {seconds:.0f} s")
    assert ok


def test_criterion_7_identity_suite(capsys):
    rng = np.random.default_rng(77)

    worst_identity = 0.0
    worst_cs = -math.inf
    for _ in range(500):
        field = normalize(LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3))))
        plane = UnitBivector.from_components(*rng.standard_normal(3))
        angle = rng.uniform(0.0, math.pi)
        rotated = rotate_outer(field, plane, angle)
        cor = normalized_correlation(rotated, field).normalized

        parts = decompose(field, plane)
        r = l2_norm(parts.parallel) ** 2
        w = correlate_at_origin(parts.parallel, parts.perpendicular)
        exp_neg = exp_bivector(plane, -angle).as_multivector()
        predicted = r * exp_neg + (exp_neg - 1.0) * w + \
            Multivector.from_scalar(1.0 - r)
        worst_identity = max(worst_identity, (cor - predicted).norm())
        worst_cs = max(
            worst_cs,
            w.norm() - l2_norm(parts.parallel) * l2_norm(parts.perpendicular))
    identity_ok = worst_identity <= 1e-10 and worst_cs <= 1e-10

    worst_assoc = 0.0
    worst_rev = 0.0
    worst_sandwich = 0.0
    for _ in range(1000):
        a, b, c = (Multivector(rng.uniform(-1.0, 1.0, 8)) for _ in range(3))
        worst_assoc = max(worst_assoc, ((a * b) * c - a * (b * c)).norm())
        worst_rev = max(worst_rev,
                        ((a * b).reverse() - b.reverse() * a.reverse()).norm())
        plane = UnitBivector.from_components(*rng.standard_normal(3))
        angle = rng.uniform(-math.pi, math.pi)
        vec = rng.uniform(-1.0, 1.0, 3)
        got = sandwich(plane, angle, Multivector.from_vector(vec)).vector
        want = Rotation.from_rotvec(angle * plane.normal()).apply(vec)
        worst_sandwich = max(worst_sandwich, float(np.abs(got - want).max()))
    algebra_ok = (worst_assoc <= 1e-12 and worst_rev <= 1e-12
                  and worst_sandwich <= 1e-10)

    ok = identity_ok and algebra_ok
    report(capsys, 7, "algebraic identity suite", ok,
           f"correlation identity residual = {worst_identity:.3g}, "
           f"Cauchy-Schwarz slack = {worst_cs:.3g}, "
           f"associativity = {worst_assoc:.3g}, reversion = {worst_rev:.3g}, "
           f"sandwich vs matrix = {worst_sandwich:.3g}")
    assert ok


def test_criterion_8_quadrature_oracle(capsys):
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    smallest_norm = math.inf
    for _ in range(50):
        fa = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))
        fb = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))
        analytic = correlate_at_origin(fa, fb)
        quad = quadrature_correlate(fa, fb, resolution=64)
        smallest_norm = min(smallest_norm, analytic.norm())
        worst_rel = max(worst_rel,
                        (analytic - quad).norm() / analytic.norm())
    ok = worst_rel <= 1e-3
    report(capsys, 8, "quadrature oracle equivalence", ok,
           f"worst relative gap over 50 pairs = {worst_rel:.3g} "
           f"(smallest reference norm {smallest_norm:.3g})")
    assert ok
