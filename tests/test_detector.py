"""Detector tests: worked detection runs, the disturbance branch in both
modes, convergence/monotonicity behavior, the residual-angle helper, and the
moment-matrix loop locked to the paper's loop on rotated fields."""

import math

import numpy as np
import pytest

from rotalign.ga3 import (
    E12, E13, Multivector, UnitBivector, compose_rotation, polar_decompose,
    rotation_matrix, rotation_rotor, rotor_product, rotor_rotation,
)
from rotalign.correlation import correlate_at_origin, cross_moment, moment_parts
from rotalign.experiments import draw_trial
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, UNIT_BOX,
    evaluate, l2_norm, normalize, rotate_outer, sample, scale,
)
from rotalign.detector import (
    DetectionConfig, DetectionReport, _MisfitModel, _argument_of,
    _certified_step, detect, residual_angle,
)

RNG = np.random.default_rng(909)


def two_halves(right, left):
    return PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), right),
        (Box((-1, -1, -1), (0, 1, 1)), left),
    ))


FIELD_A = two_halves((1.0, 0, 0), (0, 1.0, 0))


def random_plane():
    v = RNG.standard_normal(3)
    return UnitBivector.from_components(*(v / np.linalg.norm(v)))


def field_distance(a, b, pts):
    from rotalign.fields import evaluate_many
    return float(np.max(np.abs(evaluate_many(a, pts) - evaluate_many(b, pts))))


# ---------------------------------------------------------------------------
# worked examples

def test_detect_quarter_turn_halves():
    pattern = rotate_outer(FIELD_A, E13, math.pi / 2)
    report = detect(FIELD_A, pattern, DetectionConfig(epsilon=1e-6))
    assert report.converged
    assert math.isclose(report.alpha, math.pi / 2, abs_tol=1e-5)
    assert np.allclose(report.plane.components, E13.components, atol=1e-9)
    # the angle halves every pass here, so the first reading is pi/4
    assert math.isclose(report.phi_trace[0], math.pi / 4, abs_tol=1e-15)
    assert report.iterations == len(report.phi_trace)
    assert report.phi_trace[-1] <= 1e-6

    # round trip: the reported rotation regenerates the pattern,
    # and the corrected pattern matches the reference
    pts = RNG.uniform(-1, 1, (100, 3))
    regen = rotate_outer(FIELD_A, report.plane, report.alpha)
    assert field_distance(regen, pattern, pts) < 1e-5
    assert field_distance(report.corrected_pattern, FIELD_A, pts) < 1e-5


def test_detect_identity_via_disturbance():
    report = detect(FIELD_A, FIELD_A, DetectionConfig(epsilon=1e-6))
    assert report.converged
    assert report.alpha <= 1e-5
    # first pass injects the disturbance, second removes it exactly
    assert report.phi_trace[0] == math.pi / 4
    assert math.isclose(report.phi_trace[1], math.pi / 4, abs_tol=1e-12)
    assert report.iterations == 3
    assert report.phi_trace[2] <= 1e-12


def test_detect_planar_case_is_one_shot():
    m = RNG.uniform(-1, 1, (3, 3))
    m[2, :] = 0.0
    v = LinearVectorField(m)
    pattern = rotate_outer(v, E12, 0.7)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-6))
    assert report.converged
    assert report.iterations == 2
    assert report.phi_trace[1] <= 1e-10
    assert math.isclose(report.alpha, 0.7, abs_tol=1e-10)
    assert np.allclose(report.plane.components, E12.components, atol=1e-10)


# ---------------------------------------------------------------------------
# the antipodal half-turn and the two disturbance readings

def lopsided_field():
    # 3:1 parallel-to-perpendicular energy split for the e13 plane
    return two_halves((math.sqrt(3.0), 0, 0), (0, 1.0, 0))


def test_half_turn_default_mode_escapes_the_stall():
    # exact alpha = pi sits outside the convergence guarantee; what the
    # disturbance buys is an exit from the real-valued stall, not recovery
    v = lopsided_field()
    pattern = rotate_outer(v, E13, math.pi)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-6))
    # the first correlation is real and negative; the disturbance must fire
    assert report.phi_trace[0] == math.pi / 4
    assert report.converged
    assert report.iterations < 1000


def test_near_half_turn_recovers():
    # strictly inside [0, pi) the guarantee applies even close to the edge
    v = lopsided_field()
    pattern = rotate_outer(v, E13, 3.1)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-8))
    assert report.converged
    assert math.isclose(report.alpha, 3.1, abs_tol=1e-6)
    assert np.allclose(report.plane.components, E13.components, atol=1e-6)


def test_half_turn_literal_mode_stalls():
    # the narrow phi == 0 reading skips the disturbance for a negative real
    # correlation; the fallback plane then drives a spurious exit
    v = lopsided_field()
    pattern = rotate_outer(v, E13, math.pi)
    cfg = DetectionConfig(epsilon=1e-6, literal_zero_disturbance=True)
    report = detect(v, pattern, cfg)
    assert report.phi_trace[0] == math.pi
    pts = RNG.uniform(-1, 1, (100, 3))
    assert field_distance(report.corrected_pattern, v, pts) > 1.0


# ---------------------------------------------------------------------------
# random-trial properties

def test_random_trials_converge_and_roundtrip():
    for _ in range(50):
        v = LinearVectorField(RNG.uniform(-1, 1, (3, 3)))
        if l2_norm(v) < 1e-3:
            continue
        p = random_plane()
        alpha = RNG.uniform(0, math.pi * (1 - 1e-9))
        pattern = rotate_outer(v, p, alpha)
        report = detect(v, pattern, DetectionConfig(epsilon=1e-6))
        assert report.converged
        assert np.allclose(report.corrected_pattern.matrix, v.matrix, atol=1e-3)


def test_residual_sequence_monotone():
    for _ in range(50):
        v = normalize(LinearVectorField(RNG.uniform(-1, 1, (3, 3))))
        p = random_plane()
        alpha = RNG.uniform(0, math.pi * (1 - 1e-9))
        pattern = rotate_outer(v, p, alpha)
        report = detect(v, pattern, DetectionConfig(epsilon=1e-6))
        residuals = [residual_angle(v, pattern, report.corrections[:k], p, alpha)
                     for k in range(report.iterations + 1)]
        assert math.isclose(residuals[0], alpha, abs_tol=1e-12)
        for before, after in zip(residuals, residuals[1:]):
            assert after <= before + 1e-9


def test_detect_recovers_plane_orientation():
    for _ in range(20):
        v = LinearVectorField(RNG.uniform(-1, 1, (3, 3)))
        p = random_plane()
        alpha = RNG.uniform(0.2, 2.9)
        pattern = rotate_outer(v, p, alpha)
        report = detect(v, pattern, DetectionConfig(epsilon=1e-8))
        assert math.isclose(report.alpha, alpha, abs_tol=1e-4)
        assert float(report.plane.components @ p.components) > 1.0 - 1e-6


def test_detect_deterministic():
    v = LinearVectorField(RNG.uniform(-1, 1, (3, 3)))
    pattern = rotate_outer(v, random_plane(), 1.3)
    cfg = DetectionConfig(epsilon=1e-6)
    a = detect(v, pattern, cfg)
    b = detect(v, pattern, cfg)
    assert a.phi_trace == b.phi_trace
    assert a.alpha == b.alpha
    assert tuple(a.plane.components) == tuple(b.plane.components)
    assert np.array_equal(a.corrected_pattern.matrix, b.corrected_pattern.matrix)


def test_detect_on_sampled_fields():
    v = sample(LinearVectorField(RNG.uniform(-1, 1, (3, 3))), UNIT_BOX,
               (16, 16, 16))
    p = random_plane()
    alpha = 1.1
    pattern = rotate_outer(v, p, alpha)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-8))
    assert report.converged
    assert math.isclose(report.alpha, alpha, abs_tol=1e-5)


# ---------------------------------------------------------------------------
# the certified exit

def relative_misfit(a, b):
    return l2_norm(LinearVectorField(a.matrix - b.matrix)) / l2_norm(b)


def phi_only_detection(reference, pattern, epsilon):
    """The paper's loop with the bare exit phi <= epsilon, no disturbance,
    run on the cross moment with the arithmetic detect uses."""
    k, net, trace = cross_moment(pattern, reference), (1.0, 0.0, 0.0, 0.0), []
    while not trace or trace[-1] > epsilon:
        sc, biv = moment_parts(k)
        pf = polar_decompose(Multivector(np.r_[sc, 0.0, 0.0, 0.0, biv, 0.0]))
        k = rotation_matrix(pf.plane, pf.angle) @ k
        net = rotor_product(rotation_rotor(pf.plane, pf.angle).components, net)
        trace.append(pf.angle)
    angle, undo = rotor_rotation(net)
    return rotate_outer(pattern, undo, angle), tuple(trace)


def field_with_singular_values(*values):
    left = rotation_matrix(UnitBivector.from_components(1.0, 2.0, 2.0), 0.9)
    right = rotation_matrix(UnitBivector.from_components(2.0, -1.0, 1.0), 1.3)
    return LinearVectorField(left @ np.diag(values) @ right.T)


def test_certified_exit_bounds_the_misfit_of_a_nearly_rank_one_field():
    # Little energy lies off the dominant value direction, so phi understates
    # the residual rotation and the bare phi exit leaves about 5 eps of misfit.
    # The 1 % margin covers the second-order terms the certificate leaves out.
    eps = 1e-6
    v = field_with_singular_values(1.9, 0.3, 0.2)
    pattern = rotate_outer(v, E13, 1.0)
    report = detect(v, pattern, DetectionConfig(epsilon=eps))
    assert report.converged
    assert relative_misfit(report.corrected_pattern, v) <= 1.01 * eps


def test_certified_exit_keeps_the_paper_loop_on_a_well_conditioned_field():
    v = field_with_singular_values(1.0, 0.9, 0.8)
    plane = UnitBivector.from_components(1.0, -2.0, 0.5)
    pattern = rotate_outer(v, plane, 2.0)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-6))
    corrected, trace = phi_only_detection(v, pattern, 1e-6)
    assert report.converged
    assert report.phi_trace == trace
    assert report.iterations == len(trace)
    assert np.array_equal(report.corrected_pattern.matrix, corrected.matrix)


def test_certified_exit_on_a_rank_one_field():
    # every value lies along e3, so tr S I - S is exactly singular: the
    # rotation about e3 is invisible, and the pseudo-inverse must drop it
    eps = 1e-6
    v = LinearVectorField(np.outer([0.0, 0.0, 1.0], [0.5, -1.0, 1.5]))
    pattern = rotate_outer(v, UnitBivector.from_components(1.0, 2.0, 2.0), 1.2)
    report = detect(v, pattern, DetectionConfig(epsilon=eps))
    assert report.converged
    assert relative_misfit(report.corrected_pattern, v) <= 1.01 * eps


# ---------------------------------------------------------------------------
# failure modes and config

def test_non_convergence_reports_partial_state():
    pattern = rotate_outer(FIELD_A, E13, math.pi / 2)
    report = detect(FIELD_A, pattern, DetectionConfig(epsilon=1e-9,
                                                      max_iterations=3))
    assert not report.converged
    assert report.iterations == 3
    assert len(report.phi_trace) == 3
    assert report.phi_trace[-1] > 1e-9


def test_detect_rejects_zero_fields():
    with pytest.raises(ValueError):
        detect(scale(FIELD_A, 0.0), FIELD_A, DetectionConfig(epsilon=1e-3))
    with pytest.raises(ValueError):
        detect(FIELD_A, scale(FIELD_A, 0.0), DetectionConfig(epsilon=1e-3))


def test_detect_rejects_non_finite_patterns():
    for matrix in (np.full((3, 3), np.nan), np.full((3, 3), np.inf),
                   1e308 * np.eye(3)):
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="pattern field energy is not finite"):
            detect(LinearVectorField(np.eye(3)), LinearVectorField(matrix),
                   DetectionConfig(epsilon=1e-3))


def test_detect_rejects_non_finite_references():
    for matrix in (np.full((3, 3), np.nan), 1e308 * np.eye(3)):
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            detect(LinearVectorField(matrix), LinearVectorField(np.eye(3)),
                   DetectionConfig(epsilon=1e-3))


def test_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(epsilon=1e-3, max_iterations=0)
    with pytest.raises(ValueError):
        DetectionConfig(epsilon=1e-3, disturbance_angle=0.0)


# ---------------------------------------------------------------------------
# the moment-matrix loop against the paper's loop on rotated fields

def field_form_detection(reference, pattern, config):
    """The paper's loop as written: every pass correlates the rotated pattern
    with correlate_at_origin, rotates it with rotate_outer and accumulates the
    step with compose_rotation.  Returns the fields of a DetectionReport."""
    model = _MisfitModel(reference)
    u, alpha, plane, trace, converged = pattern, 0.0, E12, [], False
    while not converged and len(trace) < config.max_iterations:
        cor = correlate_at_origin(u, reference)
        phi, q, real_valued = _argument_of(cor.scalar, cor.bivector)
        if not trace and real_valued:
            phi, q = config.disturbance_angle, config.disturbance_plane
        if phi <= config.epsilon:
            phi, q, converged = _certified_step(model, cor.bivector, phi, q,
                                                config.epsilon)
        u = rotate_outer(u, q, phi)
        alpha, plane = compose_rotation(alpha, plane, phi, q)
        trace.append(phi)
    return alpha, -plane, u, tuple(trace), converged


def field_values(field):
    if isinstance(field, LinearVectorField):
        return field.matrix
    if isinstance(field, PiecewiseConstantField):
        return field.arrays()[2]
    return field.data


def assert_same_detection(reference, pattern, epsilon):
    config = DetectionConfig(epsilon=epsilon)
    report = detect(reference, pattern, config)
    alpha, plane, corrected, trace, converged = field_form_detection(
        reference, pattern, config)
    assert report.iterations == len(trace)
    assert report.converged == converged
    assert np.max(np.abs(np.subtract(report.phi_trace, trace))) <= 1e-12
    assert abs(report.alpha - alpha) <= 1e-12
    assert np.max(np.abs(report.plane.components - plane.components)) <= 1e-12
    assert np.max(np.abs(field_values(report.corrected_pattern) -
                         field_values(corrected))) <= 1e-12


@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001, 1e-6])
def test_moment_loop_matches_field_loop_on_seeded_linear_trials(epsilon):
    for index in range(50):
        spec = draw_trial(0, index, epsilon)
        assert_same_detection(
            spec.field, rotate_outer(spec.field, spec.plane, spec.angle), epsilon)


def test_moment_loop_matches_field_loop_on_piecewise_pairs():
    rng = np.random.default_rng(31)
    edges = [np.linspace(-1.0, 1.0, n + 1) for n in (3, 3, 2)]
    boxes = [Box((edges[0][i], edges[1][j], edges[2][k]),
                 (edges[0][i + 1], edges[1][j + 1], edges[2][k + 1]))
             for i in range(3) for j in range(3) for k in range(2)]
    for _ in range(10):
        v = PiecewiseConstantField(tuple(
            (box, rng.uniform(-1.0, 1.0, 3)) for box in boxes))
        pattern = rotate_outer(v, UnitBivector.from_normal(rng.standard_normal(3)),
                               rng.uniform(0.0, math.pi * (1 - 1e-9)))
        assert_same_detection(v, pattern, 1e-6)


def test_moment_loop_matches_field_loop_on_grids():
    rng = np.random.default_rng(32)
    for _ in range(3):
        v = SampledField(UNIT_BOX, (5, 4, 3), rng.uniform(-1.0, 1.0, (60, 3)))
        pattern = rotate_outer(v, UnitBivector.from_normal(rng.standard_normal(3)),
                               rng.uniform(0.0, 3.0))
        assert_same_detection(v, pattern, 1e-6)
    # mixed pair: a linear reference against its rotated copy sampled on a grid
    lin = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))
    plane = UnitBivector.from_normal(rng.standard_normal(3))
    pattern = sample(rotate_outer(lin, plane, 1.7), UNIT_BOX, (6, 6, 6))
    assert_same_detection(lin, pattern, 1e-6)


# ---------------------------------------------------------------------------
# residual_angle

def test_residual_angle_examples():
    v = LinearVectorField(np.eye(3))
    p = random_plane()
    alpha = 1.234
    u = rotate_outer(v, p, alpha)
    assert math.isclose(residual_angle(v, u, [], p, alpha), alpha,
                        abs_tol=1e-12)
    full = rotation_rotor(-p, alpha)
    assert residual_angle(v, u, [full], p, alpha) <= 1e-12
    half = rotation_rotor(-p, alpha / 2)
    assert math.isclose(residual_angle(v, u, [half], p, alpha), alpha / 2,
                        abs_tol=1e-12)


def test_residual_angle_folds_beyond_pi():
    v = LinearVectorField(np.eye(3))
    p = random_plane()
    # over-correcting in the wrong direction past pi wraps back
    wrong = rotation_rotor(p, 2.0)
    u = rotate_outer(v, p, 2.0)
    got = residual_angle(v, u, [wrong], p, 2.0)
    assert math.isclose(got, 2 * math.pi - 4.0, abs_tol=1e-12)
