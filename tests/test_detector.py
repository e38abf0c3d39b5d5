"""Detector tests: worked detection runs, the disturbance branch at the
half-turn, the known failure modes, the residual-angle helper, the conftest
oracle of a pass (power_read and power_step on Horn's N) against numpy, the
moment-matrix loop locked to the paper's loop on rotated fields and to the
eager report, and the report's corrected pattern built on first read."""

import math
import re
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from rotalign.ga3 import (
    E12, E13, ZERO_BIVECTOR_RTOL, UnitBivector, argument,
    rotation_matrix, rotation_rotor, rotor_product, rotor_rotation,
)
from rotalign.correlation import correlate_at_origin, moment_parts
from rotalign.experiments import draw_trial, random_rotation, run_trials
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, UNIT_BOX,
    cross_moment, evaluate_many, l2_norm, rotate_outer, sample, scale,
)
import rotalign.correlation
import rotalign.detector
import rotalign.fields
import rotalign.ga3
from rotalign.detector import (
    DISTURBANCE_ANGLE, DISTURBANCE_PLANE, DetectionConfig, DetectionReport,
    MomentDetection, _MisfitModel, _explicit_step, _passes, detect,
    detect_moments,
)

from conftest import (
    angle_feed, carried_bivector, halfway_feed, horn_matrix, outputs,
    pair_floats, piecewise_pairs, power_read, power_step, random_linear,
    random_plane, reference_detect, reference_detect_moments, residual_angle,
    shared_cell_pair, trial_loop, trial_loops, two_halves,
)


FIELD_A = two_halves((1.0, 0, 0), (0, 1.0, 0))


def field_distance(a, b, pts):
    return float(np.max(np.abs(evaluate_many(a, pts) - evaluate_many(b, pts))))


# ---------------------------------------------------------------------------
# worked examples

def test_detect_quarter_turn_halves():
    rng = np.random.default_rng(90901)
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
    pts = rng.uniform(-1, 1, (100, 3))
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
    rng = np.random.default_rng(90902)
    m = rng.uniform(-1, 1, (3, 3))
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
# the antipodal half-turn and the disturbance

# 3:1 parallel-to-perpendicular energy split for the e13 plane
LOPSIDED = two_halves((math.sqrt(3.0), 0, 0), (0, 1.0, 0))


def test_half_turn_default_mode_escapes_the_stall():
    # exact alpha = pi sits outside the convergence guarantee; what the
    # disturbance buys is an exit from the real-valued stall, not recovery
    pattern = rotate_outer(LOPSIDED, E13, math.pi)
    report = detect(LOPSIDED, pattern, DetectionConfig(epsilon=1e-6))
    # the first correlation is real and negative; the disturbance must fire
    assert report.phi_trace[0] == math.pi / 4
    assert report.converged
    assert report.iterations < 1000


def test_near_half_turn_recovers():
    # strictly inside [0, pi) the guarantee applies even close to the edge
    pattern = rotate_outer(LOPSIDED, E13, 3.1)
    report = detect(LOPSIDED, pattern, DetectionConfig(epsilon=1e-8))
    assert report.converged
    assert math.isclose(report.alpha, 3.1, abs_tol=1e-6)
    assert np.allclose(report.plane.components, E13.components, atol=1e-6)


# ---------------------------------------------------------------------------
# random-trial properties

def test_detect_recovers_plane_orientation():
    rng = np.random.default_rng(90905)
    for _ in range(20):
        v = LinearVectorField(rng.uniform(-1, 1, (3, 3)))
        p = random_plane(rng)
        alpha = rng.uniform(0.2, 2.9)
        pattern = rotate_outer(v, p, alpha)
        report = detect(v, pattern, DetectionConfig(epsilon=1e-8))
        assert math.isclose(report.alpha, alpha, abs_tol=1e-4)
        assert float(report.plane.components @ p.components) > 1.0 - 1e-6


def test_detect_on_sampled_fields():
    rng = np.random.default_rng(90907)
    v = sample(LinearVectorField(rng.uniform(-1, 1, (3, 3))), UNIT_BOX,
               (16, 16, 16))
    p = random_plane(rng)
    alpha = 1.1
    pattern = rotate_outer(v, p, alpha)
    report = detect(v, pattern, DetectionConfig(epsilon=1e-8))
    assert report.converged
    assert math.isclose(report.alpha, alpha, abs_tol=1e-5)


# ---------------------------------------------------------------------------
# the certified exit

def self_moment(field):
    """S = cross_moment(field, field) as the nine floats detect reads."""
    return cross_moment(field, field).ravel().tolist()


def relative_misfit(a, b):
    return l2_norm(LinearVectorField(a.matrix - b.matrix)) / l2_norm(b)


def phi_only_detection(reference, pattern, epsilon):
    """The paper's loop with the bare exit phi <= epsilon, no disturbance,
    run on the cross moment with the arithmetic detect uses: every pass
    reads tr K and w off K0's Horn matrix and q, and takes the power step,
    fed by halfway_feed above epsilon and on the last pass by angle_feed,
    for the angle and plane of B read back off w."""
    m = horn_matrix(cross_moment(pattern, reference).ravel().tolist())
    q, trace = (1.0, 0.0, 0.0, 0.0), []
    while not trace or trace[-1] > epsilon:
        sc, w = power_read(m, q)
        phi = math.atan2(math.hypot(*w), sc)
        if phi > epsilon:
            feed = halfway_feed(sc, w)
        else:
            plane = argument(sc, carried_bivector(q, w))[1]
            feed = angle_feed(phi, plane.normal().tolist(), q)
        q = power_step(*feed, q)
        trace.append(phi)
    angle, undo = rotor_rotation(q)
    return rotate_outer(pattern, undo, angle), tuple(trace)


def field_with_singular_values(*values):
    left = rotation_matrix(UnitBivector.from_components(1.0, 2.0, 2.0), 0.9)
    right = rotation_matrix(UnitBivector.from_components(2.0, -1.0, 1.0), 1.3)
    return LinearVectorField(left @ np.diag(values) @ right.T)


@pytest.mark.parametrize("field, plane, angle", [
    # little energy lies off the dominant value direction, so phi understates
    # the residual rotation and the bare phi exit leaves about 5 eps of misfit
    pytest.param(field_with_singular_values(1.9, 0.3, 0.2), E13, 1.0,
                 id="nearly-rank-one"),
    # every value lies along e3, so tr S I - S is exactly singular: the
    # rotation about e3 is invisible, and the pseudo-inverse must drop it
    pytest.param(LinearVectorField(np.outer([0.0, 0.0, 1.0], [0.5, -1.0, 1.5])),
                 UnitBivector.from_components(1.0, 2.0, 2.0), 1.2, id="rank-one"),
])
def test_certified_exit_bounds_the_misfit(field, plane, angle):
    # the 1 % margin covers the second-order terms the certificate leaves out
    eps = 1e-6
    report = detect(field, rotate_outer(field, plane, angle),
                    DetectionConfig(epsilon=eps))
    assert report.converged
    assert relative_misfit(report.corrected_pattern, field) <= 1.01 * eps


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


class RoundedModel:
    """A misfit model whose paper step leaves more misfit than it found, as
    only rounding can: within epsilon at omega, above it anywhere else."""

    omega = (1e-7, -2e-7, 3e-7)

    def rotation(self, biv):
        return self.omega

    def misfit(self, omega):
        return 0.5e-6 if omega == self.omega else 2e-6


class FixedModel:
    """A misfit model with a fixed residual rotation omega and its plain
    length as the misfit."""

    def __init__(self, *omega):
        self.omega = omega

    def rotation(self, biv):
        return self.omega

    def misfit(self, omega):
        return math.hypot(*omega)


class UnreadModel:
    """A misfit model that fails the test when the certificate reads it."""

    def rotation(self, biv):
        raise AssertionError("the certificate read the misfit model")

    misfit = rotation


E12_NORMAL = (0.0, 0.0, 1.0)


@pytest.mark.parametrize("model, sc, biv, bmag, phi, first, epsilon, want", [
    # a real C on pass one: the disturbance, above epsilon, so no certificate
    pytest.param(UnreadModel(), 2.0, (0.0, 0.0, 0.0), 0.0, 0.0, True, 1e-6,
                 (math.pi / 4, E12_NORMAL, False), id="disturbance"),
    # a real C after it with tr K < 0 (|B| within 1e-12 |tr K|): a half-turn
    pytest.param(UnreadModel(), -2.0, (1e-13, 0.0, 0.0), 1e-13, math.pi, False,
                 1e-6, (math.pi, E12_NORMAL, False), id="half-turn-fold"),
    # |B| exactly 1e-12 |tr K| is still a real fold, whatever B's plane
    pytest.param(UnreadModel(), -2.0, (0.0, 0.0, 2e-12), 2e-12, math.pi, False,
                 1e-6, (math.pi, E12_NORMAL, False), id="fold-at-the-threshold"),
    # a real C after it with tr K > 0: angle 0, and omega's misfit 5e-7 passes
    pytest.param(FixedModel(0.0, 0.0, 5e-7), 2.0, (0.0, 0.0, 0.0), 0.0, 0.0,
                 False, 1e-6, (0.0, E12_NORMAL, True), id="real-fold-at-0"),
    # n = (1, 0, 0); the paper's step leaves omega + phi n = (-5e-7, 0, 0),
    # within epsilon though omega's own misfit 1.5e-6 is not
    pytest.param(FixedModel(-1.5e-6, 0.0, 0.0), 2.0, (0.0, 0.0, 1e-6), 1e-6, 1e-6,
                 False, 1e-6, (1e-6, (1.0, 0.0, 0.0), True), id="paper-step"),
    # n = (0, 0.6, 0.8); only rounding makes the paper's step worse
    pytest.param(RoundedModel(), 1.0, (0.8, -0.6, 0.0), 1.0, 1e-7, False, 1e-6,
                 (0.0, (0.0, 0.6, 0.8), True), id="stop-without-a-step"),
    # |omega| = 5e-6 is its misfit: (1 - 1e-6 / 5e-6) 5e-6 about -omega / 5e-6
    pytest.param(FixedModel(3e-6, 4e-6, 0.0), 1.0, (0.0, 0.0, 1e-6), 1e-6, 1e-7,
                 False, 1e-6, (4e-6, (-0.6, -0.8, 0.0), False), id="shortened-step"),
    # epsilon >= pi/4 certifies the disturbance: omega + (pi/4) n has misfit
    # pi/4 - 0.5 <= 1
    pytest.param(FixedModel(0.0, 0.0, -0.5), 2.0, (0.0, 0.0, 0.0), 0.0, 0.0, True,
                 1.0, (math.pi / 4, E12_NORMAL, True), id="certified-disturbance"),
])
def test_explicit_step(model, sc, biv, bmag, phi, first, epsilon, want):
    got_phi, got_n, got_stop = _explicit_step(model, sc, biv, bmag, phi, first,
                                              epsilon)
    want_phi, want_n, want_stop = want
    assert got_stop is want_stop
    assert got_phi == pytest.approx(want_phi, rel=1e-15, abs=0.0)
    assert got_n == pytest.approx(want_n, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# the closed-form certificate, its scale rule and its LAPACK-free path

def eigh_model(reference):
    """The certificate's former formula, kept as the reference for the closed
    form: a LAPACK eigh pseudo-inverse of tr S I - S that keeps eigenvalues
    above 1e-12 tr S.  Returns the (rotation, misfit) pair of _MisfitModel."""
    moment = cross_moment(reference, reference)
    energy = float(np.trace(moment))
    inertia = energy * np.eye(3) - moment
    w, vecs = np.linalg.eigh(inertia)
    keep = w > 1e-12 * energy
    pinv = (vecs[:, keep] / w[keep]) @ vecs[:, keep].T

    def rotation(biv):
        return pinv @ np.array([-biv[2], biv[1], -biv[0]])

    def misfit(omega):
        return math.sqrt(max(float(omega @ inertia @ omega), 0.0) / energy)

    return rotation, misfit


def axis_cells(*cells):
    """Piecewise field of unit-section cells laid along e1: (length, value)
    pairs, so that every entry of S is exact."""
    boxes, start = [], 0.0
    for length, value in cells:
        boxes.append((Box((start, 0.0, 0.0), (start + length, 1.0, 1.0)), value))
        start += length
    return PiecewiseConstantField(tuple(boxes))


def certificate_fields():
    rng = np.random.default_rng(41)
    planar = rng.uniform(-1.0, 1.0, (3, 3))
    planar[2, :] = 0.0
    tilt = rotation_matrix(UnitBivector.from_components(1.0, -2.0, 0.5), 0.8)
    return {
        "full rank": LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3))),
        "nearly rank one": field_with_singular_values(1.9, 0.3, 0.2),
        "rank two": LinearVectorField(tilt @ planar),
        "rank one": LinearVectorField(np.outer(rng.uniform(-1.0, 1.0, 3),
                                               rng.uniform(-1.0, 1.0, 3))),
        # tr S = 1 and S diagonal, so J is exact; its smallest eigenvalue is
        # 2^-43 = 1.1e-13 (dropped) and 3 * 2^-38 = 1.1e-11 (kept)
        "J at 1e-13": axis_cells((1.0 - 2.0 ** -43, (0.0, -1.0, 0.0)),
                                 (1.0, (2.0 ** -22, 0.0, 0.0)),
                                 (1.0, (0.0, 0.0, 2.0 ** -22))),
        "J at 1e-11": axis_cells((1.0 - 3 * 2.0 ** -38, (0.0, 0.0, 1.0)),
                                 (2.0, (-2.0 ** -19, 0.0, 0.0)),
                                 (1.0, (0.0, 2.0 ** -19, 0.0))),
    }


@pytest.mark.parametrize("name", list(certificate_fields()))
def test_closed_form_certificate_matches_the_eigh_pseudo_inverse(name):
    field = certificate_fields()[name]
    model = _MisfitModel(self_moment(field))
    rotation, misfit = eigh_model(field)
    rng = np.random.default_rng(42)
    for _ in range(20):
        biv = rng.standard_normal(3) * model.energy
        want = rotation(biv)
        got = np.array(model.rotation(tuple(biv)))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        omega = rng.standard_normal(3)
        assert math.isclose(model.misfit(tuple(omega)), misfit(omega),
                            rel_tol=1e-12, abs_tol=0.0)


def scaled_detections(k):
    config = DetectionConfig(epsilon=1e-3)
    reports = []
    for index in range(50):
        spec = draw_trial(0, index, 1e-3)
        pattern = rotate_outer(spec.field, spec.plane, spec.angle)
        report = detect(scale(spec.field, 2.0 ** k), scale(pattern, 2.0 ** k),
                        config)
        reports.append((report.iterations, report.converged,
                        report.phi_trace, report.alpha, report.plane))
    return reports


@pytest.mark.parametrize("k", [-300, -40, -18, 250, 300])
def test_detection_is_equivariant_under_power_of_two_scaling(k):
    # a power of two scales every integral exactly, and the detector reads
    # only scale-free quantities, so nothing may change by a single bit
    assert scaled_detections(k) == scaled_detections(0)


LAPACK = ("eigh", "eigvalsh", "svd", "solve", "inv", "pinv", "lstsq")


def test_no_detection_calls_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(43)
    linear = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))
    rank_one = LinearVectorField(np.outer([0.0, 0.0, 1.0], [0.5, -1.0, 1.5]))
    piecewise, _ = shared_cell_pair(rng)
    grid = SampledField(UNIT_BOX, (5, 4, 3), rng.uniform(-1.0, 1.0, (60, 3)))
    plane = UnitBivector.from_normal(rng.standard_normal(3))
    for field in (linear, rank_one, piecewise, grid):
        report = detect(field, rotate_outer(field, plane, 1.3),
                        DetectionConfig(epsilon=1e-6))
        assert report.converged
    assert run_trials(20, 1e-3, 0).n_nonconverged == 0


# ---------------------------------------------------------------------------
# detect_moments: the loop on hand-made moments, with no fields

def floats(matrix):
    return np.asarray(matrix, dtype=float).ravel().tolist()


def hand_made_s():
    """A full-rank self-moment S = M M^T."""
    m = np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.5, 0.2, 0.6]])
    return m @ m.T


def test_detect_moments_recovers_the_rotation_of_k_equal_r_s():
    # u = R0 v gives K = integral of u v^T = R0 S
    s = hand_made_s()
    plane = UnitBivector.from_components(1.0, -2.0, 0.5)
    eps = 1e-8
    for angle in (0.3, 1.7, 3.0):
        k = rotation_matrix(plane, angle) @ s
        loop = detect_moments(floats(k), floats(s), DetectionConfig(epsilon=eps))
        assert loop.converged
        assert loop.iterations == len(loop.phi_trace) == len(loop.nets)
        # the certified quantity: the relative L2 misfit left on u = R0 v,
        # |(Rc R0 - I) v| / |v| for the net correction Rc
        alpha, undo = rotor_rotation(loop.net)
        d = rotation_matrix(undo, alpha) @ rotation_matrix(plane, angle) - np.eye(3)
        assert math.sqrt(np.trace(d @ s @ d.T) / np.trace(s)) <= 1.01 * eps
        assert math.isclose(alpha, angle, abs_tol=10 * eps)


def test_detect_moments_takes_the_disturbance_on_a_real_valued_k():
    s = hand_made_s()
    loop = detect_moments(floats(s), floats(s), DetectionConfig(epsilon=1e-6))
    assert loop.phi_trace[0] == DISTURBANCE_ANGLE
    want = rotation_rotor(DISTURBANCE_PLANE, DISTURBANCE_ANGLE)
    assert np.max(np.abs(np.subtract(loop.nets[0], want))) <= 1e-15
    assert loop.converged
    assert rotor_rotation(loop.net)[0] <= 1e-6


def test_detect_moments_exits_on_pass_one_when_k_is_within_epsilon():
    s = hand_made_s()
    plane = UnitBivector.from_components(2.0, 1.0, -1.0)
    k = rotation_matrix(plane, 1e-8) @ s
    loop = detect_moments(floats(k), floats(s), DetectionConfig(epsilon=1e-6))
    assert loop.converged and loop.iterations == 1
    assert 0.0 < loop.phi_trace[0] <= 1e-6
    assert residual_angle(loop.net, plane, 1e-8) < 1e-8


class NoNumpy:
    """Stands in for numpy in a module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was used")


def test_detect_moments_uses_no_numpy(monkeypatch):
    s = hand_made_s()
    plane = UnitBivector.from_components(1.0, 2.0, -2.0)
    # the paper's loop, the disturbance (angle 0: K = S is real) and, on a
    # nearly rank-one S, the certificate's shortened Gauss-Newton steps
    cases = [(floats(rotation_matrix(plane, angle) @ s), floats(s), epsilon)
             for angle, epsilon in ((2.5, 1e-6), (0.9, 0.1), (0.0, 1e-3))]
    thin = field_with_singular_values(1.9, 0.3, 0.2)
    cases.append((floats(cross_moment(rotate_outer(thin, E13, 1.0), thin)),
                  self_moment(thin), 1e-6))
    want = [outputs(detect_moments(k, s, DetectionConfig(epsilon=e)))
            for k, s, e in cases]
    for module in (rotalign.ga3, rotalign.correlation, rotalign.fields,
                   rotalign.detector):
        monkeypatch.setattr(module, "np", NoNumpy(), raising=False)
    # the loop and the replay of its nets and phi_trace, both without numpy
    got = [outputs(detect_moments(k, s, DetectionConfig(epsilon=e)))
           for k, s, e in cases]
    assert got == want


# ---------------------------------------------------------------------------
# the pass on float tuples

def field_trial_moments(index, epsilon):
    """K and S, nine floats each, of seed-0 trial index read off fields: the
    trial's field and its copy turned by rotate_outer, through cross_moment."""
    spec = draw_trial(0, index, epsilon)
    pattern = rotate_outer(spec.field, spec.plane, spec.angle)
    return floats(cross_moment(pattern, spec.field)), self_moment(spec.field)


def seeded_moment_inputs():
    """(K, S) of seeded linear trials and piecewise pairs, and a real K."""
    cases = [field_trial_moments(index, 1e-6) for index in range(20)]
    rng = np.random.default_rng(35)
    for _ in range(5):
        reference, pattern = shared_cell_pair(rng)
        cases.append((floats(cross_moment(pattern, reference)),
                      self_moment(reference)))
    s = floats(hand_made_s())
    cases.append((s, s))  # real-valued: the disturbance pass
    return cases


def test_detect_moments_builds_no_plane_or_rotor(monkeypatch):
    cases = seeded_moment_inputs()
    built = counted(monkeypatch, UnitBivector, ("__init__",))
    config = DetectionConfig(epsilon=1e-6)
    loops = [detect_moments(k, s, config) for k, s in cases]
    assert all(loop.converged for loop in loops)
    assert loops[-1].phi_trace[0] == DISTURBANCE_ANGLE
    assert sum(loop.iterations for loop in loops) > 10 * len(loops)
    assert built == []
    # the count sees every construction: reading the net's plane builds one
    rotor_rotation(loops[0].net)
    assert built == ["__init__"]


def counted(monkeypatch, module, names, calls=None):
    """Replace each named function of module by a wrapper that records its
    name in calls, a new list unless given, on every call; returns calls."""
    calls = [] if calls is None else calls
    for name in names:
        monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name),
                            n=name: calls.append(n) or f(*args))
    return calls


def test_a_common_pass_calls_no_helper(monkeypatch):
    # an explicit pass calls _explicit_step, then cos and sin once each for
    # its feed; the last pass is a certified exit.  A common pass is written
    # out in the loop and calls none of these, so only the disturbance and
    # the passes within epsilon take cos and sin.  The reference loop gives
    # the same detection, bit for bit.
    calls = counted(monkeypatch, math, ("cos", "sin"))
    counted(monkeypatch, rotalign.detector,
            ("rotor_product", "rotor_rotation"), calls)
    steps = []

    def explicit_step(model, *args, f=_explicit_step):
        # only the certificate reads the misfit model
        reads = []
        probe = SimpleNamespace(misfit=model.misfit, rotation=lambda biv:
                                reads.append(biv) or model.rotation(biv))
        calls.append("_explicit_step")
        steps.append((f(probe, *args), bool(reads)))
        return steps[-1][0]

    monkeypatch.setattr(rotalign.detector, "_explicit_step", explicit_step)
    config = DetectionConfig(epsilon=1e-6)
    above, shortened = 0, 0
    for k, s in seeded_moment_inputs():
        calls.clear()
        steps.clear()
        loop = detect_moments(k, s, config)
        called = "".join(name + ";" for name in calls)
        assert re.fullmatch("(rotor_product;_explicit_step;cos;sin;rotor_product;)+",
                            called), called
        assert 1 <= len(steps) <= 2 and loop.iterations > len(steps)
        # the first read of nets replays the same calls, a second none
        detection = list(steps)
        calls.clear()
        steps.clear()
        nets = loop.nets
        assert "".join(name + ";" for name in calls) == called
        assert steps == detection
        calls.clear()
        outputs(loop)
        assert loop.nets is nets and calls == []
        assert outputs(reference_detect_moments(k, s, config)) == outputs(loop)
        stops = [stop for (_, _, stop), _ in steps]
        assert loop.converged and stops == [False] * (len(stops) - 1) + [True]
        above += sum(phi > config.epsilon and not certified
                     for (phi, _, _), certified in steps)
        shortened += sum(certified and not stop
                         for (_, _, stop), certified in steps)
    assert loop.phi_trace[0] == DISTURBANCE_ANGLE  # the last case is real
    # the disturbance, an explicit pass above epsilon with no certificate,
    # and a shortened step, a certified step that does not stop, both occur
    assert above >= 1 and shortened >= 1


TRIAL_K, TRIAL_S = field_trial_moments(0, 1e-6)
NOT_PSD = "^reference self-moment S is not positive semidefinite$"
ZERO = "^cannot detect rotation against a zero field$"
INFINITE = "^reference field energy is not finite$"


@pytest.mark.parametrize("k, s, epsilon, message", [
    # S's trace and diagonal first: no field has a negative trace, or a
    # diagonal entry below -1e-12 tr S, as its self-moment
    *(pytest.param(floats(rotation_matrix(E12, 0.3)), floats(np.diag(diagonal)),
                   1e-3, NOT_PSD, id=name) for name, diagonal in (
        ("negative-trace", (-1.0, -1.0, -1.0)),
        ("negative-diagonal", (3.0, -1.0, -1.0)),
        ("diagonal-below-the-floor", (1.0, 1.0, -3e-12)))),
    # then tr S, with detect's messages, before S's other floats: S is
    # checked before the misfit model divides by it (these S would divide
    # by zero there), and K last
    pytest.param(floats(np.eye(3)), [0.0] * 9, 1e-3, ZERO, id="zero-s"),
    pytest.param(floats(np.eye(3)), [math.inf, 0, 0, 0, 1, 0, 0, 0, 1], 1e-3,
                 INFINITE, id="infinite-tr-s"),
    pytest.param([math.nan] * 9, [math.inf, math.nan, 0, 0, 1, 0, 0, 0, 1], 1e-6,
                 INFINITE, id="infinite-tr-s-before-s"),
    pytest.param([math.nan] * 9, [0.0, math.nan, 0, 0, 0, 0, 0, 0, 0], 1e-6, ZERO,
                 id="zero-tr-s-before-s"),
    pytest.param([math.nan] * 9, [0, 0, 0, 0, 1, math.nan, 0, math.nan, 1], 1e-6,
                 "^reference self-moment S is not finite$", id="s-before-k"),
    # a non-finite entry of K or S, checked once, on entry: no pass checks
    # its rotor, so a NaN in K would otherwise run every pass and return an
    # angle
    *(pytest.param(TRIAL_K[:entry] + [value] + TRIAL_K[entry + 1:], TRIAL_S, 1e-6,
                   "^cross moment K is not finite$", id=f"K-{entry}-{value}")
      for entry, value in ((0, math.nan), (5, math.nan), (1, math.inf),
                           (8, -math.inf))),
    *(pytest.param(TRIAL_K, TRIAL_S[:entry] + [value] + TRIAL_S[entry + 1:], 1e-6,
                   "^reference self-moment S is not finite$", id=f"S-{entry}-{value}")
      for entry, value in ((1, math.nan), (5, math.inf), (6, -math.inf),
                           (7, math.nan))),
])
def test_detect_moments_rejects_a_bad_k_or_s(k, s, epsilon, message):
    with pytest.raises(ValueError, match=message):
        detect_moments(k, s, DetectionConfig(epsilon=epsilon))


def test_detect_moments_allows_rounding_below_zero_on_the_diagonal():
    # within the 1e-12 tr S floor, a diagonal entry may round below zero
    s = np.diag((1.0, 1.0, -1e-12))
    loop = detect_moments(floats(rotation_matrix(E12, 0.3) @ s), floats(s),
                          DetectionConfig(epsilon=1e-3))
    assert loop.converged


def reference_cases():
    """(K, S, config) for the bit-for-bit comparison with the reference loop:
    seeded linear trials at each tolerance, shared-cell pairs, a real first
    fold at angle 0 and at the half-turn, a first fold with tr K < 0 and |B|
    exactly at the real-valued threshold, a rank-one S, and short budgets."""
    cases = []
    for epsilon in (0.1, 0.01, 0.001, 1e-6):
        config = DetectionConfig(epsilon=epsilon)
        cases += [(*field_trial_moments(index, epsilon), config)
                  for index in range(150)]
    config = DetectionConfig(epsilon=1e-6)
    rng = np.random.default_rng(37)
    for _ in range(20):
        reference, pattern = shared_cell_pair(rng, rng.uniform(0.0, math.pi))
        cases.append((floats(cross_moment(pattern, reference)),
                      self_moment(reference), config))
    s = hand_made_s()
    half_turn = np.linalg.eigh(s)[1][:, 0]
    half_turn = 2.0 * np.outer(half_turn, half_turn) - np.eye(3)
    cases += [(floats(s), floats(s), config),
              (floats(half_turn @ s), floats(s), config)]
    rank_one = LinearVectorField(np.outer([0.0, 0.0, 1.0], [0.5, -1.0, 1.5]))
    pattern = rotate_outer(rank_one, UnitBivector.from_components(1.0, 2.0, 2.0),
                           1.2)
    cases.append((floats(cross_moment(pattern, rank_one)), self_moment(rank_one),
                  config))
    # the half-turn about e3 times S = diag(3, 2, 1), with |B| exactly
    # ZERO_BIVECTOR_RTOL |tr K|: a real fold, so pass one takes the disturbance
    edge = np.diag([-3.0, -2.0, 1.0])
    edge[0, 1] = ZERO_BIVECTOR_RTOL * 4.0
    cases.append((floats(edge), floats(np.diag([3.0, 2.0, 1.0])), config))
    picked = cases[::50] + cases[-4:]
    for budget in (1, 2, 3, 7):
        short = DetectionConfig(epsilon=1e-6, max_iterations=budget)
        cases += [(k, s, short) for k, s, _ in picked]
    return cases


def test_detect_moments_matches_the_reference_loop_bit_for_bit():
    for k, s, config in reference_cases():
        assert (outputs(detect_moments(k, s, config))
                == outputs(reference_detect_moments(k, s, config)))


def clear_ratio(epsilon):
    """|w| / tr K above which a pass with tr K > 0 is clear: phi is then
    above epsilon by far more than atan2's rounding, and the pass common."""
    if epsilon >= 1.0:
        return math.inf
    return max(math.tan(epsilon) * (1.0 + 1e-6), ZERO_BIVECTOR_RTOL)


def edge_moments(ratio, diagonal=(3.0, 2.0, 1.0)):
    """K and S, nine floats each, whose first pass reads tr K = the sum of
    diagonal and |w| = 6 ratio: S = diag(3, 2, 1), and K = diag(diagonal)
    plus an antisymmetric part whose bivector has length 6 ratio."""
    a12, a13, a23 = (x * ratio for x in (1.0, 2.0, 2.0))  # length 3 ratio
    k = np.diag(diagonal) + np.array([[0.0, a12, a13], [-a12, 0.0, a23],
                                      [-a13, -a23, 0.0]])
    return floats(k), floats(np.diag([3.0, 2.0, 1.0]))


def clear_edge_cases():
    """(K, S, epsilon, whether the first pass is clear): |w| / |tr K| within
    1e-9 relative of |tan(epsilon)| on either side, with tr K of tan's sign
    (phi within 1e-9 of epsilon), and of the clear ratio; the same |w| over
    a negative tr K, and |w| over tr K = 0.  For epsilon >= 1 no pass is
    clear; there the ratio ZERO_BIVECTOR_RTOL and a quarter turn stand in
    for the clear edge."""
    negative, zero = (-3.0, -2.0, -1.0), (1.0, 1.0, -2.0)
    cases = []
    for epsilon in (0.1, 1e-3, 1e-6, 1e-300, 1.0, 2.0):
        tan = math.tan(epsilon)
        edge = clear_ratio(epsilon) if epsilon < 1.0 else ZERO_BIVECTOR_RTOL
        rows = [(abs(tan) * side, (3.0, 2.0, 1.0) if tan > 0.0 else negative, False)
                for side in (1.0 - 1e-9, 1.0 + 1e-9)]
        rows += [(edge * (1.0 - 1e-9), (3.0, 2.0, 1.0), False),
                 (edge * (1.0 + 1e-9), (3.0, 2.0, 1.0), epsilon < 1.0),
                 (edge * (1.0 + 1e-9), negative, False),
                 (1.0, zero, False), (1.0, (3.0, 2.0, 1.0), epsilon < 1.0)]
        cases += [(*edge_moments(ratio, diagonal), epsilon, clear)
                  for ratio, diagonal, clear in rows]
    return cases


def test_a_clear_pass_takes_no_arctangent_and_changes_no_bit(monkeypatch):
    # a pass with tr K > 0 and |w| > clear_ratio(epsilon) tr K takes no
    # atan2, and the last pass run takes it after the step when it was
    # clear, so each call returns its phi.  On passes that read phi within
    # 1e-9 of epsilon, or |w| within 1e-9 of the clear ratio, the loop and
    # a single _passes call equal the reference loop, which always takes
    # atan2, bit for bit, phi included
    atan2 = counted(monkeypatch, math, ("atan2",))
    for k, s, epsilon, clear_first in clear_edge_cases():
        ratio = clear_ratio(epsilon)
        for budget in (1, 1000):
            config = DetectionConfig(epsilon=epsilon, max_iterations=budget)
            want = reference_detect_moments(k, s, config)
            atan2.clear()
            loop = detect_moments(k, s, config)
            taken = len(atan2)
            assert outputs(loop) == outputs(want)
            assert bits(loop.phi_trace) == bits(want.phi_trace)
            clear, m, q = [], horn_matrix(k), (1.0, 0.0, 0.0, 0.0)
            for net in want.nets:
                sc, w = power_read(m, q)
                clear.append(sc > 0.0 and math.hypot(*w) > ratio * sc)
                q = net
            assert clear[0] == clear_first
            assert taken == clear.count(False) + clear[-1], (epsilon, clear)
        atan2.clear()
        net, phi, ran, stop = _passes(loop.horn, _MisfitModel(s), (1.0, 0.0, 0.0, 0.0),
                                      epsilon, True, 1)
        assert atan2 == ["atan2"]
        assert bits((*net, phi)) == bits((*want.nets[0], want.phi_trace[0]))
        assert ran == 1 and stop == (want.iterations == 1 and want.converged)


# ---------------------------------------------------------------------------
# nets and phi_trace, replayed on first read

def test_a_detections_memory_does_not_grow_with_its_passes():
    # a pass records nothing: seed-0 trial 1627 does not converge at 1e-6,
    # and 1000 of its passes peak within 1 KB of 10 (2.1 and 1.5 KB
    # measured; a 4-tuple and a float kept per pass would add over 100 KB)
    k, s, _, _ = trial_loop(1627, 1e-6)
    peaks = []
    tracemalloc.start()
    try:
        for budget in (10, 1000):
            config = DetectionConfig(epsilon=1e-6, max_iterations=budget)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loop = detect_moments(k, s, config)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            assert loop.iterations == budget and not loop.converged
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


def replay_edge_cases():
    """(K, S, config, what) where a replay can slip: budgets of 1 and 2
    passes, a real first fold whose first pass takes the disturbance (alone
    and within budgets of 1 and 2), and an exit on pass one."""
    s = hand_made_s()
    plane = UnitBivector.from_components(1.0, 2.0, -2.0)
    turned, nudged = rotation_matrix(plane, 2.5), rotation_matrix(plane, 1e-9)
    cases = []
    for budget in (1, 2, 1000):
        config = DetectionConfig(epsilon=1e-6, max_iterations=budget)
        cases += [(floats(turned @ s), floats(s), config, "turned"),
                  (floats(s), floats(s), config, "real fold")]
    return cases + [(floats(nudged @ s), floats(s), DetectionConfig(epsilon=1e-6),
                     "pass-one exit")]


def test_nets_and_phi_trace_replay_the_loop_at_its_edges(monkeypatch):
    calls = counted(monkeypatch, rotalign.detector, ("_passes",))
    seen = set()
    for k, s, config, what in replay_edge_cases():
        calls.clear()
        loop = detect_moments(k, s, config)
        want = reference_detect_moments(k, s, config)
        assert calls == ["_passes"]
        # either read replays both, one _passes call a pass; a second read
        # returns the kept object
        trace = loop.phi_trace
        assert len(calls) == 1 + loop.iterations
        nets = loop.nets
        assert loop.nets is nets and loop.phi_trace is trace
        assert len(calls) == 1 + loop.iterations
        assert bits(nets) == bits(want.nets) and bits(trace) == bits(want.phi_trace)
        assert outputs(loop) == outputs(want)
        assert type(loop.iterations) is int and loop.iterations == len(trace)
        assert loop == detect_moments(k, s, config)
        if what == "real fold":
            assert trace[0] == DISTURBANCE_ANGLE
        seen.add((what, loop.iterations, loop.converged))
    assert {("turned", 1, False), ("turned", 2, False), ("real fold", 1, False),
            ("real fold", 2, False), ("pass-one exit", 1, True)} <= seen


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


def energy_cases():
    """(field, the factor that overflows its energy, epsilon) by row name:
    three fields from one seeded stream and two halves of [-1, 1]^3."""
    rng = np.random.default_rng(44)
    return {
        "piecewise": (shared_cell_pair(rng)[0], 1e300, 1e-6),
        "linear": (random_linear(rng), 1e300, 1e-6),
        "grid": (SampledField(UNIT_BOX, (3, 2, 2), rng.uniform(-1, 1, (12, 3))),
                 1e300, 1e-6),
        "two-halves": (FIELD_A, 1e300, 1e-3),
    }


@pytest.mark.parametrize("kind", list(energy_cases()))
def test_detect_checks_the_patterns_energy_then_the_references(kind):
    # the pattern's energy first, then S's: a zero pattern against an
    # overflowing reference names the zero field.  K cannot overflow while
    # both energies are finite, |K_ij| <= sqrt(E_u E_v), so its check comes
    # last (test_detect_moments_rejects_a_bad_k_or_s).  A zero field fires
    # no RuntimeWarning, even with every warning an error.  NaN and inf
    # values never reach detect: the field constructors reject them
    # (tests/test_fields.py), but finite values can overflow an energy
    field, overflow, epsilon = energy_cases()[kind]
    zero, huge = scale(field, 0.0), scale(field, overflow)
    config = DetectionConfig(epsilon=epsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reference, pattern in ((zero, zero), (field, zero), (zero, field)):
            with pytest.raises(ValueError, match=ZERO):
                detect(reference, pattern, config)
    with np.errstate(all="ignore"):
        for reference, pattern, message in (
                (huge, huge, "^pattern field energy is not finite$"),
                (field, huge, "^pattern field energy is not finite$"),
                (zero, huge, "^pattern field energy is not finite$"),
                (huge, zero, ZERO),
                (huge, field, INFINITE)):
            with pytest.raises(ValueError, match=message):
                detect(reference, pattern, config)


def test_detect_rejects_non_finite_patterns():
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="^pattern field energy is not finite$"):
        detect(LinearVectorField(np.eye(3)), LinearVectorField(1e308 * np.eye(3)),
               DetectionConfig(epsilon=1e-3))


def test_detect_rejects_non_finite_references():
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=INFINITE):
        detect(LinearVectorField(1e308 * np.eye(3)), LinearVectorField(np.eye(3)),
               DetectionConfig(epsilon=1e-3))


# The three known failure modes (ROADMAP items 2 and 3).  Each test asserts
# the correct outcome and fails on the current detector; strict xfail turns a
# fix into a failure that asks for the marker to go.

def seeded_detection(index, epsilon):
    spec = draw_trial(0, index, epsilon)
    pattern = rotate_outer(spec.field, spec.plane, spec.angle)
    report = detect(spec.field, pattern, DetectionConfig(epsilon=epsilon))
    return spec, report


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the loop settles on N's second eigenvector, where the "
    "bivector vanishes, and the first-order certificate, linearised about "
    "the current rotation, passes a false exit at the half-turn"))
def test_no_converged_exit_at_the_half_turn():
    # seed-0 trial 242 at eps = 1e-3, angle 3.14136: stops converged after
    # 4 passes with the residual rotation still 3.1411 rad
    spec, report = seeded_detection(242, 1e-3)
    residual = residual_angle(report.net, spec.plane, spec.angle)
    assert not (report.converged and residual > 0.1)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: on a nearly rank-one reference the paper's steps never "
    "bring phi within eps, so the certified exit is not reached"))
def test_nearly_rank_one_trial_converges():
    # seed-0 trial 1627 at eps = 1e-6 stops at 1000 passes
    _, report = seeded_detection(1627, 1e-6)
    assert report.converged


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 2 and 3: the trial starts near N's second eigenvector, "
    "where phi rises for about 600 passes before it falls at the rate of S, "
    "so the paper's steps need more than max_iterations passes at "
    "eps = 1e-3 too"))
def test_slow_trial_converges_within_max_iterations():
    # trial 0 of master seed 6914897348323 at eps = 1e-3 (angle 2.893) stops
    # unconverged at 1000 passes with error 0.046; let run, it converges in
    # 1324 passes with error 0.0011
    stats = run_trials(1, 1e-3, 6914897348323)
    assert stats.n_nonconverged == 0 and stats.max_error <= 2e-3


def test_config_validation():
    # a bool is no tolerance, though True compares as 1 (as max_iterations
    # and the field constructors read it)
    for epsilon in (0.0, -1e-3, math.inf, -math.inf, math.nan, float("1e400"),
                    True, False, np.True_, "0.1", None):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            DetectionConfig(epsilon=epsilon)
    for epsilon in (1, 0.5, np.float64(1e-3), np.int64(2)):
        assert DetectionConfig(epsilon=epsilon).epsilon == epsilon
    for budget in (0, True, 10.0, "10", np.int64(10)):
        with pytest.raises(ValueError, match="max_iterations must be an int"):
            DetectionConfig(epsilon=1e-3, max_iterations=budget)


# ---------------------------------------------------------------------------
# checks that hold however the last bits of a pass move

def test_detection_is_equivariant_under_a_global_rotation():
    # turning both fields by Q turns K and S into Q K Q^T and Q S Q^T, and
    # the generating rotation's normal n into Q n.  The disturbance plane
    # E12 is fixed, so a trial whose first fold is real is left out by
    # design; this ensemble holds none.
    real_first = 0
    for epsilon, n in ((0.1, 300), (1e-3, 300), (1e-6, 100)):
        config = DetectionConfig(epsilon=epsilon)
        for index, (k, s, want, _) in enumerate(trial_loops(range(n), epsilon)):
            if argument(*moment_parts(k))[2]:
                real_first += 1
                continue
            q = rotation_matrix(*random_rotation(np.random.default_rng(10000 + index)))
            k, s = np.reshape(k, (3, 3)), np.reshape(s, (3, 3))
            got = detect_moments(floats(q @ k @ q.T), floats(q @ s @ q.T), config)
            assert (got.iterations, got.converged) == (want.iterations,
                                                       want.converged)
            alpha, undo = rotor_rotation(want.net)
            got_alpha, got_undo = rotor_rotation(got.net)
            assert abs(got_alpha - alpha) <= 1e-13
            assert np.max(np.abs(got_undo.normal() - q @ undo.normal())) <= 1e-13
    assert real_first == 0


def test_the_paper_steps_shrink_phi_by_the_rate_of_s():
    # near the answer a pass maps the residual rotation omega to
    # (S / tr S) omega, so over a long tail phi falls by
    # rho = lambda_max(S) / tr S a pass: the slow failure mode's rate, read
    # on seed-0 trials with rho 0.975-0.986 at eps = 1e-6
    for index in (25, 28, 338, 557):
        _, s, loop, _ = trial_loop(index, 1e-6)
        tail = loop.phi_trace[len(loop.phi_trace) // 2:]
        ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 1e-5 and b > 1e-5]
        assert len(ratios) >= 100
        s = np.reshape(s, (3, 3))
        rho = np.linalg.eigvalsh(s)[-1] / np.trace(s)
        assert abs(np.median(ratios) - rho) <= 1e-6


@pytest.mark.parametrize("k", [-500, 500])
def test_a_half_turn_side_step_is_exact_at_extreme_scales(k):
    # seed-0 trial 0's first pass is common with tr K < 0, so it takes
    # r + tr K as |B| (|B| / (r - tr K)).  Its moments are scaled by 2^16
    # on top of 2^500, or by 2^-16 on top of 2^-500: there |B|^2 would
    # overflow, or fall below 2^-1022 and lose bits; this form does neither
    k0, s0, want, _ = trial_loop(0, 1e-6)
    sc, biv = moment_parts(k0)
    assert sc < 0.0 and want.phi_trace[0] == math.atan2(math.hypot(*biv), sc)
    scale = 2.0 ** (k + math.copysign(16, k))
    got = detect_moments([x * scale for x in k0], [x * scale for x in s0],
                         DetectionConfig(epsilon=1e-6))
    assert (got.phi_trace, got.nets, got.net) == (want.phi_trace, want.nets,
                                                  want.net)
    # detections compare by their outputs, not by the moments they keep
    assert got == want and hash(got) == hash(want)


def test_the_net_rotor_keeps_unit_length():
    # the loop never renormalises the net, and tr K and B scale with
    # |net|^2, so its drift from 1 feeds every later pass (worst 4.4e-16
    # measured on these detections).  nets holds one net per pass, the last
    # of them net bit for bit, and a report's nets are its loop's
    config = DetectionConfig(epsilon=1e-6)
    loops = []
    for reference, pattern in piecewise_pairs():
        report = detect(reference, pattern, config)
        loop = detect_moments(*pair_floats(pattern, reference), config)
        assert (report.net, report.nets) == (loop.net, loop.nets)
        loops.append(report)
    for epsilon in (0.1, 1e-3, 1e-6):
        loops += [loop for _, _, loop, _ in trial_loops(range(300), epsilon)]
    for loop in loops:
        assert loop.net == loop.nets[-1]
        assert len(loop.nets) == loop.iterations
    assert max(abs(math.hypot(*loop.net) - 1.0) for loop in loops) <= 1e-14


# D takes a normal (x, y, z) to its dual plane's (b12, b13, b23) =
# (z, -y, x), as UnitBivector.from_normal does.
AXES_TO_DUALS = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


def numpy_horn_matrix(k):
    """Horn's N of K, nine floats row-major, as a 4x4 numpy array in the
    rotor's layout, built from its block form [[tr K, -B^T],
    [-B, D (K + K^T - tr K I) D]] with B = (k12 - k21, k13 - k31,
    k23 - k32), K's fold, and D = AXES_TO_DUALS."""
    k = np.reshape(k, (3, 3))
    tr = np.trace(k)
    n = np.empty((4, 4))
    n[0, 0] = tr
    n[0, 1:] = n[1:, 0] = k[1, 0] - k[0, 1], k[2, 0] - k[0, 2], k[2, 1] - k[1, 2]
    n[1:, 1:] = AXES_TO_DUALS @ (k + k.T - tr * np.eye(3)) @ AXES_TO_DUALS
    return n


def test_a_common_pass_is_a_shifted_power_step_on_horns_n():
    # the paper's half-way step maps the net rotor q to
    # (N + r I) q over its length, with the shift r = |N q| = |C|.  A pass
    # is common when its read, by numpy, is above epsilon and names a
    # plane; reads within 1e-9 of either rule are not counted (none
    # occurs).  Worst 5.6e-16 measured over the 28 655 common passes.
    config = DetectionConfig(epsilon=1e-6)
    cases = [(pair_floats(pattern, reference)[0],
              detect(reference, pattern, config), 1e-6)
             for reference, pattern in piecewise_pairs()]
    for epsilon in (0.1, 1e-3, 1e-6):
        cases += [(k, loop, epsilon) for k, _, loop, _ in trial_loops(range(300),
                                                                      epsilon)]
    rtol, common, unclear = ZERO_BIVECTOR_RTOL, 0, 0
    for k, loop, epsilon in cases:
        n = numpy_horn_matrix(k)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for net in loop.nets:
            p = n @ q
            sc = q @ p
            bmag = np.linalg.norm(p - sc * q)
            phi = math.atan2(bmag, sc)
            got = np.array(net)
            if phi > epsilon * (1 + 1e-9) and bmag > 2 * rtol * abs(sc):
                want = p + np.linalg.norm(p) * q
                assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-14
                common += 1
            elif phi > epsilon * (1 - 1e-9) and bmag > rtol * abs(sc) / 2:
                unclear += 1
            q = got
    assert common > 20000 and unclear == 0


IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
NO_ROTATION = (1.0, 0.0, 0.0, 0.0)


def numpy_fold(k):
    """(tr K, (b12, b13, b23)) of a 3x3 array K by numpy."""
    return np.trace(k), (k[0, 1] - k[1, 0], k[0, 2] - k[2, 0], k[1, 2] - k[2, 1])


def rotor_matrix(net):
    """The 3x3 rotation of the rotor net by rotation_matrix."""
    angle, plane = rotor_rotation(net)
    return rotation_matrix(plane, angle)


def random_rotor(rng):
    q = rng.standard_normal(4)
    return tuple(q / np.linalg.norm(q))


def carried_onto(biv, net):
    """The bivector B carried onto the rotor net, as power_read's w: the
    even element -B net, by rotor_product."""
    b12, b13, b23 = biv
    return rotor_product((0.0, -b12, -b13, -b23), net)


def test_power_read_is_the_fold_of_the_turned_moment():
    # tr(R K0) and the antisymmetric part of R K0, for R the rotation of
    # the rotor net, read off K0's 4x4 N and net with no 3x3 R
    rng = np.random.default_rng(2111)
    for _ in range(1000):
        k = rng.uniform(-2.0, 2.0, 9)
        net = random_rotor(rng)
        sc, w = power_read(horn_matrix(k.tolist()), net)
        want_sc, want_biv = numpy_fold(rotor_matrix(net) @ k.reshape(3, 3))
        size = np.linalg.norm(k)
        assert abs(sc - want_sc) <= 1e-14 * size
        assert np.max(np.abs(np.subtract(carried_bivector(net, w), want_biv))
                      ) <= 1e-14 * size


@pytest.mark.parametrize("k", [-600, -300, -40, 40, 300, 600])
def test_power_read_is_exact_under_power_of_two_scaling(k):
    # N is sums and differences of K0's entries and the read is linear in
    # N, so a power of two scales every read exactly; -q reads the same B
    scale = 2.0 ** k
    rng = np.random.default_rng(2112)
    for _ in range(200):
        m = tuple(rng.uniform(-2.0, 2.0, 9))
        q = random_rotor(rng)
        sc, w = power_read(horn_matrix(m), q)
        got_sc, got_w = power_read(horn_matrix([x * scale for x in m]), q)
        assert (got_sc, got_w) == (sc * scale, tuple(x * scale for x in w))
        minus_q = tuple(-x for x in q)
        minus_sc, minus_w = power_read(horn_matrix(m), minus_q)
        assert (minus_sc, carried_bivector(minus_q, minus_w)) == (
            sc, carried_bivector(q, w))


def test_power_read_at_the_identity_is_the_fold_of_k():
    # the first pass reads K0 itself, bit for bit as moment_parts folds it
    rng = np.random.default_rng(2113)
    for _ in range(100):
        k = tuple(rng.uniform(-2.0, 2.0, 9))
        sc, w = power_read(horn_matrix(k), NO_ROTATION)
        assert (sc, carried_bivector(NO_ROTATION, w)) == moment_parts(k)


def halfway_cases():
    """(sc, biv) at random, of either sign of sc, with the argument within
    1e-9 of 0 and of pi, and just above the real-valued threshold."""
    rng = np.random.default_rng(2212)
    cases = []
    for _ in range(200):
        sc = rng.uniform(-2.0, 2.0)
        biv = tuple(rng.uniform(-2.0, 2.0, 3))
        n = np.array(random_plane(rng).components)
        angle = rng.uniform(0.0, 1e-9)
        for phi in (angle, math.pi - angle):
            cases.append((math.cos(phi), tuple(math.sin(phi) * n)))
        size = 1.01 * ZERO_BIVECTOR_RTOL * abs(sc)
        cases += [(sc, biv), (sc, tuple(size * n)), (-sc, tuple(size * n))]
    return cases


def test_a_power_step_from_the_identity_turns_by_the_angle_and_plane():
    # the step turns by C's argument in C's plane from either feed: its
    # rotor, and the fold of its rotation read off the identity's N
    identity = horn_matrix(IDENTITY)
    for sc, biv in halfway_cases():
        phi, plane, real_valued = argument(sc, biv)
        assert not real_valued
        want_sc, want_biv = numpy_fold(rotation_matrix(plane, phi))
        rotor = rotation_rotor(plane, phi)
        for feed in (halfway_feed(sc, carried_onto(biv, NO_ROTATION)),
                     angle_feed(phi, plane.normal().tolist(), NO_ROTATION)):
            q = power_step(*feed, NO_ROTATION)
            assert np.allclose(q, rotor, rtol=0.0, atol=2e-15)
            got_sc, got_w = power_read(identity, q)
            assert abs(got_sc - want_sc) <= 4e-15
            assert np.allclose(carried_bivector(q, got_w), want_biv, rtol=0.0,
                               atol=4e-15)


def test_a_power_step_turns_the_moment_as_numpy_does():
    # the read of the new net is the fold of the step's rotation times the
    # turned K0
    rng = np.random.default_rng(2213)
    for sc, biv in halfway_cases()[:200]:
        k = rng.uniform(-2.0, 2.0, 9)
        net = rotation_rotor(random_plane(rng), rng.uniform(0.0, math.pi))
        turned = rotor_matrix(net) @ k.reshape(3, 3)
        phi, plane, _ = argument(sc, biv)
        want_sc, want_biv = numpy_fold(rotation_matrix(plane, phi) @ turned)
        size = np.linalg.norm(k)
        for feed in (halfway_feed(sc, carried_onto(biv, net)),
                     angle_feed(phi, plane.normal().tolist(), net)):
            got = power_step(*feed, net)
            got_sc, got_w = power_read(horn_matrix(k.tolist()), got)
            assert abs(got_sc - want_sc) <= 1e-14 * size
            assert np.allclose(carried_bivector(got, got_w), want_biv,
                               rtol=0.0, atol=1e-14 * size)


@pytest.mark.parametrize("k", [-600, -300, -40, 40, 300, 600])
def test_a_power_step_is_exact_under_power_of_two_scaling(k):
    # the step is a ratio to its own length, so the scale drops out exactly:
    # d at the half-turn is |B| (|B| / (r - sc)), and |B|^2 would leave the
    # float range at 2^600 or lose bits below 2^-1022
    rng = np.random.default_rng(2214)
    q = rotation_rotor(random_plane(rng), 1.0)
    scale = 2.0 ** k
    for sc, biv in halfway_cases():
        w = carried_onto(biv, q)
        feed = halfway_feed(sc * scale, tuple(x * scale for x in w))
        assert power_step(*feed, q) == power_step(*halfway_feed(sc, w), q)


# ---------------------------------------------------------------------------
# a report against the paper's loop on rotated fields, and against the
# eager report bit for bit

def field_form_detection(reference, pattern, config):
    """The paper's loop as written: every pass correlates the rotated pattern
    with correlate_at_origin, takes the angle and plane _explicit_step reads
    off the correlation, rotates the pattern with rotate_outer and
    multiplies the step's rotation_rotor into the net rotor, read at the end
    by rotor_rotation.  Returns the fields of a DetectionReport."""
    model = _MisfitModel(self_moment(reference))
    u, net, trace, converged = pattern, (1.0, 0.0, 0.0, 0.0), [], False
    while not converged and len(trace) < config.max_iterations:
        cor = correlate_at_origin(u, reference)
        bmag = math.hypot(*cor.bivector)
        phi, n, converged = _explicit_step(
            model, cor.scalar, cor.bivector, bmag, math.atan2(bmag, cor.scalar),
            not trace, config.epsilon)
        q = UnitBivector.from_normal(n)
        u = rotate_outer(u, q, phi)
        net = rotor_product(rotation_rotor(q, phi), net)
        trace.append(phi)
    alpha, plane = rotor_rotation(net)
    return alpha, -plane, u, tuple(trace), converged


def field_values(field):
    if isinstance(field, LinearVectorField):
        return field.matrix
    if isinstance(field, PiecewiseConstantField):
        return field.values
    return field.data


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def layout(field):
    """Where a field's values sit: its cell corners as bytes, a grid's box
    and resolution, or a linear field's box."""
    if isinstance(field, PiecewiseConstantField):
        return bits(field.low), bits(field.high)
    if isinstance(field, SampledField):
        return field.box, field.resolution
    return field.box


def assert_same_report(reference, pattern, epsilon):
    """detect's report against reference_detect, which computes every output
    before it returns, bit for bit.  The report replays its own passes, from
    the moments it was given, bit for bit those of its detect_moments call,
    and a second read of nets or phi_trace returns the first's."""
    config = DetectionConfig(epsilon=epsilon)
    got = detect(reference, pattern, config)
    loop = detect_moments(*pair_floats(pattern, reference), config)
    want = reference_detect(reference, pattern, config)
    read = {name: getattr(got, name) for name in ("net", "phi_trace", "nets", "alpha")}
    for name, value in read.items():
        assert bits(value) == bits(getattr(want, name)), name
    for name in ("nets", "phi_trace"):
        assert bits(getattr(loop, name)) == bits(read[name]), name
        assert getattr(got, name) is read[name]
    assert outputs(got) == outputs(loop) == outputs(want)
    assert got == detect(reference, pattern, config)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert bits(got.plane.components) == bits(want.plane.components)
    corrected = got.corrected_pattern
    assert type(corrected) is type(want.corrected_pattern)
    assert layout(corrected) == layout(want.corrected_pattern)
    assert bits(field_values(corrected)) == bits(field_values(want.corrected_pattern))


def assert_same_detection(reference, pattern, epsilon):
    """detect's report against field_form_detection, the paper's loop on
    fields, to 1e-12."""
    config = DetectionConfig(epsilon=epsilon)
    got = detect(reference, pattern, config)
    alpha, plane, corrected, trace, converged = field_form_detection(
        reference, pattern, config)
    assert got.iterations == len(trace)
    assert got.converged == converged
    assert np.max(np.abs(np.subtract(got.phi_trace, trace))) <= 1e-12
    assert abs(got.alpha - alpha) <= 1e-12
    assert np.max(np.abs(got.plane.components - plane.components)) <= 1e-12
    assert np.max(np.abs(field_values(got.corrected_pattern) -
                         field_values(corrected))) <= 1e-12


def seeded_linear_pairs(epsilon):
    for index in range(50):
        spec = draw_trial(0, index, epsilon)
        yield spec.field, rotate_outer(spec.field, spec.plane, spec.angle), epsilon


@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001, 1e-6])
def test_moment_loop_matches_field_loop_on_seeded_linear_trials(epsilon):
    for pair in seeded_linear_pairs(epsilon):
        assert_same_detection(*pair)


@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001, 1e-6])
def test_report_matches_the_eager_report_on_seeded_linear_trials(epsilon):
    for pair in seeded_linear_pairs(epsilon):
        assert_same_report(*pair)


def regular_cell_pairs():
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
        yield v, pattern, 1e-6


def grid_and_mixed_pairs():
    rng = np.random.default_rng(32)
    for _ in range(3):
        v = SampledField(UNIT_BOX, (5, 4, 3), rng.uniform(-1.0, 1.0, (60, 3)))
        pattern = rotate_outer(v, UnitBivector.from_normal(rng.standard_normal(3)),
                               rng.uniform(0.0, 3.0))
        yield v, pattern, 1e-6
    # mixed pair: a linear reference against its rotated copy sampled on a grid
    lin = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)))
    plane = UnitBivector.from_normal(rng.standard_normal(3))
    yield lin, sample(rotate_outer(lin, plane, 1.7), UNIT_BOX, (6, 6, 6)), 1e-6


def shared_cell_pairs(seed, n):
    """n seeded shared-cell pairs at 1e-6; returns the stream, to go on."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield *shared_cell_pair(rng, rng.uniform(0.0, math.pi)), 1e-6
    return rng


def shared_cell_and_grid_pairs():
    rng = yield from shared_cell_pairs(38, 20)
    v = SampledField(UNIT_BOX, (6, 5, 4), rng.uniform(-1.0, 1.0, (120, 3)))
    yield v, rotate_outer(v, UnitBivector.from_normal(rng.standard_normal(3)), 2.4), 1e-6


@pytest.mark.parametrize("pairs", [
    pytest.param(regular_cell_pairs, id="regular-cells"),
    pytest.param(grid_and_mixed_pairs, id="grids-and-mixed"),
    pytest.param(shared_cell_and_grid_pairs, id="shared-cells-and-grid"),
    pytest.param(partial(shared_cell_pairs, 40, 5), id="shared-cells"),
])
def test_report_matches_the_eager_report_and_the_field_loop(pairs):
    for pair in pairs():
        assert_same_report(*pair)
        assert_same_detection(*pair)


# ---------------------------------------------------------------------------
# the piecewise hot path, guarded by counts rather than timings

def test_a_shared_cell_detect_makes_one_product_and_writes_its_report_once(
        monkeypatch):
    # K and S from one pair_moments product, the pattern's energy through
    # correlate_at_origin and its one cross_moment, and no MomentDetection
    # or DetectionReport __init__, in detect and in detect_moments
    calls = counted(monkeypatch, rotalign.detector,
                    ("pair_moments", "correlate_at_origin"))
    counted(monkeypatch, rotalign.correlation, ("cross_moment",), calls)
    counted(monkeypatch, rotalign.fields, ("cross_moment",), calls)
    for cls in (MomentDetection, DetectionReport):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, f=cls.__init__,
                            n=cls.__name__: calls.append(n) or f(self, *args))
    config = DetectionConfig(epsilon=1e-6)
    reference, pattern = shared_cell_pair(np.random.default_rng(45))
    report = detect(reference, pattern, config)
    assert report.converged
    assert calls == ["pair_moments", "correlate_at_origin", "cross_moment"]
    k, s = pair_floats(pattern, reference)
    calls.clear()
    loop = detect_moments(k, s, config)
    assert calls == [] and outputs(loop) == outputs(report)
    # the counts see what they count: another pair stacks two cross_moment
    # calls, and a detection built by its class runs __init__
    linear = random_linear(np.random.default_rng(46))
    detect(linear, rotate_outer(linear, E12, 0.5), config)
    assert calls == ["pair_moments", "cross_moment", "cross_moment",
                     "correlate_at_origin", "cross_moment"]
    calls.clear()
    MomentDetection(loop.net, loop.iterations, loop.converged, loop.horn, loop.s,
                    loop.epsilon)
    assert calls == ["MomentDetection"]

def test_detect_on_shared_cells_builds_no_cell_pair_matrix(overlap_calls):
    reference, pattern = shared_cell_pair(np.random.default_rng(33))
    assert overlap_calls == [18 * 18, 18 * 18]  # one check per constructor
    overlap_calls.clear()
    report = detect(reference, pattern, DetectionConfig(epsilon=1e-6))
    assert report.converged
    corrected = report.corrected_pattern
    # neither the three integrals nor the corrected pattern's re-check
    assert overlap_calls == []
    assert corrected.low is pattern.low and corrected.high is pattern.high


def test_shared_cells_are_compared_by_bytes_first(monkeypatch, overlap_calls):
    # equal corner bytes, in the same or in distinct arrays, take the shared
    # cells without a value compare; corners that differ only in the sign of
    # a zero take them after one
    compared = counted(monkeypatch, np, ("array_equal",))
    reference, pattern = shared_cell_pair(np.random.default_rng(36))
    config = DetectionConfig(epsilon=1e-6)
    assert detect(reference, pattern, config).converged
    copy = rotate_outer(reference, UnitBivector.from_components(1.0, 2.0, 3.0),
                        1.1)
    assert detect(reference, copy, config).converged
    assert compared == []
    right, left = (1.0, 0.5, -0.25), (0.0, 2.0, 1.0)
    zero = two_halves(right, left)
    negative_zero = PiecewiseConstantField((
        (Box((-0.0, -1, -1), (1, 1, 1)), right),
        (Box((-1, -1, -1), (-0.0, 1, 1)), left),
    ))
    assert zero.low.tobytes() != negative_zero.low.tobytes()
    compared.clear()
    overlap_calls.clear()
    got = cross_moment(zero, negative_zero)
    assert overlap_calls == [] and len(compared) == 2
    assert np.array_equal(got, cross_moment(zero, zero))


def test_piecewise_field_is_read_only():
    field, _ = shared_cell_pair(np.random.default_rng(34))
    assert len(field.cells) == 18
    assert all(np.array_equal(v, field.values[i])
               for i, (_, v) in enumerate(field.cells))
    for a in (field.low, field.high, field.values, field.volumes):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    for name in ("low", "high", "values", "volumes", "cells"):
        with pytest.raises(AttributeError):
            setattr(field, name, None)


# ---------------------------------------------------------------------------
# the report: corrected_pattern built on first read

def test_corrected_pattern_is_built_on_first_read(monkeypatch):
    rotations = counted(monkeypatch, rotalign.detector, ("rotate_outer",))
    reference, pattern = shared_cell_pair(np.random.default_rng(39))
    report = detect(reference, pattern, DetectionConfig(epsilon=1e-6))
    assert rotations == []
    corrected = report.corrected_pattern
    assert rotations == ["rotate_outer"]
    assert report.corrected_pattern is corrected
    assert rotations == ["rotate_outer"]
    assert report.pattern is pattern


# ---------------------------------------------------------------------------
# residual_angle

@pytest.mark.parametrize("seed, net, alpha, want", [
    (90908, lambda p: (1.0, 0.0, 0.0, 0.0), 1.234, 1.234),
    (90908, lambda p: rotation_rotor(-p, 1.234), 1.234, 0.0),
    (90908, lambda p: rotation_rotor(-p, 1.234 / 2), 1.234, 1.234 / 2),
    # over-correcting in the wrong direction past pi wraps back
    (90909, lambda p: rotation_rotor(p, 2.0), 2.0, 2 * math.pi - 4.0),
], ids=["no-correction", "full", "half", "past-pi"])
def test_residual_angle(seed, net, alpha, want):
    p = random_plane(np.random.default_rng(seed))
    assert math.isclose(residual_angle(net(p), p, alpha), want, abs_tol=1e-12)
