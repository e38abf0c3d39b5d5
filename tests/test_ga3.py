"""Algebra layer tests: generated table against the matrix oracle, fixed
worked examples, and the algebraic laws the rest of the package leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from rotalign.ga3 import (
    E1, E2, E3, E12, E13, E23, ONE,
    Multivector, PolarForm, Rotor, UnitBivector,
    compose_rotation, exp_bivector, geometric_product, grade,
    polar_decompose, reverse, rotation_matrix, rotation_rotor, rotor_product,
    rotor_rotation, sandwich,
)

from conftest import oracle_product

RNG = np.random.default_rng(20240915)


def mv(**kw):
    names = ["s", "e1", "e2", "e3", "e12", "e13", "e23", "e123"]
    c = np.zeros(8)
    for k, v in kw.items():
        c[names.index(k)] = v
    return Multivector(c)


def random_mv():
    return Multivector(RNG.uniform(-2.0, 2.0, 8))


def random_plane():
    v = RNG.standard_normal(3)
    while np.linalg.norm(v) < 1e-6:
        v = RNG.standard_normal(3)
    return UnitBivector.from_components(*(v / np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# geometric product

def test_product_table_matches_matrix_oracle():
    # all 64 basis pairs against the independent Pauli representation
    for i in range(8):
        for j in range(8):
            a = np.zeros(8)
            a[i] = 1.0
            b = np.zeros(8)
            b[j] = 1.0
            got = (Multivector(a) * Multivector(b)).coeffs
            want = oracle_product(a, b)
            assert np.allclose(got, want, atol=1e-14), (i, j, got, want)


def test_product_examples():
    assert (E1 * E1).close_to(ONE)
    assert (E1 * E2).close_to(mv(e12=1))
    assert (E2 * E1).close_to(mv(e12=-1))
    assert ((E1 + E2) * E1).close_to(mv(s=1, e12=-1))
    assert (E3 * E1).close_to(mv(e13=-1))


def test_product_random_against_oracle():
    for _ in range(200):
        a, b = random_mv(), random_mv()
        assert np.allclose((a * b).coeffs, oracle_product(a.coeffs, b.coeffs),
                           atol=1e-12)


def test_product_associative_and_distributive():
    for _ in range(1000):
        a, b, c = random_mv(), random_mv(), random_mv()
        left = (a * b) * c
        right = a * (b * c)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-10)
        d1 = a * (b + c)
        d2 = a * b + a * c
        assert np.allclose(d1.coeffs, d2.coeffs, atol=1e-10)


def test_scalar_multiplication_commutes():
    a = random_mv()
    assert (2.5 * a).close_to(a * 2.5)
    assert (a * Multivector.from_scalar(2.5)).close_to(2.5 * a)


# ---------------------------------------------------------------------------
# reverse and grade

def test_reverse_examples():
    assert reverse(mv(e12=1)).close_to(mv(e12=-1))
    assert reverse(mv(e123=1)).close_to(mv(e123=-1))
    assert reverse(E1).close_to(E1)
    assert reverse(ONE).close_to(ONE)


def test_reverse_is_antiautomorphism():
    for _ in range(1000):
        a, b = random_mv(), random_mv()
        assert np.allclose(reverse(a * b).coeffs, (reverse(b) * reverse(a)).coeffs,
                           atol=1e-10)


def test_reverse_involution():
    a = random_mv()
    assert reverse(reverse(a)).close_to(a)


def test_grade_projection():
    a = mv(s=1, e1=2, e12=3, e123=4)
    assert grade(a, 0).close_to(mv(s=1))
    assert grade(a, 1).close_to(mv(e1=2))
    assert grade(a, 2).close_to(mv(e12=3))
    assert grade(a, 3).close_to(mv(e123=4))
    total = grade(a, 0) + grade(a, 1) + grade(a, 2) + grade(a, 3)
    assert total.close_to(a)


def test_grade_out_of_range():
    with pytest.raises(ValueError):
        grade(ONE, 4)
    with pytest.raises(ValueError):
        grade(ONE, -1)


def test_vector_square_is_scalar_norm():
    for _ in range(100):
        v = RNG.uniform(-3, 3, 3)
        m = Multivector.from_vector(v)
        sq = m * m
        assert np.allclose(sq.coeffs[0], np.dot(v, v), atol=1e-12)
        assert np.allclose(sq.coeffs[1:], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# unit bivectors and rotors

def test_unit_bivector_validation():
    with pytest.raises(ValueError):
        UnitBivector(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        UnitBivector.from_components(0.0, 0.0, 0.0)
    p = UnitBivector.from_components(3.0, 0.0, 4.0)
    assert np.allclose(p.components, [0.6, 0.0, 0.8])


def test_unit_bivector_normal_roundtrip():
    for _ in range(50):
        p = random_plane()
        q = UnitBivector.from_normal(p.normal())
        assert np.allclose(p.components, q.components, atol=1e-12)


def test_unit_bivector_normal_examples():
    assert np.allclose(E12.normal(), [0, 0, 1])
    assert np.allclose(E13.normal(), [0, -1, 0])
    assert np.allclose(E23.normal(), [1, 0, 0])


def test_rotor_validation_and_normalization():
    with pytest.raises(ValueError):
        Rotor(1.0, 1.0, 0.0, 0.0)
    r = Rotor(1.0 + 1e-12, 0.0, 0.0, 0.0)
    assert math.isclose(r.scalar, 1.0, abs_tol=1e-15)


def test_exp_bivector_examples():
    r = exp_bivector(E12, math.pi / 2)
    assert r.as_multivector().close_to(mv(e12=1), tol=1e-15)
    r = exp_bivector(E13, -math.pi / 4)
    scaled = math.sqrt(32.0) * r.as_multivector()
    assert scaled.close_to(mv(s=4, e13=-4), tol=1e-12)


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_exp_bivector_adds_angles(a, b):
    p = E23
    lhs = exp_bivector(p, a).as_multivector() * exp_bivector(p, b).as_multivector()
    rhs = exp_bivector(p, a + b).as_multivector()
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# sandwich rotation

def test_sandwich_examples():
    # rotating by pi/2 in the e13 plane sends e1 to e3 and e3 to -e1
    assert sandwich(E13, math.pi / 2, E1).close_to(E3, tol=1e-12)
    assert sandwich(E13, math.pi / 2, E3).close_to(-E1, tol=1e-12)
    assert sandwich(E13, math.pi / 2, E2).close_to(E2, tol=1e-12)
    assert sandwich(E12, 1.234, E3).close_to(E3, tol=1e-12)
    assert sandwich(E12, math.pi, E1).close_to(-E1, tol=1e-12)


def test_sandwich_rejects_non_vectors():
    with pytest.raises(ValueError):
        sandwich(E12, 0.5, mv(s=1, e1=1))


def test_sandwich_against_scipy():
    for _ in range(300):
        p = random_plane()
        angle = RNG.uniform(-math.pi, math.pi)
        v = RNG.uniform(-2, 2, 3)
        got = sandwich(p, angle, Multivector.from_vector(v)).vector
        want = Rotation.from_rotvec(angle * p.normal()).apply(v)
        assert np.allclose(got, want, atol=1e-12)


def test_sandwich_preserves_norm_and_fixes_normal():
    for _ in range(200):
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        v = RNG.uniform(-2, 2, 3)
        out = sandwich(p, angle, Multivector.from_vector(v)).vector
        assert math.isclose(np.linalg.norm(out), np.linalg.norm(v),
                            rel_tol=0, abs_tol=1e-12)
        n = p.normal()
        fixed = sandwich(p, angle, Multivector.from_vector(n)).vector
        assert np.allclose(fixed, n, atol=1e-12)


def test_rotation_matrix_properties():
    for _ in range(100):
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        m = rotation_matrix(p, angle)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(m), 1.0, abs_tol=1e-12)
        want = Rotation.from_rotvec(angle * p.normal()).as_matrix()
        assert np.allclose(m, want, atol=1e-12)


def test_rotation_matrix_is_rodrigues_about_the_normal():
    for _ in range(100):
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        x, y, z = p.normal()
        cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        want = (np.eye(3) + math.sin(angle) * cross +
                (1.0 - math.cos(angle)) * cross @ cross)
        assert np.max(np.abs(rotation_matrix(p, angle) - want)) <= 1e-15


def test_rotor_product_against_oracle():
    for _ in range(100):
        a, b = RNG.uniform(-2, 2, 4), RNG.uniform(-2, 2, 4)
        want = oracle_product(np.r_[a[0], 0, 0, 0, a[1:], 0],
                              np.r_[b[0], 0, 0, 0, b[1:], 0])
        assert np.allclose(rotor_product(a, b), want[[0, 4, 5, 6]], atol=1e-12)
        assert np.allclose(want[[1, 2, 3, 7]], 0.0, atol=1e-12)


def test_rotor_rotation_reads_both_signs_of_a_rotor():
    for _ in range(100):
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        r = np.array(rotation_rotor(p, angle).components)
        for sign in (1.0, -1.0):
            got_angle, got_plane = rotor_rotation(sign * 3.0 * r)
            assert math.isclose(got_angle, angle, abs_tol=1e-12)
            assert np.allclose(got_plane.components, p.components, atol=1e-9)
    assert rotor_rotation((2.0, 0.0, 0.0, 0.0)) == (0.0, E12)


# ---------------------------------------------------------------------------
# polar decomposition

def test_polar_examples():
    pf = polar_decompose(mv(s=4, e13=-4))
    assert math.isclose(pf.angle, math.pi / 4, abs_tol=1e-12)
    assert np.allclose(pf.plane.components, [0, -1, 0], atol=1e-12)
    assert math.isclose(pf.magnitude, math.sqrt(32.0), abs_tol=1e-12)

    pf = polar_decompose(ONE)
    assert pf.angle == 0.0 and pf.magnitude == 1.0
    assert np.allclose(pf.plane.components, E12.components)

    pf = polar_decompose(mv(e12=1))
    assert math.isclose(pf.angle, math.pi / 2, abs_tol=1e-15)
    assert np.allclose(pf.plane.components, [1, 0, 0])

    pf = polar_decompose(mv(s=-2))
    assert math.isclose(pf.angle, math.pi, abs_tol=1e-15)
    assert math.isclose(pf.magnitude, 2.0, abs_tol=1e-15)
    assert np.allclose(pf.plane.components, E12.components)


def test_polar_errors():
    with pytest.raises(ValueError):
        polar_decompose(Multivector.zero())
    with pytest.raises(ValueError):
        polar_decompose(mv(s=1, e1=0.5))


def test_polar_reconstruct_roundtrip():
    for _ in range(500):
        c = np.zeros(8)
        c[0] = RNG.uniform(-3, 3)
        c[4:7] = RNG.uniform(-3, 3, 3)
        m = Multivector(c)
        if m.norm() == 0.0:
            continue
        pf = polar_decompose(m)
        assert 0.0 <= pf.angle <= math.pi
        assert np.allclose(pf.reconstruct().coeffs, m.coeffs, atol=1e-12)


def test_polar_zero_bivector_fallback_threshold():
    # bivector below the relative tolerance collapses onto the scalar axis
    pf = polar_decompose(mv(s=5.0, e23=1e-13))
    assert pf.angle == 0.0
    assert np.allclose(pf.plane.components, E12.components)


# ---------------------------------------------------------------------------
# rotation composition

def _compose_oracle(alpha, p, phi, q):
    """Canonical (angle in [0, pi], plane) of the composite via scipy.

    The rotor product e^{(alpha/2)P} e^{(phi/2)Q} reverses to the rotation
    rotor of 'rotate by alpha in P, then by phi in Q'.
    """
    first = Rotation.from_rotvec(alpha * p.normal())
    second = Rotation.from_rotvec(phi * q.normal())
    rv = (second * first).as_rotvec()
    ang = np.linalg.norm(rv)
    if ang < 1e-12:
        return 0.0, None
    return ang, UnitBivector.from_normal(rv / ang)


def test_compose_examples():
    beta, plane = compose_rotation(math.pi / 2, E12, math.pi / 2, E12)
    assert math.isclose(beta, math.pi, abs_tol=1e-12)
    assert np.allclose(plane.components, E12.components, atol=1e-12)

    beta, plane = compose_rotation(math.pi / 2, E12, math.pi / 2, E13)
    assert math.isclose(beta, 2 * math.pi / 3, abs_tol=1e-12)
    want = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
    assert np.allclose(plane.components, want, atol=1e-12)


def test_compose_identity_factor_exact():
    p = random_plane()
    beta, plane = compose_rotation(0.7, p, 0.0, E12)
    assert beta == 0.7
    assert plane is p
    beta, plane = compose_rotation(0.0, E12, 0.7, p)
    assert beta == 0.7
    assert plane is p


def test_compose_same_plane_adds():
    beta, plane = compose_rotation(0.3, E23, 0.4, E23)
    assert math.isclose(beta, 0.7, abs_tol=1e-12)
    assert np.allclose(plane.components, E23.components, atol=1e-12)


def test_compose_angle_clamped_to_pi():
    # raw composed angle 3pi/2 folds back to pi/2 with the plane flipped
    beta, plane = compose_rotation(3 * math.pi / 4, E12, 3 * math.pi / 4, E12)
    assert math.isclose(beta, math.pi / 2, abs_tol=1e-12)
    assert np.allclose(plane.components, -E12.components, atol=1e-12)


def test_compose_full_turn_cancels():
    beta, _ = compose_rotation(math.pi, E13, math.pi, E13)
    assert math.isclose(beta, 0.0, abs_tol=1e-9)


def test_compose_against_scipy():
    for _ in range(300):
        p, q = random_plane(), random_plane()
        alpha = RNG.uniform(0, math.pi)
        phi = RNG.uniform(0, math.pi)
        beta, plane = compose_rotation(alpha, p, phi, q)
        want_angle, want_plane = _compose_oracle(alpha, p, phi, q)
        assert math.isclose(beta, want_angle, abs_tol=1e-9)
        if want_plane is not None and want_angle > 1e-6:
            assert np.allclose(plane.components, want_plane.components, atol=1e-6)


def test_compose_rejects_out_of_range():
    with pytest.raises(ValueError):
        compose_rotation(-0.5, E12, 0.1, E13)
    with pytest.raises(ValueError):
        compose_rotation(0.5, E12, 4.0, E13)


# ---------------------------------------------------------------------------
# misc surface

def test_str_formatting():
    assert str(mv(s=4, e13=-4)) == "4 - 4 e13"
    assert str(Multivector.zero()) == "0"
    assert str(mv(e12=1)) == "e12"


def test_multivector_immutable():
    a = random_mv()
    with pytest.raises(AttributeError):
        a.coeffs = np.zeros(8)
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0
