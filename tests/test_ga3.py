"""Algebra layer tests: generated table against the matrix oracle, fixed
worked examples, and the algebraic laws the rest of the package leans on.
The detection pass, a power step on Horn's N, is tested in
test_detector.py."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from rotalign.ga3 import (
    E1, E2, E3, E12, E13, E23, ONE,
    UNIT_ATOL, Multivector, UnitBivector, ZERO_BIVECTOR_RTOL,
    argument, exp_bivector, polar_decompose,
    rotation_matrix, rotation_rotor, rotor_product, rotor_rotation, sandwich,
    unit_parts,
)

from rotalign.fields import LinearVectorField, rotate_outer

from conftest import close_to, mv, oracle_product, random_plane


def random_mv(rng):
    return Multivector(rng.uniform(-2.0, 2.0, 8))


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
    assert close_to(E1 * E1, ONE)
    assert close_to(E1 * E2, mv(e12=1))
    assert close_to(E2 * E1, mv(e12=-1))
    assert close_to((E1 + E2) * E1, mv(s=1, e12=-1))
    assert close_to(E3 * E1, mv(e13=-1))


def test_product_random_against_oracle():
    rng = np.random.default_rng(2201)
    for _ in range(200):
        a, b = random_mv(rng), random_mv(rng)
        assert np.allclose((a * b).coeffs, oracle_product(a.coeffs, b.coeffs),
                           atol=1e-12)


def test_product_associative_and_distributive():
    rng = np.random.default_rng(2202)
    for _ in range(1000):
        a, b, c = random_mv(rng), random_mv(rng), random_mv(rng)
        left = (a * b) * c
        right = a * (b * c)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-10)
        d1 = a * (b + c)
        d2 = a * b + a * c
        assert np.allclose(d1.coeffs, d2.coeffs, atol=1e-10)


def test_scalar_multiplication_commutes():
    rng = np.random.default_rng(2203)
    a = random_mv(rng)
    assert close_to(2.5 * a, a * 2.5)
    assert close_to(a * Multivector.from_scalar(2.5), 2.5 * a)


# ---------------------------------------------------------------------------
# reverse and grade

def test_reverse_examples():
    assert close_to(mv(e12=1).reverse(), mv(e12=-1))
    assert close_to(mv(e123=1).reverse(), mv(e123=-1))
    assert close_to(E1.reverse(), E1)
    assert close_to(ONE.reverse(), ONE)


def test_reverse_is_antiautomorphism():
    rng = np.random.default_rng(2204)
    for _ in range(1000):
        a, b = random_mv(rng), random_mv(rng)
        assert np.allclose((a * b).reverse().coeffs, (b.reverse() * a.reverse()).coeffs,
                           atol=1e-10)


def test_reverse_involution():
    rng = np.random.default_rng(2205)
    a = random_mv(rng)
    assert close_to(a.reverse().reverse(), a)


def test_grade_projection():
    a = mv(s=1, e1=2, e12=3, e123=4)
    assert close_to(a.grade(0), mv(s=1))
    assert close_to(a.grade(1), mv(e1=2))
    assert close_to(a.grade(2), mv(e12=3))
    assert close_to(a.grade(3), mv(e123=4))
    total = a.grade(0) + a.grade(1) + a.grade(2) + a.grade(3)
    assert close_to(total, a)


def test_grade_out_of_range():
    with pytest.raises(ValueError):
        ONE.grade(4)
    with pytest.raises(ValueError):
        ONE.grade(-1)


def test_vector_square_is_scalar_norm():
    rng = np.random.default_rng(2206)
    for _ in range(100):
        v = rng.uniform(-3, 3, 3)
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


@pytest.mark.parametrize("scale", [1e-320, 1e-200, 1e200, 1e307])
def test_unit_bivector_from_components_at_extreme_scales(scale):
    # |B| is taken without squaring, so neither overflow nor underflow
    p = UnitBivector.from_components(scale, -2.0 * scale, 2.0 * scale)
    assert np.allclose(p.components, [1 / 3, -2 / 3, 2 / 3], rtol=0.0,
                       atol=1e-15)
    with pytest.raises(ValueError, match="zero bivector"):
        UnitBivector.from_components(0.0, -0.0, 0.0)


def test_unit_bivector_and_rotor_reject_non_finite_components():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            UnitBivector.from_components(bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitBivector(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            rotation_rotor((bad, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        unit_parts(1.0, math.nan, 0.0, 0.0, "rotor")


def test_unit_bivector_normal_roundtrip():
    rng = np.random.default_rng(2207)
    for _ in range(50):
        p = random_plane(rng)
        q = UnitBivector.from_normal(p.normal())
        assert np.allclose(p.components, q.components, atol=1e-12)


def test_unit_bivector_from_normal_neither_overflows_nor_underflows():
    for size in (1e200, 1e-170, 1.0):
        plane = UnitBivector.from_normal([size, size, 0.0])
        assert plane == UnitBivector.from_components(0.0, -size, size)
        assert np.allclose(plane.components, [0.0, -math.sqrt(0.5), math.sqrt(0.5)],
                           rtol=0.0, atol=1e-16)
    with pytest.raises(ValueError, match="plane dual to a zero vector"):
        UnitBivector.from_normal([0.0, -0.0, 0.0])


def test_unit_bivector_from_normal_holds_python_floats():
    for n in (np.array([0.3, -1.2, 2.0]), [1, 2, 2], (0.0, 0.0, -5.0)):
        assert all(type(c) is float for c in UnitBivector.from_normal(n))


def test_unit_bivector_normal_examples():
    assert np.allclose(E12.normal(), [0, 0, 1])
    assert np.allclose(E13.normal(), [0, -1, 0])
    assert np.allclose(E23.normal(), [1, 0, 0])


def test_rotor_validation_and_normalization():
    # a rotor is unit_parts of its four parts, so rotation_rotor and
    # exp_bivector reject a non-unit plane and divide out drift within
    # UNIT_ATOL; beyond it, or NaN, raises.  rotation_matrix, and
    # rotate_outer through it, check a plane by the same rule and do not
    # divide: a plane within UNIT_ATOL is used as given (twice the length
    # gave a matrix of det 7.43)
    with pytest.raises(ValueError, match="rotor magnitude .* is not 1"):
        rotation_rotor((2.0, 0.0, 0.0), 1.0)
    r = unit_parts(1.0 + 1e-12, 0.0, 0.0, 0.0, "rotor")
    assert math.isclose(r[0], 1.0, abs_tol=1e-15)
    parts = (0.5, -0.5, 0.5, 0.5)
    grow = 1.0 + 0.5 * UNIT_ATOL
    drifted = unit_parts(*(grow * x for x in parts), "rotor")
    assert np.allclose(drifted, parts, rtol=0.0, atol=1e-15)
    for bad in (1.0 + 2.0 * UNIT_ATOL, 1.0 - 2.0 * UNIT_ATOL, math.nan):
        with pytest.raises(ValueError, match="magnitude .* is not 1"):
            unit_parts(*(bad * x for x in parts), "rotor")
    # at a quarter turn the plane's length is the rotor's
    want = exp_bivector(E13, math.pi / 2)
    assert np.allclose(exp_bivector((0.0, grow, 0.0), math.pi / 2), want,
                       rtol=0.0, atol=1e-15)
    for bad in (1.0 + 2.0 * UNIT_ATOL, 1.0 - 2.0 * UNIT_ATOL):
        with pytest.raises(ValueError, match="rotor magnitude .* is not 1"):
            exp_bivector((0.0, bad, 0.0), math.pi / 2)
    field = LinearVectorField(np.eye(3))
    for bad in (2.0, 1.0 + 2.0 * UNIT_ATOL, 1.0 - 2.0 * UNIT_ATOL, math.nan):
        for call in (rotation_matrix, lambda p, a: rotate_outer(field, p, a)):
            with pytest.raises(ValueError, match="plane magnitude .* is not 1"):
                call((bad, 0.0, 0.0), 1.0)
    c = math.cos(1.0)
    assert rotation_matrix((0.0, grow, 0.0), 1.0)[1, 1] == c + (1.0 - c) * grow * grow


@pytest.mark.parametrize("cls, names, parts", [
    (UnitBivector, ("b12", "b13", "b23"), (0.6, 0.0, 0.8)),
])
def test_unit_objects_keep_their_dataclass_contract(cls, names, parts):
    # the fields, in order, by position or keyword, frozen, and compared,
    # hashed and printed by value
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    u = cls(*parts)
    assert u == cls(**dict(zip(names, parts))) == cls(
        parts[0], **dict(zip(names[1:], parts[1:])))
    assert tuple(getattr(u, name) for name in names) == parts
    assert hash(u) == hash(cls(*parts)) and len({u, cls(*parts)}) == 1
    assert repr(u) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, parts)) + ")"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(u, names[0], 1.0)
    with pytest.raises(TypeError):
        cls(*parts[:-1])
    # replace builds through the constructor: it renormalises and checks
    flipped = dataclasses.replace(u, **{names[-1]: -parts[-1]})
    assert flipped == cls(*parts[:-1], -parts[-1]) and flipped != u
    with pytest.raises(ValueError, match="is not 1"):
        dataclasses.replace(u, **{names[-1]: 0.0})
    # drift within UNIT_ATOL is divided out; beyond it, or NaN, raises
    grow = 1.0 + 0.5 * UNIT_ATOL
    drifted = cls(*(grow * x for x in parts))
    assert all(math.isclose(getattr(drifted, n), x, rel_tol=0.0, abs_tol=1e-15)
               for n, x in zip(names, parts))
    for bad in (1.0 + 2.0 * UNIT_ATOL, 1.0 - 2.0 * UNIT_ATOL, math.nan):
        with pytest.raises(ValueError, match="magnitude .* is not 1"):
            cls(*(bad * x for x in parts))


def test_exp_bivector_examples():
    # a rotor is the tuple (scalar, b12, b13, b23) of Python floats, which
    # Multivector.from_even puts at the even coefficients
    for r in (exp_bivector(E23, 0.4), rotation_rotor((0.6, 0.0, 0.8), 1.0)):
        assert type(r) is tuple and len(r) == 4
        assert all(type(c) is float for c in r)
        assert close_to(Multivector.from_even(r),
                        mv(s=r[0], e12=r[1], e13=r[2], e23=r[3]), tol=0.0)
    r = Multivector.from_even(exp_bivector(E12, math.pi / 2))
    assert close_to(r, mv(e12=1), tol=1e-15)
    r = Multivector.from_even(exp_bivector(E13, -math.pi / 4))
    scaled = math.sqrt(32.0) * r
    assert close_to(scaled, mv(s=4, e13=-4), tol=1e-12)


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=200, deadline=None)
def test_exp_bivector_adds_angles(a, b):
    p = E23
    lhs = (Multivector.from_even(exp_bivector(p, a))
           * Multivector.from_even(exp_bivector(p, b)))
    rhs = Multivector.from_even(exp_bivector(p, a + b))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# sandwich rotation

def test_sandwich_examples():
    # rotating by pi/2 in the e13 plane sends e1 to e3 and e3 to -e1
    assert close_to(sandwich(E13, math.pi / 2, E1), E3, tol=1e-12)
    assert close_to(sandwich(E13, math.pi / 2, E3), -E1, tol=1e-12)
    assert close_to(sandwich(E13, math.pi / 2, E2), E2, tol=1e-12)
    assert close_to(sandwich(E12, 1.234, E3), E3, tol=1e-12)
    assert close_to(sandwich(E12, math.pi, E1), -E1, tol=1e-12)


def test_sandwich_rejects_non_vectors():
    with pytest.raises(ValueError):
        sandwich(E12, 0.5, mv(s=1, e1=1))


def test_sandwich_against_scipy():
    rng = np.random.default_rng(2208)
    for _ in range(300):
        p = random_plane(rng)
        angle = rng.uniform(-math.pi, math.pi)
        v = rng.uniform(-2, 2, 3)
        got = sandwich(p, angle, Multivector.from_vector(v)).vector
        want = Rotation.from_rotvec(angle * p.normal()).apply(v)
        assert np.allclose(got, want, atol=1e-12)


def test_sandwich_preserves_norm_and_fixes_normal():
    rng = np.random.default_rng(2209)
    for _ in range(200):
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        v = rng.uniform(-2, 2, 3)
        out = sandwich(p, angle, Multivector.from_vector(v)).vector
        assert math.isclose(np.linalg.norm(out), np.linalg.norm(v),
                            rel_tol=0, abs_tol=1e-12)
        n = p.normal()
        fixed = sandwich(p, angle, Multivector.from_vector(n)).vector
        assert np.allclose(fixed, n, atol=1e-12)


def test_rotation_matrix_properties():
    rng = np.random.default_rng(2210)
    for _ in range(100):
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        m = rotation_matrix(p, angle)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(m), 1.0, abs_tol=1e-12)
        want = Rotation.from_rotvec(angle * p.normal()).as_matrix()
        assert np.allclose(m, want, atol=1e-12)


def test_rotation_matrix_is_rodrigues_about_the_normal():
    rng = np.random.default_rng(2211)
    for _ in range(100):
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        x, y, z = p.normal()
        cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        want = (np.eye(3) + math.sin(angle) * cross +
                (1.0 - math.cos(angle)) * cross @ cross)
        assert np.max(np.abs(rotation_matrix(p, angle) - want)) <= 1e-15


def test_rotor_product_against_oracle():
    rng = np.random.default_rng(2215)
    for _ in range(100):
        a, b = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        want = oracle_product(np.r_[a[0], 0, 0, 0, a[1:], 0],
                              np.r_[b[0], 0, 0, 0, b[1:], 0])
        assert np.allclose(rotor_product(a, b), want[[0, 4, 5, 6]], atol=1e-12)
        assert np.allclose(want[[1, 2, 3, 7]], 0.0, atol=1e-12)


def test_rotor_rotation_reads_both_signs_of_a_rotor():
    rng = np.random.default_rng(2216)
    for _ in range(100):
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        r = np.array(rotation_rotor(p, angle))
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
        polar_decompose(Multivector(np.zeros(8)))
    with pytest.raises(ValueError):
        polar_decompose(mv(s=1, e1=0.5))


@pytest.mark.parametrize("k", [-1000, -600, -40, 0, 40, 600, 1000])
def test_polar_rules_are_scale_invariant(k):
    # 2^k scales every norm exactly, so the zero check, the odd-grade check
    # and the reading change by no bit
    scale = 2.0 ** k
    pf = polar_decompose(mv(s=3.0, e12=4.0) * scale)
    assert pf.angle == math.atan2(4.0, 3.0)
    assert pf.plane == E12
    assert pf.magnitude == 5.0 * scale
    with pytest.raises(ValueError, match="odd-grade"):
        polar_decompose(mv(s=scale, e1=scale))


def test_polar_of_tiny_and_small_values():
    pf = polar_decompose(mv(s=1e-200, e12=1e-200))
    assert math.isclose(pf.angle, math.pi / 4, rel_tol=1e-15)
    assert pf.plane == E12
    assert math.isclose(pf.magnitude, math.sqrt(2.0) * 1e-200, rel_tol=1e-15)
    # an odd part as large as the even part is rejected at any size
    with pytest.raises(ValueError, match="odd-grade"):
        polar_decompose(mv(s=1e-10, e1=1e-10))


def test_polar_zero_bivector_fallback_threshold():
    # bivector below the relative tolerance collapses onto the scalar axis
    pf = polar_decompose(mv(s=5.0, e23=1e-13))
    assert pf.angle == 0.0
    assert np.allclose(pf.plane.components, E12.components)


# (sc, biv, angle, plane, real_valued): the one polar read.  The zero
# threshold is ZERO_BIVECTOR_RTOL * |sc| at every scale, so both sides of it
# are probed at |sc| = 5 and |sc| = 0.5, and the generic row is repeated at
# 2^-60 (below the old absolute floor of 1e-12) and 2^600 (where squaring
# the components overflows).
RTOL = ZERO_BIVECTOR_RTOL
ARGUMENT_TABLE = [
    (2.0, (0.0, 0.0, 0.0), 0.0, (1.0, 0.0, 0.0), True),
    (-2.0, (0.0, 0.0, 0.0), math.pi, (1.0, 0.0, 0.0), True),
    (5.0, (0.0, 0.0, 0.99 * RTOL * 5.0), 0.0, (1.0, 0.0, 0.0), True),
    (-5.0, (0.0, 0.99 * RTOL * 5.0, 0.0), math.pi, (1.0, 0.0, 0.0), True),
    (0.5, (0.99 * RTOL * 0.5, 0.0, 0.0), 0.0, (1.0, 0.0, 0.0), True),
    (5.0, (0.0, 0.0, 1.01 * RTOL * 5.0), math.atan2(1.01 * RTOL * 5.0, 5.0),
     (0.0, 0.0, 1.0), False),
    (1.0, (3.0, -4.0, 12.0), math.atan2(13.0, 1.0),
     (3.0 / 13.0, -4.0 / 13.0, 12.0 / 13.0), False),
    (-1.0, (0.0, 2.0, 0.0), math.atan2(2.0, -1.0), (0.0, 1.0, 0.0), False),
    (0.0, (0.0, 0.0, -0.5), math.pi / 2, (0.0, 0.0, -1.0), False),
    (0.5, (1.01 * RTOL * 0.5, 0.0, 0.0), math.atan2(1.01 * RTOL * 0.5, 0.5),
     (1.0, 0.0, 0.0), False),
    (2.0 ** -60, (3.0 * 2.0 ** -60, -4.0 * 2.0 ** -60, 12.0 * 2.0 ** -60),
     math.atan2(13.0, 1.0), (3.0 / 13.0, -4.0 / 13.0, 12.0 / 13.0), False),
    (2.0 ** 600, (3.0 * 2.0 ** 600, -4.0 * 2.0 ** 600, 12.0 * 2.0 ** 600),
     math.atan2(13.0, 1.0), (3.0 / 13.0, -4.0 / 13.0, 12.0 / 13.0), False),
]


@pytest.mark.parametrize("sc, biv, angle, plane, real_valued", ARGUMENT_TABLE)
def test_argument_table(sc, biv, angle, plane, real_valued):
    got_angle, got_plane, got_real = argument(sc, biv)
    assert got_real is real_valued
    assert math.isclose(got_angle, angle, rel_tol=1e-15, abs_tol=0.0)
    assert np.allclose(got_plane.components, plane, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("sc, biv", [
    (math.nan, (0.0, 0.0, 0.0)), (1.0, (0.0, math.nan, 0.0)),
    (math.inf, (1.0, 0.0, 0.0)), (-math.inf, (0.0, 0.0, 0.0)),
    (1.0, (0.0, 0.0, -math.inf)), (math.nan, (math.inf, 0.0, 0.0))])
def test_polar_reads_reject_non_finite_values(sc, biv):
    # a NaN scalar over a zero bivector fails the real-fold test and would
    # divide by |B| = 0; an infinite scalar would read as a real value
    with pytest.raises(ValueError, match="argument of a non-finite value"):
        argument(sc, biv)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="argument of a non-finite value"):
        polar_decompose(mv(s=sc, e12=biv[0], e13=biv[1], e23=biv[2]))
    with pytest.raises(ValueError, match="argument of a non-finite value"):
        rotor_rotation((sc, *biv))


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


def compose(alpha, p, phi, q):
    """Rotate by alpha in p, then by phi in q: the rotors' product, folded
    to an angle in [0, pi] and a plane by rotor_rotation."""
    return rotor_rotation(rotor_product(rotation_rotor(q, phi),
                                        rotation_rotor(p, alpha)))


@pytest.mark.parametrize("alpha, p, phi, q, beta, plane, tol", [
    (math.pi / 2, E12, math.pi / 2, E12, math.pi, E12.components, 1e-12),
    (math.pi / 2, E12, math.pi / 2, E13, 2 * math.pi / 3,
     np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0), 1e-12),
    (0.3, E23, 0.4, E23, 0.7, E23.components, 1e-12),
    # raw composed angle 3pi/2 folds back to pi/2 with the plane flipped
    (3 * math.pi / 4, E12, 3 * math.pi / 4, E12, math.pi / 2, -E12.components,
     1e-12),
    # a full turn cancels, and leaves no plane to check
    (math.pi, E13, math.pi, E13, 0.0, None, 1e-9),
], ids=["half-turn", "two-planes", "same-plane-adds", "clamped-to-pi",
        "full-turn-cancels"])
def test_compose_examples(alpha, p, phi, q, beta, plane, tol):
    got_beta, got_plane = compose(alpha, p, phi, q)
    assert math.isclose(got_beta, beta, abs_tol=tol)
    if plane is not None:
        assert np.allclose(got_plane.components, plane, atol=1e-12)


def test_compose_identity_factor_exact():
    # a zero step's rotor is (1, -0, -0, -0): multiplying by it, on either
    # side, leaves a rotor unchanged to the bit
    rng = np.random.default_rng(2217)
    p = random_plane(rng)
    r = rotation_rotor(p, 0.7)
    zero = rotation_rotor(E12, 0.0)
    assert rotor_product(zero, r) == r
    assert rotor_product(r, zero) == r
    for beta, plane in (compose(0.7, p, 0.0, E12), compose(0.0, E12, 0.7, p)):
        assert math.isclose(beta, 0.7, rel_tol=1e-15)
        assert np.allclose(plane.components, p.components, rtol=0.0, atol=1e-15)


def test_compose_against_scipy():
    rng = np.random.default_rng(2218)
    for _ in range(300):
        p, q = random_plane(rng), random_plane(rng)
        alpha = rng.uniform(0, math.pi)
        phi = rng.uniform(0, math.pi)
        beta, plane = compose(alpha, p, phi, q)
        want_angle, want_plane = _compose_oracle(alpha, p, phi, q)
        assert math.isclose(beta, want_angle, abs_tol=1e-9)
        if want_plane is not None and want_angle > 1e-6:
            assert np.allclose(plane.components, want_plane.components, atol=1e-6)


# ---------------------------------------------------------------------------
# misc surface

def test_str_formatting():
    assert str(mv(s=4, e13=-4)) == "4 - 4 e13"
    assert str(Multivector(np.zeros(8))) == "0"
    assert str(mv(e12=1)) == "e12"


def test_multivector_immutable():
    rng = np.random.default_rng(2219)
    a = random_mv(rng)
    with pytest.raises(AttributeError):
        a.coeffs = np.zeros(8)
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


def test_multivector_copies_a_writable_input():
    source = np.arange(8.0)
    a = Multivector(source)
    assert not np.shares_memory(a.coeffs, source)
    source[0] = 5.0
    assert a.coeffs[0] == 0.0
    assert not a.coeffs.flags.writeable
    # a read-only input is copied too, so the input's flags never change
    frozen = np.arange(8.0)
    frozen.flags.writeable = False
    b = Multivector(frozen)
    assert not np.shares_memory(b.coeffs, frozen)
    with pytest.raises(ValueError, match="expected 8 coefficients"):
        Multivector(np.zeros(7))
