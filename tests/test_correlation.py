"""Correlation tests: fixed worked values, the structural identities behind
the angle estimate, and closed-form versus quadrature agreement."""

import math

import numpy as np
import pytest

from rotalign.ga3 import (
    E12, E13, Multivector, UnitBivector, exp_bivector, polar_decompose,
)
from rotalign.ga3 import rotation_matrix
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, UNIT_BOX, cross_moment,
    decompose, evaluate, l2_norm, normalize, rotate_outer, sample, scale,
)
from rotalign.correlation import (
    correlate_at_origin, normalized_correlation, quadrature_correlate,
)

from conftest import midpoint_correlate, midpoint_moment

RNG = np.random.default_rng(4242)


def mv(**kw):
    names = ["s", "e1", "e2", "e3", "e12", "e13", "e23", "e123"]
    c = np.zeros(8)
    for k, v in kw.items():
        c[names.index(k)] = v
    return Multivector(c)


def two_halves(right, left):
    return PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), right),
        (Box((-1, -1, -1), (0, 1, 1)), left),
    ))


def random_plane():
    v = RNG.standard_normal(3)
    return UnitBivector.from_components(*(v / np.linalg.norm(v)))


def random_linear():
    return LinearVectorField(RNG.uniform(-1, 1, (3, 3)))


FIELD_A = two_halves((1.0, 0, 0), (0, 1.0, 0))          # e1 | e2
FIELD_B = two_halves((1.0, 1.0, 0), (0, 1.0, 0))        # e1+e2 | e2


# ---------------------------------------------------------------------------
# fixed worked values

def test_rotated_halves_correlation_value():
    rotated = rotate_outer(FIELD_A, E13, math.pi / 2)
    cor = correlate_at_origin(rotated, FIELD_A)
    assert cor.close_to(mv(s=4, e13=-4), tol=1e-12)


def test_self_correlation_is_squared_norm():
    cor = correlate_at_origin(FIELD_A, FIELD_A)
    assert cor.close_to(mv(s=8), tol=1e-12)


def test_second_pair_correlation_both_orders():
    rotated = rotate_outer(FIELD_B, E13, math.pi / 2)
    cor = correlate_at_origin(rotated, FIELD_B)
    assert cor.close_to(mv(s=8, e12=-4, e13=-4, e23=-4), tol=1e-12)
    # swapping the arguments conjugates the result
    cor_rev = correlate_at_origin(FIELD_B, rotated)
    assert cor_rev.close_to(mv(s=8, e12=4, e13=4, e23=4), tol=1e-12)

    pf = polar_decompose(cor)
    assert math.isclose(pf.angle, math.atan(math.sqrt(3) / 2), abs_tol=1e-12)
    want = -np.ones(3) / math.sqrt(3)
    assert np.allclose(pf.plane.components, want, atol=1e-12)


def test_normalized_rotated_halves():
    rotated = rotate_outer(FIELD_A, E13, math.pi / 2)
    res = normalized_correlation(rotated, FIELD_A)
    assert res.normalized.close_to(mv(s=0.5, e13=-0.5), tol=1e-12)
    assert math.isclose(res.polar.angle, math.pi / 4, abs_tol=1e-12)
    assert np.allclose(res.polar.plane.components, -E13.components, atol=1e-12)
    assert math.isclose(res.polar.magnitude, 1 / math.sqrt(2), abs_tol=1e-12)


def test_normalized_self_correlation():
    res = normalized_correlation(FIELD_A, FIELD_A)
    assert res.normalized.close_to(mv(s=1), tol=1e-12)
    assert res.polar.angle == 0.0
    assert math.isclose(res.polar.magnitude, 1.0, abs_tol=1e-12)


def test_normalized_rejects_zero_field():
    with pytest.raises(ValueError):
        normalized_correlation(scale(FIELD_A, 0.0), FIELD_A)


def test_orthogonal_pair_has_no_polar_form():
    # half-turn in e13 negates the e1 cell: the correlation cancels exactly
    rotated = rotate_outer(FIELD_A, E13, math.pi)
    assert correlate_at_origin(rotated, FIELD_A).close_to(mv(), tol=1e-12)
    with pytest.raises(ValueError):
        normalized_correlation(rotated, FIELD_A)


def test_disjoint_supports_correlate_to_zero():
    far = PiecewiseConstantField(((Box((10, 10, 10), (11, 11, 11)), (1.0, 0, 0)),))
    assert correlate_at_origin(far, FIELD_A).close_to(mv(), tol=0.0)


# ---------------------------------------------------------------------------
# structural properties

def test_argument_swap_conjugates():
    pairs = [
        (random_linear(), random_linear()),
        (FIELD_B, random_linear()),
        (FIELD_A, FIELD_B),
    ]
    for a, b in pairs:
        ab = correlate_at_origin(a, b)
        ba = correlate_at_origin(b, a)
        assert ab.close_to(ba.reverse(), tol=1e-12)


def test_bilinearity():
    a, b, c = random_linear(), random_linear(), random_linear()
    lhs = correlate_at_origin(a, LinearVectorField(b.matrix + 2.0 * c.matrix))
    rhs = correlate_at_origin(a, b) + 2.0 * correlate_at_origin(a, c)
    assert lhs.close_to(rhs, tol=1e-12)


def test_rotation_argument_identity():
    # the angle halves: correlating R(v) against v reads e^{-alpha P} through
    # the parallel energy
    for _ in range(200):
        v = normalize(random_linear())
        p = random_plane()
        alpha = RNG.uniform(0, math.pi)
        u = rotate_outer(v, p, alpha)
        cor = normalized_correlation(u, v).normalized

        d = decompose(v, p)
        r = l2_norm(d.parallel) ** 2
        w = correlate_at_origin(d.parallel, d.perpendicular)
        assert abs(w.scalar) < 1e-12  # pointwise orthogonal parts

        exp_neg = exp_bivector(p, -alpha).as_multivector()
        expected = r * exp_neg + (exp_neg - 1.0) * w + \
            Multivector.from_scalar(1.0 - r)
        assert cor.close_to(expected, tol=1e-10), (cor, expected)


def test_mixed_term_cauchy_schwarz():
    for _ in range(200):
        v = random_linear()
        p = random_plane()
        d = decompose(v, p)
        w = correlate_at_origin(d.parallel, d.perpendicular)
        bound = l2_norm(d.parallel) * l2_norm(d.perpendicular)
        assert w.norm() <= bound + 1e-10


def test_planar_field_correlation_is_unit_rotor():
    # no perpendicular energy: the normalized correlation is exactly
    # e^{-alpha e12} and the full angle is read in one step
    m = RNG.uniform(-1, 1, (3, 3))
    m[2, :] = 0.0
    v = normalize(LinearVectorField(m))
    alpha = 0.9
    u = rotate_outer(v, E12, alpha)
    res = normalized_correlation(u, v)
    assert math.isclose(res.polar.magnitude, 1.0, abs_tol=1e-12)
    assert math.isclose(res.polar.angle, alpha, abs_tol=1e-12)
    assert np.allclose(res.polar.plane.components, -E12.components, atol=1e-12)


# ---------------------------------------------------------------------------
# closed form versus quadrature

def test_closed_form_matches_package_quadrature_linear():
    for _ in range(10):
        a, b = random_linear(), random_linear()
        exact = correlate_at_origin(a, b)
        quad = quadrature_correlate(a, b, resolution=64)
        assert np.allclose(exact.coeffs, quad.coeffs,
                           atol=1e-3 * max(1.0, exact.norm()))


def test_closed_form_matches_package_quadrature_piecewise():
    # cell boundaries sit on grid lines, so the midpoint rule is exact here
    rotated = rotate_outer(FIELD_B, E13, math.pi / 2)
    exact = correlate_at_origin(rotated, FIELD_B)
    quad = quadrature_correlate(rotated, FIELD_B, resolution=256)
    assert np.allclose(exact.coeffs, quad.coeffs, atol=1e-6)


def test_mixed_pair_closed_form():
    lin = LinearVectorField(np.eye(3))
    exact = correlate_at_origin(FIELD_A, lin)
    quad = quadrature_correlate(FIELD_A, lin, resolution=16)
    assert np.allclose(exact.coeffs, quad.coeffs, atol=1e-12)
    exact_rev = correlate_at_origin(lin, FIELD_A)
    assert exact_rev.close_to(exact.reverse(), tol=1e-12)


def test_package_quadrature_matches_independent_oracle():
    from rotalign.fields import evaluate
    a, b = random_linear(), random_linear()
    got = quadrature_correlate(a, b, box=UNIT_BOX, resolution=6)
    want = midpoint_correlate(lambda y: evaluate(a, y), lambda y: evaluate(b, y),
                              (-1, -1, -1), (1, 1, 1), (6, 6, 6))
    assert np.allclose(got.coeffs, want, atol=1e-12)


# ---------------------------------------------------------------------------
# sampled fields

def test_sampled_pair_matches_analytic():
    a, b = random_linear(), random_linear()
    sa = sample(a, UNIT_BOX, (32, 32, 32))
    sb = sample(b, UNIT_BOX, (32, 32, 32))
    exact = correlate_at_origin(a, b)
    approx = correlate_at_origin(sa, sb)
    assert np.allclose(exact.coeffs, approx.coeffs,
                       atol=5e-3 * max(1.0, exact.norm()))


def test_sampled_grid_mismatch_raises():
    a = sample(random_linear(), UNIT_BOX, (8, 8, 8))
    b = sample(random_linear(), UNIT_BOX, (8, 8, 9))
    with pytest.raises(ValueError):
        correlate_at_origin(a, b)
    c = sample(random_linear(), Box((-2, -1, -1), (1, 1, 1)), (8, 8, 8))
    with pytest.raises(ValueError):
        correlate_at_origin(a, c)


def test_sampled_against_exact_field_uses_sampling_grid():
    a = random_linear()
    sa = sample(a, UNIT_BOX, (16, 16, 16))
    lhs = correlate_at_origin(sa, a)
    rhs = correlate_at_origin(sa, sa)
    # evaluating the analytic field on the same centers gives the same sums
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# the cross moment behind every correlation

def moment_kinds():
    """One field of each kind on the unit box.  The piecewise cells and the
    grid line up with a 4^3 midpoint grid, on which the midpoint rule is
    exact for every pair except linear times linear."""
    pw = PiecewiseConstantField((
        (Box((0.0, -1.0, -1.0), (1.0, 1.0, 1.0)), RNG.uniform(-1, 1, 3)),
        (Box((-1.0, -1.0, -1.0), (0.0, 0.5, 1.0)), RNG.uniform(-1, 1, 3)),
        (Box((-0.5, 0.5, -1.0), (0.0, 1.0, 0.5)), RNG.uniform(-1, 1, 3)),
    ))
    grid = sample(random_linear(), UNIT_BOX, (4, 4, 4))
    return {"linear": random_linear(), "piecewise": pw, "grid": grid}


@pytest.mark.parametrize("kind_a", ["linear", "piecewise", "grid"])
@pytest.mark.parametrize("kind_b", ["linear", "piecewise", "grid"])
def test_cross_moment_matches_midpoint_oracle(kind_a, kind_b):
    fields = moment_kinds()
    a, b = fields[kind_a], fields[kind_b]
    want = midpoint_moment(lambda y: evaluate(a, y), lambda y: evaluate(b, y),
                           (-1, -1, -1), (1, 1, 1), (4, 4, 4))
    if kind_a == kind_b == "linear":
        want += midpoint_linear_shortfall(a, b, 8.0, (0.5, 0.5, 0.5))
    assert np.allclose(cross_moment(a, b), want, rtol=0.0, atol=1e-12)


def midpoint_linear_shortfall(a, b, volume, h):
    """What the midpoint rule misses on a linear pair over grid-aligned
    cells: only x_i^2 is not linear per cell, and it falls short by the
    variance h_i^2 / 12 of x_i over a cell."""
    return a.matrix @ np.diag(volume * np.asarray(h) ** 2 / 12.0) @ b.matrix.T


def test_cross_moment_of_partly_overlapping_linear_boxes():
    a = random_linear()
    b = LinearVectorField(RNG.uniform(-1, 1, (3, 3)),
                          Box((-0.5, -1.0, 0.0), (1.5, 0.5, 1.0)))
    # the overlap [-0.5, 1) x [-1, 0.5) x [0, 1) lies on the grid lines
    want = midpoint_moment(lambda y: evaluate(a, y), lambda y: evaluate(b, y),
                           (-1.0, -1.0, -1.0), (1.5, 1.0, 1.0), (10, 8, 8))
    want += midpoint_linear_shortfall(a, b, 2.25, (0.25, 0.25, 0.25))
    assert np.allclose(cross_moment(a, b), want, rtol=0.0, atol=1e-12)
    far = LinearVectorField(np.eye(3), Box((1, 1, 1), (2, 2, 2)))
    assert not np.any(cross_moment(a, far))


@pytest.mark.parametrize("kind_a", ["linear", "piecewise", "grid"])
@pytest.mark.parametrize("kind_b", ["linear", "piecewise", "grid"])
def test_cross_moment_is_rotation_equivariant(kind_a, kind_b):
    fields = moment_kinds()
    u, v = fields[kind_a], fields[kind_b]
    for _ in range(5):
        p, angle = random_plane(), RNG.uniform(0, math.pi)
        lhs = cross_moment(rotate_outer(u, p, angle), v)
        rhs = rotation_matrix(p, angle) @ cross_moment(u, v)
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)
