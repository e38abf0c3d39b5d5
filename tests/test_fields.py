"""Field representation tests: evaluation, moments, rotation, decomposition
and the JSON document format."""

import math

import numpy as np
import pytest

from rotalign.ga3 import E12, E13, E23, UnitBivector, rotation_matrix
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, UNIT_BOX,
    decompose, evaluate, evaluate_many, from_dict, l2_norm, load_field,
    normalize, plane_projection_matrix, rotate_outer, sample, save_field,
    scale, support, to_dict,
)
from rotalign.correlation import cross_moment

RNG = np.random.default_rng(77)


def two_halves_field():
    """e1 on the right half of the standard box, e2 on the left."""
    return PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), (1.0, 0.0, 0.0)),
        (Box((-1, -1, -1), (0, 1, 1)), (0.0, 1.0, 0.0)),
    ))


def random_plane():
    v = RNG.standard_normal(3)
    return UnitBivector.from_components(*(v / np.linalg.norm(v)))


def random_linear():
    return LinearVectorField(RNG.uniform(-1, 1, (3, 3)))


# ---------------------------------------------------------------------------
# boxes

def test_box_validation():
    with pytest.raises(ValueError):
        Box((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        Box((0, 0), (1, 1))


def test_box_membership_half_open():
    b = Box((0, -1, -1), (1, 1, 1))
    assert b.contains((0.0, 0.0, 0.0))
    assert not b.contains((1.0, 0.0, 0.0))
    assert b.contains((0.999999, -1.0, -1.0))


def test_box_intersection():
    a = Box((0, 0, 0), (2, 2, 2))
    b = Box((1, 1, 1), (3, 3, 3))
    c = a.intersect(b)
    assert c.low == (1, 1, 1) and c.high == (2, 2, 2)
    # touching faces do not intersect
    assert a.intersect(Box((2, 0, 0), (3, 2, 2))) is None


def test_box_moments():
    x = UNIT_BOX.second_moment_matrix()
    assert np.allclose(x, (8.0 / 3.0) * np.eye(3), atol=1e-12)
    b = Box((0, 0, 0), (1, 2, 3))
    # diag entries: int x^2 * area of the other two axes
    assert math.isclose(b.second_moment_matrix()[0, 0], (1 / 3) * 6, abs_tol=1e-12)
    assert math.isclose(b.second_moment_matrix()[0, 1], 0.5 * 2.0 * 3.0, abs_tol=1e-12)
    assert np.allclose(b.first_moment(), [0.5 * 6, 1.0 * 6, 1.5 * 6], atol=1e-12)


# ---------------------------------------------------------------------------
# evaluation

def test_two_halves_evaluation():
    f = two_halves_field()
    assert np.allclose(evaluate(f, (0.5, 0.0, 0.0)), [1, 0, 0])
    assert np.allclose(evaluate(f, (-0.5, 0.0, 0.0)), [0, 1, 0])
    assert np.allclose(evaluate(f, (0.0, 0.0, 0.0)), [1, 0, 0])  # boundary
    assert np.allclose(evaluate(f, (1.5, 0.0, 0.0)), [0, 0, 0])


def test_linear_evaluation():
    f = LinearVectorField(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(evaluate(f, (0.5, 0.5, 0.5)), [0.5, 1.0, 1.5])
    assert np.allclose(evaluate(f, (2.0, 0.0, 0.0)), [0, 0, 0])


def test_sampled_evaluation_picks_containing_cell():
    f = sample(LinearVectorField(np.eye(3)), UNIT_BOX, (4, 4, 4))
    # cell containing the origin is [0, 0.5)^3 with center 0.25
    assert np.allclose(evaluate(f, (0.1, 0.1, 0.1)), [0.25, 0.25, 0.25])
    assert np.allclose(evaluate(f, (5.0, 0.0, 0.0)), [0, 0, 0])


def test_evaluate_many_matches_pointwise():
    pts = RNG.uniform(-1.5, 1.5, (200, 3))
    for field in (random_linear(), two_halves_field(),
                  sample(random_linear(), UNIT_BOX, (8, 8, 8))):
        batch = evaluate_many(field, pts)
        single = np.array([evaluate(field, p) for p in pts])
        assert np.allclose(batch, single, atol=1e-14)


def test_overlapping_cells_rejected():
    with pytest.raises(ValueError):
        PiecewiseConstantField((
            (Box((0, 0, 0), (2, 2, 2)), (1.0, 0, 0)),
            (Box((1, 1, 1), (3, 3, 3)), (0, 1.0, 0)),
        ))


def first_overlap_by_loop(boxes):
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i].intersect(boxes[j]) is not None:
                return i, j
    return None


def test_overlap_check_names_the_first_pair_the_loop_finds():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(200):
        lows = rng.integers(0, 6, (6, 3)).astype(float)
        boxes = [Box(tuple(lo), tuple(lo + rng.integers(1, 3, 3)))
                 for lo in lows]
        cells = tuple((box, (1.0, 0.0, 0.0)) for box in boxes)
        first = first_overlap_by_loop(boxes)
        seen.add(first is None)
        if first is None:
            PiecewiseConstantField(cells)
        else:
            with pytest.raises(ValueError,
                               match=f"^cells {first[0]} and {first[1]} overlap$"):
                PiecewiseConstantField(cells)
    assert seen == {True, False}


def test_cells_touching_at_a_face_edge_or_corner_are_disjoint():
    corners = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)]
    f = PiecewiseConstantField(tuple(
        (Box(c, tuple(x + 1 for x in c)), (1.0, 0.0, 0.0)) for c in corners))
    assert len(f.cells) == 5


# ---------------------------------------------------------------------------
# norms

def test_two_halves_norm():
    assert math.isclose(l2_norm(two_halves_field()), math.sqrt(8.0), abs_tol=1e-12)


def test_identity_linear_norm():
    assert math.isclose(l2_norm(LinearVectorField(np.eye(3))),
                        math.sqrt(8.0), abs_tol=1e-12)


def test_linear_norm_against_quadrature():
    f = random_linear()
    g = sample(f, UNIT_BOX, (64, 64, 64))
    assert math.isclose(l2_norm(f), l2_norm(g), rel_tol=1e-3)


def midpoint_self_moment(field, box, resolution):
    """Midpoint-rule sum of v v^T over a grid on box, one cell at a time."""
    low = box.low_array
    h = (box.high_array - low) / np.array(resolution)
    total = np.zeros((3, 3))
    for i in range(resolution[0]):
        for j in range(resolution[1]):
            for k in range(resolution[2]):
                v = evaluate(field, low + (np.array([i, j, k]) + 0.5) * h)
                total += np.outer(v, v)
    return total * float(np.prod(h))


def test_self_moment_of_linear_field_against_midpoint_sum():
    f = LinearVectorField(RNG.uniform(-1, 1, (3, 3)),
                          Box((-1.0, -0.5, 0.0), (0.5, 1.0, 2.0)))
    s = cross_moment(f, f)
    assert math.isclose(np.trace(s), l2_norm(f) ** 2, rel_tol=1e-12)
    # the midpoint rule is off by O(h^2) on a quadratic integrand
    want = midpoint_self_moment(f, f.box, (24, 24, 24))
    assert np.max(np.abs(s - want)) <= 1e-3 * np.trace(s)


def test_self_moment_of_piecewise_field_against_midpoint_sum():
    f = PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), RNG.uniform(-1, 1, 3)),
        (Box((-1, -1, -1), (0, 1, 0)), RNG.uniform(-1, 1, 3)),
    ))
    s = cross_moment(f, f)
    assert math.isclose(np.trace(s), l2_norm(f) ** 2, rel_tol=1e-12)
    # cells aligned with the grid make the sum exact
    want = midpoint_self_moment(f, UNIT_BOX, (4, 4, 4))
    assert np.allclose(s, want, rtol=0.0, atol=1e-12)


def test_self_moment_of_sampled_field_against_midpoint_sum():
    box = Box((-1.0, 0.0, -0.5), (1.0, 1.5, 0.5))
    g = sample(random_linear(), box, (4, 5, 6))
    s = cross_moment(g, g)
    assert math.isclose(np.trace(s), l2_norm(g) ** 2, rel_tol=1e-12)
    want = midpoint_self_moment(g, box, (4, 5, 6))
    assert np.allclose(s, want, rtol=0.0, atol=1e-12)


def test_normalize():
    f = normalize(two_halves_field())
    assert math.isclose(l2_norm(f), 1.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        normalize(scale(two_halves_field(), 0.0))


# ---------------------------------------------------------------------------
# outer rotation

def test_rotate_two_halves_example():
    # quarter turn in e13 sends the e1 cell value to e3
    r = rotate_outer(two_halves_field(), E13, math.pi / 2)
    assert np.allclose(evaluate(r, (0.5, 0.0, 0.0)), [0, 0, 1], atol=1e-12)
    assert np.allclose(evaluate(r, (-0.5, 0.0, 0.0)), [0, 1, 0], atol=1e-12)


def test_rotate_preserves_support_and_norm():
    for field in (random_linear(), two_halves_field(),
                  sample(random_linear(), UNIT_BOX, (8, 8, 8))):
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        r = rotate_outer(field, p, angle)
        assert support(r) == support(field)
        assert math.isclose(l2_norm(r), l2_norm(field), rel_tol=1e-12)


def test_rotate_roundtrip():
    for _ in range(20):
        f = random_linear()
        p = random_plane()
        angle = RNG.uniform(0, math.pi)
        back = rotate_outer(rotate_outer(f, p, angle), -p, angle)
        assert np.allclose(back.matrix, f.matrix, atol=1e-12)


def test_rotate_rejects_bad_angle():
    with pytest.raises(ValueError):
        rotate_outer(two_halves_field(), E12, -0.5)
    with pytest.raises(ValueError):
        rotate_outer(two_halves_field(), E12, 4.0)


def test_rotate_linear_is_matrix_product():
    f = random_linear()
    p = random_plane()
    angle = 0.9
    assert np.allclose(rotate_outer(f, p, angle).matrix,
                       rotation_matrix(p, angle) @ f.matrix, atol=1e-14)


# ---------------------------------------------------------------------------
# plane decomposition

def test_projection_matrix_matches_normal_form():
    for _ in range(50):
        p = random_plane()
        n = p.normal()
        assert np.allclose(plane_projection_matrix(p),
                           np.eye(3) - np.outer(n, n), atol=1e-12)


def test_decompose_examples():
    const_e3 = PiecewiseConstantField(((UNIT_BOX, (0.0, 0.0, 1.0)),))
    d = decompose(const_e3, E12)
    assert math.isclose(l2_norm(d.parallel), 0.0, abs_tol=1e-12)
    assert np.allclose(evaluate(d.perpendicular, (0, 0, 0)), [0, 0, 1], atol=1e-12)

    const_e1 = PiecewiseConstantField(((UNIT_BOX, (1.0, 0.0, 0.0)),))
    d = decompose(const_e1, E12)
    assert np.allclose(evaluate(d.parallel, (0, 0, 0)), [1, 0, 0], atol=1e-12)
    assert math.isclose(l2_norm(d.perpendicular), 0.0, abs_tol=1e-12)


def test_decompose_pythagoras():
    for _ in range(50):
        f = random_linear()
        p = random_plane()
        d = decompose(f, p)
        assert math.isclose(l2_norm(f) ** 2,
                            l2_norm(d.parallel) ** 2 + l2_norm(d.perpendicular) ** 2,
                            rel_tol=1e-10)


def test_decompose_parts_recombine():
    f = random_linear()
    p = random_plane()
    d = decompose(f, p)
    assert np.allclose(d.parallel.matrix + d.perpendicular.matrix, f.matrix,
                       atol=1e-12)


def test_rotation_fixes_perpendicular_part():
    # rotating in the plane leaves the normal component untouched
    f = random_linear()
    p = random_plane()
    d = decompose(f, p)
    r = rotate_outer(d.perpendicular, p, 1.1)
    assert np.allclose(r.matrix, d.perpendicular.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# document format

def test_json_roundtrip_all_kinds(tmp_path):
    fields = [
        random_linear(),
        two_halves_field(),
        sample(random_linear(), UNIT_BOX, (4, 4, 4)),
    ]
    for i, f in enumerate(fields):
        path = tmp_path / f"field_{i}.json"
        save_field(f, path)
        g = load_field(path)
        assert type(g) is type(f)
        pts = RNG.uniform(-1, 1, (50, 3))
        assert np.allclose(evaluate_many(f, pts), evaluate_many(g, pts),
                           atol=1e-15)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        from_dict({"linear": {}, "grid": {}})
    with pytest.raises(ValueError):
        from_dict({"spline": {}})
    with pytest.raises((ValueError, KeyError)):
        from_dict({"linear": {"matrix": [[1, 2], [3, 4]]}})


def test_to_dict_shapes():
    d = to_dict(two_halves_field())
    assert set(d) == {"piecewise"}
    assert len(d["piecewise"]) == 2
    assert d["piecewise"][0]["vector"] == [1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# sampling

def test_sample_matches_source_at_centers():
    f = random_linear()
    g = sample(f, UNIT_BOX, (6, 6, 6))
    centers = g.cell_centers()
    assert np.allclose(g.data, evaluate_many(f, centers), atol=1e-14)


def test_sampled_rotation_consistent_with_source():
    f = random_linear()
    p = random_plane()
    angle = 0.77
    a = sample(rotate_outer(f, p, angle), UNIT_BOX, (5, 5, 5))
    b = rotate_outer(sample(f, UNIT_BOX, (5, 5, 5)), p, angle)
    assert np.allclose(a.data, b.data, atol=1e-12)
