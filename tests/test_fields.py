"""Field representation tests: evaluation, moments, rotation, decomposition
and the JSON document format."""

import math

import numpy as np
import pytest

from rotalign.ga3 import (
    E12, E13, E23, Multivector, UnitBivector, rotation_matrix,
)
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, UNIT_BOX,
    cross_moment, decompose, evaluate, evaluate_many, from_dict, l2_norm,
    load_field, normalize, overlap_volumes, plane_projection_matrix,
    rotate_outer, sample, save_field, scale, support, to_dict,
)

from rotalign.detector import DetectionConfig, detect
from rotalign.experiments import draw_trial, run_trial

from conftest import jittered_split, midpoint_linear_shortfall, midpoint_moment

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


def piecewise_on(low, high, values):
    return PiecewiseConstantField(tuple(
        (Box(tuple(lo), tuple(hi)), v) for lo, hi, v in zip(low, high, values)))


def overlap_matrix_moment(a, b):
    """cross_moment of two piecewise fields through the full cell-overlap
    matrix, Va^T W Vb, whatever their cells."""
    return a.values.T @ overlap_volumes(a.low, a.high, b.low, b.high) @ b.values


# ---------------------------------------------------------------------------
# boxes

def test_box_validation():
    with pytest.raises(ValueError):
        Box((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        Box((0, 0), (1, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_rejects_non_finite_corners(bad):
    with pytest.raises(ValueError, match="box corners must be finite"):
        Box((0.0, bad, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="box corners must be finite"):
        Box((0.0, 0.0, 0.0), (1.0, 1.0, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fields_reject_non_finite_values(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(ValueError, match="matrix values must be finite"):
        LinearVectorField(matrix)
    with pytest.raises(ValueError, match="^cell 1 value must be finite$"):
        PiecewiseConstantField((
            (Box((0, 0, 0), (1, 1, 1)), (1.0, 0.0, 0.0)),
            (Box((1, 0, 0), (2, 1, 1)), (0.0, bad, 0.0)),
        ))
    data = np.ones((8, 3))
    data[5, 0] = bad
    with pytest.raises(ValueError, match="data values must be finite"):
        SampledField(UNIT_BOX, (2, 2, 2), data)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_dict_rejects_non_finite_values(bad):
    box = {"low": [0, 0, 0], "high": [1, 1, 1]}
    docs = {
        "matrix values": {"linear": {"matrix": [[1, 0, 0], [0, bad, 0], [0, 0, 1]],
                                     "box": box}},
        "cell 0 value": {"piecewise": [{"box": box, "vector": [bad, 0, 0]}]},
        "data values": {"grid": {"box": box, "resolution": [1, 1, 1],
                                 "data": [[0, 0, bad]]}},
    }
    for what, doc in docs.items():
        with pytest.raises(ValueError, match=f"{what} must be finite"):
            from_dict(doc)


@pytest.mark.parametrize("bad", [1.5, "2", True, math.nan, math.inf])
def test_sampled_field_rejects_a_non_integer_resolution(bad):
    with pytest.raises(ValueError, match="bad resolution"):
        SampledField(UNIT_BOX, (1, bad, 2), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="bad resolution"):
        sample(LinearVectorField(np.eye(3)), UNIT_BOX, (1, bad, 2))


def test_sampled_field_accepts_an_integral_float_resolution():
    f = SampledField(UNIT_BOX, (1.0, 1, np.float64(2.0)), np.zeros((2, 3)))
    assert f.resolution == (1, 1, 2)
    assert all(type(n) is int for n in f.resolution)


def test_from_dict_rejects_a_fractional_grid_resolution():
    doc = {"grid": {"box": {"low": [-1, -1, -1], "high": [1, 1, 1]},
                    "resolution": [1.5, 1, 2], "data": [[1, 0, 0], [0, 1, 0]]}}
    with pytest.raises(ValueError, match=r"bad resolution \(1\.5, 1, 2\)"):
        from_dict(doc)


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


def test_box_moment_is_cached_read_only_and_closed_form():
    b = Box((-0.3, 0.1, -2.0), (1.7, 0.9, 0.5))
    x = b.second_moment_matrix()
    assert x is b.second_moment_matrix()
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0, 0] = 0.0
    lo, hi = np.array(b.low), np.array(b.high)
    first = (hi ** 2 - lo ** 2) / 2.0  # integral of x_i along axis i
    second = (hi ** 3 - lo ** 3) / 3.0  # integral of x_i^2 along axis i
    want = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            rest = math.prod(hi[k] - lo[k] for k in range(3) if k not in (i, j))
            want[i, j] = (second[i] if i == j else first[i] * first[j]) * rest
    assert np.allclose(x, want, rtol=1e-13, atol=0.0)
    # the cached moment leaves value equality and the hash alone
    twin = Box(b.low, b.high)
    assert twin == b and hash(twin) == hash(b) and twin in {b}
    assert b != Box(b.low, (1.7, 0.9, 0.6))


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


NOT_A_FIELD = np.eye(3)  # a matrix passed where a LinearVectorField belongs


@pytest.mark.parametrize("call", [
    lambda f: evaluate(f, (0.0, 0.0, 0.0)),
    lambda f: evaluate_many(f, np.zeros((1, 3))),
    support,
    lambda f: cross_moment(f, f),
    lambda f: rotate_outer(f, E12, 0.5),
    to_dict,
], ids=["evaluate", "evaluate_many", "support", "cross_moment",
        "rotate_outer", "to_dict"])
def test_a_non_field_raises_type_error(call):
    with pytest.raises(TypeError, match="ndarray"):
        call(NOT_A_FIELD)


def test_overlapping_cells_rejected():
    with pytest.raises(ValueError):
        PiecewiseConstantField((
            (Box((0, 0, 0), (2, 2, 2)), (1.0, 0, 0)),
            (Box((1, 1, 1), (3, 3, 3)), (0, 1.0, 0)),
        ))


def test_overlapping_nan_cell_rejected():
    # a NaN extent reads as no overlap, so the corner check must catch it
    doc = {"piecewise": [
        {"box": {"low": [0, 0, 0], "high": [2, 2, 2]}, "vector": [1, 0, 0]},
        {"box": {"low": [1, 1, math.nan], "high": [3, 3, 3]}, "vector": [0, 1, 0]},
    ]}
    with pytest.raises(ValueError, match="box corners must be finite"):
        from_dict(doc)


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


def test_piecewise_evaluation_matches_the_cell_loop():
    rng = np.random.default_rng(6)
    low, high = jittered_split(rng, (3, 3, 2))
    f = piecewise_on(low, high, rng.uniform(-1, 1, (18, 3)))
    # cell corners sit on faces shared by up to eight cells
    pts = np.concatenate([rng.uniform(-1.2, 1.2, (300, 3)), low, high])
    want = np.zeros_like(pts)
    for box, value in f.cells:
        want[box.contains_many(pts)] = value
    assert np.array_equal(evaluate_many(f, pts), want)
    assert np.array_equal([evaluate(f, p) for p in pts], want)


# ---------------------------------------------------------------------------
# the piecewise cross moment: one diagonal sum on shared cells

def test_moment_on_shared_cells_equals_the_overlap_matrix_form(overlap_calls):
    rng = np.random.default_rng(7)
    for split in ((3, 3, 2), (1, 4, 5), (2, 2, 2)):
        low, high = jittered_split(rng, split)
        n = len(low)
        a = piecewise_on(low, high, rng.uniform(-1, 1, (n, 3)))
        # the same cells as distinct arrays, as registered field pairs have
        b = piecewise_on(low.copy(), high.copy(), rng.uniform(-1, 1, (n, 3)))
        rotated = rotate_outer(a, UnitBivector.from_normal(rng.standard_normal(3)),
                               rng.uniform(0, math.pi))
        pairs = ((a, b), (b, a), (a, a), (a, rotated), (rotated, b))
        overlap_calls.clear()
        got = [cross_moment(x, y) for x, y in pairs]
        assert overlap_calls == []
        for (x, y), k in zip(pairs, got):
            assert np.array_equal(k, overlap_matrix_moment(x, y))


def test_moment_on_different_cells_takes_the_overlap_matrix(overlap_calls):
    rng = np.random.default_rng(9)
    # every edge lies on the 8^3 midpoint grid, so the oracle is exact
    a = PiecewiseConstantField((
        (Box((-1, -1, -1), (0, 1, 1)), rng.uniform(-1, 1, 3)),
        (Box((0, -1, -1), (1, 0.5, 1)), rng.uniform(-1, 1, 3)),
    ))
    partial = PiecewiseConstantField((
        (Box((-0.5, -1, -1), (0.5, 1, 0)), rng.uniform(-1, 1, 3)),
        (Box((0.5, 0.5, -1), (1, 1, 1)), rng.uniform(-1, 1, 3)),
    ))
    touching = PiecewiseConstantField((
        (Box((0, 0.5, -1), (1, 1, 1)), rng.uniform(-1, 1, 3)),
        (Box((-1, -1, -1), (0, 1, 1)), rng.uniform(-1, 1, 3)),
    ))
    for b in (partial, touching):
        overlap_calls.clear()
        k = cross_moment(a, b)
        assert overlap_calls == [4]
        want = midpoint_moment(lambda y: evaluate(a, y), lambda y: evaluate(b, y),
                               (-1, -1, -1), (1, 1, 1), (8, 8, 8))
        assert np.allclose(k, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the linear cross moment: equal boxes integrate on their cached moment

def intersect_path_moment(a, b):
    """A X B^T with X the moment of a fresh Box on the overlap's corners,
    as Box.intersect builds it for boxes that differ."""
    low = np.maximum(a.box.low_array, b.box.low_array)
    high = np.minimum(a.box.high_array, b.box.high_array)
    return a.matrix @ Box(tuple(low), tuple(high)).second_moment_matrix() @ b.matrix.T


def test_linear_moment_on_equal_boxes_equals_the_intersect_path(box_constructions):
    box = Box((-0.3, 0.1, -2.0), (1.7, 0.9, 0.5))
    a = LinearVectorField(RNG.uniform(-1, 1, (3, 3)), box)
    # an equal box as a distinct object, and a rotated copy sharing a's box
    twin = LinearVectorField(RNG.uniform(-1, 1, (3, 3)), Box(box.low, box.high))
    rotated = rotate_outer(a, random_plane(), 2.1)
    pairs = ((a, a), (a, twin), (twin, a), (a, rotated), (rotated, twin))
    box_constructions.clear()
    got = [cross_moment(x, y) for x, y in pairs]
    assert box_constructions == []
    for (x, y), k in zip(pairs, got):
        assert np.array_equal(k, intersect_path_moment(x, y))


def test_linear_moment_on_partly_overlapping_boxes_after_caching():
    a = LinearVectorField(RNG.uniform(-1, 1, (3, 3)))
    b = LinearVectorField(RNG.uniform(-1, 1, (3, 3)),
                          Box((-0.5, -1.0, 0.0), (1.5, 0.5, 1.0)))
    inner = LinearVectorField(RNG.uniform(-1, 1, (3, 3)),
                              Box((-0.5, -0.5, 0.0), (0.5, 1.0, 0.5)))
    for f in (a, b, inner):
        cross_moment(f, f)  # every box has cached its own moment
    # each overlap lies on the lines of a midpoint grid of spacing 1/4
    cases = ((b, (1.5, 1.0, 1.0), (10, 8, 8), 2.25),
             (inner, (1.0, 1.0, 1.0), (8, 8, 8), 0.75))
    for other, high, resolution, volume in cases:
        want = midpoint_moment(lambda y: evaluate(a, y), lambda y: evaluate(other, y),
                               (-1.0, -1.0, -1.0), high, resolution)
        want += midpoint_linear_shortfall(a, other, volume, (0.25, 0.25, 0.25))
        assert np.allclose(cross_moment(a, other), want, rtol=0.0, atol=1e-12)
        assert np.allclose(cross_moment(other, a), want.T, rtol=0.0, atol=1e-12)


def test_linear_detection_on_one_box_builds_no_box(box_constructions):
    box = Box((-0.3, 0.1, -2.0), (1.7, 0.9, 0.5))
    reference = LinearVectorField(RNG.uniform(-1, 1, (3, 3)), box)
    pattern = rotate_outer(reference, random_plane(), 1.3)
    specs = [draw_trial(0, i, eps) for i, eps in enumerate((0.1, 0.01, 0.001, 1e-6))]
    box_constructions.clear()
    report = detect(reference, pattern, DetectionConfig(epsilon=1e-6))
    for spec in specs:
        run_trial(spec)
    assert report.converged
    assert box_constructions == []


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


def test_piecewise_norm_is_linear_in_the_cell_count(overlap_calls):
    rng = np.random.default_rng(8)
    low, high = jittered_split(rng, (10, 10, 10))
    f = piecewise_on(low, high, rng.uniform(-1, 1, (1000, 3)))
    assert overlap_calls == [1000 * 1000]  # the constructor's overlap check
    overlap_calls.clear()
    s, norm = cross_moment(f, f), l2_norm(f)
    assert overlap_calls == []
    want = overlap_matrix_moment(f, f)
    assert np.array_equal(s, want)
    assert norm == float(np.sqrt(np.trace(want)))


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


def test_fields_compare_and_hash_by_identity():
    pairs = (
        (LinearVectorField(np.eye(3)), LinearVectorField(np.eye(3))),
        (two_halves_field(), two_halves_field()),
        (SampledField(UNIT_BOX, (1, 1, 2), np.ones((2, 3))),
         SampledField(UNIT_BOX, (1, 1, 2), np.ones((2, 3)))),
    )
    for f, g in pairs:
        assert f == f and not f != f
        assert f != g and not f == g
        assert hash(f) == hash(f)
        assert len({f, g, f}) == 2


# ---------------------------------------------------------------------------
# plane decomposition

def contraction_projection(plane):
    """Columns: the in-plane part of each basis vector v by the contraction
    identity <<v P>_1 (-P)>_1 (the unit bivector P inverts to -P)."""
    pm = plane.as_multivector()
    cols = []
    for e in np.eye(3):
        contracted = (Multivector.from_vector(e) * pm).grade(1)
        cols.append((contracted * (-pm)).grade(1).vector)
    return np.column_stack(cols)


def test_projection_matrix_matches_normal_form():
    for _ in range(50):
        p = random_plane()
        assert np.allclose(plane_projection_matrix(p), contraction_projection(p),
                           atol=1e-12)


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
