"""Field representation tests: evaluation, moments, rotation, decomposition
and the JSON document format."""

import math

import numpy as np
import pytest

from rotalign.ga3 import (
    E12, E13, Multivector, UnitBivector, rotation_matrix,
)
from rotalign.fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, UNIT_BOX,
    cross_moment, decompose, evaluate_many, from_dict, l2_norm, load_field,
    normalize, overlap_volumes, pair_moments, plane_projection_matrix,
    rotate_outer, sample, scale, to_dict,
)

from rotalign.detector import DetectionConfig, detect
from rotalign.experiments import draw_trial, run_trial

from conftest import (
    evaluate, jittered_split, midpoint_linear_shortfall, midpoint_moment,
    random_linear, random_plane, save_field, shared_cell_pair, support,
    two_halves,
)


def two_halves_field():
    """e1 on the right half of the standard box, e2 on the left."""
    return two_halves((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


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


CELLS = (Box((0, 0, 0), (1, 1, 1)), Box((1, 0, 0), (2, 1, 1)))


def piecewise_from(values):
    return PiecewiseConstantField(zip(CELLS, values))


def grid_from(data):
    return SampledField(UNIT_BOX, (1, 1, 2), data)


@pytest.mark.parametrize("build, message", [
    (lambda n: Box((0, n, 0), (1, 1, 1)), "box corners must be finite"),
    (lambda n: Box((0, 0, 0), (1, 1, -n)), "box corners must be finite"),
    (lambda n: LinearVectorField([[n, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "matrix values must be finite"),
    (lambda n: piecewise_from(((1.0, 0.0, 0.0), (0, -n, 0))),
     "cell values must be finite"),
    (lambda n: grid_from([[0.0, 0.0, 1.0], [0, 0, n]]),
     "data values must be finite"),
], ids=["box-low", "box-high", "linear", "piecewise", "grid"])
def test_constructors_reject_an_int_too_large_for_a_float(build, message):
    # float() of such an int raises OverflowError rather than give inf
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(10 ** 400)


def objects(rows):
    return np.array(rows, dtype=object)


@pytest.mark.parametrize("build, attr, rows, bad_rows, what", [
    (LinearVectorField, "matrix", [[1, 0.5, 0], [0, 1, 0], [0, 0, 2.0]],
     lambda x: [[x, 0, 0], [0, 1, 0], [0, 0, 1]], "matrix values"),
    (piecewise_from, "values", [[1.0, 0, 0], [0, 2, 0.5]],
     lambda x: [[1.0, 0, 0], [0, x, 0]], "cell values"),
    (grid_from, "data", [[0.0, 0, 1], [0, 2, 0.5]],
     lambda x: [[0.0, 0, 1], [0, x, 0]], "data values"),
], ids=["linear", "piecewise", "grid"])
def test_constructors_read_an_object_array_as_its_list(build, attr, rows,
                                                       bad_rows, what):
    # an object array is scanned entry by entry, as a list is: it builds,
    # names an int too large for a float as not finite and a string as no
    # number
    got = getattr(build(objects(rows)), attr)
    assert np.array_equal(got, getattr(build(rows), attr))
    assert got.dtype == float
    for bad, message in ((10 ** 400, "finite"), ("2", "real numbers")):
        with pytest.raises(ValueError, match=f"^{what} must be {message}$"):
            build(objects(bad_rows(bad)))


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


NOT_NUMBERS = "must be lists of three JSON numbers"


@pytest.mark.parametrize("bad", ["1", "1e0", True, False, None, [1.0]])
def test_from_dict_accepts_only_json_numbers(bad):
    box = {"low": [0, 0, 0], "high": [1, 1, 1]}
    docs = {
        "matrix": {"linear": {"matrix": [[1, 0, 0], [0, bad, 0], [0, 0, 1]],
                              "box": box}},
        "box corners": {"linear": {"matrix": np.eye(3).tolist(),
                                   "box": {"low": [0, bad, 0],
                                           "high": [1, 1, 1]}}},
        "cell vectors": {"piecewise": [{"box": box, "vector": [1, 0, 0]},
                                       {"box": {"low": [1, 0, 0],
                                                "high": [2, 1, 1]},
                                        "vector": [0, 0, bad]}]},
        "grid data": {"grid": {"box": box, "resolution": [1, 1, 2],
                               "data": [[0, 0, 1], [bad, 0, 0]]}},
    }
    for what, doc in docs.items():
        with pytest.raises(ValueError, match=f"{what} {NOT_NUMBERS}"):
            from_dict(doc)


@pytest.mark.parametrize("data", [[1, 0, 0], [[1, 0], [0, 1, 0, 0]], 7, "abc",
                                  [[1, 0, 0], {"x": 1, "y": 2, "z": 3}]])
def test_from_dict_rejects_grid_data_that_is_not_rows_of_three(data):
    doc = {"grid": {"box": {"low": [0, 0, 0], "high": [1, 1, 1]},
                    "resolution": [1, 1, 2], "data": data}}
    with pytest.raises(ValueError, match=f"grid data {NOT_NUMBERS}"):
        from_dict(doc)


def test_from_dict_reads_strings_and_booleans_as_no_numbers():
    doc = {"linear": {"matrix": [["1", 0, 0], [0, True, 0], [0, 0, "2.5"]],
                      "box": {"low": ["-1", -1, False], "high": [1, 1, "1e0"]}}}
    with pytest.raises(ValueError, match=f"matrix {NOT_NUMBERS}"):
        from_dict(doc)
    doc["linear"]["matrix"] = [[1, 0, 0], [0, 1, 0], [0, 0, 2.5]]
    with pytest.raises(ValueError, match=f"box corners {NOT_NUMBERS}"):
        from_dict(doc)
    doc["linear"]["box"] = {"low": [-1, -1, 0], "high": [1, 1, 1.0]}
    field = from_dict(doc)
    assert np.array_equal(field.matrix, np.diag([1.0, 1.0, 2.5]))
    assert field.box == Box((-1, -1, 0), (1, 1, 1))


@pytest.mark.parametrize("bad", ["1", "1e0", True, False, np.bool_(True), None,
                                 1j])
def test_constructors_take_no_strings_or_booleans_as_numbers(bad):
    with pytest.raises(ValueError, match="box corners must be real numbers"):
        Box((0, 0, bad), (1, 1, 2))
    with pytest.raises(ValueError, match="box corners must be real numbers"):
        Box((-1, -1, -1), (1, bad, 1))
    with pytest.raises(ValueError, match="matrix values must be real numbers"):
        LinearVectorField([[1, 0, 0], [0, bad, 0], [0, 0, 1.5]])
    with pytest.raises(ValueError, match="cell values must be real numbers"):
        PiecewiseConstantField(((Box((0, 0, 0), (1, 1, 1)), (1.0, 0.0, 0.0)),
                                (Box((1, 0, 0), (2, 1, 1)), (0.0, bad, 0.0))))
    with pytest.raises(ValueError, match="data values must be real numbers"):
        SampledField(UNIT_BOX, (1, 1, 2), [[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])


def test_constructors_reject_boolean_and_string_arrays():
    with pytest.raises(ValueError, match="matrix values must be real numbers"):
        LinearVectorField(np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="data values must be real numbers"):
        SampledField(UNIT_BOX, (1, 1, 2), np.array([["1", "0", "0"]] * 2))
    # what the loader passes, and numpy's own ints and floats, still build
    field = LinearVectorField(np.arange(9).reshape(3, 3),
                              Box((np.int64(-1), -1.0, np.float32(0)), (1, 1, 1)))
    assert field.matrix.dtype == float
    assert field.box == Box((-1, -1, 0), (1, 1, 1))
    cells = PiecewiseConstantField(((Box((0, 0, 0), (1, 1, 1)),
                                     np.array([1, 2, 3], dtype=np.int32)),))
    assert cells.values.tolist() == [[1.0, 2.0, 3.0]]
    # numpy holds an int too large for int64 as an object; 10 ** 30 fits a float
    field = LinearVectorField([[10 ** 30, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert field.matrix[0, 0] == 1e30


@pytest.mark.parametrize("bad", [1.5, "2", True, math.nan, math.inf, 0, -2,
                                 None, pytest.param(10 ** 400, id="10**400")])
def test_sampled_field_rejects_a_non_integer_resolution(bad):
    with pytest.raises(ValueError, match="bad resolution"):
        SampledField(UNIT_BOX, (1, bad, 2), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="bad resolution"):
        sample(LinearVectorField(np.eye(3)), UNIT_BOX, (1, bad, 2))


def test_sampled_field_accepts_an_integral_float_resolution():
    f = SampledField(UNIT_BOX, (1.0, 1, np.float64(2.0)), np.zeros((2, 3)))
    assert f.resolution == (1, 1, 2)
    assert all(type(n) is int for n in f.resolution)


def test_sample_takes_a_numpy_integer_resolution():
    g = sample(LinearVectorField(np.eye(3)), UNIT_BOX, (np.int64(4), 1, 2))
    assert g.resolution == (4, 1, 2) and type(g.resolution[0]) is int


def test_from_dict_rejects_a_fractional_grid_resolution():
    doc = {"grid": {"box": {"low": [-1, -1, -1], "high": [1, 1, 1]},
                    "resolution": [1.5, 1, 2], "data": [[1, 0, 0], [0, 1, 0]]}}
    with pytest.raises(ValueError, match=r"bad resolution \(1\.5, 1, 2\)"):
        from_dict(doc)


def test_box_membership_half_open():
    b = Box((0, -1, -1), (1, 1, 1))
    assert b.contains_many(np.array([(0.0, 0.0, 0.0)]))[0]
    assert not b.contains_many(np.array([(1.0, 0.0, 0.0)]))[0]
    assert b.contains_many(np.array([(0.999999, -1.0, -1.0)]))[0]


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
    got = evaluate_many(two_halves_field(), np.array(
        [(0.5, 0.0, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (1.5, 0.0, 0.0)]))
    # the boundary x = 0 belongs to the right half; outside the support is 0
    assert np.allclose(got, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_linear_evaluation():
    f = LinearVectorField(np.diag([1.0, 2.0, 3.0]))
    got = evaluate_many(f, np.array([(0.5, 0.5, 0.5), (2.0, 0.0, 0.0)]))
    assert np.allclose(got, [[0.5, 1.0, 1.5], [0, 0, 0]])


def test_sampled_evaluation_picks_containing_cell():
    f = sample(LinearVectorField(np.eye(3)), UNIT_BOX, (4, 4, 4))
    # cell containing the origin is [0, 0.5)^3 with center 0.25
    got = evaluate_many(f, np.array([(0.1, 0.1, 0.1), (5.0, 0.0, 0.0)]))
    assert np.allclose(got, [[0.25, 0.25, 0.25], [0, 0, 0]])


def test_evaluate_many_matches_pointwise():
    rng = np.random.default_rng(7701)
    pts = rng.uniform(-1.5, 1.5, (200, 3))
    for field in (random_linear(rng), two_halves_field(),
                  sample(random_linear(rng), UNIT_BOX, (8, 8, 8))):
        batch = evaluate_many(field, pts)
        single = np.array([evaluate(field, p) for p in pts])
        assert np.allclose(batch, single, atol=1e-14)


NOT_A_FIELD = np.eye(3)  # a matrix passed where a LinearVectorField belongs


@pytest.mark.parametrize("call", [
    lambda f: evaluate_many(f, np.zeros((1, 3))),
    lambda f: cross_moment(f, f),
    lambda f: rotate_outer(f, E12, 0.5),
    to_dict,
], ids=["evaluate_many", "cross_moment", "rotate_outer", "to_dict"])
def test_a_non_field_raises_type_error(call):
    with pytest.raises(TypeError, match="ndarray"):
        call(NOT_A_FIELD)


def test_overlapping_cells_rejected():
    with pytest.raises(ValueError):
        PiecewiseConstantField((
            (Box((0, 0, 0), (2, 2, 2)), (1.0, 0, 0)),
            (Box((1, 1, 1), (3, 3, 3)), (0, 1.0, 0)),
        ))


def test_a_cell_value_of_two_components_rejected():
    with pytest.raises(ValueError, match="cell values must be 3-vectors"):
        PiecewiseConstantField(((Box((0, 0, 0), (1, 1, 1)), (1.0, 0.0)),))


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


def test_piecewise_volumes_are_the_cell_extent_products():
    # the diagonal of the constructor's overlap check, bit for bit, on the
    # behaviour lock's 200 piecewise pairs (seed 12)
    for i in range(200):
        rng = np.random.default_rng((12, i))
        for f in shared_cell_pair(rng, rng.uniform(0.0, math.pi)):
            assert f.volumes.shape == (18,)
            assert f.volumes.tobytes() == (f.high - f.low).prod(axis=1).tobytes()


def test_value_maps_share_the_stored_volumes():
    field, _ = shared_cell_pair(np.random.default_rng(35))
    plane = UnitBivector.from_components(1.0, 2.0, 3.0)
    split = decompose(field, plane)
    for mapped in (rotate_outer(field, plane, 1.1), scale(field, 0.5),
                   split.parallel, split.perpendicular):
        assert mapped.volumes is field.volumes
        assert mapped.low is field.low and mapped.high is field.high


def test_moment_on_shared_cells_reads_the_stored_volumes():
    a, b = shared_cell_pair(np.random.default_rng(37))
    doubled = object.__new__(PiecewiseConstantField)
    doubled._store(a.low, a.high, a.values, 2.0 * a.volumes)
    assert np.array_equal(cross_moment(doubled, b), 2.0 * cross_moment(a, b))
    assert np.array_equal(cross_moment(b, doubled), cross_moment(b, a))


def matmul_shared_cell_moment(a, b):
    """The shared-cell moment through @: Va^T scaled by the cell volumes,
    made contiguous, times Vb."""
    return np.ascontiguousarray((a.values * a.volumes[:, None]).T) @ b.values


def test_shared_cell_moment_takes_the_same_bits_on_each_path():
    # a is b, equal corner bytes, and corners equal only as numbers (0.0
    # against -0.0) all give the bits of the product through @, on the
    # behaviour lock's 200 piecewise pairs (seed 12): S, the pattern's
    # self-moment and K
    for i in range(200):
        rng = np.random.default_rng((12, i))
        reference, pattern = shared_cell_pair(rng, rng.uniform(0.0, math.pi))
        for a, b in ((reference, reference), (pattern, pattern), (pattern, reference)):
            want = matmul_shared_cell_moment(a, b)
            twin = PiecewiseConstantField(b.cells)  # b's corners, distinct arrays
            assert np.array_equal(cross_moment(a, b), want)
            assert np.array_equal(cross_moment(a, twin), want)
    low = np.array([[-1.0, -1.0, -1.0], [0.0, -1.0, -1.0]])
    high = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    field = piecewise_on(low, high, np.random.default_rng(38).uniform(-1, 1, (2, 3)))
    negated = piecewise_on(np.where(low == 0.0, -0.0, low),
                           np.where(high == 0.0, -0.0, high), field.values)
    assert field.low.tobytes() != negated.low.tobytes()
    assert field.high.tobytes() != negated.high.tobytes()
    assert np.array_equal(field.volumes, negated.volumes)
    want = matmul_shared_cell_moment(field, field)
    for a, b in ((field, field), (field, negated), (negated, field)):
        assert np.array_equal(cross_moment(a, b), want)


def stacked_moments(a, b):
    """cross_moment(a, b) over cross_moment(b, b), the (6, 3) stack
    pair_moments returns."""
    return np.concatenate((cross_moment(a, b), cross_moment(b, b)))


def matmul_pair_moments(a, b):
    """The one shared-cell product through @: [Va | Vb] scaled by the cell
    volumes, transposed and made contiguous, times Vb."""
    stacked = np.hstack((a.values, b.values)) * b.volumes[:, None]
    return np.ascontiguousarray(stacked.T) @ b.values


def test_pair_moments_on_shared_cells_is_one_product(overlap_calls):
    # K over S from one product on the behaviour lock's 200 piecewise pairs
    # (seed 12), against the reference itself, a twin of its corners in
    # distinct arrays, and corners equal only as numbers (0.0 against
    # -0.0): the bits of that product through @, and within 1e-15
    # sqrt(tr Su tr S) of the two cross_moment products (2.6e-16 measured
    # over these and 300 more seeded pairs; no pair was bit-identical)
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng((12, i))
        reference, pattern = shared_cell_pair(rng, rng.uniform(0.0, math.pi))
        twin = PiecewiseConstantField(reference.cells)
        for a, b in ((pattern, reference), (pattern, twin), (reference, reference)):
            overlap_calls.clear()
            got = pair_moments(a, b)
            assert overlap_calls == [] and got.shape == (6, 3)
            assert np.array_equal(got, matmul_pair_moments(a, b))
            size = math.sqrt(np.trace(cross_moment(a, a)) * np.trace(cross_moment(b, b)))
            worst = max(worst, np.max(np.abs(got - stacked_moments(a, b))) / size)
    assert worst <= 1e-15
    low = np.array([[-1.0, -1.0, -1.0], [0.0, -1.0, -1.0]])
    high = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    field = piecewise_on(low, high, np.random.default_rng(39).uniform(-1, 1, (2, 3)))
    negated = piecewise_on(np.where(low == 0.0, -0.0, low),
                           np.where(high == 0.0, -0.0, high),
                           np.random.default_rng(40).uniform(-1, 1, (2, 3)))
    assert field.low.tobytes() != negated.low.tobytes()
    for a, b in ((field, negated), (negated, field)):
        assert np.array_equal(pair_moments(a, b), matmul_pair_moments(a, b))


def test_pair_moments_elsewhere_stacks_the_two_cross_moments():
    # different cells, linear pairs, grids and mixed kinds: exactly the two
    # cross_moment results, stacked
    rng = np.random.default_rng(41)
    piecewise = piecewise_on(*jittered_split(rng, (3, 3, 2)),
                             rng.uniform(-1, 1, (18, 3)))
    other_cells = piecewise_on(*jittered_split(rng, (2, 2, 3)),
                               rng.uniform(-1, 1, (12, 3)))
    linear = random_linear(rng)
    offset = LinearVectorField(rng.uniform(-1, 1, (3, 3)),
                               Box((-0.5, -1.0, 0.0), (1.5, 0.5, 1.0)))
    grid = SampledField(UNIT_BOX, (4, 3, 2), rng.uniform(-1, 1, (24, 3)))
    other_grid = rotate_outer(grid, random_plane(rng), 1.3)
    fields = (piecewise, other_cells, linear, offset, grid, other_grid)
    pairs = [(a, b) for a in fields for b in fields if a is not b]
    pairs += [(linear, linear), (grid, grid)]
    for a, b in pairs:
        assert pair_moments(a, b).tobytes() == stacked_moments(a, b).tobytes()
    with pytest.raises(TypeError, match="cannot correlate"):
        pair_moments(linear, "field")


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
        want = midpoint_moment(a, b, (-1, -1, -1), (1, 1, 1), (8, 8, 8))
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
    rng = np.random.default_rng(7702)
    box = Box((-0.3, 0.1, -2.0), (1.7, 0.9, 0.5))
    a = LinearVectorField(rng.uniform(-1, 1, (3, 3)), box)
    # an equal box as a distinct object, and a rotated copy sharing a's box
    twin = LinearVectorField(rng.uniform(-1, 1, (3, 3)), Box(box.low, box.high))
    rotated = rotate_outer(a, random_plane(rng), 2.1)
    pairs = ((a, a), (a, twin), (twin, a), (a, rotated), (rotated, twin))
    box_constructions.clear()
    got = [cross_moment(x, y) for x, y in pairs]
    assert box_constructions == []
    for (x, y), k in zip(pairs, got):
        assert np.array_equal(k, intersect_path_moment(x, y))


def test_linear_moment_on_partly_overlapping_boxes_after_caching():
    rng = np.random.default_rng(7703)
    a = LinearVectorField(rng.uniform(-1, 1, (3, 3)))
    b = LinearVectorField(rng.uniform(-1, 1, (3, 3)),
                          Box((-0.5, -1.0, 0.0), (1.5, 0.5, 1.0)))
    inner = LinearVectorField(rng.uniform(-1, 1, (3, 3)),
                              Box((-0.5, -0.5, 0.0), (0.5, 1.0, 0.5)))
    for f in (a, b, inner):
        cross_moment(f, f)  # every box has cached its own moment
    # each overlap lies on the lines of a midpoint grid of spacing 1/4
    cases = ((b, (1.5, 1.0, 1.0), (10, 8, 8), 2.25),
             (inner, (1.0, 1.0, 1.0), (8, 8, 8), 0.75))
    for other, high, resolution, volume in cases:
        want = midpoint_moment(a, other, (-1.0, -1.0, -1.0), high, resolution)
        want += midpoint_linear_shortfall(a, other, volume, (0.25, 0.25, 0.25))
        assert np.allclose(cross_moment(a, other), want, rtol=0.0, atol=1e-12)
        assert np.allclose(cross_moment(other, a), want.T, rtol=0.0, atol=1e-12)


def test_linear_detection_on_one_box_builds_no_box(box_constructions):
    rng = np.random.default_rng(7704)
    box = Box((-0.3, 0.1, -2.0), (1.7, 0.9, 0.5))
    reference = LinearVectorField(rng.uniform(-1, 1, (3, 3)), box)
    pattern = rotate_outer(reference, random_plane(rng), 1.3)
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
    rng = np.random.default_rng(7705)
    f = random_linear(rng)
    g = sample(f, UNIT_BOX, (64, 64, 64))
    assert math.isclose(l2_norm(f), l2_norm(g), rel_tol=1e-3)


@pytest.mark.parametrize("seed, build, resolution, atol, rtol", [
    (7706, lambda rng: LinearVectorField(rng.uniform(-1, 1, (3, 3)),
                                         Box((-1.0, -0.5, 0.0), (0.5, 1.0, 2.0))),
     (24, 24, 24), 0.0, 1e-3),
    (7707, lambda rng: PiecewiseConstantField((
        (Box((0, -1, -1), (1, 1, 1)), rng.uniform(-1, 1, 3)),
        (Box((-1, -1, -1), (0, 1, 0)), rng.uniform(-1, 1, 3)),
    )), (4, 4, 4), 1e-12, 0.0),
    (7708, lambda rng: sample(random_linear(rng),
                              Box((-1.0, 0.0, -0.5), (1.0, 1.5, 0.5)), (4, 5, 6)),
     (4, 5, 6), 1e-12, 0.0),
], ids=["linear", "piecewise", "grid"])
def test_self_moment_against_midpoint_sum(seed, build, resolution, atol, rtol):
    # the midpoint rule is off by O(h^2) on the linear field's quadratic
    # integrand, and exact on cells and grids aligned with its grid
    f = build(np.random.default_rng(seed))
    s = cross_moment(f, f)
    assert math.isclose(np.trace(s), l2_norm(f) ** 2, rel_tol=1e-12)
    box = support(f)
    want = midpoint_moment(f, f, box.low, box.high, resolution)
    assert np.max(np.abs(s - want)) <= atol + rtol * np.trace(s)


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


def test_normalize():
    f = normalize(two_halves_field())
    assert math.isclose(l2_norm(f), 1.0, abs_tol=1e-12)
    with pytest.raises(ValueError):
        normalize(scale(two_halves_field(), 0.0))


def test_normalize_rejects_an_overflowing_energy():
    # the energy of 1e200 I is inf, and 1 / sqrt(inf) would scale it to zero
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="^field energy is not finite$"):
        normalize(LinearVectorField(1e200 * np.eye(3)))


def test_value_maps_keep_piecewise_values_finite():
    # scale, rotate_outer and decompose map the values of the checked cells;
    # an overflow there is rejected as the constructor rejects it
    field = PiecewiseConstantField((
        (Box((0, 0, 0), (1, 1, 1)), (1.0, 0.0, 0.0)),
        (Box((1, 0, 0), (2, 1, 1)), (0.0, 1e200, 0.0))))
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="^cell 1 value must be finite$"):
        scale(field, 1e200)


# ---------------------------------------------------------------------------
# outer rotation

def test_rotate_two_halves_example():
    # quarter turn in e13 sends the e1 cell value to e3
    r = rotate_outer(two_halves_field(), E13, math.pi / 2)
    assert np.allclose(evaluate(r, (0.5, 0.0, 0.0)), [0, 0, 1], atol=1e-12)
    assert np.allclose(evaluate(r, (-0.5, 0.0, 0.0)), [0, 1, 0], atol=1e-12)


def test_rotate_preserves_support_and_norm():
    rng = np.random.default_rng(7709)
    for field in (random_linear(rng), two_halves_field(),
                  sample(random_linear(rng), UNIT_BOX, (8, 8, 8))):
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        r = rotate_outer(field, p, angle)
        assert support(r) == support(field)
        assert math.isclose(l2_norm(r), l2_norm(field), rel_tol=1e-12)


def test_rotate_roundtrip():
    rng = np.random.default_rng(7710)
    for _ in range(20):
        f = random_linear(rng)
        p = random_plane(rng)
        angle = rng.uniform(0, math.pi)
        back = rotate_outer(rotate_outer(f, p, angle), -p, angle)
        assert np.allclose(back.matrix, f.matrix, atol=1e-12)


def test_rotate_rejects_bad_angle():
    with pytest.raises(ValueError):
        rotate_outer(two_halves_field(), E12, -0.5)
    with pytest.raises(ValueError):
        rotate_outer(two_halves_field(), E12, 4.0)


def test_rotate_linear_is_matrix_product():
    rng = np.random.default_rng(7711)
    f = random_linear(rng)
    p = random_plane(rng)
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
    pm = Multivector.from_even((0.0, *plane))
    cols = []
    for e in np.eye(3):
        contracted = (Multivector.from_vector(e) * pm).grade(1)
        cols.append((contracted * (-pm)).grade(1).vector)
    return np.column_stack(cols)


def test_projection_matrix_matches_normal_form():
    rng = np.random.default_rng(7712)
    for _ in range(50):
        p = random_plane(rng)
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
    rng = np.random.default_rng(7713)
    for _ in range(50):
        f = random_linear(rng)
        p = random_plane(rng)
        d = decompose(f, p)
        assert math.isclose(l2_norm(f) ** 2,
                            l2_norm(d.parallel) ** 2 + l2_norm(d.perpendicular) ** 2,
                            rel_tol=1e-10)


def test_decompose_parts_recombine():
    rng = np.random.default_rng(7714)
    f = random_linear(rng)
    p = random_plane(rng)
    d = decompose(f, p)
    assert np.allclose(d.parallel.matrix + d.perpendicular.matrix, f.matrix,
                       atol=1e-12)


def test_rotation_fixes_perpendicular_part():
    # rotating in the plane leaves the normal component untouched
    rng = np.random.default_rng(7715)
    f = random_linear(rng)
    p = random_plane(rng)
    d = decompose(f, p)
    r = rotate_outer(d.perpendicular, p, 1.1)
    assert np.allclose(r.matrix, d.perpendicular.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# document format

def test_json_roundtrip_all_kinds(tmp_path):
    rng = np.random.default_rng(7716)
    fields = [
        random_linear(rng),
        two_halves_field(),
        sample(random_linear(rng), UNIT_BOX, (4, 4, 4)),
    ]
    for i, f in enumerate(fields):
        path = tmp_path / f"field_{i}.json"
        save_field(f, path)
        g = load_field(path)
        assert type(g) is type(f)
        pts = rng.uniform(-1, 1, (50, 3))
        assert np.allclose(evaluate_many(f, pts), evaluate_many(g, pts),
                           atol=1e-15)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        from_dict({"linear": {}, "grid": {}})
    with pytest.raises(ValueError):
        from_dict({"spline": {}})
    with pytest.raises(ValueError):
        from_dict({"linear": {"matrix": [[1, 2], [3, 4]]}})


def test_to_dict_shapes():
    d = to_dict(two_halves_field())
    assert set(d) == {"piecewise"}
    assert len(d["piecewise"]) == 2
    assert d["piecewise"][0]["vector"] == [1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# sampling

def test_sample_matches_source_at_centers():
    rng = np.random.default_rng(7717)
    f = random_linear(rng)
    g = sample(f, UNIT_BOX, (6, 6, 6))
    centers = g.cell_centers()
    assert np.allclose(g.data, evaluate_many(f, centers), atol=1e-14)


def test_sample_evaluates_at_the_grid_cell_centers_exactly():
    rng = np.random.default_rng(7718)
    box = Box((-1.0, -0.5, 0.25), (0.7, 1.3, 2.0))
    f = LinearVectorField(rng.uniform(-1.0, 1.0, (3, 3)), box)
    g = sample(f, box, (3, 4, 5))
    centers = g.cell_centers()
    assert centers.shape == (60, 3)
    # cell (i, j, k) at row (i * 4 + j) * 5 + k, its centre half a step in
    assert np.array_equal(centers[(2 * 4 + 1) * 5 + 3],
                          box.low_array + np.array([2.5, 1.5, 3.5]) * g.spacing)
    assert np.array_equal(g.data, evaluate_many(f, centers))


def test_sampled_rotation_consistent_with_source():
    rng = np.random.default_rng(7719)
    f = random_linear(rng)
    p = random_plane(rng)
    angle = 0.77
    a = sample(rotate_outer(f, p, angle), UNIT_BOX, (5, 5, 5))
    b = rotate_outer(sample(f, UNIT_BOX, (5, 5, 5)), p, angle)
    assert np.allclose(a.data, b.data, atol=1e-12)
