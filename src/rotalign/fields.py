"""Compactly supported 3D vector fields and the operations the detector needs.

Three representations cover the use cases:

* ``LinearVectorField``   value A @ x on a box, zero outside
* ``PiecewiseConstantField``  constant 3-vectors on disjoint boxes
* ``SampledField``        dense samples at the cell centers of a regular grid

Rotation acts on the *values* only (an outer rotation): the support is left
alone and every sample v(x) becomes R v(x) reverse(R).  Box membership is
half-open, low <= x < high, so adjacent cells never double-count a face.
Constructors reject non-finite corners and values.  Fields compare and
hash by identity; a Box compares by its corners.

Every integral the package needs is a fold of one 3x3 cross moment
K = integral of a(y) b(y)^T (cross_moment): the L2 norm is sqrt(tr K(v, v)),
and the correlation folds K into the algebra.  Linear and piecewise fields
integrate in closed form through box moments; two piecewise fields on the
same cells weigh their values by the cell volumes the constructor stored.  A
sampled field integrates by the midpoint rule on its own grid, and two
sampled fields must share their grid geometry exactly.  pair_moments stacks
the two moments a detection reads, K of a pattern against a reference and
the reference's self-moment S, and takes both from one product when the
fields share their cells.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .ga3 import UnitBivector, rotation_matrix


def _is_real(x) -> bool:
    """An int or a float, numpy's included; not a bool, a string or None.
    A float (numpy's float64 is one) skips the slower numbers.Real check."""
    return isinstance(x, float) or (isinstance(x, numbers.Real)
                                    and not isinstance(x, bool))


def _real_array(x, what: str) -> np.ndarray:
    """x as a new float array; entries of a list or object array must be _is_real."""
    a = np.asarray(x)
    if (a.dtype.kind not in "iuf" if a is x and a.dtype.kind != "O" else
            not all(map(_is_real, np.asarray(x, dtype=object).flat))):
        raise ValueError(f"{what} must be real numbers")
    try:
        return a.astype(float)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{what} must be finite") from None


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [low, high) with positive extent on every axis."""

    low: tuple[float, float, float]
    high: tuple[float, float, float]

    def __post_init__(self):
        if len(self.low) != 3 or len(self.high) != 3:
            raise ValueError("box corners must be 3-vectors")
        if not all(map(_is_real, (*self.low, *self.high))):
            raise ValueError("box corners must be real numbers")
        try:
            lo, hi = tuple(map(float, self.low)), tuple(map(float, self.high))
        except OverflowError:  # an int too large for a float
            raise ValueError("box corners must be finite") from None
        if not all(math.isfinite(x) for x in lo + hi):
            raise ValueError("box corners must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"degenerate box {lo} .. {hi}")
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)

    @property
    def low_array(self) -> np.ndarray:
        return np.array(self.low)

    @property
    def high_array(self) -> np.ndarray:
        return np.array(self.high)

    def volume(self) -> float:
        return float(np.prod(self.high_array - self.low_array))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return np.all(pts >= self.low_array, axis=1) & \
            np.all(pts < self.high_array, axis=1)

    def intersect(self, other: "Box") -> "Box | None":
        if other == self:
            return self  # the same corners, and the moment cached on them
        lo = np.maximum(self.low_array, other.low_array)
        hi = np.minimum(self.high_array, other.high_array)
        if np.any(hi <= lo):
            return None
        return Box(tuple(lo), tuple(hi))

    def second_moment_matrix(self) -> np.ndarray:
        """Read-only matrix X with X[i, j] = integral of x_i x_j over the box,
        computed on first use and kept (equality and hash read only the
        corners)."""
        return self._second_moment

    @cached_property
    def _second_moment(self) -> np.ndarray:
        # The axes integrate independently: off the diagonal X is the volume
        # times the product of centre coordinates, and on it the volume times
        # the mean of x_i^2 over [lo, hi), (lo^2 + lo hi + hi^2) / 3.
        lo, hi = self.low_array, self.high_array
        vol = self.volume()
        centre = (lo + hi) / 2.0
        x = vol * np.outer(centre, centre)
        np.fill_diagonal(x, vol * (lo * lo + lo * hi + hi * hi) / 3.0)
        x.flags.writeable = False
        return x


def overlap_volumes(low_a: np.ndarray, high_a: np.ndarray,
                    low_b: np.ndarray, high_b: np.ndarray) -> np.ndarray:
    """Volumes of the pairwise intersections of two lists of boxes.

    Takes (n_a, 3) and (n_b, 3) corner arrays and returns the (n_a, n_b)
    matrix of intersection volumes, 0 where the boxes are disjoint or only
    touch (boxes are half-open).
    """
    extent = (np.minimum(high_a[:, None], high_b[None]) -
              np.maximum(low_a[:, None], low_b[None]))
    return np.prod(np.maximum(extent, 0.0), axis=-1)


UNIT_BOX = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))


@dataclass(frozen=True, eq=False)
class LinearVectorField:
    """v(x) = matrix @ x inside the box, zero outside."""

    matrix: np.ndarray
    box: Box = UNIT_BOX

    def __post_init__(self):
        m = _real_array(self.matrix, "matrix values")
        if m.shape != (3, 3):
            raise ValueError(f"matrix must be 3x3, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix values must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False, init=False)
class PiecewiseConstantField:
    """Constant 3-vector per box; the boxes must have disjoint interiors.

    Built from (Box, value) pairs and stored as four read-only arrays: the
    cells' (n, 3) low corners, high corners and values, and the (n,) volumes
    on the diagonal of the overlap matrix.  The value and overlap checks run
    here, once: rotate_outer, scale and decompose share the checked corners
    and volumes, and check their new values as the constructor does.
    """

    low: np.ndarray
    high: np.ndarray
    values: np.ndarray
    volumes: np.ndarray

    def __init__(self, cells):
        cells = tuple(cells)
        if any(np.shape(value) != (3,) for _, value in cells):
            raise ValueError("cell values must be 3-vectors")
        values = _real_array([v for _, v in cells], "cell values").reshape(-1, 3)
        low = np.array([box.low for box, _ in cells]).reshape(-1, 3)
        high = np.array([box.high for box, _ in cells]).reshape(-1, 3)
        w = overlap_volumes(low, high, low, high)
        self._store(low, high, values, np.diagonal(w).copy())
        overlaps = np.argwhere(np.triu(w > 0.0, 1))
        if len(overlaps):
            i, j = overlaps[0]
            raise ValueError(f"cells {i} and {j} overlap")

    def _store(self, low, high, values, volumes) -> None:
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ValueError(f"cell {int(np.argmin(finite))} value must be finite")
        for name, a in (("low", low), ("high", high), ("values", values),
                        ("volumes", volumes)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def _with_values(self, values: np.ndarray) -> "PiecewiseConstantField":
        """The field with new, finite, (n, 3) values on the same, checked, cells."""
        field = object.__new__(PiecewiseConstantField)
        field._store(self.low, self.high, values, self.volumes)
        return field

    @cached_property
    def cells(self) -> tuple[tuple[Box, np.ndarray], ...]:
        """The (Box, value) pairs, built from the arrays on first use and
        kept: one Box per cell costs more than several detection passes."""
        return tuple((Box(lo, hi), v) for lo, hi, v in
                     zip(self.low.tolist(), self.high.tolist(), self.values))


def _spacing(box: Box, resolution: tuple[int, int, int]) -> np.ndarray:
    return (box.high_array - box.low_array) / np.array(resolution)


def _checked_resolution(resolution) -> tuple[int, int, int]:
    """Three positive integer cell counts: 2.0 counts, 1.5, "2", True and an
    int too large for a float do not."""
    res = tuple(resolution)
    try:
        ok = len(res) == 3 and all(
            _is_real(n) and float(n).is_integer() and n >= 1 for n in res)
    except OverflowError:  # float() of a 401-digit int
        ok = False
    if not ok:
        raise ValueError(f"bad resolution {resolution}")
    return tuple(int(n) for n in res)


@dataclass(frozen=True, eq=False)
class SampledField:
    """Samples at the cell centers of a regular grid over a box.

    data has shape (nx * ny * nz, 3), row-major in (x, y, z) order: the
    sample for cell (i, j, k) sits at index (i * ny + j) * nz + k.
    """

    box: Box
    resolution: tuple[int, int, int]
    data: np.ndarray

    def __post_init__(self):
        res = _checked_resolution(self.resolution)
        d = _real_array(self.data, "data values")
        n = res[0] * res[1] * res[2]
        if d.shape != (n, 3):
            raise ValueError(f"data shape {d.shape} does not match resolution {res}")
        if not np.isfinite(d).all():
            raise ValueError("data values must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "data", d)

    @property
    def spacing(self) -> np.ndarray:
        return _spacing(self.box, self.resolution)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> np.ndarray:
        """(n, 3) array of sample locations in data order."""
        return _cell_centers(self.box, self.resolution)


def _cell_centers(box: Box, resolution: tuple[int, int, int]) -> np.ndarray:
    idx = np.stack(np.indices(resolution), axis=-1).reshape(-1, 3)
    return box.low_array + (idx + 0.5) * _spacing(box, resolution)


VectorField = LinearVectorField | PiecewiseConstantField | SampledField


@dataclass(frozen=True)
class PlaneDecomposition:
    """Pointwise split of a field into in-plane and normal components."""

    parallel: VectorField
    perpendicular: VectorField


def plane_projection_matrix(plane: UnitBivector) -> np.ndarray:
    """Matrix projecting a vector onto the plane, I - n n^T for the plane's
    unit normal n."""
    n = plane.normal()
    return np.eye(3) - np.outer(n, n)


# ---------------------------------------------------------------------------
# evaluation

def evaluate_many(field: VectorField, pts: np.ndarray) -> np.ndarray:
    """Values at an (n, 3) array of points, zero outside the support."""
    if isinstance(field, LinearVectorField):
        out = pts @ field.matrix.T
        out[~field.box.contains_many(pts)] = 0.0
        return out
    if isinstance(field, PiecewiseConstantField):
        out = np.zeros_like(pts)
        for lo, hi, v in zip(field.low, field.high, field.values):
            out[np.all((pts >= lo) & (pts < hi), axis=1)] = v
        return out
    if isinstance(field, SampledField):
        out = np.zeros_like(pts)
        inside = field.box.contains_many(pts)
        idx = np.floor((pts[inside] - field.box.low_array) / field.spacing).astype(int)
        idx = np.minimum(idx, np.array(field.resolution) - 1)
        ny, nz = field.resolution[1], field.resolution[2]
        flat = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
        out[inside] = field.data[flat]
        return out
    raise TypeError(f"not a vector field: {type(field).__name__}")


# ---------------------------------------------------------------------------
# the cross moment

def _piecewise_linear_moment(a: PiecewiseConstantField,
                             b: LinearVectorField) -> np.ndarray:
    """Sum over cells of a_cell (B m1)^T, m1 the first moment of the cell's
    overlap with b's box (zero for a cell outside it)."""
    low = np.maximum(a.low, b.box.low_array)
    high = np.minimum(a.high, b.box.high_array)
    volume = np.prod(np.maximum(high - low, 0.0), axis=1)
    first = volume[:, None] * (low + high) / 2.0
    return a.values.T @ first @ b.matrix.T


def _grid_moment(grid: SampledField, a: VectorField,
                 b: VectorField) -> np.ndarray:
    pts = grid.cell_centers()
    va = a.data if a is grid else evaluate_many(a, pts)
    vb = b.data if b is grid else evaluate_many(b, pts)
    return grid.cell_volume() * (va.T @ vb)


def _shared_cells(a: PiecewiseConstantField, b: PiecewiseConstantField) -> bool:
    """Whether a and b sit on the same disjoint cells: one field, equal
    corner bytes, or corners equal by value (array_equal matches -0.0, 0.0)."""
    return (a is b or a.low.tobytes() == b.low.tobytes()
            and a.high.tobytes() == b.high.tobytes()
            or np.array_equal(a.low, b.low) and np.array_equal(a.high, b.high))


def cross_moment(a: VectorField, b: VectorField) -> np.ndarray:
    """3x3 matrix K = integral of a(y) b(y)^T over the common support.

    Linear pairs give A X B^T with X the second moment of the overlap box,
    piecewise pairs Va^T W Vb with W the cell-overlap volumes; a sampled
    field integrates by the midpoint rule on its grid.  cross_moment(v, v)
    is the self-moment S, whose trace is l2_norm(v)**2.
    """
    # .dot on 3 x n operands: @'s dgemm, bit for bit, without the ufunc dispatch
    if isinstance(a, LinearVectorField) and isinstance(b, LinearVectorField):
        overlap = a.box.intersect(b.box)
        if overlap is None:
            return np.zeros((3, 3))
        return a.matrix.dot(overlap.second_moment_matrix()).dot(b.matrix.T)
    if isinstance(a, PiecewiseConstantField) and isinstance(b, PiecewiseConstantField):
        if _shared_cells(a, b):  # W is diagonal, the stored cell volumes
            return np.multiply(a.values.T, a.volumes, order="C").dot(b.values)
        return a.values.T @ overlap_volumes(a.low, a.high, b.low, b.high) @ b.values
    if isinstance(a, PiecewiseConstantField) and isinstance(b, LinearVectorField):
        return _piecewise_linear_moment(a, b)
    if isinstance(a, LinearVectorField) and isinstance(b, PiecewiseConstantField):
        return _piecewise_linear_moment(b, a).T
    if isinstance(a, SampledField) and isinstance(b, SampledField):
        if a.resolution != b.resolution or a.box != b.box:
            raise ValueError("sampled fields must share an identical grid")
        return a.cell_volume() * (a.data.T @ b.data)
    if isinstance(a, SampledField):
        return _grid_moment(a, a, b)
    if isinstance(b, SampledField):
        return _grid_moment(b, a, b)
    raise TypeError(
        f"cannot correlate {type(a).__name__} with {type(b).__name__}")


def pair_moments(a: VectorField, b: VectorField) -> np.ndarray:
    """The (6, 3) stack of K = cross_moment(a, b) over S = cross_moment(b, b).

    Two piecewise fields on the same cells take both from one product,
    [Va | Vb]^T W Vb with W the stored cell volumes, whose sums may differ
    from the two products' in the last bit.  Every other pair stacks the
    two cross_moment results as they are.
    """
    if (isinstance(a, PiecewiseConstantField) and isinstance(b, PiecewiseConstantField)
            and _shared_cells(a, b)):
        stacked = np.concatenate((a.values, b.values), axis=1).T
        return np.multiply(stacked, b.volumes, order="C").dot(b.values)
    return np.concatenate((cross_moment(a, b), cross_moment(b, b)))


def l2_norm(field: VectorField) -> float:
    """L2 norm, sqrt of the integral of |v(x)|^2 over the support."""
    return float(np.sqrt(np.trace(cross_moment(field, field))))


def checked_norm(norm: float, which: str, task: str) -> float:
    """An L2 norm, if finite and at least 1e-300: else ValueError, "{which}
    energy is not finite" (for NaN too) or "cannot {task} a zero field"."""
    if not math.isfinite(norm):
        raise ValueError(f"{which} energy is not finite")
    if norm < 1e-300:
        raise ValueError(f"cannot {task} a zero field")
    return norm


# ---------------------------------------------------------------------------
# pointwise linear maps: rotation, scaling, projection

def _map_values(field: VectorField, m: np.ndarray) -> VectorField:
    """Apply a 3x3 matrix to every field value."""
    if isinstance(field, LinearVectorField):
        return LinearVectorField(m @ field.matrix, field.box)
    if isinstance(field, PiecewiseConstantField):
        return field._with_values(field.values @ m.T)
    if isinstance(field, SampledField):
        return SampledField(field.box, field.resolution, field.data @ m.T)
    raise TypeError(f"not a vector field: {type(field).__name__}")


def check_angle(angle: float) -> None:
    """Raise ValueError unless angle lies in [0, pi], give or take 1e-12."""
    if not -1e-12 <= angle <= math.pi + 1e-12:
        raise ValueError(f"angle {angle} outside [0, pi]")


def rotate_outer(field: VectorField, plane: UnitBivector,
                 angle: float) -> VectorField:
    """Rotate every value by ``angle`` in ``plane``, keeping the support.

    angle must lie in [0, pi] (check_angle); rotate in -plane to undo.
    """
    check_angle(angle)
    return _map_values(field, rotation_matrix(plane, angle))


def scale(field: VectorField, factor: float) -> VectorField:
    return _map_values(field, factor * np.eye(3))


def normalize(field: VectorField) -> VectorField:
    """Scale to unit L2 norm; raises for an (almost) zero or overflowing field."""
    return scale(field, 1.0 / checked_norm(l2_norm(field), "field", "normalize"))


def decompose(field: VectorField, plane: UnitBivector) -> PlaneDecomposition:
    """Split values into the part lying in the plane and the normal part."""
    proj = plane_projection_matrix(plane)
    return PlaneDecomposition(
        parallel=_map_values(field, proj),
        perpendicular=_map_values(field, np.eye(3) - proj),
    )


# ---------------------------------------------------------------------------
# (de)serialization: a tagged-union JSON document per field

def _box_to_dict(box: Box) -> dict:
    return {"low": list(box.low), "high": list(box.high)}

def _box_from_dict(d: dict) -> Box:
    low, high = _numbers([d["low"], d["high"]], "box corners")
    return Box(tuple(low), tuple(high))


def _numbers(rows: list, what: str) -> np.ndarray:
    """rows as an (n, 3) array if each row is three ints or floats (no bool)."""
    try:
        flat = list(chain.from_iterable(rows))
        ok = set(map(len, rows)) <= {3} and set(map(type, flat)) <= {int, float}
    except TypeError:  # rows, or one of them, is not a list
        ok = False
    if not ok:
        raise ValueError(f"{what} must be lists of three JSON numbers")
    try:
        return np.array(flat, dtype=float).reshape(-1, 3)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{what} must be finite") from None


def to_dict(field: VectorField) -> dict:
    if isinstance(field, LinearVectorField):
        return {"linear": {"matrix": field.matrix.tolist(),
                           "box": _box_to_dict(field.box)}}
    if isinstance(field, PiecewiseConstantField):
        return {"piecewise": [{"box": {"low": lo, "high": hi}, "vector": v}
                              for lo, hi, v in zip(field.low.tolist(),
                                                   field.high.tolist(),
                                                   field.values.tolist())]}
    if isinstance(field, SampledField):
        return {"grid": {"box": _box_to_dict(field.box),
                         "resolution": list(field.resolution),
                         "data": field.data.tolist()}}
    raise TypeError(f"not a vector field: {type(field).__name__}")


def from_dict(d: dict) -> VectorField:
    if not isinstance(d, dict) or len(d) != 1:
        raise ValueError("field document must have exactly one top-level kind")
    kind, body = next(iter(d.items()))
    try:
        if kind == "linear":
            return LinearVectorField(_numbers(body["matrix"], "matrix"),
                                     _box_from_dict(body["box"]))
        if kind == "piecewise":
            vectors = _numbers([c["vector"] for c in body], "cell vectors")
            return PiecewiseConstantField(tuple(
                (_box_from_dict(c["box"]), v) for c, v in zip(body, vectors)))
        if kind == "grid":
            return SampledField(_box_from_dict(body["box"]),
                                tuple(body["resolution"]),
                                _numbers(body["data"], "grid data"))
    except KeyError as exc:  # of the body, a cell or a box
        raise ValueError(f"{kind} field has no {exc.args[0]!r} entry") from None
    except TypeError:  # an object where a list belongs, or the reverse
        raise ValueError(f"{kind} field has a JSON value of the wrong type") from None
    raise ValueError(f"unknown field kind {kind!r}")


def load_field(path) -> VectorField:
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:  # a malformed file, like any other bad document
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return from_dict(doc)


# ---------------------------------------------------------------------------
# sampling

def sample(field: VectorField, box: Box, resolution) -> SampledField:
    """Sample any field at the cell centers of a fresh grid."""
    res = _checked_resolution(resolution)
    return SampledField(box, res, evaluate_many(field, _cell_centers(box, res)))
