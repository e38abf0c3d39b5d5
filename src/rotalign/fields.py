"""Compactly supported 3D vector fields and the operations the detector needs.

Three representations cover the use cases:

* ``LinearVectorField``   value A @ x on a box, zero outside
* ``PiecewiseConstantField``  constant 3-vectors on disjoint boxes
* ``SampledField``        dense samples at the cell centers of a regular grid

Rotation acts on the *values* only (an outer rotation): the support is left
alone and every sample v(x) becomes R v(x) reverse(R).  Box membership is
half-open, low <= x < high, so adjacent cells never double-count a face.

Integrals of linear and piecewise fields are closed-form through per-axis
moments; sampled fields integrate by the midpoint rule on their own grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from .ga3 import Multivector, UnitBivector, grade, rotation_matrix


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [low, high) with positive extent on every axis."""

    low: tuple[float, float, float]
    high: tuple[float, float, float]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.low)
        hi = tuple(float(x) for x in self.high)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("box corners must be 3-vectors")
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

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.low_array) and np.all(x < self.high_array))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return np.all(pts >= self.low_array, axis=1) & \
            np.all(pts < self.high_array, axis=1)

    def intersect(self, other: "Box") -> "Box | None":
        lo = np.maximum(self.low_array, other.low_array)
        hi = np.minimum(self.high_array, other.high_array)
        if np.any(hi <= lo):
            return None
        return Box(tuple(lo), tuple(hi))

    def first_moment(self) -> np.ndarray:
        """Integral of x over the box: its volume times its centre."""
        return self.volume() * (self.low_array + self.high_array) / 2.0

    def second_moment_matrix(self) -> np.ndarray:
        """Matrix X with X[i, j] = integral of x_i x_j over the box.

        The axes integrate independently: off the diagonal X is the volume
        times the product of centre coordinates, and on it the volume times
        the mean of x_i^2 over [lo, hi), (lo^2 + lo hi + hi^2) / 3.
        """
        lo, hi = self.low_array, self.high_array
        vol = self.volume()
        centre = (lo + hi) / 2.0
        x = vol * np.outer(centre, centre)
        np.fill_diagonal(x, vol * (lo * lo + lo * hi + hi * hi) / 3.0)
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


@dataclass(frozen=True)
class LinearVectorField:
    """v(x) = matrix @ x inside the box, zero outside."""

    matrix: np.ndarray
    box: Box = UNIT_BOX

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"matrix must be 3x3, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class PiecewiseConstantField:
    """Constant 3-vector per box; the boxes must have disjoint interiors."""

    cells: tuple[tuple[Box, np.ndarray], ...]

    def __post_init__(self):
        cells = []
        for box, value in self.cells:
            v = np.asarray(value, dtype=float)
            if v.shape != (3,):
                raise ValueError(f"cell value must be a 3-vector, got {v.shape}")
            v = v.copy()
            v.flags.writeable = False
            cells.append((box, v))
        object.__setattr__(self, "cells", tuple(cells))
        low, high, _ = self.arrays()
        overlaps = np.argwhere(np.triu(overlap_volumes(low, high, low, high) > 0.0, 1))
        if len(overlaps):
            i, j = overlaps[0]
            raise ValueError(f"cells {i} and {j} overlap")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Low corners, high corners and values of the cells, each (n, 3)."""
        return (np.array([box.low for box, _ in self.cells]).reshape(-1, 3),
                np.array([box.high for box, _ in self.cells]).reshape(-1, 3),
                np.array([v for _, v in self.cells]).reshape(-1, 3))


@dataclass(frozen=True)
class SampledField:
    """Samples at the cell centers of a regular grid over a box.

    data has shape (nx * ny * nz, 3), row-major in (x, y, z) order: the
    sample for cell (i, j, k) sits at index (i * ny + j) * nz + k.
    """

    box: Box
    resolution: tuple[int, int, int]
    data: np.ndarray

    def __post_init__(self):
        res = tuple(int(n) for n in self.resolution)
        if len(res) != 3 or any(n < 1 for n in res):
            raise ValueError(f"bad resolution {self.resolution}")
        d = np.asarray(self.data, dtype=float)
        n = res[0] * res[1] * res[2]
        if d.shape != (n, 3):
            raise ValueError(f"data shape {d.shape} does not match resolution {res}")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "data", d)

    @property
    def spacing(self) -> np.ndarray:
        return (self.box.high_array - self.box.low_array) / np.array(self.resolution)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> np.ndarray:
        """(n, 3) array of sample locations in data order."""
        nx, ny, nz = self.resolution
        h = self.spacing
        lo = self.box.low_array
        ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij")
        idx = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3)
        return lo + (idx + 0.5) * h


VectorField = LinearVectorField | PiecewiseConstantField | SampledField


@dataclass(frozen=True)
class PlaneDecomposition:
    """Pointwise split of a field into in-plane and normal components."""

    parallel: VectorField
    perpendicular: VectorField


def plane_projection_matrix(plane: UnitBivector) -> np.ndarray:
    """Matrix projecting a vector onto the plane.

    Built from the contraction identity: the in-plane part of v is
    <<v P>_1 (-P)>_1 (the unit bivector inverts to -P).
    """
    pm = plane.as_multivector()
    cols = []
    for e in np.eye(3):
        v = Multivector.from_vector(e)
        contracted = grade(v * pm, 1)
        cols.append(grade(contracted * (-pm), 1).vector)
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# evaluation

@singledispatch
def evaluate(field, x) -> np.ndarray:
    """Value of the field at a point (zero outside the support)."""
    raise TypeError(f"not a vector field: {type(field).__name__}")


@evaluate.register
def _(field: LinearVectorField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not field.box.contains(x):
        return np.zeros(3)
    return field.matrix @ x


@evaluate.register
def _(field: PiecewiseConstantField, x) -> np.ndarray:
    for box, value in field.cells:
        if box.contains(x):
            return value.copy()
    return np.zeros(3)


@evaluate.register
def _(field: SampledField, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not field.box.contains(x):
        return np.zeros(3)
    idx = np.floor((x - field.box.low_array) / field.spacing).astype(int)
    idx = np.minimum(idx, np.array(field.resolution) - 1)
    i, j, k = idx
    ny, nz = field.resolution[1], field.resolution[2]
    return field.data[(i * ny + j) * nz + k].copy()


@singledispatch
def evaluate_many(field, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an (n, 3) array of points."""
    raise TypeError(f"not a vector field: {type(field).__name__}")


@evaluate_many.register
def _(field: LinearVectorField, pts: np.ndarray) -> np.ndarray:
    out = pts @ field.matrix.T
    out[~field.box.contains_many(pts)] = 0.0
    return out


@evaluate_many.register
def _(field: PiecewiseConstantField, pts: np.ndarray) -> np.ndarray:
    out = np.zeros_like(pts)
    for box, value in field.cells:
        out[box.contains_many(pts)] = value
    return out


@evaluate_many.register
def _(field: SampledField, pts: np.ndarray) -> np.ndarray:
    out = np.zeros_like(pts)
    inside = field.box.contains_many(pts)
    idx = np.floor((pts[inside] - field.box.low_array) / field.spacing).astype(int)
    idx = np.minimum(idx, np.array(field.resolution) - 1)
    ny, nz = field.resolution[1], field.resolution[2]
    flat = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
    out[inside] = field.data[flat]
    return out


# ---------------------------------------------------------------------------
# support and norms

@singledispatch
def support(field) -> Box:
    """Bounding box of the field's support."""
    raise TypeError(f"not a vector field: {type(field).__name__}")


@support.register
def _(field: LinearVectorField) -> Box:
    return field.box


@support.register
def _(field: PiecewiseConstantField) -> Box:
    lo = np.min([b.low_array for b, _ in field.cells], axis=0)
    hi = np.max([b.high_array for b, _ in field.cells], axis=0)
    return Box(tuple(lo), tuple(hi))


@support.register
def _(field: SampledField) -> Box:
    return field.box


@singledispatch
def l2_norm(field) -> float:
    """L2 norm, sqrt of the integral of |v(x)|^2 over the support."""
    raise TypeError(f"not a vector field: {type(field).__name__}")


@l2_norm.register
def _(field: LinearVectorField) -> float:
    x = field.box.second_moment_matrix()
    return float(np.sqrt(np.trace(field.matrix @ x @ field.matrix.T)))


@l2_norm.register
def _(field: PiecewiseConstantField) -> float:
    return float(np.sqrt(sum(box.volume() * float(v @ v)
                             for box, v in field.cells)))


@l2_norm.register
def _(field: SampledField) -> float:
    return float(np.sqrt(np.sum(field.data ** 2) * field.cell_volume()))


# ---------------------------------------------------------------------------
# pointwise linear maps: rotation, scaling, projection

def _map_values(field: VectorField, m: np.ndarray) -> VectorField:
    """Apply a 3x3 matrix to every field value."""
    if isinstance(field, LinearVectorField):
        return LinearVectorField(m @ field.matrix, field.box)
    if isinstance(field, PiecewiseConstantField):
        return PiecewiseConstantField(
            tuple((box, m @ v) for box, v in field.cells))
    if isinstance(field, SampledField):
        return SampledField(field.box, field.resolution, field.data @ m.T)
    raise TypeError(f"not a vector field: {type(field).__name__}")


def rotate_outer(field: VectorField, plane: UnitBivector,
                 angle: float) -> VectorField:
    """Rotate every value by ``angle`` in ``plane``, keeping the support.

    angle must lie in [0, pi]; rotate in -plane to undo.
    """
    if not -1e-12 <= angle <= np.pi + 1e-12:
        raise ValueError(f"angle {angle} outside [0, pi]")
    return _map_values(field, rotation_matrix(plane, angle))


def scale(field: VectorField, factor: float) -> VectorField:
    return _map_values(field, factor * np.eye(3))


def normalize(field: VectorField) -> VectorField:
    """Scale to unit L2 norm; raises for an (almost) zero field."""
    n = l2_norm(field)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero field")
    return scale(field, 1.0 / n)


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
    return Box(tuple(d["low"]), tuple(d["high"]))


def to_dict(field: VectorField) -> dict:
    if isinstance(field, LinearVectorField):
        return {"linear": {"matrix": field.matrix.tolist(),
                           "box": _box_to_dict(field.box)}}
    if isinstance(field, PiecewiseConstantField):
        return {"piecewise": [{"box": _box_to_dict(box), "vector": v.tolist()}
                              for box, v in field.cells]}
    if isinstance(field, SampledField):
        return {"grid": {"box": _box_to_dict(field.box),
                         "resolution": list(field.resolution),
                         "data": field.data.tolist()}}
    raise TypeError(f"not a vector field: {type(field).__name__}")


def from_dict(d: dict) -> VectorField:
    if not isinstance(d, dict) or len(d) != 1:
        raise ValueError("field document must have exactly one top-level kind")
    kind, body = next(iter(d.items()))
    if kind == "linear":
        return LinearVectorField(np.asarray(body["matrix"], dtype=float),
                                 _box_from_dict(body["box"]))
    if kind == "piecewise":
        return PiecewiseConstantField(
            tuple((_box_from_dict(c["box"]), np.asarray(c["vector"], dtype=float))
                  for c in body))
    if kind == "grid":
        return SampledField(_box_from_dict(body["box"]),
                            tuple(body["resolution"]),
                            np.asarray(body["data"], dtype=float))
    raise ValueError(f"unknown field kind {kind!r}")


def save_field(field: VectorField, path) -> None:
    with open(path, "w") as f:
        json.dump(to_dict(field), f)


def load_field(path) -> VectorField:
    with open(path) as f:
        return from_dict(json.load(f))


# ---------------------------------------------------------------------------
# sampling

def sample(field: VectorField, box: Box, resolution) -> SampledField:
    """Sample any field at the cell centers of a fresh grid."""
    res = tuple(int(n) for n in resolution)
    shell = SampledField(box, res, np.zeros((res[0] * res[1] * res[2], 3)))
    return SampledField(box, res, evaluate_many(field, shell.cell_centers()))
