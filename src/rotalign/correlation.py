"""Geometric cross correlation of vector fields, evaluated at zero lag.

The quantity of interest is the multivector

    integral of reverse(A(y)) B(y) dy

taken over the overlap of the supports.  For vector-valued fields the
integrand is a geometric product of two vectors, so the result carries only a
scalar part (the L2 inner product) and a bivector part (the integrated wedge).

Both parts are folds of one 3x3 cross moment K = integral of A B^T: the
scalar is tr K and the bivector the antisymmetric part of K.  An outer
rotation R of the first field acts on K as R K, which is what lets the
detector integrate once per detection.  Linear and piecewise-constant fields
integrate in closed form through box moments.  Pairs involving a sampled
field use the midpoint rule on the sampled grid; two sampled fields must
share their grid geometry exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ga3 import Multivector, PolarForm, polar_decompose
from .fields import (
    Box, LinearVectorField, PiecewiseConstantField, SampledField, VectorField,
    evaluate_many, l2_norm, overlap_volumes, support,
)


def _even_mv(scalar: float, biv: np.ndarray) -> Multivector:
    c = np.zeros(8)
    c[0] = scalar
    c[4:7] = biv
    return Multivector(c)


def moment_parts(k: np.ndarray) -> tuple[float, np.ndarray]:
    """Fold K[i, j] = integral of A_i B_j into the correlation's scalar part
    and its bivector part (b12, b13, b23)."""
    return float(np.trace(k)), np.array(
        [k[0, 1] - k[1, 0], k[0, 2] - k[2, 0], k[1, 2] - k[2, 1]])


def _piecewise_linear_moment(a: PiecewiseConstantField,
                             b: LinearVectorField) -> np.ndarray:
    """Sum over cells of a_cell (B m1)^T, m1 the first moment of the cell's
    overlap with b's box (zero for a cell outside it)."""
    low, high, values = a.arrays()
    low = np.maximum(low, b.box.low_array)
    high = np.minimum(high, b.box.high_array)
    volume = np.prod(np.maximum(high - low, 0.0), axis=1)
    first = volume[:, None] * (low + high) / 2.0
    return values.T @ first @ b.matrix.T


def _grid_moment(grid: SampledField, a: VectorField,
                 b: VectorField) -> np.ndarray:
    pts = grid.cell_centers()
    va = a.data if a is grid else evaluate_many(a, pts)
    vb = b.data if b is grid else evaluate_many(b, pts)
    return grid.cell_volume() * (va.T @ vb)


def _same_grid(a: SampledField, b: SampledField) -> bool:
    return a.resolution == b.resolution and a.box == b.box


def cross_moment(a: VectorField, b: VectorField) -> np.ndarray:
    """3x3 matrix K = integral of a(y) b(y)^T over the common support.

    Linear pairs give A X B^T with X the second moment of the overlap box,
    piecewise pairs Va^T W Vb with W the cell-overlap volumes; a sampled
    field integrates by the midpoint rule on its grid.  cross_moment(v, v)
    is the self-moment S, whose trace is l2_norm(v)**2.
    """
    if isinstance(a, LinearVectorField) and isinstance(b, LinearVectorField):
        overlap = a.box.intersect(b.box)
        if overlap is None:
            return np.zeros((3, 3))
        return a.matrix @ overlap.second_moment_matrix() @ b.matrix.T
    if isinstance(a, PiecewiseConstantField) and isinstance(b, PiecewiseConstantField):
        low_a, high_a, va = a.arrays()
        low_b, high_b, vb = b.arrays()
        return va.T @ overlap_volumes(low_a, high_a, low_b, high_b) @ vb
    if isinstance(a, PiecewiseConstantField) and isinstance(b, LinearVectorField):
        return _piecewise_linear_moment(a, b)
    if isinstance(a, LinearVectorField) and isinstance(b, PiecewiseConstantField):
        return _piecewise_linear_moment(b, a).T
    if isinstance(a, SampledField) and isinstance(b, SampledField):
        if not _same_grid(a, b):
            raise ValueError("sampled fields must share an identical grid")
        return a.cell_volume() * (a.data.T @ b.data)
    if isinstance(a, SampledField):
        return _grid_moment(a, a, b)
    if isinstance(b, SampledField):
        return _grid_moment(b, a, b)
    raise TypeError(
        f"cannot correlate {type(a).__name__} with {type(b).__name__}")


def correlate_at_origin(a: VectorField, b: VectorField) -> Multivector:
    """Zero-lag geometric cross correlation, reverse(A) times B integrated.

    The first argument is the one that gets reversed; vectors are their own
    reverse, so swapping the arguments flips the sign of the bivector part.
    """
    return _even_mv(*moment_parts(cross_moment(a, b)))


@dataclass(frozen=True)
class CorrelationResult:
    """Raw and norm-scaled correlation plus its polar reading.

    odd_residue is the Euclidean norm of the grade-1 and grade-3 coefficients
    of the normalized correlation; it should sit at rounding level for any
    genuine pair of vector fields.
    """

    raw: Multivector
    normalized: Multivector
    polar: PolarForm
    odd_residue: float


def normalized_correlation(a: VectorField, b: VectorField) -> CorrelationResult:
    """Correlate and scale by the product of the field norms.

    Raises ValueError when either field has zero norm, or when the
    normalized correlation sits at rounding level (below 1e-12) so that no
    meaningful polar form exists.
    """
    na, nb = l2_norm(a), l2_norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise ValueError("cannot normalize the correlation of a zero field")
    raw = correlate_at_origin(a, b)
    normalized = raw / (na * nb)
    c = normalized.coeffs
    odd = math.sqrt(c[1] ** 2 + c[2] ** 2 + c[3] ** 2 + c[7] ** 2)
    even = _even_mv(c[0], c[4:7].copy())
    if even.norm() <= 1e-12:
        raise ValueError("correlation is zero; the fields are orthogonal")
    return CorrelationResult(raw=raw, normalized=normalized,
                             polar=polar_decompose(even), odd_residue=odd)


def _bounding_box(a: VectorField, b: VectorField) -> Box:
    sa, sb = support(a), support(b)
    lo = np.minimum(sa.low_array, sb.low_array)
    hi = np.maximum(sa.high_array, sb.high_array)
    return Box(tuple(lo), tuple(hi))


def quadrature_correlate(a: VectorField, b: VectorField,
                         box: Box | None = None,
                         resolution: int = 64) -> Multivector:
    """Midpoint-rule estimate of the correlation on a fresh grid.

    Independent of the closed-form path; used to cross-check it.  The grid
    covers ``box`` (default: the union bounding box of both supports) with
    ``resolution`` cells per axis, processed one x-slab at a time to bound
    memory.
    """
    box = box or _bounding_box(a, b)
    n = int(resolution)
    lo, hi = box.low_array, box.high_array
    h = (hi - lo) / n
    cell_vol = float(np.prod(h))
    ys = lo[1] + (np.arange(n) + 0.5) * h[1]
    zs = lo[2] + (np.arange(n) + 0.5) * h[2]
    yy, zz = np.meshgrid(ys, zs, indexing="ij")
    slab = np.empty((n * n, 3))
    slab[:, 1] = yy.ravel()
    slab[:, 2] = zz.ravel()
    total = np.zeros((3, 3))
    for i in range(n):
        slab[:, 0] = lo[0] + (i + 0.5) * h[0]
        total += evaluate_many(a, slab).T @ evaluate_many(b, slab)
    return _even_mv(*moment_parts(cell_vol * total))
