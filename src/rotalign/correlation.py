"""Geometric cross correlation of vector fields, evaluated at zero lag.

The quantity of interest is the multivector

    integral of reverse(A(y)) B(y) dy

taken over the overlap of the supports.  For vector-valued fields the
integrand is a geometric product of two vectors, so the result carries only a
scalar part (the L2 inner product) and a bivector part (the integrated wedge).

Both parts are folds of one 3x3 cross moment K = integral of A B^T
(fields.cross_moment): the scalar is tr K and the bivector the antisymmetric
part of K.  An outer rotation R of the first field acts on K as R K, which
is what lets the detector integrate once per detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ga3 import Multivector, PolarForm, polar_decompose
from .fields import (
    Box, VectorField, cross_moment, evaluate_many, l2_norm, support,
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


def correlate_at_origin(a: VectorField, b: VectorField) -> Multivector:
    """Zero-lag geometric cross correlation, reverse(A) times B integrated.

    The first argument is the one that gets reversed; vectors are their own
    reverse, so swapping the arguments flips the sign of the bivector part.
    """
    return _even_mv(*moment_parts(cross_moment(a, b)))


@dataclass(frozen=True)
class CorrelationResult:
    """Raw and norm-scaled correlation plus its polar reading."""

    raw: Multivector
    normalized: Multivector
    polar: PolarForm


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
    if normalized.norm() <= 1e-12:
        raise ValueError("correlation is zero; the fields are orthogonal")
    return CorrelationResult(raw=raw, normalized=normalized,
                             polar=polar_decompose(normalized))


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
