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

from .ga3 import Multivector, PolarForm, polar_decompose
from .fields import VectorField, checked_norm, cross_moment, l2_norm


def moment_parts(k) -> tuple[float, tuple[float, float, float]]:
    """Fold K[i, j] = integral of A_i B_j, given as nine floats in row-major
    order (cross_moment(a, b).ravel().tolist()), into the correlation's
    scalar part and its bivector part (b12, b13, b23): tr K summed in the
    order np.trace uses, and the antisymmetric part of K."""
    k00, k01, k02, k10, k11, k12, k20, k21, k22 = k
    return k00 + k11 + k22, (k01 - k10, k02 - k20, k12 - k21)


def correlate_at_origin(a: VectorField, b: VectorField) -> Multivector:
    """Zero-lag geometric cross correlation, reverse(A) times B integrated.

    The first argument is the one that gets reversed; vectors are their own
    reverse, so swapping the arguments flips the sign of the bivector part.
    """
    sc, biv = moment_parts(cross_moment(a, b).ravel().tolist())
    return Multivector.from_even((sc, *biv))


@dataclass(frozen=True)
class CorrelationResult:
    """Raw and norm-scaled correlation plus its polar reading."""

    raw: Multivector
    normalized: Multivector
    polar: PolarForm


def normalized_correlation(a: VectorField, b: VectorField) -> CorrelationResult:
    """Correlate and scale by the product of the field norms.

    Raises ValueError when either field has zero norm or an energy that
    overflows (checked_norm), or when the normalized correlation sits at
    rounding level (below 1e-12) so that no meaningful polar form exists.
    """
    na, nb = (checked_norm(l2_norm(f), "field", "normalize the correlation of")
              for f in (a, b))
    raw = correlate_at_origin(a, b)
    normalized = raw / (na * nb)
    if normalized.norm() <= 1e-12:
        raise ValueError("correlation is zero; the fields are orthogonal")
    return CorrelationResult(raw=raw, normalized=normalized,
                             polar=polar_decompose(normalized))
