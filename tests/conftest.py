"""Shared test oracles, independent of the package implementation.

The algebra oracle represents Cl(3,0) by 2x2 complex matrices (e_i mapped to
the Pauli matrix sigma_i), so multiplication is plain matrix multiplication
and never touches the package's generated table.  The integration oracle is a
brute-force midpoint sum written with explicit loops over a modest grid.
The overlap_calls fixture counts the package's O(n^2) cell-pair matrices,
and box_constructions the Box objects the package builds; shared_cell_pair
builds the seeded piecewise pairs that several test modules detect on.
"""

import math

import numpy as np
import pytest

from rotalign import fields
from rotalign.ga3 import UnitBivector, rotation_matrix

# Ordered to match the package basis [1, e1, e2, e3, e12, e13, e23, e123].
_I2 = np.eye(2, dtype=complex)
_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_BLADES = [
    _I2, _S1, _S2, _S3,
    _S1 @ _S2, _S1 @ _S3, _S2 @ _S3,
    _S1 @ _S2 @ _S3,
]


def pauli_matrix(coeffs):
    """Map 8 multivector coefficients to the representing 2x2 matrix."""
    m = np.zeros((2, 2), dtype=complex)
    for c, blade in zip(coeffs, PAULI_BLADES):
        m = m + c * blade
    return m


def pauli_coeffs(m):
    """Invert pauli_matrix: the blades are orthonormal under Re tr(A^H B)/2."""
    return np.array([np.real(np.trace(b.conj().T @ m)) / 2.0 for b in PAULI_BLADES])


def oracle_product(a, b):
    """Geometric product of two coefficient arrays via the matrix picture."""
    return pauli_coeffs(pauli_matrix(a) @ pauli_matrix(b))


def midpoint_correlate(eval_a, eval_b, low, high, resolution):
    """Midpoint-rule integral of reverse(A(y)) B(y) over a box.

    eval_a and eval_b map a 3-point to a 3-vector; the fields are vector
    valued so reversion is the identity on the sample values.  Returns 8
    multivector coefficients.  Deliberately loop-based and slow.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    res = np.asarray(resolution, dtype=int)
    h = (high - low) / res
    cell_vol = float(np.prod(h))
    total = np.zeros(8)
    for i in range(res[0]):
        for j in range(res[1]):
            for k in range(res[2]):
                y = low + (np.array([i, j, k]) + 0.5) * h
                a = np.zeros(8)
                a[1:4] = eval_a(y)
                b = np.zeros(8)
                b[1:4] = eval_b(y)
                total += oracle_product(a, b) * cell_vol
    return total


def midpoint_moment(eval_a, eval_b, low, high, resolution):
    """Midpoint-rule integral of the 3x3 matrix A(y) B(y)^T over a box,
    with the same explicit loops as midpoint_correlate."""
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    res = np.asarray(resolution, dtype=int)
    h = (high - low) / res
    total = np.zeros((3, 3))
    for i in range(res[0]):
        for j in range(res[1]):
            for k in range(res[2]):
                y = low + (np.array([i, j, k]) + 0.5) * h
                total += np.outer(eval_a(y), eval_b(y))
    return total * float(np.prod(h))


def midpoint_linear_shortfall(a, b, volume, h):
    """What the midpoint rule misses on a linear pair over grid-aligned
    cells: only x_i^2 is not linear per cell, and it falls short by the
    variance h_i^2 / 12 of x_i over a cell."""
    return a.matrix @ np.diag(volume * np.asarray(h) ** 2 / 12.0) @ b.matrix.T


def jittered_split(rng, split):
    """Low and high corners, each (n, 3), of the cells of a split of
    [-1, 1]^3 into split[0] x split[1] x split[2] cells at random edges."""
    edges = [np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, n - 1)), [1.0]))
             for n in split]
    idx = np.stack(np.unravel_index(np.arange(math.prod(split)), split), axis=1)
    low = np.stack([edges[a][idx[:, a]] for a in range(3)], axis=1)
    high = np.stack([edges[a][idx[:, a] + 1] for a in range(3)], axis=1)
    return low, high


def shared_cell_pair(rng, angle=2.0):
    """An 18-cell reference and its copy rotated by angle about a random
    plane, built like a registered pair: the same cell corners, as distinct
    arrays."""
    low, high = jittered_split(rng, (3, 3, 2))
    values = rng.uniform(-1.0, 1.0, (18, 3))
    plane = UnitBivector.from_normal(rng.standard_normal(3))
    rotated = values @ rotation_matrix(plane, angle).T
    return tuple(fields.PiecewiseConstantField(tuple(
        (fields.Box(tuple(lo), tuple(hi)), v) for lo, hi, v in zip(low, high, vals)))
        for vals in (values, rotated))


@pytest.fixture
def overlap_calls(monkeypatch):
    """Record the cell-pair count of each fields.overlap_volumes call."""
    calls = []
    original = fields.overlap_volumes

    def counted(low_a, high_a, low_b, high_b):
        calls.append(len(low_a) * len(low_b))
        return original(low_a, high_a, low_b, high_b)

    monkeypatch.setattr(fields, "overlap_volumes", counted)
    return calls


@pytest.fixture
def box_constructions(monkeypatch):
    """Record the corners of each fields.Box built while installed."""
    built = []
    original = fields.Box.__post_init__

    def counted(box):
        original(box)
        built.append((box.low, box.high))

    monkeypatch.setattr(fields.Box, "__post_init__", counted)
    return built
