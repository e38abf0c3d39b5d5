"""Shared test oracles, independent of the package implementation.

The algebra oracle represents Cl(3,0) by 2x2 complex matrices (e_i mapped to
the Pauli matrix sigma_i), so multiplication is plain matrix multiplication
and never touches the package's generated table.  The integration oracle is a
brute-force midpoint sum written with explicit loops over a modest grid.
"""

import numpy as np

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
