"""Shared test oracles, independent of the package implementation.

The algebra oracle represents Cl(3,0) by 2x2 complex matrices (e_i mapped to
the Pauli matrix sigma_i), so multiplication is plain matrix multiplication
and never touches the package's generated table; midpoint_correlate sums
those products over a modest grid with explicit loops.  midpoint_moment is
the midpoint sum of K = integral of a b^T, which quadrature_correlate folds
into criterion 8's check of the closed form.  evaluate, support, save_field,
coefficient_error and residual_angle are here because only tests call them.
The overlap_calls fixture counts the package's O(n^2) cell-pair matrices,
and box_constructions the Box objects the package builds; shared_cell_pair
builds the seeded piecewise pairs that several test modules detect on,
piecewise_pairs the behaviour lock's 200 of them, and mv, two_halves,
random_plane and random_linear build the small multivectors and fields the
test modules share, which close_to compares.  trial_loops captures the K
and S that run_trial passes to detect_moments, with its loop and error.

The detection pass is here as functions of their own, the shifted power step
detector._passes writes out inline: power_read reads tr K and w, the
correlation's bivector B carried onto the net rotor q, off Horn's 4x4 N of
K0 in the rotor's layout (horn_matrix) and q; power_step moves q to
(d q + w) / h, fed by halfway_feed on a common pass and by angle_feed, an
angle and a unit normal carried onto q, on an explicit one;
carried_bivector reads B back off w.  Every four-float tuple is a rotor,
(scalar, b12, b13, b23).  reference_detect_moments is the loop of those
calls, the bit-for-bit reference for detect_moments: it records each pass
as it runs and returns the five outputs, which outputs reads off either.
An explicit pass takes its angle, normal and exit from
detector._explicit_step, on B read back off w and the pass's own |B|.
reference_detect is detect with every output computed before the report
is returned, on the K and S that pair_floats reads as detect does: the
bit-for-bit reference for a report that replays its passes and rotates its
pattern on first read.
"""

import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from rotalign import experiments, fields
from rotalign.correlation import correlate_at_origin, moment_parts
from rotalign.detector import _MisfitModel, _explicit_step, detect_moments
from rotalign.experiments import draw_trial, run_trial
from rotalign.ga3 import (
    ZERO_BIVECTOR_RTOL, Multivector, UnitBivector, rotation_matrix,
    rotation_rotor, rotor_product, rotor_rotation,
)

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


def close_to(a, b, tol=1e-12):
    """Whether the multivectors a and b agree coefficient by coefficient
    within the absolute tolerance tol."""
    return bool(np.allclose(a.coeffs, b.coeffs, rtol=0.0, atol=tol))


def mv(**kw):
    """The multivector with the named coefficients, the rest 0."""
    names = ["s", "e1", "e2", "e3", "e12", "e13", "e23", "e123"]
    c = np.zeros(8)
    for k, v in kw.items():
        c[names.index(k)] = v
    return Multivector(c)


def two_halves(right, left):
    """right on the x > 0 half of [-1, 1]^3, left on the x < 0 half."""
    return fields.PiecewiseConstantField((
        (fields.Box((0, -1, -1), (1, 1, 1)), right),
        (fields.Box((-1, -1, -1), (0, 1, 1)), left),
    ))


def random_plane(rng):
    v = rng.standard_normal(3)
    return UnitBivector.from_components(*(v / np.linalg.norm(v)))


def random_linear(rng):
    return fields.LinearVectorField(rng.uniform(-1, 1, (3, 3)))


def evaluate(field, x):
    """Value of the field at a point (zero outside the support)."""
    return fields.evaluate_many(field, np.asarray(x, dtype=float).reshape(1, 3))[0]


def support(field):
    """Bounding box of the field's support."""
    if isinstance(field, (fields.LinearVectorField, fields.SampledField)):
        return field.box
    if isinstance(field, fields.PiecewiseConstantField):
        return fields.Box(tuple(field.low.min(axis=0)),
                          tuple(field.high.max(axis=0)))
    raise TypeError(f"not a vector field: {type(field).__name__}")


def save_field(field, path):
    """Write the field's JSON document, which fields.load_field reads."""
    with open(path, "w") as f:
        json.dump(fields.to_dict(field), f)


def coefficient_error(original, recovered):
    """Frobenius distance between two linear fields' coefficient matrices."""
    if original.box != recovered.box:
        raise ValueError("fields must share a support box")
    return float(np.linalg.norm(original.matrix - recovered.matrix))


def residual_angle(net, true_plane, true_angle):
    """Angle in [0, pi] left when the net rotor net corrects the generating
    rotation (true_plane, true_angle): after pass k that of nets[k - 1],
    before the first that of (1, 0, 0, 0), and 0 when net undoes it."""
    true = rotation_rotor(true_plane, true_angle)
    return rotor_rotation(rotor_product(net, true))[0]


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


def midpoint_moment(a, b, low, high, resolution):
    """Midpoint-rule integral of a(y) b(y)^T for fields a and b over the box
    [low, high), resolution[i] cells on axis i, summed one x-slab of cell
    centres at a time to bound memory."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    nx, ny, nz = resolution
    h = (high - low) / np.array(resolution)
    yy, zz = np.meshgrid(low[1] + (np.arange(ny) + 0.5) * h[1],
                         low[2] + (np.arange(nz) + 0.5) * h[2], indexing="ij")
    slab = np.column_stack((np.empty(ny * nz), yy.ravel(), zz.ravel()))
    total = np.zeros((3, 3))
    for i in range(nx):
        slab[:, 0] = low[0] + (i + 0.5) * h[0]
        total += fields.evaluate_many(a, slab).T @ fields.evaluate_many(b, slab)
    return float(np.prod(h)) * total


def quadrature_correlate(a, b, box=None, resolution=64):
    """correlate_at_origin(a, b) by the midpoint rule, resolution cells per
    axis over box (default: the union bounding box of both supports), folded
    by moment_parts."""
    if box is None:
        sa, sb = support(a), support(b)
        box = fields.Box(tuple(np.minimum(sa.low_array, sb.low_array)),
                         tuple(np.maximum(sa.high_array, sb.high_array)))
    k = midpoint_moment(a, b, box.low, box.high, (resolution,) * 3)
    sc, biv = moment_parts(k.ravel().tolist())
    return Multivector.from_even((sc, *biv))


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


PIECEWISE_SEED = 12
N_PAIRS = 200


def piecewise_pairs():
    """The behaviour lock's (reference, pattern) pairs: pair i rotates a
    shared_cell_pair by an angle drawn in [0, pi), all from the stream
    seeded with (PIECEWISE_SEED, i)."""
    for i in range(N_PAIRS):
        rng = np.random.default_rng((PIECEWISE_SEED, i))
        angle = rng.uniform(0.0, math.pi)
        yield shared_cell_pair(rng, angle)


def horn_matrix(k) -> tuple[tuple[float, ...], ...]:
    """Horn's symmetric 4x4 N of K0, nine floats row-major, as four rows in
    the rotor's layout: tr(R(q) K0) = q^T N q for a rotor q (Horn 1987,
    whose quaternion of q is (q0, -q23, q13, -q12))."""
    k0, k1, k2, k3, k4, k5, k6, k7, k8 = k
    return ((k0 + k4 + k8, k3 - k1, k6 - k2, k7 - k5),
            (k3 - k1, k8 - k0 - k4, -(k5 + k7), k2 + k6),
            (k6 - k2, -(k5 + k7), k4 - k0 - k8, -(k1 + k3)),
            (k7 - k5, k2 + k6, -(k1 + k3), k0 - k4 - k8))


def horn_times(m, q) -> tuple[float, list[float]]:
    """(q . p, p) for p = N q, K0's horn_matrix m times the rotor q, each
    sum taken left to right."""
    p = [row[0] * q[0] + row[1] * q[1] + row[2] * q[2] + row[3] * q[3]
         for row in m]
    return q[0] * p[0] + q[1] * p[1] + q[2] * p[2] + q[3] * p[3], p


def carried_bivector(q, w) -> tuple[float, float, float]:
    """(b12, b13, b23) of -w reverse(q), by rotor_product: B read back off
    w = -B q, the bivector B carried onto the rotor q."""
    return rotor_product(w, (-q[0], q[1], q[2], q[3]))[1:]


def halfway_feed(sc: float, w) -> tuple[float, float, float, tuple]:
    """power_step's feed for the argument of C = sc + B in C's plane, with
    B carried onto q as w and no angle: (sc, |B|, |C|, w).  Scaling sc and w
    by a power of two scales the feed exactly and changes no bit of the
    step; B must name a plane (ga3.argument)."""
    bmag = math.hypot(*w)
    return sc, bmag, math.hypot(sc, bmag), w


def angle_feed(phi: float, n, q) -> tuple[float, float, float, tuple]:
    """power_step's feed for the rotation by phi about the unit normal n:
    the unit correlation cos(phi) + sin(phi) Q, Q dual to n, as
    (cos(phi), sin(phi), 1) and w = -sin(phi) Q q, sin(phi) Q carried onto
    the rotor q by rotor_product."""
    c, t = math.cos(phi), math.sin(phi)
    return c, t, 1.0, rotor_product((0.0, -t * n[2], t * n[1], -t * n[0]), q)


def power_read(m, q) -> tuple[float, tuple[float, float, float, float]]:
    """(tr K, w) of K = R K0 for the rotor q of R, read off K0's
    horn_matrix m: p = N q, tr K = q . p and w = p - tr K q = -B q, C's
    bivector B carried onto q, whose length is |B| for a unit q.  Both
    scale with |q|^2, and reading -q gives -w and the same B."""
    sc, p = horn_times(m, q)
    return sc, tuple(pi - sc * qi for pi, qi in zip(p, q))


def power_step(sc: float, bmag: float, r: float, w, q
               ) -> tuple[float, float, float, float]:
    """q after the paper's step for the feed (sc, |B|, r) with B carried
    onto q as w: (d q + w) / hypot(d, |B|), d = r + sc, or |B| (|B| / (r -
    sc)) for sc < 0, which neither cancels near the half-turn nor squares
    |B| out of range.  That is the step rotor (d - B) / hypot(d, |B|) times
    q, with no step rotor formed; for a common pass's feed,
    halfway_feed(tr K, w), it is the shifted power step (N + r I) q over its
    length, with r = |N q|."""
    d = r + sc if sc >= 0.0 else bmag * (bmag / (r - sc))
    h = math.hypot(d, bmag)
    return tuple((d * qi + wi) / h for qi, wi in zip(q, w))


def outputs(loop) -> tuple:
    """A detection's five outputs, (net, phi_trace, nets, iterations,
    converged): reading them replays a MomentDetection's nets and phi_trace."""
    return loop.net, loop.phi_trace, loop.nets, loop.iterations, loop.converged


def reference_detect_moments(k, s, config) -> SimpleNamespace:
    """detect_moments with each pass one power_read of q and one
    power_step: a common pass fed by halfway_feed(tr K, w), an explicit one
    by angle_feed, for the angle and normal that _explicit_step reads off
    B, read back off w.  Returns the five outputs it records, by name."""
    model = _MisfitModel(s)
    epsilon = config.epsilon
    m = horn_matrix(k)
    q = (1.0, 0.0, 0.0, 0.0)
    iterations = 0
    converged = False
    trace: list[float] = []
    nets: list[tuple[float, float, float, float]] = []

    while not converged and iterations < config.max_iterations:
        iterations += 1
        sc, w = power_read(m, q)
        bmag = math.hypot(*w)
        phi = math.atan2(bmag, sc)
        if phi > epsilon and bmag > ZERO_BIVECTOR_RTOL * abs(sc):
            feed = halfway_feed(sc, w)
        else:
            phi, n, converged = _explicit_step(model, sc, carried_bivector(q, w),
                                               bmag, phi, iterations == 1, epsilon)
            feed = angle_feed(phi, n, q)
        q = power_step(*feed, q)
        trace.append(phi)
        nets.append(q)

    return SimpleNamespace(net=nets[-1], phi_trace=tuple(trace), nets=tuple(nets),
                           iterations=iterations, converged=converged)


def pair_floats(pattern, reference) -> tuple[list[float], list[float]]:
    """K and S, nine row-major floats each, as detect reads them off
    fields.pair_moments(pattern, reference)."""
    moments = fields.pair_moments(pattern, reference).ravel().tolist()
    return moments[:9], moments[9:]


def reference_detect(reference, pattern, config) -> SimpleNamespace:
    """detect with every output computed before returning: the five of
    reference_detect_moments, and the pattern rotated by the net correction."""
    k, s = pair_floats(pattern, reference)
    # the scalar part of a field's self-correlation is its energy
    fields.checked_norm(math.sqrt(correlate_at_origin(pattern, pattern).scalar),
                        "pattern field", "detect rotation against")

    loop = reference_detect_moments(k, s, config)
    alpha, undo = rotor_rotation(loop.net)
    return SimpleNamespace(**vars(loop), alpha=alpha, plane=-undo,
                           corrected_pattern=fields.rotate_outer(pattern, undo,
                                                                 alpha))


def trial_loops(indices, epsilon: float, master_seed: int = 0) -> list:
    """(K0, S, loop, error) of each trial of indices (seed 0 unless
    master_seed says): the nine floats each of K0 and S that run_trial
    passes to detect_moments, the loop that call returns, whose iterations
    and converged run_trial returns, and run_trial's coefficient error."""
    calls, trials = [], []

    def record(k, s, config):
        calls.append((k, s, detect_moments(k, s, config)))
        return calls[-1][2]

    with mock.patch.object(experiments, "detect_moments", record):
        for index in indices:
            error = run_trial(draw_trial(master_seed, index, epsilon))[0]
            trials.append((*calls.pop(), error))
    return trials


def trial_loop(index: int, epsilon: float, master_seed: int = 0) -> tuple:
    """trial_loops of the one trial index."""
    return trial_loops((index,), epsilon, master_seed)[0]


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
