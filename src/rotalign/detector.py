"""Iterative recovery of the outer rotation between a field and its copy.

Given a reference field v and a pattern u that is (approximately) an outer
rotated copy of v, each pass correlates the current pattern against v, reads
the argument angle phi and plane Q off the correlation, applies the
counter-rotation of phi in Q to the pattern, and accumulates the step into a
running rotation estimate.  The argument angle underestimates the remaining
misalignment (it carries at most half of it, weighted by how much of the
field's energy lies in the plane), so the loop walks the misalignment down
monotonically.

The passes run on the 3x3 cross moment K = integral of u v^T, integrated
once per detection: the correlation of the current pattern is the fold of K
(scalar tr K, bivector the antisymmetric part), and counter-rotating the
pattern by R turns K into R K.  detect_moments is that loop, a pure function
of K and the reference's self-moment S held as nine Python floats each; the
steps accumulate into one rotor, and detect rotates the pattern once, after
the loop.

The exit is certified.  Once phi drops to the configured tolerance epsilon,
the loop stops only if the corrected pattern's relative L2 misfit,
|u - v| / |v|, is within epsilon as predicted to first order from the
correlation and the reference's self-moment S = integral of v v^T: the
bivector of the correlation is the axial vector (tr S I - S) omega of the
residual rotation vector omega, and the relative misfit is
sqrt(omega^T (tr S I - S) omega / tr S).  phi alone can pass while the
misfit is still several epsilon: it scales with the share r of the energy
in the residual plane, the misfit with sqrt(r).  A pass that fails the
certificate replaces the paper's step by a rotation about -omega, shortened
so that the predicted misfit lands at epsilon.

Two degenerate starts need care.  A real-valued first correlation carries no
plane information: either the pattern already matches (phi = 0) or it sits at
the antipodal half-turn where the bivector part cancels.  Both are handled by
injecting a fixed disturbance rotation, DISTURBANCE_ANGLE in
DISTURBANCE_PLANE, on the first pass and letting the loop take it back out
again.

The report states the *generating* rotation: rotating the reference by
(plane, alpha) reproduces the input pattern.  The applied corrections undo
that rotation, so the accumulated correction plane is the reported plane with
its orientation flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ga3 import (
    E12, Rotor, UnitBivector, argument, matrix_product, rotation_entries,
    rotation_rotor, rotor_product, rotor_rotation,
)
from .fields import VectorField, cross_moment, rotate_outer
from .correlation import correlate_at_origin, moment_parts

# The rotation injected on the first pass when the correlation is real.
DISTURBANCE_ANGLE = math.pi / 4
DISTURBANCE_PLANE = E12


@dataclass(frozen=True)
class DetectionConfig:
    """Loop controls for detect().

    epsilon is the exit tolerance: the loop stops once the argument angle phi
    is within it and the corrected pattern's relative L2 misfit, predicted
    to first order, is within it too.
    """

    epsilon: float
    max_iterations: int = 1000

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a detection run.

    alpha and plane describe the generating rotation: rotate_outer(reference,
    plane, alpha) reproduces the pattern up to the exit tolerance.
    corrected_pattern is the pattern after all applied counter-rotations and
    matches the reference to the same level.  corrections holds the rotor
    applied in each pass, in application order; phi_trace the angle applied
    in each pass: the argument angle (after any disturbance override), the
    shortened correction of a pass that failed the certificate, or 0 for a
    last pass whose pattern was already within epsilon.  converged is True
    when the loop stopped on the certified exit: phi within epsilon and the
    corrected pattern's relative L2 misfit within epsilon, as predicted to
    first order.  It is False when the loop hit max_iterations first, in
    which case the rest of the report describes the partial state.
    """

    alpha: float
    plane: UnitBivector
    corrected_pattern: VectorField
    iterations: int
    phi_trace: tuple[float, ...]
    corrections: tuple[Rotor, ...]
    converged: bool


@dataclass(frozen=True)
class MomentDetection:
    """Outcome of detect_moments: the loop's part of a DetectionReport.

    net is the product of the corrections as (scalar, b12, b13, b23), the
    rotor that undoes the generating rotation; phi_trace, corrections,
    iterations and converged are as in DetectionReport.
    """

    net: tuple[float, float, float, float]
    phi_trace: tuple[float, ...]
    corrections: tuple[Rotor, ...]
    iterations: int
    converged: bool


def _checked_energy(energy: float, which: str) -> float:
    """A field's energy, checked to be finite and not that of a zero field."""
    if not math.isfinite(energy):
        raise ValueError(f"{which} field energy is not finite")
    if math.sqrt(energy) < 1e-300:
        raise ValueError("cannot detect rotation against a zero field")
    return energy


class _MisfitModel:
    """First-order misfit of a rotated copy of the reference, in closed form.

    For u = R v with R the rotation by the small vector omega, the bivector
    of correlate_at_origin(u, v) is dual to a = (tr S I - S) omega, and
    |u - v|^2 / |v|^2 = omega^T J omega with J = I - S / tr S, S the
    reference's self-moment.  J is scale-free: its eigenvalues lie in [0, 1],
    so no finite energy overflows, and scaling both fields by a power of two
    changes no bit of omega.  omega = J^+ a / tr S, with J^+ the inverse of
    J by cofactors when J's smallest eigenvalue, read as det J over the sum
    of its principal 2x2 minors, exceeds 1e-12 (rounding leaves an invisible
    axis at about 1e-16, either sign).  Otherwise S has rank <= 1 and J^+ is
    I - u u^T, with u the unit direction of S's largest column: it drops the
    rotation about the only value direction, which moves no value and so
    costs no misfit.  All of it is 3x3 algebra on Python floats; S is given
    as nine floats, row-major, and read from its lower triangle.
    """

    def __init__(self, s):
        s00, _, _, s10, s11, _, s20, s21, s22 = s
        self.energy = energy = _checked_energy(s00 + s11 + s22, "reference")
        j00, j01, j02 = 1.0 - s00 / energy, -s10 / energy, -s20 / energy
        j11, j12, j22 = 1.0 - s11 / energy, -s21 / energy, 1.0 - s22 / energy
        self.j = (j00, j01, j02, j11, j12, j22)
        c00, c01, c02 = (j11 * j22 - j12 * j12, j02 * j12 - j01 * j22,
                         j01 * j12 - j02 * j11)
        c11, c12, c22 = (j00 * j22 - j02 * j02, j01 * j02 - j00 * j12,
                         j00 * j11 - j01 * j01)
        det = j00 * c00 + j01 * c01 + j02 * c02
        if det > 1e-12 * (c00 + c11 + c22):
            self.pinv = (c00 / det, c01 / det, c02 / det,
                         c11 / det, c12 / det, c22 / det)
        else:
            columns = ((s00, s10, s20), (s10, s11, s21), (s20, s21, s22))
            x, y, z = max(columns, key=lambda c: math.hypot(*c))
            size = math.hypot(x, y, z)
            x, y, z = x / size, y / size, z / size
            self.pinv = (1.0 - x * x, -x * y, -x * z,
                         1.0 - y * y, -y * z, 1.0 - z * z)

    def rotation(self, biv) -> tuple[float, float, float]:
        """Residual rotation vector omega read off a correlation bivector."""
        b12, b13, b23 = biv
        e = self.energy
        x, y, z = -b23 / e, b13 / e, -b12 / e
        p00, p01, p02, p11, p12, p22 = self.pinv
        return (p00 * x + p01 * y + p02 * z,
                p01 * x + p11 * y + p12 * z,
                p02 * x + p12 * y + p22 * z)

    def misfit(self, omega) -> float:
        """Relative L2 misfit left by the residual rotation omega."""
        x, y, z = omega
        j00, j01, j02, j11, j12, j22 = self.j
        quad = (x * (j00 * x + j01 * y + j02 * z)
                + y * (j01 * x + j11 * y + j12 * z)
                + z * (j02 * x + j12 * y + j22 * z))
        return math.sqrt(max(quad, 0.0))


def _certified_step(model: _MisfitModel, biv: tuple[float, float, float],
                    phi: float, q: UnitBivector, epsilon: float
                    ) -> tuple[float, UnitBivector, bool]:
    """Step for a pass whose angle phi is within epsilon, and whether to stop.

    The paper's step (phi, q) ends the loop when the misfit it leaves,
    predicted from omega + phi * n_q, is within epsilon.  Otherwise the pass
    stops without a step if the pattern is already within epsilon, or applies
    the Gauss-Newton correction about -omega, shortened to
    (1 - epsilon / misfit) |omega| so that the predicted misfit lands at
    epsilon: the full correction over-solves at loose tolerances, and the
    paper's steps alone can need more than max_iterations passes.  omega,
    the misfits and the plane dual to -omega are Python float arithmetic.
    """
    x, y, z = model.rotation(biv)
    if model.misfit((x + phi * q.b23, y - phi * q.b13,
                     z + phi * q.b12)) <= epsilon:
        return phi, q, True
    before = model.misfit((x, y, z))
    if before <= epsilon:
        return 0.0, q, True
    size = math.hypot(x, y, z)
    plane = UnitBivector(-z / size, y / size, -x / size)
    return (1.0 - epsilon / before) * size, plane, False


def detect_moments(k, s, config: DetectionConfig) -> MomentDetection:
    """The detection loop on the cross moment K = integral of u v^T and the
    reference's self-moment S = integral of v v^T.

    k and s are 3x3 matrices given as nine floats in row-major order.  Every
    pass is float arithmetic: the fold of K (moment_parts), the polar read
    (argument), the certified step, K <- R K with R from rotation_entries,
    and the step's rotor multiplied into the net rotor.  Raises ValueError
    if tr S is zero or not finite.
    """
    model = _MisfitModel(s)
    epsilon = config.epsilon
    net = (1.0, 0.0, 0.0, 0.0)
    iterations = 0
    converged = False
    trace: list[float] = []
    corrections: list[Rotor] = []

    while not converged and iterations < config.max_iterations:
        iterations += 1
        sc, biv = moment_parts(k)
        phi, q, real_valued = argument(sc, biv)
        if iterations == 1 and real_valued:
            phi, q = DISTURBANCE_ANGLE, DISTURBANCE_PLANE
        if phi <= epsilon:
            phi, q, converged = _certified_step(model, biv, phi, q, epsilon)
        step = rotation_rotor(q, phi)
        k = matrix_product(rotation_entries(q, phi), k)
        net = rotor_product(step.components, net)
        trace.append(phi)
        corrections.append(step)

    return MomentDetection(net, tuple(trace), tuple(corrections), iterations,
                           converged)


def detect(reference: VectorField, pattern: VectorField,
           config: DetectionConfig) -> DetectionReport:
    """Estimate the outer rotation mapping reference onto pattern.

    Integrates S and K once each, runs detect_moments on them and rotates
    the pattern once by the net correction.  Runs are deterministic:
    identical inputs produce bit-identical reports.  Raises ValueError if
    either field has zero norm or either field's energy is not finite.
    """
    s = cross_moment(reference, reference).ravel().tolist()
    # the scalar part of a field's self-correlation is its energy
    _checked_energy(correlate_at_origin(pattern, pattern).scalar, "pattern")
    k = cross_moment(pattern, reference).ravel().tolist()

    loop = detect_moments(k, s, config)
    alpha, undo = rotor_rotation(loop.net)
    return DetectionReport(
        alpha=alpha,
        plane=-undo,
        corrected_pattern=rotate_outer(pattern, undo, alpha),
        iterations=loop.iterations,
        phi_trace=loop.phi_trace,
        corrections=loop.corrections,
        converged=loop.converged,
    )


def residual_angle(applied, true_plane: UnitBivector,
                   true_angle: float) -> float:
    """Rotation angle left after applying corrections to a known misalignment.

    Composes the net rotor, the true generating rotation (true_plane,
    true_angle) followed by every applied correction rotor in application
    order, and returns the angle in [0, pi] of that net rotation; 0 means
    the corrections undo the misalignment exactly.
    """
    net = rotation_rotor(true_plane, true_angle).components
    for c in applied:
        net = rotor_product(c.components, net)
    return rotor_rotation(net)[0]
