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
pattern by R turns K into R K.  The steps accumulate into one rotor, and the
pattern itself is rotated once, after the loop.

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

import numpy as np

from .ga3 import (
    E12, Rotor, UnitBivector, argument, rotation_matrix, rotation_rotor,
    rotor_product, rotor_rotation,
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


class _MisfitModel:
    """First-order misfit of a rotated copy of the reference.

    For u = R v with R the rotation by the small vector omega, the bivector
    of correlate_at_origin(u, v) is dual to a = (tr S I - S) omega, and
    |u - v|^2 / |v|^2 = omega^T (tr S I - S) omega / tr S, with S the
    reference's self-moment.  tr S I - S is the inertia tensor of the
    reference's values; it is singular only when S has rank <= 1, and a
    pseudo-inverse then drops the rotation about the only value direction,
    which moves no value and so costs no misfit.
    """

    def __init__(self, reference: VectorField):
        moment = cross_moment(reference, reference)
        self.energy = float(np.trace(moment))
        if not math.isfinite(self.energy):
            raise ValueError("reference field energy is not finite")
        self.inertia = self.energy * np.eye(3) - moment
        w, vecs = np.linalg.eigh(self.inertia)
        # rounding leaves an invisible axis at about 1e-16 tr S, either sign
        keep = w > 1e-12 * self.energy
        self.inertia_pinv = (vecs[:, keep] / w[keep]) @ vecs[:, keep].T

    def rotation(self, biv: np.ndarray) -> np.ndarray:
        """Residual rotation vector omega read off a correlation bivector."""
        return self.inertia_pinv @ np.array([-biv[2], biv[1], -biv[0]])

    def misfit(self, omega: np.ndarray) -> float:
        """Relative L2 misfit left by the residual rotation omega."""
        return math.sqrt(max(float(omega @ self.inertia @ omega), 0.0)
                         / self.energy)


def _certified_step(model: _MisfitModel, biv: np.ndarray, phi: float,
                    q: UnitBivector, epsilon: float
                    ) -> tuple[float, UnitBivector, bool]:
    """Step for a pass whose angle phi is within epsilon, and whether to stop.

    The paper's step (phi, q) ends the loop when the misfit it leaves,
    predicted from omega + phi * n_q, is within epsilon.  Otherwise the pass
    stops without a step if the pattern is already within epsilon, or applies
    the Gauss-Newton correction about -omega, shortened to
    (1 - epsilon / misfit) |omega| so that the predicted misfit lands at
    epsilon: the full correction over-solves at loose tolerances, and the
    paper's steps alone can need more than max_iterations passes.
    """
    omega = model.rotation(biv)
    if model.misfit(omega + phi * q.normal()) <= epsilon:
        return phi, q, True
    before = model.misfit(omega)
    if before <= epsilon:
        return 0.0, q, True
    angle = (1.0 - epsilon / before) * float(np.linalg.norm(omega))
    return angle, UnitBivector.from_normal(-omega), False


def detect(reference: VectorField, pattern: VectorField,
           config: DetectionConfig) -> DetectionReport:
    """Estimate the outer rotation mapping reference onto pattern.

    Runs are deterministic: identical inputs produce bit-identical reports.
    Raises ValueError if either field has zero norm or either field's
    energy is not finite.
    """
    model = _MisfitModel(reference)
    # the scalar part of a field's self-correlation is its energy
    energy = correlate_at_origin(pattern, pattern).scalar
    if not math.isfinite(energy):
        raise ValueError("pattern field energy is not finite")
    if math.sqrt(model.energy) < 1e-300 or math.sqrt(energy) < 1e-300:
        raise ValueError("cannot detect rotation against a zero field")

    k = cross_moment(pattern, reference)
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
        if phi <= config.epsilon:
            phi, q, converged = _certified_step(model, biv, phi, q,
                                                config.epsilon)
        step = rotation_rotor(q, phi)
        k = rotation_matrix(q, phi) @ k
        net = rotor_product(step.components, net)
        trace.append(phi)
        corrections.append(step)

    alpha, undo = rotor_rotation(net)
    return DetectionReport(
        alpha=alpha,
        plane=-undo,
        corrected_pattern=rotate_outer(pattern, undo, alpha),
        iterations=iterations,
        phi_trace=tuple(trace),
        corrections=tuple(corrections),
        converged=converged,
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
