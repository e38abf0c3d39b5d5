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
of K and the reference's self-moment S held as nine Python floats each and
checked once, on entry.  It never turns K: with Horn's 4x4 form N of K, a
pass is a shifted power step on the net rotor r, its only state,
r <- (N + |N r| I) r over its length, with no angle or step rotor.

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
(plane, alpha) reproduces the input pattern.  The net rotor undoes that
rotation, so its plane is the reported plane with its orientation flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .ga3 import (
    E12, ZERO_BIVECTOR_RTOL, UnitBivector, rotor_product, rotor_rotation,
)
from .fields import VectorField, _is_real, checked_norm, pair_moments, rotate_outer
from .correlation import correlate_at_origin

# The rotation injected on the first pass when the correlation is real, and
# the unit normal of its plane E12, about which every real fold turns.
DISTURBANCE_ANGLE = math.pi / 4
DISTURBANCE_PLANE = E12
_REAL_FOLD_NORMAL = tuple(DISTURBANCE_PLANE.normal().tolist())


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
        eps = self.epsilon
        if not (_is_real(eps) and math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {eps}")
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be an int of at least 1, "
                             f"got {self.max_iterations!r}")


@dataclass(frozen=True, eq=False)
class MomentDetection:
    """Outcome of detect_moments, the loop's part of a DetectionReport.

    net is the net rotor after the last pass, (scalar, b12, b13, b23); it
    undoes the generating rotation.  converged is True when the loop stopped
    on the certified exit: phi within epsilon and the corrected pattern's
    relative L2 misfit within epsilon, as predicted to first order.  It is
    False when the loop hit max_iterations first, and the rest describes the
    partial state.  iterations counts the passes run.

    The loop records nothing per pass.  It keeps what its passes read: horn,
    Horn's N as ten floats (n00, n01, n02, n03, n11, n12, n13, n22, n23,
    n33), s, the reference's self-moment as nine, and epsilon.  nets and
    phi_trace are replayed from them on first read, one _passes call per
    pass from the identity, and kept: the same arithmetic on the same
    floats, so the replay gives the loop's passes bit for bit (nets[-1] is
    net) and costs about the loop's own time, once.  nets holds the net
    rotor after each pass.  phi_trace holds the angle applied in each pass:
    the argument angle (after any disturbance override), the shortened
    correction of a pass that failed the certificate, or 0 for a last pass
    whose pattern was already within epsilon.  Two detections are equal,
    and hash alike, when net, phi_trace, nets, iterations and converged are.
    """

    net: tuple[float, float, float, float]
    iterations: int
    converged: bool
    horn: tuple[float, ...]
    s: tuple[float, ...]
    epsilon: float

    @cached_property
    def _record(self):
        """(nets, phi_trace), replayed one _passes call a pass from the
        identity."""
        model, r, nets, trace = _MisfitModel(self.s), (1.0, 0.0, 0.0, 0.0), [], []
        for i in range(self.iterations):
            r, phi, _, _ = _passes(self.horn, model, r, self.epsilon, not i, 1)
            nets.append(r)
            trace.append(phi)
        return tuple(nets), tuple(trace)

    @property
    def nets(self) -> tuple[tuple[float, float, float, float], ...]:
        return self._record[0]

    @property
    def phi_trace(self) -> tuple[float, ...]:
        return self._record[1]

    def _compared(self) -> tuple:
        return self.net, self.phi_trace, self.nets, self.iterations, self.converged

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())


@dataclass(frozen=True, eq=False)
class DetectionReport(MomentDetection):
    """Outcome of a detection run: the loop's outcome, and what it means.

    alpha and plane describe the generating rotation: rotate_outer(reference,
    plane, alpha) reproduces the pattern up to the exit tolerance.  undo is
    the net correction's plane.  corrected_pattern, rotate_outer(pattern,
    undo, alpha), matches the reference to the same level; it is built on
    first read and kept.  nets and phi_trace are the loop's, replayed on
    first read; equality also compares alpha, plane, pattern and undo.
    """

    alpha: float
    plane: UnitBivector
    pattern: VectorField
    undo: UnitBivector

    @cached_property
    def corrected_pattern(self) -> VectorField:
        return rotate_outer(self.pattern, self.undo, self.alpha)

    def _compared(self) -> tuple:
        return (*super()._compared(), self.alpha, self.plane, self.pattern,
                self.undo)


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
    costs no misfit.  All of it is 3x3 algebra on Python floats; S is nine
    floats, row-major, read from its lower triangle once tr S and then every
    float are checked (a NaN off the diagonal could divide by zero); before
    both, S must have tr S >= 0 and no diagonal below -1e-12 tr S (rounding).
    """

    def __init__(self, s):
        s00, _, _, s10, s11, _, s20, s21, s22 = s
        self.energy = energy = s00 + s11 + s22
        if energy < 0.0 or min(s00, s11, s22) < -1e-12 * energy:
            raise ValueError("reference self-moment S is not positive semidefinite")
        checked_norm(math.sqrt(energy), "reference field", "detect rotation against")
        if not all(map(math.isfinite, s)):
            raise ValueError("reference self-moment S is not finite")
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


def _explicit_step(model: _MisfitModel, sc: float, biv: tuple[float, float, float],
                   bmag: float, phi: float, first: bool, epsilon: float
                   ) -> tuple[float, tuple[float, float, float], bool]:
    """Angle, unit normal and exit of an explicit pass on the correlation
    sc + biv, of bivector length bmag and argument phi.

    n = (b23, -b13, b12) / bmag, or E12's normal for a real fold (bmag <=
    ZERO_BIVECTOR_RTOL |sc|), which turns by DISTURBANCE_ANGLE on the first
    pass and by 0 or pi after it.  An angle above epsilon is the step.
    Within it the step is certified: the paper's step ends the loop when the
    misfit it leaves, predicted from omega + phi n, is within epsilon.
    Otherwise the pass stops without a step if the pattern is already within
    epsilon, or turns about -omega / |omega| by (1 - epsilon / misfit)
    |omega|, so that the predicted misfit lands at epsilon: the full
    correction over-solves at loose tolerances, and the paper's steps alone
    can need more than max_iterations passes.  Only rounding reaches the
    stop without a step: to first order the paper's step maps omega to
    (S / tr S) omega, whose misfit is never larger than omega's.  Without
    that stop the shortened step could have length <= 0.
    """
    b12, b13, b23 = biv
    if bmag > ZERO_BIVECTOR_RTOL * abs(sc):
        n = (b23 / bmag, -b13 / bmag, b12 / bmag)
    else:  # a real fold names no plane
        n = _REAL_FOLD_NORMAL
        phi = DISTURBANCE_ANGLE if first else (0.0 if sc >= 0.0 else math.pi)
    if phi > epsilon:
        return phi, n, False
    x, y, z = model.rotation(biv)
    n0, n1, n2 = n
    if model.misfit((x + phi * n0, y + phi * n1, z + phi * n2)) <= epsilon:
        return phi, n, True
    before = model.misfit((x, y, z))
    if before <= epsilon:
        return 0.0, n, True
    size = math.hypot(x, y, z)
    return ((1.0 - epsilon / before) * size, (-x / size, -y / size, -z / size),
            False)


def _passes(horn, model: _MisfitModel, r, epsilon: float, first: bool,
            passes: int) -> tuple[tuple[float, float, float, float], float, int, bool]:
    """Up to passes passes of the loop from the net rotor r on Horn's N,
    given as horn = (n00, n01, n02, n03, n11, n12, n13, n22, n23, n33):
    returns the net rotor and phi after the last pass run, the number of
    passes run and whether that pass took the certified exit.  first marks
    the first call's first pass as the detection's first, the one a real
    fold disturbs.  A pass records nothing, so the loop allocates nothing
    that outlives a pass; MomentDetection replays the passes one call each.

    A pass is clear when tr K > 0 and |w| > clear tr K, clear being
    tan(epsilon) (1 + 1e-6) and at least ZERO_BIVECTOR_RTOL, for epsilon < 1.
    Its phi then exceeds epsilon by a relative 4e-7 or more, far beyond the
    rounding of atan2, and |w| > ZERO_BIVECTOR_RTOL tr K: it is a common
    pass whatever atan2 returns, so it takes no atan2 unless it is the last.
    """
    hypot, atan2, rtol = math.hypot, math.atan2, ZERO_BIVECTOR_RTOL
    n00, n01, n02, n03, n11, n12, n13, n22, n23, n33 = horn
    r0, r1, r2, r3 = r
    converged = False
    clear_ratio = (max(math.tan(epsilon) * (1.0 + 1e-6), rtol) if epsilon < 1.0
                   else math.inf)

    for i in range(passes):
        p0 = n00 * r0 + n01 * r1 + n02 * r2 + n03 * r3
        p1 = n01 * r0 + n11 * r1 + n12 * r2 + n13 * r3
        p2 = n02 * r0 + n12 * r1 + n22 * r2 + n23 * r3
        p3 = n03 * r0 + n13 * r1 + n23 * r2 + n33 * r3
        sc = r0 * p0 + r1 * p1 + r2 * p2 + r3 * p3
        w0 = p0 - sc * r0
        w1 = p1 - sc * r1
        w2 = p2 - sc * r2
        w3 = p3 - sc * r3
        bmag = hypot(w0, w1, w2, w3)
        clear = sc > 0.0 and bmag > clear_ratio * sc
        if clear or (phi := atan2(bmag, sc)) > epsilon and bmag > rtol * abs(sc):
            cmag = hypot(sc, bmag)
        else:
            biv = rotor_product((w0, w1, w2, w3), (-r0, r1, r2, r3))[1:]
            phi, n, converged = _explicit_step(model, sc, biv, bmag, phi,
                                               first and not i, epsilon)
            sc, bmag, cmag = math.cos(phi), math.sin(phi), 1.0
            w0, w1, w2, w3 = rotor_product(
                (0.0, -bmag * n[2], bmag * n[1], -bmag * n[0]), (r0, r1, r2, r3))
        d = cmag + sc if sc >= 0.0 else bmag * (bmag / (cmag - sc))
        h = hypot(d, bmag)
        r0 = (d * r0 + w0) / h
        r1 = (d * r1 + w1) / h
        r2 = (d * r2 + w2) / h
        r3 = (d * r3 + w3) / h
        if converged:
            break

    if clear:  # the last pass was clear: its phi, from its own tr K and |w|
        phi = atan2(bmag, sc)
    return (r0, r1, r2, r3), phi, i + 1, converged


def detect_moments(k, s, config: DetectionConfig) -> MomentDetection:
    """The detection loop on the cross moment K = integral of u v^T and the
    reference's self-moment S = integral of v v^T.

    k and s are 3x3 matrices given as nine floats in row-major order.  For
    the net rotor r's rotation R, tr(R K) = r^T N r with Horn's symmetric N
    of K (Horn 1987), built once in the rotor's layout (Horn's quaternion is
    (r0, -r23, r13, -r12)).  _passes runs the passes.  A pass reads
    tr K = r . p and w = p - tr K r = -B r off p = N r, takes
    phi = atan2(|w|, tr K) unless the pass is clear (see _passes), and
    moves r to (d r + w) / hypot(d, |w|), which is (N + cmag I) r over its
    length: cmag = |N r| = hypot(tr K, |w|), d = cmag + tr K, or
    |w| (|w| / (cmag - tr K)) for tr K < 0, which neither cancels nor
    overflows.  A pass within epsilon or on a real fold
    (|w| <= ZERO_BIVECTOR_RTOL |tr K|) is explicit: _explicit_step reads
    phi, n and the exit off B = -w reverse(r), and the pass feeds (cos(phi),
    sin(phi), 1) as (tr K, |w|, cmag) and -sin(phi) Q r as w, for Q the
    plane dual to n, each product by rotor_product.  The detection keeps N,
    S and epsilon, from which its nets and phi_trace are replayed on first
    read; the detection is built without its __init__, each field written
    once.  Raises ValueError if S is not positive semidefinite (trace,
    diagonal), then if tr S is zero or not finite, then if S or K is not.
    """
    model = _MisfitModel(s)
    if not all(map(math.isfinite, k)):
        raise ValueError("cross moment K is not finite")
    k0, k1, k2, k3, k4, k5, k6, k7, k8 = k
    horn = (k0 + k4 + k8, k3 - k1, k6 - k2, k7 - k5,
            k8 - k0 - k4, -(k5 + k7), k2 + k6,
            k4 - k0 - k8, -(k1 + k3),
            k0 - k4 - k8)
    epsilon = config.epsilon
    net, _, iterations, converged = _passes(horn, model, (1.0, 0.0, 0.0, 0.0),
                                            epsilon, True, config.max_iterations)
    loop = object.__new__(MomentDetection)  # each field written once
    vars(loop).update(net=net, iterations=iterations, converged=converged,
                      horn=horn, s=tuple(s), epsilon=epsilon)
    return loop


def detect(reference: VectorField, pattern: VectorField,
           config: DetectionConfig) -> DetectionReport:
    """Estimate the outer rotation mapping reference onto pattern.

    Integrates K and S together (fields.pair_moments: one product when the
    fields share their cells), checks the pattern's energy, the scalar part
    of correlate_at_origin(pattern, pattern), and runs detect_moments on K
    and S; the report is built once, from every field of that detection and
    the rotation read off its net rotor.  The pattern is rotated only when the
    report's corrected_pattern is read.  Runs are deterministic: identical
    inputs produce bit-identical reports.  Raises ValueError if the
    pattern's energy is zero or not finite, then if the reference's is, then
    as detect_moments does; numpy may warn first of an overflowing energy.
    """
    moments = pair_moments(pattern, reference).ravel().tolist()
    # the scalar part of a field's self-correlation is its energy
    checked_norm(math.sqrt(correlate_at_origin(pattern, pattern).scalar),
                 "pattern field", "detect rotation against")

    loop = detect_moments(moments[:9], moments[9:], config)
    alpha, undo = rotor_rotation(loop.net)
    report = object.__new__(DetectionReport)  # each field written once
    vars(report).update(vars(loop), alpha=alpha, plane=-undo, pattern=pattern,
                        undo=undo)
    return report
