"""Clifford algebra Cl(3,0): multivectors, rotors and rotation bookkeeping.

Everything downstream (field rotation, correlation, the detector loop) reduces
to a handful of operations on 8-component multivectors over the ordered basis

    [1, e1, e2, e3, e12, e13, e23, e123]

with an orthonormal metric (each ``e_i`` squares to +1).  The multiplication
table is generated from the anticommutation rules rather than written out by
hand, so a single rule error cannot hide in one table entry.  A rotor is
the tuple (scalar, b12, b13, b23) of its even parts: rotor_product
multiplies two, and Multivector.from_even embeds one among the eight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BASIS_NAMES = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")

_BLADES = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
_BLADE_INDEX = {b: i for i, b in enumerate(_BLADES)}

GRADES = np.array([len(b) for b in _BLADES])

# Reversion flips sign on grades 2 and 3.
_REVERSE_SIGNS = np.where((GRADES * (GRADES - 1) // 2) % 2 == 0, 1.0, -1.0)

# Relative tolerance below which a bivector part counts as zero in argument()
# (measured against |scalar part|, so the rule is scale-invariant).
ZERO_BIVECTOR_RTOL = 1e-12

# Odd-grade content beyond this share of the norm makes polar_decompose raise.
ODD_RTOL = 1e-8

# Largest distance from 1 of a length that unit_parts renormalises.
UNIT_ATOL = 1e-9


def _blade_times_blade(p, q):
    """Multiply two basis blades; return (sign, resulting blade tuple)."""
    seq = list(p) + list(q)
    sign = 1
    # Insertion sort, counting transpositions of anticommuting generators.
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    out = []
    for k in seq:
        if out and out[-1] == k:
            out.pop()  # e_i e_i = +1
        else:
            out.append(k)
    return sign, tuple(out)


def _build_cayley():
    c = np.zeros((8, 8, 8))
    for i, p in enumerate(_BLADES):
        for j, q in enumerate(_BLADES):
            sign, blade = _blade_times_blade(p, q)
            c[i, j, _BLADE_INDEX[blade]] = sign
    return c

_CAYLEY = _build_cayley()
_CAYLEY_2D = np.ascontiguousarray(_CAYLEY.reshape(8, 64))


def _gp(a, b):
    """Geometric product on raw coefficient arrays."""
    return b @ (a @ _CAYLEY_2D).reshape(8, 8)


class Multivector:
    """Immutable element of Cl(3,0), stored as 8 coefficients.

    Supports +, -, scalar and geometric multiplication via operators.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_scalar(cls, s: float) -> "Multivector":
        return cls((s, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_vector(cls, v) -> "Multivector":
        return cls((0.0, *v, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_even(cls, r) -> "Multivector":
        """The even element r = (scalar, b12, b13, b23), a rotor for one."""
        return cls((r[0], 0.0, 0.0, 0.0, *r[1:], 0.0))

    # -- parts ------------------------------------------------------------

    @property
    def scalar(self) -> float:
        return float(self.coeffs[0])

    @property
    def vector(self) -> np.ndarray:
        return self.coeffs[1:4].copy()

    @property
    def bivector(self) -> np.ndarray:
        return self.coeffs[4:7].copy()

    def grade(self, k: int) -> "Multivector":
        """Project onto grade k (0 <= k <= 3)."""
        if not 0 <= k <= 3:
            raise ValueError(f"grade must be in 0..3, got {k}")
        return Multivector(np.where(GRADES == k, self.coeffs, 0.0))

    def reverse(self) -> "Multivector":
        """Reversion: flip the factor order of every blade."""
        return Multivector(self.coeffs * _REVERSE_SIGNS)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            return Multivector(self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            return self + Multivector.from_scalar(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            return Multivector(self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            return self - Multivector.from_scalar(other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Multivector.from_scalar(other) - self
        return NotImplemented

    def __neg__(self):
        return Multivector(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return Multivector(_gp(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.coeffs / other)
        return NotImplemented

    def __repr__(self):
        return f"Multivector({np.array2string(self.coeffs, separator=', ')})"

    def __str__(self):
        terms = []
        for c, name in zip(self.coeffs, BASIS_NAMES):
            if c == 0.0:
                continue
            mag = f"{abs(c):.12g}"
            body = mag if name == "1" else (f"{name}" if mag == "1" else f"{mag} {name}")
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


ONE = Multivector.from_scalar(1.0)
E1 = Multivector.from_vector((1.0, 0.0, 0.0))
E2 = Multivector.from_vector((0.0, 1.0, 0.0))
E3 = Multivector.from_vector((0.0, 0.0, 1.0))


def unit_parts(sc: float, b12: float, b13: float, b23: float,
               what: str) -> tuple[float, float, float, float]:
    """sc + (b12, b13, b23) over its length, which must be within UNIT_ATOL
    of 1: the renormalisation of a UnitBivector and of a rotor.  A plane
    passes sc = 0.0, which adds exactly nothing to the sum."""
    mag = math.sqrt(sc * sc + b12 * b12 + b13 * b13 + b23 * b23)
    if not abs(mag - 1.0) <= UNIT_ATOL:  # NaN fails this too
        raise ValueError(f"{what} magnitude {mag} is not 1")
    return sc / mag, b12 / mag, b13 / mag, b23 / mag


@dataclass(frozen=True, init=False)
class UnitBivector:
    """Unit-magnitude bivector: an oriented rotation plane.

    Components are ordered (b12, b13, b23).  The constructor renormalizes
    small drift and rejects anything farther than UNIT_ATOL from unit length.
    """

    b12: float
    b13: float
    b23: float

    def __init__(self, b12: float, b13: float, b23: float):
        d = self.__dict__
        _, d["b12"], d["b13"], d["b23"] = unit_parts(
            0.0, b12, b13, b23, "bivector")

    def __iter__(self):
        """(b12, b13, b23): a UnitBivector passes as plane components."""
        return iter((self.b12, self.b13, self.b23))

    @classmethod
    def from_components(cls, b12: float, b13: float, b23: float) -> "UnitBivector":
        """Normalize arbitrary components; rejects the zero bivector.

        |B| is math.hypot, which neither overflows nor underflows."""
        mag = math.hypot(b12, b13, b23)
        if mag == 0.0:
            raise ValueError("cannot normalize a zero bivector")
        return cls(b12 / mag, b13 / mag, b23 / mag)

    @classmethod
    def from_normal(cls, n) -> "UnitBivector":
        """Plane dual to the direction n (right-handed rotation about n),
        normalised by from_components."""
        nx, ny, nz = np.asarray(n, dtype=float).tolist()  # floats, not numpy scalars
        if nx == ny == nz == 0.0:
            raise ValueError("cannot take the plane dual to a zero vector")
        return cls.from_components(nz, -ny, nx)

    @property
    def components(self) -> np.ndarray:
        return np.array([self.b12, self.b13, self.b23])

    def normal(self) -> np.ndarray:
        """Unit normal n with (b12, b13, b23) dual to (n_z, -n_y, n_x)."""
        return np.array([self.b23, -self.b13, self.b12])

    def __neg__(self) -> "UnitBivector":
        return UnitBivector(-self.b12, -self.b13, -self.b23)


E12 = UnitBivector(1.0, 0.0, 0.0)
E13 = UnitBivector(0.0, 1.0, 0.0)
E23 = UnitBivector(0.0, 0.0, 1.0)


def rotor_product(a, b) -> tuple[float, float, float, float]:
    """Geometric product of two even elements given as (scalar, b12, b13, b23).

    The unit bivectors square to -1 and anticommute, e12 e13 = -e23,
    e12 e23 = e13 and e13 e23 = -e12, so this is a quaternion product.
    """
    a0, a12, a13, a23 = a
    b0, b12, b13, b23 = b
    return (a0 * b0 - a12 * b12 - a13 * b13 - a23 * b23,
            a0 * b12 + a12 * b0 - a13 * b23 + a23 * b13,
            a0 * b13 + a13 * b0 + a12 * b23 - a23 * b12,
            a0 * b23 + a23 * b0 - a12 * b13 + a13 * b12)


def exp_bivector(plane, angle: float) -> tuple[float, float, float, float]:
    """cos(angle) + sin(angle) * plane as (scalar, b12, b13, b23), for a
    UnitBivector plane or its components; unit_parts checks the length."""
    b12, b13, b23 = plane
    c, s = math.cos(angle), math.sin(angle)
    return unit_parts(c, s * b12, s * b13, s * b23, "rotor")


def rotation_rotor(plane, angle: float) -> tuple[float, float, float, float]:
    """Rotor whose sandwich R v reverse(R) rotates by ``angle`` in ``plane``."""
    return exp_bivector(plane, -angle / 2.0)


def sandwich(plane: UnitBivector, angle: float, v: Multivector) -> Multivector:
    """Rotate the vector v by ``angle`` in ``plane``.

    Computes e^{-(angle/2) P} v e^{(angle/2) P}.  Raises if v is not a pure
    grade-1 multivector.
    """
    c = v.coeffs
    nonvec = math.sqrt(c[0] ** 2 + c[4] ** 2 + c[5] ** 2 + c[6] ** 2 + c[7] ** 2)
    if nonvec > 1e-12 * max(1.0, v.norm()):
        raise ValueError("sandwich expects a pure grade-1 multivector")
    r = Multivector.from_even(rotation_rotor(plane, angle))
    return Multivector(_gp(_gp(r.coeffs, c), r.reverse().coeffs))


def rotation_matrix(plane: UnitBivector, angle: float) -> np.ndarray:
    """3x3 matrix of the rotation by ``angle`` in ``plane``, a UnitBivector
    or its components.

    The sandwich by rotation_rotor(plane, angle) in closed form: Rodrigues'
    formula about the plane's right-handed normal n,
    cos(angle) I + sin(angle) [n]x + (1 - cos(angle)) n n^T.  unit_parts
    checks the plane's length only: a UnitBivector's matrix keeps its bits.
    """
    b12, b13, b23 = plane
    unit_parts(0.0, b12, b13, b23, "plane")
    x, y, z = b23, -b13, b12
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return np.array((c + t * x * x, t * x * y - s * z, t * x * z + s * y,
                     t * x * y + s * z, c + t * y * y, t * y * z - s * x,
                     t * x * z - s * y, t * y * z + s * x,
                     c + t * z * z)).reshape(3, 3)


def argument(sc: float, biv) -> tuple[float, UnitBivector, bool]:
    """Argument angle and plane of the even element sc + biv.

    biv is (b12, b13, b23).  The angle atan2(|biv|, sc) lies in [0, pi] and
    the plane is the normalized bivector.  A bivector at or below
    ZERO_BIVECTOR_RTOL * |sc| names no plane: the angle is then 0 for a
    nonnegative sc and pi otherwise, the plane E12, and the flag that
    reports a real value is True.  The rule and |biv| (math.hypot, which
    neither overflows nor underflows) are scale-invariant, so scaling sc and
    biv by a power of two changes no bit of the result.  NaN or inf raises.
    """
    b12, b13, b23 = biv
    bmag = math.hypot(b12, b13, b23)
    if not (math.isfinite(sc) and math.isfinite(bmag)):
        raise ValueError(f"argument of a non-finite value {sc} + {biv}")
    if bmag <= ZERO_BIVECTOR_RTOL * abs(sc):
        return (0.0 if sc >= 0.0 else math.pi), E12, True
    return (math.atan2(bmag, sc),
            UnitBivector(b12 / bmag, b13 / bmag, b23 / bmag), False)


@dataclass(frozen=True)
class PolarForm:
    """Polar data of an even multivector: magnitude * e^{angle * plane}."""

    angle: float
    plane: UnitBivector
    magnitude: float


def polar_decompose(m: Multivector) -> PolarForm:
    """Split an even multivector into magnitude, argument angle and plane.

    The angle and plane are argument() of the scalar and grade-2 parts.
    Raises ValueError for the zero multivector or one with odd-grade content
    beyond ODD_RTOL relative to its norm.  Norms are math.hypot, so the
    rules are scale-invariant like argument()'s.
    """
    c = m.coeffs.tolist()
    total = math.hypot(*c)
    if total == 0.0:
        raise ValueError("polar form of the zero multivector is undefined")
    odd = math.hypot(c[1], c[2], c[3], c[7])
    if odd > ODD_RTOL * total:
        raise ValueError(f"multivector has odd-grade parts (|odd| = {odd})")
    angle, plane, _ = argument(c[0], c[4:7])
    return PolarForm(angle, plane, math.hypot(c[0], c[4], c[5], c[6]))


def rotor_rotation(r) -> tuple[float, UnitBivector]:
    """Angle in [0, pi] and plane of the rotation by the rotor r.

    r is (scalar, b12, b13, b23) and need not be normalized.  The rotor
    cos(angle/2) - sin(angle/2) P rotates by angle in P, so the rotation is
    twice the argument of its reverse; r and -r rotate alike, and reading
    the one with a nonnegative scalar keeps the angle in [0, pi].
    """
    sc, b12, b13, b23 = r
    if sc < 0.0:
        sc, b12, b13, b23 = -sc, -b12, -b13, -b23
    half, plane, _ = argument(sc, (-b12, -b13, -b23))
    return 2.0 * half, plane
