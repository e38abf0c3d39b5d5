"""Clifford algebra Cl(3,0): multivectors, rotors and rotation bookkeeping.

Everything downstream (field rotation, correlation, the detector loop) reduces
to a handful of operations on 8-component multivectors over the ordered basis

    [1, e1, e2, e3, e12, e13, e23, e123]

with an orthonormal metric (each ``e_i`` squares to +1).  The multiplication
table is generated from the anticommutation rules rather than written out by
hand, so a single rule error cannot hide in one table entry.
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
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 coefficients, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_scalar(cls, s: float) -> "Multivector":
        c = np.zeros(8)
        c[0] = s
        return cls(c)

    @classmethod
    def from_vector(cls, v) -> "Multivector":
        c = np.zeros(8)
        c[1:4] = np.asarray(v, dtype=float)
        return cls(c)

    @classmethod
    def from_bivector(cls, b) -> "Multivector":
        """Build from bivector components ordered (b12, b13, b23)."""
        c = np.zeros(8)
        c[4:7] = np.asarray(b, dtype=float)
        return cls(c)

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

    def close_to(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol))

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


@dataclass(frozen=True)
class UnitBivector:
    """Unit-magnitude bivector: an oriented rotation plane.

    Components are ordered (b12, b13, b23).  The constructor renormalizes
    small drift and rejects anything farther than 1e-9 from unit length.
    """

    b12: float
    b13: float
    b23: float

    def __post_init__(self):
        b12, b13, b23 = self.b12, self.b13, self.b23
        mag = math.sqrt(b12 ** 2 + b13 ** 2 + b23 ** 2)
        if not abs(mag - 1.0) <= 1e-9:  # NaN fails this too
            raise ValueError(f"bivector magnitude {mag} is not 1")
        d = self.__dict__
        d["b12"], d["b13"], d["b23"] = b12 / mag, b13 / mag, b23 / mag

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
        """Plane dual to the direction n (right-handed rotation about n)."""
        n = np.asarray(n, dtype=float)
        mag = np.linalg.norm(n)
        if mag == 0.0:
            raise ValueError("cannot take the plane dual to a zero vector")
        nx, ny, nz = n / mag
        return cls(nz, -ny, nx)

    @property
    def components(self) -> np.ndarray:
        return np.array([self.b12, self.b13, self.b23])

    def normal(self) -> np.ndarray:
        """Unit normal n with (b12, b13, b23) dual to (n_z, -n_y, n_x)."""
        return np.array([self.b23, -self.b13, self.b12])

    def as_multivector(self) -> Multivector:
        return Multivector.from_bivector(self.components)

    def __neg__(self) -> "UnitBivector":
        return UnitBivector(-self.b12, -self.b13, -self.b23)


E12 = UnitBivector(1.0, 0.0, 0.0)
E13 = UnitBivector(0.0, 1.0, 0.0)
E23 = UnitBivector(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Rotor:
    """Even unit multivector scalar + bivector; acts on vectors by sandwich.

    The sandwich is R v reverse(R), so the rotor that rotates by ``angle``
    in ``plane`` is ``exp_bivector(plane, -angle / 2)``.
    """

    scalar: float
    b12: float
    b13: float
    b23: float

    def __post_init__(self):
        sc, b12, b13, b23 = self.scalar, self.b12, self.b13, self.b23
        mag = math.sqrt(sc ** 2 + b12 ** 2 + b13 ** 2 + b23 ** 2)
        if not abs(mag - 1.0) <= 1e-9:  # NaN fails this too
            raise ValueError(f"rotor magnitude {mag} is not 1")
        d = self.__dict__
        d["scalar"], d["b12"], d["b13"], d["b23"] = (
            sc / mag, b12 / mag, b13 / mag, b23 / mag)

    def as_multivector(self) -> Multivector:
        c = np.zeros(8)
        c[0] = self.scalar
        c[4:7] = (self.b12, self.b13, self.b23)
        return Multivector(c)

    def reverse(self) -> "Rotor":
        return Rotor(self.scalar, -self.b12, -self.b13, -self.b23)

    @property
    def components(self) -> tuple[float, float, float, float]:
        """(scalar, b12, b13, b23), the layout rotor_product works on."""
        return (self.scalar, self.b12, self.b13, self.b23)


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


def exp_bivector(plane: UnitBivector, angle: float) -> Rotor:
    """Exponential of a scaled bivector: cos(angle) + sin(angle) * plane."""
    c, s = math.cos(angle), math.sin(angle)
    return Rotor(c, s * plane.b12, s * plane.b13, s * plane.b23)


def rotation_rotor(plane: UnitBivector, angle: float) -> Rotor:
    """Rotor whose sandwich rotates by ``angle`` in ``plane``."""
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
    r = rotation_rotor(plane, angle)
    return Multivector(_gp(_gp(r.as_multivector().coeffs, c),
                           r.reverse().as_multivector().coeffs))


def rotation_entries(plane: UnitBivector, angle: float) -> tuple[float, ...]:
    """Matrix of the rotation by ``angle`` in ``plane`` as nine floats,
    row-major.

    The sandwich by rotation_rotor(plane, angle) in closed form: Rodrigues'
    formula about the plane's right-handed normal n,
    cos(angle) I + sin(angle) [n]x + (1 - cos(angle)) n n^T.
    """
    x, y, z = plane.b23, -plane.b13, plane.b12
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return (c + t * x * x, t * x * y - s * z, t * x * z + s * y,
            t * x * y + s * z, c + t * y * y, t * y * z - s * x,
            t * x * z - s * y, t * y * z + s * x, c + t * z * z)


def rotation_matrix(plane: UnitBivector, angle: float) -> np.ndarray:
    """rotation_entries(plane, angle) as a 3x3 array."""
    return np.array(rotation_entries(plane, angle)).reshape(3, 3)


def matrix_product(a, b) -> tuple[float, ...]:
    """Product a b of two 3x3 matrices given as nine floats, row-major.

    Each entry is summed left to right over the shared index.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22)


def argument(sc: float, biv) -> tuple[float, UnitBivector, bool]:
    """Argument angle and plane of the even element sc + biv.

    biv is (b12, b13, b23).  The angle atan2(|biv|, sc) lies in [0, pi] and
    the plane is the normalized bivector.  A bivector at or below
    ZERO_BIVECTOR_RTOL * |sc| names no plane: the angle is then 0 for a
    nonnegative sc and pi otherwise, the plane e12, and the flag that
    reports a real value is True.  The rule and |biv| (math.hypot, which
    neither overflows nor underflows) are scale-invariant, so scaling sc and
    biv by a power of two changes no bit of the result.
    """
    b12, b13, b23 = biv
    bmag = math.hypot(b12, b13, b23)
    if bmag <= ZERO_BIVECTOR_RTOL * abs(sc):
        return (0.0 if sc >= 0.0 else math.pi), E12, True
    plane = UnitBivector(b12 / bmag, b13 / bmag, b23 / bmag)
    return math.atan2(bmag, sc), plane, False


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


def check_angle(name: str, angle: float) -> None:
    """Raise ValueError unless angle lies in [0, pi], give or take 1e-12."""
    if not -1e-12 <= angle <= math.pi + 1e-12:
        raise ValueError(f"{name} {angle} outside [0, pi]")


def compose_rotation(alpha: float, p: UnitBivector,
                     phi: float, q: UnitBivector) -> tuple[float, UnitBivector]:
    """Accumulate rotation (phi, q) onto (alpha, p).

    Multiplies the rotation rotors, (alpha, p) first, and reads the combined
    angle and plane with rotor_rotation, so the result angle is kept in
    [0, pi] by flipping the plane orientation when the raw composed angle
    exceeds pi.  A phi of exactly 0 returns (alpha, p) unchanged, so
    repeated identity accumulation stays exact.
    """
    check_angle("alpha", alpha)
    check_angle("phi", phi)
    if phi == 0.0:
        return alpha, p
    if alpha == 0.0:
        return phi, q
    return rotor_rotation(rotor_product(rotation_rotor(q, phi).components,
                                        rotation_rotor(p, alpha).components))
