"""rotalign: recover the outer rotation aligning two 3D vector fields.

The toolkit correlates a vector field with a rotated copy of itself, reads a
rotation estimate off the correlation's polar form, and accumulates each
pass's step into one net rotor until the residual argument angle falls below
a tolerance.
"""

from .ga3 import (
    Multivector, PolarForm, UnitBivector, exp_bivector, polar_decompose, sandwich,
)

__all__ = [
    "Multivector", "PolarForm", "UnitBivector", "exp_bivector", "polar_decompose",
    "sandwich",
]

__version__ = "0.1.0"
