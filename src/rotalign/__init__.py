"""rotalign: recover the outer rotation aligning two 3D vector fields.

The toolkit correlates a vector field with a rotated copy of itself, reads a
rotation estimate off the correlation's polar form, and iterates corrections
until the residual argument angle falls below a tolerance.
"""

from .ga3 import (
    Multivector,
    PolarForm,
    Rotor,
    UnitBivector,
    compose_rotation,
    exp_bivector,
    polar_decompose,
    sandwich,
)

__all__ = [
    "Multivector",
    "PolarForm",
    "Rotor",
    "UnitBivector",
    "compose_rotation",
    "exp_bivector",
    "polar_decompose",
    "sandwich",
]

__version__ = "0.1.0"
