"""deltafield: variational solver for scalar field equations with a point
interaction at the origin, in dimensions 2 and 3.

States are u = phi + q * G_lam (regular part plus charged Green-function
singularity).  The package evaluates the action functional and its residual
identities, and finds the mountain-pass critical point by Newton's method:
from the scalar ground state, then from a fixed ladder of starts around it,
keeping the first limit whose Morse index certifies it.
"""

from .greens import (  # noqa: F401
    EULER_GAMMA,
    GreenKernel,
    InteractionStrength,
    green_l2_norm_sq,
    green_value,
    omega_alpha,
    xi,
)

__version__ = "0.1.0"
