"""Green's function layer for -Delta + lambda in R^2 and R^3.

Everything here is closed-form: the kernel

    G_lam(r) = e^{-sqrt(lam) r} / (4 pi r)      (N = 3, Yukawa)
    G_lam(r) = K0(sqrt(lam) r) / (2 pi)         (N = 2, modified Bessel)

the scalar xi_lam (G_lam(r) - G_sing(r) -> -xi_lam as r -> 0), the
coercivity threshold omega_alpha, and the L^2 norm.  Quadrature never appears
in this module; it is used only by tests to cross-check these formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "EULER_GAMMA",
    "GreenKernel",
    "InteractionStrength",
    "xi",
    "omega_alpha",
    "green_value",
    "green_l2_norm_sq",
]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

VALID_DIMS = (2, 3)


def _check_dim(dim):
    if dim not in VALID_DIMS:
        raise ValueError("dimension must be 2 or 3, got %r" % (dim,))


@dataclass(frozen=True)
class GreenKernel:
    """The kernel G_lam for dimension dim in {2, 3} and spectral shift lam > 0."""

    dim: int
    lam: float

    def __post_init__(self):
        _check_dim(self.dim)
        if not self.lam > 0:
            raise ValueError("lambda must be positive, got %r" % (self.lam,))


@dataclass(frozen=True)
class InteractionStrength:
    """Point-interaction strength alpha (any real) in dimension dim."""

    alpha: float
    dim: int

    def __post_init__(self):
        _check_dim(self.dim)


def xi(dim, lam):
    """The scalar xi_lam: sqrt(lam)/(4 pi) in 3D, (log(sqrt(lam)/2) + gamma)/(2 pi) in 2D.

    Strictly increasing in lam; may be negative in 2D.
    """
    _check_dim(dim)
    if not lam > 0:
        raise ValueError("lambda must be positive, got %r" % (lam,))
    if dim == 3:
        return math.sqrt(lam) / (4.0 * math.pi)
    return (math.log(math.sqrt(lam) / 2.0) + EULER_GAMMA) / (2.0 * math.pi)


def omega_alpha(strength):
    """Magnitude of the unique negative eigenvalue of the point-interaction operator.

    4 e^{-4 pi alpha - 2 gamma} in 2D (any alpha); (4 pi alpha)^2 in 3D for
    alpha < 0; zero in 3D for alpha >= 0 (no negative eigenvalue).
    """
    a = strength.alpha
    if strength.dim == 2:
        return 4.0 * math.exp(-4.0 * math.pi * a - 2.0 * EULER_GAMMA)
    if a < 0:
        return (4.0 * math.pi * a) ** 2
    return 0.0


def green_value(kernel, r):
    """G_lam(r) for r > 0 (scalar or array); positive and decreasing in r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("green_value needs r > 0 (kernel is singular at the origin)")
    z = math.sqrt(kernel.lam) * r
    if kernel.dim == 3:
        out = np.exp(-z) / (4.0 * math.pi * r)
    else:
        out = special.k0(z) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def green_l2_norm_sq(kernel):
    """||G_lam||_2^2 closed form: xi_lam/(2 lam) in 3D, 1/(4 pi lam) in 2D."""
    if kernel.dim == 3:
        return xi(3, kernel.lam) / (2.0 * kernel.lam)
    return 1.0 / (4.0 * math.pi * kernel.lam)
