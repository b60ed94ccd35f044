"""Green's function layer for -Delta + lambda in R^2 and R^3.

Everything here is closed-form: the kernel

    G_lam(r) = e^{-sqrt(lam) r} / (4 pi r)      (N = 3, Yukawa)
    G_lam(r) = K0(sqrt(lam) r) / (2 pi)         (N = 2, modified Bessel)

its regular part at the origin -xi_lam, the coercivity threshold omega_alpha,
and the L^2 / L^p norms.  Quadrature never appears in this module; it is used
only by tests to cross-check these formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

__all__ = [
    "EULER_GAMMA",
    "GreenKernel",
    "InteractionStrength",
    "NOT_IN_LP",
    "xi",
    "omega_alpha",
    "green_value",
    "regular_part_at_origin",
    "green_l2_norm_sq",
    "green_lp_norm",
    "green_difference",
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


def regular_part_at_origin(kernel):
    """lim_{r->0} (G_lam(r) - G_sing(r)) = -xi_lam."""
    return -xi(kernel.dim, kernel.lam)


def green_l2_norm_sq(kernel):
    """||G_lam||_2^2 closed form: xi_lam/(2 lam) in 3D, 1/(4 pi lam) in 2D."""
    if kernel.dim == 3:
        return xi(3, kernel.lam) / (2.0 * kernel.lam)
    return 1.0 / (4.0 * math.pi * kernel.lam)


class _NotInLp:
    """Typed signal: the kernel fails to belong to L^p for the requested p."""

    __slots__ = ()

    def __repr__(self):
        return "NOT_IN_LP"


NOT_IN_LP = _NotInLp()


def green_lp_norm(kernel, p):
    """||G_lam||_p, or the NOT_IN_LP signal outside the integrability range.

    3D: finite iff 1 <= p < 3, closed form
        (4 pi)^{(1-p)/p} * [Gamma(3-p) / (p sqrt(lam))^{3-p}]^{1/p}.
    2D: finite for every p >= 1 (log singularity), computed by adaptive quadrature.
    """
    if p < 1:
        raise ValueError("p must be >= 1, got %r" % (p,))
    if kernel.dim == 3:
        if p >= 3:
            return NOT_IN_LP
        s = math.sqrt(kernel.lam)
        integral = (4.0 * math.pi) ** (1.0 - p) * special.gamma(3.0 - p) / (p * s) ** (3.0 - p)
        return integral ** (1.0 / p)
    # 2D: substitute t = sqrt(lam) r, integral = 2 pi lam^{-1} (2 pi)^{-p} int t K0(t)^p dt
    val, _err = integrate.quad(lambda t: t * special.k0(t) ** p, 0.0, 60.0, limit=200)
    integral = 2.0 * math.pi / kernel.lam * (2.0 * math.pi) ** (-p) * val
    return integral ** (1.0 / p)


def green_difference(dim, lam1, lam2, r):
    """G_{lam1}(r) - G_{lam2}(r); bounded as r -> 0 with limit xi_{lam2} - xi_{lam1}."""
    _check_dim(dim)
    if lam1 == lam2:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        return out if out.ndim else 0.0
    a = green_value(GreenKernel(dim, lam1), r)
    b = green_value(GreenKernel(dim, lam2), r)
    return a - b
