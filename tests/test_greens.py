"""Tests for the Green's-function layer: closed forms vs independent routes."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from deltafield.greens import (
    EULER_GAMMA,
    GreenKernel,
    InteractionStrength,
    green_l2_norm_sq,
    green_value,
    omega_alpha,
    xi,
)

LAMBDAS = [0.25, 1.0, 2.0, 7.5]

# frozen external oracle: K0(1) from mpmath at 30 digits
K0_AT_1 = 0.42102443824070834

# frozen external oracle: ||G_1||_{L^4} in 2D from mpmath adaptive quadrature
L4_NORM_2D_LAM1 = 0.2551810197965695


# ---------------------------------------------------------------------------
# test-local oracles: independent K0 routes, the singular part, dG/dr, the
# regular part at the origin, G differences and L^p norms
# ---------------------------------------------------------------------------


def k0_series(z, terms=30):
    """Ascending series for K0, accurate to ~1e-14 for 0 < z <= 2.

    K0(z) = -(log(z/2) + gamma) I0(z) + sum_{k>=1} (z^2/4)^k / (k!)^2 * H_k
    with H_k the harmonic numbers.
    """
    x = z * z / 4.0
    i0 = 1.0
    term = 1.0
    corr = 0.0
    hk = 0.0
    for k in range(1, terms + 1):
        term *= x / (k * k)
        hk += 1.0 / k
        i0 += term
        corr += term * hk
    return -(math.log(z / 2.0) + EULER_GAMMA) * i0 + corr


def k0_asymptotic(z, terms=30):
    """Large-argument expansion K0(z) ~ sqrt(pi/2z) e^{-z} sum_k a_k / z^k.

    The series is divergent; summation stops at the smallest term.  Relative
    error ~ the first omitted term, below 1e-13 for z >= 20.
    """
    total = 1.0
    ak = 1.0
    prev = 1.0
    for k in range(1, terms + 1):
        ak *= -((2 * k - 1) ** 2) / (8.0 * k)
        t = ak / z**k
        if abs(t) >= abs(prev):
            break
        total += t
        prev = t
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * total


def green_sing(dim, r):
    """Fundamental-solution singular part: 1/(4 pi r) in 3D, -log(r)/(2 pi) in 2D."""
    if dim == 3:
        return 1.0 / (4.0 * math.pi * r)
    return -math.log(r) / (2.0 * math.pi)


def green_value_deriv(kernel, r):
    """dG_lam/dr for r > 0."""
    s = math.sqrt(kernel.lam)
    if kernel.dim == 3:
        return -math.exp(-s * r) * (s * r + 1.0) / (4.0 * math.pi * r**2)
    return -s * float(special.k1(s * r)) / (2.0 * math.pi)


def regular_part_at_origin(kernel):
    """lim_{r->0} (G_lam(r) - G_sing(r)) = -xi_lam."""
    return -xi(kernel.dim, kernel.lam)


def green_difference(dim, lam1, lam2, r):
    """G_{lam1}(r) - G_{lam2}(r); bounded as r -> 0 with limit xi_{lam2} - xi_{lam1}."""
    return green_value(GreenKernel(dim, lam1), r) - green_value(GreenKernel(dim, lam2), r)


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


# ---------------------------------------------------------------------------
# xi and omega_alpha closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", LAMBDAS)
def test_xi_3d_closed_form(lam):
    assert xi(3, lam) == pytest.approx(math.sqrt(lam) / (4 * math.pi), rel=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_xi_2d_closed_form(lam):
    expected = (math.log(math.sqrt(lam) / 2.0) + EULER_GAMMA) / (2 * math.pi)
    assert xi(2, lam) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_xi_at_1_3d():
    assert xi(3, 1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-15)


@pytest.mark.parametrize(
    "dim,alpha",
    [(2, -0.5), (2, 0.0), (2, 0.3), (3, -0.25), (3, -1.0)],
)
def test_omega_alpha_is_coercivity_threshold(dim, alpha):
    # at lambda = omega_alpha the scalar alpha + xi_lambda vanishes
    om = omega_alpha(InteractionStrength(alpha, dim))
    assert om > 0
    assert alpha + xi(dim, om) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_omega_alpha_3d_repulsive_is_zero(alpha):
    assert omega_alpha(InteractionStrength(alpha, 3)) == 0.0


def test_omega_alpha_2d_value():
    expected = 4.0 * math.exp(-2 * EULER_GAMMA)
    assert omega_alpha(InteractionStrength(0.0, 2)) == pytest.approx(
        expected, rel=1e-15
    )


def test_omega_alpha_3d_attractive_value():
    alpha = -0.25
    expected = (4 * math.pi * alpha) ** 2
    assert omega_alpha(InteractionStrength(alpha, 3)) == pytest.approx(
        expected, rel=1e-15
    )


# ---------------------------------------------------------------------------
# kernel values: dual-route checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("r", [1e-3, 0.1, 1.0, 5.0])
def test_green_value_3d_closed_form(lam, r):
    k = GreenKernel(3, lam)
    expected = math.exp(-math.sqrt(lam) * r) / (4 * math.pi * r)
    assert green_value(k, r) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("r", [1e-3, 0.1, 1.0, 5.0])
def test_green_value_2d_vs_scipy(lam, r):
    k = GreenKernel(2, lam)
    expected = special.k0(math.sqrt(lam) * r) / (2 * math.pi)
    assert green_value(k, r) == pytest.approx(expected, rel=1e-14)


def test_k0_series_against_frozen_oracle():
    assert k0_series(1.0) == pytest.approx(K0_AT_1, rel=1e-14)


@pytest.mark.parametrize("z", [0.05, 0.3, 1.0, 1.7, 2.0])
def test_k0_series_vs_scipy(z):
    assert k0_series(z) == pytest.approx(float(special.k0(z)), rel=1e-12)


@pytest.mark.parametrize("z", [20.0, 25.0, 40.0, 80.0])
def test_k0_asymptotic_vs_scipy(z):
    assert k0_asymptotic(z) == pytest.approx(float(special.k0(z)), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_green_value_positive_and_decreasing(dim):
    k = GreenKernel(dim, 1.3)
    rs = np.linspace(0.05, 10.0, 200)
    vals = np.array([green_value(k, r) for r in rs])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("r", [0.2, 1.0, 3.0])
def test_green_value_deriv_matches_finite_difference(dim, r):
    k = GreenKernel(dim, 2.0)
    h = 1e-6 * r
    fd = (green_value(k, r + h) - green_value(k, r - h)) / (2 * h)
    assert green_value_deriv(k, r) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# singular/regular decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_regular_part_at_origin_is_minus_xi(dim, lam):
    k = GreenKernel(dim, lam)
    assert regular_part_at_origin(k) == pytest.approx(-xi(dim, lam), rel=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_regular_part_limit_numerically(dim, lam):
    # G(r) - singular part -> -xi as r -> 0
    k = GreenKernel(dim, lam)
    r = 1e-7
    limit = green_value(k, r) - green_sing(dim, r)
    assert limit == pytest.approx(-xi(dim, lam), abs=1e-6)


@pytest.mark.parametrize("lam1,lam2", [(0.5, 2.0), (1.0, 3.0)])
@pytest.mark.parametrize("dim", [2, 3])
def test_green_difference_limit(dim, lam1, lam2):
    # G_{lam1} - G_{lam2} is continuous at 0 with value xi(lam2) - xi(lam1)
    expected = xi(dim, lam2) - xi(dim, lam1)
    small_r = green_difference(dim, lam1, lam2, 1e-7)
    assert small_r == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# L2 / Lp norms: closed form vs adaptive quadrature
# ---------------------------------------------------------------------------


def _l2_sq_quadrature(dim, lam):
    s = math.sqrt(lam)
    if dim == 3:
        # 4 pi int r^2 G^2 dr with G = e^{-s r}/(4 pi r)
        val, _ = integrate.quad(
            lambda r: math.exp(-2 * s * r) / (4 * math.pi), 0.0, 40.0 / s
        )
    else:
        val, _ = integrate.quad(
            lambda r: r * special.k0(s * r) ** 2 / (2 * math.pi),
            0.0,
            40.0 / s,
            limit=200,
        )
    return val


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_green_l2_norm_sq_vs_quadrature(dim, lam):
    closed = green_l2_norm_sq(GreenKernel(dim, lam))
    assert closed == pytest.approx(_l2_sq_quadrature(dim, lam), abs=1e-11)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_lambda_l2_identity_3d(lam):
    # lambda * ||G||^2 = xi_lambda / 2
    val = lam * green_l2_norm_sq(GreenKernel(3, lam))
    assert val == pytest.approx(xi(3, lam) / 2.0, rel=1e-14)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_lambda_l2_identity_2d(lam):
    # lambda * ||G||^2 = 1/(4 pi), independent of lambda
    val = lam * green_l2_norm_sq(GreenKernel(2, lam))
    assert val == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_green_lp_norm_2d_frozen_oracle():
    assert green_lp_norm(GreenKernel(2, 1.0), 4.0) == pytest.approx(
        L4_NORM_2D_LAM1, abs=1e-10
    )


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 2.9])
def test_green_lp_norm_3d_vs_quadrature(p):
    lam = 1.7
    s = math.sqrt(lam)
    val, _ = integrate.quad(
        lambda r: 4 * math.pi * r * r * (math.exp(-s * r) / (4 * math.pi * r)) ** p,
        0.0,
        60.0 / s,
    )
    assert green_lp_norm(GreenKernel(3, lam), p) == pytest.approx(
        val ** (1.0 / p), rel=1e-10
    )


@pytest.mark.parametrize("p", [3.0, 3.5, 10.0])
def test_green_lp_norm_3d_not_integrable(p):
    assert green_lp_norm(GreenKernel(3, 1.0), p) is NOT_IN_LP


def test_not_in_lp_is_singleton_and_not_a_number():
    assert NOT_IN_LP is not None
    assert not isinstance(NOT_IN_LP, float)


# ---------------------------------------------------------------------------
# scaling law and xi-dilation derivative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("t", [0.5, 2.0, 3.7])
def test_scaling_law(dim, t):
    # G_lam(r/t) = t^{N-2} G_{lam/t^2}(r)
    lam = 1.9
    k1 = GreenKernel(dim, lam)
    k2 = GreenKernel(dim, lam / t**2)
    for r in (0.1, 1.0, 4.0):
        lhs = green_value(k1, r / t)
        rhs = t ** (dim - 2) * green_value(k2, r)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_xi_derivative_is_green_l2_norm_sq(dim, lam):
    # d xi / d lambda = ||G_lambda||^2; finite difference vs closed form
    h = 1e-5 * lam
    fd = (xi(dim, lam + h) - xi(dim, lam - h)) / (2 * h)
    assert fd == pytest.approx(green_l2_norm_sq(GreenKernel(dim, lam)), rel=1e-6)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [0, 1, 4])
def test_invalid_dimension_rejected(dim):
    with pytest.raises(ValueError):
        GreenKernel(dim, 1.0)
    with pytest.raises(ValueError):
        InteractionStrength(0.0, dim)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_nonpositive_lambda_rejected(lam):
    with pytest.raises(ValueError):
        GreenKernel(3, lam)
    with pytest.raises(ValueError):
        xi(2, lam)


def test_nonpositive_radius_rejected():
    k = GreenKernel(3, 1.0)
    with pytest.raises(ValueError):
        green_value(k, 0.0)
    with pytest.raises(ValueError):
        green_value(k, -1.0)
