"""Tests for nonlinearity families, antiderivatives and hypothesis checks."""

import math

import numpy as np
import pytest
from scipy import integrate

from deltafield.greens import EULER_GAMMA, InteractionStrength
from deltafield.nonlinearity import (
    G_eval,
    check_assumptions,
    dg_signed,
    double_power_family,
    g_eval,
    g_scalar,
    g_signed,
    growth_bounds,
    h_eval,
    log_power_family,
    power_family,
    resolve_omega1,
    saturating_family,
    spec_from_dict,
    spec_to_dict,
)

S_SAMPLES = [0.0, 1e-6, 0.3, 1.0, 2.5, 10.0]


# ---------------------------------------------------------------------------
# family values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", S_SAMPLES)
def test_power_family_values(s):
    spec = power_family(1.0, 2.5)
    assert g_scalar(spec, s) == pytest.approx(-s + s**1.5, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("s", S_SAMPLES)
def test_cubic_family_values(s):
    spec = power_family(1.0, 4.0)
    assert g_scalar(spec, s) == pytest.approx(-s + s**3, rel=1e-14, abs=1e-300)


def test_double_power_values():
    spec = double_power_family(2.0, 1.5, 3.0, 4.0, mu2=-0.25)
    s = 1.7
    expected = -2.0 * s + 1.5 * s**2 - 0.25 * s**3
    assert g_scalar(spec, s) == pytest.approx(expected, rel=1e-14)


def test_log_power_values():
    spec = log_power_family(1.0, 3.0)
    s = 2.0
    assert g_scalar(spec, s) == pytest.approx(-s + s**2 * math.log1p(s), rel=1e-14)


def test_saturating_values():
    spec = saturating_family(1.0, 4.0, 2.5)
    s = 3.0
    assert g_scalar(spec, s) == pytest.approx(
        -s + s**3 / (1.0 + s**1.5), rel=1e-14
    )


def test_g_signed_is_odd():
    spec = power_family(1.0, 2.5)
    s = np.linspace(-5, 5, 101)
    assert np.allclose(g_signed(spec, s), -g_signed(spec, -s), atol=1e-15)


def test_g_eval_gauge_equivariant():
    spec = power_family(1.0, 2.5)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    phase = np.exp(0.9j)
    assert np.allclose(g_eval(spec, phase * u), phase * g_eval(spec, u), rtol=1e-13)
    # and reduces to the signed extension on the real line
    x = np.linspace(-3, 3, 31)
    assert np.allclose(g_eval(spec, x), g_signed(spec, x), rtol=1e-14, atol=1e-300)


def test_dg_signed_matches_analytic():
    spec = power_family(1.0, 2.5)
    s = np.array([0.2, 1.0, 3.0])
    analytic = -1.0 + 1.5 * s**0.5
    assert np.allclose(dg_signed(spec, s), analytic, rtol=1e-8)


# ---------------------------------------------------------------------------
# antiderivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0])
def test_G_eval_power_closed_form(s):
    spec = power_family(1.0, 2.5)
    expected = -0.5 * s**2 + s**2.5 / 2.5
    assert G_eval(spec, s) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "spec",
    [log_power_family(1.0, 3.0), saturating_family(1.0, 4.0, 2.5)],
    ids=["log_power", "saturating"],
)
@pytest.mark.parametrize("s", [0.5, 2.0, 6.0])
def test_G_eval_vs_adaptive_quadrature(spec, s):
    expected, _ = integrate.quad(lambda t: float(g_scalar(spec, t)), 0.0, s)
    assert G_eval(spec, s) == pytest.approx(expected, rel=1e-12)


def test_G_eval_gauge_invariant():
    spec = power_family(1.0, 2.5)
    u = 1.3 * np.exp(0.4j)
    assert G_eval(spec, u) == pytest.approx(G_eval(spec, abs(u)), rel=1e-14)


def test_h_eval_nonnegative_and_zero_near_origin():
    # with omega1 < omega, omega1*s + g(s) < 0 for small s, so h clips to 0
    spec = power_family(1.0, 2.5)
    om1 = 0.5
    s = np.logspace(-8, -1, 40)
    assert np.all(h_eval(spec, s, omega1=om1) == 0.0)
    assert np.all(h_eval(spec, np.logspace(0, 2, 40), omega1=om1) >= 0.0)


def test_resolve_omega1():
    strength3 = InteractionStrength(1.0, 3)  # omega_alpha = 0
    spec = power_family(1.0, 2.5)
    assert resolve_omega1(spec, strength3) == pytest.approx(0.5)
    # 2D alpha=0: omega_alpha ~ 1.26 > omega = 1, interval empty -> omega/2
    strength2 = InteractionStrength(0.0, 2)
    assert resolve_omega1(power_family(1.0, 4.0), strength2) == pytest.approx(0.5)
    # explicit override wins
    spec_o = spec_from_dict({"family": "power", "omega": 1.0, "p": 2.5, "omega1": 0.7})
    assert resolve_omega1(spec_o, strength3) == 0.7


def test_growth_bounds_hold():
    for spec in (
        power_family(1.0, 2.5),
        double_power_family(2.0, 1.0, 2.5, 2.8),
        saturating_family(1.0, 4.0, 2.5),
    ):
        gb = growth_bounds(spec)
        s = np.logspace(-8, 8, 500)
        bound = gb.c1 * s + gb.c2 * s ** (spec.p_growth - 1.0)
        assert np.all(np.abs(g_scalar(spec, s)) <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def test_assumptions_repulsive_3d():
    report = check_assumptions(power_family(1.0, 2.5), InteractionStrength(1.0, 3))
    assert report.passed("g1")
    assert report.passed("g2")
    assert report.passed("g3")
    assert report.passed("g4")
    assert report.theorem_repulsive_3d


def test_assumptions_2d_cubic():
    # omega = 1 sits below the 2D threshold omega_alpha = 4 e^{-2 gamma} ~ 1.26,
    # so the limit hypothesis on g(s)/s fails even though beta = 4 gives the
    # superquadratic condition (with equality)
    report = check_assumptions(power_family(1.0, 4.0), InteractionStrength(0.0, 2))
    assert report.passed("g1")
    assert not report.passed("g2")
    assert report.passed("g5")
    assert not report.theorem_attractive_or_2d


def test_assumptions_2d_cubic_large_omega():
    # raising omega above the threshold restores the full hypothesis set
    om_a = 4.0 * math.exp(-2 * EULER_GAMMA)
    report = check_assumptions(power_family(2.0, 4.0), InteractionStrength(0.0, 2))
    assert 2.0 > om_a
    assert report.passed("g2")
    assert report.passed("g5")
    assert report.theorem_attractive_or_2d


def test_assumptions_3d_supercritical_growth_fails_g3():
    report = check_assumptions(power_family(1.0, 3.5), InteractionStrength(1.0, 3))
    assert not report.passed("g3")
    assert not report.theorem_repulsive_3d


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        power_family(0.0, 2.5)  # omega must be positive
    with pytest.raises(ValueError):
        power_family(-1.0, 2.5)
    with pytest.raises(ValueError):
        power_family(1.0, 2.0)  # exponent must exceed 2
    with pytest.raises(ValueError):
        saturating_family(1.0, 2.5, 4.0)  # needs p > q > 2


@pytest.mark.parametrize(
    "spec",
    [
        power_family(1.0, 2.5),
        double_power_family(2.0, 1.5, 2.5, 2.8, mu2=-0.5),
        log_power_family(1.0, 2.5),
        saturating_family(1.0, 4.0, 2.5),
    ],
    ids=["power", "double_power", "log_power", "saturating"],
)
def test_spec_dict_roundtrip(spec):
    back = spec_from_dict(spec_to_dict(spec))
    s = np.logspace(-3, 1, 50)
    assert np.allclose(g_scalar(back, s), g_scalar(spec, s), rtol=1e-14)
    assert back.omega == spec.omega
    assert back.p_growth == spec.p_growth


def test_spec_from_dict_power():
    spec = spec_from_dict({"family": "power", "omega": 1.0, "p": 2.5})
    assert g_scalar(spec, 4.0) == pytest.approx(-4.0 + 8.0, rel=1e-14)


def test_spec_from_dict_rejects_unknown_family():
    with pytest.raises((ValueError, KeyError)):
        spec_from_dict({"family": "exponential", "omega": 1.0})


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        spec_from_dict({"family": "power", "omega": 1.0, "p": 2.5, "zeta": 3})


def test_spec_from_dict_rejects_missing_keys():
    with pytest.raises((ValueError, KeyError, TypeError)):
        spec_from_dict({"family": "power", "omega": 1.0})
