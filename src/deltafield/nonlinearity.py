"""Nonlinearities g, their antiderivatives G, and assumption checking.

A nonlinearity is g(s) = -omega*s + sum_j mu_j s^{p_j - 1} (optionally times
log(s+1)) [+ saturating term s^{p-1}/(1+s^{p-q})], defined for s >= 0 and
extended to complex arguments gauge-invariantly: g(u) = g(|u|) u / |u|.

The auxiliary envelope h(s) = max{omega1*s + g(s), 0} (with omega1 below the
linearization frequency omega) isolates the superlinear part; the
superquadratic check beta*H(s) <= h(s)*s uses h = g + omega*s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .greens import omega_alpha

__all__ = [
    "PowerTerm",
    "NonlinearitySpec",
    "GrowthBounds",
    "AssumptionReport",
    "power_family",
    "double_power_family",
    "log_power_family",
    "saturating_family",
    "g_eval",
    "G_eval",
    "g_signed",
    "g_float",
    "dg_signed",
    "h_eval",
    "resolve_omega1",
    "growth_bounds",
    "check_assumptions",
    "spec_to_dict",
    "spec_from_dict",
]

# nodes/weights for vectorized antiderivative quadrature int_0^s f(t) dt
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass(frozen=True)
class PowerTerm:
    """One superlinear term mu * s^{exponent-1}, optionally times log(s+1)."""

    coef: float
    exponent: float
    log_factor: bool = False

    def __post_init__(self):
        if not self.exponent > 2:
            raise ValueError("term exponents must exceed 2")


@dataclass(frozen=True)
class NonlinearitySpec:
    """g(s) = -omega*s + terms (+ saturating part), with assumption metadata.

    p_growth is the growth exponent p (|g(s)| <= c1 s + c2 s^{p-1}); beta the
    optional superquadratic exponent; zeta_hint an optional point with G>0;
    omega1 the envelope frequency (resolved against the interaction strength
    when left unset); sat an optional (p, q) pair adding s^{p-1}/(1+s^{p-q}).
    """

    omega: float
    terms: tuple = ()
    p_growth: float = 0.0
    beta: float | None = None
    zeta_hint: float | None = None
    omega1: float | None = None
    sat: tuple | None = None

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not self.terms and self.sat is None:
            raise ValueError("nonlinearity needs at least one superlinear term")
        if not self.p_growth > 2:
            raise ValueError("p_growth must exceed 2")
        if self.sat is not None:
            p, q = self.sat
            if not (p > 2 and q > 2 and p > q):
                raise ValueError("saturating part needs p > q > 2")


@dataclass(frozen=True)
class GrowthBounds:
    c1: float
    c2: float


def power_family(omega, p):
    """g(s) = -omega*s + s^{p-1}."""
    return NonlinearitySpec(omega=omega, terms=(PowerTerm(1.0, p),), p_growth=p, beta=p)


def double_power_family(omega, mu1, p1, p2, mu2=1.0):
    """g(s) = -omega*s + mu1*s^{p1-1} + mu2*s^{p2-1} (signs free via the coefficients)."""
    return NonlinearitySpec(
        omega=omega,
        terms=(PowerTerm(mu1, p1), PowerTerm(mu2, p2)),
        p_growth=max(p1, p2),
    )


def log_power_family(omega, p):
    """g(s) = -omega*s + s^{p-1} log(s+1); grows like s^{p-1+eps} for every eps>0."""
    return NonlinearitySpec(
        omega=omega, terms=(PowerTerm(1.0, p, log_factor=True),), p_growth=p + 0.1
    )


def saturating_family(omega, p, q):
    """g(s) = -omega*s + s^{p-1}/(1+s^{p-q}): behaves like s^{p-1} near 0, s^{q-1} at infinity."""
    return NonlinearitySpec(omega=omega, sat=(p, q), p_growth=p)


def g_scalar(spec, s, log1p=np.log1p):
    """g on s >= 0: an array, or a Python float with log1p=math.log1p (then
    no numpy call is made)."""
    out = 0.0
    for t in spec.terms:
        piece = t.coef * s ** (t.exponent - 1.0)
        if t.log_factor:
            piece = piece * log1p(s)
        out = out + piece
    if spec.sat is not None:
        p, q = spec.sat
        out = out + s ** (p - 1.0) / (1.0 + s ** (p - q))
    return -spec.omega * s + out


def g_signed(spec, s):
    """Odd extension of g to real s (the real-gauge evaluation)."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * g_scalar(spec, np.abs(s))


def g_float(spec, s):
    """g_signed at one Python float, without numpy (the shooting right-hand side)."""
    return math.copysign(1.0, s) * g_scalar(spec, abs(s), math.log1p)


def dg_signed(spec, s, h=None):
    """Numerical derivative of the odd extension (central differences).

    Used to assemble Newton Jacobians; families stay first-class without
    per-family derivative formulas.
    """
    s = np.asarray(s, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + np.abs(s))
    return (g_signed(spec, s + h) - g_signed(spec, s - h)) / (2.0 * h)


def g_eval(spec, u):
    """Gauge-invariant extension g(u) = g(|u|) u/|u| (0 at 0)."""
    u = np.asarray(u)
    mod = np.abs(u)
    scalar_input = mod.ndim == 0
    mod = np.atleast_1d(mod)
    u = np.atleast_1d(u)
    safe = np.where(mod > 0, mod, 1.0)
    out = np.where(mod > 0, g_scalar(spec, mod) * u / safe, 0.0 * u)
    return out[0] if scalar_input else out


def G_eval(spec, u):
    """Antiderivative G(s) = int_0^s g, evaluated at |u| (real-valued, G(0)=0).

    Plain power terms use the closed form; log/saturating parts integrate by a
    fixed Gauss rule (smooth integrand, accurate to ~1e-14 relative).
    """
    s = np.abs(np.asarray(u))
    scalar_input = s.ndim == 0
    s = np.atleast_1d(s)
    out = -0.5 * spec.omega * s**2
    need_quad = False
    for t in spec.terms:
        if t.log_factor:
            need_quad = True
        else:
            out = out + (t.coef / t.exponent) * s**t.exponent
    if spec.sat is not None:
        need_quad = True
    if need_quad:
        # int_0^s f = s * sum_k w_k f(s x_k), vectorized over s
        pts = s[..., None] * _GL_X
        vals = np.zeros_like(pts)
        for t in spec.terms:
            if t.log_factor:
                vals += t.coef * pts ** (t.exponent - 1.0) * np.log1p(pts)
        if spec.sat is not None:
            p, q = spec.sat
            vals += pts ** (p - 1.0) / (1.0 + pts ** (p - q))
        out = out + s * np.dot(vals, _GL_W)
    return float(out[0]) if scalar_input else out


def resolve_omega1(spec, strength):
    """omega1 defaults to the midpoint of (omega_alpha, omega) when that interval
    is nonempty, else omega/2 (the interval can be empty when omega <= omega_alpha,
    outside the theorems' hypotheses)."""
    if spec.omega1 is not None:
        return spec.omega1
    om_a = omega_alpha(strength)
    if om_a < spec.omega:
        return 0.5 * (om_a + spec.omega)
    return 0.5 * spec.omega


def h_eval(spec, s, strength=None, omega1=None):
    """Envelope h(s) = max{omega1*s + g(s), 0} on s >= 0."""
    if omega1 is None:
        if strength is None:
            raise ValueError("h_eval needs either omega1 or an interaction strength")
        omega1 = resolve_omega1(spec, strength)
    s = np.asarray(s, dtype=float)
    return np.maximum(omega1 * s + g_scalar(spec, s), 0.0)


def growth_bounds(spec, margin=1.05):
    """Empirical (c1, c2) with |g(s)| <= c1 s + c2 s^{p-1} on a log-spaced sample."""
    s = np.logspace(-8, 8, 400)
    gv = np.abs(g_scalar(spec, s))
    c1 = spec.omega * margin
    denom = s ** (spec.p_growth - 1.0)
    c2 = float(np.max(np.maximum(gv - c1 * s, 0.0) / denom)) * margin + 1e-12
    return GrowthBounds(c1=c1, c2=c2)


@dataclass(frozen=True)
class AssumptionReport:
    entries: dict
    theorem_repulsive_3d: bool   # N=3, alpha>0 regime hypotheses
    theorem_attractive_or_2d: bool  # N=3 alpha<=0 / N=2 regime hypotheses
    details: dict = dc_field(default_factory=dict)

    def passed(self, name):
        return self.entries.get(name, False)


def check_assumptions(spec, strength):
    """Sampled verification of (g1)-(g5)-style hypotheses; advisory, never raises.

    g1: continuity / g(0)=0 (structural for the built-in families).
    g2: g(s)/s -> -omega as s->0+, and omega > omega_alpha.
    g3: growth |g| <= c1 s + c2 s^{p-1} with p < 3 when N=3.
    g4: exists zeta > 0 with G(zeta) > 0.
    g5: beta*H(s) <= h(s)*s for h = g + omega*s, sampled (needs beta > 2).
    """
    entries = {}
    details = {}
    dim = strength.dim
    om_a = omega_alpha(strength)

    entries["g1"] = True  # families are continuous with g(0)=0 by construction

    s_small = np.logspace(-14, -8, 50)
    ratios = g_scalar(spec, s_small) / s_small
    limit_ok = bool(np.max(np.abs(ratios + spec.omega)) < 1e-3)
    entries["g2"] = limit_ok and (spec.omega > om_a)
    details["g2"] = {
        "limit_at_zero_ok": limit_ok,
        "omega": spec.omega,
        "omega_alpha": om_a,
        "omega_exceeds_omega_alpha": spec.omega > om_a,
    }

    gb = growth_bounds(spec)
    s_big = np.logspace(-8, 8, 400)
    bound_ok = bool(
        np.all(
            np.abs(g_scalar(spec, s_big))
            <= gb.c1 * s_big + gb.c2 * s_big ** (spec.p_growth - 1.0) + 1e-9
        )
    )
    # limsup g(s)/s^{p-1} <= 0 at infinity for p_growth strictly above the top degree
    tail = g_scalar(spec, 1e8) / 1e8 ** (spec.p_growth - 1.0)
    entries["g3"] = bound_ok and (dim != 3 or spec.p_growth < 3)
    details["g3"] = {"c1": gb.c1, "c2": gb.c2, "tail_ratio": float(tail)}

    zeta = spec.zeta_hint
    if zeta is None or not G_eval(spec, zeta) > 0:
        scan = np.logspace(-2, 6, 200)
        gvals = G_eval(spec, scan)
        idx = np.argmax(gvals > 0)
        zeta = float(scan[idx]) if gvals[idx] > 0 else None
    entries["g4"] = zeta is not None
    details["g4"] = {"zeta": zeta}

    if spec.beta is not None and spec.beta > 2:
        s = np.logspace(-6, 4, 200)
        h = np.maximum(g_scalar(spec, s) + spec.omega * s, 0.0)
        # H for h = g + omega s has the closed form G(s) + omega s^2/2
        H = G_eval(spec, s) + 0.5 * spec.omega * s**2
        entries["g5"] = bool(np.all(spec.beta * H <= h * s + 1e-10 * (1.0 + h * s)))
        details["g5"] = {"beta": spec.beta}
    else:
        entries["g5"] = False
        details["g5"] = {"beta": spec.beta, "reason": "no beta > 2 supplied"}

    thm_repulsive = (
        dim == 3
        and strength.alpha > 0
        and all(entries[k] for k in ("g1", "g2", "g3", "g4"))
    )
    thm_attractive = (
        (dim == 2 or (dim == 3 and strength.alpha <= 0))
        and all(entries[k] for k in ("g1", "g2", "g3", "g5"))
    )
    return AssumptionReport(
        entries=entries,
        theorem_repulsive_3d=thm_repulsive,
        theorem_attractive_or_2d=thm_attractive,
        details=details,
    )


# -- CLI (de)serialization ---------------------------------------------------

_FAMILIES = ("power", "double_power", "log_power", "saturating", "custom_terms")


def spec_to_dict(spec):
    return {
        "family": "custom_terms",
        "omega": spec.omega,
        "terms": [[t.coef, t.exponent, t.log_factor] for t in spec.terms],
        "sat": list(spec.sat) if spec.sat else None,
        "p_growth": spec.p_growth,
        "beta": spec.beta,
        "zeta_hint": spec.zeta_hint,
        "omega1": spec.omega1,
    }


def spec_from_dict(d):
    d = dict(d)
    family = d.pop("family", None)
    if family not in _FAMILIES:
        raise ValueError("unknown nonlinearity family %r (expected one of %s)" % (family, _FAMILIES))
    if family == "power":
        allowed = {"omega", "p", "beta", "omega1", "zeta_hint"}
        _reject_unknown(d, allowed, "nonlinearity")
        spec = power_family(d["omega"], d["p"])
        return _with_overrides(spec, d)
    if family == "double_power":
        allowed = {"omega", "mu1", "p1", "p2", "mu2", "beta", "omega1", "zeta_hint"}
        _reject_unknown(d, allowed, "nonlinearity")
        spec = double_power_family(
            d["omega"], d["mu1"], d["p1"], d["p2"], d.get("mu2", 1.0)
        )
        return _with_overrides(spec, d)
    if family == "log_power":
        allowed = {"omega", "p", "beta", "omega1", "zeta_hint"}
        _reject_unknown(d, allowed, "nonlinearity")
        spec = log_power_family(d["omega"], d["p"])
        return _with_overrides(spec, d)
    if family == "saturating":
        allowed = {"omega", "p", "q", "beta", "omega1", "zeta_hint"}
        _reject_unknown(d, allowed, "nonlinearity")
        spec = saturating_family(d["omega"], d["p"], d["q"])
        return _with_overrides(spec, d)
    allowed = {"omega", "terms", "sat", "p_growth", "beta", "omega1", "zeta_hint"}
    _reject_unknown(d, allowed, "nonlinearity")
    return NonlinearitySpec(
        omega=d["omega"],
        terms=tuple(PowerTerm(*t) for t in d.get("terms", [])),
        sat=tuple(d["sat"]) if d.get("sat") else None,
        p_growth=d["p_growth"],
        beta=d.get("beta"),
        zeta_hint=d.get("zeta_hint"),
        omega1=d.get("omega1"),
    )


def _reject_unknown(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ValueError("unknown %s keys: %s" % (where, sorted(unknown)))


def _with_overrides(spec, d):
    from dataclasses import replace

    kwargs = {}
    for key in ("beta", "omega1", "zeta_hint"):
        if d.get(key) is not None:
            kwargs[key] = d[key]
    return replace(spec, **kwargs) if kwargs else spec
