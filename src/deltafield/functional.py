"""The action functional, its derivative, and the verification residuals.

All quantities are evaluated in a single consistent discrete model (piecewise
linear profile, per-cell Gauss quadrature with the exact kernel at quadrature
points, closed forms for pure Green-kernel integrals).  Because the energy,
the directional derivative, the assembled gradient and the Hessian all use the
same discrete forms, finite differences of the energy reproduce the derivative
to near machine precision, and Newton converges quadratically on the discrete
critical points.

For the action I(u) with u = phi + q G_lam:

    I = 1/2 ||grad phi||^2 + (lam/2)(||phi||^2 - ||u||^2)
        + 1/2 (alpha + xi_lam) |q|^2 - int G(u)

The coercive norm ||grad phi||^2 + lam ||phi||^2 + (alpha + xi_lam)|q|^2 of
the energy space (lam > omega_alpha) is assembled once per (grid, lam) by
_operator; coercive_norm_sq, riesz_representative and hessian_blocks read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

from .field import FieldState
from .greens import omega_alpha, xi
from .nonlinearity import G_eval, dg_signed, g_eval, g_signed

__all__ = [
    "EnergyBreakdown",
    "VerificationReport",
    "energy",
    "derivative",
    "gradient_vector",
    "gradient_norm",
    "riesz_representative",
    "hessian_blocks",
    "arrow_solve",
    "morse_index",
    "coercive_norm_sq",
    "pohozaev_residual",
    "pohozaev_residual_alt",
    "boundary_residual",
    "blowup_diagnostic",
    "verify",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float        # 1/2 ||grad phi||^2
    l2_block: float       # (lam/2)(||phi||^2 - ||u||^2)
    charge_block: float   # 1/2 (alpha + xi_lam)|q|^2
    potential: float      # int G(u)

    @property
    def total(self):
        return self.kinetic + self.l2_block + self.charge_block - self.potential


def _norms(state):
    """(||grad phi||^2, ||phi||^2 - ||u||^2) in the discrete model; the
    difference in closed form, -(2 Re(conj(q) <phi, G>) + |q|^2 ||G||^2)."""
    grid = state.grid
    g = grid.green(state.lam)
    q = state.charge
    grad_sq = float(np.real(grid.stiffness_inner(state.phi, state.phi)))
    cross = np.conjugate(q) * np.dot(g["c_vec"], state.phi)
    l2_diff = -(2.0 * float(np.real(cross)) + abs(q) ** 2 * g["l2_sq"])
    return grad_sq, l2_diff


def _potential(state, spec):
    u_gp = state.u_at_gauss()
    return float(np.dot(state.grid.gw, G_eval(spec, u_gp)))


def energy(state, spec, strength):
    if strength.dim != state.grid.dim:
        raise ValueError("dimension mismatch between state and interaction strength")
    grad_sq, l2_diff = _norms(state)
    xi_l = xi(state.grid.dim, state.lam)
    return EnergyBreakdown(
        kinetic=0.5 * grad_sq,
        l2_block=0.5 * state.lam * l2_diff,
        charge_block=0.5 * (strength.alpha + xi_l) * abs(state.charge) ** 2,
        potential=_potential(state, spec),
    )


def derivative(state, direction, spec, strength):
    """Directional derivative I'(u)[v], real by definition."""
    if state.grid is not direction.grid and not state.grid.compatible(direction.grid):
        raise ValueError("grid mismatch between state and direction")
    if state.lam != direction.lam:
        raise ValueError("lambda mismatch between state and direction")
    grid = state.grid
    g = grid.green(state.lam)
    xi_l = xi(grid.dim, state.lam)
    u_gp = state.u_at_gauss()
    v_gp = direction.u_at_gauss()
    nl = np.dot(grid.gw, g_eval(spec, u_gp) * np.conjugate(v_gp))
    q, qv, c = state.charge, np.conjugate(direction.charge), g["c_vec"]
    # lam (<phi, psi> - <u, v>) with the phi-psi mass term cancelled
    l2_cross = qv * np.dot(c, state.phi) + q * np.dot(c, np.conjugate(direction.phi))
    val = (
        grid.stiffness_inner(state.phi, direction.phi)
        - state.lam * (l2_cross + q * qv * g["l2_sq"])
        + (strength.alpha + xi_l) * q * qv
        - nl
    )
    return float(np.real(val))


# ---------------------------------------------------------------------------
# Real-gauge gradient / Hessian assembly (the solver's system).
# ---------------------------------------------------------------------------


def _require_real(state):
    if np.iscomplexobj(state.phi) or np.iscomplexobj(np.asarray(state.charge)):
        raise ValueError("solver-side assembly requires the real gauge (gauge_fix first)")


def gradient_vector(state, spec, strength):
    """(grad wrt nodal phi, grad wrt q) of the discrete action, real gauge.

    The lam*mass terms of the phi-block cancel between (lam/2)||phi||^2 and
    -(lam/2)||u||^2; what remains is the stiffness part, the charge coupling
    through the kernel, and the nonlinear term tested with hat functions.
    """
    _require_real(state)
    grid = state.grid
    g = grid.green(state.lam)
    q = float(np.real(state.charge))
    u_gp = grid.nodal_at_gauss(state.phi) + q * g["gp"]
    gvals = g_signed(spec, u_gp)
    s_phi = _stiffness_apply(grid, state.phi)
    grad_phi = s_phi - state.lam * q * g["c_vec"] - grid.scatter_to_nodes(gvals)
    xi_l = xi(grid.dim, state.lam)
    grad_q = (
        (strength.alpha + xi_l) * q
        - state.lam * (np.dot(g["c_vec"], state.phi) + q * g["l2_sq"])
        - np.dot(grid.gw, gvals * g["gp"])
    )
    return grad_phi, float(grad_q)


def _stiffness_apply(grid, v):
    d = np.diff(v) * grid.stiff_k
    out = np.zeros_like(np.asarray(v, dtype=float))
    out[:-1] -= d
    out[1:] += d
    return out


def _tridiag_from_gauss(grid, coeff_at_gauss):
    """Tridiagonal (diag, off) of sum_g coeff_g hat_i hat_j at the Gauss points."""
    gl, cell, n = grid.glam, grid.gcell, grid.M + 1
    c = grid.gw * coeff_at_gauss
    diag = np.bincount(cell, c * (1.0 - gl) ** 2, n) + np.bincount(cell + 1, c * gl**2, n)
    off = np.bincount(cell, c * gl * (1.0 - gl), grid.M)
    return diag, off


def _operator(grid, lam):
    """grid.green(lam), with the discrete operator of the coercive norm added once:
    "stiff" and "mass" (the stiffness and mass bands) and "riesz_chol" (upper
    banded Cholesky factor of B = S + lam*M, the norm's profile block)."""
    g = grid.green(lam)
    if "riesz_chol" not in g:
        md, mo = _tridiag_from_gauss(grid, 1.0)
        sd = np.zeros(grid.M + 1)
        sd[:-1] += grid.stiff_k
        sd[1:] += grid.stiff_k
        so = -grid.stiff_k
        ab = np.zeros((2, grid.M + 1))
        ab[0, 1:] = so + lam * mo
        ab[1, :] = sd + lam * md
        g["stiff"] = (sd, so)
        g["mass"] = (md, mo)
        g["riesz_chol"] = cholesky_banded(ab)
    return g


def _require_coercive(lam, strength):
    if not lam > omega_alpha(strength):
        raise ValueError("coercive norm needs lambda > omega_alpha")


def coercive_norm_sq(grid, lam, strength, dphi, dq):
    """||grad phi||^2 + lam ||phi||^2 + (alpha + xi_lam) q^2 for real nodal dphi
    and charge dq, with the mass term read from the cached bands."""
    _require_coercive(lam, strength)
    g = _operator(grid, lam)
    md, mo = g["mass"]
    grad = float(grid.stiffness_inner(dphi, dphi))
    mass = float(np.dot(md, dphi * dphi) + 2.0 * np.dot(mo, dphi[:-1] * dphi[1:]))
    return grad + lam * mass + (strength.alpha + g["xi"]) * dq * dq


def riesz_representative(state, strength, grad_phi, grad_q):
    """Solve the norm's quadratic form for the dual gradient: B z = grad.

    B is block diagonal: stiffness + lam*mass on the profile block and
    (alpha + xi_lam) on the charge; needs lam > omega_alpha.
    """
    grid = state.grid
    _require_coercive(state.lam, strength)
    z_phi = cho_solve_banded((_operator(grid, state.lam)["riesz_chol"], False), grad_phi)
    xi_l = xi(grid.dim, state.lam)
    z_q = grad_q / (strength.alpha + xi_l)
    return z_phi, z_q


def gradient_norm(state, spec, strength):
    """Dual norm of I'(u) wrt the coercive norm at the state's own lambda."""
    gp, gq = gradient_vector(state, spec, strength)
    zp, zq = riesz_representative(state, strength, gp, gq)
    return math.sqrt(max(float(np.dot(gp, zp) + gq * zq), 0.0))


def hessian_blocks(state, spec, strength):
    """Second derivative of the discrete action at a real-gauge state.

    Returns (diag, off, b, d): tridiagonal phi-phi block (stiffness minus the
    linearized nonlinear term), the phi-q coupling column b, and the scalar
    q-q entry d.  The nonlinearity is linearized with numerical g'.
    """
    _require_real(state)
    grid = state.grid
    g = _operator(grid, state.lam)
    q = float(np.real(state.charge))
    u_gp = grid.nodal_at_gauss(state.phi) + q * g["gp"]
    dg = dg_signed(spec, u_gp)
    sd, so = g["stiff"]
    nd, no = _tridiag_from_gauss(grid, dg)
    diag = sd - nd
    off = so - no
    b = -state.lam * g["c_vec"] - grid.scatter_to_nodes(dg * g["gp"])
    xi_l = xi(grid.dim, state.lam)
    d = (
        (strength.alpha + xi_l)
        - state.lam * g["l2_sq"]
        - float(np.dot(grid.gw, dg * g["gp"] ** 2))
    )
    return diag, off, b, d


def _tridiag_solve(diag, off, rhs):
    """T^-1 rhs for the symmetric tridiagonal T = (diag, off), by banded LU."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def arrow_solve(diag, off, b, d, rhs_phi, rhs_q):
    """Solve the symmetric arrow system [[T, b], [b^T, d]] x = rhs.

    T is tridiagonal (diag, off); solved by block elimination with one banded
    solve on the two right-hand sides, so the cost stays linear in the grid
    size.
    """
    x1, x2 = _tridiag_solve(diag, off, np.column_stack([rhs_phi, b])).T
    denom = d - float(np.dot(b, x2))
    if denom == 0.0:
        raise np.linalg.LinAlgError("arrow system is singular")
    q = (rhs_q - float(np.dot(b, x1))) / denom
    return x1 - q * x2, q


def morse_index(diag, off, b, d):
    """Number of negative eigenvalues of the arrow system [[T, b], [b^T, d]].

    Sylvester's law of inertia: the negative LDL^T pivots of the tridiagonal
    T (recurrence on Python floats; an exact zero pivot is nudged negative),
    plus one if the Schur complement d - b^T T^-1 b is negative.
    """
    neg = 0
    piv = 1.0
    for a, c in zip(diag.tolist(), [0.0] + off.tolist()):
        piv = a - c * c / piv
        if piv == 0.0:
            piv = -math.ulp(0.0)
        neg += piv < 0.0
    schur = d - float(np.dot(b, _tridiag_solve(diag, off, b)))
    return neg + int(schur < 0.0)


# ---------------------------------------------------------------------------
# Residual identities.
# ---------------------------------------------------------------------------


def pohozaev_residual(state, spec, strength):
    """The dilation identity's right-hand side; zero at exact solutions.

    (N-2)/2 ||grad phi||^2 + (N-2) lam/2 (||phi||^2 - ||u||^2)
    - lam ||G_lam||^2 |q|^2 + (N-2)(alpha + xi_lam)|q|^2 - N int G(u).
    """
    grid = state.grid
    grad_sq, l2_diff = _norms(state)
    pot = _potential(state, spec)
    n2 = grid.dim - 2
    q2 = abs(state.charge) ** 2
    xi_l = xi(grid.dim, state.lam)
    g_l2 = grid.green(state.lam)["l2_sq"]
    return (
        0.5 * n2 * grad_sq
        + 0.5 * n2 * state.lam * l2_diff
        - state.lam * g_l2 * q2
        + n2 * (strength.alpha + xi_l) * q2
        - grid.dim * pot
    )


def pohozaev_residual_alt(state, spec, strength):
    """3D rewriting: 1/2||grad phi||^2 + lam/2(||phi||^2-||u||^2)
    + 1/2(alpha+xi)|q|^2 + 1/2 alpha |q|^2 - 3 int G(u); equals the primary
    form identically through lam ||G_lam||^2 = xi_lam / 2."""
    if state.grid.dim != 3:
        raise ValueError("the alternate Pohozaev form is specific to dimension 3")
    grad_sq, l2_diff = _norms(state)
    pot = _potential(state, spec)
    q2 = abs(state.charge) ** 2
    xi_l = xi(3, state.lam)
    return (
        0.5 * grad_sq
        + 0.5 * state.lam * l2_diff
        + 0.5 * (strength.alpha + xi_l) * q2
        + 0.5 * strength.alpha * q2
        - 3.0 * pot
    )


def boundary_residual(state, strength):
    """phi(0) - (alpha + xi_lam) q: the matching condition at the origin."""
    xi_l = xi(state.grid.dim, state.lam)
    res = state.phi[0] - (strength.alpha + xi_l) * state.charge
    return complex(res) if np.iscomplexobj(np.asarray(res)) else float(res)


def blowup_diagnostic(state, n_points=16):
    """Least-squares slope of log|phi'| vs log r over the innermost cells.

    phi' is taken at cell midpoints (one-sided of the first cell excluded: the
    r=0 node carries the regular-part value).  Returns None when the profile
    is too flat for a meaningful fit or the grid too coarse.
    """
    grid = state.grid
    if grid.M < 2 * n_points + 2:
        return None
    phi = np.real(np.asarray(state.phi))
    idx = np.arange(1, n_points + 1)
    h = np.diff(grid.nodes)[idx]
    dphi = (phi[idx + 1] - phi[idx]) / h
    mid = 0.5 * (grid.nodes[idx] + grid.nodes[idx + 1])
    mag = np.abs(dphi)
    if np.max(mag) < 1e-13:
        return None
    keep = mag > 1e-300
    if keep.sum() < 4:
        return None
    slope = np.polyfit(np.log(mid[keep]), np.log(mag[keep]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class VerificationReport:
    energy: EnergyBreakdown
    gradient_norm: float
    pohozaev_residual: float
    pohozaev_residual_alt: float | None
    boundary_residual: complex
    blowup_exponent: float | None
    charge: complex
    lam: float

    def to_json_dict(self):
        b = complex(self.boundary_residual)
        q = complex(self.charge)
        return {
            "energy": {
                "kinetic": self.energy.kinetic,
                "l2_block": self.energy.l2_block,
                "charge_block": self.energy.charge_block,
                "potential": self.energy.potential,
                "total": self.energy.total,
            },
            "gradient_norm": self.gradient_norm,
            "pohozaev_residual": self.pohozaev_residual,
            "pohozaev_residual_alt": self.pohozaev_residual_alt,
            "boundary_residual_re": b.real,
            "boundary_residual_im": b.imag,
            "blowup_exponent": self.blowup_exponent,
            "charge_re": q.real,
            "charge_im": q.imag,
            "lambda": self.lam,
        }


def verify(state, spec, strength):
    """Full residual report for a candidate state."""
    en = energy(state, spec, strength)
    try:
        gn = gradient_norm(state, spec, strength)
    except ValueError:
        # complex state or non-coercive lambda: fall back on the gauge-fixed
        # real part when possible, else report nan
        from .field import gauge_fix

        fixed = gauge_fix(state)
        try:
            real_state = FieldState(
                fixed.grid, fixed.lam, float(np.real(fixed.charge)), np.real(fixed.phi)
            )
            gn = gradient_norm(real_state, spec, strength)
        except ValueError:
            gn = float("nan")
    alt = pohozaev_residual_alt(state, spec, strength) if state.grid.dim == 3 else None
    return VerificationReport(
        energy=en,
        gradient_norm=gn,
        pohozaev_residual=pohozaev_residual(state, spec, strength),
        pohozaev_residual_alt=alt,
        boundary_residual=boundary_residual(state, strength),
        blowup_exponent=blowup_diagnostic(state),
        charge=state.charge,
        lam=state.lam,
    )
