"""Reference implementations that only the tests use.

The state algebra (zero_state, add, l2_inner, change_lambda), the coercive
norm assembled term by term with Gauss quadrature (h1_alpha_norm_sq), the
interpolant at the Gauss points by an index gather (nodal_at_gauss_gather),
the stiffness form with a diff of each argument (stiffness_inner_two_diffs),
the extended dilation functional J(theta, u) = I(u(e^{-theta} .)) and the
strong-form residual.  The library computes each of these another way (or
not at all); the tests compare against these forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from deltafield.field import FieldState
from deltafield.functional import _norms, _potential, _require_real, gradient_vector
from deltafield.greens import omega_alpha, xi
from deltafield.nonlinearity import g_signed

# ---------------------------------------------------------------------------
# state algebra and the coercive norm
# ---------------------------------------------------------------------------


def nodal_at_gauss_gather(grid, v):
    """The piecewise-linear interpolant of nodal v at the Gauss points, read
    through each point's cell index (grid.gcell) and barycentric coordinate."""
    v = np.asarray(v)
    return (1.0 - grid.glam) * v[grid.gcell] + grid.glam * v[grid.gcell + 1]


def stiffness_inner_two_diffs(grid, a, b):
    """<grad a, grad b>, diffing a and conj(b) separately."""
    da = np.diff(np.asarray(a))
    db = np.diff(np.conjugate(np.asarray(b)))
    return np.dot(grid.stiff_k, da * db)


def zero_state(grid, lam):
    return FieldState(grid, lam, 0.0, np.zeros(grid.M + 1))


def _check_same(a, b):
    if a.grid is not b.grid and not a.grid.compatible(b.grid):
        raise ValueError("grid mismatch: operations require states on the same grid")
    if a.lam != b.lam:
        raise ValueError("lambda mismatch: call change_lambda first")


def l2_inner(state_a, state_b):
    """<u_a, u_b> in L^2: quadrature for phi parts and cross terms, closed form for ||G||^2."""
    _check_same(state_a, state_b)
    grid = state_a.grid
    g = grid.green(state_a.lam)
    qa = state_a.charge
    qb = np.conjugate(state_b.charge)
    val = (
        grid.mass_inner(state_a.phi, state_b.phi)
        + qb * np.dot(g["c_vec"], state_a.phi)
        + qa * np.dot(g["c_vec"], np.conjugate(state_b.phi))
        + qa * qb * g["l2_sq"]
    )
    return complex(val) if np.iscomplexobj(val) or isinstance(val, complex) else float(val)


@dataclass(frozen=True)
class QuadraticFormValue:
    grad_phi_sq: float
    phi_sq: float
    u_sq: float
    charge_term: float


def h1_alpha_norm_sq(state, strength):
    """Norm components: ||grad phi||^2, ||phi||^2, ||u||^2, (alpha+xi)|q|^2.

    total = grad_phi_sq + lam * phi_sq + charge_term; requires lam > omega_alpha
    so the charge term is coercive.
    """
    if strength.dim != state.grid.dim:
        raise ValueError("dimension mismatch between state and interaction strength")
    if not state.lam > omega_alpha(strength):
        raise ValueError("charge term not coercive: need lambda > omega_alpha")
    grid = state.grid
    grad_sq = float(np.real(grid.stiffness_inner(state.phi, state.phi)))
    phi_sq = float(np.real(grid.mass_inner(state.phi, state.phi)))
    u_sq = float(np.real(l2_inner(state, state)))
    xi_l = xi(grid.dim, state.lam)
    charge_term = (strength.alpha + xi_l) * abs(state.charge) ** 2
    return QuadraticFormValue(grad_sq, phi_sq, u_sq, charge_term)


def h1_alpha_total(state, strength):
    v = h1_alpha_norm_sq(state, strength)
    return v.grad_phi_sq + state.lam * v.phi_sq + v.charge_term


def change_lambda(state, lam_new):
    """Re-split u against G_{lam_new}: charge unchanged, phi absorbs q (G_lam - G_new)."""
    if not lam_new > 0:
        raise ValueError("lambda must be positive")
    if lam_new == state.lam:
        return state
    grid = state.grid
    g_old = grid.green(state.lam)["nodes"]
    g_new = grid.green(lam_new)["nodes"]
    phi = np.array(state.phi, dtype=np.result_type(state.phi, state.charge, float))
    phi[1:] = phi[1:] + state.charge * (g_old[1:] - g_new[1:])
    phi[0] = phi[0] + state.charge * (
        xi(grid.dim, lam_new) - xi(grid.dim, state.lam)
    )
    return FieldState(grid, lam_new, state.charge, phi)


def add(state_a, state_b):
    _check_same(state_a, state_b)
    return FieldState(
        state_a.grid,
        state_a.lam,
        state_a.charge + state_b.charge,
        state_a.phi + state_b.phi,
    )


# ---------------------------------------------------------------------------
# extended functional and the strong-form residual
# ---------------------------------------------------------------------------


def extended_energy(theta, state, spec, strength):
    """J(theta, u) = I(u(e^{-theta} .)) via the closed-form block scaling."""
    grad_sq, l2_diff = _norms(state)
    pot = _potential(state, spec)
    n2 = state.grid.dim - 2
    q2 = abs(state.charge) ** 2
    xi_th = xi(state.grid.dim, math.exp(-2.0 * theta) * state.lam)
    return (
        0.5 * math.exp(n2 * theta) * grad_sq
        + 0.5 * math.exp(n2 * theta) * state.lam * l2_diff
        + 0.5 * math.exp(2 * n2 * theta) * (strength.alpha + xi_th) * q2
        - math.exp(state.grid.dim * theta) * pot
    )


def extended_energy_dtheta(theta, state, spec, strength):
    """d/dtheta of J, using d xi(e^{-2 theta} lam)/dtheta = -2 e^{-(N-2)theta} lam ||G_lam||^2."""
    grid = state.grid
    grad_sq, l2_diff = _norms(state)
    pot = _potential(state, spec)
    n2 = grid.dim - 2
    q2 = abs(state.charge) ** 2
    xi_th = xi(grid.dim, math.exp(-2.0 * theta) * state.lam)
    g_l2 = grid.green(state.lam)["l2_sq"]
    dxi = -2.0 * math.exp(-n2 * theta) * state.lam * g_l2
    return (
        0.5 * n2 * math.exp(n2 * theta) * grad_sq
        + 0.5 * n2 * math.exp(n2 * theta) * state.lam * l2_diff
        + (n2 * (strength.alpha + xi_th) + 0.5 * dxi) * math.exp(2 * n2 * theta) * q2
        - grid.dim * math.exp(grid.dim * theta) * pot
    )


def radial_laplacian(grid, phi, charge=0.0, lam=None):
    """Second-order finite-difference radial Laplacian of the regular part.

    Returns values at nodes 0..M-1 (the outer boundary node is excluded).  At
    r=0 the profile is treated as an even function (ghost-node reflection), so
    Delta phi(0) = N * phi''(0) ~ 2N (phi_1 - phi_0)/r_1^2; with charge != 0
    the node-0 value of the strong residual is not defined and callers should
    ignore it.
    """
    r = grid.nodes
    phi = np.asarray(phi, dtype=float)
    out = np.empty(grid.M)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    denom = hm * hp * (hm + hp)
    d2 = 2.0 * (hm * phi[2:] - (hm + hp) * phi[1:-1] + hp * phi[:-2]) / denom
    d1 = (hm**2 * phi[2:] - hp**2 * phi[:-2] + (hp**2 - hm**2) * phi[1:-1]) / denom
    out[1:] = d2 + (grid.dim - 1) / r[1:-1] * d1
    out[0] = 2.0 * grid.dim * (phi[1] - phi[0]) / r[1] ** 2
    return out


def gradient_system(state, spec, strength):
    """Strong-form nodewise residual plus the scalar charge residual.

    Profile residual: -phi'' - (N-1)/r phi' - lam q G - g(u) at interior
    nodes (nan at r=0 when q != 0, where the forcing is singular; the weak
    system used by Newton has no such defect).  Charge residual: the q-
    component of the weak gradient.
    """
    _require_real(state)
    grid = state.grid
    q = float(np.real(state.charge))
    lap = radial_laplacian(grid, state.phi)
    res = np.full(grid.M + 1, np.nan)
    g_nodes = grid.green(state.lam)["nodes"]
    u_inner = state.phi[1:-1] + q * g_nodes[1:-1]
    res[1:-1] = (
        -lap[1:]
        - state.lam * q * g_nodes[1:-1]
        - g_signed(spec, u_inner)
    )
    if q == 0.0:
        res[0] = -lap[0] - g_signed(spec, state.phi[0])
    _, charge_res = gradient_vector(state, spec, strength)
    return res, charge_res
