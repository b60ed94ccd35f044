"""Graded radial grid and the algebra of states u = phi + q * G_lam.

The profile phi lives as nodal values on a graded mesh r_i = r_max (i/M)^gamma
and is understood as its piecewise-linear interpolant.  All integrals against
the radial measure (4 pi r^2 in 3D, 2 pi r in 2D) are evaluated by per-cell
Gauss-Legendre rules; on the first cell [0, r1] the rule is mapped through
r = r1 * t^s so that the integrable Green-kernel singularity (G^p with p < 3
in 3D, log powers in 2D) is resolved without ever evaluating anything at r=0.

Green-squared integrals use the closed form; only cross terms <phi, G> and
nonlinear integrals go through quadrature.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .greens import (
    GreenKernel,
    green_l2_norm_sq,
    green_value,
    xi,
)

__all__ = [
    "RadialGrid",
    "FieldState",
    "make_grid",
    "default_grading",
    "dilate",
    "scale",
    "gauge_fix",
    "resample",
    "save_profile",
    "load_profile",
]

_GAUSS_CELL = 6          # Gauss-Legendre points per regular cell
_GAUSS_FIRST = 32        # points on the mapped first cell
_FIRST_CELL_POWER = 16   # mapping exponent s in r = r1 * t^s


def default_grading(p_growth=None):
    """Default grading exponent: max(2, 1/(3-p)) so r^{2-p} gradient blow-up is resolved."""
    if p_growth is None or p_growth >= 3:
        return 2.0
    return max(2.0, 1.0 / (3.0 - p_growth))


class RadialGrid:
    """Graded radial mesh with dimension-dependent measure and quadrature data.

    Attributes (read-only by convention):
      nodes     -- r_i = r_max (i/M)^gamma, i = 0..M
      stiff_k   -- per-cell stiffness coefficients: int_cell measure dr / h^2
      gp, gw    -- flattened Gauss points/weights (weights include the measure)
      gcell     -- cell index of each Gauss point
      glam      -- barycentric coordinate of each Gauss point inside its cell
    """

    def __init__(self, dim, r_max, M, grading_exponent):
        if dim not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if not r_max > 0:
            raise ValueError("r_max must be positive")
        if M < 64:
            raise ValueError("M must be >= 64")
        if grading_exponent < 1:
            raise ValueError("grading_exponent must be >= 1")
        self.dim = int(dim)
        self.r_max = float(r_max)
        self.M = int(M)
        self.grading_exponent = float(grading_exponent)

        i = np.arange(M + 1, dtype=float)
        self.nodes = r_max * (i / M) ** grading_exponent
        self.nodes[0] = 0.0
        self.nodes[-1] = r_max

        c = 4.0 * math.pi if dim == 3 else 2.0 * math.pi
        k = dim - 1
        rl, rr = self.nodes[:-1], self.nodes[1:]
        h = rr - rl
        # int_cell r^k dr
        Ak = (rr ** (k + 1) - rl ** (k + 1)) / (k + 1)
        self.stiff_k = c * Ak / h**2

        # Gauss machinery.
        x6, w6 = np.polynomial.legendre.leggauss(_GAUSS_CELL)
        x6 = 0.5 * (x6 + 1.0)  # to (0,1)
        w6 = 0.5 * w6
        # regular cells 1..M-1
        lam_reg = np.repeat(x6[None, :], M - 1, axis=0)
        gp_reg = rl[1:, None] + h[1:, None] * lam_reg
        gw_reg = h[1:, None] * w6[None, :] * c * gp_reg**k
        gc_reg = np.repeat(np.arange(1, M), _GAUSS_CELL)
        # first cell, mapped r = r1 t^s
        s = _FIRST_CELL_POWER
        xf, wf = np.polynomial.legendre.leggauss(_GAUSS_FIRST)
        t = 0.5 * (xf + 1.0)
        wt = 0.5 * wf
        r1 = self.nodes[1]
        gp0 = r1 * t**s
        jac = s * r1 * t ** (s - 1)
        gw0 = wt * jac * c * gp0**k
        gc0 = np.zeros(_GAUSS_FIRST, dtype=int)
        glam0 = t**s

        self.gp = np.concatenate([gp0, gp_reg.ravel()])
        self.gw = np.concatenate([gw0, gw_reg.ravel()])
        self.gcell = np.concatenate([gc0, gc_reg])
        self.glam = np.concatenate([glam0, lam_reg.ravel()])
        self._green_cache = {}

    # -- basic quadrature helpers -------------------------------------------

    def nodal_at_gauss(self, v):
        """Evaluate the piecewise-linear interpolant of nodal values at Gauss points.

        The first cell holds the _GAUSS_FIRST leading points and cell i >= 1 the
        next _GAUSS_CELL, so with ends = v[1:] repeated _GAUSS_CELL times the
        left node values of the regular cells are ends[:-_GAUSS_CELL] and the
        right ones ends[_GAUSS_CELL:]: no index gather is needed.
        """
        v = np.asarray(v)
        k, c, gl = _GAUSS_FIRST, _GAUSS_CELL, self.glam
        dtype = np.result_type(v, gl)
        ends = np.repeat(v[1:].astype(dtype, copy=False), c)
        out = np.empty(gl.shape, dtype)
        out[:k] = (1.0 - gl[:k]) * v[0] + gl[:k] * v[1]
        # (1 - glam) * left + glam * right, in place on out and ends
        reg = out[k:]
        np.subtract(1.0, gl[k:], out=reg)
        reg *= ends[:-c]
        right = ends[c:]
        right *= gl[k:]
        reg += right
        return out

    def integrate_gauss(self, values_at_gauss):
        return np.dot(self.gw, values_at_gauss)

    def scatter_to_nodes(self, values_at_gauss):
        """Return vector c with c . v = integrate_gauss(values * interpolant(v)); real values."""
        contrib = self.gw * values_at_gauss
        left = np.bincount(self.gcell, (1.0 - self.glam) * contrib, self.M + 1)
        return left + np.bincount(self.gcell + 1, self.glam * contrib, self.M + 1)

    def mass_inner(self, a, b):
        """<a, b> for nodal vectors under the piecewise-linear model (Gauss-exact)."""
        ag = self.nodal_at_gauss(a)
        bg = self.nodal_at_gauss(np.conjugate(b))
        return np.dot(self.gw, ag * bg)

    def stiffness_inner(self, a, b):
        """<grad a, grad b> for nodal vectors, conjugate-linear in b.

        One diff when a is b, and the conjugate only for complex b:
        conj(diff(b)) equals diff(conj(b)) exactly in IEEE arithmetic.
        """
        da = np.diff(np.asarray(a))
        db = da if b is a else np.diff(np.asarray(b))
        if np.iscomplexobj(db):
            db = np.conjugate(db)
        return np.dot(self.stiff_k, da * db)

    def compatible(self, other):
        return (
            self.dim == other.dim
            and self.M == other.M
            and self.r_max == other.r_max
            and self.grading_exponent == other.grading_exponent
        )

    def green(self, lam):
        """Cached kernel data at this grid's quadrature points for shift lam."""
        data = self._green_cache.get(lam)
        if data is None:
            kernel = GreenKernel(self.dim, lam)
            g_gp = green_value(kernel, self.gp)
            g_nodes = np.empty(self.M + 1)
            g_nodes[0] = np.inf
            g_nodes[1:] = green_value(kernel, self.nodes[1:])
            data = {
                "kernel": kernel,
                "gp": g_gp,
                "nodes": g_nodes,
                "c_vec": self.scatter_to_nodes(g_gp),
                "l2_sq": green_l2_norm_sq(kernel),
                "xi": xi(self.dim, lam),
            }
            self._green_cache[lam] = data
        return data

    def __repr__(self):
        return "RadialGrid(dim=%d, r_max=%g, M=%d, grading=%g)" % (
            self.dim,
            self.r_max,
            self.M,
            self.grading_exponent,
        )


def make_grid(dim, r_max, M, grading_exponent=None, p_growth=None):
    if grading_exponent is None:
        grading_exponent = default_grading(p_growth)
    return RadialGrid(dim, r_max, M, grading_exponent)


@dataclass(frozen=True)
class FieldState:
    """A point u = phi + q * G_lam of the energy space.

    phi holds the regular part at the grid nodes (phi[0] = phi(0) is a genuine
    value; the regular part is continuous at the origin).  charge may be
    complex; the solver works in the real gauge (real phi, q >= 0).
    """

    grid: RadialGrid
    lam: float
    charge: complex
    phi: np.ndarray

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        phi = np.asarray(self.phi)
        if phi.shape != (self.grid.M + 1,):
            raise ValueError("phi must have one value per grid node")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi values must be finite at every node")
        object.__setattr__(self, "phi", phi)

    def u_at_gauss(self):
        """u = phi + q G at the grid's Gauss points (never evaluated at r=0)."""
        g = self.grid.green(self.lam)
        return self.grid.nodal_at_gauss(self.phi) + self.charge * g["gp"]


def dilate(state, t):
    """u(x/t): lambda -> lambda/t^2, q -> t^{N-2} q, grid r_max -> t r_max.

    The graded nodes scale linearly with r_max, so phi(r/t) at the new nodes is
    exactly the old nodal values; no interpolation error enters.
    """
    if not t > 0:
        raise ValueError("dilation factor must be positive")
    if t == 1.0:
        return state
    grid = state.grid
    new_grid = RadialGrid(grid.dim, grid.r_max * t, grid.M, grid.grading_exponent)
    return FieldState(
        new_grid,
        state.lam / t**2,
        t ** (grid.dim - 2) * state.charge,
        np.array(state.phi),
    )


def scale(state, c):
    return FieldState(state.grid, state.lam, c * state.charge, c * state.phi)


def gauge_fix(state):
    """Multiply by the unit phase that makes the charge a nonnegative real."""
    q = state.charge
    if q == 0:
        return state
    phase = np.conjugate(q) / abs(q)
    phi = phase * state.phi
    if np.iscomplexobj(phi) and np.max(np.abs(phi.imag)) == 0.0:
        phi = phi.real
    return FieldState(state.grid, state.lam, abs(q), phi)


def resample(state, new_grid):
    """Move a state onto another grid by cubic monotone interpolation of phi.

    Explicit, lossy operation; binary state operations never regrid silently.
    """
    if new_grid.dim != state.grid.dim:
        raise ValueError("cannot resample across dimensions")
    phi = np.asarray(state.phi)
    if np.iscomplexobj(phi):
        interp_re = PchipInterpolator(state.grid.nodes, phi.real, extrapolate=False)
        interp_im = PchipInterpolator(state.grid.nodes, phi.imag, extrapolate=False)
        new_phi = np.nan_to_num(interp_re(new_grid.nodes)) + 1j * np.nan_to_num(
            interp_im(new_grid.nodes)
        )
    else:
        interp = PchipInterpolator(state.grid.nodes, phi, extrapolate=False)
        new_phi = np.nan_to_num(interp(new_grid.nodes))
    return FieldState(new_grid, state.lam, state.charge, new_phi)


# ---------------------------------------------------------------------------
# Serialization: CSV profile + JSON sidecar, 17-significant-digit round trip.
# ---------------------------------------------------------------------------


def _sidecar_path(csv_path):
    base, _ext = os.path.splitext(csv_path)
    return base + ".json"


def save_profile(state, csv_path, json_path=None):
    if json_path is None:
        json_path = _sidecar_path(csv_path)
    phi = np.asarray(state.phi, dtype=complex)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "phi_re", "phi_im"])
        for r, v in zip(state.grid.nodes, phi):
            writer.writerow(["%.17g" % r, "%.17g" % v.real, "%.17g" % v.imag])
    q = complex(state.charge)
    sidecar = {
        "dim": state.grid.dim,
        "lambda": state.lam,
        "charge_re": q.real,
        "charge_im": q.imag,
        "r_max": state.grid.r_max,
        "M": state.grid.M,
        "grading_exponent": state.grid.grading_exponent,
    }
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
    return csv_path, json_path


def load_profile(csv_path, json_path=None):
    if json_path is None:
        json_path = _sidecar_path(csv_path)
    with open(json_path) as fh:
        side = json.load(fh)
    required = {"dim", "lambda", "charge_re", "charge_im", "r_max", "M", "grading_exponent"}
    if set(side) != required:
        raise ValueError(
            "sidecar %s: expected keys %s" % (json_path, sorted(required))
        )
    grid = RadialGrid(side["dim"], side["r_max"], side["M"], side["grading_exponent"])
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["r", "phi_re", "phi_im"]:
            raise ValueError("%s: bad header %r (line 1)" % (csv_path, header))
        for ln, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError("%s: bad row at line %d" % (csv_path, ln))
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ValueError("%s: parse error at line %d: %s" % (csv_path, ln, exc))
    if len(rows) != grid.M + 1:
        raise ValueError(
            "%s: expected %d rows, got %d" % (csv_path, grid.M + 1, len(rows))
        )
    r = np.array([row[0] for row in rows])
    if not np.allclose(r, grid.nodes, rtol=0, atol=0):
        raise ValueError("%s: node column does not match the sidecar grid" % csv_path)
    phi = np.array([row[1] for row in rows]) + 1j * np.array([row[2] for row in rows])
    if np.max(np.abs(phi.imag)) == 0.0:
        phi = phi.real
    charge = complex(side["charge_re"], side["charge_im"])
    if charge.imag == 0.0:
        charge = charge.real
    return FieldState(grid, side["lambda"], charge, phi)
