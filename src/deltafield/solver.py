"""Critical-point solvers.

Three layers:
  * scalar_ground_state -- radial shooting baseline for the equation without
    point interaction (q = 0), giving the reference energy m0.  It bisects on
    u(0); each shot is a Dormand-Prince 5(4) integration on Python floats
    (scipy's RK45 tableau and step controller), classified by sign changes at
    step ends, and the profile comes from the final shot's dense output;
  * newton_refine -- damped Newton on the coupled (phi, q) discrete system,
    quadratically convergent near a critical point;
  * mountain_pass -- Newton from the scalar profile (q = 0), then from a
    fixed charge/amplitude ladder around it, returning the first nontrivial
    limit of positive energy and mountain-pass Morse index, verified and
    checked by convergence_gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldState, gauge_fix, make_grid, resample
from .functional import (
    arrow_solve,
    energy,
    gradient_norm,
    gradient_vector,
    hessian_blocks,
    morse_index,
    verify,
)
from .greens import omega_alpha, xi
from .nonlinearity import G_eval, g_float, g_signed

__all__ = [
    "SolverConfig",
    "SolveResult",
    "NewtonError",
    "ShootingError",
    "solve_lambda",
    "scalar_ground_state",
    "initial_path",
    "newton_refine",
    "convergence_gates",
    "mountain_pass",
]


@dataclass(frozen=True)
class SolverConfig:
    # path_knots and max_iters sized the deleted path deformation; they are
    # accepted and ignored so that configs which set them still parse.
    path_knots: int = 17
    max_iters: int = 400
    grad_tol: float = 1e-8
    newton_tol: float = 1e-10
    seed_profile: str = "scalar_ground_state"  # bump | scalar_ground_state | file
    M: int = 512
    r_max: float | None = None
    grading_exponent: float | None = None
    lam: float | None = None
    seed_file: str | None = None
    newton_max_iter: int = 60

    def __post_init__(self):
        if not (self.grad_tol > 0 and self.newton_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.seed_profile not in ("bump", "scalar_ground_state", "file"):
            raise ValueError("seed_profile must be bump, scalar_ground_state or file")


@dataclass(frozen=True)
class SolveResult:
    state: FieldState
    sigma_estimate: float
    m0_estimate: float | None
    report: object
    iterations: int  # Newton steps of the returned limit
    converged: bool
    trace: tuple = ()  # its Newton residual history, start included
    p_regime: str | None = None
    morse_index: int | None = None
    newton_start: tuple | None = None  # (c, q0) of the certified start


class ShootingError(RuntimeError):
    pass


class NewtonError(RuntimeError):
    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = history or []


def solve_lambda(spec, strength):
    """Working lambda for solves: the linearization frequency omega when it is
    safely above the coercivity threshold, else 2*omega_alpha (the threshold can
    exceed omega outside the theorems' hypotheses; any lambda works for the
    critical points themselves)."""
    om_a = omega_alpha(strength)
    if spec.omega > 1.01 * om_a:
        return spec.omega
    return 2.0 * om_a


# ---------------------------------------------------------------------------
# Radial shooting for the scalar baseline.
# ---------------------------------------------------------------------------


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980) with Shampine's quartic
# dense output (Math. Comp. 46, 1986): scipy's RK45 tableau, initial-step rule
# and step controller, stepping the 2-vector (u, u') on Python floats, where
# numpy's per-call overhead would cost more than the arithmetic.  The tableau
# is typed out so that a solve never imports scipy.integrate.
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
]
_DP_B = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = [-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]
# dense output: u(r + x h) = u + h * sum_m (K P)_m x^(m+1), K the seven stage slopes
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_DP_STAGES = list(zip(_DP_C, _DP_A))[1:]


def _rms(x, y):
    return math.sqrt(x * x + y * y) / math.sqrt(2.0)


def _shoot(spec, dim, a, r_end, keep=False):
    """Integrate u'' + (N-1)/r u' + g(u) = 0 from u(0)=a, u'(0)=0 to r_end.

    Returns (kind, steps).  kind is 'over' if u goes from >= 0 to <= 0 over a
    step, 'under' if u' goes from <= 0 to >= 0 while u > 1e-10 a, else 'decay'
    (also when the step size underflows).  Signs are compared at step ends,
    as scipy's terminal-event search does.  With keep, steps lists (r, r_next,
    u, k_u) per accepted step, k_u the seven stage slopes of u, for _dense_u.
    """
    rtol, atol, max_step = 1e-10, 1e-12 * a, r_end / 50.0

    def f(r, u, v):
        return v, -(dim - 1) / r * v - g_float(spec, u)

    r = 1e-8
    ga = g_float(spec, a)
    u, v = a - ga * r**2 / (2.0 * dim), -ga * r / dim
    fu, fv = f(r, u, v)
    # scipy's select_initial_step (Hairer, Norsett, Wanner, sec. II.4)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(fu / su, fv / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r_end - r)
    gu, gv = f(r + h0, u + h0 * fu, v + h0 * fv)
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, r_end - r, max_step)
    turn = v if u > 1e-10 * a else -1.0
    steps = []
    while True:
        min_step = 10 * math.ulp(r)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return "decay", steps
            r_next = min(r + h_abs, r_end)
            h = r_next - r
            ku, kv = [fu], [fv]
            for c, row in _DP_STAGES:
                du = dv = 0.0
                for aj, kuj, kvj in zip(row, ku, kv):
                    du += aj * kuj
                    dv += aj * kvj
                gu, gv = f(r + c * h, u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du = dv = 0.0
            for bj, kuj, kvj in zip(_DP_B, ku, kv):
                du += bj * kuj
                dv += bj * kvj
            u_next, v_next = u + h * du, v + h * dv
            fu_next, fv_next = f(r + h, u_next, v_next)
            ku.append(fu_next)
            kv.append(fv_next)
            eu = ev = 0.0
            for ej, kuj, kvj in zip(_DP_E, ku, kv):
                eu += ej * kuj
                ev += ej * kvj
            err = _rms(
                eu * h / (atol + max(abs(u), abs(u_next)) * rtol),
                ev * h / (atol + max(abs(v), abs(v_next)) * rtol),
            )
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err**-0.2)
                h_abs = h * (min(1, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**-0.2)
            rejected = True
        if keep:
            steps.append((r, r_next, u, ku))
        u_prev = u
        r, u, v, fu, fv = r_next, u_next, v_next, fu_next, fv_next
        if u_prev >= 0 and u <= 0:
            return "over", steps
        turn_prev, turn = turn, (v if u > 1e-10 * a else -1.0)
        if turn_prev <= 0 and turn >= 0:
            return "under", steps
        if r >= r_end:
            return "decay", steps


def _dense_u(steps, t):
    """u at the radii t (an array) from the quartic dense output of the steps."""
    ts = np.array([s[0] for s in steps] + [steps[-1][1]])
    hs = np.diff(ts)
    u0 = np.array([s[2] for s in steps])
    Q = np.array([s[3] for s in steps]) @ _DP_P
    i = np.clip(np.searchsorted(ts, t) - 1, 0, len(steps) - 1)
    x = (t - ts[i]) / hs[i]
    powers = np.cumprod(np.repeat(x[:, None], Q.shape[1], axis=1), axis=1)
    return u0[i] + hs[i] * np.sum(Q[i] * powers, axis=1)


def scalar_ground_state(spec, dim, grid, lam=None):
    """Ground state of the scalar equation by bisection on u(0).

    Returns (FieldState with q=0 on the given grid, m0) where m0 is the grid
    energy of the profile.  The profile is positive and decaying; beyond the
    last trusted radius it is extended by the linearized exponential tail.
    """
    if lam is None:
        lam = spec.omega
    r_end = max(grid.r_max, 30.0 / math.sqrt(spec.omega))
    # bracket: scan upward from the smallest amplitude with g(a) > 0
    scan = np.geomspace(1e-2, 1e5, 120)
    a_under = None
    a_over = None
    trace = []
    for a in scan[g_signed(spec, scan) > 0].tolist():
        kind, _ = _shoot(spec, dim, a, r_end)
        trace.append((a, kind))
        if kind in ("under", "decay"):
            a_under = a
        elif kind == "over" and a_under is not None:
            a_over = a
            break
    if a_over is None or a_under is None:
        why = "scan trace: %r" % (trace[-10:],)
        if not trace:
            why = "g(a) <= 0 on all of [%g, %g]" % (scan[0], scan[-1])
        raise ShootingError("no shooting bracket found; " + why)
    for _ in range(200):
        mid = 0.5 * (a_under + a_over)
        if mid == a_under or mid == a_over:
            break
        kind, _ = _shoot(spec, dim, mid, r_end)
        if kind == "over":
            a_over = mid
        else:
            a_under = mid
    a_star = 0.5 * (a_under + a_over)
    _, steps = _shoot(spec, dim, a_star, r_end, keep=True)
    r_first, r_last = steps[0][0], steps[-1][1]
    # trusted radius: where the profile falls below a small fraction of u(0)
    t_dense = np.linspace(r_first, r_last, 4000)
    u_dense = _dense_u(steps, t_dense)
    tiny = np.nonzero(u_dense < 1e-9 * a_star)[0]
    cut = tiny[0] if tiny.size else -1
    r_cut, u_cut = t_dense[cut], float(u_dense[cut])

    nodes = grid.nodes
    phi = np.empty(grid.M + 1)
    inner = nodes <= r_first
    mid_mask = (~inner) & (nodes <= r_cut)
    phi[inner] = a_star
    phi[mid_mask] = _dense_u(steps, nodes[mid_mask])
    tail = nodes > r_cut
    if np.any(tail):
        s = math.sqrt(spec.omega)
        decay = np.exp(-s * (nodes[tail] - r_cut)) * (r_cut / nodes[tail]) ** ((dim - 1) / 2.0)
        phi[tail] = max(u_cut, 0.0) * decay
    phi = np.maximum(phi, 0.0)
    state = FieldState(grid, lam, 0.0, phi)
    m0 = energy(state, spec, _dummy_strength(dim)).total
    return state, m0


def _dummy_strength(dim):
    # q = 0 energies do not involve alpha; any strength of the right dimension works
    from .greens import InteractionStrength

    return InteractionStrength(0.0, dim)


# ---------------------------------------------------------------------------
# Mountain pass.
# ---------------------------------------------------------------------------

# Newton starts after the seed itself: phi = c * seed profile, charge q0.
_LADDER_C = (1.0, 0.5, 1.5, 2.0)
_LADDER_Q0 = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def _seed_state(spec, dim, config, grid, lam):
    if config.seed_profile == "scalar_ground_state":
        state, m0 = scalar_ground_state(spec, dim, grid, lam=lam)
        return state, m0
    if config.seed_profile == "file":
        from .field import load_profile

        if not config.seed_file:
            raise ValueError("seed_profile=file needs seed_file")
        st = load_profile(config.seed_file)
        st = resample(st, grid)
        return FieldState(grid, lam, 0.0, np.real(st.phi)), None
    # bump: a Gaussian at an amplitude that makes the potential term positive
    zeta = spec.zeta_hint
    if zeta is None:
        scan = np.geomspace(1e-2, 1e5, 200)
        gv = G_eval(spec, scan)
        idx = np.argmax(gv > 0)
        if not gv[idx] > 0:
            raise ValueError("cannot find zeta with G(zeta) > 0 for the bump seed")
        zeta = float(scan[idx])
    width = 3.0 / math.sqrt(spec.omega)
    phi = 2.0 * zeta * np.exp(-((grid.nodes / width) ** 2))
    return FieldState(grid, lam, 0.0, phi), None


def _solve_grid(spec, strength, config):
    """(grid, lam): the grid and the working lambda of a solve."""
    lam = config.lam if config.lam is not None else solve_lambda(spec, strength)
    r_seed = config.r_max if config.r_max is not None else 20.0 / math.sqrt(min(lam, spec.omega))
    grid = make_grid(
        strength.dim, r_seed, config.M, config.grading_exponent, p_growth=spec.p_growth
    )
    return grid, lam


def initial_path(spec, strength, config, seed=None):
    """The ordered Newton starts of a solve.

    Returns (starts, m0, lam); starts lists ((c, q0), state) pairs, state the
    seed profile times c with charge q0 on the solve grid.  Start 0 is the
    seed itself, (1, 0); the ladder follows, c in (1, 0.5, 1.5, 2) and then
    q0 in (0.5, 1, 2, 4, 6, 8, 10).  seed is the (state, m0) pair of
    _seed_state on the solve grid when the caller already has it.

    The name is that of the mountain-pass path the solver used to deform;
    it stays because perfbench/spans.py traces it by name.
    """
    if seed is None:
        seed = _seed_state(spec, strength.dim, config, *_solve_grid(spec, strength, config))
    seed, m0 = seed
    phi = np.asarray(seed.phi, dtype=float)
    pairs = [(1.0, 0.0)] + [(c, q0) for c in _LADDER_C for q0 in _LADDER_Q0]
    starts = [((c, q0), FieldState(seed.grid, seed.lam, q0, c * phi)) for c, q0 in pairs]
    return starts, m0, seed.lam


def newton_refine(state, spec, strength, config):
    """Damped Newton on the coupled discrete system; returns (state, history).

    The convergence measure is the dual gradient norm; steps are halved until
    the measure decreases.  Raises NewtonError on stagnation or divergence.
    """
    st = state
    history = []
    res = gradient_norm(st, spec, strength)
    history.append(res)
    for _it in range(config.newton_max_iter):
        if res <= config.newton_tol:
            return st, history
        diag, off, b, d = hessian_blocks(st, spec, strength)
        gp, gq = gradient_vector(st, spec, strength)
        dphi, dq = arrow_solve(diag, off, b, d, -gp, -gq)
        t = 1.0
        accepted = False
        while t > 1e-8:
            cand = FieldState(
                st.grid,
                st.lam,
                float(np.real(st.charge)) + t * dq,
                np.real(np.asarray(st.phi)) + t * dphi,
            )
            cand_res = gradient_norm(cand, spec, strength)
            if cand_res < res or cand_res <= config.newton_tol:
                st, res = cand, cand_res
                history.append(res)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NewtonError("Newton stagnated at residual %.3e" % res, history)
    if res <= config.newton_tol:
        return st, history
    raise NewtonError("Newton did not reach tolerance: %.3e" % res, history)


def _nontrivial(state, en):
    """False for Newton limits that are the zero state (or numerically
    trivial); en is the state's energy."""
    size = float(np.max(np.abs(np.asarray(state.phi)))) + abs(state.charge)
    return size > 1e-8 and abs(en) > 1e-12


def _morse(state, spec, strength):
    """Morse index of the discrete action at a real-gauge state."""
    return morse_index(*hessian_blocks(state, spec, strength))


def convergence_gates(report, index, target_index, strength, config):
    """The gates of `converged`, by name, for a verified real-gauge state.

    report is its VerificationReport and index its Morse index.  The gates
    are the gradient norm, the Pohozaev and boundary residuals, the agreement
    of the two 3D Pohozaev forms, and the Morse index, which must equal
    target_index (one above the zero state's on the solve grid).
    """
    sigma = report.energy.total
    q = abs(report.charge)
    tol = 100 * config.grad_tol
    alt = report.pohozaev_residual_alt
    charge_scale = 1 + (strength.alpha + xi(strength.dim, report.lam)) * q
    return {
        "gradient": report.gradient_norm <= config.grad_tol,
        "pohozaev": abs(report.pohozaev_residual) <= tol * (1 + abs(sigma)),
        "boundary": abs(report.boundary_residual) <= tol * charge_scale,
        "pohozaev_forms": alt is None or abs(report.pohozaev_residual - alt) <= 1e-12,
        "morse_index": index == target_index,
    }


def mountain_pass(spec, strength, config):
    """Newton from the seed, then from the start ladder; returns a SolveResult.

    Newton runs from the starts of initial_path in order and stops at the
    first nontrivial limit of positive energy whose Morse index is one above
    the zero state's on the solve grid: a nondegenerate critical point of
    mountain-pass or linking type over the zero level has that index (Hofer,
    Proc. AMS 90, 1984; Lazer-Solimini, Nonlinear Anal. 12, 1988).  That is
    the first such point in start order, not necessarily the lowest.  If no
    start certifies, the nontrivial limit of smallest positive energy is
    returned (failing that, the one of energy closest to zero); if no start
    reaches a nontrivial limit, the seed is returned, not converged.  The
    returned state is gauge-fixed, verified, and converged when every
    convergence_gates gate passes.

    The trace is the Newton residual history of the returned limit, and
    newton_start the (c, q0) of the start that certified (None if none did).
    """
    dim = strength.dim
    grid, lam = _solve_grid(spec, strength, config)
    zero = FieldState(grid, lam, 0.0, np.zeros(grid.M + 1))
    target_index = _morse(zero, spec, strength) + 1
    starts, m0, _ = initial_path(
        spec, strength, config, seed=_seed_state(spec, dim, config, grid, lam)
    )
    found = None  # (limit, Newton history)
    newton_start = None
    best_key = None
    for start, state in starts:
        try:
            cand, history = newton_refine(state, spec, strength, config)
        except NewtonError:
            continue
        en = energy(cand, spec, strength).total
        if not _nontrivial(cand, en):
            continue
        if en > 0 and _morse(cand, spec, strength) == target_index:
            found, newton_start = (cand, history), start
            break
        key = (en <= 0, abs(en))
        if best_key is None or key < best_key:
            best_key, found = key, (cand, history)
    refined, history = found if found is not None else (starts[0][1], [])
    final = gauge_fix(refined)
    final = FieldState(
        final.grid, final.lam, float(np.real(final.charge)), np.real(np.asarray(final.phi))
    )
    report = verify(final, spec, strength)
    index = _morse(final, spec, strength)
    gates = convergence_gates(report, index, target_index, strength, config)
    p_regime = None
    if dim == 3:
        p_regime = "2<p<5/2 (classical)" if spec.p_growth < 2.5 else "5/2<=p<3 (weak-solution regime)"
    return SolveResult(
        state=final,
        sigma_estimate=report.energy.total,
        m0_estimate=m0,
        report=report,
        iterations=max(len(history) - 1, 0),
        converged=found is not None and all(gates.values()),
        trace=tuple(history),
        p_regime=p_regime,
        morse_index=index,
        newton_start=newton_start,
    )
