"""Tests for the shooting baseline, the Newton starts and the full solver."""

import math

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

from deltafield.field import FieldState, gauge_fix, make_grid, save_profile
from deltafield.functional import (
    energy,
    gradient_norm,
    hessian_blocks,
    morse_index,
    pohozaev_residual,
    verify,
)
from deltafield.greens import EULER_GAMMA, InteractionStrength
from deltafield.nonlinearity import (
    NonlinearitySpec,
    PowerTerm,
    double_power_family,
    g_float,
    g_signed,
    log_power_family,
    power_family,
    saturating_family,
)
from deltafield.solver import (
    _DP_A,
    _DP_B,
    _DP_C,
    _DP_E,
    _DP_P,
    NewtonError,
    SolverConfig,
    _shoot,
    convergence_gates,
    initial_path,
    mountain_pass,
    newton_refine,
    scalar_ground_state,
    solve_lambda,
)

SPEC3 = power_family(1.0, 2.5)
SPEC2 = power_family(1.0, 4.0)
STR3 = InteractionStrength(1.0, 3)
STR2 = InteractionStrength(0.0, 2)

# frozen shooting amplitudes (independent bisection runs at r_end = 30,
# rtol 1e-10; the 2D cubic value is the classical soliton amplitude)
U0_3D = 4.2765416968596295
U0_2D_CUBIC = 2.2062008646912092


# ---------------------------------------------------------------------------
# scalar baseline (q = 0 shooting)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ground3():
    grid = make_grid(3, 30.0, 1024, 2.0)
    return scalar_ground_state(SPEC3, 3, grid)


@pytest.fixture(scope="module")
def ground2():
    grid = make_grid(2, 30.0, 1024, 2.0)
    return scalar_ground_state(SPEC2, 2, grid)


def test_shooting_amplitude_3d(ground3):
    state, _ = ground3
    assert state.phi[0] == pytest.approx(U0_3D, rel=1e-6)


def test_shooting_amplitude_2d_cubic(ground2):
    state, _ = ground2
    assert state.phi[0] == pytest.approx(U0_2D_CUBIC, rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_ground_state_positive_decaying(dim, ground2, ground3):
    state, m0 = ground3 if dim == 3 else ground2
    phi = np.asarray(state.phi)
    assert np.all(phi >= 0)
    assert phi[0] == np.max(phi)
    assert phi[-1] < 1e-6 * phi[0]
    assert m0 > 0
    assert state.charge == 0.0


def test_ground_state_m0_grid_consistency():
    vals = []
    for M in (512, 1024):
        grid = make_grid(3, 30.0, M, 2.0)
        _, m0 = scalar_ground_state(SPEC3, 3, grid)
        vals.append(m0)
    assert abs(vals[1] - vals[0]) <= 1e-3 * abs(vals[1])


def test_ground_state_pohozaev(ground3):
    state, _ = ground3
    res = pohozaev_residual(state, SPEC3, STR3)
    scale = energy(state, SPEC3, STR3).kinetic
    assert abs(res) <= 1e-3 * scale


# ---------------------------------------------------------------------------
# the shooting integrator against solve_ivp, and pinned seeds
# ---------------------------------------------------------------------------


def _solve_ivp_shot(spec, dim, a, r_end):
    """The shot written on solve_ivp's RK45 with terminal events, the oracle
    for the solver's own Dormand-Prince integrator: (verdict, step radii)."""
    r0 = 1e-8

    def rhs(r, y):
        return [y[1], -(dim - 1) / r * y[1] - g_signed(spec, y[0])]

    def cross(r, y):
        return y[0]

    def turn(r, y):
        return y[1] if y[0] > 1e-10 * a else -1.0

    cross.terminal = turn.terminal = True
    cross.direction, turn.direction = -1, 1
    ga = float(g_signed(spec, a))
    sol = solve_ivp(
        rhs,
        (r0, r_end),
        [a - ga * r0**2 / (2.0 * dim), -ga * r0 / dim],
        rtol=1e-10,
        atol=1e-12 * a,
        events=(cross, turn),
        max_step=r_end / 50.0,
    )
    if sol.t_events[0].size:
        return "over", sol.t
    return ("under" if sol.t_events[1].size else "decay"), sol.t


SHOOT_CASES = {
    "power-3d": (3, SPEC3),
    "cubic-2d": (2, SPEC2),
    "double_power-3d": (3, double_power_family(1.0, 1.0, 2.5, 2.8, mu2=-0.1)),
    "log_power-2d": (2, log_power_family(1.0, 3.0)),
    "saturating-2d": (2, saturating_family(1.0, 4.0, 2.5)),
}


@pytest.mark.parametrize("case", sorted(SHOOT_CASES))
def test_shoot_verdicts_match_solve_ivp(case):
    dim, spec = SHOOT_CASES[case]
    r_end = 30.0 / math.sqrt(spec.omega)
    state, _ = scalar_ground_state(spec, dim, make_grid(dim, r_end, 256, 2.0))
    a_star = float(state.phi[0])
    verdicts = set()
    for rel in (1e-6, 1e-4, 1e-2, 0.2):
        for a in (a_star * (1.0 - rel), a_star * (1.0 + rel)):
            kind, steps = _shoot(spec, dim, a, r_end, keep=True)
            want, radii = _solve_ivp_shot(spec, dim, a, r_end)
            assert kind == want, (a, kind)
            verdicts.add(kind)
            # same step sequence: summation order in the error estimate makes
            # the radii differ in the last digits, never by a rejected step;
            # solve_ivp ends its last step at the event root
            got = [steps[0][0]] + [s[1] for s in steps]
            assert len(got) == len(radii)
            np.testing.assert_allclose(got[:-1], radii[:-1], rtol=1e-5)
    assert "over" in verdicts and len(verdicts) >= 2


def test_dormand_prince_tableau_is_scipys():
    # typed out in the solver so that solves never import scipy.integrate
    assert np.array_equal(_DP_C, RK45.C)
    assert np.array_equal([row + [0.0] * (5 - len(row)) for row in _DP_A], RK45.A)
    assert np.array_equal(_DP_B, RK45.B)
    assert np.array_equal(_DP_E, RK45.E)
    assert np.array_equal(_DP_P, RK45.P)


G_FAMILIES = {
    "power": power_family(1.0, 2.5),
    "cubic": power_family(1.0, 4.0),
    "double_power": double_power_family(2.0, 1.5, 3.0, 4.0, mu2=-0.25),
    "log_power": log_power_family(1.0, 3.0),
    "saturating": saturating_family(1.0, 4.0, 2.5),
    "custom_terms": NonlinearitySpec(
        omega=0.7, terms=(PowerTerm(2.0, 3.5), PowerTerm(-0.5, 2.5, log_factor=True)),
        p_growth=3.6, sat=(3.0, 2.2),
    ),
}


@pytest.mark.parametrize("family", sorted(G_FAMILIES))
def test_g_float_matches_g_signed(family):
    spec = G_FAMILIES[family]
    for s in (0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 7.3, -7.3, 1e5, -1e5):
        got = g_float(spec, s)
        assert type(got) is float
        np.testing.assert_allclose(got, g_signed(spec, s), rtol=1e-14, atol=0)


# u(0) and m0 of the parent implementation (solve_ivp shooting) on the
# acceptance grids: M = 2048, grading 4, r_seed = 20 / sqrt(min(lambda, omega))
@pytest.mark.parametrize(
    "dim,spec,a_star,m0",
    [
        (3, SPEC3, 4.2765416968596295, 81.463195609046068),
        (2, SPEC2, 2.2062008646912092, 5.8504611316264583),
    ],
)
def test_seed_pinned_on_acceptance_grid(dim, spec, a_star, m0):
    grid = make_grid(dim, 20.0, 2048, 4.0, p_growth=spec.p_growth)
    state, got_m0 = scalar_ground_state(spec, dim, grid)
    assert float(state.phi[0]) == pytest.approx(a_star, rel=1e-12, abs=0)
    assert got_m0 == pytest.approx(m0, rel=1e-10, abs=0)


# ---------------------------------------------------------------------------
# configuration and lambda rule
# ---------------------------------------------------------------------------


def test_solve_lambda_uses_omega_when_coercive():
    assert solve_lambda(SPEC3, STR3) == pytest.approx(1.0)
    assert solve_lambda(power_family(2.0, 4.0), STR2) == pytest.approx(2.0)


def test_solve_lambda_clamps_below_threshold():
    # 2D cubic with omega = 1 < omega_alpha: clamp to 2 * omega_alpha
    om_a = 4.0 * math.exp(-2 * EULER_GAMMA)
    assert solve_lambda(SPEC2, STR2) == pytest.approx(2.0 * om_a)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=-1.0)


# ---------------------------------------------------------------------------
# Newton starts
# ---------------------------------------------------------------------------


def test_initial_path_lists_the_seed_then_the_ladder():
    config = SolverConfig(M=256)
    starts, m0, lam = initial_path(SPEC3, STR3, config)
    pairs = [start for start, _ in starts]
    assert pairs[0] == (1.0, 0.0)
    assert pairs[1:] == [
        (c, q0) for c in (1.0, 0.5, 1.5, 2.0) for q0 in (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    ]
    seed = starts[0][1]
    assert m0 > 0 and seed.lam == lam and seed.charge == 0.0
    for (c, q0), state in starts:
        assert state.grid is seed.grid and state.lam == lam
        assert state.charge == q0
        assert np.array_equal(state.phi, c * seed.phi)


def test_initial_path_file_seed_is_the_first_start(tmp_path):
    grid = make_grid(3, 20.0, 256, 2.0)
    st = FieldState(grid, 1.0, 0.0, 2.0 * np.exp(-grid.nodes**2))
    path = tmp_path / "seed.csv"
    save_profile(st, str(path))
    config = SolverConfig(M=256, seed_profile="file", seed_file=str(path))
    starts, m0, _ = initial_path(SPEC3, STR3, config)
    seed = starts[0][1]
    assert m0 is None
    assert seed.grid.M == 256 and seed.charge == 0.0
    assert float(seed.phi[0]) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# full solve (moderate resolution; the acceptance suite runs the large one)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solve3():
    config = SolverConfig(
        M=512,
        grad_tol=1e-7,
        grading_exponent=4.0,
        seed_profile="scalar_ground_state",
    )
    return mountain_pass(SPEC3, STR3, config)


def test_mountain_pass_finds_charged_state(solve3):
    result = solve3
    assert abs(result.state.charge) > 0.1
    assert float(np.real(result.state.charge)) >= 0  # gauge-fixed
    assert result.report.gradient_norm <= 1e-8


def test_mountain_pass_sigma_below_scalar_level(solve3):
    result = solve3
    assert result.m0_estimate is not None
    assert 0 < result.sigma_estimate < result.m0_estimate


def test_mountain_pass_trace_and_metadata(solve3):
    # the trace is the Newton residual history of the seed's start
    result = solve3
    assert result.newton_start == (1.0, 0.0)
    assert result.iterations >= 1
    assert len(result.trace) == result.iterations + 1
    assert result.p_regime is not None and "5/2" in result.p_regime
    residuals = list(result.trace)
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= SolverConfig().newton_tol


def test_mountain_pass_state_is_real_gauge(solve3):
    st = solve3.state
    assert not np.iscomplexobj(np.asarray(st.phi))
    assert float(np.imag(complex(st.charge))) == 0.0


def test_newton_refine_quadratic_basin(solve3):
    # a slightly perturbed solution re-converges in a handful of steps
    st = solve3.state
    rng = np.random.default_rng(0)
    phi = np.asarray(st.phi) * (1.0 + 1e-4) + 1e-5 * rng.standard_normal(
        st.grid.M + 1
    ) * np.exp(-st.grid.nodes)
    start = FieldState(st.grid, st.lam, float(np.real(st.charge)) + 1e-4, phi)
    config = SolverConfig(M=512, newton_tol=1e-10)
    refined, history = newton_refine(start, SPEC3, STR3, config)
    assert len(history) <= 9  # initial residual + at most 8 corrections
    assert gradient_norm(refined, SPEC3, STR3) <= 1e-10
    assert abs(refined.charge) == pytest.approx(abs(st.charge), rel=1e-4)


def test_newton_error_reports_history():
    # a hopeless start far outside any basin must raise, not loop forever
    grid = make_grid(3, 20.0, 256, 2.0)
    bad = FieldState(grid, 1.0, 500.0, 1e3 * np.sin(grid.nodes))
    config = SolverConfig(M=256, newton_max_iter=10)
    with pytest.raises(NewtonError):
        newton_refine(bad, SPEC3, STR3, config)


def test_bump_seed_smoke():
    config = SolverConfig(M=256, seed_profile="bump")
    result = mountain_pass(SPEC3, STR3, config)
    assert np.isfinite(result.sigma_estimate)
    assert result.newton_start == (1.0, 0.0)
    assert result.morse_index == 1


def test_collapse_branch_shoots_once(monkeypatch):
    # 2D cubic, alpha = 0, omega = 1 <= omega_alpha: the seed's start does not
    # certify and every ladder start reuses the seed's one shot
    import deltafield.solver as solver

    calls = {"shoot": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "scalar_ground_state", counting("shoot", solver.scalar_ground_state))
    config = SolverConfig(M=128, grad_tol=1e-7, grading_exponent=4.0)
    result = mountain_pass(SPEC2, STR2, config)
    assert calls == {"shoot": 1}
    assert result.newton_start not in (None, (1.0, 0.0))


# ---------------------------------------------------------------------------
# the starts stop at the first Morse-certified limit
# ---------------------------------------------------------------------------

LADDER_CONFIG = SolverConfig(M=512, grad_tol=1e-7, grading_exponent=4.0)


@pytest.fixture(scope="module")
def ladder_2d():
    # 2D cubic, alpha = 0, omega = 1 < omega_alpha: the zero state has index
    # 1; the seed's start does not certify, and the ladder's 3rd start (c = 1,
    # q0 = 2) is the first nontrivial limit of positive energy and index 2
    import deltafield.solver as solver

    calls = []
    refine = solver.newton_refine

    def counting(*args, **kwargs):
        calls.append(args[0].charge)
        return refine(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "newton_refine", counting)
        result = mountain_pass(SPEC2, STR2, LADDER_CONFIG)
    return result, calls


def test_ladder_stops_at_first_certified_start(ladder_2d):
    result, calls = ladder_2d
    assert calls == [0.0, 0.5, 1.0, 2.0]
    assert result.newton_start == (1.0, 2.0)
    assert result.morse_index == 2
    assert result.sigma_estimate > 0


def test_full_ladder_gives_the_early_exit_point(ladder_2d, monkeypatch):
    # with no start certified all 29 starts run and the solve falls back on
    # the smallest positive energy: the same critical point
    import deltafield.solver as solver

    monkeypatch.setattr(solver, "morse_index", lambda *blocks: -1)
    full = mountain_pass(SPEC2, STR2, LADDER_CONFIG)
    early, _ = ladder_2d
    assert full.sigma_estimate == pytest.approx(early.sigma_estimate, rel=1e-12, abs=0)
    assert abs(full.state.charge) == pytest.approx(abs(early.state.charge), rel=1e-12, abs=0)
    assert not full.converged  # index -1 is not the target 0
    assert full.newton_start is None


def test_converged_requires_the_morse_index_certificate():
    # 3D p = 2.5, alpha = 1: Newton from (c = 3, q0 = 20) lands on a genuine
    # critical point of index 2 (sigma = 635.64, far above the index-1 level
    # 72.09) whose residual gates all pass; the index gate alone fails
    config = SolverConfig(M=2048, grad_tol=1e-7, grading_exponent=4.0)
    starts, _, lam = initial_path(SPEC3, STR3, config)
    seed = starts[0][1]
    start = FieldState(seed.grid, lam, 20.0, 3.0 * np.asarray(seed.phi))
    point = gauge_fix(newton_refine(start, SPEC3, STR3, config)[0])
    report = verify(point, SPEC3, STR3)
    index = morse_index(*hessian_blocks(point, SPEC3, STR3))
    gates = convergence_gates(report, index, 1, STR3, config)
    assert report.energy.total == pytest.approx(635.64, rel=1e-4)
    assert index == 2
    assert [name for name, passed in gates.items() if not passed] == ["morse_index"]
    assert not all(gates.values())


@pytest.mark.parametrize("alpha,sigma", [(0.0, 0.45845), (-0.05, 0.0046642)])
def test_3d_nonpositive_alpha_gives_index_1(alpha, sigma):
    # the seed's Newton limit is not the mountain-pass point here (at alpha = 0
    # it has index 2 and sigma = 189.20); a ladder start certifies instead
    result = mountain_pass(SPEC3, InteractionStrength(alpha, 3), LADDER_CONFIG)
    assert result.sigma_estimate == pytest.approx(sigma, rel=1e-4)
    assert result.morse_index == 1
    assert result.newton_start == (0.5, 0.5)
