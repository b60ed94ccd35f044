"""Tests for the shooting baseline, path construction and the full solver."""

import math

import numpy as np
import pytest

from deltafield.field import FieldState, make_grid, save_profile
from deltafield.functional import energy, gradient_norm, pohozaev_residual
from deltafield.greens import EULER_GAMMA, InteractionStrength
from deltafield.nonlinearity import power_family
from deltafield.solver import (
    NewtonError,
    SolverConfig,
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
        SolverConfig(path_knots=8)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(newton_tol=-1.0)


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------


def test_initial_path_endpoints():
    config = SolverConfig(M=256, path_knots=17)
    knots, _, lam = initial_path(SPEC3, STR3, config)
    assert len(knots) == 17
    assert energy(knots[0], SPEC3, STR3).total == pytest.approx(0.0, abs=1e-12)
    assert energy(knots[-1], SPEC3, STR3).total < 0
    assert all(k.lam == lam for k in knots)
    assert all(k.grid is knots[0].grid for k in knots)
    # mid-path knots carry the small charge bump
    assert float(np.real(knots[8].charge)) > 0


def test_initial_path_2d_reaches_negative_energy():
    # the 2D kinetic term is scale-invariant, so this exercises the
    # amplitude-scaling fallback
    config = SolverConfig(M=256, path_knots=17)
    knots, _, _ = initial_path(SPEC2, STR2, config)
    assert energy(knots[-1], SPEC2, STR2).total < 0


def test_initial_path_freeze_charge_has_no_bump():
    config = SolverConfig(M=256, freeze_charge=True)
    knots, _, _ = initial_path(SPEC3, STR3, config)
    assert all(float(np.real(k.charge)) == 0.0 for k in knots)


def test_initial_path_file_seed(tmp_path):
    grid = make_grid(3, 20.0, 256, 2.0)
    st = FieldState(grid, 1.0, 0.0, 2.0 * np.exp(-grid.nodes**2))
    path = tmp_path / "seed.csv"
    save_profile(st, str(path))
    config = SolverConfig(M=256, seed_profile="file", seed_file=str(path))
    knots, _, _ = initial_path(SPEC3, STR3, config)
    assert energy(knots[-1], SPEC3, STR3).total < 0


# ---------------------------------------------------------------------------
# full solve (moderate resolution; the acceptance suite runs the large one)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solve3():
    config = SolverConfig(
        M=512,
        max_iters=200,
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
    result = solve3
    assert len(result.trace) >= 1
    assert result.iterations >= 1
    assert result.p_regime is not None and "5/2" in result.p_regime
    sigmas = [t[1] for t in result.trace]
    assert sigmas[-1] <= sigmas[0] + 1e-12


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


def test_newton_refine_frozen_charge_keeps_q(ground3):
    state, _ = ground3
    config = SolverConfig(M=1024, freeze_charge=True, newton_tol=1e-9)
    refined, _ = newton_refine(state, SPEC3, STR3, config)
    assert refined.charge == 0.0
    assert np.max(np.abs(refined.phi)) > 1.0  # stays on the scalar profile


def test_newton_error_reports_history():
    # a hopeless start far outside any basin must raise, not loop forever
    grid = make_grid(3, 20.0, 256, 2.0)
    bad = FieldState(grid, 1.0, 500.0, 1e3 * np.sin(grid.nodes))
    config = SolverConfig(M=256, newton_max_iter=10)
    with pytest.raises(NewtonError):
        newton_refine(bad, SPEC3, STR3, config)


def test_theta_mode_smoke():
    config = SolverConfig(
        M=256, max_iters=5, theta_mode=True, seed_profile="bump", newton_switch=1e-12
    )
    result = mountain_pass(SPEC3, STR3, config)
    assert result.iterations <= 5
    assert np.isfinite(result.sigma_estimate)


def test_collapse_branch_shoots_once(monkeypatch):
    # 2D cubic, alpha = 0, omega = 1 <= omega_alpha: the path collapses onto
    # the zero endpoint and the multistart ladder reuses the path's seed
    import deltafield.solver as solver

    calls = {"shoot": 0, "multistart": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "scalar_ground_state", counting("shoot", solver.scalar_ground_state))
    monkeypatch.setattr(solver, "_multistart_newton", counting("multistart", solver._multistart_newton))
    config = SolverConfig(M=128, max_iters=200, grad_tol=1e-7, grading_exponent=4.0)
    mountain_pass(SPEC2, STR2, config)
    assert calls == {"shoot": 1, "multistart": 1}
