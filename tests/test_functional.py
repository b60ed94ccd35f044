"""Tests for the action functional: energy, derivatives, residual identities."""

import math

import numpy as np
import pytest

from deltafield.field import (
    FieldState,
    dilate,
    gauge_fix,
    make_grid,
    scale,
)
from deltafield.functional import (
    _norms,
    arrow_solve,
    blowup_diagnostic,
    boundary_residual,
    coercive_norm_sq,
    derivative,
    energy,
    gradient_norm,
    gradient_vector,
    hessian_blocks,
    morse_index,
    pohozaev_residual,
    pohozaev_residual_alt,
    riesz_representative,
    verify,
)
from deltafield.greens import InteractionStrength, xi
from deltafield.nonlinearity import power_family
from deltafield.solver import solve_lambda
from oracles import (
    add,
    extended_energy,
    extended_energy_dtheta,
    gradient_system,
    h1_alpha_total,
    l2_inner,
    radial_laplacian,
    stiffness_inner_two_diffs,
    zero_state,
)

SPEC3 = power_family(1.0, 2.5)
SPEC2 = power_family(2.0, 4.0)
STR3 = InteractionStrength(1.0, 3)
STR2 = InteractionStrength(0.0, 2)


def _setup(dim):
    grid = make_grid(dim, 15.0, 512, 2.0)
    return (grid, SPEC3, STR3) if dim == 3 else (grid, SPEC2, STR2)


def _random_state(grid, lam, seed, amp=0.5, complex_data=False):
    rng = np.random.default_rng(seed)
    env = np.exp(-grid.nodes)
    phi = amp * rng.standard_normal(grid.M + 1) * env
    q = amp * float(rng.standard_normal())
    if complex_data:
        phi = phi + 1j * amp * rng.standard_normal(grid.M + 1) * env
        q = complex(q, amp * float(rng.standard_normal()))
    return FieldState(grid, lam, q, phi)


def _smooth_state(grid, lam, q=0.7, amp=1.0):
    phi = amp * np.exp(-grid.nodes**2 / 2.0)
    return FieldState(grid, lam, q, phi)


# ---------------------------------------------------------------------------
# energy basics
# ---------------------------------------------------------------------------


def test_energy_of_zero_state():
    grid, spec, strength = _setup(3)
    assert energy(zero_state(grid, 1.0), spec, strength).total == 0.0


def test_energy_gauge_invariant():
    grid, spec, strength = _setup(3)
    st = _random_state(grid, 1.0, 0, complex_data=True)
    e0 = energy(st, spec, strength).total
    for phase_angle in (0.3, 1.2, -2.0):
        phase = np.exp(1j * phase_angle)
        rot = FieldState(grid, st.lam, st.charge * phase, st.phi * phase)
        assert energy(rot, spec, strength).total == pytest.approx(e0, rel=1e-12)


def test_energy_dim_mismatch():
    grid, spec, _ = _setup(3)
    with pytest.raises(ValueError):
        energy(zero_state(grid, 1.0), spec, STR2)


def test_energy_breakdown_total():
    grid, spec, strength = _setup(3)
    st = _smooth_state(grid, 1.0)
    b = energy(st, spec, strength)
    assert b.total == pytest.approx(
        b.kinetic + b.l2_block + b.charge_block - b.potential, rel=1e-15
    )


# ---------------------------------------------------------------------------
# derivative vs finite differences (the core correctness property)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_derivative_matches_finite_difference(dim, seed):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    st = _random_state(grid, lam, 10 * dim + seed)
    v = _random_state(grid, lam, 10 * dim + seed + 1000)
    d = derivative(st, v, spec, strength)
    eps = 1e-5
    ep = energy(add(st, scale(v, eps)), spec, strength).total
    em = energy(add(st, scale(v, -eps)), spec, strength).total
    fd = (ep - em) / (2 * eps)
    assert d == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_vector_represents_derivative(dim):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    st = _random_state(grid, lam, 42)
    gp, gq = gradient_vector(st, spec, strength)
    for seed in range(5):
        v = _random_state(grid, lam, 500 + seed)
        d = derivative(st, v, spec, strength)
        pairing = float(np.dot(gp, v.phi)) + gq * float(np.real(v.charge))
        assert pairing == pytest.approx(d, rel=1e-10, abs=1e-13)


def test_gradient_requires_real_gauge():
    grid, spec, strength = _setup(3)
    st = _random_state(grid, 1.0, 3, complex_data=True)
    with pytest.raises(ValueError):
        gradient_vector(st, spec, strength)


def test_gradient_norm_zero_at_zero_state():
    grid, spec, strength = _setup(3)
    assert gradient_norm(zero_state(grid, 1.0), spec, strength) == 0.0


def test_riesz_requires_coercive_lambda():
    grid, spec, strength = _setup(2)
    st = _random_state(grid, 1.0, 4)  # lam = 1 < omega_alpha(2D, alpha=0)
    with pytest.raises(ValueError):
        riesz_representative(st, strength, np.zeros(grid.M + 1), 0.0)


def test_gradient_norm_is_dual_norm():
    # |<I'(u), v>| <= gradient_norm(u) * coercive_norm(v), tight for v = z
    grid, spec, strength = _setup(3)
    st = _random_state(grid, 1.0, 5)
    gp, gq = gradient_vector(st, spec, strength)
    zp, zq = riesz_representative(st, strength, gp, gq)
    gn = gradient_norm(st, spec, strength)
    pairing = float(np.dot(gp, zp)) + gq * zq
    assert pairing == pytest.approx(gn**2, rel=1e-12)
    assert coercive_norm_sq(grid, st.lam, strength, zp, zq) == pytest.approx(gn**2, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_coercive_norm_matches_gauss_oracle(dim):
    # the cached mass bands against the Gauss mass_inner of h1_alpha_total
    grid, _, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    for seed in range(5):
        st = _random_state(grid, lam, 70 + seed)
        want = h1_alpha_total(st, strength)
        got = coercive_norm_sq(grid, lam, strength, st.phi, st.charge)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("complex_data", [False, True])
def test_kinetic_term_equals_stiffness_inner_exactly(dim, complex_data):
    # one diff for a is b and a conjugate only of complex data, bit for bit
    grid, _, _ = _setup(dim)
    for seed in range(3):
        st = _random_state(grid, 1.0, 90 + seed, complex_data=complex_data)
        other = _random_state(grid, 1.0, 190 + seed, complex_data=complex_data)
        want = stiffness_inner_two_diffs(grid, st.phi, st.phi)
        got = grid.stiffness_inner(st.phi, st.phi)
        assert got == want and np.result_type(got) == np.result_type(want)
        assert _norms(st)[0] == float(np.real(want))
        want_ab = stiffness_inner_two_diffs(grid, st.phi, other.phi)
        assert grid.stiffness_inner(st.phi, other.phi) == want_ab
        assert grid.stiffness_inner(st.phi, st.phi.copy()) == want


# ---------------------------------------------------------------------------
# Hessian and the arrow solver
# ---------------------------------------------------------------------------


def test_hessian_matches_gradient_differences():
    grid, spec, strength = _setup(3)
    st = _smooth_state(grid, 1.0, q=0.5)
    diag, off, b, d = hessian_blocks(st, spec, strength)
    rng = np.random.default_rng(7)
    v_phi = rng.standard_normal(grid.M + 1) * np.exp(-grid.nodes)
    v_q = 0.3
    eps = 1e-6
    up = FieldState(grid, st.lam, st.charge + eps * v_q, st.phi + eps * v_phi)
    um = FieldState(grid, st.lam, st.charge - eps * v_q, st.phi - eps * v_phi)
    gpp, gqp = gradient_vector(up, spec, strength)
    gpm, gqm = gradient_vector(um, spec, strength)
    fd_phi = (gpp - gpm) / (2 * eps)
    fd_q = (gqp - gqm) / (2 * eps)
    hv_phi = diag * v_phi + b * v_q
    hv_phi[:-1] += off * v_phi[1:]
    hv_phi[1:] += off * v_phi[:-1]
    hv_q = float(np.dot(b, v_phi)) + d * v_q
    scale_ref = float(np.max(np.abs(fd_phi))) + 1e-30
    assert np.allclose(hv_phi, fd_phi, atol=1e-5 * scale_ref)
    assert hv_q == pytest.approx(fd_q, rel=1e-5, abs=1e-8)


def test_arrow_solve_matches_dense():
    rng = np.random.default_rng(11)
    n = 40
    diag = 4.0 + rng.random(n)
    off = -1.0 + 0.1 * rng.random(n - 1)
    b = rng.standard_normal(n)
    d = 10.0
    rhs_phi = rng.standard_normal(n)
    rhs_q = 1.3
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    full = np.zeros((n + 1, n + 1))
    full[:n, :n] = A
    full[:n, n] = b
    full[n, :n] = b
    full[n, n] = d
    expected = np.linalg.solve(full, np.concatenate([rhs_phi, [rhs_q]]))
    x_phi, x_q = arrow_solve(diag, off, b, d, rhs_phi, rhs_q)
    assert np.allclose(x_phi, expected[:n], rtol=1e-10)
    assert x_q == pytest.approx(expected[n], rel=1e-10)


# ---------------------------------------------------------------------------
# Morse index: inertia of the arrow Hessian
# ---------------------------------------------------------------------------


def _dense_arrow(diag, off, b, d):
    n = len(diag)
    full = np.zeros((n + 1, n + 1))
    full[:n, :n] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    full[:n, n] = full[n, :n] = b
    full[n, n] = d
    return full


def _dense_index(diag, off, b, d):
    return int(np.sum(np.linalg.eigvalsh(_dense_arrow(diag, off, b, d)) < 0))


@pytest.mark.parametrize("kind", ["definite", "indefinite", "negative_schur"])
@pytest.mark.parametrize("seed", range(5))
def test_morse_index_matches_dense_eigenvalues(kind, seed):
    rng = np.random.default_rng(seed)
    n = 30
    b = rng.standard_normal(n)
    if kind == "indefinite":
        diag = 2.0 * rng.standard_normal(n)
        off = rng.standard_normal(n - 1)
        d = float(rng.standard_normal())
    else:
        diag = 4.0 + rng.random(n)
        off = -1.0 + 0.1 * rng.random(n - 1)
        t_inv_b = np.linalg.solve(_dense_arrow(diag, off, b, 0.0)[:n, :n], b)
        # Schur complement d - b^T T^-1 b = +1 or -1
        d = float(b @ t_inv_b) + (1.0 if kind == "definite" else -1.0)
    want = _dense_index(diag, off, b, d)
    assert morse_index(diag, off, b, d) == want
    if kind == "definite":
        assert want == 0
    elif kind == "negative_schur":
        assert want == 1


def test_morse_index_zero_pivot():
    # T = [[0, 1, 0], [1, 0, .5], [0, .5, 2]] has a zero leading pivot but is
    # nonsingular; the recurrence must step over it, not divide by zero
    diag, off = np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.5])
    for b, d in ((np.array([0.1, 0.2, 0.3]), 1.0), (np.array([1.0, 0.0, 2.0]), -3.0)):
        assert morse_index(diag, off, b, d) == _dense_index(diag, off, b, d)


@pytest.mark.parametrize("dim", [2, 3])
def test_morse_index_of_hessian_blocks_matches_dense(dim):
    grid = make_grid(dim, 15.0, 64, 2.0)
    spec, strength = (SPEC3, STR3) if dim == 3 else (SPEC2, STR2)
    lam = solve_lambda(spec, strength)
    bump = np.cos(grid.nodes) * np.exp(-grid.nodes**2 / 8.0)
    indices = []
    for amp in (1.0, 3.0, 10.0, 20.0):
        blocks = hessian_blocks(FieldState(grid, lam, 0.5, amp * bump), spec, strength)
        indices.append(morse_index(*blocks))
        assert indices[-1] == _dense_index(*blocks), amp
    assert max(indices) >= 2  # the oscillating states reach past index 1


@pytest.mark.parametrize(
    "dim,omega,alpha,want",
    [(2, 1.0, 0.0, 1), (2, 2.0, 0.0, 0), (3, 1.0, 1.0, 0)],
)
def test_morse_index_of_zero_state(dim, omega, alpha, want):
    # below omega_alpha (2D, alpha = 0: 1.2609) the zero state has one
    # descent direction, the bound state of the point interaction
    spec = power_family(omega, 4.0 if dim == 2 else 2.5)
    strength = InteractionStrength(alpha, dim)
    grid = make_grid(dim, 20.0, 512, 4.0, p_growth=spec.p_growth)
    lam = solve_lambda(spec, strength)
    zero = FieldState(grid, lam, 0.0, np.zeros(grid.M + 1))
    assert morse_index(*hessian_blocks(zero, spec, strength)) == want


# ---------------------------------------------------------------------------
# extended functional and Pohozaev identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_extended_energy_at_zero_theta(dim):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    st = _random_state(grid, lam, 20)
    assert extended_energy(0.0, st, spec, strength) == pytest.approx(
        energy(st, spec, strength).total, rel=1e-14
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("theta", [-0.4, 0.3, 1.0])
def test_extended_energy_equals_dilated_energy(dim, theta):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    st = _random_state(grid, lam, 21)
    lhs = extended_energy(theta, st, spec, strength)
    rhs = energy(dilate(st, math.exp(theta)), spec, strength).total
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_dtheta_at_zero_is_pohozaev(dim):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    for seed in range(5):
        st = _random_state(grid, lam, 30 + seed)
        lhs = extended_energy_dtheta(0.0, st, spec, strength)
        rhs = pohozaev_residual(st, spec, strength)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("theta", [-0.3, 0.5])
def test_dtheta_matches_finite_difference(theta):
    grid, spec, strength = _setup(3)
    st = _random_state(grid, 1.0, 33)
    h = 1e-6
    fd = (
        extended_energy(theta + h, st, spec, strength)
        - extended_energy(theta - h, st, spec, strength)
    ) / (2 * h)
    assert extended_energy_dtheta(theta, st, spec, strength) == pytest.approx(
        fd, rel=1e-7
    )


def test_pohozaev_alt_equals_primary_3d():
    grid, spec, strength = _setup(3)
    for seed in range(5):
        st = _random_state(grid, 1.0, 40 + seed, complex_data=True)
        a = pohozaev_residual(st, spec, strength)
        b = pohozaev_residual_alt(st, spec, strength)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_pohozaev_alt_rejects_2d():
    grid, spec, strength = _setup(2)
    with pytest.raises(ValueError):
        pohozaev_residual_alt(zero_state(grid, 3.0), spec, strength)


def test_boundary_residual_formula():
    grid, spec, strength = _setup(3)
    st = _smooth_state(grid, 1.0, q=2.0)
    expected = st.phi[0] - (strength.alpha + xi(3, 1.0)) * 2.0
    assert boundary_residual(st, strength) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_blowup_diagnostic_smooth_profile():
    # phi = e^{-r^2}: phi' ~ -2r near 0, so the log-log slope is ~ +1
    grid = make_grid(3, 10.0, 512, 2.0)
    st = FieldState(grid, 1.0, 0.0, np.exp(-grid.nodes**2))
    slope = blowup_diagnostic(st)
    assert slope is not None
    assert slope == pytest.approx(1.0, abs=0.05)


def test_blowup_diagnostic_flat_profile_is_none():
    grid = make_grid(3, 10.0, 512, 2.0)
    st = zero_state(grid, 1.0)
    assert blowup_diagnostic(st) is None


def test_blowup_diagnostic_coarse_grid_is_none():
    grid = make_grid(3, 10.0, 64, 2.0)
    st = FieldState(grid, 1.0, 0.0, np.exp(-grid.nodes**2))
    assert blowup_diagnostic(st, n_points=40) is None


def test_radial_laplacian_quadratic_exact():
    # Delta r^2 = 2N, and the second-order stencil is exact on quadratics
    for dim in (2, 3):
        grid = make_grid(dim, 5.0, 128, 2.0)
        lap = radial_laplacian(grid, grid.nodes**2)
        assert np.allclose(lap, 2.0 * dim, rtol=1e-10)


def test_gradient_system_zero_charge():
    grid, spec, strength = _setup(3)
    st = FieldState(grid, 1.0, 0.0, np.exp(-grid.nodes**2))
    res, qres = gradient_system(st, spec, strength)
    assert np.isfinite(res[: grid.M]).all()
    # manufactured check at one node: res = -Delta phi - g(phi)
    r = grid.nodes[5]
    lap = (4 * r * r - 6) * math.exp(-r * r)
    from deltafield.nonlinearity import g_signed

    expected = -lap - float(g_signed(spec, math.exp(-r * r)))
    assert res[5] == pytest.approx(expected, abs=5e-3)


def test_gradient_system_singular_origin_nan():
    grid, spec, strength = _setup(3)
    st = _smooth_state(grid, 1.0, q=1.0)
    res, _ = gradient_system(st, spec, strength)
    assert math.isnan(res[0])


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


def test_verify_zero_state():
    grid, spec, strength = _setup(3)
    report = verify(zero_state(grid, 1.0), spec, strength)
    assert report.energy.total == 0.0
    assert report.gradient_norm == 0.0
    assert report.pohozaev_residual == 0.0
    assert report.boundary_residual == 0.0
    assert report.blowup_exponent is None


def test_verify_report_json_roundtrip():
    import json

    grid, spec, strength = _setup(3)
    st = _smooth_state(grid, 1.0, q=0.4)
    payload = verify(st, spec, strength).to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["lambda"] == 1.0
    assert back["charge_re"] == pytest.approx(0.4)
    assert set(back["energy"]) == {
        "kinetic",
        "l2_block",
        "charge_block",
        "potential",
        "total",
    }


def test_verify_complex_state_uses_gauge_fixed_gradient():
    grid, spec, strength = _setup(3)
    st = _random_state(grid, 1.0, 50, complex_data=True)
    report = verify(st, spec, strength)
    fixed = gauge_fix(st)
    real_state = FieldState(
        grid, fixed.lam, float(np.real(fixed.charge)), np.real(fixed.phi)
    )
    assert report.gradient_norm == pytest.approx(
        gradient_norm(real_state, spec, strength), rel=1e-12
    )


# ---------------------------------------------------------------------------
# cancelled L^2 block, cached Riesz factor, bincount assembly
# ---------------------------------------------------------------------------


def _l2_states(grid, lam):
    real = _random_state(grid, lam, 60)
    cplx = _random_state(grid, lam, 61, complex_data=True)
    uncharged = FieldState(grid, lam, 0.0, real.phi)
    return real, cplx, uncharged


@pytest.mark.parametrize("dim", [2, 3])
def test_cancelled_l2_block_matches_direct_form(dim):
    grid, spec, strength = _setup(dim)
    lam = 1.0 if dim == 3 else 3.0
    n2 = dim - 2
    for st in _l2_states(grid, lam):
        mass = np.real(grid.mass_inner(st.phi, st.phi))
        direct = 0.5 * lam * (mass - np.real(l2_inner(st, st)))
        b = energy(st, spec, strength)
        assert abs(b.l2_block - direct) <= 1e-12 * (1 + abs(direct))
        q2 = abs(st.charge) ** 2
        g_l2 = grid.green(lam)["l2_sq"]
        poho = (
            n2 * (b.kinetic + direct)
            - lam * g_l2 * q2
            + n2 * (strength.alpha + xi(dim, lam)) * q2
            - dim * b.potential
        )
        got = pohozaev_residual(st, spec, strength)
        assert abs(got - poho) <= 1e-12 * (1 + abs(poho))
        if dim == 3:
            alt = b.kinetic + direct + b.charge_block + 0.5 * strength.alpha * q2 - 3 * b.potential
            got = pohozaev_residual_alt(st, spec, strength)
            assert abs(got - alt) <= 1e-12 * (1 + abs(alt))


def _add_at_tridiag(grid, coeff):
    gl, c = grid.glam, grid.gw * coeff
    diag = np.zeros(grid.M + 1)
    np.add.at(diag, grid.gcell, c * (1.0 - gl) ** 2)
    np.add.at(diag, grid.gcell + 1, c * gl**2)
    off = np.zeros(grid.M)
    np.add.at(off, grid.gcell, c * gl * (1.0 - gl))
    return diag, off


def test_riesz_cached_factor_matches_fresh_solve_per_lambda():
    from scipy.linalg import solveh_banded

    grid, spec, strength = _setup(3)
    md, mo = _add_at_tridiag(grid, 1.0)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(grid.M + 1)
    for lam in (1.0, 2.5, 1.0, 2.5):
        ab = np.zeros((2, grid.M + 1))
        ab[0, 1:] = -grid.stiff_k + lam * mo
        ab[1, :-1] += grid.stiff_k
        ab[1, 1:] += grid.stiff_k
        ab[1] += lam * md
        st = zero_state(grid, lam)
        zp, zq = riesz_representative(st, strength, rhs, 2.0)
        np.testing.assert_allclose(zp, solveh_banded(ab, rhs), rtol=1e-10, atol=0)
        assert zq == pytest.approx(2.0 / (strength.alpha + xi(3, lam)), rel=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_bincount_assembly_matches_add_at(dim):
    from deltafield.functional import _tridiag_from_gauss

    grid, _, _ = _setup(dim)
    vals = np.random.default_rng(8).standard_normal(grid.gp.size)
    ref = np.zeros(grid.M + 1)
    np.add.at(ref, grid.gcell, (1.0 - grid.glam) * grid.gw * vals)
    np.add.at(ref, grid.gcell + 1, grid.glam * grid.gw * vals)
    scale_ = np.max(np.abs(ref))
    np.testing.assert_allclose(grid.scatter_to_nodes(vals), ref, rtol=1e-13, atol=1e-14 * scale_)
    for got, want in zip(_tridiag_from_gauss(grid, vals), _add_at_tridiag(grid, vals)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14 * np.max(np.abs(want)))
