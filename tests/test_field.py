"""Tests for the radial grid, field states and their algebra/serialization."""

import math

import numpy as np
import pytest
from scipy import integrate

from deltafield.field import (
    FieldState,
    default_grading,
    gauge_fix,
    load_profile,
    make_grid,
    resample,
    save_profile,
)
from deltafield.greens import GreenKernel, InteractionStrength, green_l2_norm_sq
from oracles import (
    add,
    change_lambda,
    coercive_norm_sq,
    dilate,
    h1_alpha_norm_sq,
    h1_alpha_total,
    l2_inner,
    nodal_at_gauss_gather,
    scale,
    zero_state,
)


def _ball_volume(dim, r):
    return 4.0 / 3.0 * math.pi * r**3 if dim == 3 else math.pi * r**2


# ---------------------------------------------------------------------------
# grid geometry and quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
def test_grid_nodes(dim, gamma):
    grid = make_grid(dim, 10.0, 128, gamma)
    assert grid.nodes.shape == (129,)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(10.0, rel=1e-15)
    assert np.all(np.diff(grid.nodes) > 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_gauss_rule_integrates_gaussian(dim):
    grid = make_grid(dim, 8.0, 512, 2.0)
    val = grid.integrate_gauss(np.exp(-(grid.gp**2)))
    exact = math.pi ** 1.5 if dim == 3 else math.pi
    assert val == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_mass_inner_of_ones_is_volume(dim):
    grid = make_grid(dim, 3.0, 128, 1.5)
    ones = np.ones(grid.M + 1)
    assert grid.mass_inner(ones, ones) == pytest.approx(
        _ball_volume(dim, 3.0), rel=1e-12
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_stiffness_inner_linear_function(dim):
    # phi = r has |phi'|^2 = 1, so the Dirichlet integral is the ball volume
    grid = make_grid(dim, 3.0, 128, 2.0)
    assert grid.stiffness_inner(grid.nodes, grid.nodes) == pytest.approx(
        _ball_volume(dim, 3.0), rel=1e-12
    )
    const = np.full(grid.M + 1, 2.5)
    assert grid.stiffness_inner(const, const) == 0.0


def test_hat_interpolation_second_order():
    # mass_inner of the interpolant of a smooth function converges at order 2
    exact, _ = integrate.quad(lambda r: 4 * math.pi * r * r * np.exp(-2 * r), 0, 40)
    errs = []
    for M in (128, 256, 512, 1024):
        grid = make_grid(3, 20.0, M, 3.0)
        f = np.exp(-grid.nodes)
        errs.append(abs(grid.mass_inner(f, f) - exact))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(r > 3.5 for r in ratios)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("M", [64, 2048])
@pytest.mark.parametrize("dilated", [False, True])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_nodal_at_gauss_matches_gather_exactly(dim, M, dilated, kind):
    grid = make_grid(dim, 20.0, M, 4.0)
    if dilated:
        grid = dilate(zero_state(grid, 1.0), 3.7).grid
    rng = np.random.default_rng(M + dim)
    v = rng.standard_normal(M + 1)
    if kind == "complex":
        v = v + 1j * rng.standard_normal(M + 1)
    got = grid.nodal_at_gauss(v)
    want = nodal_at_gauss_gather(grid, v)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_default_grading():
    assert default_grading() == 2.0
    assert default_grading(2.5) == 2.0
    assert default_grading(2.8) == pytest.approx(5.0)
    assert default_grading(4.0) == 2.0  # p >= 3: 2D regime, default grading


@pytest.mark.parametrize("bad_M", [0, 32, 63])
def test_grid_rejects_small_M(bad_M):
    with pytest.raises(ValueError):
        make_grid(3, 5.0, bad_M, 2.0)


def test_grid_rejects_bad_grading():
    with pytest.raises(ValueError):
        make_grid(3, 5.0, 128, 0.5)


def test_green_cache_consistency():
    grid = make_grid(3, 12.0, 256, 2.0)
    g = grid.green(1.0)
    assert g["nodes"][0] == np.inf
    assert g["l2_sq"] == pytest.approx(green_l2_norm_sq(GreenKernel(3, 1.0)), rel=1e-15)
    # c_vec . phi equals the Gauss integral of G * interpolant(phi)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(grid.M + 1)
    direct = grid.integrate_gauss(g["gp"] * grid.nodal_at_gauss(phi))
    assert np.dot(g["c_vec"], phi) == pytest.approx(direct, rel=1e-13)
    assert grid.green(1.0) is g  # cached


# ---------------------------------------------------------------------------
# field states
# ---------------------------------------------------------------------------


@pytest.fixture
def grid3():
    return make_grid(3, 15.0, 256, 2.0)


@pytest.fixture
def grid2():
    return make_grid(2, 15.0, 256, 2.0)


def _random_state(grid, lam, seed, complex_data=False):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(grid.M + 1) * np.exp(-grid.nodes)
    q = float(rng.standard_normal())
    if complex_data:
        phi = phi + 1j * rng.standard_normal(grid.M + 1) * np.exp(-grid.nodes)
        q = complex(q, float(rng.standard_normal()))
    return FieldState(grid, lam, q, phi)


def test_state_validation(grid3):
    with pytest.raises(ValueError):
        FieldState(grid3, -1.0, 0.0, np.zeros(grid3.M + 1))
    with pytest.raises(ValueError):
        FieldState(grid3, 1.0, 0.0, np.zeros(grid3.M))
    bad = np.zeros(grid3.M + 1)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        FieldState(grid3, 1.0, 0.0, bad)


def test_zero_state(grid3):
    z = zero_state(grid3, 1.0)
    assert z.charge == 0.0
    assert np.all(z.u_at_gauss() == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_l2_inner_pure_charge(dim):
    grid = make_grid(dim, 15.0, 256, 2.0)
    st = FieldState(grid, 2.0, 3.0, np.zeros(grid.M + 1))
    expected = 9.0 * green_l2_norm_sq(GreenKernel(dim, 2.0))
    assert l2_inner(st, st) == pytest.approx(expected, rel=1e-14)


def test_l2_inner_hermitian(grid3):
    a = _random_state(grid3, 1.0, 1, complex_data=True)
    b = _random_state(grid3, 1.0, 2, complex_data=True)
    assert l2_inner(a, b) == pytest.approx(np.conjugate(l2_inner(b, a)), rel=1e-13)


def test_l2_norm_gauge_invariant(grid3):
    st = _random_state(grid3, 1.0, 3, complex_data=True)
    phase = np.exp(1.7j)
    rotated = FieldState(grid3, st.lam, st.charge * phase, st.phi * phase)
    assert np.real(l2_inner(rotated, rotated)) == pytest.approx(
        np.real(l2_inner(st, st)), rel=1e-14
    )


def test_mixed_grid_operations_rejected(grid3):
    other = make_grid(3, 15.0, 512, 2.0)
    a = zero_state(grid3, 1.0)
    b = zero_state(other, 1.0)
    with pytest.raises(ValueError):
        add(a, b)
    with pytest.raises(ValueError):
        l2_inner(a, b)
    c = zero_state(grid3, 2.0)
    with pytest.raises(ValueError):
        add(a, c)


# ---------------------------------------------------------------------------
# charge and decomposition laws
# ---------------------------------------------------------------------------


def test_charge_additive_bit_identical(grid3):
    a = _random_state(grid3, 1.0, 4)
    b = _random_state(grid3, 1.0, 5)
    assert add(a, b).charge == a.charge + b.charge  # exact


def test_charge_scaling_bit_identical(grid3):
    a = _random_state(grid3, 1.0, 6)
    for c in (2.0, -0.5, 1.5 + 0.25j):
        assert scale(a, c).charge == c * a.charge  # exact


def test_change_lambda_preserves_charge_bit_identical(grid3):
    a = _random_state(grid3, 1.0, 7, complex_data=True)
    assert change_lambda(a, 3.7).charge == a.charge  # exact


def test_change_lambda_preserves_u(grid3):
    a = _random_state(grid3, 1.0, 8)
    b = change_lambda(a, 2.5)
    # u = phi + q G agrees at every positive node (the representation changes,
    # the function does not)
    r = grid3.nodes[1:]
    from deltafield.greens import green_value

    ua = a.phi[1:] + a.charge * green_value(GreenKernel(3, 1.0), r)
    ub = b.phi[1:] + b.charge * green_value(GreenKernel(3, 2.5), r)
    assert np.allclose(ua, ub, rtol=0, atol=1e-12)
    back = change_lambda(b, 1.0)
    assert np.allclose(a.phi, back.phi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim,t", [(3, 2.0), (3, 0.5), (2, 3.0)])
def test_dilate_charge_law(dim, t):
    grid = make_grid(dim, 10.0, 128, 2.0)
    st = _random_state(grid, 1.3, 9)
    out = dilate(st, t)
    assert out.charge == t ** (dim - 2) * st.charge  # exact
    assert out.lam == pytest.approx(st.lam / t**2, rel=1e-15)
    assert out.grid.r_max == pytest.approx(t * grid.r_max, rel=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_dilate_l2_scaling(dim):
    # ||u(./t)||^2 = t^N ||u||^2
    grid = make_grid(dim, 15.0, 256, 2.0)
    st = _random_state(grid, 1.0, 10)
    t = 1.7
    out = dilate(st, t)
    assert np.real(l2_inner(out, out)) == pytest.approx(
        t**dim * np.real(l2_inner(st, st)), rel=1e-12
    )


def test_gauge_fix(grid3):
    st = _random_state(grid3, 1.0, 11, complex_data=True)
    fixed = gauge_fix(st)
    assert abs(np.imag(fixed.charge)) <= 1e-15 * abs(st.charge)
    assert np.real(fixed.charge) >= 0
    assert abs(fixed.charge) == pytest.approx(abs(st.charge), rel=1e-15)
    assert np.real(l2_inner(fixed, fixed)) == pytest.approx(
        np.real(l2_inner(st, st)), rel=1e-13
    )


# ---------------------------------------------------------------------------
# coercive norm
# ---------------------------------------------------------------------------


def test_h1_alpha_positive(grid3):
    st = _random_state(grid3, 1.0, 12)
    strength = InteractionStrength(1.0, 3)
    v = h1_alpha_norm_sq(st, strength)
    assert v.grad_phi_sq > 0 and v.phi_sq > 0 and v.u_sq > 0
    assert h1_alpha_total(st, strength) > 0


def test_h1_alpha_needs_coercive_lambda(grid2):
    # 2D, alpha=0: omega_alpha ~ 1.26, so lambda = 1 is below the threshold
    st = _random_state(grid2, 1.0, 13)
    with pytest.raises(ValueError):
        coercive_norm_sq(grid2, st.lam, InteractionStrength(0.0, 2), st.phi, st.charge)


def test_h1_alpha_dim_mismatch(grid3):
    st = _random_state(grid3, 1.0, 14)
    with pytest.raises(ValueError):
        h1_alpha_norm_sq(st, InteractionStrength(0.0, 2))


def test_norm_equivalence_constants(grid3):
    # ||u||^2 is controlled by the coercive norm; record the empirical constant
    strength = InteractionStrength(1.0, 3)
    worst = 0.0
    for seed in range(10):
        st = _random_state(grid3, 1.0, 100 + seed, complex_data=True)
        v = h1_alpha_norm_sq(st, strength)
        total = v.grad_phi_sq + st.lam * v.phi_sq + v.charge_term
        worst = max(worst, st.lam * v.u_sq / total)
    assert worst <= 1.0 + 1e-12  # lam*||u||^2 <= coercive norm for these states


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_resample_same_grid_exact(grid3):
    st = _random_state(grid3, 1.0, 15)
    out = resample(st, grid3)
    assert np.allclose(out.phi, st.phi, rtol=0, atol=1e-14)
    assert out.charge == st.charge


def test_resample_smooth_profile(grid3):
    fine = make_grid(3, 15.0, 1024, 2.0)
    phi = np.exp(-grid3.nodes**2)
    st = FieldState(grid3, 1.0, 0.5, phi)
    out = resample(st, fine)
    assert out.charge == st.charge
    assert np.allclose(out.phi, np.exp(-fine.nodes**2), atol=5e-6)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, grid3):
    st = _random_state(grid3, 1.3, 16, complex_data=True)
    path = tmp_path / "profile.csv"
    save_profile(st, str(path))
    assert path.exists()
    assert (tmp_path / "profile.json").exists()
    back = load_profile(str(path))
    assert back.lam == st.lam
    assert back.charge == st.charge
    assert np.array_equal(np.asarray(back.phi), np.asarray(st.phi))
    assert np.array_equal(back.grid.nodes, grid3.nodes)


def test_save_load_roundtrip_real(tmp_path, grid2):
    st = _random_state(grid2, 2.0, 17)
    path = tmp_path / "p.csv"
    save_profile(st, str(path))
    back = load_profile(str(path))
    assert back.charge == st.charge
    assert np.array_equal(np.asarray(back.phi), np.asarray(st.phi))


def test_load_truncated_file_fails(tmp_path, grid3):
    st = _random_state(grid3, 1.0, 18)
    path = tmp_path / "t.csv"
    save_profile(st, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-5]))
    with pytest.raises(ValueError):
        load_profile(str(path))


def test_load_bad_header_fails(tmp_path, grid3):
    st = _random_state(grid3, 1.0, 19)
    path = tmp_path / "h.csv"
    save_profile(st, str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = "radius,phi_re,phi_im\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError):
        load_profile(str(path))


def test_load_unknown_sidecar_key_fails(tmp_path, grid3):
    import json

    st = _random_state(grid3, 1.0, 20)
    path = tmp_path / "k.csv"
    save_profile(st, str(path))
    sidecar = tmp_path / "k.json"
    meta = json.loads(sidecar.read_text())
    meta["extra"] = 1
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_profile(str(path))


def test_load_corrupted_row_reports_line_number(tmp_path, grid3):
    st = _random_state(grid3, 1.0, 21)
    path = tmp_path / "c.csv"
    save_profile(st, str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = "not,a,number\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="line"):
        load_profile(str(path))
