import mpmath
import numpy as np
import pytest
from scipy import integrate

from diracwalk import (TOL, NumericalHealthError, Tolerances,
                       WalkInitConfig, build_initial_state,
                       discretize_to_lattice, energy, fiber_grid,
                       gaussian_profile, initial,
                       position_coefficients, spinor_weights)
from diracwalk.initial import (MomentumProfile, PositionAmplitudes,
                               require_initial_state_fits)


def direct_sum_coefficients(profile, x_grid):
    """Oracle for position_coefficients: the trapezoid rule on
    p = dp*[-n, n], dp = min(pi/max|x|, p_max/400), summed directly at every
    x in blocks, O(n_p * n_x).  Returns the plus-branch sums of W+ f and
    W- f; c+ is the first, c- is i times the second, and the minus branch
    swaps them."""
    h = (x_grid[-1] - x_grid[0]) / (x_grid.size - 1)
    dp = min(np.pi / max(np.max(np.abs(x_grid)), h), profile.p_max / 400.0)
    n_half = int(np.ceil(profile.p_max / dp))
    p = dp * np.arange(-n_half, n_half + 1)
    w_trap = np.full(p.size, dp)
    w_trap[0] = w_trap[-1] = dp / 2.0
    values = np.stack(spinor_weights(p), axis=1) \
        * (w_trap * profile(p) / np.sqrt(2.0 * np.pi))[:, None]
    out = np.empty((x_grid.size, 2), dtype=complex)
    block = max(1, int(4e6) // p.size)
    for lo in range(0, x_grid.size, block):
        chunk = x_grid[lo: lo + block]
        out[lo: lo + block] = np.exp(1j * np.outer(chunk, p)) @ values
    return out[:, 0], out[:, 1]


def quad_norm(profile):
    """L2 norm of a profile over [-p_max, p_max], by adaptive quadrature."""
    norm_sq, _ = integrate.quad(lambda p: abs(profile(p)) ** 2,
                                -profile.p_max, profile.p_max, limit=200)
    return np.sqrt(norm_sq)


def test_gaussian_profile_normalized():
    for nu in (0.5, 1.0, 2.5, 50.0):
        prof = gaussian_profile(nu)
        assert abs(quad_norm(prof) - 1.0) < 1e-10


def test_gaussian_profile_peak_value():
    assert gaussian_profile(1.0)(0.0) == pytest.approx(np.pi ** -0.25, rel=1e-14)


def test_gaussian_profile_tail_mass():
    from scipy.special import erfc
    for nu in (1.0, 2.5, 50.0):
        prof = gaussian_profile(nu)
        assert erfc(prof.p_max / nu) < 1e-12


@pytest.mark.parametrize("nu", [0.0, -1.0, np.nan, 1e200, 1e-200])
def test_gaussian_profile_rejects_bad_nu(nu):
    with pytest.raises(ValueError):
        gaussian_profile(nu)


def test_mean_energy_rest_limit():
    # sharply concentrated at p = 0: E0 -> E(0) = 1
    assert gaussian_profile(0.05).mean(energy) == pytest.approx(1.0, abs=1e-3)


def test_mean_energy_against_trapezoid_oracle():
    prof = gaussian_profile(1.0)
    p = np.linspace(-prof.p_max, prof.p_max, 40001)
    oracle = np.trapezoid(energy(p) * np.abs(prof(p)) ** 2, p)
    assert prof.mean(energy) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("nu", [0.01, 0.3, 2.5, 600.0, 3e4])
def test_mean_energy_matches_mpmath(nu):
    prof = gaussian_profile(nu)
    with mpmath.workdps(30):
        nu_mp = mpmath.mpf(nu)
        want = mpmath.quad(
            lambda p: mpmath.sqrt(1 + p * p) * mpmath.exp(-(p / nu_mp) ** 2)
            / (nu_mp * mpmath.sqrt(mpmath.pi)),
            [-prof.p_max] + [k * nu_mp for k in (-4, -2, -1, 0, 1, 2, 4)]
            + [prof.p_max])
    assert prof.mean(energy) == pytest.approx(float(want), rel=1e-14)


def test_profile_mean_refuses_an_unresolved_profile():
    # a spike on one point of the rule that the rule at twice the step
    # skips: the two disagree by far more than TOL.quadrature_rel
    spike_at = np.sinh(np.arcsinh(10.0) / 80.0)
    spike = MomentumProfile(f=lambda p: np.exp(-((p - spike_at) / 1e-6) ** 2),
                            p_max=10.0)
    with pytest.raises(NumericalHealthError, match="quadrature"):
        spike.mean(np.ones_like)


def test_mean_energy_monotone_in_nu():
    e = [gaussian_profile(nu).mean(energy) for nu in (1.0, 2.0, 4.0)]
    assert 1.0 < e[0] < e[1] < e[2]


@pytest.fixture(scope="module")
def coeffs_nu2():
    cfg = WalkInitConfig(nu=2.0, dt=0.02)
    grid = fiber_grid(cfg, 36.0)
    return position_coefficients(gaussian_profile(2.0), grid)


def test_coefficients_combined_norm(coeffs_nu2):
    assert abs(coeffs_nu2.norm_sq() - 1.0) < 1e-8


def test_coefficients_hermitian_symmetry(coeffs_nu2):
    # real symmetric profile: c+(-x) = conj(c+(x)), c-(-x) = -conj(c-(x))
    cp, cm = coeffs_nu2.c_plus, coeffs_nu2.c_minus
    assert np.abs(cp[::-1] - np.conj(cp)).max() < 1e-12
    assert np.abs(cm[::-1] + np.conj(cm)).max() < 1e-12


def test_coefficients_half_norm_split_large_nu():
    # spin weights satisfy W+^2 - W-^2 = p/E (odd), so each component
    # carries exactly half the norm for any even profile
    prof = gaussian_profile(50.0)
    h = 0.99 * np.pi / prof.p_max
    n = int(np.ceil(40.0 / h))
    co = position_coefficients(prof, h * np.arange(-n, n + 1))
    up = float(np.sum(np.abs(co.c_plus) ** 2) * co.h)
    dn = float(np.sum(np.abs(co.c_minus) ** 2) * co.h)
    assert up == pytest.approx(0.5, abs=0.01)
    assert dn == pytest.approx(0.5, abs=0.01)


def test_branch_swap_exchanges_weights():
    cfg = WalkInitConfig(nu=1.5, dt=0.05)
    grid = fiber_grid(cfg, 38.0)
    prof = gaussian_profile(1.5)
    plus = position_coefficients(prof, grid, branch="plus")
    minus = position_coefficients(prof, grid, branch="minus")
    # minus branch uses the swapped spin weights: c+^- = -i c-^+, c-^- = i c+^+
    assert np.abs(minus.c_plus - (-1j) * plus.c_minus).max() < 1e-13
    assert np.abs(minus.c_minus - 1j * plus.c_plus).max() < 1e-13


def test_aliasing_rejected():
    prof = gaussian_profile(2.5)
    too_coarse = (np.pi / prof.p_max) * 2.0
    grid = too_coarse * np.arange(-100, 101)
    with pytest.raises(NumericalHealthError, match="alias"):
        position_coefficients(prof, grid)


def test_discretize_constant_two_sites():
    cfg = WalkInitConfig(nu=1.0, dt=0.5)
    coeffs = PositionAmplitudes(
        x=np.array([0.0, 0.5]),
        c_plus=np.array([0.7, 0.7], dtype=complex),
        c_minus=np.zeros(2, dtype=complex),
    )
    state = discretize_to_lattice(coeffs, cfg)
    assert np.allclose(np.abs(state.a_plus), 1 / np.sqrt(2), atol=1e-15)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_discretize_rejects_spacing_mismatch():
    cfg = WalkInitConfig(nu=1.0, dt=0.25)
    coeffs = PositionAmplitudes(
        x=np.array([0.0, 0.5]),
        c_plus=np.ones(2, dtype=complex),
        c_minus=np.zeros(2, dtype=complex),
    )
    with pytest.raises(ValueError, match="spacing"):
        discretize_to_lattice(coeffs, cfg)


def test_discretize_rejects_empty_window():
    cfg = WalkInitConfig(nu=1.0, dt=0.5)
    coeffs = PositionAmplitudes(
        x=np.array([0.0, 0.5]),
        c_plus=np.zeros(2, dtype=complex),
        c_minus=np.zeros(2, dtype=complex),
    )
    with pytest.raises(ValueError, match="empty"):
        discretize_to_lattice(coeffs, cfg)


def test_built_state_unit_norm():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.01))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_raw_lattice_norm_converges_quadratically():
    # the sqrt(dt) sampling is only asymptotically normalized; for these
    # analytic coefficients the lattice Riemann sum actually converges
    # spectrally, so the quadratic bound holds with huge slack
    prof = gaussian_profile(2.0)
    for dt in (0.04, 0.02, 0.01):
        cfg = WalkInitConfig(nu=2.0, dt=dt)
        grid = fiber_grid(cfg, 36.0)
        co = position_coefficients(prof, grid)
        raw = float(np.sum(np.abs(co.c_plus) ** 2
                           + np.abs(co.c_minus) ** 2) * dt)
        assert abs(raw - 1.0) < 0.25 * dt ** 2


def test_normalization_chain():
    # profile norm 1 -> coefficient norm 1 (1e-8) -> lattice norm exact
    prof = gaussian_profile(1.2)
    assert abs(quad_norm(prof) - 1.0) < 1e-10
    cfg = WalkInitConfig(nu=1.2, dt=0.02)
    state = build_initial_state(cfg, profile=prof)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_parseval_consistency(coeffs_nu2):
    prof = gaussian_profile(2.0)
    mom, _ = integrate.quad(lambda p: abs(prof(p)) ** 2,
                            -prof.p_max, prof.p_max, limit=200)
    assert coeffs_nu2.norm_sq() == pytest.approx(mom, abs=1e-8)


def test_walk_init_config_validation():
    with pytest.raises(ValueError):
        WalkInitConfig(nu=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=0.0)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=0.1, x0=0.2)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=0.1, x0=-0.05)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=0.1, branch="sideways")
    # x0 in (-dt/2, dt/2], exact even where dt/2 underflows to 0
    WalkInitConfig(nu=1.0, dt=0.1, x0=0.05)
    WalkInitConfig(nu=1.0, dt=5e-324)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=5e-324, x0=5e-324)


def test_mean_energy_warning_regime():
    with pytest.warns(UserWarning, match="dt\\*E0"):
        build_initial_state(WalkInitConfig(nu=2.0, dt=0.2))


@pytest.mark.parametrize("x0_frac", [0.0, 0.3, -0.2, 0.5])
@pytest.mark.parametrize("nu,dt", [(1.0, 0.02), (2.5, 0.01), (1.5, 0.05),
                                   (10.0, 0.004)])
def test_fft_coefficients_match_direct_sum(nu, dt, x0_frac):
    cfg = WalkInitConfig(nu=nu, dt=dt, x0=x0_frac * dt)
    prof = gaussian_profile(nu)
    grid = fiber_grid(cfg, 36.0)
    s_up, s_dn = direct_sum_coefficients(prof, grid)
    peak = np.max(np.maximum(np.abs(s_up), np.abs(s_dn)))
    for branch, want_plus, want_minus in (("plus", s_up, 1j * s_dn),
                                          ("minus", s_dn, 1j * s_up)):
        co = position_coefficients(prof, grid, branch=branch)
        assert np.abs(co.c_plus - want_plus).max() < 1e-13 * peak
        assert np.abs(co.c_minus - want_minus).max() < 1e-13 * peak


def test_large_cutoff_window_set_by_the_tail():
    state = build_initial_state(WalkInitConfig(nu=10.0, dt=0.002))
    assert state.n_sites < 30000


def test_sharp_packet_meets_coefficient_norm_budget():
    # the build raises unless the coefficient norm is within TOL.coeff_norm
    state = build_initial_state(WalkInitConfig(nu=50.0, dt=0.0005))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 2.5, 10.0, 50.0])
def test_window_symmetric_and_not_cut_by_the_grid(nu):
    cfg = WalkInitConfig(nu=nu, dt=min(0.05, 0.1 / nu))
    state = build_initial_state(cfg)
    m_max = state.m_min + state.n_sites - 1
    assert state.m_min == -m_max
    # the sites just outside, on a grid 10 length units wider, are below the
    # threshold up to the transform's rounding, 1e-16 of the peak: that is
    # 1% of the threshold, more than the tail falls per site at small dt
    wide = position_coefficients(gaussian_profile(nu),
                                 fiber_grid(cfg, m_max * cfg.dt + 10.0))
    mag = np.maximum(np.abs(wide.c_plus), np.abs(wide.c_minus))
    sites = np.round(wide.x / cfg.dt).astype(int)
    outside = mag[np.isin(sites, (-m_max - 1, m_max + 1))]
    assert outside.size == 2
    assert np.all(outside < (TOL.window_rel + 1e-16) * mag.max())


def test_norm_check_is_on_the_build_only(monkeypatch):
    # a negative budget fails every norm check that runs: the build's
    # postcondition, not the bare quadrature on the same fiber grid
    monkeypatch.setattr(initial, "TOL", Tolerances(coeff_norm=-1.0))
    cfg = WalkInitConfig(nu=2.0, dt=0.05)
    with pytest.raises(NumericalHealthError, match="norm"):
        build_initial_state(cfg)
    grid = fiber_grid(cfg, require_initial_state_fits(cfg))
    co = position_coefficients(gaussian_profile(cfg.nu), grid)
    assert co.norm_sq() == pytest.approx(1.0, abs=TOL.coeff_norm)
