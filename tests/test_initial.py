import mpmath
import numpy as np
import pytest
from scipy import integrate

from diracwalk import (TOL, NumericalHealthError, Tolerances,
                       WalkInitConfig, build_initial_state, energy,
                       gaussian_profile, initial, position_coefficients,
                       spinor_weights)
from diracwalk.constants import MAX_RING_SITES
from diracwalk.initial import MomentumProfile, require_initial_state_fits
from diracwalk.spectral import ring_length
from oracles import hstack_position_coefficients


def direct_sum_coefficients(profile, dt, m_max):
    """Oracle for position_coefficients: the trapezoid rule on the momenta
    p = 2 pi k/(n dt) of the window's ring, n = ring_length(2 m_max + 1),
    skipping those where f is 0, summed directly at every site x = m*dt,
    m = 0..m_max, in blocks, O(n_p * n_x), with each exp(i p x) =
    exp(2 pi i (k m mod n)/n) read from a table; the weights are real, so
    site -m is the conjugate of site m.  Returns the plus-branch sums of
    W+ f and W- f at m = -m_max..m_max; c+ is the first, c- is i times
    the second, and the minus branch swaps the weights."""
    n_ring = ring_length(2 * m_max + 1)
    k = np.fft.fftfreq(n_ring, d=1.0 / n_ring).astype(np.int64)
    p = 2.0 * np.pi * k / (n_ring * dt)
    keep = profile(p) != 0.0
    k, p = k[keep], p[keep]
    dp = 2.0 * np.pi / (n_ring * dt)
    values = np.stack(spinor_weights(p), axis=1) \
        * (dp * profile(p) / np.sqrt(2.0 * np.pi))[:, None]
    turns = np.exp(2j * np.pi * np.arange(n_ring) / n_ring)
    sites = np.arange(m_max + 1)
    out = np.empty((sites.size, 2), dtype=complex)
    block = max(1, int(4e6) // p.size)
    for lo in range(0, sites.size, block):
        phase = np.outer(sites[lo: lo + block], k) % n_ring
        out[lo: lo + block] = turns[phase] @ values
    out = np.concatenate([np.conj(out[:0:-1]), out])
    return out[:, 0], out[:, 1]


def sites_for(dt, extent):
    """m_max of the site window covering |x| <= extent, as the build
    sizes it."""
    return max(int(np.ceil(extent / dt)), 1)


def both(c_plus):
    """(c+, c-) from c+: c-(x) = i c+(-x)."""
    return c_plus, 1j * c_plus[::-1]


def coeff_norm_sq(c_plus, dt):
    """sum(|c+|^2 + |c-|^2) dt, twice the weight of c+."""
    return 2.0 * float(np.sum(np.abs(c_plus) ** 2) * dt)


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
    return position_coefficients(gaussian_profile(2.0), 0.02,
                                 sites_for(0.02, 36.0))


def test_coefficients_combined_norm(coeffs_nu2):
    assert abs(coeff_norm_sq(coeffs_nu2, 0.02) - 1.0) < 1e-8


def test_coefficients_hermitian_symmetry():
    # real symmetric profile: c+(-x) = conj(c+(x)), c-(-x) = -conj(c-(x)),
    # exactly, since the weights go through the real-input transform
    for nu, dt in ((2.0, 0.02), (10.0, 0.002), (1.0, 0.05)):
        m_max = sites_for(dt, require_initial_state_fits(
            WalkInitConfig(nu=nu, dt=dt)))
        plus = both(position_coefficients(gaussian_profile(nu), dt, m_max))
        # the "minus" coefficients are the site mirror of the "plus" ones
        for cp, cm in (plus, (plus[0][::-1], plus[1][::-1])):
            assert np.array_equal(cp[::-1], np.conj(cp))
            assert np.array_equal(cm[::-1], -np.conj(cm))


def test_coefficients_half_norm_split_large_nu():
    # spin weights satisfy W+^2 - W-^2 = p/E (odd), so each component
    # carries exactly half the norm for any even profile; c- from its own
    # transform of W- f (the oracle's), c+ the package's
    prof = gaussian_profile(50.0)
    h = 0.99 * np.pi / prof.p_max
    cp = position_coefficients(prof, h, sites_for(h, 40.0))
    _, cm = hstack_position_coefficients(prof, h, sites_for(h, 40.0))
    up = float(np.sum(np.abs(cp) ** 2) * h)
    dn = float(np.sum(np.abs(cm) ** 2) * h)
    assert up == pytest.approx(0.5, abs=0.01)
    assert dn == pytest.approx(0.5, abs=0.01)


def test_branch_swap_exchanges_weights():
    prof = gaussian_profile(1.5)
    m_max = sites_for(0.05, 38.0)
    plus = hstack_position_coefficients(prof, 0.05, m_max)
    minus = plus[0][::-1], plus[1][::-1]
    # the site mirror of the plus coefficients, each from its own
    # transform, has the swapped spin weights of the minus branch: c+^- =
    # -i c-^+, c-^- = i c+^+ (the sigma2 parity c-(x) = i c+(-x))
    assert np.abs(minus[0] - (-1j) * plus[1]).max() < 1e-13
    assert np.abs(minus[1] - 1j * plus[0]).max() < 1e-13


def test_aliasing_rejected():
    prof = gaussian_profile(2.5)
    too_coarse = (np.pi / prof.p_max) * 2.0
    with pytest.raises(NumericalHealthError, match="alias"):
        position_coefficients(prof, too_coarse, 100)


def test_build_rejects_empty_window(monkeypatch):
    zero = MomentumProfile(f=np.zeros_like, p_max=10.0)
    monkeypatch.setattr(initial, "gaussian_profile", lambda nu: zero)
    with pytest.raises(ValueError, match="empty"):
        build_initial_state(WalkInitConfig(nu=1.0, dt=0.1))


def test_built_state_unit_norm():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.01))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_raw_lattice_norm_converges_quadratically():
    # the sqrt(dt) sampling is only asymptotically normalized; for these
    # analytic coefficients the lattice Riemann sum actually converges
    # spectrally, so the quadratic bound holds with huge slack
    prof = gaussian_profile(2.0)
    for dt in (0.04, 0.02, 0.01):
        co = position_coefficients(prof, dt, sites_for(dt, 36.0))
        assert abs(coeff_norm_sq(co, dt) - 1.0) < 0.25 * dt ** 2


def test_normalization_chain():
    # profile norm 1 -> coefficient norm 1 (1e-8) -> lattice norm exact
    prof = gaussian_profile(1.2)
    assert abs(quad_norm(prof) - 1.0) < 1e-10
    state = build_initial_state(WalkInitConfig(nu=1.2, dt=0.02))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_parseval_consistency(coeffs_nu2):
    prof = gaussian_profile(2.0)
    mom, _ = integrate.quad(lambda p: abs(prof(p)) ** 2,
                            -prof.p_max, prof.p_max, limit=200)
    assert coeff_norm_sq(coeffs_nu2, 0.02) == pytest.approx(mom, abs=1e-8)


def test_walk_init_config_validation():
    with pytest.raises(ValueError):
        WalkInitConfig(nu=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        WalkInitConfig(nu=1.0, dt=0.0)
    WalkInitConfig(nu=1.0, dt=5e-324)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["nu", "dt"])
def test_walk_init_config_refuses_nonfinite(name, bad):
    # refused where the config is made, before build_initial_state sizes
    # anything from it
    values = {"nu": 1.0, "dt": 0.1, name: bad}
    with pytest.raises(ValueError,
                       match=rf"^{name} must be a number in \(0, inf\)"):
        WalkInitConfig(**values)


def test_mean_energy_warning_regime():
    with pytest.warns(UserWarning, match="dt\\*E0"):
        build_initial_state(WalkInitConfig(nu=2.0, dt=0.2))


@pytest.mark.parametrize("nu,dt", [(1.0, 0.02), (2.5, 0.01), (1.5, 0.05),
                                   (10.0, 0.004)])
def test_fft_coefficients_match_direct_sum(nu, dt):
    prof = gaussian_profile(nu)
    m_max = sites_for(dt, 36.0)
    s_up, s_dn = direct_sum_coefficients(prof, dt, m_max)
    peak = np.max(np.maximum(np.abs(s_up), np.abs(s_dn)))
    plus = both(position_coefficients(prof, dt, m_max))
    # "minus" is the mirrored "plus" pair, against the swapped weights;
    # measured 6.7e-16 to 1.2e-15 of the peak on X86_V4 and X86_V3
    for (c_plus, c_minus), want_plus, want_minus in (
            (plus, s_up, 1j * s_dn),
            ((plus[0][::-1], plus[1][::-1]), s_dn, 1j * s_up)):
        assert np.abs(c_plus - want_plus).max() < 1e-14 * peak
        assert np.abs(c_minus - want_minus).max() < 1e-14 * peak


@pytest.mark.parametrize("nu, dt", [(0.5, 0.05), (1.0, 0.02), (2.5, 0.005),
                                    (10.0, 0.002), (2.5, 0.159)])
def test_coefficients_match_a_finer_rule(nu, dt):
    # the rule on the window's own ring, over the whole integrand, against
    # the same rule on a ring 8x longer, with 8x finer dp: measured 1.9e-16
    # to 4.5e-16 of the peak; zeroing f beyond p_max left 2.8e-15 to
    # 5.7e-15 (the trapezoid rule converges geometrically here, so the
    # cut, not dp, set the error); dt 0.159 is just below pi/p_max
    prof = gaussian_profile(nu)
    m_max = sites_for(dt, require_initial_state_fits(
        WalkInitConfig(nu=nu, dt=dt)))
    got = position_coefficients(prof, dt, m_max)
    want, _ = hstack_position_coefficients(
        prof, dt, m_max, n_ring=8 * ring_length(2 * m_max + 1))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("nu, dt", [(1.0, 0.02), (1.0, 0.01), (1.0, 0.005),
                                    (2.5, 0.005), (10.0, 0.002)])
def test_coefficients_read_the_half_spectrum_bit_for_bit(nu, dt):
    # the sites come straight from the real-input transform, as from the
    # whole Hermitian ring it completes, on the build's site window
    cfg = WalkInitConfig(nu=nu, dt=dt)
    m_max = sites_for(dt, require_initial_state_fits(cfg))
    prof = gaussian_profile(nu)
    got = position_coefficients(prof, dt, m_max)
    want, _ = hstack_position_coefficients(prof, dt, m_max)
    assert got.tobytes() == want.tobytes()


class _Stopped(Exception):
    """Raised in place of the coefficients' first allocation."""


@pytest.mark.filterwarnings("ignore:dt\\*E0")
def test_preflight_sizes_the_ring_the_coefficients_allocate(monkeypatch):
    # every ring the module sizes: the build's preflight first, then
    # position_coefficients', stopped there before it allocates anything.
    # The last window, 4,194,301 sites, is 3 below MAX_RING_SITES; one
    # site pair more and both refuse the same ring
    asked = []

    def recorded(n_sites):
        asked.append(ring_length(n_sites))
        if len(asked) == 2:
            raise _Stopped
        return asked[-1]

    monkeypatch.setattr(initial, "ring_length", recorded)
    extent = require_initial_state_fits(WalkInitConfig(nu=1.0, dt=0.02))
    asked.clear()
    for nu, dt in ((1.0, 0.02), (2.5, 0.005), (10.0, 0.002), (0.05, 0.05),
                   (50.0, 0.99 * np.pi / gaussian_profile(50.0).p_max),
                   (1.0, extent / 2_097_149.5)):
        with pytest.raises(_Stopped):
            build_initial_state(WalkInitConfig(nu=nu, dt=dt))
        assert asked[0] == asked[1], (nu, dt, asked)
        asked.clear()
    assert ring_length(2 * 2_097_150 + 1) == MAX_RING_SITES
    dt = extent / 2_097_151.5
    message = "ring of 4194305 sites"
    with pytest.raises(ValueError, match=message):
        require_initial_state_fits(WalkInitConfig(nu=1.0, dt=dt))
    with pytest.raises(ValueError, match=message):
        position_coefficients(gaussian_profile(1.0), dt, sites_for(dt, extent))


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
    # the sites just outside, on a window 10 length units wider, are below
    # the threshold up to the transform's rounding, 1e-16 of the peak: that
    # is 1% of the threshold, more than the tail falls per site at small dt
    m_wide = sites_for(cfg.dt, m_max * cfg.dt + 10.0)
    wide = position_coefficients(gaussian_profile(nu), cfg.dt, m_wide)
    mag = np.maximum(np.abs(wide), np.abs(wide)[::-1])
    sites = np.arange(-m_wide, m_wide + 1)
    outside = mag[np.isin(sites, (-m_max - 1, m_max + 1))]
    assert outside.size == 2
    assert np.all(outside < (TOL.window_rel + 1e-16) * mag.max())


def test_norm_check_is_on_the_build_only(monkeypatch):
    # a negative budget fails every norm check that runs: the build's
    # postcondition, not the bare quadrature on the same site window
    monkeypatch.setattr(initial, "TOL", Tolerances(coeff_norm=-1.0))
    cfg = WalkInitConfig(nu=2.0, dt=0.05)
    with pytest.raises(NumericalHealthError, match="norm"):
        build_initial_state(cfg)
    m_max = sites_for(cfg.dt, require_initial_state_fits(cfg))
    co = position_coefficients(gaussian_profile(cfg.nu), cfg.dt, m_max)
    assert coeff_norm_sq(co, cfg.dt) == pytest.approx(1.0,
                                                      abs=TOL.coeff_norm)


def test_norm_check_refuses_nan(monkeypatch):
    # the gate passes only a drift <= its budget, so a NaN on either side
    # of the comparison is refused
    monkeypatch.setattr(initial, "TOL", Tolerances(coeff_norm=np.nan))
    with pytest.raises(NumericalHealthError, match="norm"):
        build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
