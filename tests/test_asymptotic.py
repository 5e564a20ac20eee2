import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.fft import next_fast_len
from scipy.optimize import minimize_scalar
from scipy.special import erfc

from diracwalk import (LatticeState, WalkInitConfig,
                       build_initial_state, evolve, horn_location, limit_cdf,
                       limit_cdf_gaussian, limit_density, limit_density_mass,
                       limit_moment, spectral_coefficients)
from diracwalk.spectral import _eigen_weights, ring_length
from diracwalk.walk import position_distribution
from oracles import (TwoRowState, direct_sum_coefficients,
                     gaussian_g_approx, group_velocity,
                     quadrature_mass_below, random_phase_state,
                     random_pi_state, ring_spectral_coefficients,
                     sigma2_completion, symbol_eigenvalues,
                     symbol_eigenvectors, two_band_mass_below, two_row,
                     walk_symbol_matrix)


# ---------------------------------------------------------------- symbol

def test_symbol_eigenvalues_at_phi_zero():
    lam_plus, lam_minus = symbol_eigenvalues(0.0, 0.3)
    assert lam_plus == pytest.approx(np.exp(0.3j), abs=1e-14)
    assert lam_minus == pytest.approx(np.exp(-0.3j), abs=1e-14)


def test_symbol_eigenvalues_at_phi_half_pi():
    lam_plus, lam_minus = symbol_eigenvalues(np.pi / 2, 0.7)
    assert lam_plus == pytest.approx(1j, abs=1e-14)
    assert lam_minus == pytest.approx(-1j, abs=1e-14)


def test_symbol_characteristic_polynomial_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        phi = rng.uniform(-np.pi, np.pi)
        dt = rng.uniform(0.01, 2.5)
        lam_plus, lam_minus = symbol_eigenvalues(phi, dt)
        mat = walk_symbol_matrix(phi, dt)
        for lam in (lam_plus, lam_minus):
            assert abs(np.linalg.det(mat - lam * np.eye(2))) < 1e-12


def test_symbol_eigenvectors():
    rng = np.random.default_rng(10)
    for _ in range(40):
        phi = rng.uniform(-np.pi, np.pi)
        dt = rng.uniform(0.01, 2.5)
        lam_plus, lam_minus = symbol_eigenvalues(phi, dt)
        f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(phi, dt)
        v_plus, v_minus = np.array([f_pp, f_pm]), np.array([f_mp, f_mm])
        mat = walk_symbol_matrix(phi, dt)
        assert np.abs(mat @ v_plus - lam_plus * v_plus).max() < 1e-12
        assert np.abs(mat @ v_minus - lam_minus * v_minus).max() < 1e-12
        assert abs(np.vdot(v_plus, v_minus)) < 1e-13
        assert abs(np.linalg.norm(v_plus) - 1.0) < 1e-13
        # phase fixing: first component real positive
        assert v_plus[0].imag == 0.0 and v_plus[0].real > 0.0


def test_symbol_unit_modulus_on_grid():
    phi = np.linspace(-np.pi, np.pi, 4001)
    lam_p, lam_m = symbol_eigenvalues(phi, 0.05)
    assert np.abs(np.abs(lam_p) - 1.0).max() < 1e-13
    assert np.abs(np.abs(lam_m) - 1.0).max() < 1e-13


def test_symbol_rejects_degenerate_dt():
    # 0 and pi, and a dt whose sin^2 underflows: sin(theta) at phi = 0
    # would be 0
    for dt in (0.0, np.pi, 1e-300, -0.5, np.nan):
        with pytest.raises(ValueError):
            _eigen_weights(0.3, dt)
        with pytest.raises(ValueError):
            group_velocity(np.array([0.0, 1e-3]), dt)
    # within 1e-8 of 0 and pi |cos dt| rounds to 1, but sin(theta) =
    # sqrt(sin^2 dt + t^2) >= sin dt > 0 keeps the weights, h and the law
    # finite
    phi = np.array([0.0, 1e-3, np.pi / 2, np.pi])
    for dt in (1e-9, 1e-8, np.pi - 1e-8, np.pi - 1e-9):
        assert np.all(np.isfinite(_eigen_weights(phi, dt)))
        assert np.all(np.isfinite(group_velocity(phi, dt)))
        assert_small_dt_law_matches_oracle(dt, 256)


# -------------------------------------------------------- group velocity

def test_group_velocity_special_points():
    assert group_velocity(0.0, 0.4) == 0.0
    assert group_velocity(np.pi / 2, 0.4) == pytest.approx(np.cos(0.4),
                                                           abs=1e-14)


def test_group_velocity_bound_and_parity():
    dt = 0.2
    phi = np.linspace(-np.pi, np.pi, 20001)
    h = group_velocity(phi, dt)
    assert np.abs(h).max() <= np.cos(dt) + 1e-14
    assert abs(np.abs(h).max() - np.cos(dt)) < 1e-10
    assert np.abs(h + group_velocity(-phi, dt)).max() == 0.0


def test_group_velocity_differential_oracle():
    # h = -i lam'/lam via central differences on the closed-form eigenvalue
    dt = 0.35
    for phi in (0.3, 1.1, -2.0):
        eps = 1e-6
        lp = symbol_eigenvalues(phi + eps, dt)[0]
        lm = symbol_eigenvalues(phi - eps, dt)[0]
        lam = symbol_eigenvalues(phi, dt)[0]
        oracle = (-1j * (lp - lm) / (2 * eps) / lam).real
        assert group_velocity(phi, dt) == pytest.approx(oracle, abs=1e-8)


def test_group_velocity_keeps_its_digits_near_phi_zero():
    # 1 - cos^2(dt) cos^2(phi) cancels near phi = 0 at small dt; oracle:
    # that closed form in 40 digits
    rng = np.random.default_rng(41)
    with mpmath.workdps(40):
        for dt in (1e-3, 5e-3):
            phi = np.concatenate((rng.uniform(1e-5, 2e-3, 200),
                                  rng.uniform(-np.pi, np.pi, 8)))
            c = mpmath.cos(dt)
            for p, h in zip(phi, group_velocity(phi, dt)):
                want = mpmath.sin(p) * c \
                    / mpmath.sqrt(1 - (c * mpmath.cos(p)) ** 2)
                assert abs(h - want) <= 1e-15 * abs(want), (dt, p)


# ------------------------------------------------- spectral coefficients

def band_weights(g_plus, g_minus, dt):
    """|g+-|^2 dt/(2 pi), rows + and -: the weights of an oracle's g+-."""
    return np.stack((np.abs(g_plus) ** 2, np.abs(g_minus) ** 2)) \
        * (dt / (2.0 * np.pi))


def test_single_site_spectral_coefficients():
    # a+ = 1/sqrt(2) and a- = i/sqrt(2), both at site 0; the weights peak
    # at 1/(2 pi), and both bounds are measured 1.1e-16
    dt = 0.25
    state = one_site_state()
    co = spectral_coefficients(state, n_phi=256)
    assert co.weights.shape == (2, 129)
    # on the fold: column k holds the weights at +-phi[k]
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(co.phi[:129], dt)
    scale = np.sqrt(0.5 / dt)
    want = band_weights((np.conj(f_pp) + 1j * np.conj(f_pm)) * scale,
                        (np.conj(f_mp) + 1j * np.conj(f_mm)) * scale, dt)
    assert np.abs(co.weights - want).max() <= 1e-15
    # eigenvector completeness makes the band split sum to a constant
    total = co.weights.sum(axis=0)
    assert np.abs(total - 1.0 / (2.0 * np.pi)).max() <= 1e-15


def random_state(n_sites=200, dt=0.05, seed=15):
    """A unit-norm package state with a flat spectrum: the a+ row of a
    two-row draw on n_sites sites, centred, a- its sigma2 parity image
    (``sigma2_completion``)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, n_sites)) + 1j * rng.normal(size=(2, n_sites))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    return sigma2_completion(TwoRowState(dt=dt, m_min=0, a_plus=z[0],
                                         a_minus=z[1]))


def phase_state(dt, seed):
    """The a+ row of an 8-site two-row state of random moduli and phases,
    centred on 9 sites, a- its sigma2 parity image."""
    return sigma2_completion(random_phase_state(8, -3, dt, seed))


def pi_state(m_max=100, dt=0.05, seed=15):
    """A unit-norm package state with a flat spectrum: a+ on the sites
    -m_max..m_max, a- its sigma2 parity image."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
    z /= np.sqrt(2.0 * np.sum(np.abs(z) ** 2))
    return LatticeState(dt=dt, a_plus=z)


def oracle_weights(state, n_phi):
    """The band weights of the ring oracle on the whole ring of n_phi
    points, in ring order: every phi, not the fold."""
    return band_weights(*ring_spectral_coefficients(state, n_phi), state.dt)


@pytest.mark.parametrize("n_phi", [512, 513])
def test_spectral_coefficients_match_direct_sum(n_phi):
    state = pi_state()
    co = spectral_coefficients(state, n_phi=n_phi)
    # one period on a uniform grid, in ring order
    assert co.phi.tobytes() == ring_phi(n_phi).tobytes()
    assert np.all(np.diff(np.fft.fftshift(co.phi)) > 0)
    assert co.phi.max() - co.phi.min() == pytest.approx(2 * np.pi - co.dphi,
                                                        abs=1e-12)
    # oracle: A(phi) = sum_m a[m] e^{i m phi}, site by site
    kernel = np.exp(1j * np.outer(co.phi, state.sites))
    both = two_row(state)
    a_plus, a_minus = kernel @ both.a_plus, kernel @ both.a_minus
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(co.phi, state.dt)
    root_dt = np.sqrt(state.dt)
    # measured 9.4e-15 and 1.1e-14 of the peak
    assert_weights_close(co, band_weights(
        (np.conj(f_pp) * a_plus + np.conj(f_pm) * a_minus) / root_dt,
        (np.conj(f_mp) * a_plus + np.conj(f_mm) * a_minus) / root_dt,
        state.dt), rel=5e-14)


def ring_phi(n_phi):
    """The quasi-momenta of ``spectral_coefficients`` in ring order."""
    return 2.0 * np.pi * np.fft.fftfreq(n_phi)


def assert_weights_close(co, want, rel):
    """The fold against an oracle's weights on modes 0..n_phi // 2."""
    want = want[:, :co.weights.shape[1]]
    assert np.abs(co.weights - want).max() <= rel * want.max()


def limit_law_state():
    """The benchmark's limit-law state: nu 2.5, dt 0.005 (91,476 phi)."""
    return build_initial_state(WalkInitConfig(nu=2.5, dt=0.005))


@pytest.mark.parametrize("state, n_phi", [(pi_state(), 512),
                                          (pi_state(), 513),
                                          (limit_law_state(), None)])
def test_spectral_coefficients_match_ring_oracle(state, n_phi):
    # measured 6.2e-16, 1.0e-15 and 7.9e-16 of the peak
    co = spectral_coefficients(state, n_phi=n_phi)
    assert co.phi.tobytes() == ring_phi(co.phi.size).tobytes()
    assert_weights_close(co, oracle_weights(state, co.phi.size), rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 150), st.data())
def test_spectral_coefficients_match_direct_sum_on_any_state(m_max, data):
    # grids from one point per site to four, odd and even; the sites
    # m < 0 wrap around the ring (measured at most 6.3e-15 of the peak
    # over 1,500 draws)
    n_sites = 2 * m_max + 1
    n_phi = data.draw(st.integers(max(n_sites, 2), 4 * n_sites), "n_phi")
    dt = data.draw(st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
                   "dt")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    amp = rng.uniform(0.0, 1.0, n_sites) \
        * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_sites))
    amp[m_max] += 0.5  # never all zero
    state = LatticeState(dt=dt, a_plus=amp / np.sqrt(
        2.0 * np.sum(np.abs(amp) ** 2)))
    co = spectral_coefficients(state, n_phi=n_phi)
    assert co.phi.tobytes() == ring_phi(n_phi).tobytes()
    assert_weights_close(co, band_weights(
        *direct_sum_coefficients(state, n_phi), dt), rel=5e-14)


def one_site_state():
    return LatticeState(dt=0.25, a_plus=np.array([np.sqrt(0.5) + 0j]))


@pytest.mark.parametrize("n_phi", [1, True, 512.9, 0, -4, "512"])
def test_spectral_coefficients_refuse_bad_n_phi(n_phi):
    with pytest.raises(ValueError, match="n_phi"):
        spectral_coefficients(one_site_state(), n_phi=n_phi)


def test_spectral_coefficients_smallest_and_default_grid():
    state = one_site_state()
    assert spectral_coefficients(state).phi.size == 4096
    co = spectral_coefficients(state, n_phi=np.int64(2))
    # the Nyquist node of an even ring is labelled -pi
    assert co.phi.tolist() == [0.0, -np.pi]


def test_spectral_coefficients_memory_per_phi_point():
    # traced peak of one call, over its n_phi: the ring of a+ is 16 B of
    # it; on modes 0..n_phi // 2, the eigenvector weights (8 B), the
    # pair's b (8 B), the mirrored modes (8 B) and the kernel's two complex
    # temporaries (16 B), the rest; the band weights on the fold (8 B)
    # come once the pair is gone, and phi (8 B) once the ring is (measured
    # 56.01)
    state = limit_law_state()
    spectral_coefficients(state)  # FFT plans and caches built outside
    tracemalloc.start()
    try:
        co = spectral_coefficients(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert co.phi.size == 91476
    assert peak / co.phi.size <= 56.1


def test_mass_table_memory_per_phi_point():
    # traced peak of the first mass_below call, over its n_phi: the table
    # it keeps (G of the summed weight, one row, formed in place from the
    # weights) is 8 B of it; the summed weight's spectrum and the inverse
    # transform's copy of it 16 B (measured 24.75 on both dispatches)
    co = spectral_coefficients(limit_law_state())
    replace(co).mass_below(0.3)  # FFT plans built outside
    tracemalloc.start()
    try:
        co.mass_below(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert co.phi.size == 91476
    assert peak / co.phi.size <= 24.8


def test_eigen_weights_keep_their_digits_at_small_dt():
    # 1 - cos^2(dt) cos^2(phi) cancels near phi = 0 at small dt; oracle:
    # the eigenvector (s e^{i phi}, c e^{i phi} - lambda+) of the symbol's
    # first row in 40 digits, turned so that its first component is > 0
    rng = np.random.default_rng(31)
    with mpmath.workdps(40):
        for dt in (1e-3, 5e-3, 0.3, 2.0):
            phi = np.concatenate((rng.uniform(-1e-3, 1e-3, 6),
                                  rng.uniform(-np.pi, np.pi, 6), [0.0]))
            alpha, beta = _eigen_weights(phi, dt)
            c, s = mpmath.cos(dt), mpmath.sin(dt)
            for p, a, b in zip(phi, alpha, beta):
                cos_p = c * mpmath.cos(p)
                lam = cos_p + 1j * mpmath.sqrt(1 - cos_p * cos_p)
                v1 = c * mpmath.expj(p) - lam
                norm = mpmath.sqrt(s * s + abs(v1) ** 2)
                # v+ = (alpha, -i e^{-i phi} beta): beta = i v1 / norm
                assert abs(a - s / norm) <= 1e-15, (dt, p)
                assert abs(b - 1j * v1 / norm) <= 1e-15, (dt, p)


@pytest.mark.parametrize("n_phi", [512, 513])
def test_limit_cdf_full_interval_is_completeness(n_phi):
    # the flat spectrum weighs the cell that closes the period as much as
    # any other, on even and odd rings alike
    co = spectral_coefficients(pi_state(), n_phi=n_phi)
    assert limit_cdf(-1.0, 1.0, co) == pytest.approx(co.completeness(),
                                                     abs=1e-12)


def test_completeness_of_gaussian_packet():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    co = spectral_coefficients(state)
    assert co.completeness() == pytest.approx(1.0, abs=1e-8)


def test_spectral_grid_too_coarse_rejected():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    with pytest.raises(ValueError, match="resolve"):
        spectral_coefficients(state, n_phi=state.n_sites // 2)


def test_walk_conserves_each_band_weights():
    # the walk multiplies g+- by lambda+-^n, of modulus 1, forwards and
    # backwards (measured 1.7e-15 and 1.3e-15 of the peak)
    state = build_initial_state(WalkInitConfig(nu=1.5, dt=0.05))
    for n in (40, -40):
        evolved = evolve(state, n)
        n_phi = next_fast_len(8 * evolved.n_sites)
        before = spectral_coefficients(state, n_phi=n_phi)
        assert_weights_close(spectral_coefficients(evolved, n_phi=n_phi),
                             before.weights, rel=1e-14)


def test_band_weights_even_for_gaussian_packet():
    # spectral_coefficients keeps the fold, modes 0..n_phi // 2; the ring
    # oracle, which forms every phi, finds the weights even (measured
    # 1.0e-15 of the peak), so the fold matches it on the other half too
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    co = spectral_coefficients(state)
    n = co.phi.size
    assert co.phi[0] == 0.0 and co.weights.shape == (2, n // 2 + 1)
    # the grid point of phi -> -phi (mod 2 pi), about the point phi = 0
    mirror = -np.arange(n) % n
    w = oracle_weights(state, n)
    assert np.abs(w - w[:, mirror]).max() <= 1e-14 * w.max()
    assert_weights_close(co, w[:, mirror], rel=1e-14)


def test_the_fold_loses_nothing():
    # the ring oracle's band weights on the whole ring are even, w(n - k) =
    # w(k), so modes 0..n // 2 hold all of them: 30 random package states
    # at dt from 1e-7 to 3, on both sides of pi/2, on even and odd grids,
    # and the README packets (measured at most 1.35e-15 and 1.5e-15 of the
    # peak)
    cases = [(random_pi_state(i, dt, i), n)
             for i, dt in enumerate(np.geomspace(1e-7, 3.0, 30))
             for n in (512, 513)]
    for nu, dt in ((1.0, 0.02), (2.5, 0.005), (10.0, 0.002)):
        state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
        cases.append((state, spectral_coefficients(state).phi.size))
    for state, n in cases:
        w = oracle_weights(state, n)
        assert np.abs(w - w[:, -np.arange(n) % n]).max() <= 4e-15 * w.max()


# ------------------------------------------------------------ limit law

def test_limit_cdf_full_interval():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    co = spectral_coefficients(state)
    assert limit_cdf(-1.0, 1.0, co) == pytest.approx(1.0, abs=1e-6)


def test_limit_cdf_degenerate_interval():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    co = spectral_coefficients(state)
    assert limit_cdf(0.37, 0.37, co) == 0.0


def test_limit_cdf_matches_closed_form():
    nu, dt = 2.0, 0.0125
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    co = spectral_coefficients(state)
    rng = np.random.default_rng(12)
    for _ in range(6):
        y1, y2 = np.sort(rng.uniform(-1, 1, 2))
        got = limit_cdf(y1, y2, co)
        want = limit_density_mass(y1, y2, nu)
        assert got == pytest.approx(want, abs=2e-3)


# ------------------------------------- mass_below against the quadrature

def oracle_bounds(coeffs, n_random=10, seed=21):
    """+-1, 0, samples of +-h and random bounds.  +-cos dt is left out:
    dP/dy is infinite there, so an ulp of y, or of the oracle's own h,
    moves P by ~sqrt(ulp)."""
    rng = np.random.default_rng(seed)
    h = group_velocity(coeffs.phi, coeffs.dt)
    picks = h[[0, 1, h.size // 3, h.size // 2]]
    return np.unique(np.concatenate(([-1.0, 0.0, 1.0], picks, -picks,
                                     rng.uniform(-1.0, 1.0, n_random))))


def oracle_error(state, coeffs, ys):
    want = np.array([quadrature_mass_below(state, y)[0] for y in ys])
    return float(np.abs(coeffs.mass_below(ys) - want).max())


# by dt: the errors of the two-row states these bounds were set on, at
# 64 points per site (8.8e-10, 2.6e-9 and 1.3e-8), rounded up; for dt >
# pi/2 h falls in sin phi and the bands swap arcs
ORACLE_BOUND = {0.5: 2e-9, 2.0: 5e-9, 3.0: 3e-8}


@pytest.mark.parametrize("dt", sorted(ORACLE_BOUND))
@pytest.mark.parametrize("n_phi", [512, 513])
def test_mass_below_matches_oracle_on_random_states(n_phi, dt):
    # the draw's a+ row on 9 sites: measured 9.6e-10, 9.7e-10 and 1.3e-9
    # on 512 points, 1.6e-9, 1.2e-9 and 1.7e-9 on 513
    state = phase_state(dt, 15)
    co = spectral_coefficients(state, n_phi=n_phi)
    assert oracle_error(state, co, oracle_bounds(co)) <= ORACLE_BOUND[dt]


@lru_cache(maxsize=None)
def _gaussian_packet_oracle():
    """The nu 1, dt 0.02 packet, the bounds of its default grid and the
    oracle there."""
    state = build_initial_state(WalkInitConfig(nu=1.0, dt=0.02))
    ys = oracle_bounds(spectral_coefficients(state))
    return state, ys, np.array([quadrature_mass_below(state, y)[0]
                                for y in ys])


def test_mass_below_matches_oracle_on_gaussian_packet():
    # measured 1.6e-10 at the default grid, 8 points per site (the linear
    # cell model this route replaced: 5.1e-6)
    state, ys, want = _gaussian_packet_oracle()
    co = spectral_coefficients(state)
    got = co.mass_below(ys)
    assert np.abs(got - want).max() <= 2e-10
    assert limit_cdf(ys[2], ys[-3], co) == pytest.approx(
        want[-3] - want[2], abs=4e-10)


# ------------------------------------- mass_below at a step far above dt

def trig_mass_below(state, y):
    """P(Y <= y) of a package state, exactly: its summed weight w+ + w-
    is the trigonometric polynomial sum_j c_j e^{i j phi} / (2 pi), c the
    autocorrelation of a+ plus that of a-, integrated term by term over
    the arc [-pi - a, a] of ``mass_below`` (dt < pi/2)."""
    both = two_row(state)
    c = sum(np.correlate(row, row, "full")
            for row in (both.a_plus, both.a_minus))
    j = np.arange(c.size) - c.size // 2
    u = min(math.tan(state.dt) * abs(y) / math.sqrt(1.0 - y * y), 1.0) \
        if abs(y) < 1.0 else 1.0
    a = math.copysign(math.asin(u), y)
    jj = np.where(j == 0, 1, j)
    terms = np.where(j == 0, 2 * a + np.pi, (np.exp(1j * j * a)
                     - np.exp(-1j * j * (np.pi + a))) / (1j * jj))
    return float(np.sum(c * terms).real / (2.0 * np.pi))


@pytest.mark.parametrize("nu, dt", [(2.5, 0.005), (10.0, 0.002), (1.0, 0.02),
                                    (1.0, 0.01), (1.0, 0.005)])
def test_mass_below_is_silent_on_the_readme_packets(nu, dt):
    # the default grid takes 0.013-0.014 dt per step
    co = spectral_coefficients(build_initial_state(WalkInitConfig(nu=nu,
                                                                  dt=dt)))
    assert co.dphi < 0.015 * dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        co.mass_below(np.linspace(-1.0, 1.0, 11))


def test_mass_below_is_silent_and_exact_on_package_states_at_tiny_dt():
    # a package state's weights are even in phi, so its summed weight has
    # no jump at 0 or pi whatever the step: at dt 1e-7 and 1.2e5 dt per
    # step the law is within 2.2e-16 of the exact integral on these bounds
    # (4.4e-16 at seed 17), on X86_V4 and X86_V3, with no floating-point
    # warning
    state = random_pi_state(4, 1e-7, 15)
    co = spectral_coefficients(state, n_phi=512)
    ys = np.linspace(-1.0, 1.0, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = co.mass_below(ys)
    want = [trig_mass_below(state, y) for y in ys]
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps


# ---------------------------------- mass_below against the band-by-band route

def test_mass_below_matches_two_band_route_on_the_packet():
    # the one summed weight against a table per band: the Hermite cells
    # and the caps agree up to rounding here (measured 8.9e-16 over 2,001
    # bounds)
    state = limit_law_state()
    co = spectral_coefficients(state)
    ys = np.linspace(-1.0, 1.0, 2001)
    assert np.abs(co.mass_below(ys) - two_band_mass_below(
        oracle_weights(state, co.phi.size), co.dt, ys)).max() <= 2e-15


# by state and dt, the gaps of the two-row states these bounds were set
# on, over both grids, rounded up.  The phase state is resolved: on 512
# points the routes differ by rounding (measured 4.4e-16).  On 513 they
# part near y = 0 by up to 2.7e-8 (dt 0.5), 4.8e-9 (dt 2.0) and 1.0e-7
# (dt 3.0): the limiter acts on each band's cells otherwise than on their
# sum's, and at the 22 and 84 bounds past the bound the band-by-band route
# is off the quadrature by 2.6e-9 and more, this one by at most 3.3e-12.
# The flat state is aliased on 512 points: the capped tables and the
# limited cells differ by up to 3.1e-5 (4.8e-5 on the two-row states),
# as both routes miss the quadrature by 1e-5 to 6e-5
TWO_BAND_BOUND = {("phase", 0.5): 2e-15, ("phase", 2.0): 3e-8,
                  ("phase", 3.0): 2e-15, ("flat", 0.5): 6e-5,
                  ("flat", 2.0): 6e-5, ("flat", 3.0): 6e-5}


@pytest.mark.parametrize("kind, dt", sorted(TWO_BAND_BOUND))
@pytest.mark.parametrize("n_phi", [512, 513])
def test_mass_below_matches_two_band_route_on_random_states(kind, dt,
                                                           n_phi):
    # package states, the band-by-band route on the ring oracle's weights
    # of the whole ring; dt 2.0 and 3.0 take cos dt < 0, where the bands
    # swap arcs
    state = phase_state(dt, 15) if kind == "phase" else random_state(dt=dt)
    co = spectral_coefficients(state, n_phi=n_phi)
    ys = np.unique(np.concatenate((np.linspace(-1.0, 1.0, 2001),
                                   oracle_bounds(co))))
    got = co.mass_below(ys)
    two = two_band_mass_below(oracle_weights(state, n_phi), dt, ys)
    # where the routes part by more, this one is the nearer to the
    # quadrature, and within 1e-11 of it
    parted = np.abs(got - two) > TWO_BAND_BOUND[kind, dt]
    for y, one, other in zip(ys[parted], got[parted], two[parted]):
        want = quadrature_mass_below(state, y)[0]
        assert abs(one - want) <= min(1e-11, abs(other - want)), y


def assert_law_reads_the_summed_weight(co, ys):
    # a Pi-invariant state's w+- are even in phi, so the law reads w+ + w-
    # alone: swapping the bands keeps every bit
    swapped = replace(co, weights=co.weights[::-1])
    assert swapped.mass_below(ys).tobytes() == co.mass_below(ys).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60), st.data())
def test_pi_invariant_law_reads_only_the_summed_weight(m_max, data):
    n_sites = 2 * m_max + 1
    n_phi = data.draw(st.integers(max(n_sites, 2), 4 * n_sites), "n_phi")
    dt = data.draw(st.floats(1e-3, 3.1), "dt")
    state = random_pi_state(m_max, dt, data.draw(
        st.integers(0, 2**32 - 1), "seed"))
    ys = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                     max_size=20), "ys"))
    assert_law_reads_the_summed_weight(
        spectral_coefficients(state, n_phi=n_phi), ys)


def test_packet_law_reads_only_the_summed_weight():
    state = build_initial_state(WalkInitConfig(nu=1.0, dt=0.02))
    assert_law_reads_the_summed_weight(spectral_coefficients(state),
                                       np.linspace(-1.0, 1.0, 401))


def test_mass_below_converges_at_fourth_order_in_n_phi():
    # a cubic Hermite between nodes: measured orders 4.15 and 4.98 between
    # 4, 8 and 16 points per site (errors 2.8e-9, 1.6e-10, 4.9e-12)
    state, ys, want = _gaussian_packet_oracle()
    n_phi = np.array([ring_length(k * state.n_sites) for k in (4, 8, 16)])
    err = [np.abs(spectral_coefficients(state, n_phi=int(n)).mass_below(ys)
                  - want).max() for n in n_phi]
    order = np.log(np.divide(err[:-1], err[1:])) \
        / np.log(n_phi[1:] / n_phi[:-1])
    assert np.all(order >= 3.5), (err, order)


def packet_state(dt, half=48, width=6.0):
    """A unit-norm Gaussian packet, ``width`` sites wide, with a+ at phi =
    -pi/2 and a- at +pi/2 in the spectrum.  Near dt = 0 or pi the weights
    switch within ~dt of phi = 0 and pi, where this state has no weight
    (e^-44), so a grid resolves them."""
    m = np.arange(-half, half + 1)
    amp = np.exp(-0.5 * (m / width) ** 2) * np.exp(0.5j * np.pi * m)
    # a-(m) = i a+(-m) puts a- at +pi/2
    return LatticeState(dt=dt, a_plus=amp / np.sqrt(
        2.0 * np.sum(np.abs(amp) ** 2)))


def assert_small_dt_law_matches_oracle(dt, n_phi):
    """Finite, and within 1e-13 of the oracle (measured <= 1e-15).  The
    law sits within ~dt^2 of +-1 here, below what y resolves, so the
    bounds are those of a two-point law."""
    state = packet_state(dt)
    co = spectral_coefficients(state, n_phi=n_phi)
    ys = np.concatenate((np.linspace(-0.9, 0.9, 7), [-1.0, 1.0]))
    assert np.all(np.isfinite(co.mass_below(ys)))
    assert oracle_error(state, co, ys) <= 1e-13


@pytest.mark.parametrize("n_phi, dt", [(256, 1e-7), (513, 1e-6)])
def test_mass_below_matches_oracle_at_small_dt(n_phi, dt):
    assert_small_dt_law_matches_oracle(dt, n_phi)


def small_dt_coefficients(n_phi, dt, seed=16):
    """At dt this small, h(phi) next to its extremes is flat to within
    rounding, so neighbouring samples come out equal or wiggle by an ulp.
    The weights carry over unchanged, with unit completeness at any dt."""
    return replace(spectral_coefficients(random_state(seed=seed),
                                         n_phi=n_phi), dt=dt)


@pytest.mark.parametrize("n_phi", [512, 513])
def test_mass_below_never_steps_down_near_the_band_edge(n_phi):
    # dt = 1e-7: rounding lets h wiggle by an ulp next to its extremes;
    # bounds on and between those samples, where the law is steepest
    co = small_dt_coefficients(n_phi, 1e-7)
    h = group_velocity(np.fft.fftshift(co.phi), co.dt)  # ascending phi
    rising = h[np.argmin(h):np.argmax(h) + 1]
    assert np.count_nonzero(np.diff(rising) < 0) > 0
    near = h[np.abs(h) > h.max() - 1e-13]
    ys = np.unique(np.concatenate((near, -near, [-1.0, 0.0, 1.0])))
    ys = np.unique(np.concatenate((ys, 0.5 * (ys[1:] + ys[:-1]))))
    mass = co.mass_below(ys)
    assert np.all(np.diff(mass) >= 0.0)
    # limit_cdf is the difference of mass_below at its bounds
    for i, j in [(0, -1)] + [(k, k + 1) for k in range(ys.size - 1)]:
        assert limit_cdf(ys[i], ys[j], co) \
            == min(max(mass[j] - mass[i], 0.0), 1.0)


def test_mass_below_is_vectorized_and_checked():
    co = spectral_coefficients(pi_state(), n_phi=512)
    y = np.array([[-1.0, -0.3], [0.2, 1.0]])
    got = co.mass_below(y)
    assert got.shape == y.shape
    assert [co.mass_below(v) for v in y.ravel()] == got.ravel().tolist()
    assert isinstance(co.mass_below(0.2), float)
    assert co.mass_below(-1.0) == 0.0
    assert co.mass_below(1.0) == pytest.approx(co.completeness(), abs=1e-12)
    # a bool or a text bound is no number: True was read as 1 (P =
    # 0.9999999999999998), "0.3" as 0.3, and limit_cdf(False, 0.5) as
    # P(0 <= Y <= 0.5)
    for bad in (1.5, -1.0000001, np.nan, True, False, "0.3", [True, False],
                np.array(["0.3"]), None, 0.5 + 0j, [0.1, "0.2"], np.uint8(1),
                [True, 0.5]):
        with pytest.raises(ValueError,
                           match=r"^y must be a number in \[-1, 1\]"):
            co.mass_below(bad)
    for y1, y2 in ((0.3, 0.2), (False, 0.5), (True, 1.0), (-0.5, True),
                   ("0.3", 0.5), (0.1, np.array([0.2, 0.3])),
                   (np.array([0.1]), 0.5),
                   (np.array([-0.5, 0.1]), np.array([0.2, 0.3]))):
        with pytest.raises(ValueError,
                           match=r"^y(1|2) must be (a number in \[|<= y2, got)"):
            limit_cdf(y1, y2, co)
    # signed int and float scalars of any width are numbers
    assert co.mass_below(np.int8(0)) == co.mass_below(0) \
        == co.mass_below(np.float32(0.0))
    assert limit_cdf(np.int64(-1), 1, co) == limit_cdf(-1.0, 1.0, co)


def test_walk_converges_in_law_at_second_order():
    # the law of X_n/(n dt) against its weak limit: the largest gap over
    # sites between the walk's CDF and P(Y <= (m + 1/2)/n).  At nu 1, dt
    # 0.02, n = 1,000..8,000 lies below the switch to an O(1/n) term (near
    # n = 12,000 here); measured 3.75e-3, 1.06e-3, 2.76e-4, 7.08e-5, each
    # halving ratio 3.55, 3.83, 3.90, fitted slope -1.91
    state = build_initial_state(WalkInitConfig(nu=1.0, dt=0.02))
    co = spectral_coefficients(state)
    ns = np.array([1000, 2000, 4000, 8000])
    gaps = []
    for n in ns:
        run = evolve(state, int(n))
        y = np.clip((run.sites + 0.5) / n, -1.0, 1.0)
        cdf = np.cumsum(position_distribution(run))
        gaps.append(float(np.abs(cdf - co.mass_below(y)).max()))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert gaps[0] < 4e-3
    assert np.all((3.3 < ratios) & (ratios < 4.3)), ratios
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert -2.05 < slope < -1.75, slope


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100), st.data())
def test_limit_law_properties_on_random_states(m_max, data):
    # mass_below is a distribution function, and limit_cdf adds up over
    # adjacent intervals
    n_sites = 2 * m_max + 1
    n_phi = data.draw(st.integers(max(n_sites, 2), 4 * n_sites), "n_phi")
    dt = data.draw(st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
                   "dt")
    state = random_pi_state(m_max, dt, data.draw(
        st.integers(0, 2**32 - 1), "seed"))
    co = spectral_coefficients(state, n_phi=n_phi)
    ys = np.sort(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                    max_size=20), "ys"))
    assert np.all(np.diff(co.mass_below(ys)) >= 0.0)
    a, b, c = np.sort(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                         max_size=3), "abc"))
    assert abs(limit_cdf(a, b, co) + limit_cdf(b, c, co)
               - limit_cdf(a, c, co)) <= 1e-13, (a, b, c)


@pytest.mark.parametrize("n_sites, n_phi, seed, dt", [(3, 8, 135, 0.3),
                                                     (8, 16, 241, 0.5),
                                                     (20, 64, 208, 0.5)])
def test_mass_below_never_steps_down_at_the_samples(n_sites, n_phi, seed,
                                                    dt):
    # y on every sample of +-h and next to it, where a cell's share meets
    # the cumulative mass: each of these draws, as a two-row state, stepped
    # down by an ulp when every cell took its share in the form for a
    # rising weight
    co = spectral_coefficients(random_state(n_sites, dt, seed), n_phi=n_phi)
    keys = group_velocity(co.phi, dt)
    keys = np.concatenate((keys, -keys))
    ys = np.concatenate((keys, np.nextafter(keys, -2.0),
                         np.nextafter(keys, 2.0)))
    ys = np.sort(np.clip(ys, -1.0, 1.0))
    assert np.all(np.diff(co.mass_below(ys)) >= 0.0)


@lru_cache(maxsize=None)
def _odd_ring():
    state = phase_state(0.5, 17)
    return state, spectral_coefficients(state, n_phi=513)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_limit_cdf_matches_oracle_on_any_interval(a, b):
    state, co = _odd_ring()
    y1, y2 = min(a, b), max(a, b)
    got = limit_cdf(y1, y2, co)
    (mass2, err2), (mass1, err1) = (quadrature_mass_below(state, y)
                                    for y in (y2, y1))
    # the oracle is sure of itself to a tenth of the bound: quad's summed
    # error estimate, measured at most 4.5e-14 per bound (2,001 bounds)
    assert err1 + err2 <= 5e-10, (y1, y2, err1, err2)
    # measured at most 4.3e-9 over every pair of those bounds (2.4e-9 over
    # 200 intervals of the two-row state)
    assert abs(got - (mass2 - mass1)) <= 5e-9
    assert got == limit_cdf(y1, y2, co)  # the cached tables do not drift


def quad_cdf_gaussian(y1, y2, nu, dt):
    """The finite-dt Gaussian route by adaptive quadrature of its density
    in y over [y1, y2], kept away from the band edge +-cos dt; returns the
    value and quad's error estimate."""
    c, s = np.cos(dt), np.sin(dt)
    a, b = max(y1, -c + 1e-15), min(y2, c - 1e-15)
    if a >= b:
        return 0.0, 0.0
    pref = s * np.sqrt(np.pi) / (np.pi * nu * dt)

    def f(y):
        one = 1.0 - y * y
        root = c * c - y * y
        if root <= 0.0 or one <= 0.0:
            return 0.0
        phi_i = np.arcsin(min(s * abs(y) / (c * np.sqrt(one)), 1.0))
        return pref * np.exp(-(phi_i / (nu * dt)) ** 2) / (one * np.sqrt(root))

    ystar = horn_location(nu)
    pts = [p for p in (-ystar, 0.0, ystar) if a < p < b] or None
    return integrate.quad(f, a, b, points=pts, limit=400)


@pytest.mark.parametrize("nu, dt", [(2.5, 0.5), (2.5, 0.004), (1.0, 0.05),
                                    (0.3, 0.2), (10.0, 0.002)])
def test_limit_cdf_gaussian_closed_form(nu, dt):
    assert limit_cdf_gaussian(-1.0, 1.0, nu, dt) \
        == math.erf(np.pi / (2.0 * nu * dt))
    rng = np.random.default_rng(29)
    for _ in range(40):
        y1, y2 = np.sort(rng.uniform(-1.0, 1.0, 2))
        want, err = quad_cdf_gaussian(y1, y2, nu, dt)
        assert abs(limit_cdf_gaussian(y1, y2, nu, dt) - want) \
            <= max(err, 1e-13), (y1, y2)
    assert limit_cdf_gaussian(0.3, 0.3, nu, dt) == 0.0
    with pytest.raises(ValueError):
        limit_cdf_gaussian(-0.5, 0.5, 0.0, dt)


def test_limit_cdf_gaussian_fast_path():
    nu, dt = 2.5, 0.004
    rng = np.random.default_rng(13)
    for _ in range(8):
        y1, y2 = np.sort(rng.uniform(-1, 1, 2))
        fast = limit_cdf_gaussian(y1, y2, nu, dt)
        want = limit_density_mass(y1, y2, nu)
        assert fast == pytest.approx(want, abs=1e-3)


def test_limit_density_values():
    assert limit_density(0.0, 2.5) == pytest.approx(1 / (2.5 * np.sqrt(np.pi)),
                                                    rel=1e-14)
    assert limit_density(0.9999995, 2.5) < 1e-12
    assert limit_density(0.3, 2.0) == limit_density(-0.3, 2.0)


def test_limit_density_domain():
    with pytest.raises(ValueError):
        limit_density(1.0, 2.0)
    with pytest.raises(ValueError):
        limit_density(-1.2, 2.0)
    # a NaN y is refused, as mass_below refuses it, not returned as nan
    for y in (np.nan, [0.1, np.nan]):
        with pytest.raises(ValueError,
                           match=r"^y must be a number in \(-1, 1\)"):
            limit_density(y, 2.5)
    with pytest.raises(ValueError):
        limit_density(0.5, -1.0)


def quad_density_mass(y1, y2, nu):
    """Int_{y1}^{y2} F(y; nu) dy by adaptive quadrature, split at the
    horns and the origin."""
    a, b = max(y1, -1.0), min(y2, 1.0)
    if a >= b:
        return 0.0

    def f(y):
        one = 1.0 - y * y
        if one <= 0.0:
            return 0.0
        return (one ** -1.5) * np.exp(-y * y / (nu * nu * one)) \
            / (nu * np.sqrt(np.pi))

    ystar = horn_location(nu)
    pts = [p for p in (-ystar, 0.0, ystar) if a < p < b] or None
    val, _ = integrate.quad(f, a, b, points=pts, limit=400,
                            epsabs=1e-15, epsrel=1e-13)
    return val


def test_limit_density_mass_matches_quadrature():
    rng = np.random.default_rng(23)
    cases = [(-1.0, 1.0, 2.5), (-1.0, -0.5, 1.9), (0.4, 1.0, 2.9),
             (0.3, 0.3, 2.0), (-1.0, -1.0, 2.0), (1.0, 1.0, 2.0),
             (-2.0, 2.0, 1.2)]
    for _ in range(200):
        y1, y2 = np.sort(rng.uniform(-1.0, 1.0, 2))
        cases.append((y1, y2, rng.uniform(0.3, 6.0)))
    for y1, y2, nu in cases:
        got = limit_density_mass(y1, y2, nu)
        assert got == pytest.approx(quad_density_mass(y1, y2, nu),
                                    abs=1e-13), (y1, y2, nu)
    assert limit_density_mass(0.3, 0.3, 2.0) == 0.0
    with pytest.raises(ValueError):
        limit_density_mass(0.5, 0.4, 2.0)
    for nu in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            limit_density_mass(0.1, 0.4, nu)


def test_closed_forms_refuse_nan_nu():
    for call in (lambda: limit_density(0.3, np.nan),
                 lambda: limit_density_mass(0.1, 0.4, np.nan),
                 lambda: horn_location(np.nan),
                 lambda: limit_moment(2, np.nan),
                 lambda: limit_cdf_gaussian(-0.5, 0.5, np.nan, 0.01)):
        with pytest.raises(ValueError,
                           match=r"^nu must be a number in [\[(]"):
            call()


@pytest.mark.parametrize("y1, y2", [(np.nan, 0.5), (-0.5, np.nan),
                                    (np.nan, np.nan)])
def test_limit_bounds_refuse_nan(y1, y2):
    # a NaN bound is refused by both routes to the law, not returned as nan
    with pytest.raises(ValueError, match=r"^y[12] must be a number in "):
        limit_density_mass(y1, y2, 2.0)
    co = spectral_coefficients(pi_state(), n_phi=512)
    with pytest.raises(ValueError, match=r"^y[12] must be a number in "):
        limit_cdf(y1, y2, co)


def test_limit_density_normalization():
    # substitution u = y/sqrt(1-y^2) turns the integral into a unit Gaussian
    for nu in (1.9, 2.5, 2.9):
        assert abs(limit_density_mass(-1.0, 1.0, nu) - 1.0) < 1e-8


def test_horn_location_formula_vs_numerical_max():
    for nu in (1.2, 2.5, 2.9):
        ystar = horn_location(nu)
        res = minimize_scalar(lambda y: -limit_density(y, nu),
                              bounds=(1e-6, 1 - 1e-9), method="bounded",
                              options={"xatol": 1e-12})
        assert ystar == pytest.approx(res.x, abs=1e-6)


def test_horn_location_limits_and_monotonicity():
    assert horn_location(1e6) == pytest.approx(1.0, abs=1e-9)
    assert horn_location(2.9) > horn_location(1.9)
    assert horn_location(0.5) == 0.0  # unimodal regime
    assert horn_location(2.5) == pytest.approx(0.9451631252505217, abs=1e-12)


def test_limit_moments():
    assert limit_moment(0, 2.2) == pytest.approx(1.0, abs=1e-10)
    assert abs(limit_moment(1, 2.2)) < 1e-10
    # dual quadrature: direct y-domain integration as the oracle
    direct, _ = integrate.quad(lambda y: y * y * limit_density(y, 2.0),
                               -1 + 1e-12, 1 - 1e-12, limit=400,
                               points=[-horn_location(2.0), horn_location(2.0)])
    assert limit_moment(2, 2.0) == pytest.approx(direct, abs=1e-8)
    # closed form via the u-substitution: 1 - (sqrt(pi)/nu) e^{1/nu^2} erfc(1/nu)
    closed = 1 - (np.sqrt(np.pi) / 2.0) * np.exp(0.25) * erfc(0.5)
    assert limit_moment(2, 2.0) == pytest.approx(closed, abs=1e-12)
    assert limit_moment(2, 2.0) == pytest.approx(0.454358639234953, abs=1e-12)


@pytest.mark.parametrize("nu", [0.01, 0.3, 2.5, 600.0, 3e4])
def test_limit_moments_match_mpmath(nu):
    with mpmath.workdps(30):
        nu_mp = mpmath.mpf(nu)
        cuts = [-mpmath.inf] + [k * nu_mp for k in (-8, -4, -2, -1, 0, 1, 2,
                                                    4, 8)] + [mpmath.inf]
        for k in (0, 2, 4, 6):
            want = mpmath.quad(
                lambda u: (u * u / (1 + u * u)) ** (k // 2)
                * mpmath.exp(-(u / nu_mp) ** 2)
                / (nu_mp * mpmath.sqrt(mpmath.pi)), cuts)
            assert limit_moment(k, nu) == pytest.approx(float(want),
                                                        rel=1e-14), k
    # the +-p points cancel pairwise, exactly where g(-p) = -g(p) to the
    # last bit (numpy's y ** 1 is y; its y ** 3 is not always odd)
    assert limit_moment(1, nu) == 0.0
    assert abs(limit_moment(3, nu)) <= 1e-16


# ------------------------------------------------- gaussian g closed form

def test_gaussian_g_sum_identity():
    rng = np.random.default_rng(14)
    nu, dt = 3.0, 0.01
    phi = rng.uniform(-np.pi, np.pi, 200)
    gp, gm = gaussian_g_approx(phi, nu, dt)
    want = 2 * np.sqrt(np.pi) * np.exp(-phi ** 2 / (nu * dt) ** 2) / (nu * dt * dt)
    got = np.abs(gp) ** 2 + np.abs(gm) ** 2
    assert np.abs(got - want).max() / want.max() < 1e-10


def test_gaussian_g_peak_value():
    nu, dt = 2.0, 0.005
    gp, gm = gaussian_g_approx(np.array([0.0]), nu, dt)
    total = abs(gp[0]) ** 2 + abs(gm[0]) ** 2
    assert total == pytest.approx(2 * np.sqrt(np.pi) / (nu * dt * dt), rel=1e-12)


def test_gaussian_g_matches_spectral_coefficients():
    # sharp-localization error ~ 0.8/sqrt(nu): needs genuinely large nu
    nu = 600.0
    dt = 0.05 / nu
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    co = spectral_coefficients(state,
                               n_phi=next_fast_len(int(1.25 * state.n_sites)))
    # relative L2 distance of the weights on the fold, measured 0.025
    # (0.024 on the whole ring)
    half = co.weights.shape[1]
    want = band_weights(*gaussian_g_approx(co.phi[:half], nu, dt), dt)
    assert np.sqrt(np.sum((co.weights - want) ** 2)
                   / np.sum(co.weights ** 2)) <= 0.03


def test_gaussian_g_warns_when_nu_dt_large():
    with pytest.warns(UserWarning, match="not small"):
        gaussian_g_approx(np.array([0.1]), 3.0, 0.2)
