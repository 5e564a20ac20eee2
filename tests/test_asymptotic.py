import math
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

from diracwalk import (LatticeState, SpectralCoefficients, WalkInitConfig,
                       build_initial_state, evolve, gaussian_g_approx,
                       group_velocity, horn_location, limit_cdf,
                       limit_cdf_gaussian, limit_density, limit_density_mass,
                       limit_moment, spectral_coefficients,
                       walk_symbol_matrix)
from diracwalk.asymptotic import _eigen_system


# ---------------------------------------------------------------- symbol

def test_symbol_eigenvalues_at_phi_zero():
    lam_plus, lam_minus, *_ = _eigen_system(0.0, 0.3)
    assert lam_plus == pytest.approx(np.exp(0.3j), abs=1e-14)
    assert lam_minus == pytest.approx(np.exp(-0.3j), abs=1e-14)


def test_symbol_eigenvalues_at_phi_half_pi():
    lam_plus, lam_minus, *_ = _eigen_system(np.pi / 2, 0.7)
    assert lam_plus == pytest.approx(1j, abs=1e-14)
    assert lam_minus == pytest.approx(-1j, abs=1e-14)


def test_symbol_characteristic_polynomial_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        phi = rng.uniform(-np.pi, np.pi)
        dt = rng.uniform(0.01, 2.5)
        lam_plus, lam_minus, *_ = _eigen_system(phi, dt)
        mat = walk_symbol_matrix(phi, dt)
        for lam in (lam_plus, lam_minus):
            assert abs(np.linalg.det(mat - lam * np.eye(2))) < 1e-12


def test_symbol_eigenvectors():
    rng = np.random.default_rng(10)
    for _ in range(40):
        phi = rng.uniform(-np.pi, np.pi)
        dt = rng.uniform(0.01, 2.5)
        lam_plus, lam_minus, f_pp, f_pm, f_mp, f_mm = _eigen_system(phi, dt)
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
    lam_p, lam_m, *_ = _eigen_system(phi, 0.05)
    assert np.abs(np.abs(lam_p) - 1.0).max() < 1e-13
    assert np.abs(np.abs(lam_m) - 1.0).max() < 1e-13


def test_symbol_rejects_degenerate_dt():
    # at 1e-8 and pi - 1e-8, |cos dt| rounds to 1 and h would be NaN at 0
    for dt in (0.0, np.pi, 1e-8, 1e-300, np.pi - 1e-8):
        with pytest.raises(ValueError):
            _eigen_system(0.3, dt)
        with pytest.raises(ValueError):
            group_velocity(np.array([0.0, 1e-3]), dt)
    assert np.all(np.isfinite(group_velocity(np.array([0.0, 1e-3]), 2e-8)))


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
        lp = _eigen_system(phi + eps, dt)[0]
        lm = _eigen_system(phi - eps, dt)[0]
        lam = _eigen_system(phi, dt)[0]
        oracle = (-1j * (lp - lm) / (2 * eps) / lam).real
        assert group_velocity(phi, dt) == pytest.approx(oracle, abs=1e-8)


# ------------------------------------------------- spectral coefficients

def test_single_site_spectral_coefficients():
    dt = 0.25
    state = LatticeState(dt=dt, m_min=0, a_plus=np.array([1.0 + 0j]),
                         a_minus=np.zeros(1, dtype=complex))
    co = spectral_coefficients(state, n_phi=256)
    _, _, f_pp, _, f_mp, _ = _eigen_system(co.phi, dt)
    assert np.abs(co.g_plus - np.conj(f_pp) / np.sqrt(dt)).max() < 1e-12
    assert np.abs(co.g_minus - np.conj(f_mp) / np.sqrt(dt)).max() < 1e-12
    # eigenvector completeness makes the band split sum to a constant
    total = np.abs(co.g_plus) ** 2 + np.abs(co.g_minus) ** 2
    assert np.abs(total - 1.0 / dt).max() < 1e-12


def random_state(n_sites=200, m_min=-13, dt=0.05, seed=15):
    """A unit-norm state with a flat spectrum, off-centre on the lattice."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, n_sites)) + 1j * rng.normal(size=(2, n_sites))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    return LatticeState(dt=dt, m_min=m_min, a_plus=z[0], a_minus=z[1])


@pytest.mark.parametrize("n_phi", [512, 513])
def test_spectral_coefficients_match_direct_sum(n_phi):
    state = random_state()
    co = spectral_coefficients(state, n_phi=n_phi)
    # one ring period, ascending, on a uniform grid
    assert co.phi.size == n_phi and np.all(np.diff(co.phi) > 0)
    assert co.phi[-1] - co.phi[0] == pytest.approx(2 * np.pi - co.dphi,
                                                   abs=1e-12)
    # oracle: A(phi) = sum_m a[m] e^{i m phi}, site by site
    kernel = np.exp(1j * np.outer(co.phi, state.sites))
    a_plus, a_minus = kernel @ state.a_plus, kernel @ state.a_minus
    _, _, f_pp, f_pm, f_mp, f_mm = _eigen_system(co.phi, state.dt)
    root_dt = np.sqrt(state.dt)
    g_plus = (np.conj(f_pp) * a_plus + np.conj(f_pm) * a_minus) / root_dt
    g_minus = (np.conj(f_mp) * a_plus + np.conj(f_mm) * a_minus) / root_dt
    peak = max(np.abs(g_plus).max(), np.abs(g_minus).max())
    assert np.abs(co.g_plus - g_plus).max() < 1e-12 * peak
    assert np.abs(co.g_minus - g_minus).max() < 1e-12 * peak


@pytest.mark.parametrize("n_phi", [512, 513])
def test_limit_cdf_full_interval_is_completeness(n_phi):
    # the flat spectrum weighs the cell that closes the period as much as
    # any other, on even and odd rings alike
    co = spectral_coefficients(random_state(), n_phi=n_phi)
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


def test_evolution_multiplies_by_eigenvalues():
    dt = 0.05
    state = build_initial_state(WalkInitConfig(nu=1.5, dt=dt))
    n = 40
    evolved = evolve(state, n)
    n_phi = next_fast_len(8 * evolved.n_sites)
    before = spectral_coefficients(state, n_phi=n_phi)
    after = spectral_coefficients(evolved, n_phi=n_phi)
    lam_p, lam_m, *_ = _eigen_system(before.phi, dt)
    assert np.abs(after.g_plus - lam_p ** n * before.g_plus).max() \
        * np.sqrt(dt) < 1e-10
    assert np.abs(after.g_minus - lam_m ** n * before.g_minus).max() \
        * np.sqrt(dt) < 1e-10
    assert np.abs(np.abs(after.g_plus) - np.abs(before.g_plus)).max() \
        * np.sqrt(dt) < 1e-10


def test_band_weights_even_for_gaussian_packet():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    co = spectral_coefficients(state)
    # the grid point of phi -> -phi (mod 2 pi), about the point phi = 0
    zero = int(np.argmin(np.abs(co.phi)))
    assert co.phi[zero] == 0.0
    mirror = (2 * zero - np.arange(co.phi.size)) % co.phi.size
    for g in (co.g_plus, co.g_minus):
        w = np.abs(g) ** 2
        mirrored = w[mirror]
        assert np.abs(w - mirrored).max() / w.max() < 1e-10


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


# ------------------------------------------- mass_below against a scan

def band_mass(phi_ext, h_ext, u_ext, lo, hi):
    """Integral of u over {phi : lo <= h(phi) <= hi} with piecewise-linear
    h and u on each grid cell, scanned cell by cell."""
    h_a, h_b = h_ext[:-1], h_ext[1:]
    u_a, u_b = u_ext[:-1], u_ext[1:]
    span = h_b - h_a
    flat = np.abs(span) < 1e-300
    safe = np.where(flat, 1.0, span)
    ta = (lo - h_a) / safe
    tb = (hi - h_a) / safe
    t0 = np.clip(np.minimum(ta, tb), 0.0, 1.0)
    t1 = np.clip(np.maximum(ta, tb), 0.0, 1.0)
    inside_flat = (h_a >= lo) & (h_a <= hi)
    t0 = np.where(flat, 0.0, t0)
    t1 = np.where(flat, np.where(inside_flat, 1.0, 0.0), t1)
    seg = (t1 - t0) * u_a + 0.5 * (u_b - u_a) * (t1 * t1 - t0 * t0)
    return float(np.sum(seg * np.diff(phi_ext)))


def scan_cdf(y1, y2, coeffs):
    """The per-cell oracle of ``limit_cdf``: every cell of the periodic
    grid (closed at phi[0] + 2 pi) for every interval."""
    if y1 == y2:
        return 0.0
    h = group_velocity(coeffs.phi, coeffs.dt)
    scale = coeffs.dt / (2.0 * np.pi)
    phi_ext = np.append(coeffs.phi, coeffs.phi[0] + 2.0 * np.pi)
    h_ext = np.append(h, h[0])
    total = 0.0
    for g, (lo, hi) in ((coeffs.g_plus, (y1, y2)),
                        (coeffs.g_minus, (-y2, -y1))):
        u = np.abs(g) ** 2 * scale
        total += band_mass(phi_ext, h_ext, np.append(u, u[0]), lo, hi)
    return min(max(total, 0.0), 1.0)


def special_bounds(coeffs):
    """+-1, +-cos dt, 0 and samples of h (the extremes included)."""
    h = group_velocity(coeffs.phi, coeffs.dt)
    c = np.cos(coeffs.dt)
    picks = h[[0, 1, h.size // 3, h.size // 2, np.argmax(h), np.argmin(h)]]
    return np.unique(np.concatenate(([-1.0, -c, 0.0, c, 1.0],
                                     picks, -picks)))


def assert_cdf_matches_scan(coeffs, n_random=40, seed=21):
    rng = np.random.default_rng(seed)
    ys = special_bounds(coeffs)
    pairs = [(a, b) for a in ys for b in ys if a <= b]
    pairs += [tuple(np.sort(rng.uniform(-1, 1, 2))) for _ in range(n_random)]
    for y1, y2 in pairs:
        assert abs(limit_cdf(y1, y2, coeffs)
                   - scan_cdf(y1, y2, coeffs)) <= 1e-13, (y1, y2)


@pytest.mark.parametrize("n_phi", [512, 513])
def test_limit_cdf_matches_scan_on_random_states(n_phi):
    co = spectral_coefficients(random_state(), n_phi=n_phi)
    assert_cdf_matches_scan(co)


def test_limit_cdf_matches_scan_on_gaussian_packet():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    assert_cdf_matches_scan(spectral_coefficients(state))


def flat_topped_coefficients(n_phi, dt, seed=16):
    """At dt this small, h(phi) next to its extremes is flat to within
    rounding, so neighbouring samples come out equal: flat cells.  The
    coefficients are rescaled to keep unit completeness at that dt."""
    co = spectral_coefficients(random_state(seed=seed), n_phi=n_phi)
    rescale = np.sqrt(co.dt / dt)
    return SpectralCoefficients(phi=co.phi, g_plus=co.g_plus * rescale,
                                g_minus=co.g_minus * rescale, dt=dt)


@pytest.mark.parametrize("n_phi, dt", [(256, 3e-7), (513, 1e-6)])
def test_limit_cdf_matches_scan_on_flat_cells(n_phi, dt):
    co = flat_topped_coefficients(n_phi, dt)
    h = group_velocity(co.phi, dt)
    top = h.max()
    # the construction: flat cells at the top, and monotone runs between
    # the extremes, so the scan is the contract exactly
    period = np.append(h, h[0])
    assert np.count_nonzero(np.diff(period) == 0.0) >= 2
    lo, hi = int(np.argmin(h)), int(np.argmax(h))
    pts = (lo + np.arange(h.size + 1)) % h.size
    r = (hi - lo) % h.size
    assert np.all(np.diff(h[pts[:r + 1]]) >= 0)
    assert np.all(np.diff(h[pts[r:]]) <= 0)
    assert_cdf_matches_scan(co)
    # a closed interval keeps the flat cells at either end
    flat_mass = limit_cdf(top, 1.0, co)
    assert flat_mass > 0.0
    assert limit_cdf(-1.0, top, co) == pytest.approx(
        limit_cdf(-1.0, 1.0, co), abs=1e-15)


@pytest.mark.parametrize("n_phi", [512, 513])
def test_limit_cdf_matches_scan_on_wiggling_samples(n_phi):
    # dt = 1e-7: rounding lets h wiggle by an ulp next to its extremes, so
    # the runs are not monotone there; bounds on and between those samples
    co = flat_topped_coefficients(n_phi, 1e-7)
    h = group_velocity(co.phi, co.dt)
    rising = h[np.argmin(h):np.argmax(h) + 1]
    assert np.count_nonzero(np.diff(rising) < 0) > 0
    near = h[np.abs(h) > h.max() - 1e-13]
    ys = np.unique(np.concatenate((near, -near, [-1.0, 0.0, 1.0])))
    ys = np.unique(np.concatenate((ys, 0.5 * (ys[1:] + ys[:-1]))))
    pairs = [(-1.0, y) for y in ys] + [(y, 1.0) for y in ys]
    pairs += list(zip(ys[:-1], ys[1:])) + list(zip(ys[:-2], ys[2:]))
    for y1, y2 in pairs:
        assert abs(limit_cdf(y1, y2, co)
                   - scan_cdf(y1, y2, co)) <= 1e-13, (y1, y2)
    assert np.all(np.diff(co.mass_below(ys)) >= 0.0)


def test_mass_below_is_vectorized_and_checked():
    co = spectral_coefficients(random_state(), n_phi=512)
    y = np.array([[-1.0, -0.3], [0.2, 1.0]])
    got = co.mass_below(y)
    assert got.shape == y.shape
    assert [co.mass_below(v) for v in y.ravel()] == got.ravel().tolist()
    assert isinstance(co.mass_below(0.2), float)
    assert co.mass_below(-1.0) == 0.0
    assert co.mass_below(1.0) == pytest.approx(co.completeness(), abs=1e-12)
    for bad in (1.5, -1.0000001, np.nan):
        with pytest.raises(ValueError):
            co.mass_below(bad)
    with pytest.raises(ValueError):
        limit_cdf(0.3, 0.2, co)


@lru_cache(maxsize=None)
def _odd_ring_coefficients():
    return spectral_coefficients(random_state(seed=17), n_phi=513)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_limit_cdf_matches_scan_on_any_interval(a, b):
    co = _odd_ring_coefficients()
    y1, y2 = min(a, b), max(a, b)
    got = limit_cdf(y1, y2, co)
    assert abs(got - scan_cdf(y1, y2, co)) <= 1e-13
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
    gp, gm = gaussian_g_approx(co.phi, nu, dt)
    num = np.sum(np.abs(co.g_plus - gp) ** 2 + np.abs(co.g_minus - gm) ** 2)
    den = np.sum(np.abs(co.g_plus) ** 2 + np.abs(co.g_minus) ** 2)
    assert np.sqrt(num / den) < 0.05


def test_gaussian_g_warns_when_nu_dt_large():
    with pytest.warns(UserWarning, match="not small"):
        gaussian_g_approx(np.array([0.1]), 3.0, 0.2)
