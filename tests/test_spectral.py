import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from diracwalk import (WalkInitConfig, build_initial_state, evolve,
                       evolve_exact_on_lattice, propagator_symbol,
                       walk_power_symbol)
from diracwalk.constants import MAX_RING_SITES
from diracwalk.spectral import apply_pair, apply_symbol, ring_length
from oracles import (as_branch, evolve_steps, propagator_entries,
                     random_pi_state, ring_momenta, stacked_ring,
                     su2_entries, two_row, walk_power_entries,
                     walk_symbol_matrix)

EPS = 2.2e-16
PHIS = (0.0, 1e-3, 0.3, np.pi / 2, 2.9, np.pi, 5.0)


def mp_walk_power(phi: float, dt: float, n: int, sign: int) -> np.ndarray:
    """M(phi)^n by binary powering in 40-digit arithmetic, where
    M = diag(e^{i sign phi}, e^{-i sign phi}) . coin(dt) at quasi-momentum
    phi."""
    with mpmath.workdps(40):
        phi, dt = mpmath.mpf(phi), mpmath.mpf(dt)
        rot = mpmath.expj(sign * phi)
        c, s = mpmath.cos(dt), mpmath.sin(dt)
        step = mpmath.matrix([[rot * c, -rot * s],
                              [s / rot, c / rot]])
        power = step ** n
        return np.array([[complex(power[i, j]) for j in range(2)]
                         for i in range(2)])


def pair_matrices(a, b) -> np.ndarray:
    """The 2x2 matrices [[a, -b*], [b, a*]], stacked on the last axis."""
    m00, m01, m10, m11 = su2_entries(a, b)
    return np.array([[m00, m01], [m10, m11]])


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("dt", [0.005, 0.0005])
@pytest.mark.parametrize("n", [1, 10, 10_000, 1_000_000, -1, -10_000])
def test_walk_power_matches_mpmath(n, dt, branch):
    # rounding theta costs ~pi*|n|*eps in phase, as the loop's rounded coin
    # does; a negative n is the inverse walk; the "minus" symbol is the
    # "plus" pair at -phi
    sign = 1 if branch == "plus" else -1
    got = pair_matrices(*walk_power_symbol(sign * np.array(PHIS), dt, n))
    for k, phi in enumerate(PHIS):
        err = np.abs(got[:, :, k] - mp_walk_power(phi, dt, n, sign)).max()
        assert err < 8 * (abs(n) + 1) * EPS, (phi, err)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_power_is_the_symbol_power(n):
    # the "minus" branch's symbol is the "plus" one at -phi
    phi = np.linspace(-np.pi, np.pi, 37)
    for dt in (0.3, 0.02):
        for sign in (1.0, -1.0):
            got = pair_matrices(*walk_power_symbol(sign * phi, dt, n))
            for k, f in enumerate(phi):
                want = np.linalg.matrix_power(
                    walk_symbol_matrix(sign * f, dt), n)
                assert np.abs(got[:, :, k] - want).max() < 1e-14


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300),
       st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
       st.integers(-10 ** 6, 10 ** 6), st.floats(-50.0, 50.0),
       st.lists(st.floats(-np.pi, np.pi), max_size=8))
def test_pairs_are_the_four_entry_symbols(n, dt, n_steps, t, extra):
    # on a ring of n modes (an even ring's Nyquist mode included) and at
    # random phi and p: the pair (a, b) is the (m00, m10) column of the
    # four-entry oracle and (-b*, a*) its (m01, m11), up to signed zeros;
    # |a|^2 + |b|^2 = 1 to 5 eps (measured 1.0e-15, over 2.4e7 random
    # points, n and t as here)
    phi = np.concatenate([-2.0 * np.pi * np.fft.fftfreq(n), extra])
    p = np.concatenate([ring_momenta(n, dt), -np.asarray(extra) / dt])
    for pair, entries in ((walk_power_symbol(phi, dt, n_steps),
                           walk_power_entries(phi, dt, n_steps)),
                          (propagator_symbol(p, t), propagator_entries(p, t))):
        for got, want in zip(su2_entries(*pair), entries):
            assert np.array_equal(got, want)
        a, b = pair
        unitarity = np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max()
        assert unitarity <= 5 * np.finfo(float).eps
    # the site mirror moves ring mode -k mod n to mode k, so the "plus"
    # pair at the mirrored mode is the oracle's "minus" symbol on the
    # oracle's "minus" ring, except at the walk's Nyquist mode: the mirror
    # keeps its phi_N (pi to a few ulp), where the oracle takes -phi_N.  The
    # two points lie 2 |sin(phi_N)| apart on the circle, and there
    # d(a, b)/dphi is (c r, s r) in size (r = |b| / s), so the pair moves
    # by that gap times |b| / tan(dt) in a and times |b| in b, plus rounding
    mode = -np.arange(n) % n
    phi = phi[:n]
    mirrored = (walk_power_symbol(phi[mode], dt, n_steps),
                propagator_symbol(p[:n][mode], t))
    minus = (walk_power_entries(phi, dt, n_steps, "minus"),
             propagator_entries(ring_momenta(n, dt, "minus"), t, "minus"))
    for walk, pair, entries in zip((True, False), mirrored, minus):
        keep = np.arange(n) != (n // 2 if walk and n % 2 == 0 else n)
        for k, (got, want) in enumerate(zip(su2_entries(*pair), entries)):
            assert np.array_equal(got[keep], want[keep])
            if not keep.all():
                slope = 1.0 / np.tan(dt) if k in (0, 3) else 1.0
                gap = 2.0 * abs(np.sin(phi[n // 2]) * pair[1][n // 2]) \
                    * slope
                err = abs(got[n // 2] - want[n // 2])
                assert err <= 1.01 * gap + 2 * EPS, (k, err, gap)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("nu, dt, n", [(2.5, 0.005, 10_000),
                                       (10.0, 0.002, 3000),
                                       (1.0, 0.02, 100),
                                       (2.0, 0.05, 200)])
def test_evolve_matches_step_loop(nu, dt, n, branch):
    # "minus": the mirrored "plus" run of the mirrored packet against the
    # "minus" step loop on the packet's two rows
    mirror = as_branch(branch)
    state = mirror(build_initial_state(WalkInitConfig(nu=nu, dt=dt)))
    fast = mirror(evolve(mirror(state), n))
    oracle = evolve_steps(state, n, branch)
    assert (fast.m_min, fast.n_sites) == (oracle.m_min, oracle.n_sites)
    assert max_diff(oracle, fast) < 1e-12
    assert fast.norm_drift.shape == (1,)
    assert fast.norm_drift[0] < 1e-12


def max_diff(state, other, lo: int = 0) -> float:
    """The largest difference of ``other``'s two rows from ``state``'s
    on ``state``'s window, read from index ``lo`` of ``other``; a package
    state takes its a- row from the sigma2 parity."""
    state, other = two_row(state), two_row(other)
    hi = lo + state.n_sites
    return max(np.abs(other.a_plus[lo:hi] - state.a_plus).max(),
               np.abs(other.a_minus[lo:hi] - state.a_minus).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
       st.integers(-300, 300), st.integers(-300, 300),
       st.sampled_from(["plus", "minus"]))
def test_ring_evolution_properties(m_max, seed, dt, n, more, branch):
    state = random_pi_state(m_max, dt, seed)
    mirror = as_branch(branch)

    def run(s, steps):
        # a "minus" run is the mirrored "plus" run of the mirrored state
        return mirror(evolve(mirror(s), steps))
    fast = run(state, n)
    # the stacked ring of both rows, each through its own transform, to
    # its rounding: measured <= 1.2e-16, and the drifts <= 4.4e-16 apart,
    # over 2,000 draws
    with stacked_ring():
        slow = run(state, n)
    assert (fast.m_min, fast.n_sites) == (slow.m_min, slow.n_sites)
    assert np.abs(fast.a_plus - slow.a_plus).max() <= 2.5e-16
    assert fast.norm_drift.shape == slow.norm_drift.shape
    assert np.all(np.abs(fast.norm_drift - slow.norm_drift) <= 1e-15)
    # the step-by-step walk
    if n >= 0:
        loop = evolve_steps(state, n, branch)
        assert (fast.m_min, fast.n_sites) == (loop.m_min, loop.n_sites)
        assert max_diff(loop, fast) < 1e-12
    # the group law, on the sites of the narrower window
    once = run(state, n + more)
    twice = run(fast, more)
    assert max_diff(once, twice, once.m_min - twice.m_min) < 1e-12


def test_ring_length_is_next_fast_len():
    for n in range(1, 200_001):
        want = next_fast_len(n)
        assert ring_length(n) == want and ring_length(n - 0.5) == want, n
    rng = np.random.default_rng(31)
    for n in rng.uniform(1.0, MAX_RING_SITES, 2000):
        assert ring_length(n) == next_fast_len(int(np.ceil(n))), n
    assert ring_length(MAX_RING_SITES) == MAX_RING_SITES
    for n in (MAX_RING_SITES + 0.5, MAX_RING_SITES + 1, 1e300, np.inf,
              np.nan):
        for odd in (False, True):
            with pytest.raises(ValueError, match="size budget"):
                ring_length(n, odd)


def test_odd_ring_length_is_the_next_odd_fast_len():
    # the least odd length >= n with no prime factor above 11; the
    # longest within MAX_RING_SITES is 4,159,375 = 5^5 11^3
    want = iter([n for n in range(1, 110_001, 2) if next_fast_len(n) == n])
    current = next(want)
    for n in range(1, 100_001):
        if n > current:
            current = next(want)
        assert ring_length(n, odd=True) == current
        assert ring_length(n - 0.5, odd=True) == current, n
    assert ring_length(4_159_375, odd=True) == 4_159_375
    for n in (4_159_375.5, MAX_RING_SITES):
        with pytest.raises(ValueError, match="size budget of 4159375 "):
            ring_length(n, odd=True)


def test_ring_evolution_memory_per_site():
    # the traced peak behind the MAX_RING_SITES comment: a 211,680-site
    # ring (nu 2.5, dt 0.005, n = 10^5; exact evolution's odd ring is
    # 212,625 sites), measured on a second call; the ring of a+ is 16 B of
    # it, the symbol's pair on modes 0..n // 2 and its temporaries, the
    # mirrored modes and the window read out the rest (measured 64.0 and
    # 52.6 B)
    state = build_initial_state(WalkInitConfig(nu=2.5, dt=0.005))
    n = 100_000
    for run, odd, want, bound in (
            (lambda: evolve(state, n), False, 211_680, 64.5),
            (lambda: evolve_exact_on_lattice(state, n * state.dt), True,
             212_625, 53.5)):
        run()  # FFT plans and caches built outside
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ring = ring_length(out.n_sites, odd)
        assert ring == want
        assert peak / ring <= bound


@pytest.mark.parametrize("n", list(range(1, 41)) + [31_500, 31_501, 77_440])
def test_half_grid_is_the_full_grid_bit_for_bit(n):
    # apply_symbol evaluates each pair on modes 0..n // 2, on the folded
    # pairs (u(k), i u(n - k)) of a+'s ring u; on the full grid, every
    # mode of the two-row ring (u, i u(n - k)) takes the pair of its own
    # mode: row 0 is the folded result, bit for bit, for the walk's and the
    # propagator's pairs as their layers form them (both dispatch paths)
    rng = np.random.default_rng(n)
    ring = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dt = 0.005

    def momenta(n, half):
        return 2.0 * np.pi * np.fft.fftfreq(n, d=dt)[:half]
    symbols = (
        lambda n, half: walk_power_symbol(
            -2.0 * np.pi * np.fft.fftfreq(n)[:half], dt, 1234),
        lambda n, half: walk_power_symbol(
            -2.0 * np.pi * np.fft.fftfreq(n)[:half], 0.3, -77),
        lambda n, half: propagator_symbol(momenta(n, half), 3.7))
    for symbol in symbols:
        folded = ring.copy()
        apply_symbol(folded, symbol)
        full_grid = np.stack((ring, 1j * ring[-np.arange(n) % n]))
        apply_pair(full_grid, *symbol(n, n))
        assert folded.tobytes() == full_grid[0].tobytes()


@pytest.mark.parametrize("n", list(range(1, 41)) + [31_500, 31_501, 78_125])
def test_apply_symbol_keeps_each_folded_pairs_weight(n):
    # the folded pair (u(k), i u(n - k)) goes through an SU(2) matrix, so
    # |u(k)|^2 + |u(n - k)|^2 is kept at every k: for the walk's pair on
    # any ring, its symbol being 2 pi-periodic in phi, and for the
    # propagator's on odd rings.  On an even ring the propagator's Nyquist
    # mode, its own mirror, at p = -pi/dt, keeps |a - i b*|^2 = 1 + 2 p
    # sin^2(E t) / E^2 of its weight: why exact evolution's rings are odd
    rng = np.random.default_rng(n)
    ring = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dt, t = 0.5, 1.3
    mirror = -np.arange(n) % n

    def pair_weights(r):
        w = np.abs(r) ** 2
        return w + w[mirror]
    before = pair_weights(ring)
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    symbols = (
        lambda n, half: walk_power_symbol(
            -2.0 * np.pi * np.fft.fftfreq(n)[:half], dt, 1234),
        lambda n, half: propagator_symbol(p[:half], t))
    for symbol in symbols:
        folded = ring.copy()
        apply_symbol(folded, symbol)
        ratio = pair_weights(folded) / before
        if n % 2 == 0 and symbol is symbols[1]:
            e = np.sqrt(p[n // 2] ** 2 + 1.0)
            want = 1.0 + 2.0 * p[n // 2] * np.sin(e * t) ** 2 / e ** 2
            assert ratio[n // 2] == pytest.approx(want, rel=1e-13)
            assert ratio[n // 2] < 0.8
            ratio[n // 2] = 1.0
        assert np.abs(ratio - 1.0).max() <= 1e-13
