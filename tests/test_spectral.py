import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from diracwalk import (WalkInitConfig, build_initial_state, evolve,
                       evolve_exact_on_lattice, walk_power_symbol)
from diracwalk.constants import MAX_RING_SITES
from diracwalk.spectral import ring_length
from oracles import (evolve_steps, random_phase_state, stacked_ring,
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


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("dt", [0.005, 0.0005])
@pytest.mark.parametrize("n", [1, 10, 10_000, 1_000_000, -1, -10_000])
def test_walk_power_matches_mpmath(n, dt, branch):
    # rounding theta costs ~pi*|n|*eps in phase, as the loop's rounded coin
    # does; a negative n is the inverse walk
    sign = 1 if branch == "plus" else -1
    m00, m01, m10, m11 = walk_power_symbol(np.array(PHIS), dt, n, branch)
    got = np.array([[m00, m01], [m10, m11]])
    for k, phi in enumerate(PHIS):
        err = np.abs(got[:, :, k] - mp_walk_power(phi, dt, n, sign)).max()
        assert err < 8 * (abs(n) + 1) * EPS, (phi, err)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_power_is_the_symbol_power(n):
    # the "minus" branch's symbol is the "plus" one at -phi
    phi = np.linspace(-np.pi, np.pi, 37)
    for dt in (0.3, 0.02):
        for branch, sign in (("plus", 1.0), ("minus", -1.0)):
            m00, m01, m10, m11 = walk_power_symbol(phi, dt, n, branch)
            for k, f in enumerate(phi):
                want = np.linalg.matrix_power(
                    walk_symbol_matrix(sign * f, dt), n)
                got = np.array([[m00[k], m01[k]], [m10[k], m11[k]]])
                assert np.abs(got - want).max() < 1e-14


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("nu, dt, n", [(2.5, 0.005, 10_000),
                                       (10.0, 0.002, 3000),
                                       (1.0, 0.02, 100),
                                       (2.0, 0.05, 200)])
def test_evolve_matches_step_loop(nu, dt, n, branch):
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt, branch=branch))
    fast = evolve(state, n, branch)
    oracle = evolve_steps(state, n, branch)
    assert (fast.m_min, fast.n_sites) == (oracle.m_min, oracle.n_sites)
    err = max(np.abs(fast.a_plus - oracle.a_plus).max(),
              np.abs(fast.a_minus - oracle.a_minus).max())
    assert err < 1e-12
    assert fast.norm_drift.shape == (1,)
    assert fast.norm_drift[0] < 1e-12


def max_diff(state, other, lo: int = 0) -> float:
    """The largest amplitude difference of ``other`` from ``state``'s
    window, read from index ``lo`` of ``other``."""
    hi = lo + state.n_sites
    return max(np.abs(other.a_plus[lo:hi] - state.a_plus).max(),
               np.abs(other.a_minus[lo:hi] - state.a_minus).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(-1000, 1000),
       st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
       st.integers(-300, 300), st.integers(-300, 300),
       st.sampled_from(["plus", "minus"]))
def test_ring_evolution_properties(n_sites, m_min, seed, dt, n, more,
                                   branch):
    state = random_phase_state(n_sites, m_min, dt, seed)
    fast = evolve(state, n, branch)
    # bit for bit the stacked ring
    with stacked_ring():
        slow = evolve(state, n, branch)
    assert (fast.m_min, fast.n_sites) == (slow.m_min, slow.n_sites)
    assert np.array_equal(fast.a_plus, slow.a_plus)
    assert np.array_equal(fast.a_minus, slow.a_minus)
    assert np.array_equal(fast.norm_drift, slow.norm_drift)
    # the step-by-step walk
    if n >= 0:
        loop = evolve_steps(state, n, branch)
        assert (fast.m_min, fast.n_sites) == (loop.m_min, loop.n_sites)
        assert max_diff(loop, fast) < 1e-12
    # the group law, on the sites of the narrower window
    once = evolve(state, n + more, branch)
    twice = evolve(fast, more, branch)
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
        with pytest.raises(ValueError, match="size budget"):
            ring_length(n)


def test_ring_evolution_memory_per_site():
    # the traced peak behind the MAX_RING_SITES comment: a 211,680-site
    # ring (nu 2.5, dt 0.005, n = 10^5), measured on a second call
    state = build_initial_state(WalkInitConfig(nu=2.5, dt=0.005))
    n = 100_000
    for run, bound in ((lambda: evolve(state, n), 177.0),
                       (lambda: evolve_exact_on_lattice(state, n * state.dt),
                        113.0)):
        run()  # FFT plans and caches built outside
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ring = ring_length(out.n_sites)
        assert ring == 211_680
        assert peak / ring <= bound
