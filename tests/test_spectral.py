import mpmath
import numpy as np
import pytest
from scipy.fft import next_fast_len

from diracwalk import (WalkInitConfig, build_initial_state, evolve,
                       evolve_steps, walk_power_symbol)
from diracwalk.asymptotic import walk_symbol_matrix
from diracwalk.constants import MAX_RING_SITES
from diracwalk.spectral import ring_length

EPS = 2.2e-16
PHIS = (0.0, 1e-3, 0.3, np.pi / 2, 2.9, np.pi, 5.0)


def mp_walk_power(phi: float, dt: float, n: int, sign: int) -> np.ndarray:
    """M(phi)^n by binary powering in 40-digit arithmetic, where
    M = diag(e^{-i sign phi}, e^{i sign phi}) . coin(dt)."""
    with mpmath.workdps(40):
        phi, dt = mpmath.mpf(phi), mpmath.mpf(dt)
        rot = mpmath.expj(-sign * phi)
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
    # the ring's phase phi is the weak-limit quasi-momentum -phi
    phi = np.linspace(-np.pi, np.pi, 37)
    for dt in (0.3, 0.02):
        for branch, sign in (("plus", -1.0), ("minus", 1.0)):
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
