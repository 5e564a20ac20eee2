import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwalk import (LatticeState, NumericalHealthError, WalkInitConfig,
                       build_initial_state, coin_matrix, coin_step,
                       empirical_moment, evolve, evolve_steps,
                       position_distribution, shift_step, step)


def single_site(spin, dt=0.1, m=0):
    a = np.zeros(1, dtype=complex)
    b = np.zeros(1, dtype=complex)
    if spin == "plus":
        a[0] = 1.0
    else:
        b[0] = 1.0
    return LatticeState(dt=dt, m_min=m, a_plus=a, a_minus=b)


def test_coin_matrix_unitary():
    c = coin_matrix(0.37)
    assert np.abs(c @ c.conj().T - np.eye(2)).max() < 1e-14
    assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(coin_matrix(0.0) - np.eye(2)).max() == 0.0


def test_coin_quarter_turn():
    st0 = single_site("plus", dt=np.pi / 2)
    out = coin_step(st0)
    assert abs(out.a_plus[0]) < 1e-15
    assert out.a_minus[0] == pytest.approx(1.0, abs=1e-15)


def test_coin_zero_angle_is_identity():
    state = LatticeState(dt=1e-300, m_min=0,
                         a_plus=np.array([0.6 + 0j]),
                         a_minus=np.array([0.8j]))
    out = coin_step(state)
    assert np.abs(out.a_plus - state.a_plus).max() < 1e-15
    assert np.abs(out.a_minus - state.a_minus).max() < 1e-15


def test_coin_preserves_norm():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = LatticeState(dt=0.01, m_min=-16, a_plus=z[0], a_minus=z[1])
    assert abs(coin_step(state).norm_sq() - 1.0) < 1e-15


def test_shift_moves_spin_up_right():
    out = shift_step(single_site("plus"))
    prob = position_distribution(out)
    assert out.sites.tolist() == [-1, 0, 1]
    assert prob.tolist() == [0.0, 0.0, 1.0]


def test_shift_moves_spin_down_left():
    out = shift_step(single_site("minus"))
    assert position_distribution(out).tolist() == [1.0, 0.0, 0.0]


def test_shift_minus_branch_mirrors():
    out = shift_step(single_site("plus"), branch="minus")
    assert position_distribution(out).tolist() == [1.0, 0.0, 0.0]


def test_step_composition_hand_checked():
    # coin then shift on |m=0, +>: cos(dt) lands at m=+1 up, sin(dt) at m=-1 down
    dt = 0.1
    out = step(single_site("plus", dt=dt))
    assert out.a_plus[2] == pytest.approx(np.cos(dt), abs=1e-15)
    assert out.a_minus[0] == pytest.approx(np.sin(dt), abs=1e-15)
    assert abs(out.a_plus[0]) == 0.0 and abs(out.a_minus[2]) == 0.0
    prob = position_distribution(out)
    assert prob[2] == pytest.approx(np.cos(dt) ** 2, abs=1e-15)
    assert prob[0] == pytest.approx(np.sin(dt) ** 2, abs=1e-15)


def test_step_zero_angle_is_pure_shift():
    state = LatticeState(dt=1e-300, m_min=0,
                         a_plus=np.array([0.6 + 0j]),
                         a_minus=np.array([0.8j]))
    out = step(state)
    assert out.a_plus[2] == pytest.approx(0.6, abs=1e-15)
    assert out.a_minus[0] == pytest.approx(0.8j, abs=1e-15)


def test_step_norm_preservation():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(2, 101)) + 1j * rng.normal(size=(2, 101))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = LatticeState(dt=0.01, m_min=-50, a_plus=z[0], a_minus=z[1])
    assert abs(step(state).norm_sq() - 1.0) < 1e-15


def test_evolve_zero_steps_identity():
    state = single_site("plus")
    out = evolve(state, 0)
    assert out.sites.tolist() == state.sites.tolist()
    assert np.abs(out.a_plus - state.a_plus).max() == 0.0


@pytest.mark.parametrize("evolver", [evolve, evolve_steps],
                         ids=["evolve", "evolve_steps"])
def test_evolve_light_cone_exact_zero(evolver):
    # pad the initial support: everything beyond support +- n stays 0.0 bitwise
    pad = 40
    n = 25
    a = np.zeros(2 * pad + 1, dtype=complex)
    a[pad] = 1.0
    state = LatticeState(dt=0.2, m_min=-pad, a_plus=a,
                         a_minus=np.zeros_like(a))
    out = evolver(state, n)
    prob = position_distribution(out)
    sites = out.sites
    outside = np.abs(sites) > n
    assert np.all(prob[outside] == 0.0)
    # support width grows by exactly one site per side per step
    assert out.n_sites == state.n_sites + 2 * n
    assert out.m_min == state.m_min - n


def test_evolve_records_drift_and_stays_unitary():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    out = evolve_steps(state, 200)
    assert out.norm_drift.shape == (200,)
    assert out.norm_drift.max() < 1e-12


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_evolve_steps_is_bitwise_the_step_chain(branch):
    # the in-place loop against the allocating reference: `step` n times,
    # with the drift taken from norm_sq after each step
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05, branch=branch))
    n = 150
    ref, drift = state, []
    for _ in range(n):
        ref = step(ref, branch)
        drift.append(abs(ref.norm_sq() - 1.0))
    out = evolve_steps(state, n, branch)
    assert (out.m_min, out.n_sites) == (ref.m_min, ref.n_sites)
    assert np.array_equal(out.a_plus, ref.a_plus)
    assert np.array_equal(out.a_minus, ref.a_minus)
    assert np.array_equal(out.norm_drift, drift)


def test_evolve_aborts_on_bad_norm():
    a = np.array([1.0 + 5e-5j], dtype=complex)  # norm 1 + ~2.5e-9
    state = LatticeState(dt=0.1, m_min=0, a_plus=a,
                         a_minus=np.zeros(1, dtype=complex))
    with pytest.raises(NumericalHealthError, match="norm"):
        evolve(state, 1)


def test_distribution_point_mass():
    prob = position_distribution(single_site("plus"))
    assert prob.tolist() == [1.0]


def test_distribution_symmetric_for_gaussian_packet():
    # the packet is invariant under the walk's parity+conjugation symmetry,
    # so its distribution mirrors exactly at every step
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    out = evolve(state, 150)
    prob = position_distribution(out)
    assert np.abs(prob - prob[::-1]).max() < 1e-12


def test_empirical_moments():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    out = evolve(state, 100)
    assert empirical_moment(out, 0) == pytest.approx(1.0, abs=1e-12)
    assert abs(empirical_moment(out, 1)) < 1e-12
    assert empirical_moment(out, 2) > 0.0


def test_reversibility():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.01))
    n = 2000
    back = evolve(evolve(state, n), -n)
    lo = state.m_min - back.m_min
    sl = slice(lo, lo + state.n_sites)
    err = max(np.abs(back.a_plus[sl] - state.a_plus).max(),
              np.abs(back.a_minus[sl] - state.a_minus).max())
    assert err < 1e-9


def test_branch_mirror_hermitian_even_input():
    # for inputs with conj(a[-m]) = a[m] the minus branch equals the
    # parity-reflected plus branch on the same input
    m = np.arange(-30, 31)
    a = np.exp(-m ** 2 / 80.0)
    b = 0.4 * np.exp(-m ** 2 / 50.0)
    norm = np.sqrt(np.sum(a ** 2 + b ** 2))
    swapped = LatticeState(dt=0.3, m_min=-30, a_plus=b / norm,
                           a_minus=a / norm)
    p_minus = position_distribution(evolve(swapped, 40, branch="minus"))
    p_plus = position_distribution(evolve(swapped, 40, branch="plus"))
    assert np.abs(p_minus - p_plus[::-1]).max() < 1e-12


def test_branch_mirror_helicity_pair():
    # the helicity-minus packet evolved with the minus branch mirrors the
    # helicity-plus packet evolved with the plus branch
    sp = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02, branch="plus"))
    sm = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02, branch="minus"))
    p_plus = position_distribution(evolve(sp, 120, branch="plus"))
    p_minus = position_distribution(evolve(sm, 120, branch="minus"))
    assert np.abs(p_minus - p_plus[::-1]).max() < 1e-12


def test_fiber_sites_stay_integral():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    out = evolve(state, 17)
    assert out.m_min == state.m_min - 17
    assert out.sites.dtype.kind == "i"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.floats(0.01, 1.5, allow_nan=False))
def test_step_unitary_property(width, dt):
    rng = np.random.default_rng(width)
    z = rng.normal(size=(2, width)) + 1j * rng.normal(size=(2, width))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = LatticeState(dt=dt, m_min=-(width // 2), a_plus=z[0],
                         a_minus=z[1])
    out = step(state)
    assert abs(out.norm_sq() - 1.0) < 1e-13
    assert out.n_sites == width + 2
