import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwalk import (LatticeState, NumericalHealthError, Tolerances,
                       WalkInitConfig, build_initial_state, empirical_moment,
                       evolve, position_distribution, spectral)
from diracwalk.constants import InputError
from diracwalk.walk import require_unit_norm
from oracles import (TwoRowState, as_branch, coin_matrix, coin_step,
                     evolve_steps, random_pi_state, shift_step, site_mirror,
                     step, two_row)


def single_site(spin, dt=0.1, m=0):
    """The oracle's two-row state with one spin up or down at site m."""
    a = np.zeros(1, dtype=complex)
    b = np.zeros(1, dtype=complex)
    if spin == "plus":
        a[0] = 1.0
    else:
        b[0] = 1.0
    return TwoRowState(dt=dt, m_min=m, a_plus=a, a_minus=b)


def pi_site(dt=0.1):
    """The unit-norm package state at site 0 alone: a+ = 1/sqrt(2), a- =
    i/sqrt(2)."""
    return LatticeState(dt=dt, a_plus=np.array([np.sqrt(0.5) + 0j]))


def density(state):
    """The site density of a package state or of an oracle state."""
    return state.density() if isinstance(state, TwoRowState) \
        else position_distribution(state)


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
    state = TwoRowState(dt=1e-300, m_min=0,
                        a_plus=np.array([0.6 + 0j]),
                        a_minus=np.array([0.8j]))
    out = coin_step(state)
    assert np.abs(out.a_plus - state.a_plus).max() < 1e-15
    assert np.abs(out.a_minus - state.a_minus).max() < 1e-15


def test_coin_preserves_norm():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = TwoRowState(dt=0.01, m_min=-16, a_plus=z[0], a_minus=z[1])
    assert abs(coin_step(state).norm_sq() - 1.0) < 1e-15


def test_shift_moves_spin_up_right():
    out = shift_step(single_site("plus"))
    prob = out.density()
    assert out.sites.tolist() == [-1, 0, 1]
    assert prob.tolist() == [0.0, 0.0, 1.0]


def test_shift_moves_spin_down_left():
    out = shift_step(single_site("minus"))
    assert out.density().tolist() == [1.0, 0.0, 0.0]


def test_shift_minus_branch_mirrors():
    out = shift_step(single_site("plus"), branch="minus")
    assert out.density().tolist() == [1.0, 0.0, 0.0]


def test_step_composition_hand_checked():
    # coin then shift on |m=0, +>: cos(dt) lands at m=+1 up, sin(dt) at m=-1 down
    dt = 0.1
    out = step(single_site("plus", dt=dt))
    assert out.a_plus[2] == pytest.approx(np.cos(dt), abs=1e-15)
    assert out.a_minus[0] == pytest.approx(np.sin(dt), abs=1e-15)
    assert abs(out.a_plus[0]) == 0.0 and abs(out.a_minus[2]) == 0.0
    prob = out.density()
    assert prob[2] == pytest.approx(np.cos(dt) ** 2, abs=1e-15)
    assert prob[0] == pytest.approx(np.sin(dt) ** 2, abs=1e-15)


def test_step_zero_angle_is_pure_shift():
    state = TwoRowState(dt=1e-300, m_min=0,
                        a_plus=np.array([0.6 + 0j]),
                        a_minus=np.array([0.8j]))
    out = step(state)
    assert out.a_plus[2] == pytest.approx(0.6, abs=1e-15)
    assert out.a_minus[0] == pytest.approx(0.8j, abs=1e-15)


def test_step_norm_preservation():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(2, 101)) + 1j * rng.normal(size=(2, 101))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = TwoRowState(dt=0.01, m_min=-50, a_plus=z[0], a_minus=z[1])
    assert abs(step(state).norm_sq() - 1.0) < 1e-15


def test_evolve_zero_steps_identity():
    state = pi_site()
    out = evolve(state, 0)
    assert out.sites.tolist() == state.sites.tolist()
    assert np.abs(out.a_plus - state.a_plus).max() == 0.0


@pytest.mark.parametrize("evolver", [evolve, evolve_steps],
                         ids=["evolve", "evolve_steps"])
def test_evolve_light_cone_exact_zero(evolver):
    # pad the initial support: everything beyond support +- n stays 0.0
    # bitwise; a+ at site 3 puts a- at site -3, so the support is -3..3
    pad = 40
    n = 25
    a = np.zeros(2 * pad + 1, dtype=complex)
    a[pad + 3] = np.sqrt(0.5)
    state = LatticeState(dt=0.2, a_plus=a)
    out = evolver(state, n)
    prob = density(out)
    sites = out.sites
    outside = np.abs(sites) > n + 3
    assert outside.sum() == 2 * (pad - 3)
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
    # with the drift taken from norm_sq after each step; "minus" runs on
    # the -1/2 packet, the mirrored +1/2 one
    state = as_branch(branch)(
        build_initial_state(WalkInitConfig(nu=2.0, dt=0.05)))
    n = 150
    ref, drift = two_row(state), []
    for _ in range(n):
        ref = step(ref, branch)
        drift.append(abs(ref.norm_sq() - 1.0))
    out = evolve_steps(state, n, branch)
    assert (out.m_min, out.n_sites) == (ref.m_min, ref.n_sites)
    assert np.array_equal(out.a_plus, ref.a_plus)
    assert np.array_equal(out.a_minus, ref.a_minus)
    assert np.array_equal(out.norm_drift, drift)


def test_evolve_aborts_on_bad_norm():
    # norm 1 + ~2.5e-9
    a = np.array([(1.0 + 5e-5j) * np.sqrt(0.5)], dtype=complex)
    state = LatticeState(dt=0.1, a_plus=a)
    with pytest.raises(NumericalHealthError, match="norm"):
        evolve(state, 1)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_lattice_state_refuses_dt_not_finite_and_positive(dt):
    with pytest.raises(ValueError,
                       match=r"^dt must be a number in \(0, inf\)"):
        pi_site(dt=dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                 complex(np.nan, 1.0)])
@pytest.mark.parametrize("name", ["a_plus", "a_minus"])
def test_lattice_state_refuses_nonfinite_amplitude(name, bad):
    # a NaN or inf amplitude is refused where a state is made, so
    # compare_densities and empirical_moment never see one; a-(1) is
    # i a+(-1), so a bad a- at site 1 is a bad a+ at site -1
    amp = np.full(5, 0.2 + 0j)
    site = 1 if name == "a_plus" else -1
    amp[site + 2] = bad
    with pytest.raises(ValueError, match=f"a_plus is not finite at site "
                       f"{site}$"):
        LatticeState(dt=0.1, a_plus=amp)
    # the oracle's two-row state refuses each row by its name
    rows = {"a_plus": np.full(5, 0.2 + 0j), "a_minus": np.full(5, 0.2 + 0j)}
    rows[name][3] = bad
    with pytest.raises(ValueError, match=f"{name} is not finite at site 1$"):
        TwoRowState(dt=0.1, m_min=-2, **rows)


@pytest.mark.parametrize("size", [0, 2, 4])
def test_lattice_state_refuses_a_window_not_symmetric(size):
    with pytest.raises(ValueError, match="odd number of sites"):
        LatticeState(dt=0.1, a_plus=np.full(size, 0.3 + 0j))
    with pytest.raises(ValueError, match="odd number of sites"):
        LatticeState(dt=0.1, a_plus=np.full((1, 3), 0.3 + 0j))
    # a ragged list, which numpy cannot shape, is refused by the same rule
    with pytest.raises(InputError, match="odd number of sites.*ragged list"):
        LatticeState(dt=0.1, a_plus=[[0.3] * (size + 2), [0.3]])


def test_unit_norm_gate_refuses_nan():
    # arrays can still be mutated after construction, so the gates refuse
    # what __post_init__ never saw.  NaN compares False with everything,
    # so a gate must fail unless the drift is <= its budget
    state = pi_site()
    state.a_plus[0] = np.nan
    with pytest.raises(NumericalHealthError, match="norm off by nan"):
        require_unit_norm(state)
    with pytest.raises(NumericalHealthError, match="norm off by nan"):
        evolve(state, 3)


def test_evolve_drift_gate_refuses_nan(monkeypatch):
    # the gate after the ring passes only a drift <= its budget, so a NaN
    # budget fails it as a NaN drift would
    monkeypatch.setattr(spectral, "TOL", Tolerances(norm_drift_abort=np.nan))
    with pytest.raises(NumericalHealthError, match="after 3 steps"):
        evolve(pi_site(), 3)


@pytest.mark.parametrize("n_steps", [1.5, 2.0, "2", None])
def test_evolve_refuses_a_step_count_not_an_integer(n_steps):
    with pytest.raises(ValueError, match=r"^n_steps must be an integer in "
                       rf"\(-inf, inf\), got {re.escape(repr(n_steps))}$"):
        evolve(pi_site(), n_steps)


def test_distribution_point_mass():
    prob = position_distribution(pi_site())
    assert prob.shape == (1,) and prob[0] == pytest.approx(1.0, abs=4e-16)


def test_distribution_symmetric_for_gaussian_packet():
    # the packet is invariant under the walk's sigma2 parity, so its
    # distribution mirrors at every step, bit for bit
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    out = evolve(state, 150)
    prob = position_distribution(out)
    assert prob.tobytes() == prob[::-1].tobytes()


def test_empirical_moments():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    out = evolve(state, 100)
    prob = position_distribution(out)
    assert empirical_moment(out.x, prob, 0) == pytest.approx(1.0, abs=1e-12)
    assert abs(empirical_moment(out.x, prob, 1)) < 1e-12
    assert empirical_moment(out.x, prob, 2) > 0.0
    assert empirical_moment(out.x, prob, 4) == np.sum(out.x ** 4 * prob)
    with pytest.raises(ValueError,
                       match=r"^k must be an integer in \[0, inf\)"):
        empirical_moment(out.x, prob, -1)


def test_reversibility():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.01))
    n = 2000
    back = evolve(evolve(state, n), -n)
    lo = state.m_min - back.m_min
    sl = slice(lo, lo + state.n_sites)
    assert np.abs(back.a_plus[sl] - state.a_plus).max() < 1e-9


def test_branch_mirror_hermitian_even_input():
    # for inputs with conj(a[-m]) = a[m] the minus branch equals the
    # parity-reflected plus branch on the same input: the mirrored "plus"
    # run of the mirrored input, and the "minus" step loop, both
    m = np.arange(-30, 31)
    b = 0.4 * np.exp(-m ** 2 / 50.0) * (1.0 + 0.3 * np.sin(m / 7.0) ** 2)
    even = LatticeState(dt=0.3, a_plus=b / np.sqrt(2.0 * np.sum(b ** 2)))
    p_plus = position_distribution(evolve(even, 40))
    for minus in (site_mirror(evolve(site_mirror(even), 40)),
                  evolve_steps(even, 40, "minus")):
        p_minus = density(minus)
        assert np.abs(p_minus - p_plus[::-1]).max() < 1e-12


def test_branch_mirror_helicity_pair():
    # the helicity-minus packet (the mirrored plus packet) evolved with the
    # "minus" step loop mirrors the helicity-plus packet evolved with the
    # plus branch
    sp = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    sm = site_mirror(sp)
    p_plus = position_distribution(evolve(sp, 120))
    p_minus = evolve_steps(sm, 120, "minus").density()
    assert np.abs(p_minus - p_plus[::-1]).max() < 1e-12


@pytest.mark.parametrize("nu, dt, n", [(2.5, 0.005, 2000), (1.0, 0.02, 500)])
def test_minus_step_loop_prints_the_plus_density(nu, dt, n):
    # the packets are sigma2-parity invariant, so their densities are their
    # own mirror: the -1/2 packet under the "minus" step loop gives the
    # plus `evolve` density site by site, not mirrored.  Measured, of the
    # peak: 2.2e-14 (the README state) and 2.6e-14 against `evolve`, the
    # step loop's own rounding (the "plus" loop is as far off), and
    # 2.0e-15 and 1.8e-15 against the "plus" step loop
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    minus = evolve_steps(site_mirror(state), n, "minus")
    plus = evolve(state, n)
    assert (minus.m_min, minus.n_sites) == (plus.m_min, plus.n_sites)
    p_minus, p_plus = minus.density(), position_distribution(plus)
    peak = p_plus.max()
    assert np.abs(p_minus - p_plus).max() <= 5e-14 * peak
    p_loop = evolve_steps(state, n).density()
    assert np.abs(p_minus - p_loop).max() <= 4e-15 * peak


def test_mirrored_is_a_contiguous_site_mirror():
    # the oracle's mirror moves site m to -m in new C-contiguous arrays, so
    # the mirrored density is the reversed density bit for bit; numpy's
    # abs rounds a reversed view differently (8.1e-20 off on this prob
    # column); a package state keeps the sigma2 parity under the mirror,
    # and mirrors to its a+ reversed
    walked = evolve(build_initial_state(WalkInitConfig(nu=2.5, dt=0.005)),
                    10_000)
    for state in (walked, two_row(walked)):
        mirror = site_mirror(state)
        assert type(mirror) is type(state)
        assert np.array_equal(mirror.sites, -state.sites[::-1])
        assert mirror.dt == state.dt \
            and mirror.norm_drift is state.norm_drift
        rows = ("a_plus",) if state is walked else ("a_plus", "a_minus")
        for row in rows:
            got, amp = getattr(mirror, row), getattr(state, row)
            assert got.flags.c_contiguous and not np.shares_memory(got, amp)
            assert np.array_equal(got, amp[::-1])
        assert np.array_equal(density(mirror), density(state)[::-1])
        twice = site_mirror(mirror)
        assert twice.m_min == state.m_min
        for row in rows:
            assert np.array_equal(getattr(twice, row), getattr(state, row))
    assert np.array_equal(two_row(site_mirror(walked)).a_minus,
                          site_mirror(two_row(walked)).a_minus)


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
    state = TwoRowState(dt=dt, m_min=-(width // 2), a_plus=z[0],
                        a_minus=z[1])
    out = step(state)
    assert abs(out.norm_sq() - 1.0) < 1e-13
    assert out.n_sites == width + 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 2 ** 32 - 1))
def test_density_is_a_palindrome_bit_for_bit(m_max, seed):
    # |a+|^2 formed once, contiguously, then q + q[::-1]: IEEE addition
    # commutes, so row -m prints as row m.  |a+[m]|^2 + |a+[-m]|^2 with
    # numpy's abs on the reversed view is not: its strided loop rounds
    # about a third of the sites differently at a few thousand sites
    state = random_pi_state(m_max, 0.01, seed)
    prob = position_distribution(state)
    assert prob.tobytes() == prob[::-1].tobytes()
    assert np.array_equal(prob, two_row(state).density())
