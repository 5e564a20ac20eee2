import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erf

from diracwalk import (TOL, LatticeState, NumericalHealthError,
                       WalkInitConfig, build_initial_state, compare_densities,
                       empirical_moment, energy_leakage, evolve,
                       evolve_exact_on_lattice, limit_density_mass,
                       limit_moment, position_distribution, propagator_symbol)
from diracwalk.spectral import ring_length
from oracles import (TwoRowState, as_branch, evolve_steps,
                     hamiltonian_matrix, modes_to_window, random_pi_state,
                     ring_momenta, sigma2_parity_defect, site_mirror,
                     stacked_energy_leakage, stacked_exact, stacked_ring,
                     stacked_symbol, stacked_walk, su2_entries, two_row,
                     two_row_packet, u_plus_effective, unitary_modes)


EPS = np.finfo(np.float64).eps


def propagator_matrix(p, t):
    """exp(-i H(p) t) as a 2x2 matrix, from the per-mode pair."""
    return np.reshape(su2_entries(*propagator_symbol(p, t)), (2, 2))


def positive_energy_projector(p):
    """Projector onto the positive-energy spinor u+(p) that
    ``energy_leakage`` overlaps with."""
    w = u_plus_effective(p)
    return np.outer(w, np.conj(w))


def test_propagator_at_t_zero():
    assert np.abs(propagator_matrix(1.7, 0.0) - np.eye(2)).max() < 1e-15


def test_propagator_at_p_zero_is_plane_rotation():
    t = 0.9
    sigma2 = np.array([[0, -1j], [1j, 0]])
    want = np.cos(t) * np.eye(2) - 1j * np.sin(t) * sigma2
    assert np.abs(propagator_matrix(0.0, t) - want).max() < 1e-15


def test_propagator_matches_expm_oracle():
    # independent scaling-and-squaring matrix exponential
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.uniform(-10, 10)
        t = rng.uniform(0, 5)
        oracle = expm(-1j * hamiltonian_matrix(p) * t)
        assert np.abs(propagator_matrix(p, t) - oracle).max() < 1e-10


def test_propagator_specific_point_against_oracle():
    oracle = expm(-1j * hamiltonian_matrix(1.3) * 0.7)
    assert np.abs(propagator_matrix(1.3, 0.7) - oracle).max() < 1e-10


def test_propagator_unitary_and_group_law():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rng.uniform(-8, 8)
        t1, t2 = rng.uniform(0, 3, 2)
        u1 = propagator_matrix(p, t1)
        u2 = propagator_matrix(p, t2)
        u12 = propagator_matrix(p, t1 + t2)
        assert np.abs(u1 @ u1.conj().T - np.eye(2)).max() < 1e-13
        assert np.abs(u12 - u2 @ u1).max() < 1e-12


def test_projector_at_rest():
    w = np.array([1.0, 1.0j]) / np.sqrt(2)
    assert np.abs(positive_energy_projector(0.0) - np.outer(w, w.conj())).max() < 1e-15


def test_projector_idempotent_trace_one():
    for p in (-4.2, 0.1, 7.7):
        proj = positive_energy_projector(p)
        assert np.abs(proj - proj.conj().T).max() < 1e-14
        assert np.abs(proj @ proj - proj).max() < 1e-13
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-14)


def test_projector_commutes_with_propagator():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = rng.uniform(-8, 8)
        t = rng.uniform(0, 4)
        proj = positive_energy_projector(p)
        u = propagator_matrix(p, t)
        assert np.abs(proj @ u - u @ proj).max() < 1e-12


def test_fourier_round_trip_identity():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(2, 77)) + 1j * rng.normal(size=(2, 77))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    state = TwoRowState(dt=0.05, m_min=-38, a_plus=z[0], a_minus=z[1])
    n = ring_length(state.n_sites + 11)
    back = modes_to_window(unitary_modes(state, n), state.dt, m_min=-38,
                           n_sites=77)
    assert np.abs(back.a_plus - state.a_plus).max() < 1e-12
    assert np.abs(back.a_minus - state.a_minus).max() < 1e-12
    # the dual grid's momentum step is 2 pi / (N dx)
    p = ring_momenta(n, state.dt)
    assert p[1] - p[0] == pytest.approx(2 * np.pi / (n * state.dt),
                                        rel=1e-15)


def test_evolve_exact_time_zero_and_reversal():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    n = ring_length(state.n_sites + 64)
    amp = unitary_modes(state, n)
    p = ring_momenta(n, state.dt)
    same = stacked_symbol(amp, su2_entries(*propagator_symbol(p, 0.0)))
    assert np.abs(same - amp).max() < 1e-15
    fwd = stacked_symbol(amp, su2_entries(*propagator_symbol(p, 2.3)))
    back = stacked_symbol(fwd, su2_entries(*propagator_symbol(p, -2.3)))
    assert np.abs(back - amp).max() < 1e-12
    assert np.sum(np.abs(fwd) ** 2) == pytest.approx(
        np.sum(np.abs(amp) ** 2), abs=1e-12)


# how far the leakage may sit from the stacked overlap, relative, on a
# packet, its walk and its exact evolution: the walked value to 13 digits,
# the other two at their floor, 1e-29, to 2 (see the tests below)
LEAKAGE_REL = (2e-2, 1e-13, 2e-2)


@pytest.mark.parametrize("nu, dt, n, branch", [(2.5, 0.005, 10_000, "plus"),
                                               (1.0, 0.02, 100, "minus"),
                                               (10.0, 0.002, 3000, "plus"),
                                               (2.0, 0.05, -37, "minus")])
def test_ring_in_one_buffer_matches_stacked_oracle(nu, dt, n, branch):
    # the ring of a+ alone against the stacked ring of both rows, each
    # through its own transform, and a "minus" run (the mirrored "plus"
    # run of the mirrored packet) with it: measured <= 2.9e-17 apart, the
    # drifts <= 1.1e-16
    mirror = as_branch(branch)
    state = mirror(build_initial_state(WalkInitConfig(nu=nu, dt=dt)))

    def runs():
        return [mirror(run(mirror(state), arg))
                for run, arg in ((evolve, n),
                                 (evolve_exact_on_lattice, n * dt))]
    got = runs()
    with stacked_ring():
        want = runs()
    for g, w in zip(got, want):
        assert (g.m_min, g.n_sites) == (w.m_min, w.n_sites)
        assert np.abs(g.a_plus - w.a_plus).max() <= 5e-17
    assert abs(got[0].norm_drift[0] - want[0].norm_drift[0]) <= 4.5e-16
    for s, rel in zip([state] + got, LEAKAGE_REL):
        leak = energy_leakage(mirror(s))
        # the stacked overlap, and the oracle's own "minus" leakage, u-(p)
        # on the unmirrored ring
        for want_leak in (stacked_energy_leakage(mirror(s)),
                          stacked_energy_leakage(s, branch)):
            assert abs(leak - want_leak) <= rel * want_leak


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
       st.integers(-300, 300), st.floats(-2.0, 2.0))
def test_minus_branch_is_the_site_mirror_of_plus(m_max, seed, dt, n, t):
    # M-(phi) = M+(-phi) and H-(p) = H+(-p): on any sigma2-invariant
    # state, the mirrored "plus" run of the mirrored state is the oracle's
    # own "minus" run of both rows, the stacked ring with the four-entry
    # "minus" symbols (the walk's even rings' Nyquist mode included), and
    # for n >= 0 the "minus" step loop.  These white-spectrum states put
    # weight at every mode, so a- and the norm are held to the oracle's
    # too (exact evolution's window cuts off as much of either): on an
    # even ring's Nyquist mode, a+ alone would lose up to 31% of that
    # mode's weight to the propagator at dt 0.5, so exact evolution's
    # rings are odd
    state = random_pi_state(m_max, dt, seed)
    pairs = [(evolve, stacked_walk, n),
             (evolve_exact_on_lattice, stacked_exact, t)]
    if n >= 0:
        pairs.append((evolve, evolve_steps, n))
    for run, oracle, arg in pairs:
        got = two_row(site_mirror(run(site_mirror(state), arg)))
        want = oracle(state, arg, "minus")
        assert abs(got.norm_sq() - want.norm_sq()) <= 1e-13
        assert (got.m_min, got.n_sites) == (want.m_min, want.n_sites)
        assert np.abs(got.a_plus - want.a_plus).max() < 1e-12
        assert np.abs(got.a_minus - want.a_minus).max() < 1e-12


@pytest.mark.filterwarnings("ignore:dt\\*E0")
@settings(max_examples=50, deadline=None)
@given(st.floats(0.5, 10.0), st.floats(0.002, 0.04),
       st.sampled_from(["plus", "minus"]),
       st.floats(-5.0, 5.0, exclude_min=True, exclude_max=True),
       st.floats(-5.0, 5.0, exclude_min=True, exclude_max=True))
def test_exact_evolution_group_law(nu, dt, branch, t1, t2):
    # evolving for t1 and then t2 is evolving for t1 + t2, on the sites of
    # the narrower window; measured <= 2.0e-15 (nu 10, dt 0.04, |t1|, |t2|
    # near 5) and <= 1.5e-15 over 600 random configs.  The states are the
    # package's wavepackets: on white-spectrum random_phase_state states
    # the cone + 128-site window cuts off up to 2.8e-4 of the norm, and
    # the law misses by up to 1.2e-2 (a FOUND line in CHANGES.md)
    # the "minus" evolution is the mirrored "plus" one, on the mirrored
    # packet
    mirror = as_branch(branch)
    state = mirror(build_initial_state(WalkInitConfig(nu=nu, dt=dt)))

    def run(s, t):
        return mirror(evolve_exact_on_lattice(mirror(s), t))
    once = run(state, t1 + t2)
    twice = run(run(state, t1), t2)
    lo = once.m_min - twice.m_min
    got = twice.a_plus[lo:lo + once.n_sites]
    assert np.abs(got - once.a_plus).max() <= 4e-15


def test_leakage_refuses_weight_at_nyquist_band():
    # a+ ~ (-1)^m puts almost all weight at p = pi/dt
    m = np.arange(-20, 21)
    a_plus = (-1.0) ** m / np.sqrt(2 * m.size) + 0j
    state = LatticeState(dt=0.05, a_plus=a_plus)
    with pytest.raises(NumericalHealthError,
                       match=r"weight 9\.542e-01 .*Nyquist"):
        energy_leakage(state)


def test_leakage_refuses_nan_state():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    for bad in (np.nan, np.inf):
        state.a_plus[state.n_sites // 2] = bad
        with pytest.raises(NumericalHealthError, match="not finite"):
            energy_leakage(state)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_exact_evolution_refuses_nonfinite_t(t):
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    with pytest.raises(ValueError,
                       match=r"^t must be a number in \(-inf, inf\)"):
        evolve_exact_on_lattice(state, t)


def test_exact_evolution_preserves_positive_energy():
    # the leakage keeps its own digits: the packet's floor, set by its
    # window cut at 1e-14 of the peak, and no more after exact evolution.
    # Measured 9.5e-30 and 5.0e-29; over the README packets 4.4e-30 to
    # 5.4e-29 built, and 1.5e-29 to 1.9e-28 evolved for t up to 50
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    assert energy_leakage(state) <= 2e-29
    evolved = evolve_exact_on_lattice(state, 3.0)
    assert energy_leakage(evolved) <= 1e-28


def test_fresh_state_leakage_negligible_both_branches():
    # the "minus" packet is the mirrored "plus" packet; the oracle's
    # leakage takes it on its own "minus" ring, with u-(p)
    state = build_initial_state(WalkInitConfig(nu=1.5, dt=0.02))
    assert energy_leakage(state) <= 2e-29  # measured 7.4e-30
    assert stacked_energy_leakage(state) <= 2e-29
    assert stacked_energy_leakage(site_mirror(state), "minus") <= 2e-29


def test_leakage_rejects_unknown_branch():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    with pytest.raises(ValueError, match="branch"):
        energy_leakage(state, "minsu")
    # the step loop refuses it too, also for n = 0, where no step is taken
    for n in (0, 1):
        with pytest.raises(ValueError, match="branch"):
            evolve_steps(state, n, "minsu")


def test_leakage_refuses_the_minus_branch():
    # the package computes the "plus" branch only; "plus" is the default
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    assert energy_leakage(state, "plus") == energy_leakage(state)
    with pytest.raises(ValueError, match="'plus' only, got 'minus'"):
        energy_leakage(state, "minus")


@pytest.mark.parametrize("nu, dt, t", [(2.5, 0.005, 1.0), (10.0, 0.002, 50.0),
                                       (1.0, 0.02, 2.0), (1.0, 0.01, 2.0),
                                       (1.0, 0.005, 2.0), (0.5, 0.05, 3.0)])
def test_leakage_is_the_overlap_oracle_bit_for_bit(nu, dt, t):
    # the pair (W-, W+) on the unfolded pairs (u(k), u(n - k)) of a+'s
    # ring is the overlap with v = (W-, -i W+) of the two-row ring, each
    # row through its own transform.  Not bit for bit, despite the name:
    # the two transforms round apart, so the leakage is held to the
    # oracle within LEAKAGE_REL.  It keeps its digits at the packet's
    # floor, 1e-29, where 1 - kept/norm read 0 or +-1e-16.  Measured
    # apart, relative: walked states <= 3.7e-14, built and exactly evolved
    # ones (their floor) <= 5.4e-3
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    n = int(round(t / dt))
    runs = (state, evolve(state, n), evolve_exact_on_lattice(state, n * dt))
    for s, rel in zip(runs, LEAKAGE_REL):
        want = stacked_energy_leakage(s)
        assert abs(energy_leakage(s) - want) <= rel * want
    assert 1e-7 < energy_leakage(runs[1])
    assert max(energy_leakage(runs[0]), energy_leakage(runs[2])) <= 3e-28


def test_leakage_memory_per_site():
    # traced peak of one call on the benchmark's sharp exact state (nu 10,
    # dt 0.002, t 50), over its ring: the ring of a+ is 16 B of it, the
    # momenta and the two weights of modes 0..n // 2 12 B, the mirrored
    # modes 8 B, the kernel's two complex temporaries on those modes 16 B
    # (measured 53.7)
    state = evolve_exact_on_lattice(
        build_initial_state(WalkInitConfig(nu=10.0, dt=0.002)), 50.0)
    energy_leakage(state)  # FFT plans and caches built outside
    tracemalloc.start()
    try:
        energy_leakage(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ring = ring_length(state.n_sites + 16)
    assert ring == 77_616
    assert peak / ring <= 54.0


@pytest.mark.parametrize("nu, dt", [(2.5, 0.005), (10.0, 0.002), (1.0, 0.02),
                                    (0.5, 0.05)])
def test_packets_and_their_runs_keep_the_sigma2_parity(nu, dt):
    # H(p) = sigma3 p + sigma2 has sigma2 H(-p) sigma2 = H(p), the coin is
    # exp(-i sigma2 dt) and sigma2 swaps the shift's diag(e^{i phi},
    # e^{-i phi}) with its mirror, and sigma2 u+(-p) = u+(p) with f_nu
    # even: the packet, its walk and its exact evolution all keep
    # (Pi a)(m) = sigma2 a(-m), that is a-(m) = i a+(-m).  This is why the
    # package keeps a+ alone.  On both rows, each from its own transform
    # (the oracle's packet and stacked ring), the defect is a rounding
    # residue: at these four configs on X86_V4 and X86_V3 it measured
    # 1.5 to 2.7 eps times the packet's peak on the packets and at most
    # 3.71 (nu 10, exact, X86_V3) after 2,000 walk steps or the same time
    # of exact evolution; the bound is 6 eps.  The two transforms are not
    # exact mirrors, so the packet's a+ row is the package's to 2.7e-16 of
    # the peak (measured), and at nu 2.5 the oracle keeps one more site at
    # each edge, 1.0007e-14 of its peak
    cfg = WalkInitConfig(nu=nu, dt=dt)
    packet = two_row_packet(cfg)
    built = build_initial_state(cfg)
    cut = built.m_min - packet.m_min  # the oracle's extra sites per side
    assert cut in (0, 1) and packet.n_sites == built.n_sites + 2 * cut
    mag = np.maximum(np.abs(packet.a_plus), np.abs(packet.a_minus))
    peak = mag.max()
    edges = np.concatenate((mag[:cut], mag[mag.size - cut:]))
    assert np.all(edges < 1.01 * TOL.window_rel * peak)
    inner = packet.a_plus[cut:packet.n_sites - cut]
    assert np.abs(inner - built.a_plus).max() <= \
        1e-15 * np.abs(built.a_plus).max()
    n = 2000
    for run in (packet, stacked_walk(packet, n),
                stacked_exact(packet, n * dt)):
        assert sigma2_parity_defect(run) <= 6 * EPS * peak


def test_walk_leakage_decreases_with_dt():
    leaks = []
    for dt in (0.04, 0.02, 0.01):
        state = build_initial_state(WalkInitConfig(nu=1.0, dt=dt))
        walked = evolve(state, round(1.0 / dt))
        leaks.append(energy_leakage(walked))
    assert leaks[0] > leaks[1] > leaks[2] > 0.0


def test_compare_densities_identical_states():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    copy = replace(state, a_plus=state.a_plus.copy())
    rep = compare_densities(state, copy)
    assert rep.l1 == 0.0 and rep.l2 == 0.0 and rep.sup == 0.0


def site_pair(dt, m):
    """The unit-norm state with a+ at site m alone, so a- at site -m."""
    a_plus = np.zeros(2 * m + 1, dtype=complex)
    a_plus[-1] = np.sqrt(0.5)
    return LatticeState(dt=dt, a_plus=a_plus)


def test_compare_densities_orthogonal_point_masses():
    # all of one at site 0, half of the other at each of sites -5 and 5
    rep = compare_densities(site_pair(0.1, 0), site_pair(0.1, 5))
    assert rep.l1 == pytest.approx(2.0, abs=1e-15)
    assert rep.sup == pytest.approx(1.0, abs=1e-15)


def test_compare_densities_rejects_grid_mismatch():
    a, b = site_pair(0.1, 0), site_pair(0.2, 0)
    with pytest.raises(ValueError, match="spacing"):
        compare_densities(a, b)


def test_exact_matches_walk_at_first_order():
    # one Trotter-order check at moderate resolution
    state = build_initial_state(WalkInitConfig(nu=1.0, dt=0.02))
    n = 50
    walked = evolve(state, n)
    exact = evolve_exact_on_lattice(state, n * 0.02)
    rep = compare_densities(walked, exact)
    assert 0.0 < rep.l1 < 0.01


def test_spectral_content_matches_effective_spinor():
    # the packet's per-mode amplitudes align with u+(p) by construction
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    n = ring_length(state.n_sites + 32)
    amp = unitary_modes(state, n)
    w = u_plus_effective(ring_momenta(n, state.dt))
    overlap = np.conj(w[0]) * amp[0] + np.conj(w[1]) * amp[1]
    residual = amp - overlap * w
    assert np.sqrt(np.sum(np.abs(residual) ** 2)) < 1e-7


# ------------------------------- the Dirac particle's own spreading

def moment(state, k):
    return empirical_moment(state.x, position_distribution(state), k)


@pytest.mark.parametrize("nu, dt", [(1.0, 0.02), (2.5, 0.005), (10.0, 0.002)])
def test_exact_evolution_spreads_ballistically(nu, dt):
    # E[x^2](t) = E[x0^2] + t^2 E[(p/E)^2] for a packet with no <x0 v>
    # term, and E[(p/E)^2] is the limit law's second moment.  Measured
    # over t = 1, 7, 50 and 200: at most 3.4e-16, 8.5e-16 and 7.9e-16
    # relative (3.8 eps), on X86_V4 and X86_V3.  A propagator with t (1 +
    # 1e-8) reads 2.0e-8, one with m^2 = 1 + 1e-8 reads 1.25e-8
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    start, want = moment(state, 2), limit_moment(2, nu)
    for t in (1.0, 7.0, 50.0, 200.0):
        spread = (moment(evolve_exact_on_lattice(state, t), 2) - start) / t**2
        assert abs(spread - want) <= 8 * EPS * want, (t, spread, want)


@pytest.mark.parametrize("nu, dt", [(1.0, 0.02), (2.5, 0.005)])
def test_exact_fourth_moment_is_an_even_quartic_in_t(nu, dt):
    # an even quartic fitted at t = 0, 10, 20 and 40 predicts E[x^4] at
    # t = 80 and 160 (measured 2.2e-15 and 4.9e-16 relative, 9.7 eps), and
    # its t^4 coefficient is the limit law's fourth moment (2.6e-15, 11.9
    # eps)
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    ts = np.array([0.0, 10.0, 20.0, 40.0])
    fourth = [moment(evolve_exact_on_lattice(state, t), 4) for t in ts]
    powers = np.stack((np.ones_like(ts), ts**2, ts**4), axis=1)
    coeffs = np.linalg.lstsq(powers, fourth, rcond=None)[0]
    want = limit_moment(4, nu)
    assert abs(coeffs[2] - want) <= 16 * EPS * want, (coeffs[2], want)
    for t in (80.0, 160.0):
        got = moment(evolve_exact_on_lattice(state, t), 4)
        predicted = coeffs @ [1.0, t**2, t**4]
        assert abs(predicted - got) <= 16 * EPS * got, (t, predicted, got)


def limit_law_cdf(y, nu):
    """P(Y <= y) of the limit density, ``limit_density_mass(-1, y, nu)``
    vectorized: (1 + erf(u / nu)) / 2, u = y / sqrt(1 - y^2)."""
    one = (1.0 - y) * (1.0 + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = 0.5 * (1.0 + erf(y / (nu * np.sqrt(one))))
    return np.where(np.abs(y) < 1.0, inside, (y > 0.0) * 1.0)


def test_exact_evolution_converges_in_law_at_second_order():
    # the Kolmogorov distance of x/t from the limit law, over the sites'
    # upper edges, falls as 1/t^2 with no 1/t term: measured 1.74e-4,
    # 4.39e-5, 1.10e-5 and 2.75e-6 at t = 100..800, ratios 3.976, 3.994
    # and 3.999, slope -1.9964
    nu, dt = 1.0, 0.02
    ys = np.array([-1.0, -0.9, -0.3, 0.0, 0.4, 0.99, 1.0])
    assert limit_law_cdf(ys, nu) == pytest.approx(
        [limit_density_mass(-1.0, y, nu) for y in ys], abs=1e-15)
    state = build_initial_state(WalkInitConfig(nu=nu, dt=dt))
    ts = np.array([100.0, 200.0, 400.0, 800.0])
    gaps = []
    for t in ts:
        run = evolve_exact_on_lattice(state, t)
        cdf = np.cumsum(position_distribution(run))
        law = limit_law_cdf((run.x + dt / 2) / t, nu)
        gaps.append(np.abs(cdf - law).max())
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert gaps[0] <= 1.8e-4, gaps
    assert np.all((3.95 < ratios) & (ratios < 4.05)), ratios
    slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
    assert -2.01 < slope < -1.99, slope
