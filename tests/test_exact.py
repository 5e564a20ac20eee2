import numpy as np
import pytest
from scipy.linalg import expm

from diracwalk import (LatticeState, WalkInitConfig, build_initial_state,
                       compare_densities, energy_leakage, evolve,
                       evolve_exact_on_lattice, evolve_steps,
                       hamiltonian_matrix, lattice_to_spectral,
                       propagator_symbol, spectral_to_lattice,
                       u_plus_effective)
from diracwalk.spectral import _apply_symbol, ring_length


def evolve_exact(spec, t, branch="plus"):
    """Multiply every momentum mode by the closed-form propagator."""
    return _apply_symbol(spec, propagator_symbol(spec.grid.p, t, branch))


def propagator_matrix(p, t):
    """exp(-i H(p) t) as a 2x2 matrix, from the per-mode symbol."""
    return np.reshape(propagator_symbol(p, t), (2, 2))


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
    state = LatticeState(dt=0.05, m_min=-38, a_plus=z[0], a_minus=z[1])
    spec = lattice_to_spectral(state, ring_length(state.n_sites + 11))
    back = spectral_to_lattice(spec, m_min=-38, n_sites=77)
    assert np.abs(back.a_plus - state.a_plus).max() < 1e-12
    assert np.abs(back.a_minus - state.a_minus).max() < 1e-12
    # the dual grid's momentum step is 2 pi / (N dx)
    g = spec.grid
    assert g.p[1] - g.p[0] == pytest.approx(2 * np.pi / (g.n * g.dt),
                                            rel=1e-15)


def test_evolve_exact_time_zero_and_reversal():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    spec = lattice_to_spectral(state, ring_length(state.n_sites + 64))
    same = evolve_exact(spec, 0.0)
    assert np.abs(same.amp - spec.amp).max() < 1e-15
    fwd = evolve_exact(spec, 2.3)
    back = evolve_exact(fwd, -2.3)
    assert np.abs(back.amp - spec.amp).max() < 1e-12
    assert fwd.norm_sq() == pytest.approx(spec.norm_sq(), abs=1e-12)


def test_exact_evolution_preserves_positive_energy():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.02))
    assert energy_leakage(state) < 1e-8
    evolved = evolve_exact_on_lattice(state, 3.0)
    assert energy_leakage(evolved) < 1e-10


def test_fresh_state_leakage_negligible_both_branches():
    for branch in ("plus", "minus"):
        state = build_initial_state(WalkInitConfig(nu=1.5, dt=0.02,
                                                   branch=branch))
        assert energy_leakage(state, branch) < 1e-8


def test_leakage_rejects_unknown_branch():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    with pytest.raises(ValueError, match="branch"):
        energy_leakage(state, "minsu")
    # the walk refuses it too, also for n = 0, where no step is taken
    for n in (0, 1, -1):
        with pytest.raises(ValueError, match="branch"):
            evolve(state, n, "minsu")
    for n in (0, 1):
        with pytest.raises(ValueError, match="branch"):
            evolve_steps(state, n, "minsu")


def test_walk_leakage_decreases_with_dt():
    leaks = []
    for dt in (0.04, 0.02, 0.01):
        state = build_initial_state(WalkInitConfig(nu=1.0, dt=dt))
        walked = evolve(state, round(1.0 / dt))
        leaks.append(energy_leakage(walked))
    assert leaks[0] > leaks[1] > leaks[2] > 0.0


def test_compare_densities_identical_states():
    state = build_initial_state(WalkInitConfig(nu=2.0, dt=0.05))
    rep = compare_densities(state, state.copy())
    assert rep.l1 == 0.0 and rep.l2 == 0.0 and rep.sup == 0.0


def test_compare_densities_orthogonal_point_masses():
    one = LatticeState(dt=0.1, m_min=0, a_plus=np.array([1.0 + 0j]),
                       a_minus=np.zeros(1, dtype=complex))
    other = LatticeState(dt=0.1, m_min=5, a_plus=np.array([1.0 + 0j]),
                         a_minus=np.zeros(1, dtype=complex))
    rep = compare_densities(one, other)
    assert rep.l1 == pytest.approx(2.0, abs=1e-15)
    assert rep.sup == pytest.approx(1.0, abs=1e-15)


def test_compare_densities_rejects_grid_mismatch():
    a = LatticeState(dt=0.1, m_min=0, a_plus=np.array([1.0 + 0j]),
                     a_minus=np.zeros(1, dtype=complex))
    b = LatticeState(dt=0.2, m_min=0, a_plus=np.array([1.0 + 0j]),
                     a_minus=np.zeros(1, dtype=complex))
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
    spec = lattice_to_spectral(state, ring_length(state.n_sites + 32))
    w = u_plus_effective(spec.grid.p)
    overlap = np.conj(w[0]) * spec.amp[0] + np.conj(w[1]) * spec.amp[1]
    residual = spec.amp - overlap * w
    assert np.sqrt(np.sum(np.abs(residual) ** 2)) < 1e-7
