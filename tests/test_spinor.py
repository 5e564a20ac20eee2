import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwalk import energy, spinor_weights
from oracles import (dirac_representation, hamiltonian4, hamiltonian_matrix,
                     reduce_effective, u_minus4, u_plus4)

I2 = np.eye(2)
I4 = np.eye(4)


def test_dirac_algebra():
    rep = dirac_representation()
    assert np.abs(rep.alpha @ rep.alpha - I4).max() < 1e-14
    assert np.abs(rep.beta @ rep.beta - I4).max() < 1e-14
    assert np.abs(rep.alpha @ rep.beta + rep.beta @ rep.alpha).max() < 1e-14
    for m in (rep.alpha, rep.beta, rep.helicity):
        assert np.abs(m - m.conj().T).max() < 1e-14


@pytest.mark.parametrize("p, expected", [(0.0, 1.0), (np.sqrt(3.0), 2.0),
                                         (0.75, 1.25)])
def test_energy_values(p, expected):
    assert energy(p) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_energy_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        energy(bad)


def test_hamiltonian_matrix_at_zero_is_sigma2():
    sigma2 = np.array([[0, -1j], [1j, 0]])
    assert np.abs(hamiltonian_matrix(0.0) - sigma2).max() == 0.0


def test_hamiltonian_matrix_eigenvalues():
    # p=1: eigenvalues +-sqrt(2); random p against an independent eigensolver
    assert np.allclose(sorted(np.linalg.eigvalsh(hamiltonian_matrix(1.0))),
                       [-np.sqrt(2), np.sqrt(2)], atol=1e-14)
    rng = np.random.default_rng(11)
    for p in rng.uniform(-10, 10, 20):
        eig = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(p)))
        assert np.allclose(eig, [-energy(p), energy(p)], atol=1e-12)


def test_hamiltonian_squares_to_energy():
    for p in (-3.2, 0.0, 0.4, 8.0):
        h = hamiltonian_matrix(p)
        assert np.abs(h @ h - (p * p + 1) * I2).max() < 1e-14


def test_spinor_relations_random_sweep():
    # orthonormality, H u = E u and helicity +-1/2, 200 draws in [-10, 10]
    rng = np.random.default_rng(0)
    rep = dirac_representation()
    worst = 0.0
    for p in rng.uniform(-10, 10, 200):
        up, um = u_plus4(p), u_minus4(p)
        h4 = hamiltonian4(p)
        e = energy(p)
        worst = max(
            worst,
            abs(np.vdot(up.u4, up.u4) - 1.0),
            abs(np.vdot(um.u4, um.u4) - 1.0),
            abs(np.vdot(up.u4, um.u4)),
            abs(np.vdot(um.u4, up.u4)),
            float(np.abs(h4 @ up.u4 - e * up.u4).max()),
            float(np.abs(h4 @ um.u4 - e * um.u4).max()),
            float(np.abs(rep.helicity @ up.u4 - 0.5 * up.u4).max()),
            float(np.abs(rep.helicity @ um.u4 + 0.5 * um.u4).max()),
        )
    assert worst < 1e-12


def test_effective_spinor_at_rest():
    u2 = u_plus4(0.0).u2
    assert np.allclose(u2, np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-15)


def test_eigen_relation_at_p3():
    up = u_plus4(3.0)
    assert up.energy == pytest.approx(np.sqrt(10.0), rel=1e-15)
    assert np.abs(hamiltonian4(3.0) @ up.u4 - np.sqrt(10.0) * up.u4).max() < 1e-13


def test_weights_identities():
    p = np.linspace(-9, 9, 301)
    wp, wm = spinor_weights(p)
    assert np.abs(wp ** 2 + wm ** 2 - 1.0).max() < 1e-14
    assert np.abs(wp[::-1] - wm).max() < 1e-14  # W+(-p) = W-(p)


def test_reduce_effective_plain_product():
    out = reduce_effective(np.array([2.0, 0.0, 3.0j, 0.0]))
    assert np.allclose(out, [2.0, 3.0j])
    out = reduce_effective(np.array([0.0, 1.0j, 0.0, -1.0]))
    assert np.allclose(out, [1.0j, -1.0])


def test_reduce_effective_recovers_closed_form():
    for p in (-2.0, 0.3, 5.5):
        sp = u_plus4(p)
        assert np.abs(reduce_effective(sp.u4) - sp.u2).max() < 1e-15
        sm = u_minus4(p)
        assert np.abs(reduce_effective(sm.u4) - sm.u2).max() < 1e-15


def test_reduce_effective_rejects_mixed():
    mixed = np.array([1.0, 0.5, 0.0, 0.0]) / np.sqrt(1.25)
    with pytest.raises(ValueError, match="mixed"):
        reduce_effective(mixed)


@settings(max_examples=60, deadline=None)
@given(st.floats(-10.0, 10.0, allow_nan=False))
def test_spinor_invariants_property(p):
    up, um = u_plus4(p), u_minus4(p)
    assert abs(np.vdot(up.u4, up.u4) - 1.0) < 1e-12
    assert abs(np.vdot(up.u4, um.u4)) < 1e-12
    assert abs(np.vdot(up.u2, up.u2) - 1.0) < 1e-12
    assert up.energy >= 1.0
