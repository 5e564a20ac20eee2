"""Slow reference implementations that the tests hold the fast paths to."""

from contextlib import contextmanager
from itertools import chain
from unittest.mock import patch

import numpy as np

from diracwalk import exact, spectral
from diracwalk.asymptotic import SpectralCoefficients, _eigen_weights
from diracwalk.constants import branch_sign
from diracwalk.spectral import _dispersion, ring_buffer, ring_length
from diracwalk.spinor import u_minus_effective, u_plus_effective
from diracwalk.table import fmt
from diracwalk.walk import LatticeState, coin_matrix

# '%.17g' % x and format(x, '.17g') share CPython's double-to-string path
CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}


def percent_csv(table) -> str:
    """The CSV text of ``table`` with every data cell formatted by CPython:
    each block of rows is one ``%`` over all of its values, ``%d`` for int
    columns and ``%.17g`` for float columns."""
    lines = [f"# {key} = {fmt(val)}" for key, val in table.metadata.items()]
    lines.append(",".join(table.columns))
    chunks = ["\n".join(lines) + "\n"]
    for block in table.blocks:
        line = ",".join(CELL_FORMATS[col.dtype.kind] for col in block)
        values = chain.from_iterable(zip(*(col.tolist() for col in block)))
        chunks.append(((line + "\n") * block[0].size) % tuple(values))
    return "".join(chunks)


def random_phase_state(n_sites: int, m_min: int, dt: float,
                       seed: int) -> LatticeState:
    """A unit-norm compact state: moduli in [0.1, 1) and random phases on
    n_sites sites from m_min."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.1, 1.0, (2, n_sites)) \
        * np.exp(2j * np.pi * rng.uniform(size=(2, n_sites)))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    return LatticeState(dt=dt, m_min=m_min, a_plus=z[0], a_minus=z[1])


def unitary_modes(state, n: int) -> np.ndarray:
    """The unitary DFT of a state's ring of n sites, as a new (2, n)
    array: mode k holds sum_m a[m] e^{-2 pi i k m / n} / sqrt(n)."""
    return np.fft.fft(ring_buffer(state, n), axis=1) / np.sqrt(n)


def ring_momenta(n: int, dt: float, branch: str = "plus") -> np.ndarray:
    """The momentum p of each mode of a ring of n sites at spacing dt; for
    "minus" the site mirror of the "plus" ring's: -p at mode -k mod n."""
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    return p if branch_sign(branch) > 0 else -p[-np.arange(n) % n]


def stacked_symbol(modes, symbol) -> np.ndarray:
    """Every mode's spinor times its 2x2 symbol (m00, m01, m10, m11), as a
    new stacked array."""
    m00, m01, m10, m11 = symbol
    up, dn = modes
    return np.stack([m00 * up + m01 * dn, m10 * up + m11 * dn])


def modes_to_window(modes, dt: float, m_min: int,
                    n_sites: int) -> LatticeState:
    """The inverse of ``unitary_modes``, read out on the window [m_min,
    m_min + n_sites)."""
    n = modes.shape[1]
    buf = np.fft.ifft(modes, axis=1) * np.sqrt(n)
    idx = np.mod(np.arange(m_min, m_min + n_sites), n)
    return LatticeState(dt=dt, m_min=m_min, a_plus=buf[0, idx],
                        a_minus=buf[1, idx])


def stacked_evolve_on_ring(state, symbol, grow: int) -> LatticeState:
    """``spectral._evolve_on_ring`` with a new array at every stage: the
    modes, the stacked product and the transform back."""
    m_min, n_sites = state.m_min - grow, state.n_sites + 2 * grow
    n = ring_length(n_sites)
    modes = stacked_symbol(unitary_modes(state, n), symbol(n))
    return modes_to_window(modes, state.dt, m_min, n_sites)


@contextmanager
def stacked_ring():
    """Run ``evolve`` and ``evolve_exact_on_lattice`` on the stacked ring."""
    with patch.object(spectral, "_evolve_on_ring", stacked_evolve_on_ring), \
            patch.object(exact, "_evolve_on_ring", stacked_evolve_on_ring):
        yield


def stacked_energy_leakage(state, branch: str = "plus") -> float:
    """``exact.energy_leakage`` on ``unitary_modes``, without its
    Nyquist-band refusal."""
    sign = branch_sign(branch)
    n = ring_length(state.n_sites + 16)
    amp = unitary_modes(state, n)
    p = ring_momenta(n, state.dt, branch)
    w = u_plus_effective(p) if sign > 0 else u_minus_effective(p)
    overlap = np.conj(w[0]) * amp[0] + np.conj(w[1]) * amp[1]
    return 1.0 - (float(np.sum(np.abs(overlap) ** 2))
                  / float(np.sum(np.abs(amp) ** 2)))


def walk_symbol_matrix(phi: float, dt: float) -> np.ndarray:
    """The "plus" walk symbol diag(e^{i phi}, e^{-i phi}) . coin(dt), as a
    2x2 matrix."""
    shift = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    return shift @ coin_matrix(dt)


def symbol_eigenvalues(phi, dt):
    """lambda+- = cos(dt) cos(phi) +- i sin(theta), with sin(theta) from
    the shared dispersion."""
    _, sin_theta = _dispersion(phi, dt)
    cos_theta = np.cos(dt) * np.cos(phi)
    return cos_theta + 1j * sin_theta, cos_theta - 1j * sin_theta


def symbol_eigenvectors(phi, dt):
    """(f_pp, f_pm, f_mp, f_mm): v+ = (f_pp, f_pm) = (alpha, -i e^{-i phi}
    beta) and v- = (f_mp, f_mm) = (beta, i e^{-i phi} alpha), with the
    weights of ``_eigen_weights``."""
    alpha, beta = _eigen_weights(phi, dt)
    phase = 1j * np.exp(-1j * np.asarray(phi, dtype=float))
    return alpha + 0.0j, -phase * beta, beta + 0.0j, phase * alpha


def ring_spectral_coefficients(state, n_phi: int) -> SpectralCoefficients:
    """g+- by the ring of ``spectral``: its unitary forward DFT, read at
    phi = -(ring phase), projected on the conjugated eigenvectors of
    ``symbol_eigenvectors`` (phase e^{-i phi} included) and sorted by
    phi."""
    phi = -2.0 * np.pi * np.fft.fftfreq(n_phi)
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(phi, state.dt)
    # sum_m a[m] e^{i m phi} is sqrt(n) times the unitary ring mode
    amp = unitary_modes(state, n_phi) * np.sqrt(n_phi / state.dt)
    g_plus = np.conj(f_pp) * amp[0] + np.conj(f_pm) * amp[1]
    g_minus = np.conj(f_mp) * amp[0] + np.conj(f_mm) * amp[1]
    order = np.argsort(phi)
    return SpectralCoefficients(phi=phi[order], g_plus=g_plus[order],
                                g_minus=g_minus[order], dt=state.dt)


def direct_sum_coefficients(state, n_phi: int):
    """g+- at phi = 2 pi q / n_phi, q = -((n_phi - 1) // 2), ..., site by
    site: sum_m a[m] e^{i m phi} with the phase m q reduced mod n_phi in
    integers, so a site far from 0 loses no digits to m phi."""
    q = np.arange(n_phi) - (n_phi - 1) // 2
    turns = np.mod(np.outer(q, state.sites), n_phi) / n_phi
    kernel = np.exp(2j * np.pi * turns)
    a_plus, a_minus = kernel @ state.a_plus, kernel @ state.a_minus
    phi = 2.0 * np.pi * q / n_phi
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(phi, state.dt)
    root_dt = np.sqrt(state.dt)
    return ((np.conj(f_pp) * a_plus + np.conj(f_pm) * a_minus) / root_dt,
            (np.conj(f_mp) * a_plus + np.conj(f_mm) * a_minus) / root_dt)


def per_point_polyline(x, y, sx, sy) -> str:
    """The polyline points of ``svgplot`` one point at a time: ``sx`` and
    ``sy`` on each Python float, each pair an f-string."""
    return " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                    for a, b in zip(np.asarray(x), np.asarray(y)))
