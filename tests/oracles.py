"""Slow reference implementations that the tests hold the fast paths to."""

from itertools import chain

import numpy as np

from diracwalk.asymptotic import SpectralCoefficients, _eigen_system
from diracwalk.spectral import lattice_to_spectral
from diracwalk.table import fmt

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


def ring_spectral_coefficients(state, n_phi: int) -> SpectralCoefficients:
    """g+- by the ring of ``spectral``: its unitary forward DFT, read at
    phi = -(ring phase), projected on the conjugated eigenvectors of
    ``_eigen_system`` (phase e^{-i phi} included) and sorted by phi."""
    ring = lattice_to_spectral(state, n_phi)
    phi = -ring.grid.phi
    _, _, f_pp, f_pm, f_mp, f_mm = _eigen_system(phi, state.dt)
    # sum_m a[m] e^{i m phi} is sqrt(n) times the unitary ring mode
    amp = ring.amp * np.sqrt(ring.grid.n / state.dt)
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
    _, _, f_pp, f_pm, f_mp, f_mm = _eigen_system(phi, state.dt)
    root_dt = np.sqrt(state.dt)
    return ((np.conj(f_pp) * a_plus + np.conj(f_pm) * a_minus) / root_dt,
            (np.conj(f_mp) * a_plus + np.conj(f_mm) * a_minus) / root_dt)


def per_point_polyline(x, y, sx, sy) -> str:
    """The polyline points of ``svgplot`` one point at a time: ``sx`` and
    ``sy`` on each Python float, each pair an f-string."""
    return " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                    for a, b in zip(np.asarray(x), np.asarray(y)))
