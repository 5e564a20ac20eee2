"""Exact evolution of lattice states, leakage out of the positive-energy
branch, and walk-vs-exact comparison metrics.

Exact evolution multiplies each mode of the shared momentum ring of
``spectral`` by the closed-form propagator exp(-i H(p) t) and reads the
result off at the lattice sites again.  All functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .constants import TOL, NumericalHealthError, branch_sign
from .spectral import (SpectralState, _evolve_on_ring, lattice_to_spectral,
                       propagator_symbol, ring_length)
from .spinor import u_minus_effective, u_plus_effective
from .walk import LatticeState, position_distribution

_MARGIN_SITES = 128  # ring padding past the light cone, in sites


def _check_band_occupation(spec: SpectralState) -> None:
    """Flag states whose spectral weight reaches the grid's Nyquist band."""
    p = spec.grid.p
    p_edge = np.abs(p).max()
    band = np.abs(p) > 0.9 * p_edge
    w = np.sum(np.abs(spec.amp[:, band]) ** 2) / max(spec.norm_sq(), 1e-300)
    if w > TOL.nyquist_weight:
        raise NumericalHealthError(
            f"spectral weight {w:.3e} within 10% of the Nyquist momentum; "
            "the lattice is too coarse for this state"
        )


def energy_leakage(state: LatticeState, branch: str = "plus") -> float:
    """1 - ||projection onto the positive-energy branch||^2 (per mode).

    The exact propagator commutes with the projector, so leakage is a
    conserved diagnostic of exact evolution and a splitting-error gauge
    for the walk.
    """
    sign = branch_sign(branch)
    spec = lattice_to_spectral(state, ring_length(state.n_sites + 16))
    _check_band_occupation(spec)
    w = u_plus_effective(spec.grid.p) if sign > 0 \
        else u_minus_effective(spec.grid.p)
    overlap = np.conj(w[0]) * spec.amp[0] + np.conj(w[1]) * spec.amp[1]
    kept = float(np.sum(np.abs(overlap) ** 2))
    return 1.0 - kept / spec.norm_sq()


def evolve_exact_on_lattice(state: LatticeState, t: float,
                            branch: str = "plus") -> LatticeState:
    """Exact evolution of lattice data, returned on the widened lattice window.

    The ring is padded past the light cone (speed <= 1) so wrap-around
    contamination stays at the window-truncation floor.
    """
    n_cone = int(np.ceil(abs(t) / state.dt))
    return _evolve_on_ring(state, lambda grid: propagator_symbol(
        grid.p, t, branch), n_cone + _MARGIN_SITES)


@dataclass(frozen=True)
class ComparisonReport:
    """Distances between two position densities on a common lattice."""

    l1: float
    l2: float
    sup: float


def compare_densities(state_a: LatticeState,
                      state_b: LatticeState) -> ComparisonReport:
    """L1/L2/sup distances between site distributions on the same fiber."""
    if abs(state_a.dt - state_b.dt) > 1e-15 * max(state_a.dt, state_b.dt):
        raise ValueError("states live on lattices with different spacing")
    if abs(state_a.x0 - state_b.x0) > 1e-12 * state_a.dt:
        raise ValueError("states live on different fibers (x0 mismatch)")
    lo = min(state_a.m_min, state_b.m_min)
    hi = max(state_a.m_min + state_a.n_sites, state_b.m_min + state_b.n_sites)
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    da = position_distribution(state_a)
    db = position_distribution(state_b)
    pa[state_a.m_min - lo: state_a.m_min - lo + da.size] = da
    pb[state_b.m_min - lo: state_b.m_min - lo + db.size] = db
    pa /= pa.sum()
    pb /= pb.sum()
    diff = pa - pb
    return ComparisonReport(
        l1=float(np.abs(diff).sum()),
        l2=float(np.sqrt(np.sum(diff ** 2))),
        sup=float(np.abs(diff).max()),
    )
