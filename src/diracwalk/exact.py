"""Exact evolution of lattice states, leakage out of the positive-energy
branch, and walk-vs-exact comparison metrics.

Exact evolution multiplies each mode of the shared momentum ring of
``spectral`` by the closed-form propagator exp(-i H(p) t) and reads the
result off at the lattice sites again.  All functions are pure.
"""

from dataclasses import dataclass

import numpy as np

from .constants import TOL, InputError, NumericalHealthError, require_number
from .spectral import (_evolve_on_ring, apply_pair, propagator_symbol,
                       ring_length, ring_mirror, ring_modes, ring_unfold)
from .spinor import spinor_weights
from .walk import LatticeState, position_distribution

_MARGIN_SITES = 128  # ring padding past the light cone, in sites


def energy_leakage(state: LatticeState, branch: str = "plus") -> float:
    """The weight off the positive-energy branch, per mode, over the norm:
    the overlap with v = (W-, -i W+), the unit spinor orthogonal to u+ =
    (W+, i W-), is W-(p) u(k) - W+(p) u(N - k) at mode k (a-(m) = i
    a+(-m)) and its negative at N - k, with no 1 - kept/norm to cancel.

    The exact propagator commutes with the projector, so leakage is a
    conserved diagnostic of exact evolution and a splitting-error gauge
    for the walk.  ``branch`` must be "plus": it stays only for the
    positional call ``energy_leakage(state, "plus")`` in
    ``perfbench/workloads.py``.
    """
    if branch != "plus":
        raise InputError(f"energy_leakage takes branch 'plus' only, got "
                         f"{branch!r}")
    if not np.isfinite(state.norm_sq()):
        raise NumericalHealthError("state is not finite: a NaN or inf "
                                   "amplitude")
    n = ring_length(state.n_sites + 16)
    ring = ring_modes(state, n)
    half = n // 2 + 1
    # the momenta of modes 0..n // 2, where |p| rises to its maximum
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=state.dt)[:half]
    norm_sq = float(np.sum(np.abs(ring) ** 2))  # of a+; a- holds as much
    # refuse states whose spectral weight reaches the Nyquist band, |p| >
    # 0.9 max |p|: modes k0..n - k0, as mode n - k mirrors mode k
    k0 = int(np.argmax(np.abs(p) > 0.9 * abs(p[-1])))
    w = np.sum(np.abs(ring[k0:n - k0 + 1]) ** 2) / max(norm_sq, 1e-300)
    if not w <= TOL.nyquist_weight:
        raise NumericalHealthError(
            f"spectral weight {w:.3e} within 10% of the Nyquist momentum; "
            "the lattice is too coarse for this state"
        )
    # the upper row of the pair (W-, i W+) on the fold, and -i times it at
    # mode n - k: the weight of its negative there
    w_plus, w_minus = spinor_weights(p)
    i_w_plus = 1j * w_plus
    del p, w_plus  # before the kernel's temporaries: the traced peak
    apply_pair((ring[:half], ring_mirror(ring)), w_minus, i_w_plus)
    ring_unfold(ring, ring[:half])
    return float(np.sum(np.abs(ring) ** 2)) / (2 * norm_sq)


def evolve_exact_on_lattice(state: LatticeState, t: float) -> LatticeState:
    """Exact evolution of lattice data, returned on the widened lattice window.

    The ring is padded past the light cone (speed <= 1) so wrap-around
    contamination stays at the window-truncation floor.  It is odd: on an
    even ring's Nyquist mode a+ alone would lose norm (see ``spectral``).
    """
    t = require_number("t", t)
    n_cone = int(np.ceil(abs(t) / state.dt))
    return _evolve_on_ring(state, lambda n, half: propagator_symbol(
        2.0 * np.pi * np.fft.fftfreq(n, d=state.dt)[:half], t),
        n_cone + _MARGIN_SITES, odd=True)


@dataclass(frozen=True)
class ComparisonReport:
    """Distances between two position densities on a common lattice."""

    l1: float
    l2: float
    sup: float


def compare_densities(state_a: LatticeState,
                      state_b: LatticeState) -> ComparisonReport:
    """L1/L2/sup distances between site distributions on the same lattice."""
    if abs(state_a.dt - state_b.dt) > 1e-15 * max(state_a.dt, state_b.dt):
        raise InputError("states live on lattices with different spacing")
    # both windows are symmetric about site 0: pad the narrower one
    pa, pb = position_distribution(state_a), position_distribution(state_b)
    pad = (pa.size - pb.size) // 2
    pa, pb = np.pad(pa, max(-pad, 0)), np.pad(pb, max(pad, 0))
    pa /= pa.sum()
    pb /= pb.sum()
    diff = pa - pb
    return ComparisonReport(
        l1=float(np.abs(diff).sum()),
        l2=float(np.sqrt(np.sum(diff ** 2))),
        sup=float(np.abs(diff).max()),
    )
