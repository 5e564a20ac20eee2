"""Numerical tolerances and shared validation helpers.

All simulation code works in natural units (hbar = c = m = 1), double
precision throughout.  Every tolerance that appears in a runtime check
lives in the single ``Tolerances`` record below so that the numerical
budget of the whole pipeline can be audited (and tightened) in one place.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # spinor / matrix identities
    spinor_identity: float = 1e-12      # orthonormality, eigen-relations of u+-(p)
    matrix_algebra: float = 1e-14       # Pauli/Dirac algebra in floating point
    factor_mixing: float = 1e-12        # second-factor contamination in 4-spinors

    # initial-state construction
    profile_norm: float = 1e-10         # L2 norm of a momentum profile
    profile_tail: float = 1e-12         # probability mass beyond the cutoff
    coeff_norm: float = 1e-8            # combined norm of c+-(x)
    window_rel: float = 1e-14           # lattice window cut, relative to peak

    # lattice walk
    norm_drift_abort: float = 1e-9      # cumulative unitarity budget of a run

    # spectral / exact evolution
    propagator_unitary: float = 1e-13
    projector_idempotent: float = 1e-13
    leakage_exact: float = 1e-10

    # weak-limit machinery
    eigen_modulus: float = 1e-13        # | |lambda(phi)| - 1 |
    completeness: float = 1e-8          # eigenbasis completeness of g+-
    cdf_total: float = 1e-6             # limit CDF over the full interval
    density_norm: float = 1e-8          # closed-form density normalization


TOL = Tolerances()

# Longest momentum ring (sites) that walk or exact evolution, the weak-limit
# coefficients or the initial-state quadrature may allocate.  A ring array
# holds two complex128 spin components, 32 B per site, and an evolution
# keeps a few alive at once (FFT input and output, the per-mode symbol, the
# evolved modes): a walk peaks at 176 B per site, about 0.75 GB at this cap.  A walk of n steps needs a ring of at least n_sites + 2n, so
# this admits about 2 * 10^6 steps; longer runs are refused before anything
# is allocated.
MAX_RING_SITES = 2 ** 22


def require_ring_fits(n_sites: int) -> int:
    """Refuse a ring longer than ``MAX_RING_SITES``, before it is allocated."""
    if n_sites > MAX_RING_SITES:
        raise ValueError(f"a ring of {n_sites} sites exceeds the size budget "
                         f"of {MAX_RING_SITES} sites")
    return n_sites


def require_finite(name, value):
    """Reject NaN/inf inputs up front (they poison every closed form)."""
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class NumericalHealthError(RuntimeError):
    """A numerical invariant (unitarity, aliasing, quadrature) failed.

    CLI commands translate this into exit status 2, separating genuine
    numerical trouble from usage errors (exit status 1).
    """
