"""Numerical tolerances and shared validation helpers.

All simulation code works in natural units (hbar = c = m = 1), double
precision throughout.  The tolerance of every numerical-health check (the
checks that raise ``NumericalHealthError``) lives in the single
``Tolerances`` record below, with the initial-state window cut and the
spinor factor-mixing bound, so that the numerical budget of the whole
pipeline can be audited (and tightened) in one place; every field is read
by the code its comment names.  Input-consistency checks (a uniform grid,
matching lattice spacings) compare at rounding level and keep literals.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # spinor.reduce_effective: second-factor contamination in 4-spinors
    factor_mixing: float = 1e-12

    # initial-state construction
    quadrature_rel: float = 1e-6        # MomentumProfile.mean step halving
    coeff_norm: float = 1e-8            # combined norm of c+-(x)
    window_rel: float = 1e-14           # lattice window cut, relative to peak

    # walk and exact evolution
    norm_drift_abort: float = 1e-9      # cumulative unitarity budget of a run
    nyquist_weight: float = 1e-10       # spectral weight near the Nyquist band


TOL = Tolerances()

# Longest momentum ring (sites) that walk or exact evolution, the weak-limit
# coefficients or the initial-state quadrature may allocate.  A ring array
# holds two complex128 spin components, 32 B per site, and an evolution
# keeps a few alive at once (FFT input and output, the per-mode symbol, the
# evolved modes): a walk peaks at 176 B per site, about 0.75 GB at this cap.  A walk of n steps needs a ring of at least n_sites + 2n, so
# this admits about 2 * 10^6 steps; longer runs are refused before anything
# is allocated.
MAX_RING_SITES = 2 ** 22


def require_ring_fits(n_sites):
    """Refuse a ring longer than ``MAX_RING_SITES``, before it is allocated.

    ``n_sites`` may be a float estimate of any size, inf included, so a
    preflight can run before any size is converted to an int.
    """
    if not n_sites <= MAX_RING_SITES:
        size = f"{n_sites:.0f}" if n_sites < 1e15 else f"{n_sites:.3g}"
        raise ValueError(f"a ring of {size} sites exceeds the size budget "
                         f"of {MAX_RING_SITES} sites")
    return n_sites


BRANCHES = ("plus", "minus")


def branch_sign(branch: str) -> float:
    """+1 for the "plus" helicity branch, -1 for "minus"; any other name
    is refused, so this is the one branch check of the package."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    return 1.0 if branch == "plus" else -1.0


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
