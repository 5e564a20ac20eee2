"""Numerical tolerances and shared validation helpers.

All simulation code works in natural units (hbar = c = m = 1), double
precision throughout.  The tolerance of every numerical-health check (the
checks that raise ``NumericalHealthError``) lives in the single
``Tolerances`` record below, with the initial-state window cut, so that
the numerical budget of the whole pipeline can be audited (and tightened)
in one place; every field is read by the code its comment names.  Each
check passes a value only if it is <= its budget, so NaN fails it.
Input-consistency checks (matching lattice spacings) compare at rounding
level and keep literals.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # initial-state construction
    quadrature_rel: float = 1e-6        # MomentumProfile.mean step halving
    coeff_norm: float = 1e-8            # combined norm of c+-(x)
    window_rel: float = 1e-14           # lattice window cut, relative to peak

    # walk and exact evolution
    norm_drift_abort: float = 1e-9      # cumulative unitarity budget of a run
    nyquist_weight: float = 1e-10       # spectral weight near the Nyquist band


TOL = Tolerances()

# Longest momentum ring (sites) that walk or exact evolution, the weak-limit
# coefficients or the initial-state quadrature may allocate.  An evolution
# transforms the one complex128 row of a+ in place, 16 B per site; the
# symbol's pair on modes 0..n // 2, their mirrored modes and temporaries
# take the rest of the traced peak: 64 B per site for a walk, 0.27 GB at
# this cap, and 53 B for exact evolution.  A walk of n steps needs a ring
# of at least n_sites + 2n, so this admits about 2 * 10^6 steps; longer
# runs are refused before anything is allocated.
MAX_RING_SITES = 2 ** 22


def require_ring_fits(n_sites, cap: int = MAX_RING_SITES):
    """Refuse a ring longer than ``cap``, before it is allocated.

    ``n_sites`` may be a float estimate of any size, inf included, so a
    preflight can run before any size is converted to an int.
    """
    if not n_sites <= cap:
        size = f"{n_sites:.0f}" if n_sites < 1e15 else f"{n_sites:.3g}"
        raise ValueError(f"a ring of {size} sites exceeds the size budget "
                         f"of {cap} sites")
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
