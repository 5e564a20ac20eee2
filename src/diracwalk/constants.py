"""Numerical tolerances, the one input rule, and the ring-size budget.

All simulation code works in natural units (hbar = c = m = 1), double
precision throughout.  The tolerance of every numerical-health check (the
checks that raise ``NumericalHealthError``) lives in the single
``Tolerances`` record below, with the initial-state window cut, so that
the numerical budget of the whole pipeline can be audited (and tightened)
in one place; every field is read by the code its comment names.  Each
check passes a value only if it is <= its budget, so NaN fails it.
Input-consistency checks (matching lattice spacings) compare at rounding
level and keep literals.

Every input refusal is an ``InputError``; every number passes
``require_number``: a signed int or a float in its function's domain.
"""

import functools
import math
import reprlib
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
        size = f"{n_sites:.0f}" if n_sites < 1e15 else f"{n_sites:.3g}" \
            if n_sites < 1e308 else "over 1e308"  # an int no float holds
        raise InputError(f"a ring of {size} sites exceeds the size budget "
                         f"of {cap} sites")
    return n_sites


class InputError(ValueError):
    """An input the library refuses, at any layer (exit status 1)."""


_INTS = (int, np.signedinteger)
_NUMBERS = _INTS + (float, np.floating)


@functools.cache  # every domain is a literal of the package's code
def _interval(domain: str):
    lo, hi = map(float, domain[1:-1].split(","))
    return lo, hi, domain[0] == "(", domain[-1] == ")"


def require_number(name, value, domain="(-inf, inf)", integer=False,
                   array=False):
    """``value`` as a float (an int if ``integer``: no float is one) if it
    is a number in ``domain``, an interval such as "(0, inf)" or "[-1,
    1]", else ``InputError``; NaN is in no domain.  With ``array`` set,
    an array or nested list of numbers is taken too, as an int64 or
    float64 array, but not a bool in a list, though numpy would cast it.
    """
    num = low = high = math.nan
    try:
        if type(value) is not bool \
                and isinstance(value, _INTS if integer else _NUMBERS):
            num = low = high = int(value) if integer else float(value)
        elif array and (not isinstance(value, (list, tuple)) or all(
                type(v) is not bool and isinstance(v, _NUMBERS)
                for v in np.asarray(value, dtype=object).flat)):
            arr = np.asarray(value)
            if arr.dtype.kind in ("i" if integer else "if"):
                with np.errstate(over="ignore"):  # a long double: inf
                    num = arr.astype(np.int64 if arr.dtype.kind == "i"
                                     else float, copy=False)
                if not num.size:
                    return num
                low, high = num.min(), num.max()  # NaN propagates
    except (OverflowError, ValueError):  # an int beyond 1e308, a ragged list
        pass
    lo, hi, lo_open, hi_open = _interval(domain)
    if (low > lo if lo_open else low >= lo) \
            and (high < hi if hi_open else high <= hi):
        return num
    kind = "an integer" if integer else "a number"
    got = " ".join(reprlib.repr(value).split())
    raise InputError(f"{name} must be {kind} in {domain}, got {got}")


class NumericalHealthError(RuntimeError):
    """A numerical invariant (unitarity, aliasing, quadrature) failed.

    CLI commands translate this into exit status 2, separating genuine
    numerical trouble from refused inputs (``InputError``, exit status 1).
    """
