"""Relativistic energies and the weights of the effective 2-spinor.

Natural units (hbar = c = m = 1).  On a definite-helicity branch the Dirac
4-spinors reduce to 2-spinors of ``H(p) = sigma3 * p + sigma2``; the
4-component layer that checks this reduction is in ``tests/oracles.py``.
All functions are pure and safe to call concurrently.
"""

import numpy as np

from .constants import require_number


def energy(p):
    """Relativistic energy E(p) = sqrt(p^2 + 1).  Accepts scalars or arrays."""
    p = require_number("p", p, array=True)
    return np.sqrt(np.asarray(p, dtype=float) ** 2 + 1.0)


def spinor_weights(p):
    """The scalar weights W+-(p) = (1 + E(p) +- p) / (2 sqrt(E(E+1))).

    These are the real amplitudes of u+ = (W+, i W-), the effective
    2-spinor of the helicity +1/2 branch; they satisfy W+^2 + W-^2 = 1
    and W+(-p) = W-(p).  Vectorized over ``p``.
    """
    e = energy(p)
    p = np.asarray(p, dtype=float)
    denom = 2.0 * np.sqrt(e * (e + 1.0))
    return (1.0 + e + p) / denom, (1.0 + e - p) / denom
