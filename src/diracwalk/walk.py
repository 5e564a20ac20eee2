"""The lattice state of the walk, its position distribution and moments.

The walker lives on the lattice sites m (integer), at x = m*dt; the coin is
the 2-dimensional spin space.  ``spectral.evolve`` runs the walk; the
coin/shift step loop it is checked against is in ``tests/oracles.py``.
Every run is the "plus" helicity branch's: the packets are invariant under
the sigma2 parity, so the "minus" branch prints the same density.  States
are values; independent evolutions share nothing and may run concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import TOL, NumericalHealthError


@dataclass
class LatticeState:
    """Spin-up/spin-down amplitudes on a contiguous window of lattice sites.

    ``m_min`` is the site index of array element 0; site m corresponds to
    position m*dt.  Amplitudes are finite (NaN or inf: ``ValueError``), and
    sum(|a+|^2 + |a-|^2) = 1 within the unitarity budget.
    """

    dt: float
    m_min: int
    a_plus: np.ndarray
    a_minus: np.ndarray
    norm_drift: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.a_plus = np.asarray(self.a_plus, dtype=complex)
        self.a_minus = np.asarray(self.a_minus, dtype=complex)
        if self.a_plus.shape != self.a_minus.shape or self.a_plus.ndim != 1:
            raise ValueError("spin component arrays must be 1-d and equally long")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(
                f"dt must be finite and positive, got {self.dt!r}")
        for name in ("a_plus", "a_minus"):
            amp = getattr(self, name)
            if not np.isfinite(amp).all():  # both parts, in one pass
                site = self.m_min + np.flatnonzero(~np.isfinite(amp))[0]
                raise ValueError(f"{name} is not finite at site {site}")

    @property
    def n_sites(self) -> int:
        return self.a_plus.size

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_min + self.n_sites)

    @property
    def x(self) -> np.ndarray:
        return self.sites * self.dt

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.a_plus) ** 2 + np.abs(self.a_minus) ** 2))


def require_unit_norm(state: LatticeState) -> None:
    """Refuse to evolve a state whose norm^2 is off 1 by more than
    ``TOL.norm_drift_abort`` (``NumericalHealthError``)."""
    drift0 = abs(state.norm_sq() - 1.0)
    if not drift0 <= TOL.norm_drift_abort:
        raise NumericalHealthError(f"initial state norm off by {drift0:.3e} "
                                   f"(budget {TOL.norm_drift_abort:.1e})")


def position_distribution(state: LatticeState) -> np.ndarray:
    """P[m] = |a+[m]|^2 + |a-[m]|^2, aligned with ``state.sites``."""
    return np.abs(state.a_plus) ** 2 + np.abs(state.a_minus) ** 2


def empirical_moment(state: LatticeState, k: int) -> float:
    """k-th moment of the walker position: sum (m*dt)^k P[m]."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    prob = position_distribution(state)
    x = state.sites * state.dt
    # numpy's power takes a scalar libm loop on negative bases; x^4 is
    # (x^2)^2, two multiplies
    xk = np.square(np.square(x)) if k == 4 else x ** k
    return float(np.sum(xk * prob))
