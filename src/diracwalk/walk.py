"""The lattice state of the walk, its position distribution and moments,
and the distances between two position distributions.

The walker lives on the lattice sites m (integer), at x = m*dt; the coin is
the 2-dimensional spin space.  Every packet, and every walk and exact run
of it, is invariant under the sigma2 parity Pi, (Pi a)(m) = sigma2 a(-m),
that is a-(m) = i a+(-m): a state is its spin-up amplitude a+ alone, on a
window symmetric about site 0, and its density is a palindrome about site
0.  ``spectral.evolve`` runs the walk; the two-component coin/shift step
loop it is checked against is in ``tests/oracles.py``.  States are values;
independent evolutions share nothing and may run concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import TOL, InputError, NumericalHealthError, require_number


@dataclass
class LatticeState:
    """The spin-up amplitudes a+ on the sites -M..M; a-(m) = i a+(-m).

    Site m sits at x = m*dt.  The amplitudes are finite numbers (otherwise
    ``InputError``), and 2 sum |a+|^2 = 1 within the unitarity budget.
    """

    dt: float
    a_plus: np.ndarray
    norm_drift: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.dt = require_number("dt", self.dt, "(0, inf)")
        rule = "a_plus must be 1-d numbers on an odd number of sites, -M..M"
        try:
            self.a_plus = np.asarray(self.a_plus)
        except ValueError:  # numpy shapes no ragged list
            raise InputError(f"{rule}; got a ragged list") from None
        if self.a_plus.dtype.kind not in "ifc" or self.a_plus.ndim != 1 \
                or self.a_plus.size % 2 != 1:
            raise InputError(f"{rule}; got {self.a_plus.dtype} of shape "
                             f"{self.a_plus.shape}")
        self.a_plus = self.a_plus.astype(complex, copy=False)
        if not np.isfinite(self.a_plus).all():  # both parts, in one pass
            site = self.m_min + np.flatnonzero(~np.isfinite(self.a_plus))[0]
            raise InputError(f"a_plus is not finite at site {site}")

    @property
    def n_sites(self) -> int:
        return self.a_plus.size

    @property
    def m_min(self) -> int:
        return -(self.n_sites // 2)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_min + self.n_sites)

    @property
    def x(self) -> np.ndarray:
        return self.sites * self.dt

    def norm_sq(self) -> float:
        """sum |a+|^2 + |a-|^2, twice the weight of a+."""
        return 2.0 * float(np.sum(np.abs(self.a_plus) ** 2))


def require_unit_norm(state: LatticeState) -> None:
    """Refuse to evolve a state whose norm^2 is off 1 by more than
    ``TOL.norm_drift_abort`` (``NumericalHealthError``)."""
    drift0 = abs(state.norm_sq() - 1.0)
    if not drift0 <= TOL.norm_drift_abort:
        raise NumericalHealthError(f"initial state norm off by {drift0:.3e} "
                                   f"(budget {TOL.norm_drift_abort:.1e})")


def position_distribution(state: LatticeState) -> np.ndarray:
    """P[m] = |a+[m]|^2 + |a+[-m]|^2 on ``state.sites``, a palindrome bit
    for bit: |a+|^2 is formed once, contiguously (numpy's abs rounds a
    reversed view differently), and IEEE addition commutes."""
    q = np.abs(state.a_plus) ** 2
    return q + q[::-1]


def empirical_moment(x: np.ndarray, prob: np.ndarray, k: int) -> float:
    """k-th moment sum x^k P of the density ``prob`` at the positions x."""
    x = require_number("x", x, array=True)
    prob = require_number("prob", prob, array=True)
    k = require_number("k", k, "[0, inf)", integer=True)
    # numpy's power takes a scalar libm loop on negative bases; x^4 is
    # (x^2)^2, two multiplies
    xk = np.square(np.square(x)) if k == 4 else x ** k
    return float(np.sum(xk * prob))


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
