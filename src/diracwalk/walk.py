"""Discrete-time quantum walk engine: coin rotation, conditional shift,
n-step evolution, position distribution and empirical moments.

The walker lives on the lattice sites m (integer), at x = m*dt; the coin is
the 2-dimensional spin space.  One step applies the coin first and then the
conditional shift.  In the "plus" branch spin-up amplitude moves one site
toward +x and spin-down one site toward -x; the "minus" branch swaps the
directions.  Arrays grow by exactly one site per side per step, so the
light-cone bound (zero amplitude beyond the initial support widened by n
sites) holds bit-exactly.

``evolve_steps`` monitors the total probability after every step and aborts
when the cumulative drift exceeds the unitarity budget; it never
renormalizes silently.  It is the reference for ``spectral.evolve``, which
runs all n steps as one multiplication per quasi-momentum.  States are
values; independent evolutions share nothing and may run concurrently.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import TOL, NumericalHealthError, branch_sign


@dataclass
class LatticeState:
    """Spin-up/spin-down amplitudes on a contiguous window of lattice sites.

    ``m_min`` is the site index of array element 0; site m corresponds to
    position m*dt.  Invariant: sum(|a+|^2 + |a-|^2) = 1 within the
    unitarity budget.
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")

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

    def copy(self) -> "LatticeState":
        return replace(self, a_plus=self.a_plus.copy(), a_minus=self.a_minus.copy())


def require_unit_norm(state: LatticeState) -> None:
    """Refuse to evolve a state whose norm^2 is off 1 by more than
    ``TOL.norm_drift_abort`` (``NumericalHealthError``)."""
    drift0 = abs(state.norm_sq() - 1.0)
    if drift0 > TOL.norm_drift_abort:
        raise NumericalHealthError(f"initial state norm off by {drift0:.3e} "
                                   f"(budget {TOL.norm_drift_abort:.1e})")


def coin_matrix(dt: float) -> np.ndarray:
    """The coin c = exp(-i*dt*sigma2) = [[cos dt, -sin dt], [sin dt, cos dt]]."""
    c, s = np.cos(dt), np.sin(dt)
    return np.array([[c, -s], [s, c]], dtype=complex)


def coin_step(state: LatticeState) -> LatticeState:
    """Rotate the spin at every site: (a+, a-) <- (c*a+ - s*a-, s*a+ + c*a-)."""
    c, s = np.cos(state.dt), np.sin(state.dt)
    return replace(
        state,
        a_plus=c * state.a_plus - s * state.a_minus,
        a_minus=s * state.a_plus + c * state.a_minus,
        norm_drift=None,
    )


def shift_step(state: LatticeState, branch: str = "plus") -> LatticeState:
    """Conditional shift; the window grows by one site on each side.

    branch "plus":  spin-up m -> m+1, spin-down m -> m-1
    branch "minus": spin-up m -> m-1, spin-down m -> m+1
    """
    n = state.n_sites
    ap = np.zeros(n + 2, dtype=complex)
    am = np.zeros(n + 2, dtype=complex)
    if branch_sign(branch) > 0:
        ap[2:] = state.a_plus
        am[:n] = state.a_minus
    else:
        ap[:n] = state.a_plus
        am[2:] = state.a_minus
    return replace(state, m_min=state.m_min - 1, a_plus=ap, a_minus=am,
                   norm_drift=None)


def step(state: LatticeState, branch: str = "plus") -> LatticeState:
    """One walk step: coin first, then the conditional shift."""
    return shift_step(coin_step(state), branch)


def evolve_steps(state: LatticeState, n_steps: int,
                 branch: str = "plus") -> LatticeState:
    """Apply ``n_steps`` walk steps one by one, recording |norm^2 - 1|
    after each.  ``spectral.evolve`` computes the same state in one FFT
    pair; this loop is its reference.

    The steps run in place on one window preallocated at the final size,
    with the same arithmetic as ``step``, so the amplitudes and the drift
    record are bit-identical to chaining ``step`` n times.  Drift is
    monitored, never repaired: exceeding ``TOL.norm_drift_abort`` raises
    ``NumericalHealthError``.  The returned state carries the per-step
    drift record in ``norm_drift``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    up_shift = int(branch_sign(branch))  # spin-up moves +1 for "plus"
    require_unit_norm(state)
    width = state.n_sites + 2 * n_steps
    ap = np.zeros(width, dtype=complex)
    am = np.zeros(width, dtype=complex)
    lo, hi = n_steps, n_steps + state.n_sites  # the occupied window
    ap[lo:hi] = state.a_plus
    am[lo:hi] = state.a_minus
    # scratch: the coined spin components, a product, and |a|^2 per spin
    new_p, new_m, prod = (np.empty(width, dtype=complex) for _ in range(3))
    sq_p, sq_m = np.empty(width), np.empty(width)
    c, s = np.cos(state.dt), np.sin(state.dt)
    drift = np.empty(n_steps)
    for k in range(n_steps):
        w = hi - lo
        up, dn = ap[lo:hi], am[lo:hi]
        cp, cm, tmp = new_p[:w], new_m[:w], prod[:w]
        # coin, as coin_step: (c*up - s*dn, s*up + c*dn)
        np.subtract(np.multiply(c, up, out=cp), np.multiply(s, dn, out=tmp),
                    out=cp)
        np.add(np.multiply(s, up, out=cm), np.multiply(c, dn, out=tmp),
               out=cm)
        # shift, as shift_step: the window grows by one site per side and
        # the cell each component vacates is cleared
        for amp, coined, d in ((ap, cp, up_shift), (am, cm, -up_shift)):
            amp[lo + d:hi + d] = coined
            amp[lo if d > 0 else hi - 1] = 0.0
        lo, hi = lo - 1, hi + 1
        # |norm^2 - 1|, as LatticeState.norm_sq on the grown window
        w = hi - lo
        a2, b2 = sq_p[:w], sq_m[:w]
        np.abs(ap[lo:hi], out=a2)
        np.abs(am[lo:hi], out=b2)
        np.multiply(a2, a2, out=a2)
        np.multiply(b2, b2, out=b2)
        drift[k] = abs(float(np.sum(np.add(a2, b2, out=a2))) - 1.0)
        if drift[k] > TOL.norm_drift_abort:
            raise NumericalHealthError(
                f"norm drift {drift[k]:.3e} after step {k + 1} "
                f"exceeds budget {TOL.norm_drift_abort:.1e}"
            )
    return replace(state, m_min=state.m_min - n_steps, a_plus=ap, a_minus=am,
                   norm_drift=drift)


def position_distribution(state: LatticeState) -> np.ndarray:
    """P[m] = |a+[m]|^2 + |a-[m]|^2, aligned with ``state.sites``."""
    return np.abs(state.a_plus) ** 2 + np.abs(state.a_minus) ** 2


def empirical_moment(state: LatticeState, k: int) -> float:
    """k-th moment of the walker position: sum (m*dt)^k P[m]."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    prob = position_distribution(state)
    x = state.sites * state.dt
    return float(np.sum(x ** k * prob))
