"""The momentum ring on which walk, exact evolution, time reversal and the
weak-limit coefficients all act, and the per-mode symbols applied there.

A lattice state is carried onto a ring of N sites by a unitary DFT
(convention: spectral(p) picks up exp(-i p x), position recovers it with
exp(+i p x); dp * dx * N = 2 pi holds exactly).  Site m is ring index
m mod N, so a window of at most N sites comes back unaliased.  The ring
phase is phi = p dt; the quasi-momentum of ``asymptotic`` (the label of
the shift's eigenstates e^{i m phi}) is -phi, i.e. p = -phi/dt, and
``asymptotic.spectral_coefficients`` reads the ring there.  Each mode is
multiplied by a 2x2 symbol and the result is transformed back:

* exact evolution for a time t,

      exp(-i H(p) t) = cos(E t) I - i (sin(E t) / E) H(p),   E = sqrt(p^2+1),

  exact because H(p)^2 = E^2 I;
* n walk steps.  The one-step symbol is M = diag(e^{-i s phi},
  e^{i s phi}) . coin(dt), with s = +1 for the "plus" branch and -1 for
  "minus"; for "plus" it is ``asymptotic.walk_symbol_matrix(-phi, dt)``.
  M has det 1 and trace 2 cos(theta), cos(theta) = cos(dt) cos(phi), so
  by Cayley-Hamilton, for every integer n (n < 0 reverses time),

      M^n = cos(n theta) I + (sin(n theta) / sin(theta)) K,
      K = M - cos(theta) I,   K^2 = -sin^2(theta) I.

  theta is taken with atan2 from sin(theta) = sqrt(cos^2 dt sin^2 phi +
  sin^2 dt) >= sin(dt) > 0, which keeps its digits near theta -> 0 where
  arccos would lose them.

Per-mode work is embarrassingly parallel; all functions are pure.
"""

from dataclasses import dataclass, replace

import numpy as np

from .constants import (MAX_RING_SITES, TOL, NumericalHealthError,
                        branch_sign, require_ring_fits)
from .walk import LatticeState, require_unit_norm


def _fast_lengths() -> np.ndarray:
    """The lengths up to MAX_RING_SITES with no prime factor above 11."""
    lengths = np.ones(1, dtype=np.int64)
    for prime in (2, 3, 5, 7, 11):
        powers = [prime ** k for k in range(MAX_RING_SITES.bit_length())
                  if prime ** k <= MAX_RING_SITES]
        lengths = np.outer(lengths, powers).ravel()
        lengths = lengths[lengths <= MAX_RING_SITES]
    return np.sort(lengths)


_FAST_LENGTHS = _fast_lengths()  # 3,608 lengths; the last is the cap


def ring_length(n_sites) -> int:
    """The length of every ring: the least 11-smooth length >= ``n_sites``
    (any float), refused above ``MAX_RING_SITES`` before allocating."""
    require_ring_fits(n_sites)
    return int(_FAST_LENGTHS[np.searchsorted(_FAST_LENGTHS, n_sites)])


@dataclass(frozen=True)
class MomentumGrid:
    """Discrete Fourier-dual momentum grid of a lattice with spacing dt."""

    n: int
    dt: float

    @property
    def p(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dt)

    @property
    def phi(self) -> np.ndarray:
        """Ring phases p * dt in [-pi, pi)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n)


@dataclass(frozen=True)
class SpectralState:
    """2-component amplitudes per grid momentum (spin basis |+>, |->)."""

    grid: MomentumGrid
    amp: np.ndarray  # shape (2, n)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))


def lattice_to_spectral(state: LatticeState, n: int) -> SpectralState:
    """Unitary DFT of the lattice state onto a ring of n sites, refused
    above ``MAX_RING_SITES`` or below ``state.n_sites``; callers size n
    with ``ring_length``."""
    require_ring_fits(n)
    if n < state.n_sites:
        raise ValueError(f"a ring of {n} sites cannot resolve a state "
                         f"spanning {state.n_sites} sites")
    buf = np.zeros((2, n), dtype=complex)
    idx = np.mod(state.sites, n)
    buf[0, idx] = state.a_plus
    buf[1, idx] = state.a_minus
    amp = np.fft.fft(buf, axis=1) / np.sqrt(n)
    return SpectralState(grid=MomentumGrid(n=n, dt=state.dt), amp=amp)


def spectral_to_lattice(spec: SpectralState, m_min: int, n_sites: int,
                        x0: float = 0.0) -> LatticeState:
    """Inverse DFT, read out the window [m_min, m_min + n_sites)."""
    n = spec.grid.n
    if n_sites > n:
        raise ValueError("requested window exceeds the ring")
    buf = np.fft.ifft(spec.amp, axis=1) * np.sqrt(n)
    idx = np.mod(np.arange(m_min, m_min + n_sites), n)
    return LatticeState(dt=spec.grid.dt, m_min=m_min, x0=x0,
                        a_plus=buf[0, idx], a_minus=buf[1, idx])


def propagator_symbol(p, t: float, branch: str = "plus"):
    """Entries (m00, m01, m10, m11) of exp(-i H(p) t), elementwise in p."""
    sign = branch_sign(branch)
    p = np.asarray(p, dtype=float)
    e = np.sqrt(p * p + 1.0)
    c = np.cos(e * t)
    s = np.sin(e * t) / e
    return c - 1j * s * sign * p, -s, s, c + 1j * s * sign * p


def walk_power_symbol(phi, dt: float, n_steps: int, branch: str = "plus"):
    """Entries (m00, m01, m10, m11) of M^n for any integer n, elementwise
    in the ring phase phi = p dt (see the module docstring for M and its
    sign map)."""
    sign = branch_sign(branch)
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(dt), np.sin(dt)
    c_sin = c * np.sin(phi)
    sin_theta = np.sqrt(c_sin * c_sin + s * s)
    n_theta = n_steps * np.arctan2(sin_theta, c * np.cos(phi))
    cos_n = np.cos(n_theta)
    ratio = np.sin(n_theta) / sin_theta
    # ratio * K: diagonal -+i sign c sin(phi), off-diagonal
    # -s e^{-i sign phi} (upper) and s e^{i sign phi} (lower)
    diag = 1j * sign * ratio * c_sin
    off = s * ratio * np.exp(-1j * sign * phi)
    return cos_n - diag, -off, np.conj(off), cos_n + diag


def _apply_symbol(spec: SpectralState, symbol) -> SpectralState:
    """Multiply every mode's spinor by its 2x2 symbol (m00, m01, m10, m11)."""
    m00, m01, m10, m11 = symbol
    up, dn = spec.amp
    return SpectralState(grid=spec.grid,
                         amp=np.stack([m00 * up + m01 * dn,
                                       m10 * up + m11 * dn]))


def _evolve_on_ring(state: LatticeState, symbol, grow: int) -> LatticeState:
    """Apply ``symbol(grid)`` to every mode of a ring that holds the output
    window [m_min - grow, m_min + n_sites + grow), and read that window out.
    """
    spec = lattice_to_spectral(state,
                               ring_length(state.n_sites + 2 * grow))
    spec = _apply_symbol(spec, symbol(spec.grid))
    return spectral_to_lattice(spec, m_min=state.m_min - grow,
                               n_sites=state.n_sites + 2 * grow, x0=state.x0)


def evolve(state: LatticeState, n_steps: int,
           branch: str = "plus") -> LatticeState:
    """``n_steps`` walk steps in one FFT pair; a negative count runs the
    walk backwards, so ``evolve(evolve(s, n), -n)`` is s again, padded
    with 2|n| zero sites on each side.

    The ring holds the whole output window [m_min - |n|, m_min + n_sites +
    |n|), so the circular product is the walk itself, without wrap-around.
    Amplitudes outside the light cone of the initial nonzero support are
    set to exactly 0.0, as the step-by-step walk leaves them.  The norm is
    checked before and after against ``TOL.norm_drift_abort`` (monitored,
    never repaired: ``NumericalHealthError``); ``norm_drift`` holds the
    final drift as a 1-element array.  For n = 0 the state comes back unchanged
    with an empty drift record, as from ``walk.evolve_steps``; an unknown
    branch is refused for every n, 0 included.
    """
    branch_sign(branch)
    require_unit_norm(state)
    if n_steps == 0:
        return replace(state.copy(), norm_drift=np.empty(0))
    grow = abs(n_steps)
    out = _evolve_on_ring(state, lambda grid: walk_power_symbol(
        grid.phi, state.dt, n_steps, branch), grow)
    occupied = np.flatnonzero((state.a_plus != 0) | (state.a_minus != 0))
    # with no nonzero site the initial norm check has already failed
    for amp in (out.a_plus, out.a_minus):
        amp[:occupied[0]] = 0.0
        amp[occupied[-1] + 2 * grow + 1:] = 0.0
    drift = abs(out.norm_sq() - 1.0)
    if drift > TOL.norm_drift_abort:
        raise NumericalHealthError(
            f"norm drift {drift:.3e} after {n_steps} steps "
            f"exceeds budget {TOL.norm_drift_abort:.1e}"
        )
    return replace(out, norm_drift=np.array([drift]))
