"""The momentum ring on which walk, exact evolution, time reversal, the
energy leakage and the weak-limit coefficients all act, and the one
per-mode product applied there.

A lattice state is carried onto a ring of N sites by a unitary DFT
(convention: spectral(p) picks up exp(-i p x), position recovers it with
exp(+i p x); dp * dx * N = 2 pi holds exactly).  Site m is ring index
m mod N, so a window of at most N sites comes back unaliased.  Every walk
symbol takes the quasi-momentum phi, the label of the shift's eigenstates
e^{i m phi}, with the one sign map p = -phi/dt: forward-DFT mode k has
phi = -2 pi k / N, and ``asymptotic.spectral_coefficients`` transforms the
same ring (``ring_buffer``) the inverse way to read phi = 2 pi k / N at k.
Every layer multiplies each mode of its (2, N) ring, in place, by an SU(2)
matrix [[a, -b*], [b, a*]] given as its pair (a, b) (``apply_pair``): the
leakage and the coefficients by real pairs, and an evolution, between
``ring_modes`` and the transform back, by its symbol:

* exact evolution for a time t, exact because H(p)^2 = E^2 I:

      exp(-i H(p) t) = cos(E t) I - i (sin(E t) / E) H(p),   E = sqrt(p^2+1),

  so a = cos(E t) - i (sin(E t) / E) p and b = sin(E t) / E is real;
* n walk steps of M(phi) = diag(e^{i phi}, e^{-i phi}) . coin(dt).  M has
  det 1 and eigenvalues e^{+-i theta}, cos(theta) = cos(dt) cos(phi), and
  ``_dispersion`` gives sin(theta) = sqrt(sin^2 dt + t^2), t = cos(dt)
  sin(phi), which keeps its digits near theta -> 0, and the group velocity
  h = d theta / d phi = t / sin(theta).  By Cayley-Hamilton (K = M -
  cos(theta) I has K^2 = -sin^2(theta) I), for every integer n (n < 0
  reverses time), M^n = cos(n theta) I + r K, r = sin(n theta) /
  sin(theta): a = cos(n theta) + i r t and b = r sin(dt) e^{-i phi}.

Both symbols are the "plus" helicity branch's, the only one computed here.

Every pair is evaluated on half the ring (``apply_symbol``): on the
``fftfreq`` grids mode N - k is mode k mirrored, phi -> -phi and p -> -p
to the bit, so modes 0..N // 2 fix the rest.  The walk's t = cos(dt)
sin(phi) is odd and theta even, so a(-phi) = a(phi)* and b(-phi) =
b(phi)*; the propagator's a(-p) = a(p)* and b(-p) = b(p), real; the
leakage's weights W+(-p) = W-(p).  The tail takes the head's used-up
pair through reversed views, so every mode is multiplied by the bits the
full grid gives it.  One exception keeps that true: numpy rounds an
in-place complex multiply of a one-element array differently from the
same element inside a longer one, so rings of at most 4 sites, whose
tail would be one mode, are evaluated whole.
Per-mode work is embarrassingly parallel; all functions but
``apply_pair`` and ``apply_symbol``, which work in place, are pure.
"""

import numpy as np

from .constants import (MAX_RING_SITES, TOL, NumericalHealthError,
                        require_ring_fits)
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


def ring_buffer(state: LatticeState, n: int,
                minus_shift: int = 0) -> np.ndarray:
    """The (2, n) ring of a lattice state before its transform: a+[m] at
    index m mod n, and a-[m] at index (m + minus_shift) mod n.  Refused
    above ``MAX_RING_SITES`` or below ``state.n_sites``; callers size n
    with ``ring_length``."""
    require_ring_fits(n)
    if n < state.n_sites:
        raise ValueError(f"a ring of {n} sites cannot resolve a state "
                         f"spanning {state.n_sites} sites")
    buf = np.zeros((2, n), dtype=complex)
    for row, amp, shift in ((buf[0], state.a_plus, 0),
                            (buf[1], state.a_minus, minus_shift)):
        head, tail = _wrap(state.m_min + shift, state.n_sites, n)
        split = head.stop - head.start
        row[head], row[tail] = amp[:split], amp[split:]
    return buf


def _wrap(m_min: int, n_sites: int, n: int) -> tuple[slice, slice]:
    """The ring indices of the sites [m_min, m_min + n_sites), n_sites <= n,
    as two slices: from m_min mod n up to the ring's end, then from 0."""
    start = m_min % n
    first = min(n_sites, n - start)
    return slice(start, start + first), slice(0, n_sites - first)


def ring_modes(state: LatticeState, n: int) -> np.ndarray:
    """The unitary DFT of a state's ring of n sites, in place in its
    ``ring_buffer``: mode k holds sum_m a[m] e^{-2 pi i k m / n} / sqrt(n)."""
    ring = ring_buffer(state, n)
    np.fft.fft(ring, axis=1, out=ring)
    # numpy divides by a real c as c + 0j, a multiply by 1/c: same bits
    ring *= 1.0 / np.sqrt(n)
    return ring


def propagator_symbol(p, t: float):
    """The pair (a, b) of exp(-i H(p) t), elementwise in p; b is real."""
    p = np.asarray(p, dtype=float)
    e = np.sqrt(p * p + 1.0)
    c = np.cos(e * t)
    s = np.sin(e * t) / e
    return c - 1j * s * p, s


def _dispersion(phi, dt: float):
    """t = cos(dt) sin(phi) and sin(theta) = sqrt(sin^2 dt + t^2) of the
    walk symbol, elementwise in phi; the only place either is formed."""
    s = np.sin(dt)
    t = np.cos(dt) * np.sin(phi)
    return t, np.sqrt(s * s + t * t)


def walk_power_symbol(phi, dt: float, n_steps: int):
    """The pair (a, b) of M(phi)^n for any integer n, elementwise in the
    quasi-momentum phi (see the module docstring)."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(dt), np.sin(dt)
    t, sin_theta = _dispersion(phi, dt)
    n_theta = n_steps * np.arctan2(sin_theta, c * np.cos(phi))
    ratio = np.sin(n_theta) / sin_theta
    return np.cos(n_theta) + 1j * ratio * t, s * ratio * np.exp(-1j * phi)


def apply_pair(ring: np.ndarray, a, b) -> None:
    """ring <- [[a, -b*], [b, a*]] ring, mode by mode, in place in a (2, n)
    ring (or a view of one); a and b, complex or real, are used up."""
    up, dn = ring
    # symbol first in every product: complex multiplication is not
    # bitwise commutative; a and b are conjugated in place once used
    lower = np.multiply(b, up)
    np.multiply(a, up, out=up)
    up -= np.multiply(np.conjugate(b, out=b), dn)
    np.multiply(np.conjugate(a, out=a), dn, out=dn)
    dn += lower


def apply_symbol(ring: np.ndarray, symbol, swap: bool = False) -> None:
    """ring <- a per-mode pair, in place in a (2, n) ring, evaluated on
    modes 0..half - 1 only: ``symbol(n, half)`` is (a, b) there.

    Modes half..n - 1 take the mirrored head (see the module docstring):
    (a*, b*), which ``apply_pair`` leaves in a and b, through reversed
    views, or with ``swap`` the real weights (b, a).  half = n // 2 + 1,
    so an even ring's Nyquist mode keeps its own label; for n <= 4 it is
    n, and the tail is empty.
    """
    n = ring.shape[1]
    half = n // 2 + 1 if n > 4 else n
    a, b = symbol(n, half)
    apply_pair(ring[:, :half], a, b)
    if swap:
        a, b = b, a
    apply_pair(ring[:, half:], a[n - half:0:-1], b[n - half:0:-1])


def _evolve_on_ring(state: LatticeState, symbol, grow: int) -> LatticeState:
    """Apply ``symbol`` (see ``apply_symbol``) to the one (2, n) buffer of
    a ring that holds the output window [m_min - grow, m_min + n_sites +
    grow), and read that window out."""
    m_min, n_sites = state.m_min - grow, state.n_sites + 2 * grow
    n = ring_length(n_sites)
    ring = ring_modes(state, n)
    apply_symbol(ring, symbol)
    np.fft.ifft(ring, axis=1, out=ring)
    ring *= np.sqrt(n)
    head, tail = _wrap(m_min, n_sites, n)
    a_plus, a_minus = (np.concatenate((row[head], row[tail])) for row in ring)
    return LatticeState(dt=state.dt, m_min=m_min, a_plus=a_plus,
                        a_minus=a_minus)


def evolve(state: LatticeState, n_steps: int) -> LatticeState:
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
    with an empty drift record, as from the step-by-step loop
    ``evolve_steps`` in ``tests/oracles.py``, this function's reference.
    """
    require_unit_norm(state)
    if n_steps == 0:
        return LatticeState(state.dt, state.m_min, state.a_plus.copy(),
                            state.a_minus.copy(), norm_drift=np.empty(0))
    grow = abs(n_steps)
    out = _evolve_on_ring(state, lambda n, half: walk_power_symbol(
        -2.0 * np.pi * np.fft.fftfreq(n)[:half], state.dt, n_steps), grow)
    occupied = np.flatnonzero((state.a_plus != 0) | (state.a_minus != 0))
    # with no nonzero site the initial norm check has already failed
    for amp in (out.a_plus, out.a_minus):
        amp[:occupied[0]] = 0.0
        amp[occupied[-1] + 2 * grow + 1:] = 0.0
    drift = abs(out.norm_sq() - 1.0)
    if not drift <= TOL.norm_drift_abort:
        raise NumericalHealthError(
            f"norm drift {drift:.3e} after {n_steps} steps "
            f"exceeds budget {TOL.norm_drift_abort:.1e}"
        )
    out.norm_drift = np.array([drift])
    return out
