"""The momentum ring and every layer that acts on it: the walk and its
time reversal (``evolve``), exact evolution (``evolve_exact_on_lattice``),
the energy leakage (``energy_leakage``) and the weak-limit band weights
(``band_weights``), each through the one per-mode product applied there.

A lattice state is carried onto a ring of N sites by a unitary DFT
(convention: spectral(p) picks up exp(-i p x), position recovers it with
exp(+i p x); dp * dx * N = 2 pi holds exactly).  Site m is ring index
m mod N, so a window of at most N sites comes back unaliased.  Every walk
symbol takes the quasi-momentum phi, the label of the shift's eigenstates
e^{i m phi}, with the one sign map p = -phi/dt: forward-DFT mode k has
phi = -2 pi k / N.

A state is a+ alone (``walk.LatticeState``), so its ring is one row u, and
the sigma2 parity a-(m) = i a+(-m) reads u-(k) = i u(N - k) in modes.  A
spinor's 2x2 product at mode k therefore acts on the folded pair (u(k),
i u(N - k)) of modes k and N - k, k = 0..N // 2, whose lower component
``ring_mirror`` forms: every layer multiplies it, in place, by an SU(2)
matrix [[a, -b*], [b, a*]] given as its pair (a, b) (``apply_pair``).
The leakage and the band weights take the pairs of their projections
(on u+'s orthogonal spinor, and on M's eigenvectors, ``_eigen_weights``),
and an evolution, between ``ring_modes`` and the transform back, its
symbol:

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

Each symbol is evaluated on modes 0..N // 2 only (``apply_symbol``): the
upper row of the product is the new u(k), and -i times the lower row the
new u(N - k) (``ring_unfold``), as on the ``fftfreq`` grids mode N - k is
mode k mirrored (phi -> -phi, p -> -p to the bit), where both symbols'
pairs turn to (a*, b*).  Mode 0 is its own mirror, with (u, i u) an
eigenvector, and keeps the upper row; so is an even ring's Nyquist mode
under the walk's 2 pi-periodic symbol, but the propagator differs at
p = -pi/dt and +pi/dt, so exact evolution's rings are odd.  Multiplying
by +-i is exact, so every mode takes the bits of row 0 of the two-row
ring (u, i u(N - k)) on the full grid.  Per-mode work is embarrassingly
parallel; all functions but ``apply_pair``, ``apply_symbol`` and
``ring_unfold`` (in place) are pure.
"""

import numpy as np

from .constants import (MAX_RING_SITES, TOL, InputError,
                        NumericalHealthError, require_number,
                        require_ring_fits)
from .spinor import spinor_weights
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
_ODD_LENGTHS = _FAST_LENGTHS[_FAST_LENGTHS % 2 == 1]  # 616; 4,159,375 last


def ring_length(n_sites, odd: bool = False) -> int:
    """The length of every ring: the least 11-smooth length >= ``n_sites``
    (any float), odd if ``odd`` is set, refused above the longest such
    length within ``MAX_RING_SITES`` before allocating."""
    lengths = _ODD_LENGTHS if odd else _FAST_LENGTHS
    require_ring_fits(n_sites, int(lengths[-1]))
    return int(lengths[np.searchsorted(lengths, n_sites)])


def ring_modes(state: LatticeState, n: int) -> np.ndarray:
    """The unitary DFT of a state's ring of n sites, a+[m] at index m mod
    n, transformed in place: mode k holds sum_m a+[m] e^{-2 pi i k m / n}
    / sqrt(n).  Refused above ``MAX_RING_SITES`` or below
    ``state.n_sites``; callers size n with ``ring_length``."""
    require_ring_fits(n)
    if n < state.n_sites:
        raise InputError(f"a ring of {n} sites cannot resolve a state "
                         f"spanning {state.n_sites} sites")
    ring = np.zeros(n, dtype=complex)
    m = state.n_sites // 2
    ring[:m + 1], ring[n - m:] = state.a_plus[m:], state.a_plus[:m]
    np.fft.fft(ring, out=ring)
    # numpy divides by a real c as c + 0j, a multiply by 1/c: same bits
    ring *= 1.0 / np.sqrt(n)
    return ring


def ring_mirror(ring: np.ndarray) -> np.ndarray:
    """i ring[N - k mod N] for k = 0..N // 2, as a new array: the lower
    component of the folded pairs (see the module docstring)."""
    half = ring.size // 2 + 1
    mirror = np.empty(half, dtype=complex)
    np.multiply(ring[:1], 1j, out=mirror[:1])
    np.multiply(ring[:ring.size - half:-1], 1j, out=mirror[1:])
    return mirror


def ring_unfold(ring: np.ndarray, mirror: np.ndarray) -> None:
    """ring[N - k] <- -i mirror[k], k = 1..(N - 1) // 2, in place: the
    ring's tail from the lower component of its folded pairs
    (``ring_mirror``)."""
    np.multiply(mirror[(ring.size - 1) // 2:0:-1], -1j,
                out=ring[ring.size // 2 + 1:])


def propagator_symbol(p, t: float):
    """The pair (a, b) of exp(-i H(p) t), elementwise in p; b is real."""
    p = np.asarray(require_number("p", p, array=True), dtype=float)
    t = require_number("t", t)
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


# the steps dt < pi whose sin(dt)^2 is a normal double: sin(theta) > 0
WALK_DT = "[1.5e-154, 3.141592653589793)"


def _eigen_weights(phi, dt):
    """The real weights (alpha, beta) of the symbol's orthonormal
    eigenvectors, whose first components are real > 0:

        v+ = (alpha, -i e^{-i phi} beta),   v- = (beta, i e^{-i phi} alpha).

    With t and sin(theta) of ``_dispersion``, v+ is along (s,
    i e^{-i phi} (t - sin theta)) and v- along (s, i e^{-i phi} (t + sin
    theta)), s = sin dt.  As (t - sin theta)(t + sin theta) = -s^2, both
    follow from B = |t| + sin(theta) alone, which never cancels:
    (alpha, beta) = (B, s)/N for t >= 0 and (s, B)/N for t < 0, with
    N = sqrt(s^2 + B^2).  phi -> -phi swaps alpha and beta.  Returned as
    one new array, rows alpha and beta, formed in place.
    """
    dt = require_number("dt", dt, WALK_DT)
    s = np.sin(dt)
    t, big = (np.asarray(v) for v in _dispersion(phi, dt))
    up = t >= 0
    big += np.abs(t, out=t)
    norm = np.multiply(big, big, out=t)
    norm += s * s
    np.sqrt(norm, out=norm)
    weights = np.empty((2,) + big.shape)
    alpha, beta = weights[0, ...], weights[1, ...]  # views, also for 0-d
    alpha[...], beta[...] = s, big
    np.copyto(alpha, big, where=up)
    np.copyto(beta, s, where=up)
    weights /= norm
    return weights


def walk_power_symbol(phi, dt: float, n_steps: int):
    """The pair (a, b) of M(phi)^n for any integer |n| <= 2^53 (n theta is
    formed in floats), elementwise in the quasi-momentum phi (see the
    module docstring)."""
    phi = np.asarray(require_number("phi", phi, array=True), dtype=float)
    dt = require_number("dt", dt, "(0, inf)")
    n_steps = require_number("n_steps", n_steps, "[-9007199254740992, "
                             "9007199254740992]", integer=True)
    c, s = np.cos(dt), np.sin(dt)
    t, sin_theta = _dispersion(phi, dt)
    n_theta = n_steps * np.arctan2(sin_theta, c * np.cos(phi))
    ratio = np.sin(n_theta) / sin_theta
    return np.cos(n_theta) + 1j * ratio * t, s * ratio * np.exp(-1j * phi)


def apply_pair(ring: np.ndarray, a, b) -> None:
    """ring <- [[a, -b*], [b, a*]] ring, mode by mode, in place in a pair
    of rows (a (2, n) array, or two views); a and b, complex or real, are
    used up."""
    up, dn = ring
    # symbol first in every product: complex multiplication is not
    # bitwise commutative; a and b are conjugated in place once used
    lower = np.multiply(b, up)
    np.multiply(a, up, out=up)
    up -= np.multiply(np.conjugate(b, out=b), dn)
    np.multiply(np.conjugate(a, out=a), dn, out=dn)
    dn += lower


def apply_symbol(ring: np.ndarray, symbol) -> None:
    """ring <- a per-mode pair, in place in a ring of a+'s modes, on the
    folded pairs (u(k), i u(N - k)), k = 0..N // 2, where ``symbol(N,
    N // 2 + 1)`` is (a, b) (see the module docstring)."""
    n = ring.size
    half = n // 2 + 1
    a, b = symbol(n, half)  # before the mirror: its temporaries peak
    mirror = ring_mirror(ring)
    apply_pair((ring[:half], mirror), a, b)
    ring_unfold(ring, mirror)


def _evolve_on_ring(state: LatticeState, symbol, grow: int,
                    odd: bool = False) -> LatticeState:
    """Apply ``symbol`` (see ``apply_symbol``) to the ring that holds the
    output window, ``grow`` sites wider on each side, odd if ``odd`` is
    set (see ``ring_length``), and read that window out."""
    m = state.n_sites // 2 + grow
    n = ring_length(2 * m + 1, odd)
    ring = ring_modes(state, n)
    apply_symbol(ring, symbol)
    np.fft.ifft(ring, out=ring)
    ring *= np.sqrt(n)
    return LatticeState(dt=state.dt,
                        a_plus=np.concatenate((ring[n - m:], ring[:m + 1])))


def evolve(state: LatticeState, n_steps: int) -> LatticeState:
    """``n_steps`` walk steps in one FFT pair; a negative count runs the
    walk backwards, so ``evolve(evolve(s, n), -n)`` is s again, padded
    with 2|n| zero sites on each side.

    The ring holds the whole output window, |n| sites wider on each side,
    so the circular product is the walk itself, without wrap-around.
    Amplitudes outside the light cone of the initial support of a+ and a-
    are set to exactly 0.0, as the step-by-step walk leaves them.  The
    norm is checked before and after against ``TOL.norm_drift_abort``
    (monitored, never repaired: ``NumericalHealthError``); ``norm_drift``
    holds the final drift as a 1-element array, empty for n = 0, as from
    the step-by-step loop ``evolve_steps`` in ``tests/oracles.py``, this
    function's reference.
    """
    n_steps = require_number("n_steps", n_steps, integer=True)
    require_unit_norm(state)
    if n_steps == 0:
        return LatticeState(state.dt, state.a_plus.copy(),
                            norm_drift=np.empty(0))
    grow = abs(n_steps)
    out = _evolve_on_ring(state, lambda n, half: walk_power_symbol(
        -2.0 * np.pi * np.fft.fftfreq(n)[:half], state.dt, n_steps), grow)
    # a-(m) = i a+(-m): the first occupied index of either component; with
    # no nonzero site the initial norm check has already failed
    occupied = np.flatnonzero(state.a_plus)
    lo = min(occupied[0], state.n_sites - 1 - occupied[-1])
    out.a_plus[:lo] = out.a_plus[out.n_sites - lo:] = 0.0
    drift = abs(out.norm_sq() - 1.0)
    if not drift <= TOL.norm_drift_abort:
        raise NumericalHealthError(
            f"norm drift {drift:.3e} after {n_steps} steps "
            f"exceeds budget {TOL.norm_drift_abort:.1e}"
        )
    out.norm_drift = np.array([drift])
    return out


_MARGIN_SITES = 128  # ring padding past the light cone, in sites


def evolve_exact_on_lattice(state: LatticeState, t: float) -> LatticeState:
    """Exact evolution of lattice data, returned on the widened lattice window.

    The ring is padded past the light cone (speed <= 1) so wrap-around
    contamination stays at the window-truncation floor.  It is odd: on an
    even ring's Nyquist mode a+ alone would lose norm (see the module
    docstring).
    """
    t = require_number("t", t)
    # capped, as a float past 1e308 is inf: a ring past the cap is refused
    n_cone = int(min(np.ceil(abs(t) / state.dt), MAX_RING_SITES))
    return _evolve_on_ring(state, lambda n, half: propagator_symbol(
        2.0 * np.pi * np.fft.fftfreq(n, d=state.dt)[:half], t),
        n_cone + _MARGIN_SITES, odd=True)


def energy_leakage(state: LatticeState, branch: str = "plus") -> float:
    """The weight off the positive-energy branch, per mode, over the norm:
    the overlap with v = (W-, -i W+), the unit spinor orthogonal to u+ =
    (W+, i W-), is W-(p) u(k) - W+(p) u(N - k) at mode k (a-(m) = i
    a+(-m)) and its negative at N - k, with no 1 - kept/norm to cancel.

    The exact propagator commutes with the projector, so leakage is a
    conserved diagnostic of exact evolution and a splitting-error gauge
    for the walk.  ``branch`` must be "plus": it stays only for the
    positional call ``energy_leakage(state, "plus")`` in
    ``perfbench/workloads.py``.
    """
    if branch != "plus":
        raise InputError(f"energy_leakage takes branch 'plus' only, got "
                         f"{branch!r}")
    if not np.isfinite(state.norm_sq()):
        raise NumericalHealthError("state is not finite: a NaN or inf "
                                   "amplitude")
    n = ring_length(state.n_sites + 16)
    ring = ring_modes(state, n)
    half = n // 2 + 1
    # the momenta of modes 0..n // 2, where |p| rises to its maximum
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=state.dt)[:half]
    norm_sq = float(np.sum(np.abs(ring) ** 2))  # of a+; a- holds as much
    # refuse states whose spectral weight reaches the Nyquist band, |p| >
    # 0.9 max |p|: modes k0..n - k0, as mode n - k mirrors mode k
    k0 = int(np.argmax(np.abs(p) > 0.9 * abs(p[-1])))
    w = np.sum(np.abs(ring[k0:n - k0 + 1]) ** 2) / max(norm_sq, 1e-300)
    if not w <= TOL.nyquist_weight:
        raise NumericalHealthError(
            f"spectral weight {w:.3e} within 10% of the Nyquist momentum; "
            "the lattice is too coarse for this state"
        )
    # the upper row of the pair (W-, i W+) on the fold, and -i times it at
    # mode n - k: the weight of its negative there
    w_plus, w_minus = spinor_weights(p)
    i_w_plus = 1j * w_plus
    del p, w_plus  # before the kernel's temporaries: the traced peak
    apply_pair((ring[:half], ring_mirror(ring)), w_minus, i_w_plus)
    ring_unfold(ring, ring[:half])
    return float(np.sum(np.abs(ring) ** 2)) / (2 * norm_sq)


def band_weights(state: LatticeState, n: int) -> np.ndarray:
    """The band weights of a state on a ring of n, rows + and -, on the
    fold k = 0..n // 2 (``asymptotic.SpectralCoefficients``): at the walk's
    grid phi = -2 pi k / n the folded pair (u(k), i u(n - k)) is (sum_m
    a+-[m] e^{i m phi}) / sqrt(n), and ``apply_pair`` turns it, with the
    pair (alpha, i beta e^{-i phi}) of ``_eigen_weights``, into (g+, i
    e^{-i phi} g-) sqrt(dt / n): g+- = sum_m {c+(m dt) f*(+-,+) + c-(m dt)
    f*(+-,-)} e^{i m phi}, c(m dt) = a[m]/sqrt(dt), projects the state on
    the eigenvectors v+-, and w+- = |g+-|^2 dt/(2 pi) are its rows' |.|^2
    n / (2 pi).  Each w+- is even in phi (g+-(-phi) = -+e^{-i phi}
    g+-(phi) for every such state): column k is w+-(+-2 pi k / n)."""
    half = n // 2 + 1
    ring = ring_modes(state, n)
    phi = -2.0 * np.pi * np.fft.fftfreq(n)[:half]
    pair = _eigen_weights(phi, state.dt)
    pair *= np.sqrt(n / (2.0 * np.pi))
    b = 1j * pair[1] * np.exp(-1j * phi)
    del phi
    mirror = ring_mirror(ring)
    apply_pair((ring[:half], mirror), pair[0], b)
    del pair, b  # before the weights: the traced peak
    weights = np.empty((2, half))
    np.abs(ring[:half], out=weights[0])
    np.abs(mirror, out=weights[1])
    np.multiply(weights, weights, out=weights)
    return weights
