"""Weak-limit machinery of the walk: the eigenvector weights and group
velocity of its symbol, spectral coefficients of lattice states, and the
closed-form asymptotic position density with its CDF and moments.

The symbol M(phi), its quasi-momentum phi with the sign map p = -phi/dt,
and its dispersion (eigenvalues e^{+-i theta}, group velocity h(phi) =
d theta / d phi = cos(dt) sin(phi) / sin(theta), bounded by cos(dt)) are
stated once, in ``spectral``; here M is the "plus" branch's.
``spectral_coefficients`` reads phi = 2 pi k / N at index k of the inverse
DFT of the state's ring.  The scaled walker position X_n/(n dt) converges
weakly to a variable supported on (-1, 1) whose law is carried by
|g+-(phi)|^2; for the localized Gaussian packets the limiting density is
the two-horned

    F(y; nu) = (1 / (nu sqrt(pi))) (1 - y^2)^{-3/2}
               exp(-y^2 / (nu^2 (1 - y^2))).

Eigenvector phases are fixed by making the first component real positive;
only |g+-|^2 is consumed downstream, so the choice is unobservable.  All
operations are pure and per-phi parallelizable.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .initial import gaussian_profile
from .spectral import _dispersion, ring_buffer, ring_length
from .spinor import energy
from .walk import LatticeState


def _check_dt(dt: float) -> None:
    if not (0.0 < dt < np.pi) or abs(np.cos(dt)) == 1.0:
        raise ValueError(f"dt={dt!r} needs 0 < dt < pi and |cos dt| < 1 "
                         "(false within ~1e-8 of 0 and pi): else "
                         "|cos(phi) cos(dt)| reaches 1")


def _eigen_weights(phi, dt):
    """The real weights (alpha, beta) of the symbol's orthonormal
    eigenvectors, whose first components are real > 0:

        v+ = (alpha, -i e^{-i phi} beta),   v- = (beta, i e^{-i phi} alpha).

    With t and sin(theta) of ``spectral._dispersion``, v+ is along (s,
    i e^{-i phi} (t - sin theta)) and v- along (s, i e^{-i phi} (t + sin
    theta)), s = sin dt.  As (t - sin theta)(t + sin theta) = -s^2, both
    follow from B = |t| + sin(theta) alone, which never cancels:
    (alpha, beta) = (B, s)/N for t >= 0 and (s, B)/N for t < 0, with
    N = sqrt(s^2 + B^2).  phi -> -phi swaps alpha and beta.
    """
    _check_dt(dt)
    s = np.sin(dt)
    t, sin_theta = _dispersion(phi, dt)
    big = np.abs(t) + sin_theta
    norm = np.sqrt(s * s + big * big)
    up = t >= 0
    return np.where(up, big, s) / norm, np.where(up, s, big) / norm


def group_velocity(phi, dt: float):
    """h(phi) = t / sin(theta) = cos(dt) sin(phi) / sqrt(sin^2 dt +
    cos^2 dt sin^2 phi), the phi-derivative of the symbol's phase theta.

    The +- bands propagate with velocity +-h; |h| <= cos(dt) < 1, so the
    walk spreads strictly slower than the lattice light cone.
    """
    _check_dt(dt)
    t, sin_theta = _dispersion(phi, dt)
    out = t / sin_theta
    return out if out.ndim else float(out)


class _Runs(NamedTuple):
    """The runs of both bands, each read so that its key rises, stored end
    to end: run r owns the samples start[r] .. start[r] + size[r] and the
    size[r] cells between them; key and weight u are linear on each
    cell."""

    start: np.ndarray    # (R,) first sample of each run
    size: np.ndarray     # (R,) cells of each run
    key: np.ndarray      # key at the samples
    key_max: np.ndarray  # running max of key along its run
    key_min: np.ndarray  # running min of key along its run, from its end
    u: np.ndarray        # weight at the samples
    whole: np.ndarray    # mass of the cell that starts at each sample
    cum: np.ndarray      # mass of the run's cells before each sample

    @classmethod
    def build(cls, h, u_plus, u_minus, dphi) -> "_Runs":
        """From the samples of h and of the weights |g+-|^2 dt/(2 pi) on
        one period of the phi grid, and the width of the cell that starts
        at each sample (the last one closes the period).

        Over one period h rises from its minimum to its maximum and falls
        back.  Read from the argmin of the samples and closed by it again,
        the period splits at the argmax into a rising and a falling slice,
        which give each band one run on which its key rises and one on
        which it falls; a falling run is read backwards.
        """
        n = h.size
        lo = int(np.argmin(h))
        r = (int(np.argmax(h)) - lo) % n
        h, u_plus, u_minus = (np.concatenate((x[lo:], x[:lo + 1]))
                              for x in (h, u_plus, u_minus))
        dphi = np.concatenate((dphi[lo:], dphi[:lo]))
        rise, fall = slice(0, r + 1), slice(r, n + 1)
        runs = ((1.0, u_plus, rise, 1), (1.0, u_plus, fall, -1),
                (-1.0, u_minus, fall, 1), (-1.0, u_minus, rise, -1))
        size = np.array([r, n - r, n - r, r])
        start = np.concatenate(([0], np.cumsum(size + 1)[:-1]))
        # a run's last sample starts no cell: its whole stays 0
        key, u_all, whole, cum = (np.zeros(size.sum() + size.size)
                                  for _ in range(4))
        for s, k, (sign, u, run, step) in zip(start, size, runs):
            u_all[s:s + k + 1] = u[run][::step]
            w = dphi[run.start:run.stop - 1][::step]
            np.multiply(h[run][::step], sign, out=key[s:s + k + 1])
            np.multiply(0.5 * (u_all[s:s + k] + u_all[s + 1:s + k + 1]), w,
                        out=whole[s:s + k])
            np.cumsum(whole[s:s + k], out=cum[s + 1:s + k + 1])
        key_max, key_min = np.empty_like(key), np.empty_like(key)
        for s, k in zip(start, size):
            run = slice(s, s + k + 1)
            np.maximum.accumulate(key[run], out=key_max[run])
            np.minimum.accumulate(key[run][::-1], out=key_min[run][::-1])
        return cls(start, size, key, key_max, key_min, u_all, whole, cum)

    def mass(self, y: np.ndarray, side: str) -> np.ndarray:
        """Mass of {key <= y} (side "right") or {key < y} (side "left")
        over all runs, for a 1-d array y; non-decreasing in y as rounded.

        In each run, the cells before k1 lie wholly below y, and the cells
        from k2 on wholly above it.  The cells between hold y: one on a
        monotone run, more where rounding lets the samples next to an
        extreme of h wiggle by an ulp (for y within that band of +-cos dt,
        a share of n_phi that grows as dt falls).  Each is integrated on
        its own, as the cell-by-cell scan does, so the wiggles cost no
        accuracy.  A run's mass is cum at k1 plus those cells in turn, so a
        cell passing into cum as y grows adds no less than its share did.
        """
        runs = list(zip(self.start.tolist(), self.size.tolist()))
        k1 = np.array([self.key_max[s + 1:s + n + 1].searchsorted(y, side)
                       for s, n in runs])
        k2 = np.array([self.key_min[s:s + n].searchsorted(y, side)
                       for s, n in runs])
        cell = self.start[:, None] + k1
        total = self.cum[cell]
        width = k2 - k1
        y_at = np.broadcast_to(y, cell.shape)
        for _ in range(width.max(initial=0)):
            held = width > 0
            total[held] += self.whole[cell[held]] * self._share(
                y_at[held], cell[held], side)
            cell += 1
            width -= 1
        return total.sum(axis=0)

    def _share(self, y, j, side: str):
        """The share of cell j's mass where key_a + (key_b - key_a) s, s in
        [0, 1], is below y, for weight u_a + (u_b - u_a) s: all of a flat
        cell or none of it.  Each form is monotone in y when rounded."""
        key_a, span = self.key[j], self.key[j + 1] - self.key[j]
        u_a, u_b = self.u[j], self.u[j + 1]
        flat = span == 0.0
        t = np.clip((y - key_a) / np.where(flat, 1.0, span), 0.0, 1.0)
        both = np.maximum(u_a + u_b, 1e-300)  # u_a = u_b = 0: whole is 0
        # the share of s in [0, t]: t (2 u_a + (u_b - u_a) t) / both, or
        # 1 less that of [t, 1], so that every factor rises with t
        r = 1.0 - t
        share = np.where(u_b >= u_a, t * (2.0 * u_a + (u_b - u_a) * t) / both,
                         1.0 - r * (2.0 * u_b + (u_a - u_b) * r) / both)
        share = np.clip(share, 0.0, 1.0)
        below = key_a <= y if side == "right" else key_a < y
        return np.where(flat, below, np.where(span > 0.0, share, 1.0 - share))


@dataclass(frozen=True)
class SpectralCoefficients:
    """g+-(phi) of a lattice state on a uniform phi grid: one ring period,
    ascending."""

    phi: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    dt: float

    @property
    def dphi(self) -> float:
        return float(self.phi[1] - self.phi[0])

    def completeness(self) -> float:
        """sum (|g+|^2 + |g-|^2) dt dphi / (2 pi); 1 for unit-norm states."""
        w = np.abs(self.g_plus) ** 2 + np.abs(self.g_minus) ** 2
        return float(np.sum(w) * self.dt * self.dphi / (2.0 * np.pi))

    def mass_below(self, y):
        """P(Y <= y) for the weak limit Y of X_n/(n dt), vectorized in y:

            Int_{+h <= y} |g+|^2 dt dphi/(2 pi)
              + Int_{-h <= y} |g-|^2 dt dphi/(2 pi),

        with h and |g+-|^2 linear on each cell of the periodic phi grid
        (closed at phi[0] + 2 pi).  O(log n_phi) per value of y, after an
        O(n_phi) build on the first call, plus the cells that hold y: one,
        or the rounding band next to an extreme of h for y near +-cos dt.
        """
        return self._mass(y, "right")

    def _mass(self, y, side: str):
        y = np.asarray(y, dtype=float)
        if not np.all((-1.0 <= y) & (y <= 1.0)):
            raise ValueError("need -1 <= y <= 1")
        total = self._runs.mass(y.reshape(-1), side).reshape(y.shape)
        return total if total.ndim else float(total)

    @cached_property
    def _runs(self) -> _Runs:
        """The runs of +h (weights |g+|^2) and -h (|g-|^2), built on first
        use and kept with the coefficients."""
        scale = self.dt / (2.0 * np.pi)
        return _Runs.build(
            group_velocity(self.phi, self.dt),
            np.abs(self.g_plus) ** 2 * scale,
            np.abs(self.g_minus) ** 2 * scale,
            np.diff(np.append(self.phi, self.phi[0] + 2.0 * np.pi)))


def spectral_coefficients(state: LatticeState,
                          n_phi: int | None = None) -> SpectralCoefficients:
    """Expand a lattice state in the symbol eigenbasis.

    g+-(phi) = sum_m {c+(m dt) f*(+-,+) + c-(m dt) f*(+-,-)} e^{i m phi},
    with c(m dt) = a[m]/sqrt(dt), on one period of quasi-momenta phi =
    2 pi k / n_phi, ascending, phi = 0 included.  In the eigenvectors of
    ``_eigen_weights`` that is

        g+ = (alpha A - beta C) / sqrt(dt),
        g- = (beta A + alpha C) / sqrt(dt),

    with A = sum_m a+[m] e^{i m phi} and C = -i e^{i phi} sum_m a-[m]
    e^{i m phi}: the factor e^{i phi} moves a- one site on, so both are
    one unnormalized inverse DFT of the state's ring (``spectral.
    ring_buffer``), read from ring index phi n_phi / (2 pi) mod n_phi.  The
    grid must resolve the state's trigonometric degree: at least one point
    per occupied site (default 8x, rounded up to an FFT-friendly size).
    """
    if n_phi is None:
        n_phi = ring_length(max(8 * state.n_sites, 4096))
    elif not isinstance(n_phi, (int, np.integer)) or n_phi < 2:
        raise ValueError(f"n_phi={n_phi!r} must be an integer >= 2")
    n = int(n_phi)
    half = (n - 1) // 2
    # bit for bit np.sort(-2 pi fftfreq(n)), -0.0 at phi[half] included
    phi = -2.0 * np.pi * ((half - np.arange(n)) * (1.0 / n))
    alpha, beta = _eigen_weights(phi[half:], state.dt)
    root_dt = np.sqrt(state.dt)
    alpha /= root_dt
    beta /= root_dt
    ring = ring_buffer(state, n, minus_row=-1j * state.a_minus,
                       minus_shift=1)
    np.fft.ifft(ring, axis=1, norm="forward", out=ring)
    g_plus, g_minus = np.empty((2, n), dtype=complex)
    # phi >= 0 is ring index k = 0, 1, ...; phi < 0 the ring's tail, at
    # the weights of -phi with alpha and beta swapped
    for grid, ring_part, a_w, b_w in (
            (slice(half, n), slice(0, n - half), alpha, beta),
            (slice(0, half), slice(n - half, n), beta[half:0:-1],
             alpha[half:0:-1])):
        a, c = ring[0, ring_part], ring[1, ring_part]
        plus, minus = g_plus[grid], g_minus[grid]
        np.multiply(a_w, a, out=plus)
        np.multiply(b_w, a, out=minus)
        # a is spent: it holds the C terms
        plus -= np.multiply(b_w, c, out=a)
        minus += np.multiply(a_w, c, out=a)
    return SpectralCoefficients(phi=phi, g_plus=g_plus, g_minus=g_minus,
                                dt=state.dt)


def limit_cdf(y1: float, y2: float, coeffs: SpectralCoefficients) -> float:
    """P(y1 <= Y <= y2) for the weak limit Y of X_n/(n dt):

        Int_{T+} |g+|^2 dt dphi/(2 pi) + Int_{T-} |g-|^2 dt dphi/(2 pi),
        T+- = {phi : y1 <= +-h(phi) <= y2},

    as ``coeffs.mass_below(y2)`` minus the mass strictly below y1, so a
    flat cell of h counts when y1 <= h <= y2; clamped to [0, 1].
    Membership is linear within each grid cell, which sums over every
    local inverse of h without inverting it.
    """
    if not (-1.0 <= y1 <= y2 <= 1.0):
        raise ValueError("need -1 <= y1 <= y2 <= 1")
    if y1 == y2:
        return 0.0
    total = coeffs.mass_below(y2) - coeffs._mass(y1, "left")
    return float(min(max(total, 0.0), 1.0))


def limit_density(y, nu: float):
    """Closed-form asymptotic density F(y; nu) on the open interval (-1, 1)."""
    if not nu > 0:
        raise ValueError("nu must be positive")
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("the density is defined for |y| < 1")
    one = 1.0 - y * y
    out = (one ** -1.5) * np.exp(-y * y / (nu * nu * one)) / (nu * np.sqrt(np.pi))
    return out if out.ndim else float(out)


def limit_density_mass(y1: float, y2: float, nu: float) -> float:
    """Int_{y1}^{y2} F(y; nu) dy in closed form.

    The substitution u = y / sqrt(1 - y^2) of ``limit_moment`` turns
    F(y; nu) dy into e^{-u^2/nu^2} du / (nu sqrt(pi)), so the mass is
    (erf(u2/nu) - erf(u1/nu)) / 2, with u = +-inf at y = +-1.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    if y1 > y2:
        raise ValueError("need y1 <= y2")
    a, b = max(y1, -1.0), min(y2, 1.0)
    if a >= b:
        return 0.0

    def erf_u(y):
        if abs(y) >= 1.0:
            return math.copysign(1.0, y)
        return math.erf(y / (nu * math.sqrt((1.0 - y) * (1.0 + y))))

    return 0.5 * (erf_u(b) - erf_u(a))


def horn_location(nu: float) -> float:
    """Positive maximizer of F(y; nu): sqrt(1 - 2/(3 nu^2)).

    Setting d(log F)/dy = 0 gives 1 - y^2 = 2/(3 nu^2); for nu^2 <= 2/3
    the density is unimodal at 0 and 0.0 is returned.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    if nu * nu <= 2.0 / 3.0:
        return 0.0
    return float(np.sqrt(1.0 - 2.0 / (3.0 * nu * nu)))


def limit_moment(k: int, nu: float) -> float:
    """Int y^k F(y; nu) dy: F is the law of the group velocity y = p/E(p)
    under |f_nu(p)|^2 dp (the substitution u = y / sqrt(1 - y^2) with
    u = p), so this is the profile mean of (p/E(p))^k."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return gaussian_profile(nu).mean(lambda p: (p / energy(p)) ** k)


def limit_cdf_gaussian(y1: float, y2: float, nu: float, dt: float) -> float:
    """Finite-dt closed-form route to P(y1 <= Y <= y2) for Gaussian packets.

    The envelope |g+|^2 + |g-|^2 = 2 sqrt(pi) e^{-phi^2/(nu dt)^2} /
    (nu dt^2) over phi(y1) <= phi <= phi(y2), with phi(y) = arcsin(min(
    tan(dt) |y| / sqrt(1 - y^2), 1)) sign(y) the local inverse of h near
    phi = 0 (the envelope suppresses all others; +-pi/2 at the band edge
    |y| = cos dt): (erf(phi(y2)/(nu dt)) - erf(phi(y1)/(nu dt))) / 2.
    """
    _check_dt(dt)
    if not (-1.0 <= y1 <= y2 <= 1.0):
        raise ValueError("need -1 <= y1 <= y2 <= 1")
    if not nu > 0:
        raise ValueError("nu must be positive")
    tan_dt = math.tan(dt)

    def erf_phi(y):
        one = (1.0 - y) * (1.0 + y)
        arg = min(tan_dt * abs(y) / math.sqrt(one), 1.0) if one > 0.0 else 1.0
        return math.erf(math.copysign(math.asin(arg), y) / (nu * dt))

    return 0.5 * (erf_phi(y2) - erf_phi(y1))
