"""Weak-limit machinery of the walk: the quasi-momentum symbol and its
eigensystem, group velocity, spectral coefficients of lattice states, and
the closed-form asymptotic position density with its CDF and moments.

The shift is diagonal on generalized states e^{i m phi}; the quasi-momentum
phi is minus the ring phase of ``spectral`` (sign map stated there), and
one walk step acts there through the 2x2 unitary symbol

    M(phi) = diag(e^{i phi}, e^{-i phi}) . coin(dt)

with eigenvalues lambda+-(phi) = cos(phi) cos(dt) +- i sqrt(1 - cos^2(phi)
cos^2(dt)) and group velocity h(phi) = -i lambda'(phi)/lambda(phi)
= sin(phi) cos(dt) / sqrt(1 - cos^2(dt) cos^2(phi)), bounded by cos(dt).
The scaled walker position X_n/(n dt) converges weakly to a variable
supported on (-1, 1) whose law is carried by |g+-(phi)|^2; for the
localized Gaussian packets the limiting density is the two-horned

    F(y; nu) = (1 / (nu sqrt(pi))) (1 - y^2)^{-3/2}
               exp(-y^2 / (nu^2 (1 - y^2))).

Eigenvector phases are fixed by making the first component real positive;
only |g+-|^2 is consumed downstream, so the choice is unobservable.  All
operations are pure and per-phi parallelizable.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .initial import gaussian_profile
from .spectral import lattice_to_spectral, ring_length
from .spinor import energy
from .walk import LatticeState, coin_matrix


def _check_dt(dt: float) -> None:
    if not (0.0 < dt < np.pi) or abs(np.cos(dt)) == 1.0:
        raise ValueError(f"dt={dt!r} needs 0 < dt < pi and |cos dt| < 1 "
                         "(false within ~1e-8 of 0 and pi): else "
                         "|cos(phi) cos(dt)| reaches 1")


def _eigen_system(phi, dt):
    """Vectorized closed-form eigensystem of the walk symbol.

    Returns (lam_p, lam_m, f_pp, f_pm, f_mp, f_mm), where v+ = (f_pp, f_pm)
    and v- = (f_mp, f_mm) are orthonormal with first components real > 0.
    The differences c*sin(phi) -+ D are rationalized through
    (c sin - D)(c sin + D) = -s^2 to avoid cancellation.
    """
    _check_dt(dt)
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(dt), np.sin(dt)
    sphi = np.sin(phi)
    a = c * np.cos(phi)
    disc = np.sqrt(np.maximum(1.0 - a * a, 0.0))
    lam_p = a + 1j * disc
    lam_m = a - 1j * disc

    direct_m = c * sphi - disc
    direct_p = c * sphi + disc
    q_m = np.where(sphi > 0, -s * s / direct_p, direct_m)
    q_p = np.where(sphi < 0, -s * s / direct_m, direct_p)

    phase = np.exp(-1j * phi)
    n_p = np.sqrt(s * s + q_m * q_m)
    n_m = np.sqrt(s * s + q_p * q_p)
    f_pp = s / n_p + 0.0j
    f_pm = 1j * phase * q_m / n_p
    f_mp = s / n_m + 0.0j
    f_mm = 1j * phase * q_p / n_m
    return lam_p, lam_m, f_pp, f_pm, f_mp, f_mm


def walk_symbol_matrix(phi: float, dt: float) -> np.ndarray:
    """The 2x2 symbol diag(e^{i phi}, e^{-i phi}) . coin(dt)."""
    shift = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    return shift @ coin_matrix(dt)


def group_velocity(phi, dt: float):
    """h(phi) = sin(phi) cos(dt) / sqrt(1 - cos^2(dt) cos^2(phi)).

    The +- bands propagate with velocity +-h; |h| <= cos(dt) < 1, so the
    walk spreads strictly slower than the lattice light cone.
    """
    _check_dt(dt)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(dt)
    denom = np.sqrt(1.0 - (c * np.cos(phi)) ** 2)
    out = np.sin(phi) * c / denom
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
    cum: np.ndarray      # mass of the run's cells before each sample
    lin: np.ndarray      # u_a dphi of the cell that starts at each sample
    quad: np.ndarray     # (u_b - u_a) dphi / 2 of that cell

    @classmethod
    def build(cls, h, u_plus, u_minus, dphi) -> "_Runs":
        """From the samples of h and of the weights |g+-|^2 dt/(2 pi) on
        one period of the phi grid, and the width of the cell that starts
        at each sample (the last one closes the period).

        Over one period h rises from its minimum to its maximum and falls
        back.  Split at the argmin and argmax of the samples, that gives
        each band one run on which its key rises and one on which it
        falls; a falling run is read backwards.
        """
        n = h.size
        pts = (np.argmin(h) + np.arange(n + 1)) % n
        r = (np.argmax(h) - pts[0]) % n
        rise, fall = pts[:r + 1], pts[r:]
        runs = ((1.0, u_plus, rise, 1), (1.0, u_plus, fall, -1),
                (-1.0, u_minus, fall, 1), (-1.0, u_minus, rise, -1))
        size = np.array([run.size - 1 for _, _, run, _ in runs])
        start = np.concatenate(([0], np.cumsum(size + 1)[:-1]))
        # a run's last sample starts no cell: its lin and quad stay 0
        key, cum, lin, quad = (np.zeros(size.sum() + size.size)
                               for _ in range(4))
        for s, k, (sign, u, run, step) in zip(start, size, runs):
            p, w = run[::step], dphi[run[:-1][::step]]
            u_a, u_b = u[p[:-1]], u[p[1:]]
            key[s:s + k + 1] = sign * h[p]
            np.cumsum(0.5 * (u_a + u_b) * w, out=cum[s + 1:s + k + 1])
            lin[s:s + k] = u_a * w
            quad[s:s + k] = 0.5 * (u_b - u_a) * w
        key_max, key_min = np.empty_like(key), np.empty_like(key)
        for s, k in zip(start, size):
            run = slice(s, s + k + 1)
            key_max[run] = np.maximum.accumulate(key[run])
            key_min[run] = np.minimum.accumulate(key[run][::-1])[::-1]
        return cls(start, size, key, key_max, key_min, cum, lin, quad)

    def mass(self, y: np.ndarray, side: str) -> np.ndarray:
        """Mass of {key <= y} (side "right") or {key < y} (side "left")
        over all runs, for a 1-d array y.

        In each run, the cells before k1 lie wholly below y, and the cells
        from k2 on wholly above it.  The cells between hold y: one on a
        monotone run, more where rounding lets the samples next to an
        extreme of h wiggle by an ulp (for y within that band of +-cos dt,
        a share of n_phi that grows as dt falls).  Each is integrated on
        its own, as the cell-by-cell scan does, so the wiggles cost no
        accuracy; all of them in one vectorized pass.
        """
        runs = list(zip(self.start, self.size))
        k1 = np.array([np.searchsorted(self.key_max[s + 1:s + n + 1], y, side)
                       for s, n in runs])
        k2 = np.array([np.searchsorted(self.key_min[s:s + n], y, side)
                       for s, n in runs])
        first = self.start[:, None] + k1
        total = self.cum[first].sum(axis=0)
        # the cells k1 .. k2 - 1 of every (run, y), end to end
        width = (k2 - k1).ravel()
        head = np.repeat(np.cumsum(width) - width, width)
        cell = np.repeat(first.ravel(), width) + np.arange(head.size) - head
        col = np.repeat(np.tile(np.arange(y.size), len(runs)), width)
        total += np.bincount(col, self._cell_mass(y[col], cell, side),
                             minlength=y.size)
        return total

    def _cell_mass(self, y, j, side: str):
        """Mass of cell j below y: int_0^1 (u_a + (u_b - u_a) s) ds dphi
        over the part of the cell where key_a + (key_b - key_a) s is below
        y, all of a flat cell or none of it."""
        key_a, span = self.key[j], self.key[j + 1] - self.key[j]
        lin, quad = self.lin[j], self.quad[j]
        flat = span == 0.0
        t = np.clip((y - key_a) / np.where(flat, 1.0, span), 0.0, 1.0)
        part = t * (lin + t * quad)
        whole = lin + quad
        below = key_a <= y if side == "right" else key_a < y
        return np.where(flat, np.where(below, whole, 0.0),
                        np.where(span > 0.0, part, whole - part))


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
    with c(m dt) = a[m]/sqrt(dt), read off the ring of ``spectral`` at
    phi = -(ring phase): one ring period, ascending.  The grid must resolve
    the state's trigonometric degree: at least one point per occupied site
    (default 8x, rounded up to an FFT-friendly size).
    """
    if n_phi is None:
        n_phi = ring_length(max(8 * state.n_sites, 4096))
    ring = lattice_to_spectral(state, int(n_phi))
    phi = -ring.grid.phi
    _, _, f_pp, f_pm, f_mp, f_mm = _eigen_system(phi, state.dt)
    # sum_m a[m] e^{i m phi} is sqrt(n) times the unitary ring mode
    amp = ring.amp * np.sqrt(ring.grid.n / state.dt)
    g_plus = np.conj(f_pp) * amp[0] + np.conj(f_pm) * amp[1]
    g_minus = np.conj(f_mp) * amp[0] + np.conj(f_mm) * amp[1]
    # one ring period of quasi-momenta, ascending
    order = np.argsort(phi)
    return SpectralCoefficients(phi=phi[order], g_plus=g_plus[order],
                                g_minus=g_minus[order], dt=state.dt)


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
    if nu <= 0:
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
    if nu <= 0:
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


def gaussian_g_approx(phi, nu: float, dt: float):
    """Sharp-localization closed form for g+-(phi) of the Gaussian packet.

    For nu*dt small the packet's weight concentrates at |momentum| >> 1
    where the spinor weights become step functions of the momentum sign,
    leaving a single eigenvector column per side of phi = 0:

        g+-(phi) ~ i * A(phi) * f*(+-,-)(phi)   for phi > 0,
        g+-(phi) ~     A(phi) * f*(+-,+)(phi)   for phi < 0,
        A(phi) = sqrt(2 sqrt(pi) / (nu dt^2)) * e^{-phi^2 / (2 nu^2 dt^2)},

    so |g+|^2 + |g-|^2 = 2 sqrt(pi) e^{-phi^2/(nu dt)^2} / (nu dt^2) exactly.
    (Quasi-momentum phi carries physical momentum -phi/dt, see ``spectral``,
    so the phi > 0 lobe couples to the spin-down column.)
    """
    if nu * dt > 0.1:
        warnings.warn(f"nu*dt = {nu * dt:.3g} is not small; the sharp-"
                      "localization form is unreliable", stacklevel=2)
    phi = np.asarray(phi, dtype=float)
    _, _, f_pp, f_pm, f_mp, f_mm = _eigen_system(phi, dt)
    env = np.sqrt(2.0 * np.sqrt(np.pi) / (nu * dt * dt)) \
        * np.exp(-phi * phi / (2.0 * nu * nu * dt * dt))
    pos = phi > 0
    g_plus = np.where(pos, 1j * env * np.conj(f_pm), env * np.conj(f_pp))
    g_minus = np.where(pos, 1j * env * np.conj(f_mm), env * np.conj(f_mp))
    return g_plus, g_minus
