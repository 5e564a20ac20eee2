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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.fft import next_fast_len

from .spectral import lattice_to_spectral
from .walk import LatticeState, coin_matrix


def _check_dt(dt: float) -> None:
    if not (0.0 < dt < np.pi) or np.sin(dt) == 0.0:
        raise ValueError(
            f"dt={dt!r} outside (0, pi): the symbol is degenerate "
            "(|cos(phi) cos(dt)| can reach 1)"
        )


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
        n_phi = next_fast_len(max(8 * state.n_sites, 4096))
    ring = lattice_to_spectral(state, n_ring=int(n_phi))
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


# cells per pass of _band_mass: its 64 KiB temporaries stay in cache and
# on the heap instead of being mapped and faulted in afresh on every call
_CELL_BLOCK = 8192


def _band_mass(phi_ext, h_ext, u_ext, lo: float, hi: float) -> float:
    """Integral of u over {phi : lo <= h(phi) <= hi} with piecewise-linear
    h and u on each grid cell (second-order accurate membership)."""
    total = 0.0
    for lo_cell in range(0, phi_ext.size - 1, _CELL_BLOCK):
        cells = slice(lo_cell, lo_cell + _CELL_BLOCK + 1)
        h_a, h_b = h_ext[cells][:-1], h_ext[cells][1:]
        u_a, u_b = u_ext[cells][:-1], u_ext[cells][1:]
        dphi = np.diff(phi_ext[cells])
        span = h_b - h_a
        flat = np.abs(span) < 1e-300
        safe = np.where(flat, 1.0, span)
        ta = (lo - h_a) / safe
        tb = (hi - h_a) / safe
        t0 = np.clip(np.minimum(ta, tb), 0.0, 1.0)
        t1 = np.clip(np.maximum(ta, tb), 0.0, 1.0)
        inside_flat = (h_a >= lo) & (h_a <= hi)
        t0 = np.where(flat, 0.0, t0)
        t1 = np.where(flat, np.where(inside_flat, 1.0, 0.0), t1)
        seg = (t1 - t0) * u_a + 0.5 * (u_b - u_a) * (t1 * t1 - t0 * t0)
        total += float(np.sum(seg * dphi))
    return total


def limit_cdf(y1: float, y2: float, coeffs: SpectralCoefficients,
              dt: float | None = None) -> float:
    """P(y1 <= Y <= y2) for the weak limit Y of X_n/(n dt):

        Int_{T+} |g+|^2 dt dphi/(2 pi) + Int_{T-} |g-|^2 dt dphi/(2 pi),
        T+- = {phi : y1 <= +-h(phi) <= y2}.

    Membership is evaluated on the phi grid with fractional boundary cells,
    which sums over every local inverse of h without inverting it.
    """
    if dt is None:
        dt = coeffs.dt
    if not (-1.0 <= y1 <= y2 <= 1.0):
        raise ValueError("need -1 <= y1 <= y2 <= 1")
    if y1 == y2:
        return 0.0
    h = group_velocity(coeffs.phi, dt)
    scale = dt / (2.0 * np.pi)
    total = 0.0
    # close the periodic grid one period after its first point
    phi_ext = np.append(coeffs.phi, coeffs.phi[0] + 2.0 * np.pi)
    h_ext = np.append(h, h[0])
    for g, sign in ((coeffs.g_plus, 1.0), (coeffs.g_minus, -1.0)):
        u = np.abs(g) ** 2 * scale
        u_ext = np.append(u, u[0])
        lo, hi = (y1, y2) if sign > 0 else (-y2, -y1)
        total += _band_mass(phi_ext, h_ext, u_ext, lo, hi)
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
    """Int_{y1}^{y2} F(y; nu) dy by adaptive quadrature."""
    if y1 > y2:
        raise ValueError("need y1 <= y2")
    a, b = max(y1, -1.0), min(y2, 1.0)
    if a >= b:
        return 0.0

    def f(y):
        one = 1.0 - y * y
        if one <= 0.0:
            return 0.0
        return (one ** -1.5) * np.exp(-y * y / (nu * nu * one)) \
            / (nu * np.sqrt(np.pi))

    ystar = horn_location(nu)
    pts = [p for p in (-ystar, 0.0, ystar) if a < p < b] or None
    val, _ = integrate.quad(f, a, b, points=pts, limit=400)
    return float(val)


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
    """Int y^k F(y; nu) dy via the substitution u = y / sqrt(1 - y^2),
    which maps the integral to a smooth Gaussian-weighted one over R."""
    if k < 0:
        raise ValueError("moment order must be >= 0")

    def f(u):
        y = u / np.sqrt(1.0 + u * u)
        return (y ** k) * np.exp(-u * u / (nu * nu)) / (nu * np.sqrt(np.pi))

    val, _ = integrate.quad(f, -np.inf, np.inf, limit=400)
    return float(val)


def limit_cdf_gaussian(y1: float, y2: float, nu: float, dt: float) -> float:
    """Finite-dt closed-form route to P(y1 <= Y <= y2) for Gaussian packets.

    Uses the envelope |g+|^2 + |g-|^2 = 2 sqrt(pi) e^{-phi^2/(nu dt)^2} /
    (nu dt^2) and only the local inverse of h with phi near 0 (the envelope
    suppresses all others):

        phi_i(y) = arcsin( tan(dt) * y / sqrt(1 - y^2) ),
        dP/dy = (dt sin dt / (2 pi)) * (2 sqrt(pi) / (nu dt^2))
                * e^{-phi_i(y)^2/(nu dt)^2} / ((1 - y^2) sqrt(cos^2 dt - y^2)).
    """
    _check_dt(dt)
    if not (-1.0 <= y1 <= y2 <= 1.0):
        raise ValueError("need -1 <= y1 <= y2 <= 1")
    c, s = np.cos(dt), np.sin(dt)
    a, b = max(y1, -c + 1e-15), min(y2, c - 1e-15)
    if a >= b:
        return 0.0
    pref = s * np.sqrt(np.pi) / (np.pi * nu * dt)

    def f(y):
        one = 1.0 - y * y
        root = c * c - y * y
        if root <= 0.0 or one <= 0.0:
            return 0.0
        arg = min(s * abs(y) / (c * np.sqrt(one)), 1.0)
        phi_i = np.arcsin(arg)
        return pref * np.exp(-(phi_i / (nu * dt)) ** 2) / (one * np.sqrt(root))

    ystar = horn_location(nu)
    pts = [p for p in (-ystar, 0.0, ystar) if a < p < b] or None
    val, _ = integrate.quad(f, a, b, points=pts, limit=400)
    return float(min(max(val, 0.0), 1.0))


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
