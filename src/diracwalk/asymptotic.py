"""Weak-limit machinery of the walk: the band weights of lattice states
on a grid of n_phi points (projected in ``spectral``), the limit law they
carry, and the closed-form asymptotic position density with its CDF and
moments.

The symbol M(phi), its quasi-momentum phi with the sign map p = -phi/dt,
and its dispersion (eigenvalues e^{+-i theta}, group velocity h(phi) =
d theta / d phi = cos(dt) sin(phi) / sin(theta), |h| <= |cos dt|) are
stated once, in ``spectral``; here M is the "plus" branch's.
X_n/(n dt) converges weakly to +-h weighted by |g+-|^2, the weights of
the state's two bands (Grimmett, Janson and Scudo, PRE 69, 026119
(2004)); h is odd in phi, so P(Y <= y) is the mass of one summed weight
on one arc.  Localized Gaussian packets give the two-horned density

    F(y; nu) = (1 / (nu sqrt(pi))) (1 - y^2)^{-3/2}
               exp(-y^2 / (nu^2 (1 - y^2))).

All operations are pure and per-phi parallelizable.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import InputError, require_number
from .initial import gaussian_profile
from .spectral import WALK_DT, band_weights, ring_length
from .spinor import energy
from .walk import LatticeState


@dataclass(frozen=True)
class SpectralCoefficients:
    """The band weights w+-(phi) = |g+-(phi)|^2 dt/(2 pi) of a lattice
    state, rows + and -, on the fold of a period's grid phi = 2 pi
    fftfreq(n_phi) in ring order: both are even, so column k = 0..n_phi //
    2 holds the weights at +-phi[k] (-pi at an even grid's Nyquist)."""

    phi: np.ndarray
    weights: np.ndarray
    dt: float

    def __post_init__(self):
        fold = (2, self.phi.size // 2 + 1)
        w = require_number("weights", self.weights, "[0, inf)", array=True)
        if w.shape != fold:
            raise InputError(f"weights must have shape {fold}, the fold of "
                             f"{self.phi.size} phi points, got {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def dphi(self) -> float:
        return 2.0 * np.pi / self.phi.size

    def completeness(self) -> float:
        """The mass table's total, Int (w+ + w-) dphi; 1 for unit norm."""
        return float(self._mass_table[-1])

    def mass_below(self, y):
        """P(Y <= y) for the weak limit Y of X_n/(n dt), vectorized in y:

            Int_{+h <= y} w+ dphi + Int_{-h <= y} w- dphi.

        h = cos(dt) u / sqrt(sin^2 dt + cos^2 dt u^2), u = sin phi, is
        monotone in u, so h <= y where u <= tan(dt) y / sqrt(1 - y^2).
        With a = sign(y) arcsin(min(|tan(dt) y| / sqrt(1 - y^2), 1)),
        {+h <= y} is the arc [-pi - a, a] and {-h <= y} the arc [-a, pi +
        a], swapped for cos dt < 0.  h is odd and the weights even, so P
        is the mass of w+ + w- on [-pi - a, a], G(a) - G(-pi - a), with G
        of ``_cumulative``.  Every step from y to a, and from an angle to
        G, is monotone as rounded, so P is non-decreasing in y as rounded.
        """
        y = np.asarray(require_number("y", y, "[-1, 1]", array=True),
                       dtype=float)
        z = np.abs(y)
        # 1 - z^2 in a form that falls with z as rounded, exact near z = 1
        one = np.where(z < 0.5, 1.0 - z * z, (1.0 - z) * (1.0 + z))
        with np.errstate(divide="ignore"):
            u = np.minimum(abs(np.tan(self.dt)) * z / np.sqrt(one), 1.0)
        a = np.copysign(np.arcsin(u), y).reshape(-1)
        g = self._cumulative(np.stack((a, -np.pi - a)))
        total = (g[0] - g[1]).reshape(y.shape)
        return total if total.ndim else float(total)

    def _cumulative(self, x):
        """G at the angles x: ``_mass_table`` at node k, angle k dphi,
        extended by its total per period; on a cell, the cubic Hermite
        with the summed weight at its nodes as end slopes, limited
        (Fritsch-Carlson) to mu0 + mu1 <= 3 so that its Bernstein polygon
        rises.  The share of the cell below s is then d0 (1 - r^3) + d1
        S(s) + d2 s^3, d >= 0, r = 1 - s, with the smoothstep S = s^2 (3 -
        2 s) formed from its nearer end: each term rises with s as
        rounded, and a cell gives at most its upper node.
        """
        table = self._mass_table
        n = self.phi.size
        j = x / self.dphi
        cell = np.floor(j)
        s = j - cell
        turns, k = np.divmod(cell.astype(np.intp), n)
        g0, g1 = table[k], table[k + 1]
        delta = g1 - g0
        # the end slopes over delta: s at each node's fold index, 0 if flat
        node = np.stack((k, (k + 1) % n))
        fold = np.minimum(node, n - node)
        w = self.weights
        mu = np.divide((w[0][fold] + w[1][fold]) * self.dphi, delta,
                       out=np.zeros((2,) + s.shape), where=delta > 0.0)
        d0, d2 = mu / np.maximum(mu[0] + mu[1], 3.0)
        r = 1.0 - s
        v = np.minimum(s, r)
        smooth = v * (1.125 - 2.0 * (0.75 - v) ** 2)  # S(v)
        smooth = np.where(s <= 0.5, smooth, 1.0 - smooth)
        share = d0 * (1.0 - r * r * r) \
            + np.maximum(1.0 - d0 - d2, 0.0) * smooth + d2 * (s * s * s)
        return turns * table[n] + np.minimum(g0 + delta * share, g1)

    @cached_property
    def _mass_table(self):
        """G, built on first use and kept: at node k the mass of s = w+ +
        w- from 0 to k dphi, closed by the total.  s is formed on the fold
        and mirrored to the period; one rfft/irfft pair integrates its
        trigonometric interpolant: harmonic j divided by i j, plus the mean
        times k dphi.  Where that dips below 0 (an aliased grid), G is
        capped at the total and a running maximum keeps it rising.
        """
        n = self.phi.size
        table = np.empty(n + 1)
        summed = table[:n]
        np.add(self.weights[0], self.weights[1], out=summed[:n // 2 + 1])
        summed[n // 2 + 1:] = summed[(n - 1) // 2:0:-1]
        spec = np.fft.rfft(summed)
        mean = spec[0].real / n
        spec[1:] *= 1.0 / np.arange(1, n // 2 + 1, dtype=float)
        # the real DC and Nyquist terms turn imaginary, which irfft drops:
        # neither adds to G at a node
        spec *= -1j
        np.fft.irfft(spec, n, out=summed)
        del spec
        summed += np.arange(n) * (mean * self.dphi) - summed[0]
        table[n] = mean * 2.0 * np.pi
        np.minimum(table, table[n], out=table)
        np.maximum.accumulate(table, out=table)
        return table


def spectral_coefficients(state: LatticeState,
                          n_phi: int | None = None) -> SpectralCoefficients:
    """The band weights of a lattice state in the symbol eigenbasis
    (``spectral.band_weights``) on n_phi points.  The grid must resolve
    the state's trigonometric degree: at least one point per occupied site
    (default 8x, rounded up to an FFT-friendly size)."""
    n = ring_length(max(8 * state.n_sites, 4096)) if n_phi is None \
        else require_number("n_phi", n_phi, "[2, inf)", integer=True)
    weights = band_weights(state, n)
    return SpectralCoefficients(phi=2.0 * np.pi * np.fft.fftfreq(n),
                                weights=weights, dt=state.dt)


def _ordered(y1, y2, domain: str):
    """y1 and y2, each a number in ``domain``, as floats, if y1 <= y2."""
    y1 = require_number("y1", y1, domain)
    y2 = require_number("y2", y2, domain)
    if y1 > y2:
        raise InputError(f"y1 must be <= y2, got {y1!r} > {y2!r}")
    return y1, y2


def limit_cdf(y1: float, y2: float, coeffs: SpectralCoefficients) -> float:
    """P(y1 <= Y <= y2) for the weak limit Y of X_n/(n dt): the difference
    of one ``coeffs.mass_below([y1, y2])`` call, clamped to [0, 1].  h is
    strictly monotone in sin phi, so {h = y} has measure 0 and closed and
    open bounds agree."""
    y1, y2 = _ordered(y1, y2, "[-1, 1]")
    lo, hi = coeffs.mass_below(np.array([y1, y2]))
    return float(min(max(hi - lo, 0.0), 1.0))


def limit_density(y, nu: float):
    """Closed-form asymptotic density F(y; nu) on the open interval (-1, 1)."""
    nu = require_number("nu", nu, "(0, inf)")
    y = np.asarray(require_number("y", y, "(-1, 1)", array=True), dtype=float)
    one = 1.0 - y * y
    out = (one ** -1.5) * np.exp(-y * y / (nu * nu * one)) / (nu * np.sqrt(np.pi))
    return out if out.ndim else float(out)


def limit_density_mass(y1: float, y2: float, nu: float) -> float:
    """Int_{y1}^{y2} F(y; nu) dy in closed form.

    The substitution u = y / sqrt(1 - y^2) of ``limit_moment`` turns
    F(y; nu) dy into e^{-u^2/nu^2} du / (nu sqrt(pi)), so the mass is
    (erf(u2/nu) - erf(u1/nu)) / 2, with u = +-inf at y = +-1.
    """
    y1, y2 = _ordered(y1, y2, "(-inf, inf)")
    nu = require_number("nu", nu, "(0, inf)")
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
    nu = require_number("nu", nu, "(0, inf)")
    if nu * nu <= 2.0 / 3.0:
        return 0.0
    return float(np.sqrt(1.0 - 2.0 / (3.0 * nu * nu)))


def limit_moment(k: int, nu: float) -> float:
    """Int y^k F(y; nu) dy: F is the law of the group velocity y = p/E(p)
    under |f_nu(p)|^2 dp (the substitution u = y / sqrt(1 - y^2) with
    u = p), so this is the profile mean of (p/E(p))^k."""
    k = require_number("k", k, "[0, inf)", integer=True)
    return gaussian_profile(nu).mean(lambda p: (p / energy(p)) ** k)


def limit_cdf_gaussian(y1: float, y2: float, nu: float, dt: float) -> float:
    """Finite-dt closed-form route to P(y1 <= Y <= y2) for Gaussian packets.

    The envelope |g+|^2 + |g-|^2 = 2 sqrt(pi) e^{-phi^2/(nu dt)^2} /
    (nu dt^2) over phi(y1) <= phi <= phi(y2), with phi(y) = arcsin(min(
    tan(dt) |y| / sqrt(1 - y^2), 1)) sign(y) the local inverse of h near
    phi = 0 (the envelope suppresses all others; +-pi/2 at the band edge
    |y| = cos dt): (erf(phi(y2)/(nu dt)) - erf(phi(y1)/(nu dt))) / 2.
    """
    y1, y2 = _ordered(y1, y2, "[-1, 1]")
    nu = require_number("nu", nu, "(0, inf)")
    dt = require_number("dt", dt, WALK_DT)
    tan_dt = math.tan(dt)

    def erf_phi(y):
        one = (1.0 - y) * (1.0 + y)
        arg = min(tan_dt * abs(y) / math.sqrt(one), 1.0) if one > 0.0 else 1.0
        return math.erf(math.copysign(math.asin(arg), y) / (nu * dt))

    return 0.5 * (erf_phi(y2) - erf_phi(y1))
