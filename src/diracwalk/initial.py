"""Positive-energy, definite-helicity initial wavepackets.

Pipeline: a normalized momentum profile f(p) (any, in
``position_coefficients``; the Gaussian ``f_nu(p) = exp(-p^2 / 2 nu^2) /
sqrt(nu sqrt(pi))`` in ``build_initial_state``) is combined with the
effective spinor weights W+-(p) to produce the entangled coefficients

    c+(x) =      (1/sqrt(2 pi)) Int W+(p) f(p) exp(i p x) dp
    c-(x) = (i/sqrt(2 pi)) Int W-(p) f(p) exp(i p x) dp

of the "plus" helicity branch.  W-(p) = W+(-p) and the profiles are even,
so c-(x) = i c+(-x), the sigma2 parity of ``walk``: c+ alone is computed,
sampled at the walk's lattice sites x = m*dt, scaled by sqrt(dt) and
renormalized to an exact unit norm.

The Fourier integrals use the trapezoid rule on the momenta 2 pi k/(L dt)
of the window's own ring, L = ``ring_length(2 m_max + 1)`` sites of
spacing dt, over the whole integrand: it is smooth and Gaussian-damped, so
the rule converges geometrically, and on that grid it is exactly one
inverse FFT whose output index k mod L is lattice site k.  The lattice
window is sized once, from the tails of c+-(x).  Everything here is
pure construction of immutable values.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import TOL, InputError, NumericalHealthError, require_number
from .spectral import ring_length
from .spinor import energy, spinor_weights
from .walk import LatticeState

# amplitude threshold used for the default momentum cutoff
_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class MomentumProfile:
    """A normalized momentum-space profile and the cutoff p_max beyond
    which it is negligible: the range of ``mean`` and the momentum a
    lattice must resolve (dt <= pi/p_max); the coefficients integrate f
    over every ring momentum, with no cut."""

    f: Callable[[np.ndarray], np.ndarray]
    p_max: float

    def __post_init__(self):
        object.__setattr__(self, "p_max",
                           require_number("p_max", self.p_max, "(0, inf)"))

    def __call__(self, p):
        return self.f(np.asarray(require_number("p", p, array=True),
                                 dtype=float))

    def mean(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """Int g(p) |f(p)|^2 dp over |p| <= p_max (g vectorized): the
        trapezoid rule on p = sinh(s), step min(0.1, asinh(p_max)/80), so
        narrow and wide profiles take at most 261 points, summed in +-p
        pairs (0 for a g odd to the last bit on an even profile), and
        checked against twice the step (``TOL.quadrature_rel``)."""
        s_max = math.asinh(self.p_max)
        step = min(0.1, s_max / 80.0)
        s = step * np.arange(int(s_max / step) + 1)
        p = np.sinh(s)
        terms = (g(p) * np.abs(self(p)) ** 2
                 + g(-p) * np.abs(self(-p)) ** 2) * np.cosh(s)
        terms[0] *= 0.5  # s = 0 is one point, counted twice above
        val = step * float(np.sum(terms))
        coarse = 2.0 * step * float(np.sum(terms[::2]))
        if not (np.isfinite(val) and abs(val - coarse)
                <= TOL.quadrature_rel * max(abs(val), 1.0)):
            raise NumericalHealthError(f"profile quadrature unreliable: "
                                       f"{val}, at twice the step {coarse}")
        return val


def gaussian_cutoff(nu: float) -> float:
    """Momentum cutoff of ``gaussian_profile``: where the amplitude itself
    falls below _TAIL_EPS, plus margin; the squared-tail mass
    erfc(p_max/nu) is then far below the budget."""
    return 1.05 * nu * np.sqrt(2.0 * np.log(1.0 / _TAIL_EPS))


def gaussian_profile(nu: float) -> MomentumProfile:
    """The localized Gaussian profile f_nu; larger nu = sharper localization."""
    nu = require_number("nu", nu, "[1e-154, 1e154]")  # f divides by nu^2
    amp = 1.0 / np.sqrt(nu * np.sqrt(np.pi))

    def f(p):
        return amp * np.exp(-np.asarray(p, dtype=float) ** 2 / (2.0 * nu ** 2))

    return MomentumProfile(f=f, p_max=float(gaussian_cutoff(nu)))


@dataclass(frozen=True)
class WalkInitConfig:
    """Physical parameters of a walk initial state.

    dt is both the time step and the lattice spacing (c = 1): site m sits
    at x = m*dt.
    """

    nu: float
    dt: float

    def __post_init__(self):
        for name in ("nu", "dt"):
            object.__setattr__(self, name, require_number(
                name, getattr(self, name), "(0, inf)"))


def position_coefficients(profile: MomentumProfile, dt: float,
                          m_max: int) -> np.ndarray:
    """The coefficient c+ at x = m*dt, m = -m_max..m_max; c-(x) = i c+(-x).

    The ring is the window's own, ``ring_length(2 m_max + 1)`` sites, so
    the momentum step is below pi/(m_max dt) and the trapezoid rule's
    periodic images stay outside the window; W+ f is taken at every ring
    momentum, |p| <= pi/dt.  The weights are real, so the real-input
    transform gives c+(-x) = conj(c+(x)) exactly for an even profile.
    """
    dt = require_number("dt", dt, "(0, inf)")
    m_max = require_number("m_max", m_max, "[0, inf)", integer=True)
    if dt > np.pi / profile.p_max:
        raise NumericalHealthError(
            f"lattice spacing {dt:.4g} aliases momenta beyond pi/dt; "
            f"need dt <= {np.pi / profile.p_max:.4g} for "
            f"p_max={profile.p_max:.4g}"
        )

    n_ring = ring_length(2 * m_max + 1)
    # ring momenta p_k = k dp: exp(i p_k m dt) = exp(2 pi i k m / n_ring)
    dp = 2.0 * np.pi / (n_ring * dt)
    # FFT order, sign-symmetric to the last bit
    p = dp * np.fft.ifftshift(np.arange(n_ring) - n_ring // 2)
    weights = (dp / np.sqrt(2.0 * np.pi)) * profile(p) * spinor_weights(p)[0]
    spec = np.fft.rfft(weights)
    # the weights are real: site m >= 0 is conj(spec[m]), site -m spec[m]
    return np.concatenate([spec[m_max:0:-1], np.conj(spec[:m_max + 1])])


def require_initial_state_fits(config: WalkInitConfig) -> float:
    """Preflight of ``build_initial_state``, from floats alone: refuse the
    coefficients' ring (``position_coefficients``), 2 ceil(extent/h) + 1
    sites rounded up by ``ring_length``, beyond ``MAX_RING_SITES`` before
    anything is computed, and return the extent of the site window.

    The spacing h is the lattice spacing dt, or pi/p_max when dt is too
    coarse to resolve the Gaussian cutoff p_max of ``config.nu``: if even
    that ring is over budget, no lattice can hold the state, and the run
    is refused rather than left to fail the aliasing check.  A ring that
    fits still leaves nu to ``gaussian_profile``'s own domain.
    """
    p_max = gaussian_cutoff(config.nu)
    efolds = np.log(1.0 / TOL.window_rel)
    # a tiny nu, dt or h overflows these, and an overflowing p_max makes h
    # 0: inf sites, refused
    with np.errstate(over="ignore", divide="ignore"):
        h = min(config.dt, np.pi / p_max)
        extent = efolds + np.sqrt(2.0 * efolds) / config.nu
        n_sites = 2.0 * np.ceil(extent / h) + 1.0
    try:
        ring_length(n_sites)
    except InputError as exc:
        if h == config.dt:
            raise
        raise InputError(f"nu = {config.nu:.3g} needs a lattice spacing of "
                         f"at most pi/p_max = {h:.3g}, and at that "
                         f"spacing {exc}") from None
    gaussian_profile(config.nu)
    return extent


def build_initial_state(config: WalkInitConfig) -> LatticeState:
    """Full construction: Gaussian profile -> c+-(m*dt) -> lattice state.

    The sites m = -m_max..m_max cover |x| <= ln(1/w) + sqrt(2 ln(1/w))/nu
    for the window threshold w = ``TOL.window_rel``: the Compton tail
    exp(-|x|) plus the Gaussian envelope exp(-nu^2 x^2/2).  Two
    postconditions hold on c+- before it is cut: its amplitude at the edge
    sites is below w of the peak, and its combined norm sum(|c+-|^2) dt is
    within ``TOL.coeff_norm`` of 1; either failing is a
    ``NumericalHealthError``.  The cut keeps every site where c+ or c- is
    at least w of the peak, a window symmetric about site 0; the state is
    then weighted by sqrt(dt) and renormalized to an exact unit norm (the
    sqrt(dt) sampling is only asymptotically normalized).
    """
    extent = require_initial_state_fits(config)
    profile = gaussian_profile(config.nu)
    e0 = profile.mean(energy)  # the mean energy E0 >= 1
    if config.dt * e0 > 0.1:
        warnings.warn(
            f"dt*E0 = {config.dt * e0:.3g} is not small; the walk only "
            "approximates the exact evolution for dt*E0 << 1",
            stacklevel=2,
        )
    m_max = max(int(np.ceil(extent / config.dt)), 1)
    c_plus = position_coefficients(profile, config.dt, m_max)
    mag = np.abs(c_plus)
    # |c-(m)| = |c+(-m)|: the envelope of both, a palindrome bit for bit
    mag = np.maximum(mag, mag[::-1])
    peak = float(mag.max())
    if peak == 0.0:
        raise InputError("all-zero coefficients: empty lattice window")
    edge = float(mag[0] / peak)
    if not edge < TOL.window_rel:
        raise NumericalHealthError(
            f"initial-state window edge at {edge:.3g} of the peak, "
            f"not below {TOL.window_rel:.1e}"
        )
    norm_sq = 2.0 * float(np.sum(np.abs(c_plus) ** 2) * config.dt)
    if not abs(norm_sq - 1.0) <= TOL.coeff_norm:
        raise NumericalHealthError(
            f"coefficient norm {norm_sq:.12f} is off by more than "
            f"{TOL.coeff_norm:.1e}; widen the site window"
        )
    lo = int(np.argmax(mag >= TOL.window_rel * peak))
    a_plus = c_plus[lo:c_plus.size - lo] * np.sqrt(config.dt)
    norm = np.sqrt(2.0 * np.sum(np.abs(a_plus) ** 2))
    # numpy divides by a real c as c + 0j, a multiply by 1/c: same bits
    a_plus *= 1.0 / norm
    return LatticeState(dt=config.dt, a_plus=a_plus)
