"""Positive-energy, definite-helicity initial wavepackets.

Pipeline: a normalized momentum profile f(p) (the Gaussian family
``f_nu(p) = exp(-p^2 / 2 nu^2) / sqrt(nu sqrt(pi))`` is the canonical
instance) is combined with the effective spinor weights W+-(p) to produce
the entangled position-space coefficients

    c+(x) =      (1/sqrt(2 pi)) Int W+(p) f(p) exp(i p x) dp
    c-(x) = (i/sqrt(2 pi)) Int W-(p) f(p) exp(i p x) dp

(the "minus" helicity branch swaps the two weights), which are then sampled
on the walk lattice {x0 + m*dt}, scaled by sqrt(dt) and renormalized to an
exact unit norm.

The Fourier integrals use the trapezoid rule on the momenta 2 pi k/(L h)
of a ring of L sites of spacing h; the integrands are smooth and
Gaussian-damped, so the rule converges spectrally, and on that grid it is
exactly one inverse FFT whose output index k mod L is lattice site k.  The
lattice window is sized once, from the tails of c+-(x).  Everything here is
pure construction of immutable values.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import TOL, NumericalHealthError, branch_sign
from .spectral import ring_length
from .spinor import energy, spinor_weights
from .walk import LatticeState

# amplitude threshold used for the default momentum cutoff
_TAIL_EPS = 1e-12


@dataclass(frozen=True)
class MomentumProfile:
    """A normalized momentum-space profile with a declared support cutoff."""

    f: Callable[[np.ndarray], np.ndarray]
    p_max: float

    def __call__(self, p):
        return self.f(np.asarray(p, dtype=float))

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
    if not (nu > 0 and 0.0 < nu * nu < math.inf):  # f divides by nu^2
        raise ValueError(f"nu must be positive, nu^2 finite, got {nu!r}")
    amp = 1.0 / np.sqrt(nu * np.sqrt(np.pi))

    def f(p):
        return amp * np.exp(-np.asarray(p, dtype=float) ** 2 / (2.0 * nu ** 2))

    return MomentumProfile(f=f, p_max=float(gaussian_cutoff(nu)))


@dataclass(frozen=True)
class PositionAmplitudes:
    """c+-(x) on a uniform position grid of spacing h."""

    x: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray

    @property
    def h(self) -> float:
        return float((self.x[-1] - self.x[0]) / (self.x.size - 1))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.c_plus) ** 2
                            + np.abs(self.c_minus) ** 2) * self.h)


@dataclass(frozen=True)
class WalkInitConfig:
    """Physical parameters of a walk initial state.

    dt is both the time step and the lattice spacing (c = 1); x0 picks the
    lattice fiber (only the default fiber x0 = 0 is swept by the CLI).
    """

    nu: float
    dt: float
    x0: float = 0.0
    branch: str = "plus"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (-self.dt < 2.0 * self.x0 <= self.dt):  # dt/2 may underflow
            raise ValueError("x0 must lie in (-dt/2, dt/2]")
        branch_sign(self.branch)


def _uniform_spacing(grid: np.ndarray) -> float:
    d = np.diff(grid)
    if grid.size < 2 or not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform with at least two points")
    # full-span average: ~N times less rounding than a single difference
    return float((grid[-1] - grid[0]) / (grid.size - 1))


def _quadrature_ring(n_x: int, h: float, x_ext: float, p_max: float) -> int:
    """Sites of the quadrature ring of an n_x-point grid of spacing h that
    reaches |x| = x_ext (see ``position_coefficients``); refused beyond
    ``MAX_RING_SITES`` before anything is allocated."""
    dp = min(np.pi / max(x_ext, h), p_max / 400.0)
    with np.errstate(divide="ignore"):  # h * dp may underflow: inf, refused
        return ring_length(max(n_x, 2.0 * np.pi / (h * dp)))


def position_coefficients(profile: MomentumProfile, x_grid: np.ndarray,
                          branch: str = "plus") -> PositionAmplitudes:
    """Evaluate the entangled coefficients c+-(x) on a uniform x grid.

    The momentum step is at most min(pi/max|x|, p_max/400), so the
    trapezoid rule's periodic images stay outside the grid; f is zeroed
    beyond p_max.  Only the grid's sub-site offset enters as a phase, so a
    grid through x = 0 with an even profile transforms real data and keeps
    its parity symmetry exactly.
    """
    branch_sign(branch)
    x_grid = np.asarray(x_grid, dtype=float)
    h = _uniform_spacing(x_grid)
    if h > np.pi / profile.p_max:
        raise NumericalHealthError(
            f"x-grid spacing {h:.4g} aliases momenta beyond pi/h; "
            f"need h <= {np.pi / profile.p_max:.4g} for p_max={profile.p_max:.4g}"
        )

    n_ring = _quadrature_ring(x_grid.size, h, float(np.max(np.abs(x_grid))),
                              profile.p_max)
    # ring momenta p_k = k dp: exp(i p_k m h) = exp(2 pi i k m / n_ring)
    dp = 2.0 * np.pi / (n_ring * h)
    # FFT order, sign-symmetric to the last bit
    p = dp * np.fft.ifftshift(np.arange(n_ring) - n_ring // 2)
    inside = np.abs(p) <= profile.p_max

    # grid point j is x_c + (j - j_c) h with x_c = xf + m_c h, |xf| <= h/2
    j_c = (x_grid.size - 1) // 2
    m_c = int(np.round(x_grid[j_c] / h))
    xf = float(x_grid[j_c] - m_c * h)
    weights = np.zeros((2, n_ring))
    weights[:, inside] = (dp / np.sqrt(2.0 * np.pi)) * profile(p[inside]) \
        * np.stack(spinor_weights(p[inside]))
    if branch == "minus":
        weights = weights[::-1]
    if xf != 0.0:
        weights = weights * np.exp(1j * p * xf)
        ring = np.fft.ifft(weights, axis=1, norm="forward")
    else:  # real weights: the real-input transform, exactly Hermitian
        half = np.conj(np.fft.rfft(weights, axis=1))
        ring = np.hstack([half, np.conj(half[:, n_ring - half.shape[1]:0:-1])])
    idx = (m_c - j_c + np.arange(x_grid.size)) % n_ring
    return PositionAmplitudes(x=x_grid, c_plus=ring[0, idx],
                              c_minus=1.0j * ring[1, idx])


def discretize_to_lattice(coeffs: PositionAmplitudes,
                          config: WalkInitConfig) -> LatticeState:
    """Sample c+- on the lattice fiber, apply the sqrt(dt) weight and
    renormalize to an exact unit norm.

    The window keeps every site whose amplitude is at least
    ``TOL.window_rel`` of the peak; the renormalization keeps later
    unitarity diagnostics exact (the sqrt(dt) sampling is only
    asymptotically normalized).
    """
    h = coeffs.h
    if abs(h - config.dt) > 1e-9 * config.dt:
        raise ValueError(
            f"lattice spacing {h} must equal dt {config.dt}"
        )
    m = np.round((coeffs.x - config.x0) / config.dt).astype(int)
    if not np.allclose(config.x0 + m * config.dt, coeffs.x,
                       rtol=0.0, atol=1e-9 * config.dt):
        raise ValueError("x grid is not aligned with the fiber x0 + m*dt")

    mag = np.maximum(np.abs(coeffs.c_plus), np.abs(coeffs.c_minus))
    peak = float(mag.max(initial=0.0))
    if peak == 0.0:
        raise ValueError("all-zero coefficients: empty lattice window")
    keep = np.nonzero(mag >= TOL.window_rel * peak)[0]
    lo, hi = int(keep[0]), int(keep[-1]) + 1

    amp = np.sqrt(config.dt)
    a_plus = coeffs.c_plus[lo:hi] * amp
    a_minus = coeffs.c_minus[lo:hi] * amp
    norm = np.sqrt(np.sum(np.abs(a_plus) ** 2 + np.abs(a_minus) ** 2))
    return LatticeState(dt=config.dt, m_min=int(m[lo]), x0=config.x0,
                        a_plus=a_plus / norm, a_minus=a_minus / norm)


def fiber_grid(config: WalkInitConfig, extent: float) -> np.ndarray:
    """Symmetric lattice-aligned x grid covering |x| <= extent."""
    m_max = max(int(np.ceil(extent / config.dt)), 1)
    return config.x0 + np.arange(-m_max, m_max + 1) * config.dt


def require_initial_state_fits(config: WalkInitConfig,
                               p_max: float | None = None) -> float:
    """Preflight of ``build_initial_state``, from floats alone: refuse a
    quadrature ring beyond ``MAX_RING_SITES`` before anything is computed,
    and return the extent of the fiber grid.

    The ring is sized at the lattice spacing dt, or at pi/p_max when dt is
    too coarse to resolve the momentum cutoff p_max (the Gaussian cutoff of
    ``config.nu`` by default): if even that ring is over budget, no lattice
    can hold the state, and the run is refused rather than left to fail
    the aliasing check.
    """
    if p_max is None:
        p_max = gaussian_cutoff(config.nu)
    efolds = np.log(1.0 / TOL.window_rel)
    extent = efolds + np.sqrt(2.0 * efolds) / config.nu
    h = min(config.dt, np.pi / p_max)
    try:
        _quadrature_ring(0, h, extent, p_max)
    except ValueError as exc:
        if h == config.dt:
            raise
        raise ValueError(f"nu = {config.nu:.3g} needs a lattice spacing of "
                         f"at most pi/p_max = {h:.3g}, and at that "
                         f"spacing {exc}") from None
    return extent


def build_initial_state(config: WalkInitConfig,
                        profile: MomentumProfile | None = None) -> LatticeState:
    """Full construction: Gaussian profile -> c+-(x) -> lattice state.

    The grid covers |x| <= ln(1/w) + sqrt(2 ln(1/w))/nu for the window
    threshold w = ``TOL.window_rel``: the Compton tail exp(-|x|) plus the
    Gaussian envelope exp(-nu^2 x^2/2).  Two postconditions hold on
    c+-(x) before it is cut to the lattice: its amplitude at the grid's
    edge is below w of the peak, and its combined norm is within
    ``TOL.coeff_norm`` of 1; either failing is a ``NumericalHealthError``.
    """
    extent = require_initial_state_fits(
        config, None if profile is None else profile.p_max)
    if profile is None:
        profile = gaussian_profile(config.nu)
    e0 = profile.mean(energy)  # the mean energy E0 >= 1
    if config.dt * e0 > 0.1:
        warnings.warn(
            f"dt*E0 = {config.dt * e0:.3g} is not small; the walk only "
            "approximates the exact evolution for dt*E0 << 1",
            stacklevel=2,
        )
    coeffs = position_coefficients(profile, fiber_grid(config, extent),
                                   config.branch)
    mag = np.maximum(np.abs(coeffs.c_plus), np.abs(coeffs.c_minus))
    edge = float(max(mag[0], mag[-1]) / mag.max())
    if not edge < TOL.window_rel:
        raise NumericalHealthError(
            f"initial-state window edge at {edge:.3g} of the peak, "
            f"not below {TOL.window_rel:.1e}"
        )
    if abs(coeffs.norm_sq() - 1.0) > TOL.coeff_norm:
        raise NumericalHealthError(
            f"coefficient norm {coeffs.norm_sq():.12f} is off by more than "
            f"{TOL.coeff_norm:.1e}; widen the x grid"
        )
    return discretize_to_lattice(coeffs, config)
