"""Reference implementations that the tests hold the package to: the slow
paths the fast ones replaced, the two-component state (``TwoRowState``)
behind the package's a+-only ``LatticeState``, with the step loop, the
stacked ring and the packet on it, the four-entry, branch-taking
symbols that the (a, b) pairs of ``spectral`` replaced, with the "minus"
branch's own runs on them (the package computes "plus" only;
``site_mirror`` forms the -1/2 packet), the 4-spinor layer that the
2-spinor reduction of ``spinor`` rests on, the limit law by quadrature
and band by band, and a reader of the CSV files."""

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from unittest.mock import patch

import numpy as np
from scipy import integrate, optimize

from diracwalk import spectral
from diracwalk import table as table_module
from diracwalk.constants import TOL, NumericalHealthError, require_number
from diracwalk.initial import (WalkInitConfig, gaussian_profile,
                               require_initial_state_fits)
from diracwalk.spectral import (WALK_DT, _dispersion, _eigen_weights,
                                ring_length)
from diracwalk.spinor import energy, spinor_weights
from diracwalk.table import fmt
from diracwalk.walk import LatticeState, require_unit_norm

# '%.17g' % x and format(x, '.17g') share CPython's double-to-string path
CELL_FORMATS = {"i": "%d", "f": "%.17g"}

# The 4-component Dirac layer: a tensor product of two 2-dimensional
# factors, stored with index 2*(first factor) + (second factor) (numpy
# ``kron`` order), with alpha = sigma3 (x) sigma3, beta = sigma2 (x) 1 and
# helicity (1/2) 1 (x) sigma3.  On a definite-helicity branch the second
# factor is frozen at e+ (or e-), leaving the 2-spinors of ``spinor``.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

E_PLUS = np.array([1.0, 0.0], dtype=complex)
E_MINUS = np.array([0.0, 1.0], dtype=complex)

BRANCHES = ("plus", "minus")


def branch_sign(branch: str) -> float:
    """+1 for the "plus" helicity branch, -1 for "minus"; any other name
    is refused."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    return 1.0 if branch == "plus" else -1.0


def percent_csv(table) -> str:
    """The CSV text of ``table`` with every data cell formatted by CPython:
    one ``%`` over all of its values, ``%d`` for an int column and
    ``%.17g`` for a float column."""
    lines = [f"# {key} = {fmt(val)}" for key, val in table.metadata.items()]
    lines.append(",".join(table.columns))
    columns = [table.column(name) for name in table.columns]
    line = ",".join(CELL_FORMATS[col.dtype.kind] for col in columns)
    values = chain.from_iterable(zip(*(col.tolist() for col in columns)))
    return "\n".join(lines) + "\n" + \
        ((line + "\n") * table.n_rows) % tuple(values)


def lookup_tables():
    """The tables of ``table._Lookup`` that it builds by numpy arithmetic,
    by name, built here from byte strings and Python ints."""
    groups = [b"%04d" % i for i in range(10000)]
    below = np.array([[(1 << 8 * min(max(b - 8 * i, 0), 8)) - 1
                       for b in range(table_module._RUN + 1)]
                      for i in range(3)], np.uint64)
    return {
        "ascii4": table_module._words(groups),
        "zeros4": np.array([len(g) - len(g.rstrip(b"0")) for g in groups]),
        "below": below,
        "band": (below[:, None, :] & ~below[:, :, None]).reshape(3, -1),
        "dot": np.array([[ord(".") << 8 * (b - 8 * i)
                          if 0 <= b - 8 * i < 8 else 0
                          for b in range(table_module._RUN + 1)]
                         for i in range(3)], np.uint64),
    }


@dataclass
class TwoRowState:
    """Spin-up/spin-down amplitudes on any contiguous window of lattice
    sites, from site ``m_min``: both rows of a state, of which the package
    keeps a+ alone.  Amplitudes are finite (NaN or inf: ``ValueError``)."""

    dt: float
    m_min: int
    a_plus: np.ndarray
    a_minus: np.ndarray
    norm_drift: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.a_plus = np.asarray(self.a_plus, dtype=complex)
        self.a_minus = np.asarray(self.a_minus, dtype=complex)
        if self.a_plus.shape != self.a_minus.shape or self.a_plus.ndim != 1:
            raise ValueError("spin component arrays must be 1-d and equally "
                             "long")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(
                f"dt must be finite and positive, got {self.dt!r}")
        for name in ("a_plus", "a_minus"):
            amp = getattr(self, name)
            if not np.isfinite(amp).all():
                site = self.m_min + np.flatnonzero(~np.isfinite(amp))[0]
                raise ValueError(f"{name} is not finite at site {site}")

    @property
    def n_sites(self) -> int:
        return self.a_plus.size

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_min + self.n_sites)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.a_plus) ** 2
                            + np.abs(self.a_minus) ** 2))

    def density(self) -> np.ndarray:
        """P[m] = |a+[m]|^2 + |a-[m]|^2, aligned with ``sites``."""
        return np.abs(self.a_plus) ** 2 + np.abs(self.a_minus) ** 2


def two_row(state) -> TwoRowState:
    """A package state with its spin-down row a-(m) = i a+(-m) formed, in
    new arrays; a ``TwoRowState`` comes back as it is."""
    if isinstance(state, TwoRowState):
        return state
    return TwoRowState(dt=state.dt, m_min=state.m_min,
                       a_plus=state.a_plus.copy(),
                       a_minus=1j * state.a_plus[::-1],
                       norm_drift=state.norm_drift)


def plus_row(state: TwoRowState) -> LatticeState:
    """The package state of a two-row state on a window symmetric about
    site 0: its a+ row, a copy."""
    assert state.m_min == -(state.n_sites // 2) and state.n_sites % 2, \
        (state.m_min, state.n_sites)
    return LatticeState(dt=state.dt, a_plus=state.a_plus.copy(),
                        norm_drift=state.norm_drift)


def sigma2_completion(state: TwoRowState) -> LatticeState:
    """The package state that keeps a two-row state's a+ row, centred: a+
    on the first n sites of the window -m..m, m = n // 2 (the top site is
    0 for an even n), a- its sigma2 parity image in place of the drawn
    row, renormalized.  Where the row starts does not move the law: a
    shift turns A+(phi) = sum_m a+[m] e^{i m phi} by a phase."""
    n = state.n_sites
    a_plus = np.zeros(2 * (n // 2) + 1, dtype=complex)
    a_plus[:n] = state.a_plus
    a_plus /= np.sqrt(2.0 * np.sum(np.abs(a_plus) ** 2))
    return LatticeState(dt=state.dt, a_plus=a_plus)


def random_phase_state(n_sites: int, m_min: int, dt: float,
                       seed: int) -> TwoRowState:
    """A unit-norm compact state: moduli in [0.1, 1) and random phases on
    n_sites sites from m_min, both rows drawn."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.1, 1.0, (2, n_sites)) \
        * np.exp(2j * np.pi * rng.uniform(size=(2, n_sites)))
    z /= np.sqrt(np.sum(np.abs(z) ** 2))
    return TwoRowState(dt=dt, m_min=m_min, a_plus=z[0], a_minus=z[1])


def random_pi_state(m_max: int, dt: float, seed: int) -> LatticeState:
    """A unit-norm package state: moduli in [0.1, 1) and random phases of
    a+ on the sites -m_max..m_max, a- its sigma2 parity image."""
    rng = np.random.default_rng(seed)
    size = 2 * m_max + 1
    z = rng.uniform(0.1, 1.0, size) \
        * np.exp(2j * np.pi * rng.uniform(size=size))
    z /= np.sqrt(2.0 * np.sum(np.abs(z) ** 2))
    return LatticeState(dt=dt, a_plus=z)


def site_mirror(state):
    """The site mirror m -> -m, spin components and ``norm_drift`` kept,
    in C-contiguous copies: numpy's abs rounds a reversed view
    differently, and a mirrored density must be the mirror bit for bit.
    The -1/2 branch is the parity image of the +1/2 one, M-(phi) =
    M+(-phi), H-(p) = H+(-p) and u-(p) = u+(-p), so the mirror of a
    "plus" run of the mirrored state is that state's "minus" run, and the
    mirrored "plus" packet is the "minus" packet.  The mirror keeps the
    sigma2 parity, so a package state mirrors to one: a+ reversed."""
    if isinstance(state, LatticeState):
        return replace(state, a_plus=state.a_plus[::-1].copy())
    return replace(state, m_min=1 - state.m_min - state.n_sites,
                   a_plus=state.a_plus[::-1].copy(),
                   a_minus=state.a_minus[::-1].copy())


def as_branch(branch: str):
    """The map from a "plus" state or run to ``branch``'s: none for
    "plus", ``site_mirror`` for "minus"."""
    return site_mirror if branch_sign(branch) < 0 else (lambda state: state)


def sigma2_parity_defect(state: TwoRowState) -> float:
    """max |a-(m) - i a+(-m)| over a window symmetric about site 0: zero
    for a state invariant under (Pi a)(m) = sigma2 a(-m)."""
    assert state.m_min == 1 - state.m_min - state.n_sites, state.m_min
    return float(np.abs(state.a_minus - 1j * state.a_plus[::-1]).max())


def hstack_position_coefficients(profile, dt: float, m_max: int,
                                 n_ring: int | None = None):
    """The coefficients (c+, c-) of ``initial.position_coefficients``, each
    through its own whole Hermitian ring: the conjugated real-input
    transform of the weights W+ f and W- f, completed by its mirrored
    conjugate with ``hstack`` and read at m mod n_ring.  The ring is the
    package's, the window's own, unless ``n_ring`` is given."""
    n_ring = n_ring or ring_length(2 * m_max + 1)
    dp = 2.0 * np.pi / (n_ring * dt)
    p = dp * np.fft.ifftshift(np.arange(n_ring) - n_ring // 2)
    weights = (dp / np.sqrt(2.0 * np.pi)) * profile(p) \
        * np.stack(spinor_weights(p))
    half = np.conj(np.fft.rfft(weights, axis=1))
    ring = np.hstack([half, np.conj(half[:, n_ring - half.shape[1]:0:-1])])
    idx = np.arange(-m_max, m_max + 1) % n_ring
    return ring[0, idx], 1.0j * ring[1, idx]


def two_row_packet(config: WalkInitConfig) -> TwoRowState:
    """``initial.build_initial_state`` on both rows, each from its own
    transform (``hstack_position_coefficients``): cut where c+ or c- is
    at least the window threshold of the peak, and normalized on both."""
    extent = require_initial_state_fits(config)
    m_max = max(int(np.ceil(extent / config.dt)), 1)
    c_plus, c_minus = hstack_position_coefficients(
        gaussian_profile(config.nu), config.dt, m_max)
    mag = np.maximum(np.abs(c_plus), np.abs(c_minus))
    keep = np.flatnonzero(mag >= TOL.window_rel * mag.max())
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    amp = np.stack((c_plus[lo:hi], c_minus[lo:hi])) * np.sqrt(config.dt)
    amp *= 1.0 / np.sqrt(np.sum(np.abs(amp) ** 2))
    return TwoRowState(dt=config.dt, m_min=lo - m_max, a_plus=amp[0],
                       a_minus=amp[1])


def two_row_buffer(state, n: int) -> np.ndarray:
    """The (2, n) ring of a state's two rows: a+-[m] at index m mod n."""
    state = two_row(state)
    assert n >= state.n_sites
    buf = np.zeros((2, n), dtype=complex)
    idx = np.mod(state.sites, n)
    buf[0, idx], buf[1, idx] = state.a_plus, state.a_minus
    return buf


def unitary_modes(state, n: int) -> np.ndarray:
    """The unitary DFT of a state's ring of n sites, as a new (2, n)
    array: mode k holds sum_m a[m] e^{-2 pi i k m / n} / sqrt(n)."""
    return np.fft.fft(two_row_buffer(state, n), axis=1) / np.sqrt(n)


def ring_momenta(n: int, dt: float, branch: str = "plus") -> np.ndarray:
    """The momentum p of each mode of a ring of n sites at spacing dt; for
    "minus" the site mirror of the "plus" ring's: -p at mode -k mod n."""
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    return p if branch_sign(branch) > 0 else -p[-np.arange(n) % n]


def u_plus_effective(p) -> np.ndarray:
    """Effective 2-spinor of the helicity +1/2 branch: (W+, i W-)."""
    wp, wm = spinor_weights(p)
    return np.stack([wp + 0.0j, 1.0j * wm])


def u_minus_effective(p) -> np.ndarray:
    """Effective 2-spinor of the helicity -1/2 branch: (W-, i W+)."""
    wp, wm = spinor_weights(p)
    return np.stack([wm + 0.0j, 1.0j * wp])


def propagator_entries(p, t: float, branch: str = "plus"):
    """Entries (m00, m01, m10, m11) of exp(-i H(p) t), elementwise in p."""
    sign = branch_sign(branch)
    p = np.asarray(p, dtype=float)
    e = np.sqrt(p * p + 1.0)
    c = np.cos(e * t)
    s = np.sin(e * t) / e
    return c - 1j * s * sign * p, -s, s, c + 1j * s * sign * p


def walk_power_entries(phi, dt: float, n_steps: int, branch: str = "plus"):
    """Entries (m00, m01, m10, m11) of M(phi)^n for any integer n,
    elementwise in the quasi-momentum phi, where M(phi) = diag(e^{i s
    phi}, e^{-i s phi}) . coin(dt), s = +1 for "plus" and -1 for
    "minus"."""
    sign = branch_sign(branch)
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(dt), np.sin(dt)
    t, sin_theta = _dispersion(phi, dt)
    n_theta = n_steps * np.arctan2(sin_theta, c * np.cos(phi))
    cos_n = np.cos(n_theta)
    ratio = np.sin(n_theta) / sin_theta
    # ratio * K: diagonal +-i sign t, off-diagonal -s e^{i sign phi}
    # (upper) and s e^{-i sign phi} (lower)
    diag = 1j * sign * ratio * t
    off = s * ratio * np.exp(1j * sign * phi)
    return cos_n + diag, -off, np.conj(off), cos_n - diag


def su2_entries(a, b):
    """The entries (m00, m01, m10, m11) = (a, -b*, b, a*) of the SU(2)
    matrix whose pair is (a, b)."""
    return a, -np.conj(b), b, np.conj(a)


def stacked_symbol(modes, symbol) -> np.ndarray:
    """Every mode's spinor times its 2x2 symbol (m00, m01, m10, m11), as a
    new stacked array."""
    m00, m01, m10, m11 = symbol
    up, dn = modes
    return np.stack([m00 * up + m01 * dn, m10 * up + m11 * dn])


def modes_to_window(modes, dt: float, m_min: int,
                    n_sites: int) -> TwoRowState:
    """The inverse of ``unitary_modes``, read out on the window [m_min,
    m_min + n_sites)."""
    n = modes.shape[1]
    buf = np.fft.ifft(modes, axis=1) * np.sqrt(n)
    idx = np.mod(np.arange(m_min, m_min + n_sites), n)
    return TwoRowState(dt=dt, m_min=m_min, a_plus=buf[0, idx],
                       a_minus=buf[1, idx])


def stacked_evolve_on_ring(state, symbol, grow: int,
                           odd: bool = False) -> TwoRowState:
    """``spectral._evolve_on_ring`` on both rows, with a new array at every
    stage: the modes of each row's own transform, the stacked product and
    the transform back; ``symbol(n, n)`` evaluates every mode on the full
    grid, with no mirror."""
    state = two_row(state)
    m_min, n_sites = state.m_min - grow, state.n_sites + 2 * grow
    n = ring_length(n_sites, odd)
    modes = stacked_symbol(unitary_modes(state, n), symbol(n, n))
    return modes_to_window(modes, state.dt, m_min, n_sites)


def stacked_walk(state, n_steps: int, branch: str = "plus") -> TwoRowState:
    """``n_steps`` walk steps of ``branch`` on the stacked ring, with the
    four entries of ``walk_power_entries`` at every mode's own phi: no
    mirror, and no light-cone mask."""
    return stacked_evolve_on_ring(state, lambda n, half: walk_power_entries(
        -2.0 * np.pi * np.fft.fftfreq(n)[:half], state.dt, n_steps, branch),
        abs(n_steps))


def stacked_exact(state, t: float, branch: str = "plus") -> TwoRowState:
    """Exact evolution of ``branch`` for a time t on the stacked ring, with
    the four entries of ``propagator_entries`` at ``ring_momenta``, on the
    window and the odd ring of ``evolve_exact_on_lattice``."""
    grow = int(np.ceil(abs(t) / state.dt)) + spectral._MARGIN_SITES
    return stacked_evolve_on_ring(state, lambda n, half: propagator_entries(
        ring_momenta(n, state.dt, branch)[:half], t, branch), grow, odd=True)


def _stacked_plus_row(state, symbol, grow: int,
                      odd: bool = False) -> LatticeState:
    """``stacked_evolve_on_ring`` from and to a package state: the a+ row
    of the two-row run."""
    return plus_row(stacked_evolve_on_ring(state, symbol, grow, odd))


@contextmanager
def stacked_ring():
    """Run ``evolve`` and ``evolve_exact_on_lattice`` on the stacked ring
    of both rows, with the four entries of ``walk_power_entries`` and
    ``propagator_entries`` (their "plus" branch) in place of the (a, b)
    pairs; the package state takes the a+ row back."""
    with patch.object(spectral, "_evolve_on_ring", _stacked_plus_row), \
            patch.object(spectral, "walk_power_symbol", walk_power_entries), \
            patch.object(spectral, "propagator_symbol", propagator_entries):
        yield


def stacked_energy_leakage(state, branch: str = "plus") -> float:
    """``spectral.energy_leakage`` on both rows of ``unitary_modes``, without
    its Nyquist-band refusal: the weight of every mode's overlap with the
    unit spinor orthogonal to u+(p) = (W+, i W-), that is v = (W-, -i W+)
    (for "minus" u-(p) = (W-, i W+) and v = (W+, -i W-)), over the
    norm^2."""
    sign = branch_sign(branch)
    n = ring_length(state.n_sites + 16)
    amp = unitary_modes(state, n)
    p = ring_momenta(n, state.dt, branch)
    u = u_plus_effective(p) if sign > 0 else u_minus_effective(p)
    v = np.stack((-1j * u[1], -1j * u[0]))  # (y, -i x) for u = (x, i y)
    overlap = np.conj(v[0]) * amp[0] + np.conj(v[1]) * amp[1]
    return float(np.sum(np.abs(overlap) ** 2)) \
        / float(np.sum(np.abs(amp) ** 2))


def walk_symbol_matrix(phi: float, dt: float) -> np.ndarray:
    """The "plus" walk symbol diag(e^{i phi}, e^{-i phi}) . coin(dt), as a
    2x2 matrix."""
    shift = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    return shift @ coin_matrix(dt)


def symbol_eigenvalues(phi, dt):
    """lambda+- = cos(dt) cos(phi) +- i sin(theta), with sin(theta) from
    the shared dispersion."""
    _, sin_theta = _dispersion(phi, dt)
    cos_theta = np.cos(dt) * np.cos(phi)
    return cos_theta + 1j * sin_theta, cos_theta - 1j * sin_theta


def symbol_eigenvectors(phi, dt):
    """(f_pp, f_pm, f_mp, f_mm): v+ = (f_pp, f_pm) = (alpha, -i e^{-i phi}
    beta) and v- = (f_mp, f_mm) = (beta, i e^{-i phi} alpha), with the
    weights of ``_eigen_weights``."""
    alpha, beta = _eigen_weights(phi, dt)
    phase = 1j * np.exp(-1j * np.asarray(phi, dtype=float))
    return alpha + 0.0j, -phase * beta, beta + 0.0j, phase * alpha


def ring_spectral_coefficients(state, n_phi: int):
    """g+- by the ring of ``spectral``: its unitary forward DFT, read at
    phi = -(ring phase), projected on the conjugated eigenvectors of
    ``symbol_eigenvectors`` (phase e^{-i phi} included), in the ring order
    of ``spectral_coefficients``: phi = 2 pi k / n_phi, mode -k mod n_phi,
    at index k."""
    phi = -2.0 * np.pi * np.fft.fftfreq(n_phi)
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(phi, state.dt)
    # sum_m a[m] e^{i m phi} is sqrt(n) times the unitary ring mode
    amp = unitary_modes(state, n_phi) * np.sqrt(n_phi / state.dt)
    g_plus = np.conj(f_pp) * amp[0] + np.conj(f_pm) * amp[1]
    g_minus = np.conj(f_mp) * amp[0] + np.conj(f_mm) * amp[1]
    mode = -np.arange(n_phi) % n_phi
    return g_plus[mode], g_minus[mode]


def direct_sum_coefficients(state, n_phi: int):
    """g+- at phi = 2 pi q / n_phi in the ring order of
    ``spectral_coefficients``, q = 0, 1, ..., then the negative q, site by
    site: sum_m a[m] e^{i m phi} with the phase m q reduced mod n_phi in
    integers, so a site far from 0 loses no digits to m phi."""
    q = np.fft.ifftshift(np.arange(n_phi) - n_phi // 2)
    turns = np.mod(np.outer(q, state.sites), n_phi) / n_phi
    return projected_site_sums(state, 2.0 * np.pi * q / n_phi,
                               np.exp(2j * np.pi * turns))


def projected_site_sums(state, phi, kernel):
    """g+- at phi from the site sums kernel @ a+- (kernel[i, m] = e^{i m
    phi[i]}), projected on ``symbol_eigenvectors``."""
    state = two_row(state)
    a_plus, a_minus = kernel @ state.a_plus, kernel @ state.a_minus
    f_pp, f_pm, f_mp, f_mm = symbol_eigenvectors(phi, state.dt)
    root_dt = np.sqrt(state.dt)
    return ((np.conj(f_pp) * a_plus + np.conj(f_pm) * a_minus) / root_dt,
            (np.conj(f_mp) * a_plus + np.conj(f_mm) * a_minus) / root_dt)


def group_velocity(phi, dt: float):
    """h(phi) = t / sin(theta) = cos(dt) sin(phi) / sqrt(sin^2 dt +
    cos^2 dt sin^2 phi), the phi-derivative of the symbol's phase theta.

    The +- bands propagate with velocity +-h; |h| <= |cos(dt)| < 1, so the
    walk spreads strictly slower than the lattice light cone.
    """
    require_number("dt", dt, WALK_DT)
    t, sin_theta = _dispersion(phi, dt)
    out = t / sin_theta
    return out if out.ndim else float(out)


def site_sum_weights(state, phi):
    """|g+(phi)|^2 and |g-(phi)|^2 times dt/(2 pi) at any phi, from the
    site sums."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    g_plus, g_minus = projected_site_sums(
        state, phi, np.exp(1j * np.outer(phi, state.sites)))
    scale = state.dt / (2.0 * np.pi)
    return np.abs(g_plus) ** 2 * scale, np.abs(g_minus) ** 2 * scale


def quadrature_mass_below(state, y: float):
    """P(Y <= y) by adaptive quadrature of ``site_sum_weights`` over {+h <=
    y} and {-h <= y}, with the ends of each set found by root-finding on
    ``group_velocity`` (h is monotone on [-pi/2, pi/2] and on [pi/2,
    3 pi/2]), not by the closed-form inverse of h; returns the value and
    the sum of quad's error estimates."""
    dt = state.dt
    total = error = 0.0
    for band, sign in ((0, 1.0), (1, -1.0)):
        def excess(phi):
            return sign * group_velocity(phi, dt) - y

        def weight(phi):
            return site_sum_weights(state, phi)[band][0]

        for lo, hi in ((-np.pi / 2, np.pi / 2), (np.pi / 2, 3 * np.pi / 2)):
            at_lo, at_hi = excess(lo) <= 0.0, excess(hi) <= 0.0
            if not (at_lo or at_hi):
                continue
            if at_lo != at_hi:
                root = optimize.brentq(excess, lo, hi, xtol=1e-300,
                                       rtol=4 * np.finfo(float).eps,
                                       maxiter=500)
                lo, hi = (lo, root) if at_lo else (root, hi)
            # the weights vary on the scale dt next to phi = 0 and pi; a
            # point within 1e-3 dt of an end splits off a cell too narrow
            # for quad's error estimate (8.6e-9 at y = 1e-14)
            pts = [p for p in (0.0, np.pi)
                   if lo + 1e-3 * dt < p < hi - 1e-3 * dt] or None
            value, estimate = integrate.quad(weight, lo, hi, points=pts,
                                             limit=2000, epsabs=1e-15,
                                             epsrel=1e-13)
            total += value
            error += estimate
    return total, error


def two_band_mass_below(w, dt: float, y):
    """P(Y <= y) band by band, the route the one summed weight replaced,
    from band weights w on a whole ring of n points (rows + and -, at phi
    = 2 pi fftfreq(n), as ``ring_spectral_coefficients``): a cumulative
    mass table per band (one rfft/irfft pair each, capped at
    its total and made non-decreasing), band + on the arc [-pi - a, a] and
    band - on [-a, pi + a] (swapped for cos dt < 0), each band read at the
    two ends of its arc by the limited cubic Hermite of
    ``SpectralCoefficients._cumulative`` with that band's weights as end
    slopes."""
    y = np.asarray(y, dtype=float)
    z = np.abs(y)
    one = np.where(z < 0.5, 1.0 - z * z, (1.0 - z) * (1.0 + z))
    with np.errstate(divide="ignore"):
        u = np.minimum(abs(np.tan(dt)) * z / np.sqrt(one), 1.0)
    a = np.copysign(np.arcsin(u), y).reshape(-1)
    n = w.shape[1]
    dphi = 2.0 * np.pi / n
    table = np.empty((2, n + 1))
    inv_harmonic = 1.0 / np.arange(1, n // 2 + 1, dtype=float)
    for row, out in zip(w, table):
        spec = np.fft.rfft(row)
        mean = spec[0].real / n
        spec[1:] *= inv_harmonic
        spec *= -1j
        out[:n] = np.fft.irfft(spec, n)
        out[:n] += np.arange(n) * (mean * dphi) - out[0]
        out[n] = mean * 2.0 * np.pi
    np.minimum(table, table[:, n:], out=table)
    np.maximum.accumulate(table, axis=1, out=table)
    x = np.stack((a, -np.pi - a, np.pi + a, -a))
    j = x / dphi
    cell = np.floor(j)
    s = j - cell
    turns, k = np.divmod(cell.astype(np.intp), n)
    band = np.array([[0], [0], [1], [1]]) ^ int(np.cos(dt) < 0.0)
    g0, g1 = table[band, k], table[band, k + 1]
    delta = g1 - g0
    mu = np.divide(w[band, np.stack((k, (k + 1) % n))] * dphi, delta,
                   out=np.zeros((2,) + s.shape), where=delta > 0.0)
    d0, d2 = mu / np.maximum(mu[0] + mu[1], 3.0)
    r = 1.0 - s
    v = np.minimum(s, r)
    smooth = v * (1.125 - 2.0 * (0.75 - v) ** 2)
    smooth = np.where(s <= 0.5, smooth, 1.0 - smooth)
    share = d0 * (1.0 - r * r * r) \
        + np.maximum(1.0 - d0 - d2, 0.0) * smooth + d2 * (s * s * s)
    g = turns * table[band, n] + np.minimum(g0 + delta * share, g1)
    total = ((g[0] - g[1]) + (g[2] - g[3])).reshape(y.shape)
    return total if total.ndim else float(total)


def per_point_polyline(x, y, sx, sy) -> str:
    """The polyline points of ``svgplot`` one point at a time: ``sx`` and
    ``sy`` on each Python float, each pair an f-string."""
    return " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                    for a, b in zip(np.asarray(x), np.asarray(y)))


def read_csv(path):
    """Parse a file written by ``write_csv`` -> (metadata, columns, rows)."""
    meta, columns, rows = {}, None, []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, columns or [], np.array(rows) if rows else np.empty((0, 0))


@dataclass(frozen=True)
class DiracRep:
    """The fixed 4x4 matrix representation used throughout."""

    alpha: np.ndarray
    beta: np.ndarray
    helicity: np.ndarray


def dirac_representation() -> DiracRep:
    # helicity normalized to eigenvalues +-1/2 (spin-1/2 convention)
    return DiracRep(
        alpha=np.kron(SIGMA3, SIGMA3),
        beta=np.kron(SIGMA2, ID2),
        helicity=0.5 * np.kron(ID2, SIGMA3),
    )


def hamiltonian_matrix(p: float) -> np.ndarray:
    """Effective 2x2 Hamiltonian H(p) = sigma3*p + sigma2 = [[p, -i], [i, -p]]."""
    require_number("p", p)
    return np.array([[p, -1.0j], [1.0j, -p]], dtype=complex)


def hamiltonian4(p: float) -> np.ndarray:
    """Full 4x4 Hamiltonian alpha*p + beta."""
    require_number("p", p)
    rep = dirac_representation()
    return rep.alpha * p + rep.beta


@dataclass(frozen=True)
class EnergySpinor:
    """A positive-energy spinor at momentum p, in 4- and 2-component form."""

    p: float
    energy: float
    u4: np.ndarray
    u2: np.ndarray


def u_plus4(p: float) -> EnergySpinor:
    """Unit-norm positive-energy spinor with helicity +1/2 (second factor e+)."""
    require_number("p", p)
    u2 = u_plus_effective(float(p))
    return EnergySpinor(p=float(p), energy=float(energy(p)),
                        u4=np.kron(u2, E_PLUS), u2=u2)


def u_minus4(p: float) -> EnergySpinor:
    """Unit-norm positive-energy spinor with helicity -1/2 (second factor e-)."""
    require_number("p", p)
    u2 = u_minus_effective(float(p))
    return EnergySpinor(p=float(p), energy=float(energy(p)),
                        u4=np.kron(u2, E_MINUS), u2=u2)


def reduce_effective(u4: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Strip the frozen second tensor factor off a 4-spinor.

    Accepts vectors of the form ``w (x) e+`` = (a, 0, b, 0) or
    ``w (x) e-`` = (0, a, 0, b) and returns (a, b), preserving the norm.
    Raises if both second-factor components carry weight above ``tol``.
    """
    u4 = np.asarray(u4, dtype=complex)
    if u4.shape != (4,):
        raise ValueError(f"expected a 4-component spinor, got shape {u4.shape}")
    on_plus = u4[[0, 2]]
    on_minus = u4[[1, 3]]
    np_, nm = np.linalg.norm(on_plus), np.linalg.norm(on_minus)
    if min(np_, nm) > tol:
        raise ValueError(
            f"second tensor factor is mixed (weights {np_:.3e}, {nm:.3e}); "
            "not a definite-helicity product state"
        )
    return on_plus if np_ >= nm else on_minus


def coin_matrix(dt: float) -> np.ndarray:
    """The coin c = exp(-i*dt*sigma2) = [[cos dt, -sin dt], [sin dt, cos dt]]."""
    c, s = np.cos(dt), np.sin(dt)
    return np.array([[c, -s], [s, c]], dtype=complex)


def coin_step(state: TwoRowState) -> TwoRowState:
    """Rotate the spin at every site: (a+, a-) <- (c*a+ - s*a-, s*a+ + c*a-)."""
    c, s = np.cos(state.dt), np.sin(state.dt)
    return replace(
        state,
        a_plus=c * state.a_plus - s * state.a_minus,
        a_minus=s * state.a_plus + c * state.a_minus,
        norm_drift=None,
    )


def shift_step(state: TwoRowState, branch: str = "plus") -> TwoRowState:
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


def step(state: TwoRowState, branch: str = "plus") -> TwoRowState:
    """One walk step: coin first, then the conditional shift."""
    return shift_step(coin_step(state), branch)


def evolve_steps(state, n_steps: int, branch: str = "plus") -> TwoRowState:
    """Apply ``n_steps`` walk steps one by one to both rows of a state,
    recording |norm^2 - 1| after each.  ``spectral.evolve`` computes the
    same state's a+ in one FFT pair; this loop is its reference.

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
    state = two_row(state)
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
        # |norm^2 - 1|, as TwoRowState.norm_sq on the grown window
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
    alpha, beta = _eigen_weights(phi, dt)
    env = np.sqrt(2.0 * np.sqrt(np.pi) / (nu * dt * dt)) \
        * np.exp(-phi * phi / (2.0 * nu * nu * dt * dt))
    pos = phi > 0
    turn = np.exp(1j * phi)
    g_plus = env * np.where(pos, -beta * turn, alpha)
    g_minus = env * np.where(pos, alpha * turn, beta)
    return g_plus, g_minus
