"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Heavy runs (the nu=2.5 weak-limit walk and the dt sweep) are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from diracwalk import (WalkInitConfig, build_initial_state, compare_densities,
                       dirac_representation, energy, energy_leakage, evolve,
                       evolve_exact_on_lattice, gaussian_profile,
                       hamiltonian4, hamiltonian_matrix, limit_cdf,
                       limit_density_mass, limit_moment,
                       position_coefficients, position_distribution,
                       propagator_symbol, spectral_coefficients, u_minus4,
                       u_plus4)
from diracwalk.cli import main as cli_main
from diracwalk.table import read_csv
from diracwalk.walk import LatticeState, empirical_moment


def report(num, name, ok, detail):
    print(f"\n[acceptance] criterion {num:02d} {name}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def weak_limit_run():
    """nu=2.5, dt=0.005, t=50 (n=10^4): initial state and final walk state."""
    state = build_initial_state(WalkInitConfig(nu=2.5, dt=0.005))
    final = evolve(state, 10_000)
    return state, final


@pytest.fixture(scope="module")
def splitting_sweep():
    """nu=1, t=2 across dt in {0.02, 0.01, 0.005}: L1 distances and leakage."""
    rows = []
    exact_leak = None
    for dt in (0.02, 0.01, 0.005):
        state = build_initial_state(WalkInitConfig(nu=1.0, dt=dt))
        n = round(2.0 / dt)
        walked = evolve(state, n)
        exact = evolve_exact_on_lattice(state, n * dt)
        rep = compare_densities(walked, exact)
        rows.append((dt, rep.l1, energy_leakage(walked)))
        if exact_leak is None:
            exact_leak = energy_leakage(exact)
    return rows, exact_leak


def test_criterion_01_spinor_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    rep = dirac_representation()
    worst = 0.0
    for p in rng.uniform(-10.0, 10.0, 200):
        up, um = u_plus4(p), u_minus4(p)
        h4, e = hamiltonian4(p), energy(p)
        worst = max(
            worst,
            abs(np.vdot(up.u4, up.u4) - 1.0),
            abs(np.vdot(um.u4, um.u4) - 1.0),
            abs(np.vdot(up.u4, um.u4)),
            abs(np.vdot(um.u4, up.u4)),
            float(np.abs(h4 @ up.u4 - e * up.u4).max()),
            float(np.abs(h4 @ um.u4 - e * um.u4).max()),
            float(np.abs(rep.helicity @ up.u4 - 0.5 * up.u4).max()),
            float(np.abs(rep.helicity @ um.u4 + 0.5 * um.u4).max()),
        )
    elapsed = time.perf_counter() - start
    report(1, "spinor identity suite",
           worst < 1e-12 and elapsed < 1.0,
           f"max error {worst:.2e} over 200 momenta, {elapsed:.2f}s")


def test_criterion_02_propagator_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-10.0, 10.0)
        t = rng.uniform(0.0, 5.0)
        diff = np.reshape(propagator_symbol(p, t), (2, 2)) \
            - expm(-1j * hamiltonian_matrix(p) * t)
        worst = max(worst, float(np.abs(diff).max()))
    elapsed = time.perf_counter() - start
    report(2, "closed-form propagator vs expm oracle",
           worst < 1e-10 and elapsed < 1.0,
           f"max deviation {worst:.2e} over 100 (p,t), {elapsed:.2f}s")


def test_criterion_03_unitarity_and_light_cone():
    start = time.perf_counter()
    n = 10_000
    pad, half = 300, 200
    m = np.arange(-half, half + 1)
    wave = np.exp(-(m / 80.0) ** 2) * np.exp(0.25j * m)
    a_plus = np.zeros(2 * (half + pad) + 1, dtype=complex)
    a_minus = np.zeros_like(a_plus)
    a_plus[pad: pad + m.size] = wave
    a_minus[pad: pad + m.size] = 0.5j * wave[::-1]
    norm = np.sqrt(np.sum(np.abs(a_plus) ** 2 + np.abs(a_minus) ** 2))
    state = LatticeState(dt=1e-3, m_min=-(half + pad),
                         a_plus=a_plus / norm, a_minus=a_minus / norm)
    final = evolve(state, n)
    drift = abs(final.norm_sq() - 1.0)
    outside = np.abs(final.sites) > half + n
    cone_ok = bool(np.all(position_distribution(final)[outside] == 0.0)) \
        and outside.sum() == 2 * pad
    elapsed = time.perf_counter() - start
    report(3, "unitarity and exact light cone",
           drift < 1e-9 and cone_ok and elapsed < 30.0,
           f"norm drift {drift:.2e}, {outside.sum()} padded sites exactly "
           f"zero, {elapsed:.1f}s")


def test_criterion_04_splitting_order(splitting_sweep):
    start = time.perf_counter()
    rows, _ = splitting_sweep
    l1 = [r[1] for r in rows]
    r1, r2 = l1[0] / l1[1], l1[1] / l1[2]
    dts = np.array([r[0] for r in rows])
    order = float(np.polyfit(np.log(dts), np.log(l1), 1)[0])
    elapsed = time.perf_counter() - start
    report(4, "first-order splitting error",
           1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4 and 0.8 <= order <= 1.2,
           f"L1 ratios {r1:.3f}, {r2:.3f}; fitted order {order:.3f}; "
           f"{elapsed:.1f}s (fixture shared)")


def test_criterion_05_limit_density_normalization():
    start = time.perf_counter()
    errs = {nu: abs(limit_density_mass(-1.0, 1.0, nu) - 1.0)
            for nu in (1.9, 2.5, 2.9)}
    elapsed = time.perf_counter() - start
    report(5, "limit density normalization",
           max(errs.values()) < 1e-8 and elapsed < 1.0,
           "|int F - 1|: " + ", ".join(f"nu={k}: {v:.1e}"
                                       for k, v in errs.items())
           + f"; {elapsed:.2f}s")


def test_criterion_06_weak_limit_match(weak_limit_run):
    start = time.perf_counter()
    _, final = weak_limit_run
    n, nu = 10_000, 2.5
    prob = position_distribution(final)
    y = final.sites / n
    inside = np.abs(y) < 1.0
    f_mass = np.zeros_like(y)
    from diracwalk import limit_density
    f_mass[inside] = limit_density(y[inside], nu) / n
    l1 = float(np.abs(prob - f_mass).sum())

    m2_emp = empirical_moment(final, 2) / (n * final.dt) ** 2
    m2_lim = limit_moment(2, nu)
    m2_rel = abs(m2_emp / m2_lim - 1.0)

    ystar = float(np.sqrt(1.0 - 2.0 / (3.0 * nu * nu)))
    res = minimize_scalar(lambda v: -float(limit_density(v, nu)),
                          bounds=(1e-6, 1 - 1e-9), method="bounded",
                          options={"xatol": 1e-12})
    formula_ok = abs(ystar - res.x) < 1e-9

    kernel = np.ones(41) / 41
    smooth = np.convolve(prob, kernel, mode="same")
    horn_err = 0.0
    for side in (+1, -1):
        mask = (side * y > 0.1) & (np.abs(y) < 1.0)
        peak = abs(y[mask][np.argmax(smooth[mask])])
        horn_err = max(horn_err, abs(peak - ystar))
    elapsed = time.perf_counter() - start
    report(6, "weak-limit distribution match",
           l1 < 0.08 and m2_rel < 0.02 and horn_err < 0.02 and formula_ok,
           f"L1 {l1:.4f} (<0.08), moment2 rel err {m2_rel:.2e} (<0.02), "
           f"horn err {horn_err:.4f} (<0.02, y*={ystar:.4f} confirmed "
           f"numerically), {elapsed:.1f}s")


def test_criterion_07_cdf_route_consistency(weak_limit_run):
    start = time.perf_counter()
    state, _ = weak_limit_run  # nu*dt = 2.5 * 0.005 = 0.0125
    coeffs = spectral_coefficients(state)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        y1, y2 = np.sort(rng.uniform(-1.0, 1.0, 2))
        got = limit_cdf(y1, y2, coeffs)
        want = limit_density_mass(y1, y2, 2.5)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(7, "spectral CDF route vs closed form",
           worst < 1e-3 and elapsed < 30.0,
           f"max |cdf - int F| = {worst:.2e} over 10 random intervals, "
           f"{elapsed:.1f}s")


def test_criterion_08_figure1_reproduction(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "figure1.svg"
    rc = cli_main(["figure1", "--out", str(out)])
    meta, cols, rows = read_csv(tmp_path / "figure1.csv")
    y = rows[:, 0]
    mid = np.argmin(np.abs(y))
    targets = {1: (1.9, 0.2970), 2: (2.5, 0.2257), 3: (2.9, 0.1946)}
    f0_ok = all(
        abs(rows[mid, j] - 1.0 / (nu * np.sqrt(np.pi))) < 1e-12
        and abs(rows[mid, j] - val) < 1e-4
        for j, (nu, val) in targets.items()
    )
    near = np.argmin(np.abs(y - 0.94))
    ordering_ok = rows[near, 3] > rows[near, 2] > rows[near, 1]
    elapsed = time.perf_counter() - start
    report(8, "figure-1 curves",
           rc == 0 and out.exists() and rows.shape[0] >= 400 and f0_ok
           and ordering_ok and elapsed < 5.0,
           f"F(0) = {rows[mid, 1]:.4f}/{rows[mid, 2]:.4f}/{rows[mid, 3]:.4f}, "
           f"near-edge dominance at y=0.94, {elapsed:.2f}s")


def test_criterion_09_positive_energy_behavior(splitting_sweep):
    start = time.perf_counter()
    rows, exact_leak = splitting_sweep
    leaks = [r[2] for r in rows]
    monotone = leaks[0] > leaks[1] > leaks[2] > 0.0
    elapsed = time.perf_counter() - start
    report(9, "positive-energy preservation",
           exact_leak < 1e-10 and monotone,
           f"exact leakage {exact_leak:.2e} (<1e-10); walk leakage "
           + " > ".join(f"{v:.2e}" for v in leaks)
           + f"; {elapsed:.1f}s (fixture shared)")


def test_criterion_10_half_norm_split():
    start = time.perf_counter()
    prof = gaussian_profile(50.0)
    h = 0.99 * np.pi / prof.p_max
    half = int(np.ceil(40.0 / h))
    grid = h * np.arange(-half, half + 1)
    co = position_coefficients(prof, grid)
    up = float(np.sum(np.abs(co.c_plus) ** 2) * co.h)
    dn = float(np.sum(np.abs(co.c_minus) ** 2) * co.h)
    elapsed = time.perf_counter() - start
    report(10, "half-norm split at nu=50",
           abs(up - 0.5) < 0.01 and abs(dn - 0.5) < 0.01 and elapsed < 5.0,
           f"|c+|^2 -> {up:.6f}, |c-|^2 -> {dn:.6f}, {elapsed:.2f}s")
