"""The benchmark's four workloads.

Each workload turns a seed into its inputs, runs one operation at a time
through ``diracwalk.cli.main`` or the package's public functions, and checks
every operation's outputs against the numerical contracts of the README.
A check returns a list of problems; an empty list means the operation passed.

Why these four:

- ``weak_limit``: the README's ``asymptotic`` config (10^4 walk steps); the
  walk layer does most of the work.
- ``exact_sharp``: ``exact`` at a large cutoff; no walk at all, so a walk
  optimisation must leave it unchanged, while the initial-state build and
  the 97k-row table dominate.
- ``dt_sweep``: the README's ``compare`` config; small-cutoff builds
  dominate and the table does no work.
- ``limit_law``: the spectral route to the limit law and ``figure1``; the
  only workload that runs ``spectral_coefficients``, ``limit_cdf`` and the
  SVG writer.

The seed draws the ``limit_law`` intervals and a small relative jitter of
each CLI workload's ``nu``, so a change cannot be tuned to one exact config.
"""

import hashlib
import math
import os
import types

import numpy as np

import diracwalk
from diracwalk import cli

NU_JITTER = 0.02  # relative half-width of the seeded nu jitter
N_INTERVALS = 32  # limit_law CDF intervals per operation

# limit_law's state; nu * dt = 0.0125 is where the README promises that the
# spectral CDF matches the closed form to 1e-3
LIMIT_NU, LIMIT_DT = 2.5, 0.005


def public_api():
    """The public functions the benchmark calls itself; the tracer swaps
    span-recording wrappers into this table."""
    return types.SimpleNamespace(
        build_initial_state=diracwalk.build_initial_state,
        energy_leakage=diracwalk.energy_leakage,
        spectral_coefficients=diracwalk.spectral_coefficients,
        limit_cdf=diracwalk.limit_cdf,
        limit_density_mass=diracwalk.limit_density_mass,
    )


def read_metadata(path) -> dict:
    meta = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
    return meta


def read_column(path, name) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        n_meta = 0
        for line in fh:
            if not line.startswith("#"):
                columns = line.rstrip("\n").split(",")
                break
            n_meta += 1
    return np.loadtxt(path, delimiter=",", skiprows=n_meta + 1,
                      usecols=columns.index(name), ndmin=1)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _jittered(rng, nu: float) -> float:
    return round(nu * (1.0 + rng.uniform(-NU_JITTER, NU_JITTER)), 6)


class Workload:
    """One workload: ``run`` is the timed operation, ``check`` its verdict.

    ``tiny`` shrinks the inputs so that every code path runs in well under a
    second; the size-specific contracts (errors that only hold at the
    standard configuration) are then skipped, the rest still apply.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool, out_dir: str, api):
        self.rng = np.random.default_rng(seed)
        self.tiny = tiny
        self.api = api
        self._digests = None

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, facts: dict) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        return []

    def _deterministic(self) -> list[str]:
        """Repeated operations on the same inputs write identical bytes."""
        digests = [_digest(p) for p in self.outputs()]
        if self._digests is None:
            self._digests = digests
            return []
        return [] if digests == self._digests else [
            "output bytes differ from the first operation's"]


class _CliWorkload(Workload):
    def __init__(self, seed, tiny, out_dir, api):
        super().__init__(seed, tiny, out_dir, api)
        self.out = os.path.join(out_dir, f"{self.name}.csv")
        self.argv = self.make_argv()

    def make_argv(self) -> list[str]:
        raise NotImplementedError

    def outputs(self):
        return [self.out]

    def run(self):
        return {"rc": cli.main(self.argv)}

    def check(self, facts):
        if facts["rc"] != 0:
            return [f"exit status {facts['rc']}"]
        return self.check_output(facts) + self._deterministic()


class WeakLimit(_CliWorkload):
    name = "weak_limit"

    def make_argv(self):
        dt, t = ("0.02", "2") if self.tiny else ("0.005", "50")
        nu = _jittered(self.rng, 2.5)
        return ["asymptotic", "--nu", repr(nu), "--dt", dt, "--t", t,
                "--out", self.out]

    def check_output(self, facts):
        meta = read_metadata(self.out)
        problems = []
        # the walk aborts (exit 2) once any step drifts by more than 1e-9;
        # the final density must still sum to one within that budget
        total = float(read_column(self.out, "prob").sum())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"final probability {total!r} is not 1 +- 1e-9")
        # a traced operation also carries the walk's recorded drift
        drift = facts.get("walk.norm_drift_max")
        if drift is not None and not drift < 1e-9:
            problems.append(f"norm_drift_max {drift:.3e} >= 1e-9")
        if self.tiny:
            return problems
        l1 = float(meta["l1_distance"])
        if not l1 < 0.08:
            problems.append(f"L1 to F = {l1:.4f} >= 0.08")
        m2, m2_limit = float(meta["moment2_empirical"]), \
            float(meta["moment2_limit"])
        if not abs(m2 - m2_limit) < 0.02 * m2_limit:
            problems.append(f"moment 2: {m2:.5f} vs limit {m2_limit:.5f}")
        horn = float(meta["horn_analytic"])
        for side in ("right", "left"):
            err = abs(float(meta[f"horn_empirical_{side}"]) - horn)
            if not err < 0.02:
                problems.append(f"{side} horn off by {err:.4f}")
        return problems


class ExactSharp(_CliWorkload):
    name = "exact_sharp"

    def make_argv(self):
        dt, t = ("0.01", "1") if self.tiny else ("0.002", "50")
        nu = _jittered(self.rng, 10.0)
        return ["exact", "--nu", repr(nu), "--dt", dt, "--t", t,
                "--out", self.out]

    def run(self):
        # keep the exact final state for the leakage diagnostic; the CLI
        # itself only writes the density
        finals = []
        evolve_exact = cli.evolve_exact_on_lattice

        def keep_final(*args, **kwargs):
            finals.append(evolve_exact(*args, **kwargs))
            return finals[-1]
        cli.evolve_exact_on_lattice = keep_final
        try:
            facts = super().run()
        finally:
            cli.evolve_exact_on_lattice = evolve_exact
        if facts["rc"] == 0:
            facts["leakage"] = self.api.energy_leakage(finals[-1], "plus")
        return facts

    def check_output(self, facts):
        problems = []
        total = float(read_metadata(self.out)["prob_total"])
        if not abs(total - 1.0) < 1e-9:
            problems.append(f"prob_total {total!r} is not 1 +- 1e-9")
        if not facts["leakage"] < 1e-10:
            problems.append(f"exact leakage {facts['leakage']:.3e} >= 1e-10")
        return problems


class DtSweep(_CliWorkload):
    name = "dt_sweep"

    def make_argv(self):
        t, dts = ("0.5", "0.04,0.02") if self.tiny \
            else ("2", "0.02,0.01,0.005")
        nu = _jittered(self.rng, 1.0)
        return ["compare", "--nu", repr(nu), "--t", t, "--dt-list", dts,
                "--out", self.out]

    def check_output(self, facts):
        problems = []
        leak = read_column(self.out, "leakage")
        if not np.all(np.diff(leak) < 0):
            problems.append(f"walk leakage not decreasing with dt: {leak}")
        if self.tiny:
            return problems
        order = float(read_metadata(self.out)["l1_order_fit"])
        if not 0.8 <= order <= 1.2:
            problems.append(f"l1_order_fit {order:.4f} outside [0.8, 1.2]")
        return problems


class LimitLaw(Workload):
    name = "limit_law"

    def __init__(self, seed, tiny, out_dir, api):
        super().__init__(seed, tiny, out_dir, api)
        self.nu, dt = LIMIT_NU, 0.02 if tiny else LIMIT_DT
        self.intervals = np.sort(
            self.rng.uniform(-1.0, 1.0, (4 if tiny else N_INTERVALS, 2)),
            axis=1)
        self.state = api.build_initial_state(
            diracwalk.WalkInitConfig(nu=self.nu, dt=dt))
        self.svg = os.path.join(out_dir, "figure1.svg")
        self.argv = ["figure1", "--out", self.svg]

    def outputs(self):
        return [self.svg[:-len(".svg")] + ".csv", self.svg]

    def run(self):
        api = self.api
        coeffs = api.spectral_coefficients(self.state)
        err = max(abs(api.limit_cdf(y1, y2, coeffs)
                      - api.limit_density_mass(y1, y2, self.nu))
                  for y1, y2 in self.intervals)
        return {"completeness": coeffs.completeness(), "cdf_max_err": err,
                "rc": cli.main(self.argv)}

    def check(self, facts):
        problems = []
        if not abs(facts["completeness"] - 1.0) < 1e-8:
            problems.append(f"completeness {facts['completeness']!r} "
                            "is not 1 +- 1e-8")
        if not self.tiny and not facts["cdf_max_err"] < 1e-3:
            problems.append(f"limit_cdf off the closed form by "
                            f"{facts['cdf_max_err']:.3e} >= 1e-3")
        if facts["rc"] != 0:
            return problems + [f"figure1 exit status {facts['rc']}"]
        meta = read_metadata(self.outputs()[0])
        for nu in cli.FIGURE1_NUS:
            f0 = float(meta[f"F0_nu_{nu}"])
            want = 1.0 / (nu * math.sqrt(math.pi))
            if not abs(f0 - want) <= 1e-12 * want:
                problems.append(f"F(0; {nu}) = {f0!r}, expected {want!r}")
        with open(self.svg, encoding="ascii") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")
                and svg.count("<polyline") == len(cli.FIGURE1_NUS)):
            problems.append("figure1 SVG is malformed")
        return problems + self._deterministic()


WORKLOADS = {w.name: w for w in (WeakLimit, ExactSharp, DtSweep, LimitLaw)}
