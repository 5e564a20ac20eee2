"""Command-line orchestration: walk | exact | compare | asymptotic | figure1.

Every command resolves its parameters (JSON config file, overridden by
flags), runs deterministically (no randomness, fixed iteration orders) and
writes CSV/SVG outputs whose bytes depend only on the resolved config.
Wall-clock timing goes to stdout, never into the files.

Exit status: 0 success, 1 usage error, 2 numerical-health failure
(unitarity drift, aliasing, quadrature trouble).
"""

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotic import horn_location, limit_density, limit_moment
from .constants import (BRANCHES, NumericalHealthError, branch_sign,
                        require_ring_fits)
from .exact import compare_densities, energy_leakage, evolve_exact_on_lattice
from .initial import (WalkInitConfig, build_initial_state,
                      require_initial_state_fits)
from .spectral import evolve
from .svgplot import write_svg
from .table import ResultTable
from .walk import empirical_moment, position_distribution

FIGURE1_NUS = (1.9, 2.5, 2.9)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-status contract
    # reserves 2 for numerical failures, so usage errors become exceptions
    def error(self, message):
        raise UsageError(message)


def _number(key, val) -> float:
    """A finite float from a flag or a JSON number or numeric string."""
    try:
        num = float(val)
    except (TypeError, ValueError, OverflowError):
        num = np.nan
    if not np.isfinite(num):
        raise UsageError(f"{key} must be a finite number, got {val!r}")
    return num


@dataclass
class RunConfig:
    command: str
    nu: float = 2.5
    dt: float = 0.01
    t: float = 10.0
    branch: str = "plus"
    out: str | None = None
    dt_list: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return int(round(self.t / self.dt))

    @property
    def t_realized(self) -> float:
        return self.n_steps * self.dt

    def validate(self):
        # a JSON config may hold any type; flags arrive as float or str
        for key in ("nu", "dt", "t"):
            setattr(self, key, _number(key, getattr(self, key)))
        items = self.dt_list.split(",") if isinstance(self.dt_list, str) \
            else self.dt_list
        if not isinstance(items, list):
            raise UsageError("dt_list must be a list of numbers or a "
                             "comma-separated string")
        self.dt_list = [_number("dt_list", v) for v in items]
        if self.out is not None and not isinstance(self.out, str):
            raise UsageError(f"out must be a path string, got {self.out!r}")
        if self.nu <= 0 or self.dt <= 0 or self.t < 0:
            raise UsageError("nu and dt must be positive, t non-negative")
        branch_sign(self.branch)
        if self.command == "figure1":
            return
        # ranges, from floats and before any work: every dt of the run
        # must leave the walk window (at least 2 t/dt sites) and the
        # initial state within the ring budget
        for dt in self.dt_list if self.command == "compare" else [self.dt]:
            require_ring_fits(2.0 * self.t / dt)
            require_initial_state_fits(WalkInitConfig(nu=self.nu, dt=dt))


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    allowed = {"nu", "dt", "t", "branch", "out", "dt_list"}
    unknown = set(data) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, val in _load_config(args.config).items():
            setattr(cfg, key, val)
    for key in ("nu", "dt", "t", "branch", "out"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "dt_list", None):
        cfg.dt_list = args.dt_list
    cfg.validate()
    return cfg


def _echo(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "nu": cfg.nu,
        "dt": cfg.dt,
        "t_requested": cfg.t,
        "n_steps": cfg.n_steps,
        "t_realized": cfg.t_realized,
        "branch": cfg.branch,
        "x0": 0.0,
    }


def _initial_state(cfg: RunConfig):
    return build_initial_state(
        WalkInitConfig(nu=cfg.nu, dt=cfg.dt, branch=cfg.branch))


def _density_table(state, meta) -> ResultTable:
    table = ResultTable(columns=["site", "x", "prob"], metadata=meta)
    prob = position_distribution(state)
    table.add_columns(state.sites, state.x, prob)
    table.metadata["prob_total"] = float(prob.sum())
    return table


def cmd_walk(cfg: RunConfig) -> ResultTable:
    state = _initial_state(cfg)
    final = evolve(state, cfg.n_steps, cfg.branch)
    table = _density_table(final, _echo(cfg))
    table.metadata["norm_drift_max"] = float(final.norm_drift.max()) \
        if final.norm_drift.size else 0.0
    return table


def cmd_exact(cfg: RunConfig) -> ResultTable:
    state = _initial_state(cfg)
    final = evolve_exact_on_lattice(state, cfg.t_realized, cfg.branch)
    return _density_table(final, _echo(cfg))


def cmd_compare(cfg: RunConfig) -> ResultTable:
    if len(cfg.dt_list) < 2:
        raise UsageError("compare needs --dt-list with at least two values")
    if any(b >= a for a, b in zip(cfg.dt_list, cfg.dt_list[1:])):
        raise UsageError("--dt-list must be strictly decreasing")
    meta = _echo(cfg)
    for key in ("dt", "n_steps", "t_realized"):
        meta.pop(key, None)
    table = ResultTable(
        columns=["dt", "n_steps", "t_realized", "l1", "l2", "sup", "leakage"],
        metadata=meta,
    )
    for dt in cfg.dt_list:
        sub = RunConfig(command="walk", nu=cfg.nu, dt=dt, t=cfg.t,
                        branch=cfg.branch)
        state = _initial_state(sub)
        walked = evolve(state, sub.n_steps, cfg.branch)
        exact = evolve_exact_on_lattice(state, sub.t_realized, cfg.branch)
        rep = compare_densities(walked, exact)
        table.add_row(dt, sub.n_steps, sub.t_realized, rep.l1, rep.l2,
                      rep.sup, energy_leakage(walked, cfg.branch))
    l1 = table.column("l1")
    order = np.polyfit(np.log(table.column("dt")), np.log(l1), 1)[0]
    table.metadata["l1_order_fit"] = float(order)
    return table


def _horn_from_histogram(y, prob, side: int, width: int = 41) -> float:
    """Peak of the (boxcar-smoothed) histogram on one side of the origin."""
    kernel = np.ones(width) / width
    smooth = np.convolve(prob, kernel, mode="same")
    mask = (side * y > 0.1) & (np.abs(y) < 1.0)
    if not mask.any():
        return float("nan")
    return float(y[mask][np.argmax(smooth[mask])])


def cmd_asymptotic(cfg: RunConfig) -> ResultTable:
    n = cfg.n_steps
    if n < 1000:
        print(f"warning: n = {n} < 1000 steps; the scaled distribution is "
              "far from its limit", file=sys.stderr)
    state = _initial_state(cfg)
    final = evolve(state, n, cfg.branch)
    prob = position_distribution(final)
    y = final.sites / n
    density = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    density[inside] = limit_density(y[inside], cfg.nu)

    table = ResultTable(
        columns=["y", "prob", "empirical_density", "limit_density"],
        metadata=_echo(cfg),
    )
    table.add_columns(y, prob, prob * n, density)

    meta = table.metadata
    meta["l1_distance"] = float(np.abs(prob - density / n).sum())
    for k in (1, 2, 4):
        scale = (n * cfg.dt) ** k
        meta[f"moment{k}_empirical"] = empirical_moment(final, k) / scale
        meta[f"moment{k}_limit"] = limit_moment(k, cfg.nu)
    meta["horn_analytic"] = horn_location(cfg.nu)
    meta["horn_empirical_right"] = _horn_from_histogram(y, prob, +1)
    meta["horn_empirical_left"] = -_horn_from_histogram(y, prob, -1)
    return table


def cmd_figure1(cfg: RunConfig) -> ResultTable:
    zeta = 2e-3
    y = np.linspace(-1.0 + zeta, 1.0 - zeta, 2001)
    table = ResultTable(
        columns=["y"] + [f"F_nu_{nu}" for nu in FIGURE1_NUS],
        metadata={"command": "figure1", "version": __version__,
                  "samples": y.size, "y_edge": float(y[-1])},
    )
    curves = {nu: limit_density(y, nu) for nu in FIGURE1_NUS}
    table.add_columns(y, *(curves[nu] for nu in FIGURE1_NUS))
    for nu in FIGURE1_NUS:
        table.metadata[f"F0_nu_{nu}"] = float(limit_density(0.0, nu))
        table.metadata[f"horn_nu_{nu}"] = horn_location(nu)
    return table


def _csv_path(out: str) -> str:
    return out[: -len(".svg")] + ".csv" if out.endswith(".svg") else out


def _write_outputs(cfg: RunConfig, table: ResultTable) -> list[str]:
    written = []
    if not cfg.out:
        return written
    csv_path = _csv_path(cfg.out)
    try:
        table.write_csv(csv_path)
        written.append(csv_path)
        if cfg.command == "figure1":
            svg_path = cfg.out if cfg.out.endswith(".svg") \
                else cfg.out + ".svg"
            y = table.column("y")
            curves = [(y, table.column(f"F_nu_{nu}"), f"nu = {nu}")
                      for nu in FIGURE1_NUS]
            write_svg(svg_path, curves,
                      title="Asymptotic position density of the scaled walk",
                      xlabel="y = x / t", ylabel="F(y)")
            written.append(svg_path)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc
    return written


_COMMANDS = {
    "walk": cmd_walk,
    "exact": cmd_exact,
    "compare": cmd_compare,
    "asymptotic": cmd_asymptotic,
    "figure1": cmd_figure1,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="diracwalk",
                     description="Dirac wavepackets as a quantum walk")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("walk", "evolve the lattice walk and emit the position density"),
        ("exact", "evolve with the exact propagator on the same lattice"),
        ("compare", "walk-vs-exact distances over a list of dt values"),
        ("asymptotic", "scaled-position histogram against the limit density"),
        ("figure1", "emit the closed-form density curves (CSV + SVG)"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", help="output path (CSV; figure1 also SVG)")
        if name != "figure1":
            p.add_argument("--nu", type=float, help="localization parameter")
            p.add_argument("--dt", type=float, help="time step = lattice spacing")
            p.add_argument("--t", type=float, help="total evolution time")
            p.add_argument("--branch", choices=BRANCHES,
                           help="helicity branch")
        if name == "compare":
            p.add_argument("--dt-list", dest="dt_list",
                           help="comma-separated, strictly decreasing dt values")
    return parser


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve(args)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            table = _COMMANDS[cfg.command](cfg)
        written = _write_outputs(cfg, table)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalHealthError as exc:
        print(f"numerical-health failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - started
    summary = ", ".join(f"{k}={v}" for k, v in list(table.metadata.items())[2:])
    print(f"{cfg.command}: {summary}")
    for path in written:
        print(f"wrote {path}")
    print(f"done in {elapsed:.2f}s ({table.n_rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
