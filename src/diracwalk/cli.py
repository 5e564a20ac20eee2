"""Command-line orchestration: walk | exact | compare | asymptotic | figure1.

Every command resolves the inputs it reads, and no other (``_COMMANDS``;
a JSON config file, overridden by flags), runs deterministically (fixed
iteration orders) and writes CSV/SVG outputs whose bytes depend only on
the resolved config.  Wall-clock timing goes to stdout, never the files.

Exit status: 0 success; 1 a refused input (``InputError``, from the flag
and JSON parser here or from any layer of the library); 2 a numerical-
health failure (unitarity drift, aliasing, quadrature trouble).  Any other
exception is a bug and propagates with its traceback.

``main`` also sets its process's heap policy, once, on glibc
(``_keep_freed_pages``); importing the package sets nothing.
"""

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotic import horn_location, limit_density, limit_moment
from .constants import (InputError, NumericalHealthError, require_number,
                        require_ring_fits)
from .initial import (WalkInitConfig, build_initial_state,
                      require_initial_state_fits)
from .spectral import energy_leakage, evolve, evolve_exact_on_lattice
from .svgplot import write_svg
from .table import ResultTable
from .walk import compare_densities, empirical_moment, position_distribution

FIGURE1_NUS = (1.9, 2.5, 2.9)
_HORN_BOXCAR = 41  # sites of the histogram smoothing before a horn's peak
# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the
# values main pins them to: 32 MiB is the highest mmap threshold glibc's
# own dynamic rule reaches on 64-bit, and that rule keeps the trim
# threshold at twice the mmap threshold
_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-status contract
    # reserves 2 for numerical failures, so usage errors become exceptions
    def error(self, message):
        raise InputError(message)


def _number(key, val, domain="(-inf, inf)") -> float:
    """A float in ``domain`` from a flag, or from a JSON number or numeric
    string (``require_number``: a JSON true or false is no number).  -0
    reads as 0, so both are one config and write the same bytes."""
    with contextlib.suppress(ValueError):  # other text stays, to be refused
        val = float(val) if isinstance(val, str) else val
    return require_number(key, val, domain) + 0.0


@dataclass
class RunConfig:
    command: str
    nu: float = 2.5
    dt: float = 0.01
    t: float = 10.0
    out: str | None = None
    dt_list: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return int(round(self.t / self.dt))

    @property
    def t_realized(self) -> float:
        return self.n_steps * self.dt

    def validate(self):
        # a JSON config may hold any type; flags arrive as float or str.
        # WalkInitConfig, below, holds the domains of nu and each dt
        self.nu, self.dt = _number("nu", self.nu), _number("dt", self.dt)
        self.t = _number("t", self.t, "[0, inf)")
        items = self.dt_list.split(",") if isinstance(self.dt_list, str) \
            else self.dt_list
        if not isinstance(items, list):
            raise InputError("dt_list must be a list of numbers or a "
                             "comma-separated string")
        self.dt_list = [_number("dt_list", v) for v in items]
        if self.out is not None and not _is_path(self.out):
            raise InputError(f"out must be a non-empty path, got {self.out!r}")
        if self.command == "figure1":
            return
        # ranges, from floats and before any work: the convergence fit
        # needs two or more dt, strictly decreasing; every dt of the run
        # must leave the walk window (at least 2 t/dt sites) and the
        # initial state within the ring budget; the weak limit and the
        # convergence fit need at least one walk step
        if self.command == "compare":
            if len(self.dt_list) < 2:
                raise InputError("compare needs --dt-list with at least two "
                                 "values")
            if any(b >= a for a, b in zip(self.dt_list, self.dt_list[1:])):
                raise InputError("--dt-list must be strictly decreasing")
        for dt in self.dt_list if self.command == "compare" else [self.dt]:
            init = WalkInitConfig(nu=self.nu, dt=dt)
            require_ring_fits(2.0 * self.t / dt)
            if self.command in ("asymptotic", "compare") \
                    and round(self.t / dt) < 1:
                raise InputError(f"{self.command} needs at least one walk "
                                 f"step; t = {self.t:g} at dt = {dt:g} "
                                 "gives none")
            require_initial_state_fits(init)


def _is_path(val) -> bool:
    """Whether ``val`` is non-empty text the OS takes as a path."""
    try:
        raw = os.fsencode(val)
    except (TypeError, ValueError):  # not text; a lone surrogate
        return False
    return raw != b"" and b"\0" not in raw


def _load_config(path, command: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    # a ValueError: not UTF-8 or JSON, an int of over 4300 digits, a NUL
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config {path!r} must hold a JSON object, got "
                         f"{json.dumps(data)[:40]}")
    keys = _COMMANDS[command][1]
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise InputError(f"{command} reads no config key {unknown} (it "
                         f"reads {', '.join(keys)})")
    return data


def _resolve(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config:
        for key, val in _load_config(args.config, args.command).items():
            setattr(cfg, key, val)
    for key in _COMMANDS[args.command][1]:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
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
        # a constant: the packet's helicity
        "branch": "plus",
    }


def _initial_state(cfg: RunConfig):
    return build_initial_state(WalkInitConfig(nu=cfg.nu, dt=cfg.dt))


def _density_table(state, meta) -> ResultTable:
    table = ResultTable(columns=["site", "x", "prob"], metadata=meta)
    prob = position_distribution(state)
    table.add_columns(state.sites, state.x, prob)
    table.metadata["prob_total"] = float(prob.sum())
    return table


def cmd_walk(cfg: RunConfig) -> ResultTable:
    """evolve the lattice walk and emit the position density"""
    state = _initial_state(cfg)
    final = evolve(state, cfg.n_steps)
    table = _density_table(final, _echo(cfg))
    table.metadata["norm_drift_max"] = float(final.norm_drift.max()) \
        if final.norm_drift.size else 0.0
    return table


def cmd_exact(cfg: RunConfig) -> ResultTable:
    """evolve with the exact propagator on the same lattice"""
    state = _initial_state(cfg)
    final = evolve_exact_on_lattice(state, cfg.t_realized)
    return _density_table(final, _echo(cfg))


def cmd_compare(cfg: RunConfig) -> ResultTable:
    """walk-vs-exact distances over a list of dt values"""
    meta = _echo(cfg)
    for key in ("dt", "n_steps", "t_realized"):
        meta.pop(key, None)
    table = ResultTable(
        columns=["dt", "n_steps", "t_realized", "l1", "l2", "sup", "leakage"],
        metadata=meta,
    )
    rows = []
    for dt in cfg.dt_list:
        sub = RunConfig(command="walk", nu=cfg.nu, dt=dt, t=cfg.t)
        state = _initial_state(sub)
        walked = evolve(state, sub.n_steps)
        exact = evolve_exact_on_lattice(state, sub.t_realized)
        rep = compare_densities(walked, exact)
        rows.append((dt, sub.n_steps, sub.t_realized, rep.l1, rep.l2,
                     rep.sup, energy_leakage(walked)))
    dt, n_steps, t_realized, l1, l2, sup, leakage = map(np.array, zip(*rows))
    table.add_columns(dt, n_steps, t_realized, l1, l2, sup, leakage)
    order = np.polyfit(np.log(dt), np.log(l1), 1)[0]
    table.metadata["l1_order_fit"] = float(order)
    return table


def _horn_from_histogram(y, smooth, side: int) -> float:
    """Peak of the smoothed histogram on one side of the origin."""
    mask = (side * y > 0.1) & (np.abs(y) < 1.0)
    if not mask.any():
        return float("nan")
    return float(y[mask][np.argmax(smooth[mask])])


def cmd_asymptotic(cfg: RunConfig) -> ResultTable:
    """scaled-position histogram against the limit density"""
    n = cfg.n_steps
    if n < 1000:
        warnings.warn(f"n = {n} < 1000 steps; the scaled distribution is "
                      "far from its limit")
    state = _initial_state(cfg)
    final = evolve(state, n)
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
        moment = empirical_moment(final.x, prob, k)
        meta[f"moment{k}_empirical"] = moment / (n * cfg.dt) ** k
        meta[f"moment{k}_limit"] = limit_moment(k, cfg.nu)
    meta["horn_analytic"] = horn_location(cfg.nu)
    smooth = np.convolve(prob, np.ones(_HORN_BOXCAR) / _HORN_BOXCAR,
                         mode="same")
    meta["horn_empirical_right"] = _horn_from_histogram(y, smooth, +1)
    meta["horn_empirical_left"] = -_horn_from_histogram(y, smooth, -1)
    return table


def cmd_figure1(cfg: RunConfig) -> ResultTable:
    """emit the closed-form density curves (CSV + SVG)"""
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
    if cfg.out is None:
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
        raise InputError(f"cannot write output: {exc}") from exc
    return written


# the flag of each input; a command takes the inputs of its row below
_FLAGS = {
    "nu": dict(type=float, help="localization parameter"),
    "dt": dict(type=float, help="time step = lattice spacing"),
    "t": dict(type=float, help="total evolution time"),
    "dt_list": dict(help="comma-separated, strictly decreasing dt values"),
    "out": dict(help="output path (CSV; figure1 also SVG)"),
}
_RUN = ("nu", "dt", "t", "out")

# command: (its function, whose docstring is its help, and the inputs it
# reads, as flags and as --config keys); any other is a usage error
_COMMANDS = {
    "walk": (cmd_walk, _RUN),
    "exact": (cmd_exact, _RUN),
    "compare": (cmd_compare, ("nu", "t", "dt_list", "out")),
    "asymptotic": (cmd_asymptotic, _RUN),
    "figure1": (cmd_figure1, ("out",)),
}


def build_parser() -> _Parser:
    # no abbreviations: compare would read --dt as --dt-list
    parser = _Parser(prog="diracwalk", allow_abbrev=False,
                     description="Dirac wavepackets as a quantum walk")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override)")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           **_FLAGS[key])
    return parser


_PARSER = build_parser()  # each parse gives a fresh Namespace


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    print(f"warning: {message}", file=sys.stderr)


@functools.cache
def _keep_freed_pages() -> bool:
    """Pin glibc's mmap and trim thresholds (``_MALLOPT``) for the rest of
    the process, once; return whether glibc took both.

    Under glibc's dynamic policy the MB-sized rings of every route are
    mapped and unmapped, or trimmed, between calls, and each reuse faults
    their pages in again; with the thresholds pinned the process keeps the
    pages it frees.  Off glibc, or if the lookup or a call fails, nothing
    is set.  Allocation never changes a computed value, so outputs keep
    their bytes either way.  ``main`` calls it, never an import: the
    policy belongs to the program's process, not to the library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in _MALLOPT)


def main(argv=None) -> int:
    started = time.perf_counter()
    _keep_freed_pages()
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:
            raise InputError(f"{args.command} takes no {' '.join(extra)}")
        cfg = _resolve(args)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning
            table = _COMMANDS[cfg.command][0](cfg)
        written = _write_outputs(cfg, table)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalHealthError as exc:
        print(f"numerical-health failure: {exc}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - started
    summary = ", ".join(f"{k}={v}" for k, v in list(table.metadata.items())[2:])
    print(f"{cfg.command}: {summary}")
    for path in written:
        print(f"wrote {path}")
    print(f"done in {elapsed:.2f}s ({table.n_rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
