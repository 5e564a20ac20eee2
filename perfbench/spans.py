"""In-memory span recording around the package's layer boundaries.

A span has a name, a start, an end and the span that was open when it began
(its parent).  Calls that happen tens of thousands of times per operation
(``ResultTable.add_row``) are folded into one aggregate span per parent that
carries the call count and the summed busy time, so tracing them stays cheap.

The tracer patches names only inside the benchmark's own process:
the layer functions that ``diracwalk.cli`` imported, the ``ResultTable``
methods, and the benchmark's own table of public functions.  ``installed``
puts the originals back when it exits.
"""

import functools
import os
import time
from contextlib import contextmanager

from scipy.fft import next_fast_len

# computed, not measured: one read and one write of both complex128 spin
# components per site and step
BYTES_PER_SITE_STEP = 2 * 2 * 16


def _walk_attrs(args, kwargs, result):
    state = args[0]
    n = args[1] if len(args) > 1 else kwargs["n_steps"]
    drift = result.norm_drift
    return {"n_steps": n, "w0": state.n_sites,
            "drift_max": float(drift.max()) if drift is not None and drift.size
            else 0.0}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# public name -> (span name, attributes taken from the call and its result)
LAYER_FUNCTIONS = {
    "main": ("cli.main", None),
    "build_initial_state": ("initial.build",
                            lambda a, k, r: {"n_sites": r.n_sites}),
    "evolve": ("walk.evolve", _walk_attrs),
    "evolve_exact_on_lattice": (
        "exact.evolve",
        # the propagator's ring is the output window rounded up to a fast size
        lambda a, k, r: {"ring_len": next_fast_len(r.n_sites)}),
    "energy_leakage": ("exact.leakage", lambda a, k, r: {"leakage": r}),
    "compare_densities": ("exact.compare", None),
    "limit_density": ("asymptotic.closed_form", None),
    "limit_moment": ("asymptotic.closed_form", None),
    "limit_density_mass": ("asymptotic.closed_form", None),
    "spectral_coefficients": ("asymptotic.spectral_coefficients",
                              lambda a, k, r: {"n_phi": r.phi.size}),
    "limit_cdf": ("asymptotic.limit_cdf", None),
    "write_svg": ("svgplot.write_svg", None),
}


def duration(span) -> float:
    return span["busy"] if "count" in span else span["end"] - span["start"]


class Tracer:
    """Records spans; each is a dict with id, name, parent, start and end."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._aggregates = {}

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    def wrap_aggregate(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                parent = self._open[-1] if self._open else None
                rec = self._aggregates.get((parent, name))
                if rec is None:
                    rec = {"id": len(self.spans), "name": name,
                           "parent": parent, "start": start, "end": end,
                           "count": 0, "busy": 0.0}
                    self.spans.append(rec)
                    self._aggregates[(parent, name)] = rec
                rec["count"] += 1
                rec["busy"] += end - start
                rec["end"] = end
        return traced

    @contextmanager
    def installed(self, api):
        """Swap span-recording wrappers into ``diracwalk.cli``, the
        ``ResultTable`` class and ``api`` (the benchmark's own table of
        public functions) for the duration of the block."""
        from diracwalk import cli
        from diracwalk.table import ResultTable

        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for owner in (cli, api):
            for attr, (name, attrs) in LAYER_FUNCTIONS.items():
                if hasattr(owner, attr):
                    patch(owner, attr,
                          self.wrap(name, getattr(owner, attr), attrs))
        patch(ResultTable, "add_row",
              self.wrap_aggregate("table.add_row", ResultTable.add_row))
        patch(ResultTable, "write_csv",
              self.wrap("table.write_csv", ResultTable.write_csv, _csv_bytes))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def subtree(self, root_id):
        """The spans below ``root_id`` (spans are appended in start order,
        so a parent always precedes its children)."""
        inside = {root_id}
        out = []
        for rec in self.spans[root_id + 1:]:
            if rec["parent"] in inside:
                inside.add(rec["id"])
                out.append(rec)
        return out


def self_time(span, children) -> float:
    """The span's duration minus the part of it its children cover.

    Ordinary children cover their union of intervals; an aggregate child
    covers its summed busy time (its calls never overlap anything else in
    a single-threaded run)."""
    covered = sum(c["busy"] for c in children if "count" in c)
    reach = span["start"]
    for c in sorted((c for c in children if "count" not in c),
                    key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), c["end"]
        if hi > lo:
            covered += hi - lo
            reach = hi
    return duration(span) - covered


def check_tree(spans) -> list[str]:
    """Structural problems of a span list: a child that leaves its parent's
    interval, or self time plus child time that does not add up to a span's
    duration (which happens when siblings overlap)."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans:
        if s["end"] is None:
            problems.append(f"span {s['name']} never ended")
            continue
        parent = by_id.get(s["parent"])
        if parent is not None and not (
                parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            problems.append(f"{s['name']} is not inside {parent['name']}")
        kids = children[s["id"]]
        own = self_time(s, kids)
        total = own + sum(duration(c) for c in kids)
        if own < -1e-9 or abs(total - duration(s)) > 1e-9:
            problems.append(
                f"{s['name']}: self {own:.3e} s + children do not add up "
                f"to its duration {duration(s):.3e} s")
    return problems


def layer_values(tracer, root_id) -> dict:
    """Per-layer figures of one traced operation (or set-up) root."""
    spans = tracer.subtree(root_id)
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(duration(s) for s in named(name))

    def attr_values(name, key):
        return [s["attrs"][key] for s in named(name)]

    walks = named("walk.evolve")
    n_steps = sum(s["attrs"]["n_steps"] for s in walks)
    site_steps = sum(s["attrs"]["n_steps"] * s["attrs"]["w0"]
                     + s["attrs"]["n_steps"] * (s["attrs"]["n_steps"] - 1)
                     for s in walks)
    evolve_s = busy("walk.evolve")
    add_rows = named("table.add_row")
    return {
        "initial.build_s": busy("initial.build"),
        "initial.calls": len(named("initial.build")),
        "initial.n_sites": max(attr_values("initial.build", "n_sites"),
                               default=0),
        "walk.evolve_s": evolve_s,
        "walk.n_steps": n_steps,
        "walk.site_steps": site_steps,
        "walk.site_steps_per_s": site_steps / evolve_s if evolve_s else 0.0,
        "walk.bytes_computed": BYTES_PER_SITE_STEP * site_steps,
        "walk.norm_drift_max": max(attr_values("walk.evolve", "drift_max"),
                                   default=0.0),
        "exact.evolve_s": busy("exact.evolve"),
        "exact.ring_len": max(attr_values("exact.evolve", "ring_len"),
                              default=0),
        "exact.leakage_s": busy("exact.leakage"),
        "exact.compare_s": busy("exact.compare"),
        "exact.leakage": max(attr_values("exact.leakage", "leakage"),
                             default=0.0),
        "asymptotic.spectral_coefficients_s":
            busy("asymptotic.spectral_coefficients"),
        "asymptotic.n_phi": max(
            attr_values("asymptotic.spectral_coefficients", "n_phi"),
            default=0),
        "asymptotic.limit_cdf_s": busy("asymptotic.limit_cdf"),
        "asymptotic.limit_cdf_calls": len(named("asymptotic.limit_cdf")),
        "asymptotic.closed_form_s": busy("asymptotic.closed_form"),
        "table.add_row_s": busy("table.add_row"),
        "table.write_csv_s": busy("table.write_csv"),
        "table.rows": sum(s["count"] for s in add_rows),
        "table.csv_bytes": sum(attr_values("table.write_csv", "bytes")),
        "svgplot.write_svg_s": busy("svgplot.write_svg"),
        "cli.self_s": sum(self_time(s, kids.get(s["id"], []))
                          for s in named("cli.main")),
    }
