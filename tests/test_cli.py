import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracwalk
from diracwalk import cli
from diracwalk.cli import _PARSER, _load_config, main
from diracwalk.constants import MAX_RING_SITES, InputError
from oracles import read_csv


def run_cli(*args):
    return main(list(args))


def test_walk_emits_normalized_density(tmp_path):
    out = tmp_path / "walk.csv"
    assert run_cli("walk", "--nu", "2.5", "--dt", "0.05", "--t", "2",
                   "--out", str(out)) == 0
    meta, cols, rows = read_csv(out)
    assert cols == ["site", "x", "prob"]
    assert abs(rows[:, 2].sum() - 1.0) < 1e-9
    assert meta["command"] == "walk"
    assert int(meta["n_steps"]) == 40
    assert float(meta["t_realized"]) == pytest.approx(2.0)


def test_walk_time_zero_echoes_initial(tmp_path):
    out = tmp_path / "w0.csv"
    assert run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0",
                   "--out", str(out)) == 0
    meta, _, rows = read_csv(out)
    assert int(meta["n_steps"]) == 0
    assert abs(rows[:, 2].sum() - 1.0) < 1e-12


def test_walk_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "1", "--out", str(a))
    run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_exact_time_zero_and_reversal(tmp_path):
    zero = tmp_path / "e0.csv"
    walk0 = tmp_path / "w0.csv"
    run_cli("exact", "--nu", "2.0", "--dt", "0.05", "--t", "0",
            "--out", str(zero))
    run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0",
            "--out", str(walk0))
    _, _, re = read_csv(zero)
    _, _, rw = read_csv(walk0)
    # the t=0 exact density echoes the same initial state (wider window)
    pe = {int(s): p for s, _, p in re}
    pw = {int(s): p for s, _, p in rw}
    for site, p in pw.items():
        assert pe.get(site, 0.0) == pytest.approx(p, abs=1e-12)
    assert sum(pe.values()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("command", ["walk", "exact"])
def test_negative_zero_time_is_time_zero(tmp_path, command):
    # -0 and 0 are one config: the same bytes from a flag or a JSON -0.0
    (tmp_path / "cfg.json").write_text('{"t": -0.0}')
    runs = {"zero": ("--t", "0"), "flag": ("--t", "-0"),
            "json": ("--config", str(tmp_path / "cfg.json"))}
    for name, args in runs.items():
        assert run_cli(command, "--nu", "2", "--dt", "0.1", *args,
                       "--out", str(tmp_path / f"{name}.csv")) == 0
    zero = (tmp_path / "zero.csv").read_bytes()
    assert b"# t_requested = 0\n" in zero
    for name in ("flag", "json"):
        assert (tmp_path / f"{name}.csv").read_bytes() == zero, name


def test_exact_two_horned_density(tmp_path):
    out = tmp_path / "exact.csv"
    assert run_cli("exact", "--nu", "2.5", "--dt", "0.01", "--t", "50",
                   "--out", str(out)) == 0
    _, _, rows = read_csv(out)
    x, prob = rows[:, 1], rows[:, 2]
    y = x / 50.0
    kernel = np.ones(41) / 41
    smooth = np.convolve(prob, kernel, mode="same")
    right = (y > 0.1) & (y < 1.0)
    peak = y[right][np.argmax(smooth[right])]
    assert peak == pytest.approx(np.sqrt(1 - 2 / (3 * 2.5 ** 2)), abs=0.02)


def test_compare_convergence_table(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", "--nu", "1", "--t", "1",
                   "--dt-list", "0.04,0.02,0.01", "--out", str(out)) == 0
    meta, cols, rows = read_csv(out)
    assert cols == ["dt", "n_steps", "t_realized", "l1", "l2", "sup", "leakage"]
    l1 = rows[:, 3]
    assert l1[0] > l1[1] > l1[2] > 0.0
    assert 0.5 < float(meta["l1_order_fit"]) < 1.5


def test_compare_rejects_bad_dt_list(tmp_path, capsys, monkeypatch):
    # refused by the config check, before any state is built
    monkeypatch.setattr(cli, "build_initial_state", None)
    out = tmp_path / "conv.csv"
    for dt_list, message in (
            ("0.01,0.02", "--dt-list must be strictly decreasing"),
            ("0.02,0.02", "--dt-list must be strictly decreasing"),
            ("0.01", "compare needs --dt-list with at least two values")):
        assert run_cli("compare", "--nu", "1", "--t", "1", "--dt-list",
                       dt_list, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()
        with pytest.raises(InputError, match=message):
            cli.RunConfig(command="compare", nu=1.0, t=1.0,
                          dt_list=dt_list).validate()


def test_asymptotic_metadata(tmp_path):
    out = tmp_path / "asym.csv"
    assert run_cli("asymptotic", "--nu", "2.0", "--dt", "0.02", "--t", "25",
                   "--out", str(out)) == 0
    meta, cols, rows = read_csv(out)
    assert cols == ["y", "prob", "empirical_density", "limit_density"]
    assert float(meta["l1_distance"]) < 0.05
    assert abs(float(meta["moment1_empirical"])) < 0.01
    m2e, m2l = float(meta["moment2_empirical"]), float(meta["moment2_limit"])
    assert m2e == pytest.approx(m2l, rel=0.02)
    assert float(meta["horn_empirical_right"]) == pytest.approx(
        float(meta["horn_analytic"]), abs=0.02)


def test_figure1_outputs(tmp_path):
    out = tmp_path / "fig.svg"
    assert run_cli("figure1", "--out", str(out)) == 0
    csv_path = tmp_path / "fig.csv"
    assert out.exists() and csv_path.exists()
    svg = out.read_text()
    assert svg.count("<polyline") == 3 and "F(y)" in svg

    meta, cols, rows = read_csv(csv_path)
    assert cols == ["y", "F_nu_1.9", "F_nu_2.5", "F_nu_2.9"]
    assert rows.shape[0] >= 400
    y = rows[:, 0]
    # each curve integrates to 1 (trapezoid + tiny analytic tail)
    for j in (1, 2, 3):
        assert np.trapezoid(rows[:, j], y) == pytest.approx(1.0, abs=1e-6)
    # peak values 1/(nu sqrt(pi))
    mid = np.argmin(np.abs(y))
    for j, f0 in ((1, 0.2970), (2, 0.2257), (3, 0.1946)):
        assert rows[mid, j] == pytest.approx(f0, abs=1e-4)
    # sharper localization dominates near the edges
    near = np.argmin(np.abs(y - 0.94))
    assert rows[near, 3] > rows[near, 1]


def test_figure1_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli("figure1", "--out", str(a))
    run_cli("figure1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ("walk", "--nu", "2.0", "--dt", "0.05", "--t", "1"),
    ("exact", "--nu", "2.0", "--dt", "0.05", "--t", "1"),
    ("asymptotic", "--nu", "2.0", "--dt", "0.05", "--t", "1"),
    ("figure1",),
    ("compare", "--nu", "1", "--t", "0.5", "--dt-list", "0.05,0.025"),
], ids=lambda args: args[0])
def test_summary_row_count_matches_csv(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert run_cli(*args, "--out", str(out)) == 0
    done = capsys.readouterr().out.splitlines()[-1]
    n_rows = int(re.fullmatch(r"done in \S+s \((\d+) rows\)", done).group(1))
    data = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert n_rows == len(data) > 0


def test_shared_parser_keeps_no_flags_between_calls():
    first = _PARSER.parse_args(["walk", "--nu", "2", "--t", "3"])
    second = _PARSER.parse_args(["exact"])
    assert (first.nu, first.t) == (2.0, 3.0)
    assert second.command == "exact" and second is not first
    assert (second.nu, second.t, second.dt) == (None, None, None)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 2.0, "dt": 0.05, "t": 1.0}))
    out = tmp_path / "out.csv"
    assert run_cli("walk", "--config", str(cfg), "--t", "0.5",
                   "--out", str(out)) == 0
    meta, _, _ = read_csv(out)
    assert float(meta["nu"]) == 2.0
    assert float(meta["t_requested"]) == 0.5  # flag wins over file


def test_config_file_unknown_key():
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"step_count": 5}, fh)
        path = fh.name
    try:
        assert run_cli("walk", "--config", path) == 1
    finally:
        os.unlink(path)


@pytest.mark.parametrize("top", [[], ["nu"], None, 5, "nu"],
                         ids=["empty-list", "list", "null", "number",
                              "string"])
def test_config_not_an_object_exits_one(tmp_path, capsys, top):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(top))
    assert run_cli("walk", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err and "JSON object" in err


def test_usage_errors_exit_one(capsys):
    assert run_cli("walk", "--nu", "-1", "--dt", "0.05", "--t", "1") == 1
    assert run_cli("walk", "--branch", "sideways") == 1
    capsys.readouterr()
    assert run_cli("walk", "--window-rel", "1e-6") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1
    capsys.readouterr()
    # no walk step: refused from the config, before any warning or work
    for args in (("asymptotic", "--t", "0"),
                 ("asymptotic", "--dt", "0.01", "--t", "0.004"),
                 ("compare", "--nu", "1", "--t", "0",
                  "--dt-list", "0.02,0.01")):
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "warning:" not in err and "t = 0" in err and "dt = " in err


def test_numerical_health_exit_two():
    # dt too coarse for the packet's momentum cutoff -> aliasing -> exit 2
    assert run_cli("walk", "--nu", "2.5", "--dt", "0.3", "--t", "1") == 2


def run_traced(*args):
    """``main(args)`` under tracemalloc, its output captured: the exit
    status, the stderr text, the seconds taken and the peak bytes traced.
    A warning outside the one-line handler of a command's run raises."""
    err = io.StringIO()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(list(args))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return status, err.getvalue(), elapsed, peak


def assert_refused_before_allocating(*args):
    """Exit 1 with one stderr line and no traceback, fast and with little
    memory traced; returns the stderr line."""
    status, err, elapsed, peak = run_traced(*args)
    assert status == 1, (status, err)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert elapsed < 0.5
    assert peak < 16e6
    return err


@pytest.mark.parametrize("command", ["walk", "exact", "asymptotic"])
def test_over_budget_run_refused_before_allocating(command):
    # t = 1e9 needs a ring of 2e11 sites; the preflight refuses it
    err = assert_refused_before_allocating(command, "--t", "1e9")
    assert str(MAX_RING_SITES) in err
    assert re.search(r"ring of \d{12} sites", err)


@pytest.mark.parametrize("dt, sites", [("1e-6", 80_531_323)], ids=["grid"])
def test_over_budget_initial_state_refused_before_allocating(dt, sites):
    # nu 1, dt = 1e-6: the 80M-site window, which is its coefficients'
    # ring (2 ceil(40.27/dt) + 1 sites), is refused before it is built
    err = assert_refused_before_allocating("walk", "--nu", "1", "--dt", dt,
                                           "--t", "0")
    assert str(MAX_RING_SITES) in err
    assert f"ring of {sites} sites" in err


@pytest.mark.parametrize("args", [
    ("walk", "--nu", "1e300", "--dt", "0.01", "--t", "1"),
    ("compare", "--nu", "1", "--t", "2", "--dt-list", "0.02,1e-300"),
    ("walk", "--t", "1e300"),
    ("asymptotic", "--dt", "1e-9", "--t", "1e308"),
    ("exact", "--nu", "1e-300"),
    ("walk", "--dt", "5e-324"),
    ("walk", "--dt", "5e-324", "--t", "0"),
    ("walk", "--nu", "1.7976931348623157e308", "--dt", "1"),
    ("walk", "--nu", "1e-308", "--dt", "1"),
    ("exact", "--nu", "5e-324", "--dt", "5e-324", "--t", "5e-324"),
], ids=["huge-nu", "tiny-dt-in-list", "huge-t", "t-over-dt-overflows",
        "tiny-nu", "subnormal-dt", "subnormal-dt-at-t0", "largest-nu",
        "extent-overflows", "subnormal-nu"])
def test_extreme_inputs_refused_before_allocating(args):
    # each would overflow a float or an int conversion; the config's
    # range check refuses it against the ring budget first
    err = assert_refused_before_allocating(*args)
    assert str(MAX_RING_SITES) in err
    assert err.startswith("usage error: ")


def test_warning_prints_as_one_line(capsys):
    # dt * E0 = 0.53: the build warns, and the run still succeeds
    assert run_cli("walk", "--nu", "0.5", "--dt", "0.5", "--t", "1") == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: dt*E0 = 0.529 is not small")


def test_short_asymptotic_run_warns_in_one_line(capsys):
    # n = 200 < 1000: a warning like every other, and the run succeeds
    assert run_cli("asymptotic", "--nu", "2.5", "--dt", "0.005",
                   "--t", "1") == 0
    assert capsys.readouterr().err == (
        "warning: n = 200 < 1000 steps; the scaled distribution is far "
        "from its limit\n")
    cfg = cli.RunConfig(command="asymptotic", nu=2.5, dt=0.005, t=1.0)
    cfg.validate()
    with pytest.warns(UserWarning, match=r"^n = 200 < 1000 steps; "):
        cli.cmd_asymptotic(cfg)


def test_empty_output_path_exits_one(tmp_path, capsys):
    # as a flag or a config key: refused, where it ran and wrote nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": ""}))
    for args in (("walk", "--out", ""), ("figure1", "--out", ""),
                 ("figure1", "--config", str(cfg))):
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == \
            "usage error: out must be a non-empty path, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_unwritable_output_path(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0.5",
                   "--out", str(missing)) == 1


def test_out_dev_null_exits_zero():
    # not a regular file: written to, never truncated
    assert run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0.5",
                   "--out", os.devnull) == 0


def test_outputs_over_longer_files_match_fresh_writes(tmp_path):
    walk = ("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0.5")
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert run_cli(*walk, "--out", str(fresh)) == 0
    # the exact density has a wider window, so this file is longer
    assert run_cli("exact", *walk[1:], "--out", str(reused)) == 0
    assert reused.stat().st_size > fresh.stat().st_size
    assert run_cli(*walk, "--out", str(reused)) == 0
    assert reused.read_bytes() == fresh.read_bytes()

    assert run_cli("figure1", "--out", str(tmp_path / "fresh.svg")) == 0
    for suffix in ("svg", "csv"):
        stale = (tmp_path / f"fresh.{suffix}").read_bytes()
        (tmp_path / f"reused.{suffix}").write_bytes(stale + stale)
    assert run_cli("figure1", "--out", str(tmp_path / "reused.svg")) == 0
    for suffix in ("svg", "csv"):
        assert (tmp_path / f"reused.{suffix}").read_bytes() == \
            (tmp_path / f"fresh.{suffix}").read_bytes()


# sha256 of the outputs of the README commands, at the README's t and, as
# the numpy-only CI job runs them, at small t.  A change that means to
# move output bytes updates these; any other change must leave them as
# they are.  They rest on numpy's float64 routines, whose SIMD paths
# round an exp or a sin differently: every CSV has one pin per dispatch
# level of numpy's x86-64 wheels (``numpy_dispatch``), both taken with
# numpy 2.4.6.  figure1.svg prints two decimals and is the same on both.
README_RUNS = [
    ("walk", "--nu", "2.5", "--dt", "0.005", "--t", "50", "--out",
     "walk.csv"),
    ("exact", "--nu", "2.5", "--dt", "0.005", "--t", "50", "--out",
     "exact.csv"),
    ("compare", "--nu", "1", "--t", "2", "--dt-list", "0.02,0.01,0.005",
     "--out", "conv.csv"),
    ("asymptotic", "--nu", "2.5", "--dt", "0.005", "--t", "50", "--out",
     "asym.csv"),
    ("figure1", "--out", "figure1.svg"),  # writes figure1.csv too
    ("exact", "--nu", "10", "--dt", "0.002", "--t", "50", "--out",
     "exact_sharp.csv"),
]
SMALL_README_RUNS = [
    ("walk", "--nu", "2.5", "--dt", "0.005", "--t", "1", "--out", "walk.csv"),
    ("exact", "--nu", "2.5", "--dt", "0.005", "--t", "1", "--out",
     "exact.csv"),
    ("compare", "--nu", "1", "--t", "0.5", "--dt-list", "0.02,0.01,0.005",
     "--out", "conv.csv"),
    ("asymptotic", "--nu", "2.5", "--dt", "0.005", "--t", "5", "--out",
     "asym.csv"),
    ("figure1", "--out", "figure1.svg"),
]
_FIGURE1_SVG = \
    "5083d5d42a8371f6eb8b3d6f5722268b413056a8e3fe42e890428fad3282987a"
README_DIGESTS = {
    "X86_V4": {
        "walk.csv":
        "67d2b1ec6bb20fab54ad3a6a6de039b0f32a488d53dad7209b74c453820d9931",
        "exact.csv":
        "a3f23ee3735ba603a1efb4ea7a2f744c2a12b9887406ec3edc31c8b0d025e617",
        "conv.csv":
        "359e7f043adafce2fa14fb31fadbd0825a0a3a55384386318eb6906bfb6dd4ec",
        "asym.csv":
        "c7e9e4844b49f34513574d86369dceb8ed4c32c56f2537f32e550805a31c4acd",
        "figure1.csv":
        "0d3f7706bf6aa34ec8952e9471bc2b2d58735bdb9fd2bd2e0903aafba3a85c74",
        "exact_sharp.csv":
        "be48d4e9762b887a9b8838c9b8cae0efaf51268f42f88cbef5096a6ab9f09dde",
        "figure1.svg": _FIGURE1_SVG},
    "X86_V3": {
        "walk.csv":
        "7addfc3d9c6e4c055e9c82dce93b35989fe4ce04ac624572e4593411419adb5d",
        "exact.csv":
        "da15445c99e0620cd1869de2033dcaec76e881a15b465c4d2e49ab9acb1b50be",
        "conv.csv":
        "e9839799008e7f7d06b219fe394c2b0a227b62eed47c5938ce930631dccb3305",
        "asym.csv":
        "ba220bd2c4ebcc34cf6e6c40825e60d08d639a3dd3943c7480af3811063371b4",
        "figure1.csv":
        "d1cf26715856901ee691feb46c572e55f9a6cdd98e6ea9a3fee8cb9bc444f453",
        "exact_sharp.csv":
        "1c17ea2cc459f3af1a2990247cd54f7e79217fdc67fb8422003159daea0ae193",
        "figure1.svg": _FIGURE1_SVG},
}
SMALL_README_DIGESTS = {
    "X86_V4": {
        "walk.csv":
        "081404d769b5d73c278e7ff5f506513251a93bd0c2aabdabcb52e8987c112b49",
        "exact.csv":
        "669191002348ec748553d54352c30370823e1f0b9565b0ff72c144070291903b",
        "conv.csv":
        "5eedb0af86c70a4a738c299e599efdc4b0374246f241c44632b3bad4ccbca89d",
        "asym.csv":
        "a03bc5fb6caed9d89b29ffc744e18156d8e9f9dd0841647c37a00e9ba418e1ea",
        "figure1.csv":
        "0d3f7706bf6aa34ec8952e9471bc2b2d58735bdb9fd2bd2e0903aafba3a85c74",
        "figure1.svg": _FIGURE1_SVG},
    "X86_V3": {
        "walk.csv":
        "793c63676298493d95c5682c5467f1b4ca5d49667215ba36d94dce6e1e3da7e3",
        "exact.csv":
        "8031c58339ec20788d2a4ad8a824fbd721d06a55490972392ba6e69660a66ee3",
        "conv.csv":
        "87643b1e0c144a353432348ba915d6edd6f32ae9b720e68eb58dd29f7c4fca10",
        "asym.csv":
        "48a9af9926fa4d7687704ee869aac1a74f1bf5125727ad6f91227dfc079b22ba",
        "figure1.csv":
        "d1cf26715856901ee691feb46c572e55f9a6cdd98e6ea9a3fee8cb9bc444f453",
        "figure1.svg": _FIGURE1_SVG},
}
PINNED_NUMPY = "2.4.6"
# the X86_V4 host runs numpy's X86_V3 paths with these turned off
DISABLE_X86_V4 = "X86_V4 AVX512_ICL AVX512_SPR"


def numpy_dispatch() -> str | None:
    """The x86-64 level numpy dispatches its SIMD loops to in this
    process, X86_V4 or else X86_V3; None on any other CPU."""
    from numpy._core._multiarray_umath import __cpu_features__
    return next((level for level in ("X86_V4", "X86_V3")
                 if __cpu_features__.get(level)), None)


def assert_readme_digests(tmp_path, runs=SMALL_README_RUNS,
                          pins=SMALL_README_DIGESTS):
    level = numpy_dispatch()
    where = (f"numpy {np.__version__} dispatching to "
             f"{level or 'neither X86_V4 nor X86_V3'}; the pins are "
             f"numpy {PINNED_NUMPY}'s on {' and '.join(pins)}")
    assert level in pins, f"no byte pins for {where}"
    for *args, out in runs:
        assert run_cli(*args, str(tmp_path / out)) == 0
    digests = pins[level]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    moved = sorted(name for name in digests if got[name] != digests[name])
    assert not moved, f"{moved} moved their bytes under {where}"


def test_small_readme_outputs_keep_their_bytes(tmp_path):
    assert_readme_digests(tmp_path)


def test_readme_outputs_keep_their_bytes(tmp_path):
    assert_readme_digests(tmp_path, README_RUNS, README_DIGESTS)


@pytest.mark.skipif(numpy_dispatch() != "X86_V4",
                    reason="the X86_V3 pins are held here on X86_V4 hosts")
def test_readme_outputs_keep_their_x86_v3_bytes(tmp_path):
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import: a fresh
    # interpreter runs the same commands, both sets, on the X86_V3 paths
    code = ("import pathlib, sys, test_cli\n"
            "assert test_cli.numpy_dispatch() == 'X86_V3'\n"
            "path = pathlib.Path(sys.argv[1])\n"
            "test_cli.assert_readme_digests(path / 'small')\n"
            "test_cli.assert_readme_digests(path / 'full', "
            "test_cli.README_RUNS, test_cli.README_DIGESTS)")
    (tmp_path / "small").mkdir()
    (tmp_path / "full").mkdir()
    run_python(code, str(tmp_path), NPY_DISABLE_CPU_FEATURES=DISABLE_X86_V4)


def test_readme_digest_table_matches_the_pins():
    # the README's table of the first 8 hex digits, row by row
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        rows = re.findall(r"^\| `([^`]+)` \| ([0-9a-f]{8}) \| "
                          r"([0-9a-f]{8}) \|$", fh.read(), re.MULTILINE)
    assert {name: (v4, v3) for name, v4, v3 in rows} == {
        name: (README_DIGESTS["X86_V4"][name][:8],
               README_DIGESTS["X86_V3"][name][:8])
        for name in README_DIGESTS["X86_V4"]}
    assert len(rows) == len(README_DIGESTS["X86_V4"])


@pytest.mark.parametrize("command, t", [("walk", "1"), ("exact", "1"),
                                        ("asymptotic", "5")])
def test_rows_are_their_own_mirror(tmp_path, command, t):
    # the packet keeps the sigma2 parity, so the "minus" branch, the site
    # mirror, prints these rows: reversed, the positions (site, x or y)
    # are their negation bit for bit, and each density column, formed
    # from a+ alone, is itself cell for cell as text (limit_density reads
    # y^2 only)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--nu", "2.5", "--dt", "0.005", "--t", t,
                   "--out", str(out)) == 0
    meta, columns, rows = read_csv(out)
    assert meta["branch"] == "plus" and columns[0] in ("site", "y")
    assert len(rows) > 1
    for col, values in zip(columns, rows.T):
        if col in ("site", "x", "y"):
            assert np.array_equal(values[::-1], -values), col
        else:
            assert np.array_equal(values[::-1], values), col
    cells = [line.split(",")[columns.index("prob")]
             for line in out.read_text().splitlines()[len(meta) + 1:]]
    assert cells == cells[::-1]


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "diracwalk", "walk", "--nu", "2.0",
         "--dt", "0.05", "--t", "0.5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "done in" in proc.stdout


def run_python(code, *args, **env) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter on this
    diracwalk, with the test modules importable and ``env`` set."""
    src = os.path.dirname(os.path.dirname(diracwalk.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_imports_no_scipy():
    # the runtime needs numpy alone; scipy is a test-only oracle
    code = ("import sys, diracwalk.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code) == "[]"


GLIBC = pytest.mark.skipif(
    not (sys.platform.startswith("linux")
         and platform.libc_ver()[0] == "glibc"),
    reason="the allocator policy is glibc's mallopt")


@GLIBC
def test_main_pins_the_allocator_once_and_import_never():
    # a stand-in libc counts the mallopt calls: none on import, glibc's
    # M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at 64 MiB
    # on the first main, nothing on the second
    code = """if True:
        import contextlib, ctypes, io, types
        import numpy  # imported on the real ctypes
        calls = []
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)
        import diracwalk, diracwalk.cli
        counts = [len(calls)]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert diracwalk.cli.main(["figure1"]) == 0
            counts.append(len(calls))
        print(counts, calls)
    """
    assert run_python(code) == \
        "[0, 2, 2] [(-3, 33554432), (-1, 67108864)]"


def _no_mallopt(name):
    return types.SimpleNamespace()


def _cdll_raises(name):
    raise OSError("no such library")


def _mallopt_refuses(name):
    def mallopt(param, value):
        return 0
    return types.SimpleNamespace(mallopt=mallopt)


@pytest.fixture
def fresh_allocator_policy():
    cli._keep_freed_pages.cache_clear()
    yield
    cli._keep_freed_pages.cache_clear()


@pytest.mark.parametrize("cdll", [_no_mallopt, _cdll_raises,
                                  _mallopt_refuses, None])
def test_allocator_lookup_failure_changes_nothing(tmp_path, monkeypatch,
                                                  fresh_allocator_policy,
                                                  cdll):
    # no symbol, a lookup that raises, a call glibc refuses, or no glibc
    # (None: CS_GNU_LIBC_VERSION unknown): main sets nothing and writes
    # the pinned bytes
    if cdll is None:
        def confstr(name):
            raise ValueError("unrecognized configuration name")
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    else:
        monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert_readme_digests(tmp_path)
    assert cli._keep_freed_pages() is False


@GLIBC
def test_repeated_run_faults_no_pages():
    # a walk on a 15,435-site ring, run twice in one process: the second
    # run reuses the pages the first freed.  Under glibc's dynamic
    # thresholds the second run took 1,640 minor faults on an x86-64 Linux
    # host (glibc 2.36); with the thresholds pinned, 0 or 1
    code = """if True:
        import contextlib, io, os, resource
        from diracwalk import cli
        argv = ["walk", "--nu", "2.5", "--dt", "0.005", "--t", "10",
                "--out", os.devnull]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert cli.main(argv) == 0
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(cli._keep_freed_pages(), after - before)
    """
    pinned, faults = run_python(code).split()
    assert pinned == "True"
    assert int(faults) < 100


def test_config_numbers_as_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": "2.5", "dt": "0.05", "t": 0.5}))
    out = tmp_path / "out.csv"
    assert run_cli("walk", "--config", str(cfg), "--out", str(out)) == 0
    meta, _, _ = read_csv(out)
    assert float(meta["nu"]) == 2.5 and float(meta["dt"]) == 0.05


@pytest.mark.parametrize("dt_list", ["0.04,0.02", [0.04, 0.02]])
def test_config_dt_list_forms(tmp_path, dt_list):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 1.0, "t": 0.2, "dt_list": dt_list}))
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
    _, _, rows = read_csv(out)
    assert rows[:, 0].tolist() == [0.04, 0.02]


@pytest.mark.parametrize("bad", [
    {"nu": "abc"}, {"nu": [2.5]}, {"dt": None}, {"t": float("inf")},
    {"nu": float("nan")}, {"window_rel": "x"}, {"window_rel": 1.0},
    {"dt_list": 0.02}, {"dt_list": ["0.02", "a"]}, {"out": 3},
    {"branch": "sideways"}, {"branch": 3}, {"nu": True},
    {"dt_list": [0.04, True]},
])
def test_config_bad_values_exit_one(tmp_path, capsys, bad):
    # dt_list is compare's input, the others walk's: each bad value is
    # refused by its value check, window_rel and branch as keys walk does
    # not read
    command, base = ("compare", {"nu": 1.0, "t": 0.5}) if "dt_list" in bad \
        else ("walk", {"nu": 2.0, "dt": 0.05, "t": 0.5})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **bad}))
    assert run_cli(command, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert ("reads no config key" in err) == (
        "window_rel" in bad or "branch" in bad)
    # a JSON true is refused as such, not read as 1.0
    assert ("got True" in err) == ("True" in repr(bad))


@pytest.mark.parametrize("branch", ["sideways", 3])
def test_figure1_config_bad_branch_exits_one(tmp_path, capsys, branch):
    # figure1 reads no branch: the key is refused whatever its value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"branch": branch}))
    assert run_cli("figure1", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


# the inputs each command reads, as flags and as --config keys; --config
# itself is a flag of every command
READS = {
    "walk": {"nu", "dt", "t", "out"},
    "exact": {"nu", "dt", "t", "out"},
    "asymptotic": {"nu", "dt", "t", "out"},
    "compare": {"nu", "t", "dt_list", "out"},
    "figure1": {"out"},
}
# a run's inputs and another value of each that changes its output
BASE = {"nu": 2.0, "dt": 0.05, "t": 0.5, "dt_list": "0.04,0.02"}
OTHER = {"nu": 2.5, "dt": 0.04, "t": 0.4, "dt_list": "0.05,0.02"}


def subparser(command):
    action = next(a for a in _PARSER._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_takes_the_inputs_it_reads(tmp_path, command):
    flags = {s for a in subparser(command)._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--config"} | {
        "--" + key.replace("_", "-") for key in READS[command]}
    for key in ("nu", "dt", "t", "branch", "dt_list", "out", "config"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: OTHER.get(key, "x.csv")}))
        if key in READS[command]:
            assert set(_load_config(str(cfg), command)) == {key}
        else:
            with pytest.raises(InputError, match=rf"{command} .*'{key}'"):
                _load_config(str(cfg), command)


@pytest.mark.parametrize("command", sorted(set(READS) - {"figure1"}))
def test_every_input_a_command_takes_changes_its_output(tmp_path, command):
    def output(**changed):
        out = tmp_path / "out.csv"
        argv = [command, "--out", str(out)]
        for key in READS[command] - {"out"}:
            argv += ["--" + key.replace("_", "-"),
                     str({**BASE, **changed}[key])]
        assert run_cli(*argv) == 0
        return out.read_bytes()

    base = output()
    for key in READS[command] - {"out"}:
        assert output(**{key: OTHER[key]}) != base, key


@pytest.mark.parametrize("args, config", [
    (("compare", "--nu", "1", "--t", "0.5", "--dt-list", "0.04,0.02",
      "--dt", "0.5"), None),
    (("compare", "--nu", "1", "--t", "0.5", "--dt-list", "0.04,0.02",
      "--branch", "minus"), None),
    (("figure1",), {"nu": 2}),
    (("figure1",), {"t": -1}),
    (("walk", "--nu", "2", "--dt", "0.05", "--t", "0.5"),
     {"dt_list": [0.9, 0.1]}),
    (("walk", "--dt", "0.05", "--t", "0.5", "--n", "2"), None),
    (("walk", "--nu", "2", "--dt", "0.05", "--t", "0.5", "--branch",
      "minus"), None),
    (("exact", "--nu", "2", "--dt", "0.05", "--t", "0.5", "--branch",
      "plus"), None),
    (("asymptotic", "--nu", "2", "--dt", "0.05", "--t", "0.5"),
     {"branch": "minus"}),
], ids=["compare-dt", "compare-branch", "figure1-nu", "figure1-t",
        "walk-dt_list", "walk-abbreviated-flag", "walk-branch",
        "exact-branch", "asymptotic-branch"])
def test_inputs_a_command_does_not_read_exit_one(tmp_path, capsys, args,
                                                 config):
    out = tmp_path / "out.svg"
    argv = [*args, "--out", str(out)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err and args[0] in err
    assert (" ".join(args[-2:]) if config is None
            else repr(next(iter(config)))) in err
    assert [p.name for p in tmp_path.iterdir()] == \
        ([] if config is None else ["cfg.json"])


# extremes, and the small valid values that keep an accepted run short
# (t <= 2, dt >= 0.01)
FUZZ_NUMBERS = (1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                5e-324, 0, -0.0, "nan", "inf", "-inf", True, "", [], "0.3",
                None, 0.5, 1, 2, 0.02, 0.01)
FUZZ_DT_LISTS = ([], [0.02], [0.02, 0.01], [0.01, 0.02], [0.02, 0.02],
                 [0.02, 0.0], "0.02,0.01", "0.01,0.02", "", "0.02,,0.01",
                 [True, 0.01], ["0.02", "0.01"], [1e300, 1e-300], 0.02,
                 [0.02, "nan"], None)


@st.composite
def fuzz_runs(draw):
    """A command, its flags and its --config object, each input one of
    the command's own (its row of ``cli._COMMANDS``), t always set."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags, config = [], {}
    for key in cli._COMMANDS[command][1]:
        if key == "out":
            continue
        value = draw(st.sampled_from(
            FUZZ_DT_LISTS if key == "dt_list" else FUZZ_NUMBERS))
        where = draw(st.sampled_from(
            ("flag", "config") if key == "t" else ("flag", "config", None)))
        if where == "config":
            config[key] = value
        elif where == "flag":
            text = value if isinstance(value, str) else \
                ",".join(map(str, value)) if isinstance(value, list) else \
                json.dumps(value)
            flags += ["--" + key.replace("_", "-"), text]
    return command, flags, config, draw(st.sampled_from(
        ("file", "", "a\0b", "\ud800", None)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzz_runs())
def test_fuzzed_inputs_exit_by_cause(tmp_path_factory, run):
    # any mix of extremes ends in exit 0, 1 (one line, before any large
    # allocation) or 2; anything else raises here, with its traceback
    command, flags, config, out = run
    config = dict(config)
    tmp = tmp_path_factory.mktemp("fuzz")
    if out is not None:
        config["out"] = str(tmp / "out.csv") if out == "file" else out
    argv = [command, *flags]
    if config:
        (tmp / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp / "cfg.json")]
    status, err, elapsed, peak = run_traced(*argv)
    assert status in (0, 1, 2) and "Traceback" not in err, (status, err)
    if status == 1:
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert elapsed < 0.5 and peak < 16e6, (elapsed, peak)


@pytest.mark.parametrize("config, args", [
    (b"\xff", ()),
    (b'{"nu": ' + b"1" * 5000 + b"}", ()),
    (b"[" * 100_000, ()),
    (b'{"out": "a\\u0000b"}', ()),
    (b'{"out": "\\ud800"}', ()),
    (None, ("--out", "a\0b")),
    (None, ("--out", "\ud800")),
    (None, ("--config", "a\0b")),
    (None, ("--config", "a\nb")),
], ids=["not-utf8", "int-of-5000-digits", "nested-too-deep", "nul-in-out",
        "surrogate-in-out", "nul-out-flag", "surrogate-out-flag",
        "nul-config-flag", "newline-config-flag"])
def test_unreadable_config_or_unusable_path_exits_one(tmp_path, config, args):
    # Python reads each as a ValueError (or, nested, a RecursionError):
    # the config loader and the path check refuse them before the run, in
    # one line whatever the path holds
    argv = ["walk", "--nu", "2", "--dt", "0.05", "--t", "0.5", *args]
    if config is not None:
        (tmp_path / "cfg.json").write_bytes(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert_refused_before_allocating(*argv)
    assert [p.name for p in tmp_path.iterdir()] == \
        ([] if config is None else ["cfg.json"])
