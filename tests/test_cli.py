import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import diracwalk
from diracwalk.cli import main
from diracwalk.constants import MAX_RING_SITES
from diracwalk.table import read_csv


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


def test_compare_rejects_bad_dt_list():
    assert run_cli("compare", "--nu", "1", "--t", "1",
                   "--dt-list", "0.01,0.02") == 1
    assert run_cli("compare", "--nu", "1", "--t", "1",
                   "--dt-list", "0.01") == 1


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


def test_usage_errors_exit_one(capsys):
    assert run_cli("walk", "--nu", "-1", "--dt", "0.05", "--t", "1") == 1
    assert run_cli("walk", "--branch", "sideways") == 1
    capsys.readouterr()
    assert run_cli("walk", "--window-rel", "1e-6") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1


def test_numerical_health_exit_two():
    # dt too coarse for the packet's momentum cutoff -> aliasing -> exit 2
    assert run_cli("walk", "--nu", "2.5", "--dt", "0.3", "--t", "1") == 2


def assert_refused_before_allocating(capsys, *args):
    """Exit 1 with one stderr line, fast and with little memory traced;
    returns the stderr line."""
    tracemalloc.start()
    started = time.perf_counter()
    try:
        assert run_cli(*args) == 1
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(MAX_RING_SITES) in err
    assert elapsed < 0.5
    assert peak < 16e6
    return err


@pytest.mark.parametrize("command", ["walk", "exact", "asymptotic"])
def test_over_budget_run_refused_before_allocating(capsys, command):
    # t = 1e9 needs a ring of 2e11 sites; the preflight refuses it
    err = assert_refused_before_allocating(capsys, command, "--t", "1e9")
    assert re.search(r"ring of \d{12} sites", err)


@pytest.mark.parametrize("dt, digits", [("5e-5", 7), ("1e-6", 9)],
                         ids=["ring", "grid"])
def test_over_budget_initial_state_refused_before_allocating(capsys, dt,
                                                             digits):
    # nu dt = 5e-5: the 1.6M-site grid fits, its 6.4M-site quadrature ring
    # does not; dt = 1e-6: the 80M-site grid is refused with its ring
    err = assert_refused_before_allocating(capsys, "walk", "--nu", "1",
                                           "--dt", dt, "--t", "0")
    assert re.search(rf"ring of \d{{{digits}}} sites", err)


@pytest.mark.parametrize("args", [
    ("walk", "--nu", "1e300", "--dt", "0.01", "--t", "1"),
    ("compare", "--nu", "1", "--t", "2", "--dt-list", "0.02,1e-300"),
    ("walk", "--t", "1e300"),
    ("asymptotic", "--dt", "1e-9", "--t", "1e308"),
    ("exact", "--nu", "1e-300"),
    ("walk", "--dt", "5e-324"),
    ("walk", "--dt", "5e-324", "--t", "0"),
], ids=["huge-nu", "tiny-dt-in-list", "huge-t", "t-over-dt-overflows",
        "tiny-nu", "subnormal-dt", "subnormal-dt-at-t0"])
def test_extreme_inputs_refused_before_allocating(capsys, args):
    # each would overflow a float or an int conversion; the config's
    # range check refuses it against the ring budget first
    err = assert_refused_before_allocating(capsys, *args)
    assert err.startswith("usage error: ")


def test_warning_prints_as_one_line(capsys):
    # dt * E0 = 0.53: the build warns, and the run still succeeds
    assert run_cli("walk", "--nu", "0.5", "--dt", "0.5", "--t", "1") == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: dt*E0 = 0.529 is not small")


def test_unwritable_output_path(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("walk", "--nu", "2.0", "--dt", "0.05", "--t", "0.5",
                   "--out", str(missing)) == 1


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


def test_cli_imports_no_scipy():
    # the runtime needs numpy alone; scipy is a test-only oracle
    code = ("import sys, diracwalk.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(diracwalk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    {"branch": "sideways"}, {"branch": 3},
])
def test_config_bad_values_exit_one(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 2.0, "dt": 0.05, "t": 0.5, **bad}))
    assert run_cli("walk", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
