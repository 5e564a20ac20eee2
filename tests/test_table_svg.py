import contextlib
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracwalk import cli, svgplot, table as table_module
from diracwalk.svgplot import line_plot_svg, write_svg
from diracwalk.table import ResultTable, fmt, join_2f, write_text
from oracles import (lookup_tables, per_point_polyline, percent_csv,
                     read_csv)


def test_fmt_round_trips_doubles():
    for v in (1 / 3, 1e-17, 123456.789012345678, -0.1):
        assert float(fmt(v)) == v


def per_cell_csv(table, rows):
    """The per-cell serializer the batched ``to_csv`` replaced: ``fmt`` on
    every value, one row at a time."""
    lines = [f"# {key} = {fmt(val)}" for key, val in table.metadata.items()]
    lines.append(",".join(table.columns))
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1 / 3, 0.1, 1e16, 1e17,
               -123456.789012345678]


def test_csv_matches_per_cell_oracle_on_edge_floats():
    x = np.array(EDGE_FLOATS)
    table = ResultTable(columns=["x", "neg"], metadata={"dt": 0.1})
    table.add_columns(x, -x)
    assert table.to_csv() == per_cell_csv(table, zip(x, -x))


def test_csv_matches_per_cell_oracle_on_int64_sites():
    sites = np.array([-(2 ** 62), -1, 0, 7, 2 ** 62], dtype=np.int64)
    x = sites * 0.25
    table = ResultTable(columns=["site", "x"])
    table.add_columns(sites, x)
    assert table.to_csv() == per_cell_csv(table, zip(sites, x))


def test_csv_matches_per_cell_oracle_on_mixed_rows():
    # -2 and 4 join float columns: %.17g of an int below 2^53 prints the
    # bytes %d prints
    rows = [(0.5, 1 / 7), (-2, 3.0)]
    table = ResultTable(columns=["x", "y"])
    for row in rows:
        table.add_row(*row)
    assert table.to_csv() == "x,y\n0.5,0.14285714285714285\n-2,3\n"
    table.add_columns(np.array([1e-300, 2.0]), np.array([4, 5]))
    assert [table.column(c).dtype for c in "xy"] == [np.float64] * 2
    assert table.to_csv() == per_cell_csv(
        table, rows + [(1e-300, 4), (2.0, 5)])
    assert table.to_csv().splitlines()[2] == "-2,3"
    assert table.n_rows == 4


def assert_matches_percent_oracle(*columns):
    """The kernel writes the bytes CPython's %d / %.17g write, cell by cell."""
    table = ResultTable(columns=[f"c{j}" for j in range(len(columns))])
    table.add_columns(*columns)
    got, want = table.to_csv(), percent_csv(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines())
               if g != w]
        pytest.fail(f"{len(bad)} rows differ from %-formatting: {bad[:3]}")


def test_kernel_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    # every biased exponent at least once, 0 being the subnormals
    exps = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    mant = rng.integers(1, 2 ** 52, size=exps.size, dtype=np.uint64)
    x = np.concatenate([bits, exps | mant]).view(np.float64)
    x = x[np.isfinite(x)]
    assert (np.abs(x) < np.finfo(np.float64).tiny).sum() > 10
    assert_matches_percent_oracle(x, -x)


def test_kernel_matches_percent_next_to_powers_of_ten():
    p = np.array([float(f"1e{j}") for j in range(-300, 301)])
    x = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
    assert_matches_percent_oracle(x, -x)


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_kernel_survives_a_log10_that_is_one_off(monkeypatch, direction):
    # next to a power of ten another numpy's log10 may round the other way,
    # so the exponent estimate is one off: those cells must fall back
    log10 = np.log10
    monkeypatch.setattr(np, "log10",
                        lambda a: np.nextafter(log10(a), direction))
    p = np.array([float(f"1e{j}") for j in range(-30, 31)])
    x = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
    assert_matches_percent_oracle(x, -x)


def exact_ties(rng):
    """Doubles M * 2**-e whose decimal expansion M * 5**e has 18 digits
    and ends in 5: exactly half way between two 17-digit numbers."""
    ties = []
    for e in range(2, 26):
        lo = -(-10 ** 17 // 5 ** e)
        hi = min(10 ** 18 // 5 ** e, 2 ** 53)
        ms = rng.integers(lo // 2, hi // 2, size=20) * 2 + 1
        ties += [int(m) / 2 ** e for m in ms if lo <= m < hi]
    return np.array(ties + [2.0 ** -25])


def test_kernel_matches_percent_on_rounding_ties():
    ties = exact_ties(np.random.default_rng(5))
    assert ties.size > 400
    for v in ties:
        digits = "%.40e" % v  # exact: the expansion has 18 digits
        assert digits[18] == "5" and set(digits[19:42]) == {"0"}, digits
    x = np.concatenate([ties, np.nextafter(ties, 0),
                        np.nextafter(ties, np.inf)])
    assert_matches_percent_oracle(x, -x)


SWITCH_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308,
                 # %g's fixed/exponent switch points
                 1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 1e17,
                 # next to a power of ten; the doubles 1e-14 and 1e-305 lie
                 # below theirs, and their 17 digits round up to it
                 99999999999999999.0, 9.999999999999999e22, 1e-14, 1e-305]


def test_kernel_matches_percent_at_switch_points():
    x = np.array(SWITCH_FLOATS)
    assert_matches_percent_oracle(x, -x)
    table = ResultTable(columns=["x"])
    table.add_columns(x[:4])
    assert table.to_csv() == ("x\n0\n-0\n4.9406564584124654e-324\n"
                              "1.7976931348623157e+308\n")


def test_kernel_matches_percent_on_int64():
    rng = np.random.default_rng(3)
    tens = np.array([10 ** j for j in range(19)], dtype=np.int64)
    edges = np.concatenate([tens, tens - 1, -tens, 1 - tens,
                            [-2 ** 63, 2 ** 63 - 1, 0]])
    ints = np.concatenate([
        edges, rng.integers(0, 2 ** 64, size=20_000,
                            dtype=np.uint64).view(np.int64)])
    assert_matches_percent_oracle(ints)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_kernel_matches_percent_on_any_float_column(values):
    x = np.array(values)
    assert_matches_percent_oracle(x, np.arange(x.size), x[::-1].copy())


@contextlib.contextmanager
def mirror_spy():
    """Record, per call of ``_mirror_signs``, whether the table mirrors."""
    found = []
    mirror_signs = table_module._mirror_signs

    def spy(*args):
        sign = mirror_signs(*args)
        found.append(sign is not None)
        return sign

    with mock.patch.object(table_module, "_mirror_signs", spy):
        yield found


def takes_mirror(*columns) -> bool:
    """Whether ``_format_rows`` takes the mirrored path for the columns,
    once their CSV is checked against the oracle."""
    table = ResultTable(columns=[f"c{j}" for j in range(len(columns))])
    table.add_columns(*columns)
    with mirror_spy() as found:
        assert table.to_csv() == percent_csv(table)
    assert len(found) == 1
    return found[0]


KIND_DTYPES = {"f": np.float64, "i": np.int64}
POSITIVE = {"f": st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False),
            "i": st.integers(1, 2 ** 63 - 1)}
ANY = {"f": st.floats(allow_nan=False, allow_infinity=False),
       "i": st.integers(-2 ** 63, 2 ** 63 - 1)}
# the cells an odd column cannot mirror: no sign flip prints their negation
ODD_SPOILERS = {"f": [0.0, -0.0, -1.5, -5e-324], "i": [0, -2 ** 63, -7]}


@st.composite
def near_mirrored_columns(draw):
    """1-3 columns of 2 * half + 1 rows, each even, odd or neither about
    its center row: floats (+-0.0, subnormals and huge values) or int64.
    An odd column may hold a cell that spoils its mirror, one ulp of one
    column may flip at the first row, the center or the last, and a row
    may be cut at either end.  Returns the columns and whether they must take
    the mirrored path."""
    half = draw(st.integers(0, 12))
    columns, mirrored = [], half > 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("fi"))
        parity = draw(st.sampled_from(["even", "odd", "none"]))
        dtype = KIND_DTYPES[kind]
        cells = POSITIVE[kind] if parity == "odd" else ANY[kind]
        after = np.array(draw(st.lists(cells, min_size=half,
                                       max_size=half)), dtype)
        if parity == "odd" and half and draw(st.booleans()):
            after[draw(st.integers(0, half - 1))] = draw(
                st.sampled_from(ODD_SPOILERS[kind]))
            mirrored = False
        if parity == "none":
            before = np.array(draw(st.lists(ANY[kind], min_size=half,
                                            max_size=half)), dtype)
            mirrored = False
        else:
            before = after[::-1] if parity == "even" else -after[::-1]
        center = np.array([draw(ANY[kind])], dtype)
        columns.append(np.concatenate([before, center, after]))
    flip = draw(st.sampled_from([None, "first", "center", "last"]))
    if flip is not None:
        row = {"first": 0, "center": half, "last": -1}[flip]
        bits = columns[draw(st.integers(0, len(columns) - 1))].view(
            np.uint64)
        bits[row] ^= np.uint64(1)
        mirrored &= flip == "center"
    cut = draw(st.sampled_from([None, "first", "last"]))
    if cut is not None:
        columns = [col[1:] if cut == "first" else col[:-1]
                   for col in columns]
        mirrored = False
    return columns, mirrored


@settings(max_examples=300, deadline=None)
@given(near_mirrored_columns())
def test_mirrored_rows_match_percent(drawn):
    columns, mirrored = drawn
    # a column drawn with no parity may still turn out even or odd
    assert takes_mirror(*columns) or not mirrored


@pytest.mark.parametrize("n", range(8))
def test_mirror_needs_an_odd_table_of_three_rows(n):
    site = np.arange(n) - n // 2
    x = site * 0.25
    assert takes_mirror(site, x, np.exp(-x * x)) == (n % 2 == 1 and n >= 3)


def test_mirror_crosses_chunks_from_the_far_end(monkeypatch):
    # 2 rows per kernel call: the 5 rows after the center take 3 chunks,
    # the one nearest the center a single row
    monkeypatch.setattr(table_module, "_CELLS_PER_CALL", 6)
    site = np.arange(-5, 6)
    assert takes_mirror(site, site * 1e-300, -np.abs(site) * 1.5)


# the README's density tables at small t: each mirrors about site 0
README_DENSITY_RUNS = [
    ("walk", "--nu", "2.5", "--dt", "0.005", "--t", "1"),
    ("exact", "--nu", "2.5", "--dt", "0.005", "--t", "1"),
    ("asymptotic", "--nu", "2.5", "--dt", "0.005", "--t", "5"),
    ("exact", "--nu", "10", "--dt", "0.002", "--t", "1"),
]


@pytest.mark.parametrize("args", README_DENSITY_RUNS, ids=" ".join)
def test_readme_tables_mirror_to_the_unmirrored_bytes(tmp_path, args):
    mirrored, plain = tmp_path / "mirrored.csv", tmp_path / "plain.csv"
    with mirror_spy() as found:
        assert cli.main([*args, "--out", str(mirrored)]) == 0
    assert found == [True]
    with mock.patch.object(table_module, "_mirror_signs",
                           lambda *_: None):
        assert cli.main([*args, "--out", str(plain)]) == 0
    assert mirrored.read_bytes() == plain.read_bytes()


def test_mirrored_write_keeps_text_not_words(tmp_path):
    # exact_sharp's 77,425 rows: one chunk's kernel buffers and the kept
    # half's text peak at 55.6 B/row (the unmirrored path at 43.0); a
    # kept half of cell words, 88 B per row, would add 44 B/row
    site = np.arange(-38712, 38713)
    x = site * 0.002
    table = ResultTable(columns=["site", "x", "prob"])
    table.add_columns(site, x, np.exp(-x * x))
    table.write_csv(tmp_path / "warm.csv")  # the lookup tables, once
    tracemalloc.start()
    try:
        table.write_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert takes_mirror(site, x, np.exp(-x * x))
    assert peak / table.n_rows < 75.0


def test_metadata_fmt_agrees_with_the_kernel():
    rng = np.random.default_rng(11)
    x = np.concatenate([SWITCH_FLOATS, EDGE_FLOATS,
                        rng.standard_normal(1000) * 10.0 ** rng.integers(
                            -30, 30, size=1000)])
    table = ResultTable(columns=["x"])
    table.add_columns(x)
    assert table.to_csv().splitlines()[1:] == [fmt(v) for v in x]


def test_blocks_of_any_shape_match_the_oracle():
    # a is float from its first, empty call and b once it is given a
    # float: every int in them prints as %.17g, 2^62 in the float form; c
    # is given ints alone and prints them as %d
    table = ResultTable(columns=["a", "b", "c"])
    table.add_columns(np.zeros(0), np.zeros(0, dtype=np.int64),
                      np.zeros(0, dtype=np.int64))
    assert table.to_csv() == "a,b,c\n"
    table.add_row(2 ** 62, 0.5, 2 ** 62)
    table.add_row(2.0 ** 62, 0.25, -1)
    table.add_row(-3, 7, 0)
    table.add_columns(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8))
    table.add_row(1 / 3, 1, 5)
    table.add_columns(np.array([1e-7, 2.0]), np.array([3, 4]),
                      np.array([6, 7], dtype=np.int32))
    assert [table.column(c).dtype for c in "abc"] == \
        [np.float64, np.float64, np.int64]
    assert table.to_csv() == percent_csv(table)
    assert table.to_csv().splitlines()[1:] == [
        "4.6116860184273879e+18,0.5,4611686018427387904",
        "4.6116860184273879e+18,0.25,-1", "-3,7,0",
        "0.33333333333333331,1,5", "9.9999999999999995e-08,3,6", "2,4,7"]


def test_column_reads_rows_and_blocks():
    table = ResultTable(columns=["a", "b"])
    table.add_row(1.0, 2)
    table.add_columns(np.array([3.0, 5.0]), np.array([4, 6]))
    table.add_row(7.0, 8)
    assert table.column("a").tolist() == [1.0, 3.0, 5.0, 7.0]
    assert table.column("b").tolist() == [2, 4, 6, 8]
    assert ResultTable(columns=["a"]).column("a").size == 0


def test_table_rejects_ragged_and_nonfinite_rows():
    table = ResultTable(columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1.0)
    with pytest.raises(ValueError):
        table.add_row(1.0, np.nan)
    with pytest.raises(ValueError, match="column 'b' must be a number"):
        table.add_row(1.0, 2 ** 64 - 1)
    bad_columns = {
        "nan": np.array([1.0, np.nan]), "inf": np.array([np.inf, 1.0]),
        "beyond float64": np.array(["1e400", "1"], dtype=np.longdouble),
        "ragged": np.array([1.0]), "bool": np.array([True, False]),
        "complex": np.array([1j, 2.0]),
        "object": np.array([1.0, "a"], dtype=object),
        "2d": np.ones((2, 1)),
        "uint64": np.array([2 ** 64 - 1, 0], dtype=np.uint64),
    }
    for bad in bad_columns.values():
        with pytest.raises(ValueError, match="'b'|length"):
            table.add_columns(np.zeros(2), bad)
        with pytest.raises(ValueError, match="'a'|length"):
            table.add_columns(bad, np.zeros(2))
    with pytest.raises(ValueError):
        table.add_columns(np.zeros(2))
    assert table.n_rows == 0 and table.to_csv() == "a,b\n"


def test_table_csv_round_trip(tmp_path):
    table = ResultTable(columns=["x", "y"], metadata={"command": "demo",
                                                      "dt": 0.1})
    table.add_row(0.5, 1 / 7)
    table.add_row(-2, 3.0)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    meta, cols, rows = read_csv(path)
    assert meta["command"] == "demo"
    assert float(meta["dt"]) == 0.1
    assert cols == ["x", "y"]
    assert rows[0, 1] == 1 / 7


def test_svg_is_deterministic_and_wellformed():
    x = np.linspace(0, 1, 50)
    curves = [(x, np.sin(x), "sin"), (x, x ** 2, "square")]
    doc1 = line_plot_svg(curves, "demo", "x", "y")
    doc2 = line_plot_svg(curves, "demo", "x", "y")
    assert doc1 == doc2
    assert doc1.startswith("<svg ") or doc1.startswith("<svg\n")
    assert doc1.count("<polyline") == 2
    assert doc1.rstrip().endswith("</svg>")
    import xml.etree.ElementTree as ET
    ET.fromstring(doc1)


def test_svg_of_a_curve_whose_tick_step_underflows():
    # a y span of one subnormal: span / 6 is 0, so there is one tick
    doc = line_plot_svg([(np.array([0.0]), np.array([5e-324]), "c0")],
                        "demo", "x", "y")
    assert doc.count("<polyline") == 1


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.copysign(np.inf, ulps)))
    return value


SVG_VALUES = st.floats(-1e3, 1e3)
# x within a few ulps of k/100 + 0.005: with the x range [0, 670] the
# viewport x is 70 + x, so its .2f rounding turns on the last bits
NEAR_TIES = st.builds(lambda k, ulps: _nudged(k / 100 + 0.005, ulps),
                      st.integers(0, 66999), st.integers(-2, 2))


@st.composite
def svg_curves(draw):
    """1-3 curves of 1-25 points: free values (negatives included), x
    near .xx5 ties, one x for all points (the x_hi == x_lo branch), or
    y all 0 (the y_hi == y_lo branch)."""
    kind = draw(st.sampled_from(["free", "near_tie", "flat_x", "zero_y"]))
    flat_x = draw(SVG_VALUES)
    curves = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2 if kind == "near_tie" else 1, 25))
        y = draw(st.lists(SVG_VALUES, min_size=n, max_size=n))
        if kind == "near_tie":
            x = [0.0, 670.0] + draw(st.lists(NEAR_TIES, min_size=n - 2,
                                             max_size=n - 2))
        elif kind == "flat_x":
            x = [flat_x] * n
        else:
            x = draw(st.lists(SVG_VALUES, min_size=n, max_size=n))
        if kind == "zero_y":
            y = [0.0] * n
        curves.append((np.array(x), np.array(y), f"c{i}"))
    return curves


@settings(max_examples=200, deadline=None)
@given(svg_curves())
def test_polyline_bytes_match_per_point_oracle(curves):
    doc = line_plot_svg(curves, "demo", "x", "y")
    with mock.patch.object(svgplot, "_polyline", per_point_polyline):
        want = line_plot_svg(curves, "demo", "x", "y")
    assert doc == want


def _identity(v):
    return v


# .2f cells with the text format(v, ".2f") gives them: binary ties round
# to even, negatives keep their sign at zero, 9999.995 is past the
# kernel's range and the rest are left to format
CELLS_2F = [(0.125, "0.12"), (0.375, "0.38"), (-0.125, "-0.12"),
            (-0.001, "-0.00"), (-0.0, "-0.00"),
            (0.0, "0.00"), (9999.995, "10000.00"), (9999.99, "9999.99"),
            (1e4, "10000.00"), (-1e4, "-10000.00"), (1e5, "100000.00"),
            (5e-324, "0.00"), (-5e-324, "-0.00"),
            (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")]


def test_2f_cells_print_as_format():
    values, texts = zip(*CELLS_2F)
    assert join_2f(values, " ").split(" ") == list(texts)
    assert [format(v, ".2f") for v in values] == list(texts)


def test_polyline_matches_per_point_oracle_on_2f_edges():
    # identity maps, so the cells are the values: k/8 (ties where k is
    # odd), +-2 ulps around k/100 + 0.005, the range edge and subnormals
    rng = np.random.default_rng(22)
    near = rng.integers(-10 ** 6, 10 ** 6, size=4000) / 100 + 0.005
    below, above = np.nextafter(near, -np.inf), np.nextafter(near, np.inf)
    steps = [near, below, np.nextafter(below, -np.inf),
             above, np.nextafter(above, np.inf)]
    tiny = np.finfo(np.float64).tiny
    edges = [c[0] for c in CELLS_2F] + [
        9999.995, np.nextafter(9999.995, 0), np.nextafter(1e4, 0),
        tiny, np.nextafter(tiny, 0), -tiny, 1e300, -1.7976931348623157e308]
    x = np.concatenate([np.arange(-80_001, 80_002) / 8, *steps, edges])
    y = -x[::-1]
    assert (svgplot._polyline(x, y, _identity, _identity)
            == per_point_polyline(x, y, _identity, _identity))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40))
def test_polyline_matches_per_point_oracle_on_any_float(free, ranged):
    x = np.array(free + ranged)
    y = x[::-1].copy()
    assert (svgplot._polyline(x, y, _identity, _identity)
            == per_point_polyline(x, y, _identity, _identity))


def test_figure1_svg_takes_no_per_cell_fallback(tmp_path, monkeypatch):
    # the bytes alone cannot tell the kernel from format on every cell
    calls = []

    def counted(v):
        calls.append(v)
        return format(v, ".2f")

    monkeypatch.setattr(table_module, "_cell_2f", counted)
    assert cli.main(["figure1", "--out", str(tmp_path / "f.svg")]) == 0
    assert (tmp_path / "f.svg").read_text().count("<polyline") == 3
    assert calls == []
    assert join_2f([1e4], " ") == "10000.00" and calls == [1e4]


# a stale file longer than anything written over it below
STALE = "stale row that must not survive the overwrite\n" * 4000


def small_table():
    table = ResultTable(columns=["x", "y"], metadata={"command": "demo"})
    table.add_row(0.5, 1 / 7)
    return table


def test_csv_over_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(STALE)
    table = small_table()
    table.write_csv(path)
    assert path.read_bytes() == table.to_csv().encode("ascii")


def test_svg_over_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    x = np.linspace(0, 1, 50)
    args = ([(x, np.sin(x), "sin")], "demo", "x", "y")
    doc = line_plot_svg(*args)
    path = tmp_path / "f.svg"
    path.write_text(STALE)
    assert path.stat().st_size > len(doc)
    write_svg(path, *args)
    assert path.read_bytes() == doc.encode("ascii")


def test_write_follows_symlink_and_keeps_it(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text(STALE)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    table = small_table()
    table.write_csv(link)
    assert link.is_symlink()
    assert target.read_bytes() == table.to_csv().encode("ascii")


def test_write_keeps_permission_bits(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(STALE)
    path.chmod(0o604)  # not what a new file gets under a usual umask
    table = small_table()
    table.write_csv(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    assert path.read_bytes() == table.to_csv().encode("ascii")


def test_failed_csv_write_leaves_an_empty_file(tmp_path):
    # the metadata chunk fails to encode, so nothing is written: the file
    # ends up empty, as it would had it not existed before
    path = tmp_path / "t.csv"
    path.write_text(STALE)
    table = ResultTable(columns=["x"], metadata={"label": "caf\u00e9"})
    table.add_row(1.0)
    with pytest.raises(UnicodeEncodeError):
        table.write_csv(path)
    assert path.read_bytes() == b""


def test_failed_write_keeps_no_bytes_beyond_those_written(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(STALE)
    with pytest.raises(UnicodeEncodeError):
        write_text(path, ["kept\n", "lost \u00e9\n", "never reached\n"])
    assert path.read_bytes() == b"kept\n"


def test_lookup_tables_match_their_byte_string_oracle():
    lut = table_module._Lookup()
    for name, want in lookup_tables().items():
        got = getattr(lut, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
