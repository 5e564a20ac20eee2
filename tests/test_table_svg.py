import numpy as np
import pytest

from diracwalk.svgplot import line_plot_svg
from diracwalk.table import ResultTable, fmt, read_csv


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
    # an add_row block keeps each value's type: -2 prints as an int
    rows = [(0.5, 1 / 7), (-2, 3.0)]
    table = ResultTable(columns=["x", "y"])
    for row in rows:
        table.add_row(*row)
    table.add_columns(np.array([1e-300, 2.0]), np.array([4, 5]))
    assert table.to_csv() == per_cell_csv(
        table, rows + [(1e-300, 4), (2.0, 5)])
    assert table.to_csv().splitlines()[2] == "-2,3"
    assert table.n_rows == 4


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
    bad_columns = {
        "nan": np.array([1.0, np.nan]), "inf": np.array([np.inf, 1.0]),
        "ragged": np.array([1.0]), "bool": np.array([True, False]),
        "complex": np.array([1j, 2.0]),
        "object": np.array([1.0, "a"], dtype=object),
        "2d": np.ones((2, 1)),
    }
    for bad in bad_columns.values():
        with pytest.raises(ValueError):
            table.add_columns(np.zeros(2), bad)
        with pytest.raises(ValueError):
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
