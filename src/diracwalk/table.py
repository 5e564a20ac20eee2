"""Deterministic tabular results with a diff-friendly CSV form.

Schema: leading '#' comment lines carry the metadata (resolved config echo
and code version), then a header row, then comma-separated values: ints
printed with ``%d`` and floats with ``%.17g`` (17 significant digits, so
doubles round-trip exactly).  Identical configs must produce byte-identical
files, so nothing time- or machine-dependent is ever written here.

Tables are columnar: ``add_columns`` takes whole 1-d arrays, checks them
once and keeps them as one block; ``add_row`` is a one-row block.  Each
block is written with a single %-format over all of its values.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# '%.17g' % x and format(x, '.17g') share CPython's double-to-string path
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}


@dataclass
class ResultTable:
    columns: list[str]
    metadata: dict = field(default_factory=dict)
    blocks: list[tuple[np.ndarray, ...]] = field(default_factory=list,
                                                  init=False, repr=False)

    def add_columns(self, *arrays) -> None:
        """Append one block of rows, given as one 1-d array per column.

        Every array must be int or float (not bool, complex or object),
        finite, and as long as the others.
        """
        if len(arrays) != len(self.columns):
            raise ValueError(
                f"got {len(arrays)} columns, expected {len(self.columns)}"
            )
        block = tuple(np.asarray(a) for a in arrays)
        for name, col in zip(self.columns, block):
            if col.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-d, "
                                 f"got shape {col.shape}")
            if col.dtype.kind not in _CELL_FORMATS:
                raise ValueError(f"column {name!r} must be int or float, "
                                 f"got dtype {col.dtype}")
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                raise ValueError(f"non-finite entry in column {name!r}")
        if len({col.size for col in block}) > 1:
            raise ValueError("columns differ in length: "
                             f"{[col.size for col in block]}")
        self.blocks.append(block)

    def add_row(self, *values) -> None:
        """Append one row, as a one-row block; each value keeps its type."""
        self.add_columns(*([v] for v in values))

    @property
    def n_rows(self) -> int:
        return sum(block[0].size for block in self.blocks)

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.concatenate([block[i] for block in self.blocks]) \
            if self.blocks else np.empty(0)

    def _chunks(self):
        """The CSV text: metadata and header, then one chunk per block."""
        lines = [f"# {key} = {fmt(val)}" for key, val in self.metadata.items()]
        lines.append(",".join(self.columns))
        yield "\n".join(lines) + "\n"
        for block in self.blocks:
            line = ",".join(_CELL_FORMATS[col.dtype.kind] for col in block)
            values = chain.from_iterable(zip(*(col.tolist() for col in block)))
            yield ((line + "\n") * block[0].size) % tuple(values)

    def to_csv(self) -> str:
        return "".join(self._chunks())

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(self._chunks())


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
