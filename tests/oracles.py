"""Slow reference implementations that the tests hold the fast paths to."""

from itertools import chain

from diracwalk.table import fmt

# '%.17g' % x and format(x, '.17g') share CPython's double-to-string path
CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}


def percent_csv(table) -> str:
    """The CSV text of ``table`` with every data cell formatted by CPython:
    each block of rows is one ``%`` over all of its values, ``%d`` for int
    columns and ``%.17g`` for float columns."""
    lines = [f"# {key} = {fmt(val)}" for key, val in table.metadata.items()]
    lines.append(",".join(table.columns))
    chunks = ["\n".join(lines) + "\n"]
    for block in table.blocks:
        line = ",".join(CELL_FORMATS[col.dtype.kind] for col in block)
        values = chain.from_iterable(zip(*(col.tolist() for col in block)))
        chunks.append(((line + "\n") * block[0].size) % tuple(values))
    return "".join(chunks)
