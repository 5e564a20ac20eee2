"""Deterministic tabular results with a diff-friendly CSV form.

Schema: leading '#' comment lines carry the metadata (resolved config echo
and code version), then a header row, then comma-separated values: ints
printed with ``%d`` and floats with ``%.17g`` (17 significant digits, so
doubles round-trip exactly).  Identical configs must produce byte-identical
files, so nothing time- or machine-dependent is ever written here.

Tables are columnar: ``add_columns`` takes whole 1-d arrays, each kept as
int64 or float64 and checked once; ``add_row`` is a one-row call.  Cells
are formatted by one numpy kernel, ``_format_rows``, which writes the same
bytes as ``%d`` and ``%.17g``: it derives the 17 digits of each double from
a double-double product and hands the few cells it cannot be sure of
(extreme exponents, near a rounding tie) to CPython's own ``%.16e``.

The same kernel has a third cell kind, ``format(v, ".2f")``, which
``join_2f`` writes for the SVG's viewport coordinates.
"""

import functools
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .constants import InputError, require_number


def _open_without_truncating(path, flags) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path, chunks) -> None:
    """Stream text chunks to ``path`` as ASCII with Unix line ends.

    An existing file is overwritten in place and then cut to the written
    length: opening without ``O_TRUNC`` and truncating at the end skips
    the stall that truncating a non-empty file to zero can cost on some
    filesystems.  Symlinks are written through and the file keeps its
    permission bits.  Non-regular targets (FIFO, ``/dev/null``, a tty)
    are written but not truncated.  The write is neither atomic nor
    fsync'd; if it fails partway, the file ends where the writing stopped.
    """
    with open(path, "w", encoding="ascii", newline="\n",
              opener=_open_without_truncating) as fh:
        try:
            fh.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # flushes, then cuts at the current position


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# one kernel call formats at most this many cells, which bounds its buffers
_CELLS_PER_CALL = 1 << 14

# the double-double route covers 10^-K_MAX <= |x| <= 10^K_MAX; its table of
# powers of ten has one row to spare at each end for a log10 that is one off
_K_MAX = 280
# the computed fraction is within ~1e-14 of the true one; a cell this close
# to a rounding tie takes the fallback
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double in two halves
_X_MIN, _X_MAX = -324, 308  # decimal exponents of finite doubles

# A cell is built as 64-bit words whose bytes are read little-endian, with
# NUL in every byte it does not use; the NULs are stripped at the end.
# - A float takes 4 words: the sign and a "0.000" prefix in the first, then
#   a 24-byte run of 17 digits with the '.' (bytes 0-17), the exponent
#   (18-22) and the separator (23).
# - An int takes 3 words, a 24-byte run: the sign (byte 0), 20 digits
#   (1-20) and the separator (21).
# - A .2f cell takes 2 words: the sign (byte 0), 4 digits (1-4), the '.'
#   (5) and 2 digits (6-7), then the separator (byte 0 of the second).
_FLOAT_WORDS, _INT_WORDS = 4, 3
_RUN = 24  # bytes in a 3-word run; as a byte position, past its end


class _Lookup:
    """The cell formatter's constant tables."""

    def __init__(self):
        # 10^s for s = 16 - k as hi + lo, both correctly rounded (CPython's
        # int / int is), and hi split in halves hh + hl for Dekker's product
        self.hi, self.lo = map(np.array, zip(
            *(_two_doubles(10 ** max(s, 0), 10 ** max(-s, 0))
              for s in range(15 - _K_MAX, 18 + _K_MAX))))
        c = self.hi * _SPLIT
        self.hh = c - (c - self.hi)
        self.hl = self.hi - self.hh
        # a 4-digit group as 4 ASCII bytes, and its trailing zeros
        g = np.arange(10000)
        self.ascii4 = sum((g // 10 ** (3 - j) % 10 + ord("0"))
                          .astype(np.uint64) << np.uint64(8 * j)
                          for j in range(4))
        self.zeros4 = sum((g % 10 ** j == 0).astype(np.int64)
                          for j in range(1, 5))
        self.int_pow10 = np.array([10 ** j for j in range(1, 20)], np.uint64)
        # per exponent X (row X - _X_MIN), what %g prints: fixed notation
        # for -4 <= X < 17, X + 1 digits before the '.', and for X < 0 a
        # "0." and -X - 1 zeros first; else d.ddd and an "e%+03d" exponent
        xs = range(_X_MIN, _X_MAX + 1)
        fixed = [-4 <= x < 17 for x in xs]
        self.n_int = np.array([x + 1 if f else 1 for x, f in zip(xs, fixed)])
        self.dot_at = np.where(self.n_int > 0, self.n_int, _RUN)
        self.prefix = _words([b"\0" + b"0." + b"0" * (-x - 1) if f and x < 0
                              else b"" for x, f in zip(xs, fixed)])
        self.exponent = _words([b"" if f else b"\0\0e%+03d" % x
                                for x, f in zip(xs, fixed)])
        # per word i of a run, and byte position b = 0.._RUN of the run:
        # the word's bytes below b; its bytes in [b1, b2), at column
        # b1 * (_RUN + 1) + b2; a '.' at byte b (none at _RUN)
        at = np.arange(_RUN + 1) - 8 * np.arange(3)[:, None]  # b - 8 i
        # numpy shifts a uint64 by 64 to 0: a whole word's mask is 0 - 1,
        # and a '.' past the word's end is 0
        shift = (8 * np.clip(at, 0, 8)).astype(np.uint64)
        below = (np.uint64(1) << shift) - np.uint64(1)
        self.below = below
        self.band = (below[:, None, :] & ~below[:, :, None]).reshape(3, -1)
        self.dot = np.where(at >= 0, np.uint64(ord(".")) << shift,
                            np.uint64(0))


def _two_doubles(num, den):
    """num/den as hi + lo, each rounded to nearest."""
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _words(items) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian uint64 words."""
    return np.array([int.from_bytes(i, "little") for i in items], np.uint64)


@functools.cache
def _lookup() -> _Lookup:
    return _Lookup()


def _decimal(a, lut):
    """``|x|`` rounded to 17 significant digits, as ``D * 10**(X - 16)``.

    ``D`` is an int64 in [1e16, 1e17) (0 for zero), ``X`` the exponent
    ``%e`` prints.  The digits are those of ``a * 10**(16 - k)``,
    ``k = floor(log10 a)``, formed as a double-double and rounded once.
    Cells where that cannot be trusted (|x| outside the covered range, a
    wrong ``k``, a fraction near one half, a round up to ``10**17``) take
    CPython's ``'%.16e'``.
    """
    zero = a == 0.0
    a_c = np.minimum(np.maximum(a, 10.0 ** -_K_MAX), 10.0 ** _K_MAX)
    k = np.floor(np.log10(a_c)).astype(np.int64)
    i = _K_MAX + 1 - k  # row of 10^(16 - k)
    hi, lo, hh, hl = (t.take(i) for t in (lut.hi, lut.lo, lut.hh, lut.hl))
    p = a_c * hi
    c = a_c * _SPLIT
    ah = c - (c - a_c)
    al = a_c - ah
    # a * 10^(16-k) = p + r: Dekker's exact error of a*hi, plus a*lo
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a_c * lo
    ip = p.astype(np.int64)
    y = (p - ip) + r
    floor = np.floor(y)
    frac = y - floor
    digits = ip + floor.astype(np.int64)
    unsure = (a_c != a) | (digits < 10 ** 16)
    digits += frac > 0.5
    unsure |= digits >= 10 ** 17
    unsure |= np.abs(frac - 0.5) < _TIE_MARGIN
    # zero was clamped too; it prints as 0 with exponent 0
    unsure[zero] = False
    digits[zero] = 0
    k[zero] = 0
    for j in np.flatnonzero(unsure):
        text = "%.16e" % a[j]
        digits[j] = int(text[0] + text[2:18])
        k[j] = int(text[19:])
    return digits, k


def _groups(n, lut):
    """The four 4-digit groups of each ``n < 10**16``, and their ASCII."""
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    g1, g3 = hi // 10 ** 4, lo // 10 ** 4
    g = (g1, hi - g1 * 10 ** 4, g3, lo - g3 * 10 ** 4)
    return g, [lut.ascii4.take(gi) for gi in g]


def _float_words(x, sep, lut):
    """``'%.17g' % v`` then ``sep`` for each float64 ``v`` of ``x``, as
    the cells' four words."""
    d, k = _decimal(np.abs(x), lut)
    lead = d // 10 ** 16
    g, (a1, a2, a3, a4) = _groups(d - lead * 10 ** 16, lut)
    # the 17 digits from byte 0
    w = [(lead + 48).view(np.uint64) | a1 << 8 | a2 << 40,
         a2 >> 24 | a3 << 8 | a4 << 40,
         a4 >> 24]
    # significant digits: 17 less the trailing zeros after the lead digit
    zeros = 0
    for gi in g:
        zeros = np.where(gi == 0, zeros + 4, lut.zeros4.take(gi))
    n_sig = 17 - zeros
    kx = k - _X_MIN
    n_int = lut.n_int.take(kx)  # digits before the '.'
    q = np.maximum(n_int, 0)
    # digits before q stay, digits from q up to the last kept one move up
    # one byte, and the '.' goes in at q when a fraction digit is left
    band = (_RUN + 1) * (q + 1) + np.maximum(n_sig, n_int) + 1
    dot = np.where(n_sig > n_int, lut.dot_at.take(kx), _RUN)
    words = [lut.prefix.take(kx) | np.signbit(x) * np.uint64(ord("-"))]
    carry = np.uint64(0)
    for i, wi in enumerate(w):
        words.append(wi & lut.below[i].take(q)
                     | (wi << 8 | carry) & lut.band[i].take(band)
                     | lut.dot[i].take(dot))
        carry = wi >> 56
    words[3] |= lut.exponent.take(kx) | sep << 56
    return words


def _int_words(v, sep, lut):
    """``'%d' % n`` then ``sep`` for each ``n`` of the int64 array ``v``,
    as the cells' three words."""
    # abs wraps -2**63 to itself, whose uint64 view is 2**63
    mag = np.abs(v).view(np.uint64)
    lead = mag // 10 ** 16
    _, (a1, a2, a3, a4) = _groups((mag - lead * 10 ** 16).view(np.int64), lut)
    a0 = lut.ascii4.take(lead.view(np.int64))
    w = [a0 << 8 | a1 << 40,
         a1 >> 24 | a2 << 8 | a3 << 40,
         a3 >> 24 | a4 << 8]
    # NUL the leading zeros: the digits end before byte 21
    first = 20 - np.searchsorted(lut.int_pow10, mag, side="right")
    w = [wi & ~lut.below[i].take(first) for i, wi in enumerate(w)]
    w[0] |= (v < 0) * np.uint64(ord("-"))
    w[2] |= sep << 40
    return w


# the byte that stands for a cell the .2f kernel leaves to ``_cell_2f``
_SLOW_2F = "\x01"


def _words_2f(v, sep, lut):
    """``format(x, ".2f")`` then ``sep`` for each float64 ``x`` of ``v``,
    as the cells' two words, and the mask of the cells left to
    ``_cell_2f``: those not finite or printing 10000.00 or more, whose
    first word is ``_SLOW_2F``.

    ``|x| * 100 = p + e`` exactly (Dekker's product: 100 needs no split).
    ``p - floor(p)`` is a multiple of p's ulp and ``|e|`` at most half of
    one, so it rounds the cell unless it is 0.5; then the sign of ``e``
    does, and ``e = 0`` is a true tie, which rounds to even.
    """
    a = np.abs(v)
    slow = ~(a < 1e4)  # True for NaN
    a[slow] = 0.0
    p = a * 100.0
    c = a * _SPLIT
    ah = c - (c - a)
    e = (ah * 100.0 - p) + (a - ah) * 100.0
    floor = np.floor(p)
    frac = p - floor
    n = floor.astype(np.int64)
    odd = (n & 1).astype(bool)
    n += (frac > 0.5) | (frac == 0.5) & ((e > 0.0) | (e == 0.0) & odd)
    slow |= n >= 10 ** 6
    n[slow] = 0
    whole = n // 100
    # NUL the leading zeros of the 4 digits: the digits start at byte 4 - j
    j = np.searchsorted(lut.int_pow10, whole.view(np.uint64), side="right")
    w0 = (np.signbit(v) * np.uint64(ord("-"))
          | lut.ascii4.take(whole) << 8 & ~lut.below[0].take(4 - j)
          | np.uint64(ord(".")) << 40
          | lut.ascii4.take(n - whole * 100) >> 16 << 48)
    w0[slow] = ord(_SLOW_2F)
    return [w0, sep], slow


def _cell_2f(v: float) -> str:
    """One cell the kernel leaves alone, by CPython's own ``.2f``."""
    return format(v, ".2f")


def _text(buf) -> str:
    """The ASCII of a buffer of cell words, NULs dropped."""
    data = buf.astype("<u8", copy=False).tobytes()
    return data.translate(None, b"\0").decode("ascii")


def join_2f(values, seps: str) -> str:
    """``format(v, ".2f")`` of each float64 of ``values``, with
    ``seps[i % len(seps)]`` between cells ``i`` and ``i + 1`` (``seps``
    is printable ASCII).

    One kernel pass writes every cell; a cell that is not finite or
    prints 10000.00 or more takes ``format`` itself.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    sep = np.zeros(v.size, np.uint64)
    for i, char in enumerate(seps):
        sep[i:-1:len(seps)] = ord(char)
    words, slow = _words_2f(v, sep, _lookup())
    head, *tails = _text(np.stack(words, axis=-1)).split(_SLOW_2F)
    return head + "".join(_cell_2f(x) + tail
                          for x, tail in zip(v[slow].tolist(), tails))


def _mirror_signs(columns, offsets):
    """The words to OR into the cell words of the rows after the center
    row, reversed, to get those of the rows before it; None when the
    columns do not mirror about a center row.

    Each column must be bitwise even about the center, or bitwise odd with
    every cell after the center > 0: those cells print no sign, and their
    negations print the same with '-' in byte 0 of the cell's first word.
    (0 and INT_MIN are their own negations, so they fail that rule.)
    """
    n = columns[0].size
    if n < 3 or n % 2 == 0:
        return None
    sign = np.zeros(offsets[-1], np.uint64)
    for j, col in enumerate(columns):
        after = col[n // 2 + 1:]
        before = col[n // 2 - 1::-1].view(np.uint64)
        if np.array_equal(after.view(np.uint64), before):
            continue
        if not (after > 0).all() \
                or not np.array_equal((-after).view(np.uint64), before):
            return None
        sign[offsets[j]] = ord("-")
    return sign


def _format_rows(columns):
    """Yield the CSV rows of equal-length columns as text chunks, one per
    kernel call of at most ``_CELLS_PER_CALL`` cells.

    Columns of one dtype are formatted together, stacked.  When the
    columns mirror about their center row (``_mirror_signs``), only the
    rows after it are formatted, from the far end inward: each chunk's
    words, reversed and signed, are the rows before the center, and its
    text is kept until the center row, formatted alone (-0.0 prints as
    ``-0``), has been written.
    """
    lut = _lookup()
    by_dtype = {}
    for j, col in enumerate(columns):
        by_dtype.setdefault(col.dtype, []).append(j)
    n_words = [_FLOAT_WORDS if col.dtype.kind == "f" else _INT_WORDS
               for col in columns]
    offsets = np.cumsum([0] + n_words)
    seps = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], np.uint64)
    rows_per_call = max(1, _CELLS_PER_CALL // len(columns))

    def row_words(r0, r1):
        buf = np.empty((r1 - r0, offsets[-1]), np.uint64)
        for dtype, js in by_dtype.items():
            stack = np.stack([columns[j][r0:r1] for j in js])
            cell_words = _float_words if dtype.kind == "f" else _int_words
            words = cell_words(stack.ravel(),
                               np.repeat(seps[js], r1 - r0), lut)
            for w, word in enumerate(words):
                for j, word_j in zip(js, word.reshape(len(js), -1)):
                    buf[:, offsets[j] + w] = word_j
        return buf

    n = columns[0].size
    sign = _mirror_signs(columns, offsets)
    if sign is None:
        for r0 in range(0, n, rows_per_call):
            yield _text(row_words(r0, min(r0 + rows_per_call, n)))
        return
    center = n // 2
    kept = []
    for r1 in range(n, center + 1, -rows_per_call):
        buf = row_words(max(r1 - rows_per_call, center + 1), r1)
        yield _text(buf[::-1] | sign)
        kept.append(_text(buf))
        del buf  # one chunk's words at a time
    yield _text(row_words(center, center + 1))
    while kept:
        yield kept.pop()


@dataclass
class ResultTable:
    columns: list[str]
    metadata: dict = field(default_factory=dict)
    data: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    def add_columns(self, *arrays) -> None:
        """Append rows, given as one 1-d array per column.

        Every array must hold numbers (``constants.require_number``: ints
        or floats, finite), as many as the others.  Each column is kept as
        int64 or float64; a column given ints in one call and floats in
        another becomes float64.
        """
        if len(arrays) != len(self.columns):
            raise InputError(
                f"got {len(arrays)} columns, expected {len(self.columns)}"
            )
        cast = []
        for name, a in zip(self.columns, arrays):
            col = require_number(f"column {name!r}", a, array=True)
            if np.ndim(col) != 1:
                raise InputError(f"column {name!r} must be 1-d, got shape "
                                 f"{np.shape(col)}")
            cast.append(col)
        if len({col.size for col in cast}) > 1:
            raise InputError("columns differ in length: "
                             f"{[col.size for col in cast]}")
        if self.data:
            cast = map(np.concatenate, zip(self.data, cast))
        self.data = tuple(cast)

    def add_row(self, *values) -> None:
        """Append one row; each value joins its column's ints or floats."""
        self.add_columns(*([v] for v in values))

    @property
    def n_rows(self) -> int:
        return self.data[0].size if self.data else 0

    def column(self, name: str) -> np.ndarray:
        return self.data[self.columns.index(name)] if self.data \
            else np.empty(0)

    def _chunks(self):
        """The CSV text: metadata and header, then the rows in chunks."""
        lines = [f"# {key} = {fmt(val)}" for key, val in self.metadata.items()]
        lines.append(",".join(self.columns))
        yield "\n".join(lines) + "\n"
        if self.data:
            yield from _format_rows(self.data)

    def to_csv(self) -> str:
        return "".join(self._chunks())

    def write_csv(self, path) -> None:
        write_text(path, self._chunks())
