"""Minimal deterministic SVG line plots (no plotting dependencies).

Fixed viewport, linear axes with simple decimal ticks, one polyline per
curve and a text legend.  Output is a pure function of the inputs, so a
rerun with the same data is byte-identical.  Polyline coordinates print as
``format(v, ".2f")``, all of a curve's in one pass of ``table``'s numpy
cell kernel (``join_2f``).
"""

import numpy as np

from .table import join_2f, write_text

_COLORS = ("#1f6fb2", "#c94f30", "#3c8a4d", "#7d4f9b", "#b0822b")

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_TICK_TARGET = 6  # ticks per axis, roughly


def _ticks(lo: float, hi: float):
    raw = (hi - lo) / _TICK_TARGET
    if not raw > 0:  # an empty span, or one whose share underflows to 0
        return [lo]
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + step / 2, step)
    return [float(t) for t in ticks]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:.4g}"


def _polyline(x, y, sx, sy) -> str:
    """The "x,y" viewport pairs of one curve, space-separated.  ``sx`` and
    ``sy`` map whole float64 arrays with the operations they apply to one
    float, so every coordinate has the bits of a per-point map; the
    coordinates, interleaved, print as ``format(v, ".2f")`` in one
    ``join_2f`` call."""
    xy = np.stack([sx(np.asarray(x, dtype=float)),
                   sy(np.asarray(y, dtype=float))], axis=-1)
    return join_2f(xy, ", ")


def line_plot_svg(curves, title: str, xlabel: str, ylabel: str) -> str:
    """Render curves = [(x, y, label), ...] to an SVG document string."""
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = min(0.0, float(ys.min())), float(ys.max()) * 1.05
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]
    axis = (f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
            'stroke="black" stroke-width="1"/>'
            f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
            'stroke="black" stroke-width="1"/>')
    parts.append(axis)

    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 9}" y="{y + 4:.2f}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="end">{_fmt_tick(t)}</text>')

    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
                 'font-family="sans-serif" font-size="14" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" '
                 'font-family="sans-serif" font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">'
                 f'{ylabel}</text>')

    for i, (x, y, label) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        pts = _polyline(x, y, sx, sy)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 18 + 18 * i
        parts.append(f'<line x1="{_W - 190}" y1="{ly - 4}" x2="{_W - 160}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 152}" y="{ly}" font-family="sans-serif" '
                     f'font-size="13">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, curves, title: str, xlabel: str, ylabel: str) -> None:
    write_text(path, [line_plot_svg(curves, title, xlabel, ylabel)])
