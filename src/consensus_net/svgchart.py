"""Minimal SVG line charts, no charting framework.

Polylines, axis ticks and a legend are all the figures need; output is a
single self-contained SVG file with deterministic bytes for fixed input.
Text (the title, the axis labels and the series labels, which may be CSV
column names) is escaped, so any label gives well-formed XML.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .errors import ValidationError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf", "#e377c2")

_WIDTH = 960
_HEIGHT = 540
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 150
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 56


def _nice_ticks(lo: float, hi: float, target: int = 6):
    """Tick positions at 1/2/5 x 10^k spacing covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    if not 0 < raw < math.inf:
        raise ValidationError(
            "chart: the values span more than a float can hold, or less than it resolves")
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            raise ValidationError("chart: the values differ by less than a float resolves")
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_line_chart(path, title: str, x_label: str, y_label: str,
                     x: np.ndarray, series) -> None:
    """Write one SVG chart; ``series`` is a list of (label, values) pairs."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValidationError("chart: no data points")
    if not series:
        raise ValidationError("chart: no series to plot")
    for label, values in series:
        if np.asarray(values).shape[0] != x.shape[0]:
            raise ValidationError(f"chart series {label!r}: length mismatch with x")

    x_lo, x_hi = float(x.min()), float(x.max())
    all_y = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    finite = all_y[np.isfinite(all_y)]
    if finite.size == 0:
        raise ValidationError("chart: no finite values to plot")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(xv):
        return _MARGIN_LEFT + (xv - x_lo) / (x_hi - x_lo) * plot_w

    def py(yv):
        return _MARGIN_TOP + (y_hi - yv) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>')
    for t in _nice_ticks(x_lo, x_hi):
        xp = px(t)
        parts.append(f'<line x1="{xp:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{xp:.2f}" '
                     f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        yp = py(t)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" '
                     f'y2="{yp:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 9}" y="{yp + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{yp:.2f}" x2="{_MARGIN_LEFT + plot_w}" '
                     f'y2="{yp:.2f}" stroke="#eee"/>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 f'{escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">'
                 f'{escape(y_label)}</text>')

    for idx, (label, values) in enumerate(series):
        values = np.asarray(values, dtype=float)
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, values)
                       if math.isfinite(yi))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_TOP + 16 + 18 * idx
        lx = _MARGIN_LEFT + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
