"""Self-contained SVG rendering for sweep and histogram tables.

Everything here is plain string assembly: no plotting libraries, no
timestamps, no randomness, so a given input always produces the same
bytes and outputs can be golden-file tested.  Values map to color
through a fixed five-anchor ramp (dark violet through teal to yellow),
interpolated linearly per RGB channel; the same ramp colors heatmap
cells, measure bands, and the colorbar.

Layout constants are fixed: a 720x540 canvas with a 80/40-pixel margin
frame, monospace text, and at most eight tick labels per axis.  Floats
render with %.6g everywhere.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError

__all__ = [
    "color_ramp",
    "heatmap_svg",
    "histogram_svg",
    "measure_svg",
]

_RAMP_ANCHORS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)

# Histograms plot log(density + LOG_SHIFT), so empty bins sit at a finite
# floor; bench writes its log_density_shifted column with the same shift.
LOG_SHIFT = 3e-5

_W, _H = 720, 540
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 110, 40, 60
_PLOT_W = _W - _LEFT - _RIGHT
_PLOT_H = _H - _TOP - _BOTTOM


def color_ramp(t: float) -> str:
    """Hex color for t in [0, 1]; clamps outside the interval."""
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_RAMP_ANCHORS, _RAMP_ANCHORS[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + (b - a) * f) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _RAMP_ANCHORS[-1][1]


def _fmt(v: float) -> str:
    return "%.6g" % float(v)


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 12) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="monospace" font-size="{size}">{_esc(s)}</text>'
    )


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(_LEFT + _PLOT_W / 2, 24, title, size=14),
    ]


_FRAME = (
    f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
    'fill="none" stroke="black"/>'
)


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    """The x label under the plot and the y label rotated along its left side."""
    mid = _TOP + _PLOT_H / 2
    return [
        _text(_LEFT + _PLOT_W / 2, _H - 18, x_label),
        f'<text x="20" y="{mid}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 20 {mid})">{_esc(y_label)}</text>',
    ]


def _tick_indices(count: int, max_ticks: int = 8) -> list[int]:
    if count <= max_ticks:
        return list(range(count))
    step = (count - 1) / (max_ticks - 1)
    return sorted({round(i * step) for i in range(max_ticks)})


def _colorbar(lines: list[str]) -> None:
    """The ramp from 0 at the bottom to 1 at the top, right of the plot."""
    x = _W - _RIGHT + 30
    steps = 40
    seg = _PLOT_H / steps
    for i in range(steps):
        t = (i + 0.5) / steps
        y = _TOP + _PLOT_H - (i + 1) * seg
        lines.append(
            f'<rect x="{x}" y="{_fmt(y)}" width="18" height="{_fmt(seg + 0.5)}" '
            f'fill="{color_ramp(t)}"/>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _TOP + _PLOT_H * (1 - frac)
        lines.append(_text(x + 24, y + 4, _fmt(frac), anchor="start", size=11))


def heatmap_svg(
    x_values: Sequence[float],
    y_values: Sequence[float],
    grid: Sequence[Sequence[float]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Grid of colored cells; grid[i][j] pairs y_values[i] with x_values[j].

    Values are clamped to [0, 1] for coloring.  The maximum cell value
    is annotated above the plot so saturation (or its absence) is
    visible without inspecting cells.
    """
    if not x_values or not y_values or not grid:
        raise ValidationError("heatmap needs non-empty axes and grid")
    if len(grid) != len(y_values) or any(len(row) != len(x_values) for row in grid):
        raise ValidationError("grid shape must be (len(y_values), len(x_values))")
    lines = _header(title)
    nx, ny = len(x_values), len(y_values)
    cw, ch = _PLOT_W / nx, _PLOT_H / ny
    peak = max(max(row) for row in grid)
    for i in range(ny):
        # Row 0 sits at the bottom so the y axis increases upward.
        y = _TOP + _PLOT_H - (i + 1) * ch
        for j in range(nx):
            x = _LEFT + j * cw
            lines.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="{color_ramp(grid[i][j])}"/>'
            )
    lines.append(_FRAME)
    for j in _tick_indices(nx):
        x = _LEFT + (j + 0.5) * cw
        lines.append(_text(x, _TOP + _PLOT_H + 16, _fmt(x_values[j]), size=11))
    for i in _tick_indices(ny):
        y = _TOP + _PLOT_H - (i + 0.5) * ch
        lines.append(_text(_LEFT - 8, y + 4, _fmt(y_values[i]), anchor="end", size=11))
    lines += _axis_labels(x_label, y_label)
    lines.append(
        _text(_LEFT + _PLOT_W, _TOP - 8, f"max = {_fmt(peak)}", anchor="end", size=12)
    )
    _colorbar(lines)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def histogram_svg(
    lefts: Sequence[float],
    rights: Sequence[float],
    log_density: Sequence[float],
    smoothed: Sequence[float],
    planted_min: float,
    planted_max: float,
    title: str,
) -> str:
    """Log-shifted density (steps) with smoothed overlay and range markers."""
    if not lefts or len(lefts) != len(rights) or len(lefts) != len(log_density):
        raise ValidationError("histogram columns must be non-empty and equal length")
    import math

    log_smoothed = [math.log(max(s, 0.0) + LOG_SHIFT) for s in smoothed]
    lo = min(min(lefts), planted_min)
    hi = max(max(rights), planted_max)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    vmin = min(min(log_density), min(log_smoothed))
    vmax = max(max(log_density), max(log_smoothed))
    if vmax == vmin:
        vmax = vmin + 1.0

    def sx(v: float) -> float:
        return _LEFT + (v - lo) / (hi - lo) * _PLOT_W

    def sy(v: float) -> float:
        return _TOP + (vmax - v) / (vmax - vmin) * _PLOT_H

    lines = _header(title)
    steps = []
    for left, right, v in zip(lefts, rights, log_density):
        steps.append(f"{_fmt(sx(left))},{_fmt(sy(v))}")
        steps.append(f"{_fmt(sx(right))},{_fmt(sy(v))}")
    lines.append(
        f'<polyline points="{" ".join(steps)}" fill="none" stroke="#999999" '
        'stroke-width="1"/>'
    )
    centers = [
        f"{_fmt(sx((l + r) / 2))},{_fmt(sy(v))}"
        for l, r, v in zip(lefts, rights, log_smoothed)
    ]
    lines.append(
        f'<polyline points="{" ".join(centers)}" fill="none" stroke="#3b528b" '
        'stroke-width="2"/>'
    )
    for marker, name in ((planted_min, "planted min"), (planted_max, "planted max")):
        x = sx(marker)
        lines.append(
            f'<line x1="{_fmt(x)}" y1="{_TOP}" x2="{_fmt(x)}" '
            f'y2="{_TOP + _PLOT_H}" stroke="#d62728" stroke-dasharray="4 3"/>'
        )
        lines.append(_text(x, _TOP - 8, f"{name} {_fmt(marker)}", size=10))
    lines.append(_FRAME)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _LEFT + _PLOT_W * frac
        lines.append(_text(x, _TOP + _PLOT_H + 16, _fmt(lo + (hi - lo) * frac), size=11))
        y = _TOP + _PLOT_H * (1 - frac)
        lines.append(
            _text(_LEFT - 8, y + 4, _fmt(vmin + (vmax - vmin) * frac), anchor="end", size=11)
        )
    lines += _axis_labels("energy", "log density (shifted)")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def measure_svg(
    ks: Sequence[int],
    band_names: Sequence[str],
    fractions: Sequence[Sequence[float]],
    title: str,
) -> str:
    """Stacked band shares per K; fractions[i] lists one K's shares.

    Shares within a column are drawn bottom-up in band order; columns
    must each sum to 1 within 1e-9.
    """
    if not ks or len(fractions) != len(ks):
        raise ValidationError("measure plot needs one share row per K")
    for shares in fractions:
        if len(shares) != len(band_names):
            raise ValidationError("share row length must match band count")
        if abs(sum(shares) - 1.0) > 1e-9:
            raise ValidationError("band shares of each K must sum to 1")
    lines = _header(title)
    n = len(ks)
    colw = _PLOT_W / n
    colors = [
        color_ramp(i / max(len(band_names) - 1, 1)) for i in range(len(band_names))
    ]
    for i, shares in enumerate(fractions):
        x = _LEFT + i * colw
        base = 0.0
        for share, color in zip(shares, colors):
            if share == 0.0:
                continue
            h = share * _PLOT_H
            y = _TOP + _PLOT_H - (base + share) * _PLOT_H
            lines.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(colw + 0.5)}" '
                f'height="{_fmt(h + 0.5)}" fill="{color}"/>'
            )
            base += share
    lines.append(_FRAME)
    for i in _tick_indices(n):
        lines.append(
            _text(_LEFT + (i + 0.5) * colw, _TOP + _PLOT_H + 16, str(ks[i]), size=11)
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _TOP + _PLOT_H * (1 - frac)
        lines.append(_text(_LEFT - 8, y + 4, _fmt(frac), anchor="end", size=11))
    x_legend = _W - _RIGHT + 14
    for i, name in enumerate(band_names):
        y = _TOP + 14 * i
        lines.append(
            f'<rect x="{x_legend}" y="{_fmt(y)}" width="10" height="10" '
            f'fill="{colors[i]}"/>'
        )
        lines.append(_text(x_legend + 16, y + 9, name, anchor="start", size=10))
    lines += _axis_labels("K", "share of runs")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
