"""Minimal self-contained SVG plot generator: polylines, point markers, and
axis ticks on linear-x / log-y decay axes.  No timestamps or external
dependencies, so identical inputs render byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 64
MARGIN_RIGHT = 16
MARGIN_TOP = 32
MARGIN_BOTTOM = 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
X_TICKS = 6


@dataclass
class Series:
    """One plotted curve: scattered points or a connected line."""

    label: str
    x: list
    y: list
    style: str = "line"  # "line" or "points"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _decade_ticks(lo: float, hi: float) -> list[float]:
    low = math.floor(math.log10(lo))
    high = math.ceil(math.log10(hi))
    return [10.0**k for k in range(low, high + 1)]


def render_decay_plot(series: list[Series]) -> str:
    """Render data points and fitted curves to an SVG document string.

    The y axis is logarithmic with decade ticks: non-positive y values are
    dropped from the plot (decayed signals at the noise floor).  The x axis
    is time in seconds.
    """
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y if v > 0]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo_log, y_hi_log = math.log10(min(ys)), math.log10(max(ys))
    if y_hi_log - y_lo_log < 1e-9:
        y_lo_log -= 0.5
        y_hi_log += 0.5
    y_lo, y_hi = 10.0**y_lo_log, 10.0**y_hi_log
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        frac = (math.log10(y) - y_lo_log) / (y_hi_log - y_lo_log)
        return px, MARGIN_TOP + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="{MARGIN_TOP - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">decay fits</text>',
    ]

    bottom = MARGIN_TOP + plot_h
    x_step = (x_hi - x_lo) / (X_TICKS - 1)
    for tick in (x_lo + i * x_step for i in range(X_TICKS)):
        px, _ = to_px(tick, y_hi)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" y2="{bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{bottom + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _decade_ticks(y_lo, y_hi):
        if not y_lo <= tick <= y_hi * 1.0001:
            continue
        _, py = to_px(x_lo, tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">time (s)</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h // 2})">signal (log)</text>'
    )

    legend_y = MARGIN_TOP + 14
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = [to_px(float(x), float(y)) for x, y in zip(s.x, s.y) if float(y) > 0]
        if not points:
            continue
        if s.style == "points":
            for px, py in points:
                parts.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{color}" '
                    'fill-opacity="0.8"/>'
                )
        else:
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{s.label}</text>'
        )
        legend_y += 14

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
