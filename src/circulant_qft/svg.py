"""Minimal static SVG line plots.

Plotting is a convenience on top of the CSV outputs, so this stays a
dependency-free polyline renderer with fixed, deterministic formatting.
"""

import numpy as np

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

TICKS = 5  # per axis
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2"]


def _ticks(lo, hi):
    if hi == lo:
        hi = lo + 1.0
    ticks = np.linspace(lo, hi, TICKS)
    # a range symmetric up to rounding leaves linspace noise where 0
    # belongs; the end ticks are lo and hi exactly
    inner = ticks[1:-1]
    inner[np.abs(inner) <= 4 * np.spacing(max(abs(lo), abs(hi)))] = 0.0
    return ticks


def _fmt(x):
    return f"{x:.6g}"


def write_line_plot(path, x, series, title, xlabel, ylabel):
    """Write one SVG with a polyline per named series.

    series is a nonempty mapping name -> y array (same length as x).
    Axis ranges are padded data ranges; formatting is fixed so identical
    inputs give identical bytes.
    """
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(y, dtype=float) for name, y in series.items()}
    all_y = np.concatenate(list(ys.values()))
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi += 1.0
        y_lo -= 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    # axes box and ticks
    lines.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        lines.append(
            f'<line x1="{px(tx):.2f}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{px(tx):.2f}" y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{px(tx):.2f}" y="{MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        lines.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py(ty):.2f}" '
            f'x2="{MARGIN_LEFT}" y2="{py(ty):.2f}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py(ty) + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f'{_fmt(ty)}</text>'
        )
    lines.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{xlabel}</text>'
    )
    cy = MARGIN_TOP + plot_h / 2
    lines.append(
        f'<text x="18" y="{cy:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {cy:.1f})">{ylabel}</text>'
    )

    # every polyline shares the x pixels: they are formatted once, into
    # one %-format ("70.00,%.2f 70.03,%.2f ...") that each polyline fills
    # with its y pixels; a formatted x holds no % and no space
    xs = ("%.2f " * len(x) % tuple(px(x).tolist())).split()
    points_fmt = ",%.2f ".join(xs) + ",%.2f"
    for idx, (name, y) in enumerate(ys.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = points_fmt % tuple(py(y).tolist())
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 16 + 16 * idx
        lines.append(
            f'<line x1="{MARGIN_LEFT + plot_w - 120}" y1="{ly}" '
            f'x2="{MARGIN_LEFT + plot_w - 96}" y2="{ly}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{MARGIN_LEFT + plot_w - 90}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
