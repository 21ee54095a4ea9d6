"""Tiny dependency-free SVG emitters for inspection figures.

Scatter, heatmap, and histogram only; these are aids for eyeballing run
artifacts, not a plotting library.  Every file embeds its reproducibility
header as an XML comment.
"""

from __future__ import annotations

import numpy as np

WIDTH = 480
HEIGHT = 400
MARGIN = 48

_PALETTE = [
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
]


def _color(t: float) -> str:
    """Interpolated 5-anchor colormap for t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_PALETTE) - 1)
    i = min(int(pos), len(_PALETTE) - 2)
    frac = pos - i
    rgb = [round(a + frac * (b - a)) for a, b in zip(_PALETTE[i], _PALETTE[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _axes_transform(xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    sx = (WIDTH - 2 * MARGIN) / (x1 - x0) if x1 > x0 else 1.0
    sy = (HEIGHT - 2 * MARGIN) / (y1 - y0) if y1 > y0 else 1.0

    def to_px(x, y):
        return MARGIN + (x - x0) * sx, HEIGHT - MARGIN - (y - y0) * sy

    return to_px


def _frame(path, title: str, comment: str, xlim, ylim, body: list[str]) -> None:
    """Write one figure: the opening tag, the embedded header, the title, the axis labels, then ``body``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- {comment.replace('--', '- -')} -->",
        f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="none" stroke="#999"/>',
    ]
    to_px = _axes_transform(xlim, ylim)
    for x in np.linspace(xlim[0], xlim[1], 5):
        px, py = to_px(x, ylim[0])
        parts.append(f'<text x="{px:.1f}" y="{py + 16:.1f}" text-anchor="middle" font-size="9">{x:.3g}</text>')
    for y in np.linspace(ylim[0], ylim[1], 5):
        px, py = to_px(xlim[0], y)
        parts.append(f'<text x="{px - 6:.1f}" y="{py + 3:.1f}" text-anchor="end" font-size="9">{y:.3g}</text>')
    with open(path, "w") as f:
        f.write("\n".join([*parts, *body, "</svg>"]) + "\n")


def scatter(path, groups, title: str, comment: str) -> None:
    """Scatter plot of labeled point groups, axes spanning every point.

    ``groups`` is a list of (label, points, color) with points of shape (n, 2).
    """
    all_pts = np.vstack([pts for _, pts, _ in groups])
    xlim = (all_pts[:, 0].min(), all_pts[:, 0].max())
    ylim = (all_pts[:, 1].min(), all_pts[:, 1].max())
    to_px = _axes_transform(xlim, ylim)
    body = []
    for k, (label, pts, color) in enumerate(groups):
        for x, y in pts:
            px, py = to_px(x, y)
            body.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{color}" fill-opacity="0.7"/>')
        body.append(f'<text x="{WIDTH - MARGIN}" y="{30 + 13 * k}" text-anchor="end" font-size="10" fill="{color}">{label}</text>')
    _frame(path, title, comment, xlim, ylim, body)


def heatmap(path, matrix, extent, markers, title: str, comment: str) -> None:
    """Colormapped matrix over the rectangle extent = (x0, x1, y0, y1).

    Row 0 of the matrix is drawn at the bottom (y0 edge).  ``markers`` is a
    list of (x, y, color) overlay points.
    """
    matrix = np.asarray(matrix, dtype=float)
    finite = matrix[np.isfinite(matrix)]
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 1.0)
    span = hi - lo if hi > lo else 1.0
    x0, x1, y0, y1 = extent
    to_px = _axes_transform((x0, x1), (y0, y1))
    ny, nx = matrix.shape
    cell_w = (WIDTH - 2 * MARGIN) / nx
    cell_h = (HEIGHT - 2 * MARGIN) / ny
    body = []
    for iy in range(ny):
        for ix in range(nx):
            v = matrix[iy, ix]
            color = _color((v - lo) / span) if np.isfinite(v) else "rgb(200,200,200)"
            px = MARGIN + ix * cell_w
            py = HEIGHT - MARGIN - (iy + 1) * cell_h
            body.append(
                f'<rect x="{px:.1f}" y="{py:.1f}" width="{cell_w + 0.5:.1f}" height="{cell_h + 0.5:.1f}" fill="{color}"/>'
            )
    for x, y, color in markers:
        px, py = to_px(x, y)
        body.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="5" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    body.append(f'<text x="{MARGIN}" y="{HEIGHT - 8}" font-size="9">range [{lo:.3g}, {hi:.3g}]</text>')
    _frame(path, title, comment, (x0, x1), (y0, y1), body)


def histogram(path, values, title: str, comment: str) -> None:
    """30-bin histogram of a 1-d sample."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    counts, edges = np.histogram(values, bins=30)
    peak = counts.max() if counts.size and counts.max() > 0 else 1
    xlim, ylim = (edges[0], edges[-1]), (0, float(peak))
    to_px = _axes_transform(xlim, ylim)
    body = []
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        px0, py0 = to_px(e0, 0)
        px1, py1 = to_px(e1, c)
        body.append(
            f'<rect x="{px0:.1f}" y="{py1:.1f}" width="{px1 - px0:.1f}" height="{py0 - py1:.1f}" '
            f'fill="#4878a8" stroke="#fff" stroke-width="0.5"/>'
        )
    _frame(path, title, comment, xlim, ylim, body)
