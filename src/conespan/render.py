"""Deterministic SVG rendering of point sets and graphs.

Output is a pure function of the input: fixed decimal formatting, points in
index order, undirected edges in sorted order.
"""

from __future__ import annotations

import numpy as np

from .analysis import _undirected
from .geometry import Point


WIDTH = 640.0
MARGIN = 24.0
POINT_RADIUS = 2.5
POINT_COLOR = "#c0392b"
EDGE_COLOR = "#7f8c8d"
EDGE_WIDTH = 0.8
PATH_COLOR = "#2980b9"
PATH_WIDTH = 2.2


def _fmt(v: float) -> str:
    return f"{v:.6f}".rstrip("0").rstrip(".")


def render_svg(points: list[Point], edges, witness_path: list[int] | None = None) -> str:
    """One marker per point, one line per undirected edge of ``edges`` (an
    (m, 2) array of (tail, head) rows), and an optional highlighted witness
    path (a vertex index sequence)."""
    if points:
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    span_x = x1 - x0 or 1.0
    span_y = y1 - y0 or 1.0
    scale = (WIDTH - 2 * MARGIN) / span_x
    height = span_y * scale + 2 * MARGIN

    def sx(x: float) -> float:
        return MARGIN + (x - x0) * scale

    def sy(y: float) -> float:
        return height - (MARGIN + (y - y0) * scale)  # flip: SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">'
    ]
    cx = [_fmt(sx(p.x)) for p in points]
    cy = [_fmt(sy(p.y)) for p in points]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for t, h in _undirected(edges, len(points)).tolist():
        parts.append(
            f'<line x1="{cx[t]}" y1="{cy[t]}" x2="{cx[h]}" y2="{cy[h]}" '
            f'stroke="{EDGE_COLOR}" stroke-width="{_fmt(EDGE_WIDTH)}"/>'
        )
    if witness_path and len(witness_path) >= 2:
        coords = " ".join(f"{cx[i]},{cy[i]}" for i in witness_path)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{PATH_COLOR}" '
            f'stroke-width="{_fmt(PATH_WIDTH)}"/>'
        )
    for x, y in zip(cx, cy):
        parts.append(f'<circle cx="{x}" cy="{y}" r="{_fmt(POINT_RADIUS)}" fill="{POINT_COLOR}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
