"""Deterministic point-set generators for reproducible runs.

All randomness comes from ``numpy.random.default_rng(seed)`` (the PCG64
generator) with the exact draw sequences documented per kind in the README,
so a fixed GenSpec always reproduces the same point set bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import GeometryError, Point


class GenKind(str, Enum):
    UNIFORM_SQUARE = "uniform_square"
    GRID = "grid"
    CO_CIRCULAR = "co_circular"
    CLUSTERED = "clustered"


@dataclass(frozen=True)
class GenSpec:
    """What to generate: kind, count, seed, and the kind-specific parameters
    (square side; grid pitch; circle radius and angular jitter; cluster count
    and spread)."""

    kind: GenKind
    n: int
    seed: int = 0
    side: float = 1.0
    pitch: float = 1.0
    radius: float = 1.0
    jitter: float = 0.0
    clusters: int = 5
    spread: float = 0.05


def gen_points(spec: GenSpec) -> list[Point]:
    """Generate the point set described by ``spec``; points are pairwise
    distinct (colliding draws are regenerated from the same stream)."""
    if spec.n < 1:
        raise GeometryError(f"n must be >= 1, got {spec.n}")
    for name in ("side", "pitch", "radius", "jitter", "spread"):
        if not math.isfinite(getattr(spec, name)):
            raise GeometryError(f"{name} must be finite, got {getattr(spec, name)}")
    kind = GenKind(spec.kind)
    rng = np.random.default_rng(spec.seed)
    if kind is GenKind.UNIFORM_SQUARE:
        if spec.side <= 0:
            raise GeometryError(f"side must be positive, got {spec.side}")
        xy = rng.random((spec.n, 2)) * spec.side
        xy = _dedupe(xy, lambda m: rng.random((m, 2)) * spec.side)
    elif kind is GenKind.GRID:
        if spec.pitch <= 0:
            raise GeometryError(f"pitch must be positive, got {spec.pitch}")
        cols = math.ceil(math.sqrt(spec.n))
        idx = np.arange(spec.n)
        xy = np.column_stack([(idx % cols) * spec.pitch, (idx // cols) * spec.pitch]).astype(float)
    elif kind is GenKind.CO_CIRCULAR:
        if spec.radius <= 0:
            raise GeometryError(f"radius must be positive, got {spec.radius}")
        if spec.jitter < 0:
            raise GeometryError(f"jitter must be >= 0, got {spec.jitter}")
        ang = 2.0 * math.pi * np.arange(spec.n) / spec.n
        if spec.jitter > 0:
            ang = ang + spec.jitter * (2.0 * rng.random(spec.n) - 1.0)
        xy = spec.radius * np.column_stack([np.cos(ang), np.sin(ang)])

        def redraw_on_circle(m: int) -> np.ndarray:
            fresh = 2.0 * math.pi * rng.random(m)
            return spec.radius * np.column_stack([np.cos(fresh), np.sin(fresh)])

        xy = _dedupe(xy, redraw_on_circle)
    elif kind is GenKind.CLUSTERED:
        if spec.clusters < 1:
            raise GeometryError(f"clusters must be >= 1, got {spec.clusters}")
        if spec.spread <= 0:
            raise GeometryError(f"spread must be positive, got {spec.spread}")
        centers = rng.random((spec.clusters, 2)) * spec.side
        offsets = rng.normal(0.0, spec.spread, (spec.n, 2))
        xy = centers[np.arange(spec.n) % spec.clusters] + offsets
        xy = _dedupe(
            xy,
            lambda m: centers[rng.integers(0, spec.clusters, m)] + rng.normal(0.0, spec.spread, (m, 2)),
        )
    else:  # pragma: no cover - enum is exhaustive
        raise GeometryError(f"unknown generator kind: {spec.kind}")
    return [Point(float(x), float(y)) for x, y in xy]


def _dedupe(xy: np.ndarray, redraw) -> np.ndarray:
    """Replace exact duplicates using further draws from the same stream."""
    for _ in range(64):
        seen: dict[tuple[float, float], int] = {}
        dup_rows = []
        for i, key in enumerate(map(tuple, xy)):
            if key in seen:
                dup_rows.append(i)
            else:
                seen[key] = i
        if not dup_rows:
            return xy
        xy[dup_rows] = redraw(len(dup_rows))
    raise GeometryError("could not generate pairwise-distinct points")
