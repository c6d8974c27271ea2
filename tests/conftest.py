"""Shared fixtures and independent scalar oracles for the builders.

The oracles deliberately avoid the vectorized production code paths: they
loop over points with the scalar geometry operations only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from conespan.build import ConeGraph, Family, _candidate_polar, as_point_array, edge_array
from conespan.geometry import (
    TWO_PI,
    GeometryError,
    Point,
    TrapezoidFrame,
    ccw_diff,
    cone_index,
    dist,
    gamma,
    polar_angle,
    first_contact,
    on_critical_arc,
    scale_to_hit,
    theta,
    HitPart,
)
from conespan.paths import DescentFrame


def random_points(n: int, seed: int, scale: float = 1.0) -> list[Point]:
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.random((n, 2)) * scale]


@st.composite
def small_point_sets(draw):
    coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    pts = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=8, unique=True))
    return [Point(x, y) for x, y in pts]


def oracle_yao_pairs(points: list[Point], k: int) -> set[tuple[int, int]]:
    """Nearest point per narrow cone, scalar scan."""
    n = len(points)
    out = set()
    for u in range(n):
        best: dict[int, tuple] = {}
        for v in range(n):
            if v == u:
                continue
            phi = polar_angle(points[u], points[v])
            j = cone_index(k, phi)
            key = (dist(points[u], points[v]), phi, v)
            if j not in best or key < best[j]:
                best[j] = key
        for key in best.values():
            out.add((u, key[2]))
    return out


def oracle_yy_pairs(points: list[Point], k: int) -> set[tuple[int, int]]:
    """Two-pass oracle: scalar Yao, then per-(head, cone) shortest incoming."""
    yao = oracle_yao_pairs(points, k)
    best: dict[tuple[int, int], tuple] = {}
    for (t, h) in yao:
        phi = polar_angle(points[h], points[t])
        j = cone_index(k, phi)
        key = (dist(points[h], points[t]), phi, t)
        slot = (h, j)
        if slot not in best or key < best[slot]:
            best[slot] = key
    return {(key[2], h) for (h, _), key in best.items()}


def oracle_oy_pairs(points: list[Point], k: int) -> set[tuple[int, int]]:
    """Widened-cone minimum scan using the modular membership predicate."""
    n = len(points)
    g = gamma(k)
    w = TWO_PI / k
    out = set()
    for u in range(n):
        for j in range(k):
            lo = j * w
            best = None
            for v in range(n):
                if v == u:
                    continue
                phi = polar_angle(points[u], points[v])
                if ccw_diff(phi, lo) >= g:
                    continue
                key = (dist(points[u], points[v]), phi, v)
                if best is None or key < best:
                    best = key
            if best is not None:
                out.add((u, best[2]))
    return out


def oracle_ty_pairs(points: list[Point], k: int) -> set[tuple[int, int]]:
    """First-contact oracle: per frame, order all points by the scalar
    first-contact dilation and apply the critical-arc rule."""
    n = len(points)
    th = theta(k)
    w = TWO_PI / k
    out = set()
    for u in range(n):
        for j in range(k):
            for reflected in (False, True):
                frame = TrapezoidFrame(points[u], j * w, reflected, th)
                hits = []
                for v in range(n):
                    if v == u:
                        continue
                    hit = scale_to_hit(frame, points[v])
                    if hit.part is not HitPart.NONE:
                        hits.append((hit.lam, polar_angle(points[u], points[v]), v, hit.part))
                if not hits:
                    continue
                lam, _, v, part = min(hits)
                if part is HitPart.CRITICAL_ARC:
                    out.add((u, v))
    return out


def dense_build_ty(points: list[Point], k: int) -> ConeGraph:
    """Dense trapezoidal-Yao sweep: every vertex evaluates all candidates at
    all k orientations and both mirrors.  The reference for build_ty's
    pruned sweep, which must match its edges and ``ty_frames`` exactly."""
    th = theta(k)  # also enforces k > 24
    xy = as_point_array(points)
    sin_th = np.sin(th)
    psi = np.arange(k) * (TWO_PI / k)
    frames: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for i in range(xy.shape[0]):
        cand, r, phi = _candidate_polar(xy, i)
        if cand.size == 0:
            continue
        # in (angle, index) order the first minimum of a frame is its tie-broken winner
        by_angle = np.lexsort((cand, phi))
        cand, r, phi = cand[by_angle], r[by_angle], phi[by_angle]
        for reflected in (False, True):
            if reflected:
                alpha = np.mod(psi[None, :] - phi[:, None], TWO_PI)
            else:
                alpha = np.mod(phi[:, None] - psi[None, :], TWO_PI)
            lam = first_contact(alpha, r[:, None], sin_th)
            rows = np.argmin(lam, axis=0)
            js = np.flatnonzero(on_critical_arc(lam[rows, np.arange(k)], r[rows]))
            for j, head in zip(js.tolist(), cand[rows[js]].tolist()):
                frames.setdefault((i, head), []).append((j, reflected))
    # the edge set is the key set of the selection frames
    pairs = np.array(list(frames), dtype=np.int64).reshape(-1, 2)
    edges = edge_array(pairs[:, 0], pairs[:, 1], xy.shape[0])
    return ConeGraph(tuple(points), xy, k, Family.TRAPEZOIDAL_YAO, edges, ty_frames=frames)


def oracle_all_pairs_dist(points: list[Point], pairs: set[tuple[int, int]]) -> np.ndarray:
    """Cubic relaxation (independent of the heap-based implementation)."""
    n = len(points)
    w = np.full((n, n), math.inf)
    np.fill_diagonal(w, 0.0)
    for t, h in pairs:
        d = dist(points[t], points[h])
        w[t, h] = min(w[t, h], d)
        w[h, t] = min(w[h, t], d)
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                if w[i, mid] + w[mid, j] < w[i, j]:
                    w[i, j] = w[i, mid] + w[mid, j]
    return w


def bisect_first_contact(th: float, x: float, y: float, iters: int = 100) -> float:
    """Bisection-on-scale membership oracle for the curved trapezoid."""
    if x <= 0.0 or y < 0.0:
        return math.inf
    sin_th = math.sin(th)
    r2 = x * x + y * y

    def member(lam: float) -> bool:
        # the p-centered disk constraint (x-lam)^2 + y^2 <= lam^2 is used in
        # the cancellation-free rearrangement r^2 <= 2*lam*x, which keeps the
        # oracle meaningful at 1e-9 relative even when x << lam
        return (
            0.0 <= x <= lam
            and 0.0 <= y <= lam * sin_th
            and r2 <= lam * lam
            and r2 <= 2.0 * lam * x
        )

    hi = max(1.0, 2.0 * math.hypot(x, y))
    for _ in range(200):
        if member(hi):
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise AssertionError("bisection oracle failed to bracket the contact scale")
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def oracle_local_coords(xy: np.ndarray, o: int, p: Point, reflected: bool) -> tuple[np.ndarray, float]:
    """Unit-local coordinates of all points (apex at origin, p at (1,0))."""
    ox, oy = xy[o]
    s = math.hypot(p.x - ox, p.y - oy)
    if s <= 0.0:
        raise GeometryError("degenerate placement: p coincides with the apex")
    orient = math.atan2(p.y - oy, p.x - ox)
    c = math.cos(orient)
    sn = math.sin(orient)
    dx = xy[:, 0] - ox
    dy = xy[:, 1] - oy
    lx = (c * dx + sn * dy) / s
    ly = (-sn * dx + c * dy) / s
    if reflected:
        ly = -ly
    return np.column_stack([lx, ly]), s


def oracle_harvest(ty) -> list[tuple[DescentFrame, int]]:
    """Per-frame harvest reference: every selection frame maps all points to
    its local coordinates and tests the witness conditions on each."""
    k = ty.k
    grid = TWO_PI / k
    xy = ty.xy
    configs: list[tuple[DescentFrame, int]] = []
    for (t, h), frame_list in sorted(ty.ty_frames.items()):
        s = math.hypot(xy[h, 0] - xy[t, 0], xy[h, 1] - xy[t, 1])
        for j, reflected in frame_list:
            orient = j * grid
            p = Point(xy[t, 0] + s * math.cos(orient), xy[t, 1] + s * math.sin(orient))
            local, _ = oracle_local_coords(xy, t, p, reflected)
            lx = local[:, 0]
            ly = local[:, 1]
            phi_ap = np.arctan2(-ly, 1.0 - lx)
            ok = (
                (lx > 0.0)
                & (lx < 1.0)
                & (ly <= 0.0)
                & (phi_ap > 0.0)
                & (phi_ap < math.pi / 6)
            )
            ok[t] = False
            for a in np.flatnonzero(ok):
                configs.append((DescentFrame(t, p, reflected), int(a)))
    return configs


@pytest.fixture
def square_corners() -> list[Point]:
    return [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
