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
    _polar_arr,
    ccw_diff,
    cone_index,
    dist,
    gamma,
    normalize_angle,
    polar_angle,
    first_contact,
    on_critical_arc,
    scale_to_hit,
    theta,
    HitPart,
)
from conespan.paths import DescentFrame, InvariantViolation, StepKind, oy_greedy_path


def random_points(n: int, seed: int, scale: float = 1.0) -> list[Point]:
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.random((n, 2)) * scale]


def triangular_lattice(m: int) -> list[Point]:
    """m rows of m points at unit spacing, odd rows shifted by one half."""
    return [Point(i + 0.5 * (j % 2), j * math.sqrt(3) / 2) for j in range(m) for i in range(m)]


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
    pruned sweep, which must match its whole first-contact table exactly."""
    th = theta(k)  # also enforces k > 24
    xy = as_point_array(points)
    n = xy.shape[0]
    sin_th = np.sin(th)
    psi = np.arange(k) * (TWO_PI / k)
    head = np.full((n, 2 * k), -1, dtype=np.int64)
    lam = np.full((n, 2 * k), np.inf)
    critical = np.zeros((n, 2 * k), dtype=bool)
    for i in range(n):
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
            dil = first_contact(alpha, r[:, None], sin_th)
            rows = np.argmin(dil, axis=0)
            best = dil[rows, np.arange(k)]
            cols = slice(reflected * k, (reflected + 1) * k)
            head[i, cols] = np.where(np.isfinite(best), cand[rows], -1)
            lam[i, cols] = best
            critical[i, cols] = on_critical_arc(best, r[rows])
    tails, fs = np.nonzero(critical)
    edges = edge_array(tails, head[tails, fs], n)
    return ConeGraph(
        tuple(points), xy, k, Family.TRAPEZOIDAL_YAO, edges, ty_head=head, ty_lam=lam, ty_critical=critical
    )


def trapezoid_contains(th: float, x: float, y: float, scale: float = 1.0, closed: bool = False) -> bool:
    """Membership in the curved trapezoid with cap angle ``th`` scaled by ``scale``.

    The open shape is {0 < x < s, 0 < y < s sin(th), x^2+y^2 < s^2,
    (x-s)^2 + y^2 < s^2}; ``closed`` tests the closure instead.
    """
    s = scale
    if closed:
        return (
            0.0 <= x <= s
            and 0.0 <= y <= s * math.sin(th)
            and x * x + y * y <= s * s
            and (x - s) * (x - s) + y * y <= s * s
        )
    return (
        0.0 < x < s
        and 0.0 < y < s * math.sin(th)
        and x * x + y * y < s * s
        and (x - s) * (x - s) + y * y < s * s
    )


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


def oracle_first_contact(local: np.ndarray, cur: int, psi: float, sin_th: float) -> tuple[int, float, float]:
    """First point hit by the trapezoid grown from ``cur`` along direction
    ``psi``, mirrored in the local coordinates ``local`` of all points, under
    the builders' tie-break.  Returns (index, lam, r)."""
    r, phi = _polar_arr(local[:, 0] - local[cur, 0], local[:, 1] - local[cur, 1])
    lam = first_contact(np.mod(psi - phi, TWO_PI), r, sin_th)
    best = np.flatnonzero(lam == lam.min())
    win = int(best[np.argmin(phi[best])])  # ties go to the smaller angle, then index
    if not np.isfinite(lam[win]):
        raise InvariantViolation("trapezoid growth found no candidate point")
    return win, float(lam[win]), float(r[win])


def oracle_descent_walk(ty: ConeGraph, oy: ConeGraph, frame: DescentFrame, a: int):
    """Reference trapezoid descent that finds each growth step by first
    contact over all points in the frame's unit-local coordinates instead of
    reading build_ty's table.  Returns the vertex walk and the (kind, length,
    psi) of each step; raises InvariantViolation where a critical-arc hit is
    not a trapezoidal-Yao edge."""
    local, scale = oracle_local_coords(ty.xy, frame.o, frame.p, frame.reflected)
    sin_th = math.sin(theta(ty.k))
    grid = TWO_PI / ty.k
    vertices, steps, cur = [a], [], a
    for _ in range(ty.n):
        phi_uo = normalize_angle(math.atan2(-local[cur, 1], -local[cur, 0]))
        if cur == frame.o or phi_uo <= 5.0 * math.pi / 6.0:
            break
        j = int(phi_uo / grid)
        while j * grid <= phi_uo:
            j += 1
        win, lam, r_win = oracle_first_contact(local, cur, j * grid, sin_th)
        if on_critical_arc(lam, r_win):
            if not ty.has_edge(cur, win):
                raise InvariantViolation(f"critical hit {cur}->{win} is not a trapezoidal-Yao edge")
            steps.append((StepKind.DIRECT_TY_EDGE, r_win, j * grid))
            vertices.append(win)
        else:
            sub = oy_greedy_path(oy, cur, win)
            steps.append((StepKind.OY_SUBPATH, sub.total_length / scale, j * grid))
            vertices.extend(sub.vertices[1:])
        cur = win
    else:
        raise InvariantViolation(f"oracle descent from {a} exceeded {ty.n} iterations")
    if cur != frame.o:
        sub = oy_greedy_path(oy, cur, frame.o)
        steps.append((StepKind.FINAL_OY_SUBPATH, sub.total_length / scale, None))
        vertices.extend(sub.vertices[1:])
    return tuple(vertices), steps


@pytest.fixture
def square_corners() -> list[Point]:
    return [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
