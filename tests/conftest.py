"""Shared fixtures and independent scalar oracles for the builders.

The oracles deliberately avoid the vectorized production code paths: they
loop over points with the scalar geometry operations only.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from conespan.build import ConeGraph, Family, _cone_index_arr, _from_choice, as_point_array, edge_array
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
    HALF_PI,
    _dilation,
    _in_trapezoid_arr,
    on_critical_arc,
    scale_to_hit,
    theta,
    HitPart,
)
from conespan.analysis import tau_bound
from conespan.paths import InvariantViolation, PathTrace, StepAudit, StepKind


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


def _candidate_polar(xy: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, distances, and normalized polar angles of all points but i, seen from i."""
    cand = np.concatenate([np.arange(i), np.arange(i + 1, xy.shape[0])])
    r, phi = _polar_arr(*(xy[cand] - xy[i]).T)
    return cand, r, phi


def dense_build_yao(points: list[Point], k: int) -> ConeGraph:
    """Dense Yao scan: every vertex sorts all its candidates by (distance,
    angle, index) and keeps the first per cone.  The reference for
    build_yao's pruned sweep, which must match its selection table exactly."""
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    xy = as_point_array(points)
    choice = np.full((xy.shape[0], k), -1, dtype=np.int64)
    for i in range(xy.shape[0]):
        cand, r, phi = _candidate_polar(xy, i)
        order = np.lexsort((cand, phi, r))
        cones, first = np.unique(_cone_index_arr(k, phi)[order], return_index=True)
        choice[i, cones] = cand[order[first]]
    return _from_choice(Family.YAO, xy, choice)


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
    return ConeGraph(xy, k, Family.TRAPEZOIDAL_YAO, edges, ty_head=head, ty_lam=lam, ty_critical=critical)


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


def covers_sector_check(th: float, gam: float, n_samples: int, seed: int) -> bool:
    """Sampled test that two mirrored trapezoid copies cover the unit sector:
    the oracle for the closed-form criterion of ``verify.check_sector_cover``.

    The sector is the interior of D(o,1) cut to directions (0, gam); the two
    copies are the shape itself and its mirror rotated to hang from the upper
    sector boundary.  Requires 2*theta >= gamma >= pi/2 and theta in
    [pi/4, pi/3).
    """
    if not (math.pi / 4 <= th < math.pi / 3):
        raise GeometryError(f"theta must lie in [pi/4, pi/3), got {th}")
    if not (HALF_PI <= gam <= 2.0 * th):
        raise GeometryError(f"gamma must satisfy pi/2 <= gamma <= 2*theta, got gamma={gam}, theta={th}")
    if n_samples < 1:
        raise GeometryError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n_samples)
    phi = gam * u
    r = np.sqrt(1.0 - rng.random(n_samples))  # area-uniform, radius in (0, 1]
    interior = (u > 0.0) & (r < 1.0)  # drop measure-zero boundary draws
    x = r * np.cos(phi)
    y = r * np.sin(phi)
    in_first = _in_trapezoid_arr(th, x, y)
    # second copy: rotate by -gamma, then mirror across the x-axis
    cg = math.cos(gam)
    sg = math.sin(gam)
    xr = cg * x + sg * y
    yr = sg * x - cg * y
    in_second = _in_trapezoid_arr(th, xr, yr)
    return bool(np.all(in_first[interior] | in_second[interior]))


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


def brute_force_stretch(points, edges) -> float:
    """Independent stretch oracle: exhaustive all-pairs relaxation
    (Floyd-Warshall) over the undirected support, for n <= 12 points.

    ``edges`` holds (tail, head) pairs; weights are recomputed from the
    coordinates.
    """
    xy = as_point_array(points)
    n = xy.shape[0]
    if n > 12:
        raise GeometryError(f"brute-force oracle is limited to n <= 12, got {n}")
    if n < 2:
        raise GeometryError("stretch needs at least 2 points")
    w = np.full((n, n), math.inf)
    np.fill_diagonal(w, 0.0)
    for t, h in edges:
        d = math.hypot(xy[h, 0] - xy[t, 0], xy[h, 1] - xy[t, 1])
        if d < w[t, h]:
            w[t, h] = w[h, t] = d
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                via = w[i, mid] + w[mid, j]
                if via < w[i, j]:
                    w[i, j] = via
    best = 1.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, w[i, j] / math.hypot(xy[j, 0] - xy[i, 0], xy[j, 1] - xy[i, 1]))
    return float(best)


def _angle_at(a: Point, b: Point, c: Point) -> float:
    """Unsigned angle at vertex ``a`` between rays a->b and a->c, in [0, pi]."""
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    return abs(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))


def ratio_oracle(u: Point, v: Point, w: Point, tau: float) -> float:
    """The ratio |uw| / (|uv| - tau*|vw|) under its validity conditions:
    tau >= 1, tau*|vw| < |uv|, and both base angles at u and v below pi/2."""
    if tau < 1.0:
        raise GeometryError(f"tau must be >= 1, got {tau}")
    duv = dist(u, v)
    if duv == 0.0:
        raise GeometryError("u and v must be distinct")
    dvw = dist(v, w)
    if tau * dvw >= duv:
        raise GeometryError(f"requires tau*|vw| < |uv| (got {tau * dvw} >= {duv})")
    duw = dist(u, w)
    if dvw > 0.0:
        ang_u = _angle_at(u, w, v)
        ang_v = _angle_at(v, w, u)
        if ang_u >= math.pi / 2 or ang_v >= math.pi / 2:
            raise GeometryError(
                f"base angles must lie in [0, pi/2) (got {ang_u} at u, {ang_v} at v)"
            )
    return duw / (duv - tau * dvw)


def first_contact(alpha: np.ndarray, r: np.ndarray, sin_th: float) -> np.ndarray:
    """First-contact dilation (geometry._dilation) of points at distance
    ``r`` and local polar angle ``alpha`` over the whole broadcast shape:
    +inf where alpha lies outside [0, pi/2) or r == 0 (the apex itself is
    never hit)."""
    alpha, r = np.broadcast_arrays(alpha, r)
    valid = (alpha >= 0.0) & (alpha < HALF_PI) & (r > 0.0)
    lam = np.full(valid.shape, np.inf)
    lam[valid] = _dilation(alpha[valid], r[valid], sin_th)
    return lam


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


def oracle_local_coords(ty: ConeGraph, cell: int) -> tuple[np.ndarray, float]:
    """Unit-local coordinates of all points (apex at origin, p at (1,0)) in
    the placement of table cell ``o * 2k + f``: p lies on orientation
    ``f % k`` at the distance of the cell's first hit, mirrored for f >= k."""
    k = ty.k
    xy = ty.xy
    o, f = divmod(int(cell), 2 * k)
    ox, oy = xy[o]
    hx, hy = xy[ty.ty_head[o, f]]
    # numpy's hypot, as the descent's: math.hypot differs from it in the
    # last bit on about 0.6 % of inputs, and the walks are compared exactly
    s = float(np.hypot(hx - ox, hy - oy))
    orient = (f % k) * (TWO_PI / k)
    c = math.cos(orient)
    sn = math.sin(orient)
    dx = xy[:, 0] - ox
    dy = xy[:, 1] - oy
    lx = (c * dx + sn * dy) / s
    ly = (-sn * dx + c * dy) / s
    if f >= k:
        ly = -ly
    return np.column_stack([lx, ly]), s


def oracle_harvest(ty) -> np.ndarray:
    """Per-frame harvest reference, as (cell, witness) rows in the harvest's
    (m, 2) int32 form: every selection frame maps all points to its local
    coordinates and tests the witness conditions on each."""
    configs: list[tuple[int, int]] = []
    for (t, _), frame_list in sorted(ty.ty_frames.items()):
        for j, reflected in frame_list:
            cell = t * 2 * ty.k + reflected * ty.k + j
            local, _ = oracle_local_coords(ty, cell)
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
            configs.extend((cell, int(a)) for a in np.flatnonzero(ok))
    return np.array(configs, np.int32).reshape(-1, 2)


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


def exactly_nearer(a: np.ndarray, b: np.ndarray, target: np.ndarray) -> bool:
    """Whether point a is strictly nearer target than point b is, in exact
    rational arithmetic on the coordinates."""
    (ax, ay), (bx, by), (tx, ty) = ([Fraction(c) for c in p.tolist()] for p in (a, b, target))
    return (ax - tx) ** 2 + (ay - ty) ** 2 < (bx - tx) ** 2 + (by - ty) ** 2


def oracle_greedy_path(graph: ConeGraph, u: int, v: int) -> PathTrace:
    """Reference greedy overlapping-Yao route from u to v, one hop at a time
    with the scalar angle rule: the cone index of the direction toward v,
    shifted by pi/4, through normalize_angle and cone_index.  Expects valid
    arguments; raises InvariantViolation with the production messages."""
    k, n = graph.k, graph.n
    tau = tau_bound(k)
    xy = graph.xy
    vx, vy = xy[v].tolist()
    vertices = [u]
    steps = []
    acc = 0.0
    cur = u
    cx, cy = xy[cur].tolist()
    remaining = math.hypot(vx - cx, vy - cy)
    for _ in range(n):
        if cur == v:
            break
        shifted = normalize_angle(normalize_angle(math.atan2(vy - cy, vx - cx)) - math.pi / 4)
        j = cone_index(k, shifted)
        head = int(graph.cone_choice[cur, j])
        if head < 0 or not graph.has_edge(cur, head):
            raise InvariantViolation(
                f"expected an overlapping-Yao edge from {cur} in cone {j} toward {v}"
            )
        hx, hy = xy[head].tolist()
        hop = math.hypot(hx - cx, hy - cy)
        new_remaining = math.hypot(vx - hx, vy - hy)
        if head != v and new_remaining >= remaining and not exactly_nearer(xy[head], xy[cur], xy[v]):
            raise InvariantViolation(
                f"greedy hop {cur}->{head} did not approach target {v} "
                f"({new_remaining} >= {remaining})"
            )
        phi_before = tau * remaining + acc
        acc += hop
        phi_after = tau * new_remaining + acc
        steps.append(StepAudit(StepKind.OY_HOP, hop, phi_before, phi_after))
        vertices.append(head)
        cur, cx, cy = head, hx, hy
        remaining = new_remaining
    else:
        raise InvariantViolation(f"greedy path from {u} to {v} exceeded {n} hops")
    return PathTrace(tuple(vertices), tuple(steps), acc)


def oracle_descent_walk(ty: ConeGraph, oy: ConeGraph, cell: int, a: int):
    """Reference trapezoid descent that finds each growth step by first
    contact over all points in the frame's unit-local coordinates instead of
    reading build_ty's table.  Returns the vertex walk and the (kind, length,
    psi) of each step; raises InvariantViolation where a critical-arc hit is
    not a trapezoidal-Yao edge."""
    local, scale = oracle_local_coords(ty, cell)
    o = int(cell) // (2 * ty.k)
    sin_th = math.sin(theta(ty.k))
    grid = TWO_PI / ty.k
    vertices, steps, cur = [a], [], a
    for _ in range(ty.n):
        phi_uo = normalize_angle(math.atan2(-local[cur, 1], -local[cur, 0]))
        if cur == o or phi_uo <= 5.0 * math.pi / 6.0:
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
            sub = oracle_greedy_path(oy, cur, win)
            steps.append((StepKind.OY_SUBPATH, sub.total_length / scale, j * grid))
            vertices.extend(sub.vertices[1:])
        cur = win
    else:
        raise InvariantViolation(f"oracle descent from {a} exceeded {ty.n} iterations")
    if cur != o:
        sub = oracle_greedy_path(oy, cur, o)
        steps.append((StepKind.FINAL_OY_SUBPATH, sub.total_length / scale, None))
        vertices.extend(sub.vertices[1:])
    return tuple(vertices), steps


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process behind, running or exited:
    every process a test starts must have been reaped when the test ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped ({f'pid {pid}' if pid else 'still running'})")


@pytest.fixture
def square_corners() -> list[Point]:
    return [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
