"""Constructive path algorithms over the built graphs.

Two algorithms live here.  The greedy overlapping-Yao path walks toward the
target through the cone that encloses it (shifted by pi/4), following the
edge the construction selected there; its hop-by-hop certificate is the
non-increasing quantity tau * remaining-distance + accumulated-length.

The trapezoid descent walks from a witness point ``a`` to a frame apex ``o``
by repeatedly growing a mirrored trapezoid toward ``o`` and either taking the
trapezoidal-Yao edge it certifies (critical-arc hit) or splicing in a greedy
overlapping-Yao subpath.  Its audit quantity is the potential
x + (2*tau + 1)*|y| - remaining-length, evaluated in frame-local units where
the placed trapezoid has unit width; the potential never increases and ends
at zero, which yields the descent length bound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

import numpy as np

from .analysis import tau_bound
from .build import ConeGraph, Family
from .geometry import (
    TWO_PI,
    GeometryError,
    Point,
    _greedy_cone,
    normalize_angle,
)


class InvariantViolation(RuntimeError):
    """An algorithm step contradicted a structural guarantee (construction bug)."""


class StepKind(str, Enum):
    DIRECT_TY_EDGE = "direct_ty_edge"
    OY_SUBPATH = "oy_subpath"
    FINAL_OY_SUBPATH = "final_oy_subpath"
    OY_HOP = "oy_hop"


class StepAudit(NamedTuple):
    """One audited step: its kind, length, and the audit quantity before and
    after (phi_after <= phi_before + eps must hold).  ``psi`` records the
    growth-ray direction for descent steps."""

    kind: StepKind
    length: float
    phi_before: float
    phi_after: float
    psi: float | None = None


@dataclass(frozen=True)
class PathTrace:
    """An ordered vertex walk with per-step audit records.

    Consecutive vertices are joined by edges of the graph(s) the trace was
    built from; total_length equals the sum of step lengths.  Descent traces
    measure lengths in frame-local units (|op| = 1); greedy traces use the
    input coordinates' units.
    """

    vertices: tuple[int, ...]
    steps: tuple[StepAudit, ...]
    total_length: float


def phi_potential(point_local: Point, accumulated_length: float, tau: float) -> float:
    """Descent potential x + (2*tau + 1)*|y| - l at a frame-local point, where
    l is the length of the constructed path from the point to the apex."""
    if tau < 1.0:
        raise GeometryError(f"tau must be >= 1, got {tau}")
    return point_local.x + (2.0 * tau + 1.0) * abs(point_local.y) - accumulated_length


def oy_greedy_path(graph: ConeGraph, u: int, v: int) -> PathTrace:
    """Constructive path from u to v in an overlapping-Yao graph.

    Each hop locates the narrow cone containing v after a pi/4 shift, then
    follows the edge selected in the widened cone with the same index; the
    head is strictly closer to v than the current vertex, and the total
    length never exceeds tau_bound(k) * |uv|.
    """
    if graph.family is not Family.OVERLAPPING_YAO:
        raise GeometryError(f"greedy path requires an overlapping-Yao graph, got {graph.family.value}")
    if graph.cone_choice is None:
        raise GeometryError("greedy path requires the overlapping-Yao selection table (cone_choice)")
    n = graph.n
    if not (0 <= u < n and 0 <= v < n):
        raise GeometryError(f"vertex index out of range: u={u}, v={v}, n={n}")
    if u == v:
        raise GeometryError("path endpoints must differ")
    tau = tau_bound(graph.k)
    vertices, hops, remaining, total = _greedy_walk(graph, u, v)
    steps = []
    acc = 0.0
    for hop, before, after in zip(hops, remaining, remaining[1:]):
        phi_before = tau * before + acc
        acc += hop
        steps.append(StepAudit(StepKind.OY_HOP, hop, phi_before, tau * after + acc))
    return PathTrace(tuple(vertices), tuple(steps), total)


def _greedy_walk(graph: ConeGraph, u: int, v: int) -> tuple[list[int], list[float], list[float], float]:
    """The greedy route of :func:`oy_greedy_path` on valid arguments, with no
    step records: its vertices, its hop lengths, the distances to v before
    the first hop and after each, and the hop lengths summed front to back.

    Raises InvariantViolation where the selection table names no edge of the
    graph, where a hop does not strictly approach v, and past n hops.
    """
    k, n = graph.k, graph.n
    xy, choice, edges = graph.xy.item, graph.cone_choice.item, graph.edge_pairs
    vx, vy = xy(v, 0), xy(v, 1)
    cur, cx, cy = u, xy(u, 0), xy(u, 1)
    left = math.hypot(vx - cx, vy - cy)
    vertices, hops, remaining = [u], [], [left]
    total = 0.0
    for _ in range(n):
        if cur == v:
            return vertices, hops, remaining, total
        j = _greedy_cone(k, vx - cx, vy - cy)
        head = choice(cur, j)
        if head < 0 or (cur, head) not in edges:
            raise InvariantViolation(
                f"expected an overlapping-Yao edge from {cur} in cone {j} toward {v}"
            )
        hx, hy = xy(head, 0), xy(head, 1)
        hop = math.hypot(hx - cx, hy - cy)
        new_left = math.hypot(vx - hx, vy - hy)
        if head != v and new_left >= left:
            raise InvariantViolation(
                f"greedy hop {cur}->{head} did not approach target {v} "
                f"({new_left} >= {left})"
            )
        total += hop
        vertices.append(head)
        hops.append(hop)
        remaining.append(new_left)
        cur, cx, cy, left = head, hx, hy, new_left
    raise InvariantViolation(f"greedy path from {u} to {v} exceeded {n} hops")


@cache
def _grid_directions(k: int) -> np.ndarray:
    """Cosines (row 0) and sines (row 1) of the grid directions j*2*pi/k.
    Scalar ``math`` on purpose, so the table does not depend on how numpy
    vectorizes cos and sin; read-only, as every caller shares it."""
    grid = TWO_PI / k
    table = np.array([[math.cos(j * grid) for j in range(k)], [math.sin(j * grid) for j in range(k)]])
    table.flags.writeable = False
    return table


def _placement(ty: ConeGraph, o, f):
    """Scale |op|, cosine and sine of the orientation of o->p, and mirror
    sign (-1.0 when ``f >= k``, else 1.0) of frame ``(o, f)``'s unit-local
    map, for single indices or for index arrays elementwise.  p lies on the
    grid direction ``f % k`` at the distance of the first hit
    ``ty_head[o, f]``, so the orientation is read off the grid table, never
    taken back from p - o.  numpy's hypot rounds a scalar as it rounds an
    array element, so the harvest and the descent place a frame alike."""
    xy, h, j = ty.xy, ty.ty_head[o, f], f % ty.k
    cos, sin = _grid_directions(ty.k)
    s = np.hypot(xy[h, 0] - xy[o, 0], xy[h, 1] - xy[o, 1])
    return s, cos[j], sin[j], 1.0 - 2.0 * (f >= ty.k)


def _to_local(dx, dy, s, c, sn, flip):
    """Unit-local coordinates (apex at origin, p at (1, 0)) of the offsets
    (dx, dy) from the apex, given a placement's scale, cosine and sine;
    ``flip`` is -1.0 for a mirrored frame and 1.0 otherwise.  Elementwise, so
    per-frame columns broadcast against a row of offsets."""
    return (c * dx + sn * dy) / s, (-sn * dx + c * dy) / s * flip


def _is_witness(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """Elementwise witness conditions 0 < x < 1, y <= 0 and
    0 < phi(a->p) < pi/6 on unit-local coordinates.  The descent's
    precondition (``_descent_start``) evaluates the same expressions on
    one-element arrays, so a point whose angle to p rounds onto pi/6 is
    judged alike by the harvest and the descent."""
    phi_ap = np.arctan2(-ly, 1.0 - lx)
    return (lx > 0.0) & (lx < 1.0) & (ly <= 0.0) & (phi_ap > 0.0) & (phi_ap < math.pi / 6)


def ty_descent_path(
    ty: ConeGraph,
    oy: ConeGraph,
    cell: int,
    a: int,
) -> PathTrace:
    """Descent path from witness ``a`` to the apex ``o`` of frame ``cell``
    (``cell = o * 2k + f``, as the harvest names it) through TY edges and
    greedy OY subpaths; lengths are in frame-local units (|op| = 1).

    Each growth step, a mirrored trapezoid grown from the current vertex
    toward the apex, is one of build_ty's frames, so its first hit and
    whether that hit is critical are read from the graph's first-contact
    table.  Preconditions (each named on violation): ``oy`` and ``ty`` share
    the point set and parameter; the frame is a critical cell of that table,
    so its first hit lies at distance |op| and the placed unit trapezoid is
    empty by construction; and in unit-local coordinates 0 < x_a < 1,
    y_a <= 0, 0 < phi(a->p) < pi/6.
    """
    o, f0, placement, ax, ay = _descent_start(ty, cell, a)
    a = int(a)
    if oy.family is not Family.OVERLAPPING_YAO:
        raise GeometryError(f"descent requires an overlapping-Yao graph, got {oy.family.value}")
    if oy.cone_choice is None:
        raise GeometryError("descent requires the overlapping-Yao selection table (cone_choice)")
    if oy.k != ty.k or not np.array_equal(oy.xy, ty.xy):
        raise GeometryError("the two graphs must share the point set and parameter k")
    k = ty.k
    tau = tau_bound(k)
    n = ty.n
    j0, reflected = f0 % k, f0 >= k

    xy = ty.xy
    x0, y0 = xy[o]
    scale = placement[0]

    def local(v: int) -> tuple[float, float]:
        return _to_local(xy[v, 0] - x0, xy[v, 1] - y0, *placement)

    grid = TWO_PI / k
    five_sixth = 5.0 * math.pi / 6.0
    at = {a: (ax, ay), o: local(o)}  # unit-local coordinates of the walk's vertices
    vertices = [a]
    # (kind, local length, from-vertex, to-vertex, psi)
    raw_steps: list[tuple[StepKind, float, int, int, float | None]] = []
    cur = a
    for _ in range(n):
        if cur == o:
            break
        cx, cy = at[cur]
        phi_uo = normalize_angle(math.atan2(-cy, -cx))
        if phi_uo <= five_sixth:
            break
        j = int(phi_uo / grid)
        while j * grid <= phi_uo:  # strict: exact multiples step to the next ray
            j += 1
        psi = j * grid
        # the trapezoid grown along local direction psi, mirrored in local
        # coordinates, is the global frame at orient +- psi of opposite mirror
        f = (j0 - j) % k if reflected else k + (j0 + j) % k
        win = int(ty.ty_head[cur, f])
        if win < 0:
            raise InvariantViolation("trapezoid growth found no candidate point")
        at[win] = wx, wy = local(win)
        d_cur = math.hypot(cx, cy)
        d_win = math.hypot(wx, wy)
        if d_win >= d_cur:
            raise InvariantViolation(
                f"descent step {cur}->{win} did not approach the apex ({d_win} >= {d_cur})"
            )
        if ty.ty_critical[cur, f]:  # a TY edge is certified
            if not ty.has_edge(cur, win):
                raise InvariantViolation(
                    f"descent expected trapezoidal-Yao edge {cur}->{win}, not present"
                )
            hop = float(np.hypot(wx - cx, wy - cy))
            raw_steps.append((StepKind.DIRECT_TY_EDGE, hop, cur, win, psi))
            vertices.append(win)
        else:
            sub, *_, sub_length = _greedy_walk(oy, cur, win)
            raw_steps.append((StepKind.OY_SUBPATH, sub_length / scale, cur, win, psi))
            vertices.extend(sub[1:])
        cur = win
    else:
        raise InvariantViolation(f"descent from {a} exceeded {n} iterations")
    if cur != o:
        sub, *_, sub_length = _greedy_walk(oy, cur, o)
        raw_steps.append((StepKind.FINAL_OY_SUBPATH, sub_length / scale, cur, o, None))
        vertices.extend(sub[1:])

    total = sum(s[1] for s in raw_steps)
    # audit pass: remaining-length to the apex decreases front to back
    steps = []
    remaining = total
    for kind, seg, u_idx, v_idx, psi in raw_steps:
        phi_before = phi_potential(Point(*at[u_idx]), remaining, tau)
        remaining -= seg
        phi_after = phi_potential(Point(*at[v_idx]), remaining, tau)
        steps.append(StepAudit(kind, seg, phi_before, phi_after, psi))
    return PathTrace(tuple(vertices), tuple(steps), total)


def descent_length_bound(ty: ConeGraph, cell: int, a: int) -> float:
    """Guaranteed ceiling x_a + (2*tau + 1)*|y_a| on the descent length, in
    the same frame-local units the trace reports, for a configuration that
    meets the descent's preconditions (see :func:`ty_descent_path`)."""
    *_, ax, ay = _descent_start(ty, cell, a)
    return phi_potential(Point(float(ax), float(ay)), 0.0, tau_bound(ty.k))


def _descent_start(ty: ConeGraph, cell: int, a: int):
    """Apex ``o`` and table column ``f`` of frame ``cell`` (as Python ints),
    its placement (as :func:`_placement`) and the unit-local coordinates of
    ``a`` in it, after checking that the cell is a critical cell of ``ty``'s
    first-contact table and that ``a`` is a witness of it; each violated
    condition is named."""
    if ty.family is not Family.TRAPEZOIDAL_YAO:
        raise GeometryError(f"descent requires a trapezoidal-Yao graph, got {ty.family.value}")
    if ty.ty_head is None:
        raise GeometryError("descent requires the trapezoidal-Yao first-contact table (ty_head)")
    # a critical frame's first hit is at distance |op|, and a dilation is
    # never below distance, so no point enters the placed shape before it
    cell = int(cell)
    if not (0 <= cell < ty.ty_critical.size and ty.ty_critical.flat[cell]):
        raise GeometryError(f"precondition failed: frame {cell} selected no trapezoidal-Yao edge")
    o, f = divmod(cell, 2 * ty.k)
    n = ty.n
    if not 0 <= a < n:
        raise GeometryError(f"vertex index out of range: a={a}, n={n}")
    if a == o:
        raise GeometryError("witness must differ from the apex")
    xy = ty.xy
    placement = _placement(ty, o, f)
    ax, ay = _to_local(xy[a, 0] - xy[o, 0], xy[a, 1] - xy[o, 1], *placement)
    if not (0.0 < ax < 1.0):
        raise GeometryError(f"precondition failed: 0 < x_a < 1 (got x_a={ax})")
    if ay > 0.0:
        raise GeometryError(f"precondition failed: y_a <= 0 (got y_a={ay})")
    # the last clause of _is_witness, on arrays as the harvest evaluates it
    phi_ap = np.arctan2(np.array([-ay]), np.array([1.0 - ax]))[0]
    if not (0.0 < phi_ap < math.pi / 6):
        raise GeometryError(f"precondition failed: 0 < phi(a->p) < pi/6 (got {phi_ap})")
    return o, f, placement, ax, ay


# Relative slack on the harvest's pruning radius: far above the few ulps by
# which the local map can misplace a point, far below any distance it prunes.
_REACH_REL = 1e-6
# Most frames the harvest places at once: a lazy walk places only the blocks
# it reaches, and a full harvest holds one block's placements at a time.
_BLOCK = 1 << 12
# About how many screened (frame, point) pairs one local-map pass tests: it
# spreads numpy's per-call cost over the many small tails of uniform input,
# and four times as many slowed co-circular input, whose tails are large.
_PAIRS = 1 << 13


def harvest_descent_configs(ty: ConeGraph) -> np.ndarray:
    """Collect real descent configurations from a built trapezoidal-Yao
    graph: for every edge and every frame that selected it, the placed
    trapezoid is empty by construction, and every point meeting the witness
    conditions in that placement qualifies.

    Returns an (m, 2) int32 array of ``(cell, witness)`` rows.  A frame is
    named by its cell ``o * 2k + f`` in build_ty's (n, 2k) first-contact
    table, so ``ty_head.flat[cell]`` is its first hit.  Rows come in edge
    order (tail, then head), then in each edge's frame order, then by
    witness index.  Each frame is tested only against the points within its
    own |op| of its tail.  ``_iter_descent_configs`` yields the same rows
    lazily, one tail at a time, for callers that walk only a prefix.
    """
    return np.concatenate([np.empty((0, 2), np.int32), *_iter_descent_configs(ty)])


def _iter_descent_configs(ty: ConeGraph) -> Iterator[np.ndarray]:
    """The rows of :func:`harvest_descent_configs`, in its order, as one
    chunk per tail vertex that has any, harvested as they are consumed.

    Frames are placed a block of whole tails at a time, when the walk
    reaches the block's first tail, and a batch of whole tails is tested
    before their chunks are yielded, so a caller that stops after the first
    tails places and tests only the blocks and batches they fall in."""
    if ty.family is not Family.TRAPEZOIDAL_YAO or ty.ty_critical is None:
        raise GeometryError("harvest requires a trapezoidal-Yao graph built by build_ty")
    xy = ty.xy
    cells = np.flatnonzero(ty.ty_critical)
    # edge order, then frame order: flatnonzero lists each tail's frames in
    # order, and a stable sort keeps it
    order = np.argsort(cells // (2 * ty.k) * ty.n + ty.ty_head.flat[cells], kind="stable")
    cells = cells[order]
    tails, fs = np.divmod(cells, 2 * ty.k)
    bounds = np.flatnonzero(np.diff(tails, prepend=-1)).tolist() + [len(tails)]

    def tested(pending, start, end, s, c, sn, flip) -> Iterator[np.ndarray]:
        # the witnesses among the screened pairs of consecutive whole tails,
        # in one pass, then one chunk per tail that has any
        los, rows, a, dx, dy = zip(*pending)
        rows, a, dx, dy = map(np.concatenate, (rows, a, dx, dy))
        ok = _is_witness(*_to_local(dx, dy, s[rows], c[rows], sn[rows], flip[rows]))
        rows = rows[ok] + start
        found = np.empty((len(rows), 2), np.int32)
        found[:, 0], found[:, 1] = cells[rows], a[ok]
        cut = np.searchsorted(rows, los + (end,)).tolist()
        for x, y in zip(cut, cut[1:]):
            if y > x:
                yield found[x:y]

    start = end = 0  # placed frames: whole tails, at most _BLOCK unless one tail has more
    pending, size = [], 0  # screened pairs of the tails not yet tested
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > end:
            start, end = lo, max(hi, bounds[np.searchsorted(bounds, lo + _BLOCK, "right") - 1])
            placement = _placement(ty, tails[start:end], fs[start:end])
            # A witness lies in the local triangle o, p, o + |op|*(0, -1/sqrt(3))
            # (0 < x < 1, y <= 0, 0 < phi(a->p) < pi/6), whose farthest
            # point from o is p, so only points within the frame's own
            # |op| can qualify.  The screen compares squares: the absolute
            # slack covers their rounding below the normal range, a reach
            # whose square overflows passes every point, and a distance
            # whose square overflows lies beyond every finite reach.
            with np.errstate(over="ignore"):
                reach = (placement[0] * (1.0 + _REACH_REL)) ** 2 + 1e-300
        t = tails[lo]
        adx = xy[:, 0] - xy[t, 0]
        ady = xy[:, 1] - xy[t, 1]
        with np.errstate(over="ignore"):
            d = adx * adx + ady * ady
        own = reach[lo - start : hi - start]
        near = np.flatnonzero(d <= own.max())
        near = near[near != t]
        # (frame, point) pairs within the frame's reach, frame then point order
        rows, cols = np.nonzero(d[near] <= own[:, None])
        rows += lo - start
        a = near[cols]
        pending.append((lo, rows, a, adx[a], ady[a]))
        size += len(a)
        # test in batches of about _PAIRS pairs, and before the next placement
        if size >= _PAIRS or hi == end:
            yield from tested(pending, start, end, *placement)
            pending, size = [], 0
