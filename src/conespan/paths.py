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
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Iterator

import numpy as np

from .analysis import tau_bound
from .build import ConeGraph, Family
from .geometry import (
    EPS_REL,
    TWO_PI,
    GeometryError,
    Point,
    _polar_arr,
    cone_index,
    dist,
    first_contact,
    normalize_angle,
    on_critical_arc,
    polar_angle,
    theta,
)


class InvariantViolation(RuntimeError):
    """An algorithm step contradicted a structural guarantee (construction bug)."""


class StepKind(str, Enum):
    DIRECT_TY_EDGE = "direct_ty_edge"
    OY_SUBPATH = "oy_subpath"
    FINAL_OY_SUBPATH = "final_oy_subpath"
    OY_HOP = "oy_hop"


@dataclass(frozen=True)
class StepAudit:
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
    diagnostics: tuple[str, ...] = ()


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
    if u == v:
        raise GeometryError("path endpoints must differ")
    n = graph.n
    if not (0 <= u < n and 0 <= v < n):
        raise GeometryError(f"vertex index out of range: u={u}, v={v}, n={n}")
    k = graph.k
    tau = tau_bound(k)
    points = graph.points
    target = points[v]

    vertices = [u]
    steps: list[StepAudit] = []
    acc = 0.0
    cur = u
    remaining = dist(points[cur], target)
    for _ in range(n):
        if cur == v:
            break
        shifted = normalize_angle(polar_angle(points[cur], target) - math.pi / 4)
        j = cone_index(k, shifted)
        head = int(graph.cone_choice[cur, j])
        if head < 0 or not graph.has_edge(cur, head):
            raise InvariantViolation(
                f"expected an overlapping-Yao edge from {cur} in cone {j} toward {v}"
            )
        hop = dist(points[cur], points[head])
        new_remaining = dist(points[head], target)
        if head != v and new_remaining >= remaining:
            raise InvariantViolation(
                f"greedy hop {cur}->{head} did not approach target {v} "
                f"({new_remaining} >= {remaining})"
            )
        phi_before = tau * remaining + acc
        acc += hop
        phi_after = tau * new_remaining + acc
        steps.append(StepAudit(StepKind.OY_HOP, hop, phi_before, phi_after))
        vertices.append(head)
        cur = head
        remaining = new_remaining
    else:
        raise InvariantViolation(f"greedy path from {u} to {v} exceeded {n} hops")
    return PathTrace(tuple(vertices), tuple(steps), acc)


@dataclass(frozen=True)
class DescentFrame:
    """Placement of the unit trapezoid for the descent: apex vertex ``o``,
    the location of the far bottom corner ``p`` (not necessarily an input
    point), and the mirror flag of the generating frame."""

    o: int
    p: Point
    reflected: bool


def _placement(ox: float, oy: float, p: Point) -> tuple[float, float, float, float]:
    """Per-frame scalars of the unit-local map with the apex at (ox, oy) and
    the far corner at ``p``: the scale |op|, the orientation of o->p, and its
    cosine and sine.  Scalar ``math`` on purpose: numpy's vectorized hypot and
    arctan2 differ from it in the last bit, which would move borderline
    points across the witness conditions."""
    s = math.hypot(p.x - ox, p.y - oy)
    if s <= 0.0:
        raise GeometryError("degenerate placement: p coincides with the apex")
    orient = math.atan2(p.y - oy, p.x - ox)
    return s, orient, math.cos(orient), math.sin(orient)


def _to_local(dx, dy, s, c, sn, flip):
    """Unit-local coordinates (apex at origin, p at (1, 0)) of the offsets
    (dx, dy) from the apex, given a placement's scale, cosine and sine;
    ``flip`` is -1.0 for a mirrored frame and 1.0 otherwise.  Elementwise, so
    per-frame columns broadcast against a row of offsets."""
    return (c * dx + sn * dy) / s, (-sn * dx + c * dy) / s * flip


def _first_contact(local: np.ndarray, cur: int, psi: float, sin_th: float) -> tuple[int, float, float]:
    """First point hit by the trapezoid grown from ``cur`` along direction
    ``psi`` (mirrored in local coordinates), under the builders' tie-break.
    Returns (index, lam, r)."""
    r, phi = _polar_arr(local[:, 0] - local[cur, 0], local[:, 1] - local[cur, 1])
    lam = first_contact(np.mod(psi - phi, TWO_PI), r, sin_th)
    best = np.flatnonzero(lam == lam.min())
    win = int(best[np.argmin(phi[best])])  # ties go to the smaller angle, then index
    if not np.isfinite(lam[win]):
        raise InvariantViolation("trapezoid growth found no candidate point")
    return win, float(lam[win]), float(r[win])


def ty_descent_path(
    ty: ConeGraph,
    oy: ConeGraph,
    frame: DescentFrame,
    a: int,
) -> PathTrace:
    """Descent path from witness ``a`` to apex ``frame.o`` through TY edges
    and greedy OY subpaths; lengths are in frame-local units (|op| = 1).

    Preconditions (each named on violation): ``oy`` and ``ty`` share the
    point set and parameter; the placement direction o->p lies on the
    construction grid; the placed unit trapezoid has an empty interior; and
    in unit-local coordinates 0 < x_a < 1, y_a <= 0, 0 < phi(a->p) < pi/6.
    """
    if ty.family is not Family.TRAPEZOIDAL_YAO:
        raise GeometryError(f"descent requires a trapezoidal-Yao graph, got {ty.family.value}")
    if ty.ty_frames is None:
        raise GeometryError("descent requires the trapezoidal-Yao selection frames (ty_frames)")
    if oy.family is not Family.OVERLAPPING_YAO:
        raise GeometryError(f"descent requires an overlapping-Yao graph, got {oy.family.value}")
    if oy.k != ty.k or oy.points != ty.points:
        raise GeometryError("the two graphs must share the point set and parameter k")
    k = ty.k
    th = theta(k)
    tau = tau_bound(k)
    n = ty.n
    o = frame.o
    if not (0 <= o < n and 0 <= a < n):
        raise GeometryError(f"vertex index out of range: o={o}, a={a}, n={n}")
    if a == o:
        raise GeometryError("witness must differ from the apex")

    xy = ty.xy
    x0, y0 = xy[o]
    scale, orient, c, sn = _placement(x0, y0, frame.p)
    flip = -1.0 if frame.reflected else 1.0
    local = np.column_stack(_to_local(xy[:, 0] - x0, xy[:, 1] - y0, scale, c, sn, flip))
    grid = TWO_PI / k
    j0 = round(normalize_angle(orient) / grid)
    if abs(normalize_angle(orient) - (j0 % k) * grid) > 1e-9 and abs(
        normalize_angle(orient) - j0 * grid
    ) > 1e-9:
        raise GeometryError("precondition failed: placement direction o->p must lie on the cone grid")

    # empty interior: no point may enter the unit shape strictly before scale 1
    # (boundary contact at scale 1 is allowed, hence the relative margin); the
    # angle is left unnormalized so points below the bottom side never enter
    sin_th = math.sin(th)
    r_all = np.hypot(local[:, 0], local[:, 1])
    lam_unit = first_contact(np.arctan2(local[:, 1], local[:, 0]), r_all, sin_th)
    inside = lam_unit < 1.0 - EPS_REL
    if np.any(inside):
        raise GeometryError(
            f"precondition failed: placed trapezoid interior contains point "
            f"{int(np.flatnonzero(inside)[0])}"
        )
    ax, ay = local[a]
    if not (0.0 < ax < 1.0):
        raise GeometryError(f"precondition failed: 0 < x_a < 1 (got x_a={ax})")
    if ay > 0.0:
        raise GeometryError(f"precondition failed: y_a <= 0 (got y_a={ay})")
    phi_ap = math.atan2(-ay, 1.0 - ax)
    if not (0.0 < phi_ap < math.pi / 6):
        raise GeometryError(f"precondition failed: 0 < phi(a->p) < pi/6 (got {phi_ap})")

    five_sixth = 5.0 * math.pi / 6.0
    vertices = [a]
    # (kind, local length, from-vertex, to-vertex, psi)
    raw_steps: list[tuple[StepKind, float, int, int, float | None]] = []
    diagnostics: list[str] = []
    cur = a
    for _ in range(n):
        if cur == o:
            break
        phi_uo = normalize_angle(math.atan2(-local[cur, 1], -local[cur, 0]))
        if phi_uo <= five_sixth:
            break
        j = int(phi_uo / grid)
        while j * grid <= phi_uo:  # strict: exact multiples step to the next ray
            j += 1
        psi = j * grid
        win, lam, r_win = _first_contact(local, cur, psi, sin_th)
        d_cur = math.hypot(local[cur, 0], local[cur, 1])
        d_win = math.hypot(local[win, 0], local[win, 1])
        if d_win >= d_cur:
            raise InvariantViolation(
                f"descent step {cur}->{win} did not approach the apex ({d_win} >= {d_cur})"
            )
        if on_critical_arc(lam, r_win):  # a TY edge is certified
            if not ty.has_edge(cur, win):
                raise InvariantViolation(
                    f"descent expected trapezoidal-Yao edge {cur}->{win}, not present"
                )
            if frame.reflected:
                orient_g = normalize_angle(orient - psi)
                refl_g = False
            else:
                orient_g = normalize_angle(orient + psi)
                refl_g = True
            jg = round(orient_g / grid) % k
            if (jg, refl_g) not in ty.ty_frames.get((cur, win), []):
                diagnostics.append(
                    f"edge {cur}->{win}: growth frame ({jg}, reflected={refl_g}) "
                    f"differs from its recorded selection frames"
                )
            raw_steps.append((StepKind.DIRECT_TY_EDGE, r_win, cur, win, psi))
            vertices.append(win)
        else:
            sub = oy_greedy_path(oy, cur, win)
            raw_steps.append((StepKind.OY_SUBPATH, sub.total_length / scale, cur, win, psi))
            vertices.extend(sub.vertices[1:])
        cur = win
    else:
        raise InvariantViolation(f"descent from {a} exceeded {n} iterations")
    if cur != o:
        sub = oy_greedy_path(oy, cur, o)
        raw_steps.append((StepKind.FINAL_OY_SUBPATH, sub.total_length / scale, cur, o, None))
        vertices.extend(sub.vertices[1:])

    total = sum(s[1] for s in raw_steps)
    # audit pass: remaining-length to the apex decreases front to back
    steps = []
    remaining = total
    for kind, seg, u_idx, v_idx, psi in raw_steps:
        phi_before = phi_potential(Point(*local[u_idx]), remaining, tau)
        remaining -= seg
        phi_after = phi_potential(Point(*local[v_idx]), remaining, tau)
        steps.append(StepAudit(kind, seg, phi_before, phi_after, psi))
    return PathTrace(tuple(vertices), tuple(steps), total, tuple(diagnostics))


def descent_length_bound(ty: ConeGraph, frame: DescentFrame, a: int) -> float:
    """Guaranteed ceiling x_a + (2*tau + 1)*|y_a| on the descent length, in
    the same frame-local units the trace reports."""
    ox, oy = ty.xy[frame.o]
    s, _, c, sn = _placement(ox, oy, frame.p)
    ax, ay = ty.xy[a]
    lx, ly = _to_local(ax - ox, ay - oy, s, c, sn, -1.0 if frame.reflected else 1.0)
    tau = tau_bound(ty.k)
    return float(lx + (2.0 * tau + 1.0) * abs(ly))


# Relative slack on the harvest's pruning radius: far above the few ulps by
# which the local map can misplace a point, far below any distance it prunes.
_REACH_REL = 1e-6


def harvest_descent_configs(
    ty: ConeGraph, edge: tuple[int, int] | None = None
) -> list[tuple[DescentFrame, int]]:
    """Collect real (placement, witness) descent configurations from a built
    trapezoidal-Yao graph: for every edge and every frame that selected it,
    the placed trapezoid is empty by construction, and every point meeting
    the witness conditions in that placement qualifies.

    Configurations come in edge order (tail, then head), then in each edge's
    frame order, then by witness index; the configurations of one frame share
    one ``DescentFrame``.  With ``edge`` given as (tail, head), only that
    edge's frames are harvested.  Work runs per tail vertex: its frames'
    placements are scalar, then one broadcast pass tests its frames against
    the points near the tail.  ``_iter_descent_configs`` yields the same
    sequence lazily, one tail at a time, for callers that walk only a prefix.
    """
    return list(_iter_descent_configs(ty, edge))


def _iter_descent_configs(
    ty: ConeGraph, edge: tuple[int, int] | None = None
) -> Iterator[tuple[DescentFrame, int]]:
    """The configurations of :func:`harvest_descent_configs`, in its order,
    harvested one tail vertex at a time as they are consumed."""
    if ty.family is not Family.TRAPEZOIDAL_YAO or ty.ty_frames is None:
        raise GeometryError("harvest requires a trapezoidal-Yao graph built by build_ty")
    grid = TWO_PI / ty.k
    xy = ty.xy
    items = sorted(ty.ty_frames.items()) if edge is None else [(edge, ty.ty_frames[edge])]
    for t, edges in groupby(items, key=lambda item: item[0][0]):
        ox, oy = xy[t].tolist()
        frames: list[DescentFrame] = []
        placements: list[tuple[float, ...]] = []
        for (_, h), frame_list in edges:
            hx, hy = xy[h].tolist()
            s = math.hypot(hx - ox, hy - oy)
            for j, reflected in frame_list:
                orient = j * grid
                p = Point(ox + s * math.cos(orient), oy + s * math.sin(orient))
                frames.append(DescentFrame(t, p, reflected))
                placements.append((*_placement(ox, oy, p), -1.0 if reflected else 1.0))
        scale, _, c, sn, flip = np.array(placements).T[:, :, None]
        dx = xy[:, 0] - ox
        dy = xy[:, 1] - oy
        # A witness lies in the local triangle o, p, o + |op|*(0, -1/sqrt(3))
        # (0 < x < 1, y <= 0, 0 < phi(a->p) < pi/6), whose farthest point from
        # o is p, so |oa| < |op|: only points within the tail's largest |op|
        # can qualify for any of its frames.
        reach = scale.max() * (1.0 + _REACH_REL)
        near = np.flatnonzero(np.hypot(dx, dy) <= reach)
        near = near[near != t]
        lx, ly = _to_local(dx[near], dy[near], scale, c, sn, flip)
        ok = (lx > 0.0) & (lx < 1.0) & (ly <= 0.0)
        phi_ap = np.arctan2(-ly[ok], 1.0 - lx[ok])
        ok[ok] = (phi_ap > 0.0) & (phi_ap < math.pi / 6)
        rows, cols = np.nonzero(ok)
        yield from zip([frames[r] for r in rows.tolist()], near[cols].tolist())
