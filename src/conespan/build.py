"""Construction of the four directed cone-graph families over a planar point
set: Yao, Yao-Yao (reverse-Yao pruned), overlapping-Yao with widened cones,
and trapezoidal-Yao selected by first contact of a growing curved trapezoid.

All four builders share one tie-breaking rule: candidates are ordered by
(selection scale, polar angle of the edge, candidate index), where the scale
is the Euclidean distance except in the trapezoidal family, which uses the
first-contact dilation factor.  Yao-Yao and overlapping-Yao are derived from
the Yao selection table, so one candidate scan serves all three.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .geometry import HALF_PI, TWO_PI, GeometryError, Point, _polar_arr, first_contact, on_critical_arc, theta


class Family(str, Enum):
    YAO = "yao"
    YAO_YAO = "yao_yao"
    OVERLAPPING_YAO = "overlapping_yao"
    TRAPEZOIDAL_YAO = "trapezoidal_yao"


@dataclass(frozen=True, eq=False)
class ConeGraph:
    """A point set plus the directed edges selected by one cone family.

    ``xy`` holds the validated (n, 2) coordinates of ``points``.  ``edges`` is
    a duplicate-free (m, 2) int64 array of (tail, head) rows sorted
    lexicographically; edge lengths follow from the coordinates.  Arrays are
    immutable by convention.  ``cone_choice`` (for the Yao and
    overlapping-Yao families) maps (vertex, cone index) to the selected head
    vertex (-1 where the cone is empty).  The trapezoidal family carries its
    first-contact table, (n, 2k) arrays indexed by (vertex, reflected * k +
    orientation index): ``ty_head`` holds each frame's tie-broken first-hit
    point (-1 where nothing is hit), ``ty_lam`` its dilation (+inf there) and
    ``ty_critical`` whether the hit lies on the critical arc, which makes it
    an edge.
    """

    points: tuple[Point, ...]
    xy: np.ndarray = field(repr=False)
    k: int
    family: Family
    edges: np.ndarray = field(repr=False)
    cone_choice: np.ndarray | None = field(default=None, repr=False)
    ty_head: np.ndarray | None = field(default=None, repr=False)
    ty_lam: np.ndarray | None = field(default=None, repr=False)
    ty_critical: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def lengths(self) -> np.ndarray:
        """Euclidean length of each edge, in ``edges`` order."""
        return edge_lengths(self.xy, self.edges)

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.edges.tolist()))

    def has_edge(self, tail: int, head: int) -> bool:
        return (tail, head) in self.edge_pairs

    @cached_property
    def ty_frames(self) -> Mapping[tuple[int, int], list[tuple[int, bool]]] | None:
        """Each trapezoidal-Yao edge mapped to the (orientation index,
        reflected) frames that selected it, read off the first-contact table:
        edges in order of (tail, first selecting frame), frames in table order."""
        if self.ty_critical is None:
            return None
        frames: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        tails, fs = np.nonzero(self.ty_critical)
        for t, f, h in zip(tails.tolist(), fs.tolist(), self.ty_head[tails, fs].tolist()):
            frames.setdefault((t, h), []).append((f % self.k, f >= self.k))
        return MappingProxyType(frames)


def edge_array(tails: np.ndarray, heads: np.ndarray, n: int) -> np.ndarray:
    """The (tail, head) rows of ``tails``/``heads`` over n vertices as a
    sorted, duplicate-free (m, 2) int64 array."""
    keys = np.unique(np.asarray(tails, dtype=np.int64) * n + heads)
    return np.column_stack(np.divmod(keys, n))


def edge_lengths(xy: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the (tail, head) rows of ``edges`` over the
    coordinates ``xy``."""
    tails, heads = edges.T
    return np.hypot(*(xy[heads] - xy[tails]).T)


def as_point_array(points: Sequence[Point]) -> np.ndarray:
    """Validate a point sequence (finite, pairwise distinct) into an (n,2) array."""
    xy = np.asarray([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    if xy.size and not np.all(np.isfinite(xy)):
        raise GeometryError("point coordinates must be finite")
    seen: dict[tuple[float, float], int] = {}
    for i, (x, y) in enumerate(map(tuple, xy)):
        if (x, y) in seen:
            raise GeometryError(f"duplicate point at indices {seen[(x, y)]} and {i}: ({x}, {y})")
        seen[(x, y)] = i
    return xy


def _candidate_polar(xy: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, distances, and normalized polar angles of all points but i, seen from i."""
    cand = np.concatenate([np.arange(i), np.arange(i + 1, xy.shape[0])])
    r, phi = _polar_arr(*(xy[cand] - xy[i]).T)
    return cand, r, phi


def _cone_index_arr(k: int, phi: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of geometry.cone_index on normalized angles."""
    w = TWO_PI / k
    j = np.floor(phi / w).astype(np.int64)
    np.clip(j, 0, k - 1, out=j)
    j = np.where((j < k - 1) & (phi >= (j + 1) * w), j + 1, j)
    j = np.where((j > 0) & (phi < j * w), j - 1, j)
    return j


def _from_choice(
    family: Family, points: tuple[Point, ...], xy: np.ndarray, choice: np.ndarray
) -> ConeGraph:
    """The graph of a selection table: an edge i -> choice[i, j] per occupied cone."""
    tails, _ = np.nonzero(choice >= 0)
    edges = edge_array(tails, choice[choice >= 0], xy.shape[0])
    return ConeGraph(points, xy, choice.shape[1], family, edges, cone_choice=choice)


def build_yao(points: Sequence[Point], k: int) -> ConeGraph:
    """Yao graph: per vertex and per cone of the uniform k-partition, keep the
    directed edge to the tie-broken nearest point inside the cone."""
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    xy = as_point_array(points)
    choice = np.full((xy.shape[0], k), -1, dtype=np.int64)
    for i in range(xy.shape[0]):
        cand, r, phi = _candidate_polar(xy, i)
        order = np.lexsort((cand, phi, r))
        cones, first = np.unique(_cone_index_arr(k, phi)[order], return_index=True)
        choice[i, cones] = cand[order[first]]
    return _from_choice(Family.YAO, tuple(points), xy, choice)


def derive_yao_yao(yao: ConeGraph) -> ConeGraph:
    """Yao-Yao graph: reverse-Yao step on a built Yao graph.  Per vertex u and
    per cone around u, among incoming Yao edges v->u with v inside the cone,
    only the tie-broken shortest survives."""
    k = yao.k
    tails, heads = yao.edges.T
    # evaluate each edge in its head's frame: direction and cone of head->tail
    r, phi = _polar_arr(*(yao.xy[tails] - yao.xy[heads]).T)
    order = np.lexsort((tails, phi, r))
    _, first = np.unique((heads * k + _cone_index_arr(k, phi))[order], return_index=True)
    # a subset of a sorted duplicate-free edge array, kept in order, is one too
    return ConeGraph(yao.points, yao.xy, k, Family.YAO_YAO, yao.edges[np.sort(order[first])])


def build_yao_yao(points: Sequence[Point], k: int) -> ConeGraph:
    """Yao-Yao graph of a point set (see :func:`derive_yao_yao`)."""
    return derive_yao_yao(build_yao(points, k))


def derive_oy(yao: ConeGraph) -> ConeGraph:
    """Overlapping-Yao graph from a built Yao graph: per vertex and per cone j,
    keep the shortest edge inside the widened cone [2j*pi/k, 2j*pi/k + gamma(k)).

    The widened cone of index j is exactly the union of the m = ceil(k/4)
    narrow cones j..j+m-1 (mod k), so its selection is the best of their Yao
    selections: a cyclic window minimum over each Yao selection's rank among
    its vertex's selections under the (distance, polar angle, index) order.
    """
    choice = yao.cone_choice
    n, k = choice.shape
    tails = np.repeat(np.arange(n), k)
    heads = choice.ravel()
    r, phi = _polar_arr(*(yao.xy[heads] - yao.xy[tails]).T)
    r[heads < 0] = np.inf  # empty cones rank last
    order = np.lexsort((heads, phi, r, tails))
    ranked = heads[order].reshape(n, k)  # per vertex: selections in tie-break order
    rank = (np.argsort(order) % k).reshape(n, k)  # position of each selection in its row
    best = rank.copy()
    for shift in range(1, -(-k // 4)):
        np.minimum(best, np.roll(rank, -shift, axis=1), out=best)
    oy_choice = np.take_along_axis(ranked, best, axis=1)
    # identical selections across overlapping cones collapse in the edge set
    return _from_choice(Family.OVERLAPPING_YAO, yao.points, yao.xy, oy_choice)


def build_oy(points: Sequence[Point], k: int) -> ConeGraph:
    """Overlapping-Yao graph of a point set (see :func:`derive_oy`)."""
    yao = build_yao(points, k)
    if k <= 24:
        warnings.warn(
            f"overlapping-Yao spanner guarantees need k > 24 (got k={k}); building anyway",
            stacklevel=2,
        )
    return derive_oy(yao)


# Nearest candidates per vertex that build_ty examines before any full scan.
_TY_PREFIX = 48
# (vertex, candidate, frame) entries per vectorized pass of build_ty; bounds
# its temporaries to a few MB.
_TY_BLOCK = 1 << 16


def _ty_window(phi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The frames (reflected * k + orientation index j) at which candidates
    at polar angles ``phi`` are evaluated, along a new last axis, and each
    candidate's angle ``alpha`` to each of those frames.

    The window holds j from ceil(k/4) + 1 below floor(phi / (2pi/k)) up to
    one above it unmirrored, and from one below it up to ceil(k/4) + 1 above
    it mirrored.  Every other frame's quarter-plane misses the candidate, so
    its dilation there is +inf.  ``alpha`` is phi - psi_j unmirrored and
    psi_j - phi mirrored, reduced into [0, 2pi) exactly as np.mod reduces a
    difference of two angles in [0, 2pi).
    """
    q = -(-k // 4)
    j = np.arange(-k, 2 * k) % k  # cyclic lookup, entered at an offset of k
    frame_of = np.concatenate([j, j + k])
    psi_of = np.tile(np.arange(k) * (TWO_PI / k), 6)
    offsets = np.concatenate([np.arange(-q - 1, 2) + k, np.arange(-1, q + 2) + 4 * k])
    at = np.floor(phi / (TWO_PI / k)).astype(np.intp)[..., None] + offsets
    psi = np.take(psi_of, at)
    diff = np.empty(at.shape)
    np.subtract(phi[..., None], psi[..., : q + 3], out=diff[..., : q + 3])
    np.subtract(psi[..., q + 3 :], phi[..., None], out=diff[..., q + 3 :])
    # np.mod(diff, 2pi) for -2pi < diff < 2pi, diff != -0.0: one rounded addition
    return np.take(frame_of, at), np.where(diff < 0.0, diff + TWO_PI, diff)


def _ty_candidates(
    xy: np.ndarray, rows: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``m`` nearest other points of each vertex in ``rows`` (all of them
    when m >= n - 1) as (len(rows), m) index, distance and polar-angle
    matrices, each row in (angle, index) order, and per row the smallest
    distance left out (+inf when none is)."""
    col = np.arange(xy.shape[0] - 1)
    cand = col + (col >= rows[:, None])  # every point but the row's own vertex
    r, phi = _polar_arr(xy[cand, 0] - xy[rows, 0, None], xy[cand, 1] - xy[rows, 1, None])
    r_out = np.full(len(rows), np.inf)
    if m < cand.shape[1]:
        near = np.argpartition(r, m, axis=1)
        r_out = np.take_along_axis(r, near[:, m : m + 1], axis=1)[:, 0]
        cand, r, phi = (np.take_along_axis(a, near[:, :m], axis=1) for a in (cand, r, phi))
    # in (angle, index) order the first minimum of a frame is its tie-broken winner
    order = np.lexsort((cand, phi), axis=1)
    cand, r, phi = (np.take_along_axis(a, order, axis=1) for a in (cand, r, phi))
    return cand, r, phi, r_out


def _ty_winners(
    cand: np.ndarray, r: np.ndarray, phi: np.ndarray, wanted: np.ndarray, sin_th: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie-broken first-contact winner of each wanted frame (reflected * k +
    orientation) of b vertices among their candidate rows (see
    :func:`_ty_candidates`); ``wanted`` is a (b, 2k) mask.  Returns (b, 2k)
    arrays: the winner's index (-1 where no candidate is hit or the frame is
    not wanted), its dilation (+inf there) and its distance."""
    b, k2 = wanted.shape
    frame, alpha = _ty_window(phi, k2 // 2)
    key = frame + (np.arange(b) * k2)[:, None, None]
    # only entries inside a wanted frame's quarter-plane have a finite dilation
    idx = np.flatnonzero((alpha < HALF_PI) & np.take(wanted, key))
    key = key.ravel()[idx]
    entry = idx // frame.shape[-1]
    lam = first_contact(alpha.ravel()[idx], r.ravel()[entry], sin_th)
    best = np.full(b * k2, np.inf)
    np.minimum.at(best, key, lam)
    hit = np.flatnonzero(lam == best[key])  # row-major: (vertex, angle, index) order
    keys, first = np.unique(key[hit], return_index=True)
    win = entry[hit[first]]
    head = np.full(b * k2, -1, dtype=np.int64)
    head[keys] = cand.ravel()[win]
    r_head = np.zeros(b * k2)
    r_head[keys] = r.ravel()[win]
    return head.reshape(b, k2), best.reshape(b, k2), r_head.reshape(b, k2)


def build_ty(points: Sequence[Point], k: int) -> ConeGraph:
    """Trapezoidal-Yao graph: per vertex, per orientation 2j*pi/k, and per
    mirror image, grow the placed curved trapezoid until it first hits a
    point; keep the edge only when the hit lies on the critical arc.

    Each candidate's first-contact dilation follows from its angle to the
    frame (:func:`first_contact`); only the ceil(k/4) + 3 orientations per
    mirror whose quarter-plane can hold it are evaluated.  Each vertex first
    scans its ``_TY_PREFIX`` nearest candidates.  A dilation is never below
    the candidate's distance, so a frame whose best dilation there is
    strictly below the distance of every candidate left out is settled: no
    other point can win or tie it.  Vertices with unsettled frames (empty
    ones included, as on hull-heavy inputs) rescan all their candidates for
    those frames only.  Both passes run over blocks of vertices holding about
    ``_TY_BLOCK`` (vertex, candidate, frame) entries each.  The graph keeps
    the resulting first-contact table (see :class:`ConeGraph`).
    """
    th = theta(k)  # also enforces k > 24
    xy = as_point_array(points)
    n = xy.shape[0]
    sin_th = np.sin(th)
    m = min(_TY_PREFIX, n - 1)
    width = 2 * (-(-k // 4) + 3)  # frames evaluated per candidate
    head = np.full((n, 2 * k), -1, dtype=np.int64)
    lam = np.full((n, 2 * k), np.inf)
    r_head = np.zeros((n, 2 * k))
    r_out = np.full(n, np.inf)
    step = max(1, _TY_BLOCK // (max(m, 1) * width))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        cand, r, phi, r_out[rows] = _ty_candidates(xy, rows, m)
        wanted = np.ones((len(rows), 2 * k), dtype=bool)
        head[rows], lam[rows], r_head[rows] = _ty_winners(cand, r, phi, wanted, sin_th)
    # every left-out candidate has dilation >= its distance >= r_out, and
    # r_out is +inf where the prefix held every candidate
    unsettled = ~(lam < r_out[:, None])
    rescan = np.flatnonzero(unsettled.any(axis=1) & np.isfinite(r_out))
    step = max(1, _TY_BLOCK // (max(n - 1, 1) * width))
    for lo in range(0, len(rescan), step):
        rows = rescan[lo : lo + step]
        cand, r, phi, _ = _ty_candidates(xy, rows, n - 1)
        wanted = unsettled[rows]
        got = _ty_winners(cand, r, phi, wanted, sin_th)
        for table, part in zip((head, lam, r_head), got):
            table[rows] = np.where(wanted, part, table[rows])
    critical = on_critical_arc(lam, r_head)  # empty frames: +inf > 0
    tails, fs = np.nonzero(critical)
    edges = edge_array(tails, head[tails, fs], n)
    return ConeGraph(
        tuple(points), xy, k, Family.TRAPEZOIDAL_YAO, edges, ty_head=head, ty_lam=lam, ty_critical=critical
    )


# CLI short name -> (family, builder)
FAMILIES = {
    "yao": (Family.YAO, build_yao),
    "yy": (Family.YAO_YAO, build_yao_yao),
    "oy": (Family.OVERLAPPING_YAO, build_oy),
    "ty": (Family.TRAPEZOIDAL_YAO, build_ty),
}
