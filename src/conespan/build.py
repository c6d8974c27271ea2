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
from typing import Sequence

import numpy as np

from .geometry import TWO_PI, GeometryError, Point, _polar_arr, first_contact, on_critical_arc, theta


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
    vertex (-1 where the cone is empty); ``ty_frames`` (for the trapezoidal
    family) maps each directed edge to the list of (orientation index,
    reflected) frames that selected it.
    """

    points: tuple[Point, ...]
    xy: np.ndarray = field(repr=False)
    k: int
    family: Family
    edges: np.ndarray = field(repr=False)
    cone_choice: np.ndarray | None = field(default=None, repr=False)
    ty_frames: dict[tuple[int, int], list[tuple[int, bool]]] | None = field(default=None, repr=False)

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


def build_ty(points: Sequence[Point], k: int) -> ConeGraph:
    """Trapezoidal-Yao graph: per vertex, per orientation 2j*pi/k, and per
    mirror image, grow the placed curved trapezoid until it first hits a
    point; keep the edge only when the hit lies on the critical arc.

    Each candidate's first-contact dilation follows from its angle to the
    frame (:func:`first_contact`), so the whole frame sweep reduces to
    angular arithmetic.
    """
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


# CLI short name -> (family, builder)
FAMILIES = {
    "yao": (Family.YAO, build_yao),
    "yy": (Family.YAO_YAO, build_yao_yao),
    "oy": (Family.OVERLAPPING_YAO, build_oy),
    "ty": (Family.TRAPEZOIDAL_YAO, build_ty),
}
