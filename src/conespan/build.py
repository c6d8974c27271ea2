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

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .geometry import HALF_PI, TWO_PI, GeometryError, Point, _dilation, _polar_arr, on_critical_arc, theta


class Family(str, Enum):
    YAO = "yao"
    YAO_YAO = "yao_yao"
    OVERLAPPING_YAO = "overlapping_yao"
    TRAPEZOIDAL_YAO = "trapezoidal_yao"


@dataclass(frozen=True, eq=False)
class ConeGraph:
    """A point set plus the directed edges selected by one cone family.

    ``xy`` holds the validated (n, 2) point coordinates.  ``edges`` is
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
        return self.xy.shape[0]

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


def _cone_index_arr(k: int, phi: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """Vectorized counterpart of geometry.cone_index on normalized angles:
    floor(phi / (2pi/k)), moved by one where it disagrees with the grid
    j * (2pi/k) itself.  The result and intermediates are arrays of ``ws``."""
    ws = ws or _Workspace()
    grid = np.arange(k + 1) * (TWO_PI / k)
    grid[k] = np.inf  # the last cone has no upper bound below 2pi
    t = ws("cone_t", phi.shape)
    np.floor(np.divide(phi, TWO_PI / k, out=t), out=t)
    j = ws("cone", phi.shape, np.int64)
    np.copyto(j, np.minimum(t, k - 1, out=t), casting="unsafe")
    past = ws("cone_mask", phi.shape, bool)
    np.add(j, np.greater_equal(phi, np.take(grid[1:], j, out=t, mode="clip"), out=past), out=j)
    np.subtract(j, np.less(phi, np.take(grid, j, out=t, mode="clip"), out=past), out=j)
    return j


def _from_choice(family: Family, xy: np.ndarray, choice: np.ndarray) -> ConeGraph:
    """The graph of a selection table: an edge i -> choice[i, j] per occupied cone."""
    tails, _ = np.nonzero(choice >= 0)
    edges = edge_array(tails, choice[choice >= 0], xy.shape[0])
    return ConeGraph(xy, choice.shape[1], family, edges, cone_choice=choice)


# Nearest candidates per vertex that build_ty scans before any rescan.
_PREFIX = 48
# (vertex, candidate, frame) entries per vectorized pass; bounds each array
# of a _scan workspace to this many entries (more only for a single vertex).
_BLOCK = 1 << 16


class _Workspace:
    """Named scratch arrays of one :func:`_scan` call, shared by its blocks.

    Each array is allocated at its first request, which comes from the
    first and largest block, and later requests take views of its front,
    so a scan touches fresh memory once rather than once per block.
    Gathers into these arrays pass ``mode="clip"`` to ``np.take``: with
    the default mode it stages ``out`` through a temporary copy.  Their
    indices are in range, so nothing is clipped.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        a = self._arrays.get(name)
        if a is None or a.size < size:
            a = self._arrays[name] = np.empty(size, dtype)
        return a[:size].reshape(shape)


def _candidates(xy: np.ndarray, rows: np.ndarray, m: int, ws: _Workspace) -> tuple[np.ndarray, ...]:
    """The ``m`` nearest other points of each vertex in ``rows`` (all when
    m >= n - 1) as (len(rows), m) index, distance and polar-angle matrices
    in ``ws``, and per row the smallest distance left out (+inf when none
    is)."""
    b, n1 = len(rows), xy.shape[0] - 1
    col = np.arange(n1)
    # every point but the row's own vertex
    cand = np.add(col, np.greater_equal(col, rows[:, None], out=ws("cand_mask", (b, n1), bool)),
                  out=ws("cand", (b, n1), np.int64))
    dx, dy = ws("dx", (b, n1)), ws("dy", (b, n1))
    for axis, d in enumerate((dx, dy)):
        np.subtract(np.take(xy[:, axis], cand, out=d, mode="clip"), xy[rows, axis, None], out=d)
    r_out = np.full(b, np.inf)
    if m < n1:  # angles only for the points kept
        r = np.hypot(dx, dy, out=ws("r_all", (b, n1)))
        near = np.argpartition(r, m, axis=1)  # allocates: argpartition takes no out=
        r_out = np.take_along_axis(r, near[:, m : m + 1], axis=1)[:, 0]
        keep = near[:, :m] + (np.arange(b) * n1)[:, None]
        cand, dx, dy = (
            np.take(a, keep, out=ws(name, (b, m), a.dtype), mode="clip")
            for a, name in ((cand, "cand_kept"), (dx, "dx_kept"), (dy, "dy_kept"))
        )
    r, phi = _polar_arr(dx, dy, out=(ws("r", (b, m)), ws("phi", (b, m)), ws("polar_mask", (b, m), bool)))
    return cand, r, phi, r_out


def _winners(
    cand: np.ndarray, r: np.ndarray, phi: np.ndarray, frame: np.ndarray, hit, score, wanted: np.ndarray,
    ws: _Workspace,
) -> tuple[np.ndarray, ...]:
    """Tie-broken winner of each wanted frame of b vertices among their
    candidate rows (see :func:`_candidates`); ``wanted`` is a (b, F) mask.
    ``frame`` holds, along a new last axis, the frames at which each
    candidate is evaluated (it is overwritten with per-block frame keys),
    and ``hit`` marks the entries that can win one; ``score(idx, r)``
    scores those flat entries ``idx`` at distances ``r``.  Scratch arrays
    come from ``ws``.  Returns (b, F) arrays: the winner's index (-1 where
    nothing is hit or the frame is not wanted), its score (+inf there) and
    its distance."""
    b, f = wanted.shape
    size = frame.size
    key = np.add(frame, (np.arange(b) * f)[:, None, None], out=frame)
    live = np.take(wanted, key, out=ws("live", key.shape, bool), mode="clip")
    idx = np.flatnonzero(np.logical_and(live, hit, out=live))
    cnt = len(idx)
    key = np.take(key, idx, out=ws("key", (size,), np.int64)[:cnt], mode="clip")
    entry = np.floor_divide(idx, frame.shape[-1], out=ws("entry", (size,), np.int64)[:cnt])
    scores = score(idx, np.take(r, entry, out=ws("r_entry", (size,))[:cnt], mode="clip"))
    best = np.full(b * f, np.inf)
    np.minimum.at(best, key, scores)
    best_at = np.take(best, key, out=ws("best_at", (size,))[:cnt], mode="clip")
    won = np.flatnonzero(np.equal(scores, best_at, out=ws("tie", (size,), bool)[:cnt]))
    # a frame's tie-broken winner has the least score, then angle, then index
    won = won[np.lexsort((cand.ravel()[entry[won]], phi.ravel()[entry[won]], key[won]))]
    keys, first = np.unique(key[won], return_index=True)
    win = entry[won[first]]
    head = np.full(b * f, -1, dtype=np.int64)
    head[keys] = cand.ravel()[win]
    r_head = np.zeros(b * f)
    r_head[keys] = r.ravel()[win]
    return head.reshape(b, f), best.reshape(b, f), r_head.reshape(b, f)


def _scan(xy: np.ndarray, m: int, width: int, window, wanted: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each vertex's tie-broken winner of each wanted frame among its ``m``
    nearest other points (all of them when m >= n - 1), as (n, F) tables of
    winner index, score and distance (see :func:`_winners`), and per vertex
    the smallest distance left out (+inf where none is).  ``wanted`` is an
    (n, F) mask, and only vertices with a wanted frame are scanned.
    ``window(phi, ws)`` gives, for candidate angles, the ``width`` frames of
    each candidate, which entries can win them and their score.  The scan
    runs over blocks of vertices holding about ``_BLOCK`` (vertex,
    candidate, frame) entries each, and no more (vertex, candidate) pairs.
    Every block works in one workspace, local to the call.
    """
    n, f = wanted.shape
    tables = (np.full((n, f), -1, dtype=np.int64), np.full((n, f), np.inf), np.zeros((n, f)))
    r_out = np.full(n, np.inf)
    todo = np.flatnonzero(wanted.any(axis=1))
    step = max(1, _BLOCK // max(m * width, n - 1, 1))
    ws = _Workspace()
    for lo in range(0, len(todo), step):
        rows = todo[lo : lo + step]
        cand, r, phi, r_out[rows] = _candidates(xy, rows, m, ws)
        for table, part in zip(tables, _winners(cand, r, phi, *window(phi, ws), wanted[rows], ws)):
            table[rows] = part
    return (*tables, r_out)


def build_yao(points: Sequence[Point], k: int) -> ConeGraph:
    """Yao graph: per vertex and per cone of the uniform k-partition, keep the
    directed edge to the tie-broken nearest point inside the cone.  The cones
    are the frames of one :func:`_scan` over every other point, and a
    candidate's score is its distance."""
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    xy = as_point_array(points)

    def cone(phi: np.ndarray, ws: _Workspace):
        return _cone_index_arr(k, phi, ws)[..., None], True, lambda idx, r: r

    choice, _, _, _ = _scan(xy, xy.shape[0] - 1, 1, cone, np.ones((xy.shape[0], k), dtype=bool))
    return _from_choice(Family.YAO, xy, choice)


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
    return ConeGraph(yao.xy, k, Family.YAO_YAO, yao.edges[np.sort(order[first])])


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
    return _from_choice(Family.OVERLAPPING_YAO, yao.xy, oy_choice)


def build_oy(points: Sequence[Point], k: int) -> ConeGraph:
    """Overlapping-Yao graph of a point set (see :func:`derive_oy`)."""
    yao = build_yao(points, k)
    if k <= 24:
        warnings.warn(
            f"overlapping-Yao spanner guarantees need k > 24 (got k={k}); building anyway",
            stacklevel=2,
        )
    return derive_oy(yao)


def _ty_window_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The window of each candidate cone c = floor(phi / (2pi/k)) in
    [0, k] (the quotient can round up to k): (k + 1, 2(ceil(k/4) + 3))
    tables of its frames (reflected * k + orientation index j) and of
    their orientation angles psi_j = j * (2pi/k).

    The window holds j from ceil(k/4) + 1 below c up to one above it
    unmirrored, and from one below c up to ceil(k/4) + 1 above it mirrored.
    Every other frame's quarter-plane misses the candidate, so its dilation
    there is +inf.
    """
    q = -(-k // 4)
    offsets = np.concatenate([np.arange(-q - 1, 2), np.arange(-1, q + 2)])
    j = (np.arange(k + 1)[:, None] + offsets) % k
    return j + np.where(np.arange(len(offsets)) > q + 2, k, 0), j * (TWO_PI / k)


def _ty_window(
    phi: np.ndarray, table: tuple[np.ndarray, np.ndarray], ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """The frames at which candidates at polar angles ``phi`` are evaluated,
    along a new last axis, and each candidate's angle ``alpha`` to each of
    those frames, as arrays of ``ws``: one row of the
    :func:`_ty_window_table` tables ``table`` per candidate.

    ``alpha`` is phi - psi_j unmirrored and psi_j - phi mirrored, reduced
    into [0, 2pi) exactly as np.mod reduces a difference of two angles in
    [0, 2pi).
    """
    frame_of, psi_of = table
    k, width = frame_of.shape[0] - 1, frame_of.shape[1]
    shape = (*phi.shape, width)
    t = ws("ty_t", phi.shape)
    cone = ws("ty_cone", phi.shape, np.intp)
    np.copyto(cone, np.floor(np.divide(phi, TWO_PI / k, out=t), out=t), casting="unsafe")
    frame = np.take(frame_of, cone, axis=0, out=ws("ty_frame", shape, np.int64), mode="clip")
    alpha = np.take(psi_of, cone, axis=0, out=ws("ty_alpha", shape), mode="clip")
    h = width // 2
    np.subtract(phi[..., None], alpha[..., :h], out=alpha[..., :h])
    np.subtract(alpha[..., h:], phi[..., None], out=alpha[..., h:])
    # np.mod(diff, 2pi) for -2pi < diff < 2pi, diff != -0.0: one rounded addition
    np.add(alpha, TWO_PI, out=alpha, where=np.less(alpha, 0.0, out=ws("ty_mask", shape, bool)))
    return frame, alpha


def build_ty(points: Sequence[Point], k: int) -> ConeGraph:
    """Trapezoidal-Yao graph: per vertex, per orientation 2j*pi/k, and per
    mirror image, grow the placed curved trapezoid until it first hits a
    point; keep the edge only when the hit lies on the critical arc.

    The frames (reflected * k + orientation index) are those of
    :func:`_scan`; a candidate's score is its first-contact dilation
    (geometry._dilation), evaluated only at the ceil(k/4) + 3
    orientations per mirror whose quarter-plane can hold it.  Each vertex
    first scans its ``_PREFIX`` nearest points.  A dilation is never below
    the point's distance, so a frame whose best dilation there is strictly
    below the distance of every point left out is settled: no other point
    can win or tie it.  Vertices with unsettled frames (empty ones
    included, as on hull-heavy inputs) rescan all their points for those
    frames only.  The graph keeps the first-contact table (see
    :class:`ConeGraph`).
    """
    th = theta(k)  # also enforces k > 24
    xy = as_point_array(points)
    n, sin_th = xy.shape[0], np.sin(th)

    table = _ty_window_table(k)

    def trapezoid(phi: np.ndarray, ws: _Workspace):
        frame, alpha = _ty_window(phi, table, ws)
        # only entries inside a frame's quarter-plane have a finite dilation
        hit = np.less(alpha, HALF_PI, out=ws("ty_mask", alpha.shape, bool))

        def score(idx: np.ndarray, r: np.ndarray) -> np.ndarray:
            a = np.take(alpha, idx, out=ws("ty_hit_alpha", (alpha.size,))[: len(idx)], mode="clip")
            return _dilation(a, r, sin_th, out=ws("ty_lam", (alpha.size,))[: len(idx)], scratch=a)

        return frame, hit, score

    width = table[0].shape[1]
    head, lam, r_head, r_out = _scan(
        xy, min(_PREFIX, n - 1), width, trapezoid, np.ones((n, 2 * k), dtype=bool)
    )
    # settled: best dilation below r_out, which every left-out point's
    # dilation reaches; r_out is +inf where no point was left out
    unsettled = ~(lam < r_out[:, None]) & np.isfinite(r_out)[:, None]
    for merged, part in zip((head, lam, r_head), _scan(xy, n - 1, width, trapezoid, unsettled)):
        np.copyto(merged, part, where=unsettled)
    critical = on_critical_arc(lam, r_head)  # empty frames: +inf > 0
    tails, fs = np.nonzero(critical)
    edges = edge_array(tails, head[tails, fs], n)
    return ConeGraph(xy, k, Family.TRAPEZOIDAL_YAO, edges, ty_head=head, ty_lam=lam, ty_critical=critical)


# CLI short name -> (family, builder)
FAMILIES = {
    "yao": (Family.YAO, build_yao),
    "yy": (Family.YAO_YAO, build_yao_yao),
    "oy": (Family.OVERLAPPING_YAO, build_oy),
    "ty": (Family.TRAPEZOIDAL_YAO, build_ty),
}
