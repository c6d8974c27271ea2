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

from .geometry import (
    HALF_PI, TWO_PI, GeometryError, Point, _angle_arr, _dilation, _polar_arr, on_critical_arc, theta,
)


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
# of a workspace to this many entries (more only for a single vertex).
_BLOCK = 1 << 16


class _Workspace:
    """Named scratch arrays of one :func:`_scan` or :func:`build_yao` call,
    shared by its blocks.

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


def _offsets(xy: np.ndarray, rows: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, ...]:
    """The other points of each vertex in ``rows`` as (len(rows), n - 1)
    index, dx and dy matrices in ``ws``."""
    b, n1 = len(rows), xy.shape[0] - 1
    col = np.arange(n1)
    # every point but the row's own vertex
    cand = np.add(col, np.greater_equal(col, rows[:, None], out=ws("cand_mask", (b, n1), bool)),
                  out=ws("cand", (b, n1), np.int64))
    dx, dy = ws("dx", (b, n1)), ws("dy", (b, n1))
    for axis, d in enumerate((dx, dy)):
        np.subtract(np.take(xy[:, axis], cand, out=d, mode="clip"), xy[rows, axis, None], out=d)
    return cand, dx, dy


def _squares(dx: np.ndarray, dy: np.ndarray, ws: _Workspace) -> np.ndarray:
    """dx * dx + dy * dy in ``ws``: each within a few units in the last
    place of the true square while it stays in the normal range of floats,
    +inf where it overflows."""
    s = ws("sq", dx.shape)
    with np.errstate(over="ignore"):
        return np.add(np.multiply(dx, dx, out=s), np.multiply(dy, dy, out=ws("sq_t", dx.shape)), out=s)


def _candidates(xy: np.ndarray, rows: np.ndarray, m: int, ws: _Workspace) -> tuple[np.ndarray, ...]:
    """The ``m`` nearest other points of each vertex in ``rows`` (all when
    m >= n - 1) as (len(rows), m) index, distance and polar-angle matrices
    in ``ws``, and per row a distance below or at that of every point left
    out (+inf when none is).

    The nearest are ranked by squared distance, which skips np.hypot: the
    bound is then sqrt(s_m) * (1 - 1e-9) for the least left-out square s_m,
    strictly below every left-out point's np.hypot distance.  A block with
    a square outside [1e-300, 1e300], where squares lose that accuracy,
    ranks by np.hypot and takes the least left-out distance itself."""
    b, n1 = len(rows), xy.shape[0] - 1
    cand, dx, dy = _offsets(xy, rows, ws)
    r_out = np.full(b, np.inf)
    if m < n1:  # angles only for the points kept
        d = _squares(dx, dy, ws)
        squares = d.min() >= 1e-300 and d.max() <= 1e300
        if not squares:
            d = np.hypot(dx, dy, out=d)
        near = np.argpartition(d, m, axis=1)  # allocates: argpartition takes no out=
        r_out = np.take_along_axis(d, near[:, m : m + 1], axis=1)[:, 0]
        if squares:
            r_out = np.sqrt(r_out) * (1.0 - 1e-9)
        keep = near[:, :m] + (np.arange(b) * n1)[:, None]
        cand, dx, dy = (
            np.take(a, keep, out=ws(name, (b, m), a.dtype), mode="clip")
            for a, name in ((cand, "cand_kept"), (dx, "dx_kept"), (dy, "dy_kept"))
        )
    r, phi = _polar_arr(dx, dy, out=(ws("r", (b, m)), ws("phi", (b, m)), ws("polar_mask", (b, m), bool)))
    return cand, r, phi, r_out


def _winners(
    cand: np.ndarray, r: np.ndarray, phi: np.ndarray, frame: np.ndarray, alpha: np.ndarray, sin_th: float,
    wanted: np.ndarray, ws: _Workspace,
) -> tuple[np.ndarray, ...]:
    """Tie-broken first hit of each wanted trapezoid frame of b vertices
    among their candidate rows (see :func:`_candidates`); ``wanted`` is a
    (b, F) mask.  ``frame`` and ``alpha`` hold, along a new last axis, the
    frames at which each candidate is evaluated and its angle there (see
    :func:`_ty_window`; ``frame`` is overwritten with per-block frame keys).
    Scratch arrays come from ``ws``.  Returns (b, F)
    arrays: the winner's index (-1 where nothing is hit or the frame is not
    wanted), its dilation (+inf there) and its distance."""
    b, f = wanted.shape
    size = frame.size
    key = np.add(frame, (np.arange(b) * f)[:, None, None], out=frame)
    live = np.take(wanted, key, out=ws("live", key.shape, bool), mode="clip")
    # only entries inside a frame's quarter-plane have a finite dilation
    hit = np.less(alpha, HALF_PI, out=ws("ty_mask", alpha.shape, bool))
    idx = np.flatnonzero(np.logical_and(live, hit, out=live))
    cnt = len(idx)
    key = np.take(key, idx, out=ws("key", (size,), np.int64)[:cnt], mode="clip")
    entry = np.floor_divide(idx, frame.shape[-1], out=ws("entry", (size,), np.int64)[:cnt])
    a = np.take(alpha, idx, out=ws("ty_hit_alpha", (size,))[:cnt], mode="clip")
    r_entry = np.take(r, entry, out=ws("r_entry", (size,))[:cnt], mode="clip")
    scores = _dilation(a, r_entry, sin_th, out=ws("ty_lam", (size,))[:cnt], scratch=a)
    best = np.full(b * f, np.inf)
    np.minimum.at(best, key, scores)
    best_at = np.take(best, key, out=ws("best_at", (size,))[:cnt], mode="clip")
    won = np.flatnonzero(np.equal(scores, best_at, out=ws("tie", (size,), bool)[:cnt]))
    # a frame's tie-broken winner has the least dilation, then angle, then index
    won = won[np.lexsort((cand.ravel()[entry[won]], phi.ravel()[entry[won]], key[won]))]
    keys, first = np.unique(key[won], return_index=True)
    win = entry[won[first]]
    head = np.full(b * f, -1, dtype=np.int64)
    head[keys] = cand.ravel()[win]
    r_head = np.zeros(b * f)
    r_head[keys] = r.ravel()[win]
    return head.reshape(b, f), best.reshape(b, f), r_head.reshape(b, f)


def _scan(xy: np.ndarray, m: int, table: tuple[np.ndarray, np.ndarray], sin_th: float,
          wanted: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each vertex's tie-broken first hit of each wanted trapezoid frame
    among its ``m`` nearest other points (all of them when m >= n - 1), as
    (n, 2k) tables of winner index, dilation and distance (see
    :func:`_winners`), and per vertex the bound on the distances left out
    (see :func:`_candidates`).  ``wanted`` is an (n, 2k) mask, and only
    vertices with a wanted frame are scanned; ``table`` is the
    :func:`_ty_window_table`.  The scan runs over blocks of vertices
    holding about ``_BLOCK`` (vertex, candidate, frame) entries each, and no
    more (vertex, candidate) pairs.  Every block works in one workspace,
    local to the call.
    """
    n, f = wanted.shape
    tables = (np.full((n, f), -1, dtype=np.int64), np.full((n, f), np.inf), np.zeros((n, f)))
    r_out = np.full(n, np.inf)
    todo = np.flatnonzero(wanted.any(axis=1))
    step = max(1, _BLOCK // max(m * table[0].shape[1], n - 1, 1))
    ws = _Workspace()
    for lo in range(0, len(todo), step):
        rows = todo[lo : lo + step]
        cand, r, phi, r_out[rows] = _candidates(xy, rows, m, ws)
        frame, alpha = _ty_window(phi, table, ws)
        for out, part in zip(tables, _winners(cand, r, phi, frame, alpha, sin_th, wanted[rows], ws)):
            out[rows] = part
    return (*tables, r_out)


def _screen(s: np.ndarray, key: np.ndarray, cells: int, ws: _Workspace) -> np.ndarray:
    """Flat indices of the entries that can be nearest in their cell:
    those whose square ``s`` (see :func:`_squares`) is at most the least
    square of their cell ``key`` (in [0, cells)) times 1 + 1e-9, plus
    1e-300.

    The screen is exact.  A square is within a few units in the last place
    of the true square, and np.hypot within one of the true distance, so an
    entry past the bound is strictly farther than its cell's nearest entry.
    An overflowed least passes its whole cell, and the 1e-300 term passes
    every square that lost accuracy to subnormal rounding."""
    least = np.full(cells, np.inf)
    np.minimum.at(least, key.ravel(), s.ravel())
    with np.errstate(over="ignore"):
        np.add(np.multiply(least, 1.0 + 1e-9, out=least), 1e-300, out=least)
    bound = np.take(least, key, out=ws("bound", s.shape), mode="clip")
    return np.flatnonzero(np.less_equal(s, bound, out=ws("screen", s.shape, bool)))


def _yao_rows(xy: np.ndarray, rows: np.ndarray, k: int, ws: _Workspace) -> np.ndarray:
    """The Yao selection rows of the vertices ``rows``: per vertex and cone,
    the other point that is first in (distance, polar angle, index) order
    (-1 where the cone is empty), as a (len(rows), k) array.  Only the
    entries that pass :func:`_screen` on their (vertex, cone) cell get a
    np.hypot distance and enter the tie-break."""
    b, n = len(rows), xy.shape[0]
    cand, dx, dy = _offsets(xy, rows, ws)
    s = _squares(dx, dy, ws)
    phi = _angle_arr(dx, dy, out=(ws("phi", s.shape), ws("sq_t", s.shape), ws("polar_mask", s.shape, bool)))
    key = _cone_index_arr(k, phi, ws)
    np.add(key, (np.arange(b) * k)[:, None], out=key)
    idx = _screen(s, key, b * k, ws)
    cand, key, phi = cand.ravel()[idx], key.ravel()[idx], phi.ravel()[idx]
    r = np.hypot(dx.ravel()[idx], dy.ravel()[idx])
    # the tie-break one order key at a time: each cell keeps its entries of
    # least distance, of those the least angle, and of those the least index
    live = np.arange(len(idx))
    for col in (r, phi):
        least = np.full(b * k, np.inf)
        np.minimum.at(least, key[live], col[live])
        live = live[col[live] == least[key[live]]]
    choice = np.full(b * k, n, dtype=np.int64)
    np.minimum.at(choice, key[live], cand[live])
    choice[choice == n] = -1
    return choice.reshape(b, k)


def build_yao(points: Sequence[Point], k: int) -> ConeGraph:
    """Yao graph: per vertex and per cone of the uniform k-partition, keep the
    directed edge to the tie-broken nearest point inside the cone.  Every
    vertex scans all its other points, in blocks of vertices holding about
    ``_BLOCK`` (vertex, candidate) entries each (see :func:`_yao_rows`),
    all in one workspace local to the call."""
    if k < 1:
        raise GeometryError(f"k must be >= 1, got {k}")
    xy = as_point_array(points)
    n = xy.shape[0]
    choice = np.full((n, k), -1, dtype=np.int64)
    step = max(1, _BLOCK // max(n - 1, 1))
    ws = _Workspace()
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        choice[rows] = _yao_rows(xy, rows, k, ws)
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
    below a bound on the distance of every point left out (see
    :func:`_candidates`) is settled: no other point can win or tie it.
    Vertices with unsettled frames (empty ones included, as on hull-heavy
    inputs) rescan all their points for those frames only.  The graph keeps the first-contact table (see
    :class:`ConeGraph`).
    """
    th = theta(k)  # also enforces k > 24
    xy = as_point_array(points)
    n, sin_th = xy.shape[0], np.sin(th)

    table = _ty_window_table(k)
    head, lam, r_head, r_out = _scan(xy, min(_PREFIX, n - 1), table, sin_th, np.ones((n, 2 * k), dtype=bool))
    # settled: best dilation below r_out, which every left-out point's
    # dilation reaches; r_out is +inf where no point was left out
    unsettled = ~(lam < r_out[:, None]) & np.isfinite(r_out)[:, None]
    for merged, part in zip((head, lam, r_head), _scan(xy, n - 1, table, sin_th, unsettled)):
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
