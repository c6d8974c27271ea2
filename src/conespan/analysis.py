"""Stretch-factor measurement, degree/connectivity audits, closed-form
stretch bounds, and the vectorized sector ratio of the ratio-bound check.

Stretch is always measured on the undirected support of the directed edge
sets (graph distances between all ordered pairs divided by Euclidean
distance); every report records that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from mpmath import mp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from .build import _BLOCK, ConeGraph, edge_array, edge_lengths
from .geometry import EPS_REL, GeometryError


@dataclass(frozen=True)
class SpannerReport:
    """Measured stretch with its witness pair, plus degree and connectivity."""

    stretch: float
    witness: tuple[int, int] | None
    max_degree: int
    connected: bool
    bound: float | None = None
    bound_satisfied: bool | None = None
    path_model: str = "undirected"


@dataclass(frozen=True)
class BoundTable:
    """The full chain of closed-form constants at parameter k."""

    k: int
    tau_k: float
    tau_2k: float
    theta_2k: float
    tau_prime_k: float
    t_k: float


@cache  # pure in k, and the paths call it once per walk
def tau_bound(k: int) -> float:
    """Stretch bound 1 / (1 - 2 sin(pi/k + pi/8)) for the widened-cone and
    trapezoidal families; positive (hence meaningful) exactly when k > 24."""
    if k <= 24:
        raise GeometryError(f"stretch bound requires k > 24, got {k}")
    with mp.workdps(30):
        v = 1 / (1 - 2 * mp.sin(mp.pi / k + mp.pi / 8))
    return float(v)


def tau_prime_bound(k: int) -> float:
    """Constant bounding how much longer Yao-Yao paths are than trapezoidal
    edges at parameter 2k; the larger of the two closed-form requirements.

    Needs k >= 42 so that (2*tau(2k) + 1) * tan(pi/k) stays below 1.
    """
    if k < 42:
        raise GeometryError(f"path-expansion bound requires k >= 42, got {k}")
    with mp.workdps(30):
        t2k = 1 / (1 - 2 * mp.sin(mp.pi / (2 * k) + mp.pi / 8))
        th = mp.ceil(mp.mpf(k) / 4) * mp.pi / k
        d1 = (1 - (2 * t2k + 1) * mp.tan(mp.pi / k)) * mp.cos(th + mp.pi / k)
        d2 = 1 - 2 * t2k * mp.sin(mp.pi / (2 * k))
        if d1 <= 0 or d2 <= 0:
            raise GeometryError(f"bound denominators must be positive at k={k}")
        v = max(1 / d1, 1 / d2)
    return float(v)


def t_bound(k: int) -> BoundTable:
    """Full constant table at parameter k, with t_k = tau_prime(k) * tau(2k)."""
    if k < 42:
        raise GeometryError(f"bound table requires k >= 42, got {k}")
    tau_k = tau_bound(k)
    tau_2k = tau_bound(2 * k)
    with mp.workdps(30):
        theta_2k = float(mp.ceil(mp.mpf(k) / 4) * mp.pi / k)
    tau_prime_k = tau_prime_bound(k)
    return BoundTable(k, tau_k, tau_2k, theta_2k, tau_prime_k, tau_prime_k * tau_2k)


def stretch_bound(short: str, k: int) -> float | None:
    """The closed-form stretch bound checked for a family, by CLI short name:
    tau(k) for overlapping- and trapezoidal-Yao, t_{k/2} for Yao-Yao at even
    k >= 84, and None where the paper states no bound."""
    if short in ("oy", "ty"):
        return tau_bound(k)
    if short == "yy" and k % 2 == 0 and k >= 84:
        return t_bound(k // 2).t_k
    return None


def _undirected(edges: np.ndarray, n: int) -> np.ndarray:
    """Undirected support of an (m, 2) directed edge array over n vertices:
    sorted, duplicate-free (a, b) rows with a < b."""
    return edge_array(edges.min(axis=1), edges.max(axis=1), n)


def _support_csr(graph: ConeGraph) -> csr_matrix:
    """Symmetric sparse adjacency of the undirected support, weighted by
    Euclidean edge length."""
    support = _undirected(graph.edges, graph.n)
    w = edge_lengths(graph.xy, support)
    a, b = support.T
    return csr_matrix((np.r_[w, w], (np.r_[a, b], np.r_[b, a])), shape=(graph.n, graph.n))


# Every _LANDMARK_GAP-th vertex is a landmark whose distances are computed in
# full; each vertex's _LANDMARK_NEAR nearest landmarks (by graph distance)
# bound its distances from above.
_LANDMARK_GAP = 8
_LANDMARK_NEAR = 3
# Sources per limited Dijkstra call, taken in order of their limits.
_SEARCH_ROWS = 16
# Relative slack for rounding: Dijkstra's path sums add the same edges in
# another order from another source, and the screening below divides by
# Euclidean distances a few units in the last place from np.hypot's.
_SLACK = 1e-9


def _euclid_rows(xy: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of ``rows`` to every point, exact as
    np.hypot gives them, with 1 on the diagonal so that a ratio can be
    divided out there and masked."""
    euclid = np.hypot(xy[rows, 0, None] - xy[:, 0], xy[rows, 1, None] - xy[:, 1])
    euclid[np.arange(len(rows)), rows] = 1.0
    return euclid


def _near_euclid_rows(xy: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``_euclid_rows`` to within a few units in the last place, as the root
    of a sum of squares (several times faster than np.hypot); rows whose
    squares leave the normal range of floats fall back to np.hypot."""
    dx = xy[rows, 0, None] - xy[:, 0]
    dy = xy[rows, 1, None] - xy[:, 1]
    with np.errstate(over="ignore"):  # checked below
        dx *= dx
        dy *= dy
        dx += dy
    dx[np.arange(len(rows)), rows] = 1.0
    if not (dx.min() >= 1e-300 and dx.max() <= 1e300):
        return _euclid_rows(xy, rows)
    return np.sqrt(dx, out=dx)


def _source_limits(support: csr_matrix, xy: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Per source s, a graph distance within which lies every target t whose
    ratio can reach the stretch of a connected graph, and per landmark row
    (every ``_LANDMARK_GAP``-th vertex) its largest screened ratio.

    The landmark rows are exact, so their largest ratio is a lower bound on
    the stretch.  Through a landmark u, d(s, t) <= d(u, s) + d(u, t); a target
    whose bound stays below that lower bound times |st| has a smaller ratio
    and can neither be nor tie the maximum.  The limit of s is the largest
    bound over its other targets; both comparisons carry ``_SLACK``."""
    n = xy.shape[0]
    marks = np.arange(0, n, _LANDMARK_GAP)
    dist = _sparse_dijkstra(support, directed=True, indices=marks)
    peak = np.empty(len(marks))
    for lo in range(0, len(marks), step):
        rows = marks[lo : lo + step]
        ratio = dist[lo : lo + step] / _near_euclid_rows(xy, rows)
        ratio[np.arange(len(rows)), rows] = -np.inf
        peak[lo : lo + step] = ratio.max(axis=1)
    floor = float(peak.max()) * (1.0 - _SLACK)
    near = min(_LANDMARK_NEAR, len(marks))
    limit = np.empty(n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        bound = via = None
        for u in np.argpartition(dist[:, rows], near - 1, axis=0)[:near]:
            via = np.take(dist, u, axis=0, out=via)
            via += dist[u, rows, None]
            bound = via.copy() if bound is None else np.minimum(bound, via, out=bound)
        bound[np.arange(len(rows)), rows] = 0.0
        wanted = bound >= floor * _near_euclid_rows(xy, rows)
        limit[rows] = np.where(wanted, bound, 0.0).max(axis=1)
    return limit * (1.0 + _SLACK), peak


def _rows_max(support: csr_matrix, xy: np.ndarray, sources: np.ndarray, step: int):
    """Largest exact ratio over the ascending ``sources`` rows and its first
    row-major witness, from full searches in blocks of ``step`` rows."""
    n = xy.shape[0]
    stretch, witness = -math.inf, None
    for lo in range(0, len(sources), step):
        rows = sources[lo : lo + step]
        ratio = _sparse_dijkstra(support, directed=True, indices=rows)
        np.divide(ratio, _euclid_rows(xy, rows), out=ratio)
        ratio[np.arange(len(rows)), rows] = -np.inf
        flat = int(np.argmax(ratio))
        if ratio.flat[flat] > stretch:  # strictly: an earlier block keeps its tie
            stretch, witness = float(ratio.flat[flat]), (int(rows[flat // n]), flat % n)
    return stretch, witness


def stretch_factor(graph: ConeGraph, bound: float | None = None, tol: float = EPS_REL) -> SpannerReport:
    """Exact stretch factor: max over ordered pairs of graph distance divided
    by Euclidean distance, with the attaining witness pair (the first in
    row-major order).  Disconnected graphs report +inf stretch (flagged, not
    an error), witnessed by vertex 0 and the first vertex outside its
    component.

    In a connected graph each source other than a landmark is searched only
    as far as ``_source_limits`` asks, and its ratios are screened against
    Euclidean distances a few units in the last place off; the landmark
    rows, searched in full there, keep their screened maxima from it.  The
    rows whose screened maximum comes within ``_SLACK`` of the largest are
    then searched in full and divided by the exact distances, so the
    stretch and its witness are bit for bit those of the full all-pairs
    ratio.  No n x n array is held: the landmark rows hold about
    n * n / ``_LANDMARK_GAP`` distances, every other array about
    ``_BLOCK``."""
    n = graph.n
    if n < 2:
        raise GeometryError(f"stretch factor needs at least 2 points, got {n}")
    support = _support_csr(graph)
    parts, label = connected_components(support, directed=False)
    if parts > 1:
        stretch, witness, connected = math.inf, (0, int(np.argmax(label != label[0]))), False
    else:
        step = max(1, _BLOCK // n)
        limit, peak = _source_limits(support, graph.xy, step)
        screened = np.empty(n)
        screened[::_LANDMARK_GAP] = peak
        order = np.argsort(limit, kind="stable")
        order = order[order % _LANDMARK_GAP != 0]
        for lo in range(0, len(order), _SEARCH_ROWS):
            rows = order[lo : lo + _SEARCH_ROWS]
            ratio = _sparse_dijkstra(support, directed=True, indices=rows, limit=float(limit[rows].max()))
            ratio[np.isinf(ratio)] = -np.inf  # beyond the limit: below the maximum
            ratio /= _near_euclid_rows(graph.xy, rows)
            ratio[np.arange(len(rows)), rows] = -np.inf
            screened[rows] = ratio.max(axis=1)
        top = np.flatnonzero(screened >= screened.max() * (1.0 - _SLACK))
        stretch, witness = _rows_max(support, graph.xy, top, step)
        connected = True
    max_degree, _ = degree_stats(graph)
    satisfied = None if bound is None else bool(stretch <= bound * (1.0 + tol))
    return SpannerReport(stretch, witness, max_degree, connected, bound, satisfied)


def degree_stats(graph: ConeGraph) -> tuple[int, dict[int, int]]:
    """Maximum degree and degree histogram of the undirected support."""
    counts = np.bincount(_undirected(graph.edges, graph.n).ravel(), minlength=graph.n)
    degrees, freq = np.unique(counts, return_counts=True)
    return (int(counts.max()) if graph.n else 0), dict(zip(degrees.tolist(), freq.tolist()))


def is_connected(graph: ConeGraph) -> bool:
    """Connectivity of the undirected support (vacuously true below 2 vertices)."""
    if graph.n <= 1:
        return True
    return connected_components(_support_csr(graph), directed=False)[0] == 1


def subgraph_check(inner: ConeGraph, outer: ConeGraph) -> tuple[bool, np.ndarray]:
    """True iff every directed edge of ``inner`` appears in ``outer`` (same
    point sequence required); returns the violating (tail, head) rows, in
    sorted order, otherwise."""
    if not np.array_equal(inner.xy, outer.xy):
        raise GeometryError("subgraph check requires identical point sequences")
    key = (inner.n, 1)  # (tail, head) -> tail * n + head
    missing = inner.edges[~np.isin(inner.edges @ key, outer.edges @ key)]
    return (not missing.size), missing


def sector_ratios(wx: np.ndarray, wy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sector ratio |uw| / (|uv| - |vw|) with u = (0, 0) and v = (1, 0),
    at each w = (wx, wy), and a mask of the w where it is defined: |vw| < 1,
    and unless w = v, both base angles, at u between u->v and u->w and at v
    between v->u and v->w, below pi/2.  Outside the mask the ratio is
    meaningless (possibly inf or nan)."""
    duw = np.hypot(wx, wy)
    dvw = np.hypot(wx - 1.0, wy)
    ang_u = np.abs(np.arctan2(-wy, wx))
    ang_v = np.abs(np.arctan2(wy, 1.0 - wx))
    valid = (dvw < 1.0) & ((dvw == 0.0) | ((ang_u < math.pi / 2) & (ang_v < math.pi / 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return duw / (1.0 - dvw), valid
