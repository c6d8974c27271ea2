import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import groupby
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conespan import build
from conespan.build import (
    FAMILIES,
    ConeGraph,
    Family,
    build_oy,
    build_ty,
    build_yao,
    build_yao_yao,
    edge_array,
    _ty_window,
    _ty_window_table,
)
from conespan.analysis import _undirected, subgraph_check
from conespan.verify import RunConfig, _get_graphs
from conespan.geometry import (
    EPS_REL,
    HALF_PI,
    GeometryError,
    HitPart,
    Point,
    TWO_PI,
    TrapezoidFrame,
    polar_angle,
    scale_to_hit,
    theta,
)
from conespan.pointgen import GenKind, GenSpec, gen_points
from conftest import (
    _candidate_polar,
    dense_build_ty,
    dense_build_yao,
    first_contact,
    oracle_oy_pairs,
    oracle_ty_pairs,
    oracle_yao_pairs,
    oracle_yy_pairs,
    random_points,
    small_point_sets,
    triangular_lattice,
)


def pairs(graph: ConeGraph) -> set[tuple[int, int]]:
    return {(t, h) for t, h in graph.edges.tolist()}


class TestBuildYao:
    def test_two_points(self):
        g = build_yao([Point(0, 0), Point(1, 0)], 8)
        assert pairs(g) == {(0, 1), (1, 0)}
        assert g.lengths.tolist() == [1.0, 1.0]

    def test_collinear_three(self):
        g = build_yao([Point(0, 0), Point(1, 0), Point(2, 0)], 8)
        assert pairs(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_square_corners_k4(self, square_corners):
        g = build_yao(square_corners, 4)
        from_origin = {(t, h) for t, h in pairs(g) if t == 0}
        # cone 0 holds both (1,0) and (1,1); the nearer (1,0) wins
        assert from_origin == {(0, 1), (0, 3)}

    @pytest.mark.parametrize("k,seed", [(7, 0), (8, 1), (12, 2), (26, 3)])
    def test_matches_scalar_oracle(self, k, seed):
        pts = random_points(40, seed)
        assert pairs(build_yao(pts, k)) == oracle_yao_pairs(pts, k)

    def test_out_degree_bound(self):
        pts = random_points(80, 4)
        for k in (4, 9, 16):
            g = build_yao(pts, k)
            out = np.zeros(len(pts), dtype=int)
            for t, _ in pairs(g):
                out[t] += 1
            assert out.max() <= k

    def test_duplicate_points_rejected(self):
        with pytest.raises(GeometryError, match="duplicate"):
            build_yao([Point(0, 0), Point(1, 1), Point(0, 0)], 8)

    @pytest.mark.parametrize(
        "xy,message",
        [
            # the first point equal to an earlier one, with that one's index
            ([(5, 5), (1, 1), (1, 1), (5, 5)], "indices 1 and 2: (1.0, 1.0)"),
            ([(3, 1), (1, 2), (3, 1), (1, 2), (3, 1)], "indices 0 and 2: (3.0, 1.0)"),
            # 0.0 and -0.0 are one coordinate; the later point's signs are shown
            ([(0.0, -0.0), (2, 2), (-0.0, 0.0), (2, 2)], "indices 0 and 2: (-0.0, 0.0)"),
        ],
    )
    def test_duplicate_report_names_the_first_repeat(self, xy, message):
        with pytest.raises(GeometryError, match=f"^duplicate point at {re.escape(message)}$"):
            build.as_point_array([Point(float(x), float(y)) for x, y in xy])

    def test_edge_lengths_match_coordinates(self):
        pts = random_points(30, 5)
        g = build_yao(pts, 8)
        for (t, h), length in zip(g.edges.tolist(), g.lengths.tolist()):
            d = math.hypot(pts[h].x - pts[t].x, pts[h].y - pts[t].y)
            assert abs(length - d) <= 1e-12 * max(1.0, d)


class TestBuildYaoYao:
    def test_no_competition(self):
        pts = [Point(0, 0), Point(1, 0)]
        assert pairs(build_yao_yao(pts, 8)) == pairs(build_yao(pts, 8))

    @pytest.mark.parametrize("k,seed", [(6, 0), (8, 10), (12, 1), (30, 2)])
    def test_subset_of_yao(self, k, seed):
        pts = random_points(50, seed)
        assert pairs(build_yao_yao(pts, k)) <= pairs(build_yao(pts, k))

    def test_matches_two_pass_oracle(self):
        pts = random_points(50, 1)
        k = 12
        yy = pairs(build_yao_yao(pts, k))
        assert yy == oracle_yy_pairs(pts, k)
        assert len(yy) < len(pairs(build_yao(pts, k)))  # something was pruned

    def test_degree_bounds(self):
        pts = random_points(120, 3)
        for k in (8, 16):
            g = build_yao_yao(pts, k)
            indeg = np.zeros(len(pts), dtype=int)
            outdeg = np.zeros(len(pts), dtype=int)
            for t, h in pairs(g):
                outdeg[t] += 1
                indeg[h] += 1
            assert indeg.max() <= k
            assert outdeg.max() <= k


class TestBuildOy:
    def test_two_points(self):
        g = build_oy([Point(0, 0), Point(1, 0)], 26)
        assert pairs(g) == {(0, 1), (1, 0)}

    def test_collinear_dedup(self):
        g = build_oy([Point(0, 0), Point(1, 0), Point(3, 0)], 26)
        assert pairs(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_per_cone_selection_table(self):
        pts = random_points(20, 6)
        g = build_oy(pts, 26)
        assert g.cone_choice is not None
        assert g.cone_choice.shape == (20, 26)
        # every occupied slot's head must be an actual edge
        for u in range(20):
            for j in range(26):
                h = g.cone_choice[u, j]
                if h >= 0:
                    assert (u, int(h)) in pairs(g)

    @pytest.mark.parametrize("k,seed", [(26, 7), (30, 7)])
    def test_matches_brute_force_scan(self, k, seed):
        pts = random_points(40, seed)
        assert pairs(build_oy(pts, k)) == oracle_oy_pairs(pts, k)

    def test_small_k_warns_but_builds(self):
        with pytest.warns(UserWarning, match="k > 24"):
            g = build_oy(random_points(10, 0), 8)
        assert g.family is Family.OVERLAPPING_YAO


class TestBuildTy:
    def test_two_points(self):
        g = build_ty([Point(0, 0), Point(1, 0)], 26)
        assert pairs(g) == {(0, 1), (1, 0)}

    def test_requires_large_k(self):
        with pytest.raises(GeometryError):
            build_ty([Point(0, 0), Point(1, 0)], 24)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_oy_subgraph_of_ty(self, seed):
        pts = random_points(60, seed)
        for k in (26, 30):
            assert pairs(build_oy(pts, k)) <= pairs(build_ty(pts, k))

    def test_matches_first_contact_oracle(self):
        pts = random_points(40, 7)
        k = 30
        assert pairs(build_ty(pts, k)) == oracle_ty_pairs(pts, k)

    def test_generating_frames_recorded(self):
        pts = random_points(30, 2)
        g = build_ty(pts, 26)
        assert g.ty_frames is not None
        assert set(g.ty_frames) == pairs(g)
        th = theta(26)
        for (t, h), frames in g.ty_frames.items():
            assert frames
            for j, reflected in frames:
                frame = TrapezoidFrame(pts[t], j * (TWO_PI / 26), reflected, th)
                hit = scale_to_hit(frame, pts[h])
                assert hit.part is HitPart.CRITICAL_ARC

    def test_critical_arc_knife_edge_matches_scale_to_hit(self):
        # lam/r of this point exceeds 1 + EPS_REL by less than one ulp in
        # scale_to_hit's arithmetic, and the builder (in its own arithmetic)
        # puts it on the critical arc; both sites must classify it alike
        k = 30
        w = Point(0.3764756026278534, 0.41811851674020706)
        hit = scale_to_hit(TrapezoidFrame(Point(0.0, 0.0), 0.0, False, theta(k)), w)
        excess = Fraction(hit.lam) / Fraction(math.hypot(w.x, w.y)) - 1 - Fraction(EPS_REL)
        assert 0 < excess < math.ulp(1.0)
        selected = (0, False) in build_ty([Point(0.0, 0.0), w], k).ty_frames.get((0, 1), [])
        assert (hit.part is HitPart.CRITICAL_ARC) == selected

    def test_open_trapezoid_empty_per_edge(self):
        # for every selected edge and generating frame, no point enters the
        # placed shape strictly before the edge's contact scale
        pts = random_points(40, 9)
        k = 26
        g = build_ty(pts, k)
        th = theta(k)
        for (t, h), frames in g.ty_frames.items():
            d = math.hypot(pts[h].x - pts[t].x, pts[h].y - pts[t].y)
            for j, reflected in frames:
                frame = TrapezoidFrame(pts[t], j * (TWO_PI / k), reflected, th)
                for i, p in enumerate(pts):
                    if i == t:
                        continue
                    hit = scale_to_hit(frame, p)
                    if hit.part is not HitPart.NONE:
                        assert hit.lam >= d * (1 - 1e-9)


def assert_same_ty(got: ConeGraph, ref: ConeGraph) -> None:
    # every frame's winner and dilation, critical or not: the descent
    # follows non-critical winners into greedy overlapping-Yao subpaths
    assert np.array_equal(got.ty_head, ref.ty_head)
    assert np.array_equal(got.ty_lam, ref.ty_lam)
    assert np.array_equal(got.ty_critical, ref.ty_critical)
    assert np.array_equal(got.edges, ref.edges)


def assert_same_yao(got: ConeGraph, ref: ConeGraph) -> None:
    # Yao-Yao and overlapping-Yao are derived from the selection table
    assert np.array_equal(got.cone_choice, ref.cone_choice)
    assert np.array_equal(got.edges, ref.edges)


# the builders on the pruned sweep: (builder, dense oracle, comparison)
SWEPT = {
    "ty": (build_ty, dense_build_ty, assert_same_ty),
    "yao": (build_yao, dense_build_yao, assert_same_yao),
}


# sets large enough that every vertex leaves candidates out of its prefix
PRUNED_SETS = {
    "uniform300": lambda: gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 300, seed=4)),
    "clustered300": lambda: gen_points(GenSpec(GenKind.CLUSTERED, 300, seed=4)),
    "cocircular200": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 200, jitter=0.0)),
    "cocircular200_jitter": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 200, seed=4, jitter=1e-3)),
    "grid20x20": lambda: gen_points(GenSpec(GenKind.GRID, 400, pitch=1.0)),
    "two_rows": lambda: [Point(float(i), float(y)) for y in (0, 1) for i in range(150)],
    "cocircular60": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 60)),
    "cocircular100": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 100)),
    "trilattice8x8": lambda: triangular_lattice(8),
}


class TestTyPrunedSweep:
    """build_ty settles trapezoid frames from each vertex's nearest points
    and rescans the rest; build_yao scans every other point of each vertex
    once.  The Yao selection table and the trapezoidal-Yao first-contact
    table must equal the dense scans' (tests/conftest.py) exactly.
    Unlabelled k are trapezoidal-Yao."""

    # Yao's one pass at few cones (k=4, k=8) up to more cones than build_ty's
    # prefix has points (k=49, k=84)
    @pytest.mark.parametrize(
        "family,k",
        [("ty", 26), ("ty", 30), ("ty", 84), ("yao", 4), ("yao", 8), ("yao", 30), ("yao", 49), ("yao", 84)],
        ids=["26", "30", "84", "yao4", "yao8", "yao30", "yao49", "yao84"],
    )
    @pytest.mark.parametrize("name", list(PRUNED_SETS))
    def test_matches_dense_oracle(self, name, family, k):
        pts = PRUNED_SETS[name]()
        assert len(pts) - 1 > build._PREFIX
        builder, dense, assert_same = SWEPT[family]
        assert_same(builder(pts, k), dense(pts, k))

    @pytest.mark.parametrize("k", [8, 48, 49, 84])
    def test_yao_scans_every_candidate_once_per_vertex(self, k):
        # no prefix pass at any k: each vertex is in exactly one block, whose
        # screen sees all its n - 1 candidates
        pts = PRUNED_SETS["uniform300"]()
        blocks, screened = [], []

        def yao_rows(xy, rows, k, ws):
            blocks.append(rows.copy())
            return yao_rows_of(xy, rows, k, ws)

        def screen(s, key, cells, ws):
            screened.append(s.shape)
            return screen_of(s, key, cells, ws)

        yao_rows_of, screen_of = build._yao_rows, build._screen
        with patch.object(build, "_yao_rows", yao_rows), patch.object(build, "_screen", screen):
            got = build_yao(pts, k)
        assert np.array_equal(np.concatenate(blocks), np.arange(len(pts)))
        assert screened == [(len(rows), len(pts) - 1) for rows in blocks]
        assert_same_yao(got, dense_build_yao(pts, k))

    @pytest.mark.parametrize("prefix", [8, build._PREFIX])
    @pytest.mark.parametrize("k", [26, 30, 84])
    def test_small_exact_cocircular_matches_dense_oracle(self, prefix, k):
        # 47 candidates per vertex: the default prefix holds them all, and a
        # prefix of 8 splits them into settled and rescanned frames
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 48))
        with patch.object(build, "_PREFIX", prefix):
            got = build_ty(pts, k)
        assert_same_ty(got, dense_build_ty(pts, k))

    @given(
        small_point_sets(),
        st.integers(-40, 40),
        st.sampled_from([1, 3]),
        st.sampled_from([1, 200, build._BLOCK]),
        st.sampled_from([("ty", 26), ("ty", 30), ("ty", 84), ("yao", 5), ("yao", 8), ("yao", 30)]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_settle_and_rescan_match_dense_oracle(self, pts, j, prefix, block, family_k):
        # a prefix of 1 or 3 points splits even tiny sets into settled and
        # rescanned trapezoid frames (Yao reads no prefix); a block of 1 runs
        # one vertex per pass, and one of 200 entries mostly leaves a shorter
        # last block working in the front of the workspace arrays
        family, k = family_k
        builder, dense, assert_same = SWEPT[family]
        scaled = [Point(p.x * 2.0**j, p.y * 2.0**j) for p in pts]
        with patch.object(build, "_PREFIX", prefix), patch.object(build, "_BLOCK", block):
            got = builder(scaled, k)
        assert_same(got, dense(scaled, k))


class TestScanWorkspace:
    """Each build_ty and each build_yao sizes its workspace by its first
    block and reuses it for the rest; nothing of it outlives the call."""

    def test_partial_blocks_and_successive_builds_match_dense_oracle(self):
        # a large set, then a smaller one at another k, in one process and
        # with a block size that leaves most scans a shorter last block
        large, small = PRUNED_SETS["uniform300"](), PRUNED_SETS["cocircular60"]()
        blocks = []

        def candidates(xy, rows, m, ws):
            blocks.append((m, len(rows)))
            return candidates_of(xy, rows, m, ws)

        def yao_rows(xy, rows, k, ws):
            blocks.append((xy.shape[0] - 1, len(rows)))
            return yao_rows_of(xy, rows, k, ws)

        candidates_of, yao_rows_of = build._candidates, build._yao_rows
        partial = set()
        with (
            patch.object(build, "_BLOCK", 5 * 299 * 22),
            patch.object(build, "_candidates", candidates),
            patch.object(build, "_yao_rows", yao_rows),
        ):
            for pts, k in ((large, 30), (small, 84), (large, 84), (small, 26)):
                for family in ("ty", "yao"):
                    builder, dense, assert_same = SWEPT[family]
                    blocks.clear()
                    assert_same(builder(pts, k), dense(pts, k))
                    # one run of blocks per scan: the first is the largest
                    for _, run in groupby(blocks, key=lambda block: block[0]):
                        sizes = [size for _, size in run]
                        assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]
                        if sizes[-1] < sizes[0]:
                            partial.add(family)
        assert partial == {"ty", "yao"}

    def test_concurrent_builds_match_one_at_a_time(self):
        # no scan shares scratch memory with another: builds interleaved in
        # threads (numpy releases the interpreter lock) give the same tables
        jobs = [
            ("ty", PRUNED_SETS["uniform300"](), 30),
            ("yao", PRUNED_SETS["cocircular200_jitter"](), 30),
            ("ty", PRUNED_SETS["clustered300"](), 84),
            ("yao", PRUNED_SETS["grid20x20"](), 8),
        ] * 2
        expected = [SWEPT[family][0](pts, k) for family, pts, k in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(SWEPT[family][0], pts, k) for family, pts, k in jobs]
                got = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for (family, _, _), g, ref in zip(jobs, got, expected):
            SWEPT[family][2](g, ref)

    def test_workspace_views_share_their_first_allocation(self):
        ws = build._Workspace()
        first = ws("a", (4, 6))
        later = ws("a", (3, 5))
        assert np.shares_memory(first, later) and later.shape == (3, 5)
        assert not np.shares_memory(first, ws("b", (4, 6)))
        grown = ws("a", (5, 6))
        assert grown.shape == (5, 6) and not np.shares_memory(first, grown)


class RescanRecord:
    """Patches build_ty's rescan to record its unsettled mask and the
    entries each of its chunks gathers."""

    def __init__(self):
        self.unsettled = None
        self.sizes = []
        self._patches = (patch.object(build, "_rescan", self._rescan), patch.object(build, "_first_hits", self._hits))
        self._rescan_of, self._hits_of = build._rescan, build._first_hits

    def _rescan(self, xy, tables, unsettled, *args):
        self.unsettled = unsettled  # the rescan only reads it
        return self._rescan_of(xy, tables, unsettled, *args)

    def _hits(self, *args):
        if self.unsettled is not None:  # a rescan chunk: the last argument is its entry count
            self.sizes.append(args[-1])
        return self._hits_of(*args)

    def __enter__(self):
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self._patches:
            p.stop()


def window_entries(xy: np.ndarray, k: int, unsettled: np.ndarray) -> int:
    """The (candidate, unsettled frame) pairs with the candidate in the
    frame's window, summed over vertices: the entries of a rescan that
    reads whole cone runs."""
    frame_of = _ty_window_table(k)[0]
    total = 0
    for i in np.flatnonzero(unsettled.any(axis=1)):
        _, _, phi = _candidate_polar(xy, i)
        cone = np.floor(phi / (TWO_PI / k)).astype(np.int64)
        total += int(unsettled[i, frame_of[cone]].sum())
    return total


class TestTyRescan:
    """build_ty rescans each unsettled frame over its window cones only, and
    there over the points within a seeded bound U_F on its dilation."""

    def test_reads_few_entries(self):
        # co-circular input rescans every vertex; reading whole rows, or
        # whole cone runs, gathers several times more than the radius cut
        pts, k = PRUNED_SETS["cocircular200_jitter"](), 30
        with RescanRecord() as rec:
            got = build_ty(pts, k)
        rows = int(rec.unsettled.any(axis=1).sum())
        assert rows == len(pts)
        slots = rows * (len(pts) - 1) * 2 * (-(-k // 4) + 3)
        whole_runs = window_entries(got.xy, k, rec.unsettled)
        # measured: 139,371 entries, 0.16 of the slots and 0.34 of whole runs
        assert sum(rec.sizes) < 0.25 * slots
        assert sum(rec.sizes) < 0.5 * whole_runs
        assert_same_ty(got, dense_build_ty(pts, k))

    @pytest.mark.parametrize("name", ["uniform300", "clustered300", "cocircular200_jitter"])
    def test_keeps_the_point_at_the_radius_cut(self, name):
        # a rescanned frame won at dilation == distance by the unique nearest
        # point of its cone: that point seeds U_F = lambda_F = r, so its key
        # equals the cut's and only side="right" keeps it
        pts, k = PRUNED_SETS[name](), 30
        with RescanRecord() as rec:
            got = build_ty(pts, k)
        at_cut = 0
        for i, f in zip(*np.nonzero(rec.unsettled & (got.ty_head >= 0))):
            cand, r, phi = _candidate_polar(got.xy, i)
            w = np.searchsorted(cand, got.ty_head[i, f])
            cone = np.floor(phi / (TWO_PI / k)) % k
            at_cut += got.ty_lam[i, f] == r[w] and np.sum(r[cone == cone[w]] <= r[w]) == 1
        assert at_cut > 0
        assert_same_ty(got, dense_build_ty(pts, k))

    def test_scratch_memory_follows_the_block_size(self):
        # with a small _BLOCK the rescan holds a few block-sized arrays at a
        # time: not whole rows of all vertices, nor (candidate, frame) slots,
        # and it reads a block's frames in chunks of a quarter block
        pts, k, block = PRUNED_SETS["cocircular200_jitter"](), 30, 4096
        peak = []

        def rescan(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rescan_of(*args)
            peak.append(tracemalloc.get_traced_memory()[1] - start)

        with RescanRecord() as rec, patch.object(build, "_BLOCK", block):
            rescan_of = build._rescan
            with patch.object(build, "_rescan", rescan):
                tracemalloc.start()
                try:
                    got = build_ty(pts, k)
                finally:
                    tracemalloc.stop()
        # measured: 2.8 block-sized float arrays, 2,091 entries per block
        assert peak[0] < 5 * 8 * block
        assert len(rec.sizes) > len(pts) / (block // (48 * 22)) and max(rec.sizes) <= block // 4
        assert_same_ty(got, dense_build_ty(pts, k))

    @pytest.mark.parametrize("k", [26, 30])
    def test_rows_with_overflowing_distances_read_whole_cone_runs(self, k):
        # two clusters 3.2e308 apart: distances across them overflow to +inf,
        # so every row reads its frames' whole window cones and matches a
        # build whose prefix holds every point
        rng = np.random.default_rng(3)
        pts = [Point(float(s * 1.6e308 + x * 1e306), float(y * 1e306)) for s in (-1, 1) for x, y in rng.random((30, 2))]
        with np.errstate(over="ignore"), RescanRecord() as rec, patch.object(build, "_PREFIX", 3):
            got = build_ty(pts, k)
        with np.errstate(over="ignore"):
            assert rec.unsettled.any()
            assert sum(rec.sizes) == window_entries(got.xy, k, rec.unsettled)
            with patch.object(build, "_PREFIX", len(pts)):
                full = build_ty(pts, k)
        assert_same_ty(got, full)


# transforms that move the squared distances out of the normal range of
# floats (2**500 past 1e300, 2**520 to overflow, 2**-520 and 2**-540 into
# subnormals or zero) or cancel digits in them (a shift by 1e6)
SCREEN_TRANSFORMS = {
    "x2^500": lambda p: Point(p.x * 2.0**500, p.y * 2.0**500),
    "x2^520": lambda p: Point(p.x * 2.0**520, p.y * 2.0**520),
    "x2^-520": lambda p: Point(p.x * 2.0**-520, p.y * 2.0**-520),
    "x2^-540": lambda p: Point(p.x * 2.0**-540, p.y * 2.0**-540),
    "shift1e6": lambda p: Point(p.x + 1e6, p.y + 1e6),
}


def pairwise_squares(pts: list[Point]) -> np.ndarray:
    xy = np.array([[p.x, p.y] for p in pts])
    d = xy[:, None, :] - xy[None, :, :]
    with np.errstate(over="ignore"):
        s = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    return s[~np.eye(len(pts), dtype=bool)]


class TestNearestScreen:
    """build_yao gives np.hypot and the tie-break only to the entries whose
    squared distance is near their cone's least, and build_ty's prefix
    ranks by squared distance; both fall back to exact distances where
    squares lose accuracy.  The tables must still equal the dense scans'."""

    @pytest.mark.parametrize(
        "family,k", [("yao", 4), ("yao", 8), ("yao", 30), ("yao", 84), ("ty", 30), ("ty", 84)],
        ids=["yao4", "yao8", "yao30", "yao84", "ty30", "ty84"],
    )
    @pytest.mark.parametrize("transform", list(SCREEN_TRANSFORMS))
    @pytest.mark.parametrize("name", ["uniform300", "grid20x20", "cocircular200"])
    def test_transformed_sets_match_dense_oracle(self, name, transform, family, k):
        pts = [SCREEN_TRANSFORMS[transform](p) for p in PRUNED_SETS[name]()]
        builder, dense, assert_same = SWEPT[family]
        assert_same(builder(pts, k), dense(pts, k))

    @pytest.mark.parametrize(
        "transform,check",
        [
            ("x2^500", lambda s: s.max() > 1e300 and np.isfinite(s).all()),
            ("x2^520", lambda s: np.isinf(s).any()),
            ("x2^-520", lambda s: (s < 2.2250738585072014e-308).any()),
            ("x2^-540", lambda s: (s < 2.2250738585072014e-308).all()),
        ],
    )
    def test_transforms_reach_the_ranges_they_name(self, transform, check):
        for name in ("uniform300", "grid20x20", "cocircular200"):
            pts = [SCREEN_TRANSFORMS[transform](p) for p in PRUNED_SETS[name]()]
            assert check(pairwise_squares(pts)), name

    @pytest.mark.parametrize("k", [8, 30])
    def test_few_entries_reach_hypot(self, k):
        # only the cones' nearest entries pass the screen on generic input:
        # one per occupied (vertex, cone) cell, so a screen that passes
        # everything fails here
        pts = PRUNED_SETS["uniform300"]()
        passed, entries = [], []

        def screen(s, key, cells, ws):
            idx = screen_of(s, key, cells, ws)
            passed.append(len(idx))
            entries.append(s.size)
            return idx

        screen_of = build._screen
        with patch.object(build, "_screen", screen):
            got = build_yao(pts, k)
        occupied = int(np.count_nonzero(got.cone_choice >= 0))
        assert occupied <= sum(passed) <= 1.01 * occupied
        assert sum(passed) < {8: 0.05, 30: 0.1}[k] * sum(entries)
        assert_same_yao(got, dense_build_yao(pts, k))

    @pytest.mark.parametrize("transform", [None, *SCREEN_TRANSFORMS])
    @pytest.mark.parametrize("name", ["uniform300", "grid20x20", "cocircular200"])
    def test_prefix_bound_is_below_every_left_out_distance(self, name, transform):
        # with squares: strictly below every left-out np.hypot distance and
        # within 2e-9 of the least; without (a block past [1e-300, 1e300]):
        # the least left-out distance itself
        pts = PRUNED_SETS[name]()
        if transform:
            pts = [SCREEN_TRANSFORMS[transform](p) for p in pts]
        xy = build.as_point_array(pts)
        squares = pairwise_squares(pts)
        exact = not (squares.min() >= 1e-300 and squares.max() <= 1e300)
        rows = np.arange(0, len(pts), 3)
        cand, r, _, r_out = build._candidates(xy, rows, build._PREFIX, build._Workspace())
        for i, row in enumerate(rows):
            left = np.setdiff1d(np.delete(np.arange(len(pts)), row), cand[i])
            r_left = np.hypot(*(xy[left] - xy[row]).T)
            assert np.max(r[i]) <= r_left.min()
            if exact:
                assert r_out[i] == r_left.min()
            else:
                assert r_left.min() * (1 - 2e-9) <= r_out[i] < r_left.min()


def assert_window_covers(phi: np.ndarray, r: np.ndarray, k: int) -> None:
    """Every (candidate, frame) with a finite dense dilation is in the
    candidate's window, and every window entry carries the dense sweep's
    angle bit for bit."""
    psi = np.arange(k) * (TWO_PI / k)
    dense_alpha = np.hstack(
        [np.mod(phi[:, None] - psi[None, :], TWO_PI), np.mod(psi[None, :] - phi[:, None], TWO_PI)]
    )
    finite = np.isfinite(first_contact(dense_alpha, r[:, None], np.sin(theta(k))))
    frame, alpha = _ty_window(phi, _ty_window_table(k), build._Workspace())
    assert np.array_equal(alpha, np.take_along_axis(dense_alpha, frame, axis=1))
    in_window = np.zeros_like(finite)
    np.put_along_axis(in_window, frame, True, axis=1)
    assert not np.any(finite & ~in_window)


@st.composite
def grid_adjacent_angles(draw, k):
    # angles within a few ulps of an orientation ray or of a quarter turn
    # from one, where the window's ends and its floor() are decided
    j = draw(st.integers(0, k))
    turn = draw(st.sampled_from([-HALF_PI, 0.0, HALF_PI]))
    phi = float(np.mod(j * (TWO_PI / k) + turn, TWO_PI))
    for _ in range(draw(st.integers(0, 4))):
        phi = math.nextafter(phi, draw(st.sampled_from([-math.inf, math.inf])))
    return min(max(phi, 0.0), math.nextafter(TWO_PI, 0.0))


class TestTyWindow:
    @given(st.data(), st.sampled_from([26, 30, 84]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_covers_grid_adjacent_angles(self, data, k):
        phi = np.array(data.draw(st.lists(grid_adjacent_angles(k), min_size=1, max_size=20)))
        assert_window_covers(phi, np.ones_like(phi), k)

    @pytest.mark.parametrize("k", [26, 30, 84])
    def test_covers_point_sets(self, k):
        sets = [random_points(60, 5), *(PRUNED_SETS[name]() for name in ("cocircular200", "grid20x20"))]
        for pts in sets:
            xy = np.array([[p.x, p.y] for p in pts])
            for i in range(0, len(pts), 7):
                _, r, phi = _candidate_polar(xy, i)
                assert_window_covers(phi, r, k)


class TestDeterminism:
    def test_rebuild_identical(self):
        pts = random_points(50, 8)
        for build, k in ((build_yao, 9), (build_yao_yao, 9), (build_oy, 27), (build_ty, 27)):
            assert np.array_equal(build(pts, k).edges, build(pts, k).edges)


class TestDegenerateInputs:
    """Structured sets with exact symmetries put chord directions exactly on
    cone rays and points exactly on growth-frame bottom rays.  Half-open
    membership at such knife edges is decided by last-ulp rounding, so the
    scalar oracles legitimately disagree with the vectorized builders there
    (both are internally consistent), and the widened-cone-inside-trapezoid
    inclusion itself has a measure-zero gap (see the right-angle-ray case
    below).  What must still hold on any input: determinism, the reverse
    step only removing edges, per-cone selection uniqueness, and the degree
    bounds.
    """

    @pytest.fixture(scope="class")
    @staticmethod
    def degenerate_sets():
        from conespan.pointgen import GenKind, GenSpec, gen_points

        return {
            "grid": gen_points(GenSpec(GenKind.GRID, 25, pitch=1.0)),
            "circle24": gen_points(GenSpec(GenKind.CO_CIRCULAR, 24, radius=1.0, jitter=0.0)),
            "circle26": gen_points(GenSpec(GenKind.CO_CIRCULAR, 26, radius=1.0, jitter=0.0)),
            "two_rows": [Point(float(i), 0.0) for i in range(8)]
            + [Point(float(i), 1.0) for i in range(8)],
        }

    def test_deterministic_and_structural(self, degenerate_sets):
        for pts in degenerate_sets.values():
            for k in (8, 26, 30):
                yao = build_yao(pts, k)
                yy = build_yao_yao(pts, k)
                assert np.array_equal(build_yao(pts, k).edges, yao.edges)
                assert pairs(yy) <= pairs(yao)
                outdeg = np.zeros(len(pts), dtype=int)
                for t, _ in pairs(yao):
                    outdeg[t] += 1
                assert outdeg.max() <= k
                indeg = np.zeros(len(pts), dtype=int)
                for _, h in pairs(yy):
                    indeg[h] += 1
                assert indeg.max() <= k

    def test_ty_rebuild_identical_on_symmetric_input(self, degenerate_sets):
        pts = degenerate_sets["circle24"]
        for k in (26, 30):
            assert np.array_equal(build_ty(pts, k).edges, build_ty(pts, k).edges)
            assert np.array_equal(build_oy(pts, k).edges, build_oy(pts, k).edges)

    def test_bottom_ray_point_blocks_subgraph_inclusion(self, degenerate_sets):
        # 24 co-circular points at k=26: the widened-cone edge 7->4 is chosen
        # in a cone whose upper boundary ray carries point 5 at a smaller
        # distance; the mirrored growth frame touches 5 on its bottom edge
        # before the far arc reaches 4, so no frame certifies 7->4.  The
        # inclusion therefore fails exactly on this measure-zero alignment
        # (and only there; random sets never produce it).
        pts = degenerate_sets["circle24"]
        oy = build_oy(pts, 26)
        ty = build_ty(pts, 26)
        assert (7, 4) in pairs(oy)
        ok, violations = subgraph_check(oy, ty)
        assert not ok
        assert [7, 4] in violations.tolist()

    def test_verify_graphs_equal_public_builders(self, degenerate_sets):
        # verify builds Yao once and derives Yao-Yao and overlapping-Yao from it
        for pts in [*degenerate_sets.values(), random_points(60, 0), random_points(60, 1)]:
            for k in (26, 30, 84):
                graphs = _get_graphs(RunConfig(k=k), pts)
                for name, (family, builder) in FAMILIES.items():
                    ref, got = builder(pts, k), graphs[name]
                    assert got.family is family and np.array_equal(got.edges, ref.edges)
                    if ref.cone_choice is None:
                        assert got.cone_choice is None
                    else:
                        assert np.array_equal(got.cone_choice, ref.cone_choice)
                    assert got.ty_frames == ref.ty_frames


def _generic_position(pts, k: int, margin: float = 1e-9) -> bool:
    """No pairwise direction within ``margin`` of a cone ray or of a ray
    shifted by pi/2 (the trapezoid window edge).  Oracle equality is only
    meaningful there: exactly-aligned directions are decided by last-ulp
    rounding, which the two computation paths may resolve differently.
    """
    w = TWO_PI / k
    for u in range(len(pts)):
        for v in range(len(pts)):
            if u == v:
                continue
            phi = polar_angle(pts[u], pts[v])
            for base in (phi, phi - math.pi / 2):
                frac = math.fmod(base, w)
                if frac < 0:
                    frac += w
                if min(frac, w - frac) < margin:
                    return False
    return True


class TestBuilderFuzz:
    @given(small_point_sets(), st.sampled_from([5, 8, 26]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_yao_families_match_oracles(self, pts, k):
        assume(_generic_position(pts, k))
        assert pairs(build_yao(pts, k)) == oracle_yao_pairs(pts, k)
        assert pairs(build_yao_yao(pts, k)) == oracle_yy_pairs(pts, k)

    @given(small_point_sets(), st.sampled_from([26, 31]))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_widened_and_trapezoid_match_oracles(self, pts, k):
        assume(_generic_position(pts, k))
        assert pairs(build_oy(pts, k)) == oracle_oy_pairs(pts, k)
        assert pairs(build_ty(pts, k)) == oracle_ty_pairs(pts, k)


class TestScaleInvariance:
    # uniform scaling by a power of two is exact in floating point, so the
    # selected edges must be identical at any such scale
    @pytest.mark.parametrize("factor", [2.0**-20, 2.0**18])
    def test_power_of_two_scaling_preserves_edges(self, factor):
        pts = random_points(40, 12)
        scaled = [Point(p.x * factor, p.y * factor) for p in pts]
        for build, k in ((build_yao, 9), (build_yao_yao, 9), (build_oy, 26), (build_ty, 26)):
            assert np.array_equal(build(pts, k).edges, build(scaled, k).edges)

    @given(small_point_sets(), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_power_of_two_scaling_preserves_edges_on_any_input(self, pts, j):
        scaled = [Point(p.x * 2.0**j, p.y * 2.0**j) for p in pts]
        for build, k in ((build_yao, 9), (build_yao_yao, 9), (build_oy, 26), (build_ty, 26)):
            assert np.array_equal(build(pts, k).edges, build(scaled, k).edges)


class TestPermutationInvariance:
    # on generic input no tie reaches the index tie-break, so relabeling the
    # points relabels the edges and changes nothing else
    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_index_permutation_preserves_edges(self, k, seed):
        pts = random_points(60, seed)
        perm = np.random.default_rng(seed).permutation(len(pts))
        permuted = [pts[i] for i in perm]
        for _, build in FAMILIES.values():
            got = build(permuted, k).edges
            assert np.array_equal(edge_array(perm[got[:, 0]], perm[got[:, 1]], len(pts)), build(pts, k).edges)


class TestConeGraph:
    def test_edge_pair_lookup(self):
        g = build_yao([Point(0, 0), Point(1, 0)], 8)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 1)

    def test_undirected_pairs(self):
        edges = np.array([[0, 1], [1, 0], [2, 1]])
        assert _undirected(edges, 3).tolist() == [[0, 1], [1, 2]]

    def test_edges_are_sorted_unique_int64_rows(self):
        # the overlapping-Yao table selects one head in several cones; the
        # edge array holds it once
        pts = random_points(50, 3)
        for name, (_, build) in FAMILIES.items():
            g = build(pts, 30)
            assert g.edges.dtype == np.int64 and g.edges.shape[1] == 2
            keys = g.edges[:, 0] * len(pts) + g.edges[:, 1]
            assert np.all(np.diff(keys) > 0), name
