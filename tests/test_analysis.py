import math

import numpy as np
import pytest

from conespan import analysis
from conespan.analysis import (
    BoundTable,
    _support_csr,
    degree_stats,
    is_connected,
    sector_ratios,
    stretch_factor,
    subgraph_check,
    t_bound,
    tau_bound,
    tau_prime_bound,
)
from scipy.sparse.csgraph import dijkstra

from conespan.build import ConeGraph, Family, as_point_array, build_yao, build_yao_yao, edge_array
from conespan.geometry import GeometryError, Point
from conespan.verify import _ratio_grid
from conftest import brute_force_stretch, oracle_all_pairs_dist, random_points, ratio_oracle

# frozen 50-digit evaluations of the closed forms (mpmath, dps=50)
TAU_REF = {
    26: 57.172986221141214887,
    42: 10.132733909966239915,
    52: 8.0344136646159975162,
    84: 6.0212513632311386143,
    168: 4.9946070390732953071,
    1000: 4.3700178843176198305,
    2000: 4.3153367134037771448,
}
TAU_LIMIT = 4.2619726273956685611  # k -> infinity
TAU_PRIME_REF = {42: 70.969383435863589121, 84: 2.4969144888360177838, 1000: 1.4629398072426380309}
T_REF = {42: 427.32449676086702403, 84: 12.471106681904473454, 1000: 6.3130778596940008522}
T_ASYMPTOTE = 6.0273394921258481045  # sqrt(2) * (1 - 2 sin(pi/8))^-1


def graph_from(points, pair_list, k=8, family=Family.YAO) -> ConeGraph:
    pairs = np.array(pair_list, dtype=np.int64).reshape(-1, 2)
    edges = edge_array(pairs[:, 0], pairs[:, 1], len(points))
    return ConeGraph(as_point_array(points), k, family, edges)


def support_dist(graph: ConeGraph, source: int) -> np.ndarray:
    """Distances from ``source`` over the undirected support, as stretch_factor computes them."""
    return dijkstra(_support_csr(graph), indices=source)


class TestBounds:
    @pytest.mark.parametrize("k,ref", sorted(TAU_REF.items()))
    def test_tau_frozen(self, k, ref):
        assert tau_bound(k) == pytest.approx(ref, rel=1e-12)

    def test_tau_limit(self):
        assert tau_bound(10**9) == pytest.approx(TAU_LIMIT, rel=1e-6)

    def test_tau_domain(self):
        with pytest.raises(GeometryError):
            tau_bound(24)

    @pytest.mark.parametrize("k,ref", sorted(TAU_PRIME_REF.items()))
    def test_tau_prime_frozen(self, k, ref):
        assert tau_prime_bound(k) == pytest.approx(ref, rel=1e-12)

    def test_tau_prime_domain(self):
        with pytest.raises(GeometryError):
            tau_prime_bound(41)

    @pytest.mark.parametrize("k,ref", sorted(T_REF.items()))
    def test_t_frozen(self, k, ref):
        table = t_bound(k)
        assert table.t_k == pytest.approx(ref, rel=1e-12)
        assert table.t_k == pytest.approx(table.tau_prime_k * table.tau_2k, rel=1e-15)
        assert table.tau_2k == pytest.approx(tau_bound(2 * k), rel=1e-15)

    def test_t_domain(self):
        with pytest.raises(GeometryError):
            t_bound(41)

    def test_table_fields(self):
        table = t_bound(84)
        assert isinstance(table, BoundTable)
        assert table.k == 84
        assert table.theta_2k == pytest.approx(21 * math.pi / 84, rel=1e-12)

    def test_tau_strictly_decreasing(self):
        ks = list(range(25, 400)) + [1000, 10_000, 100_000, 1_000_000]
        vals = [tau_bound(k) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_t_decreasing_near_threshold(self):
        # consecutive-k decrease holds from the threshold up to k=60; beyond
        # that the ceiling term in theta(2k) makes single steps non-monotone
        vals = [t_bound(k).t_k for k in range(42, 61)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_t_decreasing_on_aligned_grid(self):
        # along k = 0 (mod 4) the trapezoid cap angle stays at pi/4 and the
        # whole chain is strictly monotone, up to k = 10^6
        ks = [44, 48, 52, 60, 84, 120, 400, 1000, 4096, 10**4, 10**5, 10**6]
        tv = [t_bound(k).t_k for k in ks]
        pv = [tau_prime_bound(k) for k in ks]
        assert all(a > b for a, b in zip(tv, tv[1:]))
        assert all(a > b for a, b in zip(pv, pv[1:]))

    def test_t_converges_to_asymptote(self):
        assert abs(t_bound(10**6).t_k - T_ASYMPTOTE) < 0.01

    def test_t_is_the_headline_constant_plus_order_one_over_k(self):
        """t_k falls from 427.3 at k=42 to 6.0301 at k=10^5 toward
        sqrt(2) / (1 - 2 sin(pi/8)) ~ 6.027339, and k * (t_k - that limit)
        stays at or below 300 from k=1000 on (285.7, 275.0, 273.9 and 273.8
        at k = 10^3 ... 10^6): the abstract's 6.03 + O(1/k).

        t_k does not fall at every step: t_{k+1} > t_k at every multiple of
        4 from k=60 to k=396, 85 of the k in 42..399, where ceil(k/4) and
        with it theta(2k) steps up.  So decrease is checked on a sparse
        sequence, and the rises are pinned."""
        limit = math.sqrt(2) / (1 - 2 * math.sin(math.pi / 8))
        assert limit == pytest.approx(T_ASYMPTOTE, rel=1e-15)
        tv = [t_bound(k).t_k for k in (42, 50, 84, 200, 1000, 10**5)]
        assert all(a > b for a, b in zip(tv, tv[1:]))
        assert tv[0] == pytest.approx(427.3245, rel=1e-6) and tv[-1] == pytest.approx(6.0301, abs=1e-4)
        for k in (1000, 10**4, 10**5, 10**6):
            assert 0.0 < k * (t_bound(k).t_k - limit) <= 300.0
        rises = [k for k in range(42, 400) if t_bound(k + 1).t_k > t_bound(k).t_k]
        assert rises == list(range(60, 400, 4))


class TestShortestPaths:
    def test_two_point_graph(self):
        pts = [Point(0, 0), Point(1, 0)]
        g = graph_from(pts, [(0, 1), (1, 0)])
        assert support_dist(g, 0).tolist() == [0.0, 1.0]

    def test_edgeless(self):
        g = graph_from([Point(0, 0), Point(1, 0)], [])
        assert support_dist(g, 0).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_relaxation_oracle(self, seed):
        pts = random_points(8, seed)
        g = build_yao(pts, 5)
        ref = oracle_all_pairs_dist(pts, g.edge_pairs)
        for s in range(8):
            d = support_dist(g, s)
            for j in range(8):
                if math.isinf(ref[s, j]):
                    assert math.isinf(d[j])
                else:
                    assert d[j] == pytest.approx(ref[s, j], rel=1e-9)


class TestStretchFactor:
    def test_complete_graph_is_1(self):
        pts = random_points(6, 0)
        g = graph_from(pts, [(i, j) for i in range(6) for j in range(6) if i != j])
        rep = stretch_factor(g)
        assert rep.stretch == pytest.approx(1.0, rel=1e-12)
        assert rep.connected

    def test_right_angle_path(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        g = graph_from(pts, [(0, 1), (1, 2)])
        rep = stretch_factor(g)
        assert rep.stretch == pytest.approx(math.sqrt(2), rel=1e-12)
        assert tuple(sorted(rep.witness)) == (0, 2)
        assert rep.path_model == "undirected"

    def test_disconnected_reports_inf(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 5)]
        g = graph_from(pts, [(0, 1)])
        rep = stretch_factor(g)
        assert math.isinf(rep.stretch)
        assert not rep.connected

    def test_stretch_at_least_1(self):
        for seed in range(5):
            pts = random_points(30, seed)
            rep = stretch_factor(build_yao_yao(pts, 8))
            assert rep.stretch >= 1.0

    def test_bound_comparison(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        g = graph_from(pts, [(0, 1), (1, 2)])
        assert stretch_factor(g, bound=2.0).bound_satisfied
        assert not stretch_factor(g, bound=1.2).bound_satisfied

    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            stretch_factor(graph_from([Point(0, 0)], []))

    @pytest.mark.parametrize("block", [1, 7 * 36, 10**9], ids=["row", "partial", "one_block"])
    def test_source_blocks_match_dense_ratio(self, block, monkeypatch):
        # row blocks of any size, with landmarks from every vertex to vertex 0
        # alone, give the dense n x n ratio's maximum and its first row-major
        # witness, ties included (a unit grid has many), disconnected graphs too
        grid = [Point(float(i % 6), float(i // 6)) for i in range(36)]
        graphs = [
            build_yao_yao(grid, 8),
            build_yao_yao(random_points(36, 2), 7),
            graph_from(grid, [(i, i + 1) for i in range(0, 35, 2)]),
            build_yao_yao(random_points(96, 5), 8),
            _late_witness_chain(90),
            _tied_gadgets(90),
            _isolated_last(80),
            _rough_path(120),
            # equal ratios up to rounding, ranked one way by np.hypot and
            # another by the screening's distances
            build_yao_yao([Point(0.1 * (i % 8) + 0.01, 0.1 * (i // 8) + 0.03) for i in range(64)], 7),
        ]
        monkeypatch.setattr(analysis, "_BLOCK", block)
        for g in graphs:
            gd = dijkstra(_support_csr(g))
            euclid = np.hypot(*(g.xy[:, None, :] - g.xy[None, :, :]).T).T
            np.fill_diagonal(euclid, 1.0)
            ratio = gd / euclid
            np.fill_diagonal(ratio, -np.inf)
            flat = int(np.argmax(ratio))
            reports = []
            for gap, near in ((1, 3), (3, 3), (3, 1), (8, 3), (g.n, 3)):
                monkeypatch.setattr(analysis, "_LANDMARK_GAP", gap)
                monkeypatch.setattr(analysis, "_LANDMARK_NEAR", near)
                reports.append(stretch_factor(g, bound=1.5))
            rep = reports[0]
            assert (rep.stretch, rep.witness) == (ratio.flat[flat], divmod(flat, g.n))
            assert rep.connected == bool(np.isfinite(gd).all())
            assert rep.max_degree == degree_stats(g)[0]
            assert rep.bound_satisfied == bool(ratio.flat[flat] <= 1.5 * (1.0 + 1e-9))
            # every field, bit for bit, whatever the landmarks
            assert all(r == rep for r in reports)

    def test_pruned_rows_keep_the_earliest_witness(self, monkeypatch):
        # the witness lies in the last rows; an equal maximum in the first and
        # last rows, where the first row's witness must win; and the inf of
        # an isolated last vertex, witnessed from vertex 0
        late, tied, isolated = _late_witness_chain(90), _tied_gadgets(90), _isolated_last(80)
        for block in (2 * 90, analysis._BLOCK):
            monkeypatch.setattr(analysis, "_BLOCK", block)
            assert stretch_factor(late).witness == (80, 89)
            rep = stretch_factor(tied)
            assert (rep.stretch, rep.witness) == (3.0, (0, 3))
            rep = stretch_factor(isolated)
            assert rep.stretch == math.inf and rep.witness == (0, 79) and not rep.connected

    def test_limits_leave_distant_targets_unsearched(self, monkeypatch):
        # on a Yao-Yao graph the landmark bounds rule most pairs out: the
        # limited searches of the rows other than landmarks reach under half
        # of the n x n pairs, only the few rows holding the maximum are
        # searched again in full, and the answer is still the full search's
        g = build_yao_yao(random_points(300, 3), 8)
        calls = []

        def spy(graph, indices, **kw):
            out = dijkstra(graph, indices=indices, **kw)
            calls.append((kw.get("limit", math.inf), len(indices), int(np.isfinite(out).sum())))
            return out

        full = stretch_factor(g)
        monkeypatch.setattr(analysis, "_sparse_dijkstra", spy)
        assert stretch_factor(g) == full
        (_, marks, _), *searches, (again, rows, _) = calls
        assert marks == len(range(0, g.n, analysis._LANDMARK_GAP))
        assert all(limit < math.inf for limit, _, _ in searches)
        assert sum(rows for _, rows, _ in searches) == g.n - marks
        assert sum(reached for _, _, reached in searches) < g.n * g.n / 2
        assert again == math.inf and 2 <= rows <= 4  # the witness row and its mirror

    def test_landmark_rows_are_not_searched_again(self, monkeypatch):
        # the landmark rows' full searches also screen them, so the limited
        # searches cover exactly the other n - ceil(n / 8) rows, once each
        for g in (build_yao_yao(random_points(203, 6), 8), _rough_path(77), _late_witness_chain(90)):
            limited = []

            def spy(graph, indices, **kw):
                if "limit" in kw:
                    limited.extend(np.atleast_1d(indices).tolist())
                return dijkstra(graph, indices=indices, **kw)

            full = stretch_factor(g)
            monkeypatch.setattr(analysis, "_sparse_dijkstra", spy)
            assert stretch_factor(g) == full
            monkeypatch.undo()
            assert len(limited) == g.n - -(-g.n // 8)
            assert sorted(limited) == [v for v in range(g.n) if v % analysis._LANDMARK_GAP]

    def test_screening_distances_are_within_rounding(self):
        # the root of the sum of squares stays a few units in the last place
        # from np.hypot, falling back to it where the squares would leave the
        # normal range
        for xy in (np.random.default_rng(1).random((50, 2)), np.array([[0.0, 0.0], [1e-160, 0.0], [3e-160, 1e-160]]),
                   np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 3e200]])):
            rows = np.arange(len(xy))
            exact, near = analysis._euclid_rows(xy, rows), analysis._near_euclid_rows(xy, rows)
            assert np.all(np.abs(near - exact) <= 4 * np.spacing(exact))

    def test_limits_cover_every_rising_target(self):
        # a landmark bound never stops a search short of a target whose
        # ratio reaches the stretch
        for g in (build_yao_yao(random_points(96, 5), 8), _rough_path(120), _late_witness_chain(90)):
            support = _support_csr(g)
            gd = dijkstra(support)
            euclid = np.hypot(*(g.xy[:, None, :] - g.xy[None, :, :]).T).T
            np.fill_diagonal(euclid, 1.0)
            ratio = gd / euclid
            np.fill_diagonal(ratio, -np.inf)
            limit, _ = analysis._source_limits(support, g.xy, max(1, analysis._BLOCK // g.n))
            top = ratio >= ratio.max() * (1.0 - 1e-3)
            assert (gd[top] <= np.broadcast_to(limit[:, None], gd.shape)[top]).all()


def _late_witness_chain(n: int) -> ConeGraph:
    """A chain along the x axis whose last vertex hangs back beside vertex
    n - 10: the worst pair, (n - 10, n - 1), lies in the last rows."""
    pts = [Point(float(i), 0.0) for i in range(n - 1)] + [Point(n - 9.5, 0.1)]
    return graph_from(pts, [(i, i + 1) for i in range(n - 1)])


def _tied_gadgets(n: int) -> ConeGraph:
    """Two translated copies of an open unit square (ratio exactly 3 across
    its open side), vertices 0-3 and n-4..n-1, joined by a straight chain."""
    m = n - 7
    square = [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    pts = [Point(x, y) for x, y in square]
    pts += [Point(float(x), 0.0) for x in range(2, m + 1)]
    pts += [Point(x + m + 1, y) for x, y in square]
    pairs = [(0, 1), (1, 2), (2, 3), (2, 4)] + [(i, i + 1) for i in range(4, m + 2)]
    pairs += [(m + 2, m + 4), (m + 3, m + 4), (m + 4, m + 5), (m + 5, m + 6)]
    return graph_from(pts, pairs)


def _isolated_last(n: int) -> ConeGraph:
    """A Yao-Yao graph on n - 1 random points plus an isolated last vertex."""
    pts = random_points(n - 1, 4)
    return graph_from(pts + [Point(2.0, 2.0)], build_yao_yao(pts, 8).edges.tolist())


def _rough_path(n: int) -> ConeGraph:
    """A path through n random points taken in x order: its distances are
    long sums of irrational lengths, rounded differently from either end."""
    pts = sorted(random_points(n, 4), key=lambda p: p.x)
    return graph_from(pts, [(i, i + 1) for i in range(n - 1)])


class TestBruteForce:
    def test_complete_triangle(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 1.0)]
        assert brute_force_stretch(pts, [(0, 1), (1, 2), (0, 2)]) == pytest.approx(1.0)

    def test_right_angle_instance(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert brute_force_stretch(pts, [(0, 1), (1, 2)]) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(GeometryError):
            brute_force_stretch(random_points(13, 0), [])

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_oracle_agreement(self, seed):
        pts = random_points(8, seed)
        g = build_yao_yao(pts, 7)
        a = stretch_factor(g).stretch
        b = brute_force_stretch(pts, g.edges)
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b)
        else:
            assert a == pytest.approx(b, rel=1e-9)


class TestDegreeConnectivity:
    def test_two_point(self):
        g = graph_from([Point(0, 0), Point(1, 0)], [(0, 1), (1, 0)])
        max_deg, hist = degree_stats(g)
        assert max_deg == 1
        assert hist == {1: 2}

    def test_edgeless(self):
        g = graph_from([Point(0, 0), Point(1, 0)], [])
        assert degree_stats(g) == (0, {0: 2})
        assert not is_connected(g)

    def test_single_vertex_connected(self):
        assert is_connected(graph_from([Point(0, 0)], []))

    def test_yy_degree_bound(self):
        for k in (8, 16, 84):
            for seed in range(2):
                g = build_yao_yao(random_points(300, seed), k)
                assert degree_stats(g)[0] <= 2 * k

    def test_yy7_connected(self):
        for seed in range(5):
            assert is_connected(build_yao_yao(random_points(100, seed), 7))


class TestSpannerBoundsSampledK:
    # odd parameters are not covered by the acceptance grid; the widened-cone
    # and trapezoid geometry both depend on the ceiling terms, so probe a few
    @pytest.mark.parametrize("k", [27, 41, 77])
    def test_oy_ty_within_tau(self, k):
        from conespan.build import build_oy, build_ty

        tau = tau_bound(k)
        for seed in range(3):
            pts = random_points(80, seed)
            assert stretch_factor(build_oy(pts, k), bound=tau).bound_satisfied
            assert stretch_factor(build_ty(pts, k), bound=tau).bound_satisfied


class TestSubgraphCheck:
    def test_self(self):
        g = build_yao(random_points(20, 0), 8)
        ok, viol = subgraph_check(g, g)
        assert ok and len(viol) == 0

    def test_yy_vs_yao(self):
        pts = random_points(40, 1)
        ok, viol = subgraph_check(build_yao_yao(pts, 9), build_yao(pts, 9))
        assert ok and len(viol) == 0

    def test_violation_names_edge(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        inner = graph_from(pts, [(0, 1), (1, 2)])
        outer = graph_from(pts, [(0, 1)])
        ok, viol = subgraph_check(inner, outer)
        assert not ok
        assert viol.tolist() == [[1, 2]]

    def test_mismatched_points(self):
        with pytest.raises(GeometryError):
            subgraph_check(
                graph_from([Point(0, 0), Point(1, 0)], []),
                graph_from([Point(0, 0), Point(2, 0)], []),
            )


class TestRatioOracle:
    U = Point(0.0, 0.0)
    V = Point(1.0, 0.0)

    def test_w_equals_v(self):
        assert ratio_oracle(self.U, self.V, self.V, 1.0) == pytest.approx(1.0)

    def test_corner_attains_bound(self):
        for alpha in (math.pi / 12, math.pi / 6, math.pi / 4):
            w = Point(math.cos(alpha), math.sin(alpha))
            bound = 1.0 / (1.0 - 2.0 * math.sin(alpha / 2.0))
            assert ratio_oracle(self.U, self.V, w, 1.0) == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 4])
    def test_sector_never_exceeds_bound(self, alpha):
        bound = 1.0 / (1.0 - 2.0 * math.sin(alpha / 2.0))
        rng = np.random.default_rng(17)
        for _ in range(2000):
            beta = rng.uniform(-alpha, alpha)
            rho = math.sqrt(1.0 - rng.random())
            w = Point(rho * math.cos(beta), rho * math.sin(beta))
            assert ratio_oracle(self.U, self.V, w, 1.0) <= bound * (1 + 1e-9)

    def test_preconditions(self):
        with pytest.raises(GeometryError):
            ratio_oracle(self.U, self.V, self.V, 0.5)  # tau < 1
        with pytest.raises(GeometryError):
            ratio_oracle(self.U, self.U, self.V, 1.0)  # u == v
        with pytest.raises(GeometryError):
            ratio_oracle(self.U, self.V, Point(0.0, 0.9), 2.0)  # tau|vw| >= |uv|
        with pytest.raises(GeometryError, match="angle"):
            ratio_oracle(self.U, self.V, Point(1.05, 0.1), 1.0)  # obtuse at v

    # the three restricted families: sampled maxima sit at the stated extremes
    def test_arc_family_max_at_largest_vw(self):
        rho = 0.8
        angles = np.linspace(0.0, math.pi / 4, 400)
        vals = [ratio_oracle(self.U, self.V, Point(rho * math.cos(b), rho * math.sin(b)), 1.0) for b in angles]
        best = int(np.argmax(vals))
        dvw = [math.hypot(rho * math.cos(b) - 1.0, rho * math.sin(b)) for b in angles]
        assert best == int(np.argmax(dvw)) == len(angles) - 1

    def test_ray_from_v_family_max_at_largest_vw(self):
        direction = 2.3  # points up-left from v, toward u's side
        ts = np.linspace(0.01, 0.45, 300)
        ws = [Point(1.0 + t * math.cos(direction), t * math.sin(direction)) for t in ts]
        vals = [ratio_oracle(self.U, self.V, w, 1.0) for w in ws]
        assert int(np.argmax(vals)) == len(ts) - 1

    def test_ray_from_u_family_max_at_endpoint(self):
        beta = math.pi / 5
        ts = np.linspace(0.05, 0.999, 300)
        ws = [Point(t * math.cos(beta), t * math.sin(beta)) for t in ts]
        vals = [ratio_oracle(self.U, self.V, w, 1.0) for w in ws]
        best = int(np.argmax(vals))
        assert best in (0, len(ts) - 1)


class TestSectorRatios:
    """The vectorized ratio of the ratio_bound suite against ratio_oracle."""

    U = Point(0.0, 0.0)
    V = Point(1.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.pi / 12, math.pi / 6, math.pi / 4])
    def test_max_equals_scalar_oracle(self, alpha):
        wx, wy = _ratio_grid(alpha)  # the grid check_ratio_bound evaluates
        ratio, valid = sector_ratios(wx, wy)
        assert valid.all()
        scalar = [ratio_oracle(self.U, self.V, Point(x, y), 1.0) for x, y in zip(wx.tolist(), wy.tolist())]
        assert ratio.max() == pytest.approx(max(scalar), rel=1e-15, abs=0.0)
        # elementwise, the two hypots may each differ by an ulp, and
        # 1 - |vw| amplifies |vw|'s by |vw| / (1 - |vw|) <= 3.3: about 11 eps
        assert np.allclose(ratio, scalar, rtol=12 * np.finfo(float).eps, atol=0.0)

    def test_validity_mask_is_where_the_oracle_raises(self):
        ws = [
            (1.0, 0.0),  # w = v: no base angles
            (0.5, 0.3),
            (1e-9, 0.0),  # w next to u
            (1e-300, 0.0),  # |vw| rounds to |uv|
            (0.0, 0.9),  # |vw| >= |uv|
            (1.0, 1.0),  # |vw| = |uv| exactly
            (1.05, 0.1),  # obtuse at v
            (-0.05, 0.1),  # obtuse at u
            (0.0, 0.5),  # right angle at u
            (0.99, -0.2),
        ]
        ratio, valid = sector_ratios(np.array([w[0] for w in ws]), np.array([w[1] for w in ws]))
        for (x, y), r, ok in zip(ws, ratio.tolist(), valid.tolist()):
            try:
                expected = ratio_oracle(self.U, self.V, Point(x, y), 1.0)
            except GeometryError:
                assert not ok, (x, y)
            else:
                assert ok and r == pytest.approx(expected, rel=1e-15, abs=0.0), (x, y)
        assert valid.tolist() == [True, True, True, False, False, False, False, False, False, True]
