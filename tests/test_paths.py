import math
import re
from dataclasses import replace
from itertools import chain, islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespan import paths
from conespan.analysis import subgraph_check, tau_bound
from conespan.build import build_oy, build_ty, build_yao
from conespan.geometry import TWO_PI, GeometryError, Point, dist, theta
from conespan.pointgen import GenKind, GenSpec, gen_points
from conespan.paths import (
    InvariantViolation,
    StepAudit,
    StepKind,
    _iter_descent_configs,
    descent_length_bound,
    harvest_descent_configs,
    oy_greedy_path,
    phi_potential,
    ty_descent_path,
)
from conespan.verify import RunConfig, check_potential
from conftest import (
    oracle_descent_walk,
    oracle_first_contact,
    oracle_greedy_path,
    oracle_harvest,
    oracle_local_coords,
    random_points,
    small_point_sets,
    triangular_lattice,
)

TOL = 1e-9


class TestPhiPotential:
    def test_origin_is_zero(self):
        for tau in (1.0, 6.0, 50.0):
            assert phi_potential(Point(0, 0), 0.0, tau) == 0.0

    def test_direct_arithmetic(self):
        assert phi_potential(Point(0.5, -0.2), 0.0, 6.0) == pytest.approx(3.1, rel=1e-12)

    def test_tau_validated(self):
        with pytest.raises(GeometryError):
            phi_potential(Point(0, 0), 0.0, 0.5)


class TestOyGreedyPath:
    def test_two_points(self):
        g = build_oy([Point(0, 0), Point(1, 0)], 26)
        tr = oy_greedy_path(g, 0, 1)
        assert tr.vertices == (0, 1)
        assert tr.total_length == pytest.approx(1.0)

    def test_direct_edge_base_case(self):
        # the overall nearest neighbor is the selection of every widened cone
        # containing it, so the walk ends after the first hop
        pts = random_points(40, 3)
        g = build_oy(pts, 30)
        for u in range(10):
            v = min((i for i in range(len(pts)) if i != u), key=lambda i: dist(pts[u], pts[i]))
            assert g.has_edge(u, v)
            tr = oy_greedy_path(g, u, v)
            assert tr.vertices == (u, v)
            assert tr.total_length == pytest.approx(dist(pts[u], pts[v]), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_length_bound_all_pairs(self, seed):
        pts = random_points(60, seed)
        k = 30
        g = build_oy(pts, k)
        tau = tau_bound(k)
        for u in range(len(pts)):
            for v in range(len(pts)):
                if u == v:
                    continue
                tr = oy_greedy_path(g, u, v)
                assert tr.total_length <= tau * dist(pts[u], pts[v]) * (1 + TOL)
                assert len(tr.vertices) <= len(pts)

    def test_strict_progress_and_edge_lengths(self):
        pts = random_points(80, 5)
        g = build_oy(pts, 26)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = rng.choice(len(pts), size=2, replace=False)
            tr = oy_greedy_path(g, int(u), int(v))
            remaining = dist(pts[u], pts[v])
            for a, b in zip(tr.vertices, tr.vertices[1:]):
                hop = dist(pts[a], pts[b])
                # each hop's edge is shorter than the remaining direct distance
                assert hop <= remaining * (1 + TOL)
                new_remaining = dist(pts[b], pts[v])
                assert b == v or new_remaining < remaining
                remaining = new_remaining

    def test_hop_audits_monotone(self):
        pts = random_points(60, 7)
        g = build_oy(pts, 28)
        tr = oy_greedy_path(g, 0, 31)
        assert all(s.kind is StepKind.OY_HOP for s in tr.steps)
        assert all(s.phi_after <= s.phi_before + TOL for s in tr.steps)
        assert tr.total_length == pytest.approx(sum(s.length for s in tr.steps), rel=1e-12)

    def test_edges_exist_in_graph(self):
        pts = random_points(50, 9)
        g = build_oy(pts, 26)
        tr = oy_greedy_path(g, 4, 44)
        for a, b in zip(tr.vertices, tr.vertices[1:]):
            assert g.has_edge(a, b)

    def test_same_vertex_rejected(self):
        g = build_oy(random_points(10, 0), 26)
        with pytest.raises(GeometryError, match="endpoints must differ"):
            oy_greedy_path(g, 3, 3)

    @pytest.mark.parametrize("u,v", [(7, 7), (-1, -1), (3, 0), (0, -1)])
    def test_out_of_range_named_before_equality(self, u, v):
        g = build_oy([Point(0, 0), Point(1, 0), Point(0, 1)], 26)
        with pytest.raises(GeometryError, match=re.escape(f"out of range: u={u}, v={v}, n=3")):
            oy_greedy_path(g, u, v)

    def test_wrong_family_rejected(self):
        g = build_yao(random_points(10, 0), 26)
        with pytest.raises(GeometryError, match="overlapping-Yao"):
            oy_greedy_path(g, 0, 1)

    def test_rejects_graph_without_selection_table(self):
        g = build_oy(random_points(30, 11), 26)
        stripped = replace(g, cone_choice=None)
        with pytest.raises(GeometryError, match="selection table"):
            oy_greedy_path(stripped, 0, 5)

    def test_missing_edge_signals_construction_bug(self):
        pts = random_points(30, 11)
        g = build_oy(pts, 26)
        gutted = replace(g, edges=g.edges[:0])  # selection table kept, edges gone
        with pytest.raises(InvariantViolation, match="expected an overlapping-Yao edge"):
            oy_greedy_path(gutted, 0, 5)


@pytest.fixture(scope="module")
def setup():
    pts = random_points(60, 7)
    k = 30
    return pts, build_ty(pts, k), build_oy(pts, k)


class TestSharedPointSet:
    """Graphs share a point set when their coordinates are equal, whichever
    Point objects they were built from."""

    def test_equal_points_accepted_and_moved_points_rejected(self):
        pts = random_points(60, 7)
        fresh = [Point(p.x, p.y) for p in pts]
        assert fresh == pts and all(a is not b for a, b in zip(fresh, pts))
        # one coordinate one ulp off, and the same points in another order
        moved = [Point(np.nextafter(pts[0].x, 2.0).item(), pts[0].y)] + pts[1:]
        ty, oy = build_ty(pts, 30), build_oy(pts, 30)
        oy_fresh = build_oy(fresh, 30)
        assert subgraph_check(oy_fresh, ty)[0]
        cell, a = harvest_descent_configs(ty)[0]
        assert ty_descent_path(ty, oy_fresh, cell, a) == ty_descent_path(ty, oy, cell, a)
        for u, v in ((0, 59), (17, 3), (42, 8)):
            assert oy_greedy_path(oy_fresh, u, v) == oy_greedy_path(oy, u, v)
        for other in (moved, pts[::-1]):
            oy_other = build_oy(other, 30)
            with pytest.raises(GeometryError, match="identical point sequences"):
                subgraph_check(oy_other, ty)
            with pytest.raises(GeometryError, match="share the point set"):
                ty_descent_path(ty, oy_other, cell, a)


class TestTyDescentPath:
    def test_harvest_yields_configs(self, setup):
        _, ty, _ = setup
        configs = harvest_descent_configs(ty)
        assert len(configs) > 100

    def test_bound_and_monotonicity(self, setup):
        pts, ty, oy = setup
        configs = harvest_descent_configs(ty)
        assert len(configs)
        for cell, a in configs[:150]:
            tr = ty_descent_path(ty, oy, cell, a)
            bound = descent_length_bound(ty, cell, a)
            assert tr.total_length <= bound + TOL
            for s in tr.steps:
                assert s.phi_after <= s.phi_before + TOL
            assert tr.vertices[0] == a and tr.vertices[-1] == cell // (2 * ty.k)

    def test_final_potential_zero(self, setup):
        pts, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        tr = ty_descent_path(ty, oy, cell, a)
        assert tr.steps[-1].phi_after == pytest.approx(0.0, abs=1e-9)

    def test_psi_range_on_growth_steps(self, setup):
        pts, ty, oy = setup
        for cell, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, cell, a)
            for s in tr.steps:
                if s.kind in (StepKind.DIRECT_TY_EDGE, StepKind.OY_SUBPATH):
                    assert 5 * math.pi / 6 < s.psi <= math.pi

    def test_intermediates_stay_in_lower_half_plane(self, setup):
        pts, ty, oy = setup
        for cell, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, cell, a)
            local, _ = oracle_local_coords(ty, cell)
            for vtx in tr.vertices:
                assert local[vtx, 1] <= TOL

    def test_every_edge_shorter_than_oa(self, setup):
        pts, ty, oy = setup
        for cell, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, cell, a)
            d_oa = dist(pts[cell // (2 * ty.k)], pts[a])
            for x, y in zip(tr.vertices, tr.vertices[1:]):
                assert dist(pts[x], pts[y]) <= d_oa * (1 + TOL)

    def test_edges_certified_by_graphs(self, setup):
        pts, ty, oy = setup
        for cell, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, cell, a)
            for x, y in zip(tr.vertices, tr.vertices[1:]):
                assert ty.has_edge(x, y) or oy.has_edge(x, y)

    def test_total_is_sum_of_steps(self, setup):
        pts, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[5]
        tr = ty_descent_path(ty, oy, cell, a)
        assert tr.total_length == pytest.approx(sum(s.length for s in tr.steps), rel=1e-9)

    def test_witness_precondition_errors(self, setup):
        pts, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        o = cell // (2 * ty.k)
        with pytest.raises(GeometryError, match="witness"):
            ty_descent_path(ty, oy, cell, o)
        # a vertex on the wrong side of the frame violates a named clause
        local, _ = oracle_local_coords(ty, cell)
        bad = next(
            i
            for i in range(len(pts))
            if i not in (o, a) and not (0.0 < local[i, 0] < 1.0 and local[i, 1] <= 0.0)
        )
        with pytest.raises(GeometryError, match="precondition failed"):
            ty_descent_path(ty, oy, cell, bad)

    def test_mismatched_graphs_rejected(self, setup):
        pts, ty, oy = setup
        other = build_oy(random_points(60, 8), 30)
        cell, a = harvest_descent_configs(ty)[0]
        with pytest.raises(GeometryError, match="share"):
            ty_descent_path(ty, other, cell, a)
        with pytest.raises(GeometryError, match="selection table"):
            ty_descent_path(ty, replace(oy, cone_choice=None), cell, a)

    def test_non_critical_frame_rejected(self, setup):
        # a frame that selected no edge has no certified empty placement,
        # whether it hit a point off the critical arc or none at all
        pts, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        open_rows = np.argwhere(~ty.ty_critical)
        hit = ty.ty_head[tuple(open_rows.T)] >= 0
        assert hit.any() and not hit.all()
        apex = cell // (2 * ty.k)
        rows = [(apex, f) for f in np.flatnonzero(~ty.ty_critical[apex]).tolist()]
        rows += [(o, f) for o, f in open_rows[[np.argmax(hit), np.argmax(~hit)]].tolist()]
        for o, f in rows:
            witness = a if o == apex else (o + 1) % ty.n
            with pytest.raises(GeometryError, match="precondition failed: frame"):
                ty_descent_path(ty, oy, o * 2 * ty.k + f, witness)

    @pytest.mark.parametrize(
        "outside",
        [lambda c, size: -1, lambda c, size: c - size, lambda c, size: size, lambda c, size: c + size],
        ids=["minus_one", "wrapped_below", "two_k", "wrapped_above"],
    )
    def test_frame_out_of_range_rejected(self, setup, outside):
        # a cell indexes the table's n * 2k cells: a cell n * 2k below a
        # critical one, which flat indexing would wrap onto it, or n * 2k
        # above it must not stand for it
        pts, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        with pytest.raises(GeometryError, match="precondition failed: frame"):
            ty_descent_path(ty, oy, outside(int(cell), ty.ty_critical.size), a)

    def test_both_chiralities_harvested_and_walkable(self, setup):
        pts, ty, oy = setup
        configs = harvest_descent_configs(ty)
        by_refl = {False: None, True: None}
        for cell, a in configs:
            if by_refl[cell % (2 * ty.k) >= ty.k] is None:
                by_refl[cell % (2 * ty.k) >= ty.k] = (cell, a)
        assert by_refl[False] is not None and by_refl[True] is not None
        for cell, a in by_refl.values():
            tr = ty_descent_path(ty, oy, cell, a)
            assert tr.vertices[-1] == cell // (2 * ty.k)

    def test_all_step_kinds_reachable(self):
        # across a few seeds the harvest exercises every labeled step kind
        seen = set()
        for seed in range(4):
            pts = random_points(60, seed)
            ty = build_ty(pts, 30)
            oy = build_oy(pts, 30)
            for cell, a in harvest_descent_configs(ty)[:300]:
                tr = ty_descent_path(ty, oy, cell, a)
                seen.update(s.kind for s in tr.steps)
        assert StepKind.DIRECT_TY_EDGE in seen
        assert StepKind.OY_SUBPATH in seen
        assert StepKind.FINAL_OY_SUBPATH in seen

    def test_growth_tie_break_matches_build_ty(self):
        # point 1 lies a hair below the polar axis: its angle rounds up to 2pi,
        # which the shared normalizer maps to 0, so it ties point 2 on angle
        # as well as scale and wins on index, in the descent's growth step
        # exactly as in build_ty's mirrored frame 2
        pts = [Point(0.0, 0.0), Point(0.5, -1e-300), Point(0.5, 0.0)]
        k = 30
        xy = np.array([[p.x, p.y] for p in pts])
        win, _, _ = oracle_first_contact(xy, 0, 2 * TWO_PI / k, math.sin(theta(k)))
        ty = build_ty(pts, k)
        selected = {h for (t, h), fs in ty.ty_frames.items() if t == 0 and (2, True) in fs}
        assert selected == {win} == {ty.ty_head[0, k + 2]} == {1}


def _length_bound(ty, oy, cell, a):
    return descent_length_bound(ty, cell, a)


# both entry points check a configuration's start conditions alike
START_CHECKED = pytest.mark.parametrize(
    "call", [ty_descent_path, _length_bound], ids=["descent", "bound"]
)


class TestDescentStart:
    @START_CHECKED
    @pytest.mark.parametrize("outside", [lambda size: -1, lambda size: size], ids=["minus_one", "two_k"])
    def test_frame_out_of_range_rejected(self, setup, call, outside):
        # -1 would wrap to the table's last cell; n * 2k is one past it
        _, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        with pytest.raises(GeometryError, match="precondition failed: frame"):
            call(ty, oy, outside(ty.ty_critical.size), a)

    @START_CHECKED
    def test_non_critical_frame_rejected(self, setup, call):
        # a row that selected no edge has no placed trapezoid (its bound was negative)
        _, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        o = cell // (2 * ty.k)
        f = int(np.flatnonzero(~ty.ty_critical[o])[0])
        with pytest.raises(GeometryError, match="precondition failed: frame"):
            call(ty, oy, o * 2 * ty.k + f, a)

    @START_CHECKED
    @pytest.mark.parametrize(
        "clause,violates",
        [
            ("0 < x_a < 1", lambda x, y, phi: not 0.0 < x < 1.0),
            ("y_a <= 0", lambda x, y, phi: 0.0 < x < 1.0 and y > 0.0),
            ("0 < phi(a->p) < pi/6", lambda x, y, phi: 0.0 < x < 1.0 and y <= 0.0 and phi >= math.pi / 6),
        ],
        ids=["x", "y", "angle"],
    )
    def test_non_witness_rejected(self, setup, call, clause, violates):
        _, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        local, _ = oracle_local_coords(ty, cell)
        phi = np.arctan2(-local[:, 1], 1.0 - local[:, 0])
        bad = next(i for i in range(ty.n) if i != cell // (2 * ty.k) and violates(*local[i], phi[i]))
        with pytest.raises(GeometryError, match=f"precondition failed: {re.escape(clause)}"):
            call(ty, oy, cell, bad)

    def test_bound_is_the_potential_at_the_witness(self, setup):
        _, ty, _ = setup
        tau = tau_bound(ty.k)
        configs = harvest_descent_configs(ty)
        assert len(configs) > 100
        for cell, a in configs:
            local, _ = oracle_local_coords(ty, cell)
            bound = descent_length_bound(ty, cell, a)
            assert type(bound) is float
            assert bound == phi_potential(Point(*local[a].tolist()), 0.0, tau)


HARVEST_SETS = {
    "random": lambda: random_points(60, 3),
    "clustered": lambda: gen_points(GenSpec(GenKind.CLUSTERED, 60, seed=2)),
    "cocircular": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 60, seed=2, jitter=1e-3)),
    "grid": lambda: gen_points(GenSpec(GenKind.GRID, 49, pitch=1.0)),
    "two_rows": lambda: [Point(float(i), float(y)) for y in (0, 1) for i in range(8)],
    "trilattice": lambda: triangular_lattice(8),
    "cocircular48": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 48)),
    "cocircular60": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 60)),
    "cocircular100": lambda: gen_points(GenSpec(GenKind.CO_CIRCULAR, 100)),
}
# exactly co-circular sets put harvested witnesses on frames' bottom rays
EXACT_SETS = ["cocircular48", "cocircular60", "cocircular100"]
# the walk reads build_ty's table; elsewhere it equals a first-contact walk
# over all points (tests/conftest.py), which on EXACT_SETS picks other winners
WALK_SETS = [name for name in HARVEST_SETS if name not in EXACT_SETS]

LARGER_SETS = pytest.mark.parametrize(
    "spec,k",
    [
        (GenSpec(GenKind.UNIFORM_SQUARE, 300, seed=1), 30),
        (GenSpec(GenKind.CLUSTERED, 200, seed=1), 84),
        (GenSpec(GenKind.CO_CIRCULAR, 200, seed=1, jitter=1e-3), 30),
    ],
    ids=["uniform", "clustered", "cocircular"],
)


class TestGreedyOracle:
    """oy_greedy_path equals the scalar walker of tests/conftest.py exactly:
    vertices, total length and every step record."""

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", ["grid", "two_rows", "trilattice", *EXACT_SETS])
    def test_all_ordered_pairs(self, name, k):
        g = build_oy(HARVEST_SETS[name](), k)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    tr = oy_greedy_path(g, u, v)
                    assert tr == oracle_greedy_path(g, u, v)
                    assert all(type(s) is StepAudit for s in tr.steps)

    @given(small_point_sets(), st.sampled_from([26, 30, 84]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_all_ordered_pairs_of_small_sets(self, pts, k):
        g = build_oy(pts, k)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert oy_greedy_path(g, u, v) == oracle_greedy_path(g, u, v)

    def test_same_invariant_violation_on_gutted_edges(self):
        g = build_oy(random_points(30, 11), 26)
        gutted = replace(g, edges=g.edges[:0])  # selection table kept, edges gone
        with pytest.raises(InvariantViolation) as expected:
            oracle_greedy_path(gutted, 0, 5)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(str(expected.value))}$"):
            oy_greedy_path(gutted, 0, 5)


class TestHarvest:
    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", list(HARVEST_SETS))
    def test_matches_per_frame_oracle(self, name, k):
        ty = build_ty(HARVEST_SETS[name](), k)
        configs = harvest_descent_configs(ty)
        assert len(configs)
        assert configs.tolist() == oracle_harvest(ty).tolist()

    @given(small_point_sets(), st.integers(-40, 40), st.sampled_from([26, 30, 84]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_per_frame_oracle_on_any_scaled_input(self, pts, j, k):
        # scaling by 2^j is exact, so only the pruning radius's rounding
        # margin separates the two harvests on these inputs
        ty = build_ty([Point(p.x * 2.0**j, p.y * 2.0**j) for p in pts], k)
        assert harvest_descent_configs(ty).tolist() == oracle_harvest(ty).tolist()

    def test_matches_per_frame_oracle_on_subnormal_offsets(self):
        # integer multiples of the smallest subnormal: the local map's products
        # round to that grid, so its errors are absolute, not relative
        rng = np.random.default_rng(0)
        unit = np.finfo(float).smallest_subnormal
        harvested = 0
        for _ in range(150):
            span = int(rng.choice([4, 16, 64]))
            cells = {tuple(c) for c in rng.integers(-span, span, size=(8, 2)).tolist()}
            ty = build_ty([Point(x * unit, y * unit) for x, y in cells], int(rng.choice([26, 30, 84])))
            configs = harvest_descent_configs(ty)
            assert configs.tolist() == oracle_harvest(ty).tolist()
            harvested += len(configs)
        assert harvested > 0

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("scale", [1e-161, 1e160], ids=["tiny", "huge"])
    def test_matches_per_frame_oracle_where_squares_leave_the_normal_range(self, scale, k):
        # offsets near 1e-161 square into subnormals, where rounding costs
        # a squared screen without absolute slack a witness at k=30; near
        # 1e160 they square past 1e300 and overflow.
        ty = build_ty(random_points(60, 3, scale=scale), k)
        tails, fs = np.nonzero(ty.ty_critical)
        with np.errstate(over="ignore"):
            squared = paths._placement(ty, tails, fs)[0] ** 2
        assert not ((squared >= 1e-300) & (squared <= 1e300)).any()
        configs = harvest_descent_configs(ty)
        assert len(configs)
        assert configs.tolist() == oracle_harvest(ty).tolist()

    @pytest.mark.parametrize("k", [26, 30, 84])
    def test_matches_per_frame_oracle_where_some_distances_overflow(self, k):
        # unit-scale frames, whose squared reaches are finite, next to points
        # near +-1e200, whose squared offsets from them overflow
        far = [Point(1e200, 3e199), Point(-2e200, 1e200), Point(5e199, -1e200)]
        ty = build_ty(random_points(40, 5) + far, k)
        tails, fs = np.nonzero(ty.ty_critical)
        with np.errstate(over="ignore"):
            squared = paths._placement(ty, tails, fs)[0] ** 2
        assert np.isfinite(squared).any() and np.isinf(squared).any()
        configs = harvest_descent_configs(ty)
        assert len(configs)
        assert configs.tolist() == oracle_harvest(ty).tolist()

    @LARGER_SETS
    def test_matches_per_frame_oracle_on_larger_sets(self, spec, k):
        ty = build_ty(gen_points(spec), k)
        assert harvest_descent_configs(ty).tolist() == oracle_harvest(ty).tolist()

    @LARGER_SETS
    def test_lazy_prefix_equals_harvest_prefix(self, spec, k):
        # verify's potential suite walks the first max_descent_configs (300)
        # configs and harvests only those
        ty = build_ty(gen_points(spec), k)
        configs = harvest_descent_configs(ty)
        assert len(configs) > 300
        for count in (0, 1, 300):
            prefix = islice(chain.from_iterable(_iter_descent_configs(ty)), count)
            assert [row.tolist() for row in prefix] == configs[:count].tolist()
        chunks = list(_iter_descent_configs(ty))
        assert np.concatenate(chunks).tolist() == configs.tolist()
        # one chunk per tail vertex, in tail order
        tails = [set((chunk[:, 0] // (2 * k)).tolist()) for chunk in chunks]
        assert all(len(t) == 1 for t in tails)
        assert [min(t) for t in tails] == np.unique(configs[:, 0] // (2 * k)).tolist()

    def test_potential_suite_walks_the_harvest_prefix(self):
        # co-circular input harvests ~20k configs here; the suite walks 300
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 200, seed=1, jitter=1e-3))
        graphs = {"ty": build_ty(pts, 30), "oy": build_oy(pts, 30)}
        (result,) = check_potential(RunConfig(k=30), graphs)
        assert result.passed and result.details["configs"] == 300

    def test_rows_are_critical_cells_and_witnesses_in_edge_order(self, setup):
        _, ty, _ = setup
        configs = harvest_descent_configs(ty)
        assert configs.shape == (len(configs), 2) and len(configs) > 100
        assert configs.dtype == np.int32
        cells, witnesses = configs.T
        assert ty.ty_critical.flat[cells].all()
        # (tail, head), then frame, then witness order: strictly increasing keys
        tails, fs = np.divmod(cells.astype(np.int64), 2 * ty.k)
        heads = ty.ty_head.flat[cells]
        keys = ((tails * ty.n + heads) * 2 * ty.k + fs) * ty.n + witnesses
        assert (np.diff(keys) > 0).all()

    def test_configs_of_one_frame_share_one_descent_frame(self, setup):
        _, ty, _ = setup
        configs = harvest_descent_configs(ty)
        cells = configs[:, 0].tolist()
        # a frame's witnesses are one contiguous run of rows under its one cell
        runs = [cell for i, cell in enumerate(cells) if i == 0 or cells[i - 1] != cell]
        assert len(runs) == len(set(runs)) > 1
        assert len(runs) < len(cells)
        # and every row of that run starts its descent from the same frame
        starts: dict[int, set[tuple[int, int]]] = {}
        for cell, a in configs.tolist():
            o, f, *_ = paths._descent_start(ty, cell, a)
            starts.setdefault(cell, set()).add((o, f))
        assert all(s == {divmod(cell, 2 * ty.k)} for cell, s in starts.items())

    def test_sequence_protocol(self, setup):
        # what callers use of the harvest: len, indexing, slicing and
        # unpacking each row into (cell, witness)
        _, ty, _ = setup
        configs = harvest_descent_configs(ty)
        rows = [tuple(row) for row in configs.tolist()]
        assert len(configs) == len(rows) > 100
        for i in (0, -1, -7, len(rows) // 2):
            assert tuple(configs[i].tolist()) == rows[i]
        cell, a = configs[len(rows) // 2]
        assert (int(cell), int(a)) == rows[len(rows) // 2]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                configs[i]
        for part in (slice(None, 300), slice(5, 40, 3), slice(-20, None), slice(None, None, -4), slice(9, 2)):
            assert [tuple(r) for r in configs[part].tolist()] == rows[part]
        assert [(int(c), int(w)) for c, w in configs[:300]] == rows[:300]

    def test_descent_from_a_harvested_row_holds_python_ints(self, setup):
        _, ty, oy = setup
        cell, a = harvest_descent_configs(ty)[0]
        assert type(cell) is np.int32 and type(a) is np.int32
        tr = ty_descent_path(ty, oy, cell, a)
        assert len(tr.vertices) > 1 and all(type(v) is int for v in tr.vertices)
        assert tr.vertices[0] == a and tr.vertices[-1] == cell // (2 * ty.k)

    def test_empty_harvest(self):
        # no witness: the two points are each other's only neighbour
        ty = build_ty([Point(0.0, 0.0), Point(1.0, 0.0)], 30)
        configs = harvest_descent_configs(ty)
        assert configs.shape == (0, 2) and configs.dtype == np.int32 and configs[:5].tolist() == []
        assert list(_iter_descent_configs(ty)) == []

    @pytest.mark.parametrize("block", [1, 7, 100, 10**9])
    @pytest.mark.parametrize("pairs", [1, 300, 10**9])
    def test_blocks_and_batches_match_per_frame_oracle(self, monkeypatch, block, pairs):
        # one tail per block or batch, blocks that split mid-way through the
        # tails' frames (placed up to a whole tail), and one block or batch
        monkeypatch.setattr(paths, "_BLOCK", block)
        monkeypatch.setattr(paths, "_PAIRS", pairs)
        for name in ("random", "cocircular"):
            ty = build_ty(HARVEST_SETS[name](), 30)
            expected = oracle_harvest(ty).tolist()
            assert harvest_descent_configs(ty).tolist() == expected
            chunks = list(_iter_descent_configs(ty))
            assert np.concatenate(chunks).tolist() == expected
            assert [len(set((chunk[:, 0] // 60).tolist())) for chunk in chunks] == [1] * len(chunks)

    def test_first_chunk_places_and_tests_only_the_first_block(self, monkeypatch):
        ty = build_ty(gen_points(GenSpec(GenKind.CO_CIRCULAR, 200, seed=1, jitter=1e-3)), 30)
        placed, tested = [], []
        placement, to_local = paths._placement, paths._to_local

        def count_placed(ty, o, f):
            placed.append(np.size(f))
            return placement(ty, o, f)

        def count_tested(dx, *rest):
            tested.append(np.size(dx))
            return to_local(dx, *rest)

        monkeypatch.setattr(paths, "_placement", count_placed)
        monkeypatch.setattr(paths, "_to_local", count_tested)
        monkeypatch.setattr(paths, "_BLOCK", 500)
        next(_iter_descent_configs(ty))
        assert len(placed) == 1 and 500 - 2 * ty.k < placed[0] <= 500
        assert len(tested) == 1 and paths._PAIRS <= tested[0] < 2 * paths._PAIRS
        frames = int(ty.ty_critical.sum())
        harvest_descent_configs(ty)
        assert sum(placed[1:]) == frames and max(placed[1:]) <= 500


def _translated_uniform() -> list[Point]:
    return [Point(p.x + 1e6, p.y + 1e6) for p in gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 150, seed=1))]


# inputs on which p - o loses its direction to cancellation: o sits far from
# the origin, or o and its first hit are nearly equal
CANCELLING_SETS = {
    "translated": _translated_uniform,
    "tight_cluster": lambda: gen_points(GenSpec(GenKind.CLUSTERED, 200, seed=1, spread=1e-7)),
}
PLACEMENT_SETS = {
    "uniform": lambda: gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 150, seed=4)),
    "clustered": HARVEST_SETS["clustered"],
    "cocircular": HARVEST_SETS["cocircular"],
    "cocircular60": HARVEST_SETS["cocircular60"],
    "grid": HARVEST_SETS["grid"],
    **CANCELLING_SETS,
}


def _benchmark_instance(kind, n, k, **spec):
    # the first instance the benchmark runs at --seed 23 (generator seed 23000)
    return lambda: (gen_points(RunConfig(kind=kind, n=n, seed=23000, **spec).genspec()), k)


# the sets whose every critical frame is placed on its grid row exactly
GRID_ROW_SETS = {
    **{name: (lambda make=make: (make(), 30)) for name, make in CANCELLING_SETS.items()},
    "uniform_k30": _benchmark_instance("uniform_square", 700, 30),
    "clustered_k84": _benchmark_instance("clustered", 420, 84),
    "cocircular_k30": _benchmark_instance("co_circular", 560, 30, jitter=1e-3),
}


class TestPlacement:
    """A frame's placement is worked out from its table row ``(o, f)``, by the
    harvest for all frames of a tail at once and by the descent one frame at
    a time, through one function."""

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", list(PLACEMENT_SETS))
    def test_bulk_placement_equals_scalar_twin(self, name, k):
        # the harvest's per-tail array call and the descent's single-frame
        # call give the same bits
        ty = build_ty(PLACEMENT_SETS[name](), k)
        tails, fs = np.nonzero(ty.ty_critical)
        assert tails.size
        per_tail = [np.array(paths._placement(ty, t, fs[tails == t])) for t in np.unique(tails).tolist()]
        single = np.array([paths._placement(ty, o, f) for o, f in zip(tails.tolist(), fs.tolist())]).T
        assert np.concatenate(per_tail, axis=1).tobytes() == single.tobytes()

    @pytest.mark.parametrize("name", list(GRID_ROW_SETS))
    def test_orientation_is_the_grid_row(self, name):
        # the direction of p - o drifted off the grid by up to 2.4e-8 rad on
        # the cancelling sets and by ulps elsewhere; the orientation is the
        # frame's grid direction itself
        pts, k = GRID_ROW_SETS[name]()
        ty = build_ty(pts, k)
        tails, fs = np.nonzero(ty.ty_critical)
        assert tails.size > 1000
        _, c, sn, *_ = paths._placement(ty, tails, fs)
        grid = [(math.cos(j * (TWO_PI / k)), math.sin(j * (TWO_PI / k))) for j in (fs % k).tolist()]
        assert np.column_stack([c, sn]).tobytes() == np.array(grid).tobytes()

    @pytest.mark.parametrize("name", list(CANCELLING_SETS))
    def test_every_config_walks_on_cancelling_input(self, name):
        # the descent took a frame's orientation back from the direction of
        # p - o, which rounding had moved off the cone grid, and rejected it
        pts = CANCELLING_SETS[name]()
        ty, oy = build_ty(pts, 30), build_oy(pts, 30)
        configs = harvest_descent_configs(ty)
        assert len(configs) > 1000
        for cell, a in configs:
            tr = ty_descent_path(ty, oy, cell, a)
            assert tr.vertices[0] == a and tr.vertices[-1] == cell // (2 * ty.k)


class TestDescentTable:
    """The descent reads each growth step off build_ty's first-contact table."""

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", WALK_SETS)
    def test_matches_oracle_walk(self, name, k):
        pts = HARVEST_SETS[name]()
        ty, oy = build_ty(pts, k), build_oy(pts, k)
        configs = harvest_descent_configs(ty)
        for cell, a in configs[:: max(1, len(configs) // 400)]:
            tr = ty_descent_path(ty, oy, cell, a)
            vertices, steps = oracle_descent_walk(ty, oy, cell, a)
            assert tr.vertices == vertices
            assert [(s.kind, s.length, s.psi) for s in tr.steps] == steps

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", EXACT_SETS)
    def test_walks_every_exact_cocircular_config(self, name, k):
        # a first-contact pass of the descent's own disagreed with build_ty
        # about points on a frame's bottom ray and raised on these configs
        pts = HARVEST_SETS[name]()
        ty, oy = build_ty(pts, k), build_oy(pts, k)
        configs = harvest_descent_configs(ty)
        assert len(configs)
        for cell, a in configs:
            tr = ty_descent_path(ty, oy, cell, a)
            assert tr.vertices[0] == a and tr.vertices[-1] == cell // (2 * ty.k)

    @staticmethod
    def _bottom_ray_configs():
        # exact co-circular n=60, k=30: witness 6 of tail 4 lies on its
        # frame's bottom ray to within rounding (y_a = -8.9e-17)
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 60, seed=0))
        ty, oy = build_ty(pts, 30), build_oy(pts, 30)
        configs = [(cell, a) for cell, a in harvest_descent_configs(ty).tolist() if (cell // 60, a) == (4, 6)]
        return ty, oy, configs

    def test_bottom_ray_config_is_harvested_and_walkable(self):
        ty, oy, configs = self._bottom_ray_configs()
        assert configs
        for cell, a in configs:
            tr = ty_descent_path(ty, oy, cell, a)
            assert tr.vertices[0] == a and tr.vertices[-1] == cell // (2 * ty.k)

    @pytest.mark.xfail(
        strict=True,
        reason="bottom-ray witness: length 0.6691 > bound 0.6682, potential rise 0.785 "
        "(62 of 4963 configs at this n and k); ROADMAP item 2 settles it",
    )
    def test_bottom_ray_witness_keeps_the_descent_bound(self):
        ty, oy, configs = self._bottom_ray_configs()
        for cell, a in configs:
            tr = ty_descent_path(ty, oy, cell, a)
            assert tr.total_length <= descent_length_bound(ty, cell, a) + TOL
            assert all(s.phi_after <= s.phi_before + TOL for s in tr.steps)

    def test_potential_failures_name_their_frame_cell(self):
        # the bottom-ray set audited in full: each failure record's (cell, a)
        # reproduces that failure through the descent and its bound, though
        # the same (o, a) pairs also occur in passing frames
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 60, seed=0))
        ty, oy = build_ty(pts, 30), build_oy(pts, 30)
        with patch.object(RunConfig, "max_descent_configs", 10**6):
            (result,) = check_potential(RunConfig(k=30), {"ty": ty, "oy": oy})
        assert not result.passed and result.details["configs"] == len(harvest_descent_configs(ty))
        witnesses = result.details["witnesses"]
        assert witnesses
        for w in witnesses:
            assert w["o"] == w["cell"] // (2 * ty.k) and type(w["cell"]) is int
            tr = ty_descent_path(ty, oy, w["cell"], w["a"])
            bound = descent_length_bound(ty, w["cell"], w["a"])
            assert (tr.total_length, bound) == (w["length"], w["bound"])
            assert tr.total_length > bound + TOL or any(s.phi_after > s.phi_before + TOL for s in tr.steps)
        # other frames of a failing tail share its witness and pass
        failing = {(w["cell"], w["a"]) for w in witnesses}
        tail_witness = {(w["o"], w["a"]) for w in witnesses}
        shared = [
            (cell, a) for cell, a in harvest_descent_configs(ty).tolist()
            if (cell // (2 * ty.k), a) in tail_witness and (cell, a) not in failing
        ]
        assert any(
            ty_descent_path(ty, oy, cell, a).total_length <= descent_length_bound(ty, cell, a) + TOL
            for cell, a in shared
        )

    def test_witness_on_the_pi_6_edge_is_harvested_and_walkable(self):
        # phi(a->p) of witness 33 rounds to pi/6 from below in np.arctan2 and
        # onto it in math.atan2; harvest and descent must decide alike
        pts = triangular_lattice(8)
        ty, oy = build_ty(pts, 32), build_oy(pts, 32)
        configs = [(cell, a) for cell, a in harvest_descent_configs(ty).tolist() if (cell // 64, a) == (32, 33)]
        assert configs
        for cell, a in configs:
            ty_descent_path(ty, oy, cell, a)
