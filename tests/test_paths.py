import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespan.analysis import tau_bound
from conespan.build import build_oy, build_ty, build_yao
from conespan.geometry import TWO_PI, GeometryError, Point, dist, theta
from conespan.pointgen import GenKind, GenSpec, gen_points
from conespan.paths import (
    DescentFrame,
    InvariantViolation,
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
        with pytest.raises(GeometryError):
            oy_greedy_path(g, 3, 3)

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


class TestTyDescentPath:
    def test_harvest_yields_configs(self, setup):
        _, ty, _ = setup
        configs = harvest_descent_configs(ty)
        assert len(configs) > 100

    def test_bound_and_monotonicity(self, setup):
        pts, ty, oy = setup
        configs = harvest_descent_configs(ty)
        assert configs
        for frame, a in configs[:150]:
            tr = ty_descent_path(ty, oy, frame, a)
            bound = descent_length_bound(ty, frame, a)
            assert tr.total_length <= bound + TOL
            for s in tr.steps:
                assert s.phi_after <= s.phi_before + TOL
            assert tr.vertices[0] == a and tr.vertices[-1] == frame.o

    def test_final_potential_zero(self, setup):
        pts, ty, oy = setup
        frame, a = harvest_descent_configs(ty)[0]
        tr = ty_descent_path(ty, oy, frame, a)
        assert tr.steps[-1].phi_after == pytest.approx(0.0, abs=1e-9)

    def test_psi_range_on_growth_steps(self, setup):
        pts, ty, oy = setup
        for frame, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, frame, a)
            for s in tr.steps:
                if s.kind in (StepKind.DIRECT_TY_EDGE, StepKind.OY_SUBPATH):
                    assert 5 * math.pi / 6 < s.psi <= math.pi

    def test_intermediates_stay_in_lower_half_plane(self, setup):
        pts, ty, oy = setup
        xy = np.array([[p.x, p.y] for p in pts])
        for frame, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, frame, a)
            local, _ = oracle_local_coords(xy, frame.o, frame.p, frame.reflected)
            for vtx in tr.vertices:
                assert local[vtx, 1] <= TOL

    def test_every_edge_shorter_than_oa(self, setup):
        pts, ty, oy = setup
        for frame, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, frame, a)
            d_oa = dist(pts[frame.o], pts[a])
            for x, y in zip(tr.vertices, tr.vertices[1:]):
                assert dist(pts[x], pts[y]) <= d_oa * (1 + TOL)

    def test_edges_certified_by_graphs(self, setup):
        pts, ty, oy = setup
        for frame, a in harvest_descent_configs(ty)[:150]:
            tr = ty_descent_path(ty, oy, frame, a)
            for x, y in zip(tr.vertices, tr.vertices[1:]):
                assert ty.has_edge(x, y) or oy.has_edge(x, y)

    def test_total_is_sum_of_steps(self, setup):
        pts, ty, oy = setup
        frame, a = harvest_descent_configs(ty)[5]
        tr = ty_descent_path(ty, oy, frame, a)
        assert tr.total_length == pytest.approx(sum(s.length for s in tr.steps), rel=1e-9)

    def test_witness_precondition_errors(self, setup):
        pts, ty, oy = setup
        frame, a = harvest_descent_configs(ty)[0]
        with pytest.raises(GeometryError, match="witness"):
            ty_descent_path(ty, oy, frame, frame.o)
        # a vertex on the wrong side of the frame violates a named clause
        xy = np.array([[p.x, p.y] for p in pts])
        local, _ = oracle_local_coords(xy, frame.o, frame.p, frame.reflected)
        bad = next(
            i
            for i in range(len(pts))
            if i not in (frame.o, a) and not (0.0 < local[i, 0] < 1.0 and local[i, 1] <= 0.0)
        )
        with pytest.raises(GeometryError, match="precondition failed"):
            ty_descent_path(ty, oy, frame, bad)

    def test_mismatched_graphs_rejected(self, setup):
        pts, ty, oy = setup
        other = build_oy(random_points(60, 8), 30)
        frame, a = harvest_descent_configs(ty)[0]
        with pytest.raises(GeometryError, match="share"):
            ty_descent_path(ty, other, frame, a)

    def test_off_grid_placement_rejected(self, setup):
        pts, ty, oy = setup
        frame, a = harvest_descent_configs(ty)[0]
        o_pt = pts[frame.o]
        s = dist(o_pt, frame.p)
        skew = math.atan2(frame.p.y - o_pt.y, frame.p.x - o_pt.x) + 0.01
        crooked = DescentFrame(frame.o, Point(o_pt.x + s * math.cos(skew), o_pt.y + s * math.sin(skew)), frame.reflected)
        with pytest.raises(GeometryError, match="grid"):
            ty_descent_path(ty, oy, crooked, a)

    def test_both_chiralities_harvested_and_walkable(self, setup):
        pts, ty, oy = setup
        configs = harvest_descent_configs(ty)
        by_refl = {False: None, True: None}
        for frame, a in configs:
            if by_refl[frame.reflected] is None:
                by_refl[frame.reflected] = (frame, a)
        assert by_refl[False] is not None and by_refl[True] is not None
        for frame, a in by_refl.values():
            tr = ty_descent_path(ty, oy, frame, a)
            assert tr.vertices[-1] == frame.o

    def test_interior_precondition_reads_the_table(self, setup):
        # p pushed out to 1.5 |op| grows the placed shape past the frame's
        # own first hit, the head of the edge it selected
        pts, ty, oy = setup
        frame, a = harvest_descent_configs(ty)[0]
        o_pt = pts[frame.o]
        far = Point(o_pt.x + 1.5 * (frame.p.x - o_pt.x), o_pt.y + 1.5 * (frame.p.y - o_pt.y))
        j = round(math.atan2(frame.p.y - o_pt.y, frame.p.x - o_pt.x) / (TWO_PI / ty.k)) % ty.k
        winner = ty.ty_head[frame.o, frame.reflected * ty.k + j]
        assert ty.ty_critical[frame.o, frame.reflected * ty.k + j]
        assert dist(o_pt, pts[winner]) == pytest.approx(dist(o_pt, frame.p), rel=1e-12)
        with pytest.raises(GeometryError, match=f"interior contains point {winner}$"):
            ty_descent_path(ty, oy, DescentFrame(frame.o, far, frame.reflected), a)

    def test_all_step_kinds_reachable(self):
        # across a few seeds the harvest exercises every labeled step kind
        seen = set()
        for seed in range(4):
            pts = random_points(60, seed)
            ty = build_ty(pts, 30)
            oy = build_oy(pts, 30)
            for frame, a in harvest_descent_configs(ty)[:300]:
                tr = ty_descent_path(ty, oy, frame, a)
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


def _config_rows(configs):
    return [(frame.o, frame.p, frame.reflected, a) for frame, a in configs]


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


class TestHarvest:
    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", list(HARVEST_SETS))
    def test_matches_per_frame_oracle(self, name, k):
        ty = build_ty(HARVEST_SETS[name](), k)
        configs = harvest_descent_configs(ty)
        assert configs
        assert _config_rows(configs) == _config_rows(oracle_harvest(ty))

    @given(small_point_sets(), st.integers(-40, 40), st.sampled_from([26, 30, 84]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_per_frame_oracle_on_any_scaled_input(self, pts, j, k):
        # scaling by 2^j is exact, so only the pruning radius's rounding
        # margin separates the two harvests on these inputs
        ty = build_ty([Point(p.x * 2.0**j, p.y * 2.0**j) for p in pts], k)
        assert _config_rows(harvest_descent_configs(ty)) == _config_rows(oracle_harvest(ty))

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
            assert _config_rows(configs) == _config_rows(oracle_harvest(ty))
            harvested += len(configs)
        assert harvested > 0

    @pytest.mark.parametrize(
        "spec,k",
        [
            (GenSpec(GenKind.UNIFORM_SQUARE, 300, seed=1), 30),
            (GenSpec(GenKind.CLUSTERED, 200, seed=1), 84),
            (GenSpec(GenKind.CO_CIRCULAR, 200, seed=1, jitter=1e-3), 30),
        ],
        ids=["uniform", "clustered", "cocircular"],
    )
    def test_lazy_prefix_equals_harvest_prefix(self, spec, k):
        # verify's potential suite walks the first max_descent_configs (300)
        # configs and harvests only those
        ty = build_ty(gen_points(spec), k)
        configs = harvest_descent_configs(ty)
        assert len(configs) > 300
        for count in (0, 1, 300):
            assert list(islice(_iter_descent_configs(ty), count)) == configs[:count]
        assert list(_iter_descent_configs(ty)) == configs

    def test_potential_suite_walks_the_harvest_prefix(self):
        # co-circular input harvests ~20k configs here; the suite walks 300
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 200, seed=1, jitter=1e-3))
        graphs = {"ty": build_ty(pts, 30), "oy": build_oy(pts, 30)}
        (result,) = check_potential(RunConfig(k=30), graphs)
        assert result.passed and result.details["configs"] == 300

    def test_configs_of_one_frame_share_one_descent_frame(self, setup):
        _, ty, _ = setup
        objects: dict[tuple, set[int]] = {}
        for frame, _ in harvest_descent_configs(ty):
            objects.setdefault((frame.o, frame.p, frame.reflected), set()).add(id(frame))
        assert len(objects) > 1
        assert all(len(ids) == 1 for ids in objects.values())

    def test_single_edge_harvest_is_that_edges_slice(self, setup):
        _, ty, _ = setup
        per_edge = [c for edge in sorted(ty.ty_frames) for c in harvest_descent_configs(ty, edge=edge)]
        assert _config_rows(per_edge) == _config_rows(harvest_descent_configs(ty))


class TestDescentTable:
    """The descent reads each growth step off build_ty's first-contact table."""

    @pytest.mark.parametrize("k", [26, 30, 84])
    @pytest.mark.parametrize("name", WALK_SETS)
    def test_matches_oracle_walk(self, name, k):
        pts = HARVEST_SETS[name]()
        ty, oy = build_ty(pts, k), build_oy(pts, k)
        configs = harvest_descent_configs(ty)
        for frame, a in configs[:: max(1, len(configs) // 400)]:
            tr = ty_descent_path(ty, oy, frame, a)
            vertices, steps = oracle_descent_walk(ty, oy, frame, a)
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
        assert configs
        for frame, a in configs:
            tr = ty_descent_path(ty, oy, frame, a)
            assert tr.vertices[0] == a and tr.vertices[-1] == frame.o

    def test_witness_on_the_pi_6_edge_is_harvested_and_walkable(self):
        # phi(a->p) of witness 33 rounds to pi/6 from below in np.arctan2 and
        # onto it in math.atan2; harvest and descent must decide alike
        pts = triangular_lattice(8)
        ty, oy = build_ty(pts, 32), build_oy(pts, 32)
        configs = [(f, a) for f, a in harvest_descent_configs(ty) if (f.o, a) == (32, 33)]
        assert configs
        for frame, a in configs:
            ty_descent_path(ty, oy, frame, a)
