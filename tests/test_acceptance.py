"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -s`` to see
them live).  Sizes and tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conespan.analysis import (
    degree_stats,
    is_connected,
    stretch_factor,
    subgraph_check,
    t_bound,
    tau_bound,
    tau_prime_bound,
)
from conespan.build import build_oy, build_ty, build_yao, build_yao_yao
from conespan.geometry import (
    GeometryError,
    HitPart,
    Point,
    TrapezoidFrame,
    dist,
    gamma,
    lhp_containment_check,
    scale_to_hit,
    theta,
)
from conespan.paths import (
    descent_length_bound,
    harvest_descent_configs,
    oy_greedy_path,
    ty_descent_path,
)
from conespan.pointgen import GenKind, GenSpec, gen_points
from conftest import bisect_first_contact, brute_force_stretch, covers_sector_check, ratio_oracle

REL_TOL = 1e-9

# frozen 50-digit closed-form evaluations (mpmath, dps=50)
TAU_REF = {
    26: 57.172986221141214887,
    42: 10.132733909966239915,
    84: 6.0212513632311386143,
    1000: 4.3700178843176198305,
}
TAU_PRIME_REF = {
    42: 70.969383435863589121,
    84: 2.4969144888360177838,
    1000: 1.4629398072426380309,
}
T_REF = {
    42: 427.32449676086702403,
    84: 12.471106681904473454,
    1000: 6.3130778596940008522,
}
T_ASYMPTOTE = 6.0273394921258481045


def uniform_set(n: int, seed: int) -> list[Point]:
    return gen_points(GenSpec(GenKind.UNIFORM_SQUARE, n, seed))


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_1_bound_formulas():
    t0 = time.time()
    for k, ref in TAU_REF.items():
        assert tau_bound(k) == pytest.approx(ref, rel=REL_TOL)
    for k, ref in TAU_PRIME_REF.items():
        assert tau_prime_bound(k) == pytest.approx(ref, rel=REL_TOL)
    for k, ref in T_REF.items():
        assert t_bound(k).t_k == pytest.approx(ref, rel=REL_TOL)
    # below the validity threshold the formulas refuse to evaluate
    with pytest.raises(GeometryError):
        tau_prime_bound(26)
    with pytest.raises(GeometryError):
        t_bound(26)
    t_large = t_bound(10**6).t_k
    assert abs(t_large - T_ASYMPTOTE) < 0.01
    report(
        f"criterion 1 PASS: bounds match frozen references at k in {sorted(TAU_REF)} "
        f"(rel {REL_TOL}); t(10^6)={t_large:.6f} within 0.01 of {T_ASYMPTOTE:.6f} "
        f"[{time.time() - t0:.2f}s]"
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    builders = [("yao", build_yao, 8), ("yy", build_yao_yao, 8), ("oy", build_oy, 26), ("ty", build_ty, 26)]
    checked = 0
    for name, builder, k in builders:
        for seed in range(50):
            pts = uniform_set(8, seed)
            g = builder(pts, k)
            fast = stretch_factor(g).stretch
            slow = brute_force_stretch(pts, g.edges)
            if math.isinf(fast) or math.isinf(slow):
                assert math.isinf(fast) and math.isinf(slow)
            else:
                assert fast == pytest.approx(slow, rel=REL_TOL)
            checked += 1
    report(
        f"criterion 2 PASS: stretch_factor == brute_force_stretch (rel {REL_TOL}) "
        f"on {checked} instances (50 seeds x 4 families) [{time.time() - t0:.2f}s]"
    )


def test_criterion_3_structural_properties():
    t0 = time.time()
    k = 30
    oy_viol = yy_viol = 0
    worst_degree = 0
    for seed in range(100):
        pts = uniform_set(200, seed)
        yao = build_yao(pts, k)
        yy = build_yao_yao(pts, k)
        ok_yy, v1 = subgraph_check(yy, yao)
        yy_viol += len(v1)
        ok_oy, v2 = subgraph_check(build_oy(pts, k), build_ty(pts, k))
        oy_viol += len(v2)
        worst_degree = max(worst_degree, degree_stats(yy)[0])
        assert ok_yy and ok_oy
    assert oy_viol == 0 and yy_viol == 0
    assert worst_degree <= 2 * k
    connected_runs = 0
    for seed in range(20):
        if is_connected(build_yao_yao(uniform_set(200, seed), 7)):
            connected_runs += 1
    assert connected_runs == 20
    report(
        f"criterion 3 PASS: 100 sets (n=200, k=30): OY within TY and YY within Y with 0 violations, "
        f"max YY degree {worst_degree} <= {2 * k}; YY_7 connected on 20/20 sets (n=200) "
        f"[{time.time() - t0:.2f}s]"
    )


def test_criterion_4_spanner_bounds():
    t0 = time.time()
    tol = 1e-6
    lines = []
    for k in (26, 30, 50, 84):
        tau = tau_bound(k)
        worst_oy = worst_ty = 0.0
        for seed in range(20):
            pts = uniform_set(150, seed)
            rep_oy = stretch_factor(build_oy(pts, k), bound=tau, tol=tol)
            rep_ty = stretch_factor(build_ty(pts, k), bound=tau, tol=tol)
            assert rep_oy.bound_satisfied and rep_ty.bound_satisfied
            worst_oy = max(worst_oy, rep_oy.stretch)
            worst_ty = max(worst_ty, rep_ty.stretch)
        lines.append(f"k={k}: max stretch OY={worst_oy:.4f} TY={worst_ty:.4f} (bound {tau:.4f})")
    for k in (42, 50, 84):
        bound = t_bound(k).t_k
        worst_yy = 0.0
        for seed in range(50):
            pts = uniform_set(300, seed)
            rep = stretch_factor(build_yao_yao(pts, 2 * k), bound=bound, tol=tol)
            assert rep.bound_satisfied
            worst_yy = max(worst_yy, rep.stretch)
        lines.append(f"k={k}: max stretch YY_{2 * k}={worst_yy:.4f} (bound {bound:.4f})")
    report(
        "criterion 4 PASS: all measured stretches within bounds (rel tol 1e-6); "
        + "; ".join(lines)
        + f" [{time.time() - t0:.2f}s]"
    )


def test_criterion_5_path_algorithms():
    t0 = time.time()
    k = 30
    tau = tau_bound(k)
    pairs_checked = 0
    for seed in range(20):
        pts = uniform_set(100, seed)
        oy = build_oy(pts, k)
        n = len(pts)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                tr = oy_greedy_path(oy, u, v)
                assert tr.total_length <= tau * dist(pts[u], pts[v]) * (1 + REL_TOL)
                pairs_checked += 1
    configs_checked = 0
    seed = 0
    while configs_checked < 1000:
        pts = uniform_set(60, 100 + seed)
        ty = build_ty(pts, k)
        oy = build_oy(pts, k)
        for cell, a in harvest_descent_configs(ty):
            tr = ty_descent_path(ty, oy, cell, a)
            bound = descent_length_bound(ty, cell, a)
            assert tr.total_length <= bound + REL_TOL
            for s in tr.steps:
                assert s.phi_after <= s.phi_before + REL_TOL
            configs_checked += 1
        seed += 1
    report(
        f"criterion 5 PASS: greedy paths within tau*|uv| on {pairs_checked} ordered pairs "
        f"(20 sets, n=100, k=30); descent length bound and step-potential monotonicity "
        f"(dPhi <= {REL_TOL}) on {configs_checked} harvested configurations [{time.time() - t0:.2f}s]"
    )


def test_criterion_6_geometry_kernel():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for th in (math.pi / 4, 0.9, theta(26)):
        frame = TrapezoidFrame(Point(0, 0), 0.0, False, th)
        queries = rng.uniform(-0.3, 1.5, (10_000, 2))
        for x, y in queries:
            hit = scale_to_hit(frame, Point(float(x), float(y)))
            expected = bisect_first_contact(th, float(x), float(y), iters=60)
            if math.isinf(expected):
                assert hit.part is HitPart.NONE
            else:
                assert abs(hit.lam - expected) <= REL_TOL * expected
    for k in range(26, 101):
        assert covers_sector_check(theta(k), gamma(k), 100_000, seed=k)
    lhp_rng = np.random.default_rng(7)
    for k in range(26, 101):
        u, v = _lhp_pair(lhp_rng)
        assert lhp_containment_check(u, v, theta(k), 100_000, seed=k)
    for alpha in (math.pi / 12, math.pi / 6, math.pi / 4):
        bound = 1.0 / (1.0 - 2.0 * math.sin(alpha / 2.0))
        beta = rng.uniform(-alpha, alpha, 10_000)
        rho = np.sqrt(1.0 - rng.random(10_000))
        worst = max(
            ratio_oracle(Point(0, 0), Point(1, 0), Point(float(r * math.cos(b)), float(r * math.sin(b))), 1.0)
            for b, r in zip(beta, rho)
        )
        assert worst <= bound * (1 + REL_TOL)
    report(
        "criterion 6 PASS: first-contact matches bisection oracle (rel 1e-9, 10^4 queries x 3 cap angles); "
        "sector cover and lower-half-plane containment hold at 10^5 samples for k=26..100; "
        f"sampled ratios never exceed the sector bound [{time.time() - t0:.2f}s]"
    )


def _lhp_pair(rng: np.random.Generator) -> tuple[Point, Point]:
    while True:
        u = Point(float(rng.uniform(0.15, 0.85)), float(-rng.uniform(0.0, 0.35)))
        phi = math.pi + float(rng.uniform(-1.0, 1.0)) * (math.pi / 6) * 0.95
        r = float(rng.uniform(0.03, 0.45))
        v = Point(u.x + r * math.cos(phi), u.y + r * math.sin(phi))
        if v.y > 0.0:
            continue
        ou = math.hypot(u.x, u.y)
        pv = math.hypot(v.x - 1.0, v.y)
        if r <= ou < 1.0 and r <= pv < 1.0:
            return u, v
