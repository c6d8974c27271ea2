"""The four user-level operations the benchmark times on each point set, the
output checks run after each of them, and the per-instance digest record.

Operations, in order: ``build`` (the four families), ``stretch`` (exact
stretch against the closed-form bounds, as ``conespan verify`` calls it),
``path`` (descent harvest, the first descents with their length bounds,
greedy overlapping-Yao paths on seeded pairs) and ``verify``
(``verify.cmd_verify`` with all suites).  Checks are computed here from
public ``conespan`` functions and never abort the run: a failed check, an
exception, or a nonzero verify status marks its operation as failed.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

from conespan import analysis, build, geometry, paths, pointgen, verify

OPS = ("build", "stretch", "path", "verify")
TOL = verify.RunConfig().tolerance
MAX_DESCENTS = verify.RunConfig().max_descent_configs
GREEDY_PAIRS = 200
SCAN_VERTICES = 8
# Frame directions within this margin of the quarter-plane boundary still go
# through scale_to_hit; only points clearly outside the frame are skipped.
QUARTER_MARGIN = 1e-6


def run_instance(cfg: verify.RunConfig, points: list, tracer=None) -> dict:
    """Run the four operations on one point set and check their outputs.

    Returns a record holding only plain values (per-operation seconds,
    failures with witnesses, digests and, when traced, exact counts), so no
    graph outlives the call.  With a tracer, each operation runs inside a
    root span and ``verify`` is reproduced as the builders plus each check
    function, so its time breaks down by suite.
    """
    k = cfg.k
    n = len(points)
    rng = np.random.default_rng(cfg.seed)
    scan = [int(u) for u in rng.choice(n, size=min(SCAN_VERTICES, n), replace=False)]
    pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(GREEDY_PAIRS)]
    rec = {"seed": cfg.seed, "n": n, "s": {}, "failures": {op: [] for op in OPS}, "digest": {}, "counts": {}}

    def attempt(op, fn, *args):
        """Time ``fn`` as operation ``op``; record an exception as its failure."""
        t0 = time.perf_counter()
        try:
            with nullcontext() if tracer is None else tracer.span("op." + op):
                out = fn(*args)
        except Exception:
            rec["failures"][op].append(traceback.format_exc(limit=3))
            return None
        rec["s"][op] = time.perf_counter() - t0
        return out

    def check(op, fn, *args):
        try:
            rec["failures"][op] += fn(*args)
        except Exception:
            rec["failures"][op].append("check raised: " + traceback.format_exc(limit=3))

    def graph_ops():
        """Build, stretch and path; their objects die when this returns."""
        graphs = attempt("build", op_build, points, k)
        if graphs is None:
            rec["failures"]["stretch"].append("not run: build failed")
            rec["failures"]["path"].append("not run: build failed")
            return
        check("build", check_build, graphs, points, k, scan)
        rec["digest"].update({name: _edge_digest(g) for name, g in graphs.items()})
        bounds = stretch_bounds(k)
        reports = attempt("stretch", op_stretch, graphs, bounds)
        if reports is not None:
            check("stretch", check_stretch, graphs, points, reports, bounds)
            rec["digest"]["stretch"] = _sha(
                repr(sorted((name, r.stretch, r.witness) for name, r in reports.items())).encode()
            )
        path_out = attempt("path", op_path, graphs, pairs)
        if path_out is not None:
            check("path", check_path, points, k, *path_out)
            rec["digest"]["harvested_configs"] = path_out[0]
        if tracer is not None:
            rec["counts"] = build_counts(graphs, n, k)
            if path_out is not None:
                rec["counts"].update(path_counts(*path_out))

    graph_ops()
    if tracer is None:
        status = attempt("verify", verify.cmd_verify, cfg)
        if status is not None and status[0] != 0:
            failed = [c for c in status[1]["checks"] if not c["passed"]]
            rec["failures"]["verify"].append(f"verify exited {status[0]}: {failed}")
    else:
        results = attempt("verify", traced_verify, cfg)
        if results is not None:
            failed = [r for r in results if not r.passed]
            rec["checks_failed"] = len(failed)
            if failed:
                rec["failures"]["verify"].append(f"checks failed: {failed}")
    return rec


# --- operations ---------------------------------------------------------------


def op_build(points, k):
    return {
        "yao": build.build_yao(points, k),
        "yy": build.build_yao_yao(points, k),
        "oy": build.build_oy(points, k),
        "ty": build.build_ty(points, k),
    }


def stretch_bounds(k: int) -> dict[str, float]:
    """The closed-form bound per family that ``check_stretch_bounds`` applies."""
    bounds = {"oy": analysis.tau_bound(k), "ty": analysis.tau_bound(k)}
    if k % 2 == 0 and k >= 84:
        bounds["yy"] = analysis.t_bound(k // 2).t_k
    return bounds


def op_stretch(graphs, bounds):
    return {name: analysis.stretch_factor(graphs[name], bound=b, tol=TOL) for name, b in bounds.items()}


def op_path(graphs, pairs):
    ty, oy = graphs["ty"], graphs["oy"]
    configs = paths.harvest_descent_configs(ty)
    descents = [
        (paths.ty_descent_path(ty, oy, frame, a), paths.descent_length_bound(ty, frame, a))
        for frame, a in configs[:MAX_DESCENTS]
    ]
    greedy = [(u, v, paths.oy_greedy_path(oy, u, v)) for u, v in pairs]
    return len(configs), descents, greedy


def traced_verify(cfg: verify.RunConfig):
    """What ``cmd_verify`` computes, as separately traceable calls."""
    points = pointgen.gen_points(cfg.genspec())
    graphs = op_build(points, cfg.k)
    return [r for suite in verify.SUITES for r in getattr(verify, "check_" + suite)(cfg, graphs)]


# --- output checks ------------------------------------------------------------


def check_build(graphs, points, k, scan) -> list[str]:
    """YY inside Yao, YY degree at most 2k, and every family's selections at
    the sampled vertices equal to a scalar per-cone scan (the YY scan takes
    the Yao edges as given)."""
    failures = []
    yao, yy = graphs["yao"].edge_pairs, graphs["yy"].edge_pairs
    extra = sorted(yy - yao)
    if extra:
        failures.append(f"yy edges missing from yao: {extra[:5]}")
    degree = defaultdict(int)
    for a, b in {(min(t, h), max(t, h)) for t, h in yy}:
        degree[a] += 1
        degree[b] += 1
    worst = max(degree.items(), key=lambda kv: kv[1], default=(None, 0))
    if worst[1] > 2 * k:
        failures.append(f"yy degree {worst[1]} > 2k={2 * k} at vertex {worst[0]}")
    for u in scan:
        table = _polar_table(points, u)
        tails = {t for t, h in yao if h == u}
        expected = {
            "yao": nearest_per_cone(table, k),
            # the reverse step: among Yao edges into u, the shortest per cone around u
            "yy": nearest_per_cone([key for key in table if key[2] in tails], k),
            "oy": scan_oy(table, k),
            "ty": scan_ty(points, table, k, u),
        }
        actual = {
            "yao": {h for t, h in yao if t == u},
            "yy": {t for t, h in yy if h == u},
            "oy": {h for t, h in graphs["oy"].edge_pairs if t == u},
            "ty": {h for t, h in graphs["ty"].edge_pairs if t == u},
        }
        for fam in expected:
            if expected[fam] != actual[fam]:
                failures.append(
                    f"{fam} selections at vertex {u}: missing {sorted(expected[fam] - actual[fam])}, "
                    f"extra {sorted(actual[fam] - expected[fam])}"
                )
    return failures


def _polar_table(points, u):
    """(distance, polar angle, index) of every other point, seen from u."""
    pu = points[u]
    return [(geometry.dist(pu, p), geometry.polar_angle(pu, p), v) for v, p in enumerate(points) if v != u]


def nearest_per_cone(table, k) -> set[int]:
    """Nearest point of ``table`` in each of the k narrow cones (the Yao rule)."""
    best = {}
    for key in table:
        j = geometry.cone_index(k, key[1])
        if j not in best or key < best[j]:
            best[j] = key
    return {key[2] for key in best.values()}


def scan_oy(table, k) -> set[int]:
    g = geometry.gamma(k)
    w = geometry.TWO_PI / k
    out = set()
    for j in range(k):
        inside = [key for key in table if geometry.ccw_diff(key[1], j * w) < g]
        if inside:
            out.add(min(inside)[2])
    return out


def scan_ty(points, table, k, u) -> set[int]:
    """Per orientation and mirror, the first point the growing trapezoid hits;
    kept when the hit is on the critical arc."""
    th = geometry.theta(k)
    w = geometry.TWO_PI / k
    reach = geometry.HALF_PI + QUARTER_MARGIN
    out = set()
    for j in range(k):
        for reflected in (False, True):
            frame = geometry.TrapezoidFrame(points[u], j * w, reflected, th)
            hits = []
            for _, phi, v in table:
                rel = geometry.ccw_diff(j * w, phi) if reflected else geometry.ccw_diff(phi, j * w)
                if reach < rel < geometry.TWO_PI - QUARTER_MARGIN:
                    continue
                hit = geometry.scale_to_hit(frame, points[v])
                if hit.part is not geometry.HitPart.NONE:
                    hits.append((hit.lam, phi, v, hit.part))
            if hits:
                _, _, v, part = min(hits)
                if part is geometry.HitPart.CRITICAL_ARC:
                    out.add(v)
    return out


def check_stretch(graphs, points, reports, bounds) -> list[str]:
    """Each witness ratio, recomputed by a single-source Dijkstra, matches the
    report and stays within the family's bound."""
    failures = []
    for name, rep in reports.items():
        if rep.witness is None:
            failures.append(f"{name}: no stretch witness")
            continue
        s, t = rep.witness
        ratio = _dijkstra(points, graphs[name].edge_pairs, s)[t] / geometry.dist(points[s], points[t])
        if not math.isclose(ratio, rep.stretch, rel_tol=TOL):
            failures.append(f"{name}: witness {s}->{t} ratio {ratio} != reported {rep.stretch}")
        if not ratio <= bounds[name] * (1.0 + TOL):
            failures.append(f"{name}: witness {s}->{t} ratio {ratio} > bound {bounds[name]}")
    return failures


def _dijkstra(points, pairs, source) -> list[float]:
    """Single-source distances over the undirected support of ``pairs``."""
    adj = [[] for _ in points]
    for a, b in {(min(t, h), max(t, h)) for t, h in pairs}:
        w = geometry.dist(points[a], points[b])
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = [math.inf] * len(points)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def check_path(points, k, n_configs, descents, greedy) -> list[str]:
    """Descent potential never increases and length stays within its bound;
    greedy paths reach their target within tau(k)*|uv|."""
    failures = []
    for i, (trace, bound) in enumerate(descents):
        rises = [s for s in trace.steps if s.phi_after > s.phi_before + TOL]
        if rises or trace.total_length > bound + TOL:
            failures.append(
                f"descent {i}: length {trace.total_length} vs bound {bound}, {len(rises)} potential rises"
            )
    tau = analysis.tau_bound(k)
    for u, v, trace in greedy:
        limit = tau * geometry.dist(points[u], points[v]) * (1.0 + TOL)
        if trace.vertices[-1] != v or trace.total_length > limit:
            failures.append(f"greedy {u}->{v}: ends at {trace.vertices[-1]}, length {trace.total_length} > {limit}")
    return failures


# --- records ------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _edge_digest(graph) -> str:
    """Digest of the sorted (tail, head) pairs, for bit-identity across commits."""
    return _sha(np.array(sorted(graph.edge_pairs), dtype=np.int64).tobytes())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def build_counts(graphs, n: int, k: int) -> dict[str, float]:
    yao, yy, oy, ty = (graphs[f] for f in ("yao", "yy", "oy", "ty"))
    return {
        "build.yao.edges": len(yao.edges),
        "build.yy.edges": len(yy.edges),
        "build.oy.edges": len(oy.edges),
        "build.ty.edges": len(ty.edges),
        "build.yy.kept_ratio": _ratio(len(yy.edges), len(yao.edges)),
        "build.oy.distinct_ratio": _ratio(len(oy.edges), int((oy.cone_choice >= 0).sum())),
        "build.ty.critical_hit_ratio": _ratio(sum(map(len, ty.ty_frames.values())), n * 2 * k),
    }


def path_counts(n_configs, descents, greedy) -> dict[str, float]:
    steps = [s for trace, _ in descents for s in trace.steps]
    direct = sum(s.kind is paths.StepKind.DIRECT_TY_EDGE for s in steps)
    return {
        "paths.harvest.configs": n_configs,
        "paths.harvest.used_ratio": _ratio(len(descents), n_configs),
        "paths.descent.steps": len(steps),
        "paths.descent.direct_ty_ratio": _ratio(direct, len(steps)),
        "paths.oy_greedy.hops": sum(len(trace.steps) for _, _, trace in greedy),
    }


def stretch_peak_mb(points, k: int) -> float:
    """Peak memory traced by tracemalloc during one ``stretch_factor`` call on
    the overlapping-Yao graph.

    Call it with no tracer installed: tracemalloc slows allocation-heavy code
    by several times, so it never runs while a span is timed.
    """
    graph = build.build_oy(points, k)
    tracemalloc.start()
    try:
        analysis.stretch_factor(graph, bound=analysis.tau_bound(k), tol=TOL)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
