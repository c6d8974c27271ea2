"""Property-check suites wiring the whole library together, and the run
configuration they share with the CLI.

Each check returns a machine-readable record (name, pass/fail, tolerance,
details with witnesses); a run fails if any selected check fails.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, islice
from typing import ClassVar

import numpy as np

from . import __version__
from .analysis import (
    is_connected,
    degree_stats,
    sector_ratios,
    stretch_bound,
    stretch_factor,
    subgraph_check,
    tau_bound,
)
from .build import FAMILIES, ConeGraph, build_ty, build_yao, derive_oy, derive_yao_yao, edge_array
from .fileio import read_edges, read_points, validate_edges
from .geometry import Point, gamma, lhp_containment_check, theta
from .paths import InvariantViolation, _iter_descent_configs, descent_length_bound, ty_descent_path
from .pointgen import GenKind, GenSpec, gen_points


class ConfigError(ValueError):
    """Invalid run configuration (reported before any computation)."""


@dataclass
class RunConfig:
    """Shared configuration for CLI runs, and the one home of their
    defaults: cone parameter, point source (generator spec or input file),
    suite toggles and tolerance overrides.  The descent-config cap is a
    class constant, not a field."""

    k: int = 30
    n: int = 100
    seed: int = 1
    kind: str = "uniform_square"
    side: float = 1.0
    pitch: float = 1.0
    radius: float = 1.0
    jitter: float = 0.0
    clusters: int = 5
    spread: float = 0.05
    input_path: str | None = None
    suites: tuple[str, ...] = ("all",)
    tolerance: float = 1e-9
    max_descent_configs: ClassVar[int] = 300
    edge_files: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not self.suites:
            raise ConfigError(f"no suite selected (choose from {SUITES} or 'all')")
        unknown = [s for s in self.suites if s != "all" and s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown} (choose from {SUITES})")

    def genspec(self) -> GenSpec:
        try:
            kind = GenKind(self.kind)
        except ValueError:
            raise ConfigError(f"unknown generator kind {self.kind!r}") from None
        return GenSpec(
            kind,
            self.n,
            self.seed,
            side=self.side,
            pitch=self.pitch,
            radius=self.radius,
            jitter=self.jitter,
            clusters=self.clusters,
            spread=self.spread,
        )

    def load_points(self) -> list[Point]:
        if self.input_path:
            return read_points(self.input_path)
        return gen_points(self.genspec())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    details: dict


# Key suffix under which _get_graphs keeps a loaded family's constructed graph.
_BUILT = "_built"


def _get_graphs(cfg: RunConfig, points: list[Point]) -> dict[str, ConeGraph]:
    """The four graphs by short name.  Yao is built once and Yao-Yao and
    overlapping-Yao are derived from it.  An edge file replaces a graph's
    edges, but its selection tables are always those rebuilt from the points,
    so the path suites check loaded graphs against the reference selections.
    The constructed graph of each loaded family stays under ``name + _BUILT``
    for the subgraph suite's comparison with the construction."""
    yao = build_yao(points, cfg.k)
    graphs = {
        "yao": yao,
        "yy": derive_yao_yao(yao),
        "oy": derive_oy(yao),
        "ty": build_ty(points, cfg.k),
    }
    for name, path in cfg.edge_files.items():
        edges, lengths = read_edges(path)
        g = graphs[name + _BUILT] = graphs[name]
        validate_edges(g.xy, edges, lengths)
        graphs[name] = replace(g, edges=edge_array(edges[:, 0], edges[:, 1], g.n))
    return graphs


def _matches_construction(name: str, loaded: ConeGraph, built: ConeGraph) -> CheckResult:
    """Whether a loaded edge set equals the one built from the points, with
    the counts of missing and extra edges and up to five of each."""
    _, missing = subgraph_check(built, loaded)
    _, extra = subgraph_check(loaded, built)
    return CheckResult(
        f"matches_construction_{name}",
        not (len(missing) or len(extra)),
        0.0,
        {
            "missing": len(missing),
            "extra": len(extra),
            "missing_witnesses": missing[:5].tolist(),
            "extra_witnesses": extra[:5].tolist(),
        },
    )


def check_subgraph(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    ok_yy, viol_yy = subgraph_check(graphs["yy"], graphs["yao"])
    ok_oy, viol_oy = subgraph_check(graphs["oy"], graphs["ty"])
    return [
        CheckResult(
            "subgraph_yy_in_yao",
            ok_yy,
            0.0,
            {"violations": len(viol_yy), "witnesses": viol_yy[:5].tolist()},
        ),
        CheckResult(
            "subgraph_oy_in_ty",
            ok_oy,
            0.0,
            {"violations": len(viol_oy), "witnesses": viol_oy[:5].tolist()},
        ),
        # each loaded edge file against the graph built from the points
        *(
            _matches_construction(name, graphs[name], graphs[name + _BUILT])
            for name in FAMILIES
            if name + _BUILT in graphs
        ),
    ]


def check_degree(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    max_deg, hist = degree_stats(graphs["yy"])
    return [
        CheckResult(
            "degree_bound_yy",
            max_deg <= 2 * cfg.k,
            0.0,
            {"max_degree": max_deg, "bound": 2 * cfg.k, "histogram": hist},
        )
    ]


def check_connectivity(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    connected = is_connected(graphs["yy"])
    return [
        CheckResult(
            "connectivity_yy",
            connected,
            0.0,
            {"k": cfg.k, "expected_connected_for_k_gt": 6},
        )
    ]


def check_stretch_bounds(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    tol = cfg.tolerance
    results = []
    for name in ("oy", "ty", "yy"):
        bound = stretch_bound(name, cfg.k)
        if bound is None:
            continue
        rep = stretch_factor(graphs[name], bound=bound, tol=tol)
        results.append(
            CheckResult(
                f"stretch_{name}_bound",
                bool(rep.bound_satisfied),
                tol,
                {"stretch": rep.stretch, "bound": bound, "witness": list(rep.witness)},
            )
        )
    return results


def check_potential(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    tol = cfg.tolerance
    ty, oy = graphs["ty"], graphs["oy"]
    # harvest lazily: only the tails of the configs walked are harvested
    rows = chain.from_iterable(map(np.ndarray.tolist, _iter_descent_configs(ty)))
    configs = list(islice(rows, cfg.max_descent_configs))
    worst_dphi = -math.inf
    worst_slack = math.inf
    failures = []
    for cell, a in configs:
        o = cell // (2 * ty.k)
        try:
            trace = ty_descent_path(ty, oy, cell, a)
        except InvariantViolation as exc:
            failures.append({"o": o, "cell": cell, "a": a, "message": str(exc)})
            continue
        bound = descent_length_bound(ty, cell, a)
        slack = bound - trace.total_length
        worst_slack = min(worst_slack, slack)
        for step in trace.steps:
            worst_dphi = max(worst_dphi, step.phi_after - step.phi_before)
        if trace.total_length > bound + tol or any(
            s.phi_after > s.phi_before + tol for s in trace.steps
        ):
            failures.append({"o": o, "cell": cell, "a": a, "length": trace.total_length, "bound": bound})
    return [
        CheckResult(
            "potential_monotonicity",
            not failures,
            tol,
            {
                "configs": len(configs),
                "max_potential_increase": None if worst_dphi == -math.inf else worst_dphi,
                "min_length_slack": None if worst_slack == math.inf else worst_slack,
                "witnesses": failures[:5],
            },
        )
    ]


def check_sector_cover(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    """The unit trapezoid and its mirror copy across the ray at gamma/2
    cover the widened sector of directions (0, gamma) iff 2*theta >= gamma:
    the copy holds every direction up to theta, since r < 1 <= 2 cos(phi)
    and r sin(phi) < sin(theta), and the mirror every direction from
    gamma - theta, while near r = 1 neither holds a direction in between.
    The trapezoid itself needs theta in [pi/4, pi/3)."""
    th, gam = theta(cfg.k), gamma(cfg.k)
    return [
        CheckResult(
            "sector_cover",
            math.pi / 4 <= th < math.pi / 3 and gam <= 2.0 * th,
            0.0,
            {"theta": th, "gamma": gam},
        )
    ]


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


# Samples the lhp_containment suite splits over its pairs.
_LHP_SAMPLES = 20_000


def check_lhp_containment(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    rng = np.random.default_rng(cfg.seed)
    th = theta(cfg.k)
    n_pairs = 5
    per_pair = max(1, _LHP_SAMPLES // n_pairs)
    all_ok = True
    pairs = []
    for i in range(n_pairs):
        u, v = _lhp_pair(rng)
        ok = lhp_containment_check(u, v, th, per_pair, cfg.seed + i)
        all_ok = all_ok and ok
        pairs.append({"u": [u.x, u.y], "v": [v.x, v.y], "passed": ok})
    return [
        CheckResult(
            "lhp_containment",
            all_ok,
            0.0,
            {"theta": th, "samples_per_pair": per_pair, "pairs": pairs},
        )
    ]


def _ratio_grid(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The points w at which the ratio_bound suite evaluates the sector ratio
    for half-angle alpha: radii (i + 1/2)/100 at 100 angles from -alpha to
    alpha, then the two corners (cos(alpha), +-sin(alpha)), where the ratio
    attains its supremum 1/(1 - 2 sin(alpha/2)).  Off the corners every
    radius stays below 1, so no grid point rounds onto v = (1, 0)."""
    rho = (np.arange(100) + 0.5) / 100
    beta = np.linspace(-alpha, alpha, 100)
    c, s = math.cos(alpha), math.sin(alpha)
    return np.append(np.outer(rho, np.cos(beta)), (c, c)), np.append(np.outer(rho, np.sin(beta)), (s, -s))


def check_ratio_bound(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    """|uw| / (|uv| - |vw|) <= 1/(1 - 2 sin(alpha/2)) over the sector of
    half-angle alpha, on a fixed grid through the corner that attains the
    bound, at three fixed angles and at the greedy hop's own angle
    pi/4 + 2pi/k, where the bound is tau(k)."""
    tol = cfg.tolerance
    cases = [(f"pi_{d}", math.pi / d, 1.0 / (1.0 - 2.0 * math.sin(math.pi / d / 2.0))) for d in (12, 6, 4)]
    cases.append(("greedy", math.pi / 4 + 2.0 * math.pi / cfg.k, tau_bound(cfg.k)))
    results = []
    for label, alpha, bound in cases:
        wx, wy = _ratio_grid(alpha)
        ratio, valid = sector_ratios(wx, wy)
        invalid = np.flatnonzero(~valid)
        worst = float(ratio[valid].max(initial=0.0))
        corners = ratio[-2:]
        reached = bool(np.all(np.abs(corners - bound) <= bound * tol))
        results.append(
            CheckResult(
                f"ratio_bound_{label}",
                not invalid.size and worst <= bound * (1.0 + tol) and reached,
                tol,
                {
                    "alpha": alpha,
                    "bound": bound,
                    "max_ratio": worst,
                    "corner_ratios": corners.tolist(),
                    "points": wx.size,
                    # a grid point outside the ratio's validity conditions
                    "invalid_witness": [float(wx[invalid[0]]), float(wy[invalid[0]])] if invalid.size else None,
                },
            )
        )
    return results


_CHECKS = {
    "subgraph": check_subgraph,
    "degree": check_degree,
    "connectivity": check_connectivity,
    "stretch_bounds": check_stretch_bounds,
    "potential": check_potential,
    "sector_cover": check_sector_cover,
    "lhp_containment": check_lhp_containment,
    "ratio_bound": check_ratio_bound,
}
SUITES = tuple(_CHECKS)  # in the order a run reports them


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    """Run the selected property suites; exit status 0 when all pass, 1 on
    any violation.  The report lists each check with tolerance and
    witnesses for failures."""
    cfg.validate()
    if cfg.k <= 24:
        raise ConfigError(f"the verification suites need k > 24, got k={cfg.k}")
    suites = SUITES if "all" in cfg.suites else tuple(s for s in SUITES if s in cfg.suites)
    points = cfg.load_points()
    if len(points) < 2:
        raise ConfigError("verification needs at least 2 points")
    graphs = _get_graphs(cfg, points)
    results: list[CheckResult] = []
    for suite in suites:
        results.extend(_CHECKS[suite](cfg, graphs))
    passed = all(r.passed for r in results)
    report = {
        "tool": "conespan",
        "version": __version__,
        "config": {
            "k": cfg.k,
            "n": len(points),
            "seed": cfg.seed,
            "kind": cfg.kind,
            "input_path": cfg.input_path,
            "suites": list(suites),
            "tolerance": cfg.tolerance,
        },
        "checks": [asdict(r) for r in results],
        "passed": passed,
    }
    return (0 if passed else 1), report
