"""Property-check suites wiring the whole library together, and the run
configuration they share with the CLI.

Each check returns a machine-readable record (name, pass/fail, tolerance,
details with witnesses); a run fails if any selected check fails.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

import numpy as np

from . import __version__
from .analysis import (
    is_connected,
    degree_stats,
    ratio_oracle,
    stretch_bound,
    stretch_factor,
    subgraph_check,
)
from .build import ConeGraph, Family, build_ty, build_yao, derive_oy, derive_yao_yao, edge_array
from .fileio import read_edges, read_points, validate_edges
from .geometry import (
    Point,
    covers_sector_check,
    gamma,
    lhp_containment_check,
    theta,
)
from .paths import InvariantViolation, _iter_descent_configs, descent_length_bound, ty_descent_path
from .pointgen import GenKind, GenSpec, gen_points


class ConfigError(ValueError):
    """Invalid run configuration (reported before any computation)."""


SUITES = (
    "subgraph",
    "degree",
    "connectivity",
    "stretch_bounds",
    "potential",
    "sector_cover",
    "lhp_containment",
    "ratio_bound",
)


@dataclass
class RunConfig:
    """Shared configuration for CLI runs: graph family and parameter, point
    source (generator spec or input file), outputs, suite toggles, and
    tolerance overrides."""

    family: str | None = None
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
    output_path: str | None = None
    suites: tuple[str, ...] = ("all",)
    tolerance: float = 1e-9
    sector_samples: int = 100_000
    ratio_samples: int = 10_000
    max_descent_configs: int = 300
    edge_files: dict[str, str] = field(default_factory=dict)

    def validate(self, require_family: bool = False) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if require_family and self.family is None:
            raise ConfigError("a graph family is required (--family)")
        if self.family is not None:
            try:
                fam = Family(self.family)
            except ValueError:
                raise ConfigError(f"unknown family {self.family!r}") from None
            if fam in (Family.OVERLAPPING_YAO, Family.TRAPEZOIDAL_YAO) and self.k <= 24:
                raise ConfigError(f"family {fam.value} requires k > 24, got k={self.k}")
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


def _get_graphs(cfg: RunConfig, points: list[Point]) -> dict[str, ConeGraph]:
    """The four graphs by short name.  Yao is built once and Yao-Yao and
    overlapping-Yao are derived from it.  An edge file replaces a graph's
    edges, but its selection tables are always those rebuilt from the points,
    so the path suites check loaded graphs against the reference selections."""
    yao = build_yao(points, cfg.k)
    graphs = {
        "yao": yao,
        "yy": derive_yao_yao(yao),
        "oy": derive_oy(yao),
        "ty": build_ty(points, cfg.k),
    }
    for name, path in cfg.edge_files.items():
        edges, lengths = read_edges(path)
        g = graphs[name]
        validate_edges(g.xy, edges, lengths)
        graphs[name] = replace(g, edges=edge_array(edges[:, 0], edges[:, 1], g.n))
    return graphs


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
    # harvest lazily: only the configs walked are built
    configs = list(islice(_iter_descent_configs(graphs["ty"]), cfg.max_descent_configs))
    worst_dphi = -math.inf
    worst_slack = math.inf
    failures = []
    for frame, a in configs:
        try:
            trace = ty_descent_path(graphs["ty"], graphs["oy"], frame, a)
        except InvariantViolation as exc:
            failures.append({"o": frame.o, "a": a, "message": str(exc)})
            continue
        bound = descent_length_bound(graphs["ty"], frame, a)
        slack = bound - trace.total_length
        worst_slack = min(worst_slack, slack)
        for step in trace.steps:
            worst_dphi = max(worst_dphi, step.phi_after - step.phi_before)
        if trace.total_length > bound + tol or any(
            s.phi_after > s.phi_before + tol for s in trace.steps
        ):
            failures.append({"o": frame.o, "a": a, "length": trace.total_length, "bound": bound})
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
    ok = covers_sector_check(theta(cfg.k), gamma(cfg.k), cfg.sector_samples, cfg.seed)
    return [
        CheckResult(
            "sector_cover",
            ok,
            0.0,
            {"theta": theta(cfg.k), "gamma": gamma(cfg.k), "samples": cfg.sector_samples},
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


def check_ratio_bound(cfg: RunConfig, graphs: dict[str, ConeGraph]) -> list[CheckResult]:
    tol = cfg.tolerance
    rng = np.random.default_rng(cfg.seed)
    u = Point(0.0, 0.0)
    v = Point(1.0, 0.0)
    results = []
    for label, alpha in (("pi_12", math.pi / 12), ("pi_6", math.pi / 6), ("pi_4", math.pi / 4)):
        bound = 1.0 / (1.0 - 2.0 * math.sin(alpha / 2.0))
        beta = rng.uniform(-alpha, alpha, cfg.ratio_samples)
        rho = np.sqrt(1.0 - rng.random(cfg.ratio_samples))  # radius in (0, 1]
        worst = 0.0
        for b, r in zip(beta, rho):
            w = Point(float(r * math.cos(b)), float(r * math.sin(b)))
            worst = max(worst, ratio_oracle(u, v, w, 1.0))
        results.append(
            CheckResult(
                f"ratio_bound_{label}",
                worst <= bound * (1.0 + tol),
                tol,
                {"alpha": alpha, "bound": bound, "max_ratio": worst},
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
