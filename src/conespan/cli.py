"""Command-line driver: gen, build, stretch, path, verify, render.

Exit codes: 0 success, 1 verification failure (including a path algorithm's
invariant violation), 2 usage or configuration error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analysis import stretch_bound, stretch_factor
from .build import FAMILIES, as_point_array, build_oy, build_ty
from .fileio import (
    ParseError,
    read_edges,
    read_points,
    validate_edges,
    write_edges,
    write_points,
    write_report,
)
from .geometry import GeometryError
from .paths import (
    InvariantViolation,
    _iter_descent_configs,
    harvest_descent_configs,
    oy_greedy_path,
    ty_descent_path,
)
from .pointgen import GenKind
from .render import render_svg
from .verify import ConfigError, RunConfig, cmd_verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

def _add_gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="uniform_square", choices=[k.value for k in GenKind])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--pitch", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--spread", type=float, default=0.05)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    short = getattr(args, "family", None)
    cfg = RunConfig(
        family=FAMILIES[short][0].value if short else None,
        k=getattr(args, "k", 30),
        n=args.n,
        seed=args.seed,
        kind=args.kind,
        side=args.side,
        pitch=args.pitch,
        radius=args.radius,
        jitter=args.jitter,
        clusters=args.clusters,
        spread=args.spread,
        input_path=getattr(args, "infile", None),
        tolerance=getattr(args, "tolerance", 1e-9),
    )
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conespan", description=__doc__)
    ap.add_argument("--version", action="version", version=f"conespan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a reproducible point set")
    _add_gen_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("build", help="construct a cone graph family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", default=None, help="points file (csv or json)")
    _add_gen_args(p)
    p.add_argument("--out", required=True, help="edges file (json)")
    p.add_argument("--points-out", default=None, help="also write the point set")
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("stretch", help="measure the exact stretch factor")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", default=None)
    _add_gen_args(p)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="report file (json)")

    p = sub.add_parser("path", help="trace a constructive path")
    p.add_argument("--family", required=True, choices=["oy", "ty"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", default=None)
    _add_gen_args(p)
    p.add_argument("--source", type=int, default=None, help="oy: start vertex")
    p.add_argument("--target", type=int, default=None, help="oy: target vertex")
    p.add_argument("--edge", default=None, help="ty: generating edge as 'tail,head'")
    p.add_argument("--witness", type=int, default=None, help="ty: witness vertex")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the property-check suites")
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--in", dest="infile", default=None)
    _add_gen_args(p)
    p.add_argument("--suite", default="all", help="comma-separated suite names or 'all'")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--sector-samples", type=int, default=100_000)
    p.add_argument("--ratio-samples", type=int, default=10_000)
    p.add_argument("--edges-yao", default=None)
    p.add_argument("--edges-yy", default=None)
    p.add_argument("--edges-oy", default=None)
    p.add_argument("--edges-ty", default=None)
    p.add_argument("--out", default=None, help="report file (json)")

    p = sub.add_parser("render", help="render points and edges to SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--witness", default=None, help="comma-separated vertex path to highlight")
    p.add_argument("--out", required=True)
    return ap


def _cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    points = cfg.load_points()
    write_points(args.out, points, args.format)
    print(f"wrote {len(points)} points to {args.out}")
    return EXIT_OK


def _cmd_build(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(require_family=True)
    points = cfg.load_points()
    graph = FAMILIES[args.family][1](points, args.k)
    write_edges(args.out, graph.edges, graph.lengths)
    if args.points_out:
        write_points(args.points_out, points, args.format)
    print(f"{args.family} k={args.k}: {len(graph.edges)} directed edges over {len(points)} points")
    return EXIT_OK


def _cmd_stretch(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(require_family=True)
    points = cfg.load_points()
    if len(points) > 2000:
        raise ConfigError(
            f"all-pairs stretch is capped at 2000 points (got {len(points)})"
        )
    graph = FAMILIES[args.family][1](points, args.k)
    bound = stretch_bound(args.family, args.k)
    rep = stretch_factor(graph, bound=bound, tol=args.tolerance)
    payload = {
        "tool": "conespan",
        "version": __version__,
        "config": {"family": args.family, "k": args.k, "n": len(points), "seed": args.seed},
        "report": asdict(rep),
    }
    if args.out:
        write_report(args.out, payload)
    print(
        f"stretch({args.family}, k={args.k}) = {rep.stretch:.9f} witness={rep.witness} "
        f"max_degree={rep.max_degree} connected={rep.connected}"
        + (f" bound={bound:.6f} satisfied={rep.bound_satisfied}" if bound is not None else "")
    )
    return EXIT_OK


def _cmd_path(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(require_family=True)
    points = cfg.load_points()
    if args.family == "oy":
        if args.source is None or args.target is None:
            raise ConfigError("oy path needs --source and --target")
        graph = build_oy(points, args.k)
        trace = oy_greedy_path(graph, args.source, args.target)
        header = f"oy path {args.source}->{args.target}"
    else:
        if (args.edge is None) != (args.witness is None):
            raise ConfigError("ty path needs both --edge and --witness, or neither")
        ty = build_ty(points, args.k)
        oy = build_oy(points, args.k)
        if args.edge is not None:
            try:
                tail, head = (int(t) for t in args.edge.split(","))
            except ValueError:
                raise ConfigError("--edge must be 'tail,head'") from None
            if not ty.has_edge(tail, head):
                raise ConfigError(f"{tail}->{head} is not a trapezoidal-Yao edge")
            candidates = [
                (frame, a)
                for frame, a in harvest_descent_configs(ty, edge=(tail, head))
                if a == args.witness
            ]
            if not candidates:
                raise ConfigError(
                    f"no harvested descent placement for edge {args.edge} with witness {args.witness}"
                )
            frame, a = candidates[0]
        else:
            first = next(_iter_descent_configs(ty), None)  # stops at the first tail with one
            if first is None:
                raise ConfigError("no descent configuration exists on this point set")
            frame, a = first
        trace = ty_descent_path(ty, oy, frame, a)
        header = f"ty descent a={a} -> o={frame.o} (local units)"
    payload = {
        "tool": "conespan",
        "version": __version__,
        "config": {"family": args.family, "k": args.k, "n": len(points), "seed": args.seed},
        "vertices": list(trace.vertices),
        "total_length": trace.total_length,
        "steps": [
            {
                "kind": s.kind.value,
                "length": s.length,
                "phi_before": s.phi_before,
                "phi_after": s.phi_after,
                "psi": s.psi,
            }
            for s in trace.steps
        ],
    }
    if args.out:
        write_report(args.out, payload)
    print(f"{header}: {len(trace.vertices)} vertices, length {trace.total_length:.9f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    cfg.suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    cfg.sector_samples = args.sector_samples
    cfg.ratio_samples = args.ratio_samples
    for fam in FAMILIES:
        path = getattr(args, f"edges_{fam}")
        if path:
            cfg.edge_files[fam] = path
    code, report = cmd_verify(cfg)
    if args.out:
        write_report(args.out, report)
    for check in report["checks"]:
        print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}")
    print(f"verify: {'all checks passed' if code == 0 else 'violations found'}")
    return EXIT_OK if code == 0 else EXIT_VERIFY_FAIL


def _cmd_render(args) -> int:
    points = read_points(args.infile)
    edges = []
    if args.edges:
        edges, lengths = read_edges(args.edges)
        validate_edges(as_point_array(points), edges, lengths)
    witness = None
    if args.witness:
        try:
            witness = [int(t) for t in args.witness.split(",")]
        except ValueError:
            raise ConfigError("--witness must be a comma-separated vertex list") from None
        bad = [i for i in witness if not 0 <= i < len(points)]
        if bad:
            raise ConfigError(f"--witness vertex {bad[0]} is out of range for {len(points)} points")
    svg = render_svg(points, edges, witness_path=witness)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "stretch": _cmd_stretch,
    "path": _cmd_path,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:  # a path step contradicted the construction
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, GeometryError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
