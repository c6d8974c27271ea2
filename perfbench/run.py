"""conespan benchmark: one workload per run, as a closed loop.

    python3 perfbench/run.py --workload uniform_k30 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  One caller handles one point set (an "instance") at a time, each
in a fresh worker process: the worker imports conespan, warms every
operation up on a tiny point set and generates its point set (set-up), then
runs the ``build``, ``stretch``, ``path`` and ``verify`` operations in that
order and checks their outputs.  The next instance starts only while it is
expected to end within ``--seconds``.  Point sets come from ``--seed``
alone.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over instances).  With ``--trace 1`` each instance runs in one
untraced and one traced worker, the traced one with spans around every call
into conespan's public functions, and the last line reports the per-layer
metrics.  A full record (environment, per-instance times, failures and
edge-set digests) and, when traced, the spans go to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_INSTANCES = 1000  # instance i of seed s uses generator seed s * MAX_INSTANCES + i
WARMUP_N = 40
RUN_LIMIT_S = 170  # a hung worker is killed so the run still ends within this

# Each workload stresses a different layer; README.md gives the reasons and sizing.
WORKLOADS = {
    # generic input: the quadratic builders and the n x n stretch arrays dominate
    "uniform_k30": {"kind": "uniform_square", "n": 700, "k": 30},
    # the only workload that checks the Yao-Yao bound and measures yy stretch;
    # dense clusters give long greedy subpaths inside the descents
    "clustered_k84": {"kind": "clustered", "n": 420, "k": 84},
    # every point on the hull: half the cones are empty and the descent
    # harvest dominates path time and memory
    "cocircular_k30": {"kind": "co_circular", "n": 560, "k": 30, "jitter": 1e-3},
}


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the usable core count; workers inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def workload_spec(args) -> dict:
    return {**WORKLOADS[args.workload], **({"n": args.n} if args.n else {})}


def worker(args) -> dict:
    """Set up, then run and check one instance; returns its record."""
    t0 = time.perf_counter()
    import numpy
    import ops
    import scipy
    from conespan import pointgen, verify

    cfg = verify.RunConfig(seed=args.seed * MAX_INSTANCES + args.instance, **workload_spec(args))
    warm = replace(cfg, n=WARMUP_N)
    ops.run_instance(warm, pointgen.gen_points(warm.genspec()))
    points = pointgen.gen_points(cfg.genspec())
    setup_s = time.perf_counter() - t0
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.instance = args.instance
        with tracer.installed():
            rec = ops.run_instance(cfg, points, tracer)
        rec["spans"] = tracer.spans
        rec["stretch_peak_mb"] = ops.stretch_peak_mb(points, cfg.k)
    else:
        rec = ops.run_instance(cfg, points)
    rec["setup_s"] = setup_s
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    return rec


def run_worker(args, instance: int, trace: int, op_names, timeout: float) -> dict:
    """One instance in a fresh process; a crash fails all of its operations."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--instance", str(instance), "--trace", str(trace)]
    if args.n:
        cmd += ["--n", str(args.n)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        detail = f"worker killed after {timeout:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        detail = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    seed = args.seed * MAX_INSTANCES + instance
    return {"seed": seed, "s": {}, "failures": {op: [detail] for op in op_names}}


def measure(args, op_names) -> list[dict]:
    """Closed loop over instances until the next one would overrun."""
    records = []
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    for instance in range(MAX_INSTANCES):
        elapsed = time.perf_counter() - start
        if records and elapsed + statistics.median(r["wall"] for r in records) > args.seconds:
            break
        t0 = time.perf_counter()
        rec = run_worker(args, instance, 0, op_names, max(1.0, deadline - t0))
        if args.trace:
            rec["traced"] = run_worker(args, instance, 1, op_names, max(1.0, deadline - time.perf_counter()))
        rec["wall"] = time.perf_counter() - t0
        records.append(rec)
    return records


def tail_percentile(values: list[float]):
    """The highest whole percentile with at least ten samples above it, or None."""
    if len(values) < 20:
        return None
    p = math.floor(100 * (1 - 10 / len(values)))
    return p, statistics.quantiles(values, n=100)[p - 1]


def summary(values: list[float], unit: str):
    """(median, unit, sample count, tail percentile) of the samples taken."""
    return (statistics.median(values) if values else None, unit, len(values), tail_percentile(values))


def end_to_end(records, op_names) -> dict:
    metrics = {"setup_s": summary([r["setup_s"] for r in records if "setup_s" in r], "s")}
    for op in op_names:
        metrics[f"{op}_s"] = summary([r["s"][op] for r in records if op in r["s"]], "s")
    rss = [r["peak_rss_mb"] for r in records if "peak_rss_mb" in r]
    metrics["peak_rss_mb"] = (max(rss) if rss else None, "MB", len(rss), None)
    return metrics


def per_layer(records):
    """Per-layer metrics of the traced workers, and their spans merged."""
    import tracing

    traced = [r["traced"] for r in records]
    spans = []
    for t in traced:  # renumber: span ids restart in every worker process
        base = len(spans)
        for s in t.pop("spans", []):
            parent = None if s["parent"] is None else s["parent"] + base
            spans.append({**s, "id": s["id"] + base, "parent": parent})
    values = tracing.summarize(spans)
    counts = traced[0].get("counts", {})
    values.update({name: counts.get(name) for name in tracing.COUNTS})
    values["analysis.stretch_factor.peak_mb"] = statistics.median(t.get("stretch_peak_mb", 0.0) for t in traced)
    values["verify.checks_failed"] = sum(t.get("checks_failed", 0) for t in traced)
    op_time = [(sum(r["s"].values()), sum(t["s"].values())) for r, t in zip(records, traced)]
    values["trace.overhead_s"] = statistics.median(b - a for a, b in op_time)
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / statistics.median(a for a, _ in op_time)
    spec = tracing.per_layer_spec()
    return {name: (values[name], unit, len(records), None) for name, (unit, _) in spec.items()}, spans


def environment(nproc: int, records) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "versions": next((r["versions"] for r in records if "versions" in r), None),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None, help="override the workload's point count")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--instance", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "conespan" / "__init__.py").is_file():
        print(f"error: no conespan sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or not 0 <= args.instance < MAX_INSTANCES:
        p.error(f"--seed must be >= 0 and --instance below {MAX_INSTANCES}")
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    import ops

    records = measure(args, ops.OPS)
    passes = [r for rec in records for r in (rec, rec.get("traced")) if r is not None]
    attempted = len(passes) * len(ops.OPS)
    failed = sum(bool(r["failures"][op]) for r in passes for op in ops.OPS)
    spans = None
    if args.trace:
        metrics, spans = per_layer(records)
    else:
        metrics = end_to_end(records, ops.OPS)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "spec": workload_spec(args),
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, 1 caller, one worker process per instance",
        "environment": environment(nproc, records),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": c, "tail": t} for k, (v, u, c, t) in metrics.items()},
        "instances": records,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))

    for r in passes:
        for op in ops.OPS:
            for failure in r["failures"][op]:
                print(f"FAIL {op} seed={r['seed']}: {failure}")
    for name, (value, unit, count, tail) in metrics.items():
        extra = f" p{tail[0]}={tail[1]:.6g}" if tail else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:48s} {shown:>12s} {unit:6s} samples={count}{extra}")
    print(f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.6g}   record: {stem.with_suffix('.json')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
