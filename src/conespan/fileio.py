"""Point, edge, and report files.

Points travel as CSV (one ``x,y`` row per point, header optional) or JSON
(array of [x, y] pairs of JSON numbers); edges as JSON records {tail, head,
length}; reports as JSON objects.  Floats are written with shortest
round-trip formatting, so write-then-read returns identical values.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .build import edge_lengths
from .geometry import GeometryError, Point


class ParseError(ValueError):
    """Malformed input file; the message names the file and offending line."""


_SUFFIX_FORMATS = {".csv": "csv", ".json": "json"}


def read_points(path: str | Path) -> list[Point]:
    """Points from a ``.csv`` or ``.json`` file; the suffix sets the format."""
    fmt = _SUFFIX_FORMATS.get(Path(path).suffix.lower())
    if fmt is None:
        raise ParseError(f"cannot infer format from {path}; point files must end in .csv or .json")
    text = Path(path).read_text()
    points: list[Point] = []
    if fmt == "csv":
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_float(parts[0]):
                continue  # header row
            if len(parts) != 2 or not all(map(_is_float, parts)):
                raise ParseError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
            points.append(_point(parts[0], parts[1], f"{path}:{lineno}"))
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        if not isinstance(data, list):
            raise ParseError(f"{path}: expected a JSON array of [x, y] pairs")
        for i, row in enumerate(data):
            if not (isinstance(row, list) and len(row) == 2):
                raise ParseError(f"{path}: entry {i} is not an [x, y] pair: {row!r}")
            if not all(type(c) in (int, float) for c in row):
                raise ParseError(f"{path}: entry {i} needs numeric x and y: {row!r}")
            points.append(_point(row[0], row[1], f"{path}: entry {i}"))
    return points


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _point(x, y, where: str) -> Point:
    try:
        return Point(float(x), float(y))
    except (TypeError, ValueError, OverflowError, GeometryError) as exc:
        raise ParseError(f"{where}: bad coordinates: {exc}") from None


def write_points(path: str | Path, points: list[Point], fmt: str | None = None) -> None:
    fmt = fmt or _SUFFIX_FORMATS.get(Path(path).suffix.lower())
    if fmt is None:
        raise ParseError(f"cannot infer format from {path}; pass --format csv or json")
    if fmt not in ("csv", "json"):
        raise ParseError(f"unsupported format {fmt!r} (expected csv or json)")
    if fmt == "csv":
        lines = [f"{repr(p.x)},{repr(p.y)}" for p in points]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    else:
        Path(path).write_text(json.dumps([[p.x, p.y] for p in points]) + "\n")


def read_edges(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Edge records as an (m, 2) int64 array of (tail, head) rows, in file
    order, and the (m,) array of their recorded lengths.  Endpoints must be
    JSON integers and lengths finite numbers."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, list):
        raise ParseError(f"{path}: expected a JSON array of edge records")
    for i, rec in enumerate(data):
        if not (isinstance(rec, dict) and {"tail", "head", "length"} <= rec.keys()):
            raise ParseError(f"{path}: entry {i} lacks tail/head/length: {rec!r}")
        tail, head, length = rec["tail"], rec["head"], rec["length"]
        if not (type(tail) is int and type(head) is int and type(length) in (int, float)):
            raise ParseError(f"{path}: entry {i} needs integer tail/head and a numeric length: {rec!r}")
    try:
        edges = np.array([(rec["tail"], rec["head"]) for rec in data], dtype=np.int64).reshape(-1, 2)
        lengths = np.array([rec["length"] for rec in data], dtype=float)
    except OverflowError:
        raise ParseError(f"{path}: an edge endpoint or length is out of range") from None
    if not np.isfinite(lengths).all():
        i = int(np.argmax(~np.isfinite(lengths)))
        raise ParseError(f"{path}: entry {i} length must be finite: {data[i]!r}")
    return edges, lengths


def write_edges(path: str | Path, edges: np.ndarray, lengths: np.ndarray) -> None:
    """Write (tail, head) rows with their lengths as edge records, in the given
    order (a graph's edge array is sorted by (tail, head))."""
    records = [
        {"tail": t, "head": h, "length": d}
        for (t, h), d in zip(edges.tolist(), lengths.tolist())
    ]
    Path(path).write_text(json.dumps(records, indent=1) + "\n")


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def write_report(path: str | Path, report: dict) -> None:
    """Write a report as strict JSON: non-finite floats (a disconnected
    graph's infinite stretch) become null."""
    text = json.dumps(_finite(report), indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def validate_edges(xy: np.ndarray, edges: np.ndarray, lengths: np.ndarray) -> None:
    """Check that edge indices are in range over the (n, 2) coordinates ``xy``
    and that lengths match the coordinates to a relative 1e-12."""
    n = xy.shape[0]
    tails, heads = edges.T
    bad = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n) | (tails == heads)
    if bad.any():
        t, h = edges[np.argmax(bad)]
        raise ParseError(f"edge {t}->{h} has invalid endpoints for {n} points")
    d = edge_lengths(xy, edges)
    bad = ~(np.abs(d - lengths) <= 1e-12 * np.maximum(1.0, d))
    if bad.any():
        i = int(np.argmax(bad))
        t, h = edges[i]
        raise ParseError(f"edge {t}->{h} length {lengths[i]} disagrees with coordinates ({d[i]})")
