import json
import math

import numpy as np
import pytest

from conespan.build import build_yao
from conespan.fileio import (
    ParseError,
    read_edges,
    read_points,
    validate_edges,
    write_edges,
    write_points,
    write_report,
)
from conespan.geometry import GeometryError, Point
from conespan.pointgen import GenKind, GenSpec, gen_points
from conespan.render import render_svg


class TestGenPoints:
    def test_grid_row_major(self):
        pts = gen_points(GenSpec(GenKind.GRID, 4, pitch=1.0))
        assert pts == [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]

    def test_uniform_deterministic(self):
        spec = GenSpec(GenKind.UNIFORM_SQUARE, 100, seed=1)
        assert gen_points(spec) == gen_points(spec)

    def test_different_seeds_differ(self):
        a = gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 50, seed=1))
        b = gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 50, seed=2))
        assert a != b

    def test_co_circular_radius(self):
        pts = gen_points(GenSpec(GenKind.CO_CIRCULAR, 64, seed=0, radius=1.0, jitter=0.0))
        for p in pts:
            assert abs(math.hypot(p.x, p.y) - 1.0) <= 1e-12

    def test_clustered_distinct(self):
        pts = gen_points(GenSpec(GenKind.CLUSTERED, 200, seed=3, clusters=4, spread=0.02))
        assert len({(p.x, p.y) for p in pts}) == 200

    def test_all_kinds_distinct(self):
        for kind in GenKind:
            pts = gen_points(GenSpec(kind, 60, seed=5))
            assert len({(p.x, p.y) for p in pts}) == 60

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(GenKind.UNIFORM_SQUARE, 0),
            GenSpec(GenKind.UNIFORM_SQUARE, 10, side=-1.0),
            GenSpec(GenKind.GRID, 10, pitch=0.0),
            GenSpec(GenKind.CO_CIRCULAR, 10, radius=0.0),
            GenSpec(GenKind.CLUSTERED, 10, clusters=0),
        ],
    )
    def test_invalid_params(self, spec):
        with pytest.raises(GeometryError):
            gen_points(spec)

    @pytest.mark.parametrize(
        "kind,field",
        [
            (GenKind.UNIFORM_SQUARE, "side"),
            (GenKind.GRID, "pitch"),
            (GenKind.CO_CIRCULAR, "radius"),
            (GenKind.CO_CIRCULAR, "jitter"),
            (GenKind.CLUSTERED, "spread"),
            (GenKind.GRID, "jitter"),  # rejected even where the kind ignores it
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, kind, field, value):
        with pytest.raises(GeometryError, match=f"{field} must be finite"):
            gen_points(GenSpec(kind, 20, **{field: value}))


class TestPointFiles:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        pts = gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 50, seed=9))
        path = tmp_path / f"pts.{fmt}"
        write_points(path, pts)
        assert read_points(path) == pts

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1.5,2.5\n")
        assert read_points(path) == [Point(1.5, 2.5)]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,0.0\n1.0,\n")
        with pytest.raises(ParseError, match=r":2"):
            read_points(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[0, 1], [2]]")
        with pytest.raises(ParseError, match="entry 1"):
            read_points(path)

    @pytest.mark.parametrize(
        "row",
        [[1, True], ["0.5", "0.25"], [None, 0], [[0], 1], [0, {"x": 1}]],
        ids=["bool", "string", "null", "list", "object"],
    )
    def test_json_coordinates_must_be_numbers(self, tmp_path, row):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0], row, [0.2, 0.9]]))
        with pytest.raises(ParseError, match="entry 1"):
            read_points(path)

    def test_json_ints_and_floats_read_as_floats(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("[[0, 1], [2.5, -3]]")
        assert read_points(path) == [Point(0.0, 1.0), Point(2.5, -3.0)]

    def test_json_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(f"[[0, 0], [1{'0' * 400}, 1]]")
        with pytest.raises(ParseError, match="entry 1"):
            read_points(path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ParseError, match="format"):
            read_points(tmp_path / "pts.dat")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("inf,0.0\n")
        with pytest.raises(ParseError):
            read_points(path)


class TestEdgeFiles:
    def test_two_point_yao_records(self, tmp_path):
        g = build_yao([Point(0, 0), Point(1, 0)], 8)
        path = tmp_path / "edges.json"
        write_edges(path, g.edges, g.lengths)
        records = json.loads(path.read_text())
        assert records == [
            {"tail": 0, "head": 1, "length": 1.0},
            {"tail": 1, "head": 0, "length": 1.0},
        ]

    def test_round_trip(self, tmp_path):
        edges = np.array([[0, 1], [2, 0]])
        lengths = np.array([0.5, 1.25])
        path = tmp_path / "edges.json"
        write_edges(path, edges, lengths)
        got_edges, got_lengths = read_edges(path)
        assert got_edges.dtype == np.int64
        assert got_edges.tolist() == edges.tolist() and got_lengths.tolist() == lengths.tolist()

    def test_validate_edges(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        validate_edges(xy, np.array([[0, 1]]), np.array([1.0]))
        with pytest.raises(ParseError, match="endpoints"):
            validate_edges(xy, np.array([[0, 5]]), np.array([1.0]))
        with pytest.raises(ParseError, match="disagrees"):
            validate_edges(xy, np.array([[0, 1]]), np.array([2.0]))
        with pytest.raises(ParseError, match="disagrees"):
            validate_edges(xy, np.array([[0, 1]]), np.array([math.nan]))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "edges.json"
        path.write_text('[{"tail": 0}]')
        with pytest.raises(ParseError, match="tail/head/length"):
            read_edges(path)


class TestReport:
    def test_report_written(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"passed": True, "nested": {"x": 1.25}})
        assert json.loads(path.read_text()) == {"passed": True, "nested": {"x": 1.25}}


class TestRenderSvg:
    def test_markers_only(self):
        svg = render_svg([Point(0, 0), Point(1, 1)], [])
        assert svg.count("<circle") == 2
        assert "<line" not in svg

    def test_one_line_for_two_point_graph(self):
        pts = [Point(0, 0), Point(1, 0)]
        svg = render_svg(pts, build_yao(pts, 8).edges)
        assert svg.count("<line") == 1  # both directions collapse undirected

    def test_deterministic_bytes(self):
        pts = gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 30, seed=4))
        g = build_yao(pts, 8)
        assert render_svg(pts, g.edges) == render_svg(pts, g.edges)

    def test_witness_path_polyline(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        svg = render_svg(pts, [], witness_path=[0, 1, 2])
        assert svg.count("<polyline") == 1

    def test_empty_input(self):
        svg = render_svg([], [])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
