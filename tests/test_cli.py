import json
import math

import pytest

from conespan.build import build_oy, build_ty
from conespan.cli import main
from conespan.fileio import read_points
from conespan.geometry import TWO_PI, Point, dist
from conespan.paths import InvariantViolation, ty_descent_path
from conftest import oracle_harvest


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def workspace(tmp_path):
    pts = tmp_path / "pts.csv"
    assert run("gen", "--kind", "uniform_square", "--n", "50", "--seed", "1", "--out", str(pts)) == 0
    return tmp_path, pts


class TestGen:
    def test_deterministic_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("gen", "--n", "40", "--seed", "3", "--out", str(a)) == 0
        assert run("gen", "--n", "40", "--seed", "3", "--out", str(b)) == 0
        assert a.read_text() == b.read_text()

    def test_json_format(self, tmp_path):
        out = tmp_path / "pts.json"
        assert run("gen", "--kind", "grid", "--n", "4", "--out", str(out)) == 0
        assert json.loads(out.read_text()) == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

    def test_bad_kind_rejected(self, tmp_path):
        assert run("gen", "--kind", "nonsense", "--n", "4", "--out", str(tmp_path / "x.csv")) == 2


class TestBuild:
    def test_build_and_edges_file(self, workspace):
        tmp_path, pts = workspace
        out = tmp_path / "yao.json"
        assert run("build", "--family", "yao", "--k", "8", "--in", str(pts), "--out", str(out)) == 0
        records = json.loads(out.read_text())
        assert records and all({"tail", "head", "length"} <= set(r) for r in records)

    def test_ty_small_k_is_config_error(self, workspace):
        tmp_path, pts = workspace
        out = tmp_path / "ty.json"
        assert run("build", "--family", "ty", "--k", "20", "--in", str(pts), "--out", str(out)) == 2

    def test_missing_points_file_is_io_error(self, tmp_path):
        assert (
            run("build", "--family", "yao", "--k", "8", "--in", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.json"))
            == 3
        )


class TestStretch:
    def test_report_written(self, workspace):
        tmp_path, pts = workspace
        rep = tmp_path / "rep.json"
        assert run("stretch", "--family", "oy", "--k", "30", "--in", str(pts), "--out", str(rep)) == 0
        payload = json.loads(rep.read_text())
        assert payload["tool"] == "conespan"
        assert payload["report"]["stretch"] >= 1.0
        assert payload["report"]["bound_satisfied"] is True
        assert payload["report"]["path_model"] == "undirected"


class TestPath:
    def test_oy_path(self, workspace):
        tmp_path, pts = workspace
        out = tmp_path / "trace.json"
        assert run(
            "path", "--family", "oy", "--k", "30", "--in", str(pts),
            "--source", "0", "--target", "17", "--out", str(out),
        ) == 0
        trace = json.loads(out.read_text())
        assert trace["vertices"][0] == 0 and trace["vertices"][-1] == 17

    def test_invariant_violation_exits_1_without_traceback(self, workspace, monkeypatch, capsys):
        def broken(graph, u, v):
            raise InvariantViolation("greedy hop did not approach the target")

        monkeypatch.setattr("conespan.cli.oy_greedy_path", broken)
        _, pts = workspace
        assert run("path", "--family", "oy", "--k", "30", "--in", str(pts), "--source", "0", "--target", "17") == 1
        assert capsys.readouterr().err.startswith("error: greedy hop did not approach the target")

    def test_oy_path_needs_endpoints(self, workspace):
        _, pts = workspace
        assert run("path", "--family", "oy", "--k", "30", "--in", str(pts)) == 2

    def test_ty_descent_auto_config(self, workspace):
        tmp_path, pts = workspace
        out = tmp_path / "descent.json"
        assert run("path", "--family", "ty", "--k", "30", "--in", str(pts), "--out", str(out)) == 0
        trace = json.loads(out.read_text())
        kinds = {s["kind"] for s in trace["steps"]}
        assert kinds <= {"direct_ty_edge", "oy_subpath", "final_oy_subpath"}
        for s in trace["steps"]:
            assert s["phi_after"] <= s["phi_before"] + 1e-9


    @pytest.fixture
    def points30(self, tmp_path):
        pts = tmp_path / "pts30.csv"
        assert run("gen", "--n", "30", "--seed", "1", "--out", str(pts)) == 0
        return pts

    def test_ty_descent_rejects_non_ty_edge(self, points30, capsys):
        # 0->1 is not a trapezoidal-Yao edge at k=30, though witness 11 qualifies
        # for a frame of another edge out of vertex 0
        code = run("path", "--family", "ty", "--k", "30", "--in", str(points30), "--edge", "0,1", "--witness", "11")
        assert code == 2
        assert "not a trapezoidal-Yao edge" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--edge", "0,1"], ["--witness", "999"]], ids=["edge_only", "witness_only"])
    def test_ty_descent_needs_edge_and_witness_together(self, points30, flags, capsys):
        assert run("path", "--family", "ty", "--k", "30", "--in", str(points30), *flags) == 2
        assert "both --edge and --witness" in capsys.readouterr().err

    def test_ty_descent_uses_the_edges_own_frames(self, points30, tmp_path):
        points = read_points(points30)
        ty, oy = build_ty(points, 30), build_oy(points, 30)
        tail, head, witness = 0, 14, 11
        s = dist(points[tail], points[head])
        own = {
            (j * (TWO_PI / 30), reflected) for j, reflected in ty.ty_frames[(tail, head)]
        }
        own_frames = [
            frame
            for frame, a in oracle_harvest(ty)
            if frame.o == tail and a == witness and any(
                frame.reflected == reflected
                and frame.p == Point(points[tail].x + s * math.cos(o), points[tail].y + s * math.sin(o))
                for o, reflected in own
            )
        ]
        first_from_tail = next(f for f, a in oracle_harvest(ty) if f.o == tail and a == witness)
        assert own_frames and first_from_tail != own_frames[0]  # another edge's frame comes first
        expected = ty_descent_path(ty, oy, own_frames[0], witness)
        out = tmp_path / "descent.json"
        assert run(
            "path", "--family", "ty", "--k", "30", "--in", str(points30),
            "--edge", f"{tail},{head}", "--witness", str(witness), "--out", str(out),
        ) == 0
        trace = json.loads(out.read_text())
        assert trace["vertices"] == list(expected.vertices)
        assert trace["total_length"] == expected.total_length


class TestVerify:
    def test_default_suite_passes(self, workspace):
        tmp_path, pts = workspace
        rep = tmp_path / "verify.json"
        code = run("verify", "--k", "30", "--in", str(pts), "--sector-samples", "20000",
                   "--ratio-samples", "2000", "--out", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["passed"] is True
        assert report["version"]
        assert {c["name"] for c in report["checks"]} >= {
            "subgraph_oy_in_ty",
            "degree_bound_yy",
            "connectivity_yy",
            "potential_monotonicity",
        }

    def test_corrupted_ty_edges_fail_subgraph(self, workspace):
        tmp_path, pts = workspace
        oy_f = tmp_path / "oy.json"
        ty_f = tmp_path / "ty.json"
        assert run("build", "--family", "oy", "--k", "30", "--in", str(pts), "--out", str(oy_f)) == 0
        assert run("build", "--family", "ty", "--k", "30", "--in", str(pts), "--out", str(ty_f)) == 0
        ty_records = json.loads(ty_f.read_text())
        oy_pairs = {(r["tail"], r["head"]) for r in json.loads(oy_f.read_text())}
        removed = next(r for r in ty_records if (r["tail"], r["head"]) in oy_pairs)
        ty_records.remove(removed)
        corrupt = tmp_path / "ty_corrupt.json"
        corrupt.write_text(json.dumps(ty_records))
        rep = tmp_path / "vfail.json"
        code = run(
            "verify", "--k", "30", "--in", str(pts), "--suite", "subgraph",
            "--edges-oy", str(oy_f), "--edges-ty", str(corrupt), "--out", str(rep),
        )
        assert code == 1
        report = json.loads(rep.read_text())
        failed = next(c for c in report["checks"] if not c["passed"])
        assert failed["name"] == "subgraph_oy_in_ty"
        assert [removed["tail"], removed["head"]] in failed["details"]["witnesses"]

    def test_loaded_ty_edges_run_default_suites(self, workspace):
        tmp_path, pts = workspace
        ty_f = tmp_path / "ty.json"
        assert run("build", "--family", "ty", "--k", "30", "--in", str(pts), "--out", str(ty_f)) == 0
        code = run("verify", "--k", "30", "--in", str(pts), "--sector-samples", "20000",
                   "--ratio-samples", "2000", "--edges-ty", str(ty_f))
        assert code == 0

    def test_gutted_oy_edges_fail_potential(self, workspace):
        tmp_path, pts = workspace
        gutted = tmp_path / "oy_gutted.json"
        gutted.write_text("[]\n")
        rep = tmp_path / "vfail.json"
        code = run("verify", "--k", "30", "--in", str(pts), "--suite", "potential",
                   "--edges-oy", str(gutted), "--out", str(rep))
        assert code == 1
        [check] = json.loads(rep.read_text())["checks"]
        assert check["name"] == "potential_monotonicity" and not check["passed"]
        witnesses = check["details"]["witnesses"]
        assert witnesses
        assert all("expected an overlapping-Yao edge" in w["message"] for w in witnesses)

    @pytest.mark.parametrize(
        "n,k", [(100, 30), (60, 30), (48, 26)], ids=["false_witness", "pi_6_edge", "pi_6_edge_k26"]
    )
    def test_exact_cocircular_potential_passes(self, n, k, tmp_path, capsys):
        # exact co-circular input puts points on frames' bottom rays: a
        # descent deciding first contact apart from build_ty reported a
        # missing trapezoidal-Yao edge (n=100), and one deciding phi(a->p)
        # apart from the harvest rejected a harvested witness (n=60, n=48)
        rep = tmp_path / "rep.json"
        code = run("verify", "--kind", "co_circular", "--n", str(n), "--k", str(k),
                   "--suite", "potential", "--out", str(rep))
        assert (code, capsys.readouterr().err) == (0, "")
        [check] = json.loads(rep.read_text())["checks"]
        assert check["passed"] and check["details"]["configs"] == 300

    def test_disconnected_graphs_give_strict_json_report(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        rep = tmp_path / "rep.json"
        code = run("verify", "--k", "30", "--n", "60", "--edges-oy", str(empty),
                   "--edges-ty", str(empty), "--out", str(rep))
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(rep.read_text(), parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        for name in ("stretch_oy_bound", "stretch_ty_bound"):
            assert not checks[name]["passed"] and checks[name]["details"]["stretch"] is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rec: {**rec, "tail": None},
            lambda rec: {**rec, "tail": "x"},
            lambda rec: {**rec, "tail": rec["tail"] + 0.5},  # would truncate to a valid edge
            lambda rec: {**rec, "length": math.nan},  # compares false against any tolerance
        ],
        ids=["null_tail", "string_tail", "fractional_tail", "nan_length"],
    )
    def test_malformed_edge_record_is_parse_error(self, workspace, corrupt, capsys):
        tmp_path, pts = workspace
        oy_f = tmp_path / "oy.json"
        assert run("build", "--family", "oy", "--k", "30", "--in", str(pts), "--out", str(oy_f)) == 0
        records = json.loads(oy_f.read_text())
        records[0] = corrupt(records[0])
        oy_f.write_text(json.dumps(records))
        assert run("verify", "--k", "30", "--in", str(pts), "--suite", "subgraph", "--edges-oy", str(oy_f)) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_small_k_config_error(self, workspace):
        _, pts = workspace
        assert run("verify", "--k", "20", "--in", str(pts)) == 2

    def test_unknown_suite_config_error(self, workspace):
        _, pts = workspace
        assert run("verify", "--k", "30", "--in", str(pts), "--suite", "bogus") == 2


class TestRender:
    def test_render_flow(self, workspace):
        tmp_path, pts = workspace
        edges = tmp_path / "e.json"
        out = tmp_path / "fig.svg"
        assert run("build", "--family", "yy", "--k", "8", "--in", str(pts), "--out", str(edges)) == 0
        assert run("render", "--in", str(pts), "--edges", str(edges), "--witness", "0,5", "--out", str(out)) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and "<circle" in svg and "<line" in svg

    def test_bad_witness_is_config_error(self, workspace):
        tmp_path, pts = workspace
        assert run("render", "--in", str(pts), "--witness", "a,b", "--out", str(tmp_path / "f.svg")) == 2

    @pytest.mark.parametrize("witness", ["0,999", "0,-1"], ids=["past_end", "negative"])
    def test_out_of_range_witness_is_config_error(self, workspace, witness, capsys):
        tmp_path, pts = workspace
        out = tmp_path / "f.svg"
        assert run("render", "--in", str(pts), "--witness", witness, "--out", str(out)) == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_edge_endpoint_is_parse_error(self, workspace, capsys):
        tmp_path, pts = workspace
        edges = tmp_path / "e.json"
        edges.write_text(json.dumps([{"tail": 0, "head": 50, "length": 1.0}]))
        out = tmp_path / "f.svg"
        assert run("render", "--in", str(pts), "--edges", str(edges), "--out", str(out)) == 3
        assert "invalid endpoints" in capsys.readouterr().err
        assert not out.exists()


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "conespan" in capsys.readouterr().out
