import json
import math

import pytest

from conespan.cli import main
from conespan.paths import InvariantViolation


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


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "conespan" in capsys.readouterr().out
