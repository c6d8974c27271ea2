import json
import math

import pytest

from conespan import verify
from conespan.analysis import tau_bound
from conespan.build import build_oy, build_ty
from conespan.cli import _build_parser, _config_from_args, main
from conespan.fileio import read_points, write_points
from conespan.geometry import Point, dist
from conespan.paths import InvariantViolation, ty_descent_path
from conespan.pointgen import GenKind, GenSpec, gen_points
from conespan.verify import ConfigError, RunConfig
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

    @pytest.mark.parametrize("flag", ["--side", "--pitch", "--radius", "--jitter", "--spread"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_config_error(self, tmp_path, flag, value, capsys):
        # --jitter nan wrote the --jitter 0 point set, and --side inf failed
        # only after every redraw round with a misleading message
        out = tmp_path / "x.csv"
        assert run("gen", "--kind", "co_circular", "--n", "20", flag, value, "--out", str(out)) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestPointFileFormat:
    """The format of a point file comes from its suffix when read, and from
    the suffix or --format when written; the message says which applies."""

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_unknown_suffix_on_read_names_the_suffixes(self, workspace, command, capsys):
        # reading commands have no --format flag to point at
        tmp_path, pts = workspace
        dat = tmp_path / "pts.dat"
        dat.write_text(pts.read_text())
        argv = ["--in", str(dat), "--k", "30"] if command == "verify" else ["--in", str(dat)]
        assert run(command, *argv, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "must end in .csv or .json" in err and "--format" not in err

    def test_unknown_suffix_on_write_points_at_format(self, tmp_path, capsys):
        out = tmp_path / "pts.dat"
        assert run("gen", "--n", "10", "--out", str(out)) == 3
        assert "pass --format csv or json" in capsys.readouterr().err
        assert not out.exists()
        assert run("gen", "--n", "10", "--format", "csv", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 10


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

    def test_json_points_must_be_numbers(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text('[[0, 0], [1, true], ["0.5", "0.25"], [0.2, 0.9]]')
        assert run("build", "--family", "yao", "--k", "8", "--in", str(pts), "--out", str(tmp_path / "o.json")) == 3
        assert "entry 1" in capsys.readouterr().err

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


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_config_error(self, workspace, value, capsys):
        # a nan tolerance failed every bound check and an inf one passed them all
        _, pts = workspace
        assert run("stretch", "--family", "oy", "--k", "30", "--in", str(pts), f"--tolerance={value}") == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("end", ["999", "-1"])
    def test_equal_out_of_range_endpoints_are_named(self, workspace, end, capsys):
        # the range is checked before the endpoints are compared
        _, pts = workspace
        assert run("path", "--family", "oy", "--k", "30", "--in", str(pts), "--source", end, "--target", end) == 2
        assert f"vertex index out of range: u={end}, v={end}" in capsys.readouterr().err

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
        own = {reflected * 30 + j for j, reflected in ty.ty_frames[(tail, head)]}
        from_tail = [cell for cell, a in oracle_harvest(ty).tolist() if cell // 60 == tail and a == witness]
        own_cells = [cell for cell in from_tail if cell % 60 in own]
        assert own_cells and from_tail[0] != own_cells[0]  # another edge's frame comes first
        expected = ty_descent_path(ty, oy, own_cells[0], witness)
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
        code = run("verify", "--k", "30", "--in", str(pts), "--out", str(rep))
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
        code = run("verify", "--k", "30", "--in", str(pts), "--edges-ty", str(ty_f))
        assert code == 0

    def test_loaded_edges_with_extra_edges_fail_construction(self, tmp_path):
        # build_ty's edges plus 70 edges 0 -> j with correct lengths passed
        # every check: nothing compared a loaded file with the construction
        ty_f = tmp_path / "ty.json"
        assert run("build", "--family", "ty", "--k", "30", "--n", "80", "--seed", "1", "--out", str(ty_f)) == 0
        records = json.loads(ty_f.read_text())
        have = {(r["tail"], r["head"]) for r in records}
        pts = RunConfig(n=80, seed=1).load_points()
        added = [j for j in range(1, 80) if (0, j) not in have][:70]
        assert len(added) == 70
        records += [{"tail": 0, "head": j, "length": dist(pts[0], pts[j])} for j in added]
        loaded = tmp_path / "ty_extra.json"
        loaded.write_text(json.dumps(records))
        rep = tmp_path / "rep.json"
        code = run("verify", "--k", "30", "--n", "80", "--seed", "1", "--edges-ty", str(loaded), "--out", str(rep))
        assert code == 1
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["matches_construction_ty"]
        details = checks["matches_construction_ty"]["details"]
        assert (details["missing"], details["extra"]) == (0, 70)
        assert details["missing_witnesses"] == []
        assert details["extra_witnesses"] == [[0, j] for j in added[:5]]
        assert [name for name in checks if name.startswith("matches_construction_")] == ["matches_construction_ty"]

    def test_loaded_edges_compared_per_family(self, workspace):
        # only the families given an edge file are compared: files written
        # by build match their construction, and a Yao edge left out of the
        # file (one Yao-Yao does not keep) is reported missing
        tmp_path, pts = workspace
        files = {}
        for fam in ("yao", "yy", "oy"):
            files[fam] = tmp_path / f"{fam}.json"
            assert run("build", "--family", fam, "--k", "30", "--in", str(pts), "--out", str(files[fam])) == 0
        rep = tmp_path / "rep.json"
        edge_args = [arg for fam, f in files.items() for arg in (f"--edges-{fam}", str(f))]
        code = run("verify", "--k", "30", "--in", str(pts), "--suite", "subgraph", "--out", str(rep), *edge_args)
        assert code == 0
        checks = [c for c in json.loads(rep.read_text())["checks"] if c["name"].startswith("matches_construction_")]
        assert [c["name"] for c in checks] == [f"matches_construction_{fam}" for fam in files]
        assert all(c["passed"] and c["details"]["missing"] == c["details"]["extra"] == 0 for c in checks)

        yy = {(r["tail"], r["head"]) for r in json.loads(files["yy"].read_text())}
        records = json.loads(files["yao"].read_text())
        removed = next(r for r in records if (r["tail"], r["head"]) not in yy)
        records.remove(removed)
        files["yao"].write_text(json.dumps(records))
        code = run("verify", "--k", "30", "--in", str(pts), "--suite", "subgraph", "--out", str(rep), *edge_args)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["matches_construction_yao"]
        details = checks["matches_construction_yao"]["details"]
        assert (details["missing"], details["extra"], details["extra_witnesses"]) == (1, 0, [])
        assert details["missing_witnesses"] == [[removed["tail"], removed["head"]]]

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

    @pytest.mark.parametrize("source", ["tight_cluster", "translated"])
    def test_cancelling_placement_input_passes(self, source, tmp_path, capsys):
        # p - o loses its direction to cancellation on these inputs; the
        # descent took a frame's orientation back from it and exited 2
        if source == "tight_cluster":
            args = ["--kind", "clustered", "--n", "200", "--spread", "1e-7"]
        else:
            uniform = gen_points(GenSpec(GenKind.UNIFORM_SQUARE, 150, seed=1))
            write_points(tmp_path / "pts.csv", [Point(p.x + 1e6, p.y + 1e6) for p in uniform])
            args = ["--in", str(tmp_path / "pts.csv")]
        assert (run("verify", "--k", "30", *args), capsys.readouterr().err) == (0, "")

    def test_ratio_bound_reports_samples_outside_the_ratios_domain(self, monkeypatch):
        # a sample where ratio_oracle would raise fails its check with a witness
        def with_invalid_sample(wx, wy):
            ratio, valid = sector_ratios(wx, wy)
            valid[7] = False
            return ratio, valid

        sector_ratios = verify.sector_ratios
        cfg = RunConfig(k=30)
        passed = verify.check_ratio_bound(cfg, {})
        assert all(c.passed and c.details["invalid_witness"] is None for c in passed)
        monkeypatch.setattr(verify, "sector_ratios", with_invalid_sample)
        failed = verify.check_ratio_bound(cfg, {})
        assert not any(c.passed for c in failed)
        for ok, bad in zip(passed, failed):
            assert bad.details["invalid_witness"] is not None
            assert bad.details["max_ratio"] <= ok.details["max_ratio"]

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

    @pytest.mark.parametrize("suite", [",", " , "], ids=["comma", "blank"])
    def test_empty_suite_selection_config_error(self, workspace, suite, capsys):
        # a selection naming no suite would run no check and report a pass
        _, pts = workspace
        assert run("verify", "--k", "30", "--in", str(pts), "--suite", suite) == 2
        assert "no suite selected" in capsys.readouterr().err

    def test_sample_flags_are_unknown_arguments(self, workspace, capsys):
        # sector_cover and ratio_bound decide without sampling
        _, pts = workspace
        for flag in ("--sector-samples", "--ratio-samples"):
            assert run("verify", "--k", "30", "--in", str(pts), flag, "20000") == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_broken_cover_precondition_fails_sector_cover(self, workspace, monkeypatch, capsys):
        # the sampler raised GeometryError here, which exited 2 as a config error
        tmp_path, pts = workspace
        monkeypatch.setattr(verify, "gamma", lambda k: 2.0 * verify.theta(k) + 2.0 * math.pi / k)
        rep = tmp_path / "rep.json"
        assert run("verify", "--k", "30", "--in", str(pts), "--suite", "sector_cover", "--out", str(rep)) == 1
        assert "Traceback" not in capsys.readouterr().err
        [check] = json.loads(rep.read_text())["checks"]
        assert check["name"] == "sector_cover" and not check["passed"]
        assert check["details"] == {"theta": verify.theta(30), "gamma": 2.0 * verify.theta(30) + 2.0 * math.pi / 30}

    @pytest.mark.parametrize("k", [26, 30, 84])
    def test_sector_and_ratio_suites_pass_for_every_seed(self, k):
        def records(seed):
            cfg = RunConfig(k=k, seed=seed)
            return verify.check_sector_cover(cfg, {}) + verify.check_ratio_bound(cfg, {})

        checks = records(1)
        assert records(23000) == checks
        assert [c.name for c in checks] == [
            "sector_cover", "ratio_bound_pi_12", "ratio_bound_pi_6", "ratio_bound_pi_4", "ratio_bound_greedy",
        ]
        assert all(c.passed for c in checks)
        greedy = checks[-1].details
        assert greedy["alpha"] == math.pi / 4 + 2.0 * math.pi / k and greedy["bound"] == tau_bound(k)
        # the grid's maximum is the corner, which attains the bound
        assert greedy["max_ratio"] == max(greedy["corner_ratios"])

    @pytest.mark.parametrize("scale", [1.0 - 1e-6, 1.0 + 1e-6], ids=["bound_too_low", "corner_misses_bound"])
    def test_ratio_bound_greedy_fails_on_a_wrong_bound(self, scale, monkeypatch):
        monkeypatch.setattr(verify, "tau_bound", lambda k: scale * tau_bound(k))
        checks = {c.name: c.passed for c in verify.check_ratio_bound(RunConfig(k=30), {})}
        assert checks == {"ratio_bound_pi_12": True, "ratio_bound_pi_6": True, "ratio_bound_pi_4": True,
                          "ratio_bound_greedy": False}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_config_error(self, workspace, value, capsys, monkeypatch):
        # with nan, stretch_oy_bound failed at stretch 1.38 against 21.9 while
        # potential passed; with inf every tolerance-based check passed
        _, pts = workspace
        monkeypatch.setattr(verify, "_get_graphs", lambda *_: pytest.fail("graphs built before validation"))
        argv = ("verify", "--k", "30", "--in", str(pts), "--suite", "stretch_bounds,potential", f"--tolerance={value}")
        assert run(*argv) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["build", "stretch", "path"])
def test_oy_small_k_is_config_error(workspace, command, capsys):
    # the family rule is checked before any point is read or graph built
    tmp_path, pts = workspace
    out = tmp_path / "out.json"
    assert run(command, "--family", "oy", "--k", "20", "--in", str(pts), "--out", str(out)) == 2
    assert "family overlapping_yao requires k > 24, got k=20" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--out", "pts.csv"],
        ["build", "--family", "yao", "--k", "30", "--out", "e.json"],
        ["stretch", "--family", "ty", "--k", "30"],
        ["path", "--family", "oy", "--k", "30"],
        ["verify"],
    ],
)
def test_parser_defaults_are_run_config_defaults(argv):
    # every default a subcommand leaves unset is RunConfig's own
    assert _config_from_args(_build_parser().parse_args(argv)) == RunConfig()


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "conespan" in capsys.readouterr().out
