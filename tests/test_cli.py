import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CIRCLE_SIDES, square, write_config_json
from rigidkit import __version__
from rigidkit.cli import _candidate_grid, main
from rigidkit.geometry import regular_polygon


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def expect_exit2(argv, capsys, fragment):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and fragment in err


@pytest.fixture
def annulus_path(tmp_path):
    s = math.sqrt(2.0) / 2.0
    config = [square(2.0 * s, 1), square(1.0, 2)]
    path = tmp_path / "annulus.json"
    write_config_json(config, path)
    return str(path)


@pytest.fixture
def chain_path(tmp_path):
    config = [
        regular_polygon((0.0, 0.0), r, CIRCLE_SIDES, i + 1)
        for i, r in enumerate((0.9, 0.6, 0.3))
    ]
    path = tmp_path / "chain.json"
    write_config_json(config, path)
    return str(path)


@pytest.fixture
def fxy_path(tmp_path):
    data = {"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": 1.0}]}
    path = tmp_path / "fxy.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def halfline_path(tmp_path):
    ts = np.linspace(-1.0, 0.0, 512)
    path = tmp_path / "halfline.csv"
    path.write_text("\n".join(f"{t:.12f}" for t in ts))
    return str(path)


@pytest.fixture
def curve_points_path(tmp_path):
    path = tmp_path / "pts3.csv"
    path.write_text("-0.3,0.2\n0.0,-0.1\n0.3,0.2\n")
    return str(path)


@pytest.fixture
def grid_points_path(tmp_path):
    mids = (np.arange(32) + 0.5) / 32.0
    xs, ys = np.meshgrid(mids, mids, indexing="ij")
    path = tmp_path / "grid.csv"
    path.write_text(
        "\n".join(f"{x:.10f},{y:.10f}" for x, y in zip(xs.ravel(), ys.ravel()))
    )
    return str(path)


class TestDecompose:
    def test_annulus_report(self, annulus_path, capsys):
        code, report = run_cli(["decompose", "--config", annulus_path], capsys)
        assert code == 0
        assert report["mu"] == pytest.approx(1.0, rel=1e-9)
        assert len(report["domains"]) == 2
        assert report["forest"]["1"]["depth"] == 1
        assert report["forest"]["2"]["parent"] == 1
        assert report["manifest"]["subcommand"] == "decompose"
        assert report["manifest"]["inputs"][annulus_path].startswith("sha256:")

    def test_out_file(self, annulus_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout_report = run_cli(
            ["decompose", "--config", annulus_path, "--out", str(out)], capsys
        )
        assert code == 0
        assert stdout_report is None
        assert json.loads(out.read_text())["mu"] == pytest.approx(1.0)

    def test_svg_one_evenodd_path_per_domain(self, annulus_path, chain_path, tmp_path, capsys):
        svg2 = tmp_path / "annulus.svg"
        code, report = run_cli(
            ["decompose", "--config", annulus_path, "--svg", str(svg2)], capsys
        )
        assert code == 0 and report["svg"] == str(svg2)
        assert svg2.read_text().count('fill-rule="evenodd"') == 2

        svg3 = tmp_path / "chain.svg"
        code, _ = run_cli(["decompose", "--config", chain_path, "--svg", str(svg3)], capsys)
        assert code == 0
        assert svg3.read_text().count('fill-rule="evenodd"') == 3


class TestBounds:
    def test_degree2_annulus(self, annulus_path, capsys):
        code, report = run_cli(
            ["bounds", "--config", annulus_path, "--degree", "2"], capsys
        )
        assert code == 0
        assert report["mu"] == pytest.approx(1.0)
        # (4n/mu)^d with n=2, d=2
        assert report["remez_topological"]["value"] == pytest.approx(64.0)
        assert report["remez_topological"]["hypothesis_ok"] is True
        entries = {e["formula"]: e for e in report["rigidity"]["bounds"]}
        assert "topological_literal" in entries and "topological_composed" in entries

    def test_hypothesis_flag_off_when_too_few_ovals(self, annulus_path, capsys):
        code, report = run_cli(
            ["bounds", "--config", annulus_path, "--degree", "6"], capsys
        )
        assert code == 0
        assert report["remez_topological"]["hypothesis_ok"] is False
        assert report["remez_topological"]["ovals_required"] == 26


class TestRemezLP:
    def test_candidate_grid_keeps_every_1d_point(self):
        assert np.array_equal(_candidate_grid(1, 7), np.linspace(-1.0, 1.0, 7).reshape(-1, 1))

    def test_halfline_degree2(self, halfline_path, capsys):
        code, report = run_cli(
            ["remez-lp", "--degree", "2", "--z", halfline_path, "--grid", "1024"], capsys
        )
        assert code == 0
        assert not report["infinite"]
        assert report["value"] == pytest.approx(17.0, rel=0.05)
        assert report["inverse"] == pytest.approx(1.0 / report["value"])

    def test_config_input(self, annulus_path, capsys):
        code, report = run_cli(
            [
                "remez-lp", "--degree", "1", "--z", annulus_path,
                "--grid", "16", "--samples-per-oval", "32",
            ],
            capsys,
        )
        assert code == 0
        assert not report["infinite"]
        assert report["value"] >= 1.0 - 1e-9


class TestRigidityPipeline:
    def test_annulus_smoke(self, annulus_path, capsys):
        code, report = run_cli(
            [
                "rigidity", "--config", annulus_path, "--degree", "1",
                "--grid", "16", "--samples-per-oval", "32",
            ],
            capsys,
        )
        assert code == 0
        assert not report["remez_estimate"]["infinite"]
        inv = report["remez_estimate"]["inverse"]
        assert 0.0 < inv <= 1.0 + 1e-9
        entries = {e["formula"]: e for e in report["rigidity"]["bounds"]}
        assert entries["from_remez"]["value"] == pytest.approx(inv, rel=1e-9)


class TestRigidity1D:
    def test_equals_syntax_for_negative_zeros(self, capsys):
        code, report = run_cli(
            ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
            capsys,
        )
        assert code == 0
        expected = 6.0 / (1.7 * 1.1 * 0.4)
        assert report["bound"] == pytest.approx(expected, rel=1e-12)
        assert report["universal_floor"] == pytest.approx(0.75)
        assert report["bound"] >= report["universal_floor"]


class TestCurveCheck:
    def test_smoke(self, fxy_path, curve_points_path, capsys):
        code, report = run_cli(
            [
                "curve-check", "--f", fxy_path, "--points", curve_points_path,
                "--s", "2", "--degree", "3", "--tgrid", "128",
            ],
            capsys,
        )
        assert code == 0
        assert report["curve"]["s"] == 2
        assert report["composition"]["degree"] == 3
        assert report["crossings"] is None

    def test_with_crossings(self, fxy_path, curve_points_path, annulus_path, capsys):
        code, report = run_cli(
            [
                "curve-check", "--f", fxy_path, "--points", curve_points_path,
                "--s", "2", "--degree", "3", "--tgrid", "128",
                "--config", annulus_path,
            ],
            capsys,
        )
        assert code == 0
        assert isinstance(report["crossings"], int) and report["crossings"] >= 0


class TestBoxdim:
    def test_midpoint_grid_plane(self, grid_points_path, capsys):
        code, report = run_cli(
            [
                "boxdim", "--points", grid_points_path,
                "--scales", "0.25,0.125,0.0625", "--degree", "1",
            ],
            capsys,
        )
        assert code == 0
        assert report["fit"]["slope"] == pytest.approx(2.0, abs=1e-9)
        assert report["fit"]["counts"] == [16, 64, 256]
        assert report["threshold"]["exceeded"] is True
        assert "rigid" in report["threshold"]["verdict"]


class TestVerifyProof:
    def test_fxy_on_annulus(self, fxy_path, annulus_path, capsys):
        code, report = run_cli(
            [
                "verify-proof", "--poly", fxy_path, "--config", annulus_path,
                "--grid", "12",
            ],
            capsys,
        )
        assert code == 0
        assert report["critical_points"]["n_clusters"] == 1
        assert report["bezout"]["verdict"] == "consistent"
        # the lone critical point sits in the inner square's domain
        assert report["assignments"] == [2]
        assert len(report["domains"]) == 2
        assert report["confinement_violations"] == []

    def test_extra_degree_check(self, fxy_path, annulus_path, capsys):
        code, report = run_cli(
            [
                "verify-proof", "--poly", fxy_path, "--config", annulus_path,
                "--grid", "12", "--degree", "5",
            ],
            capsys,
        )
        assert code == 0
        assert report["bezout_at_degree"]["bound"] == 16


_MANIFEST_CASES = {
    # case: (argv with file placeholders, placeholders named in inputs, parameter keys)
    "decompose": (
        ["decompose", "--config", "{annulus}"],
        ["annulus"],
        {"config", "svg"},
    ),
    "remez-lp": (
        ["remez-lp", "--degree", "2", "--z", "{halfline}", "--grid", "16"],
        ["halfline"],
        {"degree", "z", "grid", "samples_per_oval"},
    ),
    "bounds": (
        ["bounds", "--config", "{annulus}", "--degree", "2"],
        ["annulus"],
        {"config", "degree", "n"},
    ),
    "rigidity": (
        ["rigidity", "--config", "{annulus}", "--degree", "1", "--grid", "8", "--samples-per-oval", "16"],
        ["annulus"],
        {"config", "degree", "grid", "samples_per_oval"},
    ),
    "rigidity-1d": (
        ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
        [],
        {"zeros", "z0", "fz0", "degree"},
    ),
    "curve-check": (
        ["curve-check", "--f", "{fxy}", "--points", "{curve}", "--s", "2", "--degree", "3", "--tgrid", "64"],
        ["fxy", "curve"],
        {"f", "points", "s", "degree", "tgrid", "config", "tol"},
    ),
    "curve-check-config": (
        [
            "curve-check", "--f", "{fxy}", "--points", "{curve}", "--s", "2", "--degree", "3",
            "--tgrid", "64", "--config", "{annulus}",
        ],
        ["fxy", "curve", "annulus"],
        {"f", "points", "s", "degree", "tgrid", "config", "tol"},
    ),
    "boxdim": (
        ["boxdim", "--points", "{grid}", "--scales", "0.25,0.125,0.0625", "--degree", "1"],
        ["grid"],
        {"points", "scales", "degree"},
    ),
    "verify-proof": (
        ["verify-proof", "--poly", "{fxy}", "--config", "{annulus}", "--grid", "8"],
        ["fxy", "annulus"],
        {"poly", "config", "degree", "grid", "eps"},
    ),
}


class TestManifest:
    @pytest.mark.parametrize("case", sorted(_MANIFEST_CASES))
    def test_inputs_are_exactly_the_files_passed(
        self, case, annulus_path, halfline_path, fxy_path, curve_points_path, grid_points_path, capsys
    ):
        paths = {
            "annulus": annulus_path, "halfline": halfline_path, "fxy": fxy_path,
            "curve": curve_points_path, "grid": grid_points_path,
        }
        template, named, keys = _MANIFEST_CASES[case]
        code, report = run_cli([arg.format(**paths) for arg in template], capsys)
        assert code == 0
        manifest = report["manifest"]
        assert manifest["subcommand"] == template[0]
        assert manifest["inputs"] == {
            paths[name]: "sha256:" + hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
            for name in named
        }
        assert set(manifest["parameters"]) == keys | {"out", "subcommand"}
        assert manifest["version"] == __version__
        assert set(manifest) == {"subcommand", "parameters", "inputs", "version", "timestamp"}


class TestDeterminism:
    def test_decompose_reports_identical(self, annulus_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        bodies = []
        for _run in range(2):
            code, _ = run_cli(
                ["decompose", "--config", annulus_path, "--out", str(out)], capsys
            )
            assert code == 0
            body = json.loads(out.read_text())
            body["manifest"].pop("timestamp")
            bodies.append(body)
        assert bodies[0] == bodies[1]

    def test_remez_lp_reports_identical(self, halfline_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        bodies = []
        for _run in range(2):
            code, _ = run_cli(
                [
                    "remez-lp", "--degree", "2", "--z", halfline_path,
                    "--grid", "256", "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            body = json.loads(out.read_text())
            body["manifest"].pop("timestamp")
            bodies.append(body)
        assert bodies[0] == bodies[1]


class TestErrorPaths:
    def test_missing_file_exit2(self, capsys):
        code, _ = run_cli(["decompose", "--config", "/nonexistent/cfg.json"], capsys)
        assert code == 2

    def test_malformed_json_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run_cli(["decompose", "--config", str(bad)], capsys)
        assert code == 2

    def test_increasing_scales_exit2(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0.1,0.1\n0.2,0.3\n0.4,0.2\n")
        code, _ = run_cli(
            ["boxdim", "--points", str(pts), "--scales", "0.1,0.2,0.3", "--degree", "1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scale_exit2(self, value, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0.1,0.1\n0.2,0.3\n0.4,0.2\n")
        argv = ["boxdim", "--points", str(pts), f"--scales={value},0.5,0.25", "--degree", "1"]
        expect_exit2(argv, capsys, "scales must be finite, positive and strictly decreasing")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_zero_exit2(self, value, capsys):
        argv = ["rigidity-1d", f"--zeros={value},0.1,0.2", "--z0", "0.9", "--degree", "2"]
        expect_exit2(argv, capsys, "zeros, witness point and witness value must be finite")

    def test_scale_past_int64_cells_exit2(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0.1,0.2\n0.3,0.4\n-0.5,0.6\n0.7,-0.8\n")
        argv = ["boxdim", "--points", str(pts), "--scales", "0.5,1e-10,1e-25", "--degree", "1"]
        expect_exit2(argv, capsys, "scale 1e-25 is too fine for int64 cell indices")

    @pytest.mark.parametrize(
        "half, argv",
        [
            (1e-9, ["bounds", "--degree", "18"]),
            (1e-9, ["rigidity", "--degree", "18"]),
            (0.01, ["bounds", "--degree", "100"]),
        ],
    )
    def test_overflowing_bound_exit2(self, half, argv, tmp_path, capsys):
        # (4n/mu)^d passes the largest double: mu is 4e-18 at half-side 1e-9 and 4e-4 at 0.01
        path = tmp_path / "tiny.json"
        write_config_json([square(2.0 * half, 1)], path)
        expect_exit2(argv + ["--config", str(path)], capsys, "overflows a double")

    def test_overlapping_ovals_exit2(self, tmp_path, capsys):
        config = [square(1.0, 1), square(1.0, 2, center=(0.5, 0.0))]
        path = tmp_path / "crossing.json"
        write_config_json(config, path)
        code, _ = run_cli(["decompose", "--config", str(path)], capsys)
        assert code == 2

    def test_ovals_not_a_list_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ovals": 5}')
        expect_exit2(["decompose", "--config", str(bad)], capsys, "'ovals' must be a list")

    @pytest.mark.parametrize(
        "argv", [["decompose"], ["bounds", "--degree", "2"], ["rigidity", "--degree", "2"], ["verify-proof"]]
    )
    def test_empty_configuration_exit2(self, argv, tmp_path, fxy_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"ovals": []}')
        if argv[0] == "verify-proof":
            argv = argv + ["--poly", fxy_path]
        code = main(argv + ["--config", str(empty)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: configuration has no domains\n"

    def test_empty_configuration_svg_exit2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"ovals": []}')
        svg = tmp_path / "empty.svg"
        expect_exit2(["decompose", "--config", str(empty), "--svg", str(svg)], capsys, "no domains")
        assert not svg.exists()

    def test_huge_newton_grid_exit2(self, fxy_path, annulus_path, capsys):
        argv = ["verify-proof", "--poly", fxy_path, "--config", annulus_path, "--grid", "1000000"]
        expect_exit2(argv, capsys, "lattice of 1000000 points per axis in 2D exceeds 16777216 points")

    @pytest.mark.parametrize("grid, fixture", [("1000000000000", "halfline_path"), ("4097", "annulus_path")])
    def test_huge_candidate_grid_exit2(self, grid, fixture, request, capsys):
        argv = ["remez-lp", "--degree", "2", "--z", request.getfixturevalue(fixture), "--grid", grid]
        expect_exit2(argv, capsys, f"lattice of {grid} points per axis")

    def test_huge_tgrid_exit2(self, fxy_path, curve_points_path, capsys):
        argv = ["curve-check", "--f", fxy_path, "--points", curve_points_path, "--s", "2", "--degree", "3"]
        huge = "100000000000000000000"
        expect_exit2(argv + ["--tgrid", huge], capsys, f"lattice of {huge} points per axis in 1D exceeds 16777216 points")

    @pytest.mark.parametrize("subcommand, flag", [("remez-lp", "--z"), ("rigidity", "--config")])
    def test_huge_samples_per_oval_exit2(self, subcommand, flag, annulus_path, capsys):
        huge = "100000000000000000000"
        argv = [subcommand, "--degree", "2", flag, annulus_path, "--grid", "8", "--samples-per-oval", huge]
        expect_exit2(argv, capsys, f"boundary sample count must be in 1..16777216, got {huge}")

    @pytest.mark.parametrize(
        "poly",
        ['{"nvars": "x", "terms": []}', '{"nvars": 2, "terms": [{"exp": ["a", 0], "coef": 1.0}]}'],
    )
    def test_malformed_polynomial_exit2(self, poly, tmp_path, capsys, annulus_path):
        path = tmp_path / "p.json"
        path.write_text(poly)
        argv = ["verify-proof", "--poly", str(path), "--config", annulus_path]
        expect_exit2(argv, capsys, "malformed polynomial JSON")

    @pytest.mark.parametrize("coef", ["NaN", "Infinity"])
    def test_non_finite_coefficient_exit2(self, coef, tmp_path, capsys, annulus_path):
        path = tmp_path / "p.json"
        path.write_text('{"nvars": 2, "terms": [{"exp": [2, 0], "coef": %s}]}' % coef)
        argv = ["verify-proof", "--poly", str(path), "--config", annulus_path]
        expect_exit2(argv, capsys, "non-finite coefficient")

    def test_duplicate_exponent_exit2(self, tmp_path, capsys, annulus_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"nvars": 2, "terms": [{"exp": [2, 0], "coef": 1.0}, {"exp": [2, 0], "coef": 2.0}]}'
        )
        argv = ["verify-proof", "--poly", str(path), "--config", annulus_path]
        expect_exit2(argv, capsys, "duplicate exponent [2, 0]")

    @pytest.mark.parametrize(
        "exp, fragment",
        [("[1.5, 0]", "non-integral exponent in [1.5, 0]"), ("[99999999999999999999, 0]", "does not fit int64")],
    )
    def test_bad_exponent_exit2(self, exp, fragment, tmp_path, capsys, annulus_path):
        path = tmp_path / "p.json"
        path.write_text('{"nvars": 2, "terms": [{"exp": %s, "coef": 1.0}]}' % exp)
        argv = ["verify-proof", "--poly", str(path), "--config", annulus_path]
        expect_exit2(argv, capsys, fragment)

    def test_negative_crossing_tolerance_exit2(self, fxy_path, annulus_path, tmp_path, capsys):
        diagonal = tmp_path / "diagonal.csv"
        diagonal.write_text("-0.4,-0.4\n0.4,0.4\n")
        argv = [
            "curve-check", "--f", fxy_path, "--points", str(diagonal), "--s", "1", "--degree", "1",
            "--config", annulus_path,
        ]
        code, report = run_cli(argv + ["--tol=0"], capsys)
        assert code == 0 and report["crossings"] == 2
        expect_exit2(argv + ["--tol=-1"], capsys, "crossing tolerance must be >= 0, got -1.0")

    def test_non_finite_report_value_exit3(self, curve_points_path, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"nvars": 2, "terms": [{"exp": [3, 0], "coef": 1e308}, {"exp": [0, 3], "coef": 1e308}]}')
        out = tmp_path / "report.json"
        argv = ["curve-check", "--f", str(huge), "--points", curve_points_path, "--s", "2", "--degree", "3"]
        with np.errstate(all="ignore"):
            code = main(argv + ["--tgrid", "8", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("solver error: report has a non-finite number: ")

    def test_bounds_negative_degree_exit2(self, annulus_path, capsys):
        argv = ["bounds", "--config", annulus_path, "--degree", "-1"]
        expect_exit2(argv, capsys, "degree must be >= 0, got -1")

    def test_curve_check_negative_degree_exit2(self, fxy_path, curve_points_path, capsys):
        argv = ["curve-check", "--f", fxy_path, "--points", curve_points_path, "--s", "2", "--degree", "-1"]
        expect_exit2(argv, capsys, "derivative order must be >= 0, got -1")

    def test_candidate_grid_outside_ball_exit2(self, annulus_path, capsys):
        argv = ["remez-lp", "--degree", "1", "--z", annulus_path, "--grid", "2"]
        expect_exit2(argv, capsys, "no point of the 2-per-axis candidate grid lies in the unit ball")

    def test_nan_point_exit2(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("-0.5\nnan\n0.5\n")
        argv = ["remez-lp", "--degree", "1", "--z", str(pts), "--grid", "8"]
        expect_exit2(argv, capsys, f"non-finite coordinate in {pts} line 2")

    def test_nan_vertex_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ovals": [{"id": 1, "vertices": [[0.5, 0.0], [0.0, 0.5], [-0.5, NaN]]}]}')
        expect_exit2(["decompose", "--config", str(cfg)], capsys, "oval 1 has non-finite vertex")

    def test_bounds_zero_dimension_exit2(self, annulus_path, capsys):
        argv = ["bounds", "--config", annulus_path, "--degree", "2", "--n", "0"]
        expect_exit2(argv, capsys, "ambient dimension must be >= 1, got 0")

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exit2(self, flag, annulus_path, capsys):
        argv = ["decompose", "--config", annulus_path, flag, "/nonexistent/x.out"]
        expect_exit2(argv, capsys, "cannot write output file /nonexistent/x.out")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--degree", "2", "--z0"],
            ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--degree", "2", "--z0", "0.9", "--fz0"],
            ["curve-check", "--f", "f.json", "--points", "p.csv", "--s", "2", "--degree", "1", "--tol"],
            ["verify-proof", "--poly", "p.json", "--config", "c.json", "--eps"],
        ],
    )
    def test_non_finite_float_flag_systemexit2(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv[:-1] + [f"{argv[-1]}={value}"])
        assert exc.value.code == 2
        assert f"invalid finite float value: '{value}'" in capsys.readouterr().err

    def test_unknown_subcommand_systemexit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_lp_solver_failure_exit3(self, halfline_path, monkeypatch, capsys):
        import scipy.optimize

        failed = scipy.optimize.OptimizeResult(status=4, message="numerical difficulties", nit=0)
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: failed)
        code = main(["remez-lp", "--degree", "2", "--z", halfline_path, "--grid", "64"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "solver error: LP solver failed with status 4: numerical difficulties\n"
        )


# Runs in a fresh interpreter: the test process has long since loaded scipy.
_SCIPY_PROBE = """
import json, sys
import rigidkit
loaded = [("import rigidkit", 0, "scipy.optimize" in sys.modules)]
from rigidkit.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    loaded.append((argv[0], code, "scipy.optimize" in sys.modules))
print(json.dumps(loaded))
"""


class TestLazyScipy:
    def test_only_lp_subcommands_load_scipy(
        self, annulus_path, fxy_path, curve_points_path, grid_points_path,
        halfline_path, tmp_path,
    ):
        out = str(tmp_path / "report.json")
        runs = [
            ["decompose", "--config", annulus_path],
            ["bounds", "--config", annulus_path, "--degree", "2"],
            ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
            [
                "curve-check", "--f", fxy_path, "--points", curve_points_path,
                "--s", "2", "--degree", "3", "--tgrid", "128", "--config", annulus_path,
            ],
            [
                "boxdim", "--points", grid_points_path,
                "--scales", "0.25,0.125,0.0625", "--degree", "1",
            ],
            ["verify-proof", "--poly", fxy_path, "--config", annulus_path, "--grid", "12"],
            ["remez-lp", "--degree", "2", "--z", halfline_path, "--grid", "64"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps([r + ["--out", out] for r in runs])],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = [tuple(step) for step in json.loads(proc.stdout)]
        assert loaded == [
            ("import rigidkit", 0, False),
            ("decompose", 0, False),
            ("bounds", 0, False),
            ("rigidity-1d", 0, False),
            ("curve-check", 0, False),
            ("boxdim", 0, False),
            ("verify-proof", 0, False),
            ("remez-lp", 0, True),
        ]


class TestConsoleScript:
    def test_installed_entry_point(self, annulus_path):
        exe = shutil.which("rigidkit")
        assert exe is not None, "console script not on PATH; install with pip install -e ."
        ver = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert ver.returncode == 0
        assert __version__ in ver.stdout
        run = subprocess.run(
            [exe, "decompose", "--config", annulus_path], capture_output=True, text=True
        )
        assert run.returncode == 0
        assert json.loads(run.stdout)["mu"] == pytest.approx(1.0)
