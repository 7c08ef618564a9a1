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

from conftest import CIRCLE_SIDES, regular_polygon, square, write_config_json
from rigidkit import __version__, remez
from rigidkit.cli import _candidate_grid, main


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

    def test_three_rings_short_of_the_planar_count(self, chain_path, capsys):
        # d = 3 has (3-1)^2 = 4 critical points to outnumber, so 3 rings are too few;
        # no option lowers that count (an ambient dimension of 1 once made it 3)
        argv = ["bounds", "--config", chain_path, "--degree", "3"]
        with pytest.raises(SystemExit):
            main(argv + ["--n", "1"])
        code, report = run_cli(argv, capsys)
        assert code == 0
        assert report["n"] == 2
        assert report["remez_topological"]["hypothesis_ok"] is False
        assert report["remez_topological"]["ovals_required"] == 5
        assert not any(e["hypothesis_ok"] for e in report["rigidity"]["bounds"])


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
        assert report["fz0"] == 1.0

    def test_zeros_outside_interval_exit2(self, capsys):
        # nodes off [-1, 1] would put the bound under the universal floor
        argv = ["rigidity-1d", "--zeros=-3,3", "--z0", "4", "--degree", "1"]
        expect_exit2(argv, capsys, "zeros and witness point must be finite and lie in [-1, 1]")


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

    def test_extra_degree_check(self, annulus_path, tmp_path, capsys):
        # x^4 - x^2 + y^4 - y^2 has 9 critical points, (d-1)^2 at its own degree 4
        poly = tmp_path / "quartic.json"
        terms = [([4, 0], 1.0), ([2, 0], -1.0), ([0, 4], 1.0), ([0, 2], -1.0)]
        poly.write_text(json.dumps({"nvars": 2, "terms": [{"exp": e, "coef": c} for e, c in terms]}))
        code, report = run_cli(["verify-proof", "--poly", str(poly), "--config", annulus_path, "--grid", "12"], capsys)
        assert code == 0
        assert report["critical_points"]["n_clusters"] == 9
        assert report["bezout"] == {"degree": 4, "bound": 9, "n_clusters": 9, "verdict": "consistent", "note": None}
        assert "bezout_at_degree" not in report


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
        {"config", "degree"},
    ),
    "rigidity": (
        ["rigidity", "--config", "{annulus}", "--degree", "1", "--grid", "8", "--samples-per-oval", "16"],
        ["annulus"],
        {"config", "degree", "grid", "samples_per_oval"},
    ),
    "rigidity-1d": (
        ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2"],
        [],
        {"zeros", "z0", "degree"},
    ),
    "curve-check": (
        ["curve-check", "--f", "{fxy}", "--points", "{curve}", "--s", "2", "--degree", "3", "--tgrid", "64"],
        ["fxy", "curve"],
        {"f", "points", "s", "degree", "tgrid", "config"},
    ),
    "curve-check-config": (
        [
            "curve-check", "--f", "{fxy}", "--points", "{curve}", "--s", "2", "--degree", "3",
            "--tgrid", "64", "--config", "{annulus}",
        ],
        ["fxy", "curve", "annulus"],
        {"f", "points", "s", "degree", "tgrid", "config"},
    ),
    "boxdim": (
        ["boxdim", "--points", "{grid}", "--scales", "0.25,0.125,0.0625", "--degree", "1"],
        ["grid"],
        {"points", "scales", "degree"},
    ),
    "verify-proof": (
        ["verify-proof", "--poly", "{fxy}", "--config", "{annulus}", "--grid", "8"],
        ["fxy", "annulus"],
        {"poly", "config", "grid"},
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

    @pytest.mark.parametrize(
        "name, content, argv, fragment",
        [
            ("c.json", b'{"ovals": [\xff]}', ["decompose", "--config"], "malformed JSON in"),
            ("p.csv", b"0.1,0.2\n\xff\n", ["boxdim", "--scales", "0.5,0.25", "--degree", "1", "--points"],
             "malformed point in"),
        ],
        ids=["json", "csv"],
    )
    def test_undecodable_input_exit2(self, name, content, argv, fragment, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(content)
        expect_exit2(argv + [str(path)], capsys, f"{fragment} {path}: 'utf-8' codec can't decode byte 0xff")

    def test_deeply_nested_json_exit2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"ovals": ' + "[" * 100_000 + "]" * 100_000 + "}")
        expect_exit2(["decompose", "--config", str(deep)], capsys, f"malformed JSON in {deep}: maximum recursion depth")

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
        expect_exit2(argv, capsys, "zeros and witness point must be finite and lie in [-1, 1]")

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
        "argv",
        [
            ["decompose"],
            ["bounds", "--degree", "2"],
            ["rigidity", "--degree", "2"],
            ["verify-proof"],
            ["curve-check", "--s", "2", "--degree", "3"],
        ],
    )
    def test_empty_configuration_exit2(self, argv, tmp_path, fxy_path, curve_points_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"ovals": []}')
        if argv[0] == "verify-proof":
            argv = argv + ["--poly", fxy_path]
        if argv[0] == "curve-check":
            argv = argv + ["--f", fxy_path, "--points", curve_points_path]
        code = main(argv + ["--config", str(empty)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: configuration has no domains\n"

    def test_empty_configuration_remez_lp_exit2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"ovals": []}')
        code = main(["remez-lp", "--z", str(empty), "--degree", "2"])
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

    def test_tiny_zero_gaps_exit3(self, capsys):
        # each gap is 1e-200: the quotient overflows to inf, while their product would round to 0
        code = main(["rigidity-1d", "--zeros=0,1e-200,3e-200", "--z0", "2e-200", "--degree", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
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

    @pytest.mark.parametrize(
        "oval_id, fragment",
        [
            ("Infinity", "malformed oval entry: cannot convert float infinity to integer"),
            ("NaN", "malformed oval entry: cannot convert float NaN to integer"),
            ("1.5", "oval id must be an integer, got 1.5"),
        ],
    )
    def test_bad_oval_id_exit2(self, oval_id, fragment, tmp_path, capsys):
        # 1.5 must not truncate to 1 and then clash with the second oval's id
        cfg = tmp_path / "c.json"
        outer = "[[0.9, 0.0], [0.0, 0.9], [-0.9, 0.0], [0.0, -0.9]]"
        inner = "[[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]]"
        cfg.write_text('{"ovals": [{"id": %s, "vertices": %s}, {"id": 1, "vertices": %s}]}' % (oval_id, outer, inner))
        expect_exit2(["decompose", "--config", str(cfg)], capsys, fragment)

    def test_integral_float_oval_id_reads_as_int(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ovals": [{"id": 2.0, "vertices": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]]}]}')
        code, report = run_cli(["decompose", "--config", str(cfg)], capsys)
        assert code == 0
        assert report["forest"] == {"2": {"children": [], "depth": 1, "parent": None}}
        assert report["domains"][0]["outer"] == 2

    def test_bounds_zero_dimension_exit2(self, tmp_path, capsys):
        # the dimension comes from the vertices, and zero-dimensional ones fail validation
        cfg = tmp_path / "c.json"
        cfg.write_text('{"ovals": [{"id": 1, "vertices": [[], [], []]}]}')
        expect_exit2(["bounds", "--config", str(cfg), "--degree", "2"], capsys, "vertices must be an (k, 2) array")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--config", "{annulus}", "--degree", "3", "--n", "1"],
            ["verify-proof", "--poly", "{fxy}", "--config", "{annulus}", "--grid", "8", "--degree", "3"],
            ["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--z0", "0.9", "--degree", "2", "--fz0", "0.01"],
            ["verify-proof", "--poly", "{fxy}", "--config", "{annulus}", "--grid", "8", "--eps", "0.3"],
            ["curve-check", "--f", "{fxy}", "--points", "{curve}", "--s", "2", "--degree", "3", "--tol", "1"],
        ],
        ids=["bounds-n", "verify-proof-degree", "rigidity-1d-fz0", "verify-proof-eps", "curve-check-tol"],
    )
    def test_deleted_option_systemexit2(self, argv, annulus_path, fxy_path, curve_points_path, capsys):
        # the input fixes the plane, the polynomial's degree and |f(z0)| = 1; the
        # tilt and the crossing merge distance are fixed by the Newton and
        # chord resolutions they must agree with
        with pytest.raises(SystemExit) as exc:
            main([arg.format(annulus=annulus_path, fxy=fxy_path, curve=curve_points_path) for arg in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exit2(self, flag, annulus_path, capsys):
        argv = ["decompose", "--config", annulus_path, flag, "/nonexistent/x.out"]
        expect_exit2(argv, capsys, "cannot write output file /nonexistent/x.out")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("argv", [["rigidity-1d", "--zeros=-0.8,-0.2,0.5", "--degree", "2", "--z0"]])
    def test_non_finite_float_flag_systemexit2(self, argv, value, capsys):
        argv = argv[:-1] + [f"{argv[-1]}={value}"]
        if value == "abc":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"invalid float value: '{value}'" in capsys.readouterr().err
        else:
            expect_exit2(argv, capsys, "zeros and witness point must be finite and lie in [-1, 1]")

    def test_unknown_subcommand_systemexit2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_lp_solver_failure_exit3(self, halfline_path, monkeypatch, capsys):
        monkeypatch.setattr(remez, "_PIVOT_CAP", 0)  # the cubic needs at least one pivot
        code = main(["remez-lp", "--degree", "3", "--z", halfline_path, "--grid", "64"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "solver error: LP solver reached no optimal basis within 0 pivots\n"


# Runs in a fresh interpreter where importing scipy fails, so a run that needs
# it ends with an error instead of loading it.
_NO_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
import rigidkit.cli
from rigidkit.cli import main
print(json.dumps([(argv[0], main(argv)) for argv in json.loads(sys.argv[1])]))
"""


class TestNoScipy:
    def test_no_subcommand_loads_scipy(
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
            ["rigidity", "--config", annulus_path, "--degree", "2", "--grid", "8", "--samples-per-oval", "16"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_PROBE, json.dumps([r + ["--out", out] for r in runs])],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert [tuple(step) for step in json.loads(proc.stdout)] == [(r[0], 0) for r in runs]


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
