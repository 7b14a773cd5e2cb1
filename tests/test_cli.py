import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from shiftdet import cli, experiments
from shiftdet.determinants import DetResult
from shiftdet.experiments import ComparisonRow, SweepRow
from shiftdet.rhp import NearIntervalWarning

SWEEP_HEADER = "x,ratio_re,ratio_im,limit_re,limit_im,err,conv_delta"
MVSM0_HEADER = "x,err,det_m_re,det_m_im,det_m0_re,det_m0_im,conv_delta"


def load_schema(name):
    blob = (resources.files("shiftdet") / "schemas" / name).read_text()
    return json.loads(blob)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_strict_json(path):
    # json.load accepts Infinity and NaN, which are not JSON numbers
    def reject(token):
        raise ValueError(f"{path} holds the non-finite number {token}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def cfg_path(config_dir, name):
    return os.path.join(config_dir, name)


DROP = object()   # a patch value that removes its key


def write_config(tmp_path, base, **patch):
    blob = read_json(base)
    for dotted, value in patch.items():
        target = blob
        *parents, leaf = dotted.split(".")
        for key in parents:
            target = target.setdefault(key, {})
        if value is DROP:
            del target[leaf]
        else:
            target[leaf] = value
    out = tmp_path / "patched.json"
    out.write_text(json.dumps(blob), encoding="utf-8")
    return str(out)


class TestVerifyCommand:
    def test_trivial_passes(self, tmp_path, config_dir, capsys):
        rc = cli.main(["verify", cfg_path(config_dir, "trivial.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3
        report = read_json(tmp_path / "identity_report.json")
        jsonschema.validate(report, load_schema("identity_report.schema.json"))
        assert report["ok"] is True

    def test_strict_line_standard(self, tmp_path, config_dir):
        rc = cli.main(["verify", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path), "--strict-line"])
        assert rc == 0
        report = read_json(tmp_path / "identity_report.json")
        assert report["strict_line"] is True
        assert report["residuals"]["r3"] < 1e-4

    def test_manifest_contents(self, tmp_path, config_dir):
        config = cfg_path(config_dir, "trivial.json")
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "run_manifest.json")
        jsonschema.validate(manifest, load_schema("run_manifest.schema.json"))
        with open(config, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert manifest["config_sha256"] == digest
        assert manifest["command"] == "verify"
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()
        assert "run_manifest.json" in manifest["outputs"]

    def test_failed_tolerance_exits_one(self, tmp_path, config_dir, capsys):
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              **{"tolerances.r1": 1e-20})
        rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_certification_on_each_line(self, tmp_path, config_dir, capsys):
        # a coarse line rule: r3 = 3.7e-9 passes its 5e-5 tolerance, but the
        # line determinant's half-resolution delta (1.1e-5) is not 10x below
        # it, so r3 is uncertified while r1 and r2 stay certified
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              **{"numerics.m_line": 32,
                                 "tolerances.r3": 5e-5})
        rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("r1 = ")
        assert lines[0].endswith("[PASS] certified")
        assert lines[1].startswith("r2 = ")
        assert lines[1].endswith("[PASS] certified")
        assert lines[2].startswith("r3 = ")
        assert lines[2].endswith("[PASS] uncertified (advisory)")
        report = read_json(tmp_path / "identity_report.json")
        assert report["certified"] == {"r1": True, "r2": True, "r3": False}
        assert report["ok"] is True

    def test_overflowing_determinant_exits_three(self, tmp_path, config_dir,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "det", lambda D: np.inf)
        rc = cli.main(["verify", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert ("det(I + V~) overflows float64 at n=104, x=50"
                in capsys.readouterr().err)

    def test_report_is_deterministic(self, tmp_path, config_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        config = cfg_path(config_dir, "standard.json")
        assert cli.main(["verify", config, "--out", str(a)]) == 0
        assert cli.main(["verify", config, "--out", str(b)]) == 0
        assert (a / "identity_report.json").read_bytes() \
            == (b / "identity_report.json").read_bytes()


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["verify", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_unparseable_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = cli.main(["verify", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_strip_violation(self, tmp_path, config_dir, capsys):
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              **{"numerics.h": 0.9})
        rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "strip" in err

    def test_narrow_shift_table_without_h_runs(self, tmp_path, config_dir,
                                               capsys):
        # c = 1 with shifts -+0.4: the default h is 0.1, inside the strip
        # |Im z| < 0.2 of the table; read from c it was 0.25 and exited 2
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              shifts={"gamma": [1.0, 1.0], "c": [-0.4, 0.4],
                                      "v": [1, 2]})
        # the loop at Im z = +-0.1 lies in the interval's near zone
        with pytest.warns(NearIntervalWarning):
            rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc != 2, capsys.readouterr().err
        assert (tmp_path / "identity_report.json").exists()

    def test_unknown_field(self, tmp_path, config_dir):
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              mystery_knob=3)
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field,size", [("m_line", 16), ("m_loop", 8),
                                            ("n_interval", 2), ("m_loop", 31),
                                            ("h", 0.0), ("h", -0.25)])
    def test_rule_without_smaller_half_rejected(self, tmp_path, config_dir,
                                                capsys, field, size):
        # at its floor size a rule is its own half-resolution rerun: with
        # m_line = 16 the line determinant's delta read 0 and r3 = 1.1e-5
        # was certified on an unconverged value.  An odd loop size has no
        # rule at all, and neither has a loop of height h <= 0 (which passes
        # the strip check h < min|c_a|/2 and used to exit 3).
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              **{"numerics." + field: size})
        rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc == 2
        assert f"numerics.{field}" in capsys.readouterr().err
        assert not (tmp_path / "identity_report.json").exists()

    def test_amplitude_at_one(self, tmp_path, config_dir):
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              **{"F.value": 1.0})
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv,patch", [
        (["verify"], {"x": float("inf")}),
        (["verify"], {"x": float("nan")}),
        (["verify"], {"F.value": float("nan")}),
        (["verify"], {"numerics.h": float("inf")}),
        (["verify"], {"shifts.gamma": [1.0, 1.0], "shifts.c": [float("nan"), 1.0],
                      "shifts.v": [1, 2]}),
        (["sweep", "--x", "25,50,100,1e400"], {}),
        (["sweep", "--x", "25,50,100,nan"], {}),
        (["m-vs-m0", "--x", "50,100,200,inf"], {}),
    ], ids=["x-inf", "x-nan", "F-nan", "h-inf", "shift-c-nan",
            "sweep-x-overflow",
            "sweep-x-nan", "m-vs-m0-x-inf"])
    def test_non_finite_number_rejected(self, tmp_path, config_dir, capsys,
                                        argv, patch):
        # json reads Infinity and NaN, and float() reads 1e400 as inf: an
        # infinite x used to end in an OverflowError traceback, a NaN in exit 3
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"), **patch)
        rc = cli.main([argv[0], config, "--out", str(tmp_path), *argv[1:]])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,cause", [
        (["sweep", "--x", "25,50,100"], "insufficient points for slope"),
        (["m-vs-m0", "--x", "50,75,110,130"], "doubling pair"),
    ], ids=["sweep-three-x", "m-vs-m0-no-doubling-pair"])
    def test_unusable_grid_rejected_before_any_determinant(
            self, tmp_path, config_dir, capsys, monkeypatch, argv, cause):
        def no_det(*args, **kwargs):
            raise AssertionError("a determinant was computed before the "
                                 "x grid was checked")
        monkeypatch.setattr(experiments, "_det", no_det)
        rc = cli.main([argv[0], cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path), *argv[1:]])
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("patch,path", [
        ({"shifts.v": [1.7, 1]}, "config.shifts.v[0]: expected an integer"),
        ({"shifts.v": [True, 1]}, "config.shifts.v[0]: expected an integer"),
        ({"shifts.c": [True, 1.0]}, "config.shifts.c[0]"),
        ({"shifts.c": ["-1", 1.0]}, "config.shifts.c[0]"),
        ({"shifts.c": [[-1.0], [1.0]]}, "config.shifts.c[0]"),
        ({"shifts.w": [1, 2]}, "config.shifts: unknown fields ['w']"),
        ({"interval.c": 0.5}, "config.interval: unknown fields ['c']"),
        ({"F.scale": 1.0}, "config.F: unknown fields ['scale']"),
        ({"p.coeffs": 3}, "config.p.coeffs: expected a nonempty list"),
        ({"p.coeffs": []}, "config.p.coeffs: expected a nonempty list"),
        ({"shifts": {"gamma": [], "c": [], "v": []}},
         "config.shifts.gamma: expected a nonempty list"),
        ({"x": True}, "config.x: expected a finite number"),
        ({"c": "1.0"}, "config.c: expected a finite number"),
        ({"numerics.m_loop": 256.0},
         "config.numerics.m_loop: expected an integer"),
        ({"shifts.gamma": [[0.7, 0.0], 0.4]}, "config.shifts.gamma[0]"),
        ({"F.value": {"_re": 0.5, "_imag": 0.1}},
         "config.F.value: unknown fields ['_imag']"),
        ({"numerics.rho": 1.0}, "config.numerics: unknown fields ['rho']"),
        ({"tolerances.r4": 1e-3}, "config.tolerances: unknown fields ['r4']"),
        ({"tolerances.r1": 0}, "tolerances.r1 must be positive"),
        ({"shifts.c": [0.0, 1.0]},
         "config.shifts.c[0]: every shift c_a must be finite and nonzero"),
        ({"shifts.v": [3, 1]},
         "config.shifts.v[0]: shift indices must lie in 1..2, got 3"),
        # the canonical table built from c must not be checked before c
        ({"shifts": DROP, "c": 0}, "need c > 0, got 0"),
    ], ids=["v-float", "v-bool", "c-bool", "c-string", "c-nested",
            "shifts-unknown", "interval-unknown", "F-unknown",
            "coeffs-not-list", "coeffs-empty", "shifts-empty", "x-bool",
            "c-string-top", "m_loop-float", "gamma-list-pair", "pair-unknown",
            "numerics-unknown", "tolerances-unknown", "r1-zero", "c-zero",
            "v-out-of-range", "c-top-zero"])
    def test_malformed_input_rejected(self, tmp_path, config_dir, capsys,
                                      monkeypatch, patch, path):
        def no_run(cfg):
            raise AssertionError("the chain ran on a malformed config")
        monkeypatch.setattr(cli, "verify_factorization", no_run)
        config = write_config(tmp_path,
                              cfg_path(config_dir, "nonintegrable.json"),
                              **patch)
        rc = cli.main(["verify", config, "--out", str(tmp_path)])
        assert rc == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "identity_report.json").exists()

    @pytest.mark.parametrize("argv,run", [
        (["verify"], "verify_factorization"),
        (["sweep"], "asymptotic_sweep"),
        (["m-vs-m0"], "m_vs_m0"),
    ], ids=["verify", "sweep", "m-vs-m0"])
    def test_out_that_is_a_file_rejected(self, tmp_path, config_dir, capsys,
                                         monkeypatch, argv, run):
        # used to end in a FileExistsError traceback (exit 1, "a gate
        # failed") after the whole computation
        def no_run(*args):
            raise AssertionError("computed before --out was checked")
        monkeypatch.setattr(cli, run, no_run)
        taken = tmp_path / "taken"
        taken.write_text("a file\n", encoding="utf-8")
        rc = cli.main([argv[0], cfg_path(config_dir, "standard.json"),
                       "--out", str(taken)])
        assert rc == 2
        assert str(taken) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text(encoding="utf-8") == "a file\n"

    @pytest.mark.parametrize("argv", [
        ["det", "--which", "V"], ["verify", "--out", "out"]],
        ids=["det-V", "verify"])
    def test_shift_table_longer_than_the_pair_rejected(
            self, tmp_path, config_dir, capsys, monkeypatch, argv):
        # shift a pairs with component a of the two-component GSK pair: a
        # third shift used to end in an IndexError traceback (exit 1)
        config = write_config(tmp_path,
                              cfg_path(config_dir, "nonintegrable.json"),
                              **{"shifts.gamma": [0.7, 0.4, 0.3],
                                 "shifts.c": [-1.0, 1.0, 2.0],
                                 "shifts.v": [2, 1, 3]})
        monkeypatch.chdir(tmp_path)
        rc = cli.main([argv[0], config, *argv[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config.shifts: the table has 3 entries" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_top_level_surface():
    # the package top level holds what the tests and the benchmark import
    # from it; everything else is reached through its submodule
    import shiftdet
    from shiftdet import determinants, kernels, quadrature, rhp
    assert shiftdet.__all__ == ["__version__", "problem_config_from_json",
                                "solve_chi"]
    assert shiftdet.solve_chi is rhp.solve_chi
    assert shiftdet.problem_config_from_json is kernels.problem_config_from_json
    for module in (cli, determinants, experiments, kernels, quadrature, rhp):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_imports_no_scipy():
    # numpy is the only numerical dependency: no module of the package may
    # import scipy, at top level or inside a function
    package = os.path.dirname(cli.__file__)
    sources = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "determinants.py" in sources
    for name in sources:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "scipy", \
                    f"{name}:{node.lineno} imports {module}"


class TestSweepCommand:
    def test_standard_sweep(self, tmp_path, config_dir):
        rc = cli.main(["sweep", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 6   # default grid has five x values
        summary = read_json(tmp_path / "sweep_summary.json")
        jsonschema.validate(summary, load_schema("sweep_summary.schema.json"))
        assert summary["ok"] is True
        assert -1.3 < summary["slope"] < -0.7

    def test_trivial_sweep_skips_slope(self, tmp_path, config_dir):
        rc = cli.main(["sweep", cfg_path(config_dir, "trivial.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "sweep_summary.json")
        jsonschema.validate(summary, load_schema("sweep_summary.schema.json"))
        assert summary["slope_skipped"] is True
        assert summary["reason"] == "trivial limit"

    def test_inverted_slope_band_rejected(self, tmp_path, config_dir, capsys,
                                          monkeypatch):
        # no slope lies in [-0.7, -1.3]: the ladder used to run and then
        # exit 1 with [FAIL]
        def no_det(*args, **kwargs):
            raise AssertionError("a determinant was computed on an empty "
                                 "slope band")
        monkeypatch.setattr(experiments, "_det", no_det)
        config = write_config(tmp_path, cfg_path(config_dir, "standard.json"),
                              **{"tolerances.slope_min": -0.7,
                                 "tolerances.slope_max": -1.3})
        out = tmp_path / "out"
        rc = cli.main(["sweep", config, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tolerances.slope_min" in err
        assert "tolerances.slope_max" in err
        assert not out.exists()

    def test_single_x_rejected(self, tmp_path, config_dir, capsys):
        rc = cli.main(["sweep", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path), "--x", "50"])
        assert rc == 2
        assert "insufficient points for slope" in capsys.readouterr().err

    def test_non_monotone_errors_fail_gate(self, tmp_path, config_dir,
                                           monkeypatch, capsys):
        # slope about -1, inside the band, but err rises from x=50 to x=100
        errs = {25.0: 0.04, 50.0: 0.02, 100.0: 0.021, 200.0: 0.005,
                400.0: 0.0025}
        rows = [SweepRow(x=x, ratio=1.0 + e, limit=1.0 + 0j, err=e,
                         conv_delta=0.0, valid=True) for x, e in errs.items()]
        monkeypatch.setattr(cli, "asymptotic_sweep", lambda cfg, xs: rows)
        rc = cli.main(["sweep", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out
        summary = read_json(tmp_path / "sweep_summary.json")
        jsonschema.validate(summary, load_schema("sweep_summary.schema.json"))
        assert -1.3 < summary["slope"] < -0.7
        assert summary["err_strictly_decreasing"] is False
        assert summary["ok"] is False

    def test_outputs_are_deterministic(self, tmp_path, config_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        config = cfg_path(config_dir, "standard.json")
        assert cli.main(["sweep", config, "--out", str(a)]) == 0
        assert cli.main(["sweep", config, "--out", str(b)]) == 0
        for name in ("sweep.csv", "sweep_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestDetCommand:
    def test_trivial_base_determinant(self, config_dir, capsys):
        rc = cli.main(["det", cfg_path(config_dir, "trivial.json"),
                       "--which", "Vtilde"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        jsonschema.validate(blob, load_schema("det_result.schema.json"))
        assert blob["which"] == "Vtilde"
        assert blob["value_re"] == 1.0
        assert blob["value_im"] == 0.0

    def test_limit_factorization(self, config_dir, capsys):
        vals = {}
        for which in ("M0", "Uplus", "Uminus"):
            assert cli.main(["det", cfg_path(config_dir, "standard.json"),
                             "--which", which]) == 0
            blob = json.loads(capsys.readouterr().out)
            vals[which] = complex(blob["value_re"], blob["value_im"])
        prod = vals["Uplus"] * vals["Uminus"]
        assert abs(vals["M0"] - prod) < 1e-12 * abs(prod)

    @pytest.mark.parametrize("name", ["standard", "nonintegrable"])
    def test_chain_kinds_equal_verify(self, tmp_path, config_dir, capsys,
                                      name):
        # det and verify bind each kind to the same kernel and rule
        config = cfg_path(config_dir, name + ".json")
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = read_json(tmp_path / "identity_report.json")
        for which, field in (("V", "V"), ("Vtilde", "Vtilde"), ("W", "W"),
                             ("M", "M_loop"), ("N", "N_line")):
            assert cli.main(["det", config, "--which", which]) == 0
            blob = json.loads(capsys.readouterr().out)
            assert blob == {"which": which, **report["determinants"][field]}

    def test_unknown_kind_is_usage_error(self, config_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["det", cfg_path(config_dir, "standard.json"),
                      "--which", "Q"])
        assert exc.value.code == 2


class TestMVsM0Command:
    def test_standard_run(self, tmp_path, config_dir):
        rc = cli.main(["m-vs-m0", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "m_vs_m0.csv").read_text().splitlines()
        assert lines[0] == MVSM0_HEADER
        summary = read_json(tmp_path / "m_vs_m0_summary.json")
        jsonschema.validate(summary,
                            load_schema("m_vs_m0_summary.schema.json"))
        assert summary["ok"] is True
        assert all(1.5 < r["ratio"] < 3.0 for r in summary["ratios"])

    def test_grid_without_large_pair_rejected(self, tmp_path, config_dir,
                                              capsys):
        rc = cli.main(["m-vs-m0", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path), "--x", "50,100"])
        assert rc == 2
        assert "doubling pair" in capsys.readouterr().err

    def test_trivial_limit_skips_decay_test(self, tmp_path, config_dir,
                                            capsys):
        # F = 0: every err sits at the rounding floor, so there is no decay
        # rate to test; the ratios used to read 1.000 (or inf) and exit 1
        rc = cli.main(["m-vs-m0", cfg_path(config_dir, "trivial.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = read_strict_json(tmp_path / "m_vs_m0_summary.json")
        jsonschema.validate(summary,
                            load_schema("m_vs_m0_summary.schema.json"))
        assert summary["decay_skipped"] is True
        assert summary["reason"] == "trivial limit"
        assert summary["ok"] is True
        assert capsys.readouterr().out.startswith(
            "decay band check skipped: trivial limit")

    def test_infinite_ratio_is_not_written(self, tmp_path, config_dir,
                                           monkeypatch, capsys):
        # err(400) = 0 on a non-trivial ladder makes err(200)/err(400)
        # infinite, which JSON cannot hold: the command fails instead of
        # writing Infinity into the summary
        det = DetResult(1.0 + 0j, 1.0 + 0j, 8)
        errs = {50.0: 0.02, 100.0: 0.01, 200.0: 0.005, 400.0: 0.0}
        rows = [ComparisonRow(x=x, det_M=det, det_M0=det, err=e,
                              conv_delta=0.0) for x, e in errs.items()]
        monkeypatch.setattr(cli, "m_vs_m0", lambda cfg, xs: rows)
        rc = cli.main(["m-vs-m0", cfg_path(config_dir, "standard.json"),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_console_script_runs(tmp_path, config_dir):
    # the installed console script if there is one, else the module itself
    # from this checkout's src/
    exe = shutil.which("shiftdet")
    env = dict(os.environ)
    if exe is None:
        cmd = [sys.executable, "-m", "shiftdet.cli"]
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    else:
        cmd = [exe]
    proc = subprocess.run(
        [*cmd, "verify", cfg_path(config_dir, "trivial.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] certified" in proc.stdout
    assert (tmp_path / "identity_report.json").exists()


def test_run_all_passes_every_gate(tmp_path):
    # the shipped suite end to end: every run exits 0 and every JSON report
    # it writes validates against its schema
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "run_all.py")
    proc = subprocess.run([sys.executable, script, "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    exits = dict(re.findall(r"^== (\S+): exit (\d+)$", proc.stdout, re.M))
    assert exits and set(exits.values()) == {"0"}
    assert sorted(exits) == sorted(os.listdir(tmp_path))
    for run in exits:
        manifest = read_strict_json(tmp_path / run / "run_manifest.json")
        assert manifest["outputs"] == sorted(os.listdir(tmp_path / run))
        reports = [n for n in manifest["outputs"] if n.endswith(".json")]
        assert len(reports) == 2   # the run's report or summary, manifest
        for name in reports:
            jsonschema.validate(read_strict_json(tmp_path / run / name),
                                load_schema(name[:-5] + ".schema.json"))
