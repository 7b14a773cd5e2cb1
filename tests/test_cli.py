import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from shiftdet import cli
from shiftdet.experiments import SweepRow

SWEEP_HEADER = "x,ratio_re,ratio_im,limit_re,limit_im,err,conv_delta"
MVSM0_HEADER = "x,err,det_m_re,det_m_im,det_m0_re,det_m0_im,conv_delta"


def load_schema(name):
    blob = (resources.files("shiftdet") / "schemas" / name).read_text()
    return json.loads(blob)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cfg_path(config_dir, name):
    return os.path.join(config_dir, name)


def write_config(tmp_path, base, **patch):
    blob = read_json(base)
    for dotted, value in patch.items():
        target = blob
        *parents, leaf = dotted.split(".")
        for key in parents:
            target = target.setdefault(key, {})
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

    def test_unknown_field(self, tmp_path, config_dir):
        config = write_config(tmp_path,
                              cfg_path(config_dir, "standard.json"),
                              mystery_knob=3)
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field,size", [("m_line", 16), ("m_loop", 8),
                                            ("n_interval", 2), ("m_loop", 31)])
    def test_rule_without_smaller_half_rejected(self, tmp_path, config_dir,
                                                capsys, field, size):
        # at its floor size a rule is its own half-resolution rerun: with
        # m_line = 16 the line determinant's delta read 0 and r3 = 1.1e-5
        # was certified on an unconverged value.  An odd loop size has no
        # rule at all.
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

    def test_vtilde_equals_verify(self, tmp_path, config_dir, capsys):
        config = cfg_path(config_dir, "standard.json")
        assert cli.main(["verify", config, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.main(["det", config, "--which", "Vtilde"]) == 0
        blob = json.loads(capsys.readouterr().out)
        report = read_json(tmp_path / "identity_report.json")
        want = report["determinants"]["Vtilde"]
        for key in ("value_re", "value_im", "convergence_delta", "rule_size"):
            assert blob[key] == want[key]

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
