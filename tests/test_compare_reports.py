import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts",
                     "compare_reports.py")
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _tree(root, report, csv_text, manifest):
    run = root / "sweep-standard"
    run.mkdir(parents=True)
    (run / "sweep_summary.json").write_text(json.dumps(report))
    (run / "sweep.csv").write_text(csv_text)
    (run / "run_manifest.json").write_text(json.dumps(manifest))
    return str(root)


REPORT = {"ok": True, "slope": -0.98, "ratios": [{"x": 100.0, "ratio": 2.0}],
          "strict_line": False}
CSV = "x,err,conv_delta\n25,0.5,1e-14\n50,0.25,2e-14\n"


def test_identical_trees_ignore_the_manifest(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, CSV, {"elapsed_seconds": 1.0})
    new = _tree(tmp_path / "new", REPORT, CSV, {"elapsed_seconds": 2.0})
    assert compare_reports.main([old, new]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_each_moved_field_and_cell_is_listed(tmp_path, capsys):
    old = _tree(tmp_path / "old", REPORT, CSV, {})
    report = {**REPORT, "ratios": [{"x": 100.0, "ratio": 2.5}]}
    del report["strict_line"]
    new = _tree(tmp_path / "new", report, CSV.replace("2e-14", "3e-14"), {})
    (tmp_path / "new" / "extra.txt").write_text("x")
    assert compare_reports.main([old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    csv_path = os.path.join("sweep-standard", "sweep.csv")
    json_path = os.path.join("sweep-standard", "sweep_summary.json")
    assert lines == [
        "extra.txt: only in NEW",
        f"{csv_path}: row 2.conv_delta: 2e-14 -> 3e-14 (rel 0.5)",
        f"{json_path}: ratios[0].ratio: 2.0 -> 2.5 (rel 0.25)",
        f"{json_path}: strict_line: False -> (gone)",
    ]


def test_usage_without_two_trees(capsys):
    assert compare_reports.main(["only-one"]) == 2
    assert "Usage" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,rel", [(0.0, 1e-15, "inf"),
                                         (4.0, 5.0, "0.25")])
def test_relative_difference(old, new, rel):
    (line,) = compare_reports._moved({"v": old}, {"v": new})
    assert line.endswith(f"(rel {rel})")
