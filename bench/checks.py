"""Correctness of one operation (one CLI command), per the README contract.

An operation has failed when it exits nonzero, when a report says ``ok``
false or leaves r1/r2 uncertified, when a sweep's errors do not strictly
decrease (the README gate; the CLI does not enforce it), or when a
determinant, error or residual strays from the value recorded in
``reference.json`` beyond the tolerances below.  Byte-identity of the
report files against the reference is counted apart and is not a failure:
a last-bit change (say, from another LU order) shows there without failing.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Dict, List, Optional

# determinants and Cauchy-limit values: relative to |reference|
DET_RTOL = 1e-9
# sweep/m-vs-m0 errors and the fitted slope: real quantities of size
# 1e-4..1, relative, with a floor for the all-zero trivial sweep
ERR_RTOL = 1e-6
ERR_ATOL = 1e-12
# identity residuals sit near rounding level, so a relative change means
# little there; the absolute floor stays 1000x below the 1e-8 gates
RES_RTOL = 1e-3
RES_ATOL = 1e-11

TOLERANCES = {"det": (DET_RTOL, 0.0), "err": (ERR_RTOL, ERR_ATOL),
              "res": (RES_RTOL, RES_ATOL)}

REPORTS = {
    "verify": ("identity_report.json",),
    "sweep": ("sweep.csv", "sweep_summary.json"),
    "m-vs-m0": ("m_vs_m0.csv", "m_vs_m0_summary.json"),
}


def _json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(out_dir: str, name: str) -> List[Dict[str, float]]:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def extract(sub: str, out_dir: str) -> dict:
    """Gates, checked values and report hashes of one command's output.

    values maps a name to [kind, value]; a complex value is [re, im].
    Raises OSError/ValueError/KeyError on a missing or malformed report.
    """
    gates: Dict[str, bool] = {}
    values: Dict[str, list] = {}
    if sub == "verify":
        rep = _json(out_dir, "identity_report.json")
        gates["ok"] = rep["ok"] is True
        for key in ("r1", "r2"):
            gates["certified." + key] = rep["certified"][key] is True
        for name, d in rep["determinants"].items():
            values["det." + name] = ["det", [d["value_re"], d["value_im"]]]
        for key in ("r1", "r2", "r3"):
            values[key] = ["res", rep["residuals"][key]]
    elif sub == "sweep":
        summary = _json(out_dir, "sweep_summary.json")
        gates["ok"] = summary["ok"] is True
        if not summary["slope_skipped"]:
            gates["err_strictly_decreasing"] = summary["err_strictly_decreasing"] is True
            values["slope"] = ["err", summary["slope"]]
        for row in _rows(out_dir, "sweep.csv"):
            x = repr(row["x"])
            values["ratio@" + x] = ["det", [row["ratio_re"], row["ratio_im"]]]
            values["limit@" + x] = ["det", [row["limit_re"], row["limit_im"]]]
            values["err@" + x] = ["err", row["err"]]
    elif sub == "m-vs-m0":
        summary = _json(out_dir, "m_vs_m0_summary.json")
        gates["ok"] = summary["ok"] is True
        for row in _rows(out_dir, "m_vs_m0.csv"):
            x = repr(row["x"])
            values["det_M@" + x] = ["det", [row["det_m_re"], row["det_m_im"]]]
            values["det_M0@" + x] = ["det", [row["det_m0_re"], row["det_m0_im"]]]
            values["err@" + x] = ["err", row["err"]]
    else:
        raise ValueError(f"no check for subcommand {sub!r}")
    sha = {name: _sha256(os.path.join(out_dir, name)) for name in REPORTS[sub]}
    return {"gates": gates, "values": values, "sha256": sha}


def _deviation(kind: str, got, ref) -> Optional[str]:
    rtol, atol = TOLERANCES[kind]
    if kind == "det":
        g, r = complex(*got), complex(*ref)
    else:
        g, r = float(got), float(ref)
    if abs(g - r) <= rtol * abs(r) + atol:
        return None
    return f"{g!r} vs reference {r!r}"


def check(sub: str, code: int, out_dir: str, ref: Optional[dict]) -> dict:
    """Check one command; returns failures and report byte-identity."""
    if code != 0:
        return {"failures": [f"exit code {code}"], "identical": False}
    try:
        got = extract(sub, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"failures": [f"unreadable report: {exc!r}"], "identical": False}
    failures = [f"gate {name} is false" for name, ok in got["gates"].items() if not ok]
    if ref is None:
        failures.append("no reference recorded for this input")
        return {"failures": failures, "identical": False}
    for name, (kind, value) in ref["values"].items():
        if name not in got["values"]:
            failures.append(f"{name}: missing")
            continue
        bad = _deviation(kind, got["values"][name][1], value)
        if bad:
            failures.append(f"{name}: {bad}")
    return {"failures": failures, "identical": got["sha256"] == ref["sha256"]}
