"""Command-line front end.

    shiftdet verify  <cfg.json> [--out DIR] [--strict-line]
    shiftdet sweep   <cfg.json> [--out DIR] [--x 25,50,100,200,400]
    shiftdet det     <cfg.json> --which M0
    shiftdet m-vs-m0 <cfg.json> [--out DIR] [--x 50,100,200,400]

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 numeric
failure.  Data files (CSV/JSON reports) are byte-deterministic for a fixed
config and flags: no timestamps or timings are written into them; the run
manifest carries the wall clock and lists every file the run produced.
Complex values are emitted as _re/_im pairs; CSV floats use %.17g, which
round-trips doubles exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .determinants import DetResult
from .experiments import (DET_KINDS, asymptotic_sweep, compute_determinant,
                          fit_decay_slope, m_vs_m0, verify_factorization)
from .kernels import (ConfigError, NumericError, ProblemConfig,
                      problem_config_from_json)

__all__ = ["main"]

# err(x)/err(2x) acceptance band for the m-vs-m0 comparison (O(1/x) decay)
RATIO_BAND = (1.5, 3.0)
# below this, every sweep error is considered identically zero (trivial F)
TRIVIAL_ERR = 1e-12


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _load_config(path: str) -> Tuple[ProblemConfig, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return problem_config_from_json(obj), hashlib.sha256(raw).hexdigest()


def _parse_xs(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--x must be a comma-separated list of numbers, "
                          f"got {text!r}") from exc


def _det_json(d: DetResult) -> dict:
    return {
        "value_re": float(d.value.real),
        "value_im": float(d.value.imag),
        "convergence_delta": float(d.convergence_delta),
        "rule_size": int(d.rule_size),
    }


def _write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, command: str, args_echo: dict,
                    config_path: str, config_hash: str,
                    outputs: Sequence[str], t0: float) -> str:
    path = os.path.join(out_dir, "run_manifest.json")
    _write_json(path, {
        "version": __version__,
        "command": command,
        "args": args_echo,
        "config_path": os.path.abspath(config_path),
        "config_sha256": config_hash,
        "outputs": sorted(os.path.basename(p) for p in [*outputs, path]),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    })
    return path


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    cfg, cfg_hash = _load_config(args.config)
    report = verify_factorization(cfg)
    tol = cfg.tolerances
    passed = {
        "r1": report.r1 < tol.r1,
        "r2": report.r2 < tol.r2,
        "r3": report.r3 < tol.r3,
    }
    gate = passed["r1"] and passed["r2"] and (passed["r3"] or not args.strict_line)
    out_dir = _ensure_out(args.out)
    report_path = os.path.join(out_dir, "identity_report.json")
    _write_json(report_path, {
        "config": report.config_echo,
        "determinants": {
            "V": _det_json(report.det_V),
            "Vtilde": _det_json(report.det_Vtilde),
            "W": _det_json(report.det_W),
            "M_loop": _det_json(report.det_M_loop),
            "N_line": _det_json(report.det_N_line),
        },
        "residuals": {"r1": report.r1, "r2": report.r2, "r3": report.r3},
        "tolerances": {"r1": tol.r1, "r2": tol.r2, "r3": tol.r3},
        "certified": report.certified,
        "passed": passed,
        "strict_line": bool(args.strict_line),
        "ok": bool(gate),
    })
    _write_manifest(out_dir, "verify",
                    {"config": args.config, "out": args.out,
                     "strict_line": bool(args.strict_line)},
                    args.config, cfg_hash, [report_path], t0)
    for key in ("r1", "r2", "r3"):
        res = getattr(report, key)
        tag = "PASS" if passed[key] else "FAIL"
        cert = "certified" if report.certified[key] else "uncertified"
        role = "" if key != "r3" or args.strict_line else " (advisory)"
        print(f"{key} = {res:.3e} [{tag}] {cert}{role}")
    print(f"wrote {report_path}")
    return 0 if gate else 1


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg, cfg_hash = _load_config(args.config)
    xs = _parse_xs(args.x)
    if len(xs) < 4:
        raise ConfigError(
            f"insufficient points for slope: need >= 4 x values, got {len(xs)}")
    rows = asymptotic_sweep(cfg, xs)
    out_dir = _ensure_out(args.out)
    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,ratio_re,ratio_im,limit_re,limit_im,err,conv_delta\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r.x), _fmt(r.ratio.real), _fmt(r.ratio.imag),
                _fmt(r.limit.real), _fmt(r.limit.imag),
                _fmt(r.err), _fmt(r.conv_delta)]) + "\n")

    valid = [r for r in rows if r.valid]
    trivial = bool(valid) and all(r.err < TRIVIAL_ERR for r in valid)
    summary = {
        "n_rows": len(rows),
        "n_valid": len(valid),
        "limit_re": float(rows[0].limit.real),
        "limit_im": float(rows[0].limit.imag),
        "slope_band": [cfg.tolerances.slope_min, cfg.tolerances.slope_max],
    }
    if trivial:
        summary.update({"slope_skipped": True, "reason": "trivial limit",
                        "ok": True})
        gate = True
    else:
        slope = fit_decay_slope(rows)
        decreasing = all(b.err < a.err for a, b in zip(valid, valid[1:]))
        in_band = cfg.tolerances.slope_min <= slope <= cfg.tolerances.slope_max
        gate = in_band and decreasing
        summary.update({"slope_skipped": False, "slope": slope,
                        "err_strictly_decreasing": decreasing, "ok": gate})
    summary_path = os.path.join(out_dir, "sweep_summary.json")
    _write_json(summary_path, summary)
    _write_manifest(out_dir, "sweep",
                    {"config": args.config, "out": args.out, "x": args.x},
                    args.config, cfg_hash, [csv_path, summary_path], t0)
    if trivial:
        print("slope test skipped: trivial limit (all errors < 1e-12)")
    else:
        print(f"slope = {summary['slope']:.4f} "
              f"(band [{cfg.tolerances.slope_min}, {cfg.tolerances.slope_max}]) "
              f"[{'PASS' if gate else 'FAIL'}]")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0 if gate else 1


def cmd_det(args) -> int:
    cfg, _ = _load_config(args.config)
    result = compute_determinant(cfg, args.which)
    payload = {"which": args.which, **_det_json(result)}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_m_vs_m0(args) -> int:
    t0 = time.perf_counter()
    cfg, cfg_hash = _load_config(args.config)
    xs = _parse_xs(args.x)
    rows = m_vs_m0(cfg, xs)
    out_dir = _ensure_out(args.out)
    csv_path = os.path.join(out_dir, "m_vs_m0.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,err,det_m_re,det_m_im,det_m0_re,det_m0_im,conv_delta\n")
        for r in rows:
            fh.write(",".join([
                _fmt(r.x), _fmt(r.err),
                _fmt(r.det_M.value.real), _fmt(r.det_M.value.imag),
                _fmt(r.det_M0.value.real), _fmt(r.det_M0.value.imag),
                _fmt(r.conv_delta)]) + "\n")

    # decay ratios over consecutive doubling pairs (err(x) / err(2x))
    ratios = []
    for a, b in zip(rows, rows[1:]):
        if abs(b.x - 2.0 * a.x) < 1e-9 * a.x:
            ratios.append({"x": a.x,
                           "ratio": (a.err / b.err) if b.err > 0
                           else float("inf")})
    gated = [r for r in ratios if r["x"] >= 100.0]
    if not gated:
        raise ConfigError("m-vs-m0 needs at least one doubling pair "
                          "(x, 2x) with x >= 100 to test the decay band")
    decreasing = all(b.err < a.err for a, b in zip(rows, rows[1:]))
    in_band = all(RATIO_BAND[0] <= r["ratio"] <= RATIO_BAND[1] for r in gated)
    gate = decreasing and in_band
    summary_path = os.path.join(out_dir, "m_vs_m0_summary.json")
    _write_json(summary_path, {
        "xs": [r.x for r in rows],
        "errs": [r.err for r in rows],
        "err_strictly_decreasing": decreasing,
        "ratios": ratios,
        "ratio_band": list(RATIO_BAND),
        "ratios_in_band": in_band,
        "ok": gate,
    })
    _write_manifest(out_dir, "m-vs-m0",
                    {"config": args.config, "out": args.out, "x": args.x},
                    args.config, cfg_hash, [csv_path, summary_path], t0)
    for r in gated:
        print(f"err({_fmt(r['x'])}) / err({_fmt(2 * r['x'])}) = "
              f"{r['ratio']:.3f}")
    print(f"decay band check [{'PASS' if gate else 'FAIL'}]")
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0 if gate else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shiftdet",
        description="Fredholm determinants of integrable kernels with "
                    "shifts: factorization identities and large-x behavior.")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a JSON problem config")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", metavar="DIR",
                     help="directory for report files (default: .)")

    p = sub.add_parser("verify", parents=[common, out],
                       help="check the determinant factorization chain")
    p.add_argument("--strict-line", action="store_true",
                   help="let the line-representation residual r3 gate the "
                        "exit code (advisory by default)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common, out],
                       help="large-x ratio sweep and decay-slope fit")
    p.add_argument("--x", default="25,50,100,200,400", metavar="LIST",
                   help="comma-separated increasing x values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("det", parents=[common],
                       help="print one determinant as JSON on stdout")
    p.add_argument("--which", required=True, choices=DET_KINDS,
                   help="which determinant of the chain to compute")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("m-vs-m0", parents=[common, out],
                       help="compare the loop operator against its "
                            "x-independent limit")
    p.add_argument("--x", default="50,100,200,400", metavar="LIST",
                   help="comma-separated increasing x values")
    p.set_defaults(func=cmd_m_vs_m0)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
