"""Command-line front end.

    shiftdet verify  <cfg.json> [--out DIR]
    shiftdet sweep   <cfg.json> [--out DIR] [--x 25,50,100,200,400]
    shiftdet det     <cfg.json> --which M0
    shiftdet m-vs-m0 <cfg.json> [--out DIR] [--x 50,100,200,400]

This module parses arguments, writes the reports and the manifest, and
maps outcomes to exit codes: 0 success, 1 a gate failed, 2 config error,
3 numeric failure.  Every pass/fail decision is made in ``experiments``.

Data files (CSV/JSON reports) are byte-deterministic for a fixed config and
flags: no timestamps or timings are written into them; the run manifest
carries the wall clock and lists every file the run produced.  Complex
values are emitted as _re/_im pairs; CSV floats use %.17g, which
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
                          m_vs_m0, m_vs_m0_gate, sweep_gate,
                          verify_factorization)
from .kernels import (ConfigError, NumericError, ProblemConfig,
                      problem_config_from_json)

__all__ = ["main"]


def _make_out_dir(path: str):
    # made before any determinant, so an unusable --out costs no computation
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path} cannot be used as a directory: "
                          f"{exc}") from exc


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
    # allow_nan=False: an inf or nan is not JSON; it fails before the write
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_manifest(args, config_hash: str, outputs: Sequence[str],
                    t0: float) -> str:
    path = os.path.join(args.out, "run_manifest.json")
    _write_json(path, {
        "version": __version__,
        "command": args.command,
        "args": {k: v for k, v in vars(args).items()
                 if k in ("config", "out", "x")},
        "config_path": os.path.abspath(args.config),
        "config_sha256": config_hash,
        "outputs": sorted(os.path.basename(p) for p in [*outputs, path]),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    })
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    cfg, cfg_hash = _load_config(args.config)
    _make_out_dir(args.out)
    report = verify_factorization(cfg)
    ok = report.ok()
    tol = cfg.tolerances
    report_path = os.path.join(args.out, "identity_report.json")
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
        "passed": report.passed,
        "ok": ok,
    })
    _write_manifest(args, cfg_hash, [report_path], t0)
    for key in ("r1", "r2", "r3"):
        res = getattr(report, key)
        tag = "PASS" if report.passed[key] else "FAIL"
        cert = "certified" if report.certified[key] else "uncertified"
        print(f"{key} = {res:.3e} [{tag}] {cert}")
    print(f"wrote {report_path}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    return _ladder_command(
        args, asymptotic_sweep, sweep_gate, "sweep",
        "x,ratio_re,ratio_im,limit_re,limit_im,err,conv_delta",
        lambda r: (r.x, r.ratio.real, r.ratio.imag, r.limit.real,
                   r.limit.imag, r.err, r.conv_delta))


def cmd_m_vs_m0(args) -> int:
    return _ladder_command(
        args, m_vs_m0, lambda cfg, rows: m_vs_m0_gate(rows), "m_vs_m0",
        "x,err,det_m_re,det_m_im,det_m0_re,det_m0_im,conv_delta",
        lambda r: (r.x, r.err, r.det_M.value.real, r.det_M.value.imag,
                   r.det_M0.value.real, r.det_M0.value.imag, r.conv_delta))


def _ladder_command(args, run, gate, stem: str, header: str, fields) -> int:
    """Run one x-ladder; write <stem>.csv, <stem>_summary.json, manifest."""
    t0 = time.perf_counter()
    cfg, cfg_hash = _load_config(args.config)
    _make_out_dir(args.out)
    rows = run(cfg, _parse_xs(args.x))
    summary, verdict = gate(cfg, rows)
    summary_path = os.path.join(args.out, stem + "_summary.json")
    _write_json(summary_path, summary)
    csv_path = os.path.join(args.out, stem + ".csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in fields(r)) + "\n")
    _write_manifest(args, cfg_hash, [csv_path, summary_path], t0)
    print(*verdict, f"wrote {csv_path}", f"wrote {summary_path}", sep="\n")
    return 0 if summary["ok"] else 1


def cmd_det(args) -> int:
    cfg, _ = _load_config(args.config)
    result = compute_determinant(cfg, args.which)
    payload = {"which": args.which, **_det_json(result)}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


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
