#!/usr/bin/env python3
"""shiftdet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
Workloads are defined in workloads.py and described in README.md.

Each pass runs the workload's command list through shiftdet.cli.main in a
fresh process (worker.py).  Passes alternate between two arms and repeat
until the next pass would end after S seconds (at least one pass per arm):

* --trace 0: arm A at the seed's scale factor f, arm B at 2 - f, so that
  the two arms together do nearly the same work for every seed.  Prints
  wall_s, cpu_s and peak_rss_mb (mean over the arms of each arm's median)
  and setup_s (median over fresh interpreters importing shiftdet.cli and
  loading the configs, five before each pass).
* --trace 1: arm A untraced, arm B traced, both at f.  Prints the medians
  of the traced passes' per-layer metrics, and trace.overhead_s, the
  difference of the arms' median wall times.

Every command's reports are checked (checks.py).  The last line of stdout
is the result object; results, facts and spans are also written under
.bench_work/results/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PER_PASS = 5
SETUP_TIMEOUT = 30
PASS_TIMEOUT = 150


class BenchError(RuntimeError):
    pass


def _child(args, log_path: str, timeout: float) -> int:
    # a blocking wait returns as soon as the child exits; waiting with a
    # timeout would poll, and round every set-up sample up by up to 50 ms
    with open(log_path, "a", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            return proc.wait()
        finally:
            watchdog.cancel()


def _tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def setup_sample(configs, log_path: str) -> float:
    """Wall time of a fresh interpreter importing shiftdet.cli and loading
    the configs."""
    t0 = time.perf_counter()
    code = _child(["setup", SRC, *configs], log_path, SETUP_TIMEOUT)
    dt = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"set-up probe exited {code}:\n{_tail(log_path)}")
    return dt


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pass(run_dir: str, tag: str, runs, trace: bool) -> dict:
    """One worker process over the command list; returns its result plus
    per-command exit codes and output directories."""
    out_root = os.path.join(run_dir, tag)
    commands = [[name, [*argv, "--out", os.path.join(out_root, name)]]
                for name, argv in runs]
    spec_path = os.path.join(run_dir, tag + ".spec.json")
    result_path = os.path.join(run_dir, tag + ".result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "commands": commands, "trace": trace}, fh)
    log_path = os.path.join(run_dir, "worker.log")
    code = _child(["pass", spec_path, result_path], log_path, PASS_TIMEOUT)
    if code != 0 or not os.path.isfile(result_path):
        return {"crashed": f"worker exited {code}:\n{_tail(log_path)}",
                "codes": [-1] * len(runs), "out": out_root}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["out"] = out_root
    return result


def check_pass(result: dict, workload: str, k: int, runs, reference) -> dict:
    """Check each command of a pass against the contract and reference."""
    subs = {c.name: c.sub for c in workloads.WORKLOADS[workload]}
    refs = reference.get(workload, {}).get(str(k), {})
    failures, identical = {}, 0
    for (name, _), code in zip(runs, result["codes"]):
        res = checks.check(subs[name], code, os.path.join(result["out"], name),
                           refs.get(name))
        identical += res["identical"]
        if res["failures"]:
            failures[name] = res["failures"]
    report_bytes = _dir_bytes(result["out"])
    shutil.rmtree(result["out"], ignore_errors=True)
    return {"failures": failures, "identical": identical,
            "report_bytes": report_bytes}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["reference"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shiftdet", "cli.py")):
        print(f"error: no shiftdet sources under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2

    k = workloads.factor_index(opts.seed)
    km = workloads.mirror(k)
    run_dir = os.path.join(
        WORK, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return _run(opts, k, km, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(opts, k: int, km: int, run_dir: str) -> int:
    trace = bool(opts.trace)
    runs = {kk: workloads.write_inputs(opts.workload, kk,
                                       os.path.join(run_dir, f"inputs-f{kk}"))
            for kk in {k, km}}
    reference = load_reference()
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "factor": workloads.scaled(1.0, k),
              "mirror_factor": None if trace else workloads.scaled(1.0, km)}

    configs = [argv[1] for _, argv in runs[k]]
    log_path = os.path.join(run_dir, "worker.log")
    setup_sample(configs, log_path)  # untimed: compiles the bytecode
    setup = []

    # two arms of passes, run alternately
    arms = [(k, False), (k, True)] if trace else [(k, False), (km, False)]
    done = ([], [])
    deadline = time.perf_counter() + opts.seconds
    longest, failures = 0.0, []
    attempted = failed = identical = 0
    for n in itertools.count():
        kk, traced = arms[n % 2]
        t0 = time.perf_counter()
        if not trace:
            # spread over the run, so a slow minute does not own the median
            setup += [setup_sample(configs, log_path) for _ in range(SETUP_PER_PASS)]
        res = run_pass(run_dir, f"p{n}", runs[kk], traced)
        checked = check_pass(res, opts.workload, kk, runs[kk], reference)
        attempted += len(runs[kk])
        failed += len(checked["failures"])
        identical += checked["identical"]
        failures += [f"p{n} f={workloads.scaled(1.0, kk)} {name}: {why}"
                     for name, why in checked["failures"].items()]
        if "crashed" in res:
            failures.append(f"p{n}: {res['crashed']}")
        else:
            res.update(n=n, report_bytes=checked["report_bytes"],
                       factor=workloads.scaled(1.0, kk))
            done[n % 2].append(res)
        longest = max(longest, time.perf_counter() - t0)
        if n >= 1 and time.perf_counter() + longest > deadline:
            break
    if not (done[0] and done[1]):
        raise BenchError("no pass completed in one arm:\n" + "\n".join(failures))

    if trace:
        metrics = trace_metrics(*done)
    else:
        def balanced(key):
            return statistics.fmean(statistics.median(p[key] for p in arm) for arm in done)
        metrics = {
            "wall_s": {"value": balanced("wall_s"), "unit": "s"},
            "cpu_s": {"value": balanced("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": balanced("peak_rss_mb"), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    record.update({
        "facts": done[0][0]["facts"],
        "attempted": attempted, "failed": failed, "failures": failures,
        "reports_identical": identical, "setup_samples": setup,
        "passes": [{key: p[key] for key in ("factor", "wall_s", "cpu_s", "peak_rss_mb")}
                   for p in sorted(done[0] + done[1], key=lambda p: p["n"])],
        "metrics": metrics,
    })
    if trace:
        record["spans"] = [p["spans"] for p in done[1]]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", os.path.basename(run_dir) + ".json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("workload", "seed", "factor", "facts", "reports_identical")}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


UNITS = {"_s": "s", "_gflop": "Gflop", "_gflops": "Gflop/s",
         "_ns_per_entry": "ns", "_bytes": "B"}
RATIOS = ("quadrature.gl_reuse", "experiments.pool_efficiency")


def unit_of(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def trace_metrics(plain, traced) -> dict:
    """Medians over the traced passes of their layer metrics, and the
    difference of median wall times as the tracing overhead."""
    rows = [{**p["layers"], "cli.report_bytes": p["report_bytes"]} for p in traced]
    metrics = {name: {"value": statistics.median(r[name] for r in rows),
                      "unit": unit_of(name)} for name in rows[0]}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
