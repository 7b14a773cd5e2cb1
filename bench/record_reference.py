#!/usr/bin/env python3
"""Record reference.json: checked values and report hashes of every command
of every workload at every scale factor the seed can select.

    python3 bench/record_reference.py

Run from the root of a checkout, at the commit whose numbers the benchmark
should hold later commits to.  Refuses to record a command that fails its
own gates.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import worker
import workloads


def record_one(workload: str, k: int) -> dict:
    run_dir = os.path.join(run.WORK, f"reference-{workload}-f{k}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        runs = workloads.write_inputs(workload, k, os.path.join(run_dir, "inputs"))
        res = run.run_pass(run_dir, "p", runs, trace=False)
        if "crashed" in res:
            raise SystemExit(f"{workload} f{k}: {res['crashed']}")
        subs = {c.name: c.sub for c in workloads.WORKLOADS[workload]}
        out = {}
        for (name, _), code in zip(runs, res["codes"]):
            if code != 0:
                raise SystemExit(f"{workload} f{k} {name}: exit code {code}")
            got = checks.extract(subs[name], os.path.join(res["out"], name))
            bad = [g for g, ok in got["gates"].items() if not ok]
            if bad:
                raise SystemExit(f"{workload} f{k} {name}: gates {bad} false")
            out[name] = {"values": got["values"], "sha256": got["sha256"]}
        print(f"recorded {workload} f={workloads.scaled(1.0, k)} "
              f"wall {res['wall_s']:.2f} s", flush=True)
        return out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    reference = {w: {str(k): record_one(w, k) for k in range(workloads.FACTOR_STEPS)}
                 for w in workloads.WORKLOADS}
    doc = {"recorded_with": worker.machine_facts(), "tolerances": {
        kind: {"rtol": r, "atol": a} for kind, (r, a) in checks.TOLERANCES.items()},
        "reference": reference}
    with open(run.REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
