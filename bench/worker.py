"""One fresh process of the benchmark: set-up probe or one workload pass.

    python3 worker.py setup SRC CONFIG...
        import shiftdet.cli from SRC, then load and validate each config
    python3 worker.py pass SPEC RESULT
        run the commands listed in the JSON file SPEC through
        shiftdet.cli.main, in this process, and write timings to RESULT

SPEC holds {"src", "commands": [[name, argv], ...], "trace": bool}.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def _import_cli(src: str):
    sys.path.insert(0, src)
    import shiftdet.cli
    # an installed shiftdet must not stand in for the checkout's
    if not os.path.abspath(shiftdet.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"shiftdet imported from {shiftdet.cli.__file__}, not {src}")
    return shiftdet.cli


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("MemAvailable:"):
                    mem = int(ln.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "mem_available_mb": mem,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_setup(src: str, configs) -> int:
    _import_cli(src)
    from shiftdet import problem_config_from_json
    for path in configs:
        with open(path, encoding="utf-8") as fh:
            problem_config_from_json(json.load(fh))
    return 0


def run_pass(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["src"])
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
    run_command = tracer.timed("cli.main", cli.main) if tracer else cli.main
    codes = []
    with tracer.install() if tracer else nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        with tracer.span("trace.pass") if tracer else nullcontext():
            for name, argv in spec["commands"]:
                print(f"== {name}: shiftdet {' '.join(argv)}", flush=True)
                try:
                    code = run_command(argv)
                except Exception:  # a crash fails this operation, not the pass
                    traceback.print_exc()
                    code = -1
                codes.append(code)
                print(f"== {name}: exit {code}", flush=True)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {
        "codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": machine_facts(),
    }
    if tracer:
        result["layers"] = spans.summarize(tracer)
        result["spans"] = [s.to_json() for s in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return run_setup(argv[1], argv[2:])
    if len(argv) == 3 and argv[0] == "pass":
        return run_pass(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
