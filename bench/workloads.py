"""Workload definitions and the seeded input generator.

A workload is a list of shiftdet CLI commands run back to back in one
process.  Its inputs are derived from the seed: one scale factor in
[0.97, 1.03], on a grid of FACTOR_STEPS values, multiplies every x value and
the amplitude of F.  The grid is finite so that reference values for every
input the benchmark can generate are recorded in ``reference.json``.

The base configs are copies of the four shipped configs, kept here so the
benchmark's inputs do not move when ``configs/`` does.
"""
from __future__ import annotations

import copy
import json
import os
import random
from typing import Dict, List, NamedTuple, Tuple

# factor index k in [0, FACTOR_STEPS) gives the factor (194 + k) / 200
FACTOR_STEPS = 13

STANDARD = {
    "interval": {"a": -1.0, "b": 1.0},
    "x": 50.0,
    "c": 1.0,
    "F": {"kind": "constant", "value": 0.5},
    "p": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
    "numerics": {"m_loop": 256, "m_line": 400},
    "tolerances": {"r1": 1e-8, "r2": 1e-8, "r3": 1e-4,
                   "slope_min": -1.3, "slope_max": -0.7},
}
GENERAL = {
    "interval": {"a": -1.0, "b": 1.0},
    "x": 50.0,
    "c": 1.0,
    "F": {"kind": "scaled_gaussian_entire", "amplitude": 0.55,
          "center": 0.2, "scale": 0.6},
    "p": {"kind": "polynomial", "coeffs": [0.0, 1.0, 0.0, 0.1]},
    "numerics": {"m_loop": 256, "m_line": 400},
}
NONINTEGRABLE = {
    "interval": {"a": -1.0, "b": 1.0},
    "x": 50.0,
    "c": 1.0,
    "F": {"kind": "constant", "value": 0.5},
    "p": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
    "shifts": {"gamma": [0.7, 0.4], "c": [-1.0, 1.0], "v": [2, 1]},
    "numerics": {"m_loop": 256, "m_line": 400},
}
TRIVIAL = {
    "interval": {"a": -1.0, "b": 1.0},
    "x": 50.0,
    "c": 1.0,
    "F": {"kind": "constant", "value": 0.0},
    "p": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
    "numerics": {"m_loop": 256, "m_line": 400},
}


class Command(NamedTuple):
    """One operation: a CLI subcommand on a generated config.

    ``x`` replaces the config's x; ``xs`` is the --x list given to sweep
    and m-vs-m0.  Both are scaled by the seed's factor.
    """

    name: str
    sub: str
    base: dict
    x: float = 50.0
    xs: Tuple[float, ...] = ()


# the CLI's default --x lists of sweep and m-vs-m0
SWEEP_XS = (25.0, 50.0, 100.0, 200.0, 400.0)
M0_XS = (50.0, 100.0, 200.0, 400.0)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, List[Command]] = {
    "chain-large-x": [
        Command("verify-standard-x800", "verify", STANDARD, x=800.0),
        Command("verify-general-x400", "verify", GENERAL, x=400.0),
    ],
    # the seven runs of scripts/run_all.py, then the only near-cut input
    "shipped-suite": [
        Command("verify-standard", "verify", STANDARD),
        Command("verify-nonintegrable", "verify", NONINTEGRABLE),
        Command("verify-trivial", "verify", TRIVIAL),
        Command("verify-general", "verify", GENERAL),
        Command("sweep-standard", "sweep", STANDARD, xs=SWEEP_XS),
        Command("sweep-trivial", "sweep", TRIVIAL, xs=SWEEP_XS),
        Command("m-vs-m0-standard", "m-vs-m0", STANDARD, xs=M0_XS),
        Command("verify-standard-x25", "verify", STANDARD, x=25.0),
    ],
}


def factor_index(seed: int) -> int:
    """The grid index of the scale factor a seed selects."""
    return random.Random(seed).randrange(FACTOR_STEPS)


def mirror(k: int) -> int:
    """Index of the factor 2 - f: a pass at k and one at mirror(k) together
    do nearly the same work for every k, since sizes grow smoothly with x."""
    return FACTOR_STEPS - 1 - k


def scaled(value: float, k: int) -> float:
    # exact for the decimal grid: 800 * 197 / 200 == 788.0
    return value * (194 + k) / 200


def _config(cmd: Command, k: int) -> dict:
    cfg = copy.deepcopy(cmd.base)
    cfg["x"] = scaled(cmd.x, k)
    F = cfg["F"]
    key = "value" if F["kind"] == "constant" else "amplitude"
    F[key] = scaled(F[key], k)
    return cfg


def write_inputs(workload: str, k: int, directory: str) -> List[Tuple[str, List[str]]]:
    """Write the configs of one workload at factor index k.

    Returns (command name, argv without --out) pairs; the program sees only
    the files written here.
    """
    os.makedirs(directory, exist_ok=True)
    runs = []
    for cmd in WORKLOADS[workload]:
        path = os.path.join(directory, cmd.name + ".json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_config(cmd, k), fh, indent=2, sort_keys=True)
            fh.write("\n")
        argv = [cmd.sub, path]
        if cmd.xs:
            argv += ["--x", ",".join(repr(scaled(v, k)) for v in cmd.xs)]
        runs.append((cmd.name, argv))
    return runs
