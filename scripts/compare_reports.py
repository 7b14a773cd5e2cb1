#!/usr/bin/env python3
"""Compare two report trees written by scripts/run_all.py.

Usage: python scripts/compare_reports.py OLD NEW

Walks both trees (every run_manifest.json skipped: it holds paths and
timings) and prints "identical", or one line per moved item: a JSON field
by its dotted path, a CSV cell by its row and column, or a file present in
one tree only or differing otherwise.  Numbers are printed with their
relative difference |new - old| / |old|.  Exits 1 when anything moved.
"""
import csv
import json
import os
import sys

SKIP = "run_manifest.json"


def _files(root):
    out = set()
    for top, _, names in os.walk(root):
        for name in names:
            if name != SKIP:
                out.add(os.path.relpath(os.path.join(top, name), root))
    return out


def _flatten(obj, prefix, out):
    """JSON leaves by dotted path; list items as [i]."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def _json_leaves(path):
    with open(path, encoding="utf-8") as fh:
        return _flatten(json.load(fh), "", {})


def _csv_cells(path):
    """Cells keyed 'row i.column'; every cell read as a float if it is one."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    cells = {}
    for i, row in enumerate(rows[1:], start=1):
        for column, text in zip(rows[0], row):
            try:
                cells[f"row {i}.{column}"] = float(text)
            except ValueError:
                cells[f"row {i}.{column}"] = text
    return cells


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _moved(old, new):
    """Lines for the keys whose values differ, or exist on one side only."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"{key}: {old[key]!r} -> (gone)")
        elif key not in old:
            lines.append(f"{key}: (absent) -> {new[key]!r}")
        elif old[key] != new[key]:
            a, b = old[key], new[key]
            if _number(a) and _number(b):
                rel = abs(b - a) / abs(a) if a else float("inf")
                lines.append(f"{key}: {a!r} -> {b!r} (rel {rel:.3g})")
            else:
                lines.append(f"{key}: {a!r} -> {b!r}")
    return lines


def compare(old_root, new_root):
    old_files, new_files = _files(old_root), _files(new_root)
    lines = []
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            side = "OLD" if rel in old_files else "NEW"
            lines.append(f"{rel}: only in {side}")
            continue
        a, b = os.path.join(old_root, rel), os.path.join(new_root, rel)
        if rel.endswith(".json"):
            moved = _moved(_json_leaves(a), _json_leaves(b))
        elif rel.endswith(".csv"):
            moved = _moved(_csv_cells(a), _csv_cells(b))
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                moved = [] if fa.read() == fb.read() else ["bytes differ"]
        lines.extend(f"{rel}: {line}" for line in moved)
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = compare(*argv)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
