"""Compare two report bundles written by ``subthz-chan report``.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

``report.json`` numbers may differ by at most 1e-9 relative; integers,
strings, booleans, nulls and the JSON structure must match exactly.
Every other file (the CSV tables) must match byte for byte, and both
bundles must hold the same files.  Prints one line per difference and
exits 1 if there is any, 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPORT_JSON = "report.json"
REL_TOL = 1e-9


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_differences(old, new, where: str = "$") -> list[str]:
    """Paths (``$.a.b[3]``) at which two parsed JSON documents differ, with both values."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                out.append(f"{where}.{key}: only in {'new' if key not in old else 'old'}")
            else:
                out.extend(json_differences(old[key], new[key], f"{where}.{key}"))
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{where}: length {len(old)} != {len(new)}"]
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in json_differences(a, b, f"{where}[{i}]")]
    if _is_number(old) and _is_number(new) and not (isinstance(old, int) and isinstance(new, int)):
        same = math.isclose(old, new, rel_tol=REL_TOL, abs_tol=0.0) or (math.isnan(old) and math.isnan(new))
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [f"{where}: {old!r} != {new!r}"]


def bundle_differences(old_dir: Path, new_dir: Path) -> list[str]:
    old_files = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_files = {p.name for p in new_dir.iterdir() if p.is_file()}
    out = [f"{name}: only in {'new' if name in new_files else 'old'}" for name in sorted(old_files ^ new_files)]
    for name in sorted(old_files & new_files):
        old_bytes, new_bytes = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
        if name == REPORT_JSON:
            out.extend(f"{name} {d}" for d in json_differences(json.loads(old_bytes), json.loads(new_bytes)))
        elif old_bytes != new_bytes:
            out.append(f"{name}: contents differ")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="reference report bundle directory")
    parser.add_argument("new", type=Path, help="report bundle directory to check")
    args = parser.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    differences = bundle_differences(args.old, args.new)
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)" if differences else "bundles agree")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
