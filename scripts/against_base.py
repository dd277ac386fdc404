"""Compare what a base commit's code writes with what this checkout's writes.

    git archive <rev> src scripts | tar -x -C BASE_TREE
    python3 scripts/against_base.py BASE_TREE

Runs the base tree's ``src/`` (and its ``scripts/closed_loop_experiment.py``)
and this checkout's on the same inputs, one section per check:

- reports of seeds 1-3 at ``--n=200`` and on the factory layout, of seed 1 at
  ``--n=2000``, and of seed 1 at ``--n=200`` with its manifest naming every
  sweep file by absolute path, rendered by the base; this change reports each
  cold, warm and over the base's ingest-cache file, and each bundle is compared
  with the base's by ``compare_reports.bundle_differences`` and byte for byte;
- 11 queries on the six smaller renders and on seed 1's with its manifest
  entries shuffled, the ingest-cache file removed before each run;
- the six smaller renders' trees and ``--truth-out`` files;
- the closed-loop experiment at two argument sets;
- the help and argument errors of 32 command lines at ``COLUMNS=80``, five of them
  a bad option that must be rejected before a (missing) campaign is read;
- the error output of 7 faulty copies of a small render.

Prints each section as a fenced block under a Markdown heading, for a CI job
summary, and exits 1 if anything differs, 0 otherwise.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

from compare_reports import bundle_differences

#: this checkout, the change side of every comparison
CHANGE = Path(__file__).resolve().parents[1]
CACHE = ".manifest.json.ingest-cache"
#: (seed, layout) of the six renders most sections read
RENDERS = [(seed, layout) for seed in ("1", "2", "3") for layout in ("--n=200", "--factory-layout")]
#: the queries of perfbench's cli_queries plus ``xpd report`` as JSON and CSV; ``pas dump`` reads the first location
QUERIES = [
    "ingest --format json",
    *(f"fit pathloss --pol {pol} --kind {kind}" for pol, kind in (("VV", "omni"), ("VH", "omni"), ("VV", "B"),
                                                                 ("VV", "NBB"), ("VV", "NB"))),
    "stats delay", "stats angular", "pas dump --tx-id {tx} --rx-id {rx} --side AOA",
    "xpd report --format json", "xpd report --format csv",
]
COMMANDS = ["ingest", "fit", "fit pathloss", "stats", "stats delay", "stats angular", "pas", "pas dump", "xpd",
            "xpd report", "synth", "report"]
#: a bad option of each analysing command, which it rejects before it reads the (missing) campaign
BAD_OPTIONS = [f"{line} --manifest no-such-campaign/manifest.json" for line in (
    "report --out no-such-campaign/report --threshold-db nan", "report --out no-such-campaign/report --max-pl-db inf",
    "fit pathloss --carrier-hz 0", "stats delay --threshold-db -1",
    "pas dump --tx-id TX0001 --rx-id RX0001 --side AOA --threshold-db 0",
)]
CLI_LINES = ["", "--help", "--bogus", *(f"{command} {flag}" for command in COMMANDS for flag in ("--help", "--bogus")),
             *BAD_OPTIONS]
#: off the delay lattice at (180, 0), then at (8, 0), which sorts before it, a repeated delay
FAULTY_POINTINGS = """# noise_floor_db=-130.0
tx_az_deg,rx_az_deg,delay_ns,power_db
180.0,0.0,32.0,-75.0
180.0,0.0,33.0,-80.0
8.0,0.0,36.0,-90.0
8.0,0.0,36.0,-91.0
"""


def _entry(locations: list[dict], polarization: str) -> dict:
    return next(entry for entry in locations if entry["polarization"] == polarization)


#: (name, command, edit) of each faulty campaign; ``edit(lines, locations)`` edits in place the lines of the
#: first VV sweep file, each split at its commas (``lines[2]`` is the first data row), and the manifest's entries
ERROR_CASES = [
    ("bad azimuth", "ingest", lambda lines, locations: lines[2].__setitem__(0, "400.0")),
    ("NaN power", "ingest", lambda lines, locations: lines[2].__setitem__(3, "nan")),
    ("two faulty pointings", "ingest",
     lambda lines, locations: lines.__setitem__(slice(None), [row.split(",") for row in FAULTY_POINTINGS.splitlines()])),
    ("structural line after a bad value", "ingest",
     lambda lines, locations: lines.extend([["400.0", "0.0", "40.0", "-90.0"], ["1.0", "2.0"]])),
    ("missing los key", "ingest", lambda lines, locations: locations[1].pop("los")),
    ("off-grid azimuth", "stats angular",
     lambda lines, locations: lines[2].__setitem__(1, repr((float(lines[2][1]) + 3.0) % 360.0))),
    ("VH position moved", "xpd report",
     lambda lines, locations: _entry(locations, "VH")["rx_pos_m"].__setitem__(0, 0.5)),
]


def run(side: Path, argv: list[str], log: bool = False) -> dict[str, object]:
    """Exit code, stdout and stderr of ``python *argv`` on the ``src/`` of the tree ``side``, at ``COLUMNS=80``,
    logging at INFO if ``log``."""
    env = {**os.environ, "PYTHONPATH": str(side / "src"), "COLUMNS": "80"}
    env.pop("SUBTHZ_CHAN_LOG", None)
    if log:
        env["SUBTHZ_CHAN_LOG"] = "INFO"
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def cli(side: Path, line: str, *more: str, log: bool = False) -> dict[str, object]:
    """``run`` of ``subthz-chan``, ``line`` split into words, then ``more``."""
    return run(side, ["-m", "subthz_chan", *line.split(), *more], log)


def uncached(side: Path, line: str, manifest: Path) -> dict[str, object]:
    """``cli`` of ``line --manifest manifest``, the manifest's ingest-cache file removed first."""
    manifest.with_name(CACHE).unlink(missing_ok=True)
    return cli(side, line, "--manifest", str(manifest))


def differences(label: str, base: dict, change: dict, same: str | None = None) -> int:
    """Print each key whose value differs between ``base`` and ``change``, with the head of a diff, and
    ``label: same`` if none does; the number that differ."""
    differing = [key for key in dict.fromkeys([*base, *change]) if base.get(key) != change.get(key)]
    for key in differing:
        if key not in base or key not in change:
            print(f"{label}: {key} only in the {'base' if key in base else 'change'}")
            continue
        print(f"{label}: {key} differs")
        old, new = (value.decode(errors="replace") if isinstance(value, bytes) else f"{value}\n"
                    for value in (base[key], change[key]))
        print(*islice(difflib.unified_diff(old.splitlines(), new.splitlines(), "base", "change", lineterm=""), 40),
              sep="\n")
    if not differing and same is not None:
        print(f"{label}: {same}")
    return len(differing)


def files(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, by relative path; empty when there is no ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def synth(side: Path, out: Path, seed: str, *options: str) -> Path:
    """The manifest of ``subthz-chan synth --seed seed *options`` rendered by ``side`` into ``out``."""
    done = cli(side, f"synth --seed {seed} --out", str(out), *options)
    if done["exit code"]:
        raise RuntimeError(f"synth --seed {seed} {' '.join(options)} failed on {side}: {done['stderr'].decode()}")
    return out / "manifest.json"


def reports(base: Path, work: Path) -> int:
    differing = 0
    for seed, layout in [*RENDERS, ("1", "--n=2000"), ("absolute", "--n=200")]:
        label, root = f"seed {seed} {layout}", work / f"{seed}{layout}"
        manifest = synth(base, root / "campaign", seed.replace("absolute", "1"), layout)
        if seed == "absolute":  # every sweep file named by its absolute path
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            for entry in doc["locations"]:
                entry["sweeps"] = str(manifest.parent.resolve() / entry["sweeps"])
            manifest.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        cache = manifest.with_name(CACHE)
        # the change reports cold (the cache file removed), warm, then over the cache file the base wrote
        for name, side in (("base", base), ("change", CHANGE), ("change-warm", CHANGE),
                           ("change-over-base-cache", CHANGE)):
            if name == "change":
                base_cache = cache.read_bytes()
                cache.unlink()
            if name == "change-over-base-cache":
                cache.write_bytes(base_cache)
            (root / name).mkdir()
            done = cli(side, "report --manifest", str(manifest), "--out", str(root / name), log=True)
            bundle = {"exit code": done["exit code"], **files(root / name)}
            if name == "base":
                expected = bundle
                continue
            if name == "change-over-base-cache":
                load = re.search(r"ingest cache (\w+) for .*: (.*)", done["stderr"].decode(errors="replace"))
                print(f"{label}, {name}: " + (f"ingest cache {load[1]} ({load[2]})" if load else "no ingest cache line"))
            found = bundle_differences(root / "base", root / name)
            print(f"{label}, {name}: " + (f"{len(found)} report difference(s)" if found else "reports agree"), *found,
                  sep="\n  ")
            differing += bool(found) + differences(f"{label}, {name}, bundle bytes", expected, bundle, "identical")
    return differing


def queries(base: Path, work: Path) -> int:
    differing = 0
    for seed, layout in [*RENDERS, ("shuffled", "--n=200")]:
        label = f"seed {seed} {layout}"
        manifest = synth(base, work / f"{seed}{layout}", seed.replace("shuffled", "1"), layout)
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        if seed == "shuffled":  # the location entries shuffled, the same way on every run
            random.Random(7).shuffle(doc["locations"])
            manifest.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        found = 0
        for query in QUERIES:
            line = query.format(tx=doc["locations"][0]["tx_id"], rx=doc["locations"][0]["rx_id"])
            found += differences(f"{label}, subthz-chan {line}", uncached(base, line, manifest),
                                 uncached(CHANGE, line, manifest))
        print(f"{label}: {len(QUERIES)} queries compared, {found} outputs differ")
        differing += found
    return differing


def renders(base: Path, work: Path) -> int:
    differing = 0
    for seed, layout in RENDERS:
        outputs = []
        for i, side in enumerate((base, CHANGE)):
            out = work / f"{seed}{layout}-{i}"
            done = cli(side, f"synth --seed {seed} {layout} --out", str(out / "campaign"),
                       "--truth-out", str(out / "truth.json"))
            outputs.append({"exit code": done["exit code"], "stderr": done["stderr"], **files(out)})
        differing += differences(f"seed {seed} {layout}", *outputs, "tree and truth file identical")
    return differing


def closed_loop(base: Path, work: Path) -> int:
    differing = 0
    for args in ("--n 200 --seed 42", "--n 40 --seed 3"):
        outputs = [run(side, [str(side / "scripts" / "closed_loop_experiment.py"), *args.split()])
                   for side in (base, CHANGE)]
        differing += differences(f"closed_loop_experiment.py {args}", *outputs, "identical")
    return differing


def cli_lines(base: Path, work: Path) -> int:
    differing = sum(differences(f"subthz-chan {line}", cli(base, line), cli(CHANGE, line)) for line in CLI_LINES)
    print(f"{len(CLI_LINES)} command lines compared, {differing} outputs differ")
    return differing


def errors(base: Path, work: Path) -> int:
    render = synth(base, work / "render", "1", "--n=3")
    differing = 0
    for name, command, edit in ERROR_CASES:
        root = work / name
        shutil.copytree(render.parent, root)
        manifest = root / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        first = root / _entry(doc["locations"], "VV")["sweeps"]
        lines = [line.split(",") for line in first.read_text(encoding="utf-8").splitlines()]
        unedited = json.dumps(doc)
        edit(lines, doc["locations"])
        first.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")  # unedited: the same bytes
        if json.dumps(doc) != unedited:
            manifest.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        outputs = [uncached(side, command, manifest) for side in (base, CHANGE)]
        err = outputs[0]["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        same = f"identical, exit {outputs[0]['exit code']}: {''.join(err)}"
        differing += differences(f"{name} ({command})", *outputs, same)
    return differing


SECTIONS = [
    ("Reports", reports),
    ("Query outputs", queries),
    ("Rendered campaigns and truth files", renders),
    ("Closed-loop experiment", closed_loop),
    ("CLI help and argument errors", cli_lines),
    ("Error output", errors),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="a directory holding the base commit's src/ and scripts/")
    base = parser.parse_args(argv).base.resolve()
    if not (base / "src" / "subthz_chan").is_dir():
        parser.error(f"{base} holds no src/subthz_chan")
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for title, section in SECTIONS:
            print(f"### {title} of the base against this change\n```", flush=True)
            found = section(base, Path(tmp) / section.__name__)
            print(f"{found} difference(s)\n```", flush=True)
            total += found
    print(f"{total} difference(s) in all" if total else "every section identical")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
