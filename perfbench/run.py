#!/usr/bin/env python3
"""Benchmark of subthz-chan: seeded workloads, output checks, one JSON line.

    python3 perfbench/run.py --workload synth_report --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/`` tree, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last stdout line is the result object; a table for people precedes it.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import calibration
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: set-up repetitions; setup_s is the median
IMPORT_SAMPLES = 15
INPUT_SAMPLES = 5
#: repetitions run even when --seconds is already spent, so determinism is checked
MIN_REPS = 2

#: a fresh interpreter imports the package, then prints its own CPU seconds
#: so far and the calibration kernel's time, measured right after
_IMPORT_SNIPPET = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
import subthz_chan.cli
usage = resource.getrusage(resource.RUSAGE_SELF)
sys.path.insert(0, sys.argv[2])
import calibration
print(usage.ru_utime + usage.ru_stime, calibration.kernel_seconds(3))
"""


def load_package():
    """Import subthz_chan from this checkout's src/, or explain why not."""
    if not (SRC / "subthz_chan" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'subthz_chan'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import subthz_chan
    import subthz_chan.cli

    if Path(subthz_chan.__file__).resolve().parent != SRC / "subthz_chan":
        raise SystemExit(f"error: imported subthz_chan from {subthz_chan.__file__}, not {SRC}")
    return subthz_chan


class Session:
    """One benchmark process: runs commands, checks outputs, keeps times."""

    def __init__(self, sc, workload, seed: int, scale: float, work: Path, reference: dict | None):
        self.sc = sc
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[tuple[int, str]] = set()
        #: calibrated CPU seconds per operation kind; see calibration.py
        self.times: dict[str, list[float]] = {"import": [], "inputs": [], "synth": [], "report": [], "cli": []}
        #: uncalibrated CPU seconds of each report command
        self.raw_report: list[float] = []
        self.kernel_s: list[float] = []
        self.rep_cpu: list[float] = []
        self.rows = 0
        self.manifest: Path | None = None
        self.first: tuple[dict, dict] | None = None
        self.reference = reference

    def fail(self, rep: int, label: str, message: str) -> None:
        self.failed_ops.add((rep, label))
        self.failures.append(f"rep {rep} {label}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def timed(self, operation):
        """``operation()`` and its calibrated CPU seconds, between two kernel runs.

        Returns (result, calibrated seconds, raw CPU seconds).
        """
        # each operation starts from a collected heap, as in a fresh process
        gc.collect()
        before = calibration.kernel_seconds()
        start = process_time()
        try:
            result = operation()
        finally:
            raw = process_time() - start
            after = calibration.kernel_seconds()
            self.kernel_s += [before, after]
        return result, calibration.calibrated(raw, before, after), raw

    def command(self, rep: int, label: str, argv: list[str]) -> tuple[str | None, float, float]:
        """One in-process subthz-chan command: stdout, or None when it failed,
        then its calibrated and raw CPU seconds."""
        self.attempted += 1
        captured = io.StringIO()

        def main():
            try:
                with redirect_stdout(captured):
                    return self.sc.cli.main(argv)
            except Exception as err:  # a crash is a failed operation, not a dead benchmark
                return f"raised {type(err).__name__}: {err}"

        code, elapsed, raw = self.timed(main)
        if code != 0:
            self.fail(rep, label, f"exit {code}")
            return None, elapsed, raw
        return captured.getvalue(), elapsed, raw

    def setup(self, samples_imports: int, samples_inputs: int) -> None:
        for _ in range(samples_imports):
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_SNIPPET, str(SRC), str(HERE)],
                cwd=ROOT, check=True, capture_output=True, text=True,
            )
            raw, kernel_s = (float(v) for v in done.stdout.split())
            self.times["import"].append(calibration.calibrated(raw, kernel_s, kernel_s))
        if self.workload.renders_in_rep:
            return
        digests = set()
        size = self.workload.size(self.scale)
        for _ in range(samples_inputs):
            self.attempted += 1
            self.manifest, elapsed, _ = self.timed(
                lambda: workloads.render_inputs(size, self.seed, self.work / "inputs")
            )
            self.times["inputs"].append(elapsed)
            digests.add(checks.tree_digest(self.manifest.parent))
        if len(digests) != 1:
            self.fail(-1, "inputs", "repeated set-up wrote different campaign bytes")
        self.rows = checks.count_rows(self.manifest)

    def rep(self, index: int) -> None:
        """One repetition: [synth], report, queries; then every output check."""
        workload = self.workload
        cpu = 0.0
        manifest = self.manifest
        if workload.renders_in_rep:
            campaign = self.work / "campaign"
            # outputs are written over the previous repetition's files, so a
            # command that writes nothing must not pass on stale ones
            (campaign / "manifest.json").unlink(missing_ok=True)
            n = str(workload.size(self.scale))
            _, elapsed, _ = self.command(index, "synth", ["synth", "--n", n, "--seed", str(self.seed), "--out", str(campaign)])
            self.times["synth"].append(elapsed)
            cpu += elapsed
            manifest = campaign / "manifest.json"
            if not self.rows and manifest.is_file():
                self.rows = checks.count_rows(manifest)
        report_dir = self.work / "report"
        shutil.rmtree(report_dir, ignore_errors=True)
        done, elapsed, raw = self.command(index, "report", ["report", "--manifest", str(manifest), "--out", str(report_dir)])
        self.times["report"].append(elapsed)
        self.raw_report.append(raw)
        cpu += elapsed
        outputs: dict[str, str] = {}
        cli_total = 0.0
        queries = workloads.query_commands(manifest)
        for label, argv in queries[:1] if workload.renders_in_rep else queries:
            text, elapsed, _ = self.command(index, label, argv)
            cli_total += elapsed
            if text is not None:
                outputs[label] = text
        self.times["cli"].append(cli_total)
        self.rep_cpu.append(cpu + cli_total)
        bundle = checks.read_bundle(report_dir) if done is not None else {}
        self.check(index, bundle, outputs)

    def check(self, index: int, bundle: dict[str, bytes], outputs: dict[str, str]) -> None:
        try:
            report = json.loads(bundle["report.json"])
        except (KeyError, ValueError) as err:
            self.fail(index, "report", f"no readable report.json: {err!r}")
            return
        if self.first is None:
            # the outputs every later repetition must reproduce come from a
            # repetition without failures, so one failure is counted once
            if not any(rep == index for rep, _ in self.failed_ops):
                self.first = (bundle, outputs)
        else:
            first_bundle, first_outputs = self.first
            if bundle != first_bundle:
                self.fail(index, "report", "report bundle differs from the first repetition")
            for label, text in outputs.items():
                if first_outputs.get(label) != text:
                    self.fail(index, label, "output differs from the first repetition")
        if self.reference is not None:
            for message in checks.number_mismatches(self.reference, report)[:5]:
                self.fail(index, "report", message)
        for label, message in checks.cli_mismatches(report, outputs):
            self.fail(index, label, message)

    def loop(self, seconds: float, started: float, first_index: int = 0) -> None:
        index = first_index
        while index - first_index < MIN_REPS or perf_counter() - started < seconds:
            self.rep(index)
            index += 1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(session: Session) -> tuple[dict[str, float], dict[str, int]]:
    t = session.times
    synth = t["synth"] if session.workload.renders_in_rep else t["inputs"]
    report_s = _median(t["report"])
    values = {
        "setup_s": _median(t["import"]) + _median(t["inputs"]),
        "synth_s": _median(synth),
        "report_s": report_s,
        "report_taps_per_s": session.rows / report_s if report_s else 0.0,
        "cli_s": _median(t["cli"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(t["import"]),
        "synth_s": len(synth),
        "report_s": len(t["report"]),
        "report_taps_per_s": len(t["report"]),
        "cli_s": len(t["cli"]),
        "peak_rss_mb": 1,
    }
    return values, counts


def run_untraced(session: Session, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    session.setup(IMPORT_SAMPLES, INPUT_SAMPLES)
    session.loop(seconds, perf_counter())
    return end_to_end(session)


def run_traced(session: Session, seconds: float) -> tuple[dict[str, float], dict[str, int]]:
    """A traced set-up, then one traced repetition among untraced ones.

    The first repetition runs untraced, so the traced one, like every later
    one, overwrites existing files and finds the interpreter warm.
    """
    started = perf_counter()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("bench.setup"):
        session.setup(0, 1)
    session.rep(0)
    with tracing.instrument(tracer), tracer.span("bench.rep"):
        session.rep(1)
    session.loop(seconds, started, first_index=2)
    values = tracing.layer_metrics(tracer)
    untraced = session.rep_cpu[:1] + session.rep_cpu[2:]
    values["tracing.overhead_s"] = session.rep_cpu[1] - _median(untraced)
    tracing.write_spans(tracer, OUT / "traces" / f"{session.workload.name}.spans.tsv")
    return values, {name: 1 for name in values}


def _table(session: Session, spec: list[dict], values: dict, counts: dict) -> str:
    lines = [
        f"workload {session.workload.name}  seed {session.seed}  scale {session.scale:g}  "
        f"placements {session.workload.size(session.scale)}  repetitions {len(session.times['report'])}",
        f"{'metric':40s} {'value':>16s}  {'unit':8s} {'n':>3s}",
    ]
    for metric in spec:
        name = metric["name"]
        lines.append(f"{name:40s} {values[name]:16.6g}  {metric['unit']:8s} {counts[name]:3d}")
    lines.append("not gated:")
    if "synth_s" in values:
        lines.append(f"{'synth_s':40s} {values['synth_s']:16.6g}  {'s':8s} {counts['synth_s']:3d}")
    frac = session.failed / session.attempted if session.attempted else 0.0
    lines.append(f"{'failed_frac':40s} {frac:16.6g}  {'1':8s} {session.attempted:3d}")
    # the host speed behind the calibrated times, for telling slow phases apart
    lines.append(f"{'report_uncalibrated_s':40s} {_median(session.raw_report):16.6g}  {'s':8s} {len(session.raw_report):3d}")
    lines.append(f"{'calibration_kernel_s':40s} {_median(session.kernel_s):16.6g}  {'s':8s} {len(session.kernel_s):3d}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="subthz-chan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every workload's placements (tests use small values)")
    parser.add_argument("--write-reference", action="store_true", help="store this run's report.json as the reference")
    args = parser.parse_args(argv)

    sc = load_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    reference = None
    reference_path = HERE / "reference" / f"{args.workload}.json"
    if args.seed == workloads.DEFAULT_SEED and args.scale == 1.0 and not args.write_reference:
        reference = json.loads(reference_path.read_text(encoding="utf-8"))
    session = Session(sc, workloads.WORKLOADS[args.workload], args.seed, args.scale, work, reference)
    try:
        runner = run_traced if args.trace else run_untraced
        values, counts = runner(session, args.seconds)
        if args.write_reference:
            _write_reference(session, reference_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in session.failures[:20]:
        print(f"failure: {line}", file=sys.stderr)
    print(_table(session, metrics_spec, values, counts))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


def _write_reference(session: Session, path: Path) -> None:
    if session.first is None:
        raise SystemExit("error: no report to store")
    report = json.loads(session.first[0]["report.json"])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(checks.reference_view(report), indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
