"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

SC = run.load_package()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: keeps every workload at a few placements, one repetition pair
TINY = ["--seed", "7", "--seconds", "0", "--scale", "0.01"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_clean_and_prints_every_metric(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace, *TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOAD_NAMES[0], "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture(scope="module")
def cli_session(tmp_path_factory):
    """A tiny cli_queries session that ran one checked repetition."""
    work = tmp_path_factory.mktemp("bench")
    session = run.Session(SC, workloads.WORKLOADS["cli_queries"], 7, 0.01, work, None)
    session.setup(0, 1)
    session.rep(0)
    assert session.failed == 0, session.failures
    return session


def _report(session) -> dict:
    return json.loads(session.first[0]["report.json"])


def test_cli_queries_report_excludes_the_no_signal_location(cli_session):
    excluded = [(e["tx_id"], e["rx_id"]) for e in _report(cli_session)["excluded_locations"]]
    assert excluded == [workloads.NO_SIGNAL_LOCATION]


def test_a_failure_in_the_first_repetition_counts_once(tmp_path):
    session = run.Session(SC, workloads.WORKLOADS["cli_queries"], 7, 0.01, tmp_path, None)
    session.setup(0, 1)
    command = session.command

    def failing_first_pas_dump(rep, label, argv):
        if rep == 0 and label == "pas_dump":
            session.attempted += 1
            session.fail(rep, label, "exit 1")
            return None, 0.0, 0.0
        return command(rep, label, argv)

    session.command = failing_first_pas_dump
    for index in range(3):
        session.rep(index)
    assert session.failed == 1, session.failures


def test_perturbed_reference_number_is_caught(cli_session):
    report = checks.reference_view(_report(cli_session))
    assert checks.number_mismatches(report, _report(cli_session)) == []
    perturbed = copy.deepcopy(report)
    perturbed["pathloss"]["omni_vv"]["ple"] *= 1 + 1e-6
    found = checks.number_mismatches(perturbed, _report(cli_session))
    assert found and "pathloss.omni_vv.ple" in found[0]
    within = copy.deepcopy(report)
    within["pathloss"]["omni_vv"]["ple"] *= 1 + 1e-12
    assert checks.number_mismatches(within, _report(cli_session)) == []


def test_missing_report_key_is_caught(cli_session):
    report = _report(cli_session)
    reference = copy.deepcopy(checks.reference_view(report))
    reference["delay"]["20"]["extra_stat"] = 1.0
    assert checks.number_mismatches(reference, report)


def test_perturbed_reference_fails_the_run(cli_session, tmp_path):
    reference = copy.deepcopy(checks.reference_view(_report(cli_session)))
    reference["xpd"]["reflection"]["mean_db"] += 1e-3
    session = run.Session(SC, cli_session.workload, 7, 0.01, tmp_path, reference)
    session.setup(0, 1)
    session.rep(0)
    assert session.failed == 1
    assert "xpd.reflection.mean_db" in session.failures[0]


def test_cli_outputs_must_match_the_report(cli_session):
    report = _report(cli_session)
    outputs = cli_session.first[1]
    assert set(outputs) == {label for label, _ in workloads.query_commands(Path("m"))}
    assert checks.cli_mismatches(report, outputs) == []
    changed = copy.deepcopy(report)
    changed["pathloss"]["directional_vv"]["NB"]["sigma_db"] += 1e-9
    changed["angular"]["30"]["aoa_rmsas"]["p90"] += 1.0
    labels = {label for label, _ in checks.cli_mismatches(changed, outputs)}
    assert labels == {"fit_VV_NB", "stats_angular"}
