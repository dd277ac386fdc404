"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""
from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from subthz_chan import SynthesisParams, render_campaign
from subthz_chan.cli import main

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "scripts" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_closed_loop_experiment_prints_its_table():
    result = run_script("closed_loop_experiment.py", "--n", "40", "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert "40 placements, seed 3" in result.stdout
    assert "truth" in result.stdout and "recovered" in result.stdout


@pytest.fixture(scope="module")
def two_bundles(tmp_path_factory):
    """Two report bundles of the same rendered campaign."""
    root = tmp_path_factory.mktemp("bundles")
    manifest = render_campaign(SynthesisParams(), 6, 4, root / "campaign").manifest_path
    for name in ("old", "new"):
        assert main(["report", "--manifest", str(manifest), "--out", str(root / name)]) == 0
    return root / "old", root / "new"


def edited_copy(bundle: Path, dest: Path, name: str, edit) -> Path:
    shutil.copytree(bundle, dest)
    path = dest / name
    path.write_text(edit(path.read_text()))
    return dest


def scale_ple(text: str, factor: float) -> str:
    doc = json.loads(text)
    doc["pathloss"]["omni_vv"]["ple"] *= factor
    return json.dumps(doc, indent=2, sort_keys=True)


class TestCompareReports:
    def test_identical_bundles_agree(self, two_bundles):
        result = run_script("compare_reports.py", *map(str, two_bundles))
        assert result.returncode == 0, result.stdout
        assert "bundles agree" in result.stdout

    def test_number_within_tolerance_agrees(self, two_bundles, tmp_path):
        old, new = two_bundles
        near = edited_copy(new, tmp_path / "near", "report.json", lambda t: scale_ple(t, 1 + 1e-12))
        assert run_script("compare_reports.py", str(old), str(near)).returncode == 0

    def test_differences_are_reported(self, two_bundles, tmp_path):
        old, new = two_bundles
        far = edited_copy(new, tmp_path / "far", "report.json", lambda t: scale_ple(t, 1 + 1e-6))
        renamed = edited_copy(new, tmp_path / "renamed", "report.json", lambda t: t.replace('"id": "', '"id": "x', 1))
        csv = edited_copy(new, tmp_path / "csv", "delay_stats.csv", lambda t: t.replace(".", ",", 1))
        missing = tmp_path / "missing"
        shutil.copytree(new, missing)
        (missing / "xpd_cdf.csv").unlink()
        for bundle, expected in (
            (far, "report.json $.pathloss.omni_vv.ple"),
            (renamed, "report.json $.campaign.id"),
            (csv, "delay_stats.csv: contents differ"),
            (missing, "xpd_cdf.csv: only in old"),
        ):
            result = run_script("compare_reports.py", str(old), str(bundle))
            assert result.returncode == 1, bundle
            assert expected in result.stdout
        assert compare_reports.json_differences({"a": [1, "x"]}, {"a": [1, "y"]}) == ["$.a[1]: 'x' != 'y'"]
        assert compare_reports.json_differences({"n": 3}, {"n": 3.0000000001}) == []
        assert compare_reports.json_differences({"n": 3}, {"n": 4}) == ["$.n: 3 != 4"]
        assert compare_reports.json_differences({"f": True}, {"f": 1}) == ["$.f: True != 1"]
