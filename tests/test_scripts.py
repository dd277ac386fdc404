"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_generate_demo_campaign_writes_a_manifest(tmp_path):
    out = tmp_path / "demo"
    result = run_script("generate_demo_campaign.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / "manifest.json").is_file()
