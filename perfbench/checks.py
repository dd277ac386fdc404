"""Output checks: reference numbers, run-to-run determinism, CLI/report agreement.

Each check returns a list of (operation label, message) mismatches; the
runner counts every operation with a mismatch as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: the gate refactors must pass: report numbers may move only this much
REFERENCE_REL_TOL = 1e-9

_SUMMARY_FIELDS = ("min", "max", "mean", "median", "p90")
_DELAY_ROWS = (("Omni RMSDS", "omni_rmsds"), ("Omni MDS", "omni_mds"), ("Dir RMSDS", "dir_rmsds"), ("Dir MDS", "dir_mds"))
_ANGULAR_ROWS = (("AOA lobes", "n_aoa_lobes"), ("AOD lobes", "n_aod_lobes"), ("AOA RMSAS", "aoa_rmsas"), ("AOD RMSAS", "aod_rmsas"))


def read_bundle(report_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(report_dir.iterdir())}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def count_rows(manifest: Path) -> int:
    """Recorded sweep rows (taps) over every sweep file of a campaign."""
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    rows = 0
    for rel in {entry["sweeps"] for entry in doc["locations"]}:
        lines = (manifest.parent / rel).read_text(encoding="utf-8").splitlines()
        # minus the column header
        rows += sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#")) - 1
    return rows


def reference_view(report: dict) -> dict:
    """What a stored reference keeps: everything but the per-file input digests."""
    return {k: v for k, v in report.items() if k != "inputs_sha256"}


def number_mismatches(reference, actual, where: str = "report.json") -> list[str]:
    """Every number, boolean and null of ``reference`` must sit at the same
    place in ``actual``, numbers within REFERENCE_REL_TOL relative.

    Strings are not compared, and keys only ``actual`` has are allowed, so
    reworded messages and added report sections pass.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in reference.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(number_mismatches(value, actual[key], f"{where}.{key}"))
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        out = []
        for i, (ref, act) in enumerate(zip(reference, actual)):
            out.extend(number_mismatches(ref, act, f"{where}[{i}]"))
        return out
    if reference is None or isinstance(reference, bool):
        return [] if actual is reference else [f"{where}: {actual!r} != {reference!r}"]
    if isinstance(reference, (int, float)):
        ok = (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and math.isclose(actual, reference, rel_tol=REFERENCE_REL_TOL, abs_tol=0.0)
        )
        return [] if ok else [f"{where}: {actual!r} != {reference!r}"]
    return []


def _summary_csv(report_section: dict, rows: tuple[tuple[str, str], ...]) -> str:
    lines = ["statistic,min,max,mean,median,p90"]
    for label, key in rows:
        for threshold, summary in report_section.items():
            values = ",".join(f"{summary[key][f]:.4f}" for f in _SUMMARY_FIELDS)
            lines.append(f"{label}-{threshold} dB,{values}")
    return "\n".join(lines) + "\n"


def cli_mismatches(report: dict, outputs: dict[str, str]) -> list[tuple[str, str]]:
    """CLI query outputs must equal the matching ``report.json`` values.

    Only the queries present in ``outputs`` are checked.
    """
    found: list[tuple[str, str]] = []
    for label, text in outputs.items():
        try:
            found.extend((label, message) for message in _query_mismatches(label, text, report))
        except (ValueError, KeyError, TypeError) as err:
            found.append((label, f"unreadable output: {err!r}"))
    return found


def _query_mismatches(label: str, text: str, report: dict) -> list[str]:
    pathloss = report["pathloss"]
    fits = {
        "fit_VV_omni": pathloss["omni_vv"],
        "fit_VH_omni": pathloss["omni_vh"],
        "fit_VV_B": pathloss["directional_vv"]["B"],
        "fit_VV_NBB": pathloss["directional_vv"]["NBB"],
        "fit_VV_NB": pathloss["directional_vv"]["NB"],
    }
    if label == "ingest":
        doc = json.loads(text)
        n_vv = sum(1 for loc in doc["locations"] if loc["polarization"] == "VV")
        counts = (report["campaign"]["n_locations"], report["campaign"]["n_vv"])
        return [] if (len(doc["locations"]), n_vv) == counts else ["location counts differ from report.json"]
    if label in fits:
        doc = json.loads(text)
        expected = fits[label]
        if expected is None:
            return ["report has no fit for this class"]
        found = [
            f"{key} {doc.get(key)!r} != report {expected[key]!r}"
            for key in ("ple", "sigma_db", "n_samples")
            if doc.get(key) != expected[key]
        ]
        if label == "fit_VH_omni" and doc.get("xpd_db") != (pathloss["cross_polar"] or {}).get("xpd_db"):
            found.append("xpd_db differs from report cross_polar")
        return found
    if label == "stats_delay":
        return [] if text == _summary_csv(report["delay"], _DELAY_ROWS) else ["delay table differs from report.json"]
    if label == "stats_angular":
        return [] if text == _summary_csv(report["angular"], _ANGULAR_ROWS) else ["angular table differs from report.json"]
    if label == "xpd_report":
        return [] if json.loads(text) == report["xpd"] else ["XPD summary differs from report.json"]
    if label == "pas_dump":
        lines = text.splitlines()
        return [] if lines[:1] == ["bin_deg,power_db"] and len(lines) > 1 else ["spectrum dump has no bins"]
    return []
