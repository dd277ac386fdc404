"""Command-line interface, exercised in-process through main()."""
from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_location, make_pdp
from test_columnar import loop_pas

from subthz_chan import (
    Campaign,
    Polarization,
    Side,
    SynthesisParams,
    ValidationError,
    cli,
    ingest_campaign,
    linear_to_db,
    render_campaign,
    write_campaign,
)
from subthz_chan.cli import EXIT_DEGENERATE_FIT, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_campaign")
    return render_campaign(SynthesisParams(), 4, 17, out).manifest_path


def one_location_manifest(tmp_path):
    campaign = Campaign(
        "tiny",
        142e9,
        0.0,
        (make_location([make_pdp([100.0], [-60.0], floor=-130.0)], distance=10.0),),
    )
    return write_campaign(campaign, tmp_path / "tiny")


#: (argv, message) of each option value the CLI rejects before it reads a campaign
NON_FINITE_ARGUMENTS = [
    (["stats", "delay", "--threshold-db", "nan"], "threshold_db: must be > 0, got nan"),
    (["stats", "angular", "--threshold-db", "nan"], "threshold_db: must be > 0, got nan"),
    (["fit", "pathloss", "--carrier-hz", "nan"], "carrier_hz: must be > 0 and finite, got nan"),
    (["fit", "pathloss", "--carrier-hz", "inf"], "carrier_hz: must be > 0 and finite, got inf"),
    (["fit", "pathloss", "--max-pl-db", "nan"], "max_measurable_pl_db: must be > 0 or None, got nan"),
    (
        ["pas", "dump", "--tx-id", "TX0001", "--rx-id", "RX0001", "--side", "AOA", "--threshold-db", "nan"],
        "threshold_db: must be > 0, got nan",
    ),
    (["report", "--threshold-db", "nan"], "threshold_db: must be > 0, got nan"),
    (["report", "--carrier-hz", "nan"], "carrier_hz: must be > 0 and finite, got nan"),
    (["report", "--max-pl-db", "nan"], "max_measurable_pl_db: must be > 0 or None, got nan"),
]

#: (argv, message) of the infinite values the CLI rejects as it rejects NaN; 1e400 parses as inf, and a
#: non-positive ``--max-pl-db`` stays the way to ask for no ceiling
INFINITE_ARGUMENTS = [
    (["report", "--threshold-db", "inf"], "threshold_db: must be > 0 and finite, got inf"),
    (["report", "--threshold-db", "1e400"], "threshold_db: must be > 0 and finite, got inf"),
    (["report", "--max-pl-db", "inf"], "max_measurable_pl_db: must be > 0 and finite, or None, got inf"),
    (["fit", "pathloss", "--max-pl-db", "inf"], "max_measurable_pl_db: must be > 0 and finite, or None, got inf"),
    (["stats", "delay", "--threshold-db", "inf"], "threshold_db: must be > 0 and finite, got inf"),
    (["stats", "angular", "--threshold-db", "inf"], "threshold_db: must be > 0 and finite, got inf"),
    (
        ["pas", "dump", "--tx-id", "TX0001", "--rx-id", "RX0001", "--side", "AOA", "--threshold-db", "inf"],
        "threshold_db: must be > 0 and finite, got inf",
    ),
]

#: (--threshold-db values, message) of thresholds whose report labels coincide
REPEATED_LABELS = [
    (["30", "30.0000001"], "thresholds_db: 30.0 and 30.0000001 share the label '30'"),
    (["20", "20"], "thresholds_db: 20.0 and 20.0 share the label '20'"),
    (["20", "30", "20.0"], "thresholds_db: 20.0 and 20.0 share the label '20'"),
]


class TestExitCodes:
    def test_report_ok(self, manifest, tmp_path):
        assert main(["report", "--manifest", str(manifest), "--out", str(tmp_path)]) == EXIT_OK

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code = main(["ingest", "--manifest", str(tmp_path / "nope.json")])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_malformed_manifest_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", "--manifest", str(bad)]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_degenerate_fit_code(self, tmp_path, capsys):
        path = one_location_manifest(tmp_path)
        code = main(["fit", "pathloss", "--manifest", str(path)])
        assert code == EXIT_DEGENERATE_FIT
        assert "error:" in capsys.readouterr().err

    def test_report_has_no_seed_option(self, manifest, tmp_path, capsys):
        # nothing in the analysis is drawn at random, so there is no seed to set
        with pytest.raises(SystemExit) as exc:
            main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "r"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_threshold_is_validation_error(self, manifest, capsys):
        code = main(
            ["stats", "delay", "--manifest", str(manifest), "--threshold-db", "-5"]
        )
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [*NON_FINITE_ARGUMENTS, *INFINITE_ARGUMENTS])
    def test_non_finite_argument_exits_2(self, manifest, tmp_path, capsys, argv, message):
        out = tmp_path / "report"
        argv = [*argv, "--manifest", str(manifest), *(["--out", str(out)] if argv[0] == "report" else [])]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["report"], ["stats", "delay"], ["stats", "angular"]])
    @pytest.mark.parametrize("thresholds, message", REPEATED_LABELS)
    def test_repeated_threshold_label_exits_2(self, manifest, tmp_path, capsys, command, thresholds, message):
        out = tmp_path / "report"
        argv = [*command, "--manifest", str(manifest), "--out", str(out)]
        for t in thresholds:
            argv += ["--threshold-db", t]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            *NON_FINITE_ARGUMENTS,
            (["stats", "delay", "--threshold-db", "20", "--threshold-db", "20"], REPEATED_LABELS[1][1]),
            *INFINITE_ARGUMENTS,
        ],
    )
    def test_argument_checked_before_ingest(self, manifest, tmp_path, capsys, monkeypatch, argv, message):
        calls = []
        monkeypatch.setattr(cli, "load_campaign", lambda path: calls.append(path))
        argv = [*argv, "--manifest", str(manifest), *(["--out", str(tmp_path / "r")] if argv[0] == "report" else [])]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize(
        "argv, key, literal, message",
        [
            (["fit", "pathloss"], ("carrier_hz",), "NaN", "carrier_hz: must be finite, got nan"),
            (["fit", "pathloss"], ("tx_power_dbm",), "Infinity", "tx_power_dbm: must be finite, got inf"),
            (["ingest"], ("carrier_hz",), "1" + "0" * 400, "carrier_hz: must be finite, got inf"),
            (["ingest"], ("carrier_hz",), "1" + "0" * 5000, "carrier_hz: must be finite, got inf"),
            (
                ["stats", "delay"],
                ("locations", 0, "antenna", "gain_dbi"),
                "NaN",
                "locations[0].antenna.gain_dbi: must be finite, got nan",
            ),
            (
                ["xpd", "report"],
                ("locations", 0, "antenna", "gain_dbi"),
                "1" + "0" * 400,
                "locations[0].antenna.gain_dbi: must be finite, got inf",
            ),
            (
                ["fit", "pathloss"],
                ("locations", 0, "tx_pos_m", 0),
                "1" + "0" * 400,
                "key 'locations[0].tx_pos_m' must be a 3-vector of finite numbers",
            ),
        ],
    )
    def test_manifest_number_no_float_holds_exits_2(self, manifest, tmp_path, capsys, argv, key, literal, message):
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in doc["locations"]:
            entry["sweeps"] = str(manifest.parent / entry["sweeps"])
        target = doc
        for step in key[:-1]:
            target = target[step]
        target[key[-1]] = "@literal@"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc).replace('"@literal@"', literal), encoding="utf-8")
        assert main([*argv, "--manifest", str(edited)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {edited}: {message}\n")


def three_location_manifest(tmp_path):
    """Three co-polar locations, each one sweep of taps at -60/-70 dB over a -90 dB floor."""
    sweeps = (make_pdp([100.0, 102.0], [-60.0, -70.0], floor=-90.0),)
    locations = [make_location(sweeps, distance=10.0 * (i + 1), tx_id=f"TX{i}") for i in range(3)]
    return write_campaign(Campaign("range", 142e9, 0.0, locations), tmp_path / "range")


def with_taps(manifest, powers, floor):
    """Set the taps of location 1 of ``manifest`` (its sweep file) to ``powers`` over ``floor``;
    returns that file, after checking that ``Campaign`` refuses the same columns."""
    columns = ingest_campaign(manifest).columns
    edited = dataclasses.replace(columns, power_db=np.array([*columns.power_db[:2], *powers, *columns.power_db[4:]]))
    with pytest.raises(ValidationError, match=rf"^locations\[1\]\.power_db: power {powers[0]!r} dB outside \[-1000, 1000\]$"):
        Campaign("range", 142e9, 0.0, edited)
    sweep_file = manifest.parent / "sweeps" / "TX1_RX1_VV.csv"
    lines = sweep_file.read_text().splitlines(keepends=True)
    lines[0] = f"# noise_floor_db={floor!r}\n"
    lines[2:] = [line.rsplit(",", 1)[0] + f",{p!r}\n" for line, p in zip(lines[2:], powers)]
    sweep_file.write_text("".join(lines))
    return sweep_file


#: the subcommands that analyse a campaign, with the arguments each needs beyond the manifest
ANALYSES = [["report", "--out"], ["fit", "pathloss"], ["stats", "delay"], ["stats", "angular"]]


def run_analysis(argv, manifest, tmp_path) -> int:
    out = ["--out", str(tmp_path / "report")] if argv[-1] == "--out" else []
    return main([*(argv[:1] if out else argv), "--manifest", str(manifest), *out])


class TestValuesOutsideTheFloatRange:
    """Finite dB values whose linear power no float holds are refused where they are read,
    not met as an overflow, a math domain error or a NaN statistic."""

    @pytest.mark.parametrize("argv", ANALYSES, ids=" ".join)
    def test_taps_far_above_the_reference_exit_2(self, tmp_path, capsys, argv):
        manifest = three_location_manifest(tmp_path)
        sweep_file = with_taps(manifest, (4000.0, 3990.0), -90.0)
        assert run_analysis(argv, manifest, tmp_path) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: power_db: power 4000.0 dB outside [-1000, 1000] ({sweep_file}:3)\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("argv", ANALYSES, ids=" ".join)
    def test_taps_far_below_the_reference_exit_2(self, tmp_path, capsys, argv):
        manifest = three_location_manifest(tmp_path)
        sweep_file = with_taps(manifest, (-4000.0, -4010.0), -5000.0)
        assert run_analysis(argv, manifest, tmp_path) == EXIT_VALIDATION
        captured = capsys.readouterr()
        message = f"power_db: power -4000.0 dB outside [-1000, 1000] ({sweep_file}:3)"
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", ANALYSES, ids=" ".join)
    def test_gain_far_above_any_antenna_exits_2(self, tmp_path, capsys, argv):
        manifest = three_location_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["locations"][1]["antenna"]["gain_dbi"] = 2000.0
        manifest.write_text(json.dumps(doc))
        assert run_analysis(argv, manifest, tmp_path) == EXIT_VALIDATION
        message = "locations[1].antenna.gain_dbi: must be <= 1000, got 2000.0"
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
        columns = ingest_campaign(three_location_manifest(tmp_path / "again")).columns
        antenna = columns.rx_antenna.copy()
        antenna[1, 0] = 2000.0
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            Campaign("range", 142e9, 0.0, dataclasses.replace(columns, rx_antenna=antenna))

    @pytest.mark.parametrize("argv", ANALYSES, ids=" ".join)
    def test_a_delay_past_the_limit_exits_2(self, tmp_path, capsys, argv):
        # a 2e200 ns delay squares to inf in the delay moments; 1e50 ns is the most a campaign holds
        manifest = three_location_manifest(tmp_path)
        columns = ingest_campaign(manifest).columns
        delay = columns.delay_ns.copy()
        delay[3] = 2e200
        with pytest.raises(ValidationError, match=r"^locations\[1\]\.delay_ns: delay 2e\+200 must be <= 1e\+50$"):
            Campaign("range", 142e9, 0.0, dataclasses.replace(columns, delay_ns=delay))
        sweep_file = manifest.parent / "sweeps" / "TX1_RX1_VV.csv"
        text = sweep_file.read_text()
        assert text.endswith(",102.0,-70.0\n")
        sweep_file.write_text(text.replace(",102.0,-70.0\n", ",2e+200,-70.0\n"))
        message = f"delay_ns: delay 2e+200 must be <= 1e+50 ({sweep_file}:4)"
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            ingest_campaign(manifest)
        assert run_analysis(argv, manifest, tmp_path) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "report").exists()


class TestIngest:
    def test_a_zero_carrier_exits_2_naming_the_manifest(self, tmp_path, capsys):
        manifest = three_location_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["carrier_hz"] = 0
        manifest.write_text(json.dumps(doc))
        assert main(["ingest", "--manifest", str(manifest)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {manifest}: carrier_hz: must be > 0\n")

    def test_text_summary(self, manifest, capsys):
        assert main(["ingest", "--manifest", str(manifest)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("campaign ")
        assert "8 locations" in out
        assert "TX0001-RX0001 VV" in out

    def test_text_summary_escapes_a_lone_surrogate_in_an_id(self, tmp_path, capsys):
        manifest = render_campaign(SynthesisParams(), 3, 1, tmp_path / "render").manifest_path
        assert main(["ingest", "--manifest", str(manifest)]) == EXIT_OK
        expected = capsys.readouterr().out
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        tx_id = doc["locations"][-1]["tx_id"]
        doc["locations"][-1]["tx_id"] = "TX\ud800"  # no encoding writes a lone surrogate; JSON escapes it
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", "--manifest", str(manifest)]) == EXIT_OK
        out = capsys.readouterr().out
        head, last = expected.rstrip("\n").rsplit("\n", 1)
        escaped = last.replace(f"  {tx_id}-", "  TX\\ud800-", 1)
        # printed in full; every other line keeps its bytes, and the id is backslash-escaped
        assert out == head + "\n" + escaped + "\n" and escaped != last
        assert len(out.splitlines()) == 7

    def test_json_summary(self, manifest, capsys):
        assert main(["ingest", "--manifest", str(manifest), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["carrier_hz"] == 142e9
        assert len(doc["locations"]) == 8
        assert {"tx_id", "rx_id", "polarization", "distance_m", "los", "n_sweeps", "n_detectable"} <= set(
            doc["locations"][0]
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["locations"].append(doc["locations"][0]),
                "locations[8]: repeats location TX0001-RX0001 (VH) of locations[0]\n",
            ),
            (lambda doc: doc["locations"][3].update(sweeps=""), "key 'locations[3].sweeps' must name a file\n"),
        ],
    )
    def test_bad_entry_exits_2_naming_the_manifest(self, manifest, tmp_path, capsys, edit, message):
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        edit(doc)
        for entry in doc["locations"]:
            entry["sweeps"] = entry["sweeps"] and str(manifest.parent / entry["sweeps"])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", "--manifest", str(edited)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {edited}: {message}")

    @pytest.mark.parametrize("sweeps", [".", "sweeps"])
    def test_sweeps_naming_a_directory_exits_2(self, manifest, tmp_path, capsys, sweeps):
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["locations"][3]["sweeps"] = sweeps
        for entry in doc["locations"]:
            entry["sweeps"] = str(manifest.parent / entry["sweeps"])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", "--manifest", str(edited)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {edited}: key 'locations[3].sweeps' must name a file\n"

    @pytest.mark.parametrize("command", [["ingest"], ["stats", "delay"], ["report"]], ids=" ".join)
    def test_nul_in_sweeps_exits_2_naming_the_entry(self, manifest, tmp_path, capsys, command):
        # no file name holds a NUL, so the path names no file, as a directory's does
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        for entry in doc["locations"]:
            entry["sweeps"] = str(manifest.parent / entry["sweeps"])
        doc["locations"][3]["sweeps"] = doc["locations"][3]["sweeps"].replace("/sweeps/", "/sweeps/\0", 1)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        out = ["--out", str(tmp_path / "r")] if command == ["report"] else []
        assert main([*command, "--manifest", str(edited), *out]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {edited}: key 'locations[3].sweeps' must name a file\n"


class TestFit:
    def test_vv_fit_fields(self, manifest, capsys):
        assert main(["fit", "pathloss", "--manifest", str(manifest)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"ple", "sigma_db", "n_samples", "fspl_anchor_db"}
        assert doc["n_samples"] == 4

    def test_vh_fit_adds_xpd(self, manifest, capsys):
        assert main(["fit", "pathloss", "--manifest", str(manifest), "--pol", "VH"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "xpd_db" in doc
        assert 15.0 < doc["xpd_db"] < 40.0

    def test_scatter_csv(self, manifest, tmp_path, capsys):
        out = tmp_path / "scatter.csv"
        code = main(
            ["fit", "pathloss", "--manifest", str(manifest), "--scatter-csv", str(out)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "distance_m,pl_db"
        assert len(lines) == 5
        for line in lines[1:]:
            d, pl = line.split(",")
            assert float(d) > 0 and float(pl) > 60.0


class TestStats:
    def test_threshold_filtering(self, manifest, capsys):
        code = main(
            ["stats", "delay", "--manifest", str(manifest), "--threshold-db", "25"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "statistic,min,max,mean,median,p90"
        assert len(lines) > 1
        for line in lines[1:]:
            assert line.split(",")[0].endswith("-25 dB")

    def test_angular_to_file(self, manifest, tmp_path, capsys):
        out = tmp_path / "angular.csv"
        code = main(["stats", "angular", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        text = out.read_text()
        assert "AOA lobes-20 dB" in text
        assert "AOD RMSAS-30 dB" in text


    @pytest.mark.parametrize("section", ["delay", "angular"])
    def test_no_signal_names_the_section(self, tmp_path, capsys, section):
        # two placements, every sweep below its noise floor
        locations = [
            make_location([make_pdp([100.0], [-140.0], floor=-130.0)], distance=10.0 * (i + 1), pol=pol, rx_id=f"RX{i}")
            for i in range(2)
            for pol in Polarization
        ]
        manifest = write_campaign(Campaign("silent", 142e9, 0.0, locations), tmp_path / "silent")
        assert main(["stats", section, "--manifest", str(manifest)]) == EXIT_VALIDATION
        message = f"{section} summary: no location has a sweep that clears the noise floor"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert main(["report", "--manifest", str(manifest), "--out", str(tmp_path / "report")]) == EXIT_DEGENERATE_FIT
        assert "cannot fit the co-polar model" in capsys.readouterr().err


class TestPasDump:
    def test_dump_header_and_rows(self, manifest, capsys):
        code = main(
            [
                "pas",
                "dump",
                "--manifest",
                str(manifest),
                "--tx-id",
                "TX0001",
                "--rx-id",
                "RX0001",
                "--side",
                "AOA",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bin_deg,power_db"
        assert len(lines) > 1
        for line in lines[1:]:
            bin_deg, power_db = (float(v) for v in line.split(","))
            assert 0.0 <= bin_deg < 360.0
            assert power_db < 0.0

    @pytest.mark.parametrize(
        "tx_id, pol, side, threshold_db",
        [("TX0001", "VV", "AOA", 30.0), ("TX0002", "VV", "AOD", 20.0), ("TX0003", "VH", "AOA", 10.0)],
    )
    def test_dump_matches_loop_oracle(self, manifest, capsys, tx_id, pol, side, threshold_db):
        rx_id = tx_id.replace("TX", "RX")
        argv = ["pas", "dump", "--manifest", str(manifest), "--tx-id", tx_id, "--rx-id", rx_id, "--pol", pol,
                "--side", side, "--threshold-db", str(threshold_db)]
        assert main(argv) == EXIT_OK
        campaign = ingest_campaign(manifest)
        loc = campaign[campaign.find((tx_id, rx_id, Polarization(pol)))]
        bins, powers = loop_pas(loc, Side(side), threshold_db)
        rows = ["%.4f,%.4f\n" % (b, linear_to_db(p)) for b, p in zip(bins, powers) if p > 0]
        assert capsys.readouterr().out == "bin_deg,power_db\n" + "".join(rows)

    def test_unknown_location_is_validation_error(self, manifest, capsys):
        code = main(
            [
                "pas",
                "dump",
                "--manifest",
                str(manifest),
                "--tx-id",
                "TX9999",
                "--rx-id",
                "RX9999",
                "--side",
                "AOA",
            ]
        )
        assert code == EXIT_VALIDATION
        capsys.readouterr()


class TestXpdReport:
    def test_json_classes(self, manifest, capsys):
        assert main(["xpd", "report", "--manifest", str(manifest)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) <= {"boresight", "reflection"}
        for summary in doc.values():
            assert summary["n"] >= 1
            assert 10.0 < summary["mean_db"] < 45.0

    def test_csv_format(self, manifest, capsys):
        code = main(["xpd", "report", "--manifest", str(manifest), "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "path_class,xpd_db,cdf"

    def test_vv_only_campaign_has_no_classes(self, tmp_path, capsys):
        manifest = three_location_manifest(tmp_path)
        assert main(["xpd", "report", "--manifest", str(manifest)]) == EXIT_OK
        assert capsys.readouterr() == ("{}\n", "")
        assert main(["xpd", "report", "--manifest", str(manifest), "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr() == ("path_class,xpd_db,cdf\n", "")


class TestReportAgreement:
    """Every query subcommand prints exactly its section of the report bundle."""

    @pytest.fixture(scope="class")
    def bundle(self, manifest, tmp_path_factory):
        out = tmp_path_factory.mktemp("agreement")
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        return out

    def query(self, capsys, *argv):
        capsys.readouterr()
        assert main(list(argv)) == EXIT_OK
        return capsys.readouterr().out

    def test_fits_match_report(self, manifest, bundle, capsys):
        pathloss = json.loads((bundle / "report.json").read_text())["pathloss"]
        m = ["fit", "pathloss", "--manifest", str(manifest)]
        assert json.loads(self.query(capsys, *m)) == pathloss["omni_vv"]
        vh = json.loads(self.query(capsys, *m, "--pol", "VH"))
        assert vh.pop("xpd_db") == pathloss["cross_polar"]["xpd_db"]
        assert vh == pathloss["omni_vh"]
        for kind in ("B", "NBB", "NB"):
            doc = json.loads(self.query(capsys, *m, "--kind", kind))
            assert doc == pathloss["directional_vv"][kind]

    def test_stats_match_bundle_csv(self, manifest, bundle, capsys):
        for kind, name in (("delay", "delay_stats.csv"), ("angular", "angular_stats.csv")):
            text = self.query(capsys, "stats", kind, "--manifest", str(manifest))
            assert text == (bundle / name).read_text()

    def test_xpd_matches_report(self, manifest, bundle, capsys):
        m = ["xpd", "report", "--manifest", str(manifest)]
        report = json.loads((bundle / "report.json").read_text())
        assert json.loads(self.query(capsys, *m)) == report["xpd"]
        assert self.query(capsys, *m, "--format", "csv") == (bundle / "xpd_cdf.csv").read_text()


class TestLazySections:
    def test_one_placement_queries_run_without_the_report(self, tmp_path, capsys):
        """One placement is too few for the co-polar omni fit, which only the
        report needs; the queries that do not need it still answer."""
        m = ["--manifest", str(render_campaign(SynthesisParams(), 1, 1, tmp_path / "c").manifest_path)]
        for argv in (
            ["fit", "pathloss", *m, "--kind", "NB"],
            ["fit", "pathloss", *m, "--pol", "VH", "--kind", "NB"],
            ["stats", "delay", *m],
            ["xpd", "report", *m],
        ):
            assert main(argv) == EXIT_OK, argv
        assert main(["report", *m, "--out", str(tmp_path / "r")]) == EXIT_DEGENERATE_FIT
        capsys.readouterr()


class TestSynth:
    def test_synth_then_report(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        code = main(["synth", "--n", "3", "--seed", "9", "--out", str(out)])
        assert code == EXIT_OK
        manifest_line = capsys.readouterr().out.strip()
        assert manifest_line.endswith("manifest.json")
        code = main(["report", "--manifest", manifest_line, "--out", str(tmp_path / "rep")])
        assert code == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "rep" / "report.json").exists()

    def test_synth_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert (
                main(["synth", "--n", "2", "--seed", "3", "--out", str(tmp_path / sub)])
                == EXIT_OK
            )
        capsys.readouterr()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_factory_layout_flag(self, tmp_path, capsys):
        out = tmp_path / "factory"
        code = main(["synth", "--factory-layout", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["locations"]) == 26

    def test_truth_out_matches_direct_render(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        truth_path = tmp_path / "truth.json"
        code = main(
            [
                "synth",
                "--n",
                "2",
                "--seed",
                "11",
                "--out",
                str(out),
                "--truth-out",
                str(truth_path),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        truth = json.loads(truth_path.read_text())
        rendered = render_campaign(SynthesisParams(), 2, 11, tmp_path / "direct")
        assert len(truth) == 2
        columns = rendered.truth
        taps, lobes = columns.tap_bounds.tolist(), columns.lobe_bounds.tolist()
        for i, doc in enumerate(truth):
            assert doc["distance_m"] == columns.distance_m[i]
            assert doc["pl_db"] == columns.pl_db[i]
            assert doc["seed"] == columns.seed[i]
            assert len(doc["lobes"]) == lobes[i + 1] - lobes[i]
            for lobe_doc, lobe in zip(doc["lobes"], range(lobes[i], lobes[i + 1])):
                assert lobe_doc["center_deg"] == columns.center_deg[lobe]
                delays = columns.delay_ns[taps[lobe] : taps[lobe + 1]].tolist()
                assert [t["delay_ns"] for t in lobe_doc["taps"]] == delays

    def test_params_file(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(SynthesisParams(ple=2.2).to_json_dict()))
        out = tmp_path / "campaign"
        code = main(
            ["synth", "--n", "2", "--seed", "4", "--out", str(out), "--params", str(params_path)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert (out / "manifest.json").exists()

    def test_custom_delay_lattice_reads_back(self, tmp_path, capsys):
        # the rendered lattice travels in the manifest, so no query needs a flag for it
        params_path = tmp_path / "params.json"
        params_path.write_text('{"delay_resolution_ns": 1.0}')
        out = tmp_path / "campaign"
        argv = ["synth", "--n", "20", "--seed", "2", "--out", str(out), "--params", str(params_path)]
        assert main(argv) == EXIT_OK
        m = ["--manifest", str(out / "manifest.json")]
        for argv in (
            ["report", *m, "--out", str(tmp_path / "rep")],
            ["fit", "pathloss", *m],
            ["stats", "delay", *m],
            ["stats", "angular", *m],
            ["xpd", "report", *m],
        ):
            assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["config"]["delay_resolution_ns"] == 1.0

    def test_bad_params_file_is_validation_error(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        params_path.write_text('{"no_such_knob": 1}')
        code = main(
            ["synth", "--n", "2", "--out", str(tmp_path / "c"), "--params", str(params_path)]
        )
        assert code == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"ple": "x"}', "ple"),
            ('{"ple": null}', "ple"),
            ('{"ple": true}', "ple"),
            ('{"xpd_boresight": [1, 2]}', "xpd_boresight"),
            ('{"xpd_boresight": {"mean_db": 1}}', "xpd_boresight"),
            ('{"rmsds_law": {"log_mean": 2.3, "log_std": 0.4, "extra": 1}}', "rmsds_law"),
            ('{"lobe_count_law": {"mean_count": 3.5, "min_count": 1.5, "max_count": 7}}', "lobe_count_law.min_count"),
            ('{"distance_range_m": 5}', "distance_range_m"),
            ('{"distance_range_m": [6.3]}', "distance_range_m"),
            ('{"distance_range_m": [6.3, 20, 30]}', "distance_range_m"),
            # values no drop can be drawn with: each names its own field, not the tap power they broke
            ('{"distance_range_m": [6.3, 1e308]}', "distance_range_m"),
            ('{"ple": Infinity}', "ple"),
            ('{"carrier_hz": 1e308}', "carrier_hz"),
            ('{"shadow_sigma_db": 1e308}', "shadow_sigma_db"),
            # a lattice below the float spacing of the delays: adjacent taps would share one delay
            ('{"delay_resolution_ns": 1e-300}', "delay_resolution_ns"),
            ('{"delay_resolution_ns": 5e-324}', "delay_resolution_ns"),
        ],
    )
    def test_malformed_params_field_exits_2(self, tmp_path, capsys, doc, field):
        params_path = tmp_path / "params.json"
        params_path.write_text(doc)
        out = tmp_path / "c"
        assert main(["synth", "--n", "2", "--out", str(out), "--params", str(params_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{field}:" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--n", "2", "--seed", "-1", "--out", str(tmp_path / "c")]) == EXIT_VALIDATION
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err


class TestLogging:
    def test_log_env_var(self, manifest, monkeypatch, capsys):
        monkeypatch.setenv("SUBTHZ_CHAN_LOG", "DEBUG")
        assert main(["ingest", "--manifest", str(manifest)]) == EXIT_OK
        capsys.readouterr()

    # BASIC_FORMAT and _STYLES are attributes of ``logging``, but no level names
    @pytest.mark.parametrize("value", ["VERY_CHATTY", "basic_format", "_styles"])
    def test_bogus_level_falls_back(self, manifest, monkeypatch, capsys, value):
        # a root logger without handlers, as in a fresh process, takes the level main passes to basicConfig
        root = logging.getLogger()
        level = root.level
        monkeypatch.setattr(root, "handlers", [])
        monkeypatch.setenv("SUBTHZ_CHAN_LOG", value)
        try:
            assert main(["ingest", "--manifest", str(manifest)]) == EXIT_OK
            assert root.level == logging.WARNING
        finally:
            root.setLevel(level)
        capsys.readouterr()


def test_a_reader_closing_stdout_early_gets_exit_4_and_no_message(tmp_path):
    # the JSON listing of 800 locations (about 150 KB) outgrows the pipe, so the command is still
    # writing when the reader closes it after the first line, as ``| head -1`` does
    manifest = render_campaign(SynthesisParams(), 400, 1, tmp_path / "campaign").manifest_path
    env = {k: v for k, v in os.environ.items() if k != "SUBTHZ_CHAN_LOG"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "subthz_chan", "ingest", "--format", "json", "--manifest", str(manifest)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, stderr) == (EXIT_IO, b"")


class TestObjectsOnRequest:
    """Queries read the ingested columns: no per-location or per-sweep object is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        from subthz_chan import DirectionalPdp, LocationMeasurement

        counts = {"pdp": 0, "location": 0}
        for name, cls in (("pdp", DirectionalPdp), ("location", LocationMeasurement)):
            original = cls.__post_init__

            def counting(self, original=original, name=name):
                counts[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    def queries(self, manifest, out):
        m = ["--manifest", str(manifest)]
        fits = [["fit", "pathloss", *m, "--pol", pol, "--kind", kind] for pol, kind in
                (("VV", "omni"), ("VH", "omni"), ("VV", "B"), ("VV", "NBB"), ("VV", "NB"))]
        return [
            ["ingest", *m, "--format", "json"],
            ["ingest", *m],
            *fits,
            ["stats", "delay", *m],
            ["stats", "angular", *m],
            ["xpd", "report", *m],
            ["xpd", "report", *m, "--format", "csv"],
            ["pas", "dump", *m, "--tx-id", "TX0001", "--rx-id", "RX0001", "--side", "AOA"],
            ["report", *m, "--out", str(out)],
        ]

    def test_queries_and_report_build_no_objects(self, manifest, tmp_path, capsys, built):
        for argv in self.queries(manifest, tmp_path / "report"):
            assert main(argv) == EXIT_OK, argv
            assert built == {"pdp": 0, "location": 0}, argv
        capsys.readouterr()
