"""End-to-end report pipeline on rendered and hand-built campaigns."""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest
from conftest import make_location, make_pdp

from subthz_chan import (
    Analysis,
    Campaign,
    DegenerateFitError,
    Polarization,
    RunConfig,
    SampleKind,
    SynthesisParams,
    ValidationError,
    fspl,
    render_campaign,
    run_pipeline,
    write_campaign,
)

CSV_NUMBER = re.compile(r"^-?\d+\.\d{4}$")


@pytest.fixture(scope="module")
def rendered_manifest(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("rendered")
    return render_campaign(SynthesisParams(), 5, 21, out).manifest_path


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory, rendered_manifest) -> Path:
    out = tmp_path_factory.mktemp("report")
    run_pipeline(RunConfig(manifest_path=rendered_manifest, out_dir=out))
    return out


def small_campaign(n_vv=3, weak_vh=False):
    locs = []
    for i in range(n_vv):
        d = 5.0 * (i + 2)
        locs.append(
            make_location(
                [make_pdp([100.0], [-60.0 - 2.0 * i], floor=-130.0)],
                distance=d,
                tx_id=f"TX{i + 1}",
                rx_id=f"RX{i + 1}",
            )
        )
        if weak_vh and i == 0:
            locs.append(
                make_location(
                    # 54 dB of gain on a -110 dBm tap puts the loss past 152 dB
                    [make_pdp([100.0], [-110.0], floor=-130.0)],
                    distance=d,
                    pol=Polarization.VH,
                    los=False,
                    tx_id="TX1",
                    rx_id="RX1",
                )
            )
    return Campaign("pipeline-test", 142e9, 0.0, tuple(locs))


class TestRunConfig:
    def test_coerces_paths_and_floats(self, tmp_path):
        config = RunConfig(manifest_path=str(tmp_path / "m.json"), out_dir=str(tmp_path))
        assert isinstance(config.manifest_path, Path)
        assert isinstance(config.out_dir, Path)
        assert config.thresholds_db == (20.0, 30.0)
        assert config.carrier_hz is None

    def test_rejects_bad_values(self, tmp_path):
        base = dict(manifest_path=tmp_path / "m.json", out_dir=tmp_path)
        with pytest.raises(ValidationError):
            RunConfig(**base, thresholds_db=())
        with pytest.raises(ValidationError):
            RunConfig(**base, thresholds_db=(20.0, -5.0))
        with pytest.raises(ValidationError):
            RunConfig(**base, formats=())
        with pytest.raises(ValidationError):
            RunConfig(**base, formats=("csv", "parquet"))
        with pytest.raises(ValidationError):
            RunConfig(**base, carrier_hz=0.0)
        with pytest.raises(ValidationError):
            RunConfig(**base, seed=-3)

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(thresholds_db=(20.0, float("nan"))), "threshold_db: must be > 0, got nan"),
            (dict(carrier_hz=float("nan")), "carrier_hz: must be > 0 and finite, got nan"),
            (dict(carrier_hz=float("inf")), "carrier_hz: must be > 0 and finite, got inf"),
            (dict(max_measurable_pl_db=float("nan")), "max_measurable_pl_db: must be > 0 or None, got nan"),
            (dict(max_measurable_pl_db=0.0), "max_measurable_pl_db: must be > 0 or None, got 0.0"),
            (dict(thresholds_db=(30.0, 30.0000001)), "thresholds_db: 30.0 and 30.0000001 share the label '30'"),
            (dict(thresholds_db=(20, 10.0, 20.0)), "thresholds_db: 20.0 and 20.0 share the label '20'"),
            (dict(thresholds_db=(1e-7, 1.00000001e-7)), "thresholds_db: 1e-07 and 1.00000001e-07 share the label '1e-07'"),
        ],
    )
    def test_config_and_analysis_reject_the_same_settings(self, tmp_path, setting, message):
        with pytest.raises(ValidationError) as err:
            RunConfig(manifest_path=tmp_path / "m.json", out_dir=tmp_path, **setting)
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            Analysis(small_campaign(), **setting)
        assert str(err.value) == message


    def test_thresholds_with_distinct_labels_are_kept(self, tmp_path):
        thresholds = (30.0, 30.001, 3.0, 300.0)
        config = RunConfig(manifest_path=tmp_path / "m.json", out_dir=tmp_path, thresholds_db=thresholds)
        assert config.thresholds_db == thresholds
        assert Analysis(small_campaign(), thresholds).thresholds_db == thresholds


class TestReportBundle:
    def test_writes_all_files(self, report_dir):
        names = sorted(p.name for p in report_dir.iterdir())
        assert names == [
            "angular_stats.csv",
            "delay_stats.csv",
            "pathloss_scatter.csv",
            "report.json",
            "xpd_cdf.csv",
        ]

    def test_report_json_sections(self, report_dir, rendered_manifest):
        doc = json.loads((report_dir / "report.json").read_text())
        assert sorted(doc) == [
            "angular",
            "campaign",
            "config",
            "delay",
            "excluded_locations",
            "inputs_sha256",
            "pathloss",
            "xpd",
        ]
        assert doc["campaign"]["n_locations"] == 10
        assert doc["campaign"]["n_vv"] == 5
        assert doc["campaign"]["n_vh"] == 5
        assert doc["config"]["manifest"] == rendered_manifest.name
        assert doc["excluded_locations"] == []
        for key in ("omni_vv", "omni_vh"):
            fit = doc["pathloss"][key]
            assert fit["n_samples"] == 5
            assert 0.5 < fit["ple"] < 4.0
        assert doc["pathloss"]["cross_polar"]["n_samples"] == 5
        assert sorted(doc["pathloss"]["directional_vv"]) == ["B", "NB", "NBB"]
        assert sorted(doc["delay"]) == ["20", "30"]
        assert sorted(doc["angular"]) == ["20", "30"]
        assert "boresight" in doc["xpd"]

    def test_no_absolute_paths_in_report(self, report_dir, rendered_manifest):
        text = (report_dir / "report.json").read_text()
        assert str(rendered_manifest.parent) not in text
        assert str(report_dir) not in text

    def test_input_digests_verify(self, report_dir, rendered_manifest):
        doc = json.loads((report_dir / "report.json").read_text())
        digests = doc["inputs_sha256"]
        manifest_doc = json.loads(rendered_manifest.read_text())
        expected_keys = {rendered_manifest.name} | {
            entry["sweeps"] for entry in manifest_doc["locations"]
        }
        assert set(digests) == expected_keys
        for key, value in digests.items():
            path = rendered_manifest.parent / key if key != rendered_manifest.name else rendered_manifest
            assert value == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_csv_number_format(self, report_dir):
        for name in ("delay_stats.csv", "angular_stats.csv"):
            lines = (report_dir / name).read_text().splitlines()
            assert lines[0] == "statistic,min,max,mean,median,p90"
            for line in lines[1:]:
                cells = line.split(",")
                assert cells[0].endswith(" dB")
                for cell in cells[1:]:
                    assert CSV_NUMBER.match(cell), f"{name}: {cell!r}"

    def test_scatter_rows(self, report_dir):
        lines = (report_dir / "pathloss_scatter.csv").read_text().splitlines()
        assert lines[0] == "kind,polarization,los,distance_m,pl_db"
        kinds = set()
        for line in lines[1:]:
            kind, pol, los, dist, pl = line.split(",")
            kinds.add(kind)
            assert pol in ("VV", "VH")
            assert los in ("true", "false")
            assert CSV_NUMBER.match(dist) and CSV_NUMBER.match(pl)
        assert kinds == {"omni", "dir-B", "dir-NBB", "dir-NB"}

    def test_xpd_cdf_rows(self, report_dir):
        lines = (report_dir / "xpd_cdf.csv").read_text().splitlines()
        assert lines[0] == "path_class,xpd_db,cdf"
        classes = {line.split(",")[0] for line in lines[1:]}
        assert classes <= {"boresight", "reflection"}
        assert "boresight" in classes
        last_cdf = 0.0
        for line in lines[1:]:
            if line.split(",")[0] != "boresight":
                continue
            cdf = float(line.split(",")[2])
            assert cdf >= last_cdf
            last_cdf = cdf
        assert last_cdf == pytest.approx(1.0, abs=5e-4)


class TestDeterminism:
    def test_same_inputs_same_bytes(self, rendered_manifest, tmp_path):
        for sub in ("x", "y"):
            run_pipeline(RunConfig(manifest_path=rendered_manifest, out_dir=tmp_path / sub))
        for p in (tmp_path / "x").iterdir():
            assert p.read_bytes() == (tmp_path / "y" / p.name).read_bytes()


class TestFormatsAndThresholds:
    def test_json_only(self, rendered_manifest, tmp_path):
        written = run_pipeline(
            RunConfig(manifest_path=rendered_manifest, out_dir=tmp_path, formats=("json",))
        )
        assert [p.name for p in written] == ["report.json"]

    def test_csv_only(self, rendered_manifest, tmp_path):
        written = run_pipeline(
            RunConfig(manifest_path=rendered_manifest, out_dir=tmp_path, formats=("csv",))
        )
        assert sorted(p.name for p in written) == [
            "angular_stats.csv",
            "delay_stats.csv",
            "pathloss_scatter.csv",
            "xpd_cdf.csv",
        ]

    def test_single_threshold_filters_everything(self, rendered_manifest, tmp_path):
        run_pipeline(
            RunConfig(manifest_path=rendered_manifest, out_dir=tmp_path, thresholds_db=(30.0,))
        )
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc["delay"]) == ["30"]
        assert list(doc["angular"]) == ["30"]
        for name in ("delay_stats.csv", "angular_stats.csv"):
            for line in (tmp_path / name).read_text().splitlines()[1:]:
                assert line.split(",")[0].endswith("-30 dB")


class TestCarrier:
    def test_default_uses_manifest_carrier(self, tmp_path):
        manifest = render_campaign(SynthesisParams(carrier_hz=140e9), 3, 5, tmp_path / "c").manifest_path
        run_pipeline(RunConfig(manifest_path=manifest, out_dir=tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["config"]["carrier_hz"] == 140e9
        assert doc["pathloss"]["omni_vv"]["fspl_anchor_db"] == fspl(140e9)

    def test_explicit_carrier_overrides(self, rendered_manifest, tmp_path):
        run_pipeline(RunConfig(manifest_path=rendered_manifest, out_dir=tmp_path, carrier_hz=140e9))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["campaign"]["carrier_hz"] == 142e9
        assert doc["pathloss"]["omni_vv"]["fspl_anchor_db"] == fspl(140e9)


class TestExclusions:
    def test_over_ceiling_location_is_excluded(self, tmp_path):
        manifest = write_campaign(small_campaign(weak_vh=True), tmp_path / "campaign")
        run_pipeline(RunConfig(manifest_path=manifest, out_dir=tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["excluded_locations"] == [
            {
                "tx_id": "TX1",
                "rx_id": "RX1",
                "polarization": "VH",
                "reason": doc["excluded_locations"][0]["reason"],
            }
        ]
        assert "152" in doc["excluded_locations"][0]["reason"]
        assert doc["pathloss"]["omni_vh"] is None
        assert doc["pathloss"]["cross_polar"] is None

    def test_excluded_is_the_same_whatever_runs_first(self, tmp_path):
        # campaign order: TX1 VV, TX1 VH (over the ceiling), TX2 VV, TX3 VV, TX9 VV (no signal), TX2 VH
        silent = make_location([make_pdp([100.0], [-140.0], floor=-130.0)], distance=30.0, tx_id="TX9", rx_id="RX9")
        vh = make_location(
            [make_pdp([100.0], [-80.0], floor=-130.0)], distance=15.0, pol=Polarization.VH, tx_id="TX2", rx_id="RX2"
        )
        campaign = Campaign("excluded", 142e9, 0.0, small_campaign(weak_vh=True).locations + (silent, vh))
        expected = [("TX9", "VV", "no sweep clears the noise floor"), ("TX1", "VH", "152 dB measurable limit")]
        before_any_fit = Analysis(campaign).excluded
        assert [(e["tx_id"], e["polarization"]) for e in before_any_fit] == [e[:2] for e in expected]
        assert all(e[2] in listed["reason"] for e, listed in zip(expected, before_any_fit))
        cross_polar_first = Analysis(campaign)
        cross_polar_first.cross_polar(SampleKind.OMNI)
        assert cross_polar_first.excluded == before_any_fit
        run_pipeline(RunConfig(manifest_path=write_campaign(campaign, tmp_path / "c"), out_dir=tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["excluded_locations"] == before_any_fit

    def test_ceiling_disabled_keeps_location(self, tmp_path):
        manifest = write_campaign(small_campaign(weak_vh=True), tmp_path / "campaign")
        run_pipeline(
            RunConfig(
                manifest_path=manifest, out_dir=tmp_path / "out", max_measurable_pl_db=None
            )
        )
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["excluded_locations"] == []
        assert doc["pathloss"]["cross_polar"] is not None


class TestDegenerateCampaign:
    def test_single_usable_location_raises(self, tmp_path):
        manifest = write_campaign(small_campaign(n_vv=1), tmp_path / "campaign")
        with pytest.raises(DegenerateFitError):
            run_pipeline(RunConfig(manifest_path=manifest, out_dir=tmp_path / "out"))
