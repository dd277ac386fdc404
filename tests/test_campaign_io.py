"""On-disk campaign format: golden files, error reporting, round trips."""
from __future__ import annotations

import json
import logging
import math
import re
import warnings

import pytest

from subthz_chan import (
    Campaign,
    CampaignFormatError,
    Polarization,
    TapTable,
    ValidationError,
    ingest_campaign,
    write_campaign,
    xpd_columns,
)
from conftest import make_location, make_pdp

GOLDEN_MANIFEST = """\
{
  "campaign_id": "golden-demo",
  "carrier_hz": 142000000000.0,
  "tx_power_dbm": 5.0,
  "locations": [
    {
      "tx_id": "TX1",
      "rx_id": "RX1",
      "tx_pos_m": [9.886, 0.0, 3.0],
      "rx_pos_m": [0.0, 0.0, 1.5],
      "polarization": "VV",
      "los": true,
      "antenna": {"gain_dbi": 27.0, "hpbw_deg": 8.0, "az_step_deg": 8.0},
      "sweeps": "sweeps/TX1_RX1_VV.csv"
    }
  ]
}
"""

GOLDEN_SWEEPS = """\
# noise_floor_db=-130.0
tx_az_deg,rx_az_deg,delay_ns,power_db
180.0,0.0,32.0,-75.0
180.0,0.0,34.0,-82.5
172.0,8.0,36.0,-96.25
"""


def write_golden(tmp_path, manifest=GOLDEN_MANIFEST, sweeps=GOLDEN_SWEEPS):
    (tmp_path / "sweeps").mkdir(exist_ok=True)
    (tmp_path / "manifest.json").write_text(manifest, encoding="utf-8")
    (tmp_path / "sweeps" / "TX1_RX1_VV.csv").write_text(sweeps, encoding="utf-8")
    return tmp_path / "manifest.json"


class TestIngestGolden:
    def test_campaign_fields(self, tmp_path):
        campaign = ingest_campaign(write_golden(tmp_path))
        assert campaign.campaign_id == "golden-demo"
        assert campaign.carrier_hz == 142e9
        assert campaign.tx_power_dbm == 5.0
        assert campaign.delay_resolution_ns == 2.0  # the manifest leaves it out
        assert len(campaign) == 1

    def test_location_fields(self, tmp_path):
        loc = ingest_campaign(write_golden(tmp_path))[0]
        assert (loc.tx_id, loc.rx_id) == ("TX1", "RX1")
        assert loc.polarization is Polarization.VV
        assert loc.los is True
        assert loc.tx_power_dbm == 5.0
        # heights are per-side defaults, not stored in the manifest
        assert loc.tx_antenna.height_m == 3.0
        assert loc.rx_antenna.height_m == 1.5
        assert loc.tx_antenna.gain_dbi + loc.rx_antenna.gain_dbi == 54.0
        assert loc.distance_m == pytest.approx(math.hypot(9.886, 1.5))

    def test_sweeps_grouped_by_pointing(self, tmp_path):
        loc = ingest_campaign(write_golden(tmp_path))[0]
        by_dir = {s.direction: s for s in loc.sweeps}
        assert set(by_dir) == {(180.0, 0.0), (172.0, 8.0)}
        boresight = by_dir[(180.0, 0.0)]
        assert boresight.delays_ns == (32.0, 34.0)
        assert boresight.powers_db == (-75.0, -82.5)
        assert boresight.noise_floor_db == -130.0
        assert by_dir[(172.0, 8.0)].delays_ns == (36.0,)

    def test_rows_of_one_pointing_need_not_be_contiguous(self, tmp_path):
        sweeps = (
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,34.0,-82.5\n"
            "172.0,8.0,36.0,-96.25\n"
            "180.0,0.0,32.0,-75.0\n"
        )
        loc = ingest_campaign(write_golden(tmp_path, sweeps=sweeps))[0]
        by_dir = {s.direction: s for s in loc.sweeps}
        assert by_dir[(180.0, 0.0)].delays_ns == (32.0, 34.0)

    def test_lattice_gaps_are_legal(self, tmp_path):
        # a pruned bin leaves a 3-step hole; spacing is still integral
        sweeps = (
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0,-75.0\n"
            "180.0,0.0,38.0,-90.0\n"
        )
        loc = ingest_campaign(write_golden(tmp_path, sweeps=sweeps))[0]
        assert loc.sweeps[0].delays_ns == (32.0, 38.0)

    def test_custom_delay_resolution(self, tmp_path):
        sweeps = (
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0,-75.0\n"
            "180.0,0.0,33.0,-80.0\n"
        )
        with pytest.raises(ValidationError, match="2 ns lattice"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))
        doc = json.loads(GOLDEN_MANIFEST)
        doc["delay_resolution_ns"] = 1.0
        campaign = ingest_campaign(write_golden(tmp_path, manifest=json.dumps(doc), sweeps=sweeps))
        assert campaign.delay_resolution_ns == 1.0
        assert campaign[0].sweeps[0].delays_ns == (32.0, 33.0)


class TestManifestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert "invalid JSON" in str(err.value)
        assert str(path) in str(err.value)

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(CampaignFormatError, match="root"):
            ingest_campaign(path)

    def test_missing_key(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        del doc["carrier_hz"]
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="carrier_hz"):
            ingest_campaign(path)

    def test_wrong_type(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["carrier_hz"] = "142 GHz"
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="number"):
            ingest_campaign(path)

    @pytest.mark.parametrize(
        "value, exc", [("1 ns", CampaignFormatError), (0.0, CampaignFormatError), (-2.0, CampaignFormatError)]
    )
    def test_bad_delay_resolution(self, tmp_path, value, exc):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["delay_resolution_ns"] = value
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(exc, match="delay_resolution_ns") as err:
            ingest_campaign(path)
        assert err.value.path == str(path)

    def test_lattice_finer_than_the_tolerance_holds_every_step(self, tmp_path):
        # 2 ns / 1e-310 ns overflows; the line-by-line reader crashed on it
        doc = json.loads(GOLDEN_MANIFEST)
        doc["delay_resolution_ns"] = 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            campaign = ingest_campaign(write_golden(tmp_path, manifest=json.dumps(doc)))
        assert campaign[0].sweeps[0].delays_ns == (32.0, 34.0)

    def test_bad_position_vector(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0]["tx_pos_m"] = [1.0, 2.0]
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="3-vector"):
            ingest_campaign(path)

    def test_empty_locations(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"] = []
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="locations") as err:
            ingest_campaign(path)
        assert (err.value.path, err.value.line) == (str(path), None)

    def test_unknown_polarization(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0]["polarization"] = "HH"
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="polarization") as err:
            ingest_campaign(path)
        assert str(err.value) == f"{path}: locations[0].polarization: unknown polarization 'HH'"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                {"antenna": {"gain_dbi": 0.0, "hpbw_deg": 8.0, "az_step_deg": 8.0}},
                "locations[0].antenna.gain_dbi: must be > 0, got 0.0",
            ),
            (
                {"antenna": {"gain_dbi": 27.0, "hpbw_deg": 8.0, "az_step_deg": 7.0}},
                "locations[0].antenna.hpbw_deg: need 0 < hpbw_deg <= az_step_deg <= 360, got hpbw=8.0, step=7.0",
            ),
            (
                {"tx_pos_m": [0.5, 0.0, 1.5]},
                "locations[0].distance_m: TX-RX distance 0.500 m must exceed 1.0 m",
            ),
            ({"tx_id": ""}, "locations[0].tx_id: tx_id and rx_id must be non-empty"),
            (
                {"tx_pos_m": [1e308, 0.0, 3.0], "rx_pos_m": [-1e308, 0.0, 1.5]},
                "locations[0].distance_m: TX-RX distance overflows to inf",
            ),
        ],
    )
    def test_entry_value_names_manifest_and_entry(self, tmp_path, edit, message):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0].update(edit)
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("position", [[math.nan, 0.0, 0.0], [1e400, 0.0, 3.0]])
    def test_non_finite_position(self, tmp_path, position):
        # the manifest spells them NaN and Infinity, which the JSON reader accepts
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0]["tx_pos_m"] = position
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="'locations\\[0\\].tx_pos_m' must be a 3-vector of finite numbers"):
            ingest_campaign(path)

    @pytest.mark.parametrize(
        "spelled, value, message",
        [
            ('"carrier_hz": 142000000000.0', "NaN", "carrier_hz: must be finite, got nan"),
            ('"carrier_hz": 142000000000.0', "Infinity", "carrier_hz: must be finite, got inf"),
            ('"carrier_hz": 142000000000.0', "1" + "0" * 400, "carrier_hz: must be finite, got inf"),
            # past int()'s default 4 300-digit limit
            ('"carrier_hz": 142000000000.0', "1" + "0" * 5000, "carrier_hz: must be finite, got inf"),
            ('"tx_power_dbm": 5.0', "Infinity", "tx_power_dbm: must be finite, got inf"),
            ('"tx_power_dbm": 5.0', "-" + "9" * 400, "tx_power_dbm: must be finite, got -inf"),
            ('"gain_dbi": 27.0', "NaN", "locations[0].antenna.gain_dbi: must be finite, got nan"),
            ('"gain_dbi": 27.0', "1" + "0" * 400, "locations[0].antenna.gain_dbi: must be finite, got inf"),
            (
                '"tx_pos_m": [9.886',
                "[1" + "0" * 400,
                "key 'locations[0].tx_pos_m' must be a 3-vector of finite numbers",
            ),
        ],
    )
    def test_number_no_float_holds_names_manifest_and_key(self, tmp_path, spelled, value, message):
        key = spelled.split(":")[0]
        path = write_golden(tmp_path, manifest=GOLDEN_MANIFEST.replace(spelled, f"{key}: {value}"))
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert str(err.value) == f"{path}: {message}"

    def test_undecodable_manifest(self, tmp_path):
        path = write_golden(tmp_path)
        path.write_bytes(b"\xff" + GOLDEN_MANIFEST.encode("utf-8"))
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert (err.value.path, err.value.line) == (str(path), 1)
        assert str(err.value) == f"{path}:1: not valid UTF-8"

    def test_missing_sweep_file(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0]["sweeps"] = "sweeps/nope.csv"
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(OSError):
            ingest_campaign(path)


class TestSweepFileErrors:
    def check(self, tmp_path, sweeps, exc, match):
        path = write_golden(tmp_path, sweeps=sweeps)
        with pytest.raises(exc, match=match):
            ingest_campaign(path)

    def test_missing_header(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n180.0,0.0,32.0,-75.0\n",
            CampaignFormatError,
            "header",
        )

    def test_missing_noise_floor(self, tmp_path):
        self.check(
            tmp_path,
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n180.0,0.0,32.0,-75.0\n",
            CampaignFormatError,
            "noise_floor_db",
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise_floor_reports_line(self, tmp_path, value):
        path = write_golden(tmp_path, sweeps=GOLDEN_SWEEPS.replace("-130.0", value, 1))
        with pytest.raises(CampaignFormatError, match="noise_floor_db must be finite") as err:
            ingest_campaign(path)
        assert err.value.line == 1
        assert f"TX1_RX1_VV.csv:1:" in str(err.value)

    def test_undecodable_bytes_report_line(self, tmp_path):
        data = bytearray(GOLDEN_SWEEPS.encode("utf-8"))
        data[40] = 0xFF  # inside the header, line 2
        path = write_golden(tmp_path)
        sweeps = tmp_path / "sweeps" / "TX1_RX1_VV.csv"
        sweeps.write_bytes(bytes(data))
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert str(err.value) == f"{sweeps}:2: not valid UTF-8"

    def test_undecodable_line_counts_lone_cr(self, tmp_path):
        path = write_golden(tmp_path)
        sweeps = tmp_path / "sweeps" / "TX1_RX1_VV.csv"
        sweeps.write_bytes(GOLDEN_SWEEPS.replace("\n", "\r").encode("utf-8") + b"\xff")
        with pytest.raises(CampaignFormatError, match=":6: not valid UTF-8"):
            ingest_campaign(path)

    def test_duplicate_noise_floor(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n# noise_floor_db=-120.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n180.0,0.0,32.0,-75.0\n",
            CampaignFormatError,
            "duplicate noise_floor_db",
        )

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = write_golden(
            tmp_path,
            sweeps="# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0\n",
        )
        with pytest.raises(CampaignFormatError) as err:
            ingest_campaign(path)
        assert err.value.line == 3
        assert ":3:" in str(err.value)

    def test_non_numeric_value(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,thirty,-75.0\n",
            CampaignFormatError,
            "non-numeric",
        )

    def test_azimuth_out_of_range(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "360.0,0.0,32.0,-75.0\n",
            ValidationError,
            "tx_az_deg",
        )

    def test_negative_delay(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,-2.0,-75.0\n",
            ValidationError,
            "delay",
        )

    def test_no_data_rows(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\ntx_az_deg,rx_az_deg,delay_ns,power_db\n",
            CampaignFormatError,
            "no data rows",
        )

    def test_duplicate_delay_within_pointing(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0,-75.0\n"
            "180.0,0.0,32.0,-76.0\n",
            ValidationError,
            "duplicate delay",
        )

    def test_off_lattice_delay(self, tmp_path):
        self.check(
            tmp_path,
            "# noise_floor_db=-130.0\n"
            "tx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0,-75.0\n"
            "180.0,0.0,33.0,-80.0\n",
            ValidationError,
            "lattice",
        )


class TestFirstFault:
    """With several faults, the one a line-by-line reader meets first is raised."""

    def test_bad_value_before_a_structural_line(self, tmp_path):
        sweeps = GOLDEN_SWEEPS + "361.0,0.0,40.0,-90.0\n180.0,0.0\n"
        with pytest.raises(ValidationError, match=r"tx_az_deg: 361.0 outside \[0, 360\) .*:6\)"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_structural_line_before_a_bad_value(self, tmp_path):
        sweeps = GOLDEN_SWEEPS + "180.0,0.0\n361.0,0.0,40.0,-90.0\n"
        with pytest.raises(CampaignFormatError, match=":6: expected 4 columns"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_bad_value_before_a_duplicate_delay(self, tmp_path):
        sweeps = GOLDEN_SWEEPS + "180.0,0.0,32.0,-90.0\n180.0,0.0,40.0,nan\n"
        with pytest.raises(ValidationError, match="power must be finite"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_first_appearing_pointing_before_one_that_sorts_first(self, tmp_path):
        # (180, 0) is off the lattice on lines 3-4; (8, 0), which sorts first by azimuth, repeats a delay after it
        sweeps = (
            "# noise_floor_db=-130.0\ntx_az_deg,rx_az_deg,delay_ns,power_db\n"
            "180.0,0.0,32.0,-75.0\n180.0,0.0,33.0,-80.0\n8.0,0.0,36.0,-90.0\n8.0,0.0,36.0,-91.0\n"
        )
        with pytest.raises(ValidationError, match=r"^delay_ns: delays for pointing \(180.0, 0.0\) not on the 2 ns lattice"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_a_row_bad_in_two_columns_names_the_first_column(self, tmp_path):
        sweeps = GOLDEN_SWEEPS + "400.0,0.0,40.0,nan\n"
        with pytest.raises(ValidationError, match=r"^tx_az_deg: 400.0 outside \[0, 360\) .*:6\)$"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_the_earlier_bad_row_before_an_earlier_column(self, tmp_path):
        # line 6's bad power comes before line 7's bad azimuth, though tx_az_deg is the first column
        sweeps = GOLDEN_SWEEPS + "180.0,0.0,40.0,nan\n400.0,0.0,42.0,-90.0\n"
        with pytest.raises(ValidationError, match=r"^power_db: power must be finite .*:6\)$"):
            ingest_campaign(write_golden(tmp_path, sweeps=sweeps))

    def test_earlier_location_first(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        second = dict(doc["locations"][0], sweeps="sweeps/second.csv")
        del second["los"]
        doc["locations"].append(second)
        path = write_golden(tmp_path, manifest=json.dumps(doc), sweeps=GOLDEN_SWEEPS + "180.0,0.0,33.0,-90.0\n")
        (tmp_path / "sweeps" / "second.csv").write_text(GOLDEN_SWEEPS, encoding="utf-8")
        # the first file's off-lattice delay, not the second entry's missing key
        with pytest.raises(ValidationError, match="lattice in .*TX1_RX1_VV.csv"):
            ingest_campaign(path)
        write_golden(tmp_path, manifest=json.dumps(doc))
        with pytest.raises(CampaignFormatError, match="missing key 'locations\\[1\\].los'"):
            ingest_campaign(path)

    def test_location_check_before_a_later_file(self, tmp_path):
        doc = json.loads(GOLDEN_MANIFEST)
        doc["locations"][0]["tx_pos_m"] = [0.5, 0.0, 1.5]
        doc["locations"].append(dict(doc["locations"][0], sweeps="sweeps/second.csv"))
        path = write_golden(tmp_path, manifest=json.dumps(doc))
        (tmp_path / "sweeps" / "second.csv").write_text("# noise_floor_db=-130.0\n", encoding="utf-8")
        with pytest.raises(CampaignFormatError, match="locations\\[0\\].distance_m"):
            ingest_campaign(path)


class TestIngestLog:
    def test_one_info_line_with_counts(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="subthz_chan.campaign_io"):
            ingest_campaign(write_golden(tmp_path))
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage().startswith(
            "ingested golden-demo: 1 locations, 2 files, 3 rows, 2 sweeps in "
        )

    def test_silent_at_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            ingest_campaign(write_golden(tmp_path))
        assert not caplog.records


def build_campaign():
    loc_vv = make_location(
        [
            make_pdp([32.0, 34.0], [-75.0 - 1e-7, -82.5], tx_az=180.0, rx_az=0.0, floor=-130.0),
            make_pdp([36.0], [-96.0 - 1.0 / 3.0], tx_az=172.0, rx_az=8.0, floor=-130.0),
        ],
        distance=10.0,
    )
    loc_vh = make_location(
        [make_pdp([32.0], [-101.25], tx_az=180.0, rx_az=0.0, floor=-130.0)],
        distance=10.0,
        pol=Polarization.VH,
    )
    return Campaign(
        campaign_id="rt-demo",
        carrier_hz=142e9,
        tx_power_dbm=0.0,
        locations=(loc_vv, loc_vh),
    )


class TestLocationKey:
    def test_repeated_key_names_both_indices(self):
        loc_vv, loc_vh = build_campaign()
        with pytest.raises(ValidationError) as err:
            Campaign("dup", 142e9, 0.0, (loc_vv, loc_vh, loc_vv))
        assert str(err.value) == "locations[2]: repeats location TX1-RX1 (VV) of locations[0]"


class TestWriteCampaign:
    def test_round_trip_is_exact(self, tmp_path):
        campaign = build_campaign()
        manifest = write_campaign(campaign, tmp_path)
        assert ingest_campaign(manifest) == campaign

    def test_second_write_is_byte_identical(self, tmp_path):
        campaign = build_campaign()
        first = write_campaign(campaign, tmp_path / "a")
        second = write_campaign(ingest_campaign(first), tmp_path / "b")
        for rel in ["manifest.json", "sweeps/TX1_RX1_VV.csv", "sweeps/TX1_RX1_VH.csv"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert first.name == second.name == "manifest.json"

    def test_lf_only_output(self, tmp_path):
        write_campaign(build_campaign(), tmp_path)
        for path in [tmp_path / "manifest.json", *sorted((tmp_path / "sweeps").iterdir())]:
            assert b"\r" not in path.read_bytes()

    def test_ids_joining_to_one_file_name_are_rejected(self, tmp_path):
        import dataclasses

        loc = build_campaign()[0]
        joined = (dataclasses.replace(loc, tx_id="A_B", rx_id="C"), dataclasses.replace(loc, tx_id="A", rx_id="B_C"))
        campaign = Campaign("join", 142e9, 0.0, joined)
        with pytest.raises(ValidationError, match="one sweep file name"):
            write_campaign(campaign, tmp_path)
        assert not tmp_path.joinpath("sweeps").exists()

    def test_rejects_mismatched_antennas(self, tmp_path):
        from subthz_chan import AntennaConfig
        import dataclasses

        loc = build_campaign()[0]
        odd = dataclasses.replace(loc, rx_antenna=AntennaConfig(gain_dbi=20.0, height_m=1.5))
        with pytest.raises(ValidationError, match="antenna"):
            write_campaign(Campaign("bad", 142e9, 0.0, (odd,)), tmp_path)

    def test_rejects_mismatched_tx_power(self, tmp_path):
        loc = build_campaign()[0]
        with pytest.raises(ValidationError, match="tx_power_dbm"):
            write_campaign(Campaign("bad", 142e9, 5.0, (loc,)), tmp_path)

    @pytest.mark.parametrize("ids", [("../../escaped", "RX1"), ("TX1", "sub/RX1"), ("TX1", "/abs")])
    def test_ids_with_a_path_separator_are_rejected(self, tmp_path, ids):
        import dataclasses

        loc_vv, loc_vh = build_campaign()
        escaping = dataclasses.replace(loc_vh, tx_id=ids[0], rx_id=ids[1])
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(ValidationError, match="path separator"):
            write_campaign(Campaign("escape", 142e9, 0.0, (loc_vv, escaping)), out)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("field", ["tx_id", "rx_id"])
    @pytest.mark.parametrize("unnameable", ["X\u0000Y", "X\ud800"], ids=["NUL", "lone surrogate"])
    def test_ids_no_file_name_can_hold_are_rejected_before_writing(self, tmp_path, field, unnameable):
        from subthz_chan import SynthesisParams, render_campaign

        manifest = render_campaign(SynthesisParams(), 3, 1, tmp_path / "rendered").manifest_path
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["locations"][-1][field] = unnameable
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        campaign = ingest_campaign(manifest)
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=f"^{field}: .* no file name can hold$"):
            write_campaign(campaign, out)
        assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.fixture(scope="module")
def rendered_campaign(tmp_path_factory):
    from subthz_chan import SynthesisParams, render_campaign

    return ingest_campaign(render_campaign(SynthesisParams(), 6, 3, tmp_path_factory.mktemp("rendered")).manifest_path)


class TestColumnarCampaign:
    """An ingested campaign holds columns; objects are built from them on request."""

    def rebuilt(self, campaign):
        return Campaign(
            campaign.campaign_id, campaign.carrier_hz, campaign.tx_power_dbm, campaign.locations,
            campaign.delay_resolution_ns,
        )

    def test_campaign_from_objects_equals_the_ingested_one(self, rendered_campaign):
        rebuilt = self.rebuilt(rendered_campaign)
        assert rebuilt == rendered_campaign
        assert repr(rebuilt) == repr(rendered_campaign)
        assert rebuilt.columns == rendered_campaign.columns

    def test_write_of_ingested_and_rebuilt_is_byte_identical(self, rendered_campaign, tmp_path):
        first = write_campaign(rendered_campaign, tmp_path / "ingested").parent
        second = write_campaign(self.rebuilt(rendered_campaign), tmp_path / "rebuilt").parent
        names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
        assert names == sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
        assert len(names) == 1 + len(rendered_campaign)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_indexing_builds_the_location_of_that_row(self, rendered_campaign):
        locations = rendered_campaign.locations
        assert len(locations) == len(rendered_campaign) == 12
        assert rendered_campaign[3] == locations[3]
        assert rendered_campaign[-1] == locations[-1]
        assert rendered_campaign[1:3] == locations[1:3]
        with pytest.raises(IndexError):
            rendered_campaign[len(locations)]
        key = locations[5].key
        assert rendered_campaign.find(key) == 5
        assert rendered_campaign.find((key[0], key[1], key[2].value)) == 5
        assert rendered_campaign.find(("TX?", "RX?", Polarization.VV)) is None

    def test_polarization_rows_and_pairs(self, rendered_campaign):
        vv = rendered_campaign.rows(Polarization.VV).tolist()
        vh = rendered_campaign.rows(Polarization.VH).tolist()
        assert rendered_campaign.by_polarization(Polarization.VV) == tuple(rendered_campaign[i] for i in vv)
        assert sorted(vv + vh) == list(range(len(rendered_campaign)))
        # every V-V location pairs with the V-H location of its placement, and each pair adds XPD rows
        for a in vv:
            b = rendered_campaign.find((*rendered_campaign[a].key[:2], Polarization.VH))
            assert rendered_campaign[a].key == (*rendered_campaign[b].key[:2], Polarization.VV)
            assert rendered_campaign[b].polarization is Polarization.VH
        tables = (TapTable(rendered_campaign.columns, rows) for rows in (vv, vh))
        assert sorted(set(xpd_columns(*tables).loc.tolist())) == list(range(6))


class TestLeanLane:
    """Files laid out as ``write_campaign`` writes them skip the line reader; other valid files still read."""

    @pytest.fixture
    def line_reads(self, monkeypatch):
        from subthz_chan import campaign_io

        calls = []
        original = campaign_io._SweepRows.read

        def counting(self, rel, text):
            calls.append(rel)
            original(self, rel, text)

        monkeypatch.setattr(campaign_io._SweepRows, "read", counting)
        return calls

    @pytest.mark.parametrize("n_files", [1, 4])
    def test_last_row_cut_short_without_newline(self, rendered_campaign, tmp_path, n_files):
        # no comma marks the cut line; across four files the stray values would fill whole rows
        manifest = write_campaign(rendered_campaign, tmp_path)
        files = [manifest.parent / entry["sweeps"] for entry in json.loads(manifest.read_text())["locations"]]
        for file in files[:n_files]:
            file.write_bytes(file.read_bytes() + b"180.0")
        n_lines = files[0].read_text().count("\n") + 1
        with pytest.raises(CampaignFormatError, match=re.escape(f"{files[0]}:{n_lines}: expected 4 columns")):
            ingest_campaign(manifest)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n180.0,0.0,34.0", "\n# a comment\n180.0,0.0,34.0"),
            lambda text: text.replace("\n180.0,0.0,34.0", "\n\n  \n180.0,0.0,34.0"),
            lambda text: text.rstrip("\n"),
            lambda text: text.replace("# noise_floor_db=-130.0\n", "").replace("db\n", "db\n#noise_floor_db = -130\n"),
            lambda text: text.replace("power_db\n", "power_db  \n"),
        ],
        ids=["crlf", "comment", "blank_lines", "no_final_newline", "floor_below_header", "header_spaces"],
    )
    def test_other_valid_layouts_read_line_by_line(self, tmp_path, line_reads, edit):
        expected = ingest_campaign(write_golden(tmp_path))
        line_reads.clear()
        campaign = ingest_campaign(write_golden(tmp_path, sweeps=edit(GOLDEN_SWEEPS)))
        assert campaign == expected
        assert repr(campaign) == repr(expected)
        assert line_reads == ["sweeps/TX1_RX1_VV.csv"]

    def test_spaces_around_values_read_the_same(self, tmp_path, line_reads):
        # float() strips them, as the line reader strips a row before splitting it
        expected = ingest_campaign(write_golden(tmp_path))
        sweeps = GOLDEN_SWEEPS.replace("180.0,0.0,34.0,-82.5", " 180.0, 0.0,34.0 ,-82.5\t")
        assert repr(ingest_campaign(write_golden(tmp_path, sweeps=sweeps))) == repr(expected)
        assert line_reads == []

    def test_row_lines_of_a_lean_file(self, tmp_path, line_reads):
        path = write_golden(tmp_path, sweeps=GOLDEN_SWEEPS.replace("172.0,8.0", "372.0,8.0"))
        with pytest.raises(ValidationError, match=r"tx_az_deg: 372.0 outside \[0, 360\) .*TX1_RX1_VV.csv:5\)"):
            ingest_campaign(path)
        assert line_reads == []

    def test_sweeps_with_a_trailing_slash_opens_what_pathlib_opens(self, tmp_path, line_reads):
        expected = ingest_campaign(write_golden(tmp_path))
        manifest = GOLDEN_MANIFEST.replace('TX1_RX1_VV.csv"', 'TX1_RX1_VV.csv/"')
        campaign = ingest_campaign(write_golden(tmp_path, manifest=manifest))
        assert repr(campaign) == repr(expected)
        assert list(campaign.input_sha256) == ["manifest.json", "sweeps/TX1_RX1_VV.csv/"]
        assert line_reads == ["sweeps/TX1_RX1_VV.csv/"]
