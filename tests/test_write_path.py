"""The columnar write path against the per-record writers it replaced.

``render_campaign`` draws its drops into columns and fills a campaign's
columns straight from them, ``write_campaign`` formats every column in bulk
and writes each sweep file through ``os.write``, ``ingest --format json``
fills a fixed template per location, and the truth file one per drop.
``write_reference`` keeps the record-building draw and render, the
per-location sweep writer, the ``json.dump`` manifest and the dict-building
documents: the drops and the bytes must be equal.
"""
from __future__ import annotations

import dataclasses
import io
import json
import logging
import math
import os
import stat
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import make_location, make_pdp
from hypothesis import assume, given
from hypothesis import strategies as st
from write_reference import (
    _reference_lobe_centers,
    column_drop_tuples,
    drop_tuple,
    reference_ingest_json,
    reference_ingest_text,
    reference_render_campaign,
    reference_sample_drop,
    reference_truth_json,
    reference_write_campaign,
)

from subthz_chan import (
    AntennaConfig,
    Campaign,
    DirectionalPdp,
    LocationColumns,
    LocationMeasurement,
    Polarization,
    SynthesisParams,
    ValidationError,
    draw_drops,
    factory_campaign_layout,
    ingest_campaign,
    render_campaign,
    synthesis,
    write_campaign,
)
from subthz_chan.cli import EXIT_IO, _ingest_json, main
from subthz_chan.measurement import DB_LIMIT

SRC = Path(__file__).resolve().parent.parent / "src"


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def ingest_stdout(manifest: Path, fmt: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["ingest", "--manifest", str(manifest), "--format", fmt]) == 0
    return out.getvalue()


#: the default parameters and a 1 ns lattice on a 7.2 degree grid
PARAMS = {
    "default": SynthesisParams(),
    "lattice-1ns": SynthesisParams(delay_resolution_ns=1.0, az_step_deg=7.2, carrier_hz=140_000_000_000),
}

#: (id, params, placements, seed, keyword arguments of both renders)
RENDERS = [
    ("n1-seed3", SynthesisParams(), 1, 3, {}),
    ("n40-seed1", SynthesisParams(), 40, 1, {}),
    ("n40-seed7", SynthesisParams(), 40, 7, {}),
    ("n200-seed11", SynthesisParams(), 200, 11, {}),
    ("factory-seed7", SynthesisParams(), None, 7, {"layout": factory_campaign_layout()}),
    (
        "lattice-1ns",
        PARAMS["lattice-1ns"],
        30,
        5,
        {"tx_power_dbm": 10, "campaign_id": 'fäctory "1 ns"\\\x01'},
    ),
]


@pytest.fixture(scope="module", params=RENDERS, ids=[r[0] for r in RENDERS])
def render(request, tmp_path_factory):
    """Both renders of one case, and the campaign the columnar render wrote."""
    _, params, placements, seed, kwargs = request.param
    root = tmp_path_factory.mktemp("render")
    written = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "write_campaign", lambda c, out: written.append(c) or write_campaign(c, out))
        rendered = render_campaign(params, placements, seed, root / "columnar", **kwargs)
    locations, drops, manifest = reference_render_campaign(params, placements, seed, root / "records", **kwargs)
    return {"rendered": rendered, "campaign": written[0], "locations": locations, "drops": drops, "manifest": manifest}


class TestRender:
    def test_same_bytes_as_the_record_render(self, render):
        columnar = render["rendered"].manifest_path.parent
        expected = tree(render["manifest"].parent)
        assert len(expected) == 1 + 2 * len(render["drops"])
        assert tree(columnar) == expected

    def test_columns_equal_those_of_the_records(self, render):
        columns, expected = render["campaign"].columns, LocationColumns.of(render["locations"])
        assert columns == expected
        assert columns.keys == expected.keys
        for field in dataclasses.fields(LocationColumns)[1:]:
            assert getattr(columns, field.name).dtype == getattr(expected, field.name).dtype, field.name

    def test_drops_unchanged(self, render):
        drops, expected = column_drop_tuples(render["rendered"].truth), [drop_tuple(d) for d in render["drops"]]
        assert drops == expected
        assert repr(drops) == repr(expected)

    def test_truth_json(self, render):
        assert render["rendered"].truth_json() == reference_truth_json(render["drops"])

    def test_ingest_outputs(self, render):
        manifest = render["rendered"].manifest_path
        campaign = ingest_campaign(manifest)
        assert ingest_stdout(manifest, "json") == reference_ingest_json(campaign) + "\n"
        assert ingest_stdout(manifest, "text") == reference_ingest_text(campaign)

    def test_builds_no_record(self, tmp_path, monkeypatch):
        built = []
        for cls in (DirectionalPdp, LocationMeasurement):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: built.append(self) or check(self))
        rendered = render_campaign(SynthesisParams(), 5, 2, tmp_path)
        rendered.truth_json()
        assert built == []
        assert len(rendered.truth.distance_m) == 5

    def test_truth_is_read_only(self, tmp_path):
        truth = render_campaign(SynthesisParams(), 3, 2, tmp_path).truth
        for f in dataclasses.fields(truth):
            column = getattr(truth, f.name)
            assert isinstance(column, np.ndarray) and not column.flags.writeable, f.name
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert not truth.omni_xpd_db.flags.writeable
        assert truth.omni_xpd_db is truth.omni_xpd_db
        with pytest.raises(dataclasses.FrozenInstanceError):
            truth.pl_db = truth.pl_db

    def test_rendered_campaign_is_a_frozen_value(self, tmp_path):
        first, again, other = (render_campaign(SynthesisParams(), 5, seed, tmp_path) for seed in (2, 2, 3))
        assert first == again and hash(first) == hash(again)
        assert first != other and first.manifest_path == other.manifest_path
        assert repr(first) == f"RenderedCampaign(manifest_path={first.manifest_path!r})"
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.manifest_path = tmp_path
        assert first.truth == again.truth and first == again
        assert first.truth != other.truth

    def test_empty_layout_is_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="layout"):
            render_campaign(SynthesisParams(), None, 0, tmp_path / "c", layout=[])
        assert not (tmp_path / "c").exists()


class TestDrawOracle:
    """``draw_drops`` draws into campaign-wide columns; the record-building draw, with
    ``rng.choice`` placing the lobes, must give the same drops."""

    @pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
    @pytest.mark.parametrize("name", list(PARAMS))
    def test_seed_sweep(self, name, los):
        params = PARAMS[name]
        rng = np.random.default_rng(17)
        distances = rng.uniform(*params.distance_range_m, 300).tolist()
        seeds = rng.integers(0, 2**63 - 1, 300).tolist()
        truth = draw_drops(params, distances, seeds, [los] * 300)
        assert len(truth.distance_m) == 300
        for i, (drop, seed, distance) in enumerate(zip(column_drop_tuples(truth), seeds, distances)):
            oracle = reference_sample_drop(params, distance, seed, los)
            expected = drop_tuple(oracle)
            assert drop == expected, seed
            assert repr(drop) == repr(expected), seed
            assert truth.omni_xpd_db[i].item().hex() == oracle.effective_omni_xpd_db.hex(), seed

    @pytest.mark.parametrize("nbins, count", [(6, 2), (45, 7), (45, 15), (50, 16), (200, 40), (360, 120)])
    def test_lobe_centres_leave_the_stream_aligned(self, nbins, count):
        for seed in range(100):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            fix_first = seed % 2 == 0
            centers = synthesis._draw_lobe_centers(rng, nbins, count, fix_first)
            assert centers == _reference_lobe_centers(reference, nbins, count, fix_first), seed
            assert rng.random() == reference.random(), seed


def silent_location(like: LocationMeasurement) -> LocationMeasurement:
    """A co-polar location whose every pointing sits below the noise floor."""
    sweeps = [
        make_pdp([10.0, 12.0, 14.0], [-118.0, -112.0, -121.0], tx_az=(180.0 - az) % 360.0, rx_az=az, floor=-110.0)
        for az in (0.0, 90.0, 180.0)
    ]
    return dataclasses.replace(
        like, tx_id="TX9999", rx_id="RX9999", tx_pos_m=(40.0, -10.0, 3.0), rx_pos_m=(0.0, -10.0, 1.5),
        polarization=Polarization.VV, los=False, sweeps=sweeps,
    )


class TestWrite:
    @pytest.mark.parametrize("placements, seed", [(40, 11), (25, 1)])
    def test_rendered_campaign_with_a_no_signal_location(self, tmp_path, placements, seed):
        rendered = ingest_campaign(render_campaign(SynthesisParams(), placements, seed, tmp_path / "r").manifest_path)
        locations = rendered.locations + (silent_location(rendered.locations[0]),)
        campaign = Campaign(rendered.campaign_id, rendered.carrier_hz, rendered.tx_power_dbm, locations)
        manifest = write_campaign(campaign, tmp_path / "columnar")
        assert tree(manifest.parent) == tree(reference_write_campaign(campaign, tmp_path / "records").parent)
        ingested = ingest_campaign(manifest)
        assert ingest_stdout(manifest, "json") == reference_ingest_json(ingested) + "\n"
        assert ingest_stdout(manifest, "text") == reference_ingest_text(ingested)

    def test_overwrites_a_longer_file(self, tmp_path):
        campaign = Campaign("c", 142e9, 0.0, (make_location([make_pdp([100.0], [-60.0], floor=-130.0)]),))
        sweep = tmp_path / "columnar" / "sweeps" / "TX1_RX1_VV.csv"
        sweep.parent.mkdir(parents=True)
        sweep.write_bytes(b"x" * 10_000)
        columnar = write_campaign(campaign, tmp_path / "columnar").parent
        assert tree(columnar) == tree(reference_write_campaign(campaign, tmp_path / "records").parent)


class TestWriteFile:
    """Sweep files go through ``os.open`` and ``os.write`` with ``open(path, "wb")``'s semantics."""

    def test_short_writes_write_the_whole_file(self, tmp_path, monkeypatch):
        write, sizes = os.write, []

        def one_byte(fd, data):
            sizes.append(len(data))
            return write(fd, bytes(data[:1]))

        campaign = valid_campaign()
        monkeypatch.setattr(os, "write", one_byte)
        columnar = write_campaign(campaign, tmp_path / "columnar").parent
        monkeypatch.undo()
        assert tree(columnar) == tree(reference_write_campaign(campaign, tmp_path / "records").parent)
        assert len(sizes) == sum(len(data) for name, data in tree(columnar).items() if name.startswith("sweeps"))

    def test_writes_over_another_campaign(self, tmp_path):
        # the same file names, with sweep files longer, shorter and as long as the new ones;
        # like ``open(path, "wb")``, the write keeps each file's inode
        for seed in (1, 2):
            manifest = render_campaign(SynthesisParams(), 40, seed, tmp_path / "over").manifest_path
        inodes = {p: p.stat().st_ino for p in (manifest.parent / "sweeps").iterdir()}
        seed_1 = ingest_campaign(render_campaign(SynthesisParams(), 40, 1, tmp_path / "old").manifest_path)
        write_campaign(seed_1, tmp_path / "over")
        fresh = render_campaign(SynthesisParams(), 40, 1, tmp_path / "fresh").manifest_path
        assert tree(manifest.parent) == tree(fresh.parent)
        assert {p: p.stat().st_ino for p in (manifest.parent / "sweeps").iterdir()} == inodes

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000, 0o137])
    def test_new_files_get_the_mode_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            manifest = write_campaign(valid_campaign(), tmp_path / "out")
            with open(tmp_path / "by_open", "wb"):
                pass
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "by_open").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert {stat.S_IMODE(p.stat().st_mode) for p in (manifest.parent / "sweeps").iterdir()} == {mode}

    def test_one_open_per_sweep_file(self, tmp_path, monkeypatch):
        real_open, opened = os.open, []
        monkeypatch.setattr(os, "open", lambda path, *args: opened.append(path) or real_open(path, *args))
        manifest = write_campaign(valid_campaign(), tmp_path / "out")
        monkeypatch.undo()
        assert sorted(opened) == sorted(map(str, (manifest.parent / "sweeps").iterdir()))
        assert len(opened) == 6

    @pytest.mark.parametrize("blocked", ["out/sweeps/TX0001_RX0001_VH.csv", "file/out/sweeps"])
    def test_unwritable_out_exits_4_naming_the_path(self, tmp_path, capsys, blocked):
        if blocked.startswith("file"):
            (tmp_path / "file").write_bytes(b"")
            out = tmp_path / "file" / "out"
        else:
            (tmp_path / blocked).mkdir(parents=True)
            out = tmp_path / "out"
        assert main(["synth", "--n", "2", "--seed", "1", "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")
        assert f"'{tmp_path / blocked}'" in captured.err


def two_locations(tx_id, rx_id, tx_pos, rx_pos, los, antenna, carrier_hz, tx_power_dbm, floor, rows, resolution=2.0):
    """A V-V and a V-H location of one placement, one pointing each."""
    sweeps = [make_pdp([d for d, _ in rows], [p for _, p in rows], tx_az=180.0, rx_az=0.0, floor=floor)]
    locations = tuple(
        LocationMeasurement(tx_id, rx_id, tx_pos, rx_pos, pol, los, sweeps, antenna, antenna, tx_power_dbm)
        for pol in Polarization
    )
    return Campaign(f"{tx_id}/{rx_id}", carrier_hz, tx_power_dbm, locations, resolution)


def assert_same_documents(campaign: Campaign) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        columnar = write_campaign(campaign, Path(tmp) / "columnar").parent
        assert tree(columnar) == tree(reference_write_campaign(campaign, Path(tmp) / "records").parent)
    assert _ingest_json(campaign) == reference_ingest_json(campaign)


#: ids a JSON string must escape: non-ASCII, quote, backslash and control characters
ID = st.text(st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)), min_size=1, max_size=6)
NUMBER = st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 0.1, 1.00025]) | st.floats(allow_nan=False, allow_infinity=False)
#: the tap powers a campaign may hold, the limits among them
POWER = st.sampled_from([-0.0, 0.0, 1e-05, 0.1, 1.00025, DB_LIMIT, -DB_LIMIT]) | st.floats(-DB_LIMIT, DB_LIMIT)


class TestJsonLayout:
    """The templates against ``json.dumps(..., indent=2, sort_keys=True)``."""

    @given(
        ids=st.tuples(ID, ID),
        tx_pos=st.tuples(NUMBER, NUMBER, NUMBER),
        rx_pos=st.tuples(NUMBER, NUMBER, NUMBER),
        los=st.booleans(),
        gain=st.sampled_from([27.0, 27, 1e-05, DB_LIMIT, 0.5]),
        carrier_hz=st.sampled_from([142e9, 142_000_000_000, 1e16, 0.1]),
        tx_power_dbm=st.sampled_from([0.0, -0.0, 0, 10, 1e-05, 1e16, -7.25]),
        floor=NUMBER,
        powers=st.lists(POWER, min_size=1, max_size=3),
        res=st.sampled_from([2.0, 1, 1e-05]),
    )
    def test_matches_json_dumps(self, ids, tx_pos, rx_pos, los, gain, carrier_hz, tx_power_dbm, floor, powers, res):
        assume(1.0 < math.dist(tx_pos, rx_pos) < math.inf)
        rows = [(2.0 * k, p) for k, p in enumerate(powers)]
        antenna = AntennaConfig(gain_dbi=gain)
        campaign = two_locations(*ids, tx_pos, rx_pos, los, antenna, carrier_hz, tx_power_dbm, floor, rows, res)
        assert_same_documents(campaign)

    @pytest.mark.parametrize(
        "ids, tx_pos",
        [
            (("TXé中", 'R"X\\1'), (1e16, -0.0, 1e-05)),
            (("\x01\n\t", "\x7f "), (1.00025, 0.0, 0.0)),
        ],
    )
    def test_table(self, ids, tx_pos):
        antenna = AntennaConfig(gain_dbi=1e-05, hpbw_deg=7.2, az_step_deg=7.2)
        campaign = two_locations(*ids, tx_pos, (0.0, 0.0, 0.0), True, antenna, 142_000_000_000, 0, -0.0,
                                 [(0.0, DB_LIMIT), (2.0, -0.0), (4.0, 1e-05)])
        assert_same_documents(campaign)

    def test_distance_rounds_as_python_round(self):
        # the nearest double to 1.00025 lies just above it: round gives 1.0003, np.round 1.0002
        assert (round(1.00025, 4), float(np.round(1.00025, 4))) == (1.0003, 1.0002)
        campaign = two_locations("TX", "RX", (1.00025, 0.0, 0.0), (0.0, 0.0, 0.0), True, AntennaConfig(), 142e9, 0.0,
                                 -100.0, [(0.0, -50.0)])
        assert campaign.columns.distance_m[0] == 1.00025
        assert json.loads(_ingest_json(campaign))["locations"][0]["distance_m"] == 1.0003


def valid_campaign() -> Campaign:
    locations = [
        make_location([make_pdp([100.0, 102.0], [-60.0, -70.0], floor=-130.0)], tx_id=f"TX{i}", pol=pol)
        for i in range(3)
        for pol in Polarization
    ]
    return Campaign("checked", 142e9, 0.0, locations)


def with_column(campaign: Campaign, **columns) -> Campaign:
    c = campaign.columns
    values = {name: getattr(c, name).copy() for name in columns}
    for name, edit in columns.items():
        edit(values[name])
    return Campaign(campaign.campaign_id, campaign.carrier_hz, campaign.tx_power_dbm, dataclasses.replace(c, **values))


def set_at(index, value):
    def edit(column):
        column[index] = value

    return edit


class TestWriteChecks:
    """A campaign that ingest would reject cannot be built, so it never reaches the
    writer; the writer refuses what only the file format cannot hold."""

    @pytest.mark.parametrize(
        "columns, message",
        [
            (
                {"tx_pos_m": set_at((3, 1), math.nan)},
                "locations[3].tx_pos_m: position (9.886859966642595, nan, 3.0) must be finite",
            ),
            ({"rx_pos_m": set_at((2, 0), math.inf)}, "locations[2].rx_pos_m: position (inf, 0.0, 1.5) must be finite"),
            ({"power_db": set_at(5, math.nan)}, "locations[2].power_db: power must be finite"),
            ({"rx_az_deg": set_at(4, 400.0)}, "locations[4].rx_az_deg: 400.0 outside [0, 360)"),
            ({"tx_az_deg": set_at(1, -8.0)}, "locations[1].tx_az_deg: -8.0 outside [0, 360)"),
            ({"delay_ns": set_at(0, -2.0)}, "locations[0].delay_ns: delay -2.0 must be >= 0"),
            ({"delay_ns": set_at(7, math.nan)}, "locations[3].delay_ns: delay nan must be >= 0"),
            ({"noise_floor_db": set_at(5, math.inf)}, "locations[5].noise_floor_db: must be finite, got inf"),
            (
                {"tx_antenna": set_at((1, 0), math.nan), "rx_antenna": set_at((1, 0), math.nan)},
                "locations[1].antenna.gain_dbi: must be finite, got nan",
            ),
            (
                {"tx_antenna": set_at((4, 1), 9.0), "rx_antenna": set_at((4, 1), 9.0)},
                "locations[4].antenna.hpbw_deg: need 0 < hpbw_deg <= az_step_deg <= 360, got hpbw=9.0, step=8.0",
            ),
            (
                {"tx_pos_m": set_at((2, slice(None)), (0.5, 0.0, 1.5))},
                "locations[2].distance_m: TX-RX distance 0.500 m must exceed 1.0 m",
            ),
            (
                {"tx_pos_m": set_at((2, 0), 1e308), "rx_pos_m": set_at((2, 0), -1e308)},
                "locations[2].distance_m: TX-RX distance overflows to inf",
            ),
            # the first failing location is named, whichever check fails there
            ({"power_db": set_at(9, math.nan), "rx_az_deg": set_at(3, 360.0)}, "locations[3].rx_az_deg: 360.0 outside"),
            # ingest would sort these, or reject the repeat, or the step off the lattice
            (
                {"delay_ns": set_at(7, 98.0)},
                "locations[3].delay_ns: delays must be strictly increasing, got 100.0 then 98.0",
            ),
            (
                {"delay_ns": set_at(9, 100.0)},
                "locations[4].delay_ns: delays must be strictly increasing, got 100.0 then 100.0",
            ),
            (
                {"delay_ns": set_at(5, 101.0)},
                "locations[2].delay_ns: delays must sit on the 2 ns lattice, got 100.0 then 101.0",
            ),
        ],
    )
    def test_refused_before_writing(self, columns, message):
        with pytest.raises(ValidationError) as err:
            with_column(valid_campaign(), **columns)
        assert str(err.value).startswith(message)

    def test_repeated_pointing(self):
        # ingest would read the two sweeps back as one, their taps merged
        sweeps = [make_pdp([100.0], [-60.0], rx_az=0.0), make_pdp([102.0], [-70.0], rx_az=8.0)]
        campaign = Campaign("pointing", 142e9, 0.0, [make_location(sweeps)])
        with pytest.raises(ValidationError, match=r"^locations\[0\]\.sweeps: duplicate pointing pair \(0\.0, 0\.0\)$"):
            with_column(campaign, rx_az_deg=set_at(1, 0.0))

    def test_steps_within_tolerance_read_back(self, tmp_path):
        campaign = with_column(valid_campaign(), delay_ns=set_at(1, 102.0 + 1e-9))
        assert ingest_campaign(write_campaign(campaign, tmp_path / "out")) == campaign

    def test_empty_ids(self):
        c = valid_campaign().columns
        keys = c.keys[:3] + (("", "RX1", Polarization.VH),) + c.keys[4:]
        with pytest.raises(ValidationError, match=r"^locations\[3\]\.tx_id: tx_id and rx_id must be non-empty$"):
            Campaign("ids", 142e9, 0.0, dataclasses.replace(c, keys=keys))

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
    def test_delay_resolution(self, resolution):
        c = valid_campaign()
        with pytest.raises(ValidationError, match="^delay_resolution_ns: must be > 0 and finite, got"):
            Campaign("res", 142e9, 0.0, c.columns, resolution)

    def test_no_locations_sweeps_or_bins(self, tmp_path):
        with pytest.raises(ValidationError, match="campaign has no locations"):
            write_campaign(Campaign("empty", 142e9, 0.0, ()), tmp_path / "out")
        assert not (tmp_path / "out").exists()
        c = valid_campaign().columns
        bounds = c.sweep_bounds.copy()
        bounds[2] = bounds[1]  # location 1 loses its sweep to location 2
        with pytest.raises(ValidationError, match=r"^locations\[1\]\.sweeps: location has no sweeps$"):
            Campaign("sweeps", 142e9, 0.0, dataclasses.replace(c, sweep_bounds=bounds))
        taps = c.tap_bounds.copy()
        taps[4] = taps[3]  # sweep 3 (location 3's) loses its bins to sweep 4
        with pytest.raises(ValidationError, match=r"^locations\[3\]\.sweeps: PDP \(0\.0, 0\.0\) has no bins$"):
            Campaign("bins", 142e9, 0.0, dataclasses.replace(c, tap_bounds=taps))

    def test_varying_noise_floor(self, tmp_path):
        sweeps = [make_pdp([100.0], [-60.0], rx_az=0.0, floor=-130.0), make_pdp([102.0], [-70.0], rx_az=8.0, floor=-120.0)]
        campaign = Campaign("floors", 142e9, 0.0, [make_location(sweeps, tx_id="TX0"), make_location(sweeps)])
        message = r"^noise_floor_db: sweep file format stores one noise floor per location \(locations\[0\], TX0-RX1 VV\)$"
        with pytest.raises(ValidationError, match=message):
            write_campaign(campaign, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_columns_are_read_only(self):
        campaign = valid_campaign()
        with pytest.raises(ValueError, match="read-only"):
            campaign.columns.delay_ns[0] = 98.0
        assert campaign.columns.delay_ns[0] == 100.0

    def test_infinite_distance_is_rejected_by_the_record(self):
        sweeps, antenna, far = (make_pdp([0.0], [-60.0]),), AntennaConfig(), 1e308
        record = LocationMeasurement("TX", "RX", (far, 0.0, 0.0), (-far, 0.0, 0.0), "VV", True, sweeps, antenna, antenna, 0.0)
        with pytest.raises(ValidationError, match=r"^locations\[0\]\.distance_m: TX-RX distance overflows to inf$"):
            Campaign("c", 142e9, 0.0, (record,))


class TestWriteLog:
    def test_one_info_line_with_counts(self, tmp_path, caplog):
        campaign = valid_campaign()
        with caplog.at_level(logging.INFO, logger="subthz_chan.campaign_io"):
            write_campaign(campaign, tmp_path)
        (record,) = caplog.records
        n_bytes = sum(len(data) for data in tree(tmp_path).values())
        assert record.getMessage().startswith(f"wrote checked: 6 locations, 7 files, 12 rows, {n_bytes} bytes in ")

    @pytest.mark.parametrize("level", [None, "INFO"])
    def test_synth_stderr(self, tmp_path, level):
        env = {k: v for k, v in os.environ.items() if k != "SUBTHZ_CHAN_LOG"}
        env["PYTHONPATH"] = str(SRC)
        if level:
            env["SUBTHZ_CHAN_LOG"] = level
        argv = [sys.executable, "-m", "subthz_chan", "synth", "--n", "2", "--seed", "1", "--out", str(tmp_path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout == f"{tmp_path / 'manifest.json'}\n"
        if level is None:
            assert done.stderr == ""
        else:
            (line,) = done.stderr.splitlines()
            assert line.startswith("INFO:subthz_chan.campaign_io:wrote synthetic-factory-142ghz: 4 locations, 5 files")
