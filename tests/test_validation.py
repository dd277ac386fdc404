"""The data-model rules ``Campaign`` checks on its columns, against the writer and ingest.

Campaigns here are built straight from ``LocationColumns``, the way ingest
and render build them, so no record constructor checks them first.
"""
from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subthz_chan import (
    AntennaConfig,
    Campaign,
    CampaignFormatError,
    DirectionalPdp,
    LocationColumns,
    LocationMeasurement,
    Polarization,
    TapTable,
    ValidationError,
    ingest_campaign,
    write_campaign,
)
from subthz_chan.measurement import DB_LIMIT, db_to_linear_array

RESOLUTION_NS = 2.0
STEP_DEG = 8.0
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: the tap powers a campaign may hold
POWERS = st.floats(-DB_LIMIT, DB_LIMIT)


@st.composite
def column_campaigns(draw) -> Campaign:
    """A small valid campaign that the file format can hold, built from columns."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(["TX1", "TX2", "TX3"]), st.sampled_from(["RX1", "RX2"]), st.sampled_from(Polarization)),
            min_size=1, max_size=4, unique=True,
        )
    )
    n = len(keys)
    rx_pos = [(draw(st.floats(-100, 100)), draw(st.floats(-100, 100)), 1.5) for _ in range(n)]
    tx_pos = [(x + draw(st.floats(2, 100)), y + draw(st.floats(-100, 100)), 3.0) for x, y, _ in rx_pos]
    gains = [draw(st.sampled_from([27.0, 20.5])) for _ in range(n)]
    tx_power = draw(FINITE)
    pointings, floors, delays, powers, sweep_counts, tap_counts = [], [], [], [], [], []
    for _ in range(n):
        grid = st.tuples(st.integers(0, 44), st.integers(0, 44))
        location_pointings = draw(st.lists(grid, min_size=1, max_size=3, unique=True))
        floor = draw(FINITE)
        for i, j in location_pointings:
            lattice = sorted(draw(st.lists(st.integers(0, 500), min_size=1, max_size=4, unique=True)))
            pointings.append((STEP_DEG * i, STEP_DEG * j))
            floors.append(floor)
            delays += [RESOLUTION_NS * k for k in lattice]
            powers += draw(st.lists(POWERS, min_size=len(lattice), max_size=len(lattice)))
            tap_counts.append(len(lattice))
        sweep_counts.append(len(location_pointings))

    def antennas(height: float) -> np.ndarray:
        return np.array([(g, STEP_DEG, STEP_DEG, height) for g in gains], dtype=float)

    columns = LocationColumns(
        keys=tuple(keys),
        tx_pos_m=np.array(tx_pos, dtype=float),
        rx_pos_m=np.array(rx_pos, dtype=float),
        los=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        tx_antenna=antennas(3.0),
        rx_antenna=antennas(1.5),
        tx_power_dbm=np.full(n, tx_power),
        sweep_bounds=np.concatenate(([0], np.cumsum(sweep_counts))),
        tx_az_deg=np.array([tx for tx, _ in pointings], dtype=float),
        rx_az_deg=np.array([rx for _, rx in pointings], dtype=float),
        noise_floor_db=np.array(floors, dtype=float),
        tap_bounds=np.concatenate(([0], np.cumsum(tap_counts))),
        delay_ns=np.array(delays, dtype=float),
        power_db=np.array(powers, dtype=float),
    )
    return Campaign("columns", 142e9, tx_power, columns, RESOLUTION_NS)


def edited(campaign: Campaign, name: str, index, value) -> LocationColumns:
    """The campaign's columns with ``column[index] = value`` in a copy of column ``name``."""
    column = getattr(campaign.columns, name).copy()
    column[index] = value
    return dataclasses.replace(campaign.columns, **{name: column})


def rebuilt(campaign: Campaign, columns: LocationColumns) -> Campaign:
    return Campaign(campaign.campaign_id, campaign.carrier_hz, campaign.tx_power_dbm, columns, RESOLUTION_NS)


def tap_location(columns: LocationColumns, tap: int) -> int:
    return int(columns.sweep_loc[np.searchsorted(columns.tap_bounds, tap, side="right") - 1])


@settings(max_examples=40, derandomize=True)
@given(campaign=column_campaigns())
def test_write_then_ingest_gives_the_campaign_back(campaign):
    with tempfile.TemporaryDirectory() as tmp:
        ingested = ingest_campaign(write_campaign(campaign, Path(tmp)))
    assert ingested == campaign
    assert not ingested.columns.delay_ns.flags.writeable


#: (column, bad values): one value of one rule's column; the row is drawn
VALUE_EDITS = {
    "tx_pos_m": [np.nan, np.inf],
    "rx_pos_m": [-np.inf, np.nan],
    "tx_antenna": [0.0, np.nan, 2000.0],
    "noise_floor_db": [np.nan, -np.inf],
    "tx_az_deg": [360.0, -8.0, np.nan],
    "rx_az_deg": [400.0, np.nan],
    "delay_ns": [-2.0, np.nan, np.inf],
    "power_db": [np.nan, np.inf, -np.inf, 1000.5, -4000.0],
}
#: the field each edited column is named by
FIELDS = {"tx_antenna": "antenna.gain_dbi"}


@settings(max_examples=60, derandomize=True)
@given(campaign=column_campaigns(), data=st.data())
def test_a_tables_linear_powers_are_its_db_powers_mapped_bit_for_bit(campaign, data):
    # the table takes its linear powers from the campaign-wide column; each must be the map of its own dB power
    columns = campaign.columns
    powers = st.one_of(st.sampled_from([-DB_LIMIT, DB_LIMIT]), POWERS)
    power_db = np.array(data.draw(st.lists(powers, min_size=len(columns.power_db), max_size=len(columns.power_db))))
    # floors that keep every tap, keep a tap at -DB_LIMIT under a higher peak, or drop the taps below 0 dB
    n_sweeps = len(columns.noise_floor_db)
    floors = st.lists(st.sampled_from([-np.inf, -DB_LIMIT, 0.0]), min_size=n_sweeps, max_size=n_sweeps)
    columns = dataclasses.replace(columns, power_db=power_db, noise_floor_db=np.array(data.draw(floors)))
    rows = data.draw(st.one_of(st.none(), st.lists(st.integers(0, len(columns) - 1), min_size=1, unique=True)))
    table = TapTable(columns, rows)
    assert table.power_mw.tobytes() == db_to_linear_array(table.power_db).tobytes()


@settings(max_examples=80, derandomize=True)
@given(campaign=column_campaigns(), name=st.sampled_from(sorted(VALUE_EDITS)), data=st.data())
def test_one_bad_value_names_its_location_and_field(campaign, name, data):
    c = campaign.columns
    value = data.draw(st.sampled_from(VALUE_EDITS[name]))
    index = data.draw(st.integers(0, len(getattr(c, name)) - 1))
    if name in ("tx_pos_m", "rx_pos_m", "tx_antenna"):
        row, index = index, (index, 0)
    elif name in ("noise_floor_db", "tx_az_deg", "rx_az_deg"):
        row = int(c.sweep_loc[index])
    else:
        row = tap_location(c, index)
    with pytest.raises(ValidationError, match=rf"^locations\[{row}\]\.{FIELDS.get(name, name)}: "):
        rebuilt(campaign, edited(campaign, name, index, value))


@settings(max_examples=40, derandomize=True)
@given(campaign=column_campaigns(), data=st.data())
def test_structure_edits_name_their_location(campaign, data):
    c = campaign.columns
    kind = data.draw(st.sampled_from(["empty id", "near", "no sweeps", "no bins", "off lattice", "hpbw"]))
    if kind == "empty id":
        row = data.draw(st.integers(0, len(c) - 1))
        keys = list(c.keys)
        keys[row] = ("", *keys[row][1:])
        columns, field = dataclasses.replace(c, keys=tuple(keys)), "tx_id"
    elif kind == "near":
        row = data.draw(st.integers(0, len(c) - 1))
        columns, field = edited(campaign, "tx_pos_m", row, c.rx_pos_m[row] + (0.5, 0.0, 0.0)), "distance_m"
    elif kind == "hpbw":
        row = data.draw(st.integers(0, len(c) - 1))
        columns, field = edited(campaign, "rx_antenna", (row, 1), 9.0), "antenna.hpbw_deg"
    elif kind == "no sweeps":
        # a location's sweeps moved to its neighbour
        assume(len(c) > 1)
        row = data.draw(st.integers(0, len(c) - 2))
        columns, field = edited(campaign, "sweep_bounds", row + 1, c.sweep_bounds[row]), "sweeps"
    elif kind == "no bins":
        assume(len(c.tx_az_deg) > 1)
        sweep = data.draw(st.integers(0, len(c.tx_az_deg) - 2))
        row, field = int(c.sweep_loc[sweep]), "sweeps"
        columns = edited(campaign, "tap_bounds", sweep + 1, c.tap_bounds[sweep])
    else:
        # a tap moved half a lattice step, when its sweep has another tap to step to or from
        tap = data.draw(st.integers(0, len(c.delay_ns) - 1))
        sweep = np.searchsorted(c.tap_bounds, tap, side="right") - 1
        assume(c.tap_bounds[sweep + 1] - c.tap_bounds[sweep] > 1)
        row, field = tap_location(c, tap), "delay_ns"
        columns = edited(campaign, "delay_ns", tap, c.delay_ns[tap] + RESOLUTION_NS / 2)
    with pytest.raises(ValidationError, match=rf"^locations\[{row}\]\.{field}: "):
        rebuilt(campaign, columns)


#: the sweep-file columns whose values ingest checks row by row, and bad values for each
ROW_EDITS = {
    "tx_az_deg": [360.0, -8.0, np.nan],
    "rx_az_deg": [400.0, np.inf],
    "delay_ns": [-2.0, np.nan],
    "power_db": [np.nan, -np.inf, 4000.0, -1e300],
}
FILE_COLUMNS = ("tx_az_deg", "rx_az_deg", "delay_ns", "power_db")


@settings(max_examples=40, derandomize=True)
@given(campaign=column_campaigns(), name=st.sampled_from(sorted(ROW_EDITS)), data=st.data())
def test_a_bad_file_value_and_the_same_column_value_name_one_field(campaign, name, data):
    c = campaign.columns
    value = data.draw(st.sampled_from(ROW_EDITS[name]))
    tap = data.draw(st.integers(0, len(c.delay_ns) - 1))
    row = tap_location(c, tap)
    sweep = np.searchsorted(c.tap_bounds, tap, side="right") - 1
    index = sweep if name.endswith("az_deg") else tap
    with pytest.raises(ValidationError, match=rf"^locations\[{row}\]\.{name}: "):
        rebuilt(campaign, edited(campaign, name, index, value))

    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_campaign(campaign, Path(tmp))
        tx_id, rx_id, pol = c.keys[row]
        sweep_file = manifest.parent / "sweeps" / f"{tx_id}_{rx_id}_{pol.value}.csv"
        lines = sweep_file.read_text().splitlines(keepends=True)
        line = 2 + tap - int(c.tap_bounds[c.sweep_bounds[row]])  # 0-based: the floor and the header come first
        values = lines[line].rstrip("\n").split(",")
        values[FILE_COLUMNS.index(name)] = repr(float(value))
        lines[line] = ",".join(values) + "\n"
        sweep_file.write_text("".join(lines))
        with pytest.raises(ValidationError) as err:
            ingest_campaign(manifest)
    assert not isinstance(err.value, CampaignFormatError)
    assert err.value.field == name
    assert str(err.value).endswith(f"({sweep_file}:{line + 1})")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"antenna": {"gain_dbi": 0.0, "hpbw_deg": 8.0, "az_step_deg": 8.0}}, "locations[1].antenna.gain_dbi: must be > 0, got 0.0"),
        ({"tx_pos_m": [0.5, 0.0, 1.5]}, "locations[1].distance_m: TX-RX distance 0.500 m must exceed 1.0 m"),
    ],
)
def test_ingest_builds_no_record_for_a_location_fault(tmp_path, monkeypatch, edit, message):
    sweeps = (DirectionalPdp(0.0, 0.0, (100.0, 102.0), (-60.0, -70.0), -130.0),)
    antenna = AntennaConfig()
    locations = [
        LocationMeasurement(f"TX{i}", "RX1", (10.0, 0.0, 3.0), (0.0, 0.0, 1.5), "VV", True, sweeps, antenna, antenna, 0.0)
        for i in range(3)
    ]
    manifest = write_campaign(Campaign("faults", 142e9, 0.0, locations), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["locations"][1].update(edit)
    manifest.write_text(json.dumps(doc))
    built = []
    for cls in (AntennaConfig, DirectionalPdp, LocationMeasurement):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    with pytest.raises(CampaignFormatError) as err:
        ingest_campaign(manifest)
    assert str(err.value) == f"{manifest}: {message}"
    assert built == []


def three_locations() -> list[LocationMeasurement]:
    """Three locations of one and two sweeps, two taps each."""
    antenna = AntennaConfig()
    first, second, third = (
        DirectionalPdp(0.0, 0.0, (100.0, 102.0), (-60.0, -70.0), -130.0),
        DirectionalPdp(8.0, 8.0, (104.0, 106.0), (-65.0, -75.0), -130.0),
        DirectionalPdp(16.0, 0.0, (110.0, 112.0), (-61.0, -71.0), -130.0),
    )
    sweeps = [(first,), (first, second), (third,)]
    return [
        LocationMeasurement(f"TX{i}", "RX1", (10.0, 0.0, 3.0), (0.0, 0.0, 1.5), "VV", True, s, antenna, antenna, 0.0)
        for i, s in enumerate(sweeps)
    ]


def columns_with(**edits) -> LocationColumns:
    """The columns of ``three_locations`` with each named column replaced by ``edit(column)``."""
    columns = LocationColumns.of(three_locations())
    return dataclasses.replace(columns, **{name: edit(getattr(columns, name)) for name, edit in edits.items()})


def with_short_powers(locations: list[LocationMeasurement]) -> list[LocationMeasurement]:
    """``locations`` with one power of the second sweep of location 1 dropped."""
    loc = locations[1]
    locations[1] = dataclasses.replace(loc, sweeps=(loc.sweeps[0], dataclasses.replace(loc.sweeps[1], powers_db=(-65.0,))))
    return locations


@pytest.mark.parametrize(
    "locations, message",
    [
        # hand-built columns whose shapes their counts do not imply
        (lambda: columns_with(power_db=lambda p: p[:-1]), "locations[2].power_db: has shape (7,), need (8,)"),
        (lambda: columns_with(los=lambda los: los[:-1]), "locations[2].los: has shape (2,), need (3,)"),
        (lambda: columns_with(tx_pos_m=lambda pos: pos[:, :2]), "locations[0].tx_pos_m: has shape (3, 2), need (3, 3)"),
        (lambda: columns_with(tap_bounds=lambda b: b + np.arange(len(b)) // 4),
         "locations[2].tap_bounds: must be integers from 0 up to 8, got 9 at [4]"),
        (lambda: columns_with(sweep_bounds=lambda b: b[[0, 2, 1, 3]]),
         "locations[1].sweep_bounds: must be integers from 0 up to 4, got 1 at [2]"),
        (lambda: columns_with(tap_bounds=lambda b: b.astype(float)),
         "locations[0].tap_bounds: must be integers from 0 up to 8, got 0.0 at [0]"),
        # columns of the right shape but not of the type the analysis reads
        (lambda: columns_with(los=lambda los: los.tolist()), "locations[0].los: has type list, need a numpy array"),
        (lambda: columns_with(power_db=lambda p: p.tolist()), "locations[0].power_db: has type list, need a numpy array"),
        (lambda: columns_with(tx_az_deg=lambda az: az.astype(np.int64)),
         "locations[0].tx_az_deg: has dtype int64, need float64"),
        # records the columns cannot hold
        (lambda: [dataclasses.replace(three_locations()[0], tx_pos_m=(10.0, 0.0))],
         "locations[0].tx_pos_m: position (10.0, 0.0) must be 3 numbers"),
        (lambda: [*three_locations()[:2], dataclasses.replace(three_locations()[2], rx_pos_m=(0.0, 0.0))],
         "locations[2].rx_pos_m: position (0.0, 0.0) must be 3 numbers"),
        (lambda: with_short_powers(three_locations()), "locations[1].powers_db: PDP (8.0, 8.0) has 1 powers for 2 delays"),
    ],
    ids=["power_db short", "los short", "tx_pos_m (n, 2)", "tap_bounds past the taps", "sweep_bounds decrease",
         "tap_bounds of floats", "los a list", "power_db a list", "tx_az_deg of integers", "2-vector position, 1 location", "2-vector position, 3 locations", "powers short"],
)
def test_a_shape_fault_names_its_location_and_field(locations, message):
    with pytest.raises(ValidationError) as err:
        Campaign("shapes", 142e9, 0.0, locations())
    assert str(err.value) == message
