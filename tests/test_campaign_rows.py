"""``Campaign.rows`` against a loop oracle, and the writer's id check."""
from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subthz_chan import Campaign, Polarization, ValidationError, write_campaign
from conftest import make_location, make_pdp

KEYS = st.tuples(st.sampled_from(["TX1", "TX2", "TX10"]), st.sampled_from(["RX1", "RX2", "RX10"]), st.sampled_from(Polarization))


def campaign_of(keys) -> Campaign:
    locations = [
        make_location([make_pdp([100.0], [-60.0], floor=-130.0)], tx_id=tx_id, rx_id=rx_id, pol=pol)
        for tx_id, rx_id, pol in keys
    ]
    return Campaign("index", 142e9, 0.0, locations)


def rows_oracle(keys, pol) -> list[int]:
    return [row for row, key in enumerate(keys) if key[2] is pol]


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(KEYS, min_size=1, max_size=12, unique=True).flatmap(st.permutations))
def test_rows_match_the_loop(keys):
    campaign = campaign_of(keys)
    for pol in Polarization:
        assert campaign.rows(pol).tolist() == rows_oracle(keys, pol)
        assert campaign.rows(pol.value).tolist() == rows_oracle(keys, pol)


def test_rows_run_in_campaign_order():
    keys = [
        ("TX2", "RX1", Polarization.VH),
        ("TX10", "RX1", Polarization.VV),
        ("TX2", "RX1", Polarization.VV),
        ("TX1", "RX2", Polarization.VV),
        ("TX10", "RX1", Polarization.VH),
    ]
    campaign = campaign_of(keys)
    assert campaign.rows(Polarization.VV).tolist() == [1, 2, 3]
    assert campaign.rows(Polarization.VH).tolist() == [0, 4]


def test_rows_are_read_only():
    campaign = campaign_of([("TX1", "RX1", Polarization.VV)])
    with pytest.raises(ValueError):
        campaign.rows(Polarization.VV)[0] = 5


def test_repeated_location_names_its_first_repeat():
    keys = [("TX1", "RX1", Polarization.VV), ("TX2", "RX1", Polarization.VV), ("TX1", "RX1", Polarization.VV)]
    with pytest.raises(ValidationError, match=r"^locations\[2\]: repeats location TX1-RX1 \(VV\) of locations\[0\]$"):
        campaign_of(keys)


@pytest.mark.parametrize("sep", sorted({"/", os.sep, os.altsep} - {None}))
@pytest.mark.parametrize(
    "ids, field, bad",
    [
        # the first offending location is named, and its tx_id before its rx_id
        ([("TX1", "RX1"), ("TX2", "R{sep}X"), ("T{sep}X", "RX3")], "rx_id", "R{sep}X"),
        ([("TX1", "RX1"), ("T{sep}X", "R{sep}X"), ("TX3", "RX3")], "tx_id", "T{sep}X"),
        ([("TX1", "RX1"), ("TX2", "RX2"), ("TX3{sep}", "RX3")], "tx_id", "TX3{sep}"),
        ([("TX1", "RX1"), ("TX2", "RX{sep}2")], "rx_id", "RX{sep}2"),
    ],
)
def test_path_separator_names_the_first_offending_id(tmp_path, sep, ids, field, bad):
    campaign = campaign_of([(tx.format(sep=sep), rx.format(sep=sep), Polarization.VV) for tx, rx in ids])
    with pytest.raises(ValidationError) as err:
        write_campaign(campaign, tmp_path / "out")
    assert str(err.value) == f"{field}: {bad.format(sep=sep)!r} contains a path separator"
    assert not (tmp_path / "out").exists()
