"""Direction-resolved cross-polar discrimination."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subthz_chan import (
    Campaign,
    PathClass,
    Polarization,
    TapTable,
    ValidationError,
    XpdColumns,
    xpd_columns,
)
from conftest import direction_path_loss_map, make_location, make_pdp, table_of


def sweep_set(taps, floor=-200.0):
    """taps: {(tx_az, rx_az): power_db} -> one single-tap sweep per pointing."""
    return [
        make_pdp([10.0], [p], tx_az=d[0], rx_az=d[1], floor=floor)
        for d, p in taps.items()
    ]


def polarization_pair(vv_taps, vh_taps, tx_power=0.0, los=True):
    loc_vv = make_location(sweep_set(vv_taps), los=los, tx_power=tx_power)
    loc_vh = make_location(
        sweep_set(vh_taps), pol=Polarization.VH, los=los, tx_power=tx_power
    )
    return loc_vv, loc_vh


class Xpd(NamedTuple):
    """One row of ``XpdColumns``, with its path class and placement ids."""

    direction: tuple[float, float]
    xpd_db: float
    path_class: PathClass
    location: tuple[str, str]


def collect_xpds(pairs):
    """One ``Xpd`` per row of the ``xpd_columns`` of a V-V table and a V-H table, of the first and the
    second locations of some (VV, VH) location pairs."""
    vv, vh = table_of(*(pair[0] for pair in pairs)), table_of(*(pair[1] for pair in pairs))
    return [
        Xpd((tx_az, rx_az), xpd_db, PathClass.BORESIGHT if boresight else PathClass.REFLECTION, vv.key(loc)[:2])
        for loc, tx_az, rx_az, xpd_db, boresight in zip(*(column.tolist() for column in xpd_columns(vv, vh)))
    ]


def directional_xpd(loc_vv, loc_vh):
    return collect_xpds([(loc_vv, loc_vh)])


class TestDirectionalXpd:
    def test_hand_example(self):
        loc_vv, loc_vh = polarization_pair(
            {(180.0, 0.0): -60.0, (172.0, 8.0): -70.0},
            {(180.0, 0.0): -88.3, (172.0, 8.0): -95.0},
        )
        xpds = {x.direction: x for x in directional_xpd(loc_vv, loc_vh)}
        assert xpds[(180.0, 0.0)].xpd_db == pytest.approx(28.3, abs=1e-9)
        assert xpds[(180.0, 0.0)].path_class is PathClass.BORESIGHT
        assert xpds[(172.0, 8.0)].xpd_db == pytest.approx(25.0, abs=1e-9)
        assert xpds[(172.0, 8.0)].path_class is PathClass.REFLECTION
        assert xpds[(180.0, 0.0)].location == ("TX1", "RX1")

    def test_identical_sweeps_give_zero(self):
        taps = {(180.0, 0.0): -60.0, (100.0, 40.0): -75.0}
        loc_vv, loc_vh = polarization_pair(taps, dict(taps))
        for x in directional_xpd(loc_vv, loc_vh):
            assert x.xpd_db == pytest.approx(0.0, abs=1e-12)

    def test_only_common_directions_compared(self):
        loc_vv, loc_vh = polarization_pair(
            {(180.0, 0.0): -60.0, (172.0, 8.0): -70.0},
            {(180.0, 0.0): -85.0, (100.0, 40.0): -90.0},
        )
        xpds = directional_xpd(loc_vv, loc_vh)
        assert [x.direction for x in xpds] == [(180.0, 0.0)]

    def test_no_common_direction_is_empty_not_error(self):
        loc_vv, loc_vh = polarization_pair(
            {(180.0, 0.0): -60.0}, {(100.0, 40.0): -85.0}
        )
        assert directional_xpd(loc_vv, loc_vh) == []

    def test_tx_power_cancels(self):
        taps_vv = {(180.0, 0.0): -60.0}
        taps_vh = {(180.0, 0.0): -86.0}
        plain = directional_xpd(*polarization_pair(taps_vv, taps_vh))
        boosted = directional_xpd(*polarization_pair(taps_vv, taps_vh, tx_power=5.0))
        assert plain[0].xpd_db == pytest.approx(boosted[0].xpd_db, abs=1e-12)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 44), st.integers(0, 44)),
            st.tuples(st.floats(-80.0, -55.0), st.floats(-110.0, -80.0)),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_per_direction_oracle(self, table):
        vv_taps = {(8.0 * t, 8.0 * r): p for (t, r), (p, _) in table.items()}
        vh_taps = {(8.0 * t, 8.0 * r): p for (t, r), (_, p) in table.items()}
        loc_vv, loc_vh = polarization_pair(vv_taps, vh_taps)
        pl_vv = direction_path_loss_map(loc_vv)
        pl_vh = direction_path_loss_map(loc_vh)
        got = directional_xpd(loc_vv, loc_vh)
        assert [x.direction for x in got] == sorted(vv_taps)
        for x in got:
            assert x.xpd_db == pytest.approx(
                pl_vh[x.direction] - pl_vv[x.direction], abs=1e-12
            )

    def test_rejects_mismatched_pairs(self):
        loc_vv, loc_vh = polarization_pair(
            {(180.0, 0.0): -60.0}, {(180.0, 0.0): -85.0}
        )
        with pytest.raises(ValidationError):
            directional_xpd(loc_vh, loc_vv)
        moved = make_location(
            sweep_set({(180.0, 0.0): -85.0}), pol=Polarization.VH, distance=12.0
        )
        with pytest.raises(ValidationError):
            directional_xpd(loc_vv, moved)

    def test_first_failing_pair_raises_its_own_message(self):
        def pair(rx_id, vh_rx_id=None, distance=10.0, pols=(Polarization.VV, Polarization.VH)):
            vv = make_location(sweep_set({(180.0, 0.0): -60.0}), pol=pols[0], rx_id=rx_id)
            vh = make_location(sweep_set({(180.0, 0.0): -85.0}), pol=pols[1], rx_id=vh_rx_id or rx_id, distance=distance)
            return vv, vh

        cases = [
            (pair("RX2", pols=(Polarization.VH, Polarization.VH)), "polarization: a VV table holds TX1-RX2 (VH)"),
            (pair("RX2", pols=(Polarization.VV, Polarization.VV)), "polarization: a VH table holds TX1-RX2 (VV)"),
            (pair("RX1"), "rx_id: a VV table holds TX1-RX1 (VV) at rows 0 and 1"),
            (pair("RX2", distance=12.0), "tx_pos_m: polarization pair was measured at different positions"),
            # a pair failing several checks reports the first of them: the V-V table's, then the V-H table's
            (pair("RX2", distance=12.0, pols=(Polarization.VH, Polarization.VV)), "polarization: a VV table holds TX1-RX2 (VH)"),
            (pair("RX2", distance=12.0, pols=(Polarization.VV, Polarization.VV)), "polarization: a VH table holds TX1-RX2 (VV)"),
        ]
        for bad, message in cases:
            with pytest.raises(ValidationError) as err:
                collect_xpds([pair("RX1"), bad, pair("RX4", "RX5"), pair("RX6")])
            assert str(err.value) == message
        assert len(collect_xpds([pair("RX1"), pair("RX2")])) == 2


KEYS = st.tuples(st.sampled_from(["TX1", "TX2", "TX10"]), st.sampled_from(["RX1", "RX2", "RX10"]), st.sampled_from(Polarization))


def campaign_of(keys) -> Campaign:
    """One location per key, each one sweep at (180, 0) whose one tap sits ``row`` dB under -60 dB."""
    locations = [
        make_location([make_pdp([100.0], [-60.0 - row], tx_az=180.0, rx_az=0.0, floor=-130.0)], tx_id=tx_id, rx_id=rx_id, pol=pol)
        for row, (tx_id, rx_id, pol) in enumerate(keys)
    ]
    return Campaign("pairs", 142e9, 0.0, locations)


def pairs_of(campaign: Campaign) -> list[tuple[int, float]]:
    """(loc, xpd_db) of each row of the ``xpd_columns`` of a campaign's V-V and V-H tables."""
    tables = (TapTable(campaign.columns, campaign.rows(pol)) for pol in (Polarization.VV, Polarization.VH))
    columns = xpd_columns(*tables)
    return list(zip(columns.loc.tolist(), columns.xpd_db.tolist()))


def pairs_oracle(keys) -> list[tuple[int, float]]:
    """(V-V table row, V-H campaign row - V-V campaign row) of each placement in both polarizations, by a loop."""
    pairs = []
    vv_rows = [row for row, key in enumerate(keys) if key[2] is Polarization.VV]
    for loc, vv_row in enumerate(vv_rows):
        for vh_row, key in enumerate(keys):
            if key == (*keys[vv_row][:2], Polarization.VH):
                pairs.append((loc, pytest.approx(vh_row - vv_row, abs=1e-9)))
    return pairs


class TestPairing:
    """Each V-V location pairs with the V-H location of its (tx_id, rx_id); rows run in V-V table order."""

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(KEYS, min_size=1, max_size=12, unique=True).flatmap(st.permutations))
    def test_pairs_match_the_loop(self, keys):
        assert pairs_of(campaign_of(keys)) == pairs_oracle(keys)

    def test_pairs_by_ids_in_vv_table_order(self):
        keys = [
            ("TX2", "RX1", Polarization.VH),
            ("TX10", "RX1", Polarization.VV),
            ("TX2", "RX1", Polarization.VV),
            ("TX1", "RX2", Polarization.VV),
            ("TX10", "RX1", Polarization.VH),
        ]
        # TX10-RX1 (VV table row 0) pairs with campaign row 4, TX2-RX1 (row 1) with row 0; TX1-RX2 has no V-H
        assert pairs_of(campaign_of(keys)) == [(0, pytest.approx(3.0)), (1, pytest.approx(-2.0))]

    def test_unpaired_placements_on_either_side_add_no_rows(self):
        taps = {(180.0, 0.0): -60.0}
        vv = [make_location(sweep_set(taps), rx_id=rx_id) for rx_id in ("RX1", "RX2", "RX3")]
        vh = [make_location(sweep_set(taps), pol=Polarization.VH, rx_id=rx_id) for rx_id in ("RX4", "RX2", "RX5")]
        columns = xpd_columns(table_of(*vv), table_of(*vh))
        assert columns.loc.tolist() == [1]
        assert xpd_columns(table_of(*vv[::2]), table_of(*vh[::2])).loc.tolist() == []
        other_rx = make_location(sweep_set(taps), pol=Polarization.VH, rx_id="RX2")
        assert directional_xpd(vv[0], other_rx) == []

    def test_rejects_a_vh_table_passed_as_vv(self):
        loc_vv, loc_vh = polarization_pair({(180.0, 0.0): -60.0}, {(180.0, 0.0): -85.0})
        with pytest.raises(ValidationError, match=r"^polarization: a VV table holds TX1-RX1 \(VH\)$"):
            xpd_columns(table_of(loc_vh), table_of(loc_vh))
        with pytest.raises(ValidationError, match=r"^polarization: a VH table holds TX1-RX1 \(VV\)$"):
            xpd_columns(table_of(loc_vv), table_of(loc_vv))

    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_one_placement_held_twice(self, side):
        pair = polarization_pair({(180.0, 0.0): -60.0}, {(180.0, 0.0): -85.0})
        other = make_location(sweep_set({(180.0, 0.0): -60.0}), pol=pair[side].polarization, rx_id="RX2")
        tables = [table_of(pair[0]), table_of(pair[1])]
        tables[side] = table_of(pair[side], other, pair[side])
        name = f"TX1-RX1 ({pair[side].polarization.value})"
        with pytest.raises(ValidationError) as err:
            xpd_columns(*tables)
        assert str(err.value) == f"rx_id: a {pair[side].polarization.value} table holds {name} at rows 0 and 2"


def classify_path(taps, los=True):
    """{direction: path class} of each direction of a pair whose sweeps are alike in both polarizations."""
    return {x.direction: x.path_class for x in directional_xpd(*polarization_pair(taps, taps, los=los))}


class TestClassifyPath:
    def test_boresight_and_reflection(self):
        classes = classify_path({(180.0, 0.0): -60.0, (100.0, 40.0): -70.0})
        assert classes[(180.0, 0.0)] is PathClass.BORESIGHT
        assert classes[(100.0, 40.0)] is PathClass.REFLECTION

    def test_nlos_is_all_reflection(self):
        classes = classify_path({(180.0, 0.0): -60.0}, los=False)
        assert classes[(180.0, 0.0)] is PathClass.REFLECTION


def xpd_of(value, path_class=PathClass.BORESIGHT):
    return value, path_class


def xpd_summary(xpds):
    """``XpdColumns.summary`` of some (xpd_db, path class) rows."""
    n = len(xpds)
    xpd_db = np.array([value for value, _ in xpds], dtype=float)
    boresight = np.array([path_class is PathClass.BORESIGHT for _, path_class in xpds], dtype=bool)
    return XpdColumns(np.zeros(n, dtype=int), np.zeros(n), np.zeros(n), xpd_db, boresight).summary()


class TestXpdSummary:
    def test_two_sample_moments_are_exact(self):
        summary = xpd_summary([xpd_of(23.5), xpd_of(28.9)])
        boresight = summary[PathClass.BORESIGHT]
        assert boresight.mean_db == pytest.approx(26.2, abs=1e-12)
        assert boresight.std_db == pytest.approx(2.7, abs=1e-12)
        assert boresight.n == 2
        assert boresight.cdf == (
            (23.5, pytest.approx(0.5)),
            (28.9, pytest.approx(1.0)),
        )

    def test_classes_summarized_separately(self):
        summary = xpd_summary(
            [
                xpd_of(23.5),
                xpd_of(28.9),
                xpd_of(15.9, PathClass.REFLECTION),
                xpd_of(24.5, PathClass.REFLECTION),
            ]
        )
        assert summary[PathClass.REFLECTION].mean_db == pytest.approx(20.2, abs=1e-12)
        assert summary[PathClass.REFLECTION].std_db == pytest.approx(4.3, abs=1e-12)

    def test_single_sample(self):
        summary = xpd_summary([xpd_of(26.0)])
        assert summary[PathClass.BORESIGHT].std_db == 0.0
        assert summary[PathClass.BORESIGHT].cdf == ((26.0, 1.0),)

    def test_missing_class_omitted(self):
        summary = xpd_summary([xpd_of(26.0)])
        assert PathClass.REFLECTION not in summary

    def test_empty_input_gives_empty_dict(self):
        assert xpd_summary([]) == {}

    @given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=40))
    def test_cdf_well_formed(self, values):
        summary = xpd_summary([xpd_of(v) for v in values])
        cdf = summary[PathClass.BORESIGHT].cdf
        n = len(values)
        assert len(cdf) == n
        assert [f for _, f in cdf] == [(k + 1) / n for k in range(n)]
        assert list(v for v, _ in cdf) == sorted(values)


class TestCollectXpds:
    def test_pools_pairs(self):
        pair_a = polarization_pair({(180.0, 0.0): -60.0}, {(180.0, 0.0): -86.0})
        loc_vv_b = make_location(
            sweep_set({(180.0, 0.0): -65.0}), rx_id="RX2", distance=20.0
        )
        loc_vh_b = make_location(
            sweep_set({(180.0, 0.0): -89.0}),
            pol=Polarization.VH,
            rx_id="RX2",
            distance=20.0,
        )
        xpds = collect_xpds([pair_a, (loc_vv_b, loc_vh_b)])
        assert [x.xpd_db for x in xpds] == [
            pytest.approx(26.0, abs=1e-9),
            pytest.approx(24.0, abs=1e-9),
        ]
        assert {x.location for x in xpds} == {("TX1", "RX1"), ("TX1", "RX2")}
