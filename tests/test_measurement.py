"""Data model, angle helpers, and PDP thresholding."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subthz_chan import (
    AntennaConfig,
    DirectionalPdp,
    NoSignalError,
    Polarization,
    ValidationError,
    circular_distance_deg,
    bearings_deg,
    db_to_linear,
    linear_to_db,
    sweep_losses,
    wrap_deg,
    wrap_signed_deg,
)
from subthz_chan.measurement import bearings_deg_array, db_to_linear_array, in_db_window, linear_to_db_array
from conftest import make_location, make_pdp, table_of


class TestAngleHelpers:
    def test_wrap_deg(self):
        assert wrap_deg(0.0) == 0.0
        assert wrap_deg(360.0) == 0.0
        assert wrap_deg(-8.0) == 352.0
        assert wrap_deg(725.0) == 5.0

    def test_wrap_signed_half_turn_is_positive(self):
        # both ends of the seam land on +180, never -180
        assert wrap_signed_deg(180.0) == 180.0
        assert wrap_signed_deg(-180.0) == 180.0
        assert wrap_signed_deg(540.0) == 180.0

    def test_wrap_signed_deg(self):
        assert wrap_signed_deg(0.0) == 0.0
        assert wrap_signed_deg(190.0) == -170.0
        assert wrap_signed_deg(-10.0) == -10.0

    def test_circular_distance(self):
        assert circular_distance_deg(350.0, 10.0) == pytest.approx(20.0)
        assert circular_distance_deg(10.0, 350.0) == pytest.approx(20.0)
        assert circular_distance_deg(0.0, 180.0) == 180.0

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    def test_circular_distance_bounded_and_symmetric(self, a, b):
        d = circular_distance_deg(a, b)
        assert 0.0 <= d <= 180.0
        # swapping the endpoints flips the sign before the wrap, which can
        # move the result by one rounding step
        assert d == pytest.approx(circular_distance_deg(b, a), abs=1e-9)

    @given(st.floats(-200.0, 200.0))
    def test_db_round_trip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)


#: -0.0, the exact 30 dB steps, a 0.01 dB grid over -200...50 dB and the 20 dB tie of -29.3/-9.3
EDGE_DB = np.concatenate(([-0.0, 0.0, -29.3, -9.3], np.arange(-300.0, 91.0, 30.0), np.linspace(-200.0, 50.0, 25_001)))


def same_bits(got: np.ndarray, expected: list[float]) -> bool:
    return got.dtype == np.float64 and got.tobytes() == np.array(expected, dtype=float).tobytes()


class TestBulkConversions:
    """The array helpers make the scalar helpers' libm calls, so they agree bit for bit."""

    def test_db_to_linear_array_edges(self):
        assert same_bits(db_to_linear_array(EDGE_DB), [db_to_linear(v) for v in EDGE_DB.tolist()])

    def test_linear_to_db_array_edges(self):
        linear = np.concatenate(([1.0, 1e-30, 1e-20, 1e-3, 1e3, 1e5, 5e-324], [db_to_linear(v) for v in EDGE_DB.tolist()]))
        assert same_bits(linear_to_db_array(linear), [linear_to_db(v) for v in linear.tolist()])

    @given(st.lists(st.floats(-200.0, 50.0), max_size=40))
    def test_db_to_linear_array(self, values):
        assert same_bits(db_to_linear_array(np.array(values, dtype=float)), [db_to_linear(v) for v in values])

    @given(st.lists(st.floats(1e-25, 1e8), max_size=40))
    def test_linear_to_db_array(self, values):
        assert same_bits(linear_to_db_array(np.array(values, dtype=float)), [linear_to_db(v) for v in values])

    def test_linear_to_db_array_rejects_zero_like_the_scalar(self):
        with pytest.raises(ValueError):
            linear_to_db_array(np.array([1.0, 0.0]))

    def test_bearings_deg_array(self):
        rng = np.random.default_rng(4)
        tx = np.concatenate((rng.uniform(-60.0, 60.0, (500, 3)), np.zeros((4, 3))))
        rx = np.concatenate((rng.uniform(-60.0, 60.0, (500, 3)), [[-1.0, -0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, -2.0, 0.0]]))
        expected = [bearings_deg(a, b) for a, b in zip(tx.tolist(), rx.tolist())]
        assert same_bits(bearings_deg_array(tx, rx), expected)
        assert bearings_deg_array(tx[:0], rx[:0]).shape == (0, 2)


class TestAntennaConfig:
    def test_defaults(self):
        ant = AntennaConfig()
        assert ant.gain_dbi == 27.0
        assert ant.hpbw_deg == 8.0
        assert ant.az_step_deg == 8.0
        assert ant.n_az_bins == 45

    def test_side_defaults_differ_in_height(self):
        assert AntennaConfig.default_tx().height_m == 3.0
        assert AntennaConfig.default_rx().height_m == 1.5

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValidationError):
            AntennaConfig(gain_dbi=0.0)

    def test_rejects_beam_wider_than_step(self):
        with pytest.raises(ValidationError):
            AntennaConfig(hpbw_deg=10.0, az_step_deg=8.0)

    def test_rejects_step_not_dividing_circle(self):
        with pytest.raises(ValidationError):
            AntennaConfig(hpbw_deg=7.0, az_step_deg=7.0)


def test_polarization_members():
    assert [p.value for p in Polarization] == ["VV", "VH"]
    assert Polarization("VV") is Polarization.VV


class TestDirectionalPdp:
    def test_basic_properties(self):
        pdp = make_pdp([0.0, 2.0], [-60.0, -70.0], tx_az=16.0, rx_az=24.0)
        assert pdp.direction == (16.0, 24.0)
        assert pdp.peak_db == -60.0
        assert pdp.is_detectable()

    def test_rejects_azimuth_outside_circle(self):
        with pytest.raises(ValidationError):
            make_pdp([0.0], [-60.0], tx_az=360.0)
        with pytest.raises(ValidationError):
            make_pdp([0.0], [-60.0], rx_az=-1.0)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValidationError):
            make_pdp([], [])
        with pytest.raises(ValidationError):
            make_pdp([0.0, 2.0], [-60.0])

    def test_rejects_unsorted_delays(self):
        with pytest.raises(ValidationError):
            make_pdp([2.0, 0.0], [-60.0, -61.0])
        with pytest.raises(ValidationError):
            make_pdp([0.0, 0.0], [-60.0, -61.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            make_pdp([0.0], [math.nan])
        with pytest.raises(ValidationError):
            make_pdp([0.0], [-60.0], floor=math.inf)

    def test_peak_at_floor_is_not_detectable(self):
        # detectability needs strictly positive margin over the floor
        assert not make_pdp([0.0], [-90.0], floor=-90.0).is_detectable()

    def test_detected_keeps_bins_at_floor(self):
        pdp = make_pdp([0.0, 2.0, 4.0], [-60.0, -90.0, -95.0], floor=-90.0)
        assert pdp.detected_bins() == [(0.0, -60.0), (2.0, -90.0)]

    def test_detected_raises_without_signal(self):
        with pytest.raises(NoSignalError):
            make_pdp([0.0], [-95.0], floor=-90.0).detected_bins()


def threshold_pdp(pdp, threshold_db):
    """``pdp`` cut to the taps the delay spreads keep of a sweep: its ``TapTable`` taps
    (above the floor) within ``threshold_db`` of the sweep's peak."""
    table = table_of(make_location([pdp]))
    keep = in_db_window(table.power_db, table.peak_db[table.tap_sweep], threshold_db)
    delays, powers = table.delay_ns[keep].tolist(), table.power_db[keep].tolist()
    return make_pdp(delays, powers, pdp.tx_az_deg, pdp.rx_az_deg, pdp.noise_floor_db)


def integrated_power_mw(pdp):
    """The received power of a sweep, as its path loss integrates it."""
    table = table_of(make_location([pdp]))
    return db_to_linear(table.tx_power_dbm[0] + table.gain_sum_dbi[0] - sweep_losses(table)[0])


class TestThresholdPdp:
    def test_cut_is_relative_to_peak(self):
        pdp = make_pdp([0.0, 10.0, 20.0], [0.0, -19.0, -31.0])
        kept = threshold_pdp(pdp, 30.0)
        assert kept.delays_ns == (0.0, 10.0)
        kept = threshold_pdp(pdp, 20.0)
        assert kept.delays_ns == (0.0, 10.0)
        kept = threshold_pdp(pdp, 18.0)
        assert kept.delays_ns == (0.0,)

    def test_cut_compares_in_db(self):
        # -29.3 dB sits exactly 20 dB under -9.3 dB, but a hair under the cut in linear power
        pdp = DirectionalPdp(0.0, 0.0, (0.0, 2.0), (-9.3, -29.3), -100.0)
        assert threshold_pdp(pdp, 20.0).delays_ns == (0.0, 2.0)

    def test_noise_floor_trumps_threshold(self):
        # the -31 dB tap is inside the 40 dB window but under the floor
        pdp = make_pdp([0.0, 10.0, 20.0], [0.0, -19.0, -31.0], floor=-25.0)
        assert threshold_pdp(pdp, 40.0).delays_ns == (0.0, 10.0)

    def test_peak_always_survives(self):
        pdp = make_pdp([5.0], [-80.0], floor=-85.0)
        kept = threshold_pdp(pdp, 0.5)
        assert kept.delays_ns == (5.0,)

    def test_rejects_nonpositive_threshold(self):
        pdp = make_pdp([0.0], [-60.0])
        with pytest.raises(ValidationError):
            threshold_pdp(pdp, 0.0)
        with pytest.raises(ValidationError):
            threshold_pdp(pdp, -3.0)

    @given(
        st.lists(st.floats(-120.0, -40.0), min_size=1, max_size=12),
        st.floats(1.0, 60.0),
    )
    def test_idempotent(self, powers, threshold):
        pdp = make_pdp([2.0 * i for i in range(len(powers))], powers)
        once = threshold_pdp(pdp, threshold)
        twice = threshold_pdp(once, threshold)
        assert once == twice

    @given(
        st.lists(st.floats(-120.0, -40.0), min_size=1, max_size=12),
        st.floats(1.0, 30.0),
        st.floats(0.0, 30.0),
    )
    def test_wider_window_keeps_superset(self, powers, t_small, extra):
        pdp = make_pdp([2.0 * i for i in range(len(powers))], powers)
        narrow = set(threshold_pdp(pdp, t_small).delays_ns)
        wide = set(threshold_pdp(pdp, t_small + extra).delays_ns)
        assert narrow <= wide


class TestIntegratedPower:
    def test_single_tap(self):
        assert integrated_power_mw(make_pdp([0.0], [0.0])) == pytest.approx(1.0)

    def test_two_equal_taps_add_3db(self):
        pdp = make_pdp([0.0, 2.0], [-60.0, -60.0])
        total_db = linear_to_db(integrated_power_mw(pdp))
        assert total_db == pytest.approx(-60.0 + 10.0 * math.log10(2.0), abs=1e-12)

    def test_subfloor_bins_do_not_contribute(self):
        pdp = make_pdp([0.0, 2.0], [-60.0, -95.0], floor=-90.0)
        assert integrated_power_mw(pdp) == pytest.approx(db_to_linear(-60.0))


class TestLocationMeasurement:
    def test_distance_and_gains(self):
        loc = make_location([make_pdp([0.0], [-60.0])], distance=10.0)
        assert loc.distance_m == pytest.approx(10.0, abs=1e-12)
        assert table_of(loc).gain_sum_dbi.tolist() == [54.0]

    def test_rejects_duplicate_pointing(self):
        sweeps = [
            make_pdp([0.0], [-60.0], tx_az=0.0, rx_az=8.0),
            make_pdp([2.0], [-70.0], tx_az=0.0, rx_az=8.0),
        ]
        with pytest.raises(ValidationError):
            make_location(sweeps)

    def test_rejects_distance_under_reference(self):
        from subthz_chan import LocationMeasurement

        with pytest.raises(ValidationError):
            LocationMeasurement(
                tx_id="TX1",
                rx_id="RX1",
                tx_pos_m=(0.0, 0.0, 3.0),
                rx_pos_m=(0.5, 0.0, 3.0),
                polarization=Polarization.VV,
                los=True,
                sweeps=(make_pdp([0.0], [-60.0]),),
                tx_antenna=AntennaConfig.default_tx(),
                rx_antenna=AntennaConfig.default_rx(),
                tx_power_dbm=0.0,
            )

    def test_rejects_empty_sweeps_and_ids(self):
        with pytest.raises(ValidationError):
            make_location([])
        with pytest.raises(ValidationError):
            make_location([make_pdp([0.0], [-60.0])], tx_id="")

    @pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_position(self, coordinate):
        # a NaN distance would pass the reference-distance check, which NaN compares false against
        loc = make_location([make_pdp([0.0], [-60.0])])
        for name in ("tx_pos_m", "rx_pos_m"):
            with pytest.raises(ValidationError, match=f"{name}: position .* must be finite"):
                dataclasses.replace(loc, **{name: (coordinate, 0.0, 1.5)})

    def test_detectable_sweeps_filters(self):
        sweeps = [
            make_pdp([0.0], [-60.0], rx_az=0.0, floor=-90.0),
            make_pdp([0.0], [-95.0], rx_az=8.0, floor=-90.0),
        ]
        loc = make_location(sweeps)
        assert table_of(loc).rx_az_deg.tolist() == [0.0]


class TestLosBearings:
    def test_aisle_geometry(self):
        loc = make_location([make_pdp([0.0], [-60.0])], distance=10.0)
        tx_to_rx, rx_to_tx = bearings_deg(loc.tx_pos_m, loc.rx_pos_m)
        assert tx_to_rx == pytest.approx(180.0)
        assert rx_to_tx == pytest.approx(0.0)

    def test_diagonal_geometry(self):
        from subthz_chan import LocationMeasurement

        loc = LocationMeasurement(
            tx_id="TX1",
            rx_id="RX1",
            tx_pos_m=(0.0, 5.0, 3.0),
            rx_pos_m=(5.0, 0.0, 1.5),
            polarization=Polarization.VV,
            los=True,
            sweeps=(make_pdp([0.0], [-60.0]),),
            tx_antenna=AntennaConfig.default_tx(),
            rx_antenna=AntennaConfig.default_rx(),
            tx_power_dbm=0.0,
        )
        tx_to_rx, rx_to_tx = bearings_deg(loc.tx_pos_m, loc.rx_pos_m)
        assert tx_to_rx == pytest.approx(315.0)
        assert rx_to_tx == pytest.approx(135.0)

