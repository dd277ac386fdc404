"""Omnidirectional PDP synthesis (``omni_bins``) and delay-spread statistics."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subthz_chan import (
    NoSignalError,
    Polarization,
    ValidationError,
    campaign_delay_summary,
    db_to_linear,
    delay_spreads,
    linear_to_db,
)
from conftest import make_location, make_pdp, max_delay_spread, omni_pdp, rms_delay_spread, table_of


def omni_of(delay_power_pairs, floor=-200.0):
    """The one-location table of a single sweep, for quick omni spread checks."""
    delays = [d for d, _ in delay_power_pairs]
    powers = [p for _, p in delay_power_pairs]
    return table_of(make_location([make_pdp(delays, powers, floor=floor)]))


class TestOmniSynthesis:
    def test_single_tap_removes_both_gains(self):
        omni = omni_pdp(omni_of([(10.0, -60.0)]))
        assert omni.delays_ns == (10.0,)
        assert omni.powers_mw[0] == pytest.approx(db_to_linear(-60.0 - 54.0), rel=1e-12)
        assert omni.total_power_dbm == pytest.approx(-114.0, abs=1e-9)

    def test_same_bin_powers_add_linearly(self):
        sweeps = [
            make_pdp([10.0], [-60.0], rx_az=0.0),
            make_pdp([10.0], [-60.0], rx_az=8.0),
        ]
        omni = omni_pdp(table_of(make_location(sweeps)))
        assert omni.delays_ns == (10.0,)
        assert omni.powers_mw[0] == pytest.approx(2.0 * db_to_linear(-114.0), rel=1e-12)

    def test_absolute_alignment_preserved(self):
        sweeps = [
            make_pdp([10.0, 12.0], [-60.0, -70.0], rx_az=0.0),
            make_pdp([14.0], [-65.0], rx_az=8.0),
        ]
        omni = omni_pdp(table_of(make_location(sweeps)))
        assert omni.delays_ns == (10.0, 12.0, 14.0)

    def test_subfloor_bins_and_dead_sweeps_excluded(self):
        sweeps = [
            make_pdp([10.0, 12.0], [-60.0, -95.0], rx_az=0.0, floor=-90.0),
            make_pdp([14.0], [-95.0], rx_az=8.0, floor=-90.0),
        ]
        omni = omni_pdp(table_of(make_location(sweeps)))
        assert omni.delays_ns == (10.0,)

    def test_all_noise_raises(self):
        loc = make_location([make_pdp([10.0], [-95.0], floor=-90.0)])
        with pytest.raises(NoSignalError):
            omni_pdp(table_of(loc))

    def test_source_records_location(self):
        omni = omni_pdp(omni_of([(10.0, -60.0)]))
        assert omni.source == ("TX1", "RX1", Polarization.VV)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 10), st.floats(-120.0, -60.0)),
                min_size=1,
                max_size=5,
                unique_by=lambda t: t[0],
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_accumulation_oracle(self, sweep_specs):
        floor = -100.0
        sweeps = []
        for i, spec in enumerate(sweep_specs):
            spec = sorted(spec)
            sweeps.append(
                make_pdp(
                    [2.0 * k for k, _ in spec],
                    [p for _, p in spec],
                    rx_az=8.0 * i,
                    floor=floor,
                )
            )
        loc = make_location(sweeps)

        expected: dict[float, float] = {}
        for pdp in sweeps:
            if max(pdp.powers_db) <= floor:
                continue
            for d, p in zip(pdp.delays_ns, pdp.powers_db):
                if p >= floor:
                    expected[d] = expected.get(d, 0.0) + db_to_linear(p - 54.0)

        if not expected:
            with pytest.raises(NoSignalError):
                omni_pdp(table_of(loc))
            return
        omni = omni_pdp(table_of(loc))
        assert omni.delays_ns == tuple(sorted(expected))
        for d, p in zip(omni.delays_ns, omni.powers_mw):
            assert p == pytest.approx(expected[d], rel=1e-12)


class TestSpreads:
    def test_single_tap_is_zero(self):
        omni = omni_of([(10.0, -60.0)])
        assert rms_delay_spread(omni, 20.0) == 0.0
        assert max_delay_spread(omni, 20.0) == 0.0

    def test_two_equal_taps(self):
        omni = omni_of([(0.0, -60.0), (10.0, -60.0)])
        assert rms_delay_spread(omni, 20.0) == 5.0
        assert max_delay_spread(omni, 20.0) == 10.0

    def test_three_equal_taps(self):
        omni = omni_of([(0.0, -60.0), (10.0, -60.0), (20.0, -60.0)])
        # closed form: sqrt(E[t^2] - E[t]^2) = sqrt(200/3)
        assert rms_delay_spread(omni, 20.0) == pytest.approx(math.sqrt(200.0 / 3.0), abs=1e-12)
        assert rms_delay_spread(omni, 20.0) == pytest.approx(8.16496580927726, abs=1e-12)

    def test_extent_uses_surviving_taps(self):
        omni = omni_of([(4.0, -60.0), (376.6, -70.0)])
        assert max_delay_spread(omni, 20.0) == pytest.approx(372.6, abs=1e-9)
        # a 5 dB window prunes the weak tap
        assert max_delay_spread(omni, 5.0) == 0.0

    def test_threshold_is_relative_to_strongest_bin(self):
        omni = omni_of([(0.0, -60.0), (10.0, -79.0), (20.0, -81.0)])
        assert max_delay_spread(omni, 20.0) == 10.0
        assert max_delay_spread(omni, 30.0) == 20.0

    def test_directional_cut_compares_in_db(self):
        pdp = make_pdp([0.0, 2.0], [-9.3, -29.3], floor=-100.0)
        assert max_delay_spread(pdp, 20.0) == 2.0

    def test_omni_cut_compares_in_linear_power(self):
        # the 4 ns bin sums two sweeps' taps to exactly 1000x under the 0 ns
        # bin in linear power, a hair over 30 dB under it in dB
        sweeps = [
            make_pdp([0.0, 4.0], [-8.42, -38.88], rx_az=0.0),
            make_pdp([4.0], [-48.398234873427654], rx_az=8.0),
        ]
        omni = table_of(make_location(sweeps))
        strong, weak = omni_pdp(omni).powers_mw
        assert weak == strong * db_to_linear(-30.0)
        assert 10.0 * math.log10(weak) < 10.0 * math.log10(strong) - 30.0
        assert max_delay_spread(omni, 30.0) == 4.0

    def test_directional_input_accepted(self):
        pdp = make_pdp([0.0, 10.0], [-60.0, -60.0])
        assert rms_delay_spread(pdp, 20.0) == 5.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            rms_delay_spread(omni_of([(0.0, -60.0)]), 0.0)


class TestDelayStats:
    def test_counts_surviving_taps(self):
        omni = omni_of([(0.0, -60.0), (10.0, -79.0), (20.0, -81.0)])
        stats = delay_spreads(omni, 20.0)
        # the 20 ns tap is cut, so two taps survive
        assert stats.omni_mds[0] == 10.0
        assert stats.omni_rmsds[0] == pytest.approx(
            10.0 * math.sqrt(db_to_linear(-19.0)) / (1.0 + db_to_linear(-19.0)), abs=1e-12
        )


@st.composite
def omni_pdps(draw):
    """(delays, omni powers in mW) of a one-sweep location, whose omni PDP has one bin per tap."""
    n = draw(st.integers(1, 10))
    delays = sorted(draw(st.sets(st.integers(0, 400), min_size=n, max_size=n)))
    powers = draw(st.lists(st.floats(1e-12, 1e-3), min_size=n, max_size=n))
    return [float(d) for d in delays], powers


def omni_table(delays, powers_mw):
    """The one-location table of a sweep whose omni bins hold ``powers_mw`` (to the last bits)."""
    gain_sum_dbi = 54.0  # make_location's two 27 dBi horns
    return table_of(make_location([make_pdp(delays, [linear_to_db(p) + gain_sum_dbi for p in powers_mw])]))


class TestSpreadInvariances:
    @given(omni_pdps(), st.sampled_from([20.0, 30.0]))
    def test_shift_invariance(self, profile, threshold):
        delays, powers = profile
        omni = omni_table(delays, powers)
        shifted = omni_table([d + 1000.0 for d in delays], powers)
        assert rms_delay_spread(shifted, threshold) == pytest.approx(
            rms_delay_spread(omni, threshold), abs=1e-9
        )
        assert max_delay_spread(shifted, threshold) == pytest.approx(
            max_delay_spread(omni, threshold), abs=1e-9
        )

    @given(omni_pdps(), st.sampled_from([20.0, 30.0]))
    @example(([0.0, 1.0], [1e-9, 1e-12]), 30.0)  # the second bin sits exactly 30 dB down
    def test_power_scale_invariance(self, profile, threshold):
        # the profile reaches the table through dB, so even a 2**10 scale does not come back exact,
        # and the rounding can tip a bin lying on the cut to either side of it: what carries the
        # property is reading the scaled spread against the cut moved by 1e-9 dB either way
        delays, powers = profile
        omni = omni_table(delays, powers)
        scaled = omni_table(delays, [p * 2.0**10 for p in powers])
        for spread in (rms_delay_spread, max_delay_spread):
            either_side = [pytest.approx(spread(omni, threshold + nudge), abs=1e-9) for nudge in (-1e-9, 1e-9)]
            assert spread(scaled, threshold) in either_side

    @given(omni_pdps())
    def test_wider_window_never_shrinks_extent(self, profile):
        omni = omni_table(*profile)
        assert max_delay_spread(omni, 20.0) <= max_delay_spread(omni, 30.0)

    @given(omni_pdps(), st.sampled_from([20.0, 30.0]))
    def test_rms_at_most_half_extent(self, profile, threshold):
        omni = omni_table(*profile)
        rms = rms_delay_spread(omni, threshold)
        assert rms <= max_delay_spread(omni, threshold) / 2.0 + 1e-9


class TestCampaignDelaySummary:
    def test_single_location(self):
        loc = make_location([make_pdp([0.0], [-60.0])])
        summary = campaign_delay_summary(table_of(loc), 20.0)
        assert summary.omni_rmsds.n == 1
        assert summary.omni_rmsds.mean == 0.0
        assert summary.dir_mds.n == 1

    def test_three_locations_hit_known_quartiles(self):
        spacings = {"RX1": 1.4, "RX2": 20.8, "RX3": 132.0}
        locs = [
            make_location(
                [make_pdp([0.0, gap], [-60.0, -60.0])], rx_id=rx, distance=10.0
            )
            for rx, gap in spacings.items()
        ]
        summary = campaign_delay_summary(table_of(*locs), 20.0)
        assert summary.omni_rmsds.min == pytest.approx(0.7, abs=1e-9)
        assert summary.omni_rmsds.median == pytest.approx(10.4, abs=1e-9)
        assert summary.omni_rmsds.max == pytest.approx(66.0, abs=1e-9)
        assert summary.omni_rmsds.mean == pytest.approx((0.7 + 10.4 + 66.0) / 3, abs=1e-9)
        # one sweep per location, so directional rows see the same values
        assert summary.dir_rmsds.median == pytest.approx(10.4, abs=1e-9)

    def test_silent_location_skipped(self):
        live = make_location([make_pdp([0.0], [-60.0])])
        dead = make_location([make_pdp([0.0], [-95.0], floor=-90.0)], rx_id="RX9")
        summary = campaign_delay_summary(table_of(live, dead), 20.0)
        assert summary.omni_rmsds.n == 1
