"""Power angular spectra, angular spread, and lobe extraction."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subthz_chan import (
    NoSignalError,
    Side,
    ValidationError,
    angular_spreads,
    campaign_angular_summary,
    db_to_linear,
    power_angular_spectrum,
)
from subthz_chan.angular import _circular_means, _spectra, _unit_powers
from conftest import aoa_lobe_count, make_location, make_pdp, rms_angular_spread, spectrum_table, table_of


def circular_mean_deg(bins_deg, powers):
    """(mean, degenerate) of a spectrum on a 10-degree grid, from the table's AOA spectrum."""
    grid = [0.0] * 36
    for bin_deg, power in zip(bins_deg, powers):
        grid[round(bin_deg / 10.0)] = power
    spectra = _spectra(spectrum_table(grid), Side.AOA, 1000.0)
    mean, degenerate = _circular_means(spectra, _unit_powers(spectra))
    return float(mean[0]), bool(degenerate[0])


class Lobe(NamedTuple):
    start_deg: float
    end_deg: float
    peak_power_mw: float
    lobe_power_mw: float


def extract_spatial_lobes(table, threshold_db):
    """The AOA lobes of a one-location table, walked here as circular runs of marked PAS bins.

    Their number is the package's lobe count, ``angular_spreads``.
    """
    count = aoa_lobe_count(table, threshold_db)
    bins, powers = power_angular_spectrum(table, 0, Side.AOA, threshold_db)
    marked = powers >= powers.max() * db_to_linear(-threshold_db)
    n = len(powers)
    if marked.all():
        runs = [list(range(n))]
    else:
        runs = []
        for start in np.flatnonzero(marked & ~np.roll(marked, 1)).tolist():
            run = [start]
            while marked[(run[-1] + 1) % n]:
                run.append((run[-1] + 1) % n)
            runs.append(run)
    assert len(runs) == count
    return [Lobe(float(bins[r[0]]), float(bins[r[-1]]), float(powers[r].max()), float(powers[r].sum())) for r in runs]


class TestPowerAngularSpectrum:
    def test_bins_follow_sweep_azimuths(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=0.0, rx_az=0.0),
            make_pdp([10.0], [-75.0], tx_az=8.0, rx_az=8.0),
        ]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)
        assert len(bins) == 45
        assert powers[0] == pytest.approx(db_to_linear(-60.0), rel=1e-12)
        assert powers[1] == pytest.approx(db_to_linear(-75.0), rel=1e-12)
        assert sum(powers[2:]) == 0.0

    def test_cut_is_global_over_all_sweeps(self):
        # the -85 dB tap sits within 20 dB of its own sweep peak (-75) but
        # more than 20 dB under the strongest tap anywhere (-60)
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=0.0, rx_az=0.0),
            make_pdp([10.0, 12.0], [-75.0, -85.0], tx_az=8.0, rx_az=8.0),
        ]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)
        assert powers[1] == pytest.approx(db_to_linear(-75.0), rel=1e-12)
        _, wide = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 30.0)
        assert wide[1] == pytest.approx(
            db_to_linear(-75.0) + db_to_linear(-85.0), rel=1e-12
        )

    def test_noise_floor_still_applies(self):
        # within the global window but under the sweep's own floor
        sweeps = [make_pdp([10.0, 12.0], [-60.0, -65.0], floor=-63.0)]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 30.0)
        assert powers[0] == pytest.approx(db_to_linear(-60.0), rel=1e-12)

    def test_grid_phase_from_first_detectable_sweep(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=4.0, rx_az=4.0),
            make_pdp([10.0], [-70.0], tx_az=12.0, rx_az=12.0),
        ]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)
        assert bins[0] == 4.0
        assert bins[-1] == 356.0

    def test_off_grid_azimuth_rejected(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=4.0, rx_az=4.0),
            make_pdp([10.0], [-70.0], tx_az=9.0, rx_az=9.0),
        ]
        with pytest.raises(ValidationError):
            power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)

    def test_sides_use_their_own_azimuth(self):
        sweeps = [make_pdp([10.0], [-60.0], tx_az=16.0, rx_az=24.0)]
        loc = make_location(sweeps)
        aod_bins, aod = power_angular_spectrum(table_of(loc), 0, Side.AOD, 20.0)
        aoa_bins, aoa = power_angular_spectrum(table_of(loc), 0, Side.AOA, 20.0)
        assert aod_bins[np.argmax(aod)] == 16.0
        assert aoa_bins[np.argmax(aoa)] == 24.0

    def test_all_noise_raises(self):
        loc = make_location([make_pdp([10.0], [-95.0], floor=-90.0)])
        with pytest.raises(NoSignalError):
            power_angular_spectrum(table_of(loc), 0, Side.AOA, 20.0)

    def test_tap_cut_compares_in_db(self):
        # -29.3 dB sits exactly 20 dB under -9.3 dB, but a hair under the cut in linear power
        sweeps = [
            make_pdp([10.0], [-9.3], tx_az=180.0, rx_az=0.0, floor=-100.0),
            make_pdp([10.0], [-29.3], tx_az=172.0, rx_az=8.0, floor=-100.0),
        ]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)
        assert powers[0] > 0 and powers[1] > 0

    def test_rejects_nonpositive_threshold(self):
        loc = make_location([make_pdp([10.0], [-60.0])])
        with pytest.raises(ValidationError):
            power_angular_spectrum(table_of(loc), 0, Side.AOA, 0.0)

    def test_one_location_of_a_larger_table(self):
        # location 1 has an off-grid azimuth, which only its own spectrum sees
        here = make_location([make_pdp([10.0], [-60.0], rx_az=8.0), make_pdp([10.0], [-70.0], rx_az=16.0)])
        off_grid = make_location([make_pdp([10.0], [-50.0]), make_pdp([10.0], [-55.0], rx_az=3.0)], rx_id="RX2")
        table = table_of(here, off_grid)
        for got, alone in zip(
            power_angular_spectrum(table, 0, Side.AOA, 20.0), power_angular_spectrum(table_of(here), 0, Side.AOA, 20.0)
        ):
            assert got.tolist() == alone.tolist()
        with pytest.raises(ValidationError, match="off the uniform"):
            power_angular_spectrum(table, 1, Side.AOA, 20.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 44), st.floats(-95.0, -55.0)),
            min_size=1,
            max_size=12,
            unique_by=lambda t: t[0],
        ),
        st.sampled_from([20.0, 30.0]),
    )
    def test_matches_binning_oracle(self, taps, threshold):
        floor = -100.0
        sweeps = [
            make_pdp([10.0], [p], tx_az=8.0 * b, rx_az=8.0 * b, floor=floor)
            for b, p in taps
        ]
        bins, powers = power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, threshold)
        cut = max(p for _, p in taps) - threshold
        expected = [0.0] * 45
        for b, p in taps:
            if p >= cut:
                expected[b] += db_to_linear(p)
        assert bins[0] == 0.0
        for got, want in zip(powers, expected):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCircularMean:
    def test_single_direction(self):
        mean, degenerate = circular_mean_deg([90.0], [1.0])
        assert mean == pytest.approx(90.0, abs=1e-9)
        assert not degenerate

    def test_two_equal_bins(self):
        mean, degenerate = circular_mean_deg([0.0, 90.0], [1.0, 1.0])
        assert mean == pytest.approx(45.0, abs=1e-6)
        assert not degenerate

    def test_weighting(self):
        # three times the power pulls the mean toward 90
        mean, _ = circular_mean_deg([0.0, 90.0], [1.0, 3.0])
        assert mean == pytest.approx(math.degrees(math.atan2(3.0, 1.0)), abs=1e-9)

    def test_antipodal_is_degenerate(self):
        mean, degenerate = circular_mean_deg([0.0, 180.0], [1.0, 1.0])
        assert degenerate
        assert mean == 0.0

    def test_wraps_into_circle(self):
        from subthz_chan import circular_distance_deg

        mean, _ = circular_mean_deg([350.0, 10.0], [1.0, 1.0])
        assert 0.0 <= mean < 360.0
        assert circular_distance_deg(mean, 0.0) < 1e-6


def resultant_share(powers) -> float:
    """|sum of p e^(i az)| / sum of p over an n-bin spectrum's bins; 0 when it holds no power."""
    total = sum(powers)
    step = 2.0 * math.pi / len(powers)
    resultant = abs(sum(p * complex(math.cos(k * step), math.sin(k * step)) for k, p in enumerate(powers)))
    return resultant / total if total > 0 else 0.0


class TestRmsAngularSpread:
    def test_single_bin_is_zero(self):
        assert rms_angular_spread(spectrum_table([1.0] + [0.0] * 44)) == pytest.approx(0.0, abs=1e-9)

    def test_single_subnormal_bin_is_zero(self):
        # the bin's direction survives powers far below the normal float range
        assert rms_angular_spread(spectrum_table([0.0, 0.0, 5e-324])) == 0.0

    def test_two_equal_quarter_turn(self):
        pas = spectrum_table([1.0, 0.0, 0.0, 1.0])
        # bins at 0 and 270 with mean 315: both deviations are 45
        assert rms_angular_spread(pas) == pytest.approx(45.0, abs=1e-6)

    def test_uniform_spectrum_matches_wrapped_oracle(self):
        pas = spectrum_table([1.0] * 45)
        bins = [8.0 * k for k in range(45)]
        devs = [((b + 180.0) % 360.0) - 180.0 for b in bins]
        oracle = math.sqrt(sum(d * d for d in devs) / 45.0)
        assert rms_angular_spread(pas) == pytest.approx(oracle, abs=1e-9)

    def test_antipodal_pair_exceeds_uniform_value(self):
        # the mathematical bound is 180, not the uniform-spectrum value
        pas = spectrum_table([1.0, 1.0])
        spread = rms_angular_spread(pas)
        assert spread == pytest.approx(180.0 / math.sqrt(2.0), abs=1e-9)

    @given(
        st.lists(st.floats(0.0, 0.1), min_size=4, max_size=45),
        st.integers(1, 44),
    )
    def test_rotation_invariance(self, tail, rotation):
        powers = [1.0] + tail[1:]
        rolled = powers[-rotation:] + powers[:-rotation]
        a = rms_angular_spread(spectrum_table(powers))
        b = rms_angular_spread(spectrum_table(rolled))
        assert a == pytest.approx(b, abs=1e-6)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=45).filter(lambda p: resultant_share(p) >= 1e-3))
    # a near-vanishing resultant: at x1e3 the spread moved by 6e-7 deg
    @example([0.0, 0.25, 1e-9, 0.25, 0.0, 0.25])
    def test_power_scale_invariance(self, powers):
        # the powers reach the table through dB, so even a 2**10 scale does not come back exact: the
        # last-bit rounding can turn a near-vanishing resultant by more than 1e-9 deg.  What carries
        # the property is the filter, which keeps the drawn spectra's mean direction well-conditioned
        a = rms_angular_spread(spectrum_table(powers))
        b = rms_angular_spread(spectrum_table([p * 2.0**10 for p in powers]))
        assert a == pytest.approx(b, abs=1e-9)


class TestSpatialLobes:
    def test_single_marked_bin(self):
        lobes = extract_spatial_lobes(spectrum_table([1.0] + [1e-9] * 44), 20.0)
        assert len(lobes) == 1
        assert lobes[0].start_deg == lobes[0].end_deg == 0.0
        assert lobes[0].peak_power_mw == 1.0

    def test_cut_compares_in_linear_power(self):
        # bin 2 sums two taps to within 1000x of bin 0's three in linear
        # power, yet a hair over 30 dB under it in dB; every tap is within
        # 30 dB of the strongest tap, so all of them reach the spectrum
        sweeps = [make_pdp([10.0], [-24.8], tx_az=tx_az, rx_az=0.0) for tx_az in (0.0, 8.0, 16.0)]
        sweeps += [make_pdp([10.0], [p], tx_az=tx_az, rx_az=16.0) for tx_az, p in ((0.0, -52.2), (8.0, -54.08007908803734))]
        table = table_of(make_location(sweeps))
        _, powers = power_angular_spectrum(table, 0, Side.AOA, 30.0)
        assert powers[2] >= powers[0] * db_to_linear(-30.0)
        assert 10.0 * math.log10(powers[2]) < 10.0 * math.log10(powers[0]) - 30.0
        assert len(extract_spatial_lobes(table, 30.0)) == 2

    def test_separated_runs(self):
        powers = [1e-9] * 45
        for b in (0, 1, 5, 20, 21, 22):
            powers[b] = 1.0
        powers[21] = 2.0
        lobes = extract_spatial_lobes(spectrum_table(powers), 20.0)
        spans = [(l.start_deg, l.end_deg) for l in lobes]
        assert (0.0, 8.0) in spans
        assert (40.0, 40.0) in spans
        assert (160.0, 176.0) in spans
        assert len(lobes) == 3
        widest = next(l for l in lobes if l.start_deg == 160.0)
        assert widest.peak_power_mw == 2.0
        assert widest.lobe_power_mw == pytest.approx(4.0)

    def test_wrap_through_zero(self):
        powers = [1e-9] * 45
        powers[44] = 1.0
        powers[0] = 1.0
        lobes = extract_spatial_lobes(spectrum_table(powers), 20.0)
        assert len(lobes) == 1
        assert lobes[0].start_deg == 352.0
        assert lobes[0].end_deg == 0.0

    def test_everything_marked_is_one_ring(self):
        lobes = extract_spatial_lobes(spectrum_table([1.0] * 45), 20.0)
        assert len(lobes) == 1
        assert lobes[0].start_deg == 0.0
        assert lobes[0].end_deg == 352.0
        assert lobes[0].lobe_power_mw == pytest.approx(45.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            extract_spatial_lobes(spectrum_table([1.0] * 4), -1.0)

    @given(st.lists(st.booleans(), min_size=2, max_size=45).filter(lambda m: any(m)))
    def test_matches_ring_component_oracle(self, marked):
        n = len(marked)
        powers = [1.0 if m else db_to_linear(-30.0) for m in marked]
        lobes = extract_spatial_lobes(spectrum_table(powers), 20.0)
        if all(marked):
            expected = 1
        else:
            expected = sum(
                1 for i in range(n) if marked[i] and not marked[(i - 1) % n]
            )
        assert len(lobes) == expected

    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=45))
    def test_wider_window_never_loses_power(self, powers):
        narrow = sum(l.lobe_power_mw for l in extract_spatial_lobes(spectrum_table(powers), 20.0))
        wide = sum(l.lobe_power_mw for l in extract_spatial_lobes(spectrum_table(powers), 30.0))
        assert narrow <= wide + 1e-15


class TestAngularStats:
    def test_combines_spread_and_count(self):
        powers = [1e-9] * 45
        powers[0] = 1.0
        powers[10] = 1.0
        stats = angular_spreads(spectrum_table(powers), 20.0)
        assert stats.n_aoa_lobes[0] == 2
        assert stats.aoa_rmsas[0] == pytest.approx(40.0, abs=1e-4)

    @pytest.mark.parametrize(
        "off_grid, field",
        [
            # AOA is checked first, so of one location's two off-grid sides the RX one is named
            ([(9.0, 9.0)], "rx_az_deg"),
            # an earlier location comes first, whichever side is off
            ([(9.0, 8.0), (8.0, 9.0)], "tx_az_deg"),
        ],
    )
    def test_names_the_first_off_grid_location_then_side(self, off_grid, field):
        locs = [
            make_location([make_pdp([10.0], [-60.0], tx_az=0.0, rx_az=0.0), make_pdp([10.0], [-70.0], tx_az=tx, rx_az=rx)],
                          rx_id=f"RX{i}")
            for i, (tx, rx) in enumerate(off_grid)
        ]
        with pytest.raises(ValidationError, match=rf"^{field}: azimuth 9.0 of TX1-RX0 \(VV\) is off the uniform 8 deg sweep grid$"):
            angular_spreads(table_of(*locs), 20.0)

    @pytest.mark.parametrize(
        "rx_azimuths, named",
        [
            # the first sweep is the one moved off the phase the others share
            ([3.0, 0.0, 296.0, 208.0], 3.0),
            ([0.0, 296.0, 3.0, 208.0], 3.0),
            # the first sweep's phase is the one most sweeps share
            ([3.0, 0.0, 11.0, 19.0], 0.0),
            # two phases tie for the most sweeps, with the first sweep's or without it: the first sweep's decides
            ([5.0, 13.0, 0.0, 8.0], 0.0),
            ([5.0, 0.0, 8.0, 3.0, 11.0], 0.0),
        ],
    )
    def test_names_the_sweep_off_the_phase_most_sweeps_share(self, rx_azimuths, named):
        sweeps = [make_pdp([10.0], [-60.0 - i], tx_az=180.0, rx_az=rx) for i, rx in enumerate(rx_azimuths)]
        message = rf"^rx_az_deg: azimuth {named} of TX1-RX1 \(VV\) is off the uniform 8 deg sweep grid$"
        with pytest.raises(ValidationError, match=message):
            angular_spreads(table_of(make_location(sweeps)), 20.0)
        with pytest.raises(ValidationError, match=message):
            power_angular_spectrum(table_of(make_location(sweeps)), 0, Side.AOA, 20.0)


class TestCampaignAngularSummary:
    def lobe_location(self, k, rx_id):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=16.0 * j, rx_az=16.0 * j)
            for j in range(k)
        ]
        return make_location(sweeps, rx_id=rx_id)

    def test_lobe_count_quartiles(self):
        locs = [self.lobe_location(k, f"RX{k}") for k in (1, 3, 5)]
        summary = campaign_angular_summary(table_of(*locs), 20.0)
        assert summary.n_aoa_lobes.min == 1.0
        assert summary.n_aoa_lobes.median == 3.0
        assert summary.n_aoa_lobes.max == 5.0
        assert summary.n_aod_lobes.median == 3.0
        assert summary.aoa_rmsas.n == 3

    def test_silent_location_skipped(self):
        live = self.lobe_location(2, "RX1")
        dead = make_location([make_pdp([0.0], [-95.0], floor=-90.0)], rx_id="RX9")
        summary = campaign_angular_summary(table_of(live, dead), 20.0)
        assert summary.n_aoa_lobes.n == 1
        # on a table where no location has signal, every spread reads NaN
        assert all(np.isnan(column).tolist() == [True] for column in angular_spreads(table_of(dead), 20.0))
