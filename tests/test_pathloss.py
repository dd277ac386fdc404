"""Close-in path-loss fitting, direction classification, link budgets."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subthz_chan import (
    CiFit,
    DegenerateFitError,
    DirectionClass,
    NoSignalError,
    PathLossColumns,
    Polarization,
    SampleKind,
    SPEED_OF_LIGHT_M_S,
    ValidationError,
    directional_samples,
    fit_ci,
    fit_cix,
    fspl,
    omni_losses,
    sweep_classes,
)
from subthz_chan.pathloss import DIRECTION_CLASSES
from conftest import by_direction, direction_path_loss_map, make_location, make_pdp, table_of

F_142 = 142e9
ANCHOR_142 = 75.4935501095445
ANCHOR_28 = 61.39094384872776


class TestFspl:
    def test_unit_argument_frequency(self):
        # 4 pi d f / c == 1 exactly cancels the log
        assert fspl(SPEED_OF_LIGHT_M_S / (4.0 * math.pi), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_anchors(self):
        assert fspl(F_142) == pytest.approx(ANCHOR_142, abs=1e-12)
        assert fspl(28e9) == pytest.approx(ANCHOR_28, abs=1e-12)

    def test_matches_split_log_form(self):
        for f in (6e9, 28e9, 73e9, 142e9, 300e9):
            split = (
                20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT_M_S)
                + 20.0 * math.log10(f)
            )
            assert fspl(f) == pytest.approx(split, abs=1e-9)

    def test_distance_scaling(self):
        assert fspl(F_142, 10.0) == pytest.approx(ANCHOR_142 + 20.0, abs=1e-9)
        assert fspl(F_142, 100.0) == pytest.approx(ANCHOR_142 + 40.0, abs=1e-9)

    @pytest.mark.parametrize(
        "frequency_hz, distance_m, named",
        [(0.0, 1.0, "frequency_hz"), (-1e9, 1.0, "frequency_hz"), (F_142, 0.0, "distance_m"), (F_142, -1.0, "distance_m")],
    )
    def test_rejects_non_positive_arguments(self, frequency_hz, distance_m, named):
        with pytest.raises(ValueError, match=f"^{named} must be > 0, got "):
            fspl(frequency_hz, distance_m)


def classify_directions(loc):
    """B / NBB / NB of each detectable pointing pair of one location; NoSignalError without one."""
    table = table_of(loc)
    table.require_signal()
    return {d: DIRECTION_CLASSES[c] for d, c in by_direction(table, sweep_classes(table)).items()}


class TestDirectionPathLossMap:
    def test_single_tap_budget(self):
        # 0 dBm out, 54 dBi of horn gain, -60 dBm in -> 114 dB of loss
        loc = make_location([make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=0.0)])
        losses = direction_path_loss_map(loc)
        assert losses == {(180.0, 0.0): pytest.approx(114.0, abs=1e-9)}

    def test_taps_integrate_before_the_budget(self):
        loc = make_location(
            [make_pdp([10.0, 12.0], [-60.0, -60.0], tx_az=180.0, rx_az=0.0)]
        )
        losses = direction_path_loss_map(loc)
        expected = 114.0 - 10.0 * math.log10(2.0)
        assert losses[(180.0, 0.0)] == pytest.approx(expected, abs=1e-9)

    def test_tx_power_shifts_loss(self):
        loc = make_location([make_pdp([10.0], [-60.0])], tx_power=5.0)
        assert direction_path_loss_map(loc)[(0.0, 0.0)] == pytest.approx(119.0, abs=1e-9)

    def test_dead_sweeps_have_no_entry(self):
        loc = make_location(
            [
                make_pdp([10.0], [-60.0], rx_az=0.0, floor=-90.0),
                make_pdp([10.0], [-95.0], rx_az=8.0, floor=-90.0),
            ]
        )
        assert set(direction_path_loss_map(loc)) == {(0.0, 0.0)}


class TestClassifyDirections:
    def standard_location(self, boresight_db=-60.0):
        sweeps = [
            make_pdp([10.0], [boresight_db], tx_az=180.0, rx_az=0.0),
            make_pdp([10.0], [-70.0], tx_az=172.0, rx_az=8.0),
            make_pdp([10.0], [-80.0], tx_az=188.0, rx_az=16.0),
        ]
        return make_location(sweeps)

    def test_boresight_then_strongest_then_rest(self):
        classes = classify_directions(self.standard_location())
        assert classes[(180.0, 0.0)] is DirectionClass.B
        assert classes[(172.0, 8.0)] is DirectionClass.NBB
        assert classes[(188.0, 16.0)] is DirectionClass.NB

    def test_boresight_is_geometric_not_strongest(self):
        # a strong reflection does not steal the B label
        classes = classify_directions(self.standard_location(boresight_db=-75.0))
        assert classes[(180.0, 0.0)] is DirectionClass.B
        assert classes[(172.0, 8.0)] is DirectionClass.NBB

    def test_nlos_has_no_boresight(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=0.0),
            make_pdp([10.0], [-70.0], tx_az=172.0, rx_az=8.0),
        ]
        classes = classify_directions(make_location(sweeps, los=False))
        assert DirectionClass.B not in classes.values()
        assert classes[(180.0, 0.0)] is DirectionClass.NBB
        assert classes[(172.0, 8.0)] is DirectionClass.NB

    def test_boresight_tie_breaks_lexicographically(self):
        # both pairs miss the (180, 0) bearings by 4 degrees on each side
        sweeps = [
            make_pdp([10.0], [-70.0], tx_az=184.0, rx_az=4.0),
            make_pdp([10.0], [-60.0], tx_az=176.0, rx_az=4.0),
        ]
        classes = classify_directions(make_location(sweeps))
        assert classes[(176.0, 4.0)] is DirectionClass.B
        assert classes[(184.0, 4.0)] is DirectionClass.NBB

    def test_near_miss_beyond_half_step_is_not_boresight(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=8.0),
            make_pdp([10.0], [-70.0], tx_az=172.0, rx_az=16.0),
        ]
        classes = classify_directions(make_location(sweeps))
        assert DirectionClass.B not in classes.values()

    def test_strongest_tie_breaks_by_direction(self):
        sweeps = [
            make_pdp([10.0], [-70.0], tx_az=100.0, rx_az=40.0),
            make_pdp([10.0], [-70.0], tx_az=100.0, rx_az=32.0),
        ]
        classes = classify_directions(make_location(sweeps, los=False))
        assert classes[(100.0, 32.0)] is DirectionClass.NBB

    def test_all_noise_raises(self):
        loc = make_location([make_pdp([10.0], [-95.0], floor=-90.0)])
        with pytest.raises(NoSignalError):
            classify_directions(loc)


class TestOmniPathLoss:
    def test_value_and_metadata(self):
        table = table_of(make_location([make_pdp([10.0], [-60.0])], distance=10.0))
        samples, excluded = omni_losses(table)
        assert excluded == []
        assert samples.pl_db.tolist() == [pytest.approx(114.0, abs=1e-9)]
        assert samples.distance_m.tolist() == [pytest.approx(10.0)]
        assert table.key(samples.loc[0])[2] is Polarization.VV
        assert table.los[samples.loc[0]]

    def test_ceiling_rejects_weak_links(self):
        table = table_of(make_location([make_pdp([10.0], [-60.0])]))
        assert omni_losses(table, max_measurable_pl_db=152.0)[0].pl_db[0] < 152.0
        samples, excluded = omni_losses(table, max_measurable_pl_db=100.0)
        assert len(samples) == 0
        assert [(index, type(err)) for index, err in excluded] == [(0, NoSignalError)]


class TestDirectionalPathLoss:
    def test_sorted_and_labelled(self):
        sweeps = [
            make_pdp([10.0], [-80.0], tx_az=188.0, rx_az=16.0),
            make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=0.0),
            make_pdp([10.0], [-70.0], tx_az=172.0, rx_az=8.0),
            make_pdp([10.0], [-85.0], tx_az=164.0, rx_az=24.0),
        ]
        samples = directional_samples(table_of(make_location(sweeps)))
        assert samples[SampleKind.DIR_B].pl_db.tolist() == [pytest.approx(114.0, abs=1e-9)]
        assert samples[SampleKind.DIR_NBB].pl_db.tolist() == [pytest.approx(124.0, abs=1e-9)]
        # rows of one kind come back ordered by (tx_az, rx_az), not by power
        assert samples[SampleKind.DIR_NB].pl_db.tolist() == [
            pytest.approx(139.0, abs=1e-9),
            pytest.approx(134.0, abs=1e-9),
        ]

    def test_ceiling_drops_directions(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=0.0),
            make_pdp([10.0], [-75.0], tx_az=172.0, rx_az=8.0),
        ]
        samples = directional_samples(table_of(make_location(sweeps)), max_measurable_pl_db=120.0)
        assert {kind: len(s) for kind, s in samples.items()} == {
            SampleKind.DIR_B: 1,
            SampleKind.DIR_NBB: 0,
            SampleKind.DIR_NB: 0,
        }


def columns(pairs):
    """``PathLossColumns`` of (distance_m, pl_db) pairs."""
    distance_m, pl_db = np.array(pairs, dtype=float).reshape(-1, 2).T
    return PathLossColumns(np.arange(len(distance_m)), distance_m, pl_db)


class TestPathLossSample:
    """The fits' input check, which the removed sample record made: a distance at or under
    the reference or a non-finite loss is a ValidationError."""

    def test_validation(self):
        vv = CiFit(ple=2.0, sigma_db=0.0, n_samples=10, fspl_anchor_db=fspl(F_142))
        for bad in ([(0.9, 100.0), (10.0, 110.0)], [(10.0, math.inf), (20.0, 110.0)], [(math.nan, 100.0), (10.0, 110.0)]):
            with pytest.raises(ValidationError):
                fit_ci(columns(bad), F_142)
            with pytest.raises(ValidationError):
                fit_cix(columns(bad), vv, F_142)


class TestFitCi:
    def test_hand_example(self):
        samples = columns([(10.0, ANCHOR_142 + 25.0), (100.0, ANCHOR_142 + 35.0)])
        fit = fit_ci(samples, F_142)
        # (10*25 + 20*35) / (100 + 400)
        assert fit.ple == 1.9
        assert fit.sigma_db == pytest.approx(math.sqrt(22.5), abs=1e-12)
        assert fit.n_samples == 2
        assert fit.fspl_anchor_db == pytest.approx(ANCHOR_142, abs=1e-12)

    def test_predict(self):
        fit = CiFit(ple=2.0, sigma_db=0.0, n_samples=2, fspl_anchor_db=ANCHOR_142)
        assert fit.predict(1.0) == pytest.approx(ANCHOR_142, abs=1e-12)
        assert fit.predict(10.0) == pytest.approx(ANCHOR_142 + 20.0, abs=1e-12)
        with pytest.raises(ValueError):
            fit.predict(0.0)

    @given(
        st.floats(1.0, 6.0),
        st.lists(st.floats(2.0, 200.0), min_size=2, max_size=20, unique=True),
    )
    def test_exact_recovery_noiseless(self, ple, distances):
        anchor = fspl(F_142)
        samples = columns([(d, anchor + 10.0 * ple * math.log10(d)) for d in distances])
        fit = fit_ci(samples, F_142)
        assert fit.ple == pytest.approx(ple, abs=1e-9)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-7)

    def test_order_invariance(self):
        rng = random.Random(3)
        pairs = [(d, ANCHOR_142 + 20.0 * math.log10(d) + rng.uniform(-3, 3)) for d in (5, 10, 20, 40)]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert fit_ci(columns(pairs), F_142) == fit_ci(columns(shuffled), F_142)

    def test_duplication_invariance(self):
        pairs = [(10.0, 100.0), (50.0, 120.0)]
        once = fit_ci(columns(pairs), F_142)
        twice = fit_ci(columns(pairs * 2), F_142)
        assert twice.ple == pytest.approx(once.ple, abs=1e-12)
        assert twice.sigma_db == pytest.approx(once.sigma_db, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateFitError):
            fit_ci(columns([(10.0, 100.0)]), F_142)

    def test_reference_distance_cluster_is_degenerate(self):
        d = 1.0 + 1e-9
        with pytest.raises(DegenerateFitError):
            fit_ci(columns([(d, 80.0), (d, 81.0)]), F_142)


class TestFitCix:
    def vv_fit(self, ple=2.0):
        return CiFit(ple=ple, sigma_db=0.0, n_samples=10, fspl_anchor_db=fspl(F_142))

    def test_exact_offset(self):
        anchor = fspl(F_142)
        vh = columns([(d, anchor + 20.0 * math.log10(d) + 27.0) for d in (5.0, 10.0, 20.0)])
        fit = fit_cix(vh, self.vv_fit(), F_142)
        assert fit.xpd_db == pytest.approx(27.0, abs=1e-9)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)
        assert fit.ple_vv == 2.0
        assert fit.n_samples == 3

    def test_single_sample_allowed(self):
        anchor = fspl(F_142)
        vh = columns([(10.0, anchor + 20.0 + 24.0)])
        assert fit_cix(vh, self.vv_fit(), F_142).xpd_db == pytest.approx(24.0, abs=1e-9)

    def test_empty_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_cix(columns([]), self.vv_fit(), F_142)

    def test_noisy_trial_recovers_offset(self):
        rng = np.random.default_rng(7)
        anchor = fspl(F_142)
        distances = np.geomspace(6.3, 39.6, 10)
        vv = columns([(float(d), anchor + 18.6 * math.log10(d)) for d in distances])
        ci_vv = fit_ci(vv, F_142)
        vh = columns([(float(d), anchor + 18.6 * math.log10(d) + rng.normal(27.7, 2.6)) for d in distances])
        cix = fit_cix(vh, ci_vv, F_142)
        assert cix.xpd_db == pytest.approx(27.7, abs=2.0)
        # the offset-only model rides on the exact co-polar slope, so its
        # spread stays at or below a free two-parameter refit's
        ci_vh = fit_ci(vh, F_142)
        assert cix.sigma_db <= ci_vh.sigma_db + 1e-9


class TestCollectSamples:
    """Samples pooled over several locations of one table."""

    def test_skips_silent_locations(self):
        live = make_location([make_pdp([10.0], [-60.0])], distance=10.0)
        dead = make_location(
            [make_pdp([10.0], [-95.0], floor=-90.0)], distance=12.0, rx_id="RX9"
        )
        samples, _ = omni_losses(table_of(live, dead))
        assert len(samples) == 1
        assert samples.distance_m[0] == pytest.approx(10.0)

    def test_collects_directional_kind(self):
        sweeps = [
            make_pdp([10.0], [-60.0], tx_az=180.0, rx_az=0.0),
            make_pdp([10.0], [-70.0], tx_az=172.0, rx_az=8.0),
        ]
        samples = directional_samples(table_of(make_location(sweeps)))
        assert len(samples[SampleKind.DIR_B]) == 1
        assert len(samples[SampleKind.DIR_NBB]) == 1
        assert len(samples[SampleKind.DIR_NB]) == 0

    def test_ceiling_applies(self):
        loc = make_location([make_pdp([10.0], [-60.0])])
        assert len(omni_losses(table_of(loc), max_measurable_pl_db=100.0)[0]) == 0


class TestFitsMatchTheScalarLoop:
    """The fits' log terms are mapped at C level; the numbers equal the per-sample loop's bit for bit."""

    @given(
        st.lists(st.tuples(st.floats(1.0001, 300.0), st.floats(60.0, 160.0)), min_size=2, max_size=30),
        st.lists(st.tuples(st.floats(1.0001, 300.0), st.floats(60.0, 190.0)), min_size=1, max_size=30),
    )
    def test_ci_and_cix(self, vv, vh):
        anchor = fspl(F_142)
        a = np.array([10.0 * math.log10(d / 1.0) for d, _ in vv])
        b = np.array([pl - anchor for _, pl in vv])
        denom = float(np.dot(a, a))
        if denom <= 1e-12:
            return
        ple = float(np.dot(a, b) / denom)
        sigma = float(np.sqrt(np.mean((b - ple * a) ** 2)))
        ci = fit_ci(columns(vv), F_142)
        assert (ci.ple, ci.sigma_db) == (ple, sigma)
        excess = np.array([pl - anchor - 10.0 * ple * math.log10(d / 1.0) for d, pl in vh])
        xpd = float(np.mean(excess))
        cix = fit_cix(columns(vh), ci, F_142)
        assert (cix.xpd_db, cix.sigma_db) == (xpd, float(np.sqrt(np.mean((excess - xpd) ** 2))))
