"""Seeded drop generator and campaign rendering."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from subthz_chan import (
    ChannelDrop,
    LayoutEntry,
    LobeCountLaw,
    PathClass,
    Polarization,
    RmsdsLaw,
    Side,
    SynthesisParams,
    TapTable,
    ValidationError,
    XpdLaw,
    extract_spatial_lobes,
    factory_campaign_layout,
    fspl,
    ingest_campaign,
    power_angular_spectrum,
    render_campaign,
    sample_drop,
)
from subthz_chan.synthesis import _lobe_tap_profile


def weighted_rms(profile):
    w = sum(p for _, p in profile)
    m1 = sum(p * d for d, p in profile) / w
    m2 = sum(p * d * d for d, p in profile) / w
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def single_tap_params():
    """Degenerate generator: one lobe, one tap, no shadowing."""
    return SynthesisParams(
        shadow_sigma_db=0.0,
        lobe_count_law=LobeCountLaw(1.0, 1, 1),
        rmsds_law=RmsdsLaw(log_mean=math.log(1e-6), log_std=0.0),
    )


class TestLawValidation:
    def test_xpd_law(self):
        with pytest.raises(ValidationError):
            XpdLaw(mean_db=math.nan, std_db=1.0)
        with pytest.raises(ValidationError):
            XpdLaw(mean_db=26.0, std_db=-1.0)

    def test_lobe_count_law(self):
        with pytest.raises(ValidationError):
            LobeCountLaw(mean_count=1.0, min_count=0, max_count=3)
        with pytest.raises(ValidationError):
            LobeCountLaw(mean_count=9.0, min_count=1, max_count=7)

    def test_rmsds_law(self):
        with pytest.raises(ValidationError):
            RmsdsLaw(log_mean=0.0, log_std=-0.1)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            SynthesisParams(az_step_deg=7.0)
        with pytest.raises(ValidationError):
            SynthesisParams(distance_range_m=(0.5, 40.0))
        with pytest.raises(ValidationError):
            SynthesisParams(ple=0.0)
        with pytest.raises(ValidationError):
            # 24 bins at 15 deg can host at most 8 non-adjacent lobes
            SynthesisParams(az_step_deg=15.0, lobe_count_law=LobeCountLaw(5.0, 1, 9))

    def test_defaults(self):
        params = SynthesisParams()
        assert params.ple == 1.86
        assert params.lobe_count_law.mean_count == 3.5
        assert params.n_az_bins == 45


class TestParamsJson:
    def test_round_trip(self):
        params = SynthesisParams(ple=2.1, xpd_boresight=XpdLaw(25.0, 2.0))
        doc = json.loads(json.dumps(params.to_json_dict()))
        assert SynthesisParams.from_json_dict(doc) == params

    def test_empty_doc_gives_defaults(self):
        assert SynthesisParams.from_json_dict({}) == SynthesisParams()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisParams.from_json_dict({"plexponent": 2.0})


class TestLobeTapProfile:
    def test_small_target_realized_exactly(self):
        for target in (0.01, 0.05):
            prof = _lobe_tap_profile(target, 2.0)
            assert len(prof) == 2
            assert weighted_rms(prof) == pytest.approx(target, rel=1e-6)

    def test_moderate_targets_realized_closely(self):
        for target, tol in ((1.0, 0.06), (5.0, 0.06), (10.4, 0.06), (30.0, 0.06)):
            prof = _lobe_tap_profile(target, 2.0)
            assert len(prof) == 3
            assert weighted_rms(prof) == pytest.approx(target, abs=tol)

    def test_huge_target_capped(self):
        prof = _lobe_tap_profile(500.0, 2.0)
        assert max(d for d, _ in prof) <= 1000.0
        # with the far tap pinned at the cap the spread saturates
        assert weighted_rms(prof) < 50.0

    def test_offsets_on_grid_and_increasing(self):
        for target in (0.05, 1.0, 10.4, 200.0):
            prof = _lobe_tap_profile(target, 2.0)
            offsets = [d for d, _ in prof]
            assert offsets == sorted(offsets)
            assert offsets[0] == 0.0
            for d in offsets:
                assert abs(d / 2.0 - round(d / 2.0)) < 1e-9


class TestSampleDrop:
    def test_deterministic(self):
        params = SynthesisParams()
        assert sample_drop(params, 20.0, 42) == sample_drop(params, 20.0, 42)
        assert sample_drop(params, 20.0, 42) != sample_drop(params, 20.0, 43)

    def test_degenerate_profile_hits_model_exactly(self):
        params = single_tap_params()
        drop = sample_drop(params, 20.0, 123)
        expected = fspl(142e9) + 18.6 * math.log10(20.0)
        assert drop.pl_db == pytest.approx(expected, abs=1e-12)
        assert len(drop.lobes) == 1
        assert len(drop.lobes[0].taps) == 1
        tap = drop.lobes[0].taps[0]
        assert tap.path_class is PathClass.BORESIGHT
        assert drop.lobes[0].center_deg == 0.0
        assert drop.total_power_mw == pytest.approx(10.0 ** (-drop.pl_db / 10.0), rel=1e-12)

    def test_total_power_matches_loss_exactly(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = sample_drop(params, 17.3, seed)
            assert drop.total_power_mw == pytest.approx(
                10.0 ** (-drop.pl_db / 10.0), rel=1e-9
            )

    def test_lobe_centers_distinct_and_non_adjacent(self):
        params = SynthesisParams()
        for seed in range(50):
            drop = sample_drop(params, 25.0, seed)
            bins = [round(l.center_deg / 8.0) for l in drop.lobes]
            assert len(set(bins)) == len(bins)
            for i, a in enumerate(bins):
                for b in bins[i + 1 :]:
                    gap = min((a - b) % 45, (b - a) % 45)
                    assert gap >= 2

    def test_los_boresight_structure(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = sample_drop(params, 25.0, seed, los=True)
            assert drop.lobes[0].center_deg == 0.0
            classes = [t.path_class for lobe in drop.lobes for t in lobe.taps]
            assert classes[0] is PathClass.BORESIGHT
            assert classes.count(PathClass.BORESIGHT) == 1

    def test_nlos_is_all_reflection(self):
        params = SynthesisParams()
        drop = sample_drop(params, 25.0, 5, los=False)
        for lobe in drop.lobes:
            for tap in lobe.taps:
                assert tap.path_class is PathClass.REFLECTION

    def test_delays_on_lattice_and_bounded(self):
        params = SynthesisParams()
        direct = 2.0 * round(25.0 / 0.299792458 / 2.0)
        for seed in range(25):
            drop = sample_drop(params, 25.0, seed)
            for lobe in drop.lobes:
                first = lobe.taps[0].delay_ns
                assert first >= direct
                for tap in lobe.taps:
                    assert abs(tap.delay_ns / 2.0 - round(tap.delay_ns / 2.0)) < 1e-9
                    assert tap.delay_ns - first <= 1000.0 + 1e-9

    def test_lobe_power_ladder(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = sample_drop(params, 25.0, seed)
            p0 = drop.lobes[0].power_mw
            for k, lobe in enumerate(drop.lobes):
                assert lobe.power_mw / p0 == pytest.approx(10.0 ** (-0.3 * k), rel=5e-3)

    def test_mean_loss_tracks_model(self):
        params = SynthesisParams()
        model = fspl(142e9) + 18.6 * math.log10(20.0)
        mean = np.mean([sample_drop(params, 20.0, s).pl_db for s in range(4000)])
        assert mean == pytest.approx(model, abs=0.1)

    def test_effective_xpd_between_tap_extremes(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = sample_drop(params, 20.0, seed)
            xpds = [t.xpd_db for lobe in drop.lobes for t in lobe.taps]
            assert min(xpds) - 1e-9 <= drop.effective_omni_xpd_db <= max(xpds) + 1e-9

    def test_rejects_bad_arguments(self):
        params = SynthesisParams()
        with pytest.raises(ValidationError):
            sample_drop(params, 0.5, 0)
        with pytest.raises(ValidationError):
            sample_drop(params, 20.0, -1)

    def test_lobe_count_law_respected(self):
        law = LobeCountLaw(3.5, 1, 7)
        params = SynthesisParams(lobe_count_law=law)
        counts = [len(sample_drop(params, 20.0, s).lobes) for s in range(300)]
        assert min(counts) >= 1
        assert max(counts) <= 7
        assert np.mean(counts) == pytest.approx(3.5, abs=0.35)


class TestChannelDrop:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ChannelDrop(distance_m=0.5, pl_db=100.0, los=True, seed=0, lobes=())

    def test_seed_reproduces_drop(self):
        params = SynthesisParams()
        drop = sample_drop(params, 14.0, 99)
        assert sample_drop(params, drop.distance_m, drop.seed, los=drop.los) == drop


class TestRenderCampaign:
    def test_deterministic_bytes(self, tmp_path):
        params = SynthesisParams()
        a = render_campaign(params, 3, 7, tmp_path / "a")
        b = render_campaign(params, 3, 7, tmp_path / "b")
        assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
        names = sorted(p.name for p in (tmp_path / "a" / "sweeps").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b" / "sweeps").iterdir())
        for name in names:
            assert (tmp_path / "a" / "sweeps" / name).read_bytes() == (
                tmp_path / "b" / "sweeps" / name
            ).read_bytes()

    def test_rendered_campaign_ingests(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 4, 3, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        assert len(campaign) == 8
        assert len(rendered.drops) == 4
        assert campaign.carrier_hz == 142e9

    def test_lobe_counts_survive_the_round_trip(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 6, 11, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        table = TapTable(campaign.columns, campaign.rows(Polarization.VV))
        # default ids TX0001... sort in layout order, aligning with drops
        for index, drop in zip(range(len(table)), rendered.drops):
            pas = power_angular_spectrum(table, index, Side.AOA, 30.0)
            assert len(extract_spatial_lobes(pas, 30.0)) == len(drop.lobes)

    def test_single_lobe_end_to_end(self, tmp_path):
        rendered = render_campaign(single_tap_params(), 1, 5, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        table = TapTable(campaign.columns, campaign.rows(Polarization.VV))
        assert len(campaign.by_polarization(Polarization.VV)[0].sweeps) == 1
        pas = power_angular_spectrum(table, 0, Side.AOA, 20.0)
        assert len(extract_spatial_lobes(pas, 20.0)) == 1

    def test_factory_layout(self, tmp_path):
        layout = factory_campaign_layout()
        assert len(layout) == 13
        assert sum(1 for e in layout if e.los) == 11
        assert layout[0].distance_m == pytest.approx(6.3)
        assert layout[-1].distance_m == pytest.approx(39.6)

        rendered = render_campaign(SynthesisParams(), None, 2, tmp_path, layout=layout)
        campaign = ingest_campaign(rendered.manifest_path)
        assert len(campaign) == 26
        by_pair = {}
        for loc in campaign:
            by_pair.setdefault((loc.tx_id, loc.rx_id), []).append(loc)
        for entry, drop in zip(layout, rendered.drops):
            vv = next(
                l
                for l in by_pair[(entry.tx_id, entry.rx_id)]
                if l.polarization is Polarization.VV
            )
            assert vv.distance_m == pytest.approx(entry.distance_m, abs=1e-9)
            assert vv.los is entry.los
            assert drop.distance_m == entry.distance_m

    def test_los_boresight_pair_present(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 3, 9, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        for loc in campaign.by_polarization(Polarization.VV):
            assert (180.0, 0.0) in {s.direction for s in loc.sweeps}

    def test_cross_polar_sweeps_differ_by_tap_xpd(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 2, 13, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        for (row_vv, row_vh), drop in zip(campaign.pairs(), rendered.drops):
            loc_vv, loc_vh = campaign[row_vv], campaign[row_vh]
            vh_by_dir = {s.direction: s for s in loc_vh.sweeps}
            lobes_by_center = {l.center_deg: l for l in drop.lobes}
            for sweep_vv in loc_vv.sweeps:
                sweep_vh = vh_by_dir[sweep_vv.direction]
                assert sweep_vh.delays_ns == sweep_vv.delays_ns
                lobe = lobes_by_center[sweep_vv.rx_az_deg]
                for tap, p_vv, p_vh in zip(
                    lobe.taps, sweep_vv.powers_db, sweep_vh.powers_db
                ):
                    assert p_vv - p_vh == pytest.approx(tap.xpd_db, abs=1e-9)

    def test_layout_count_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            render_campaign(
                SynthesisParams(), 2, 0, tmp_path, layout=factory_campaign_layout()
            )
        with pytest.raises(ValidationError):
            render_campaign(SynthesisParams(), None, 0, tmp_path)

    def test_distance_under_height_gap_rejected(self, tmp_path):
        layout = [LayoutEntry("TX1", "RX1", 1.2)]
        with pytest.raises(ValidationError):
            render_campaign(SynthesisParams(), None, 0, tmp_path, layout=layout)
