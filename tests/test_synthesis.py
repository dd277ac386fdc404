"""Seeded drop generator and campaign rendering."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from subthz_chan import (
    LayoutEntry,
    LobeCountLaw,
    Polarization,
    RmsdsLaw,
    SynthesisParams,
    TapTable,
    ValidationError,
    XpdLaw,
    angular_spreads,
    draw_drops,
    factory_campaign_layout,
    fspl,
    ingest_campaign,
    render_campaign,
)
from subthz_chan.measurement import DB_LIMIT, DELAY_LIMIT_NS, SPEED_OF_LIGHT_M_S
from subthz_chan.synthesis import _MAX_FAR_TAP_NS, _lobe_tap_profile


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
        with pytest.raises(ValidationError, match="^log_mean: must be finite$"):
            RmsdsLaw(log_mean=math.inf, log_std=0.4)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            SynthesisParams(az_step_deg=7.0)
        with pytest.raises(ValidationError):
            SynthesisParams(distance_range_m=(0.5, 40.0))
        with pytest.raises(ValidationError):
            SynthesisParams(ple=0.0)
        with pytest.raises(ValidationError, match="^shadow_sigma_db: must be >= 0$"):
            SynthesisParams(shadow_sigma_db=-1.0)
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

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([], "params"),
            ({"ple": "x"}, "ple"),
            ({"ple": None}, "ple"),
            ({"ple": True}, "ple"),
            ({"xpd_boresight": [1, 2]}, "xpd_boresight"),
            ({"xpd_boresight": {"mean_db": 1}}, "xpd_boresight"),
            ({"xpd_reflection": {"mean_db": "1", "std_db": 2}}, "xpd_reflection.mean_db"),
            ({"rmsds_law": {"log_mean": 2.3, "log_std": 0.4, "extra": 1}}, "rmsds_law"),
            ({"lobe_count_law": {"mean_count": 3.5, "min_count": 1.5, "max_count": 7}}, "lobe_count_law.min_count"),
            ({"lobe_count_law": {"mean_count": 3.5, "min_count": 1, "max_count": False}}, "lobe_count_law.max_count"),
            ({"distance_range_m": 5}, "distance_range_m"),
            ({"distance_range_m": [6.3]}, "distance_range_m"),
            ({"distance_range_m": [6.3, 20, 30]}, "distance_range_m"),
            ({"distance_range_m": [6.3, "20"]}, "distance_range_m"),
        ],
    )
    def test_malformed_field_names_it(self, doc, field):
        with pytest.raises(ValidationError) as err:
            SynthesisParams.from_json_dict(doc)
        assert err.value.field == field

    def test_integral_counts_accepted(self):
        doc = {"lobe_count_law": {"mean_count": 3, "min_count": 2.0, "max_count": 7}}
        law = SynthesisParams.from_json_dict(doc).lobe_count_law
        assert law == LobeCountLaw(3, 2, 7)
        assert type(law.min_count) is int


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


def draw_one(params, distance_m, seed, los=True):
    """The columns of the one drop ``draw_drops`` draws at ``distance_m`` from ``seed``."""
    return draw_drops(params, [distance_m], [seed], [los])


def lobe_powers(truth) -> np.ndarray:
    return np.add.reduceat(truth.power_mw, truth.tap_bounds[:-1])


class TestSampleDrop:
    def test_deterministic(self):
        params = SynthesisParams()
        assert draw_one(params, 20.0, 42) == draw_one(params, 20.0, 42)
        assert draw_one(params, 20.0, 42) != draw_one(params, 20.0, 43)

    def test_degenerate_profile_hits_model_exactly(self):
        params = single_tap_params()
        drop = draw_one(params, 20.0, 123)
        expected = fspl(142e9) + 18.6 * math.log10(20.0)
        assert drop.pl_db[0] == pytest.approx(expected, abs=1e-12)
        assert len(drop.center_deg) == 1
        assert len(drop.delay_ns) == 1
        assert drop.boresight.tolist() == [True]
        assert drop.center_deg[0] == 0.0
        assert drop.power_mw.sum() == pytest.approx(10.0 ** (-drop.pl_db[0] / 10.0), rel=1e-12)

    def test_a_spread_that_underflows_to_zero_draws_one_tap_lobes(self):
        # exp(-1000) is 0.0, so every lobe's drawn RMS delay spread is 0
        params = SynthesisParams(rmsds_law=RmsdsLaw(-1000.0, 0.0))
        drop = draw_one(params, 20.0, 7, los=False)
        assert len(drop.center_deg) > 1
        assert np.diff(drop.tap_bounds).tolist() == [1] * len(drop.center_deg)
        assert drop.power_mw.sum() == pytest.approx(10.0 ** (-drop.pl_db[0] / 10.0), rel=1e-9)

    def test_total_power_matches_loss_exactly(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = draw_one(params, 17.3, seed)
            assert drop.power_mw.sum() == pytest.approx(
                10.0 ** (-drop.pl_db[0] / 10.0), rel=1e-9
            )

    def test_lobe_centers_distinct_and_non_adjacent(self):
        params = SynthesisParams()
        for seed in range(50):
            drop = draw_one(params, 25.0, seed)
            bins = [round(c / 8.0) for c in drop.center_deg.tolist()]
            assert len(set(bins)) == len(bins)
            for i, a in enumerate(bins):
                for b in bins[i + 1 :]:
                    gap = min((a - b) % 45, (b - a) % 45)
                    assert gap >= 2

    def test_los_boresight_structure(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = draw_one(params, 25.0, seed, los=True)
            assert drop.center_deg[0] == 0.0
            assert drop.boresight[0]
            assert drop.boresight.sum() == 1

    def test_nlos_is_all_reflection(self):
        params = SynthesisParams()
        drop = draw_one(params, 25.0, 5, los=False)
        assert len(drop.boresight) > 0
        assert not drop.boresight.any()

    def test_delays_on_lattice_and_bounded(self):
        params = SynthesisParams()
        direct = 2.0 * round(25.0 / 0.299792458 / 2.0)
        for seed in range(25):
            drop = draw_one(params, 25.0, seed)
            bounds = drop.tap_bounds.tolist()
            for a, b in zip(bounds, bounds[1:]):
                first = drop.delay_ns[a]
                assert first >= direct
                for delay in drop.delay_ns[a:b].tolist():
                    assert abs(delay / 2.0 - round(delay / 2.0)) < 1e-9
                    assert delay - first <= 1000.0 + 1e-9

    def test_lobe_power_ladder(self):
        params = SynthesisParams()
        for seed in range(25):
            powers = lobe_powers(draw_one(params, 25.0, seed))
            for k, power in enumerate(powers):
                assert power / powers[0] == pytest.approx(10.0 ** (-0.3 * k), rel=5e-3)

    def test_mean_loss_tracks_model(self):
        params = SynthesisParams()
        model = fspl(142e9) + 18.6 * math.log10(20.0)
        mean = np.mean(draw_drops(params, [20.0] * 4000, range(4000), [True] * 4000).pl_db)
        assert mean == pytest.approx(model, abs=0.1)

    def test_effective_xpd_between_tap_extremes(self):
        params = SynthesisParams()
        for seed in range(25):
            drop = draw_one(params, 20.0, seed)
            assert drop.xpd_db.min() - 1e-9 <= drop.omni_xpd_db[0] <= drop.xpd_db.max() + 1e-9

    def test_rejects_bad_arguments(self):
        params = SynthesisParams()
        for distances, seeds, los, field in (
            ([20.0, 0.5], [0, 0], [True, True], "distances_m[1]"),
            ([math.nan], [0], [True], "distances_m[0]"),
            ([math.inf], [0], [True], "distances_m[0]"),
            ([1e60], [0], [True], "distances_m[0]"),
            ([20.0], [-1], [True], "seeds[0]"),
            ([20.0], [2**63], [True], "seeds[0]"),
            ([20.0, 21.0], [0], [True, True], "seeds"),
            ([20.0], [0], [True, False], "seeds"),
        ):
            with pytest.raises(ValidationError) as err:
                draw_drops(params, distances, seeds, los)
            assert err.value.field == field
        assert draw_drops(params, [], [], []).distance_m.size == 0

    def test_lobe_count_law_respected(self):
        law = LobeCountLaw(3.5, 1, 7)
        params = SynthesisParams(lobe_count_law=law)
        counts = np.diff(draw_drops(params, [20.0] * 300, range(300), [True] * 300).lobe_bounds)
        assert min(counts) >= 1
        assert max(counts) <= 7
        assert np.mean(counts) == pytest.approx(3.5, abs=0.35)


class TestChannelDrop:
    def test_seed_reproduces_drop(self):
        params = SynthesisParams()
        drops = draw_drops(params, [25.0, 14.0, 9.0], [98, 99, 100], [False, True, True])
        again = draw_one(params, drops.distance_m[1], drops.seed[1], los=drops.los[1])
        lobes = slice(*drops.lobe_bounds[1:3])
        taps = slice(*drops.tap_bounds[drops.lobe_bounds[1:3]])
        for name in ("delay_ns", "power_mw", "xpd_db", "boresight"):
            assert np.array_equal(getattr(again, name), getattr(drops, name)[taps]), name
        assert np.array_equal(again.center_deg, drops.center_deg[lobes])
        for name in ("distance_m", "los", "seed", "pl_db", "omni_xpd_db"):
            assert getattr(again, name)[0] == getattr(drops, name)[1], name


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
        assert len(rendered.truth.distance_m) == 4
        assert campaign.carrier_hz == 142e9

    @pytest.mark.parametrize(
        "params",
        [
            # every knob at its share of a tap's power, pushing taps down: a 750 THz carrier,
            # PLE 9.3 to 39.6 m, 15 dB shadowing, XPDs of 150 dB and 51 lobes 3 dB apart
            dict(carrier_hz=7.5e14, ple=9.3, nlos_ple=9.3, shadow_sigma_db=15.0, xpd_boresight=XpdLaw(150.0, 0.0),
                 xpd_reflection=XpdLaw(140.0, 1.0), az_step_deg=2.0, lobe_count_law=LobeCountLaw(51.0, 51, 51)),
            # and pushing them up: a 0.8 Hz carrier gains 150 dB at 1 m, negative XPDs raise V-H over V-V
            dict(carrier_hz=0.8, shadow_sigma_db=15.0, xpd_boresight=XpdLaw(-150.0, 0.0), xpd_reflection=XpdLaw(-140.0, 1.0)),
        ],
        ids=["faintest", "strongest"],
    )
    def test_knobs_at_their_share_render_a_campaign_that_reads_back(self, tmp_path, params):
        # each knob may move a tap's power by 150 dB, so no rendered tap leaves the +-1000 dB a campaign holds
        rendered = render_campaign(SynthesisParams(**params), 3, 7, tmp_path)
        power = ingest_campaign(rendered.manifest_path).columns.power_db
        assert np.abs(power).max() <= DB_LIMIT

    @pytest.mark.parametrize(
        "params, field",
        [
            (dict(carrier_hz=0.7), "carrier_hz"),
            (dict(xpd_reflection=XpdLaw(1e6, 4.3)), "xpd_reflection"),
            (dict(xpd_boresight=XpdLaw(26.2, 20.0)), "xpd_boresight"),
            (dict(az_step_deg=2.0, lobe_count_law=LobeCountLaw(3.5, 1, 52)), "lobe_count_law"),
        ],
    )
    def test_knob_past_its_share_is_named(self, params, field):
        with pytest.raises(ValidationError, match=rf"^{field}: .* moves tap powers by .* dB, over the 150 dB one knob may$"):
            SynthesisParams(**params)

    def test_no_distance_renders_past_the_delay_limit(self):
        # the distance knob's 150 dB share caps the far end at 10**7.5 m, about 1e8 ns of delay
        far_m = 10.0 ** (150.0 / 20.0)
        with pytest.raises(ValidationError, match=r"^distance_range_m: .* over the 150 dB one knob may$"):
            SynthesisParams(distance_range_m=(6.3, far_m * 1.01))
        assert far_m / SPEED_OF_LIGHT_M_S * 1e9 + _MAX_FAR_TAP_NS < DELAY_LIMIT_NS

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            render_campaign(SynthesisParams(), 2, -1, tmp_path)
        assert err.value.field == "seed"
        assert not (tmp_path / "manifest.json").exists()

    def test_lobe_counts_survive_the_round_trip(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 6, 11, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        table = TapTable(campaign.columns, campaign.rows(Polarization.VV))
        # default ids TX0001... sort in layout order, aligning with drops
        lobes = angular_spreads(table, 30.0).n_aoa_lobes
        assert lobes.tolist() == np.diff(rendered.truth.lobe_bounds).tolist()

    def test_single_lobe_end_to_end(self, tmp_path):
        rendered = render_campaign(single_tap_params(), 1, 5, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        table = TapTable(campaign.columns, campaign.rows(Polarization.VV))
        assert len(campaign.by_polarization(Polarization.VV)[0].sweeps) == 1
        assert angular_spreads(table, 20.0).n_aoa_lobes[0] == 1

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
        for entry, distance in zip(layout, rendered.truth.distance_m.tolist()):
            vv = next(
                l
                for l in by_pair[(entry.tx_id, entry.rx_id)]
                if l.polarization is Polarization.VV
            )
            assert vv.distance_m == pytest.approx(entry.distance_m, abs=1e-9)
            assert vv.los is entry.los
            assert distance == entry.distance_m

    def test_los_boresight_pair_present(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 3, 9, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        for loc in campaign.by_polarization(Polarization.VV):
            assert (180.0, 0.0) in {s.direction for s in loc.sweeps}

    def test_cross_polar_sweeps_differ_by_tap_xpd(self, tmp_path):
        rendered = render_campaign(SynthesisParams(), 2, 13, tmp_path)
        campaign = ingest_campaign(rendered.manifest_path)
        truth = rendered.truth
        taps = truth.tap_bounds.tolist()
        # drop i is the i-th V-V location, in campaign order
        for i, loc_vv in enumerate(campaign.by_polarization(Polarization.VV)):
            loc_vh = campaign[campaign.find((loc_vv.tx_id, loc_vv.rx_id, Polarization.VH))]
            vh_by_dir = {s.direction: s for s in loc_vh.sweeps}
            lobes = range(truth.lobe_bounds[i], truth.lobe_bounds[i + 1])
            lobes_by_center = {truth.center_deg[l]: l for l in lobes}
            for sweep_vv in loc_vv.sweeps:
                sweep_vh = vh_by_dir[sweep_vv.direction]
                assert sweep_vh.delays_ns == sweep_vv.delays_ns
                lobe = lobes_by_center[sweep_vv.rx_az_deg]
                for xpd_db, p_vv, p_vh in zip(
                    truth.xpd_db[taps[lobe] : taps[lobe + 1]], sweep_vv.powers_db, sweep_vh.powers_db
                ):
                    assert p_vv - p_vh == pytest.approx(xpd_db, abs=1e-9)

    def test_layout_count_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            render_campaign(
                SynthesisParams(), 2, 0, tmp_path, layout=factory_campaign_layout()
            )
        with pytest.raises(ValidationError):
            render_campaign(SynthesisParams(), None, 0, tmp_path)

    @pytest.mark.parametrize("distance_m", [math.inf, 1e300, 1e60])
    def test_pinned_distance_past_the_far_end_is_named(self, tmp_path, distance_m):
        # the far-end rules of distance_range_m hold for a pinned distance, checked before anything is drawn
        layout = [LayoutEntry("A", "B", distance_m), LayoutEntry("A", "C", 10.0)]
        message = r"^layout\[0\]\.distance_m: .* moves tap powers by .* dB, over the 150 dB one knob may$"
        with pytest.raises(ValidationError, match=message) as err:
            render_campaign(SynthesisParams(), None, 0, tmp_path / "out", layout=layout)
        assert err.value.field == "layout[0].distance_m"
        assert not (tmp_path / "out").exists()

    def test_pinned_distance_past_the_lattice_is_named(self, tmp_path):
        # every share fits 10**7 m, but a 1e-6 ns lattice cannot resolve the delays out there
        params = SynthesisParams(ple=1.0, nlos_ple=1.0, delay_resolution_ns=1e-6)
        layout = [LayoutEntry("A", "B", 10.0), LayoutEntry("A", "C", 1e7)]
        with pytest.raises(ValidationError, match=r"cannot resolve delays near") as err:
            render_campaign(params, None, 0, tmp_path / "out", layout=layout)
        assert err.value.field == "layout[1].distance_m"
        assert not (tmp_path / "out").exists()

    def test_distance_under_height_gap_rejected(self, tmp_path):
        layout = [LayoutEntry("TX1", "RX1", 1.2)]
        with pytest.raises(ValidationError):
            render_campaign(SynthesisParams(), None, 0, tmp_path, layout=layout)

    @pytest.mark.parametrize("low_m", [1.1, 1.5])
    def test_range_starting_within_the_height_gap_is_refused(self, low_m):
        # every placement spans at least the 1.5 m between the 3 m TX and the 1.5 m RX
        with pytest.raises(ValidationError, match=r"1\.5 m antenna height gap") as err:
            SynthesisParams(distance_range_m=(low_m, 40.0))
        assert err.value.field == "distance_range_m"

    def test_range_starting_past_the_height_gap_renders(self, tmp_path):
        params = SynthesisParams(distance_range_m=(1.6, 40.0))
        for seed in (0, 1, 2):
            campaign = ingest_campaign(render_campaign(params, 200, seed, tmp_path / str(seed)).manifest_path)
            assert len(campaign) == 400
            assert campaign.columns.distance_m.min() > 1.5
