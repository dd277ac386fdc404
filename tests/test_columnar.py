"""The tap table and its kernels against one-location tables and per-object loop references."""
from __future__ import annotations

import importlib
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import by_direction, make_location, make_pdp, omni_pdp, table_of

from subthz_chan import (
    Analysis,
    Campaign,
    DirectionClass,
    NoSignalError,
    Polarization,
    SampleKind,
    Side,
    SynthesisParams,
    TapTable,
    ValidationError,
    XpdColumns,
    angular_stats,
    bearings_deg,
    campaign_angular_summary,
    circular_distance_deg,
    db_to_linear,
    delay_stats,
    directional_samples,
    ingest_campaign,
    linear_to_db,
    omni_bins,
    omni_losses,
    power_angular_spectrum,
    render_campaign,
    summarize,
    sweep_classes,
    sweep_losses,
    write_campaign,
    xpd_columns,
)
from subthz_chan.cli import EXIT_VALIDATION, main
from subthz_chan.pathloss import DIRECTION_CLASSES

REL = 1e-12


def silent_location(like):
    """A location like ``like`` whose every sweep sits below the noise floor."""
    sweeps = [make_pdp([10.0, 12.0], [-118.0, -112.0], rx_az=az, floor=-110.0) for az in (0.0, 8.0)]
    return replace(like, tx_id="TX-SILENT", rx_id="RX-SILENT", sweeps=sweeps)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A seeded 40-placement render plus one co-polar location without signal."""
    out = tmp_path_factory.mktemp("columnar")
    rendered = ingest_campaign(render_campaign(SynthesisParams(), 40, 5, out).manifest_path)
    locations = rendered.locations + (silent_location(rendered.locations[0]),)
    return Campaign(rendered.campaign_id, rendered.carrier_hz, rendered.tx_power_dbm, locations)


@pytest.fixture(scope="module")
def analysis(campaign):
    return Analysis(campaign)


def assert_row_close(row, values):
    expected = summarize(values)
    assert row.n == expected.n
    for field in ("min", "max", "mean", "median", "p90"):
        assert getattr(row, field) == pytest.approx(getattr(expected, field), rel=REL, abs=0.0), field


def detectable(loc):
    return [pdp for pdp in loc.sweeps if pdp.is_detectable()]


def one_location(campaign, row):
    """The tap table of one campaign row."""
    return TapTable(campaign.columns, [row])


def samples_of(table, samples):
    """(distance_m, pl_db, los) of each sample of a table."""
    return list(zip(samples.distance_m.tolist(), samples.pl_db.tolist(), table.los[samples.loc].tolist()))


def assert_samples_equal(analysis, pol, kind, single):
    batched = samples_of(analysis.table(pol), analysis.samples(pol, kind))
    assert len(batched) == len(single)
    for (distance_m, pl_db, is_los), (b_distance_m, b_pl_db, b_los) in zip(batched, single):
        assert (distance_m, is_los) == (b_distance_m, b_los)
        assert pl_db == pytest.approx(b_pl_db, rel=REL, abs=0.0)


class TestTapTable:
    def test_linear_column_is_the_scalar_conversion_bit_for_bit(self, campaign):
        table = TapTable(campaign.columns)
        expected = np.array([db_to_linear(p) for p in table.power_db.tolist()])
        assert table.power_mw.tobytes() == expected.tobytes()
        # the omni bins sum the gained taps' scalar conversions in tap order
        gained = (table.power_db - table.gain_sum_dbi[table.tap_loc]).tolist()
        sums: dict[tuple[int, float], float] = {}
        for loc, delay, p in zip(table.tap_loc.tolist(), table.delay_ns.tolist(), gained):
            sums[loc, delay] = sums.get((loc, delay), 0.0) + db_to_linear(p)
        omni = omni_bins(table)
        assert list(zip(omni.loc.tolist(), omni.delay_ns.tolist())) == sorted(sums)
        assert omni.power_mw.tobytes() == np.array([sums[key] for key in sorted(sums)]).tobytes()
        # the received power of each sweep is the scalar dB of its running sum
        received = [0.0] * len(table.sweep_loc)
        for sweep, p in zip(table.tap_sweep.tolist(), expected.tolist()):
            received[sweep] += p
        loc = table.sweep_loc
        pl_db = table.tx_power_dbm[loc] + table.gain_sum_dbi[loc] - np.array([linear_to_db(p) for p in received])
        assert sweep_losses(table).tobytes() == pl_db.tobytes()

    def test_rows_are_the_detected_bins(self, campaign):
        table = TapTable(campaign.columns)
        rows = list(zip(table.tap_loc.tolist(), table.delay_ns.tolist(), table.power_db.tolist()))
        expected = [
            (index, delay, power)
            for index, loc in enumerate(campaign)
            for pdp in detectable(loc)
            for delay, power in pdp.detected_bins()
        ]
        assert rows == expected
        assert table.n_sweeps.tolist() == [len(detectable(loc)) for loc in campaign]

    def test_location_without_signal_has_no_rows(self, campaign):
        table = TapTable(campaign.columns)
        assert table.n_sweeps[-1] == 0
        with pytest.raises(NoSignalError, match="no sweep clears the noise floor"):
            table.require_signal(len(table) - 1)

    def test_kept_computes_once(self, campaign):
        table = TapTable(campaign.columns, [0, 1])
        calls = []

        def compute(t):
            calls.append(t)
            return len(calls)

        assert table.kept(compute) == table.kept(compute) == 1
        assert calls == [table]


class TestKernelsMatchPerLocationFunctions:
    """``Analysis`` over the whole campaign against one-location tables, composed by hand."""

    def test_path_loss_samples_and_exclusions(self, campaign, analysis):
        for pol in Polarization:
            single, excluded = [], []
            for row in campaign.rows(pol).tolist():
                table = one_location(campaign, row)
                samples, errors = omni_losses(table, analysis.max_measurable_pl_db)
                single.extend(samples_of(table, samples))
                excluded.extend((*table.key(0)[:2], str(err)) for _, err in errors)
            assert_samples_equal(analysis, pol, SampleKind.OMNI, single)
            listed = [(e["tx_id"], e["rx_id"], e["reason"]) for e in analysis.excluded if e["polarization"] == pol.value]
            assert listed == excluded
        assert ("TX-SILENT", "RX-SILENT") in {(e["tx_id"], e["rx_id"]) for e in analysis.excluded}
        directional = {kind: [] for kind in (SampleKind.DIR_B, SampleKind.DIR_NBB, SampleKind.DIR_NB)}
        for row in campaign.rows(Polarization.VV).tolist():
            table = one_location(campaign, row)
            for kind, samples in directional_samples(table, analysis.max_measurable_pl_db).items():
                directional[kind].extend(samples_of(table, samples))
        for kind, single in directional.items():
            assert_samples_equal(analysis, Polarization.VV, kind, single)

    @pytest.mark.parametrize("threshold_db", [20.0, 30.0])
    def test_delay_section(self, campaign, analysis, threshold_db):
        omni_rms, omni_mds, dir_rms, dir_mds = [], [], [], []
        for row in campaign.rows(Polarization.VV).tolist():
            table = one_location(campaign, row)
            if table.no_signal(0):
                continue
            stats = delay_stats(omni_pdp(table), threshold_db)
            omni_rms.append(stats.rmsds_ns)
            omni_mds.append(stats.mds_ns)
            for pdp in detectable(campaign[row]):
                stats = delay_stats(pdp, threshold_db)
                dir_rms.append(stats.rmsds_ns)
                dir_mds.append(stats.mds_ns)
        summary = analysis.delay[threshold_db]
        assert_row_close(summary.omni_rmsds, omni_rms)
        assert_row_close(summary.omni_mds, omni_mds)
        assert_row_close(summary.dir_rmsds, dir_rms)
        assert_row_close(summary.dir_mds, dir_mds)

    @pytest.mark.parametrize("threshold_db", [20.0, 30.0])
    def test_angular_section(self, campaign, analysis, threshold_db):
        lobes = {Side.AOA: [], Side.AOD: []}
        spreads = {Side.AOA: [], Side.AOD: []}
        for row in campaign.rows(Polarization.VV).tolist():
            table = one_location(campaign, row)
            if table.no_signal(0):
                continue
            for side in Side:
                stats = angular_stats(power_angular_spectrum(table, 0, side, threshold_db), threshold_db)
                lobes[side].append(float(stats.n_lobes))
                spreads[side].append(stats.rmsas_deg)
        summary = analysis.angular[threshold_db]
        assert summary.n_aoa_lobes == summarize(lobes[Side.AOA])
        assert summary.n_aod_lobes == summarize(lobes[Side.AOD])
        assert_row_close(summary.aoa_rmsas, spreads[Side.AOA])
        assert_row_close(summary.aod_rmsas, spreads[Side.AOD])

    def test_xpd_section(self, campaign, analysis):
        pairs = [
            xpd_columns(one_location(campaign, vv), one_location(campaign, vh), [(0, 0)]) for vv, vh in campaign.pairs()
        ]
        single = XpdColumns(*(np.concatenate(column) for column in zip(*pairs))).summary()
        assert set(analysis.xpd) == set(single)
        for path_class, expected in single.items():
            got = analysis.xpd[path_class]
            assert got.n == expected.n
            assert got.mean_db == pytest.approx(expected.mean_db, rel=REL, abs=0.0)
            assert got.std_db == pytest.approx(expected.std_db, rel=REL, abs=0.0)
            for (v, f), (ev, ef) in zip(got.cdf, expected.cdf):
                assert f == ef
                assert v == pytest.approx(ev, rel=REL, abs=0.0)


@pytest.mark.parametrize("module", ["delay", "pathloss", "xpd", "angular", "pipeline", "cli"])
def test_no_analysis_callable_takes_a_location_record(module):
    """Every statistic starts from a ``TapTable``: no public function or method takes a ``LocationMeasurement``."""
    mod = importlib.import_module(f"subthz_chan.{module}")
    functions = []
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            functions.append((name, value))
        elif inspect.isclass(value):
            functions += [
                (f"{name}.{attr}", member)
                for attr, member in vars(value).items()
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_"))
            ]
    assert functions
    for name, function in functions:
        for parameter in inspect.signature(function).parameters.values():
            assert "LocationMeasurement" not in str(parameter.annotation), f"{module}.{name}({parameter.name})"


class TestOffGridAzimuth:
    def test_stats_angular_exits_2(self, tmp_path, capsys):
        def location(tx_id, off_grid_rx):
            sweeps = [
                make_pdp([100.0, 102.0], [-60.0, -70.0], tx_az=180.0, rx_az=0.0),
                make_pdp([104.0], [-75.0], tx_az=188.0, rx_az=off_grid_rx or 8.0),
            ]
            return make_location(sweeps, tx_id=tx_id, rx_id="RX" + tx_id)

        campaign = Campaign("off-grid", 142e9, 0.0, (location("TX1", None), location("TX2", 3.0)))
        manifest = write_campaign(campaign, tmp_path / "off_grid")
        assert main(["stats", "angular", "--manifest", str(manifest)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "rx_az_deg" in err and "azimuth 3.0 is off the uniform 8 deg sweep grid" in err

    def test_first_location_decides_the_side(self):
        off_aod = make_location([make_pdp([0.0], [-60.0], tx_az=0.0), make_pdp([0.0], [-70.0], tx_az=5.0)])
        off_aoa = make_location(
            [make_pdp([0.0], [-60.0], rx_az=0.0), make_pdp([0.0], [-70.0], rx_az=5.0)], tx_id="TX2"
        )
        with pytest.raises(ValidationError) as err:
            campaign_angular_summary(table_of(off_aod, off_aoa), 30.0)
        assert err.value.field == "tx_az_deg"
        with pytest.raises(ValidationError) as err:
            campaign_angular_summary(table_of(off_aoa, off_aod), 30.0)
        assert err.value.field == "rx_az_deg"

    def test_single_spectrum_checks_only_its_side(self):
        off_aod = make_location([make_pdp([0.0], [-60.0], tx_az=0.0), make_pdp([0.0], [-70.0], tx_az=5.0)])
        assert power_angular_spectrum(table_of(off_aod), 0, Side.AOA, 30.0).powers_mw[0] > 0
        with pytest.raises(ValidationError, match="off the uniform"):
            power_angular_spectrum(table_of(off_aod), 0, Side.AOD, 30.0)


# Per-object loops the kernels replaced, kept as the reference they must
# reproduce: bit for bit where the arithmetic is unchanged, and within REL
# where only the summation order moved (the angular moments).


def loop_omni(loc):
    acc = {}
    gain_sum_dbi = loc.tx_antenna.gain_dbi + loc.rx_antenna.gain_dbi
    for pdp in detectable(loc):
        for delay, power in pdp.detected_bins():
            acc[delay] = acc.get(delay, 0.0) + db_to_linear(power - gain_sum_dbi)
    delays = sorted(acc)
    return delays, [acc[t] for t in delays]


def loop_spreads(taps):
    total = sum(p for _, p in taps)
    t0 = taps[0][0]
    m1 = sum(p * (t - t0) for t, p in taps) / total
    m2 = sum(p * (t - t0) ** 2 for t, p in taps) / total
    return math.sqrt(max(m2 - m1 * m1, 0.0)), taps[-1][0] - t0, len(taps)


def loop_omni_delay(delays, powers, threshold_db):
    cut = max(powers) * db_to_linear(-threshold_db)
    return loop_spreads([(t, p) for t, p in zip(delays, powers) if p >= cut])


def loop_sweep_delay(pdp, threshold_db):
    cut = pdp.peak_db - threshold_db
    return loop_spreads([(t, db_to_linear(p)) for t, p in pdp.detected_bins() if p >= cut])


def loop_pas(loc, side, threshold_db):
    sweeps = detectable(loc)
    antenna = loc.tx_antenna if side is Side.AOD else loc.rx_antenna
    step, nbins = antenna.az_step_deg, antenna.n_az_bins
    azimuth = (lambda s: s.tx_az_deg) if side is Side.AOD else (lambda s: s.rx_az_deg)
    phase = azimuth(sweeps[0]) % step
    cut = max(s.peak_db for s in sweeps) - threshold_db
    powers = [0.0] * nbins
    for pdp in sweeps:
        index = round((azimuth(pdp) - phase) / step) % nbins
        for _, power in pdp.detected_bins():
            if power >= cut:
                powers[index] += db_to_linear(power)
    return [phase + k * step for k in range(nbins)], powers


def loop_rms_spread(bins_deg, powers):
    p, bins = np.asarray(powers), np.asarray(bins_deg)
    resultant = np.sum(p * np.exp(1j * np.radians(bins)))
    mean = 0.0 if abs(resultant) < 1e-9 * np.sum(p) else float(np.degrees(np.angle(resultant)) % 360.0)
    dev = (bins - (0.0 if mean == 360.0 else mean) + 180.0) % 360.0 - 180.0
    return float(np.sqrt(np.sum(p * dev**2) / np.sum(p)))


def loop_lobe_count(powers, threshold_db):
    cut = max(powers) * db_to_linear(-threshold_db)
    marked = [p >= cut for p in powers]
    return 1 if all(marked) else sum(1 for i in range(len(marked)) if marked[i] and not marked[i - 1])


def loop_power_mw(pdp):
    return sum(db_to_linear(p) for _, p in pdp.detected_bins())


def loop_losses(loc):
    gain_sum_dbi = loc.tx_antenna.gain_dbi + loc.rx_antenna.gain_dbi
    return {
        pdp.direction: loc.tx_power_dbm + gain_sum_dbi - linear_to_db(loop_power_mw(pdp)) for pdp in detectable(loc)
    }


def loop_classes(loc):
    powers = {pdp.direction: loop_power_mw(pdp) for pdp in detectable(loc)}
    classes, remaining = {}, set(powers)
    if loc.los:
        tx_bearing, rx_bearing = bearings_deg(loc.tx_pos_m, loc.rx_pos_m)
        candidates = []
        for tx_az, rx_az in remaining:
            d_tx = circular_distance_deg(tx_az, tx_bearing)
            d_rx = circular_distance_deg(rx_az, rx_bearing)
            if d_tx <= loc.tx_antenna.az_step_deg / 2.0 + 1e-9 and d_rx <= loc.rx_antenna.az_step_deg / 2.0 + 1e-9:
                candidates.append((d_tx + d_rx, (tx_az, rx_az)))
        if candidates:
            boresight = min(candidates)[1]
            classes[boresight] = DirectionClass.B
            remaining.discard(boresight)
    if remaining:
        strongest = min(remaining, key=lambda d: (-powers[d], d))
        classes[strongest] = DirectionClass.NBB
        remaining.discard(strongest)
    return {**classes, **{d: DirectionClass.NB for d in remaining}}


THRESHOLDS = (10.0, 20.0, 25.0, 30.0)


class TestAgainstLoopReference:
    def test_omni_and_delay(self, campaign):
        for row, loc in enumerate(campaign):
            if not detectable(loc):
                continue
            delays, powers = loop_omni(loc)
            omni = omni_pdp(one_location(campaign, row))
            assert (list(omni.delays_ns), list(omni.powers_mw)) == (delays, powers)
            for t in THRESHOLDS:
                stats = delay_stats(omni, t)
                assert (stats.rmsds_ns, stats.mds_ns, stats.n_taps) == loop_omni_delay(delays, powers, t)
                for pdp in detectable(loc):
                    stats = delay_stats(pdp, t)
                    assert (stats.rmsds_ns, stats.mds_ns, stats.n_taps) == loop_sweep_delay(pdp, t)

    def test_angular(self, campaign):
        # each location's spectrum read out of the whole campaign's table
        table = TapTable(campaign.columns)
        for row, loc in enumerate(campaign):
            if not detectable(loc):
                continue
            for side in Side:
                for t in THRESHOLDS:
                    bins, powers = loop_pas(loc, side, t)
                    pas = power_angular_spectrum(table, row, side, t)
                    assert (list(pas.bins_deg), list(pas.powers_mw)) == (bins, powers)
                    stats = angular_stats(pas, t)
                    assert stats.n_lobes == loop_lobe_count(powers, t)
                    assert stats.rmsas_deg == pytest.approx(loop_rms_spread(bins, powers), rel=REL, abs=1e-12)

    def test_losses_classes_and_xpd(self, campaign):
        for row, loc in enumerate(campaign):
            table = one_location(campaign, row)
            assert by_direction(table, sweep_losses(table)) == loop_losses(loc)
            if detectable(loc):
                classes = {d: DIRECTION_CLASSES[c] for d, c in by_direction(table, sweep_classes(table)).items()}
                assert classes == loop_classes(loc)
        for row_vv, row_vh in campaign.pairs():
            vv, vh = campaign[row_vv], campaign[row_vh]
            pl_vv, pl_vh = loop_losses(vv), loop_losses(vh)
            classes = loop_classes(vv) if pl_vv else {}
            expected = [
                (d, pl_vh[d] - pl_vv[d], classes[d] is DirectionClass.B) for d in sorted(set(pl_vv) & set(pl_vh))
            ]
            xpds = xpd_columns(one_location(campaign, row_vv), one_location(campaign, row_vh), [(0, 0)])
            got = list(zip(zip(xpds.tx_az_deg.tolist(), xpds.rx_az_deg.tolist()), xpds.xpd_db.tolist(), xpds.boresight.tolist()))
            assert got == expected

    @pytest.mark.parametrize("ceiling", [None, 152.0, 118.0])
    def test_omni_losses_and_exclusions(self, campaign, ceiling):
        # the silent location sits between signal locations, so table order matters
        rows = [len(campaign) - 1, *range(len(campaign) - 1)]
        rows[1], rows[0] = rows[0], rows[1]
        table = TapTable(campaign.columns, rows)
        totals = omni_bins(table).total_mw.tolist()
        kept, losses, excluded = [], [], []
        for index, total in enumerate(totals):
            err = table.no_signal(index)
            if err is None:
                pl_db = table.tx_power_dbm[index] - linear_to_db(total)
                if ceiling is not None and pl_db > ceiling:
                    err = NoSignalError(
                        f"{table.name(index)}: path loss {pl_db:.1f} dB exceeds the {ceiling:g} dB measurable limit"
                    )
            if err is None:
                kept.append(index)
                losses.append(pl_db)
            else:
                excluded.append((index, str(err)))
        samples, errors = omni_losses(table, ceiling)
        assert (samples.loc.tolist(), samples.pl_db.tobytes()) == (kept, np.array(losses).tobytes())
        assert [(index, str(err)) for index, err in errors] == excluded
        assert (1, f"{table.name(1)}: no sweep clears the noise floor") in excluded
