"""The tap table and its kernels against one-location tables and per-object loop references."""
from __future__ import annotations

import importlib
import inspect
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import by_direction, make_location, make_pdp, omni_pdp, table_of

from subthz_chan import (
    Analysis,
    Campaign,
    DirectionClass,
    LocationColumns,
    NoSignalError,
    Polarization,
    SampleKind,
    Side,
    SynthesisParams,
    TapTable,
    ValidationError,
    XpdColumns,
    angular_spreads,
    bearings_deg,
    campaign_angular_summary,
    circular_distance_deg,
    db_to_linear,
    delay_spreads,
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


def peak_db(pdp):
    return max(pdp.powers_db)


def detectable(loc):
    """The sweeps of a location whose peak clears the noise floor (strictly)."""
    return [pdp for pdp in loc.sweeps if peak_db(pdp) > pdp.noise_floor_db]


def detected_bins(pdp):
    """(delay_ns, power_db) of the bins of a sweep at or above its noise floor."""
    return [(t, p) for t, p in zip(pdp.delays_ns, pdp.powers_db) if p >= pdp.noise_floor_db]


def one_location(campaign, row):
    """The tap table of one campaign row."""
    return TapTable(campaign.columns, [row])


def placement_rows(campaign):
    """(V-V row, V-H row) of each placement measured in both polarizations, by a loop over the V-V rows."""
    for row_vv in campaign.rows(Polarization.VV).tolist():
        row_vh = campaign.find((*campaign.columns.keys[row_vv][:2], Polarization.VH))
        if row_vh is not None:
            yield row_vv, row_vh


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
            for delay, power in detected_bins(pdp)
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


def loop_derived(columns):
    """(``gain_free_mw``, ``received_dbm``) of ``LocationColumns``, by a scalar loop over their records:
    ``db_to_linear`` of each tap's power less both gains, and ``linear_to_db`` of each sweep's running
    sum over its taps at or above the floor (NaN when it has none)."""
    gain_free_mw, received_dbm = [], []
    for loc in columns.build(range(len(columns))):
        gain_sum_dbi = loc.tx_antenna.gain_dbi + loc.rx_antenna.gain_dbi
        for pdp in loc.sweeps:
            gain_free_mw += [db_to_linear(p - gain_sum_dbi) for p in pdp.powers_db]
            total, heard = 0.0, False
            for _, p in detected_bins(pdp):
                total, heard = total + db_to_linear(p), True
            received_dbm.append(linear_to_db(total) if heard else math.nan)
    return np.array(gain_free_mw), np.array(received_dbm)


@pytest.mark.parametrize("which", ["render", "no signal", "one location"])
def test_derived_columns_are_the_scalar_maps_bit_for_bit(campaign, which):
    # fresh columns, so each derived column is computed here, under warnings raised as errors
    locations = {"render": campaign.locations, "no signal": campaign.locations[-1:], "one location": campaign.locations[:1]}
    columns = LocationColumns.of(locations[which])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gain_free_mw, received_dbm = columns.gain_free_mw, columns.received_dbm
    expected_gain_free_mw, expected_received_dbm = loop_derived(columns)
    assert gain_free_mw.tobytes() == expected_gain_free_mw.tobytes()
    assert received_dbm.tobytes() == expected_received_dbm.tobytes()
    assert np.isnan(received_dbm).all() == (which == "no signal")
    # a table takes its rows of both
    table = TapTable(columns)
    assert table.received_dbm.tobytes() == received_dbm[columns.detectable].tobytes()
    assert table.gain_free_mw.tobytes() == np.array(
        [db_to_linear(p - table.gain_sum_dbi[loc]) for p, loc in zip(table.power_db.tolist(), table.tap_loc.tolist())]
    ).tobytes()


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
            spreads = delay_spreads(table, threshold_db)
            omni_rms.append(float(spreads.omni_rmsds[0]))
            omni_mds.append(float(spreads.omni_mds[0]))
            dir_rms.extend(spreads.dir_rmsds.tolist())
            dir_mds.extend(spreads.dir_mds.tolist())
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
            stats = angular_spreads(table, threshold_db)
            lobes[Side.AOA].append(float(stats.n_aoa_lobes[0]))
            lobes[Side.AOD].append(float(stats.n_aod_lobes[0]))
            spreads[Side.AOA].append(float(stats.aoa_rmsas[0]))
            spreads[Side.AOD].append(float(stats.aod_rmsas[0]))
        summary = analysis.angular[threshold_db]
        assert summary.n_aoa_lobes == summarize(lobes[Side.AOA])
        assert summary.n_aod_lobes == summarize(lobes[Side.AOD])
        assert_row_close(summary.aoa_rmsas, spreads[Side.AOA])
        assert_row_close(summary.aod_rmsas, spreads[Side.AOD])

    def test_xpd_section(self, campaign, analysis):
        pairs = [xpd_columns(one_location(campaign, vv), one_location(campaign, vh)) for vv, vh in placement_rows(campaign)]
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


#: record types no analysis callable may take: a location, a sweep, or a one-PDP / one-spectrum record
RECORD_ANNOTATION = re.compile(r"\b(LocationMeasurement|DirectionalPdp|OmniPdp|Pdp|PowerAngularSpectrum)\b")


@pytest.mark.parametrize("module", ["delay", "pathloss", "xpd", "angular", "pipeline", "cli"])
def test_no_analysis_callable_takes_a_location_record(module):
    """Every statistic starts from a ``TapTable``: no public function or method takes a record of one location, sweep, PDP or spectrum."""
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
            assert not RECORD_ANNOTATION.search(str(parameter.annotation)), f"{module}.{name}({parameter.name})"


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
        assert err == "error: rx_az_deg: azimuth 3.0 of TX2-RXTX2 (VV) is off the uniform 8 deg sweep grid\n"

    def test_stats_angular_names_the_moved_first_sweep(self, tmp_path, capsys):
        # the first row of the first V-V sweep file moved 3 deg off the grid its location's other sweeps share
        manifest = render_campaign(SynthesisParams(), 3, 1, tmp_path / "render").manifest_path
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        first_vv = next(entry for entry in doc["locations"] if entry["polarization"] == "VV")
        sweeps = manifest.parent / first_vv["sweeps"]
        floor, header, first, *rows = sweeps.read_text(encoding="ascii").splitlines()
        tx_az, rx_az, *tap = first.split(",")
        sweeps.write_text("\n".join([floor, header, ",".join([tx_az, repr(float(rx_az) + 3.0), *tap]), *rows, ""]))
        assert main(["stats", "angular", "--manifest", str(manifest)]) == EXIT_VALIDATION
        name = "{tx_id}-{rx_id} ({polarization})".format(**first_vv)
        assert capsys.readouterr().err == f"error: rx_az_deg: azimuth {float(rx_az) + 3.0} of {name} is off the uniform 8 deg sweep grid\n"

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
        assert power_angular_spectrum(table_of(off_aod), 0, Side.AOA, 30.0)[1][0] > 0
        with pytest.raises(ValidationError, match="off the uniform"):
            power_angular_spectrum(table_of(off_aod), 0, Side.AOD, 30.0)


class TestKeptWorkIgnoresCallOrder:
    """The threshold-free work each table keeps (angular grids, delay peaks) gives every threshold
    the spreads a fresh table gives it, whichever threshold asked first."""

    @pytest.mark.parametrize("spreads", [angular_spreads, delay_spreads])
    def test_thresholds_in_either_order_match_a_fresh_table(self, campaign, spreads):
        vv = campaign.rows(Polarization.VV)
        down, up = TapTable(campaign.columns, vv), TapTable(campaign.columns, vv)
        got_down = {t: spreads(down, t) for t in (30.0, 20.0)}
        got_up = {t: spreads(up, t) for t in (20.0, 30.0)}
        for t in (20.0, 30.0):
            fresh = spreads(TapTable(campaign.columns, vv), t)
            for a, b, c in zip(fresh, got_down[t], got_up[t]):
                assert np.array_equal(a, b, equal_nan=True) and np.array_equal(a, c, equal_nan=True)

    @pytest.mark.parametrize("side, field", [(Side.AOD, "tx_az_deg"), (Side.AOA, "rx_az_deg")])
    def test_off_grid_error_is_unchanged_on_a_kept_grid(self, side, field):
        def off_grid(side, tx_id):  # the second sweep sits 5 deg off the 8 deg grid of ``side``
            key = "tx_az" if side is Side.AOD else "rx_az"
            return make_location([make_pdp([0.0], [-60.0]), make_pdp([0.0], [-70.0], **{key: 5.0})], tx_id=tx_id)

        def raised(call) -> tuple[str, str]:
            with pytest.raises(ValidationError) as err:
                call()
            return err.value.field, str(err.value)

        other = Side.AOA if side is Side.AOD else Side.AOD
        on_grid = make_location([make_pdp([0.0], [-60.0], rx_az=8.0)], tx_id="TX0")
        locations = (on_grid, off_grid(side, "TX1"), off_grid(other, "TX2"))
        fresh = raised(lambda: angular_spreads(table_of(*locations), 30.0))
        assert fresh[0] == field
        fresh_own = raised(lambda: power_angular_spectrum(table_of(*locations), 1, side, 30.0))
        table = table_of(*locations)
        # location 0's spectra build and keep the grids of the whole table
        for either in Side:
            assert power_angular_spectrum(table, 0, either, 30.0)[1].max() > 0
        for t in (30.0, 20.0, 30.0):
            assert raised(lambda: angular_spreads(table, t)) == fresh
        # a location's own spectrum still checks its own sweeps on its own side only
        assert power_angular_spectrum(table, 1, other, 20.0)[1].max() > 0
        assert raised(lambda: power_angular_spectrum(table, 1, side, 30.0)) == fresh_own


# Per-object loops the kernels replaced, kept as the reference they must
# reproduce: bit for bit where the arithmetic is unchanged, and within REL
# where only the summation order moved (the angular moments).


def loop_omni(loc):
    acc = {}
    gain_sum_dbi = loc.tx_antenna.gain_dbi + loc.rx_antenna.gain_dbi
    for pdp in detectable(loc):
        for delay, power in detected_bins(pdp):
            acc[delay] = acc.get(delay, 0.0) + db_to_linear(power - gain_sum_dbi)
    delays = sorted(acc)
    return delays, [acc[t] for t in delays]


def loop_spreads(taps):
    total = sum(p for _, p in taps)
    t0 = taps[0][0]
    m1 = sum(p * (t - t0) for t, p in taps) / total
    m2 = sum(p * (t - t0) ** 2 for t, p in taps) / total
    return math.sqrt(max(m2 - m1 * m1, 0.0)), taps[-1][0] - t0


def loop_omni_delay(delays, powers, threshold_db):
    cut = max(powers) * db_to_linear(-threshold_db)
    return loop_spreads([(t, p) for t, p in zip(delays, powers) if p >= cut])


def loop_sweep_delay(pdp, threshold_db):
    cut = peak_db(pdp) - threshold_db
    return loop_spreads([(t, db_to_linear(p)) for t, p in detected_bins(pdp) if p >= cut])


def loop_pas(loc, side, threshold_db):
    sweeps = detectable(loc)
    antenna = loc.tx_antenna if side is Side.AOD else loc.rx_antenna
    step, nbins = antenna.az_step_deg, antenna.n_az_bins
    azimuth = (lambda s: s.tx_az_deg) if side is Side.AOD else (lambda s: s.rx_az_deg)
    phase = azimuth(sweeps[0]) % step
    cut = max(map(peak_db, sweeps)) - threshold_db
    powers = [0.0] * nbins
    for pdp in sweeps:
        index = round((azimuth(pdp) - phase) / step) % nbins
        for _, power in detected_bins(pdp):
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
    return sum(db_to_linear(p) for _, p in detected_bins(pdp))


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
            table = one_location(campaign, row)
            omni = omni_pdp(table)
            assert (list(omni.delays_ns), list(omni.powers_mw)) == (delays, powers)
            for t in THRESHOLDS:
                spreads = delay_spreads(table, t)
                assert (spreads.omni_rmsds[0], spreads.omni_mds[0]) == loop_omni_delay(delays, powers, t)
                got = list(zip(spreads.dir_rmsds.tolist(), spreads.dir_mds.tolist()))
                assert got == [loop_sweep_delay(pdp, t) for pdp in detectable(loc)]

    def test_angular(self, campaign):
        # each location's spectrum read out of the whole campaign's table
        table = TapTable(campaign.columns)
        stats = {t: angular_spreads(table, t) for t in THRESHOLDS}
        columns = {Side.AOA: ("n_aoa_lobes", "aoa_rmsas"), Side.AOD: ("n_aod_lobes", "aod_rmsas")}
        for row, loc in enumerate(campaign):
            if not detectable(loc):
                assert np.isnan([column[row] for t in THRESHOLDS for column in stats[t]]).all()
                continue
            for side in Side:
                for t in THRESHOLDS:
                    bins, powers = loop_pas(loc, side, t)
                    got_bins, got_powers = power_angular_spectrum(table, row, side, t)
                    assert (got_bins.tolist(), got_powers.tolist()) == (bins, powers)
                    n_lobes, rmsas = (getattr(stats[t], name) for name in columns[side])
                    assert n_lobes[row] == loop_lobe_count(powers, t)
                    assert rmsas[row] == pytest.approx(loop_rms_spread(bins, powers), rel=REL, abs=1e-12)

    def test_losses_classes_and_xpd(self, campaign):
        for row, loc in enumerate(campaign):
            table = one_location(campaign, row)
            assert by_direction(table, sweep_losses(table)) == loop_losses(loc)
            if detectable(loc):
                classes = {d: DIRECTION_CLASSES[c] for d, c in by_direction(table, sweep_classes(table)).items()}
                assert classes == loop_classes(loc)
        for row_vv, row_vh in placement_rows(campaign):
            vv, vh = campaign[row_vv], campaign[row_vh]
            pl_vv, pl_vh = loop_losses(vv), loop_losses(vh)
            classes = loop_classes(vv) if pl_vv else {}
            expected = [
                (d, pl_vh[d] - pl_vv[d], classes[d] is DirectionClass.B) for d in sorted(set(pl_vv) & set(pl_vh))
            ]
            xpds = xpd_columns(one_location(campaign, row_vv), one_location(campaign, row_vh))
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
