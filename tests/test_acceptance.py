"""Release gate: one test per acceptance criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
for every criterion.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import (
    aoa_lobe_count,
    make_location,
    make_pdp,
    max_delay_spread,
    rms_angular_spread,
    rms_delay_spread,
    spectrum_table,
    table_of,
)

from subthz_chan import (
    Analysis,
    PathClass,
    PathLossColumns,
    Polarization,
    SampleKind,
    Side,
    SynthesisParams,
    TapTable,
    angular_spreads,
    campaign_angular_summary,
    campaign_delay_summary,
    delay_spreads,
    factory_campaign_layout,
    fit_ci,
    fit_cix,
    fspl,
    ingest_campaign,
    render_campaign,
    run_pipeline,
    summarize,
)
from subthz_chan.summary import SummaryRow

F0 = 142e9
ANCHOR = fspl(F0)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _omni_samples(distance_m, pl_db) -> PathLossColumns:
    return PathLossColumns(np.arange(len(distance_m)), np.asarray(distance_m, dtype=float), np.asarray(pl_db, dtype=float))


def _five_number_oracle(values: list[float]) -> SummaryRow:
    n = len(values)
    ordered = sorted(values)

    def nearest(fraction: float) -> float:
        return ordered[max(1, math.ceil(fraction * n)) - 1]

    return SummaryRow(
        n=n,
        min=ordered[0],
        max=ordered[-1],
        mean=sum(values) / n,
        median=nearest(0.5),
        p90=nearest(0.9),
    )


def _ring_components(marked: list[bool]) -> int:
    """Connected components of marked bins on the ring, via union-find."""
    n = len(marked)
    parent = {i: i for i in range(n) if marked[i]}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in parent:
        j = (i + 1) % n
        if j in parent:
            parent[find(i)] = find(j)
    return len({find(i) for i in parent})


def test_criterion_01_free_space_anchor():
    value = fspl(F0, 1.0)
    _report(1, f"1 m free-space anchor at 142 GHz = {value:.4f} dB (want 75.49 +/- 0.01)",
            abs(value - 75.49) <= 0.01)


def test_criterion_02_noiseless_fit_is_exact():
    distances = np.geomspace(5.0, 50.0, 10)
    fit = fit_ci(_omni_samples(distances, [ANCHOR + 20.0 * math.log10(d) for d in distances]), F0)
    ok = abs(fit.ple - 2.0) <= 1e-9 and abs(fit.sigma_db) <= 1e-9
    _report(2, f"noiseless exponent-2 samples recover ple={fit.ple:.12f}, sigma={fit.sigma_db:.2e}", ok)


def test_criterion_03_shadowed_fit_recovery():
    rng = np.random.default_rng(1234)
    distances = np.array([e.distance_m for e in factory_campaign_layout()])
    model = ANCHOR + 18.6 * np.log10(distances)
    ples, sigmas = [], []
    start = time.monotonic()
    for _ in range(1000):
        noisy = model + rng.normal(0.0, 1.5, distances.size)
        fit = fit_ci(_omni_samples(distances, noisy), F0)
        ples.append(fit.ple)
        sigmas.append(fit.sigma_db)
    elapsed = time.monotonic() - start
    mean_ple = float(np.mean(ples))
    mean_sigma = float(np.mean(sigmas))
    ok = (
        abs(mean_ple - 1.86) <= 0.02
        and abs(mean_sigma - 1.5) <= 0.15
        and elapsed < 5.0
    )
    _report(
        3,
        f"1000 shadowed 13-point campaigns: mean ple={mean_ple:.4f} (want 1.86 +/- 0.02), "
        f"mean sigma={mean_sigma:.4f} (want 1.5 +/- 0.15), {elapsed:.2f} s (< 5 s)",
        ok,
    )


def test_criterion_04_cross_polar_recovery():
    rng = np.random.default_rng(4321)
    distances = np.geomspace(6.3, 39.6, 10)
    vv_model = ANCHOR + 18.6 * np.log10(distances)
    ci_vv = fit_ci(_omni_samples(distances, vv_model), F0)
    xpds, tighter = [], 0
    for _ in range(1000):
        vh = vv_model + rng.normal(27.7, 2.6, distances.size)
        vh_samples = _omni_samples(distances, vh)
        cix = fit_cix(vh_samples, ci_vv, F0)
        ci_vh = fit_ci(vh_samples, F0)
        xpds.append(cix.xpd_db)
        tighter += cix.sigma_db < ci_vh.sigma_db
    mean_xpd = float(np.mean(xpds))
    fraction = tighter / 1000.0
    ok = abs(mean_xpd - 27.7) <= 0.1 and fraction >= 0.95
    _report(
        4,
        f"1000 cross-polar trials: mean xpd={mean_xpd:.4f} (want 27.7 +/- 0.1), "
        f"anchored fit tighter in {fraction:.1%} (want >= 95%)",
        ok,
    )


def test_criterion_05_delay_spread_properties():
    single = make_pdp([50.0], [-70.0])
    two = make_pdp([100.0, 110.0], [-60.0, -60.0])
    ok = (
        rms_delay_spread(single, 30.0) == 0.0
        and max_delay_spread(single, 30.0) == 0.0
        and rms_delay_spread(two, 30.0) == 5.0
    )

    rng = np.random.default_rng(99)
    grid = np.arange(0.0, 1000.0, 2.0)
    worst_shift = worst_scale = 0.0
    monotone = True
    for _ in range(1000):
        n_taps = int(rng.integers(1, 20))
        delays = np.sort(rng.choice(grid, size=n_taps, replace=False))
        powers = rng.uniform(-35.0, 0.0, n_taps)
        pdp = make_pdp(delays, powers)
        monotone &= max_delay_spread(pdp, 20.0) <= max_delay_spread(pdp, 30.0)
        shifted = make_pdp(delays + 1000.0, powers)
        scaled = make_pdp(delays, powers + 13.7)
        for t in (25.0,):
            worst_shift = max(
                worst_shift,
                abs(rms_delay_spread(pdp, t) - rms_delay_spread(shifted, t)),
                abs(max_delay_spread(pdp, t) - max_delay_spread(shifted, t)),
            )
            worst_scale = max(
                worst_scale,
                abs(rms_delay_spread(pdp, t) - rms_delay_spread(scaled, t)),
                abs(max_delay_spread(pdp, t) - max_delay_spread(scaled, t)),
            )
    ok = ok and monotone and worst_shift <= 1e-9 and worst_scale <= 1e-9
    _report(
        5,
        "delay spreads: single tap 0, equal pair at 10 ns gives 5 exactly, window "
        f"monotone on 1000 profiles, shift dev {worst_shift:.1e}, scale dev {worst_scale:.1e}",
        ok,
    )


def test_criterion_06_angular_spread_properties():
    lone = spectrum_table([0.0] * 10 + [2.5] + [0.0] * 34)
    pair = spectrum_table([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # bins 0 and 90
    flat = spectrum_table([1.0] * 45)
    lone_ok = rms_angular_spread(lone) == 0.0
    pair_value = rms_angular_spread(pair)
    flat_value = rms_angular_spread(flat)

    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        powers = 10.0 ** rng.uniform(-5.0, 0.0, 45)
        phase = float(rng.uniform(0.0, 8.0))
        pas = spectrum_table(powers, phase)
        rho = float(rng.uniform(0.0, 360.0))
        worst = max(worst, abs(rms_angular_spread(spectrum_table(powers, phase, rho)) - rms_angular_spread(pas)))

    ok = (
        lone_ok
        and abs(pair_value - 45.0) <= 1e-6
        and abs(flat_value - 103.92) <= 0.05
        and worst <= 1e-6
    )
    _report(
        6,
        f"angular spread: one bin 0, equal 0/90 pair {pair_value:.6f} (want 45), "
        f"flat ring {flat_value:.4f} (want 103.92 +/- 0.05), worst rotation dev {worst:.1e}",
        ok,
    )


def test_criterion_07_lobe_extraction():
    counts_ok = True
    for k in range(1, 11):
        segment = 45 // k
        powers = np.zeros(45)
        for j in range(k):
            run = 1 + (j % max(segment - 1, 1))
            powers[j * segment : j * segment + run] = 1.0
        pas = spectrum_table(powers)
        counts_ok &= aoa_lobe_count(pas, 30.0) == k
        wrapped = spectrum_table(np.roll(powers, -1))
        counts_ok &= aoa_lobe_count(wrapped, 30.0) == k

    rng = np.random.default_rng(707)
    oracle_ok = True
    for _ in range(1000):
        powers = np.where(
            rng.random(45) < 0.4, 10.0 ** rng.uniform(-5.0, 0.0, 45), 0.0
        )
        if not powers.any():
            powers[int(rng.integers(0, 45))] = 1.0
        pas = spectrum_table(powers)
        threshold = float(rng.choice([20.0, 30.0]))
        cut = max(powers) * 10.0 ** (-threshold / 10.0)
        marked = [bool(p > 0 and p >= cut) for p in powers]
        oracle_ok &= aoa_lobe_count(pas, threshold) == _ring_components(marked)

    ok = counts_ok and oracle_ok
    _report(
        7,
        "lobe extraction: planted 1..10 runs recovered (wraps included), "
        "matches ring-component oracle on 1000 random spectra",
        ok,
    )


def test_criterion_08_closed_loop_recovery(tmp_path):
    start = time.monotonic()
    rendered = render_campaign(SynthesisParams(), 500, 42, tmp_path)
    analysis = Analysis(ingest_campaign(rendered.manifest_path), thresholds_db=(30.0,), carrier_hz=F0,
                        max_measurable_pl_db=152.0)
    ci_vv = analysis.fit(Polarization.VV, SampleKind.OMNI)
    cix = analysis.cross_polar(SampleKind.OMNI)
    mean_lobes = analysis.angular[30.0].n_aoa_lobes.mean
    boresight = analysis.xpd[PathClass.BORESIGHT]
    elapsed = time.monotonic() - start

    truth_xpd = float(np.mean(rendered.truth.omni_xpd_db))
    ok = (
        abs(ci_vv.ple - 1.86) <= 0.1
        and abs(cix.xpd_db - truth_xpd) <= 1.0
        and abs(mean_lobes - 3.5) <= 0.3
        and abs(boresight.mean_db - 26.2) <= 0.3
        and elapsed < 30.0
    )
    _report(
        8,
        f"closed loop over 500 drops: ple={ci_vv.ple:.4f} (want 1.86 +/- 0.1), "
        f"xpd={cix.xpd_db:.4f} vs truth {truth_xpd:.4f} (+/- 1), "
        f"mean lobes={mean_lobes:.3f} (want 3.5 +/- 0.3), "
        f"boresight xpd={boresight.mean_db:.4f} (want 26.2 +/- 0.3), {elapsed:.2f} s (< 30 s)",
        ok,
    )


def test_criterion_09_pipeline_determinism(tmp_path):
    layout = factory_campaign_layout()
    bundles = []
    for sub in ("one", "two"):
        root = tmp_path / sub
        rendered = render_campaign(SynthesisParams(), None, 7, root / "campaign", layout=layout)
        run_pipeline(rendered.manifest_path, root / "report")
        files = {}
        for path in sorted((root / "campaign").rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root / "campaign"))] = path.read_bytes()
        for path in sorted((root / "report").iterdir()):
            files[path.name] = path.read_bytes()
        bundles.append(files)
    ok = bundles[0] == bundles[1]
    _report(
        9,
        f"same-seed render + pipeline twice: {len(bundles[0])} files byte-identical",
        ok,
    )


def test_criterion_10_summary_oracle():
    rng = np.random.default_rng(2024)
    grid = np.arange(0.0, 400.0, 2.0)

    def random_location(i: int):
        n_sweeps = int(rng.integers(1, 7))
        pairs = set()
        while len(pairs) < n_sweeps:
            pairs.add((8.0 * int(rng.integers(0, 45)), 8.0 * int(rng.integers(0, 45))))
        sweeps = []
        for tx_az, rx_az in sorted(pairs):
            n_taps = int(rng.integers(1, 8))
            delays = np.sort(rng.choice(grid, size=n_taps, replace=False))
            powers = rng.uniform(-50.0, -20.0, n_taps)
            sweeps.append(make_pdp(delays, powers, tx_az=tx_az, rx_az=rx_az, floor=-300.0))
        return make_location(
            sweeps,
            distance=float(rng.uniform(3.0, 45.0)),
            los=bool(rng.integers(0, 2)),
            tx_id=f"TX{i:03d}",
            rx_id=f"RX{i:03d}",
        )

    ok = True
    for _ in range(100):
        locs = [random_location(i) for i in range(int(rng.integers(3, 9)))]
        table = table_of(*locs)
        for t in (20.0, 30.0):
            got = campaign_delay_summary(table, t)
            omni_r, omni_m, dir_r, dir_m = [], [], [], []
            lobes = {Side.AOA: [], Side.AOD: []}
            spreads = {Side.AOA: [], Side.AOD: []}
            # each location's statistics from its own one-location table
            for index in range(len(locs)):
                one = TapTable(table.columns, [index])
                delay = delay_spreads(one, t)
                omni_r.append(float(delay.omni_rmsds[0]))
                omni_m.append(float(delay.omni_mds[0]))
                dir_r.extend(delay.dir_rmsds.tolist())
                dir_m.extend(delay.dir_mds.tolist())
                angular = angular_spreads(one, t)
                lobes[Side.AOA].append(float(angular.n_aoa_lobes[0]))
                lobes[Side.AOD].append(float(angular.n_aod_lobes[0]))
                spreads[Side.AOA].append(float(angular.aoa_rmsas[0]))
                spreads[Side.AOD].append(float(angular.aod_rmsas[0]))
            ok &= got.omni_rmsds == _five_number_oracle(omni_r)
            ok &= got.omni_mds == _five_number_oracle(omni_m)
            ok &= got.dir_rmsds == _five_number_oracle(dir_r)
            ok &= got.dir_mds == _five_number_oracle(dir_m)

            got_ang = campaign_angular_summary(table, t)
            ok &= got_ang.n_aoa_lobes == _five_number_oracle(lobes[Side.AOA])
            ok &= got_ang.n_aod_lobes == _five_number_oracle(lobes[Side.AOD])
            ok &= got_ang.aoa_rmsas == _five_number_oracle(spreads[Side.AOA])
            ok &= got_ang.aod_rmsas == _five_number_oracle(spreads[Side.AOD])
    _report(
        10,
        "campaign five-number summaries equal the sort-based oracle exactly "
        "on 100 random campaigns at both thresholds",
        ok,
    )
