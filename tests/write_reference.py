"""The per-record write path that the columnar writers replaced.

Kept as a byte reference: the package's ``render_campaign``,
``write_campaign``, ``ingest --format json`` and ``synth --truth-out``
must produce the bytes these do, and its ``draw_drops`` the drops.  ``reference_sample_drop``
draws a drop record by record, with ``rng.choice`` placing the lobes, into the
``Tap``/``Lobe``/``Drop`` records the package held its drops in before they were columns;
``reference_render_campaign`` draws each drop with it, builds a validated
``DirectionalPdp`` per lobe and a ``LocationMeasurement`` per location and
sorts the records; ``reference_write_campaign`` writes each sweep file
from per-location f-strings and the manifest with ``json.dump``;
``reference_ingest_json`` and ``reference_ingest_text`` build one dict per
location, for ``json.dumps`` and for the text lines, and
``reference_truth_json`` one dict per drop.
None of them checks what it writes.
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from subthz_chan.campaign_io import _SWEEP_HEADER, Campaign
from subthz_chan.measurement import (
    D0_M,
    AntennaConfig,
    DirectionalPdp,
    LocationMeasurement,
    Polarization,
    linear_to_db,
)
from subthz_chan.pathloss import fspl
from subthz_chan.synthesis import (
    _FLOOR_MARGIN_DB,
    _LOBE_STEP_DB,
    _REFLECTION_EXCESS_MEAN_NS,
    _SPEED_OF_LIGHT_M_NS,
    LayoutEntry,
    _lobe_tap_profile,
)
from subthz_chan.xpd import PathClass


@dataclasses.dataclass(frozen=True)
class Tap:
    """One tap of a lobe."""

    delay_ns: float
    power_mw: float
    xpd_db: float
    path_class: PathClass


@dataclasses.dataclass(frozen=True)
class Lobe:
    """A spatial lobe: one azimuth bin holding a short tap cluster."""

    center_deg: float
    taps: tuple[Tap, ...]

    @property
    def power_mw(self) -> float:
        return sum(t.power_mw for t in self.taps)


@dataclasses.dataclass(frozen=True)
class Drop:
    """One drop with its lobes."""

    distance_m: float
    pl_db: float
    los: bool
    seed: int
    lobes: tuple[Lobe, ...]

    @property
    def effective_omni_xpd_db(self) -> float:
        """Co- to cross-polar power of the whole drop, in dB: per-lobe sums, then per drop."""
        co = sum(lobe.power_mw for lobe in self.lobes)
        cross = sum(t.power_mw * 10.0 ** (-t.xpd_db / 10.0) for lobe in self.lobes for t in lobe.taps)
        return 10.0 * math.log10(co / cross)


def _reference_lobe_centers(rng: np.random.Generator, nbins: int, count: int, fix_first: bool) -> list[int]:
    chosen: list[int] = []
    allowed = set(range(nbins))

    def take(idx: int) -> None:
        chosen.append(idx)
        allowed.difference_update({(idx - 1) % nbins, idx, (idx + 1) % nbins})

    if fix_first:
        take(0)
    while len(chosen) < count:
        pool = sorted(allowed)
        take(int(rng.choice(pool)))
    return chosen


def reference_sample_drop(params, distance_m: float, seed: int, los: bool = True) -> Drop:
    """The drop ``draw_drops`` draws from ``seed``, drawn and built record by record."""
    rng = np.random.default_rng(seed)
    res = params.delay_resolution_ns

    ple = params.ple if los else params.nlos_ple
    shadow = rng.normal(0.0, params.shadow_sigma_db)
    pl_db = fspl(params.carrier_hz, D0_M) + 10.0 * ple * math.log10(distance_m / D0_M) + shadow

    law = params.lobe_count_law
    n_lobes = law.min_count + int(rng.poisson(law.mean_count - law.min_count))
    n_lobes = min(n_lobes, law.max_count)

    centers = _reference_lobe_centers(rng, params.n_az_bins, n_lobes, fix_first=los)
    direct_delay = res * round(distance_m / _SPEED_OF_LIGHT_M_NS / res)

    raw = []
    total_rel = 0.0
    for k, idx in enumerate(centers):
        on_boresight = los and k == 0
        if on_boresight:
            lobe_delay = direct_delay
        else:
            excess = rng.exponential(_REFLECTION_EXCESS_MEAN_NS)
            lobe_delay = direct_delay + res * max(1, round(excess / res))
        target = rng.lognormal(params.rmsds_law.log_mean, params.rmsds_law.log_std)
        lobe_rel = 10.0 ** (-_LOBE_STEP_DB * k / 10.0)
        taps = []
        for j, (offset, rel) in enumerate(_lobe_tap_profile(target, res)):
            tap_class = PathClass.BORESIGHT if on_boresight and j == 0 else PathClass.REFLECTION
            xpd_law = params.xpd_boresight if tap_class is PathClass.BORESIGHT else params.xpd_reflection
            xpd = float(rng.normal(xpd_law.mean_db, xpd_law.std_db))
            weight = lobe_rel * rel
            taps.append((lobe_delay + offset, weight, xpd, tap_class))
            total_rel += weight
        raw.append((idx * params.az_step_deg, taps))

    scale = 10.0 ** (-pl_db / 10.0) / total_rel
    lobes = tuple(
        Lobe(
            center_deg=center,
            taps=tuple(Tap(delay_ns=d, power_mw=w * scale, xpd_db=x, path_class=c) for d, w, x, c in taps),
        )
        for center, taps in raw
    )
    return Drop(distance_m=distance_m, pl_db=pl_db, los=los, seed=seed, lobes=lobes)


def reference_write_campaign(campaign: Campaign, out_dir) -> Path:
    c = campaign.columns
    names = [f"sweeps/{tx_id}_{rx_id}_{pol.value}.csv" for tx_id, rx_id, pol in c.keys]
    out = Path(out_dir)
    (out / "sweeps").mkdir(parents=True, exist_ok=True)
    _write_sweep_files(c, out, names)
    tx_pos, rx_pos, los, antenna = (column.tolist() for column in (c.tx_pos_m, c.rx_pos_m, c.los, c.tx_antenna))
    entries = [
        {
            "tx_id": c.keys[row][0],
            "rx_id": c.keys[row][1],
            "tx_pos_m": tx_pos[row],
            "rx_pos_m": rx_pos[row],
            "polarization": c.keys[row][2].value,
            "los": los[row],
            "antenna": dict(zip(("gain_dbi", "hpbw_deg", "az_step_deg"), antenna[row])),
            "sweeps": name,
        }
        for row, name in enumerate(names)
    ]
    manifest = {
        "campaign_id": campaign.campaign_id,
        "carrier_hz": campaign.carrier_hz,
        "tx_power_dbm": campaign.tx_power_dbm,
        "delay_resolution_ns": campaign.delay_resolution_ns,
        "locations": entries,
    }
    manifest_path = out / "manifest.json"
    with manifest_path.open("w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path


def _write_sweep_files(c, out: Path, names: list[str]) -> None:
    sweeps, taps = c.sweep_bounds.tolist(), c.tap_bounds.tolist()
    tx_az, rx_az, floor = (column.tolist() for column in (c.tx_az_deg, c.rx_az_deg, c.noise_floor_db))
    for row, name in enumerate(names):
        lines = [f"# noise_floor_db={floor[sweeps[row]]!r}", _SWEEP_HEADER]
        for s in range(sweeps[row], sweeps[row + 1]):
            bins = zip(c.delay_ns[taps[s] : taps[s + 1]].tolist(), c.power_db[taps[s] : taps[s + 1]].tolist())
            lines += [f"{tx_az[s]!r},{rx_az[s]!r},{delay!r},{power!r}" for delay, power in bins]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _ingest_rows(campaign: Campaign) -> list[dict]:
    c = campaign.columns
    n_detectable = np.bincount(c.sweep_loc[c.detectable], minlength=len(c))
    columns = (c.distance_m, c.los, np.diff(c.sweep_bounds), n_detectable)
    return [
        {
            "tx_id": tx_id,
            "rx_id": rx_id,
            "polarization": pol.value,
            "distance_m": round(distance_m, 4),
            "los": los,
            "n_sweeps": n_sweeps,
            "n_detectable": detectable,
        }
        for (tx_id, rx_id, pol), distance_m, los, n_sweeps, detectable in zip(
            c.keys, *(column.tolist() for column in columns)
        )
    ]


def reference_ingest_json(campaign: Campaign) -> str:
    """The ``ingest --format json`` document, without the LF ``print`` adds."""
    rows = _ingest_rows(campaign)
    doc = {
        "campaign_id": campaign.campaign_id,
        "carrier_hz": campaign.carrier_hz,
        "tx_power_dbm": campaign.tx_power_dbm,
        "locations": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def reference_ingest_text(campaign: Campaign) -> str:
    """The ``ingest --format text`` output."""
    rows = _ingest_rows(campaign)
    n_vv = sum(1 for r in rows if r["polarization"] == "VV")
    lines = [
        f"campaign {campaign.campaign_id}: {len(rows)} locations "
        f"({n_vv} VV, {len(rows) - n_vv} VH), carrier {campaign.carrier_hz / 1e9:g} GHz"
    ]
    for r in rows:
        lines.append(
            f"  {r['tx_id']}-{r['rx_id']} {r['polarization']} d={r['distance_m']:.2f} m "
            f"{'LOS' if r['los'] else 'NLOS'} sweeps={r['n_sweeps']} detectable={r['n_detectable']}"
        )
    return "\n".join(lines) + "\n"


def reference_render_campaign(
    params,
    n_locations,
    seed,
    out_dir,
    layout=None,
    tx_power_dbm=0.0,
    campaign_id="synthetic-factory-142ghz",
):
    """(locations, drops, manifest path) of the record-building render."""
    if layout is not None:
        layout = tuple(layout)
    else:
        layout = tuple(LayoutEntry(f"TX{i + 1:04d}", f"RX{i + 1:04d}") for i in range(n_locations))

    master = np.random.default_rng(seed)
    lo, hi = params.distance_range_m
    drawn = master.uniform(lo, hi, len(layout))
    drop_seeds = master.integers(0, 2**63 - 1, len(layout))

    step = params.az_step_deg
    tx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=3.0)
    rx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=1.5)
    height_gap = tx_antenna.height_m - rx_antenna.height_m

    drops = []
    locations = []
    for i, entry in enumerate(layout):
        d = entry.distance_m if entry.distance_m is not None else float(drawn[i])
        drop = reference_sample_drop(params, d, int(drop_seeds[i]), los=entry.los)
        drops.append(drop)

        y = 10.0 * i
        rx_pos = (0.0, y, rx_antenna.height_m)
        tx_pos = (math.sqrt(d * d - height_gap * height_gap), y, tx_antenna.height_m)

        tap_rows = []  # (tx_az, rx_az, delay, vv_db, vh_db)
        for lobe in drop.lobes:
            rx_az = lobe.center_deg
            tx_az = (180.0 - rx_az) % 360.0
            for tap in lobe.taps:
                vv_db = linear_to_db(tap.power_mw) + tx_antenna.gain_dbi + rx_antenna.gain_dbi
                tap_rows.append((tx_az, rx_az, tap.delay_ns, vv_db, vv_db - tap.xpd_db))

        for pol, col in ((Polarization.VV, 3), (Polarization.VH, 4)):
            floor = min(row[col] for row in tap_rows) - _FLOOR_MARGIN_DB
            sweeps = []
            for lobe in drop.lobes:
                rows = [row for row in tap_rows if row[1] == lobe.center_deg]
                sweeps.append(
                    DirectionalPdp(
                        tx_az_deg=rows[0][0],
                        rx_az_deg=rows[0][1],
                        delays_ns=tuple(row[2] for row in rows),
                        powers_db=tuple(row[col] for row in rows),
                        noise_floor_db=floor,
                    )
                )
            locations.append(
                LocationMeasurement(
                    tx_id=entry.tx_id,
                    rx_id=entry.rx_id,
                    tx_pos_m=tx_pos,
                    rx_pos_m=rx_pos,
                    polarization=pol,
                    los=entry.los,
                    sweeps=tuple(sweeps),
                    tx_antenna=tx_antenna,
                    rx_antenna=rx_antenna,
                    tx_power_dbm=tx_power_dbm,
                )
            )

    locations.sort(key=lambda loc: (loc.tx_id, loc.rx_id, loc.polarization.value))
    campaign = Campaign(
        campaign_id=campaign_id,
        carrier_hz=params.carrier_hz,
        tx_power_dbm=tx_power_dbm,
        locations=tuple(locations),
        delay_resolution_ns=params.delay_resolution_ns,
    )
    return tuple(locations), tuple(drops), reference_write_campaign(campaign, Path(out_dir))


def reference_truth_json(drops) -> str:
    """The ``synth --truth-out`` document, without its final LF: one dict per drop, for ``json.dumps``."""
    truth = [{**dataclasses.asdict(d), "effective_omni_xpd_db": d.effective_omni_xpd_db} for d in drops]
    return json.dumps(truth, indent=2, sort_keys=True)


def drop_tuple(drop: Drop) -> tuple:
    """A drop record as nested tuples of Python scalars:
    (distance, path loss, LOS, seed, ((centre, ((delay, power, XPD, class), ...)), ...))."""

    def tap_tuple(t: Tap) -> tuple:
        return float(t.delay_ns), float(t.power_mw), float(t.xpd_db), t.path_class

    lobes = tuple((float(lobe.center_deg), tuple(map(tap_tuple, lobe.taps))) for lobe in drop.lobes)
    return float(drop.distance_m), float(drop.pl_db), drop.los, drop.seed, lobes


def column_drop_tuples(truth) -> list[tuple]:
    """Each drop of a ``DropColumns`` as the nested tuples ``drop_tuple`` makes of a record."""
    classes = [PathClass.BORESIGHT if flag else PathClass.REFLECTION for flag in truth.boresight.tolist()]
    taps = list(zip(truth.delay_ns.tolist(), truth.power_mw.tolist(), truth.xpd_db.tolist(), classes))
    tap_bounds, lobe_bounds = truth.tap_bounds.tolist(), truth.lobe_bounds.tolist()
    lobes = [(c, tuple(taps[a:b])) for c, a, b in zip(truth.center_deg.tolist(), tap_bounds, tap_bounds[1:])]
    per_drop = zip(truth.distance_m.tolist(), truth.pl_db.tolist(), truth.los.tolist(), truth.seed.tolist())
    return [(*drop, tuple(lobes[a:b])) for drop, a, b in zip(per_drop, lobe_bounds, lobe_bounds[1:])]
