"""The per-record write path that the columnar writers replaced.

Kept as a byte reference: the package's ``render_campaign``,
``write_campaign`` and ``ingest --format json`` must produce the bytes
these do.  ``reference_render_campaign`` builds a validated
``DirectionalPdp`` per lobe and a ``LocationMeasurement`` per location and
sorts the records; ``reference_write_campaign`` writes each sweep file
from per-location f-strings and the manifest with ``json.dump``;
``reference_ingest_json`` and ``reference_ingest_text`` build one dict per
location, for ``json.dumps`` and for the text lines.
None of them checks what it writes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from subthz_chan.campaign_io import _SWEEP_HEADER, Campaign
from subthz_chan.measurement import (
    AntennaConfig,
    DirectionalPdp,
    LocationMeasurement,
    Polarization,
    linear_to_db,
)
from subthz_chan.synthesis import _FLOOR_MARGIN_DB, LayoutEntry, sample_drop


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
        drop = sample_drop(params, d, int(drop_seeds[i]), los=entry.los)
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
