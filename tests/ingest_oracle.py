"""The line-by-line sweep reader that the batched ``ingest_campaign`` replaced.

Kept as a test-only oracle: for any input, ``ingest_campaign`` must return
an equal campaign or raise the same exception type with the same message
as ``oracle_ingest_campaign``.  It reads one file at a time, checks each
row as it parses it, groups a file's rows into pointings with a dict and
builds each location before reading the next file.  It shares the leaf
helpers (key, position and text readers) with the package, so it rejects
undecodable bytes and non-finite positions as the package does, and it
rejects a non-finite noise floor at its comment line.  It reads every
manifest number as a float, so an integer too large for one is infinite and
rejected as such by the checks it shares with the package.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from subthz_chan.campaign_io import (
    _NOISE_FLOOR_RE,
    _SWEEP_HEADER,
    SWEEP_COLUMNS,
    Campaign,
    CampaignFormatError,
    _position,
    _read_text,
    _require,
)
from subthz_chan.measurement import (
    DEFAULT_DELAY_RESOLUTION_NS,
    DELAY_GRID_TOL_NS,
    AntennaConfig,
    DirectionalPdp,
    LocationMeasurement,
    Polarization,
    ValidationError,
)


def _read_sweep_file(path: Path, text: str, delay_resolution_ns: float) -> tuple[DirectionalPdp, ...]:
    noise_floor = None
    header_seen = False
    rows: list[tuple[float, float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _NOISE_FLOOR_RE.match(line)
            if match:
                if noise_floor is not None:
                    raise CampaignFormatError(path, lineno, "duplicate noise_floor_db line")
                try:
                    noise_floor = float(match.group(1))
                except ValueError:
                    raise CampaignFormatError(path, lineno, "noise_floor_db is not a number")
                if not math.isfinite(noise_floor):
                    raise CampaignFormatError(path, lineno, "noise_floor_db must be finite")
            continue
        if not header_seen:
            if line != _SWEEP_HEADER:
                raise CampaignFormatError(path, lineno, f"expected header '{_SWEEP_HEADER}'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise CampaignFormatError(path, lineno, f"expected {len(SWEEP_COLUMNS)} columns")
        try:
            tx_az, rx_az, delay, power = (float(v) for v in parts)
        except ValueError:
            raise CampaignFormatError(path, lineno, "non-numeric value")
        if not 0.0 <= tx_az < 360.0:
            raise ValidationError("tx_az_deg", f"{tx_az} outside [0, 360) ({path}:{lineno})")
        if not 0.0 <= rx_az < 360.0:
            raise ValidationError("rx_az_deg", f"{rx_az} outside [0, 360) ({path}:{lineno})")
        if not math.isfinite(delay) or delay < 0:
            raise ValidationError("delay_ns", f"delay {delay} must be >= 0 ({path}:{lineno})")
        if not math.isfinite(power):
            raise ValidationError("power_db", f"power must be finite ({path}:{lineno})")
        rows.append((tx_az, rx_az, delay, power))
    if not header_seen:
        raise CampaignFormatError(path, None, f"missing header '{_SWEEP_HEADER}'")
    if noise_floor is None:
        raise CampaignFormatError(path, None, "missing '# noise_floor_db=<v>' line")
    if not rows:
        raise CampaignFormatError(path, None, "sweep file has no data rows")

    grouped: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for tx_az, rx_az, delay, power in rows:
        grouped.setdefault((tx_az, rx_az), []).append((delay, power))

    pdps = []
    for (tx_az, rx_az), bins in grouped.items():
        bins.sort(key=lambda b: b[0])
        delays = [b[0] for b in bins]
        for a, b in zip(delays, delays[1:]):
            if b == a:
                raise ValidationError(
                    "delay_ns", f"duplicate delay {a} ns for pointing ({tx_az}, {rx_az}) in {path}"
                )
            steps = (b - a) / delay_resolution_ns
            if abs(steps - round(steps)) * delay_resolution_ns > DELAY_GRID_TOL_NS:
                raise ValidationError(
                    "delay_ns",
                    f"delays for pointing ({tx_az}, {rx_az}) not on the "
                    f"{delay_resolution_ns:g} ns lattice in {path}",
                )
        pdps.append(
            DirectionalPdp(
                tx_az_deg=tx_az,
                rx_az_deg=rx_az,
                delays_ns=tuple(delays),
                powers_db=tuple(b[1] for b in bins),
                noise_floor_db=noise_floor,
            )
        )
    return tuple(pdps)


def oracle_ingest_campaign(manifest_path) -> Campaign:
    """Parse and validate a campaign manifest plus every referenced sweep file.

    Raises CampaignFormatError for malformed files, ValidationError for
    invariant violations, and OSError when a referenced file is missing.
    """
    path = Path(manifest_path)
    digests: dict[str, str] = {}
    text = _read_text(path, digests, path.name)
    try:
        doc = json.loads(text, parse_int=float)  # every number a float, as the package reads them
    except json.JSONDecodeError as err:
        raise CampaignFormatError(path, err.lineno, f"invalid JSON: {err.msg}")
    if not isinstance(doc, dict):
        raise CampaignFormatError(path, None, "manifest root must be an object")

    campaign_id = _require(doc, "campaign_id", str, path)
    carrier_hz = _require(doc, "carrier_hz", float, path)
    tx_power_dbm = _require(doc, "tx_power_dbm", float, path)
    delay_resolution_ns = DEFAULT_DELAY_RESOLUTION_NS
    if "delay_resolution_ns" in doc:
        delay_resolution_ns = _require(doc, "delay_resolution_ns", float, path)
    if not 0.0 < delay_resolution_ns < math.inf:
        raise CampaignFormatError(path, None, f"delay_resolution_ns: must be > 0 and finite, got {delay_resolution_ns}")
    raw_locations = _require(doc, "locations", list, path)
    if not raw_locations:
        raise CampaignFormatError(path, None, "locations: manifest lists no locations")

    locations = []
    for index, entry in enumerate(raw_locations):
        ctx = f"locations[{index}]."
        if not isinstance(entry, dict):
            raise CampaignFormatError(path, None, f"locations[{index}] must be an object")
        pol_raw = _require(entry, "polarization", str, path, ctx)
        try:
            polarization = Polarization(pol_raw)
        except ValueError:
            raise CampaignFormatError(path, None, f"{ctx}polarization: unknown polarization '{pol_raw}'")
        antenna = _require(entry, "antenna", dict, path, ctx)
        gain = _require(antenna, "gain_dbi", float, path, ctx + "antenna.")
        hpbw = _require(antenna, "hpbw_deg", float, path, ctx + "antenna.")
        step = _require(antenna, "az_step_deg", float, path, ctx + "antenna.")
        sweeps_rel = _require(entry, "sweeps", str, path, ctx)
        sweep_path = path.parent / sweeps_rel
        if sweep_path.is_dir():
            raise CampaignFormatError(path, None, f"key '{ctx}sweeps' must name a file")
        pdps = _read_sweep_file(sweep_path, _read_text(sweep_path, digests, sweeps_rel), delay_resolution_ns)
        fields = dict(
            tx_id=_require(entry, "tx_id", str, path, ctx),
            rx_id=_require(entry, "rx_id", str, path, ctx),
            tx_pos_m=_position(entry, "tx_pos_m", path, ctx),
            rx_pos_m=_position(entry, "rx_pos_m", path, ctx),
            polarization=polarization,
            los=_require(entry, "los", bool, path, ctx),
        )
        try:
            antennas = AntennaConfig(gain, hpbw, step, height_m=3.0), AntennaConfig(gain, hpbw, step, height_m=1.5)
        except ValidationError as err:
            raise CampaignFormatError(path, None, f"{ctx}antenna.{err}")
        try:
            locations.append(
                LocationMeasurement(
                    **fields, sweeps=pdps, tx_antenna=antennas[0], rx_antenna=antennas[1], tx_power_dbm=tx_power_dbm
                )
            )
        except ValidationError as err:
            raise CampaignFormatError(path, None, f"{ctx}{err}")
    try:
        return Campaign(campaign_id, carrier_hz, tx_power_dbm, tuple(locations), delay_resolution_ns, digests)
    except ValidationError as err:
        raise CampaignFormatError(path, None, str(err))
