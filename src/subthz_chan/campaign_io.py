"""Reading and writing the on-disk campaign format.

A campaign is a JSON manifest plus one CSV sweep file per location::

    {
      "campaign_id": "...", "carrier_hz": 142e9, "tx_power_dbm": 0.0,
      "delay_resolution_ns": 2.0,
      "locations": [
        {"tx_id": "TX1", "rx_id": "RX1",
         "tx_pos_m": [x, y, z], "rx_pos_m": [x, y, z],
         "polarization": "VV", "los": true,
         "antenna": {"gain_dbi": 27.0, "hpbw_deg": 8.0, "az_step_deg": 8.0},
         "sweeps": "sweeps/TX1_RX1_VV.csv"},
        ...
      ]
    }

Sweep files carry one row per delay bin per pointing pair under the
header ``tx_az_deg,rx_az_deg,delay_ns,power_db`` and state the per-file
noise floor once in a ``# noise_floor_db=<v>`` comment line.  Files are
UTF-8 with LF line endings.  Recorded delays must sit on the sounder's
uniform delay lattice, whose spacing ``delay_resolution_ns`` is optional
in the manifest (2 ns when absent); bins below the noise floor may simply
be omitted.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .measurement import (
    DEFAULT_DELAY_RESOLUTION_NS,
    DELAY_GRID_TOL_NS,
    AntennaConfig,
    DirectionalPdp,
    LocationMeasurement,
    Polarization,
    ValidationError,
)

SWEEP_COLUMNS = ("tx_az_deg", "rx_az_deg", "delay_ns", "power_db")
_SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
_NOISE_FLOOR_RE = re.compile(r"#\s*noise_floor_db\s*=\s*(\S+)\s*$")


class CampaignFormatError(ValueError):
    """Malformed manifest or sweep file; records the file and line."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


@dataclass(frozen=True)
class Campaign:
    """An ingested campaign.  Iterates over its location measurements."""

    campaign_id: str
    carrier_hz: float
    tx_power_dbm: float
    locations: tuple[LocationMeasurement, ...]
    #: spacing of the delay lattice every sweep's delays sit on
    delay_resolution_ns: float = DEFAULT_DELAY_RESOLUTION_NS
    #: SHA-256 of each file ``ingest_campaign`` parsed, keyed by the manifest's
    #: own name and each sweep path as the manifest spells it (empty when the
    #: campaign was built in memory)
    input_sha256: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        if self.carrier_hz <= 0:
            raise ValidationError("carrier_hz", "must be > 0")

    def __iter__(self) -> Iterator[LocationMeasurement]:
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)

    def __getitem__(self, index):
        return self.locations[index]

    def by_polarization(self, pol: Polarization) -> tuple[LocationMeasurement, ...]:
        pol = Polarization(pol)
        return tuple(l for l in self.locations if l.polarization is pol)

    def paired_locations(self) -> tuple[tuple[LocationMeasurement, LocationMeasurement], ...]:
        """(V-V, V-H) pairs sharing (tx_id, rx_id), ordered by id."""
        vv = {(l.tx_id, l.rx_id): l for l in self.by_polarization(Polarization.VV)}
        vh = {(l.tx_id, l.rx_id): l for l in self.by_polarization(Polarization.VH)}
        keys = sorted(set(vv) & set(vh))
        return tuple((vv[k], vh[k]) for k in keys)


def _require(doc: dict, key: str, kind: type, path, ctx: str = ""):
    if key not in doc:
        raise CampaignFormatError(path, None, f"missing key '{ctx}{key}'")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CampaignFormatError(path, None, f"key '{ctx}{key}' must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise CampaignFormatError(path, None, f"key '{ctx}{key}' must be {kind.__name__}")
    return value


def _position(doc: dict, key: str, path, ctx: str) -> tuple[float, float, float]:
    raw = _require(doc, key, list, path, ctx)
    if len(raw) != 3 or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw):
        raise CampaignFormatError(path, None, f"key '{ctx}{key}' must be a 3-vector of numbers")
    return (float(raw[0]), float(raw[1]), float(raw[2]))


def _read_text(path: Path, digests: dict[str, str], key: str) -> str:
    """The UTF-8 text of ``path``; records the SHA-256 of the bytes read under ``key``."""
    data = path.read_bytes()
    digests.setdefault(key, hashlib.sha256(data).hexdigest())
    # universal newlines, as read_text gives them: JSON error line numbers count a lone CR
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


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


def ingest_campaign(manifest_path) -> Campaign:
    """Parse and validate a campaign manifest plus every referenced sweep file.

    Raises CampaignFormatError for malformed files, ValidationError for
    invariant violations, and OSError when a referenced file is missing.
    """
    path = Path(manifest_path)
    digests: dict[str, str] = {}
    text = _read_text(path, digests, path.name)
    try:
        doc = json.loads(text)
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
        raise ValidationError("delay_resolution_ns", f"must be > 0 and finite, got {delay_resolution_ns}")
    raw_locations = _require(doc, "locations", list, path)
    if not raw_locations:
        raise ValidationError("locations", "manifest lists no locations")

    locations = []
    for index, entry in enumerate(raw_locations):
        ctx = f"locations[{index}]."
        if not isinstance(entry, dict):
            raise CampaignFormatError(path, None, f"locations[{index}] must be an object")
        pol_raw = _require(entry, "polarization", str, path, ctx)
        try:
            polarization = Polarization(pol_raw)
        except ValueError:
            raise ValidationError(
                "polarization", f"unknown polarization '{pol_raw}' at locations[{index}]"
            )
        antenna = _require(entry, "antenna", dict, path, ctx)
        gain = _require(antenna, "gain_dbi", float, path, ctx + "antenna.")
        hpbw = _require(antenna, "hpbw_deg", float, path, ctx + "antenna.")
        step = _require(antenna, "az_step_deg", float, path, ctx + "antenna.")
        sweeps_rel = _require(entry, "sweeps", str, path, ctx)
        sweep_path = path.parent / sweeps_rel
        pdps = _read_sweep_file(sweep_path, _read_text(sweep_path, digests, sweeps_rel), delay_resolution_ns)
        locations.append(
            LocationMeasurement(
                tx_id=_require(entry, "tx_id", str, path, ctx),
                rx_id=_require(entry, "rx_id", str, path, ctx),
                tx_pos_m=_position(entry, "tx_pos_m", path, ctx),
                rx_pos_m=_position(entry, "rx_pos_m", path, ctx),
                polarization=polarization,
                los=_require(entry, "los", bool, path, ctx),
                sweeps=pdps,
                tx_antenna=AntennaConfig(gain, hpbw, step, height_m=3.0),
                rx_antenna=AntennaConfig(gain, hpbw, step, height_m=1.5),
                tx_power_dbm=tx_power_dbm,
            )
        )
    return Campaign(campaign_id, carrier_hz, tx_power_dbm, tuple(locations), delay_resolution_ns, digests)


def _format_float(value: float) -> str:
    # repr round-trips exactly through float(), which keeps write->ingest lossless
    return repr(float(value))


def _write_sweep_file(path: Path, sweeps: Iterable[DirectionalPdp]) -> None:
    sweeps = tuple(sweeps)
    floors = {s.noise_floor_db for s in sweeps}
    if len(floors) != 1:
        raise ValidationError(
            "noise_floor_db", "sweep file format stores one noise floor per location"
        )
    lines = [f"# noise_floor_db={_format_float(floors.pop())}", _SWEEP_HEADER]
    for pdp in sweeps:
        for delay, power in zip(pdp.delays_ns, pdp.powers_db):
            lines.append(
                ",".join(
                    (
                        _format_float(pdp.tx_az_deg),
                        _format_float(pdp.rx_az_deg),
                        _format_float(delay),
                        _format_float(power),
                    )
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_campaign(campaign: Campaign, out_dir) -> Path:
    """Write a campaign back to disk; returns the manifest path.

    ``ingest_campaign(write_campaign(c))`` reproduces ``c`` field for field
    (antenna heights come from the per-side defaults, not the manifest).
    """
    out = Path(out_dir)
    (out / "sweeps").mkdir(parents=True, exist_ok=True)
    entries = []
    used_names: set[str] = set()
    for loc in campaign.locations:
        if (
            loc.tx_antenna.gain_dbi != loc.rx_antenna.gain_dbi
            or loc.tx_antenna.hpbw_deg != loc.rx_antenna.hpbw_deg
            or loc.tx_antenna.az_step_deg != loc.rx_antenna.az_step_deg
        ):
            raise ValidationError(
                "antenna", "manifest format stores one antenna config per location"
            )
        if loc.tx_power_dbm != campaign.tx_power_dbm:
            raise ValidationError(
                "tx_power_dbm", "manifest format stores one TX power per campaign"
            )
        base = f"{loc.tx_id}_{loc.rx_id}_{loc.polarization.value}"
        name, suffix = base, 2
        while name in used_names:
            name = f"{base}_{suffix}"
            suffix += 1
        used_names.add(name)
        rel = f"sweeps/{name}.csv"
        _write_sweep_file(out / rel, loc.sweeps)
        entries.append(
            {
                "tx_id": loc.tx_id,
                "rx_id": loc.rx_id,
                "tx_pos_m": list(loc.tx_pos_m),
                "rx_pos_m": list(loc.rx_pos_m),
                "polarization": loc.polarization.value,
                "los": loc.los,
                "antenna": {
                    "gain_dbi": loc.tx_antenna.gain_dbi,
                    "hpbw_deg": loc.tx_antenna.hpbw_deg,
                    "az_step_deg": loc.tx_antenna.az_step_deg,
                },
                "sweeps": rel,
            }
        )
    manifest = {
        "campaign_id": campaign.campaign_id,
        "carrier_hz": campaign.carrier_hz,
        "tx_power_dbm": campaign.tx_power_dbm,
        "delay_resolution_ns": campaign.delay_resolution_ns,
        "locations": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    return manifest_path
