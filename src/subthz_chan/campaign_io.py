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

import bisect
import hashlib
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

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
_N_COLUMNS = len(SWEEP_COLUMNS)
_NOISE_FLOOR_RE = re.compile(r"#\s*noise_floor_db\s*=\s*(\S+)\s*$")

logger = logging.getLogger(__name__)


class CampaignFormatError(ValueError):
    """Malformed manifest or sweep file; records the file and line."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


@dataclass(frozen=True)
class Campaign:
    """An ingested campaign: one location per ``key``.  Iterates over its location measurements."""

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
        first_of: dict = {}
        for index, loc in enumerate(self.locations):
            first = first_of.setdefault(loc.key, index)
            if first != index:
                where = f"{loc.tx_id}-{loc.rx_id} ({loc.polarization.value}) of locations[{first}]"
                raise ValidationError(f"locations[{index}]", f"repeats location {where}")

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
        vv, vh = ({loc.key[:2]: loc for loc in self.by_polarization(p)} for p in (Polarization.VV, Polarization.VH))
        return tuple((vv[ids], vh[ids]) for ids in sorted(vv.keys() & vh.keys()))


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
    pos = (float(raw[0]), float(raw[1]), float(raw[2]))
    if not all(map(math.isfinite, pos)):
        raise CampaignFormatError(path, None, f"key '{ctx}{key}' must be a 3-vector of finite numbers")
    return pos


def _read_text(path: Path, digests: dict[str, str], key: str) -> str:
    """The UTF-8 text of ``path``; records the SHA-256 of the bytes read under ``key``.

    Undecodable bytes raise CampaignFormatError at the line holding the
    first of them, counting lines as the newline-translated text does.
    """
    data = path.read_bytes()
    digests.setdefault(key, hashlib.sha256(data).hexdigest())
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = _universal_newlines(data[: err.start].decode("utf-8"))
        raise CampaignFormatError(path, before.count("\n") + 1, "not valid UTF-8") from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    # as read_text gives them: JSON error line numbers count a lone CR
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _SweepRows:
    """The data rows of a campaign's sweep files as campaign-wide columns.

    ``read`` scans one file at a time and appends its rows; the value
    checks (``first_bad_row``) and the grouping into pointings with its
    delay checks (``_Pointings``) then run once over every row read.  Row
    ``r`` holds ``values[4r:4r+4]`` in ``SWEEP_COLUMNS`` order and came
    from line ``lines[r]`` of file ``i``, the first with ``ends[i] > r``.
    """

    def __init__(self):
        self.values = array("d")
        self.lines: list[int] = []
        self.paths: list[Path] = []
        self.floors: list[float | None] = []
        self.ends: list[int] = []
        #: files read to the end without a structural fault; only these are grouped
        self.complete = 0

    def read(self, path: Path, text: str) -> None:
        """Append the data rows of one sweep file.

        A structural fault (or a non-numeric value) is raised after the rows
        above its line are appended, so a bad value on one of them, which a
        line-by-line reader meets first, can still be found.
        """
        noise_floor = None
        header_seen = False
        fault = None
        tokens: list[str] = []
        lines: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                match = _NOISE_FLOOR_RE.match(line)
                if match:
                    if noise_floor is not None:
                        fault = CampaignFormatError(path, lineno, "duplicate noise_floor_db line")
                        break
                    try:
                        noise_floor = float(match.group(1))
                    except ValueError:
                        fault = CampaignFormatError(path, lineno, "noise_floor_db is not a number")
                        break
                    if not math.isfinite(noise_floor):
                        fault = CampaignFormatError(path, lineno, "noise_floor_db must be finite")
                        break
                continue
            if not header_seen:
                if line != _SWEEP_HEADER:
                    fault = CampaignFormatError(path, lineno, f"expected header '{_SWEEP_HEADER}'")
                    break
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != _N_COLUMNS:
                fault = CampaignFormatError(path, lineno, f"expected {_N_COLUMNS} columns")
                break
            tokens += parts
            lines.append(lineno)
        try:
            values = list(map(float, tokens))
        except ValueError:
            bad_row = next(i for i, token in enumerate(tokens) if not _is_number(token)) // _N_COLUMNS
            fault = CampaignFormatError(path, lines[bad_row], "non-numeric value")
            values = list(map(float, tokens[: bad_row * _N_COLUMNS]))
            del lines[bad_row:]
        self.values.extend(values)
        self.lines += lines
        self.paths.append(path)
        self.floors.append(noise_floor)
        self.ends.append(len(self.lines))
        if fault is None:
            if not header_seen:
                fault = CampaignFormatError(path, None, f"missing header '{_SWEEP_HEADER}'")
            elif noise_floor is None:
                fault = CampaignFormatError(path, None, "missing '# noise_floor_db=<v>' line")
            elif not lines:
                fault = CampaignFormatError(path, None, "sweep file has no data rows")
        if fault is not None:
            raise fault
        self.complete += 1

    def columns(self) -> tuple[np.ndarray, ...]:
        """(tx_az, rx_az, delay, power) of every row read."""
        return tuple(np.frombuffer(self.values, dtype=float).reshape(-1, _N_COLUMNS).T)

    def first_bad_row(self) -> tuple[int, ValidationError] | None:
        """(file index, error) of the first row with a bad value, checked column by column."""
        tx, rx, delay, power = self.columns()
        bad = ~((tx >= 0.0) & (tx < 360.0) & (rx >= 0.0) & (rx < 360.0))
        bad |= ~(np.isfinite(delay) & (delay >= 0.0)) | ~np.isfinite(power)
        if not bad.any():
            return None
        row = int(np.argmax(bad))
        file = bisect.bisect_right(self.ends, row)
        tx_az, rx_az, delay, power = self.values[row * _N_COLUMNS : (row + 1) * _N_COLUMNS]
        where = f"({self.paths[file]}:{self.lines[row]})"
        if not 0.0 <= tx_az < 360.0:
            return file, ValidationError("tx_az_deg", f"{tx_az} outside [0, 360) {where}")
        if not 0.0 <= rx_az < 360.0:
            return file, ValidationError("rx_az_deg", f"{rx_az} outside [0, 360) {where}")
        if not math.isfinite(delay) or delay < 0:
            return file, ValidationError("delay_ns", f"delay {delay} must be >= 0 {where}")
        return file, ValidationError("power_db", f"power must be finite {where}")


class _Pointings:
    """The rows of a campaign's first ``n_files`` sweep files, grouped by pointing.

    Within a file, pointings keep the order in which they first appear and
    take their azimuths from that first row, as a dict keyed by
    ``(tx_az, rx_az)`` would; each pointing's rows are stably sorted by
    delay.  Every pointing is in ``starts``/``stops``, ``tx_az``/``rx_az``
    and ``file`` in reading order.
    """

    def __init__(self, rows: _SweepRows, n_files: int):
        self.rows = rows
        n_rows = rows.ends[n_files - 1]
        tx, rx, delay, power = (column[:n_rows] for column in rows.columns())
        file = np.repeat(np.arange(n_files), np.diff(rows.ends[:n_files], prepend=0))
        order = np.lexsort((delay, rx, tx, file))
        file_s, tx_s, rx_s = file[order], tx[order], rx[order]
        self.delay = delay[order]
        self.power = power[order]
        #: pair k joins sorted rows k and k + 1 of one pointing
        self.joined = (file_s[1:] == file_s[:-1]) & (tx_s[1:] == tx_s[:-1]) & (rx_s[1:] == rx_s[:-1])
        new = np.concatenate(([True], ~self.joined))
        starts = np.flatnonzero(new)
        first_row = np.minimum.reduceat(order, starts)
        appearance = np.argsort(first_row)
        rank_of_group = np.empty_like(appearance)
        rank_of_group[appearance] = np.arange(len(appearance))
        #: reading-order rank of the pointing each sorted row belongs to
        self.rank = rank_of_group[np.cumsum(new) - 1]
        self.starts = starts[appearance]
        self.stops = np.append(starts[1:], n_rows)[appearance]
        self.tx_az = tx[first_row[appearance]]
        self.rx_az = rx[first_row[appearance]]
        self.file = file[first_row[appearance]]

    def first_fault(self, res: float) -> tuple[int, ValidationError] | None:
        """(file index, error) of the first duplicate delay or step off the ``res`` ns lattice.

        Steps are checked pointing by pointing in reading order, and in
        delay order within a pointing.
        """
        lo, hi = self.delay[:-1], self.delay[1:]
        duplicate = hi == lo
        # a step can overflow only on a lattice finer than the tolerance, which holds every step
        with np.errstate(over="ignore", invalid="ignore"):
            steps = (hi - lo) / res
            off_lattice = np.abs(steps - np.round(steps)) * res > DELAY_GRID_TOL_NS
        bad = np.flatnonzero(self.joined & (duplicate | off_lattice))
        if not len(bad):
            return None
        pair = int(bad[np.argmin(self.rank[bad])])
        pointing = int(self.rank[pair])
        file = int(self.file[pointing])
        tx_az, rx_az = float(self.tx_az[pointing]), float(self.rx_az[pointing])
        path = self.rows.paths[file]
        if duplicate[pair]:
            message = f"duplicate delay {float(lo[pair])} ns for pointing ({tx_az}, {rx_az}) in {path}"
        else:
            message = f"delays for pointing ({tx_az}, {rx_az}) not on the {res:g} ns lattice in {path}"
        return file, ValidationError("delay_ns", message)

    def sweeps(self, n_files: int) -> list[tuple[DirectionalPdp, ...]]:
        """The pointings of each of the first ``n_files`` files as PDPs, each
        built once from slices of the sorted columns."""
        bounds = np.searchsorted(self.file, np.arange(n_files + 1)).tolist()
        n = bounds[-1]
        delays, powers, floors = self.delay.tolist(), self.power.tolist(), self.rows.floors
        pdps = [
            DirectionalPdp(tx_az, rx_az, tuple(delays[a:b]), tuple(powers[a:b]), floors[file])
            for tx_az, rx_az, a, b, file in zip(
                self.tx_az[:n].tolist(), self.rx_az[:n].tolist(), self.starts[:n].tolist(),
                self.stops[:n].tolist(), self.file[:n].tolist(),
            )
        ]
        return [tuple(pdps[a:b]) for a, b in zip(bounds, bounds[1:])]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _read_location(
    entry, index: int, path: Path, rows: _SweepRows, digests: dict[str, str], antennas: dict, tx_power_dbm: float
) -> dict:
    """The fields of one manifest entry, after reading its sweep file into ``rows``.

    Checks run in the order of the line-by-line reader: the entry keys
    the file path depends on, the file, the remaining keys, the antenna.
    """
    ctx = f"locations[{index}]."
    if not isinstance(entry, dict):
        raise CampaignFormatError(path, None, f"locations[{index}] must be an object")
    pol_raw = _require(entry, "polarization", str, path, ctx)
    try:
        polarization = Polarization(pol_raw)
    except ValueError:
        raise CampaignFormatError(path, None, f"{ctx}polarization: unknown polarization '{pol_raw}'") from None
    antenna = _require(entry, "antenna", dict, path, ctx)
    gain = _require(antenna, "gain_dbi", float, path, ctx + "antenna.")
    hpbw = _require(antenna, "hpbw_deg", float, path, ctx + "antenna.")
    step = _require(antenna, "az_step_deg", float, path, ctx + "antenna.")
    sweeps_rel = _require(entry, "sweeps", str, path, ctx)
    if not sweeps_rel:
        raise CampaignFormatError(path, None, f"key '{ctx}sweeps' must name a file")
    sweep_path = path.parent / sweeps_rel
    rows.read(sweep_path, _read_text(sweep_path, digests, sweeps_rel))
    fields = dict(
        tx_id=_require(entry, "tx_id", str, path, ctx),
        rx_id=_require(entry, "rx_id", str, path, ctx),
        tx_pos_m=_position(entry, "tx_pos_m", path, ctx),
        rx_pos_m=_position(entry, "rx_pos_m", path, ctx),
        polarization=polarization,
        los=_require(entry, "los", bool, path, ctx),
    )
    key = (gain, hpbw, step)
    if key not in antennas:
        try:
            antennas[key] = (AntennaConfig(*key, height_m=3.0), AntennaConfig(*key, height_m=1.5))
        except ValidationError as err:
            raise CampaignFormatError(path, None, f"{ctx}antenna.{err}") from None
    fields["tx_antenna"], fields["rx_antenna"] = antennas[key]
    fields["tx_power_dbm"] = tx_power_dbm
    return fields


def ingest_campaign(manifest_path) -> Campaign:
    """Parse and validate a campaign manifest plus every referenced sweep file.

    Raises CampaignFormatError for malformed files (a manifest entry that
    breaks an invariant included, named by its index), ValidationError for
    other invariant violations, and OSError when a referenced file is missing.
    The first fault is reported, in the order a line-by-line reader meets
    them: location by location, and within a sweep file line by line; a
    repeated location key, which needs every entry, comes last.
    """
    started = perf_counter()
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
        raise CampaignFormatError(path, None, "locations: manifest lists no locations")

    rows = _SweepRows()
    antennas: dict = {}  # one tx/rx AntennaConfig pair per distinct (gain, hpbw, step)
    entries: list[dict] = []
    fault: Exception | None = None
    for index, entry in enumerate(raw_locations):
        try:
            entries.append(_read_location(entry, index, path, rows, digests, antennas, tx_power_dbm))
        except (ValueError, OSError) as err:
            fault = err  # raised below, unless a check still pending on earlier rows fails first
            break

    # a file's pointings are formed only when all of its rows passed, as the
    # line-by-line reader grouped a file only after reading it through
    bad_row = rows.first_bad_row()
    n_grouped = rows.complete if bad_row is None else min(rows.complete, bad_row[0])
    pointings = _Pointings(rows, n_grouped) if n_grouped else None
    late = (pointings.first_fault(delay_resolution_ns) if pointings else None) or bad_row
    n_built = len(entries)
    if late is not None:
        n_built, fault = late
    # a location's own errors come before any fault in a later location
    sweeps = pointings.sweeps(n_built) if n_built else []
    locations: list[LocationMeasurement] = []
    try:
        for fields, pdps in zip(entries, sweeps):
            locations.append(LocationMeasurement(sweeps=pdps, **fields))
    except ValidationError as err:
        raise CampaignFormatError(path, None, f"locations[{len(locations)}].{err}") from None
    if fault is not None:
        raise fault
    try:
        campaign = Campaign(campaign_id, carrier_hz, tx_power_dbm, tuple(locations), delay_resolution_ns, digests)
    except ValidationError as err:  # a repeated location key, or carrier_hz
        raise CampaignFormatError(path, None, str(err)) from None
    logger.info(
        "ingested %s: %d locations, %d files, %d rows, %d sweeps in %.3f s",
        campaign_id, len(locations), len(digests), len(rows.lines),
        sum(len(loc.sweeps) for loc in locations), perf_counter() - started,
    )
    return campaign


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
    files = {f"sweeps/{loc.tx_id}_{loc.rx_id}_{loc.polarization.value}.csv": loc for loc in campaign}
    if len(files) < len(campaign):
        raise ValidationError("tx_id", "the ids of two locations join to one sweep file name")
    out = Path(out_dir)
    (out / "sweeps").mkdir(parents=True, exist_ok=True)
    entries = []
    for rel, loc in files.items():
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
