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
import operator
import os
import re
from array import array
from dataclasses import fields
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from .measurement import (
    DEFAULT_DELAY_RESOLUTION_NS,
    ROW_RULES,
    LocationColumns,
    LocationMeasurement,
    Polarization,
    ValidationError,
    checked_delay_resolution,
    concat_ranges,
    first_flagged,
    not_increasing,
    off_lattice,
)

SWEEP_COLUMNS = ("tx_az_deg", "rx_az_deg", "delay_ns", "power_db")
_SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
_N_COLUMNS = len(SWEEP_COLUMNS)
_NOISE_FLOOR_RE = re.compile(r"#\s*noise_floor_db\s*=\s*(\S+)\s*$")
_FLOOR_PREFIX = b"# noise_floor_db="
_HEADER_LINE = f"{_SWEEP_HEADER}\n".encode()
#: a written sweep file: this head, then one row per tap, every value by ``repr``,
#: which round-trips exactly through ``float`` and keeps write->ingest lossless
_SWEEP_HEAD = f"# noise_floor_db=%r\n{_SWEEP_HEADER}\n"
#: the bytes ``read_lean`` drops before it matches a file's layout: every ASCII byte but
#: the comma, LF, ``#`` and the other ``str.splitlines`` breaks (a non-ASCII byte stays, and fails the match)
_UNMARKED = bytes(sorted(set(range(128)) - set(b",\n#\r\x0b\x0c\x1c\x1d\x1e")))
#: the values of a manifest entry, and their types in an entry the lean lane takes
_ENTRY_VALUES = operator.itemgetter(
    "sweeps", "tx_id", "rx_id", "polarization", "tx_pos_m", "rx_pos_m", "los", "antenna"
)
_LEAN_TYPES = (str, str, str, str, list, list, bool, dict)
_ANTENNA_VALUES = operator.itemgetter("gain_dbi", "hpbw_deg", "az_step_deg")
#: the types of the positions' and the antenna's values there
_LEAN_NUMBERS = (float,) * 9
_POLARIZATIONS = {p.value: p for p in Polarization}
#: antenna heights of ingested locations; the manifest does not record them
_TX_HEIGHT_M, _RX_HEIGHT_M = 3.0, 1.5
#: characters an id may not hold, since ids name the sweep files
_PATH_SEPARATORS = {"/", os.sep, os.altsep} - {None}

logger = logging.getLogger(__name__)


def json_template(doc: dict, depth: int = 0) -> list[str]:
    """The layout ``json.dumps(doc, indent=2, sort_keys=True)`` gives ``doc``, nested
    ``depth`` levels deep, as ``%`` templates.

    Each ``"%s"`` value becomes a bare ``%s``, to be filled with the JSON
    spelling of a value (``encode_basestring_ascii`` of a string, ``repr`` of
    a finite float or an int, ``true`` or ``false``); the fields follow the
    keys in sorted order.  The document is cut where a list holds ``None``,
    which is where that list's items go.
    """
    text = json.dumps(doc, indent=2, sort_keys=True).replace('"%s"', "%s")
    return re.split(r"\n *null", text.replace("\n", "\n" + "  " * depth))


#: a written manifest, as ``json.dump(manifest, f, indent=2, sort_keys=True)`` writes
#: it: the head, then per location its separator and entry, then the tail
_MANIFEST_HEAD, _MANIFEST_TAIL = json_template(
    {"campaign_id": "%s", "carrier_hz": "%s", "delay_resolution_ns": "%s", "locations": [None], "tx_power_dbm": "%s"}
)
_MANIFEST_ENTRY = "%s\n    " + json_template(
    {
        "antenna": {"az_step_deg": "%s", "gain_dbi": "%s", "hpbw_deg": "%s"},
        "los": "%s", "polarization": "%s", "rx_id": "%s", "rx_pos_m": ["%s"] * 3,
        "sweeps": "%s", "tx_id": "%s", "tx_pos_m": ["%s"] * 3,
    },
    depth=2,
)[0]


class CampaignFormatError(ValueError):
    """Malformed manifest or sweep file; records the file and line."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


class Campaign:
    """An ingested campaign: one location per ``key``, held as ``LocationColumns``.

    ``locations`` may be ``LocationMeasurement`` objects, converted by
    ``LocationColumns.of``, or the columns themselves, which are checked by
    ``LocationColumns.first_fault`` and then made read-only.  Indexing,
    iterating, ``locations`` and ``by_polarization`` build validated
    objects on request, for inspection; the analysis reads ``columns``
    through a ``TapTable``.
    """

    def __init__(
        self,
        campaign_id: str,
        carrier_hz: float,
        tx_power_dbm: float,
        locations: Iterable[LocationMeasurement] | LocationColumns,
        delay_resolution_ns: float = DEFAULT_DELAY_RESOLUTION_NS,
        input_sha256: dict[str, str] | None = None,
    ):
        self.campaign_id = campaign_id
        self.carrier_hz = carrier_hz
        self.tx_power_dbm = tx_power_dbm
        #: spacing of the delay lattice every sweep's delays sit on
        self.delay_resolution_ns = delay_resolution_ns
        #: SHA-256 of each file ``ingest_campaign`` parsed, keyed by the manifest's
        #: own name and each sweep path as the manifest spells it (empty when the
        #: campaign was built in memory)
        self.input_sha256 = {} if input_sha256 is None else input_sha256
        self.columns = locations if isinstance(locations, LocationColumns) else LocationColumns.of(locations)
        _check_locations(self.columns, delay_resolution_ns)
        for name in ("carrier_hz", "tx_power_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(name, f"must be finite, got {getattr(self, name)}")
        if self.carrier_hz <= 0:
            raise ValidationError("carrier_hz", "must be > 0")
        self._row_of: dict[tuple[str, str, Polarization], int] = {}
        for row, key in enumerate(self.columns.keys):
            first = self._row_of.setdefault(key, row)
            if first != row:
                where = f"{key[0]}-{key[1]} ({key[2].value}) of locations[{first}]"
                raise ValidationError(f"locations[{row}]", f"repeats location {where}")
        for field in fields(LocationColumns)[1:]:
            getattr(self.columns, field.name).flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Campaign):
            return NotImplemented
        fields = ("campaign_id", "carrier_hz", "tx_power_dbm", "delay_resolution_ns", "columns")
        return all(getattr(self, name) == getattr(other, name) for name in fields)

    def __repr__(self) -> str:
        return (
            f"Campaign(campaign_id={self.campaign_id!r}, carrier_hz={self.carrier_hz!r}, "
            f"tx_power_dbm={self.tx_power_dbm!r}, locations={self.locations!r}, "
            f"delay_resolution_ns={self.delay_resolution_ns!r})"
        )

    @cached_property
    def locations(self) -> tuple[LocationMeasurement, ...]:
        return self.columns.build(range(len(self)))

    def __iter__(self) -> Iterator[LocationMeasurement]:
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.locations[index]
        return self.columns.build((range(len(self))[index],))[0]

    def find(self, key: tuple[str, str, Polarization]) -> int | None:
        """The row of the location with this ``key``, or None."""
        return self._row_of.get(key)

    def rows(self, pol: Polarization) -> np.ndarray:
        """The rows of the locations of one polarization, in campaign order."""
        pol = Polarization(pol)
        return np.array([row for row, key in enumerate(self.columns.keys) if key[2] is pol], dtype=np.intp)

    def by_polarization(self, pol: Polarization) -> tuple[LocationMeasurement, ...]:
        return tuple(self.locations[row] for row in self.rows(pol).tolist())

    def pairs(self) -> list[tuple[int, int]]:
        """(V-V row, V-H row) of each placement measured in both polarizations, ordered by id."""
        vv = sorted((key[:2], row) for key, row in self._row_of.items() if key[2] is Polarization.VV)
        vh = [self.find((*ids, Polarization.VH)) for ids, _ in vv]
        return [(row, vh_row) for (_, row), vh_row in zip(vv, vh) if vh_row is not None]


def _check_locations(columns: LocationColumns, delay_resolution_ns: float) -> None:
    """Raise the ValidationError of the first location ``columns.first_fault`` finds."""
    fault = columns.first_fault(delay_resolution_ns)
    if fault is not None:
        row, field, message = fault
        raise ValidationError(f"locations[{row}].{field}", message)


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
    return _decode(path, data)


def _decode(path: Path, data: bytes) -> str:
    """The UTF-8 text of ``data``, read from ``path``, with universal newlines."""
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

    ``read_lean`` or ``read`` scans one file at a time and appends its
    rows; the value checks (``first_bad_row``) and the grouping into
    pointings with its delay checks (``_Pointings``) then run once over
    every row read.  Row ``r`` holds ``values[4r:4r+4]`` in
    ``SWEEP_COLUMNS`` order and came from file ``i``, the first with
    ``ends[i] > r``, named by ``files[i]`` relative to ``parent``.
    """

    def __init__(self, parent: Path):
        self.parent = parent
        self.values = array("d")
        self.files: list[str] = []
        #: the line of each row of each file; None for a lean file, whose row i is on line 3 + i
        self.lines: list[list[int] | None] = []
        self.floors: list[float | None] = []
        self.ends: list[int] = []
        #: files read to the end without a structural fault; only these are grouped
        self.complete = 0

    def path(self, file: int) -> Path:
        return self.parent / self.files[file]

    def where(self, row: int) -> tuple[int, str]:
        """(file index, ``path:line``) of a row."""
        file = bisect.bisect_right(self.ends, row)
        i = row - (self.ends[file - 1] if file else 0)
        lines = self.lines[file]
        return file, f"{self.path(file)}:{3 + i if lines is None else lines[i]}"

    def _add(self, rel: str, lines: list[int] | None, noise_floor: float | None) -> None:
        self.files.append(rel)
        self.lines.append(lines)
        self.floors.append(noise_floor)
        self.ends.append(len(self.values) // _N_COLUMNS)

    def read_lean(self, rel: str, data: bytes) -> bool:
        """Append the rows of a sweep file laid out as ``write_campaign`` writes it;
        False, with nothing appended, for any other file.

        That layout is ASCII: a ``# noise_floor_db=<v>`` line with a finite
        ``v``, the header, then LF-terminated rows of four numbers, none
        blank.  It holds no other ``#`` and no line break but LF, so ``read``
        would see the same floor and the same values, row ``i`` on line
        ``3 + i``.  (The final LF is checked apart: the marks do not show a
        last line cut short before its first comma.)
        """
        marks = data.translate(None, _UNMARKED)
        n_lines = (len(marks) - 2) // 4  # the header's and the rows'
        if n_lines < 2 or marks != b"#\n" + b",,,\n" * n_lines or not data.endswith(b"\n"):
            return False
        body = data.index(b"\n") + 1
        if not (data.startswith(_FLOOR_PREFIX) and data.startswith(_HEADER_LINE, body)):
            return False
        try:
            noise_floor = float(data[len(_FLOOR_PREFIX) : body - 1])
        except ValueError:
            return False
        if not math.isfinite(noise_floor):
            return False
        start = len(self.values)
        try:
            self.values.extend(map(float, data[body + len(_HEADER_LINE) : -1].replace(b"\n", b",").split(b",")))
        except ValueError:
            del self.values[start:]
            return False
        self._add(rel, None, noise_floor)
        self.complete += 1
        return True

    def read(self, rel: str, text: str) -> None:
        """Append the data rows of one sweep file, line by line.

        A structural fault (or a non-numeric value) is raised after the rows
        above its line are appended, so a bad value on one of them, which a
        line-by-line reader meets first, can still be found.
        """
        path = self.parent / rel
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
        self._add(rel, lines, noise_floor)
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
        """(file index, error) of the first row with a bad value, by ``ROW_RULES``
        checked column by column."""
        masks = [bad(column) for column, (_, bad, _) in zip(self.columns(), ROW_RULES)]
        bad = np.logical_or.reduce(masks)
        if not bad.any():
            return None
        row = int(np.argmax(bad))
        file, where = self.where(row)
        k = next(k for k, mask in enumerate(masks) if mask[row])
        field, _, message = ROW_RULES[k]
        return file, ValidationError(field, f"{message(self.values[row * _N_COLUMNS + k])} ({where})")


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
        duplicate = not_increasing(lo, hi)  # the delays are finite and sorted: only a repeat fails
        bad = np.flatnonzero(self.joined & (duplicate | off_lattice(lo, hi, res)))
        if not len(bad):
            return None
        pair = int(bad[np.argmin(self.rank[bad])])
        pointing = int(self.rank[pair])
        file = int(self.file[pointing])
        tx_az, rx_az = float(self.tx_az[pointing]), float(self.rx_az[pointing])
        path = self.rows.path(file)
        if duplicate[pair]:
            message = f"duplicate delay {float(lo[pair])} ns for pointing ({tx_az}, {rx_az}) in {path}"
        else:
            message = f"delays for pointing ({tx_az}, {rx_az}) not on the {res:g} ns lattice in {path}"
        return file, ValidationError("delay_ns", message)

    def columns(self, n_files: int) -> tuple[np.ndarray, ...]:
        """The sweep and tap columns of ``LocationColumns`` for the first ``n_files`` files,
        pointings in reading order: (sweep_bounds, tx_az_deg, rx_az_deg, noise_floor_db,
        tap_bounds, delay_ns, power_db)."""
        sweep_bounds = np.searchsorted(self.file, np.arange(n_files + 1))
        n = sweep_bounds[-1]
        counts = self.stops[:n] - self.starts[:n]
        taps = concat_ranges(self.starts[:n], counts)
        floors = np.repeat(np.array(self.rows.floors[:n_files], dtype=float), np.diff(sweep_bounds))
        tap_bounds = np.concatenate(([0], np.cumsum(counts)))
        return sweep_bounds, self.tx_az[:n], self.rx_az[:n], floors, tap_bounds, self.delay[taps], self.power[taps]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _lean_entry(entry) -> tuple | None:
    """(sweeps, key, tx_pos_m, rx_pos_m, los, antenna) of an entry whose values
    all have the exact types ``_read_location`` requires, with finite
    positions, so that none of its checks can fail; None for any other entry."""
    if type(entry) is not dict:
        return None
    try:
        values = _ENTRY_VALUES(entry)
        antenna = _ANTENNA_VALUES(values[-1])
    except (KeyError, TypeError):
        return None
    rel, tx_id, rx_id, pol, tx_pos, rx_pos, los, _ = values
    if tuple(map(type, values)) != _LEAN_TYPES or pol not in _POLARIZATIONS:
        return None
    if (len(tx_pos), len(rx_pos)) != (3, 3):
        return None
    numbers = (*tx_pos, *rx_pos, *antenna)
    if tuple(map(type, numbers)) != _LEAN_NUMBERS or not all(map(math.isfinite, numbers[:6])):
        return None
    return rel, (tx_id, rx_id, _POLARIZATIONS[pol]), tx_pos, rx_pos, los, antenna


def _read_bytes(file: str) -> bytes | None:
    """The bytes of ``file`` in one unbuffered read; None when it cannot be opened."""
    try:
        with open(file, "rb", buffering=0) as f:
            return f.readall()
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return None


def _read_location(
    entry, index: int, path: Path, rows: _SweepRows, digests: dict[str, str], data: bytes | None = None
) -> tuple:
    """(key, tx_pos_m, rx_pos_m, los, antenna) of one manifest entry, after
    reading its sweep file into ``rows`` line by line.

    Checks run in the order of the line-by-line reader: the entry keys
    the file path depends on, the file, the remaining keys.  ``antenna``
    is (gain_dbi, hpbw_deg, az_step_deg), checked with the location.
    ``data``, when given, holds the file's bytes, already read and digested.
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
    try:
        file = path.parent / sweeps_rel
        text = _read_text(file, digests, sweeps_rel) if data is None else _decode(file, data)
    except IsADirectoryError:  # "" and "." among them
        raise CampaignFormatError(path, None, f"key '{ctx}sweeps' must name a file") from None
    rows.read(sweeps_rel, text)
    key = (_require(entry, "tx_id", str, path, ctx), _require(entry, "rx_id", str, path, ctx), polarization)
    return (
        key,
        _position(entry, "tx_pos_m", path, ctx),
        _position(entry, "rx_pos_m", path, ctx),
        _require(entry, "los", bool, path, ctx),
        (gain, hpbw, step),
    )


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
    try:
        # integers read as floats: one too large for a float (or for int()'s digit limit) is inf
        doc = json.loads(_read_text(path, digests, path.name), parse_int=float)
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
    try:
        checked_delay_resolution(delay_resolution_ns)
    except ValidationError as err:
        raise CampaignFormatError(path, None, str(err)) from None
    raw_locations = _require(doc, "locations", list, path)
    if not raw_locations:
        raise CampaignFormatError(path, None, "locations: manifest lists no locations")

    rows = _SweepRows(path.parent)
    base = os.fspath(path.parent)
    entries: list[tuple] = []
    fault: Exception | None = None
    for index, entry in enumerate(raw_locations):
        # an entry no check can fail whose file has the written layout takes the lean
        # lane; every other one the line reader, which opens the file at the pathlib
        # path if the string join (``x.csv/``, say) could not
        lean = _lean_entry(entry)
        data = None if lean is None else _read_bytes(os.path.join(base, lean[0]))
        if data is not None:
            digests.setdefault(lean[0], hashlib.sha256(data).hexdigest())
            if rows.read_lean(lean[0], data):
                entries.append(lean[1:])
                continue
        try:
            entries.append(_read_location(entry, index, path, rows, digests, data))
        except (ValueError, OSError) as err:
            fault = err  # raised below, unless a check still pending on earlier rows fails first
            break
    del doc, raw_locations  # the parsed manifest can outweigh the columns; free it before grouping

    # a file's pointings are formed only when all of its rows passed, as the
    # line-by-line reader grouped a file only after reading it through
    bad_row = rows.first_bad_row()
    n_grouped = rows.complete if bad_row is None else min(rows.complete, bad_row[0])
    pointings = _Pointings(rows, n_grouped) if n_grouped else None
    late = (pointings.first_fault(delay_resolution_ns) if pointings else None) or bad_row
    n_built = len(entries)
    if late is not None:
        n_built, fault = late
    if n_built:
        keys, tx_pos, rx_pos, los, antennas = zip(*entries[:n_built])
        antenna = np.array(antennas, dtype=float)
        columns = LocationColumns(
            keys, np.array(tx_pos, dtype=float), np.array(rx_pos, dtype=float),
            np.array(los, dtype=bool), np.column_stack((antenna, np.full(n_built, _TX_HEIGHT_M))),
            np.column_stack((antenna, np.full(n_built, _RX_HEIGHT_M))), np.full(n_built, tx_power_dbm),
            *pointings.columns(n_built),
        )
    try:
        if fault is None:
            campaign = Campaign(campaign_id, carrier_hz, tx_power_dbm, columns, delay_resolution_ns, digests)
        elif n_built:
            # a location's own errors come before any fault in a later location
            _check_locations(columns, delay_resolution_ns)
    except ValidationError as err:  # a location's own fault, carrier_hz, or a repeated location key
        raise CampaignFormatError(path, None, str(err)) from None
    if fault is not None:
        raise fault
    logger.info(
        "ingested %s: %d locations, %d files, %d rows, %d sweeps in %.3f s",
        campaign_id, len(campaign), len(digests), rows.ends[-1], len(columns.tx_az_deg), perf_counter() - started,
    )
    return campaign


def write_campaign(campaign: Campaign, out_dir) -> Path:
    """Write a campaign back to disk; returns the manifest path.

    ``ingest_campaign(write_campaign(c))`` reproduces ``c`` field for field
    (antenna heights come from the per-side defaults, not the manifest).
    Every check runs before anything is written.  The manifest holds the
    bytes ``json.dump(..., indent=2, sort_keys=True)`` writes, plus a final
    LF; the columns are formatted in bulk, with no per-location record.
    """
    started = perf_counter()
    c = campaign.columns
    names = _check_writable(campaign)

    out = Path(out_dir)
    (out / "sweeps").mkdir(parents=True, exist_ok=True)
    n_bytes = _write_sweep_files(c, out, names)
    tx_ids, rx_ids, pols = zip(*c.keys)
    entries = zip(
        chain(("",), repeat(",")),
        *c.tx_antenna[:, [2, 0, 1]].T.tolist(),  # az_step_deg, gain_dbi, hpbw_deg: the keys in order
        map(("false", "true").__getitem__, c.los.tolist()),
        map(encode_basestring_ascii, [pol.value for pol in pols]),
        map(encode_basestring_ascii, rx_ids),
        *c.rx_pos_m.T.tolist(),
        map(encode_basestring_ascii, names),
        map(encode_basestring_ascii, tx_ids),
        *c.tx_pos_m.T.tolist(),
    )
    head = (campaign.campaign_id, campaign.carrier_hz, campaign.delay_resolution_ns)
    manifest_path = out / "manifest.json"
    with open(manifest_path, "wb") as f:
        f.write((_MANIFEST_HEAD % tuple(map(json.dumps, head))).encode())
        # streamed one entry at a time, never joined in memory
        f.writelines(map(str.encode, map(_MANIFEST_ENTRY.__mod__, entries)))
        f.write((_MANIFEST_TAIL % json.dumps(campaign.tx_power_dbm) + "\n").encode())
        n_bytes += f.tell()
    logger.info(
        "wrote %s: %d locations, %d files, %d rows, %d bytes in %.3f s",
        campaign.campaign_id, len(c), len(names) + 1, len(c.delay_ns), n_bytes, perf_counter() - started,
    )
    return manifest_path


def _check_writable(campaign: Campaign) -> list[str]:
    """The sweep file name of each location, after raising the ValidationError of the
    first rule the file format adds to the ones ``Campaign`` checks."""
    c = campaign.columns
    if not len(c):
        raise ValidationError("locations", "campaign has no locations")
    for key in c.keys:
        for field, value in zip(("tx_id", "rx_id"), key):
            if any(sep in value for sep in _PATH_SEPARATORS):
                raise ValidationError(field, f"{value!r} contains a path separator")
    names = [f"sweeps/{tx_id}_{rx_id}_{pol.value}.csv" for tx_id, rx_id, pol in c.keys]
    if len(set(names)) < len(names):
        raise ValidationError("tx_id", "the ids of two locations join to one sweep file name")
    rows, sweep_loc, floor = np.arange(len(c)), c.sweep_loc, c.noise_floor_db
    fault = first_flagged((
        ("antenna", rows, (c.tx_antenna != c.rx_antenna)[:, :3].any(axis=1),
         lambda _: "manifest format stores one antenna config per location"),
        ("tx_power_dbm", rows, c.tx_power_dbm != campaign.tx_power_dbm,
         lambda _: "manifest format stores one TX power per campaign"),
        ("noise_floor_db", sweep_loc[1:], (floor[1:] != floor[:-1]) & (sweep_loc[1:] == sweep_loc[:-1]),
         lambda _: "sweep file format stores one noise floor per location"),
    ))
    if fault is not None:
        row, field, message = fault
        tx_id, rx_id, pol = c.keys[row]
        raise ValidationError(field, f"{message} (locations[{row}], {tx_id}-{rx_id} {pol.value})")
    return names


def _write_sweep_files(c: LocationColumns, out: Path, names: list[str]) -> int:
    """Write the sweep file of each location under the name given; returns the bytes written.

    Every tap of the campaign is formatted in one pass, after its sweep's
    azimuth pair, formatted once per sweep; each file is then the slice of
    rows its location owns.
    """
    pointings = list(map("%r,%r,".__mod__, zip(c.tx_az_deg.tolist(), c.rx_az_deg.tolist())))
    tap_sweep = np.repeat(np.arange(len(pointings)), np.diff(c.tap_bounds)).tolist()
    taps = zip(map(pointings.__getitem__, tap_sweep), c.delay_ns.tolist(), c.power_db.tolist())
    rows = list(map("%s%r,%r\n".__mod__, taps))
    bounds = c.tap_bounds[c.sweep_bounds].tolist()
    base = os.fspath(out)
    n_bytes = 0
    for name, floor, start, stop in zip(names, c.noise_floor_db[c.sweep_bounds[:-1]].tolist(), bounds, bounds[1:]):
        data = (_SWEEP_HEAD % floor + "".join(rows[start:stop])).encode()
        with open(os.path.join(base, name), "wb") as f:
            f.write(data)
        n_bytes += len(data)
    return n_bytes
