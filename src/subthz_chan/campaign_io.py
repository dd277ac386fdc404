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
import errno
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
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .measurement import (
    DEFAULT_DELAY_RESOLUTION_NS,
    ROW_RULES,
    RX_HEIGHT_M,
    TX_HEIGHT_M,
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
#: the bytes ingest's lean lane drops before it matches a file's layout: every ASCII byte but
#: the comma, LF, ``#`` and the other ``str.splitlines`` breaks (a non-ASCII byte stays, and fails the match)
_UNMARKED = bytes(sorted(set(range(128)) - set(b",\n#\r\x0b\x0c\x1c\x1d\x1e")))
#: ``os.open`` flags of a sweep file read, and the size of its first read, which holds a
#: written file of up to about 300 rows; larger files take more reads
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_FIRST_READ = 8192
#: ``os.open`` flags of a sweep file write, those of ``open(path, "wb")``
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
#: the name ``cache_path`` appends to a manifest's, the first word of a cache file and the number of its
#: layout, the alignment of its columns, the ``LocationColumns`` fields it holds as raw bytes, in order
#: (the keys go in its JSON line), and the derived columns that follow them (a column of the input files'
#: SHA-256s comes last); the number changes with the layout, the columns or the rules ``Campaign`` accepts
#: them by, since a hit trusts them
_CACHE_SUFFIX = ".ingest-cache"
_CACHE_MAGIC, _CACHE_FORMAT = "subthz-chan-ingest-cache", "4"
_CACHE_ALIGN = 8
_CACHED_COLUMNS = tuple(field.name for field in fields(LocationColumns)[1:])
_DERIVED_COLUMNS = ("distance_m", "power_mw", "gain_free_mw", "received_dbm")
#: the keys of a manifest entry, and the exact types of their values in an entry the lean lane takes
_ENTRY_KEYS = ("sweeps", "tx_id", "rx_id", "polarization", "tx_pos_m", "rx_pos_m", "los", "antenna")
_LEAN_TYPES = (str, str, str, str, list, list, bool, dict)
_ANTENNA_KEYS = ("gain_dbi", "hpbw_deg", "az_step_deg")
_ANTENNA_VALUES = operator.itemgetter(*_ANTENNA_KEYS)
_POLARIZATIONS = {p.value: p for p in Polarization}
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
    ``LocationColumns.of``, or the columns themselves; either way this is the
    one check of a location's values (``shape_fault``, then ``first_fault``),
    after which the columns are read-only.  Indexing, iterating, ``locations``
    and ``by_polarization`` build objects from them on request, for
    inspection; the analysis reads ``columns`` through a ``TapTable``.
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
        columns = locations if isinstance(locations, LocationColumns) else LocationColumns.of(locations)
        _check_locations(columns, delay_resolution_ns)
        for name, value in (("carrier_hz", carrier_hz), ("tx_power_dbm", tx_power_dbm)):
            if not math.isfinite(value):
                raise ValidationError(name, f"must be finite, got {value}")
        if carrier_hz <= 0:
            raise ValidationError("carrier_hz", "must be > 0")
        if len(set(columns.keys)) < len(columns):
            _raise_repeat(columns.keys)
        self._assemble(campaign_id, carrier_hz, tx_power_dbm, columns, delay_resolution_ns)
        self.input_sha256 = {} if input_sha256 is None else input_sha256

    @classmethod
    def _trusted(cls, *args, names: list[str], digests: np.ndarray) -> "Campaign":
        """``Campaign(*args)`` without its checks, for values a ``Campaign`` accepted before (a cache hit's),
        whose ``input_sha256`` is decoded on first read from the file ``names`` and the rows of ``digests``,
        each the 32 bytes of a SHA-256."""
        campaign = cls.__new__(cls)
        campaign._assemble(*args)
        campaign._packed_sha256 = names, digests
        return campaign

    def _assemble(self, campaign_id, carrier_hz, tx_power_dbm, columns, delay_resolution_ns) -> None:
        self.campaign_id = campaign_id
        self.carrier_hz = carrier_hz
        self.tx_power_dbm = tx_power_dbm
        #: spacing of the delay lattice every sweep's delays sit on
        self.delay_resolution_ns = delay_resolution_ns
        self.columns = columns
        pols = list(map(operator.itemgetter(2), columns.keys))
        #: the rows of each polarization, in campaign order
        self._rows = {
            pol: np.flatnonzero(np.fromiter(map(operator.is_, pols, repeat(pol)), bool, len(pols))) for pol in Polarization
        }
        for field in fields(LocationColumns)[1:]:
            getattr(columns, field.name).flags.writeable = False
        for rows in self._rows.values():
            rows.flags.writeable = False

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
    def input_sha256(self) -> dict[str, str]:
        """SHA-256 of each file ``ingest_campaign`` parsed, keyed by the manifest's own name and each
        sweep path as the manifest spells it, in reading order (empty when the campaign was built in memory)."""
        names, digests = self._packed_sha256
        return dict(zip(names, _hex_rows(digests), strict=True))

    @cached_property
    def _row_of(self) -> dict[tuple[str, str, Polarization], int]:
        keys = self.columns.keys
        return dict(zip(keys, range(len(keys))))

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
        """The rows of the locations of one polarization, in campaign order (read-only)."""
        return self._rows[Polarization(pol)]

    def by_polarization(self, pol: Polarization) -> tuple[LocationMeasurement, ...]:
        return tuple(self.locations[row] for row in self.rows(pol).tolist())


def _hex_rows(digests: np.ndarray) -> list[str]:
    """The lowercase hex spelling of each 32-byte row of ``digests``."""
    text = digests.tobytes().hex()
    return [text[i : i + 64] for i in range(0, len(text), 64)]


def _raise_repeat(keys: tuple) -> None:
    """Raise the ValidationError of the first location whose key an earlier location holds."""
    first: dict = {}
    for row, key in enumerate(keys):
        earlier = first.setdefault(key, row)
        if earlier != row:
            where = f"{key[0]}-{key[1]} ({key[2].value}) of locations[{earlier}]"
            raise ValidationError(f"locations[{row}]", f"repeats location {where}")


def _check_locations(columns: LocationColumns, delay_resolution_ns: float) -> None:
    """Raise the ValidationError of the first location out of shape or breaking a rule."""
    fault = columns.shape_fault() or columns.first_fault(delay_resolution_ns)
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


class _Inputs:
    """The files ingest read: the SHA-256 of each by name, in reading order (``Campaign.input_sha256``),
    and, for the ingest cache, each sweep file's length and one SHA-256 over all their bytes, in that order."""

    def __init__(self):
        self.sha256, self.lengths, self.stream = {}, [], hashlib.sha256()

    def record(self, name: str, data: bytes) -> None:
        """Record the bytes read of the sweep file ``name``, unless a file of that name is recorded."""
        if name not in self.sha256:
            self.lengths.append(len(data))
            self.stream.update(data)
            self.sha256[name] = hashlib.sha256(data).hexdigest()


def _read_text(path: Path, digests: dict[str, str], key: str) -> str:
    """The UTF-8 text of ``path``; records the SHA-256 of the bytes read under ``key``.

    Undecodable bytes raise CampaignFormatError at the line holding the
    first of them, counting lines as the newline-translated text does.
    """
    data = _read_file(path, None)
    digests.setdefault(key, hashlib.sha256(data).hexdigest())
    return _decode(path, data)


def _read_file(file, first: int | None = _FIRST_READ) -> bytes:
    """The bytes of ``file``, read with ``os.open`` and ``os.read``: a first read of ``first`` bytes (of the size
    ``fstat`` gives when None), then reads up to one that sees end of file; two in all when the first holds it.

    Raises OSError naming ``file`` when it cannot be read, IsADirectoryError when it names no file:
    a directory, or a path holding a NUL, which no file name holds.
    """
    file = os.fspath(file)
    try:
        fd = os.open(file, _READ_FLAGS)
    except ValueError:  # the NUL
        raise IsADirectoryError(errno.EISDIR, "path holds a NUL byte", file) from None
    try:
        data = os.read(fd, first or os.fstat(fd).st_size + 1)
        # a short read is end of file only for a regular file; the next read, empty, confirms it
        more = data and os.read(fd, 1 << 16)
        if more:
            chunks = [data, more]
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
            data = b"".join(chunks)
    except IsADirectoryError:  # os.read names no file
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), file) from None
    finally:
        os.close(fd)
    return data


def _write_file(file: str, data: bytes) -> None:
    """Write ``data`` to ``file`` as ``open(file, "wb")`` does (a new file gets mode 0o666 less
    the umask), without the buffered file object."""
    fd = os.open(file, _WRITE_FLAGS, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):  # a short write; the rest goes in further writes
            written += os.write(fd, memoryview(data)[written:])
    finally:
        os.close(fd)


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

    Ingest's lean lane (for files laid out as ``write_campaign`` writes
    them) or ``read`` scans one file at a time and appends its rows; the
    value checks (``first_bad_row``) and the grouping into pointings with
    its delay checks (``_Pointings``) then run once over every row read.
    Row ``r`` holds ``values[4r:4r+4]`` in ``SWEEP_COLUMNS`` order and
    came from file ``i``, the first with ``ends[i] > r``: manifest entry
    ``i``'s, named by its ``sweeps`` value ``files[i]`` relative to ``parent``.
    """

    def __init__(self, parent: Path, files: list):
        self.parent = parent
        self.files = files
        self.values = array("d")
        #: the line of each row of each file the line reader read; row i of any other file is on line 3 + i
        self.lines: dict[int, list[int]] = {}
        self.floors: list[float | None] = []
        self.ends: list[int] = []
        #: whether the last file read stopped at a structural fault; only files read through are grouped
        self.partial = False

    def path(self, file: int) -> Path:
        return self.parent / self.files[file]

    def where(self, row: int) -> tuple[int, str]:
        """(file index, ``path:line``) of a row."""
        file = bisect.bisect_right(self.ends, row)
        i = row - (self.ends[file - 1] if file else 0)
        lines = self.lines.get(file)
        return file, f"{self.path(file)}:{3 + i if lines is None else lines[i]}"

    def read(self, rel: str, text: str) -> None:
        """Append the data rows of the next sweep file, ``rel``, line by line.

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
        self.lines[len(self.ends)] = lines
        self.floors.append(noise_floor)
        self.ends.append(len(self.values) // _N_COLUMNS)
        if fault is None:
            if not header_seen:
                fault = CampaignFormatError(path, None, f"missing header '{_SWEEP_HEADER}'")
            elif noise_floor is None:
                fault = CampaignFormatError(path, None, "missing '# noise_floor_db=<v>' line")
            elif not lines:
                fault = CampaignFormatError(path, None, "sweep file has no data rows")
        if fault is not None:
            self.partial = True
            raise fault

    def columns(self) -> tuple[np.ndarray, ...]:
        """(tx_az, rx_az, delay, power) of every row read."""
        return tuple(np.frombuffer(self.values, dtype=float).reshape(-1, _N_COLUMNS).T)

    def first_bad_row(self) -> tuple[int, ValidationError] | None:
        """(file index, error) of the first row with a bad value, by ``first_flagged`` over
        ``ROW_RULES`` with each row its own owner: row by row, then column by column."""
        fault = first_flagged([
            (field, range(len(column)), bad(column), lambda row, column=column, message=message: message(float(column[row])))
            for column, (field, bad, message) in zip(self.columns(), ROW_RULES)
        ])
        if fault is None:
            return None
        row, field, message = fault
        file, where = self.where(row)
        return file, ValidationError(field, f"{message} ({where})")


class _Pointings:
    """The rows of a campaign's first ``n_files`` sweep files, grouped by pointing.

    Pointings run in reading order: file by file, and within a file in the
    order in which they first appear, each taking its azimuths from that
    first row, as a dict keyed by ``(tx_az, rx_az)`` would.  Pointing ``p``
    owns rows ``bounds[p]:bounds[p + 1]`` of ``delay`` and ``power``,
    stably sorted by delay.
    """

    def __init__(self, rows: _SweepRows, n_files: int):
        self.rows = rows
        n_rows = rows.ends[n_files - 1]
        tx, rx, delay, power = (column[:n_rows] for column in rows.columns())
        file = np.repeat(np.arange(n_files), np.diff(rows.ends[:n_files], prepend=0))
        order = np.lexsort((delay, rx, tx, file))
        file_s, tx_s, rx_s = file[order], tx[order], rx[order]
        new = np.concatenate(([True], (file_s[1:] != file_s[:-1]) | (tx_s[1:] != tx_s[:-1]) | (rx_s[1:] != rx_s[:-1])))
        starts = np.flatnonzero(new)
        first_row = np.minimum.reduceat(order, starts)
        appearance = np.argsort(first_row)
        counts = np.diff(starts, append=n_rows)[appearance]
        gathered = order[concat_ranges(starts[appearance], counts)]  # the sorted pointings, in reading order
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        self.delay, self.power = delay[gathered], power[gathered]
        first_row = first_row[appearance]
        self.tx_az, self.rx_az, self.file = tx[first_row], rx[first_row], file[first_row]

    def first_fault(self, res: float) -> tuple[int, ValidationError] | None:
        """(file index, error) of the first duplicate delay or step off the ``res`` ns lattice,
        by ``first_flagged`` over the delay steps with their pointing as owner."""
        pointing = np.repeat(np.arange(len(self.file)), np.diff(self.bounds))
        lo, hi = self.delay[:-1], self.delay[1:]
        duplicate = not_increasing(lo, hi)  # the delays are finite and sorted: only a repeat fails
        bad = (pointing[1:] == pointing[:-1]) & (duplicate | off_lattice(lo, hi, res))

        def message(step: int) -> str:
            p = pointing[step]
            at, path = f"pointing ({float(self.tx_az[p])}, {float(self.rx_az[p])})", self.rows.path(int(self.file[p]))
            if duplicate[step]:
                return f"duplicate delay {float(lo[step])} ns for {at} in {path}"
            return f"delays for {at} not on the {res:g} ns lattice in {path}"

        fault = first_flagged((("delay_ns", pointing, bad, message),))
        return None if fault is None else (int(self.file[fault[0]]), ValidationError(*fault[1:]))

    def columns(self, n_files: int) -> tuple[np.ndarray, ...]:
        """The sweep and tap columns of ``LocationColumns`` for the first ``n_files`` files:
        (sweep_bounds, tx_az_deg, rx_az_deg, noise_floor_db, tap_bounds, delay_ns, power_db)."""
        sweep_bounds = np.searchsorted(self.file, np.arange(n_files + 1))
        n = sweep_bounds[-1]
        floors = np.repeat(np.array(self.rows.floors[:n_files], dtype=float), np.diff(sweep_bounds))
        taps = slice(self.bounds[n])
        return sweep_bounds, self.tx_az[:n], self.rx_az[:n], floors, self.bounds[: n + 1], self.delay[taps], self.power[taps]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _entry_values(locations: list) -> dict[str, list]:
    """One list per ``_ENTRY_KEYS`` key of each manifest entry's value, None where it has none."""
    if list(map(type, locations)).count(dict) < len(locations):  # an entry that is not an object has none
        locations = [entry if type(entry) is dict else {} for entry in locations]
    return {key: list(map(dict.get, locations, repeat(key))) for key in _ENTRY_KEYS}


def _lean_rows(entries: dict[str, list]) -> np.ndarray:
    """Whether each manifest entry (``_entry_values``) has values of the exact types ``_read_location``
    requires, a known polarization, positions of three finite floats and float antenna values, so that
    none of its checks can fail.  Each test runs only on the entries that passed the tests before it."""
    types = zip(*(map(type, entries[key]) for key in _ENTRY_KEYS))
    lean = np.fromiter(map(_LEAN_TYPES.__eq__, types), bool, len(entries["sweeps"]))
    positions = ("tx_pos_m", "rx_pos_m")
    for key, test in (
        ("polarization", lambda pols: np.fromiter(map(_POLARIZATIONS.__contains__, pols), bool, len(pols))),
        *((key, lambda ps: np.fromiter(map(len, ps), np.intp, len(ps)) == 3) for key in positions),
        *((key, lambda ps: _all_floats(ps, len(ps))) for key in positions),
        *((key, lambda ps: np.isfinite(_floats(ps)).all(axis=1)) for key in positions),
        ("antenna", lambda ants: _all_floats(zip(*(map(dict.get, ants, repeat(k)) for k in _ANTENNA_KEYS)), len(ants))),
    ):
        lean[lean] = test(list(compress(entries[key], lean.tolist())))
    return lean


def _all_floats(triples: Iterable, n: int) -> np.ndarray:
    """Whether each of ``n`` sequences of three parsed JSON values holds three floats (JSON makes no subclass)."""
    return np.fromiter(map(isinstance, chain.from_iterable(triples), repeat(float)), bool, 3 * n).reshape(-1, 3).all(axis=1)


def _floats(triples: list) -> np.ndarray:
    """An (n, 3) array of ``n`` sequences of three floats."""
    return np.fromiter(chain.from_iterable(triples), float, 3 * len(triples)).reshape(-1, 3)


def _read_location(entry, index: int, path: Path, rows: _SweepRows, inputs: _Inputs, data: bytes | None = None) -> None:
    """Check one manifest entry and read its sweep file into ``rows`` line by line.

    Checks run in the order of the line-by-line reader: the entry keys
    the file path depends on, the file, the remaining keys.  ``data``, when
    given, holds the file's bytes, already read and recorded.
    """
    ctx = f"locations[{index}]."
    if not isinstance(entry, dict):
        raise CampaignFormatError(path, None, f"locations[{index}] must be an object")
    pol_raw = _require(entry, "polarization", str, path, ctx)
    if pol_raw not in _POLARIZATIONS:
        raise CampaignFormatError(path, None, f"{ctx}polarization: unknown polarization '{pol_raw}'")
    antenna = _require(entry, "antenna", dict, path, ctx)
    for key in _ANTENNA_KEYS:
        _require(antenna, key, float, path, ctx + "antenna.")
    sweeps_rel = _require(entry, "sweeps", str, path, ctx)
    try:
        file = path.parent / sweeps_rel
        if data is None:
            inputs.record(sweeps_rel, data := _read_file(file, None))
        text = _decode(file, data)
    except IsADirectoryError:  # a directory ("" and "." among them), or a NUL in the path
        raise CampaignFormatError(path, None, f"key '{ctx}sweeps' must name a file") from None
    rows.read(sweeps_rel, text)
    _require(entry, "tx_id", str, path, ctx)
    _require(entry, "rx_id", str, path, ctx)
    _position(entry, "tx_pos_m", path, ctx)
    _position(entry, "rx_pos_m", path, ctx)
    _require(entry, "los", bool, path, ctx)


def _sweep_paths(manifest: Path, rels: list[str]) -> list[str]:
    """The path of each sweep file named ``rels[i]`` by ``manifest``, as ``os.path.join`` joins it to the
    manifest's directory: in one pass over the NUL-joined names when none is rooted (which the join does
    not append) and none holds a NUL, else name by name."""
    base = os.fspath(manifest.parent)
    joined = "\0" + "\0".join(rels)
    if not any("\0" + sep in joined for sep in _PATH_SEPARATORS):
        files = joined.replace("\0", "\0" + os.path.join(base, "")).split("\0")[1:]
        if len(files) == len(rels):
            return files
    return [os.path.join(base, rel) for rel in rels]


def _read_entries(
    raw_locations: list, entries: dict[str, list], path: Path, rows: _SweepRows, inputs: _Inputs
) -> tuple[int, Exception | None]:
    """The number of manifest entries read before the first fault, and that fault (None when every
    entry read); each sweep file is read into ``rows``.

    An entry no check can fail (``_lean_rows``) whose file has the written layout takes the lean lane, one
    pass over the file's bytes; every other one the line reader, which gets the bytes already read or opens
    the file at the pathlib path if the lean lane could not (``x.csv/``, say).
    """
    lean = _lean_rows(entries).tolist()
    rels = list(compress(entries["sweeps"], lean))
    lean_files = zip(rels, _sweep_paths(path, rels))
    values, add_floor, add_end = rows.values, rows.floors.append, rows.ends.append
    for index, take in enumerate(lean):
        data = None
        if take:
            rel, file = next(lean_files)
            try:
                data = _read_file(file)
            except OSError:  # no such file, not a file
                pass
        if data is not None:
            inputs.record(rel, data)
            # the written layout is ASCII: a ``# noise_floor_db=<v>`` line with a finite ``v``,
            # the header, then LF-terminated rows of four numbers, none blank.  It holds no
            # other ``#`` and no line break but LF, so ``read`` would see the same floor and
            # the same values, row ``i`` on line ``3 + i``.  (The final LF is checked apart:
            # the marks do not show a last line cut short before its first comma.)
            marks = data.translate(None, _UNMARKED)
            n_lines = (len(marks) - 2) // 4  # the header's and the rows'
            body = data.find(b"\n") + 1
            if (
                n_lines >= 2 and marks == b"#\n" + b",,,\n" * n_lines and data.endswith(b"\n")
                and data.startswith(_FLOOR_PREFIX) and data.startswith(_HEADER_LINE, body)
            ):
                try:
                    floor = float(data[len(_FLOOR_PREFIX) : body - 1])
                    parsed = list(map(float, data[body + len(_HEADER_LINE) : -1].replace(b"\n", b",").split(b",")))
                except ValueError:
                    floor = math.nan
                if math.isfinite(floor):
                    values.fromlist(parsed)  # faster than extending by the map itself
                    add_floor(floor)
                    add_end(len(values) // _N_COLUMNS)
                    continue
        try:
            _read_location(raw_locations[index], index, path, rows, inputs, data)
        except (ValueError, OSError) as err:
            return index, err
    return len(lean), None


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
    inputs = _Inputs()
    try:
        # integers read as floats: one too large for a float (or for int()'s digit limit) is inf
        doc = json.loads(_read_text(path, inputs.sha256, path.name), parse_int=float)
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

    entries = _entry_values(raw_locations)
    rows = _SweepRows(path.parent, entries["sweeps"])
    # the fault is raised below, unless a check still pending on earlier rows fails first
    n_read, fault = _read_entries(raw_locations, entries, path, rows, inputs)
    # the location columns of the entries read, whose values all have the types the checks require
    read = slice(n_read)
    pols = map(_POLARIZATIONS.__getitem__, entries["polarization"][read])
    antenna = _floats(list(map(_ANTENNA_VALUES, entries["antenna"][read])))
    location = (
        tuple(zip(entries["tx_id"][read], entries["rx_id"][read], pols)), _floats(entries["tx_pos_m"][read]),
        _floats(entries["rx_pos_m"][read]), np.array(entries["los"][read], dtype=bool),
        np.column_stack((antenna, np.full(n_read, TX_HEIGHT_M))), np.column_stack((antenna, np.full(n_read, RX_HEIGHT_M))),
        np.full(n_read, tx_power_dbm),
    )
    del doc, raw_locations, entries  # the parsed manifest can outweigh the columns; free it before grouping

    # a file's pointings are formed only when all of its rows passed, as the
    # line-by-line reader grouped a file only after reading it through
    bad_row = rows.first_bad_row()
    complete = len(rows.ends) - rows.partial
    n_grouped = complete if bad_row is None else min(complete, bad_row[0])
    pointings = _Pointings(rows, n_grouped) if n_grouped else None
    late = (pointings.first_fault(delay_resolution_ns) if pointings else None) or bad_row
    n_built = n_read
    if late is not None:
        n_built, fault = late
    if n_built:
        columns = LocationColumns(*(column[:n_built] for column in location), *pointings.columns(n_built))
    try:
        if fault is None:
            campaign = Campaign(campaign_id, carrier_hz, tx_power_dbm, columns, delay_resolution_ns, inputs.sha256)
        elif n_built:
            # a location's own errors come before any fault in a later location
            _check_locations(columns, delay_resolution_ns)
    except ValidationError as err:  # a location's own fault, carrier_hz, or a repeated location key
        raise CampaignFormatError(path, None, str(err)) from None
    if fault is not None:
        raise fault
    campaign._cache_items = {"sweep_lengths": inputs.lengths, "sweeps_sha256": inputs.stream.hexdigest()}
    logger.info(
        "ingested %s: %d locations, %d files, %d rows, %d sweeps in %.3f s",
        campaign_id, len(campaign), len(inputs.sha256), rows.ends[-1], len(columns.tx_az_deg), perf_counter() - started,
    )
    return campaign


def cache_path(manifest_path) -> Path:
    """The ingest cache file ``load_campaign`` keeps for a manifest: ``.<name>.ingest-cache`` beside it."""
    path = Path(manifest_path)
    return path.with_name(f".{path.name}{_CACHE_SUFFIX}")


def load_campaign(manifest_path) -> Campaign:
    """``ingest_campaign(manifest_path)``, from the manifest's cache file when that still holds it.

    A hit needs this format and ``__version__``, a body that hashes to its digest, the manifest,
    read again, to hash to the cache's key, and the sweep files, read again in one pass, to keep
    their stored lengths and stream digest; the columns, which ``Campaign`` accepted at ingest, are
    then mapped unchecked.  Anything else is a miss, which runs ``ingest_campaign`` (so raises
    what it raises) and rewrites the cache after a successful parse; a cache that cannot be
    written is skipped.  Logs one INFO line saying hit or miss, and why on a miss.
    """
    started = perf_counter()
    path = Path(manifest_path)
    cache = cache_path(path)
    try:
        campaign, n_files = _cached(path, cache)
    except _Miss as miss:
        reason = str(miss)
    except Exception:  # whatever a damaged cache makes its decoding raise, ValidationError included
        reason = "cache rejected"
    else:
        logger.info("ingest cache hit for %s: %d files re-hashed in %.3f s", path, n_files, perf_counter() - started)
        return campaign
    logger.info("ingest cache miss for %s: %s", path, reason)
    campaign = ingest_campaign(path)
    _write_cache(path, campaign)
    return campaign


class _Miss(Exception):
    """Why a cache file does not hold its manifest's campaign."""


def _cached(path: Path, cache: Path) -> tuple[Campaign, int]:
    """The campaign ``cache`` holds for the manifest at ``path``, and the number of files it was read from;
    raises _Miss, or whatever a damaged cache makes the decoding raise, when it holds none."""
    try:
        data = _read_file(cache, None)
    except FileNotFoundError:
        raise _Miss("no cache") from None
    end = data.index(b"\n")
    magic, layout, version, key, body_digest = data[:end].decode("ascii").split(" ")
    if (magic, layout, version) != (_CACHE_MAGIC, _CACHE_FORMAT, __version__):
        raise _Miss("cache rejected")
    try:
        manifest = _read_file(path, None)
    except OSError:
        raise _Miss("key mismatch") from None
    if hashlib.sha256(manifest).hexdigest() != key:
        raise _Miss("key mismatch")
    if hashlib.sha256(memoryview(data)[end + 1 :]).hexdigest() != body_digest:
        raise _Miss("cache rejected")
    meta_end = data.index(b"\n", end + 1)
    meta = json.loads(data[end + 1 : meta_end])
    columns, offset = [], meta_end + 1
    for dtype, shape in meta["columns"]:
        offset += -offset % _CACHE_ALIGN
        column = np.frombuffer(data, np.dtype(dtype), math.prod(shape), offset).reshape(shape)
        columns.append(column)
        offset += column.nbytes
    names, digests = meta["inputs"], columns[-1]
    if offset != len(data) or digests.shape != (len(names), 32):
        raise _Miss("cache rejected")
    if names[0] != path.name or digests[0].tobytes().hex() != key:
        raise _Miss("key mismatch")
    rels, lengths = names[1:], meta["sweep_lengths"]
    if _sweeps_digest(_sweep_paths(path, rels), lengths) != meta["sweeps_sha256"]:
        # the first file that changed, at its pathlib path, which also opens a name only the line reader opens
        for rel, n, digest in zip(rels, lengths, _hex_rows(digests[1:])):
            if _sweeps_digest([path.parent / rel], [n]) != digest:
                raise _Miss(f"digest mismatch on {rel}")
    keys = tuple(zip(meta["tx_id"], meta["rx_id"], map(_POLARIZATIONS.__getitem__, meta["polarization"]), strict=True))
    mapped = LocationColumns(keys, *columns[: len(_CACHED_COLUMNS)])
    # as cached_property keeps them
    vars(mapped).update(zip(_DERIVED_COLUMNS, columns[len(_CACHED_COLUMNS) : -1], strict=True))
    campaign = Campaign._trusted(
        meta["campaign_id"], meta["carrier_hz"], meta["tx_power_dbm"], mapped, meta["delay_resolution_ns"],
        names=names, digests=digests,
    )
    return campaign, len(names)


def _sweeps_digest(files: list, lengths: list[int]) -> str | None:
    """The SHA-256 over the bytes of ``files``, in order; None when one cannot be read or is not ``lengths[i]`` long."""
    stream = hashlib.sha256()
    for file, n in zip(files, lengths, strict=True):
        try:
            fd = os.open(file, _READ_FLAGS)
            try:
                # a byte past n shows a longer file, a short read reads on, and only an empty read ends n bytes
                data = os.read(fd, n + 1)
                while len(data) < n and (more := os.read(fd, n + 1 - len(data))):
                    data += more
                if len(data) != n or os.read(fd, 1):
                    return None
            finally:
                os.close(fd)
        except OSError:  # no such file, not a file
            return None
        stream.update(data)
    return stream.hexdigest()


def _write_cache(path: Path, campaign: Campaign) -> None:
    """Write ``campaign``, as ingested from the manifest at ``path``, to its cache file, through a
    temporary name; skipped when that fails.  The file holds a header line (magic, format number,
    ``__version__``, the manifest's SHA-256, the body's), then the body: one JSON line with the campaign
    scalars, the names of ``input_sha256`` in order, the sweep files' lengths and stream digest as ingest read
    them, the keys and each column's dtype and shape, then each column's bytes, each on a multiple of 8: the
    cached columns, the derived columns, and the 32 bytes of each ``input_sha256`` digest, one row per name."""
    c = campaign.columns
    digests = np.frombuffer(bytes.fromhex("".join(campaign.input_sha256.values())), np.uint8).reshape(-1, 32)
    columns = [np.ascontiguousarray(getattr(c, name)) for name in _CACHED_COLUMNS + _DERIVED_COLUMNS] + [digests]
    tx_ids, rx_ids, pols = zip(*c.keys)
    meta = {
        "campaign_id": campaign.campaign_id, "carrier_hz": campaign.carrier_hz,
        "tx_power_dbm": campaign.tx_power_dbm, "delay_resolution_ns": campaign.delay_resolution_ns,
        "inputs": list(campaign.input_sha256), **campaign._cache_items,
        "tx_id": tx_ids, "rx_id": rx_ids, "polarization": [pol.value for pol in pols],
        "columns": [(column.dtype.str, column.shape) for column in columns],
    }
    head = f"{_CACHE_MAGIC} {_CACHE_FORMAT} {__version__} {campaign.input_sha256[path.name]} "
    body = [json.dumps(meta, sort_keys=True).encode() + b"\n"]
    offset = len(head) + 64 + 1 + len(body[0])  # where the first column would start, unaligned
    for column in columns:
        body += [bytes(-offset % _CACHE_ALIGN), column]
        offset += -offset % _CACHE_ALIGN + column.nbytes
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    cache = cache_path(path)
    temporary = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as f:
            f.write(f"{head}{digest.hexdigest()}\n".encode())
            f.writelines(body)  # the columns straight from their buffers, never joined
        os.replace(temporary, cache)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass


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
    # each rule searches every id at once; only a campaign that breaks it is searched id by id, to name the first
    ids = "".join(map("".join, map(operator.itemgetter(0, 1), c.keys)))
    for unfit, message in (
        (lambda text: any(sep in text for sep in _PATH_SEPARATORS), "contains a path separator"),
        (_unnameable, "holds a NUL or a character no file name can hold"),
    ):
        if unfit(ids):
            field, value = next((f, v) for key in c.keys for f, v in zip(("tx_id", "rx_id"), key) if unfit(v))
            raise ValidationError(field, f"{value!r} {message}")
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


def _unnameable(text: str) -> bool:
    """Whether ``text`` holds a NUL or a character the file system encoding cannot encode."""
    try:
        return b"\0" in os.fsencode(text)
    except UnicodeEncodeError:
        return True


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
        _write_file(os.path.join(base, name), data)
        n_bytes += len(data)
    return n_bytes
