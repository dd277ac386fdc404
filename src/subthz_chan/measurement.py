"""Core data model for directional sub-THz channel measurements.

Power values are dB relative to the campaign reference (dBm at the
receiver unless stated otherwise), delays are nanoseconds, azimuths are
degrees in [0, 360).  ``LocationColumns`` holds a campaign's locations as
flat columns, whose shape and data-model rules ``LocationColumns.first_fault``
holds; the immutable records (``DirectionalPdp``, ``LocationMeasurement``)
serve to build and inspect single locations and check nothing themselves, and
every analysis runs on a ``TapTable`` built from the columns.
"""
from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: close-in reference distance shared by every path-loss model here
D0_M = 1.0

#: sounder delay-bin resolution
DEFAULT_DELAY_RESOLUTION_NS = 2.0

#: slack when checking that recorded delays sit on the sounder's delay lattice
DELAY_GRID_TOL_NS = 1e-6

#: the largest magnitude of a tap power (dB) and of an antenna gain (dBi): every linear power
#: the analysis forms, a tap's power less both gains included, is then a normal float
DB_LIMIT = 1000.0

#: the largest tap delay (ns): a delay's square times the largest linear power (1e100, by
#: ``DB_LIMIT``) is then 1e200, so every moment ``delay._spreads`` forms, a sum over the taps of
#: a location included, is finite
DELAY_LIMIT_NS = 1e50

#: the antenna heights (m) of every rendered and every ingested location (a manifest does not record them)
TX_HEIGHT_M, RX_HEIGHT_M = 3.0, 1.5


class ValidationError(ValueError):
    """A record violates a data-model invariant; ``field`` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NoSignalError(RuntimeError):
    """No power above the noise floor where detectable signal is required."""


class Polarization(str, Enum):
    """TX-to-RX antenna polarization configuration."""

    VV = "VV"
    VH = "VH"


def wrap_deg(angle_deg: float) -> float:
    """Wrap an angle into [0, 360)."""
    return angle_deg % 360.0


def wrap_signed_deg(angle_deg):
    """Wrap an angle, or each angle of an array, into (-180, 180]."""
    w = (angle_deg + 180.0) % 360.0 - 180.0
    if isinstance(w, np.ndarray):
        return np.where(w == -180.0, 180.0, w)
    return 180.0 if w == -180.0 else w


def circular_distance_deg(a_deg, b_deg):
    """Shortest angular distance between two azimuths (or arrays of them), in [0, 180]."""
    return abs(wrap_signed_deg(a_deg - b_deg))


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)


def db_to_linear_array(values_db: np.ndarray) -> np.ndarray:
    """``db_to_linear`` of each value, bit for bit.

    ``math.pow`` mapped at C level makes the libm call that ``**`` makes;
    ``np.power`` rounds some values differently in the last bit, which
    flips exact 30 dB ties.
    """
    return np.fromiter(map(math.pow, repeat(10.0), (values_db / 10.0).tolist()), dtype=float, count=len(values_db))


def log10_array(values: np.ndarray) -> np.ndarray:
    """``math.log10`` of each value, mapped at C level (``np.log10`` rounds some values differently)."""
    return np.fromiter(map(math.log10, values.tolist()), dtype=float, count=len(values))


def linear_to_db_array(values: np.ndarray) -> np.ndarray:
    """``linear_to_db`` of each value, bit for bit."""
    return 10.0 * log10_array(values)


@dataclass(frozen=True)
class AntennaConfig:
    """Horn-antenna setup for one end of the link.

    The azimuth sweep grid is uniform with ``az_step_deg`` spacing, so the
    step must divide 360 evenly and cannot be narrower than the beamwidth.
    """

    gain_dbi: float = 27.0
    hpbw_deg: float = 8.0
    az_step_deg: float = 8.0
    height_m: float = 1.5

    def __post_init__(self):
        fault = first_flagged(_antenna_rules(np.array([astuple(self)], dtype=float)))
        if fault is not None:
            raise ValidationError(*fault[1:])

    @classmethod
    def default_tx(cls) -> "AntennaConfig":
        return cls(height_m=TX_HEIGHT_M)

    @classmethod
    def default_rx(cls) -> "AntennaConfig":
        return cls(height_m=RX_HEIGHT_M)

    @property
    def n_az_bins(self) -> int:
        return round(360.0 / self.az_step_deg)


@dataclass(frozen=True)
class DirectionalPdp:
    """Power delay profile for one fixed (TX azimuth, RX azimuth) pointing pair.

    Delays must be strictly increasing (``Campaign`` checks it); bins removed by
    thresholding are simply absent, so gaps in the delay axis are legal.
    """

    tx_az_deg: float
    rx_az_deg: float
    delays_ns: tuple[float, ...]
    powers_db: tuple[float, ...]
    noise_floor_db: float

    def __post_init__(self):
        object.__setattr__(self, "delays_ns", tuple(map(float, self.delays_ns)))
        object.__setattr__(self, "powers_db", tuple(map(float, self.powers_db)))

    @property
    def direction(self) -> tuple[float, float]:
        return (self.tx_az_deg, self.rx_az_deg)


def checked_threshold_db(threshold_db: float) -> float:
    """``threshold_db`` itself when it is a usable peak-relative threshold (> 0 dB and finite)."""
    if not threshold_db > 0:
        raise ValidationError("threshold_db", f"must be > 0, got {threshold_db}")
    if threshold_db == math.inf:
        raise ValidationError("threshold_db", f"must be > 0 and finite, got {threshold_db}")
    return threshold_db


def checked_delay_resolution(delay_resolution_ns: float) -> float:
    """``delay_resolution_ns`` itself when it is a usable delay-lattice spacing (> 0 and finite)."""
    if not 0.0 < delay_resolution_ns < math.inf:
        raise ValidationError("delay_resolution_ns", f"must be > 0 and finite, got {delay_resolution_ns}")
    return delay_resolution_ns


def not_increasing(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each delay step from ``lo`` to ``hi`` fails to increase (a NaN fails)."""
    return ~(hi > lo)


def off_lattice(lo: np.ndarray, hi: np.ndarray, res: float) -> np.ndarray:
    """Whether each delay step from ``lo`` to ``hi`` is off the ``res`` ns lattice."""
    # a step can overflow only on a lattice finer than the tolerance, which holds every step
    with np.errstate(over="ignore", invalid="ignore"):
        steps = (hi - lo) / res
        return np.abs(steps - np.round(steps)) * res > DELAY_GRID_TOL_NS


def _outside_circle(az: np.ndarray) -> np.ndarray:
    return ~((az >= 0.0) & (az < 360.0))


#: the rules on each value of a sweep-file row, in the file's column order:
#: (column, mask of the bad values of a column, message of a bad value);
#: ingest adds the row's file and line to the message
ROW_RULES = (
    ("tx_az_deg", _outside_circle, "{} outside [0, 360)".format),
    ("rx_az_deg", _outside_circle, "{} outside [0, 360)".format),
    ("delay_ns", lambda delay: ~((delay >= 0.0) & (delay <= DELAY_LIMIT_NS)),
     lambda d: f"delay {d} must be <= {DELAY_LIMIT_NS:g}" if DELAY_LIMIT_NS < d < math.inf else f"delay {d} must be >= 0"),
    ("power_db", lambda power: ~(np.abs(power) <= DB_LIMIT),
     lambda p: f"power {p} dB outside [-{DB_LIMIT:g}, {DB_LIMIT:g}]" if math.isfinite(p) else "power must be finite"),
)


def _antenna_rules(antenna: np.ndarray, prefix: str = "") -> tuple:
    """The ``AntennaConfig`` rules over rows of (gain_dbi, hpbw_deg, az_step_deg, ...),
    as ``first_flagged`` takes them, one location per row, fields after ``prefix``."""
    gain, hpbw, step = antenna[:, :3].T
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = 360.0 / step
        uneven = np.abs(turns - np.round(turns)) > 1e-9
    rows = np.arange(len(antenna))
    return (
        (f"{prefix}gain_dbi", rows, ~np.isfinite(gain), lambda i: f"must be finite, got {gain[i]}"),
        (f"{prefix}gain_dbi", rows, ~(gain > 0), lambda i: f"must be > 0, got {gain[i]}"),
        (f"{prefix}gain_dbi", rows, ~(gain <= DB_LIMIT), lambda i: f"must be <= {DB_LIMIT:g}, got {gain[i]}"),
        (
            f"{prefix}hpbw_deg", rows, ~((0.0 < hpbw) & (hpbw <= step) & (step <= 360.0)),
            lambda i: f"need 0 < hpbw_deg <= az_step_deg <= 360, got hpbw={hpbw[i]}, step={step[i]}",
        ),
        (f"{prefix}az_step_deg", rows, uneven, lambda i: f"{step[i]} does not divide 360 evenly"),
    )


def first_flagged(rules: Sequence[tuple]) -> tuple[int, str, str] | None:
    """(owner, field, message) of the first fault the rules flag: by owner, then rule, then item.

    A rule is ``(field, owner, bad, message)``: ``bad`` flags items, ``owner`` is each
    item's owner (a location, say), non-decreasing, and ``message(item)`` describes a
    flagged item.  Every check that names a first fault names it by this order.
    """
    found = []
    for k, (_, owner, bad, _) in enumerate(rules):
        if bad.any():
            item = int(np.argmax(bad))
            found.append((int(owner[item]), k, item))
    if not found:
        return None
    row, k, item = min(found)
    field, _, _, message = rules[k]
    return row, field, message(item)


def in_db_window(power_db, peak_db, threshold_db: float):
    """Whether a bin (or each bin of an array) lies within ``threshold_db`` of ``peak_db``.

    The cut compares in dB, so a bin exactly ``threshold_db`` down
    survives.  Sweep bins and PAS taps are cut this way.
    """
    return power_db >= peak_db - checked_threshold_db(threshold_db)


def in_linear_window(power_mw, peak_mw, threshold_db: float):
    """``in_db_window`` compared in linear power: ``power >= peak * db_to_linear(-threshold)``.

    Omni bins and PAS lobe bins are cut this way.  Synthesized lobes sit
    exactly 30 dB apart, and the two domains round such ties differently.
    """
    return power_mw >= peak_mw * db_to_linear(-checked_threshold_db(threshold_db))


@dataclass(frozen=True)
class LocationMeasurement:
    """All sweeps, geometry and polarization setup for one TX-RX pair; ``Campaign`` checks it."""

    tx_id: str
    rx_id: str
    tx_pos_m: tuple[float, float, float]
    rx_pos_m: tuple[float, float, float]
    polarization: Polarization
    los: bool
    sweeps: tuple[DirectionalPdp, ...]
    tx_antenna: AntennaConfig
    rx_antenna: AntennaConfig
    tx_power_dbm: float

    def __post_init__(self):
        object.__setattr__(self, "tx_pos_m", tuple(map(float, self.tx_pos_m)))
        object.__setattr__(self, "rx_pos_m", tuple(map(float, self.rx_pos_m)))
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "polarization", Polarization(self.polarization))

    #: (tx_id, rx_id, polarization): what identifies a location within a campaign
    key = property(operator.attrgetter("tx_id", "rx_id", "polarization"))

    @property
    def distance_m(self) -> float:
        return math.dist(self.tx_pos_m, self.rx_pos_m)


def bearings_deg(tx_pos_m: Sequence[float], rx_pos_m: Sequence[float]) -> tuple[float, float]:
    """Geometric (TX->RX, RX->TX) azimuth bearings of a TX and an RX position."""
    dx = rx_pos_m[0] - tx_pos_m[0]
    dy = rx_pos_m[1] - tx_pos_m[1]
    tx_to_rx = wrap_deg(math.degrees(math.atan2(dy, dx)))
    return tx_to_rx, wrap_deg(tx_to_rx + 180.0)


def bearings_deg_array(tx_pos_m: np.ndarray, rx_pos_m: np.ndarray) -> np.ndarray:
    """``bearings_deg`` of each row of two (n, 3) position arrays, as (n, 2), bit for bit.

    ``math.atan2`` and ``math.degrees`` are mapped at C level: numpy's
    forms round some values differently.
    """
    dx, dy = (rx_pos_m[:, :2] - tx_pos_m[:, :2]).T.tolist()
    tx_to_rx = np.fromiter(map(math.degrees, map(math.atan2, dy, dx)), dtype=float, count=len(dx)) % 360.0
    return np.column_stack((tx_to_rx, (tx_to_rx + 180.0) % 360.0))


def group_sums(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum of ``values`` per group, added in input order.

    ``np.bincount`` adds one value at a time, as a running scalar sum
    does; pairwise ``np.sum`` or ``reduceat`` would regroup the additions
    and move sums that feed a linear cut or the NBB ranking.
    """
    return np.bincount(group, weights=values, minlength=n_groups)


def group_max(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Largest value per group; -inf for an empty group."""
    out = np.full(n_groups, -np.inf)
    np.maximum.at(out, group, values)
    return out


def group_bounds(group: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, one past the last row) of each group of a group-sorted column."""
    ids = np.arange(n_groups)
    return np.searchsorted(group, ids), np.searchsorted(group, ids, side="right")


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` of each (start, count) pair, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


@dataclass(frozen=True, eq=False)
class LocationColumns:
    """Locations, their sweeps and the sweeps' bins, as flat columns.

    Location columns have one row per location.  Location ``i`` owns rows
    ``sweep_bounds[i]:sweep_bounds[i + 1]`` of the sweep columns, in sweep
    order, and sweep ``s`` owns rows ``tap_bounds[s]:tap_bounds[s + 1]`` of
    the tap columns, in bin order.  An antenna row is (gain_dbi, hpbw_deg,
    az_step_deg, height_m).  ``of`` is the one conversion from
    ``LocationMeasurement`` objects, which ``Campaign`` makes; ``build``
    makes objects back on request.  The derived columns (``distance_m``,
    ``power_mw``, ``gain_free_mw``, ``received_dbm``) are computed on first
    use and kept; the ingest cache stores them.
    """

    #: ``LocationMeasurement.key`` of each location
    keys: tuple[tuple[str, str, Polarization], ...]
    tx_pos_m: np.ndarray
    rx_pos_m: np.ndarray
    los: np.ndarray
    tx_antenna: np.ndarray
    rx_antenna: np.ndarray
    tx_power_dbm: np.ndarray
    sweep_bounds: np.ndarray
    tx_az_deg: np.ndarray
    rx_az_deg: np.ndarray
    noise_floor_db: np.ndarray
    tap_bounds: np.ndarray
    delay_ns: np.ndarray
    power_db: np.ndarray

    @classmethod
    def of(cls, locations: Iterable[LocationMeasurement]) -> "LocationColumns":
        """The columns of location records, in order, for ``Campaign`` to check; ValidationError names a record
        they cannot hold (a position not of 3 numbers, more or fewer powers than delays) ``locations[i].<field>``."""
        locs = tuple(locations)
        for i, loc in enumerate(locs):
            for name in ("tx_pos_m", "rx_pos_m"):
                if len(getattr(loc, name)) != 3:
                    raise ValidationError(f"locations[{i}].{name}", f"position {getattr(loc, name)} must be 3 numbers")
            for pdp in loc.sweeps:
                if len(pdp.powers_db) != len(pdp.delays_ns):
                    message = f"PDP {pdp.direction} has {len(pdp.powers_db)} powers for {len(pdp.delays_ns)} delays"
                    raise ValidationError(f"locations[{i}].powers_db", message)
        sweeps = [pdp for loc in locs for pdp in loc.sweeps]
        antenna = operator.attrgetter("gain_dbi", "hpbw_deg", "az_step_deg", "height_m")

        def bounds(counts: Iterable[int]) -> np.ndarray:
            return np.concatenate(([0], np.cumsum(np.fromiter(counts, dtype=np.intp))))

        return cls(
            keys=tuple(loc.key for loc in locs),
            tx_pos_m=np.array([loc.tx_pos_m for loc in locs], dtype=float).reshape(-1, 3),
            rx_pos_m=np.array([loc.rx_pos_m for loc in locs], dtype=float).reshape(-1, 3),
            los=np.array([loc.los for loc in locs], dtype=bool),
            tx_antenna=np.array([antenna(loc.tx_antenna) for loc in locs], dtype=float).reshape(-1, 4),
            rx_antenna=np.array([antenna(loc.rx_antenna) for loc in locs], dtype=float).reshape(-1, 4),
            tx_power_dbm=np.array([loc.tx_power_dbm for loc in locs], dtype=float),
            sweep_bounds=bounds(len(loc.sweeps) for loc in locs),
            tx_az_deg=np.array([pdp.tx_az_deg for pdp in sweeps], dtype=float),
            rx_az_deg=np.array([pdp.rx_az_deg for pdp in sweeps], dtype=float),
            noise_floor_db=np.array([pdp.noise_floor_db for pdp in sweeps], dtype=float),
            tap_bounds=bounds(len(pdp.delays_ns) for pdp in sweeps),
            delay_ns=np.array([t for pdp in sweeps for t in pdp.delays_ns], dtype=float),
            power_db=np.array([p for pdp in sweeps for p in pdp.powers_db], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocationColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @cached_property
    def distance_m(self) -> np.ndarray:
        """``LocationMeasurement.distance_m`` of each location."""
        return np.array([math.dist(a, b) for a, b in zip(self.tx_pos_m.tolist(), self.rx_pos_m.tolist())], dtype=float)

    @cached_property
    def power_mw(self) -> np.ndarray:
        """``db_to_linear_array`` of every tap's power."""
        return db_to_linear_array(self.power_db)

    @cached_property
    def gain_free_mw(self) -> np.ndarray:
        """``db_to_linear_array`` of every tap's power less its location's two antenna gains."""
        gain_sum_dbi = (self.tx_antenna[:, 0] + self.rx_antenna[:, 0])[self.sweep_loc]
        return db_to_linear_array(self.power_db - np.repeat(gain_sum_dbi, np.diff(self.tap_bounds)))

    @cached_property
    def received_dbm(self) -> np.ndarray:
        """``linear_to_db_array`` of each sweep's received power, the ``power_mw`` of its taps at or above
        its noise floor added in tap order (``group_sums``); NaN for a sweep none of whose taps clears it."""
        n_sweeps = len(self.tx_az_deg)
        tap_sweep = np.repeat(np.arange(n_sweeps), np.diff(self.tap_bounds))
        above = self.power_db >= self.noise_floor_db[tap_sweep]
        total_mw = group_sums(tap_sweep[above], self.power_mw[above], n_sweeps)
        # every tap's linear power is > 0 (``DB_LIMIT``), so a sum of 0 is a sweep with no tap above its floor
        heard = total_mw > 0.0
        received = np.full(n_sweeps, np.nan)
        received[heard] = linear_to_db_array(total_mw[heard])
        return received

    @cached_property
    def sweep_loc(self) -> np.ndarray:
        """The location of each sweep."""
        return np.repeat(np.arange(len(self)), np.diff(self.sweep_bounds))

    @cached_property
    def peak_db(self) -> np.ndarray:
        """The largest power of each sweep."""
        return np.maximum.reduceat(self.power_db, self.tap_bounds[:-1])

    @cached_property
    def detectable(self) -> np.ndarray:
        """Whether the peak of each sweep clears its noise floor (strictly)."""
        return self.peak_db > self.noise_floor_db

    def shape_fault(self) -> tuple[int, str, str] | None:
        """(row, field, message) of the first column out of shape, or None: location columns hold a row
        per key, sweep and tap columns one per ``tx_az_deg`` and ``delay_ns``, and the bounds, one more,
        run up from 0 to that count.  Every column is a numpy array: the bounds of integers, ``los`` of
        bools, the rest of float64.  A fault names the location of its first row out of step (its first
        row, for a column of the wrong type)."""
        n, counts = len(self.keys), (np.size(self.tx_az_deg), np.size(self.delay_ns))

        def owner(level: int, row: int) -> int:  # of a row of location, sweep or tap columns; past the end: the last
            for bounds in (self.sweep_bounds, self.tap_bounds)[:level][::-1]:
                row = int(np.searchsorted(bounds, row, side="right")) - 1
            return max(min(row, n - 1), 0)

        for name, level, need in (
            ("tx_pos_m", 0, (n, 3)), ("rx_pos_m", 0, (n, 3)), ("los", 0, (n,)), ("tx_antenna", 0, (n, 4)),
            ("rx_antenna", 0, (n, 4)), ("tx_power_dbm", 0, (n,)), ("sweep_bounds", 0, (n + 1,)),
            *((name, 1, (counts[0],)) for name in ("tx_az_deg", "rx_az_deg", "noise_floor_db")),
            ("tap_bounds", 1, (counts[0] + 1,)), ("delay_ns", 2, (counts[1],)), ("power_db", 2, (counts[1],)),
        ):
            shape = np.shape(column := getattr(self, name))
            if shape != need:
                rows = shape[0] if shape else 0
                return owner(level, 0 if rows == need[0] else min(rows, need[0])), name, f"has shape {shape}, need {need}"
            if not isinstance(column, np.ndarray):
                return owner(level, 0), name, f"has type {type(column).__name__}, need a numpy array"
            if name.endswith("_bounds"):
                bad = np.append(column[0] != 0, column[1:] < column[:-1]) | (column.dtype.kind not in "iu")
                bad[-1] |= column[-1] != counts[level]
                i, message = int(np.argmax(bad)), f"must be integers from 0 up to {counts[level]}"
                if bad[i]:
                    return owner(level, max(i - 1, 0)), name, f"{message}, got {column[i]} at [{i}]"
            elif column.dtype != (dtype := np.dtype(bool if name == "los" else float)):
                return owner(level, 0), name, f"has dtype {column.dtype}, need {dtype}"
        return None

    def first_fault(self, delay_resolution_ns: float) -> tuple[int, str, str] | None:
        """(row, field, message) of the first location that breaks a data-model rule, or None.

        The rules assume the shapes ``shape_fault`` checks; within a location they run in the
        order of the table below.  ``delay_resolution_ns`` must be > 0 and finite.
        """
        res = checked_delay_resolution(delay_resolution_ns)
        rows, sweep_loc, distance = np.arange(len(self)), self.sweep_loc, self.distance_m
        tap_sweep = np.repeat(np.arange(len(sweep_loc)), np.diff(self.tap_bounds))
        tap_loc, step = sweep_loc[tap_sweep], tap_sweep[1:] == tap_sweep[:-1]  # taps t and t + 1 of one sweep
        tx_az, rx_az, floor, delay, power = self.tx_az_deg, self.rx_az_deg, self.noise_floor_db, self.delay_ns, self.power_db
        order = np.lexsort((rx_az, tx_az))  # stable: one pointing's sweeps stay in location order
        a, b = order[:-1], order[1:]
        repeats = np.zeros(len(sweep_loc), dtype=bool)
        repeats[b[(sweep_loc[a] == sweep_loc[b]) & (tx_az[a] == tx_az[b]) & (rx_az[a] == rx_az[b])]] = True
        (_, az_bad, az_message), _, (_, delay_bad, delay_message), (_, power_bad, power_message) = ROW_RULES
        return first_flagged((
            *_antenna_rules(self.tx_antenna, "antenna."),
            *_antenna_rules(self.rx_antenna, "antenna."),
            *((name, rows, ~np.isfinite(pos).all(axis=1), lambda i, p=pos: f"position {tuple(p[i].tolist())} must be finite")
              for name, pos in (("tx_pos_m", self.tx_pos_m), ("rx_pos_m", self.rx_pos_m))),
            ("tx_id", rows, np.array([not (tx_id and rx_id) for tx_id, rx_id, _ in self.keys], dtype=bool),
             lambda i: "tx_id and rx_id must be non-empty"),
            ("sweeps", rows, np.diff(self.sweep_bounds) < 1, lambda i: "location has no sweeps"),
            ("distance_m", rows, ~(distance > D0_M), lambda i: f"TX-RX distance {distance[i]:.3f} m must exceed {D0_M} m"),
            ("distance_m", rows, distance == math.inf, lambda i: "TX-RX distance overflows to inf"),
            ("sweeps", sweep_loc, np.diff(self.tap_bounds) < 1, lambda s: f"PDP ({tx_az[s]}, {rx_az[s]}) has no bins"),
            ("noise_floor_db", sweep_loc, ~np.isfinite(floor), lambda s: f"must be finite, got {floor[s]}"),
            ("tx_az_deg", sweep_loc, az_bad(tx_az), lambda s: az_message(tx_az[s])),
            ("rx_az_deg", sweep_loc, az_bad(rx_az), lambda s: az_message(rx_az[s])),
            ("sweeps", sweep_loc, repeats, lambda s: f"duplicate pointing pair ({tx_az[s]}, {rx_az[s]})"),
            ("delay_ns", tap_loc, delay_bad(delay), lambda t: delay_message(delay[t])),
            ("delay_ns", tap_loc[1:], step & not_increasing(delay[:-1], delay[1:]),
             lambda t: f"delays must be strictly increasing, got {delay[t]} then {delay[t + 1]}"),
            ("delay_ns", tap_loc[1:], step & off_lattice(delay[:-1], delay[1:], res),
             lambda t: f"delays must sit on the {res:g} ns lattice, got {delay[t]} then {delay[t + 1]}"),
            ("power_db", tap_loc, power_bad(power), lambda t: power_message(power[t])),
        ))

    def build(self, rows: Iterable[int]) -> tuple[LocationMeasurement, ...]:
        """The ``LocationMeasurement`` of each of ``rows``."""
        # every column but ``keys``, as lists, in field order
        tx_pos, rx_pos, los, tx_antenna, rx_antenna, tx_power, sweeps, tx_az, rx_az, floor, taps, delay, power = (
            getattr(self, f.name).tolist() for f in fields(self)[1:]
        )
        rows = list(rows)
        # locations with equal antennas share one record
        antenna = {row: AntennaConfig(*row) for row in {tuple(a[i]) for a in (tx_antenna, rx_antenna) for i in rows}}
        return tuple(
            LocationMeasurement(
                *self.keys[i][:2], tx_pos[i], rx_pos[i], self.keys[i][2], los[i],
                [DirectionalPdp(tx_az[s], rx_az[s], delay[taps[s] : taps[s + 1]], power[taps[s] : taps[s + 1]], floor[s])
                 for s in range(sweeps[i], sweeps[i + 1])],
                antenna[tuple(tx_antenna[i])], antenna[tuple(rx_antenna[i])], tx_power[i],
            )
            for i in rows
        )


class TapTable:
    """The above-floor bins of some locations' detectable sweeps, as flat columns.

    Built from ``LocationColumns`` and the rows of the locations it
    covers (all of them when ``rows`` is None), in the order given.  Tap
    columns (``tap_*``, ``delay_ns``, ``power_db``, ``power_mw``,
    ``gain_free_mw``) run in location -> sweep -> delay order, sweep
    columns in location -> sweep order, and location columns in table
    order.  Only sweeps whose peak clears the floor get a row, and only
    their bins at or above the floor, so a location without signal has no
    sweep rows (``n_sweeps`` 0).

    ``power_mw``, ``gain_free_mw`` and ``received_dbm`` are taken from the
    ``LocationColumns`` columns of those names, the one place the analysis
    maps ``math.pow`` or ``math.log10`` over taps or sweeps: each is the
    scalar ``db_to_linear`` or ``linear_to_db`` of its value, bit for bit.
    The last two are gathered on each read, not held.
    ``np.power`` and ``np.log10`` differ from them in the last bit on some
    values, which flips exact 30 dB ties, so they are not used.  Derived
    columns of a higher layer are computed once per table through ``kept``.
    """

    def __init__(self, columns: LocationColumns, rows: np.ndarray | None = None):
        self.columns = columns
        self.rows = np.arange(len(columns)) if rows is None else np.asarray(rows, dtype=np.intp)
        rows = self.rows
        self.gain_sum_dbi = columns.tx_antenna[rows, 0] + columns.rx_antenna[rows, 0]
        self.tx_power_dbm = columns.tx_power_dbm[rows]
        self.distance_m = columns.distance_m[rows]
        self.los = columns.los[rows]
        self.tx_pos_m = columns.tx_pos_m[rows]
        self.rx_pos_m = columns.rx_pos_m[rows]
        self.tx_step_deg = columns.tx_antenna[rows, 2]
        self.rx_step_deg = columns.rx_antenna[rows, 2]

        sweeps, self.sweep_loc = self._sweep_rows()
        self.tx_az_deg = columns.tx_az_deg[sweeps]
        self.rx_az_deg = columns.rx_az_deg[sweeps]
        self.n_sweeps = np.bincount(self.sweep_loc, minlength=len(rows))

        taps, self.tap_sweep = self._tap_rows(sweeps)
        self.tap_loc = self.sweep_loc[self.tap_sweep]
        self.delay_ns = columns.delay_ns[taps]
        self.power_db = columns.power_db[taps]
        self.power_mw = columns.power_mw[taps]
        self.peak_db = columns.peak_db[sweeps]
        self._kept: dict[Callable, object] = {}

    def _sweep_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(the ``LocationColumns`` row of each of the table's sweeps, its table location)."""
        columns, rows = self.columns, self.rows
        first = columns.sweep_bounds[rows]
        sweep_count = columns.sweep_bounds[rows + 1] - first
        sweeps = concat_ranges(first, sweep_count)
        detectable = columns.detectable[sweeps]
        return sweeps[detectable], np.repeat(np.arange(len(rows)), sweep_count)[detectable]

    def _tap_rows(self, sweeps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the ``LocationColumns`` row of each tap of the table's ``sweeps``, its table sweep)."""
        columns = self.columns
        first = columns.tap_bounds[sweeps]
        tap_count = columns.tap_bounds[sweeps + 1] - first
        taps = concat_ranges(first, tap_count)
        tap_sweep = np.repeat(np.arange(len(sweeps)), tap_count)
        above = columns.power_db[taps] >= columns.noise_floor_db[sweeps][tap_sweep]
        return taps[above], tap_sweep[above]

    @property
    def gain_free_mw(self) -> np.ndarray:
        """Per tap, ``LocationColumns.gain_free_mw``; gathered on each read and not held, as only a kept
        result (the omni bins) reads it."""
        return self.columns.gain_free_mw[self._tap_rows(self._sweep_rows()[0])[0]]

    @property
    def received_dbm(self) -> np.ndarray:
        """Per sweep, ``LocationColumns.received_dbm``; gathered on each read and not held, as only a kept
        result (the sweep path losses) reads it."""
        return self.columns.received_dbm[self._sweep_rows()[0]]

    def __len__(self) -> int:
        return len(self.rows)

    def key(self, index: int) -> tuple[str, str, Polarization]:
        """``LocationMeasurement.key`` of location ``index`` of the table."""
        return self.columns.keys[self.rows[index]]

    def name(self, index: int) -> str:
        """``TX-RX (pol)`` of location ``index``, as messages name it."""
        tx_id, rx_id, pol = self.key(index)
        return f"{tx_id}-{rx_id} ({pol.value})"

    def kept(self, compute: Callable[["TapTable"], object]):
        """``compute(self)``, computed on first use and then kept with the table."""
        if compute not in self._kept:
            self._kept[compute] = compute(self)
        return self._kept[compute]

    def no_signal(self, index: int) -> NoSignalError | None:
        """The error for location ``index`` when none of its sweeps clears the floor."""
        if self.n_sweeps[index]:
            return None
        return NoSignalError(f"{self.name(index)}: no sweep clears the noise floor")

    def require_signal(self, index: int = 0) -> None:
        """Raise ``no_signal(index)`` if there is one."""
        err = self.no_signal(index)
        if err is not None:
            raise err

    def require_any_signal(self, section: str) -> None:
        """NoSignalError naming ``section`` when no location of the table has a sweep above its floor."""
        if not self.n_sweeps.any():
            raise NoSignalError(f"{section}: no location has a sweep that clears the noise floor")
