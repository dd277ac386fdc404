"""Core data model for directional sub-THz channel measurements.

Power values are dB relative to the campaign reference (dBm at the
receiver unless stated otherwise), delays are nanoseconds, azimuths are
degrees in [0, 360).  ``LocationColumns`` holds a campaign's locations as
flat columns, whose data-model rules ``LocationColumns.first_fault`` holds;
the immutable records (``DirectionalPdp``, ``LocationMeasurement``) serve to
build and inspect single locations, and every analysis runs on a
``TapTable`` built from the columns.
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
        return cls(height_m=3.0)

    @classmethod
    def default_rx(cls) -> "AntennaConfig":
        return cls(height_m=1.5)

    @property
    def n_az_bins(self) -> int:
        return round(360.0 / self.az_step_deg)


@dataclass(frozen=True)
class DirectionalPdp:
    """Power delay profile for one fixed (TX azimuth, RX azimuth) pointing pair.

    Delays must be strictly increasing; bins removed by thresholding are
    simply absent, so gaps in the delay axis are legal.
    """

    tx_az_deg: float
    rx_az_deg: float
    delays_ns: tuple[float, ...]
    powers_db: tuple[float, ...]
    noise_floor_db: float

    def __post_init__(self):
        delays = tuple(map(float, self.delays_ns))
        powers = tuple(map(float, self.powers_db))
        object.__setattr__(self, "delays_ns", delays)
        object.__setattr__(self, "powers_db", powers)
        for name in ("tx_az_deg", "rx_az_deg"):
            az = getattr(self, name)
            if not 0.0 <= az < 360.0:
                raise ValidationError(name, f"azimuth {az} outside [0, 360)")
        if not delays:
            raise ValidationError("delays_ns", "PDP has no bins")
        if len(powers) != len(delays):
            raise ValidationError("powers_db", "length differs from delays_ns")
        # ge is false when either side is NaN, so a NaN delay is not reported as out of order
        if any(map(operator.ge, delays, delays[1:])):
            raise ValidationError("delays_ns", "delays must be strictly increasing")
        if not all(map(math.isfinite, powers)):
            raise ValidationError("powers_db", "powers must be finite")
        if not math.isfinite(self.noise_floor_db):
            raise ValidationError("noise_floor_db", "must be finite")

    @property
    def direction(self) -> tuple[float, float]:
        return (self.tx_az_deg, self.rx_az_deg)

    @property
    def peak_db(self) -> float:
        return max(self.powers_db)

    def is_detectable(self) -> bool:
        return self.peak_db > self.noise_floor_db

    def detected_bins(self) -> list[tuple[float, float]]:
        """(delay_ns, power_db) of the bins at or above the noise floor.

        Raises NoSignalError when not even the peak clears the floor.
        """
        if not self.is_detectable():
            raise NoSignalError(
                f"({self.tx_az_deg}, {self.rx_az_deg}): peak {self.peak_db:.1f} dB "
                f"does not clear the noise floor {self.noise_floor_db:.1f} dB"
            )
        floor = self.noise_floor_db
        return [(t, p) for t, p in zip(self.delays_ns, self.powers_db) if p >= floor]


def checked_threshold_db(threshold_db: float) -> float:
    """``threshold_db`` itself when it is a usable peak-relative threshold (> 0 dB)."""
    if not threshold_db > 0:
        raise ValidationError("threshold_db", f"must be > 0, got {threshold_db}")
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
    ("delay_ns", lambda delay: ~(np.isfinite(delay) & (delay >= 0.0)), "delay {} must be >= 0".format),
    ("power_db", lambda power: ~np.isfinite(power), lambda power: "power must be finite"),
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
        (
            f"{prefix}hpbw_deg", rows, ~((0.0 < hpbw) & (hpbw <= step) & (step <= 360.0)),
            lambda i: f"need 0 < hpbw_deg <= az_step_deg <= 360, got hpbw={hpbw[i]}, step={step[i]}",
        ),
        (f"{prefix}az_step_deg", rows, uneven, lambda i: f"{step[i]} does not divide 360 evenly"),
    )


def first_flagged(rules: Sequence[tuple]) -> tuple[int, str, str] | None:
    """(location, field, message) of the first location a rule flags, by its first rule and item.

    A rule is ``(field, owner, bad, message)``: ``bad`` flags items, ``owner`` is each
    item's location, non-decreasing, and ``message(item)`` describes a flagged item.
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
    """All sweeps, geometry and polarization setup for one TX-RX pair."""

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
        for name in ("tx_pos_m", "rx_pos_m"):
            pos = getattr(self, name)
            if len(pos) != 3:
                raise ValidationError(name, "position must be a 3-vector")
            pos = tuple(map(float, pos))
            if not all(map(math.isfinite, pos)):
                raise ValidationError(name, f"position {pos} must be finite")
            object.__setattr__(self, name, pos)
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        object.__setattr__(self, "polarization", Polarization(self.polarization))
        if not self.tx_id or not self.rx_id:
            raise ValidationError("tx_id", "tx_id and rx_id must be non-empty")
        if not self.sweeps:
            raise ValidationError("sweeps", "location has no sweeps")
        if self.distance_m <= D0_M:
            raise ValidationError(
                "distance_m",
                f"TX-RX distance {self.distance_m:.3f} m must exceed {D0_M} m",
            )
        if self.distance_m == math.inf:  # finite positions near the float limit
            raise ValidationError("distance_m", "TX-RX distance overflows to inf")
        seen: set[tuple[float, float]] = set()
        for pdp in self.sweeps:
            if pdp.direction in seen:
                raise ValidationError(
                    "sweeps", f"duplicate pointing pair {pdp.direction}"
                )
            seen.add(pdp.direction)

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
    az_step_deg, height_m).  ``of`` is the one conversion from validated
    ``LocationMeasurement`` objects, which ``Campaign`` makes; ``build``
    makes objects back on request.
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
        """The columns of validated location records, in the order given."""
        locs = tuple(locations)
        sweeps = [pdp for loc in locs for pdp in loc.sweeps]

        def antennas(side: str) -> np.ndarray:
            rows = [(a.gain_dbi, a.hpbw_deg, a.az_step_deg, a.height_m) for a in (getattr(l, side) for l in locs)]
            return np.array(rows, dtype=float).reshape(-1, 4)

        def bounds(counts: Iterable[int]) -> np.ndarray:
            return np.concatenate(([0], np.cumsum(np.fromiter(counts, dtype=np.intp))))

        return cls(
            keys=tuple(loc.key for loc in locs),
            tx_pos_m=np.array([loc.tx_pos_m for loc in locs], dtype=float).reshape(-1, 3),
            rx_pos_m=np.array([loc.rx_pos_m for loc in locs], dtype=float).reshape(-1, 3),
            los=np.array([loc.los for loc in locs], dtype=bool),
            tx_antenna=antennas("tx_antenna"),
            rx_antenna=antennas("rx_antenna"),
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
    def sweep_loc(self) -> np.ndarray:
        """The location of each sweep."""
        return np.repeat(np.arange(len(self)), np.diff(self.sweep_bounds))

    @cached_property
    def peak_db(self) -> np.ndarray:
        """``DirectionalPdp.peak_db`` of each sweep."""
        return np.maximum.reduceat(self.power_db, self.tap_bounds[:-1])

    @cached_property
    def detectable(self) -> np.ndarray:
        """``DirectionalPdp.is_detectable`` of each sweep."""
        return self.peak_db > self.noise_floor_db

    def first_fault(self, delay_resolution_ns: float) -> tuple[int, str, str] | None:
        """(row, field, message) of the first location that breaks a data-model rule, or None.

        Within a location the rules run in the order of the table below;
        ``delay_resolution_ns`` must be > 0 and finite, else ValidationError.
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
            ("tx_pos_m", rows, ~np.isfinite(self.tx_pos_m).all(axis=1),
             lambda i: f"position {tuple(self.tx_pos_m[i].tolist())} must be finite"),
            ("rx_pos_m", rows, ~np.isfinite(self.rx_pos_m).all(axis=1),
             lambda i: f"position {tuple(self.rx_pos_m[i].tolist())} must be finite"),
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
        """The ``LocationMeasurement`` of each of ``rows``, validated by its constructor."""
        # every column but ``keys``, as lists, in field order
        tx_pos, rx_pos, los, tx_antenna, rx_antenna, tx_power, sweeps, tx_az, rx_az, floor, taps, delay, power = (
            getattr(self, f.name).tolist() for f in fields(self)[1:]
        )
        rows = list(rows)
        # locations with equal antennas share one record
        antenna = {row: AntennaConfig(*row) for row in {tuple(a[i]) for a in (tx_antenna, rx_antenna) for i in rows}}
        return tuple(
            LocationMeasurement(
                *self.keys[i][:2],
                tx_pos_m=tuple(tx_pos[i]),
                rx_pos_m=tuple(rx_pos[i]),
                polarization=self.keys[i][2],
                los=los[i],
                sweeps=tuple(
                    DirectionalPdp(
                        tx_az[s], rx_az[s], delay[taps[s] : taps[s + 1]], power[taps[s] : taps[s + 1]], floor[s]
                    )
                    for s in range(sweeps[i], sweeps[i + 1])
                ),
                tx_antenna=antenna[tuple(tx_antenna[i])],
                rx_antenna=antenna[tuple(rx_antenna[i])],
                tx_power_dbm=tx_power[i],
            )
            for i in rows
        )


class TapTable:
    """The above-floor bins of some locations' detectable sweeps, as flat columns.

    Built from ``LocationColumns`` and the rows of the locations it
    covers (all of them when ``rows`` is None), in the order given.  Tap
    columns (``tap_*``, ``delay_ns``, ``power_db``, ``power_mw``) run in
    location -> sweep -> delay order, sweep columns in location -> sweep
    order, and location columns in table order.  Only sweeps whose peak
    clears the floor get a row, and only their ``detected_bins``, so a
    location without signal has no sweep rows (``n_sweeps`` 0).

    ``power_mw`` is ``db_to_linear_array`` of ``power_db``: the scalar
    ``db_to_linear`` of each tap, bit for bit, as a C-level ``math.pow``
    map.  ``np.power`` differs from it in the last bit on some values,
    which flips exact 30 dB ties, so it is not used.  Derived columns of a
    higher layer are computed once per table through ``kept``.
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

        first = columns.sweep_bounds[rows]
        sweep_count = columns.sweep_bounds[rows + 1] - first
        sweeps = concat_ranges(first, sweep_count)
        detectable = columns.detectable[sweeps]
        sweeps = sweeps[detectable]
        self.sweep_loc = np.repeat(np.arange(len(rows)), sweep_count)[detectable]
        self.tx_az_deg = columns.tx_az_deg[sweeps]
        self.rx_az_deg = columns.rx_az_deg[sweeps]
        self.n_sweeps = np.bincount(self.sweep_loc, minlength=len(rows))

        first = columns.tap_bounds[sweeps]
        tap_count = columns.tap_bounds[sweeps + 1] - first
        taps = concat_ranges(first, tap_count)
        tap_sweep = np.repeat(np.arange(len(sweeps)), tap_count)
        above = columns.power_db[taps] >= columns.noise_floor_db[sweeps][tap_sweep]
        self.tap_sweep = tap_sweep[above]
        self.tap_loc = self.sweep_loc[self.tap_sweep]
        self.delay_ns = columns.delay_ns[taps[above]]
        self.power_db = columns.power_db[taps[above]]
        self.power_mw = db_to_linear_array(self.power_db)
        self.peak_db = columns.peak_db[sweeps]
        self._kept: dict[Callable, object] = {}

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
