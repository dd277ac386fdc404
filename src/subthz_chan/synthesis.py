"""Parametric drop synthesis and rendering into measurement campaigns.

A drop is one statistical realization of the channel at a given TX-RX
separation: a close-in path loss with lognormal shadowing, a Poisson-ish
number of spatial lobes on the azimuth grid, a few-tap delay profile per
lobe whose spread follows a lognormal law, and per-tap cross-polar
discrimination drawn by propagation mechanism.  ``render_campaign`` lays
drops out as TX/RX placements on a floor plan and writes them through
the standard campaign format so the analysis side can re-ingest them.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .campaign_io import Campaign, json_template, write_campaign
from .measurement import (
    D0_M,
    DEFAULT_DELAY_RESOLUTION_NS,
    RX_HEIGHT_M,
    SPEED_OF_LIGHT_M_S,
    TX_HEIGHT_M,
    AntennaConfig,
    LocationColumns,
    Polarization,
    ValidationError,
    checked_delay_resolution,
    concat_ranges,
    db_to_linear_array,
    linear_to_db_array,
)
from .pathloss import fspl
from .xpd import PathClass

_SPEED_OF_LIGHT_M_NS = SPEED_OF_LIGHT_M_S * 1e-9

#: sub-tap sitting one delay bin after a lobe's main tap, 27 dB down; keeps
#: the main cluster steep so directional XPD recovery stays close to the
#: per-tap law
_SUB_TAP_REL = 10.0 ** -2.7
#: weight of the faint far tap whose position realizes the drawn per-lobe
#: delay spread
_FAR_TAP_REL = 2e-3
#: below this relative weight a sub-tap adds nothing measurable; drop it
_MIN_SUB_TAP_REL = 1e-9
#: cap on how far out the spread-setting tap may sit
_MAX_FAR_TAP_NS = 1000.0
#: successive lobes lose this much integrated power
_LOBE_STEP_DB = 3.0
#: mean excess delay of reflected lobes over the direct propagation time
_REFLECTION_EXCESS_MEAN_NS = 60.0

#: no placement is shorter than the gap between the antenna heights
_HEIGHT_GAP_M = TX_HEIGHT_M - RX_HEIGHT_M

#: noise floor written into rendered files sits this far under the
#: faintest synthesized tap, so every tap stays detectable on re-ingest
_FLOOR_MARGIN_DB = 6.0

#: the most one knob may move a rendered tap's power: with five knobs adding up along a tap (carrier,
#: PLE, shadowing, XPD, lobe count), 54 dBi of gains and weights down to -93 dB, taps stay in ``DB_LIMIT``
_MAX_KNOB_DB = 150.0
#: the finest delay lattice, in float spacings at the far-end direct delay plus the far
#: tap's cap: taps one bin apart then stay distinct floats out to 2**10 times that
#: delay, far beyond any reflection excess a drop draws
_MIN_LATTICE_ULPS = 2.0**10


@dataclass(frozen=True)
class XpdLaw:
    """Normal law for per-tap cross-polar discrimination in dB."""

    mean_db: float
    std_db: float

    def __post_init__(self):
        if not math.isfinite(self.mean_db):
            raise ValidationError("mean_db", "must be finite")
        if not self.std_db >= 0:
            raise ValidationError("std_db", f"must be >= 0, got {self.std_db}")


@dataclass(frozen=True)
class LobeCountLaw:
    """Shifted-Poisson law for the number of spatial lobes per drop.

    count = min_count + Poisson(mean_count - min_count), clipped to
    max_count.
    """

    mean_count: float
    min_count: int
    max_count: int

    def __post_init__(self):
        if self.min_count < 1:
            raise ValidationError("min_count", "every drop carries at least one lobe")
        if not self.min_count <= self.mean_count <= self.max_count:
            raise ValidationError(
                "mean_count",
                f"need min <= mean <= max, got {self.min_count} / {self.mean_count} / {self.max_count}",
            )


@dataclass(frozen=True)
class RmsdsLaw:
    """Lognormal law for the per-lobe RMS delay spread in ns.

    ``log_mean`` is the natural log of the median spread.
    """

    log_mean: float
    log_std: float

    def __post_init__(self):
        if not math.isfinite(self.log_mean):
            raise ValidationError("log_mean", "must be finite")
        if not self.log_std >= 0:
            raise ValidationError("log_std", f"must be >= 0, got {self.log_std}")


def _default_rmsds_law() -> RmsdsLaw:
    # median 10.4 ns with the log-spread that puts the mean at 16 ns
    return RmsdsLaw(log_mean=math.log(10.4), log_std=math.sqrt(2.0 * math.log(16.0 / 10.4)))


@dataclass(frozen=True)
class SynthesisParams:
    """Knobs of the drop generator, JSON round-trippable."""

    ple: float = 1.86
    nlos_ple: float = 4.58
    shadow_sigma_db: float = 1.5
    xpd_boresight: XpdLaw = field(default_factory=lambda: XpdLaw(26.2, 2.7))
    xpd_reflection: XpdLaw = field(default_factory=lambda: XpdLaw(20.2, 4.3))
    lobe_count_law: LobeCountLaw = field(default_factory=lambda: LobeCountLaw(3.5, 1, 7))
    rmsds_law: RmsdsLaw = field(default_factory=_default_rmsds_law)
    carrier_hz: float = 142e9
    az_step_deg: float = 8.0
    delay_resolution_ns: float = DEFAULT_DELAY_RESOLUTION_NS
    distance_range_m: tuple[float, float] = (6.3, 39.6)

    def __post_init__(self):
        object.__setattr__(self, "distance_range_m", (float(self.distance_range_m[0]), float(self.distance_range_m[1])))
        for name in ("ple", "nlos_ple", "carrier_hz", "az_step_deg", "delay_resolution_ns"):
            if not getattr(self, name) > 0:
                raise ValidationError(name, f"must be > 0, got {getattr(self, name)}")
        if not self.shadow_sigma_db >= 0:
            raise ValidationError("shadow_sigma_db", "must be >= 0")
        lo, hi = self.distance_range_m
        if not max(D0_M, _HEIGHT_GAP_M) < lo < hi:  # a placement spans at least the antenna height gap
            gap = f"the {D0_M:g} m reference distance and the {_HEIGHT_GAP_M:g} m antenna height gap"
            raise ValidationError("distance_range_m", f"need {gap} < low < high, got {self.distance_range_m}")
        if abs(360.0 / self.az_step_deg - round(360.0 / self.az_step_deg)) > 1e-9:
            raise ValidationError("az_step_deg", "must divide 360")
        checked_delay_resolution(self.delay_resolution_ns)
        for name, share_db in (  # how far each knob on its own can move a tap's power
            ("carrier_hz", abs(fspl(self.carrier_hz, D0_M))),
            ("shadow_sigma_db", 10.0 * self.shadow_sigma_db),  # a ten-sigma draw
            ("xpd_boresight", abs(self.xpd_boresight.mean_db) + 10.0 * self.xpd_boresight.std_db),
            ("xpd_reflection", abs(self.xpd_reflection.mean_db) + 10.0 * self.xpd_reflection.std_db),
            ("lobe_count_law", _LOBE_STEP_DB * (self.lobe_count_law.max_count - 1)),  # the faintest lobe
        ):
            if not share_db <= _MAX_KNOB_DB:
                limit = f"over the {_MAX_KNOB_DB:g} dB one knob may"
                raise ValidationError(name, f"{getattr(self, name)} moves tap powers by {share_db:.4g} dB, {limit}")
        self._check_far_end(hi)
        # greedy non-adjacent lobe placement removes at most 3 grid bins
        # per placed lobe, so this bound keeps placement always feasible
        if self.lobe_count_law.max_count > self.n_az_bins // 3:
            raise ValidationError(
                "lobe_count_law",
                f"max_count {self.lobe_count_law.max_count} exceeds {self.n_az_bins // 3} "
                f"placeable lobes on a {self.n_az_bins}-bin grid",
            )

    def _check_far_end(self, far_m: float, field_name: str | None = None) -> None:
        """ValidationError naming ``field_name``, else the knob, if a drop drawn ``far_m`` metres out would have the
        spreading or a PLE move a tap's power by over ``_MAX_KNOB_DB``, or delays the lattice cannot resolve."""
        decades = math.log10(far_m / D0_M)
        for name, share_db in (
            ("distance_range_m", 20.0 * decades),
            ("ple", 10.0 * self.ple * decades),
            ("nlos_ple", 10.0 * self.nlos_ple * decades),
        ):
            if not share_db <= _MAX_KNOB_DB:
                knob = f"{far_m} m" if name == "distance_range_m" else f"{name} {getattr(self, name)} to {far_m} m"
                limit = f"over the {_MAX_KNOB_DB:g} dB one knob may"
                raise ValidationError(field_name or name, f"{knob} moves tap powers by {share_db:.4g} dB, {limit}")
        # a lattice finer than the float spacing of the delays it reaches would merge adjacent taps
        res = self.delay_resolution_ns
        far_ns = far_m / _SPEED_OF_LIGHT_M_NS + _MAX_FAR_TAP_NS
        finest_ns = _MIN_LATTICE_ULPS * math.ulp(far_ns)
        if not res >= finest_ns:
            message = f"{res} ns cannot resolve delays near {far_ns:.4g} ns; need >= {finest_ns:.3g} ns"
            raise ValidationError(field_name or "delay_resolution_ns", message)

    @property
    def n_az_bins(self) -> int:
        return round(360.0 / self.az_step_deg)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SynthesisParams":
        """Parameters from their JSON object; ValidationError names the first malformed field.

        Numbers must be JSON numbers (not booleans), lobe counts
        integer-valued, each law an object with exactly its own keys, and
        the distance range a two-number list.
        """
        if not isinstance(doc, dict):
            raise ValidationError("params", f"expected a JSON object, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValidationError("params", f"unknown fields: {sorted(unknown)}")
        kwargs = {}
        for name, value in doc.items():
            law = _LAWS.get(name)
            if law is not None:
                kwargs[name] = _json_law(law, value, name)
            elif name == "distance_range_m":
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise ValidationError(name, f"expected a [low, high] list, got {_json(value)}")
                kwargs[name] = tuple(_json_number(v, name) for v in value)
            else:
                kwargs[name] = _json_number(value, name)
        return cls(**kwargs)


_LAWS = {"xpd_boresight": XpdLaw, "xpd_reflection": XpdLaw, "lobe_count_law": LobeCountLaw, "rmsds_law": RmsdsLaw}

#: law fields that hold a count, so must be integer-valued
_COUNTS = {"min_count", "max_count"}


def _json(value) -> str:
    return json.dumps(value, default=repr)


def _json_number(value, field: str):
    """``value`` when it is a JSON number and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {_json(value)}")
    return value


def _json_law(law: type, doc, field: str):
    """``law`` built from its JSON object, which must hold exactly the law's keys."""
    keys = list(law.__dataclass_fields__)
    if not isinstance(doc, dict) or set(doc) != set(keys):
        raise ValidationError(field, f"expected an object with the keys {keys}, got {_json(doc)}")
    values = {}
    for key in keys:
        value = _json_number(doc[key], f"{field}.{key}")
        if key in _COUNTS:
            if isinstance(value, float) and not value.is_integer():
                raise ValidationError(f"{field}.{key}", f"expected an integer, got {_json(value)}")
            value = int(value)
        values[key] = value
    return law(**values)


def _lobe_tap_profile(target_rmsds_ns: float, res_ns: float) -> list[tuple[float, float]]:
    """Relative tap layout (delay offset, weight) realizing a delay spread.

    The cluster is a dominant tap, a 27 dB-down tap one bin later, and,
    when the target spread calls for it, a faint far tap whose offset is
    the positive root of the second-central-moment equation.  Targets
    below what the two-bin cluster alone can produce fall back to a
    two-tap profile with the decay solved directly.
    """
    r = _SUB_TAP_REL
    wf = _FAR_TAP_REL
    two_tap_max = res_ns * math.sqrt(r) / (1.0 + r)
    if target_rmsds_ns <= two_tap_max:
        q = target_rmsds_ns / res_ns
        if q <= 0:
            return [(0.0, 1.0)]
        u = (1.0 - math.sqrt(1.0 - 4.0 * q * q)) / (2.0 * q)
        r2 = u * u
        if r2 < _MIN_SUB_TAP_REL:
            return [(0.0, 1.0)]
        return [(0.0, 1.0), (res_ns, r2)]
    total = 1.0 + r + wf
    a = wf * (total - wf)
    b = -2.0 * r * res_ns * wf
    c = r * res_ns * res_ns * (total - r) - target_rmsds_ns**2 * total**2
    disc = max(b * b - 4.0 * a * c, 0.0)
    far = (-b + math.sqrt(disc)) / (2.0 * a)
    far = min(far, _MAX_FAR_TAP_NS)
    far = max(2.0 * res_ns, res_ns * round(far / res_ns))
    return [(0.0, 1.0), (res_ns, r), (far, wf)]


def _draw_lobe_centers(rng: np.random.Generator, nbins: int, count: int, fix_first: bool) -> list[int]:
    """Distinct, circularly non-adjacent grid indices; index 0 first if fixed.

    Non-adjacency keeps every lobe its own contiguous run when the
    spectrum is re-analyzed.  Each placement removes at most three bins
    from the pool, so count <= nbins // 3 never dead-ends.
    """
    chosen: list[int] = []
    allowed = set(range(nbins))

    def take(idx: int) -> None:
        chosen.append(idx)
        allowed.difference_update({(idx - 1) % nbins, idx, (idx + 1) % nbins})

    if fix_first:
        take(0)
    while len(chosen) < count:
        pool = sorted(allowed)
        # the draw ``rng.choice(pool)`` makes, without its array conversion
        take(pool[int(rng.integers(0, len(pool)))])
    return chosen


@dataclass(frozen=True, eq=False)
class DropColumns:
    """Drops, their lobes and the lobes' taps as flat read-only columns: the generator's ground truth.

    Drop ``i`` owns lobes ``lobe_bounds[i]:lobe_bounds[i + 1]`` and lobe ``l`` taps
    ``tap_bounds[l]:tap_bounds[l + 1]``, in draw order.  Tap powers are linear, before
    antenna gains; ``boresight`` marks a tap's path class (else a reflection).
    """

    # per tap
    delay_ns: np.ndarray
    power_mw: np.ndarray
    xpd_db: np.ndarray
    boresight: np.ndarray
    # per lobe
    center_deg: np.ndarray
    tap_bounds: np.ndarray
    # per drop
    distance_m: np.ndarray
    los: np.ndarray
    seed: np.ndarray
    pl_db: np.ndarray
    lobe_bounds: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, DropColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @cached_property
    def omni_xpd_db(self) -> np.ndarray:
        """Each drop's co- to cross-polar power after omni recombination, in dB: builtin ``sum``s
        per lobe, then per drop, over cross powers mapped through ``math.pow``, as the truth file has it."""
        taps, lobes, power = self.tap_bounds.tolist(), self.lobe_bounds.tolist(), self.power_mw.tolist()
        cross = (self.power_mw * db_to_linear_array(-self.xpd_db)).tolist()
        lobe_power = [sum(power[a:b]) for a, b in zip(taps, taps[1:])]
        ratios = [sum(lobe_power[a:b]) / sum(cross[taps[a] : taps[b]]) for a, b in zip(lobes, lobes[1:])]
        return _read_only([10.0 * math.log10(ratio) for ratio in ratios], float)


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def draw_drops(
    params: SynthesisParams, distances_m: Sequence[float], seeds: Sequence[int], los: Sequence[bool]
) -> DropColumns:
    """Drop ``i`` drawn ``distances_m[i]`` out from ``seeds[i]``, LOS when ``los[i]``, for each ``i``.

    Each drop draws from its own seed in a fixed order (shadowing, lobe count,
    lobe centres, then per lobe: excess delay, target spread, per-tap XPDs), so
    a seed pins its drop whatever is drawn beside it.  ``render_campaign`` draws through this.
    """
    distances_m, seeds, los = list(distances_m), list(seeds), list(los)
    if not len(distances_m) == len(seeds) == len(los):
        counts = f"{len(distances_m)} distances, {len(seeds)} seeds and {len(los)} LOS flags"
        raise ValidationError("seeds", f"need one seed and one LOS flag per distance, got {counts}")
    for i, (distance_m, seed) in enumerate(zip(distances_m, seeds)):
        if not distance_m > D0_M:
            raise ValidationError(f"distances_m[{i}]", f"must exceed {D0_M:g} m, got {distance_m}")
        params._check_far_end(distance_m, f"distances_m[{i}]")
        if not 0 <= seed < 2**63:
            raise ValidationError(f"seeds[{i}]", f"must lie in [0, 2**63), got {seed}")
    res = params.delay_resolution_ns
    law = params.lobe_count_law
    delays, powers, xpds, boresight = [], [], [], []  # per tap
    centers_deg, tap_bounds = [], [0]  # per lobe
    pls, lobe_bounds = [], [0]  # per drop
    for distance_m, seed, is_los in zip(distances_m, seeds, los):
        rng = np.random.default_rng(seed)
        ple = params.ple if is_los else params.nlos_ple
        shadow = rng.normal(0.0, params.shadow_sigma_db)
        pl_db = fspl(params.carrier_hz, D0_M) + 10.0 * ple * math.log10(distance_m / D0_M) + shadow
        n_lobes = min(law.min_count + int(rng.poisson(law.mean_count - law.min_count)), law.max_count)
        centers = _draw_lobe_centers(rng, params.n_az_bins, n_lobes, fix_first=is_los)
        direct_delay = res * round(distance_m / _SPEED_OF_LIGHT_M_NS / res)
        # the drop's taps hold relative weights until its scale turns them into linear powers
        first = len(powers)
        total_rel = 0.0
        for k, idx in enumerate(centers):
            on_boresight = is_los and k == 0
            if on_boresight:
                lobe_delay = direct_delay
            else:
                excess = rng.exponential(_REFLECTION_EXCESS_MEAN_NS)
                lobe_delay = direct_delay + res * max(1, round(excess / res))
            target = rng.lognormal(params.rmsds_law.log_mean, params.rmsds_law.log_std)
            lobe_rel = 10.0 ** (-_LOBE_STEP_DB * k / 10.0)
            for j, (offset, rel) in enumerate(_lobe_tap_profile(target, res)):
                tap_on_boresight = on_boresight and j == 0
                xpd_law = params.xpd_boresight if tap_on_boresight else params.xpd_reflection
                xpds.append(float(rng.normal(xpd_law.mean_db, xpd_law.std_db)))
                boresight.append(tap_on_boresight)
                weight = lobe_rel * rel
                delays.append(lobe_delay + offset)
                powers.append(weight)
                total_rel += weight
            centers_deg.append(idx * params.az_step_deg)
            tap_bounds.append(len(delays))
        scale = 10.0 ** (-pl_db / 10.0) / total_rel
        powers[first:] = [weight * scale for weight in powers[first:]]
        pls.append(pl_db)
        lobe_bounds.append(len(centers_deg))
    return DropColumns(
        delay_ns=_read_only(delays, float),
        power_mw=_read_only(powers, float),
        xpd_db=_read_only(xpds, float),
        boresight=_read_only(boresight, bool),
        center_deg=_read_only(centers_deg, float),
        tap_bounds=_read_only(tap_bounds, np.intp),
        distance_m=_read_only(distances_m, float),
        los=_read_only(los, bool),
        seed=_read_only(seeds, np.int64),
        pl_db=_read_only(pls, float),
        lobe_bounds=_read_only(lobe_bounds, np.intp),
    )


@dataclass(frozen=True)
class LayoutEntry:
    """One TX-RX placement to render; distance None means draw it."""

    tx_id: str
    rx_id: str
    distance_m: float | None = None
    los: bool = True


def factory_campaign_layout() -> tuple[LayoutEntry, ...]:
    """A small fixed floor plan: 13 placements, 5 TX spots, 2 of them NLOS."""
    pairs = [
        ("TX1", "RX1", True),
        ("TX1", "RX2", True),
        ("TX1", "RX3", True),
        ("TX2", "RX4", True),
        ("TX2", "RX5", True),
        ("TX2", "RX6", False),
        ("TX3", "RX7", True),
        ("TX3", "RX8", False),
        ("TX4", "RX9", True),
        ("TX4", "RX10", True),
        ("TX5", "RX2", True),
        ("TX5", "RX5", True),
        ("TX5", "RX9", True),
    ]
    distances = np.linspace(6.3, 39.6, len(pairs))
    return tuple(
        LayoutEntry(tx, rx, float(d), los) for (tx, rx, los), d in zip(pairs, distances)
    )


def _rendered_columns(
    layout: tuple[LayoutEntry, ...],
    drops: DropColumns,
    tx_antenna: AntennaConfig,
    rx_antenna: AntennaConfig,
    tx_power_dbm: float,
) -> LocationColumns:
    """The V-V and V-H location of each placement, sorted by (tx_id, rx_id, polarization).

    Placement ``i`` puts its RX at (0, 10 i, h_rx) and its TX across the aisle.
    Each lobe is one pointing sweep holding the lobe's taps; a V-V tap's
    power is the tap's received power plus both antenna gains, its V-H twin
    sits the tap's XPD lower, and each location's noise floor sits
    ``_FLOOR_MARGIN_DB`` under its faintest tap.
    """
    vv_db = linear_to_db_array(drops.power_mw) + tx_antenna.gain_dbi + rx_antenna.gain_dbi
    power = np.stack((vv_db, vv_db - drops.xpd_db))  # rows: V-V, V-H
    rx_az = drops.center_deg
    tx_az = (180.0 - rx_az) % 360.0
    tap_bounds, lobe_bounds = drops.tap_bounds, drops.lobe_bounds
    lobe_taps = np.diff(tap_bounds)
    tap_starts = tap_bounds[lobe_bounds]
    floors = np.minimum.reduceat(power, tap_starts[:-1], axis=1) - _FLOOR_MARGIN_DB

    gap = _HEIGHT_GAP_M
    distances = drops.distance_m.tolist()
    tx_pos = [(math.sqrt(d * d - gap * gap), 10.0 * i, tx_antenna.height_m) for i, d in enumerate(distances)]
    rx_pos = [(0.0, 10.0 * i, rx_antenna.height_m) for i in range(len(layout))]
    # location k is placement k // 2 in polarization k % 2 before the stable sort
    pols = (Polarization.VV, Polarization.VH)
    ids = [(entry.tx_id, entry.rx_id) for entry in layout]
    order = sorted(range(2 * len(layout)), key=lambda k: (*ids[k // 2], pols[k % 2].value))
    place, pol = np.divmod(np.array(order, dtype=np.intp), 2)
    n_lobes = np.diff(lobe_bounds)[place]
    sweeps = concat_ranges(lobe_bounds[place], n_lobes)
    n_taps = tap_starts[place + 1] - tap_starts[place]
    tap_rows = concat_ranges(tap_starts[place], n_taps)
    return LocationColumns(
        keys=tuple((*ids[i], pols[j]) for i, j in zip(place.tolist(), pol.tolist())),
        tx_pos_m=np.array(tx_pos, dtype=float)[place],
        rx_pos_m=np.array(rx_pos, dtype=float)[place],
        los=drops.los[place],
        tx_antenna=np.full((len(place), 4), astuple(tx_antenna), dtype=float),
        rx_antenna=np.full((len(place), 4), astuple(rx_antenna), dtype=float),
        tx_power_dbm=np.full(len(place), tx_power_dbm, dtype=float),
        sweep_bounds=np.concatenate(([0], np.cumsum(n_lobes))),
        tx_az_deg=tx_az[sweeps],
        rx_az_deg=rx_az[sweeps],
        noise_floor_db=np.repeat(floors[pol, place], n_lobes),
        tap_bounds=np.concatenate(([0], np.cumsum(lobe_taps[sweeps]))),
        delay_ns=drops.delay_ns[tap_rows],
        power_db=power[np.repeat(pol, n_taps), tap_rows],
    )


@dataclass(frozen=True)
class RenderedCampaign:
    """Where a synthesized campaign landed on disk, plus its ground truth: the
    drops the render drew, one per placement in layout order."""

    manifest_path: Path
    truth: DropColumns = field(repr=False, hash=False)

    def truth_json(self) -> str:
        """The ``synth --truth-out`` document, laid out by ``json_template`` from the truth columns in the bytes
        of ``json.dumps(..., indent=2, sort_keys=True)``: a list of drops, each with its lobes, each with its
        taps; ``omni_xpd_db`` is written as ``effective_omni_xpd_db`` and ``boresight`` as ``path_class``."""
        t = self.truth
        taps, lobes = t.tap_bounds.tolist(), t.lobe_bounds.tolist()
        class_json = [f'"{c.value}"' for c in (PathClass.REFLECTION, PathClass.BORESIGHT)]  # by boresight flag
        classes = [class_json[flag] for flag in t.boresight.tolist()]
        drop_keys = ("distance_m", "effective_omni_xpd_db", "los", "pl_db", "seed")
        tap = "\n          " + json_template(dict.fromkeys(("delay_ns", "path_class", "power_mw", "xpd_db"), "%s"), 5)[0]
        lobe = "\n      " + "%s".join(json_template({"center_deg": "%s", "taps": [None]}, 3))
        drop = "\n  " + "%s".join(json_template({**dict.fromkeys(drop_keys, "%s"), "lobes": [None]}, 1))
        tap_docs = list(map(tap.__mod__, zip(t.delay_ns.tolist(), classes, t.power_mw.tolist(), t.xpd_db.tolist())))
        centers = t.center_deg.tolist()
        lobe_docs = [lobe % (center, ",".join(tap_docs[a:b])) for center, a, b in zip(centers, taps, taps[1:])]
        per_drop = (t.distance_m, t.omni_xpd_db, t.los, t.pl_db, t.seed)
        drops = zip(*(column.tolist() for column in per_drop), lobes, lobes[1:])
        drop_docs = [
            drop % (distance, xpd, ",".join(lobe_docs[a:b]), ("false", "true")[los], pl_db, seed)
            for distance, xpd, los, pl_db, seed, a, b in drops
        ]
        return "[" + ",".join(drop_docs) + "\n]"


def render_campaign(
    params: SynthesisParams,
    n_locations: int | None,
    seed: int,
    out_dir: Path | str,
    layout: Sequence[LayoutEntry] | None = None,
    tx_power_dbm: float = 0.0,
    campaign_id: str = "synthetic-factory-142ghz",
) -> RenderedCampaign:
    """Render drops into a campaign on disk, both polarizations per drop.

    Placements sit on parallel aisles: RX i at (0, 10 i, 1.5) m and its
    TX across the aisle at matching height 3 m, which puts the direct
    path on the azimuth grid of both antennas.  One drop per placement
    feeds the V-V sweeps directly and the V-H sweeps via per-tap XPD.
    Distances are drawn uniformly over ``params.distance_range_m`` for
    entries that do not pin one.
    """
    if seed < 0:
        raise ValidationError("seed", f"must be >= 0, got {seed}")
    if layout is not None:
        layout = tuple(layout)
        if n_locations is not None and n_locations != len(layout):
            raise ValidationError("n_locations", f"layout holds {len(layout)} entries, not {n_locations}")
        if not layout:
            raise ValidationError("layout", "need at least one entry")
    else:
        if n_locations is None or n_locations < 1:
            raise ValidationError("n_locations", "need a positive count or an explicit layout")
        layout = tuple(LayoutEntry(f"TX{i + 1:04d}", f"RX{i + 1:04d}") for i in range(n_locations))

    master = np.random.default_rng(seed)
    lo, hi = params.distance_range_m
    # drawn unconditionally so pinned-distance layouts share the seed stream
    drawn = master.uniform(lo, hi, len(layout)).tolist()
    drop_seeds = master.integers(0, 2**63 - 1, len(layout)).tolist()

    step = params.az_step_deg
    tx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=TX_HEIGHT_M)
    rx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=RX_HEIGHT_M)

    distances = [drawn[i] if entry.distance_m is None else entry.distance_m for i, entry in enumerate(layout)]
    for i, entry in enumerate(layout):  # a drawn distance lies within the range's checked ends
        name, d = f"layout[{i}].distance_m", entry.distance_m
        if d is not None and not d > _HEIGHT_GAP_M:
            raise ValidationError(name, f"{d} m is shorter than the {_HEIGHT_GAP_M:g} m antenna height gap")
        if d is not None:
            params._check_far_end(d, name)
    truth = draw_drops(params, distances, drop_seeds, [entry.los for entry in layout])

    campaign = Campaign(
        campaign_id=campaign_id,
        carrier_hz=params.carrier_hz,
        tx_power_dbm=tx_power_dbm,
        locations=_rendered_columns(layout, truth, tx_antenna, rx_antenna, tx_power_dbm),
        delay_resolution_ns=params.delay_resolution_ns,
    )
    manifest_path = write_campaign(campaign, Path(out_dir))
    return RenderedCampaign(manifest_path, truth)
