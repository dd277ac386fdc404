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
from dataclasses import asdict, astuple, dataclass, field
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .campaign_io import Campaign, json_template, write_campaign
from .measurement import (
    D0_M,
    DEFAULT_DELAY_RESOLUTION_NS,
    SPEED_OF_LIGHT_M_S,
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
        if not D0_M < lo < hi:
            raise ValidationError("distance_range_m", f"need {D0_M:g} < low < high, got {self.distance_range_m}")
        if abs(360.0 / self.az_step_deg - round(360.0 / self.az_step_deg)) > 1e-9:
            raise ValidationError("az_step_deg", "must divide 360")
        decades = math.log10(hi / D0_M)
        for name, share_db in (  # how far each knob on its own can move a tap's power
            ("carrier_hz", abs(fspl(self.carrier_hz, D0_M))),
            ("distance_range_m", 20.0 * decades),  # free-space spreading to the far end
            ("ple", 10.0 * self.ple * decades),
            ("nlos_ple", 10.0 * self.nlos_ple * decades),
            ("shadow_sigma_db", 10.0 * self.shadow_sigma_db),  # a ten-sigma draw
            ("xpd_boresight", abs(self.xpd_boresight.mean_db) + 10.0 * self.xpd_boresight.std_db),
            ("xpd_reflection", abs(self.xpd_reflection.mean_db) + 10.0 * self.xpd_reflection.std_db),
            ("lobe_count_law", _LOBE_STEP_DB * (self.lobe_count_law.max_count - 1)),  # the faintest lobe
        ):
            if not share_db <= _MAX_KNOB_DB:
                limit = f"over the {_MAX_KNOB_DB:g} dB one knob may"
                raise ValidationError(name, f"{getattr(self, name)} moves tap powers by {share_db:.4g} dB, {limit}")
        # a lattice finer than the float spacing of the delays it reaches would merge adjacent taps
        res = checked_delay_resolution(self.delay_resolution_ns)
        far_ns = hi / _SPEED_OF_LIGHT_M_NS + _MAX_FAR_TAP_NS
        finest_ns = _MIN_LATTICE_ULPS * math.ulp(far_ns)
        if not res >= finest_ns:
            raise ValidationError(
                "delay_resolution_ns", f"{res} ns cannot resolve delays near {far_ns:.4g} ns; need >= {finest_ns:.3g} ns"
            )
        # greedy non-adjacent lobe placement removes at most 3 grid bins
        # per placed lobe, so this bound keeps placement always feasible
        if self.lobe_count_law.max_count > self.n_az_bins // 3:
            raise ValidationError(
                "lobe_count_law",
                f"max_count {self.lobe_count_law.max_count} exceeds {self.n_az_bins // 3} "
                f"placeable lobes on a {self.n_az_bins}-bin grid",
            )

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


@dataclass(frozen=True)
class SynthTap:
    """One synthesized delay tap inside a lobe."""

    delay_ns: float
    power_mw: float
    xpd_db: float
    path_class: PathClass

    def __post_init__(self):
        object.__setattr__(self, "path_class", PathClass(self.path_class))
        if self.delay_ns < 0:
            raise ValidationError("delay_ns", "must be >= 0")
        if not self.power_mw > 0:
            raise ValidationError("power_mw", "must be > 0")
        if not math.isfinite(self.xpd_db):
            raise ValidationError("xpd_db", "must be finite")


@dataclass(frozen=True)
class SynthLobe:
    """A spatial lobe: one azimuth bin holding a short tap cluster."""

    center_deg: float
    taps: tuple[SynthTap, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(self.taps))
        if not 0.0 <= self.center_deg < 360.0:
            raise ValidationError("center_deg", "must lie in [0, 360)")
        if not self.taps:
            raise ValidationError("taps", "a lobe needs at least one tap")
        delays = [t.delay_ns for t in self.taps]
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValidationError("taps", "tap delays must be strictly increasing")

    @property
    def power_mw(self) -> float:
        return sum(t.power_mw for t in self.taps)


@dataclass(frozen=True)
class ChannelDrop:
    """One synthesized channel realization with its ground truth."""

    distance_m: float
    pl_db: float
    los: bool
    seed: int
    lobes: tuple[SynthLobe, ...]

    def __post_init__(self):
        object.__setattr__(self, "lobes", tuple(self.lobes))
        if not self.distance_m > D0_M:
            raise ValidationError("distance_m", f"must exceed {D0_M:g} m, got {self.distance_m}")
        if not math.isfinite(self.pl_db):
            raise ValidationError("pl_db", "must be finite")
        if not self.lobes:
            raise ValidationError("lobes", "a drop needs at least one lobe")

    @property
    def total_power_mw(self) -> float:
        return sum(lobe.power_mw for lobe in self.lobes)

    @property
    def effective_omni_xpd_db(self) -> float:
        """Cross-to-co ratio of the whole drop after omni recombination.

        ``RenderedCampaign.truth_json`` adds up the same sums in the same
        order from the drop columns; keep the two in step."""
        co = self.total_power_mw
        cross = sum(t.power_mw * 10.0 ** (-t.xpd_db / 10.0) for lobe in self.lobes for t in lobe.taps)
        return 10.0 * math.log10(co / cross)


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


class _Drops:
    """Drops drawn straight into campaign-wide columns, one drop after another.

    Lobe ``l`` holds taps ``tap_bounds[l]:tap_bounds[l + 1]`` and drop ``i``
    lobes ``lobe_bounds[i]:lobe_bounds[i + 1]``.  ``records`` builds the
    drops' records; drops compare equal when every column is equal.
    """

    def __init__(self, params: SynthesisParams):
        self.params = params
        self.delay_ns, self.power_mw, self.xpd_db = [], [], []  # per tap
        self.center_deg, self.tap_bounds = [], [0]  # per lobe
        self.distance_m, self.los, self.seed, self.pl_db, self.lobe_bounds = [], [], [], [], [0]  # per drop

    def __eq__(self, other) -> bool:
        return type(other) is _Drops and vars(self) == vars(other)

    def draw(self, distance_m: float, seed: int, los: bool) -> None:
        """Append one drop.  Draw order is fixed (shadowing, lobe count, lobe
        centers, then per lobe: excess delay, target spread, per-tap XPDs), so
        a seed pins the drop exactly."""
        if not distance_m > D0_M:
            raise ValidationError("distance_m", f"must exceed {D0_M:g} m, got {distance_m}")
        if seed < 0:
            raise ValidationError("seed", f"must be >= 0, got {seed}")
        params = self.params
        rng = np.random.default_rng(seed)
        res = params.delay_resolution_ns

        ple = params.ple if los else params.nlos_ple
        shadow = rng.normal(0.0, params.shadow_sigma_db)
        pl_db = fspl(params.carrier_hz, D0_M) + 10.0 * ple * math.log10(distance_m / D0_M) + shadow

        law = params.lobe_count_law
        n_lobes = law.min_count + int(rng.poisson(law.mean_count - law.min_count))
        n_lobes = min(n_lobes, law.max_count)

        centers = _draw_lobe_centers(rng, params.n_az_bins, n_lobes, fix_first=los)
        direct_delay = res * round(distance_m / _SPEED_OF_LIGHT_M_NS / res)

        # the drop's taps hold relative weights until its scale turns them into linear powers
        delays, weights, xpds = self.delay_ns, self.power_mw, self.xpd_db
        first = len(weights)
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
            for j, (offset, rel) in enumerate(_lobe_tap_profile(target, res)):
                xpd_law = params.xpd_boresight if on_boresight and j == 0 else params.xpd_reflection
                xpds.append(float(rng.normal(xpd_law.mean_db, xpd_law.std_db)))
                weight = lobe_rel * rel
                delays.append(lobe_delay + offset)
                weights.append(weight)
                total_rel += weight
            self.center_deg.append(idx * params.az_step_deg)
            self.tap_bounds.append(len(delays))
        scale = 10.0 ** (-pl_db / 10.0) / total_rel
        weights[first:] = [weight * scale for weight in weights[first:]]
        self.lobe_bounds.append(len(self.center_deg))
        self.distance_m.append(distance_m)
        self.los.append(los)
        self.seed.append(seed)
        self.pl_db.append(pl_db)

    def path_classes(self) -> list[PathClass]:
        """The class of each tap: the first tap of a LOS drop is boresight, every other one a reflection."""
        classes = [PathClass.REFLECTION] * len(self.delay_ns)
        for lobe in compress(self.lobe_bounds, self.los):
            classes[self.tap_bounds[lobe]] = PathClass.BORESIGHT
        return classes

    def records(self) -> tuple[ChannelDrop, ...]:
        """The ``ChannelDrop`` of each drop, with its lobes and taps."""
        taps, lobes = self.tap_bounds, self.lobe_bounds
        tap_records = list(map(SynthTap, self.delay_ns, self.power_mw, self.xpd_db, self.path_classes()))
        lobe_records = [SynthLobe(c, tap_records[a:b]) for c, a, b in zip(self.center_deg, taps, taps[1:])]
        lobes_of = (lobe_records[a:b] for a, b in zip(lobes, lobes[1:]))
        return tuple(map(ChannelDrop, self.distance_m, self.pl_db, self.los, self.seed, lobes_of))


def sample_drop(params: SynthesisParams, distance_m: float, seed: int, los: bool = True) -> ChannelDrop:
    """Draw one channel realization at the given separation: the drop
    ``render_campaign`` draws for a placement at that distance and seed."""
    drops = _Drops(params)
    drops.draw(distance_m, seed, los)
    return drops.records()[0]


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
    drops: _Drops,
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
    delay = np.array(drops.delay_ns)
    vv_db = linear_to_db_array(np.array(drops.power_mw)) + tx_antenna.gain_dbi + rx_antenna.gain_dbi
    power = np.stack((vv_db, vv_db - np.array(drops.xpd_db)))  # rows: V-V, V-H
    rx_az = np.array(drops.center_deg, dtype=float)
    tx_az = (180.0 - rx_az) % 360.0
    tap_bounds, lobe_bounds = np.array(drops.tap_bounds), np.array(drops.lobe_bounds)
    lobe_taps = np.diff(tap_bounds)
    tap_starts = tap_bounds[lobe_bounds]
    floors = np.minimum.reduceat(power, tap_starts[:-1], axis=1) - _FLOOR_MARGIN_DB

    gap = tx_antenna.height_m - rx_antenna.height_m
    tx_pos = [(math.sqrt(d * d - gap * gap), 10.0 * i, tx_antenna.height_m) for i, d in enumerate(drops.distance_m)]
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
        los=np.array([entry.los for entry in layout], dtype=bool)[place],
        tx_antenna=np.full((len(place), 4), astuple(tx_antenna), dtype=float),
        rx_antenna=np.full((len(place), 4), astuple(rx_antenna), dtype=float),
        tx_power_dbm=np.full(len(place), tx_power_dbm, dtype=float),
        sweep_bounds=np.concatenate(([0], np.cumsum(n_lobes))),
        tx_az_deg=tx_az[sweeps],
        rx_az_deg=rx_az[sweeps],
        noise_floor_db=np.repeat(floors[pol, place], n_lobes),
        tap_bounds=np.concatenate(([0], np.cumsum(lobe_taps[sweeps]))),
        delay_ns=delay[tap_rows],
        power_db=power[np.repeat(pol, n_taps), tap_rows],
    )


@dataclass(frozen=True)
class RenderedCampaign:
    """Where a synthesized campaign landed on disk, plus its ground truth.

    The truth is held as the drop columns the render drew; ``drops`` builds
    their records on first read.
    """

    manifest_path: Path
    _drops: _Drops = field(repr=False, hash=False)

    @cached_property
    def drops(self) -> tuple[ChannelDrop, ...]:
        return self._drops.records()

    def truth_json(self) -> str:
        """The bytes ``json.dumps(truth, indent=2, sort_keys=True)`` gives ``truth``, the list of
        ``{**asdict(drop), "effective_omni_xpd_db": drop.effective_omni_xpd_db}`` of each drop.

        Laid out by ``json_template`` straight from the columns; the omni XPD
        adds up in ``ChannelDrop``'s order, so every value has the same bits.
        """
        d = self._drops
        taps, lobes, power = d.tap_bounds, d.lobe_bounds, d.power_mw
        cross = (np.array(power) * db_to_linear_array(-np.array(d.xpd_db))).tolist()
        lobe_power = [sum(power[a:b]) for a, b in zip(taps, taps[1:])]
        omni_xpd = [
            10.0 * math.log10(sum(lobe_power[a:b]) / sum(cross[taps[a] : taps[b]])) for a, b in zip(lobes, lobes[1:])
        ]
        classes = [f'"{c.value}"' for c in d.path_classes()]
        drop_keys = ("distance_m", "effective_omni_xpd_db", "los", "pl_db", "seed")
        tap = "\n          " + json_template(dict.fromkeys(("delay_ns", "path_class", "power_mw", "xpd_db"), "%s"), 5)[0]
        lobe = "\n      " + "%s".join(json_template({"center_deg": "%s", "taps": [None]}, 3))
        drop = "\n  " + "%s".join(json_template({**dict.fromkeys(drop_keys, "%s"), "lobes": [None]}, 1))
        tap_docs = list(map(tap.__mod__, zip(d.delay_ns, classes, power, d.xpd_db)))
        lobe_docs = [lobe % (center, ",".join(tap_docs[a:b])) for center, a, b in zip(d.center_deg, taps, taps[1:])]
        drops = zip(d.distance_m, omni_xpd, lobes, lobes[1:], d.los, d.pl_db, d.seed)
        drop_docs = [
            drop % (distance, xpd, ",".join(lobe_docs[a:b]), ("false", "true")[los], pl_db, seed)
            for distance, xpd, a, b, los, pl_db, seed in drops
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
    drawn = master.uniform(lo, hi, len(layout))
    drop_seeds = master.integers(0, 2**63 - 1, len(layout))

    step = params.az_step_deg
    tx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=3.0)
    rx_antenna = AntennaConfig(gain_dbi=27.0, hpbw_deg=step, az_step_deg=step, height_m=1.5)
    height_gap = tx_antenna.height_m - rx_antenna.height_m

    drops = _Drops(params)
    for i, entry in enumerate(layout):
        d = entry.distance_m if entry.distance_m is not None else float(drawn[i])
        if d * d <= height_gap * height_gap:
            raise ValidationError(
                "distance_m",
                f"{d} m is shorter than the {height_gap:g} m antenna height gap",
            )
        drops.draw(d, int(drop_seeds[i]), entry.los)

    campaign = Campaign(
        campaign_id=campaign_id,
        carrier_hz=params.carrier_hz,
        tx_power_dbm=tx_power_dbm,
        locations=_rendered_columns(layout, drops, tx_antenna, rx_antenna, tx_power_dbm),
        delay_resolution_ns=params.delay_resolution_ns,
    )
    manifest_path = write_campaign(campaign, Path(out_dir))
    return RenderedCampaign(manifest_path, drops)
