"""Omnidirectional PDP synthesis and delay-spread statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .measurement import (
    DirectionalPdp,
    Polarization,
    TapTable,
    ValidationError,
    db_to_linear_array,
    group_bounds,
    group_max,
    group_sums,
    in_db_window,
    in_linear_window,
    linear_to_db,
)
from .summary import SummaryRow, summarize

Pdp = Union["OmniPdp", DirectionalPdp]


@dataclass(frozen=True)
class OmniPdp:
    """Omnidirectional PDP: linear power per delay bin with antenna gains removed."""

    delays_ns: tuple[float, ...]
    powers_mw: tuple[float, ...]
    source: tuple[str, str, Polarization]

    def __post_init__(self):
        object.__setattr__(self, "delays_ns", tuple(float(t) for t in self.delays_ns))
        object.__setattr__(self, "powers_mw", tuple(float(p) for p in self.powers_mw))
        if not self.delays_ns:
            raise ValidationError("delays_ns", "PDP has no bins")
        if len(self.powers_mw) != len(self.delays_ns):
            raise ValidationError("powers_mw", "length differs from delays_ns")
        if any(b <= a for a, b in zip(self.delays_ns, self.delays_ns[1:])):
            raise ValidationError("delays_ns", "delays must be strictly increasing")
        if any(p <= 0 or not math.isfinite(p) for p in self.powers_mw):
            raise ValidationError("powers_mw", "powers must be positive and finite")

    @property
    def total_power_dbm(self) -> float:
        return linear_to_db(sum(self.powers_mw))


class OmniBins(NamedTuple):
    """The omni PDP of every location of a table, as flat bin columns.

    Bins run location by location with delays ascending; a location
    without signal has none.
    """

    loc: np.ndarray
    delay_ns: np.ndarray
    power_mw: np.ndarray
    #: per location: summed omni power, 0 without signal
    total_mw: np.ndarray


def omni_bins(table: TapTable) -> OmniBins:
    """Sum linear power per (location, delay) over all pointing pairs, gains removed.

    Only the table's taps (above-floor bins of detectable sweeps)
    contribute, at their absolute delays.  Each tap adds
    ``db_to_linear(power_db - gain_sum)`` (bit for bit, through
    ``db_to_linear_array``) to its bin in tap order, as the running sum
    over sweeps does.  Kept with the table, so omni path loss and every
    delay threshold share one synthesis.
    """
    return table.kept(_omni_bins)


def _omni_bins(table: TapTable) -> OmniBins:
    gained = table.power_db - table.gain_sum_dbi[table.tap_loc]
    linear = db_to_linear_array(gained)
    delays, delay_rank = np.unique(table.delay_ns, return_inverse=True)
    n_delays = max(len(delays), 1)
    # unique keys come back sorted: location-major, delays ascending
    keys, key_of_tap = np.unique(table.tap_loc * n_delays + delay_rank, return_inverse=True)
    power = group_sums(key_of_tap, linear, len(keys))
    loc = keys // n_delays
    return OmniBins(loc, delays[keys % n_delays], power, group_sums(loc, power, len(table)))


def _spreads(
    group: np.ndarray, delay_ns: np.ndarray, power_mw: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(RMS spread, maximum spread, tap count) per group of (delay, linear power) taps, ns.

    Taps are group-sorted with delays ascending within a group; a group
    without taps gives NaN spreads.
    """
    first, end = group_bounds(group, n_groups)
    filled = end > first
    t0 = np.full(n_groups, np.nan)
    t_last = np.full(n_groups, np.nan)
    t0[filled] = delay_ns[first[filled]]
    t_last[filled] = delay_ns[end[filled] - 1]
    # center on the first tap before taking moments so large absolute delays
    # do not eat the variance in floating point
    rel = delay_ns - t0[group]
    with np.errstate(invalid="ignore"):
        total = group_sums(group, power_mw, n_groups)
        m1 = group_sums(group, power_mw * rel, n_groups) / total
        m2 = group_sums(group, power_mw * rel**2, n_groups) / total
        rms = np.sqrt(np.maximum(m2 - m1 * m1, 0.0))
    return rms, t_last - t0, end - first


def _omni_spreads(loc: np.ndarray, delay_ns: np.ndarray, power_mw: np.ndarray, n_locs: int, threshold_db: float):
    """``_spreads`` of each omni PDP, cut in linear power against its strongest bin."""
    keep = in_linear_window(power_mw, group_max(loc, power_mw, n_locs)[loc], threshold_db)
    return _spreads(loc[keep], delay_ns[keep], power_mw[keep], n_locs)


def _sweep_spreads(
    sweep: np.ndarray,
    delay_ns: np.ndarray,
    power_db: np.ndarray,
    power_mw: np.ndarray,
    peak_db: np.ndarray,
    threshold_db: float,
):
    """``_spreads`` of each sweep, cut in dB against the sweep's own peak."""
    keep = in_db_window(power_db, peak_db[sweep], threshold_db)
    return _spreads(sweep[keep], delay_ns[keep], power_mw[keep], len(peak_db))


@dataclass(frozen=True)
class DelayStats:
    """Delay-spread statistics of one PDP at one threshold."""

    rmsds_ns: float
    mds_ns: float
    threshold_db: float
    n_taps: int

    def __post_init__(self):
        if not 0.0 <= self.rmsds_ns <= self.mds_ns + 1e-12:
            raise ValidationError("rmsds_ns", "need 0 <= rmsds_ns <= mds_ns")
        if self.n_taps < 1:
            raise ValidationError("n_taps", "at least the peak tap survives")


def delay_stats(pdp: Pdp, threshold_db: float) -> DelayStats:
    """Delay spreads of one PDP over the taps within ``threshold_db`` of its peak.

    Omni bins compare in linear power, sweep bins in dB: taps exactly
    ``threshold_db`` down can fall on either side of the two cuts.
    """
    if isinstance(pdp, OmniPdp):
        one = np.zeros(len(pdp.delays_ns), dtype=np.intp)
        rms, mds, n_taps = _omni_spreads(one, np.array(pdp.delays_ns), np.array(pdp.powers_mw), 1, threshold_db)
    else:
        delays, powers = np.array(pdp.detected_bins()).T
        one = np.zeros(len(delays), dtype=np.intp)
        peak = np.array([pdp.peak_db])
        rms, mds, n_taps = _sweep_spreads(one, delays, powers, db_to_linear_array(powers), peak, threshold_db)
    return DelayStats(rmsds_ns=float(rms[0]), mds_ns=float(mds[0]), threshold_db=threshold_db, n_taps=int(n_taps[0]))


def rms_delay_spread(pdp: Pdp, threshold_db: float) -> float:
    """Power-weighted standard deviation of tap delay over thresholded taps, ns."""
    return delay_stats(pdp, threshold_db).rmsds_ns


def max_delay_spread(pdp: Pdp, threshold_db: float) -> float:
    """Delay extent (last minus first surviving tap) over thresholded taps, ns."""
    return delay_stats(pdp, threshold_db).mds_ns


@dataclass(frozen=True)
class DelaySummary:
    """Campaign-wide delay statistics at one threshold."""

    threshold_db: float
    omni_rmsds: SummaryRow
    omni_mds: SummaryRow
    dir_rmsds: SummaryRow
    dir_mds: SummaryRow


def campaign_delay_summary(table: TapTable, threshold_db: float) -> DelaySummary:
    """Five-number summaries of RMS and maximum delay spread over a table's locations.

    Omni rows pool one value per location (``omni_bins``); directional
    rows pool every pointing pair with detectable power.  Locations
    without signal add to neither.
    """
    omni = omni_bins(table)
    omni_rms, omni_mds, _ = _omni_spreads(omni.loc, omni.delay_ns, omni.power_mw, len(table), threshold_db)
    signal = table.n_sweeps > 0
    dir_rms, dir_mds, _ = _sweep_spreads(
        table.tap_sweep, table.delay_ns, table.power_db, table.power_mw, table.peak_db, threshold_db
    )
    return DelaySummary(
        threshold_db=threshold_db,
        omni_rmsds=summarize(omni_rms[signal].tolist()),
        omni_mds=summarize(omni_mds[signal].tolist()),
        dir_rmsds=summarize(dir_rms.tolist()),
        dir_mds=summarize(dir_mds.tolist()),
    )
