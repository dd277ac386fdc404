"""Omnidirectional PDP synthesis and delay-spread statistics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measurement import (
    TapTable,
    group_bounds,
    group_max,
    group_sums,
    in_db_window,
    in_linear_window,
)
from .summary import SummaryRow, summarize


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
    ``db_to_linear(power_db - gain_sum)`` (bit for bit: the table's
    ``gain_free_mw``) to its bin in tap order, as the running sum over
    sweeps does.  Kept with the table, so omni path loss and every delay
    threshold share one synthesis.
    """
    return table.kept(_omni_bins)


def _omni_bins(table: TapTable) -> OmniBins:
    delays, delay_rank = np.unique(table.delay_ns, return_inverse=True)
    n_delays = max(len(delays), 1)
    # unique keys come back sorted: location-major, delays ascending
    keys, key_of_tap = np.unique(table.tap_loc * n_delays + delay_rank, return_inverse=True)
    power = group_sums(key_of_tap, table.gain_free_mw, len(keys))
    loc = keys // n_delays
    return OmniBins(loc, delays[keys % n_delays], power, group_sums(loc, power, len(table)))


def _spreads(
    group: np.ndarray, delay_ns: np.ndarray, power_mw: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """(RMS spread, maximum spread) per group of (delay, linear power) taps, ns.

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
    return rms, t_last - t0


class DelaySpreads(NamedTuple):
    """Delay spreads of a table at one threshold, ns.

    Omni columns have one value per location of the table, NaN for a
    location without signal; directional columns have one value per
    sweep row (``TapTable.sweep_loc``).
    """

    omni_rmsds: np.ndarray
    omni_mds: np.ndarray
    dir_rmsds: np.ndarray
    dir_mds: np.ndarray


def _peaks(table: TapTable) -> tuple[np.ndarray, np.ndarray]:
    """(the omni peak of each omni bin's location, the peak of each tap's sweep), kept with the table."""
    omni = omni_bins(table)
    return group_max(omni.loc, omni.power_mw, len(table))[omni.loc], table.peak_db[table.tap_sweep]


def delay_spreads(table: TapTable, threshold_db: float) -> DelaySpreads:
    """RMS and maximum delay spread of each omni PDP and each sweep of a table.

    Each spread runs over the bins within ``threshold_db`` of the PDP's
    strongest bin.  Omni bins (``omni_bins``) compare in linear power,
    sweep bins in dB against the sweep's own peak: bins exactly
    ``threshold_db`` down can fall on either side of the two cuts.
    """
    omni, (omni_peak_mw, sweep_peak_db) = omni_bins(table), table.kept(_peaks)
    keep = in_linear_window(omni.power_mw, omni_peak_mw, threshold_db)
    omni_rms, omni_mds = _spreads(omni.loc[keep], omni.delay_ns[keep], omni.power_mw[keep], len(table))
    keep = in_db_window(table.power_db, sweep_peak_db, threshold_db)
    dir_rms, dir_mds = _spreads(table.tap_sweep[keep], table.delay_ns[keep], table.power_mw[keep], len(table.peak_db))
    return DelaySpreads(omni_rms, omni_mds, dir_rms, dir_mds)


@dataclass(frozen=True)
class DelaySummary:
    """Campaign-wide delay statistics at one threshold."""

    threshold_db: float
    omni_rmsds: SummaryRow
    omni_mds: SummaryRow
    dir_rmsds: SummaryRow
    dir_mds: SummaryRow


def campaign_delay_summary(table: TapTable, threshold_db: float) -> DelaySummary:
    """Five-number summaries of ``delay_spreads`` over a table.

    Omni rows pool one value per location with signal; directional rows
    pool every pointing pair with detectable power.  NoSignalError when no
    location has signal.
    """
    table.require_any_signal("delay summary")
    spreads = delay_spreads(table, threshold_db)
    signal = table.n_sweeps > 0
    return DelaySummary(
        threshold_db=threshold_db,
        omni_rmsds=summarize(spreads.omni_rmsds[signal]),
        omni_mds=summarize(spreads.omni_mds[signal]),
        dir_rmsds=summarize(spreads.dir_rmsds),
        dir_mds=summarize(spreads.dir_mds),
    )
