"""Power angular spectra, RMS angular spread, and spatial-lobe extraction."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .measurement import (
    TapTable,
    ValidationError,
    first_flagged,
    group_bounds,
    group_max,
    group_sums,
    in_db_window,
    in_linear_window,
)
from .summary import SummaryRow, summarize

#: resultant vectors shorter than this fraction of the total power count as
#: vanishing, which makes the circular mean undefined
DEGENERATE_RESULTANT_REL = 1e-9


class Side(str, Enum):
    """Which end of the link an angular statistic describes."""

    AOD = "AOD"
    AOA = "AOA"


class _Grid(NamedTuple):
    """One side's azimuth grid of a table's locations, which no threshold changes."""

    n_bins: np.ndarray  # per location: the bin count, 0 without signal
    phase_deg: np.ndarray  # per location
    step_deg: np.ndarray  # per location
    off_grid: np.ndarray  # per sweep: its azimuth is off the grid
    keys: np.ndarray  # sorted ``loc * width + k`` of each bin ``k`` some tap falls into
    phasor: np.ndarray  # per row of ``keys``: ``exp(1j * radians(bin azimuth))``
    bin_of_tap: np.ndarray  # per tap: the row of ``keys`` of its bin
    width: int
    peak_db: np.ndarray  # per tap: the peak of its location


class _Spectra(NamedTuple):
    """Power angular spectra of several locations on one side, as their occupied bins.

    Only bins that some tap falls into get a row: an empty bin adds exact
    zeros to every power-weighted sum and is never marked for a lobe.
    Rows run by location, then by bin index ``k`` on the location's grid.
    """

    loc: np.ndarray
    k: np.ndarray
    bins_deg: np.ndarray
    phasor: np.ndarray  # exp(1j * radians(bins_deg))
    powers_mw: np.ndarray
    grid: _Grid


def _side(table: TapTable, side: Side) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth per sweep, grid step per location) on one side of the link."""
    if side is Side.AOD:
        return table.tx_az_deg, table.tx_step_deg
    return table.rx_az_deg, table.rx_step_deg


def _grids(table: TapTable) -> dict[Side, _Grid]:
    """The grid of each side, kept with the table; the phase follows each location's first detectable sweep."""
    signal = table.n_sweeps > 0
    first = group_bounds(table.sweep_loc, len(table))[0][signal]
    peak_db = group_max(table.sweep_loc, table.peak_db, len(table))[table.tap_loc]
    sweep_loc, grids = table.sweep_loc, {}
    for side in Side:
        az, step = _side(table, side)
        n_bins = np.where(signal, np.rint(360.0 / step), 0).astype(np.intp)
        phase = np.zeros(len(table))
        phase[signal] = az[first] % step[signal]
        rel = az - phase[sweep_loc]
        offset = rel % step[sweep_loc]
        off_grid = np.minimum(offset, step[sweep_loc] - offset) > 1e-6
        sweep_k = np.rint(rel / step[sweep_loc]).astype(np.intp) % n_bins[sweep_loc]
        width = max(int(n_bins.max(initial=0)), 1)
        # unique keys come back sorted: location-major, bin index ascending
        keys, bin_of_tap = np.unique(table.tap_loc * width + sweep_k[table.tap_sweep], return_inverse=True)
        loc = keys // width
        phasor = np.exp(1j * np.radians(phase[loc] + keys % width * step[loc]))
        grids[side] = _Grid(n_bins, phase, step, off_grid, keys, phasor, bin_of_tap, width, peak_db)
    return grids


def _spectra(table: TapTable, side: Side, threshold_db: float) -> _Spectra:
    """Integrate the taps within ``threshold_db`` of each location's strongest tap into its bins.

    Bin powers add in tap order, as the running per-bin sum does.
    """
    grid = table.kept(_grids)[side]
    keep = in_db_window(table.power_db, grid.peak_db, threshold_db)
    powers = group_sums(grid.bin_of_tap[keep], table.power_mw[keep], len(grid.keys))
    # every tap's linear power is > 0, so the bins with a kept tap are those with a positive sum
    occupied = powers > 0.0
    keys = grid.keys[occupied]
    loc, k = keys // grid.width, keys % grid.width
    bins_deg = grid.phase_deg[loc] + k * grid.step_deg[loc]
    return _Spectra(loc, k, bins_deg, grid.phasor[occupied], powers[occupied], grid)


def _check_grids(table: TapTable, sides: tuple[Side, ...], index: int | None = None) -> None:
    """ValidationError for the first off-grid sweep (of location ``index`` only, if given), by
    ``first_flagged`` with the sweep's location as owner: by location, then side in the order given.
    Off the grid is off the phase most of the location's sweeps share, the first sweep's on a tie."""
    loc, grids, rules = table.sweep_loc, table.kept(_grids), []
    for side in sides:
        az, step = _side(table, side)
        off = grids[side].off_grid & (True if index is None else loc == index)
        for i in set(loc[off].tolist()):  # the error path: some sweep is off its first sweep's phase
            at = np.flatnonzero(loc == i)
            offset = (az[at] - az[at, None]) % step[i]
            shares = np.minimum(offset, step[i] - offset) <= 1e-6  # sweep k is on sweep j's phase
            top = np.flatnonzero(shares.sum(axis=1) == shares.sum(axis=1).max())
            if not shares[top[0], 0] and shares[top[0], top].all():  # one phase has the most, not the first's
                off[at] = ~shares[top[0]]
        rules.append(("tx_az_deg" if side is Side.AOD else "rx_az_deg", loc, off, lambda s, az=az, step=step: (
            f"azimuth {float(az[s])} is off the uniform {float(step[loc[s]]):g} deg sweep grid")))
    fault = first_flagged(rules)
    if fault is not None:
        raise ValidationError(*fault[1:])


def power_angular_spectrum(
    table: TapTable, index: int, side: Side, threshold_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """(bin azimuths in degrees, integrated linear power per bin) of location ``index`` on one side.

    The bins form the location's uniform azimuth grid over [0, 360); the
    grid phase follows its first detectable sweep and need not be 0.  The
    cut is global: a tap survives when it lies within ``threshold_db`` of
    the location's strongest tap over all pointing pairs (and above its
    own sweep's noise floor), regardless of its own sweep's peak.  The cut
    compares in dB, as the sweep cut of the delay spreads does.
    NoSignalError when no sweep of the location clears the floor.
    """
    side = Side(side)
    table.require_signal(index)
    spectra = _spectra(table, side, threshold_db)
    _check_grids(table, (side,), index)
    mine = spectra.loc == index
    powers = np.zeros(spectra.grid.n_bins[index])
    powers[spectra.k[mine]] = spectra.powers_mw[mine]
    return spectra.grid.phase_deg[index] + np.arange(len(powers)) * spectra.grid.step_deg[index], powers


def _unit_powers(spectra: _Spectra) -> np.ndarray:
    """Bin powers scaled by a power of two per spectrum, so each spectrum's strongest bin lies in [0.5, 1).

    Received powers sit below 1 mW, so the scaling only shifts exponents up
    and every moment keeps its bits; a spectrum of subnormal powers would
    otherwise round the direction of its resultant away.
    """
    _, exponent = np.frexp(group_max(spectra.loc, spectra.powers_mw, len(spectra.grid.n_bins)))
    return np.ldexp(spectra.powers_mw, -exponent[spectra.loc])


def _circular_means(spectra: _Spectra, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean azimuth, degenerate) per spectrum of bin powers ``p``; a degenerate mean is tie-broken to 0."""
    n, loc = len(spectra.grid.n_bins), spectra.loc
    weighted = p * spectra.phasor
    resultant = group_sums(loc, weighted.real, n) + 1j * group_sums(loc, weighted.imag, n)
    degenerate = np.abs(resultant) < DEGENERATE_RESULTANT_REL * group_sums(loc, p, n)
    mean = np.degrees(np.angle(resultant)) % 360.0
    # a hair under zero wraps to just under 360, which rounds back to 360.0
    mean[(mean == 360.0) | degenerate] = 0.0
    return mean, degenerate


def _rms_spreads(spectra: _Spectra) -> np.ndarray:
    n, loc, p = len(spectra.grid.n_bins), spectra.loc, _unit_powers(spectra)
    mean, _ = _circular_means(spectra, p)
    dev = (spectra.bins_deg - mean[loc] + 180.0) % 360.0 - 180.0
    # a location without signal has no bins, and a NaN spread
    with np.errstate(invalid="ignore"):
        return np.sqrt(group_sums(loc, p * dev**2, n) / group_sums(loc, p, n))


def _lobe_marks(spectra: _Spectra, threshold_db: float) -> tuple[np.ndarray, np.ndarray]:
    """(marked, run start) per row.

    A bin is marked when it lies within ``threshold_db`` of its spectrum's
    strongest bin, compared in linear power; a run starts at a marked bin
    whose circular predecessor on the grid is unmarked.
    """
    loc, k, n_bins, width = spectra.loc, spectra.k, spectra.grid.n_bins, spectra.grid.width
    peak = group_max(loc, spectra.powers_mw, len(n_bins))
    marked = in_linear_window(spectra.powers_mw, peak[loc], threshold_db)
    # rows are sorted by (location, k), so the marked keys are too
    marked_keys = (loc * width + k)[marked]
    if not marked_keys.size:
        return marked, marked
    previous = loc * width + (k - 1) % n_bins[loc]
    found = marked_keys[np.minimum(np.searchsorted(marked_keys, previous), marked_keys.size - 1)]
    return marked, marked & (found != previous)


def _lobe_counts(spectra: _Spectra, threshold_db: float) -> np.ndarray:
    """Spatial lobes per spectrum; a spectrum marked everywhere is one lobe."""
    _, run_start = _lobe_marks(spectra, threshold_db)
    return np.maximum(np.bincount(spectra.loc[run_start], minlength=len(spectra.grid.n_bins)), 1)


class AngularSpreads(NamedTuple):
    """Spatial lobes and RMS angular spread (degrees) of each location of a table, per side.

    One value per location at one threshold; NaN for a location without
    signal.
    """

    n_aoa_lobes: np.ndarray
    n_aod_lobes: np.ndarray
    aoa_rmsas: np.ndarray
    aod_rmsas: np.ndarray


def angular_spreads(table: TapTable, threshold_db: float) -> AngularSpreads:
    """Lobe count and RMS angular spread of each location's power angular spectrum, per side.

    Each spectrum is built and thresholded as ``power_angular_spectrum``
    builds it, at the same ``threshold_db`` used for lobe extraction.  A
    lobe is a maximal circularly-contiguous run of bins within
    ``threshold_db`` of the spectrum's strongest bin, compared in linear
    power; runs touching across the 0/360 seam merge, and a spectrum
    marked everywhere is one lobe.  The RMS spread is the power-weighted
    RMS of bin deviations from the circular mean, wrapped into
    (-180, 180]; a vanishing mean resultant is tie-broken to 0, so the
    uniform spectrum lands just below the 180/sqrt(3) continuum value.
    ValidationError for the first sweep off its location's azimuth grid.
    """
    spectra = {side: _spectra(table, side, threshold_db) for side in (Side.AOA, Side.AOD)}
    _check_grids(table, tuple(spectra))
    no_signal = table.n_sweeps == 0
    lobes = {side: np.where(no_signal, np.nan, _lobe_counts(s, threshold_db)) for side, s in spectra.items()}
    return AngularSpreads(
        lobes[Side.AOA], lobes[Side.AOD], _rms_spreads(spectra[Side.AOA]), _rms_spreads(spectra[Side.AOD])
    )


@dataclass(frozen=True)
class AngularSummary:
    """Campaign-wide angular statistics at one threshold."""

    threshold_db: float
    n_aoa_lobes: SummaryRow
    n_aod_lobes: SummaryRow
    aoa_rmsas: SummaryRow
    aod_rmsas: SummaryRow


def campaign_angular_summary(table: TapTable, threshold_db: float) -> AngularSummary:
    """Five-number summaries of ``angular_spreads`` over a table's locations with signal
    (NoSignalError when none has)."""
    table.require_any_signal("angular summary")
    spreads = angular_spreads(table, threshold_db)
    signal = table.n_sweeps > 0
    return AngularSummary(threshold_db, *(summarize(column[signal]) for column in spreads))
