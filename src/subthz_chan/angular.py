"""Power angular spectra, RMS angular spread, and spatial-lobe extraction."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .measurement import (
    TapTable,
    ValidationError,
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


@dataclass(frozen=True)
class PowerAngularSpectrum:
    """Integrated linear power per azimuth bin on one side of the link.

    Bins form a uniform circular grid covering [0, 360); the grid phase
    follows the recorded sweep azimuths and need not start at 0.
    """

    side: Side
    bins_deg: tuple[float, ...]
    powers_mw: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "side", Side(self.side))
        object.__setattr__(self, "bins_deg", tuple(float(b) for b in self.bins_deg))
        object.__setattr__(self, "powers_mw", tuple(float(p) for p in self.powers_mw))
        n = len(self.bins_deg)
        if n < 1:
            raise ValidationError("bins_deg", "spectrum has no bins")
        if len(self.powers_mw) != n:
            raise ValidationError("powers_mw", "length differs from bins_deg")
        step = 360.0 / n
        if not 0.0 <= self.bins_deg[0] < step:
            raise ValidationError("bins_deg", "first bin must sit in [0, 360/n)")
        for a, b in zip(self.bins_deg, self.bins_deg[1:]):
            if abs((b - a) - step) > 1e-9:
                raise ValidationError("bins_deg", "bins must form a uniform circular grid")
        if any(p < 0 for p in self.powers_mw):
            raise ValidationError("powers_mw", "powers must be >= 0")
        if not any(p > 0 for p in self.powers_mw):
            raise ValidationError("powers_mw", "at least one bin must hold power")

    @property
    def az_step_deg(self) -> float:
        return 360.0 / len(self.bins_deg)


@dataclass(frozen=True)
class SpatialLobe:
    """One contiguous run of azimuth bins within threshold of the PAS peak.

    ``start_deg``/``end_deg`` are the first and last bin centers of the run;
    ``end_deg < start_deg`` means the lobe wraps through 0.
    """

    start_deg: float
    end_deg: float
    peak_power_mw: float
    lobe_power_mw: float

    def __post_init__(self):
        if self.peak_power_mw <= 0 or self.lobe_power_mw < self.peak_power_mw:
            raise ValidationError("peak_power_mw", "need 0 < peak_power_mw <= lobe_power_mw")


@dataclass(frozen=True)
class AngularStats:
    """Angular statistics of one PAS at one threshold."""

    rmsas_deg: float
    n_lobes: int
    threshold_db: float

    def __post_init__(self):
        # the mathematical ceiling for wrapped deviations is 180 degrees;
        # a uniform spectrum sits near 180/sqrt(3) ~ 103.92
        if not 0.0 <= self.rmsas_deg <= 180.0 + 1e-9:
            raise ValidationError("rmsas_deg", "must lie in [0, 180]")
        if self.n_lobes < 1:
            raise ValidationError("n_lobes", "a detectable PAS has at least one lobe")


class _Spectra(NamedTuple):
    """Power angular spectra of several locations on one side, as their occupied bins.

    Only bins that some tap falls into get a row: an empty bin adds exact
    zeros to every power-weighted sum and is never marked for a lobe.
    Rows run by location, then by bin index ``k`` on the location's grid.
    """

    loc: np.ndarray
    k: np.ndarray
    bins_deg: np.ndarray
    powers_mw: np.ndarray
    #: per location: bin count (0 without signal), grid phase and step
    n_bins: np.ndarray
    phase_deg: np.ndarray
    step_deg: np.ndarray
    #: per sweep row of the table: its azimuth is off the uniform grid
    off_grid: np.ndarray | None


def _side(table: TapTable, side: Side) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth per sweep, grid step per location) on one side of the link."""
    if side is Side.AOD:
        return table.tx_az_deg, table.tx_step_deg
    return table.rx_az_deg, table.rx_step_deg


def _spectra(table: TapTable, side: Side, threshold_db: float) -> _Spectra:
    """Integrate the taps within ``threshold_db`` of each location's strongest tap into its bins.

    The grid phase follows the location's first detectable sweep.  Bin
    powers add in tap order, as the running per-bin sum does.
    """
    az, step = _side(table, side)
    signal = table.n_sweeps > 0
    n_bins = np.where(signal, np.rint(360.0 / step), 0).astype(np.intp)
    phase = np.zeros(len(table))
    phase[signal] = az[group_bounds(table.sweep_loc, len(table))[0][signal]] % step[signal]

    sweep_loc = table.sweep_loc
    rel = az - phase[sweep_loc]
    offset = rel % step[sweep_loc]
    off_grid = np.minimum(offset, step[sweep_loc] - offset) > 1e-6
    sweep_k = np.rint(rel / step[sweep_loc]).astype(np.intp) % n_bins[sweep_loc]

    peak_db = group_max(sweep_loc, table.peak_db, len(table))
    keep = in_db_window(table.power_db, peak_db[table.tap_loc], threshold_db)
    width = max(int(n_bins.max(initial=0)), 1)
    # unique keys come back sorted: location-major, bin index ascending
    keys, bin_of_tap = np.unique((table.tap_loc * width + sweep_k[table.tap_sweep])[keep], return_inverse=True)
    powers = group_sums(bin_of_tap, table.power_mw[keep], len(keys))
    loc, k = keys // width, keys % width
    return _Spectra(loc, k, phase[loc] + k * step[loc], powers, n_bins, phase, step, off_grid)


def _check_grids(table: TapTable, spectra: dict[Side, _Spectra]) -> None:
    """ValidationError for the first off-grid sweep, by location and then by side in ``spectra`` order."""
    first = None
    for side, s in spectra.items():
        bad = np.flatnonzero(s.off_grid)
        if bad.size and (first is None or table.sweep_loc[bad[0]] < table.sweep_loc[first[1]]):
            first = (side, bad[0])
    if first is not None:
        side, sweep = first
        az, step = _side(table, side)
        raise ValidationError(
            "tx_az_deg" if side is Side.AOD else "rx_az_deg",
            f"azimuth {float(az[sweep])} is off the uniform {float(step[table.sweep_loc[sweep]]):g} deg sweep grid",
        )


def _one(bins_deg: Sequence[float], powers: Sequence[float]) -> _Spectra:
    """One spectrum, every bin a row."""
    n = len(bins_deg)
    bins, powers = np.asarray(bins_deg, dtype=float), np.asarray(powers, dtype=float)
    return _Spectra(np.zeros(n, dtype=np.intp), np.arange(n), bins, powers, np.array([n]), None, None, None)


def power_angular_spectrum(
    table: TapTable, index: int, side: Side, threshold_db: float
) -> PowerAngularSpectrum:
    """Integrate location ``index``'s thresholded tap power into azimuth bins on the chosen side.

    The cut is global: a tap survives when it lies within ``threshold_db``
    of the location's strongest tap over all pointing pairs (and above its
    own sweep's noise floor), regardless of its own sweep's peak.  The cut
    compares in dB, as the sweep cut of the delay spreads does.
    NoSignalError when no sweep of the location clears the floor.
    """
    side = Side(side)
    table.require_signal(index)
    spectra = _spectra(table, side, threshold_db)
    _check_grids(table, {side: spectra._replace(off_grid=spectra.off_grid & (table.sweep_loc == index))})
    mine = spectra.loc == index
    powers = np.zeros(spectra.n_bins[index])
    powers[spectra.k[mine]] = spectra.powers_mw[mine]
    bins = spectra.phase_deg[index] + np.arange(len(powers)) * spectra.step_deg[index]
    return PowerAngularSpectrum(side, tuple(bins.tolist()), tuple(powers.tolist()))


def _circular_means(spectra: _Spectra) -> tuple[np.ndarray, np.ndarray]:
    """(mean azimuth, degenerate) per spectrum; a degenerate mean is tie-broken to 0."""
    n, loc, p = len(spectra.n_bins), spectra.loc, spectra.powers_mw
    weighted = p * np.exp(1j * np.radians(spectra.bins_deg))
    resultant = group_sums(loc, weighted.real, n) + 1j * group_sums(loc, weighted.imag, n)
    degenerate = np.abs(resultant) < DEGENERATE_RESULTANT_REL * group_sums(loc, p, n)
    mean = np.degrees(np.angle(resultant)) % 360.0
    # a hair under zero wraps to just under 360, which rounds back to 360.0
    mean[(mean == 360.0) | degenerate] = 0.0
    return mean, degenerate


def _rms_spreads(spectra: _Spectra) -> np.ndarray:
    n, loc, p = len(spectra.n_bins), spectra.loc, spectra.powers_mw
    mean, _ = _circular_means(spectra)
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
    loc, k, n_bins = spectra.loc, spectra.k, spectra.n_bins
    peak = group_max(loc, spectra.powers_mw, len(n_bins))
    marked = in_linear_window(spectra.powers_mw, peak[loc], threshold_db)
    width = max(int(n_bins.max(initial=0)), 1)
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
    return np.maximum(np.bincount(spectra.loc[run_start], minlength=len(spectra.n_bins)), 1)


def circular_mean_deg(
    bins_deg: Sequence[float], powers: Sequence[float]
) -> tuple[float, bool]:
    """Power-weighted circular mean azimuth in [0, 360).

    Returns (mean, degenerate).  When the power-weighted resultant vector
    vanishes the mean is undefined; it is tie-broken to 0 and flagged.
    """
    mean, degenerate = _circular_means(_one(bins_deg, powers))
    return float(mean[0]), bool(degenerate[0])


def rms_angular_spread(pas: PowerAngularSpectrum) -> float:
    """Power-weighted RMS of wrapped deviations about the circular mean, degrees.

    Deviations are wrapped into (-180, 180].  For a degenerate (vanishing
    resultant) spectrum the mean is tie-broken to 0; the uniform spectrum
    then lands just below the 180/sqrt(3) continuum value.
    """
    return float(_rms_spreads(_one(pas.bins_deg, pas.powers_mw))[0])


def extract_spatial_lobes(
    pas: PowerAngularSpectrum, threshold_db: float
) -> tuple[SpatialLobe, ...]:
    """Maximal circularly-contiguous bin runs within threshold of the PAS peak.

    Runs touching across the 0/360 seam merge into one lobe; a spectrum
    that is marked everywhere yields a single all-ring lobe.  The cut
    compares in linear power.
    """
    powers = pas.powers_mw
    n = len(powers)
    marked, run_start = _lobe_marks(_one(pas.bins_deg, powers), threshold_db)
    if marked.all():
        runs = [list(range(n))]
    else:
        runs = []
        for start in np.flatnonzero(run_start).tolist():
            run = [start]
            while marked[(run[-1] + 1) % n]:
                run.append((run[-1] + 1) % n)
            runs.append(run)
    return tuple(
        SpatialLobe(
            start_deg=pas.bins_deg[run[0]],
            end_deg=pas.bins_deg[run[-1]],
            peak_power_mw=max(powers[i] for i in run),
            lobe_power_mw=sum(powers[i] for i in run),
        )
        for run in runs
    )


def angular_stats(pas: PowerAngularSpectrum, threshold_db: float) -> AngularStats:
    return AngularStats(
        rmsas_deg=rms_angular_spread(pas),
        n_lobes=len(extract_spatial_lobes(pas, threshold_db)),
        threshold_db=threshold_db,
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
    """Five-number summaries of lobe counts and RMS angular spread over a table's locations.

    One value per location with signal per side; the PAS is built and
    thresholded at the same ``threshold_db`` used for lobe extraction.
    """
    spectra = {side: _spectra(table, side, threshold_db) for side in (Side.AOA, Side.AOD)}
    _check_grids(table, spectra)
    signal = table.n_sweeps > 0
    lobes = {side: _lobe_counts(s, threshold_db)[signal].astype(float).tolist() for side, s in spectra.items()}
    spreads = {side: _rms_spreads(s)[signal].tolist() for side, s in spectra.items()}
    return AngularSummary(
        threshold_db=threshold_db,
        n_aoa_lobes=summarize(lobes[Side.AOA]),
        n_aod_lobes=summarize(lobes[Side.AOD]),
        aoa_rmsas=summarize(spreads[Side.AOA]),
        aod_rmsas=summarize(spreads[Side.AOD]),
    )
