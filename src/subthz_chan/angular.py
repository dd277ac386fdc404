"""Power angular spectra, RMS angular spread, and spatial-lobe extraction."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .measurement import (
    LocationMeasurement,
    ValidationError,
    checked_threshold_db,
    db_to_linear,
    signal_sweeps,
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


def power_angular_spectrum(
    loc: LocationMeasurement, side: Side, threshold_db: float
) -> PowerAngularSpectrum:
    """Integrate thresholded tap power into azimuth bins on the chosen side.

    The cut is global: a tap survives when it lies within ``threshold_db``
    of the strongest tap over all pointing pairs (and above its own sweep's
    noise floor), regardless of its own sweep's peak.  The cut compares in
    dB, like ``DirectionalPdp.window_bins``.
    """
    side = Side(side)
    detectable = signal_sweeps(loc)
    antenna = loc.tx_antenna if side is Side.AOD else loc.rx_antenna
    step = antenna.az_step_deg
    nbins = antenna.n_az_bins

    def azimuth(pdp):
        return pdp.tx_az_deg if side is Side.AOD else pdp.rx_az_deg

    phase = azimuth(detectable[0]) % step
    peak_db = max(s.peak_db for s in detectable)
    powers = [0.0] * nbins
    for pdp in detectable:
        az = azimuth(pdp)
        offset = (az - phase) % step
        if min(offset, step - offset) > 1e-6:
            raise ValidationError(
                "tx_az_deg" if side is Side.AOD else "rx_az_deg",
                f"azimuth {az} is off the uniform {step:g} deg sweep grid",
            )
        index = round((az - phase) / step) % nbins
        for _, power in pdp.window_bins(threshold_db, peak_db):
            powers[index] += db_to_linear(power)
    bins = tuple(phase + k * step for k in range(nbins))
    return PowerAngularSpectrum(side=side, bins_deg=bins, powers_mw=tuple(powers))


def circular_mean_deg(
    bins_deg: Sequence[float], powers: Sequence[float]
) -> tuple[float, bool]:
    """Power-weighted circular mean azimuth in [0, 360).

    Returns (mean, degenerate).  When the power-weighted resultant vector
    vanishes the mean is undefined; it is tie-broken to 0 and flagged.
    """
    p = np.asarray(powers, dtype=float)
    theta = np.radians(np.asarray(bins_deg, dtype=float))
    resultant = np.sum(p * np.exp(1j * theta))
    if abs(resultant) < DEGENERATE_RESULTANT_REL * np.sum(p):
        return 0.0, True
    mean = float(np.degrees(np.angle(resultant)) % 360.0)
    # a hair under zero wraps to just under 360, which rounds back to 360.0
    return (0.0 if mean == 360.0 else mean), False


def rms_angular_spread(pas: PowerAngularSpectrum) -> float:
    """Power-weighted RMS of wrapped deviations about the circular mean, degrees.

    Deviations are wrapped into (-180, 180].  For a degenerate (vanishing
    resultant) spectrum the mean is tie-broken to 0; the uniform spectrum
    then lands just below the 180/sqrt(3) continuum value.
    """
    p = np.asarray(pas.powers_mw, dtype=float)
    bins = np.asarray(pas.bins_deg, dtype=float)
    mean_deg, _ = circular_mean_deg(bins, p)
    dev = (bins - mean_deg + 180.0) % 360.0 - 180.0
    return float(np.sqrt(np.sum(p * dev**2) / np.sum(p)))


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
    cut = max(powers) * db_to_linear(-checked_threshold_db(threshold_db))
    marked = [p >= cut for p in powers]
    if all(marked):
        return (
            SpatialLobe(
                start_deg=pas.bins_deg[0],
                end_deg=pas.bins_deg[-1],
                peak_power_mw=max(powers),
                lobe_power_mw=sum(powers),
            ),
        )
    lobes = []
    for start in range(n):
        if marked[start] and not marked[start - 1]:
            run = [start]
            while marked[(run[-1] + 1) % n]:
                run.append((run[-1] + 1) % n)
            run_powers = [powers[i] for i in run]
            lobes.append(
                SpatialLobe(
                    start_deg=pas.bins_deg[run[0]],
                    end_deg=pas.bins_deg[run[-1]],
                    peak_power_mw=max(run_powers),
                    lobe_power_mw=sum(run_powers),
                )
            )
    return tuple(lobes)


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


def campaign_angular_summary(
    locs: Iterable[LocationMeasurement], threshold_db: float
) -> AngularSummary:
    """Five-number summaries of lobe counts and RMS angular spread.

    One value per location per side; the PAS is built and thresholded at
    the same ``threshold_db`` used for lobe extraction.
    """
    lobes = {Side.AOA: [], Side.AOD: []}
    spreads = {Side.AOA: [], Side.AOD: []}
    for loc in locs:
        # a location with no detectable sweep has no spectrum on either side
        if not loc.detectable_sweeps():
            continue
        for side in (Side.AOA, Side.AOD):
            pas = power_angular_spectrum(loc, side, threshold_db)
            lobes[side].append(float(len(extract_spatial_lobes(pas, threshold_db))))
            spreads[side].append(rms_angular_spread(pas))
    return AngularSummary(
        threshold_db=threshold_db,
        n_aoa_lobes=summarize(lobes[Side.AOA]),
        n_aod_lobes=summarize(lobes[Side.AOD]),
        aoa_rmsas=summarize(spreads[Side.AOA]),
        aod_rmsas=summarize(spreads[Side.AOD]),
    )
