"""Path-loss extraction and close-in model fitting.

Implements the 1 m close-in reference model

    PL(d) = FSPL(f, 1 m) + 10 * n * log10(d) + chi

with the exponent ``n`` fitted by minimum mean square error over the
measured excess loss, plus the corresponding cross-polar fit where the
co-polar exponent is held fixed and only a constant discrimination
offset is estimated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .delay import omni_bins
from .measurement import (
    D0_M,
    SPEED_OF_LIGHT_M_S,
    NoSignalError,
    TapTable,
    ValidationError,
    bearings_deg_array,
    circular_distance_deg,
    group_sums,
    linear_to_db_array,
    log10_array,
)


class DegenerateFitError(RuntimeError):
    """A regression was requested on data that cannot constrain it."""


class DirectionClass(str, Enum):
    """Role of a pointing pair at one location.

    B is the boresight-to-boresight pair along the straight line between
    the antennas (LOS locations only), NBB the strongest remaining pair,
    NB everything else detectable.
    """

    B = "B"
    NBB = "NBB"
    NB = "NB"


class SampleKind(str, Enum):
    """Which kind of path-loss value a sample carries."""

    OMNI = "omni"
    DIR_B = "dir-B"
    DIR_NBB = "dir-NBB"
    DIR_NB = "dir-NB"


#: sample kind of each direction class, in B, NBB, NB order
KIND_OF_CLASS = {
    DirectionClass.B: SampleKind.DIR_B,
    DirectionClass.NBB: SampleKind.DIR_NBB,
    DirectionClass.NB: SampleKind.DIR_NB,
}


@dataclass(frozen=True, eq=False)
class PathLossColumns:
    """Path-loss samples of one polarization and kind, as columns in location order."""

    #: the table row of each sample's location
    loc: np.ndarray
    distance_m: np.ndarray
    pl_db: np.ndarray

    def __len__(self) -> int:
        return len(self.loc)


@dataclass(frozen=True)
class CiFit:
    """Close-in model fit: exponent and shadow-fading spread."""

    ple: float
    sigma_db: float
    n_samples: int
    fspl_anchor_db: float

    def predict(self, distance_m: float) -> float:
        """Median path loss of the fitted model at ``distance_m`` (dB)."""
        if distance_m <= 0:
            raise ValueError(f"distance_m must be > 0, got {distance_m}")
        return self.fspl_anchor_db + 10.0 * self.ple * math.log10(distance_m / D0_M)


@dataclass(frozen=True)
class CixFit:
    """Cross-polar fit: constant discrimination over the co-polar model."""

    xpd_db: float
    sigma_db: float
    ple_vv: float
    n_samples: int


def fspl(frequency_hz: float, distance_m: float = D0_M) -> float:
    """Free-space path loss in dB at the given frequency and distance."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency_hz must be > 0, got {frequency_hz}")
    if distance_m <= 0:
        raise ValueError(f"distance_m must be > 0, got {distance_m}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT_M_S)


#: ``DirectionClass`` of each ``sweep_classes`` index: B, NBB, NB
DIRECTION_CLASSES = tuple(KIND_OF_CLASS)
_B, _NBB, _NB = range(len(DIRECTION_CLASSES))


def sweep_losses(table: TapTable) -> np.ndarray:
    """Path loss of every detectable pointing pair (sweep row) of a table.

    PL = tx_power + tx_gain + rx_gain - received_power, where the received
    power integrates every above-floor delay bin of that pointing pair.
    Kept with the table, so directional path loss and XPD share one
    integration.
    """
    return table.kept(_sweep_losses)


def sweep_classes(table: TapTable) -> np.ndarray:
    """Class of every sweep row of a table, as an index into ``DIRECTION_CLASSES``.

    At LOS locations the B pair is the one whose TX and RX azimuths both
    fall within half an azimuth step of the geometric bearings; among
    several candidates the smallest summed angular distance wins, then
    lexicographic order.  The strongest remaining pair by integrated
    power is NBB (NLOS locations have no B, only NBB).  Everything else
    is NB.  Kept with the table apart from the losses, so only the
    callers that read classes compute them.
    """
    return table.kept(_classes)


def _sweep_power_mw(table: TapTable) -> np.ndarray:
    return group_sums(table.tap_sweep, table.power_mw, len(table.sweep_loc))


def _sweep_losses(table: TapTable) -> np.ndarray:
    loc = table.sweep_loc
    received_dbm = linear_to_db_array(table.kept(_sweep_power_mw))
    return table.tx_power_dbm[loc] + table.gain_sum_dbi[loc] - received_dbm


def _first_per_location(rows: np.ndarray, loc: np.ndarray, keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Of ``rows``, the first of each location in the order of ``keys`` (the last key is primary)."""
    if not rows.size:
        return rows
    ordered = rows[np.lexsort(tuple(k[rows] for k in keys) + (loc[rows],))]
    return ordered[np.r_[True, loc[ordered][1:] != loc[ordered][:-1]]]


def _classes(table: TapTable) -> np.ndarray:
    loc = table.sweep_loc
    tx_az, rx_az = table.tx_az_deg, table.rx_az_deg
    classes = np.full(len(loc), _NB)
    bearings = np.zeros((len(table), 2))
    signal_los = np.flatnonzero(table.los & (table.n_sweeps > 0))
    bearings[signal_los] = bearings_deg_array(table.tx_pos_m[signal_los], table.rx_pos_m[signal_los])
    d_tx = circular_distance_deg(tx_az, bearings[loc, 0])
    d_rx = circular_distance_deg(rx_az, bearings[loc, 1])
    boresight = (
        table.los[loc]
        & (d_tx <= table.tx_step_deg[loc] / 2.0 + 1e-9)
        & (d_rx <= table.rx_step_deg[loc] / 2.0 + 1e-9)
    )
    classes[_first_per_location(np.flatnonzero(boresight), loc, (rx_az, tx_az, d_tx + d_rx))] = _B
    rest = np.flatnonzero(classes != _B)
    classes[_first_per_location(rest, loc, (rx_az, tx_az, -table.kept(_sweep_power_mw)))] = _NBB
    return classes


def _columns(table: TapTable, loc: np.ndarray, pl_db: np.ndarray) -> PathLossColumns:
    return PathLossColumns(loc, table.distance_m[loc], pl_db)


def omni_losses(
    table: TapTable, max_measurable_pl_db: float | None = None
) -> tuple[PathLossColumns, list[tuple[int, NoSignalError]]]:
    """The omni path-loss samples of a table's locations, and (index, error) of each location left out.

    The loss is recovered from the synthesized omni profile.  A location
    without signal, or (with ``max_measurable_pl_db`` set) one whose loss
    exceeds the sounder's measurable range, is left out with a NoSignalError;
    the left-out locations come in table order.
    """
    kept = np.flatnonzero(table.n_sweeps > 0)
    pl_db = table.tx_power_dbm[kept] - linear_to_db_array(omni_bins(table).total_mw[kept])
    excluded = {index: table.no_signal(index) for index in np.flatnonzero(table.n_sweeps == 0).tolist()}
    if max_measurable_pl_db is not None:
        loud = pl_db > max_measurable_pl_db
        for index, loss in zip(kept[loud].tolist(), pl_db[loud].tolist()):
            excluded[index] = NoSignalError(
                f"{table.name(index)}: path loss {loss:.1f} dB exceeds the {max_measurable_pl_db:g} dB measurable limit"
            )
        kept, pl_db = kept[~loud], pl_db[~loud]
    return _columns(table, kept, pl_db), sorted(excluded.items())


def _directional_rows(table: TapTable, max_measurable_pl_db: float | None) -> np.ndarray:
    """The sweep rows of a table's directional samples: location by location,
    sorted by (tx_az, rx_az) within one, directions beyond the ceiling dropped."""
    rows = np.lexsort((table.rx_az_deg, table.tx_az_deg, table.sweep_loc))
    if max_measurable_pl_db is not None:
        rows = rows[sweep_losses(table)[rows] <= max_measurable_pl_db]
    return rows


def directional_samples(
    table: TapTable, max_measurable_pl_db: float | None = None
) -> dict[SampleKind, PathLossColumns]:
    """Per-direction samples of every location of a table, by kind (B / NBB / NB).

    Samples come location by location, sorted by (tx_az, rx_az) within
    one; directions beyond the measurable-loss ceiling are dropped.
    """
    rows = _directional_rows(table, max_measurable_pl_db)
    classes = sweep_classes(table)[rows]
    out = {}
    for index, direction_class in enumerate(DIRECTION_CLASSES):
        kept = rows[classes == index]
        out[KIND_OF_CLASS[direction_class]] = _columns(table, table.sweep_loc[kept], sweep_losses(table)[kept])
    return out


def _fit_inputs(samples: PathLossColumns) -> tuple[np.ndarray, np.ndarray]:
    """(distances, losses) of ``samples``: every distance must exceed the
    reference and every loss must be finite."""
    distance_m, pl_db = samples.distance_m, samples.pl_db
    near = ~(distance_m > D0_M)
    if near.any():
        raise ValidationError("distance_m", f"must exceed the {D0_M:g} m reference, got {distance_m[near][0]}")
    if not np.isfinite(pl_db).all():
        raise ValidationError("pl_db", "must be finite")
    return distance_m, pl_db


def fit_ci(samples: PathLossColumns, frequency_hz: float) -> CiFit:
    """MMSE close-in exponent fit anchored at the 1 m free-space loss.

    Minimizes sum((excess - 10 n log10 d)^2) over n, where excess is the
    measured loss minus the 1 m anchor; sigma is the population RMS of
    the residuals.
    """
    distance_m, pl_db = _fit_inputs(samples)
    if len(distance_m) < 2:
        raise DegenerateFitError(f"need at least 2 samples to fit an exponent, got {len(distance_m)}")
    anchor = fspl(frequency_hz, D0_M)
    a = linear_to_db_array(distance_m / D0_M)
    b = pl_db - anchor
    denom = float(np.dot(a, a))
    if denom <= 1e-12:
        raise DegenerateFitError("all samples sit at the reference distance; exponent unconstrained")
    ple = float(np.dot(a, b) / denom)
    residuals = b - ple * a
    sigma = float(np.sqrt(np.mean(residuals**2)))
    return CiFit(ple=ple, sigma_db=sigma, n_samples=len(distance_m), fspl_anchor_db=anchor)


def fit_cix(vh_samples: PathLossColumns, ci_vv: CiFit, frequency_hz: float) -> CixFit:
    """Cross-polar discrimination fit over a fixed co-polar exponent.

    The offset is the mean excess of the cross-polar loss over the
    co-polar model; sigma is the population RMS about that mean.
    """
    distance_m, pl_db = _fit_inputs(vh_samples)
    if not len(distance_m):
        raise DegenerateFitError("need at least 1 cross-polar sample")
    anchor = fspl(frequency_hz, D0_M)
    # (pl - anchor) - (10 ple) log10(d), in the order the scalar form rounds
    excess = pl_db - anchor - 10.0 * ci_vv.ple * log10_array(distance_m / D0_M)
    xpd = float(np.mean(excess))
    sigma = float(np.sqrt(np.mean((excess - xpd) ** 2)))
    return CixFit(xpd_db=xpd, sigma_db=sigma, ple_vv=ci_vv.ple, n_samples=len(distance_m))
