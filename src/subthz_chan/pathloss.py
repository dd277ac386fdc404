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
from typing import Iterable, Sequence

import numpy as np

from .delay import synthesize_omni_pdp
from .measurement import (
    D0_M,
    SPEED_OF_LIGHT_M_S,
    LocationMeasurement,
    NoSignalError,
    Polarization,
    ValidationError,
    circular_distance_deg,
    integrated_power_mw,
    linear_to_db,
    los_bearings_deg,
    signal_sweeps,
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


_KIND_FOR_CLASS = {
    DirectionClass.B: SampleKind.DIR_B,
    DirectionClass.NBB: SampleKind.DIR_NBB,
    DirectionClass.NB: SampleKind.DIR_NB,
}


@dataclass(frozen=True)
class PathLossSample:
    """One path-loss observation at one TX-RX separation."""

    distance_m: float
    pl_db: float
    polarization: Polarization
    kind: SampleKind
    los: bool

    def __post_init__(self):
        object.__setattr__(self, "polarization", Polarization(self.polarization))
        object.__setattr__(self, "kind", SampleKind(self.kind))
        if not self.distance_m > D0_M:
            raise ValidationError(
                "distance_m", f"must exceed the {D0_M:g} m reference, got {self.distance_m}"
            )
        if not math.isfinite(self.pl_db):
            raise ValidationError("pl_db", "must be finite")


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


def direction_path_loss_map(loc: LocationMeasurement) -> dict[tuple[float, float], float]:
    """Directional path loss per detectable pointing pair, antenna gains removed.

    PL = tx_power + tx_gain + rx_gain - received_power, where the received
    power integrates every above-floor delay bin of that pointing pair.
    """
    out: dict[tuple[float, float], float] = {}
    for pdp in loc.detectable_sweeps():
        received_dbm = linear_to_db(integrated_power_mw(pdp))
        out[pdp.direction] = loc.tx_power_dbm + loc.gain_sum_dbi - received_dbm
    return out


def classify_directions(
    loc: LocationMeasurement,
) -> dict[tuple[float, float], DirectionClass]:
    """Partition detectable pointing pairs into B / NBB / NB.

    At LOS locations the B pair is the one whose TX and RX azimuths both
    fall within half an azimuth step of the geometric bearings; among
    several candidates the smallest summed angular distance wins, then
    lexicographic order.  The strongest remaining pair by integrated
    power is NBB (NLOS locations have no B, only NBB).  Everything else
    is NB.
    """
    powers = {pdp.direction: integrated_power_mw(pdp) for pdp in signal_sweeps(loc)}
    classes: dict[tuple[float, float], DirectionClass] = {}
    remaining = set(powers)

    if loc.los:
        tx_bearing, rx_bearing = los_bearings_deg(loc)
        half_step_tx = loc.tx_antenna.az_step_deg / 2.0 + 1e-9
        half_step_rx = loc.rx_antenna.az_step_deg / 2.0 + 1e-9
        candidates = []
        for tx_az, rx_az in remaining:
            d_tx = circular_distance_deg(tx_az, tx_bearing)
            d_rx = circular_distance_deg(rx_az, rx_bearing)
            if d_tx <= half_step_tx and d_rx <= half_step_rx:
                candidates.append((d_tx + d_rx, (tx_az, rx_az)))
        if candidates:
            _, boresight = min(candidates)
            classes[boresight] = DirectionClass.B
            remaining.discard(boresight)

    if remaining:
        strongest = min(remaining, key=lambda d: (-powers[d], d))
        classes[strongest] = DirectionClass.NBB
        remaining.discard(strongest)
    for direction in remaining:
        classes[direction] = DirectionClass.NB
    return classes


def omni_path_loss(
    loc: LocationMeasurement, max_measurable_pl_db: float | None = None
) -> PathLossSample:
    """Omnidirectional path loss recovered from the synthesized omni profile.

    With ``max_measurable_pl_db`` set, a location whose recovered loss
    exceeds the sounder's measurable range raises NoSignalError instead
    of returning an untrustworthy value.
    """
    omni = synthesize_omni_pdp(loc)
    pl_db = loc.tx_power_dbm - omni.total_power_dbm
    if max_measurable_pl_db is not None and pl_db > max_measurable_pl_db:
        raise NoSignalError(
            f"{loc.tx_id}-{loc.rx_id} ({loc.polarization.value}): "
            f"path loss {pl_db:.1f} dB exceeds the {max_measurable_pl_db:g} dB measurable limit"
        )
    return PathLossSample(
        distance_m=loc.distance_m,
        pl_db=pl_db,
        polarization=loc.polarization,
        kind=SampleKind.OMNI,
        los=loc.los,
    )


def directional_path_loss(
    loc: LocationMeasurement, max_measurable_pl_db: float | None = None
) -> tuple[PathLossSample, ...]:
    """Per-direction path-loss samples labelled B / NBB / NB.

    Directions beyond the measurable-loss ceiling are dropped; the rest
    come back sorted by (tx_az, rx_az).
    """
    losses = direction_path_loss_map(loc)
    classes = classify_directions(loc)
    samples = []
    for direction in sorted(losses):
        pl_db = losses[direction]
        if max_measurable_pl_db is not None and pl_db > max_measurable_pl_db:
            continue
        samples.append(
            PathLossSample(
                distance_m=loc.distance_m,
                pl_db=pl_db,
                polarization=loc.polarization,
                kind=_KIND_FOR_CLASS[classes[direction]],
                los=loc.los,
            )
        )
    return tuple(samples)


def _check_homogeneous(samples: Sequence[PathLossSample]) -> None:
    pols = {s.polarization for s in samples}
    kinds = {s.kind for s in samples}
    if len(pols) > 1:
        raise ValidationError("polarization", f"mixed polarizations in one fit: {sorted(p.value for p in pols)}")
    if len(kinds) > 1:
        raise ValidationError("kind", f"mixed sample kinds in one fit: {sorted(k.value for k in kinds)}")


def fit_ci(samples: Sequence[PathLossSample], frequency_hz: float) -> CiFit:
    """MMSE close-in exponent fit anchored at the 1 m free-space loss.

    Minimizes sum((excess - 10 n log10 d)^2) over n, where excess is the
    measured loss minus the 1 m anchor; sigma is the population RMS of
    the residuals.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DegenerateFitError(f"need at least 2 samples to fit an exponent, got {len(samples)}")
    _check_homogeneous(samples)
    anchor = fspl(frequency_hz, D0_M)
    a = np.array([10.0 * math.log10(s.distance_m / D0_M) for s in samples])
    b = np.array([s.pl_db - anchor for s in samples])
    denom = float(np.dot(a, a))
    if denom <= 1e-12:
        raise DegenerateFitError("all samples sit at the reference distance; exponent unconstrained")
    ple = float(np.dot(a, b) / denom)
    residuals = b - ple * a
    sigma = float(np.sqrt(np.mean(residuals**2)))
    return CiFit(ple=ple, sigma_db=sigma, n_samples=len(samples), fspl_anchor_db=anchor)


def fit_cix(
    vh_samples: Sequence[PathLossSample], ci_vv: CiFit, frequency_hz: float
) -> CixFit:
    """Cross-polar discrimination fit over a fixed co-polar exponent.

    The offset is the mean excess of the cross-polar loss over the
    co-polar model; sigma is the population RMS about that mean.
    """
    vh_samples = list(vh_samples)
    if not vh_samples:
        raise DegenerateFitError("need at least 1 cross-polar sample")
    _check_homogeneous(vh_samples)
    for s in vh_samples:
        if s.polarization is not Polarization.VH:
            raise ValidationError("polarization", f"expected VH samples, got {s.polarization.value}")
    anchor = fspl(frequency_hz, D0_M)
    excess = np.array(
        [
            s.pl_db - anchor - 10.0 * ci_vv.ple * math.log10(s.distance_m / D0_M)
            for s in vh_samples
        ]
    )
    xpd = float(np.mean(excess))
    sigma = float(np.sqrt(np.mean((excess - xpd) ** 2)))
    return CixFit(xpd_db=xpd, sigma_db=sigma, ple_vv=ci_vv.ple, n_samples=len(vh_samples))


def collect_samples(
    locs: Iterable[LocationMeasurement],
    kind: SampleKind,
    max_measurable_pl_db: float | None = None,
) -> tuple[PathLossSample, ...]:
    """Gather samples of one kind across locations, skipping signal-free ones."""
    out: list[PathLossSample] = []
    for loc in locs:
        try:
            if kind is SampleKind.OMNI:
                out.append(omni_path_loss(loc, max_measurable_pl_db))
            else:
                out.extend(
                    s
                    for s in directional_path_loss(loc, max_measurable_pl_db)
                    if s.kind is kind
                )
        except NoSignalError:
            continue
    return tuple(out)
