"""Omnidirectional PDP synthesis and delay-spread statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .measurement import (
    DirectionalPdp,
    LocationMeasurement,
    NoSignalError,
    Polarization,
    ValidationError,
    checked_threshold_db,
    db_to_linear,
    linear_to_db,
    signal_sweeps,
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


def synthesize_omni_pdp(loc: LocationMeasurement) -> OmniPdp:
    """Sum linear power per delay bin over all pointing pairs, gains removed.

    Only bins at or above each sweep's noise floor contribute; sweeps whose
    peak never clears the floor are skipped entirely.  Absolute delay
    alignment across pointing pairs is preserved.
    """
    gains = loc.gain_sum_dbi
    acc: dict[float, float] = {}
    for pdp in signal_sweeps(loc):
        for delay, power in pdp.detected_bins():
            acc[delay] = acc.get(delay, 0.0) + db_to_linear(power - gains)
    delays = tuple(sorted(acc))
    return OmniPdp(
        delays_ns=delays,
        powers_mw=tuple(acc[t] for t in delays),
        source=(loc.tx_id, loc.rx_id, loc.polarization),
    )


def _thresholded_taps(pdp: Pdp, threshold_db: float) -> list[tuple[float, float]]:
    """(delay, linear power) pairs surviving the peak-relative threshold.

    Omni bins compare in linear power, sweep bins in dB: taps exactly
    ``threshold_db`` down can fall on either side of the two cuts.
    """
    if isinstance(pdp, OmniPdp):
        cut = max(pdp.powers_mw) * db_to_linear(-checked_threshold_db(threshold_db))
        return [(t, p) for t, p in zip(pdp.delays_ns, pdp.powers_mw) if p >= cut]
    return [(t, db_to_linear(p)) for t, p in pdp.window_bins(threshold_db)]


def _spreads(taps: list[tuple[float, float]]) -> tuple[float, float]:
    """(RMS, maximum) delay spread of (delay, linear power) taps, ns."""
    total = sum(p for _, p in taps)
    # center on the first tap before taking moments so large absolute delays
    # do not eat the variance in floating point
    t0 = taps[0][0]
    m1 = sum(p * (t - t0) for t, p in taps) / total
    m2 = sum(p * (t - t0) ** 2 for t, p in taps) / total
    return math.sqrt(max(m2 - m1 * m1, 0.0)), taps[-1][0] - t0


def rms_delay_spread(pdp: Pdp, threshold_db: float) -> float:
    """Power-weighted standard deviation of tap delay over thresholded taps, ns."""
    return _spreads(_thresholded_taps(pdp, threshold_db))[0]


def max_delay_spread(pdp: Pdp, threshold_db: float) -> float:
    """Delay extent (last minus first surviving tap) over thresholded taps, ns."""
    return _spreads(_thresholded_taps(pdp, threshold_db))[1]


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
    taps = _thresholded_taps(pdp, threshold_db)
    rmsds, mds = _spreads(taps)
    return DelayStats(rmsds_ns=rmsds, mds_ns=mds, threshold_db=threshold_db, n_taps=len(taps))


@dataclass(frozen=True)
class DelaySummary:
    """Campaign-wide delay statistics at one threshold."""

    threshold_db: float
    omni_rmsds: SummaryRow
    omni_mds: SummaryRow
    dir_rmsds: SummaryRow
    dir_mds: SummaryRow


def campaign_delay_summary(
    locs: Iterable[LocationMeasurement], threshold_db: float
) -> DelaySummary:
    """Five-number summaries of RMS and maximum delay spread over a campaign.

    Omni rows pool one value per location (synthesized from its sweeps);
    directional rows pool every pointing pair with detectable power.
    """
    omni_rmsds: list[float] = []
    omni_mds: list[float] = []
    dir_rmsds: list[float] = []
    dir_mds: list[float] = []
    for loc in locs:
        try:
            omni = synthesize_omni_pdp(loc)
        except NoSignalError:
            continue
        rmsds, mds = _spreads(_thresholded_taps(omni, threshold_db))
        omni_rmsds.append(rmsds)
        omni_mds.append(mds)
        for pdp in loc.detectable_sweeps():
            rmsds, mds = _spreads(_thresholded_taps(pdp, threshold_db))
            dir_rmsds.append(rmsds)
            dir_mds.append(mds)
    return DelaySummary(
        threshold_db=threshold_db,
        omni_rmsds=summarize(omni_rmsds),
        omni_mds=summarize(omni_mds),
        dir_rmsds=summarize(dir_rmsds),
        dir_mds=summarize(dir_mds),
    )
