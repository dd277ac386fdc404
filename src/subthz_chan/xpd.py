"""Direction-resolved cross-polarization discrimination."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .measurement import Polarization, TapTable, ValidationError
from .pathloss import DIRECTION_CLASSES, DirectionClass, sweep_classes, sweep_losses


class PathClass(str, Enum):
    """Propagation mechanism behind one pointing pair."""

    BORESIGHT = "boresight"
    REFLECTION = "reflection"


def _check_pairs(vv: TapTable, rows_vv: np.ndarray, vh: TapTable, rows_vh: np.ndarray) -> None:
    """ValidationError for the first pair that mixes two placements, does not run
    VV then VH, or was measured at different positions (checked in that order)."""
    keys_vv = list(map(vv.columns.keys.__getitem__, vv.rows[rows_vv].tolist()))
    keys_vh = list(map(vh.columns.keys.__getitem__, vh.rows[rows_vh].tolist()))
    ids, pol = operator.itemgetter(0, 1), operator.itemgetter(2)
    same_ids = list(map(operator.eq, map(ids, keys_vv), map(ids, keys_vh)))
    vv_first = list(map(operator.is_, map(pol, keys_vv), repeat(Polarization.VV)))
    vh_second = list(map(operator.is_, map(pol, keys_vh), repeat(Polarization.VH)))
    same_positions = (vv.tx_pos_m[rows_vv] == vh.tx_pos_m[rows_vh]) & (vv.rx_pos_m[rows_vv] == vh.rx_pos_m[rows_vh])
    bad = np.flatnonzero(~np.all((same_ids, vv_first, vh_second, same_positions.all(axis=1)), axis=0))
    if not bad.size:
        return
    (tx_vv, rx_vv, pol_vv), (tx_vh, rx_vh, pol_vh) = keys_vv[bad[0]], keys_vh[bad[0]]
    if (tx_vv, rx_vv) != (tx_vh, rx_vh):
        raise ValidationError(
            "rx_id", f"polarization pair mixes locations: {tx_vv}-{rx_vv} vs {tx_vh}-{rx_vh}"
        )
    if pol_vv is not Polarization.VV:
        raise ValidationError("polarization", f"first location must be VV, got {pol_vv.value}")
    if pol_vh is not Polarization.VH:
        raise ValidationError("polarization", f"second location must be VH, got {pol_vh.value}")
    raise ValidationError("tx_pos_m", "polarization pair was measured at different positions")


class XpdColumns(NamedTuple):
    """Directional XPDs of several polarization pairs, one row per shared direction.

    Rows run pair by pair, directions sorted by (tx_az, rx_az) within one.
    """

    pair: np.ndarray
    tx_az_deg: np.ndarray
    rx_az_deg: np.ndarray
    xpd_db: np.ndarray
    boresight: np.ndarray

    def summary(self) -> dict[PathClass, XpdClassSummary]:
        """Mean, population std, and empirical CDF of these rows' XPD per path class.

        CDF points are (value, (k+1)/n) over the sorted values; classes
        with no rows are left out, and the rest are keyed in order of first
        appearance.
        """
        out: dict[PathClass, XpdClassSummary] = {}
        for flag in dict.fromkeys(self.boresight.tolist()):
            arr = np.sort(self.xpd_db[self.boresight == flag])
            n = len(arr)
            out[PathClass.BORESIGHT if flag else PathClass.REFLECTION] = XpdClassSummary(
                mean_db=float(np.mean(arr)),
                std_db=float(np.sqrt(np.mean((arr - np.mean(arr)) ** 2))),
                n=n,
                # (k + 1) / n divides the same doubles as the int division does
                cdf=tuple(zip(arr.tolist(), (np.arange(1, n + 1) / n).tolist())),
            )
        return out


def xpd_columns(vv: TapTable, vh: TapTable, rows: Sequence[tuple[int, int]]) -> XpdColumns:
    """Per-direction XPD = PL_cross - PL_co over directions detectable in both of a pair.

    ``rows`` pairs a location row of table ``vv`` with the row of ``vh``
    that measured the same placement, each row in at most one pair: a
    pair must join one (tx_id, rx_id), VV then VH, measured at the same
    positions (ValidationError otherwise).  Path classes come from the
    co-polar sweep, through the classification kept with ``vv``: boresight
    for its B direction, reflection for every other.  Nothing detectable
    in both polarizations is a data fact, not an error.
    """
    rows_vv, rows_vh = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    _check_pairs(vv, rows_vv, vh, rows_vh)
    pair_of_vv = np.full(len(vv), -1)
    pair_of_vh = np.full(len(vh), -1)
    pair_of_vv[rows_vv] = pair_of_vh[rows_vh] = np.arange(len(rows_vv))
    # stack both sides' sweeps; after sorting by (pair, tx, rx, side) a
    # direction shared by a pair is a VV row directly followed by its VH row
    pair = np.concatenate([pair_of_vv[vv.sweep_loc], pair_of_vh[vh.sweep_loc]])
    tx_az = np.concatenate([vv.tx_az_deg, vh.tx_az_deg])
    rx_az = np.concatenate([vv.rx_az_deg, vh.rx_az_deg])
    side = np.repeat([0, 1], [len(vv.sweep_loc), len(vh.sweep_loc)])
    order = np.lexsort((side, rx_az, tx_az, pair))
    order = order[pair[order] >= 0]
    p, t, r = pair[order], tx_az[order], rx_az[order]
    shared = np.flatnonzero((p[1:] == p[:-1]) & (t[1:] == t[:-1]) & (r[1:] == r[:-1]))
    co, cross = order[shared], order[shared + 1] - len(vv.sweep_loc)
    return XpdColumns(
        pair=p[shared],
        tx_az_deg=t[shared],
        rx_az_deg=r[shared],
        xpd_db=sweep_losses(vh)[cross] - sweep_losses(vv)[co],
        boresight=sweep_classes(vv)[co] == DIRECTION_CLASSES.index(DirectionClass.B),
    )


@dataclass(frozen=True)
class XpdClassSummary:
    """Population statistics of XPD within one path class."""

    mean_db: float
    std_db: float
    n: int
    cdf: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n", "summary needs at least one sample")
        if len(self.cdf) != self.n:
            raise ValidationError("cdf", "one CDF point per sample expected")
