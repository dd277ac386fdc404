"""Direction-resolved cross-polarization discrimination."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .measurement import Polarization, TapTable, ValidationError
from .pathloss import DIRECTION_CLASSES, DirectionClass, sweep_classes, sweep_losses


class PathClass(str, Enum):
    """Propagation mechanism behind one pointing pair."""

    BORESIGHT = "boresight"
    REFLECTION = "reflection"


def _placement_rows(table: TapTable, pol: Polarization) -> dict[tuple[str, str], int]:
    """The table row of each (tx_id, rx_id) of a table of ``pol`` locations, in table order;
    ValidationError for the first location of the other polarization or of a placement an earlier row holds."""
    rows: dict[tuple[str, str], int] = {}
    for index, (tx_id, rx_id, key_pol) in enumerate(map(table.columns.keys.__getitem__, table.rows.tolist())):
        if key_pol is not pol:
            raise ValidationError("polarization", f"a {pol.value} table holds {table.name(index)}")
        earlier = rows.setdefault((tx_id, rx_id), index)
        if earlier != index:
            raise ValidationError("rx_id", f"a {pol.value} table holds {table.name(index)} at rows {earlier} and {index}")
    return rows


class XpdColumns(NamedTuple):
    """Directional XPDs of several polarization pairs, one row per shared direction.

    ``loc`` is the V-V table row of the row's placement.  Rows run in V-V
    table order, directions sorted by (tx_az, rx_az) within a placement.
    """

    loc: np.ndarray
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


def xpd_columns(vv: TapTable, vh: TapTable) -> XpdColumns:
    """Per-direction XPD = PL_cross - PL_co over directions detectable in both polarizations of a placement.

    Each location of the V-V table ``vv`` pairs with the location of the
    V-H table ``vh`` that has its (tx_id, rx_id); a location without one
    adds no rows.  ValidationError for a table that holds a location of
    the other polarization or one placement twice, then for the first pair
    in V-V order measured at different positions (``tx_pos_m`` if the TX
    moved).  Path classes come from the co-polar sweep, through the
    classification kept with ``vv``: boresight for its B direction,
    reflection for every other.  Nothing detectable in both polarizations
    is a data fact, not an error.
    """
    placements = _placement_rows(vv, Polarization.VV)
    vh_rows = _placement_rows(vh, Polarization.VH)
    row_vh = np.fromiter(map(vh_rows.get, placements, repeat(-1)), dtype=np.intp, count=len(vv))
    paired = row_vh >= 0
    rows_vv, rows_vh = np.flatnonzero(paired), row_vh[paired]
    tx_moved = (vv.tx_pos_m[rows_vv] != vh.tx_pos_m[rows_vh]).any(axis=1)
    moved = np.flatnonzero(tx_moved | (vv.rx_pos_m[rows_vv] != vh.rx_pos_m[rows_vh]).any(axis=1))
    if moved.size:
        tx_id, rx_id, _ = vv.key(rows_vv[moved[0]])
        field = "tx_pos_m" if tx_moved[moved[0]] else "rx_pos_m"
        raise ValidationError(field, f"{tx_id}-{rx_id} was measured at different positions in VV and VH")
    loc_of_vv = np.where(paired, np.arange(len(vv)), -1)
    loc_of_vh = np.full(len(vh), -1)
    loc_of_vh[rows_vh] = rows_vv
    # stack both sides' sweeps under their V-V row (-1: unpaired); after sorting by
    # (loc, tx, rx, side) a direction shared by a pair is a VV row directly followed by its VH row
    loc = np.concatenate([loc_of_vv[vv.sweep_loc], loc_of_vh[vh.sweep_loc]])
    tx_az = np.concatenate([vv.tx_az_deg, vh.tx_az_deg])
    rx_az = np.concatenate([vv.rx_az_deg, vh.rx_az_deg])
    side = np.repeat([0, 1], [len(vv.sweep_loc), len(vh.sweep_loc)])
    order = np.lexsort((side, rx_az, tx_az, loc))
    order = order[loc[order] >= 0]
    p, t, r = loc[order], tx_az[order], rx_az[order]
    shared = np.flatnonzero((p[1:] == p[:-1]) & (t[1:] == t[:-1]) & (r[1:] == r[:-1]))
    co, cross = order[shared], order[shared + 1] - len(vv.sweep_loc)
    return XpdColumns(
        loc=p[shared],
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
