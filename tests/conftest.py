"""Shared builders for the test suite."""
from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from hypothesis import HealthCheck, settings

from subthz_chan import (
    AntennaConfig,
    Campaign,
    DirectionalPdp,
    LocationColumns,
    LocationMeasurement,
    Polarization,
    TapTable,
    angular_spreads,
    delay_spreads,
    linear_to_db,
    omni_bins,
    sweep_losses,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_pdp(delays, powers, tx_az=0.0, rx_az=0.0, floor=-200.0):
    return DirectionalPdp(
        tx_az_deg=tx_az,
        rx_az_deg=rx_az,
        delays_ns=tuple(delays),
        powers_db=tuple(powers),
        noise_floor_db=floor,
    )


def make_location(
    sweeps,
    distance=10.0,
    pol=Polarization.VV,
    los=True,
    tx_id="TX1",
    rx_id="RX1",
    tx_power=0.0,
):
    """Location with the TX straight across the aisle: LOS bearings (180, 0).

    The TX sits at height 3 m and the RX at 1.5 m, so the ground-plane
    offset is sqrt(d^2 - 1.5^2) and the 3D separation is exactly ``distance``.
    """
    x = math.sqrt(distance * distance - 2.25)
    return LocationMeasurement(
        tx_id=tx_id,
        rx_id=rx_id,
        tx_pos_m=(x, 0.0, 3.0),
        rx_pos_m=(0.0, 0.0, 1.5),
        polarization=pol,
        los=los,
        sweeps=tuple(sweeps),
        tx_antenna=AntennaConfig.default_tx(),
        rx_antenna=AntennaConfig.default_rx(),
        tx_power_dbm=tx_power,
    )


def campaign_of(*locations) -> Campaign:
    """A 142 GHz campaign of some location records: the one place their values are checked."""
    return Campaign("test", 142e9, 0.0, locations)


def table_of(*locations) -> TapTable:
    """The tap table of some location records, in the order given."""
    return TapTable(LocationColumns.of(locations))


def by_direction(table: TapTable, values) -> dict:
    """{(tx_az, rx_az): value} of one value per sweep row of a one-location table."""
    return dict(zip(zip(table.tx_az_deg.tolist(), table.rx_az_deg.tolist()), values.tolist()))


def direction_path_loss_map(loc) -> dict:
    """{(tx_az, rx_az): path loss} of each detectable pointing pair of one location."""
    table = table_of(loc)
    return by_direction(table, sweep_losses(table))


class OmniProfile(NamedTuple):
    """One location's rows of ``omni_bins``."""

    delays_ns: tuple[float, ...]
    powers_mw: tuple[float, ...]
    total_power_dbm: float
    source: tuple[str, str, Polarization]


def omni_pdp(table: TapTable, index: int = 0) -> OmniProfile:
    """The omni PDP of location ``index`` of a table, from its ``omni_bins``; NoSignalError without signal."""
    table.require_signal(index)
    omni = omni_bins(table)
    mine = omni.loc == index
    return OmniProfile(
        tuple(omni.delay_ns[mine].tolist()),
        tuple(omni.power_mw[mine].tolist()),
        linear_to_db(omni.total_mw[index]),
        table.key(index),
    )


def delay_spread_pair(pdp_or_table, threshold_db: float) -> tuple[float, float]:
    """(RMS, maximum) delay spread of a sweep, or of the omni PDP of a one-location table, via ``delay_spreads``.

    A ``DirectionalPdp`` is measured as the only sweep of a location.
    """
    if isinstance(pdp_or_table, DirectionalPdp):
        spreads = delay_spreads(table_of(make_location([pdp_or_table])), threshold_db)
        return float(spreads.dir_rmsds[0]), float(spreads.dir_mds[0])
    spreads = delay_spreads(pdp_or_table, threshold_db)
    return float(spreads.omni_rmsds[0]), float(spreads.omni_mds[0])


def rms_delay_spread(pdp_or_table, threshold_db: float) -> float:
    return delay_spread_pair(pdp_or_table, threshold_db)[0]


def max_delay_spread(pdp_or_table, threshold_db: float) -> float:
    return delay_spread_pair(pdp_or_table, threshold_db)[1]


def spectrum_table(powers, phase_deg: float = 0.0, rotation_deg: float = 0.0) -> TapTable:
    """An n-bin angular spectrum as a one-location table: one sweep per non-zero bin.

    Bin ``k`` sits at RX azimuth ``phase_deg + k * 360 / n`` (turned by
    ``rotation_deg``) on an RX antenna stepping 360 / n; each sweep holds
    one tap of the bin's power in dB, above a floor under the weakest.
    """
    step = 360.0 / len(powers)
    taps = [(k, linear_to_db(p)) for k, p in enumerate(powers) if p > 0]
    floor = min(p for _, p in taps) - 1.0
    sweeps = [
        make_pdp([10.0], [p], rx_az=(phase_deg + k * step + rotation_deg) % 360.0, floor=floor) for k, p in taps
    ]
    loc = make_location(sweeps)
    return table_of(replace(loc, rx_antenna=AntennaConfig(hpbw_deg=min(8.0, step), az_step_deg=step)))


def rms_angular_spread(table: TapTable) -> float:
    """AOA RMS angular spread of a one-location table, at a threshold above its dynamic range."""
    threshold_db = float(table.power_db.max() - table.power_db.min()) + 1.0
    return float(angular_spreads(table, threshold_db).aoa_rmsas[0])


def aoa_lobe_count(table: TapTable, threshold_db: float) -> int:
    """Spatial AOA lobes of a one-location table, via ``angular_spreads``."""
    return int(angular_spreads(table, threshold_db).n_aoa_lobes[0])
