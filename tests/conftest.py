"""Shared builders for the test suite."""
from __future__ import annotations

import math

from hypothesis import HealthCheck, settings

from subthz_chan import (
    AntennaConfig,
    DirectionalPdp,
    LocationColumns,
    LocationMeasurement,
    OmniPdp,
    Polarization,
    TapTable,
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


def omni_pdp(table: TapTable, index: int = 0) -> OmniPdp:
    """The ``OmniPdp`` of location ``index`` of a table, from its ``omni_bins``; NoSignalError without signal."""
    table.require_signal(index)
    omni = omni_bins(table)
    mine = omni.loc == index
    return OmniPdp(tuple(omni.delay_ns[mine].tolist()), tuple(omni.power_mw[mine].tolist()), table.key(index))
