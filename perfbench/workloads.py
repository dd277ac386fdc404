"""Workload inputs and the subthz-chan commands each repetition runs.

Every timed operation is a ``subthz-chan`` command run in-process through
``cli.main``, so the benchmark measures the commands a user runs, minus
interpreter start.  Inputs are pure functions of the workload seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: seed whose reports are stored under ``reference/``
DEFAULT_SEED = 1

#: placements at full size; ``--scale`` multiplies them
SYNTH_PLACEMENTS = 500
CLI_PLACEMENTS = 250
#: fewest placements at any scale: the fits need two usable locations
MIN_PLACEMENTS = 4

#: pointing used by the ``pas dump`` query; rendered campaigns always hold it
PAS_LOCATION = ("TX0001", "RX0001")
#: the location ``render_inputs`` adds, which every report excludes
NO_SIGNAL_LOCATION = ("TX9999", "RX9999")


def _no_signal_location(sc, like):
    """A co-polar location whose every pointing sits below the noise floor.

    ``run_pipeline`` excludes it from the path-loss fits, so the exclusion
    path runs on every report of the workload.
    """
    sweeps = tuple(
        sc.DirectionalPdp(
            tx_az_deg=(180.0 - rx_az) % 360.0,
            rx_az_deg=rx_az,
            delays_ns=(10.0, 12.0, 14.0),
            powers_db=(-118.0, -112.0, -121.0),
            noise_floor_db=-110.0,
        )
        for rx_az in (0.0, 90.0, 180.0)
    )
    return sc.LocationMeasurement(
        tx_id=NO_SIGNAL_LOCATION[0],
        rx_id=NO_SIGNAL_LOCATION[1],
        tx_pos_m=(40.0, -10.0, like.tx_pos_m[2]),
        rx_pos_m=(0.0, -10.0, like.rx_pos_m[2]),
        polarization=sc.Polarization.VV,
        los=False,
        sweeps=sweeps,
        tx_antenna=like.tx_antenna,
        rx_antenna=like.rx_antenna,
        tx_power_dbm=like.tx_power_dbm,
    )


def render_inputs(placements: int, seed: int, out_dir: Path) -> Path:
    """Synthetic campaign through the package's own generator, plus one
    location without signal, written back through ``write_campaign``."""
    import subthz_chan as sc  # from the src/ tree run.load_package() put on the path

    out = out_dir / "campaign"
    rendered = sc.ingest_campaign(sc.render_campaign(sc.SynthesisParams(), placements, seed, out).manifest_path)
    campaign = sc.Campaign(
        rendered.campaign_id,
        rendered.carrier_hz,
        rendered.tx_power_dbm,
        rendered.locations + (_no_signal_location(sc, rendered.locations[0]),),
    )
    return sc.write_campaign(campaign, out)


def query_commands(manifest: Path) -> list[tuple[str, list[str]]]:
    """The one-at-a-time subcommands of the ``cli_queries`` workload."""
    m = ["--manifest", str(manifest)]
    fits = [
        (f"fit_{pol}_{kind}", ["fit", "pathloss", *m, "--pol", pol, "--kind", kind])
        for pol, kind in (("VV", "omni"), ("VH", "omni"), ("VV", "B"), ("VV", "NBB"), ("VV", "NB"))
    ]
    tx_id, rx_id = PAS_LOCATION
    return [
        ("ingest", ["ingest", *m, "--format", "json"]),
        *fits,
        ("stats_delay", ["stats", "delay", *m]),
        ("stats_angular", ["stats", "angular", *m]),
        ("pas_dump", ["pas", "dump", *m, "--tx-id", tx_id, "--rx-id", rx_id, "--side", "AOA"]),
        ("xpd_report", ["xpd", "report", *m]),
    ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``placements`` is the full-size count."""

    name: str
    placements: int
    #: True: each repetition renders its campaign with ``synth`` and then
    #: runs only the ``ingest --format json`` validation a user runs first.
    #: False: set-up builds the campaign with ``render_inputs`` and each
    #: repetition runs the full query round.
    renders_in_rep: bool

    def size(self, scale: float) -> int:
        return max(MIN_PLACEMENTS, round(self.placements * scale))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth_report", SYNTH_PLACEMENTS, renders_in_rep=True),
        Workload("cli_queries", CLI_PLACEMENTS, renders_in_rep=False),
    )
}
