"""The bundle's CSV tables against the per-row writers they replaced.

``loop_scatter_csv`` and ``loop_xpd_csv`` build each line with an
f-string and sort the scatter rows with ``sorted``; the package writes
the same tables with one stable ``np.lexsort`` and one ``%``-format pass.
The bytes must be equal.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from conftest import make_pdp

from subthz_chan import (
    Analysis,
    Campaign,
    PathClass,
    Polarization,
    SampleKind,
    SynthesisParams,
    ingest_campaign,
    render_campaign,
)
from subthz_chan.pipeline import DIRECTIONAL_KINDS, _scatter_csv


def _csv_value(value: float) -> str:
    return f"{value:.4f}"


def loop_scatter_csv(analysis: Analysis) -> str:
    lines = ["kind,polarization,los,distance_m,pl_db"]
    order = {kind: i for i, kind in enumerate(SampleKind)}
    sections = [(Polarization.VV, SampleKind.OMNI), (Polarization.VH, SampleKind.OMNI)]
    rows = []
    for pol, kind in sections + [(Polarization.VV, kind) for kind in DIRECTIONAL_KINDS.values()]:
        s = analysis.samples(pol, kind)
        columns = (s.distance_m, s.pl_db, analysis.table(pol).los[s.loc])
        rows += [(order[kind], pol.value, *row, kind.value) for row in zip(*(c.tolist() for c in columns))]
    for _, pol, distance_m, pl_db, los, kind in sorted(rows, key=lambda row: row[:4]):
        lines.append(f"{kind},{pol},{str(los).lower()},{_csv_value(distance_m)},{_csv_value(pl_db)}")
    return "\n".join(lines) + "\n"


def loop_xpd_csv(analysis: Analysis) -> str:
    lines = ["path_class,xpd_db,cdf"]
    for path_class in (PathClass.BORESIGHT, PathClass.REFLECTION):
        if path_class not in analysis.xpd:
            continue
        summary = analysis.xpd[path_class]
        for k, (value, _) in enumerate(summary.cdf):
            lines.append(f"{path_class.value},{_csv_value(value)},{_csv_value((k + 1) / summary.n)}")
    return "\n".join(lines) + "\n"


def silent_location(like):
    """A co-polar location like ``like`` whose every sweep sits below the noise floor."""
    sweeps = [make_pdp([10.0, 12.0], [-118.0, -112.0], rx_az=az, floor=-110.0) for az in (0.0, 8.0)]
    return replace(like, tx_id="TX-SILENT", rx_id="RX-SILENT", sweeps=sweeps)


@pytest.fixture(scope="module", params=[(40, 3), (60, 8), (25, 13)], ids=lambda p: f"n{p[0]}-seed{p[1]}")
def campaign(request, tmp_path_factory):
    """A seeded render plus one co-polar location without signal, which every report excludes."""
    placements, seed = request.param
    out = tmp_path_factory.mktemp("tables")
    rendered = ingest_campaign(render_campaign(SynthesisParams(), placements, seed, out).manifest_path)
    locations = rendered.locations + (silent_location(rendered.locations[0]),)
    return Campaign(rendered.campaign_id, rendered.carrier_hz, rendered.tx_power_dbm, locations)


class TestSameBytes:
    def test_scatter_csv(self, campaign):
        analysis = Analysis(campaign)
        assert analysis.excluded
        assert _scatter_csv(analysis) == loop_scatter_csv(Analysis(campaign))

    def test_xpd_csv(self, campaign):
        assert Analysis(campaign).xpd_csv() == loop_xpd_csv(Analysis(campaign))

    @pytest.mark.parametrize("kind", list(DIRECTIONAL_KINDS.values()))
    def test_after_a_cross_polar_directional_fit(self, campaign, kind):
        """VH classes computed first, for ``fit --pol VH``, leave both tables as they were."""
        analysis = Analysis(campaign)
        analysis.cross_polar(kind)
        assert len(analysis.samples(Polarization.VH, kind)) >= 1
        expected = Analysis(campaign)
        assert _scatter_csv(analysis) == loop_scatter_csv(expected)
        assert analysis.xpd_csv() == loop_xpd_csv(expected)

    def test_over_ceiling_exclusions(self, campaign):
        """A low ceiling excludes many locations; the tables still match."""
        analysis = Analysis(campaign, max_measurable_pl_db=118.0)
        assert len(analysis.excluded) > 1
        assert _scatter_csv(analysis) == loop_scatter_csv(Analysis(campaign, max_measurable_pl_db=118.0))
