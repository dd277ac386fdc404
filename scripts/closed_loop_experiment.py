#!/usr/bin/env python3
"""Round-trip check: render a synthetic campaign, analyze it, compare to truth.

Draws ``--n`` TX-RX placements with the default generator parameters,
renders them to sweep files, runs the full analysis stack on the result,
and prints generator truth next to the recovered statistics.
"""
from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from subthz_chan import (
    Analysis,
    PathClass,
    Polarization,
    SampleKind,
    SynthesisParams,
    ingest_campaign,
    render_campaign,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="number of placements")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--keep", type=Path, default=None, help="render here instead of a temp dir"
    )
    args = parser.parse_args()

    params = SynthesisParams()
    with tempfile.TemporaryDirectory() as tmp:
        out = args.keep if args.keep is not None else Path(tmp) / "campaign"
        rendered = render_campaign(params, args.n, args.seed, out)
        analysis = Analysis(ingest_campaign(rendered.manifest_path), thresholds_db=(30.0,))
        ci_vv = analysis.fit(Polarization.VV, SampleKind.OMNI)
        cix = analysis.cross_polar(SampleKind.OMNI)
        angular = analysis.angular[30.0]
        classes = analysis.xpd

        truth_xpd = float(np.mean([d.effective_omni_xpd_db for d in rendered.drops]))
        truth_lobes = float(np.mean([len(d.lobes) for d in rendered.drops]))

        print(f"{args.n} placements, seed {args.seed}")
        print(f"{'quantity':<28}{'truth':>10}{'recovered':>12}")
        rows = [
            ("path-loss exponent", params.ple, ci_vv.ple),
            ("shadowing sigma (dB)", params.shadow_sigma_db, ci_vv.sigma_db),
            ("omni XPD (dB)", truth_xpd, cix.xpd_db),
            ("mean lobes per drop", truth_lobes, angular.n_aoa_lobes.mean),
            (
                "boresight XPD (dB)",
                params.xpd_boresight.mean_db,
                classes[PathClass.BORESIGHT].mean_db,
            ),
        ]
        if PathClass.REFLECTION in classes:
            rows.append(
                (
                    "reflection XPD (dB)",
                    params.xpd_reflection.mean_db,
                    classes[PathClass.REFLECTION].mean_db,
                )
            )
        for name, truth, got in rows:
            print(f"{name:<28}{truth:>10.3f}{got:>12.3f}")


if __name__ == "__main__":
    main()
