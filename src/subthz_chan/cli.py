"""Command-line entry point for campaign analysis and synthesis.

Exit codes: 0 success, 2 validation or data-format failure, 3 degenerate
fit, 4 I/O failure.  The ``SUBTHZ_CHAN_LOG`` environment variable sets
the log level (DEBUG, INFO, WARNING, ...).
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .angular import Side, power_angular_spectrum
from .campaign_io import ingest_campaign, json_template
from .measurement import NoSignalError, Polarization, TapTable, ValidationError, checked_threshold_db
from .pathloss import DegenerateFitError, SampleKind
from .pipeline import (
    DEFAULT_MAX_PL_DB,
    DEFAULT_THRESHOLDS_DB,
    DIRECTIONAL_KINDS,
    Analysis,
    RunConfig,
    check_analysis_options,
    run_pipeline,
)
from .synthesis import SynthesisParams, factory_campaign_layout, render_campaign

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE_FIT = 3
EXIT_IO = 4

_KIND_FLAGS = {"omni": SampleKind.OMNI, **DIRECTIONAL_KINDS}

#: the ``ingest --format json`` document, as ``json.dumps(doc, indent=2, sort_keys=True)``
#: lays it out: the head, the locations joined by commas, the tail
_INGEST_HEAD, _INGEST_TAIL = json_template(
    {"campaign_id": "%s", "carrier_hz": "%s", "locations": [None], "tx_power_dbm": "%s"}
)
_INGEST_LOCATION = "\n    " + json_template(
    dict.fromkeys(("distance_m", "los", "n_detectable", "n_sweeps", "polarization", "rx_id", "tx_id"), "%s"), depth=2
)[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subthz-chan",
        description="Sub-THz channel-sounder campaign analysis and synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest(p):
        p.add_argument("--manifest", type=Path, required=True, help="campaign manifest JSON")

    def add_thresholds(p):
        p.add_argument(
            "--threshold-db",
            type=float,
            action="append",
            help="threshold below peak in dB; repeatable (default 20 and 30)",
        )

    def add_out(p, required=False):
        p.add_argument("--out", type=Path, required=required, help="output file or directory")

    p_ingest = sub.add_parser("ingest", help="validate a campaign and summarize it")
    add_manifest(p_ingest)
    p_ingest.add_argument("--format", choices=("text", "json"), default="text")

    p_fit = sub.add_parser("fit", help="fit path-loss models")
    fit_sub = p_fit.add_subparsers(dest="fit_target", required=True)
    p_fit_pl = fit_sub.add_parser("pathloss", help="close-in exponent fit on one sample class")
    add_manifest(p_fit_pl)
    p_fit_pl.add_argument("--pol", choices=[p.value for p in Polarization], default="VV")
    p_fit_pl.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="omni")
    p_fit_pl.add_argument("--carrier-hz", type=float, default=None, help="override the manifest carrier")
    p_fit_pl.add_argument(
        "--max-pl-db",
        type=float,
        default=DEFAULT_MAX_PL_DB,
        help="measurable path-loss ceiling; non-positive disables it",
    )
    p_fit_pl.add_argument("--scatter-csv", type=Path, default=None, help="also write distance/loss pairs here")

    p_stats = sub.add_parser("stats", help="campaign summary tables")
    stats_sub = p_stats.add_subparsers(dest="stats_kind", required=True)
    for name, help_text in (("delay", "delay-spread table"), ("angular", "angular-spread and lobe table")):
        p_s = stats_sub.add_parser(name, help=help_text)
        add_manifest(p_s)
        add_thresholds(p_s)
        add_out(p_s)

    p_pas = sub.add_parser("pas", help="power angular spectrum tools")
    pas_sub = p_pas.add_subparsers(dest="pas_action", required=True)
    p_pas_dump = pas_sub.add_parser("dump", help="per-bin spectrum of one location")
    add_manifest(p_pas_dump)
    p_pas_dump.add_argument("--tx-id", required=True)
    p_pas_dump.add_argument("--rx-id", required=True)
    p_pas_dump.add_argument("--pol", choices=[p.value for p in Polarization], default="VV")
    p_pas_dump.add_argument("--side", choices=[s.value for s in Side], required=True)
    p_pas_dump.add_argument("--threshold-db", type=float, default=30.0)
    add_out(p_pas_dump)

    p_xpd = sub.add_parser("xpd", help="cross-polar discrimination analysis")
    xpd_sub = p_xpd.add_subparsers(dest="xpd_action", required=True)
    p_xpd_report = xpd_sub.add_parser("report", help="per-class XPD summary and CDF")
    add_manifest(p_xpd_report)
    p_xpd_report.add_argument("--format", choices=("json", "csv"), default="json")
    add_out(p_xpd_report)

    p_synth = sub.add_parser("synth", help="render a synthetic campaign")
    p_synth.add_argument("--params", type=Path, default=None, help="generator parameters JSON")
    p_synth.add_argument("--n", type=int, default=None, help="number of TX-RX placements")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=Path, required=True, help="campaign output directory")
    p_synth.add_argument(
        "--factory-layout",
        action="store_true",
        help="use the fixed 13-placement floor plan instead of --n drawn placements",
    )
    p_synth.add_argument("--tx-power-dbm", type=float, default=0.0)
    p_synth.add_argument("--campaign-id", default="synthetic-factory-142ghz")
    p_synth.add_argument("--truth-out", type=Path, default=None, help="write ground-truth drops JSON here")

    p_report = sub.add_parser("report", help="run the full pipeline and write the report bundle")
    add_manifest(p_report)
    add_thresholds(p_report)
    add_out(p_report, required=True)
    p_report.add_argument("--carrier-hz", type=float, default=None, help="override the manifest carrier")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument(
        "--format",
        action="append",
        choices=("csv", "json"),
        help="report formats; repeatable (default both)",
    )
    p_report.add_argument(
        "--max-pl-db",
        type=float,
        default=DEFAULT_MAX_PL_DB,
        help="measurable path-loss ceiling; non-positive disables it",
    )
    return parser


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def _cmd_ingest(args) -> int:
    campaign = ingest_campaign(args.manifest)
    if args.format == "json":
        print(_ingest_json(campaign))
        return EXIT_OK
    tx_ids, rx_ids, pols, distance_m, los, n_sweeps, n_detectable = _location_summaries(campaign)
    n_vv = pols.count("VV")
    print(
        f"campaign {campaign.campaign_id}: {len(pols)} locations "
        f"({n_vv} VV, {len(pols) - n_vv} VH), carrier {campaign.carrier_hz / 1e9:g} GHz"
    )
    for tx_id, rx_id, pol, d, is_los, n, k in zip(tx_ids, rx_ids, pols, distance_m, los, n_sweeps, n_detectable):
        print(f"  {tx_id}-{rx_id} {pol} d={d:.2f} m {'LOS' if is_los else 'NLOS'} sweeps={n} detectable={k}")
    return EXIT_OK


def _location_summaries(campaign) -> tuple[list, ...]:
    """(tx_id, rx_id, polarization, distance_m rounded to 4 decimals, los, n_sweeps,
    n_detectable) of every location, as columns."""
    c = campaign.columns
    tx_ids, rx_ids, pols = zip(*c.keys)
    # Python's round, which rounds the float's exact value: np.round can round a half-way spelling the other way
    distance_m = list(map(round, c.distance_m.tolist(), repeat(4)))
    n_detectable = np.bincount(c.sweep_loc[c.detectable], minlength=len(c))
    n_sweeps = np.diff(c.sweep_bounds).tolist()
    return tx_ids, rx_ids, [pol.value for pol in pols], distance_m, c.los.tolist(), n_sweeps, n_detectable.tolist()


def _ingest_json(campaign) -> str:
    """The ``ingest --format json`` document of an ingested (so non-empty) campaign,
    with the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``."""
    tx_ids, rx_ids, pols, distance_m, los, n_sweeps, n_detectable = _location_summaries(campaign)
    locations = zip(
        distance_m, map(("false", "true").__getitem__, los), n_detectable, n_sweeps,
        *(map(encode_basestring_ascii, column) for column in (pols, rx_ids, tx_ids)),
    )
    head = map(json.dumps, (campaign.campaign_id, campaign.carrier_hz))
    return (
        _INGEST_HEAD % tuple(head)
        + ",".join(map(_INGEST_LOCATION.__mod__, locations))
        + _INGEST_TAIL % json.dumps(campaign.tx_power_dbm)
    )


def _ceiling(value: float) -> float | None:
    # NaN is kept, for the ceiling check to reject
    return None if value <= 0 else value


def _thresholds(args) -> tuple[float, ...]:
    return tuple(args.threshold_db) if args.threshold_db else DEFAULT_THRESHOLDS_DB


def _analysis(manifest: Path, **options) -> Analysis:
    """The ``Analysis`` of a campaign, its options checked before the campaign is read."""
    check_analysis_options(**options)
    return Analysis(ingest_campaign(manifest), **options)


def _cmd_fit_pathloss(args) -> int:
    analysis = _analysis(args.manifest, carrier_hz=args.carrier_hz, max_measurable_pl_db=_ceiling(args.max_pl_db))
    kind = _KIND_FLAGS[args.kind]
    pol = Polarization(args.pol)
    doc = asdict(analysis.fit(pol, kind))
    if pol is Polarization.VH:
        doc["xpd_db"] = analysis.cross_polar(kind).xpd_db
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.scatter_csv is not None:
        lines = ["distance_m,pl_db"]
        samples = analysis.samples(pol, kind)
        for distance_m, pl_db in sorted(zip(samples.distance_m.tolist(), samples.pl_db.tolist())):
            lines.append(f"{distance_m:.4f},{pl_db:.4f}")
        _write_or_print("\n".join(lines) + "\n", args.scatter_csv)
    return EXIT_OK


def _cmd_stats(args) -> int:
    analysis = _analysis(args.manifest, thresholds_db=_thresholds(args))
    _write_or_print(analysis.summary_csv(args.stats_kind), args.out)
    return EXIT_OK


def _cmd_pas_dump(args) -> int:
    threshold_db = checked_threshold_db(args.threshold_db)
    campaign = ingest_campaign(args.manifest)
    pol = Polarization(args.pol)
    row = campaign.find((args.tx_id, args.rx_id, pol))
    if row is None:
        raise ValidationError(
            "rx_id", f"no location {args.tx_id}-{args.rx_id} with polarization {pol.value}"
        )
    pas = power_angular_spectrum(TapTable(campaign.columns, [row]), 0, Side(args.side), threshold_db)
    lines = ["bin_deg,power_db"]
    for bin_deg, power_mw in zip(pas.bins_deg, pas.powers_mw):
        if power_mw > 0:
            lines.append(f"{bin_deg:.4f},{10.0 * math.log10(power_mw):.4f}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_xpd_report(args) -> int:
    analysis = _analysis(args.manifest)
    if args.format == "csv":
        _write_or_print(analysis.xpd_csv(), args.out)
    else:
        _write_or_print(json.dumps(analysis.xpd_json(), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.params is not None:
        params = SynthesisParams.from_json_dict(json.loads(args.params.read_text(encoding="utf-8")))
    else:
        params = SynthesisParams()
    layout = factory_campaign_layout() if args.factory_layout else None
    rendered = render_campaign(
        params,
        args.n,
        args.seed,
        args.out,
        layout=layout,
        tx_power_dbm=args.tx_power_dbm,
        campaign_id=args.campaign_id,
    )
    if args.truth_out is not None:
        truth = [{**asdict(d), "effective_omni_xpd_db": d.effective_omni_xpd_db} for d in rendered.drops]
        args.truth_out.parent.mkdir(parents=True, exist_ok=True)
        args.truth_out.write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(rendered.manifest_path)
    return EXIT_OK


def _cmd_report(args) -> int:
    config = RunConfig(
        manifest_path=args.manifest,
        out_dir=args.out,
        thresholds_db=_thresholds(args),
        carrier_hz=args.carrier_hz,
        seed=args.seed,
        formats=tuple(args.format) if args.format else ("csv", "json"),
        max_measurable_pl_db=_ceiling(args.max_pl_db),
    )
    for path in run_pipeline(config):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("SUBTHZ_CHAN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    args = _build_parser().parse_args(argv)
    handlers = {
        "ingest": _cmd_ingest,
        "fit": _cmd_fit_pathloss,
        "stats": _cmd_stats,
        "pas": _cmd_pas_dump,
        "xpd": _cmd_xpd_report,
        "synth": _cmd_synth,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except DegenerateFitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE_FIT
    except NoSignalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as err:
        # covers ValidationError, CampaignFormatError, and bad JSON
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
