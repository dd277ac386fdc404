"""Command-line entry point for campaign analysis and synthesis.

Exit codes: 0 success, 2 validation or data-format failure, 3 degenerate
fit, 4 I/O failure (a reader that closes stdout early included, which
prints nothing).  The ``SUBTHZ_CHAN_LOG`` environment variable sets the
log level (DEBUG, INFO, WARNING, ...; any other value means WARNING).
Every command that reads a campaign loads it with ``load_campaign``, which
keeps an ingest cache file next to the manifest.
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
from .campaign_io import json_template, load_campaign
from .measurement import NoSignalError, Polarization, TapTable, ValidationError
from .pathloss import DegenerateFitError, SampleKind
from .pipeline import DEFAULT_MAX_PL_DB, DEFAULT_THRESHOLDS_DB, DIRECTIONAL_KINDS, Analysis, _csv_rows, run_pipeline
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


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


def _cmd_ingest(args) -> int:
    campaign = load_campaign(args.manifest)
    if args.format == "json":
        print(_ingest_json(campaign))
        return EXIT_OK
    tx_ids, rx_ids, pols, distance_m, los, n_sweeps, n_detectable = _location_summaries(campaign)
    n_vv = pols.count("VV")
    listing = [
        f"campaign {campaign.campaign_id}: {len(pols)} locations "
        f"({n_vv} VV, {len(pols) - n_vv} VH), carrier {campaign.carrier_hz / 1e9:g} GHz"
    ]
    for tx_id, rx_id, pol, d, is_los, n, k in zip(tx_ids, rx_ids, pols, distance_m, los, n_sweeps, n_detectable):
        listing.append(f"  {tx_id}-{rx_id} {pol} d={d:.2f} m {'LOS' if is_los else 'NLOS'} sweeps={n} detectable={k}")
    print("\n".join(listing).encode("utf-8", "backslashreplace").decode("utf-8"))  # escapes a lone surrogate
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


def _cmd_fit_pathloss(args) -> int:
    analysis = Analysis.load(args.manifest, carrier_hz=args.carrier_hz, max_measurable_pl_db=_ceiling(args.max_pl_db))
    kind = _KIND_FLAGS[args.kind]
    pol = Polarization(args.pol)
    doc = asdict(analysis.fit(pol, kind))
    if pol is Polarization.VH:
        doc["xpd_db"] = analysis.cross_polar(kind).xpd_db
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.scatter_csv is not None:
        samples = analysis.samples(pol, kind)
        rows = sorted(zip(samples.distance_m.tolist(), samples.pl_db.tolist()))
        _write_or_print("distance_m,pl_db\n" + _csv_rows([""] * len(rows), *zip(*rows)), args.scatter_csv)
    return EXIT_OK


def _cmd_stats(args) -> int:
    analysis = Analysis.load(args.manifest, thresholds_db=_thresholds(args))
    _write_or_print(analysis.summary_csv(args.stats_kind), args.out)
    return EXIT_OK


def _cmd_pas_dump(args) -> int:
    analysis = Analysis.load(args.manifest, thresholds_db=(args.threshold_db,))
    pol = Polarization(args.pol)
    row = analysis.campaign.find((args.tx_id, args.rx_id, pol))
    if row is None:
        raise ValidationError(
            "rx_id", f"no location {args.tx_id}-{args.rx_id} with polarization {pol.value}"
        )
    one = TapTable(analysis.campaign.columns, [row])
    bins_deg, powers_mw = power_angular_spectrum(one, 0, Side(args.side), analysis.thresholds_db[0])
    kept = powers_mw > 0
    powers_db = [10.0 * math.log10(power_mw) for power_mw in powers_mw[kept].tolist()]
    _write_or_print("bin_deg,power_db\n" + _csv_rows([""] * len(powers_db), bins_deg[kept].tolist(), powers_db), args.out)
    return EXIT_OK


def _cmd_xpd_report(args) -> int:
    analysis = Analysis.load(args.manifest)
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
        args.truth_out.parent.mkdir(parents=True, exist_ok=True)
        args.truth_out.write_text(rendered.truth_json() + "\n", encoding="utf-8")
    print(rendered.manifest_path)
    return EXIT_OK


def _cmd_report(args) -> int:
    written = run_pipeline(args.manifest, args.out, thresholds_db=_thresholds(args), carrier_hz=args.carrier_hz,
                           formats=args.format or ("csv", "json"), max_measurable_pl_db=_ceiling(args.max_pl_db))
    for path in written:
        print(path)
    return EXIT_OK


def _add_manifest(p) -> None:
    p.add_argument("--manifest", type=Path, required=True, help="campaign manifest JSON")


def _add_thresholds(p) -> None:
    p.add_argument(
        "--threshold-db",
        type=float,
        action="append",
        help="threshold below peak in dB; repeatable (default 20 and 30)",
    )


def _add_out(p, required=False) -> None:
    p.add_argument("--out", type=Path, required=required, help="output file or directory")


def _add_max_pl(p) -> None:
    p.add_argument(
        "--max-pl-db",
        type=float,
        default=DEFAULT_MAX_PL_DB,
        help="measurable path-loss ceiling; non-positive disables it",
    )


def _ingest_arguments(p) -> None:
    _add_manifest(p)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _fit_arguments(p) -> None:
    p = p.add_subparsers(dest="fit_target", required=True).add_parser(
        "pathloss", help="close-in exponent fit on one sample class"
    )
    _add_manifest(p)
    p.add_argument("--pol", choices=[pol.value for pol in Polarization], default="VV")
    p.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="omni")
    p.add_argument("--carrier-hz", type=float, default=None, help="override the manifest carrier")
    _add_max_pl(p)
    p.add_argument("--scatter-csv", type=Path, default=None, help="also write distance/loss pairs here")


def _stats_arguments(p) -> None:
    stats_sub = p.add_subparsers(dest="stats_kind", required=True)
    for name, help_text in (("delay", "delay-spread table"), ("angular", "angular-spread and lobe table")):
        p_s = stats_sub.add_parser(name, help=help_text)
        _add_manifest(p_s)
        _add_thresholds(p_s)
        _add_out(p_s)


def _pas_arguments(p) -> None:
    p = p.add_subparsers(dest="pas_action", required=True).add_parser("dump", help="per-bin spectrum of one location")
    _add_manifest(p)
    p.add_argument("--tx-id", required=True)
    p.add_argument("--rx-id", required=True)
    p.add_argument("--pol", choices=[pol.value for pol in Polarization], default="VV")
    p.add_argument("--side", choices=[s.value for s in Side], required=True)
    p.add_argument("--threshold-db", type=float, default=30.0)
    _add_out(p)


def _xpd_arguments(p) -> None:
    p = p.add_subparsers(dest="xpd_action", required=True).add_parser("report", help="per-class XPD summary and CDF")
    _add_manifest(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)


def _synth_arguments(p) -> None:
    p.add_argument("--params", type=Path, default=None, help="generator parameters JSON")
    p.add_argument("--n", type=int, default=None, help="number of TX-RX placements")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="campaign output directory")
    p.add_argument(
        "--factory-layout",
        action="store_true",
        help="use the fixed 13-placement floor plan instead of --n drawn placements",
    )
    p.add_argument("--tx-power-dbm", type=float, default=0.0)
    p.add_argument("--campaign-id", default="synthetic-factory-142ghz")
    p.add_argument("--truth-out", type=Path, default=None, help="write ground-truth drops JSON here")


def _report_arguments(p) -> None:
    _add_manifest(p)
    _add_thresholds(p)
    _add_out(p, required=True)
    p.add_argument("--carrier-hz", type=float, default=None, help="override the manifest carrier")
    p.add_argument(
        "--format",
        action="append",
        choices=("csv", "json"),
        help="report formats; repeatable (default both)",
    )
    _add_max_pl(p)


#: each command: its help, the function adding its arguments to its parser, its handler
_COMMANDS = {
    "ingest": ("validate a campaign and summarize it", _ingest_arguments, _cmd_ingest),
    "fit": ("fit path-loss models", _fit_arguments, _cmd_fit_pathloss),
    "stats": ("campaign summary tables", _stats_arguments, _cmd_stats),
    "pas": ("power angular spectrum tools", _pas_arguments, _cmd_pas_dump),
    "xpd": ("cross-polar discrimination analysis", _xpd_arguments, _cmd_xpd_report),
    "synth": ("render a synthetic campaign", _synth_arguments, _cmd_synth),
    "report": ("run the full pipeline and write the report bundle", _report_arguments, _cmd_report),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with the subparser of ``command`` only, or of every command when None.

    A one-command parser spells out every command in its usage line, as the
    full parser's usage does, so usage lines and errors read the same whichever
    parser reads a line that starts with ``command``.  Only the full parser
    names the command argument in an error (a missing or bad command, as
    ``command``), which a set metavar would rename; ``--help`` and bad or
    missing commands need the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="subthz-chan",
        description="Sub-THz channel-sounder campaign analysis and synthesis",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command is None or command == name:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    # a level name gives its number; any other value (an attribute of ``logging`` such as BASIC_FORMAT included) a string
    level = logging.getLevelName(os.environ.get("SUBTHZ_CHAN_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    argv = sys.argv[1:] if argv is None else argv
    # only the command that runs gets its arguments built
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = _COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a reader gone before the last write shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): say nothing, and send what shutdown
        # still flushes to devnull, as the recipe in the ``signal`` module's docs does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
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
