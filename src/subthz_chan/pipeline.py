"""Campaign analysis shared by the report pipeline and the CLI queries.

``Analysis`` holds the paper's four products for one ingested campaign:
close-in path-loss fits, delay spreads, angular spreads and XPD
statistics.  ``run_pipeline`` writes all of them as the report bundle;
the ``fit``, ``stats`` and ``xpd`` subcommands print one section each.

The report bundle is a pure function of the input files and the run
configuration: no timestamps, no absolute paths, stable ordering, fixed
numeric formatting.  Running twice on the same inputs yields
byte-identical files.
"""
from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .angular import AngularSummary, campaign_angular_summary
from .campaign_io import Campaign, load_campaign
from .delay import DelaySummary, campaign_delay_summary
from .measurement import Polarization, TapTable, ValidationError, checked_threshold_db
from .pathloss import (
    KIND_OF_CLASS,
    CiFit,
    CixFit,
    DegenerateFitError,
    PathLossColumns,
    SampleKind,
    directional_samples,
    fit_ci,
    fit_cix,
    omni_losses,
)
from .xpd import PathClass, XpdClassSummary, xpd_columns

logger = logging.getLogger(__name__)

REPORT_JSON = "report.json"
DELAY_CSV = "delay_stats.csv"
ANGULAR_CSV = "angular_stats.csv"
XPD_CSV = "xpd_cdf.csv"
SCATTER_CSV = "pathloss_scatter.csv"

#: delay and angular summaries are taken at each of these dB below the peak
DEFAULT_THRESHOLDS_DB = (20.0, 30.0)
#: path loss the sounder can still measure; louder losses are excluded
DEFAULT_MAX_PL_DB = 152.0

#: report key of each directional sample kind
DIRECTIONAL_KINDS = {direction_class.value: kind for direction_class, kind in KIND_OF_CLASS.items()}

#: (CSV label, summary field) of each statistic of a summary section, in table order
_SUMMARY_ROWS = {
    "delay": (
        ("Omni RMSDS", "omni_rmsds"),
        ("Omni MDS", "omni_mds"),
        ("Dir RMSDS", "dir_rmsds"),
        ("Dir MDS", "dir_mds"),
    ),
    "angular": (
        ("AOA lobes", "n_aoa_lobes"),
        ("AOD lobes", "n_aod_lobes"),
        ("AOA RMSAS", "aoa_rmsas"),
        ("AOD RMSAS", "aod_rmsas"),
    ),
}

_KNOWN_FORMATS = ("csv", "json")


def _check_overrides(carrier_hz: float | None, max_measurable_pl_db: float | None) -> None:
    """ValidationError unless a carrier override (None: the campaign's) is finite
    and > 0 and a path-loss ceiling (None: no ceiling) is > 0."""
    if carrier_hz is not None and not 0.0 < carrier_hz < math.inf:
        raise ValidationError("carrier_hz", f"must be > 0 and finite, got {carrier_hz}")
    if max_measurable_pl_db is not None and not max_measurable_pl_db > 0:
        raise ValidationError("max_measurable_pl_db", f"must be > 0 or None, got {max_measurable_pl_db}")


def _checked_thresholds(thresholds_db: Iterable[float]) -> tuple[float, ...]:
    """``thresholds_db`` as floats, each > 0 and each with a label of its own.

    The report keys its sections and table rows by ``f"{t:g}"``, so two
    thresholds with one label (20 and 20, or 30 and 30.0000001) would
    write two rows under one name and keep only one section.
    """
    thresholds = tuple(checked_threshold_db(float(t)) for t in thresholds_db)
    labelled: dict[str, float] = {}
    for t in thresholds:
        label = f"{t:g}"
        if label in labelled:
            raise ValidationError("thresholds_db", f"{labelled[label]!r} and {t!r} share the label {label!r}")
        labelled[label] = t
    return thresholds


def check_analysis_options(
    thresholds_db: Iterable[float] = DEFAULT_THRESHOLDS_DB,
    carrier_hz: float | None = None,
    max_measurable_pl_db: float | None = DEFAULT_MAX_PL_DB,
) -> tuple[float, ...]:
    """The checked thresholds of an ``Analysis`` with these options; ValidationError
    for the first bad option, in the order ``Analysis`` checks them.

    Lets a caller reject its options before it reads a campaign.
    """
    _check_overrides(carrier_hz, max_measurable_pl_db)
    return _checked_thresholds(thresholds_db)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one pipeline run.

    ``carrier_hz`` of None (the default) uses the carrier recorded in the
    manifest; a value overrides it.
    """

    manifest_path: Path
    out_dir: Path
    thresholds_db: tuple[float, ...] = DEFAULT_THRESHOLDS_DB
    carrier_hz: float | None = None
    formats: tuple[str, ...] = ("csv", "json")
    max_measurable_pl_db: float | None = DEFAULT_MAX_PL_DB

    def __post_init__(self):
        object.__setattr__(self, "manifest_path", Path(self.manifest_path))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "thresholds_db", _checked_thresholds(self.thresholds_db))
        object.__setattr__(self, "formats", tuple(str(f) for f in self.formats))
        if not self.thresholds_db:
            raise ValidationError("thresholds_db", "need at least one threshold")
        if not self.formats:
            raise ValidationError("formats", "need at least one output format")
        unknown = set(self.formats) - set(_KNOWN_FORMATS)
        if unknown:
            raise ValidationError("formats", f"unknown formats: {sorted(unknown)}")
        _check_overrides(self.carrier_hz, self.max_measurable_pl_db)


def _csv_value(value: float) -> str:
    return f"{value:.4f}"


class Analysis:
    """The analysis products of one campaign, each computed on first use and kept.

    ``carrier_hz`` of None uses the campaign's own carrier.  Sections are
    lazy so that a query pays only for what it prints, and a section that
    cannot be computed (a fit with too few usable locations, say) does not
    fail a query that never asks for it.  Every section reads the one
    ``TapTable`` of its polarization, built on first use.
    """

    def __init__(
        self,
        campaign: Campaign,
        thresholds_db: Sequence[float] = DEFAULT_THRESHOLDS_DB,
        carrier_hz: float | None = None,
        max_measurable_pl_db: float | None = DEFAULT_MAX_PL_DB,
    ):
        self.thresholds_db = check_analysis_options(thresholds_db, carrier_hz, max_measurable_pl_db)
        self.campaign = campaign
        self.carrier_hz = campaign.carrier_hz if carrier_hz is None else carrier_hz
        self.max_measurable_pl_db = max_measurable_pl_db
        self._samples: dict[tuple[Polarization, SampleKind], PathLossColumns] = {}
        self._omni: dict[Polarization, tuple[PathLossColumns, list[dict]]] = {}
        self._tables: dict[Polarization, TapTable] = {}

    def table(self, pol: Polarization) -> TapTable:
        """The tap table of the locations of one polarization, in campaign order."""
        if pol not in self._tables:
            self._tables[pol] = TapTable(self.campaign.columns, self.campaign.rows(pol))
        return self._tables[pol]

    def samples(self, pol: Polarization, kind: SampleKind) -> PathLossColumns:
        """Path-loss samples of one polarization and kind, in location order, as columns
        whose ``loc`` indexes ``table(pol)``.

        Locations without usable signal contribute nothing; omni sampling
        logs each one, and ``excluded`` lists it.  One directional pass over
        a polarization serves all three directional kinds.
        """
        if kind is SampleKind.OMNI:
            return self._omni_samples(pol)[0]
        if (pol, kind) not in self._samples:
            self._directional_samples(pol)
        return self._samples[pol, kind]

    @property
    def excluded(self) -> list[dict]:
        """The locations omni sampling leaves out, with the reason: VV, then VH, each in campaign order."""
        return [entry for pol in Polarization for entry in self._omni_samples(pol)[1]]

    def _omni_samples(self, pol: Polarization) -> tuple[PathLossColumns, list[dict]]:
        """The omni samples of one polarization and the locations left out, logged when first computed."""
        if pol not in self._omni:
            table = self.table(pol)
            samples, errors = omni_losses(table, self.max_measurable_pl_db)
            excluded = []
            for index, err in errors:
                tx_id, rx_id, _ = table.key(index)
                logger.warning("excluding %s-%s (%s): %s", tx_id, rx_id, pol.value, err)
                excluded.append({"tx_id": tx_id, "rx_id": rx_id, "polarization": pol.value, "reason": str(err)})
            self._omni[pol] = (samples, excluded)
        return self._omni[pol]

    def _directional_samples(self, pol: Polarization) -> None:
        for kind, samples in directional_samples(self.table(pol), self.max_measurable_pl_db).items():
            self._samples[pol, kind] = samples

    def fit(self, pol: Polarization, kind: SampleKind) -> CiFit:
        """Close-in fit of one sample class; DegenerateFitError under two samples."""
        return fit_ci(self.samples(pol, kind), self.carrier_hz)

    def cross_polar(self, kind: SampleKind) -> CixFit:
        """Cross-polar fit of the VH samples of ``kind`` over the VV fit of that kind."""
        vh = self.samples(Polarization.VH, kind)
        return fit_cix(vh, self.fit(Polarization.VV, kind), self.carrier_hz)

    @cached_property
    def delay(self) -> dict[float, DelaySummary]:
        """Co-polar delay-spread summary per threshold."""
        return {t: campaign_delay_summary(self.table(Polarization.VV), t) for t in self.thresholds_db}

    @cached_property
    def angular(self) -> dict[float, AngularSummary]:
        """Co-polar lobe-count and angular-spread summary per threshold."""
        return {t: campaign_angular_summary(self.table(Polarization.VV), t) for t in self.thresholds_db}

    @cached_property
    def xpd(self) -> dict[PathClass, XpdClassSummary]:
        """Directional XPD statistics per path class, over every VV/VH pair."""
        vv, vh = self.table(Polarization.VV), self.table(Polarization.VH)
        pairs = np.array(self.campaign.pairs(), dtype=np.intp).reshape(-1, 2)
        # a table's rows are campaign rows, ascending
        rows = np.column_stack((np.searchsorted(vv.rows, pairs[:, 0]), np.searchsorted(vh.rows, pairs[:, 1])))
        return xpd_columns(vv, vh, rows).summary()

    def summary_csv(self, section: str) -> str:
        """The ``delay`` or ``angular`` section as the bundle's CSV table."""
        lines = ["statistic,min,max,mean,median,p90"]
        summaries = getattr(self, section)
        for label, field in _SUMMARY_ROWS[section]:
            for t, summary in summaries.items():
                row = getattr(summary, field)
                values = (row.min, row.max, row.mean, row.median, row.p90)
                lines.append(",".join([f"{label}-{t:g} dB"] + [_csv_value(v) for v in values]))
        return "\n".join(lines) + "\n"

    def summary_json(self, section: str) -> dict:
        """The ``delay`` or ``angular`` section as the report's JSON object."""
        return {
            f"{t:g}": {field: asdict(getattr(summary, field)) for _, field in _SUMMARY_ROWS[section]}
            for t, summary in getattr(self, section).items()
        }

    def xpd_csv(self) -> str:
        """Empirical XPD CDF points per path class, boresight first."""
        rows = [
            zip(repeat(path_class.value), *zip(*self.xpd[path_class].cdf))
            for path_class in (PathClass.BORESIGHT, PathClass.REFLECTION)
            if path_class in self.xpd
        ]
        return "path_class,xpd_db,cdf\n" + "".join(map("%s,%.4f,%.4f\n".__mod__, chain.from_iterable(rows)))

    def xpd_json(self) -> dict:
        """XPD mean, population std and count per path class."""
        return {
            path_class.value: {"mean_db": s.mean_db, "std_db": s.std_db, "n": s.n}
            for path_class, s in self.xpd.items()
        }


#: the (polarization, kind) sections of the scatter table, in table order: by
#: kind (``SampleKind`` order), then polarization value
_SCATTER_SECTIONS = (
    (Polarization.VH, SampleKind.OMNI),
    (Polarization.VV, SampleKind.OMNI),
    *((Polarization.VV, kind) for kind in DIRECTIONAL_KINDS.values()),
)


def _scatter_csv(analysis: Analysis) -> str:
    """Omni samples of both polarizations and co-polar directional samples, sorted
    by kind, polarization, distance and loss; ties keep location order."""
    samples = [analysis.samples(pol, kind) for pol, kind in _SCATTER_SECTIONS]
    section = np.repeat(np.arange(len(samples)), [len(s) for s in samples])
    distance_m = np.concatenate([s.distance_m for s in samples])
    pl_db = np.concatenate([s.pl_db for s in samples])
    los = np.concatenate([analysis.table(pol).los[s.loc] for (pol, _), s in zip(_SCATTER_SECTIONS, samples)])
    order = np.lexsort((pl_db, distance_m, section))
    # (kind, polarization) of the row's section + (los, distance, loss)
    labels = [(kind.value, pol.value) for pol, kind in _SCATTER_SECTIONS]
    rows = map(
        operator.add,
        map(labels.__getitem__, section[order].tolist()),
        zip(map(("false", "true").__getitem__, los[order].tolist()), distance_m[order].tolist(), pl_db[order].tolist()),
    )
    return "kind,polarization,los,distance_m,pl_db\n" + "".join(map("%s,%s,%s,%.4f,%.4f\n".__mod__, rows))


def _optional_fit(analysis: Analysis, pol: Polarization, kind: SampleKind) -> dict | None:
    """The fit as a report object, or None when fewer than two samples exist."""
    return asdict(analysis.fit(pol, kind)) if len(analysis.samples(pol, kind)) >= 2 else None


def _report(config: RunConfig, analysis: Analysis) -> dict:
    campaign = analysis.campaign
    vh_omni = analysis.samples(Polarization.VH, SampleKind.OMNI)
    return {
        "campaign": {
            "id": campaign.campaign_id,
            "carrier_hz": campaign.carrier_hz,
            "tx_power_dbm": campaign.tx_power_dbm,
            "n_locations": len(campaign),
            "n_vv": len(campaign.rows(Polarization.VV)),
            "n_vh": len(campaign.rows(Polarization.VH)),
        },
        "config": {
            "manifest": config.manifest_path.name,
            "thresholds_db": list(config.thresholds_db),
            "carrier_hz": analysis.carrier_hz,
            "max_measurable_pl_db": config.max_measurable_pl_db,
            "delay_resolution_ns": campaign.delay_resolution_ns,
            "seed": 0,  # nothing is drawn at random; kept for the benchmark's stored reports (perfbench/reference)
            "formats": sorted(config.formats),
        },
        "inputs_sha256": campaign.input_sha256,
        "excluded_locations": analysis.excluded,
        "pathloss": {
            "omni_vv": asdict(analysis.fit(Polarization.VV, SampleKind.OMNI)),
            "omni_vh": _optional_fit(analysis, Polarization.VH, SampleKind.OMNI),
            "cross_polar": asdict(analysis.cross_polar(SampleKind.OMNI)) if vh_omni else None,
            "directional_vv": {
                name: _optional_fit(analysis, Polarization.VV, kind) for name, kind in DIRECTIONAL_KINDS.items()
            },
        },
        "delay": analysis.summary_json("delay"),
        "angular": analysis.summary_json("angular"),
        "xpd": analysis.xpd_json(),
    }


def run_pipeline(config: RunConfig) -> tuple[Path, ...]:
    """Load the campaign through the ingest cache (``load_campaign``), run fits,
    summaries, and XPD analysis; write the report bundle.

    Returns the written file paths.  Locations without detectable signal
    (or beyond the measurable path-loss ceiling) are excluded from the
    path-loss fits and listed in the JSON report.
    """
    campaign = load_campaign(config.manifest_path)
    analysis = Analysis(campaign, config.thresholds_db, config.carrier_hz, config.max_measurable_pl_db)
    # reading the exclusions logs each one, so all of them precede the co-polar check's error
    logger.info(
        "analysing campaign %s: carrier %.3f GHz, %d locations excluded from the path-loss fits",
        campaign.campaign_id, analysis.carrier_hz / 1e9, len(analysis.excluded),
    )
    vv_omni = analysis.samples(Polarization.VV, SampleKind.OMNI)
    if len(vv_omni) < 2:
        raise DegenerateFitError(
            f"only {len(vv_omni)} co-polarized locations usable; cannot fit the co-polar model"
        )

    texts: dict[str, str] = {}
    if "json" in config.formats:
        texts[REPORT_JSON] = json.dumps(_report(config, analysis), indent=2, sort_keys=True) + "\n"
    if "csv" in config.formats:
        texts[DELAY_CSV] = analysis.summary_csv("delay")
        texts[ANGULAR_CSV] = analysis.summary_csv("angular")
        texts[XPD_CSV] = analysis.xpd_csv()
        texts[SCATTER_CSV] = _scatter_csv(analysis)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, text in texts.items():
        path = config.out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    logger.info("wrote %d report files to %s", len(written), config.out_dir)
    return tuple(written)
