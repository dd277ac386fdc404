"""Post-processing and synthesis toolkit for directional sub-THz
channel-sounder campaigns: path-loss model fitting, delay and angular
spread statistics, cross-polar discrimination, and a seeded drop
generator that renders synthetic campaigns back into the measurement
file format.
"""
# first: campaign_io reads it while the package is still being imported
__version__ = "0.8.0"

from .angular import AngularSpreads, AngularSummary, Side, angular_spreads, campaign_angular_summary, power_angular_spectrum
from .campaign_io import Campaign, CampaignFormatError, cache_path, ingest_campaign, load_campaign, write_campaign
from .delay import DelaySpreads, DelaySummary, OmniBins, campaign_delay_summary, delay_spreads, omni_bins
from .measurement import (
    DEFAULT_DELAY_RESOLUTION_NS,
    SPEED_OF_LIGHT_M_S,
    AntennaConfig,
    DirectionalPdp,
    LocationColumns,
    LocationMeasurement,
    NoSignalError,
    Polarization,
    TapTable,
    ValidationError,
    bearings_deg,
    circular_distance_deg,
    db_to_linear,
    linear_to_db,
    wrap_deg,
    wrap_signed_deg,
)
from .pathloss import (
    CiFit,
    CixFit,
    DegenerateFitError,
    DirectionClass,
    PathLossColumns,
    SampleKind,
    directional_samples,
    fit_ci,
    fit_cix,
    fspl,
    omni_losses,
    sweep_classes,
    sweep_losses,
)
from .pipeline import Analysis, RunConfig, run_pipeline
from .summary import SummaryRow, nearest_rank, summarize
from .synthesis import (
    DropColumns,
    LayoutEntry,
    LobeCountLaw,
    RenderedCampaign,
    RmsdsLaw,
    SynthesisParams,
    XpdLaw,
    draw_drops,
    factory_campaign_layout,
    render_campaign,
)
from .xpd import PathClass, XpdClassSummary, XpdColumns, xpd_columns

