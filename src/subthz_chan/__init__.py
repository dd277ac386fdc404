"""Post-processing and synthesis toolkit for directional sub-THz
channel-sounder campaigns: path-loss model fitting, delay and angular
spread statistics, cross-polar discrimination, and a seeded drop
generator that renders synthetic campaigns back into the measurement
file format.
"""
from .angular import (
    AngularStats,
    AngularSummary,
    PowerAngularSpectrum,
    Side,
    SpatialLobe,
    angular_stats,
    campaign_angular_summary,
    circular_mean_deg,
    extract_spatial_lobes,
    power_angular_spectrum,
    rms_angular_spread,
)
from .campaign_io import Campaign, CampaignFormatError, ingest_campaign, write_campaign
from .delay import (
    DelayStats,
    DelaySummary,
    OmniPdp,
    campaign_delay_summary,
    delay_stats,
    max_delay_spread,
    rms_delay_spread,
    synthesize_omni_pdp,
)
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
    circular_distance_deg,
    db_to_linear,
    integrated_power_mw,
    linear_to_db,
    los_bearings_deg,
    threshold_pdp,
    wrap_deg,
    wrap_signed_deg,
)
from .pathloss import (
    CiFit,
    CixFit,
    DegenerateFitError,
    DirectionClass,
    PathLossColumns,
    PathLossSample,
    SampleKind,
    classify_directions,
    collect_samples,
    direction_path_loss_map,
    directional_path_loss,
    fit_ci,
    fit_cix,
    fspl,
    omni_path_loss,
)
from .pipeline import Analysis, RunConfig, run_pipeline
from .summary import SummaryRow, nearest_rank, summarize
from .synthesis import (
    ChannelDrop,
    LayoutEntry,
    LobeCountLaw,
    RenderedCampaign,
    RmsdsLaw,
    SynthLobe,
    SynthTap,
    SynthesisParams,
    XpdLaw,
    factory_campaign_layout,
    render_campaign,
    sample_drop,
)
from .xpd import (
    DirectionalXpd,
    PathClass,
    XpdClassSummary,
    classify_path,
    collect_xpds,
    directional_xpd,
    xpd_summary,
)

__version__ = "0.1.0"
