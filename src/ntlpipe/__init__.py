"""Nighttime-light radiance pre-processing and disaster-impact correlation.

The package cleans monthly nighttime-light raster stacks with three
composable methods (value thresholding, built-area masking, quality
filtering with temporal imputation), extracts per-zone radiance series
around an event month, and correlates event-month radiance drops against
per-zone damage ratios. A deterministic synthetic-scene generator with
known ground truth verifies the whole chain end to end.
"""

from .analysis import (
    CorrelationReport,
    DropSample,
    ReportRow,
    build_report,
    correlate_method,
    drop_samples,
    filter_zones,
    pearson,
    select_case_study_zones,
    write_report_csv,
)
from .errors import (
    ConfigError,
    GridParseError,
    PipelineError,
    QualityDecodeError,
    ReportError,
    StatsError,
    ZoneValidationError,
)
from .grid import (
    GridSpec,
    IntRaster,
    RasterGrid,
    class_fraction_resample,
    read_grid,
    write_grid,
)
from .preprocess import (
    PipelineConfig,
    ThresholdMode,
    apply_built_mask,
    config_from_label,
    enumerate_configs,
    impute_pixel,
    quality_filter_and_impute,
    run_pipeline,
    threshold,
)
from .quality import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    Background,
    CloudConfidence,
    CloudMaskQuality,
    Dataset,
    DayNight,
    QualityFlags,
    decode_vnp46a2_quality,
    encode_vnp46a2_quality,
    high_quality_mask,
    is_high_quality_vnp46a2,
    is_high_quality_vscntl,
)
from .stack import MonthIndex, RasterStack
from .synthetic import (
    VSCNTL_HIGH_QUALITY_COUNT,
    GeneratedScene,
    NoiseSpec,
    SceneSpec,
    TruthRow,
    generate_scene,
    oracle_check,
    recovered_pccs,
    tile_zones,
)
from .timeseries import (
    EventWindow,
    ZoneSeries,
    build_zone_series,
    drop_window,
    event_drop,
    monthly_median_composite,
    percent_change,
    percent_changes,
    read_series_csv,
    rolling_baseline,
    rolling_baselines,
    series_by_config,
    spell_table,
    write_series_csv,
)
from .zones import (
    Zone,
    ZoneColumns,
    ZoneMask,
    point_in_polygon,
    rasterize_zone,
    read_zones,
    rect_ring,
    write_zones,
    zonal_mean,
    zonal_means,
    zone_columns,
)

__version__ = "0.1.0"
