"""INDICE pre-processing tier: geospatial cleaning and outlier detection."""

from .address_cleaner import (
    AddressCleaner,
    CleaningConfig,
    CleaningReport,
    CleaningSummary,
    MatchStatus,
    RowAudit,
)
from .geocoder import (
    GeocodeResponse,
    GeocodeStatus,
    QuotaExceededError,
    SimulatedGeocoder,
)
from .outliers import (
    MAD_CUTOFF,
    OutlierMethod,
    OutlierResult,
    boxplot_outliers,
    detect_outliers,
    gesd_outliers,
    mad_outliers,
)
from .dbscan import DbscanResult, dbscan
from .kdistance import (
    KDistanceEstimate,
    elbow_point,
    estimate_dbscan_params,
    k_distance_curve,
)
from .expert_store import (
    BUILTIN_DEFAULT,
    ExpertConfigStore,
    ExpertConfiguration,
    TRACKED_ATTRIBUTES,
)
from .quality import AttributeQuality, QualityProfile, assess_quality, merge_quality

__all__ = [
    "AddressCleaner",
    "CleaningConfig",
    "CleaningReport",
    "CleaningSummary",
    "MatchStatus",
    "RowAudit",
    "GeocodeResponse",
    "GeocodeStatus",
    "QuotaExceededError",
    "SimulatedGeocoder",
    "MAD_CUTOFF",
    "OutlierMethod",
    "OutlierResult",
    "boxplot_outliers",
    "detect_outliers",
    "gesd_outliers",
    "mad_outliers",
    "DbscanResult",
    "dbscan",
    "KDistanceEstimate",
    "elbow_point",
    "estimate_dbscan_params",
    "k_distance_curve",
    "BUILTIN_DEFAULT",
    "ExpertConfigStore",
    "ExpertConfiguration",
    "TRACKED_ATTRIBUTES",
    "AttributeQuality",
    "QualityProfile",
    "assess_quality",
    "merge_quality",
]
