"""INDICE analytics tier: clustering, discretization, rules, correlation, stats."""

from .kmeans import (
    UNASSIGNED,
    AutoKMeansResult,
    KMeansResult,
    Standardization,
    choose_k_elbow,
    kmeans,
    kmeans_auto,
    sse_curve,
    standardize,
)
from .cart import CartNode, RegressionTree
from .discretize import (
    PAPER_BINS,
    Discretization,
    discretize_attribute,
    discretize_table,
    quantile_discretization,
)
from .apriori import FrequentItemsets, Item, ItemsetMiner, transactions_from_table
from .rules import (
    AssociationRule,
    RuleConstraints,
    RuleMiner,
    RuleTemplate,
    generate_rules,
)
from .correlation import CorrelationMatrix, correlation_matrix, pearson
from .hierarchical import HierarchicalResult, Merge, agglomerative
from .profiles import ClusterProfile, profile_clusters
from .spatial import MoranResult, morans_i, morans_i_for_regions, region_adjacency
from .temporal import TemporalSummary, YearlySlice, temporal_summary
from .validation import davies_bouldin, silhouette_score
from .supervised import (
    KnnClassifier,
    accuracy,
    confusion_matrix,
    mean_absolute_error,
    r2_score,
    train_test_split,
)
from .stats import (
    CategoricalSummary,
    Histogram,
    NumericSummary,
    grouped_histograms,
    histogram,
    quantile_bins,
    summarize_categorical,
    summarize_numeric,
    summarize_table,
)

__all__ = [
    "UNASSIGNED",
    "AutoKMeansResult",
    "KMeansResult",
    "Standardization",
    "choose_k_elbow",
    "kmeans",
    "kmeans_auto",
    "sse_curve",
    "standardize",
    "CartNode",
    "RegressionTree",
    "PAPER_BINS",
    "Discretization",
    "discretize_attribute",
    "discretize_table",
    "quantile_discretization",
    "FrequentItemsets",
    "Item",
    "ItemsetMiner",
    "transactions_from_table",
    "AssociationRule",
    "RuleConstraints",
    "RuleMiner",
    "RuleTemplate",
    "generate_rules",
    "CorrelationMatrix",
    "correlation_matrix",
    "pearson",
    "HierarchicalResult",
    "Merge",
    "agglomerative",
    "ClusterProfile",
    "profile_clusters",
    "MoranResult",
    "morans_i",
    "morans_i_for_regions",
    "region_adjacency",
    "TemporalSummary",
    "YearlySlice",
    "temporal_summary",
    "davies_bouldin",
    "silhouette_score",
    "KnnClassifier",
    "accuracy",
    "confusion_matrix",
    "mean_absolute_error",
    "r2_score",
    "train_test_split",
    "CategoricalSummary",
    "Histogram",
    "NumericSummary",
    "grouped_histograms",
    "histogram",
    "quantile_bins",
    "summarize_categorical",
    "summarize_numeric",
    "summarize_table",
]
