"""E9 — the outlier-detection battery (paper, Section 2.1.2).

The paper integrates three univariate detectors (boxplot, gESD, MAD) plus
DBSCAN for multivariate outliers with automatically estimated parameters.
The synthetic noise log plants ground-truth outliers (x10 / x100 / /10
unit errors), so this experiment measures what the paper configures:

* per-method precision and recall on the planted outliers;
* agreement between the methods;
* the auto-estimated (minPoints, Epsilon) and DBSCAN's noise share.
"""

import numpy as np
from conftest import write_report

from repro.analytics.kmeans import standardize
from repro.dataset.schema import PAPER_CLUSTERING_FEATURES
from repro.preprocessing import (
    boxplot_outliers,
    dbscan,
    estimate_dbscan_params,
    gesd_outliers,
    mad_outliers,
)

ATTRIBUTE = "u_value_windows"


def test_e9_univariate_battery(noisy, benchmark):
    values = noisy.table[ATTRIBUTE]
    planted = {
        ev.row for ev in noisy.events
        if ev.kind == "outlier" and ev.attribute == ATTRIBUTE
    }
    assert planted, "the noise model must plant outliers for this experiment"

    results = {
        "boxplot": boxplot_outliers(values),
        "gESD": gesd_outliers(values, max_outliers=150),
        "MAD": mad_outliers(values),
    }
    benchmark(mad_outliers, values)

    lines = [
        f"E9 — univariate outlier battery on {ATTRIBUTE} "
        f"({len(planted)} planted unit-error outliers)",
        "",
        "method    flagged   precision   recall",
    ]
    metrics = {}
    for name, result in results.items():
        flagged = set(int(i) for i in result.outlier_indices())
        tp = len(flagged & planted)
        precision = tp / len(flagged) if flagged else 0.0
        recall = tp / len(planted)
        metrics[name] = (precision, recall)
        lines.append(
            f"{name:<9} {len(flagged):<9} {precision:<11.2f} {recall:.2f}"
        )

    # gross unit errors must be caught by every method
    assert all(recall > 0.5 for __, recall in metrics.values())
    # MAD (the paper's non-parametric default) must catch most of them
    assert metrics["MAD"][1] > 0.7

    # pairwise agreement on flagged rows
    lines += ["", "pairwise overlap of flagged sets (Jaccard):"]
    names = list(results)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a = set(int(v) for v in results[names[i]].outlier_indices())
            b = set(int(v) for v in results[names[j]].outlier_indices())
            union = a | b
            jac = len(a & b) / len(union) if union else 1.0
            lines.append(f"  {names[i]} vs {names[j]}: {jac:.2f}")

    write_report("E9_univariate", lines)


def test_e9_dbscan_auto_params(collection, benchmark):
    table = collection.table
    matrix, __ = standardize(table.to_matrix(list(PAPER_CLUSTERING_FEATURES)))

    estimate = benchmark.pedantic(
        estimate_dbscan_params, args=(matrix,), rounds=2, iterations=1
    )
    result = dbscan(matrix, estimate.eps, estimate.min_points)

    noise_share = result.n_noise / len(matrix)
    assert estimate.eps > 0
    assert estimate.min_points >= 2
    assert noise_share < 0.15  # the bulk of the stock is dense

    write_report(
        "E9_dbscan",
        [
            "E9 — DBSCAN multivariate outliers with auto parameters",
            f"estimated minPoints: {estimate.min_points} "
            f"(k-distance curve stabilized at k = {estimate.stabilized_at})",
            f"estimated Epsilon:   {estimate.eps:.3f}",
            f"noise points:        {result.n_noise} "
            f"({noise_share:.1%} of the stock)",
        ],
    )
