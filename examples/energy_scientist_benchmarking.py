"""Energy-scientist scenario: benchmarking groups of similar buildings.

The paper's energy scientists "explore and characterize through supervised
and unsupervised techniques groups of buildings with similar properties to
perform benchmarking analysis" (Section 2.2.1).  This script exercises the
expert-facing surface of INDICE:

1. compare the three univariate outlier detectors on a thermo-physical
   attribute, record the expert's choice in the suggestion store (the
   default future non-expert users will receive);
2. estimate DBSCAN parameters automatically from the k-distance curve and
   run the multivariate pass;
3. inspect the SSE elbow, cluster the stock, and produce per-cluster
   benchmarking statistics (the quartile panel of Section 2.3);
4. verify with the era ground truth that clusters track construction age.

Run:  python examples/energy_scientist_benchmarking.py
"""

from collections import Counter
from pathlib import Path

import numpy as np

from repro import Indice, IndiceConfig, Stakeholder
from repro.analytics import standardize, summarize_numeric
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.preprocessing import (
    ExpertConfigStore,
    OutlierMethod,
    boxplot_outliers,
    dbscan,
    estimate_dbscan_params,
    gesd_outliers,
    mad_outliers,
)

OUTPUT_DIR = Path(__file__).parent / "output"


def main() -> None:
    collection = generate_epc_collection(SyntheticConfig(n_certificates=6000))
    noisy = apply_noise(collection, NoiseConfig())
    dirty_table = noisy.table
    collection.table = dirty_table

    planted = {
        ev.row for ev in noisy.events
        if ev.kind == "outlier" and ev.attribute == "u_value_opaque"
    }

    # 1. the detector bake-off an expert runs before trusting a filter
    print("[1] Univariate outlier detectors on u_value_opaque "
          f"({len(planted)} planted unit-error outliers)")
    values = dirty_table["u_value_opaque"]
    # a fresh store per run: the store appends, and a rerun would
    # otherwise record the same choice again in the committed output
    store_path = OUTPUT_DIR / "expert_store.json"
    store_path.unlink(missing_ok=True)
    store = ExpertConfigStore(store_path)
    for name, result in (
        ("boxplot", boxplot_outliers(values)),
        ("gESD", gesd_outliers(values, max_outliers=80)),
        ("MAD", mad_outliers(values)),
    ):
        flagged = set(result.outlier_indices())
        recall = len(flagged & planted) / max(len(planted), 1)
        print(f"    {name:<8} flagged {result.n_outliers:>4}  "
              f"planted-outlier recall {recall:5.1%}")
    # the expert settles on MAD with the 3.5 cut-off and records the choice
    store.record_choice("u_value_opaque", OutlierMethod.MAD, {"cutoff": 3.5},
                        expert="energy-scientist")
    suggestion = store.suggest("u_value_opaque")
    print(f"    stored suggestion for non-experts: {suggestion.method.value} "
          f"{suggestion.params_dict()}")

    # 2. full preprocessing + case-study selection
    engine = Indice(collection, IndiceConfig(kmeans_n_init=3))
    pre = engine.preprocess()
    turin = engine.select_case_study(pre.table)

    print("\n[2] Automatic DBSCAN parameters (k-distance stabilization)")
    features = list(engine.config.features)
    matrix, __ = standardize(turin.to_matrix(features))
    estimate = estimate_dbscan_params(matrix)
    result = dbscan(matrix, estimate.eps, estimate.min_points)
    print(f"    minPoints = {estimate.min_points} "
          f"(curve stabilized at k = {estimate.stabilized_at})")
    print(f"    Epsilon   = {estimate.eps:.3f} (elbow of the stable curve)")
    print(f"    multivariate noise = {result.n_noise}")

    # 3. clustering + per-cluster benchmarking panel
    analysis = engine.analyze(turin)
    print("\n[3] SSE elbow and per-cluster benchmarking")
    print("    SSE curve: "
          + ", ".join(f"K={k}: {v:.0f}" for k, v in sorted(analysis.clustering.curve.items())))
    print(f"    chosen K = {analysis.clustering.chosen_k}\n")
    header = f"    {'cluster':<8}{'n':>6}{'mean':>9}{'std':>9}{'Q1':>9}{'median':>9}{'Q3':>9}"
    print(header)
    eph = analysis.table["eph"]
    for cluster, idx in sorted(analysis.table.group_indices("cluster").items(),
                               key=lambda kv: str(kv[0])):
        if cluster is None:
            continue
        s = summarize_numeric(eph[idx], "eph")
        print(f"    {cluster:<8}{s.count:>6}{s.mean:>9.1f}{s.std:>9.1f}"
              f"{s.q1:>9.1f}{s.median:>9.1f}{s.q3:>9.1f}")

    # 4. sanity against the generator's ground truth
    print("\n[4] Cluster vs construction era (ground truth held by the generator)")
    table = analysis.table
    by_cluster: dict[str, Counter] = {}
    for label, period in zip(table["cluster"], table["construction_period"]):
        if label is not None:
            by_cluster.setdefault(label, Counter())[period] += 1
    for cluster, counter in sorted(by_cluster.items()):
        top, count = counter.most_common(1)[0]
        share = count / sum(counter.values())
        print(f"    cluster {cluster}: dominant period {top!r} ({share:.0%})")

    OUTPUT_DIR.mkdir(exist_ok=True)
    dash = engine.build_dashboard(Stakeholder.ENERGY_SCIENTIST)
    path = dash.save(OUTPUT_DIR / "scientist_dashboard.html")
    print(f"\nDashboard written to {path}")


if __name__ == "__main__":
    main()
