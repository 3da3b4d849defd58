"""The paper's Section 3 case study, step by step.

Stakeholder: the public administration (PA), looking for "areas where to
promote and invest for energy renovations".  The script mirrors the
paper's narrative:

1. select EPCs of housing units of type E.1.1 in the city of Turin;
2. clean the geospatial attributes against the referenced street map
   (Levenshtein matching with threshold phi, geocoder fallback);
3. check that the five thermo-physical features (S/V, U_o, U_w, S_r,
   ETAH) are weakly correlated (Figure 3);
4. cluster with K-means (elbow-selected K) and inspect the per-cluster
   EP_H distributions (Figure 4);
5. discretize U_w / U_o / ETAH with CARTs on EP_H (footnote 4) and mine
   association rules explaining high heating demand;
6. emit dashboards at district and city zoom (Figure 2, bottom).

Run:  python examples/public_administration_case_study.py
"""

from pathlib import Path

import numpy as np

from repro import Granularity, Indice, IndiceConfig, Stakeholder
from repro.analytics.rules import RuleMiner
from repro.core.report import generate_report
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.preprocessing.address_cleaner import MatchStatus

OUTPUT_DIR = Path(__file__).parent / "output"


def main() -> None:
    print("=" * 70)
    print("INDICE case study: public administration, Turin, type E.1.1")
    print("=" * 70)

    collection = generate_epc_collection(SyntheticConfig(n_certificates=8000))
    noisy = apply_noise(collection, NoiseConfig())
    collection.table = noisy.table
    engine = Indice(collection, IndiceConfig(kmeans_n_init=3))

    # -- tier 1: pre-processing ----------------------------------------
    pre = engine.preprocess()
    cleaning = pre.cleaning
    counts = {status.value: n for status, n in cleaning.counts.items()}
    print("\n[1] Geospatial cleaning against the referenced street map")
    print(f"    rows cleaned:        {cleaning.n_checked}")
    print(f"    match outcome:       {counts}")
    print(f"    resolution rate:     {cleaning.resolution_rate():.1%}")
    print(f"    geocoder requests:   {cleaning.geocoder_requests}"
          f" (quota exhausted: {cleaning.geocoder_quota_exhausted})")
    print(f"    rows with repairs:   {cleaning.repaired}")

    print("\n[2] Outlier filtering (values labelled as outliers are dropped)")
    for name, result in pre.univariate_outliers.items():
        print(f"    {name:<18} {result.method.value:<8} flagged {result.n_outliers}")
    if pre.multivariate_noise is not None:
        print(f"    DBSCAN multivariate noise: {int(pre.multivariate_noise.sum())}")
    print(f"    rows: {pre.n_rows_in} -> {pre.n_rows_out}")

    # -- tier 2: selection and analytics ---------------------------------
    analysis = engine.analyze()
    print("\n[3] Correlation eligibility (Figure 3)")
    corr = analysis.correlation
    print(f"    max |rho| among features: {corr.max_abs_off_diagonal():.3f}")
    print(f"    eligible for clustering:  {corr.is_eligible()}")

    print("\n[4] K-means with elbow-selected K (Figure 4)")
    print(f"    SSE curve: "
          + ", ".join(f"K={k}: {v:.0f}" for k, v in sorted(analysis.clustering.curve.items())))
    print(f"    chosen K = {analysis.clustering.chosen_k}")
    means = analysis.table.aggregate("cluster", "eph", np.mean)
    means.pop(None, None)
    for cluster, mean in sorted(means.items(), key=lambda kv: kv[1]):
        size = analysis.clustering.result.cluster_sizes()[int(cluster)]
        print(f"    cluster {cluster}: {size:>5} certificates, mean EP_H = {mean:6.1f} kWh/m2y")

    print("\n[5] CART discretization (footnote 4) and association rules")
    for name, disc in analysis.discretizations.items():
        print(f"    {name}: {disc.describe()}")
    top = RuleMiner.top_k(analysis.rules, 8, by="lift")
    print(f"    {len(analysis.rules)} rules pass the default thresholds; top by lift:")
    for rule in top:
        print(f"      {rule}  (sup={rule.support:.2f}, conf={rule.confidence:.2f}, "
              f"lift={rule.lift:.2f})")

    # -- tier 3: dashboards at two zoom levels ----------------------------
    OUTPUT_DIR.mkdir(exist_ok=True)
    for granularity in (Granularity.DISTRICT, Granularity.CITY):
        dash = engine.build_dashboard(Stakeholder.PUBLIC_ADMINISTRATION, granularity)
        path = dash.save(
            OUTPUT_DIR / f"pa_dashboard_{granularity.name.lower()}.html"
        )
        print(f"\n[6] {granularity.name.lower()}-level dashboard -> {path}")

    # the actionable outcome the paper describes: target the worst areas
    worst = sorted(
        (
            (district, mean)
            for district, mean in engine._analyzed.table.aggregate(
                "district", "eph", np.mean
            ).items()
            if district is not None
        ),
        key=lambda kv: -kv[1],
    )[:3]
    print("\nRenovation policy targets (highest mean EP_H):")
    for district, mean in worst:
        print(f"    {district}: {mean:.1f} kWh/m2y")

    # the plain-language companion report for non-expert readers
    report_path = OUTPUT_DIR / "pa_report.md"
    report_path.write_text(generate_report(engine), encoding="utf-8")
    print(f"\nPlain-language report -> {report_path}")


if __name__ == "__main__":
    main()
