"""Plain-language analysis reports.

Dashboards carry charts; non-expert stakeholders also need "human-readable
informative contents" (paper, Section 2.3).  This module renders a full
analysis session into a Markdown report: what was cleaned, what was
filtered, which groups of buildings exist and what distinguishes them,
which rules explain the demand, and — for the public administration — the
areas worth targeting.  Every number is pulled from the engine's outcome
objects, so the report never disagrees with the dashboard.
"""

from __future__ import annotations

import numpy as np

from ..analytics.profiles import profile_clusters
from ..analytics.rules import RuleMiner
from ..preprocessing.address_cleaner import MatchStatus
from .engine import AnalyticsOutcome, Indice, PreprocessingOutcome

__all__ = ["generate_report"]


def _cleaning_section(pre: PreprocessingOutcome) -> list[str]:
    cleaning = pre.cleaning
    counts = {status: cleaning.counts.get(status, 0) for status in MatchStatus}
    return [
        "## Data cleaning",
        "",
        f"- {cleaning.n_checked} addresses checked against the referenced street map",
        f"- {counts[MatchStatus.EXACT]} matched exactly, "
        f"{counts[MatchStatus.MATCHED]} accepted by string similarity, "
        f"{counts[MatchStatus.GEOCODED]} recovered by the geocoding service, "
        f"{counts[MatchStatus.UNRESOLVED]} left unresolved",
        f"- {cleaning.repaired} certificates had a field repaired "
        "(street name, civic number, ZIP code or coordinates)",
        f"- overall resolution rate: {cleaning.resolution_rate():.1%}",
        "",
        f"Outlier filtering removed {pre.n_outlier_rows} of {pre.n_rows_in} "
        f"certificates ({pre.n_outlier_rows / max(pre.n_rows_in, 1):.1%}); "
        "these values deviate so strongly from the rest of the stock that "
        "they would distort the analysis.",
    ]


def _cluster_section(engine: Indice, analysis: AnalyticsOutcome) -> list[str]:
    profiles = profile_clusters(
        analysis.table,
        "cluster",
        list(engine.config.features),
        engine.config.response,
        categorical_attributes=["construction_period"],
    )
    lines = [
        "## Groups of similar buildings",
        "",
        f"K-means (K = {analysis.clustering.chosen_k}, selected automatically "
        "from the SSE elbow) found these groups, best performing first:",
        "",
    ]
    for p in profiles:
        period, share = p.dominant_categories.get("construction_period", (None, 0.0))
        period_text = f"; mostly built {period} ({share:.0%})" if period else ""
        lines.append(
            f"- **Group {p.cluster}** — {p.size} units ({p.share:.0%}), "
            f"average demand {p.response_mean:.0f} kWh/m²y: {p.tag}{period_text}"
        )
    return lines


def _rules_section(analysis: AnalyticsOutcome, response: str) -> list[str]:
    lines = ["## What drives the heating demand", ""]
    if not analysis.rules:
        lines.append("No association rule passed the configured thresholds.")
        return lines
    top = RuleMiner.top_k(analysis.rules, 5, by="lift")
    lines.append(
        "The strongest correlations extracted from the certificates "
        "(confidence = how often the pattern holds):"
    )
    lines.append("")
    for rule in top:
        antecedent = " and ".join(
            f"{item.attribute.replace('_', ' ')} is {item.value}"
            for item in rule.antecedent
        )
        consequent = " and ".join(
            f"{item.attribute.replace('_', ' ')} is {item.value}"
            for item in rule.consequent
        )
        lines.append(
            f"- when {antecedent}, then {consequent} "
            f"({rule.confidence:.0%} confidence, lift {rule.lift:.1f})"
        )
    return lines


def _target_section(engine: Indice, analysis: AnalyticsOutcome) -> list[str]:
    means = analysis.table.aggregate("district", engine.config.response, np.mean)
    means.pop(None, None)
    if not means:
        return []
    worst = sorted(means.items(), key=lambda kv: -kv[1])[:3]
    lines = [
        "## Where to act",
        "",
        "Districts with the highest average heating demand — the candidate "
        "targets for renovation incentives:",
        "",
    ]
    lines.extend(
        f"- {district}: {mean:.0f} kWh/m²y on average" for district, mean in worst
    )
    return lines


def generate_report(engine: Indice, title: str | None = None) -> str:
    """A Markdown report of a completed analysis session.

    Requires :meth:`Indice.preprocess` and :meth:`Indice.analyze` to have
    run.  The report is self-contained and written for a non-expert
    reader; dashboards carry the same numbers graphically.
    """
    pre = engine._require_preprocessed()
    analysis = engine._require_analyzed()
    cfg = engine.config

    corr = analysis.correlation
    eligibility = (
        "are weakly correlated, so each contributes independent information"
        if corr.is_eligible(cfg.correlation_threshold)
        else "show strong correlations; interpret the groups with care"
    )

    sections = [
        f"# {title or f'INDICE analysis report — {cfg.city}'}",
        "",
        f"Scope: certificates of type {cfg.building_type} in {cfg.city}; "
        f"{analysis.table.n_rows} certificates analyzed after cleaning.",
        "",
        *_cleaning_section(pre),
        "",
        "## Feature check",
        "",
        f"The analysis uses {len(cfg.features)} building characteristics "
        f"plus the heating demand ({cfg.response}). The characteristics "
        f"{eligibility} "
        f"(largest pairwise correlation: {corr.max_abs_off_diagonal():.2f}).",
        "",
        *_cluster_section(engine, analysis),
        "",
        *_rules_section(analysis, cfg.response),
    ]
    target = _target_section(engine, analysis)
    if target:
        sections += ["", *target]
    sections += [
        "",
        "---",
        "*Generated by INDICE (EDBT/BigVis 2019 reproduction). All figures "
        "come from the same pipeline run as the accompanying dashboard.*",
    ]
    return "\n".join(sections)
