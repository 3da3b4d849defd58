"""Automatic analysis-configuration suggestions.

The paper's future work: "the analysis process should be empowered by an
automatic tool suggesting appropriate analysis configurations for the
considered datasets".  This module implements that advisor.  Given a
table, it inspects the distribution of each analysis attribute and the
collection size and proposes a full :class:`~repro.core.config.IndiceConfig`:

* **outlier method per attribute** — gESD for near-normal distributions
  (it is a parametric normal-theory test), MAD for skewed or heavy-tailed
  ones (it is distribution-free), boxplot when the sample is too small
  for either to be reliable;
* **discretization classes** — the number of detected density modes
  (clamped to [2, 4], the granularity the paper's dashboard labels
  support);
* **rule-mining support** — scaled to the collection size so expected
  absolute support stays meaningful;
* **K range** — widened for larger, more heterogeneous selections.

Suggestions are returned with human-readable justifications, and past
expert choices (the Section 2.1.2 store) take precedence when available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from ..dataset.table import ColumnKind, Table
from ..preprocessing.expert_store import ExpertConfigStore
from ..preprocessing.outliers import OutlierMethod
from .config import IndiceConfig

__all__ = ["AttributeAdvice", "ConfigAdvice", "suggest_config"]

#: Below this many present values, distribution tests are unreliable.
_MIN_SAMPLE = 50


@dataclass(frozen=True)
class AttributeAdvice:
    """Per-attribute recommendation with its reasoning."""

    attribute: str
    method: OutlierMethod
    n_classes: int
    reason: str


@dataclass
class ConfigAdvice:
    """The advisor's full output."""

    config: IndiceConfig
    attribute_advice: dict[str, AttributeAdvice] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable multi-line description."""
        lines = list(self.notes)
        for advice in self.attribute_advice.values():
            lines.append(
                f"{advice.attribute}: {advice.method.value}, "
                f"{advice.n_classes} classes — {advice.reason}"
            )
        return "\n".join(lines)


def _count_modes(values: np.ndarray) -> int:
    """Rough mode count: prominent peaks of a smoothed histogram.

    The histogram is smoothed with a small kernel (applied repeatedly);
    candidate peaks must reach 20% of the maximum, and two peaks only
    count separately when the valley between them drops below 75% of the
    smaller peak — otherwise they are one noisy bump.
    """
    if len(values) < _MIN_SAMPLE:
        return 1
    counts, __ = np.histogram(values, bins=min(40, max(10, len(values) // 50)))
    smooth = counts.astype(np.float64)
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    for __ in range(3):
        smooth = np.convolve(smooth, kernel, mode="same")
    floor = smooth.max() * 0.20

    candidates = [
        i
        for i in range(1, len(smooth) - 1)
        if smooth[i] > smooth[i - 1] and smooth[i] >= smooth[i + 1] and smooth[i] >= floor
    ]
    if not candidates:
        return 1
    peaks = [candidates[0]]
    for peak in candidates[1:]:
        previous = peaks[-1]
        valley = smooth[previous : peak + 1].min()
        if valley < 0.75 * min(smooth[previous], smooth[peak]):
            peaks.append(peak)
        elif smooth[peak] > smooth[previous]:
            peaks[-1] = peak  # same bump, keep its higher summit
    return max(len(peaks), 1)


def _advise_attribute(name: str, values: np.ndarray) -> AttributeAdvice:
    present = values[~np.isnan(values)]
    if len(present) < _MIN_SAMPLE:
        return AttributeAdvice(
            name, OutlierMethod.BOXPLOT, 2,
            f"only {len(present)} values — boxplot with manual review",
        )
    skewness = float(stats.skew(present))
    excess_kurtosis = float(stats.kurtosis(present))
    modes = _count_modes(present)
    n_classes = int(np.clip(modes, 2, 4))

    near_normal = abs(skewness) < 0.5 and abs(excess_kurtosis) < 1.0 and modes == 1
    if near_normal:
        return AttributeAdvice(
            name, OutlierMethod.GESD, n_classes,
            f"near-normal (skew {skewness:.2f}, excess kurtosis "
            f"{excess_kurtosis:.2f}) — parametric gESD applies",
        )
    return AttributeAdvice(
        name, OutlierMethod.MAD, n_classes,
        f"skewed/multi-modal (skew {skewness:.2f}, {modes} modes) — "
        "distribution-free MAD with the 3.5 cut-off",
    )


def suggest_config(
    table: Table,
    base: IndiceConfig | None = None,
    expert_store: ExpertConfigStore | None = None,
) -> ConfigAdvice:
    """Propose a full analysis configuration for *table*.

    Starts from *base* (or paper defaults), then adapts the outlier
    method, the discretization plan, the rule-support threshold and the
    K range to the data.  When *expert_store* holds history for an
    attribute, the experts' majority choice overrides the heuristic —
    the paper's preference order (Section 2.1.2).
    """
    cfg = base or IndiceConfig()
    n = table.n_rows
    advice: dict[str, AttributeAdvice] = {}
    notes: list[str] = [f"collection size: {n} rows"]

    analysis_attributes = tuple(cfg.features) + (cfg.response,)
    method_votes: dict[OutlierMethod, int] = {}
    plan: dict[str, int] = {}
    for name in analysis_attributes:
        if name not in table or table.kind(name) is not ColumnKind.NUMERIC:
            continue
        item = _advise_attribute(name, table[name])
        if expert_store is not None and expert_store.history(name):
            stored = expert_store.suggest(name)
            item = AttributeAdvice(
                name, stored.method, item.n_classes,
                f"expert history: {stored.method.value} chosen by past users",
            )
        advice[name] = item
        method_votes[item.method] = method_votes.get(item.method, 0) + 1
        if name in cfg.discretization_plan:
            plan[name] = (
                item.n_classes
                if name != cfg.response
                else cfg.discretization_plan[name]
            )

    dominant = max(method_votes, key=method_votes.get) if method_votes else cfg.outlier_method
    notes.append(f"dominant outlier method: {dominant.value}")

    # min-support: aim for >= ~30 supporting certificates per rule
    min_support = min(0.1, max(0.01, 30.0 / max(n, 1)))
    notes.append(f"rule min-support scaled to {min_support:.3f} (~30 rows)")

    k_hi = int(np.clip(4 + np.log10(max(n, 10)) * 2, 6, 12))
    notes.append(f"K range widened to (2, {k_hi}) for this size")

    merged_plan = dict(cfg.discretization_plan)
    merged_plan.update(plan)
    suggested = replace(
        cfg,
        outlier_method=dominant,
        k_range=(2, k_hi),
        discretization_plan=merged_plan,
        rule_constraints=replace(cfg.rule_constraints, min_support=min_support),
    )
    return ConfigAdvice(config=suggested, attribute_advice=advice, notes=notes)
