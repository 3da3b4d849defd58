"""Collection-level data-quality assessment.

Before any analysis, an analyst wants to know *how dirty* a collection
is: how much is missing, what violates physical plausibility, whether
certificates are duplicated (registries re-issue certificates for the
same unit), and whether the geolocation is trustworthy.  The INDICE paper
folds this into "smoothing the effect of possibly unreliable data"
(Section 2.1); this module makes the assessment explicit and reportable.

The profile is diagnostic only — it never mutates data.  Cleaning and
outlier removal act on its findings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..dataset.epc import implausible_mask
from ..dataset.schema import EpcSchema, epc_schema
from ..dataset.table import Table
from ..geo.regions import RegionHierarchy

__all__ = ["AttributeQuality", "QualityProfile", "assess_quality", "merge_quality"]


@dataclass(frozen=True)
class AttributeQuality:
    """Quality facts about one attribute."""

    attribute: str
    kind: str
    n_missing: int
    missing_rate: float
    n_implausible: int

    @property
    def usable_rate(self) -> float:
        """Fraction of non-missing values."""
        return 1.0 - self.missing_rate


@dataclass
class QualityProfile:
    """The collection-level quality assessment."""

    n_rows: int
    attributes: dict[str, AttributeQuality] = field(default_factory=dict)
    n_duplicate_certificates: int = 0
    duplicate_groups: list[tuple[str, int]] = field(default_factory=list)
    n_unlocated: int = 0
    n_outside_region: int = 0

    def worst_attributes(self, k: int = 5) -> list[AttributeQuality]:
        """The *k* attributes with the highest missing rate."""
        ranked = sorted(self.attributes.values(), key=lambda a: -a.missing_rate)
        return ranked[:k]

    def overall_missing_rate(self) -> float:
        """Missing cells over all profiled cells."""
        total = self.n_rows * len(self.attributes)
        if total == 0:
            return 0.0
        return sum(a.n_missing for a in self.attributes.values()) / total

    def describe(self) -> str:
        """Human-readable multi-line description."""
        lines = [
            f"collection: {self.n_rows} certificates, "
            f"{len(self.attributes)} attributes profiled",
            f"overall missing rate: {self.overall_missing_rate():.2%}",
            f"unlocated certificates: {self.n_unlocated}",
            f"located outside the reference region: {self.n_outside_region}",
            f"duplicate certificate ids: {self.n_duplicate_certificates}",
        ]
        worst = [a for a in self.worst_attributes(3) if a.n_missing > 0]
        if worst:
            lines.append("most incomplete attributes:")
            lines.extend(
                f"  {a.attribute}: {a.missing_rate:.1%} missing"
                + (f", {a.n_implausible} implausible" if a.n_implausible else "")
                for a in worst
            )
        return "\n".join(lines)


def assess_quality(
    table: Table,
    schema: EpcSchema | None = None,
    hierarchy: RegionHierarchy | None = None,
    attributes: list[str] | None = None,
) -> QualityProfile:
    """Profile the quality of an EPC collection.

    * per-attribute missing rates and schema-plausibility violations;
    * duplicate ``certificate_id`` values (with the duplicated ids);
    * geolocation health: rows without coordinates, and — when a
      *hierarchy* is given — rows located outside the city polygon.

    ``attributes`` restricts profiling (default: every table column the
    schema knows about).
    """
    schema = schema or epc_schema()
    names = attributes if attributes is not None else [
        n for n in table.column_names if n in schema
    ]
    profile = QualityProfile(n_rows=table.n_rows)
    for name in names:
        column = table.column(name)
        n_missing = int(column.is_missing().sum())
        profile.attributes[name] = AttributeQuality(
            attribute=name,
            kind=column.kind.value,
            n_missing=n_missing,
            missing_rate=n_missing / table.n_rows if table.n_rows else 0.0,
            n_implausible=int(implausible_mask(column, schema.spec(name)).sum()),
        )

    if "certificate_id" in table:
        _count_duplicates(profile, table["certificate_id"])

    if "latitude" in table and "longitude" in table:
        lat = table["latitude"]
        lon = table["longitude"]
        unlocated = np.isnan(lat) | np.isnan(lon)
        profile.n_unlocated = int(unlocated.sum())
        if hierarchy is not None:
            region = hierarchy.city
            lo_lat, lo_lon, hi_lat, hi_lon = region.bounding_box()
            outside = 0
            for i in np.flatnonzero(~unlocated):
                la, lo = float(lat[i]), float(lon[i])
                if not (lo_lat <= la <= hi_lat and lo_lon <= lo <= hi_lon):
                    outside += 1
                elif not region.contains(la, lo):
                    outside += 1
            profile.n_outside_region = outside
    return profile


def _count_duplicates(profile: QualityProfile, certificate_ids) -> None:
    """Fill *profile*'s duplicate facts from the ids in row order."""
    counts = Counter(v for v in certificate_ids if v is not None)
    duplicated = [(cid, n) for cid, n in counts.items() if n > 1]
    profile.duplicate_groups = sorted(duplicated, key=lambda kv: -kv[1])[:50]
    profile.n_duplicate_certificates = sum(n - 1 for __, n in duplicated)


def merge_quality(
    parts: list[QualityProfile], certificate_ids: np.ndarray
) -> QualityProfile:
    """The profile of the concatenation of the tables *parts* profile.

    Missing, implausible, unlocated and out-of-region counts add up over
    the parts; duplicates do not (one id can repeat across two parts), so
    they are recounted over *certificate_ids*, the parts' gathered
    ``certificate_id`` column in original row order.  The result equals
    :func:`assess_quality` over the concatenated table.
    """
    n_rows = sum(part.n_rows for part in parts)
    profile = QualityProfile(
        n_rows=n_rows,
        n_unlocated=sum(part.n_unlocated for part in parts),
        n_outside_region=sum(part.n_outside_region for part in parts),
    )
    for name, first in parts[0].attributes.items():
        n_missing = sum(part.attributes[name].n_missing for part in parts)
        profile.attributes[name] = AttributeQuality(
            attribute=name,
            kind=first.kind,
            n_missing=n_missing,
            missing_rate=n_missing / n_rows if n_rows else 0.0,
            n_implausible=sum(part.attributes[name].n_implausible for part in parts),
        )
    _count_duplicates(profile, certificate_ids)
    return profile
