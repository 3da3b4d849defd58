"""Typed record view over EPC tables, plus schema validation.

The columnar :class:`~repro.dataset.table.Table` is the processing
representation; user-facing code often wants *one certificate* with named,
typed accessors.  :class:`EpcRecord` is that view — a lightweight wrapper
over a table row exposing the paper's named attributes as properties and
everything else through :meth:`get`.

:func:`validate_table` checks a table against the
:class:`~repro.dataset.schema.EpcSchema`: plausibility ranges for numeric
attributes, closed vocabularies for categorical ones.  The paper's
pre-processing assumes such screening has happened upstream of outlier
detection; real registries run exactly this kind of rule check (the
``quality_check_passed`` attribute in the schema models its outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import AttributeSpec, EpcSchema, epc_schema
from .table import Column, ColumnKind, Table

__all__ = [
    "EpcRecord", "records", "ValidationIssue", "implausible_mask", "validate_table",
]


class EpcRecord:
    """A read-only view of one certificate (one table row).

    Missing numeric values come back as ``None`` (not NaN), so record
    consumers never need NumPy semantics.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: Table, row: int):
        self._table = table
        self._row = row

    def get(self, attribute: str):
        """The value of *attribute*, with NaN normalized to ``None``."""
        value = self._table[attribute][self._row]
        if self._table.kind(attribute) is ColumnKind.NUMERIC and (
            value is None or np.isnan(value)
        ):
            return None
        return value

    # -- identity ----------------------------------------------------------

    @property
    def certificate_id(self) -> str | None:
        """Unique certificate identifier."""
        return self.get("certificate_id")

    @property
    def building_id(self) -> str | None:
        """Identifier shared by units of the same building."""
        return self.get("building_id")

    # -- location -----------------------------------------------------------

    @property
    def address(self) -> str | None:
        """Street address (free text as stored)."""
        return self.get("address")

    @property
    def house_number(self) -> str | None:
        """Civic number as stored."""
        return self.get("house_number")

    @property
    def zip_code(self) -> str | None:
        """Postal code (CAP)."""
        return self.get("zip_code")

    @property
    def city(self) -> str | None:
        """Municipality name."""
        return self.get("city")

    @property
    def coordinates(self) -> tuple[float, float] | None:
        """(lat, lon), or ``None`` when either coordinate is missing."""
        lat, lon = self.get("latitude"), self.get("longitude")
        if lat is None or lon is None:
            return None
        return float(lat), float(lon)

    @property
    def full_address(self) -> str:
        """Street + civic number, best effort."""
        parts = [p for p in (self.address, self.house_number) if p]
        return " ".join(parts)

    # -- the paper's named attributes ----------------------------------------

    @property
    def aspect_ratio(self) -> float | None:
        """Aspect ratio S/V of the building."""
        return self.get("aspect_ratio")

    @property
    def u_value_opaque(self) -> float | None:
        """Average U-value of the vertical opaque envelope (W/m2K)."""
        return self.get("u_value_opaque")

    @property
    def u_value_windows(self) -> float | None:
        """Average U-value of the windows (W/m2K)."""
        return self.get("u_value_windows")

    @property
    def heated_surface(self) -> float | None:
        """Heated floor area S_r (m2)."""
        return self.get("heated_surface")

    @property
    def eta_h(self) -> float | None:
        """Average global efficiency for space heating (ETAH)."""
        return self.get("eta_h")

    @property
    def eph(self) -> float | None:
        """Normalized primary heating energy demand EP_H (kWh/m2y)."""
        return self.get("eph")

    @property
    def energy_class(self) -> str | None:
        """EPC energy class label (A4..G)."""
        return self.get("energy_class")

    def __repr__(self) -> str:
        return (
            f"EpcRecord({self.certificate_id or '?'}, {self.full_address or 'no address'}, "
            f"class {self.energy_class or '?'})"
        )


def records(table: Table):
    """Iterate the rows of *table* as :class:`EpcRecord` views."""
    for row in range(table.n_rows):
        yield EpcRecord(table, row)


@dataclass(frozen=True)
class ValidationIssue:
    """One schema violation found in a table."""

    row: int
    attribute: str
    value: object
    reason: str


@dataclass
class ValidationReport:
    """All violations, plus per-attribute aggregation."""

    issues: list[ValidationIssue] = field(default_factory=list)
    n_rows: int = 0

    @property
    def is_valid(self) -> bool:
        """True when no violation was found."""
        return not self.issues

    def by_attribute(self) -> dict[str, int]:
        """Number of violations per attribute."""
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.attribute] = out.get(issue.attribute, 0) + 1
        return out

    def rows_affected(self) -> set[int]:
        """The distinct rows carrying at least one violation."""
        return {issue.row for issue in self.issues}


def implausible_mask(column: Column, spec: AttributeSpec) -> np.ndarray:
    """Boolean mask of the cells of *column* breaking *spec*'s rule.

    Numeric cells must fall inside ``[lo, hi]``; categorical ones inside
    the closed vocabulary (when the spec has one).  Missing cells never
    count: missingness is the outlier/cleaning tier's concern.
    """
    values = column.values
    if column.kind is ColumnKind.NUMERIC:
        bad = np.zeros(len(values), dtype=bool)
        with np.errstate(invalid="ignore"):
            if spec.lo is not None:
                bad |= values < spec.lo
            if spec.hi is not None:
                bad |= values > spec.hi
        return bad
    if not spec.categories:
        return np.zeros(len(values), dtype=bool)
    allowed = set(spec.categories)
    return np.fromiter(
        (v is not None and v not in allowed for v in values),
        dtype=bool, count=len(values),
    )


def validate_table(
    table: Table,
    schema: EpcSchema | None = None,
    attributes: list[str] | None = None,
    max_issues: int = 10_000,
) -> ValidationReport:
    """Check *table* against the EPC schema's plausibility rules
    (:func:`implausible_mask`), one :class:`ValidationIssue` per bad cell.

    Collection stops after *max_issues*; count violations with
    :func:`implausible_mask` when the total matters.
    """
    schema = schema or epc_schema()
    names = attributes if attributes is not None else [
        n for n in table.column_names if n in schema
    ]
    report = ValidationReport(n_rows=table.n_rows)
    for name in names:
        spec = schema.spec(name)
        column = table.column(name)
        numeric = column.kind is ColumnKind.NUMERIC
        reason = (
            f"outside plausible range [{spec.lo}, {spec.hi}]"
            if numeric
            else "not in the closed vocabulary"
        )
        for row in np.flatnonzero(implausible_mask(column, spec)):
            value = column.values[row]
            report.issues.append(
                ValidationIssue(int(row), name, float(value) if numeric else value, reason)
            )
            if len(report.issues) >= max_issues:
                return report
    return report
