"""Noise injection with provenance.

The paper motivates the whole preprocessing tier with the observation that
address fields "often contain numerous typos and input errors" and that
numeric attributes carry outliers from collection errors (Section 2.1).
Real EPC collections come pre-dirtied; our synthetic one is born clean, so
this module corrupts it the way certifier-typed data gets corrupted — and,
unlike reality, remembers *exactly* what it did.

Every corruption is logged as a :class:`NoiseEvent` carrying the row, the
attribute, the noise kind and the original value.  Experiments E2/A1 use the
log to score cleaning precision and recall; experiment E9 uses the planted
numeric outliers to score the detector battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthetic import EpcCollection
from .table import Column, ColumnKind, Table

__all__ = ["NoiseConfig", "NoiseEvent", "NoiseResult", "apply_noise"]

#: Reverse abbreviations used to re-compress canonical odonyms.
_REABBREVIATE = {
    "corso": "c.so",
    "via": "v.",
    "viale": "v.le",
    "piazza": "p.za",
    "largo": "l.go",
    "strada": "str.",
    "vicolo": "vic.",
}

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class NoiseConfig:
    """Corruption probabilities, per row (addresses) or per cell (numerics)."""

    seed: int = 77
    # address-field noise
    p_address_typo: float = 0.18
    p_address_abbreviation: float = 0.10
    p_address_case: float = 0.08
    p_house_number_missing: float = 0.03
    p_zip_missing: float = 0.06
    p_zip_wrong: float = 0.04
    p_coords_missing: float = 0.05
    p_coords_swapped: float = 0.01
    p_coords_gross_error: float = 0.02
    # numeric noise on the analysis attributes
    p_numeric_outlier: float = 0.008
    p_numeric_missing: float = 0.012
    #: Numeric attributes subject to outlier/missing injection.
    numeric_targets: tuple[str, ...] = (
        "aspect_ratio",
        "u_value_opaque",
        "u_value_windows",
        "heated_surface",
        "eta_h",
        "eph",
    )
    #: Distribution of edit counts for a typo event: (edits, probability).
    typo_edit_distribution: tuple[tuple[int, float], ...] = (
        (1, 0.60), (2, 0.25), (3, 0.10), (5, 0.05),
    )


@dataclass(frozen=True)
class NoiseEvent:
    """One logged corruption: what happened to which cell."""

    row: int
    attribute: str
    kind: str
    original: object
    corrupted: object


@dataclass
class NoiseResult:
    """The dirty table plus the full corruption log."""

    table: Table
    events: list[NoiseEvent] = field(default_factory=list)

    def events_by_kind(self) -> dict[str, list[NoiseEvent]]:
        """The noise events grouped by their kind."""
        by_kind: dict[str, list[NoiseEvent]] = {}
        for ev in self.events:
            by_kind.setdefault(ev.kind, []).append(ev)
        return by_kind

    def rows_touched(self, attribute: str | None = None) -> set[int]:
        """Rows that received at least one event (optionally on *attribute*)."""
        return {
            ev.row
            for ev in self.events
            if attribute is None or ev.attribute == attribute
        }


def _apply_typos(rng: np.random.Generator, text: str, n_edits: int) -> str:
    """Apply *n_edits* random single-character edits to *text*."""
    chars = list(text)
    for _ in range(n_edits):
        if not chars:
            chars = [rng.choice(list(_ALPHABET))]
            continue
        op = rng.integers(0, 4)
        pos = int(rng.integers(0, len(chars)))
        if op == 0:  # substitution
            chars[pos] = str(rng.choice(list(_ALPHABET)))
        elif op == 1:  # deletion
            del chars[pos]
        elif op == 2:  # insertion
            chars.insert(pos, str(rng.choice(list(_ALPHABET))))
        elif op == 3 and len(chars) >= 2:  # transposition
            pos = min(pos, len(chars) - 2)
            chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
    return "".join(chars)


def _reabbreviate(address: str) -> str:
    """Compress canonical odonym tokens back into common abbreviations."""
    tokens = address.split()
    return " ".join(_REABBREVIATE.get(tok, tok) for tok in tokens)


def _sample_edits(rng: np.random.Generator, dist: tuple[tuple[int, float], ...]) -> int:
    counts = [c for c, _ in dist]
    probs = np.array([p for _, p in dist], dtype=np.float64)
    return int(rng.choice(counts, p=probs / probs.sum()))


def apply_noise(
    collection: EpcCollection, config: NoiseConfig | None = None
) -> NoiseResult:
    """Corrupt a clean collection, returning the dirty table and the log.

    The input collection is left untouched; the returned table owns fresh
    column buffers for every attribute the noise model can touch.
    """
    cfg = config or NoiseConfig()
    rng = np.random.default_rng(cfg.seed)
    table = collection.table
    n = table.n_rows
    events: list[NoiseEvent] = []

    address = np.array(table["address"], dtype=object)
    house_number = np.array(table["house_number"], dtype=object)
    zip_code = np.array(table["zip_code"], dtype=object)
    lat = table["latitude"].copy()
    lon = table["longitude"].copy()

    all_zips = sorted({z for z in zip_code if z is not None})

    def log(row: int, attribute: str, kind: str, original, corrupted) -> None:
        events.append(NoiseEvent(int(row), attribute, kind, original, corrupted))

    u = rng.random((n, 8))
    for i in range(n):
        # -- address text -------------------------------------------------
        if address[i] is not None:
            if u[i, 0] < cfg.p_address_typo:
                edits = _sample_edits(rng, cfg.typo_edit_distribution)
                corrupted = _apply_typos(rng, address[i], edits)
                if corrupted != address[i]:
                    log(i, "address", "typo", address[i], corrupted)
                    address[i] = corrupted
            if u[i, 1] < cfg.p_address_abbreviation:
                corrupted = _reabbreviate(address[i])
                if corrupted != address[i]:
                    log(i, "address", "abbreviation", address[i], corrupted)
                    address[i] = corrupted
            if u[i, 2] < cfg.p_address_case:
                corrupted = address[i].upper()
                if corrupted != address[i]:
                    log(i, "address", "case", address[i], corrupted)
                    address[i] = corrupted
        # -- house number --------------------------------------------------
        if u[i, 3] < cfg.p_house_number_missing and house_number[i] is not None:
            log(i, "house_number", "missing", house_number[i], None)
            house_number[i] = None
        # -- zip ------------------------------------------------------------
        if u[i, 4] < cfg.p_zip_missing and zip_code[i] is not None:
            log(i, "zip_code", "missing", zip_code[i], None)
            zip_code[i] = None
        elif u[i, 5] < cfg.p_zip_wrong and zip_code[i] is not None:
            wrong = str(rng.choice(all_zips))
            if wrong != zip_code[i]:
                log(i, "zip_code", "wrong", zip_code[i], wrong)
                zip_code[i] = wrong
        # -- coordinates -----------------------------------------------------
        if u[i, 6] < cfg.p_coords_missing:
            if not (np.isnan(lat[i]) and np.isnan(lon[i])):
                log(i, "latitude", "missing", float(lat[i]), None)
                log(i, "longitude", "missing", float(lon[i]), None)
                lat[i] = np.nan
                lon[i] = np.nan
        elif u[i, 7] < cfg.p_coords_swapped:
            log(i, "latitude", "swapped", float(lat[i]), float(lon[i]))
            log(i, "longitude", "swapped", float(lon[i]), float(lat[i]))
            lat[i], lon[i] = lon[i], lat[i]
        elif u[i, 7] < cfg.p_coords_swapped + cfg.p_coords_gross_error:
            new_lat = float(rng.uniform(36.0, 47.0))
            new_lon = float(rng.uniform(7.0, 18.0))
            log(i, "latitude", "gross_error", float(lat[i]), new_lat)
            log(i, "longitude", "gross_error", float(lon[i]), new_lon)
            lat[i], lon[i] = new_lat, new_lon

    # -- numeric outliers and missing values --------------------------------
    numeric_arrays: dict[str, np.ndarray] = {}
    for name in cfg.numeric_targets:
        values = table[name].copy()
        outlier_mask = rng.random(n) < cfg.p_numeric_outlier
        missing_mask = (~outlier_mask) & (rng.random(n) < cfg.p_numeric_missing)
        for i in np.flatnonzero(outlier_mask):
            original = float(values[i])
            # unit errors and decimal slips: x10, x100 or /10
            factor = float(rng.choice((10.0, 100.0, 0.1), p=(0.6, 0.2, 0.2)))
            corrupted = original * factor
            log(i, name, "outlier", original, corrupted)
            values[i] = corrupted
        for i in np.flatnonzero(missing_mask):
            log(i, name, "missing", float(values[i]), None)
            values[i] = np.nan
        numeric_arrays[name] = values

    dirty = table
    # through the constructors, so equal corrupted cells share one string
    dirty = dirty.with_column(Column.text("address", address))
    dirty = dirty.with_column(Column.text("house_number", house_number))
    dirty = dirty.with_column(Column.categorical("zip_code", zip_code))
    dirty = dirty.with_column(Column("latitude", ColumnKind.NUMERIC, lat))
    dirty = dirty.with_column(Column("longitude", ColumnKind.NUMERIC, lon))
    for name, values in numeric_arrays.items():
        dirty = dirty.with_column(Column(name, ColumnKind.NUMERIC, values))
    # restore original schema column order
    dirty = dirty.select(table.column_names)
    return NoiseResult(table=dirty, events=events)
