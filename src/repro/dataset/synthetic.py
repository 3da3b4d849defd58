"""Synthetic Piedmont EPC collection generator.

The paper evaluates INDICE on ~25,000 certificates (132 attributes) issued
2016-2018 for Piedmont buildings, openly released by CSI Piemonte.  That
collection cannot be fetched offline, so this module generates a seeded
synthetic stand-in whose *statistical shape* matches what the INDICE
pipeline actually depends on:

* certificates are geolocated housing units on real gazetteer addresses
  (Turin units reference the synthetic street map; other Piedmont towns are
  generated without gazetteer backing, like the paper's out-of-case-study
  certificates);
* thermo-physical attributes follow **construction-era regimes** — the
  physical levels (U-values, plant efficiencies) are taken from the Italian
  building-stock literature and line up with the discretization bins the
  paper publishes in footnote 4;
* independent **renovation events** (window replacement, wall insulation,
  plant renewal) decouple the envelope variables from one another, which is
  what keeps the pairwise Pearson correlations weak in Figure 3 while the
  stock stays clusterable;
* the heating demand ``eph`` follows a simplified steady-state balance
  (losses scaled by S/V and envelope U-values, divided by the global plant
  efficiency), so clusters found on the five case-study features order the
  response exactly as the paper's dashboard shows.

Era membership per building is kept as ground truth, which lets the test
suite and benchmarks check recovery properties the paper could only assert
qualitatively.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..geo.regions import RegionHierarchy
from .schema import EpcSchema, epc_schema
from .streetmap import AddressRecord, StreetMap, generate_street_map
from .table import Column, ColumnKind, Table

__all__ = [
    "SyntheticConfig",
    "EraRegime",
    "ERA_REGIMES",
    "EpcCollection",
    "ShardRecipe",
    "generate_epc_collection",
    "generate_epc_shard",
    "merge_epc_collections",
    "plan_generation_shards",
    "shard_scheme",
    "shard_seed_sequence",
]


@dataclass(frozen=True)
class EraRegime:
    """Thermo-physical regime of a construction era.

    Means/standard deviations for the envelope and plant variables, the
    construction-year range, and the probability that each subsystem has
    since been renovated (renovated subsystems re-draw from the *recent*
    regime, slightly degraded).
    """

    name: str
    year_range: tuple[int, int]
    u_opaque: tuple[float, float]
    u_windows: tuple[float, float]
    eta_h: tuple[float, float]
    p_window_replacement: float
    p_wall_retrofit: float
    p_plant_renewal: float


#: Construction-era regimes for the Piedmont stock, ordered old -> new.  The
#: physical levels are chosen so that the midpoints between adjacent regimes
#: fall near the paper's footnote-4 discretization boundaries.
ERA_REGIMES = (
    EraRegime("historic", (1880, 1945), (0.95, 0.10), (4.30, 0.45), (0.55, 0.05), 0.55, 0.18, 0.60),
    EraRegime("postwar", (1946, 1975), (0.78, 0.09), (2.90, 0.28), (0.68, 0.05), 0.50, 0.15, 0.55),
    EraRegime("energylaw", (1976, 1990), (0.55, 0.06), (2.25, 0.16), (0.73, 0.04), 0.40, 0.12, 0.45),
    EraRegime("modern", (1991, 2005), (0.42, 0.05), (1.80, 0.18), (0.86, 0.04), 0.25, 0.08, 0.30),
    EraRegime("recent", (2006, 2017), (0.28, 0.05), (1.55, 0.18), (0.93, 0.03), 0.00, 0.00, 0.00),
)

_ERA_INDEX = {regime.name: i for i, regime in enumerate(ERA_REGIMES)}

#: Values a renovated subsystem is re-drawn from (near-recent performance).
#: Kept close to the modern-era modes so renovation does not open a density
#: gap below the paper's lowest discretization boundary.
_RENOVATED_U_WINDOWS = (1.75, 0.22)
_RENOVATED_U_OPAQUE = (0.40, 0.07)
_RENOVATED_ETA_H = (0.89, 0.04)

#: Era mix in the historic city core (old stock dominates) ...
_CORE_ERA_MIX = np.array((0.48, 0.30, 0.12, 0.07, 0.03))
#: ... and at the urban fringe (postwar expansion and newer).
_PERIPHERY_ERA_MIX = np.array((0.05, 0.32, 0.27, 0.20, 0.16))
#: Era mix for certificates outside the case-study city.
_DEFAULT_ERA_MIX = np.array((0.18, 0.34, 0.22, 0.15, 0.11))

#: Other Piedmont municipalities: name, province, (lat, lon), degree days.
_OTHER_CITIES = (
    ("Moncalieri", "TO", (45.0009, 7.6853), 2648),
    ("Rivoli", "TO", (45.0713, 7.5194), 2711),
    ("Collegno", "TO", (45.0780, 7.5750), 2683),
    ("Cuneo", "CN", (44.3845, 7.5427), 3012),
    ("Asti", "AT", (44.9007, 8.2064), 2617),
    ("Alessandria", "AL", (44.9133, 8.6155), 2559),
    ("Novara", "NO", (45.4469, 8.6218), 2463),
    ("Vercelli", "VC", (45.3205, 8.4185), 2543),
    ("Biella", "BI", (45.5628, 8.0583), 2589),
    ("Verbania", "VB", (45.9214, 8.5513), 2427),
)

_TURIN_DEGREE_DAYS = 2617.0


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic collection.

    The defaults reproduce the paper's dataset statistics: ~25k certificates
    with ~70% in the case-study city and ~62% of residential type E.1.1.
    """

    n_certificates: int = 25000
    seed: int = 2322
    turin_share: float = 0.70
    e11_share: float = 0.62
    streets_per_neighbourhood: int = 42


@dataclass
class EpcCollection:
    """A generated EPC collection plus its ground truth.

    ``table`` holds the *clean* certificates (noise is applied separately by
    :mod:`repro.dataset.noise` so experiments can measure recovery).
    ``gazetteer_index`` maps each row to its true street-map record (``-1``
    for certificates outside Turin), and ``era_labels`` carries the true
    construction-era segment of each row.
    """

    table: Table
    schema: EpcSchema
    street_map: StreetMap
    hierarchy: RegionHierarchy
    era_labels: list[str] = field(default_factory=list)
    gazetteer_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def n_certificates(self) -> int:
        """Number of certificates in the collection."""
        return self.table.n_rows


def _truncated_normal(
    rng: np.random.Generator, mean: float, sd: float, lo: float, hi: float, size: int
) -> np.ndarray:
    """Normal draws clipped into [lo, hi] (adequate tails for regime draws)."""
    return np.clip(rng.normal(mean, sd, size), lo, hi)


def _era_for_rows(
    rng: np.random.Generator,
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    in_city: np.ndarray,
) -> np.ndarray:
    """Era index per row, mixed by distance from the city centre.

    Like real Turin, the synthetic stock ages toward the core: the era mix
    interpolates from :data:`_CORE_ERA_MIX` at the centre to
    :data:`_PERIPHERY_ERA_MIX` at the fringe.  This is what makes the
    choropleth maps spatially structured (positive Moran's I) — the
    premise of the paper's energy maps.  Non-city rows use the regional
    default mix.
    """
    from .streetmap import CITY_CENTER, CITY_HALF_LAT, CITY_HALF_LON

    n = len(latitudes)
    out = np.empty(n, dtype=np.intp)
    c_lat, c_lon = CITY_CENTER
    # normalized radial distance in the city's own aspect ratio
    d = np.sqrt(
        ((latitudes - c_lat) / CITY_HALF_LAT) ** 2
        + ((longitudes - c_lon) / CITY_HALF_LON) ** 2
    )
    t = np.clip(d / np.sqrt(2.0), 0.0, 1.0)[:, None]
    mixes = np.where(
        np.asarray(in_city, dtype=bool)[:, None],
        _CORE_ERA_MIX[None, :] * (1.0 - t) + _PERIPHERY_ERA_MIX[None, :] * t,
        _DEFAULT_ERA_MIX[None, :],
    )
    mixes /= mixes.sum(axis=1, keepdims=True)
    # inverse-CDF sampling, one uniform per row
    cumulative = np.cumsum(mixes, axis=1)
    u = rng.random(n)
    out = (cumulative < u[:, None]).sum(axis=1).astype(np.intp)
    return np.minimum(out, len(ERA_REGIMES) - 1)


def _regime_draw(
    rng: np.random.Generator,
    era_idx: np.ndarray,
    attribute: str,
    renovated: np.ndarray,
    renovated_params: tuple[float, float],
    lo: float,
    hi: float,
) -> np.ndarray:
    """Draw a per-row value from each row's era regime, overriding renovated
    rows with the near-recent *renovated_params* regime."""
    n = len(era_idx)
    out = np.empty(n, dtype=np.float64)
    for i, regime in enumerate(ERA_REGIMES):
        rows = np.flatnonzero(era_idx == i)
        if len(rows) == 0:
            continue
        mean, sd = getattr(regime, attribute)
        out[rows] = _truncated_normal(rng, mean, sd, lo, hi, len(rows))
    ren_rows = np.flatnonzero(renovated)
    if len(ren_rows):
        mean, sd = renovated_params
        out[ren_rows] = _truncated_normal(rng, mean, sd, lo, hi, len(ren_rows))
    return out


def _renovation_mask(rng: np.random.Generator, era_idx: np.ndarray, field_name: str) -> np.ndarray:
    """Bernoulli renovation mask with per-era probability *field_name*."""
    probs = np.array([getattr(r, field_name) for r in ERA_REGIMES])
    return rng.random(len(era_idx)) < probs[era_idx]


def _energy_class(ep_gl: np.ndarray) -> list[str]:
    """Energy-class label from the global primary energy indicator."""
    bounds = [
        (20.0, "A4"), (30.0, "A3"), (40.0, "A2"), (55.0, "A1"),
        (75.0, "B"), (100.0, "C"), (135.0, "D"), (180.0, "E"), (250.0, "F"),
    ]
    out = []
    for v in ep_gl:
        label = "G"
        for bound, cls in bounds:
            if v <= bound:
                label = cls
                break
        out.append(label)
    return out


def _construction_period(years: np.ndarray) -> list[str]:
    """Construction-period class label from the construction year."""
    out = []
    for y in years:
        if y <= 1918:
            out.append("before 1918")
        elif y <= 1945:
            out.append("1919-1945")
        elif y <= 1960:
            out.append("1946-1960")
        elif y <= 1975:
            out.append("1961-1975")
        elif y <= 1990:
            out.append("1976-1990")
        elif y <= 2005:
            out.append("1991-2005")
        else:
            out.append("after 2005")
    return out


def _quality_from_u(u_values: np.ndarray, good: float, poor: float) -> list[str]:
    """Map a U-value to a good/fair/poor quality class."""
    return [
        "good" if u <= good else ("poor" if u >= poor else "fair") for u in u_values
    ]


def _choose(
    rng: np.random.Generator,
    options: tuple[str, ...],
    n: int,
    p: tuple[float, ...] | None = None,
) -> np.ndarray:
    """*n* draws from *options* as an ``object`` array of the options
    themselves.

    Consumes the same RNG stream as ``rng.choice(options, size=n, p=p)``
    and yields equal values, but every cell references one of the
    ``len(options)`` strings instead of a fresh ``np.str_`` per row.
    """
    return np.asarray(options, dtype=object)[rng.choice(len(options), size=n, p=p)]


def _pick_buildings(
    rng: np.random.Generator,
    street_map: StreetMap,
    n_units: int,
    record_pool: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample gazetteer buildings and unit counts until *n_units* are placed.

    *record_pool* restricts the draw to a subset of gazetteer records (a
    shard's districts or ZIP codes); ``None`` draws from the whole map,
    with the exact same RNG consumption as the historical unrestricted
    path.  Returns ``(record_index_per_unit, units_in_building_per_unit)``.
    """
    record_indices: list[int] = []
    building_sizes: list[int] = []
    pool = (
        np.arange(len(street_map.records), dtype=np.intp)
        if record_pool is None
        else np.asarray(record_pool, dtype=np.intp)
    )
    if n_units > 0 and len(pool) == 0:
        raise ValueError("cannot place units: the shard's record pool is empty")
    while len(record_indices) < n_units:
        rec = int(pool[int(rng.integers(0, len(pool)))])
        size = int(np.clip(rng.geometric(0.22), 1, 60))
        take = min(size, n_units - len(record_indices))
        record_indices.extend([rec] * take)
        building_sizes.extend([size] * take)
    return (
        np.asarray(record_indices, dtype=np.intp),
        np.asarray(building_sizes, dtype=np.float64),
    )


def generate_epc_collection(config: SyntheticConfig | None = None) -> EpcCollection:
    """Generate the full synthetic Piedmont EPC collection.

    Fully deterministic in ``config.seed``.  Returns clean data; apply
    :func:`repro.dataset.noise.apply_noise` to obtain the dirty collection
    the preprocessing experiments start from.
    """
    cfg = config or SyntheticConfig()
    rng = np.random.default_rng(cfg.seed)
    schema = epc_schema()
    street_map, hierarchy = generate_street_map(
        seed=cfg.seed, streets_per_neighbourhood=cfg.streets_per_neighbourhood
    )
    n_turin = int(round(cfg.n_certificates * cfg.turin_share))
    return _generate_certificates(
        rng, cfg, schema, street_map, hierarchy,
        n_turin=n_turin, n_other=cfg.n_certificates - n_turin,
        record_pool=None, id_tag="",
    )


def _generate_certificates(
    rng: np.random.Generator,
    cfg: SyntheticConfig,
    schema: EpcSchema,
    street_map: StreetMap,
    hierarchy: RegionHierarchy,
    n_turin: int,
    n_other: int,
    record_pool: np.ndarray | None,
    id_tag: str,
) -> EpcCollection:
    """The generation core, parametrized for whole-sweep and shard use.

    Draws every attribute from *rng* in a fixed order, so the monolithic
    path (``record_pool=None``, ``id_tag=""``, the config-seeded *rng*)
    reproduces the historical byte-for-byte output, while a shard passes
    its own key-derived *rng*, a gazetteer *record_pool* restricting
    Turin placement to the shard's districts/ZIPs, and an *id_tag*
    keeping certificate ids globally unique across shards.
    """
    n = n_turin + n_other

    district_names = [d.name for d in hierarchy.districts]
    district_of_name = {name: i for i, name in enumerate(district_names)}

    # ---- placement -----------------------------------------------------
    gaz_idx_turin, building_units = _pick_buildings(
        rng, street_map, n_turin, record_pool
    )
    turin_records: list[AddressRecord] = [street_map.records[i] for i in gaz_idx_turin]
    # transpose the record list once; each per-column comprehension below
    # would otherwise re-walk all records for a single attribute
    if turin_records:
        t_street, t_house, t_zip, t_lat, t_lon, t_district, t_neigh = (
            list(col)
            for col in zip(
                *(
                    (
                        r.street, r.house_number, r.zip_code,
                        r.latitude, r.longitude, r.district, r.neighbourhood,
                    )
                    for r in turin_records
                )
            )
        )
    else:
        t_street = t_house = t_zip = t_lat = t_lon = t_district = t_neigh = []
    turin_district_idx = np.asarray(
        [district_of_name[d] for d in t_district], dtype=np.intp
    )

    other_city_idx = rng.integers(0, len(_OTHER_CITIES), size=n_other)
    other_records = [_OTHER_CITIES[i] for i in other_city_idx]

    district_idx = np.concatenate([turin_district_idx, np.full(n_other, -1, dtype=np.intp)])
    gazetteer_index = np.concatenate(
        [gaz_idx_turin, np.full(n_other, -1, dtype=np.intp)]
    )

    city = ["Turin"] * n_turin + [rec[0] for rec in other_records]
    province = ["TO"] * n_turin + [rec[1] for rec in other_records]
    district = t_district + [None] * n_other
    neighbourhood = t_neigh + [None] * n_other
    address = t_street + [
        f"via {rec[0].lower()} centro" for rec in other_records
    ]
    house_number = t_house + [
        str(int(v)) for v in rng.integers(1, 80, size=n_other)
    ]
    zip_code = t_zip + [
        f"1{rng.integers(2, 6)}100" for _ in range(n_other)
    ]

    lat = np.array(
        t_lat + [rec[2][0] for rec in other_records], dtype=np.float64
    )
    lon = np.array(
        t_lon + [rec[2][1] for rec in other_records], dtype=np.float64
    )
    # scatter non-Turin units around their town centre (~1.5 km)
    lat[n_turin:] += rng.normal(0, 0.006, n_other)
    lon[n_turin:] += rng.normal(0, 0.008, n_other)

    degree_days = np.concatenate(
        [
            np.full(n_turin, _TURIN_DEGREE_DAYS),
            np.array([rec[3] for rec in other_records], dtype=np.float64),
        ]
    ) + rng.normal(0, 25, n)

    # ---- era segments and envelope physics ------------------------------
    era_idx = _era_for_rows(rng, lat, lon, district_idx >= 0)
    era_labels = [ERA_REGIMES[i].name for i in era_idx]

    windows_replaced = _renovation_mask(rng, era_idx, "p_window_replacement")
    walls_retrofitted = _renovation_mask(rng, era_idx, "p_wall_retrofit")
    plant_renewed = _renovation_mask(rng, era_idx, "p_plant_renewal")

    u_opaque = _regime_draw(
        rng, era_idx, "u_opaque", walls_retrofitted, _RENOVATED_U_OPAQUE, 0.15, 1.10
    )
    u_windows = _regime_draw(
        rng, era_idx, "u_windows", windows_replaced, _RENOVATED_U_WINDOWS, 1.10, 5.50
    )
    eta_h = _regime_draw(
        rng, era_idx, "eta_h", plant_renewed, _RENOVATED_ETA_H, 0.20, 1.05
    )

    year_of_construction = np.empty(n, dtype=np.float64)
    for i, regime in enumerate(ERA_REGIMES):
        rows = np.flatnonzero(era_idx == i)
        lo, hi = regime.year_range
        year_of_construction[rows] = rng.integers(lo, hi + 1, size=len(rows))

    # ---- building geometry -----------------------------------------------
    categories = ("apartment block", "detached house", "terraced house", "multi-storey", "other")
    cat_probs = np.array((0.55, 0.12, 0.13, 0.16, 0.04))
    # buildings with many units are blocks; small ones lean detached/terraced
    units_per_building = np.concatenate(
        [building_units, np.clip(rng.geometric(0.25, n_other), 1, 60).astype(np.float64)]
    )
    category_idx = np.where(
        units_per_building >= 9,
        np.where(rng.random(n) < 0.7, 0, 3),
        rng.choice(len(categories), size=n, p=cat_probs),
    )
    building_category = [categories[i] for i in category_idx]

    sv_params = {0: (0.45, 0.08), 1: (0.85, 0.12), 2: (0.65, 0.10), 3: (0.38, 0.06), 4: (0.60, 0.12)}
    aspect_ratio = np.empty(n, dtype=np.float64)
    for cat, (mean, sd) in sv_params.items():
        rows = np.flatnonzero(category_idx == cat)
        if len(rows):
            aspect_ratio[rows] = _truncated_normal(rng, mean, sd, 0.20, 1.20, len(rows))

    heated_surface = np.clip(rng.lognormal(np.log(82.0), 0.42, n), 20.0, 2000.0)
    average_height = _truncated_normal(rng, 2.75, 0.18, 2.30, 4.50, n)
    heated_volume = heated_surface * average_height * rng.uniform(1.05, 1.25, n)
    dispersing_surface = aspect_ratio * heated_volume
    window_to_wall = _truncated_normal(rng, 0.16, 0.05, 0.06, 0.40, n)
    opaque_surface = dispersing_surface * rng.uniform(0.45, 0.65, n)
    glazed_surface = opaque_surface * window_to_wall

    # ---- heating demand (simplified steady-state balance) -----------------
    u_mix = u_opaque * (1.0 - window_to_wall) + u_windows * window_to_wall
    climate_factor = degree_days / _TURIN_DEGREE_DAYS
    eph = 160.0 * aspect_ratio * u_mix / eta_h * climate_factor
    eph *= rng.lognormal(0.0, 0.16, n)
    eph = np.clip(eph, 8.0, 650.0)

    ep_w = np.clip(rng.lognormal(np.log(16.0), 0.35, n), 3.0, 90.0)
    ep_c = np.clip(rng.lognormal(np.log(8.0), 0.6, n), 0.0, 80.0)
    ep_gl = eph + ep_w + 0.3 * ep_c
    co2 = ep_gl * rng.uniform(0.18, 0.25, n)
    renewable_share = np.where(
        era_idx == _ERA_INDEX["recent"],
        _truncated_normal(rng, 32.0, 12.0, 0.0, 95.0, n),
        _truncated_normal(rng, 6.0, 6.0, 0.0, 60.0, n),
    )

    # plant decomposition consistent with the global efficiency
    eta_distribution = _truncated_normal(rng, 0.94, 0.03, 0.80, 0.99, n)
    eta_emission = _truncated_normal(rng, 0.95, 0.02, 0.85, 0.99, n)
    eta_control = _truncated_normal(rng, 0.96, 0.02, 0.85, 0.995, n)
    eta_generation = np.clip(
        eta_h / (eta_distribution * eta_emission * eta_control), 0.30, 1.20
    )

    # ---- remaining quantitative attributes ---------------------------------
    floors = np.clip(rng.geometric(0.6, n), 1, 4).astype(np.float64)
    building_floors = np.where(
        category_idx == 1, rng.integers(1, 4, n), rng.integers(2, 10, n)
    ).astype(np.float64)
    roof_u = np.clip(u_opaque * rng.uniform(0.8, 1.5, n), 0.10, 3.0)
    floor_u = np.clip(u_opaque * rng.uniform(0.8, 1.4, n), 0.10, 3.0)
    wall_thickness = _truncated_normal(rng, 38.0, 8.0, 18.0, 75.0, n)
    thermal_capacity = _truncated_normal(rng, 250.0, 60.0, 60.0, 480.0, n)
    solar_factor = _truncated_normal(rng, 0.62, 0.12, 0.25, 0.88, n)
    heating_power = np.clip(heated_surface * rng.uniform(0.06, 0.14, n), 3.0, 600.0)
    dhw_power = np.clip(rng.lognormal(np.log(5.0), 0.7, n), 0.0, 120.0)
    electric = np.clip(rng.lognormal(np.log(2600.0), 0.45, n), 150.0, 30000.0)
    gas = np.clip(eph * heated_surface / 9.6 * rng.uniform(0.8, 1.2, n), 0.0, 12000.0)
    altitude = np.where(
        np.asarray(province) == "TO",
        _truncated_normal(rng, 240.0, 30.0, 150.0, 400.0, n),
        _truncated_normal(rng, 300.0, 120.0, 80.0, 900.0, n),
    )
    heating_hours = rng.choice((10.0, 12.0, 14.0, 24.0), size=n, p=(0.25, 0.35, 0.3, 0.1))
    occupants = np.clip(np.round(heated_surface / 35.0 + rng.normal(0, 0.8, n)), 1, 12)
    certificate_year = rng.choice((2016.0, 2017.0, 2018.0), size=n, p=(0.3, 0.35, 0.35))
    renovated_any = windows_replaced | walls_retrofitted | plant_renewed
    renovation_year = np.where(
        renovated_any,
        rng.integers(1995, 2018, n).astype(np.float64),
        np.maximum(year_of_construction, 1900),
    )
    net_floor_area = heated_surface * rng.uniform(0.82, 0.95, n)

    # ---- categorical attributes -------------------------------------------
    def choice(options: tuple[str, ...], p: tuple[float, ...] | None = None) -> np.ndarray:
        return _choose(rng, options, n, p)

    building_type = list(
        np.where(
            rng.random(n) < cfg.e11_share,
            "E.1.1",
            rng.choice(("E.1.2", "E.1.3", "E.2", "E.3", "E.4", "E.5", "E.6", "E.7", "E.8"), size=n),
        )
    )
    heating_fuel = choice(
        ("natural gas", "oil", "LPG", "biomass", "district heating", "electricity"),
        (0.62, 0.05, 0.04, 0.06, 0.18, 0.05),
    )
    yes_no = ("yes", "no")

    columns: dict[str, tuple[ColumnKind, list | np.ndarray]] = {
        # quantitative
        "aspect_ratio": (ColumnKind.NUMERIC, aspect_ratio),
        "u_value_opaque": (ColumnKind.NUMERIC, u_opaque),
        "u_value_windows": (ColumnKind.NUMERIC, u_windows),
        "heated_surface": (ColumnKind.NUMERIC, heated_surface),
        "eta_h": (ColumnKind.NUMERIC, eta_h),
        "eph": (ColumnKind.NUMERIC, eph),
        "latitude": (ColumnKind.NUMERIC, lat),
        "longitude": (ColumnKind.NUMERIC, lon),
        "heated_volume": (ColumnKind.NUMERIC, heated_volume),
        "dispersing_surface": (ColumnKind.NUMERIC, dispersing_surface),
        "opaque_surface": (ColumnKind.NUMERIC, opaque_surface),
        "glazed_surface": (ColumnKind.NUMERIC, glazed_surface),
        "window_to_wall_ratio": (ColumnKind.NUMERIC, window_to_wall),
        "net_floor_area": (ColumnKind.NUMERIC, net_floor_area),
        "average_height": (ColumnKind.NUMERIC, average_height),
        "floors": (ColumnKind.NUMERIC, floors),
        "building_floors": (ColumnKind.NUMERIC, building_floors),
        "apartment_units": (ColumnKind.NUMERIC, units_per_building),
        "roof_u_value": (ColumnKind.NUMERIC, roof_u),
        "floor_u_value": (ColumnKind.NUMERIC, floor_u),
        "wall_thickness": (ColumnKind.NUMERIC, wall_thickness),
        "thermal_capacity": (ColumnKind.NUMERIC, thermal_capacity),
        "solar_factor_windows": (ColumnKind.NUMERIC, solar_factor),
        "eta_generation": (ColumnKind.NUMERIC, eta_generation),
        "eta_distribution": (ColumnKind.NUMERIC, eta_distribution),
        "eta_emission": (ColumnKind.NUMERIC, eta_emission),
        "eta_control": (ColumnKind.NUMERIC, eta_control),
        "heating_power": (ColumnKind.NUMERIC, heating_power),
        "dhw_power": (ColumnKind.NUMERIC, dhw_power),
        "ep_w": (ColumnKind.NUMERIC, ep_w),
        "ep_c": (ColumnKind.NUMERIC, ep_c),
        "ep_gl": (ColumnKind.NUMERIC, ep_gl),
        "co2_emissions": (ColumnKind.NUMERIC, co2),
        "renewable_share": (ColumnKind.NUMERIC, renewable_share),
        "electric_consumption": (ColumnKind.NUMERIC, electric),
        "gas_consumption": (ColumnKind.NUMERIC, gas),
        "degree_days": (ColumnKind.NUMERIC, degree_days),
        "altitude": (ColumnKind.NUMERIC, altitude),
        "heating_hours": (ColumnKind.NUMERIC, heating_hours),
        "occupants": (ColumnKind.NUMERIC, occupants),
        "year_of_construction": (ColumnKind.NUMERIC, year_of_construction),
        "certificate_year": (ColumnKind.NUMERIC, certificate_year),
        "renovation_year": (ColumnKind.NUMERIC, renovation_year),
        # identity and location
        "certificate_id": (
            ColumnKind.TEXT,
            [f"EPC-{cfg.seed}-{id_tag}{i:06d}" for i in range(n)],
        ),
        "address": (ColumnKind.TEXT, address),
        "house_number": (ColumnKind.TEXT, house_number),
        "zip_code": (ColumnKind.CATEGORICAL, zip_code),
        "city": (ColumnKind.CATEGORICAL, city),
        "province": (ColumnKind.CATEGORICAL, province),
        "region": (ColumnKind.CATEGORICAL, ["Piedmont"] * n),
        "district": (ColumnKind.CATEGORICAL, district),
        "neighbourhood": (ColumnKind.CATEGORICAL, neighbourhood),
        "cadastral_parcel": (
            ColumnKind.TEXT,
            [f"F{int(v)}-P{int(w)}" for v, w in zip(rng.integers(1, 400, n), rng.integers(1, 900, n))],
        ),
        "building_id": (
            ColumnKind.TEXT,
            [
                f"BLD-{gi:05d}" if gi >= 0 else f"BLD-X-{i:05d}"
                for i, gi in enumerate(gazetteer_index)
            ],
        ),
        # classification
        "energy_class": (ColumnKind.CATEGORICAL, _energy_class(ep_gl)),
        "building_type": (ColumnKind.CATEGORICAL, building_type),
        "construction_period": (ColumnKind.CATEGORICAL, _construction_period(year_of_construction)),
        "building_category": (ColumnKind.CATEGORICAL, building_category),
        "unit_position": (
            ColumnKind.CATEGORICAL,
            choice(("ground floor", "intermediate floor", "top floor", "whole building"),
                   (0.2, 0.5, 0.2, 0.1)),
        ),
        "certificate_reason": (
            ColumnKind.CATEGORICAL,
            choice(("sale", "rental", "new construction", "renovation", "energy requalification", "other"),
                   (0.45, 0.3, 0.06, 0.08, 0.06, 0.05)),
        ),
        "certification_software": (
            ColumnKind.CATEGORICAL,
            choice(("CENED", "DOCET", "TerMus", "MC4", "EC700", "other"),
                   (0.25, 0.2, 0.2, 0.15, 0.15, 0.05)),
        ),
        "certifier_id": (
            ColumnKind.TEXT, [f"CERT-{int(v):04d}" for v in rng.integers(1, 1500, n)]
        ),
        # envelope descriptors
        "wall_type": (
            ColumnKind.CATEGORICAL,
            [
                ("stone" if e == 0 else "solid brick") if rng_v < 0.5 else
                ("hollow brick" if e >= 2 else "concrete")
                for e, rng_v in zip(era_idx, rng.random(n))
            ],
        ),
        "wall_insulation": (
            ColumnKind.CATEGORICAL,
            [
                "external coat" if w else ("full" if e >= 3 else ("partial" if e == 2 else "none"))
                for w, e in zip(walls_retrofitted, era_idx)
            ],
        ),
        "roof_type": (
            ColumnKind.CATEGORICAL,
            choice(("pitched tiles", "flat slab", "wooden pitched", "metal", "green roof"),
                   (0.5, 0.25, 0.18, 0.05, 0.02)),
        ),
        "roof_insulation": (
            ColumnKind.CATEGORICAL,
            ["full" if e >= 3 else ("partial" if e == 2 else "none") for e in era_idx],
        ),
        "floor_type": (
            ColumnKind.CATEGORICAL,
            choice(("on ground", "on cellar", "on pilotis", "on unheated room"),
                   (0.3, 0.4, 0.05, 0.25)),
        ),
        "window_frame": (
            ColumnKind.CATEGORICAL,
            [
                ("PVC" if rng_v < 0.5 else "aluminium thermal break") if w
                else ("wood" if e <= 1 else "aluminium")
                for w, e, rng_v in zip(windows_replaced, era_idx, rng.random(n))
            ],
        ),
        "glazing_type": (
            ColumnKind.CATEGORICAL,
            [
                ("double low-e" if rng_v < 0.6 else "triple") if w or e == 4
                else ("single" if e <= 1 else "double")
                for w, e, rng_v in zip(windows_replaced, era_idx, rng.random(n))
            ],
        ),
        "shutters": (ColumnKind.CATEGORICAL, choice(("present", "absent"), (0.85, 0.15))),
        "prevailing_exposure": (
            ColumnKind.CATEGORICAL, choice(("N", "NE", "E", "SE", "S", "SW", "W", "NW"))
        ),
        "envelope_state": (ColumnKind.CATEGORICAL, _quality_from_u(u_opaque, 0.45, 0.80)),
        "thermal_bridges_corrected": (
            ColumnKind.CATEGORICAL, ["yes" if e >= 3 else "no" for e in era_idx]
        ),
        # heating plant
        "heating_fuel": (ColumnKind.CATEGORICAL, heating_fuel),
        "heating_type": (
            ColumnKind.CATEGORICAL,
            [
                "district" if f == "district heating" else
                ("heat pump" if f == "electricity" else ("centralized" if u >= 9 else "autonomous"))
                for f, u in zip(heating_fuel, units_per_building)
            ],
        ),
        "generator_type": (
            ColumnKind.CATEGORICAL,
            [
                "district exchanger" if f == "district heating" else
                "heat pump" if f == "electricity" else
                "biomass boiler" if f == "biomass" else
                ("condensing boiler" if p else "standard boiler")
                for f, p in zip(heating_fuel, plant_renewed | (era_idx == 4))
            ],
        ),
        "emitter_type": (
            ColumnKind.CATEGORICAL,
            ["radiant floor" if e == 4 and rng_v < 0.5 else "radiators"
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "distribution_type": (
            ColumnKind.CATEGORICAL,
            choice(("vertical columns", "horizontal ring", "autonomous ring", "none"),
                   (0.35, 0.25, 0.35, 0.05)),
        ),
        "regulation_type": (
            ColumnKind.CATEGORICAL,
            [
                "climatic+valves" if p else ("thermostatic valves" if e >= 2 else "none")
                for p, e in zip(plant_renewed, era_idx)
            ],
        ),
        "heat_metering": (
            ColumnKind.CATEGORICAL,
            ["yes" if (u >= 9 and rng_v < 0.7) else "no"
             for u, rng_v in zip(units_per_building, rng.random(n))],
        ),
        "chimney_type": (
            ColumnKind.CATEGORICAL,
            choice(("individual", "collective", "wall vented", "none"), (0.4, 0.3, 0.25, 0.05)),
        ),
        # hot water
        "dhw_fuel": (ColumnKind.CATEGORICAL, heating_fuel),
        "dhw_generator": (
            ColumnKind.CATEGORICAL,
            choice(("combined with heating", "dedicated boiler", "electric heater",
                    "heat pump", "solar assisted"), (0.55, 0.2, 0.15, 0.05, 0.05)),
        ),
        "dhw_storage": (ColumnKind.CATEGORICAL, choice(("present", "absent"), (0.45, 0.55))),
        # cooling and ventilation
        "cooling_system": (
            ColumnKind.CATEGORICAL,
            choice(("none", "split units", "centralized", "heat pump reversible"),
                   (0.55, 0.35, 0.04, 0.06)),
        ),
        "ventilation_type": (
            ColumnKind.CATEGORICAL,
            ["heat recovery" if e == 4 and rng_v < 0.4 else "natural"
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "humidity_control": (ColumnKind.CATEGORICAL, choice(yes_no, (0.08, 0.92))),
        # renewables
        "solar_thermal": (
            ColumnKind.CATEGORICAL,
            ["present" if (e == 4 and rng_v < 0.45) or rng_v < 0.04 else "absent"
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "photovoltaic": (
            ColumnKind.CATEGORICAL,
            ["present" if (e == 4 and rng_v < 0.35) or rng_v < 0.03 else "absent"
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "other_renewables": (
            ColumnKind.CATEGORICAL,
            choice(("none", "geothermal", "biomass", "micro wind", "mixed"),
                   (0.93, 0.02, 0.04, 0.005, 0.005)),
        ),
        # administrative / compliance flags
        "new_building": (
            ColumnKind.CATEGORICAL, ["yes" if e == 4 else "no" for e in era_idx]
        ),
        "major_renovation": (
            ColumnKind.CATEGORICAL, ["yes" if r else "no" for r in renovated_any]
        ),
        "public_building": (ColumnKind.CATEGORICAL, choice(yes_no, (0.03, 0.97))),
        "historic_constraint": (
            ColumnKind.CATEGORICAL,
            ["yes" if (e == 0 and rng_v < 0.25) else "no"
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "occupied_at_inspection": (ColumnKind.CATEGORICAL, choice(yes_no, (0.7, 0.3))),
        "inspection_performed": (ColumnKind.CATEGORICAL, choice(yes_no, (0.93, 0.07))),
        "project_data_used": (ColumnKind.CATEGORICAL, choice(yes_no, (0.25, 0.75))),
        "energy_audit_attached": (ColumnKind.CATEGORICAL, choice(yes_no, (0.1, 0.9))),
        "improvement_recommended": (
            ColumnKind.CATEGORICAL, ["no" if e == 4 else "yes" for e in era_idx]
        ),
        "recommended_envelope_work": (
            ColumnKind.CATEGORICAL,
            ["yes" if u > 0.65 else "no" for u in u_opaque],
        ),
        "recommended_plant_work": (
            ColumnKind.CATEGORICAL,
            ["yes" if v < 0.70 else "no" for v in eta_h],
        ),
        "recommended_renewables": (ColumnKind.CATEGORICAL, choice(yes_no, (0.4, 0.6))),
        "class_after_works": (
            ColumnKind.CATEGORICAL, _energy_class(np.maximum(ep_gl * 0.55, 15.0))
        ),
        "nzeb": (
            ColumnKind.CATEGORICAL,
            ["yes" if (e == 4 and g <= 30.0) else "no" for e, g in zip(era_idx, ep_gl)],
        ),
        "summer_envelope_quality": (
            ColumnKind.CATEGORICAL, _quality_from_u(u_windows, 1.8, 3.0)
        ),
        "winter_envelope_quality": (
            ColumnKind.CATEGORICAL, _quality_from_u(u_opaque, 0.45, 0.80)
        ),
        "adjacent_heated_units": (
            ColumnKind.CATEGORICAL,
            choice(("none", "one side", "two sides", "three or more"),
                   (0.15, 0.3, 0.35, 0.2)),
        ),
        "basement_present": (ColumnKind.CATEGORICAL, choice(yes_no, (0.55, 0.45))),
        "attic_present": (ColumnKind.CATEGORICAL, choice(yes_no, (0.4, 0.6))),
        "attic_heated": (ColumnKind.CATEGORICAL, choice(yes_no, (0.12, 0.88))),
        "garage_present": (ColumnKind.CATEGORICAL, choice(yes_no, (0.45, 0.55))),
        "lift_present": (
            ColumnKind.CATEGORICAL,
            ["yes" if (f >= 4 and rng_v < 0.8) else "no"
             for f, rng_v in zip(building_floors, rng.random(n))],
        ),
        "gas_connection": (
            ColumnKind.CATEGORICAL,
            ["yes" if f in ("natural gas",) or rng_v < 0.5 else "no"
             for f, rng_v in zip(heating_fuel, rng.random(n))],
        ),
        "district_heating_available": (
            ColumnKind.CATEGORICAL,
            ["yes" if f == "district heating" or rng_v < 0.25 else "no"
             for f, rng_v in zip(heating_fuel, rng.random(n))],
        ),
        "smart_thermostat": (ColumnKind.CATEGORICAL, choice(yes_no, (0.12, 0.88))),
        "condensing_ready_flue": (ColumnKind.CATEGORICAL, choice(yes_no, (0.5, 0.5))),
        "window_replacement_done": (
            ColumnKind.CATEGORICAL, ["yes" if w else "no" for w in windows_replaced]
        ),
        "facade_renovated": (
            ColumnKind.CATEGORICAL, ["yes" if w else "no" for w in walls_retrofitted]
        ),
        "roof_renovated": (ColumnKind.CATEGORICAL, choice(yes_no, (0.2, 0.8))),
        "plant_renovated": (
            ColumnKind.CATEGORICAL, ["yes" if p else "no" for p in plant_renewed]
        ),
        "anti_legionella": (ColumnKind.CATEGORICAL, choice(yes_no, (0.3, 0.7))),
        "water_saving_devices": (ColumnKind.CATEGORICAL, choice(yes_no, (0.35, 0.65))),
        "led_lighting": (ColumnKind.CATEGORICAL, choice(yes_no, (0.4, 0.6))),
        "building_automation": (
            ColumnKind.CATEGORICAL,
            ["A" if e == 4 and rng_v < 0.3 else ("B" if e >= 3 else ("C" if e >= 1 else "D"))
             for e, rng_v in zip(era_idx, rng.random(n))],
        ),
        "epc_validity": (
            ColumnKind.CATEGORICAL, choice(("valid", "expired", "replaced"), (0.93, 0.04, 0.03))
        ),
        "data_source": (
            ColumnKind.CATEGORICAL,
            choice(("online portal", "certified email", "paper", "bulk import"),
                   (0.8, 0.12, 0.03, 0.05)),
        ),
        "quality_check_passed": (
            ColumnKind.CATEGORICAL, choice(("passed", "warning", "failed"), (0.9, 0.08, 0.02))
        ),
        "subsidized": (ColumnKind.CATEGORICAL, choice(yes_no, (0.07, 0.93))),
        "rented": (ColumnKind.CATEGORICAL, choice(yes_no, (0.3, 0.7))),
        "owner_occupied": (ColumnKind.CATEGORICAL, choice(yes_no, (0.6, 0.4))),
        "climatic_zone": (
            ColumnKind.CATEGORICAL,
            ["E" if p == "TO" else rng.choice(("D", "E", "F")) for p in province],
        ),
        "urban_context": (
            ColumnKind.CATEGORICAL,
            choice(("historic centre", "dense urban", "suburban", "rural"),
                   (0.15, 0.5, 0.28, 0.07)),
        ),
    }

    # assemble the table in schema order, checking completeness
    missing = [name for name in schema.names if name not in columns]
    extra = [name for name in columns if name not in schema]
    if missing or extra:
        raise RuntimeError(
            f"generator out of sync with schema: missing={missing}, extra={extra}"
        )
    table = Table(
        [
            Column.from_kind(name, columns[name][0], columns[name][1])
            for name in schema.names
        ]
    )
    return EpcCollection(
        table=table,
        schema=schema,
        street_map=street_map,
        hierarchy=hierarchy,
        era_labels=era_labels,
        gazetteer_index=gazetteer_index,
    )


# ---------------------------------------------------------------------------
# Sharded generation
# ---------------------------------------------------------------------------
#
# A shard is generated *independently*: its RNG is seeded from the
# (collection seed, shard key) pair, never from the position of the shard
# in a sweep, so shard N's bytes are identical whether it is generated
# alone, re-generated after editing a sibling, or produced in a full
# sweep.  That independence is what makes shard-granular caching sound —
# the recipe below *is* the content address of the shard's input.


@dataclass(frozen=True)
class ShardRecipe:
    """A self-contained description of one generation shard.

    ``key`` is the stable shard identity (``district:Centro``,
    ``zip:10121``, ``other``, ``part:03``); ``pool`` restricts Turin
    placement to a gazetteer subset (``None`` = whole map) and is resolved
    against the street map at generation time, so the recipe stays a few
    plain strings and ints — trivially fingerprintable.
    """

    key: str
    n_turin: int
    n_other: int
    #: ``None`` (whole map), ``"district:<name>"`` or ``"zip:<code>"``.
    pool: str | None = None

    @property
    def n_certificates(self) -> int:
        """Total rows this shard generates."""
        return self.n_turin + self.n_other

    @property
    def id_tag(self) -> str:
        """The certificate-id infix keeping ids unique across shards."""
        safe = "".join(ch if ch.isalnum() else "-" for ch in self.key)
        return f"{safe}-"


def shard_seed_sequence(seed: int, key: str) -> np.random.SeedSequence:
    """The per-shard RNG seed: collection seed + hashed shard key.

    The key is folded through SHA-256 (not ``hash()``, which is
    salted per process) so the same ``(seed, key)`` pair yields the same
    stream on every machine and in every worker.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.SeedSequence(
        [int(seed), int.from_bytes(digest[:8], "little")]
    )


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Split *total* into integer parts proportional to *weights*.

    Largest-remainder method with a deterministic tie-break (earlier
    index wins), so the same inputs always yield the same split and the
    parts sum exactly to *total*.
    """
    if not weights:
        return []
    w = np.asarray(weights, dtype=np.float64)
    if w.sum() <= 0:
        raise ValueError("apportionment weights must have a positive sum")
    shares = total * w / w.sum()
    base = np.floor(shares).astype(np.int64)
    order = sorted(
        range(len(w)), key=lambda i: (-(float(shares[i]) - int(base[i])), i)
    )
    for i in order[: int(total - base.sum())]:
        base[i] += 1
    return [int(v) for v in base]


def _pool_indices(street_map: StreetMap, pool: str | None) -> np.ndarray | None:
    """Resolve a :class:`ShardRecipe` pool spec to gazetteer indices."""
    if pool is None:
        return None
    field_name, __, wanted = pool.partition(":")
    if field_name == "district":
        match = [
            i for i, r in enumerate(street_map.records) if r.district == wanted
        ]
    elif field_name == "zip":
        match = [
            i for i, r in enumerate(street_map.records) if r.zip_code == wanted
        ]
    else:
        raise ValueError(f"unknown record pool spec {pool!r}")
    return np.asarray(match, dtype=np.intp)


#: The named shard schemes: one shard per Turin district or per ZIP code.
_SHARD_SCHEMES = ("by-district", "district", "by-zip", "zip")


def shard_scheme(by: str | int) -> str | int:
    """The shard count (an ``int >= 1``) or named scheme *by* spells.

    The one parser of a shard scheme, for the sharded generator, the
    partition of an in-memory collection and ``repro run --shards``;
    anything else raises :class:`ValueError`.
    """
    if isinstance(by, int) or by.isdigit():
        count = int(by)
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        return count
    if by not in _SHARD_SCHEMES:
        raise ValueError(
            f"unknown shard scheme {by!r}; use 'by-district', 'by-zip' "
            "or a shard count"
        )
    return by


def plan_generation_shards(
    config: SyntheticConfig | None, by: str | int
) -> tuple[ShardRecipe, ...]:
    """Deterministic shard recipes covering the whole collection.

    *by* selects the partition key:

    * ``"by-district"`` — one shard per Turin district (sized by its
      gazetteer weight) plus one ``other`` shard for the non-Turin towns;
    * ``"by-zip"`` — same, keyed on Turin ZIP codes;
    * an integer ``N`` — ``N`` near-equal shards, each with the
      collection's Turin/other mix and the whole gazetteer as pool.

    Shard sizes always sum exactly to ``config.n_certificates``, and the
    recipe tuple depends only on (config, street map) — never on which
    shards were generated before.
    """
    cfg = config or SyntheticConfig()
    n_turin = int(round(cfg.n_certificates * cfg.turin_share))
    n_other = cfg.n_certificates - n_turin
    by = shard_scheme(by)
    if isinstance(by, int):
        count = by
        turin_sizes = _apportion(n_turin, [1.0] * count)
        other_sizes = _apportion(n_other, [1.0] * count)
        return tuple(
            ShardRecipe(f"part:{i:02d}", turin_sizes[i], other_sizes[i])
            for i in range(count)
        )

    street_map, __ = generate_street_map(
        seed=cfg.seed, streets_per_neighbourhood=cfg.streets_per_neighbourhood
    )
    if by in ("by-district", "district"):
        field_name = "district"
        keys = list(
            dict.fromkeys(r.district for r in street_map.records)
        )
    else:
        field_name = "zip"
        keys = sorted(dict.fromkeys(r.zip_code for r in street_map.records))
    counts: dict[str, int] = {key: 0 for key in keys}
    for record in street_map.records:
        value = getattr(record, "district" if field_name == "district" else "zip_code")
        counts[value] += 1
    sizes = _apportion(n_turin, [float(counts[k]) for k in keys])
    recipes = [
        ShardRecipe(
            f"{field_name}:{key}", sizes[i], 0, pool=f"{field_name}:{key}"
        )
        for i, key in enumerate(keys)
    ]
    if n_other > 0:
        recipes.append(ShardRecipe("other", 0, n_other))
    return tuple(recipes)


def generate_epc_shard(
    config: SyntheticConfig | None,
    recipe: ShardRecipe,
    street_map: StreetMap | None = None,
    hierarchy: RegionHierarchy | None = None,
) -> EpcCollection:
    """Generate one shard of the collection, independently of its siblings.

    The RNG stream is derived from ``(config.seed, recipe.key)`` only, so
    the shard's bytes never depend on which other shards exist or ran
    first.  Pass the shared *street_map*/*hierarchy* to skip regenerating
    them per shard (they are themselves deterministic in the seed, so the
    output is identical either way).
    """
    cfg = config or SyntheticConfig()
    if street_map is None or hierarchy is None:
        street_map, hierarchy = generate_street_map(
            seed=cfg.seed,
            streets_per_neighbourhood=cfg.streets_per_neighbourhood,
        )
    rng = np.random.default_rng(shard_seed_sequence(cfg.seed, recipe.key))
    return _generate_certificates(
        rng, cfg, epc_schema(), street_map, hierarchy,
        n_turin=recipe.n_turin, n_other=recipe.n_other,
        record_pool=_pool_indices(street_map, recipe.pool),
        id_tag=recipe.id_tag,
    )


def merge_epc_collections(collections: list[EpcCollection]) -> EpcCollection:
    """Concatenate shard collections into one, in the given order.

    The merged table is the row-wise concatenation (``Table.vstack``), and
    the ground truth (era labels, gazetteer index) concatenates in the
    same order, so merging the shards of :func:`plan_generation_shards`
    in recipe order yields a deterministic whole-collection view.
    """
    if not collections:
        raise ValueError("cannot merge zero collections")
    table = collections[0].table
    for other in collections[1:]:
        table = table.vstack(other.table)
    era_labels = [label for c in collections for label in c.era_labels]
    gazetteer_index = np.concatenate(
        [c.gazetteer_index for c in collections]
    )
    first = collections[0]
    return EpcCollection(
        table=table,
        schema=first.schema,
        street_map=first.street_map,
        hierarchy=first.hierarchy,
        era_labels=era_labels,
        gazetteer_index=gazetteer_index,
    )
