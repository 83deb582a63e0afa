"""Polygonal analysis zones: GeoJSON ingestion, rasterization, zonal stats.

A zone is a named polygon set (outer rings plus holes) tagged with a damage
ratio and a population count. Membership uses the even-odd ray-crossing
rule, so ring orientation never matters and holes fall out of crossing
parity; a MultiPolygon simply contributes all of its rings to one flat set.

Points exactly on an edge resolve by a half-open convention: a rightward
ray from the query point counts an edge iff exactly one endpoint lies
strictly below the ray. This makes membership deterministic on shared
boundaries (a pixel-center on the border of two tiled zones lands in
exactly one of them).

Zone coordinates live in the same planar frame as the grids they are used
with; nothing here knows about projections.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZoneValidationError
from .grid import GridSpec

__all__ = [
    "Zone",
    "ZoneMask",
    "rect_ring",
    "point_in_polygon",
    "rasterize_zone",
    "zonal_mean",
    "zone_columns",
    "zonal_means",
    "read_zones",
    "write_zones",
]


def rect_ring(x0, y0, x1, y1):
    """Axis-aligned rectangle ring spanning [x0, x1] x [y0, y1]."""
    if not (x0 < x1 and y0 < y1):
        raise ZoneValidationError(f"rectangle needs x0 < x1 and y0 < y1, got {(x0, y0, x1, y1)}")
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))


def _normalize_ring(ring, where):
    pts = np.asarray(ring, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ZoneValidationError(f"{where}: ring must be a sequence of at least 3 (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise ZoneValidationError(f"{where}: ring contains a non-finite coordinate")
    if np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]  # store rings open; closure is implicit
    if len(np.unique(pts, axis=0)) < 3:
        raise ZoneValidationError(f"{where}: ring needs at least 3 distinct vertices")
    pts.flags.writeable = False
    return pts


def _is_path_component(name):
    """Whether name can be one output path component: not empty, ``.`` or ``..``, no separator or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


@dataclass(frozen=True)
class Zone:
    """One analysis unit: polygon set + damage ratio + population.

    ``rings`` may be given closed (first point repeated last) or open.
    All rings of all polygon parts live in one flat tuple; even-odd
    membership makes the outer/hole distinction unnecessary.
    """

    zone_id: str
    rings: tuple
    damage_ratio: float
    population: int = 0

    def __post_init__(self):
        if not _is_path_component(self.zone_id):
            raise ZoneValidationError(f"zone {self.zone_id!r}: zone_id is not a single path component")
        if not self.rings:
            raise ZoneValidationError(f"zone {self.zone_id!r}: needs at least one ring")
        norm = tuple(
            _normalize_ring(ring, f"zone {self.zone_id!r}, ring {i}")
            for i, ring in enumerate(self.rings)
        )
        object.__setattr__(self, "rings", norm)
        if not 0.0 <= self.damage_ratio <= 1.0:
            raise ZoneValidationError(
                f"zone {self.zone_id!r}: damage_ratio {self.damage_ratio} outside [0, 1]"
            )
        if self.population < 0:
            raise ZoneValidationError(f"zone {self.zone_id!r}: population must be non-negative")

    def contains(self, x, y):
        return point_in_polygon((x, y), self.rings)


@dataclass(frozen=True)
class ZoneMask:
    """Boolean pixel-membership raster for one zone on one grid."""

    spec: GridSpec
    inside: np.ndarray

    def __post_init__(self):
        arr = np.array(self.inside, dtype=bool, copy=True)
        if arr.shape != self.spec.shape:
            raise ValueError(f"mask shape {arr.shape} does not match grid {self.spec.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "inside", arr)

    @property
    def count(self):
        return int(self.inside.sum())


def _crossing_parity(rings, px, py):
    """Even-odd crossing count parity at points (px, py); True = odd = inside.

    px, py are broadcast-compatible arrays; the rightward-ray crossing test
    runs vectorized over all points for each polygon edge.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    crossings = np.zeros(np.broadcast(px, py).shape, dtype=np.int64)
    for ring in rings:
        pts = np.asarray(ring, dtype=np.float64)
        x1, y1 = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        for e in range(len(pts)):
            straddles = (y1[e] < py) != (y2[e] < py)
            if not np.any(straddles):
                continue
            x_int = x1[e] + (py - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
            crossings += straddles & (x_int > px)
    return (crossings & 1).astype(bool)


def point_in_polygon(point, rings):
    """Even-odd membership of one point in a polygon set (holes excluded)."""
    x, y = point
    return bool(_crossing_parity(rings, np.float64(x), np.float64(y)))


def _scanline_parity(rings, xs, ys):
    """_crossing_parity at the centres xs × ys (xs ascending), row by row.

    Each edge is tested against the row centres ys only. A straddling
    (edge, row) pair has the same x_int as in _crossing_parity, and lies
    right of the centres in columns [0, k), k being the number of xs below
    it; so a row's crossing counts are a running sum of +1 at column 0 and
    -1 at column k per pair.
    """
    ends = np.zeros((len(ys), len(xs) + 1), dtype=np.int64)
    for ring in rings:
        x1, y1 = ring[:, 0], ring[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        e, r = np.nonzero((y1[:, None] < ys) != (y2[:, None] < ys))
        x_int = x1[e] + (ys[r] - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
        np.add.at(ends, (r, 0), 1)
        np.add.at(ends, (r, np.searchsorted(xs, x_int)), -1)
    return (np.cumsum(ends[:, :-1], axis=1) & 1).astype(bool)


def rasterize_zone(zone, spec):
    """Mask of grid cells whose pixel-center lies inside the zone.

    Only centres inside the bounding box of the zone's vertices, padded by
    one cell on each side, are tested; every other cell is outside. That is
    exact: no edge straddles a centre above or below the box, and a centre
    a cell or more left or right of it has every crossing of its row on one
    side, an even count, even with x_int rounded. A zone overlapping no
    pixel-centers yields an all-false mask; whether that is an error is the
    caller's call.
    """
    xs = spec.center_xs()
    ys = spec.center_ys()
    vertices = np.concatenate(zone.rings)
    x_lo, y_lo = vertices.min(axis=0) - spec.cell_size
    x_hi, y_hi = vertices.max(axis=0) + spec.cell_size
    cols = np.flatnonzero((x_lo <= xs) & (xs <= x_hi))
    rows = np.flatnonzero((y_lo <= ys) & (ys <= y_hi))
    inside = np.zeros(spec.shape, dtype=bool)
    if cols.size and rows.size:
        box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        inside[box] = _scanline_parity(zone.rings, xs[box[1]], ys[box[0]])
    return ZoneMask(spec, inside)


def zonal_mean(raster, mask):
    """Arithmetic mean of valid raster values inside the mask; NaN if none.

    NaN is the undefined-mean sentinel; it propagates into time series as a
    missing observation rather than a fabricated zero.
    """
    if raster.spec != mask.spec:
        raise ValueError(f"raster grid {raster.spec} does not match mask grid {mask.spec}")
    take = mask.inside & raster.valid
    if not np.any(take):
        return float("nan")
    kept = raster.values[take]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(kept))
        return mean if math.isfinite(mean) else _overflowed_mean(kept)


def _overflowed_mean(kept):
    """Mean of finite values whose float64 sum overflowed: the sum of value / count.

    The exact sum of the terms is the mean, which lies within [min, max];
    only rounding can carry the computed sum past them, even to inf, and
    the clamp takes that back. Call it where overflow warnings are off.
    """
    mean = float(np.add.reduce(kept / kept.size))
    return min(max(mean, float(kept.min())), float(kept.max()))


def zone_columns(zones, spec):
    """The cells some zone covers on a grid, and where each zone's cells lie among them.

    Returns ``(cells, positions)``. ``cells`` is the sorted union of the
    zones' row-major flat indices on ``spec``, the inside cells of
    rasterize_zone. ``positions`` maps each zone_id, in zone order, to the
    zone's inside cells as ascending positions within ``cells``. Taking
    ``cells`` keeps row-major order, so zonal_means on a raster cut down
    to ``cells`` sums each zone's values in zonal_mean's order. When no
    zone covers a pixel-centre, ``cells`` is cell 0 alone, named by no
    zone, so a raster cut down to it still has a cell.

    Zones are rasterized one at a time; only index arrays are kept.
    """
    covered = np.zeros(spec.size, dtype=bool)
    inside = {}
    for zone in zones:
        inside[zone.zone_id] = index = np.flatnonzero(rasterize_zone(zone, spec).inside)
        covered[index] = True
    cells = np.flatnonzero(covered) if covered.any() else np.zeros(1, dtype=np.intp)
    return cells, {zone_id: np.searchsorted(cells, index) for zone_id, index in inside.items()}


def zonal_means(raster, indices):
    """zonal_mean of each zone, given as ascending flat indices into the raster's cells.

    The indices are a whole grid's row-major inside cells, or
    zone_columns' positions on a raster cut down to its cells. The valid
    values are summed in the same row-major order as in zonal_mean, with
    np.mean's own arithmetic (np.add.reduce in float64, then one division
    by the count) minus its per-call overhead, so each mean is
    bit-identical to it, overflow included.
    """
    values = raster.values.ravel()
    missing = raster.missing.ravel()
    means = []
    with np.errstate(over="ignore", invalid="ignore"):
        for index in indices:
            kept = values[index][~missing[index]]
            total = float(np.add.reduce(kept, dtype=np.float64))
            if math.isfinite(total):
                means.append(total / kept.size if kept.size else float("nan"))
            else:
                means.append(_overflowed_mean(kept))
    return means


def _ring_from_geojson(ring, where):
    pts = np.asarray(ring, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ZoneValidationError(f"{where}: ring must hold at least 4 closed (x, y) positions")
    if not np.array_equal(pts[0], pts[-1]):
        raise ZoneValidationError(f"{where}: ring is not closed (first position != last)")
    return pts


def _member(feature, key, where):
    """``feature[key]`` as an object (absent or null reads as empty); errors name the feature."""
    if not isinstance(feature, dict):
        raise ZoneValidationError(f"{where}: expected an object, got {type(feature).__name__}")
    value = feature.get(key) or {}
    if not isinstance(value, dict):
        raise ZoneValidationError(f"{where}: {key} must be an object, got {type(value).__name__}")
    return value


def read_zones(path):
    """Read zones from a GeoJSON FeatureCollection.

    Each feature must be a Polygon or MultiPolygon carrying properties
    ``zone_id`` (a string, one path component, see Zone), ``damage_ratio``
    (in [0, 1]) and ``population`` (integer >= 0); a value of another type,
    such as a zone_id that is a number or null, a boolean, a string or a
    fractional population, is refused rather than converted. Zone ids must
    be unique. MultiPolygon parts merge into one polygon set. Every
    malformed feature, including a value of the wrong type, raises
    ZoneValidationError naming the feature by zone_id when that is a
    string, by index otherwise; a file that cannot be read, is not JSON or
    whose ``features`` is not an array names the path.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ZoneValidationError(f"cannot read zones file {path}: {exc.strerror}") from None
    except ValueError as exc:  # invalid JSON, or text that is not UTF-8
        raise ZoneValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ZoneValidationError(f"{path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ZoneValidationError(f"{path}: features must be an array, got {type(features).__name__}")
    zones = []
    seen = set()
    for i, feature in enumerate(features):
        props = _member(feature, "properties", f"feature #{i}")
        zone_id = props.get("zone_id")
        where = f"feature {zone_id!r}" if isinstance(zone_id, str) else f"feature #{i}"
        for key in ("zone_id", "damage_ratio", "population"):
            if key not in props:
                raise ZoneValidationError(f"{where}: missing property {key!r}")
        if not isinstance(zone_id, str):
            raise ZoneValidationError(f"{where}: zone_id must be a string, got {zone_id!r}")
        if zone_id in seen:
            raise ZoneValidationError(f"{where}: duplicate zone_id")
        seen.add(zone_id)
        geom = _member(feature, "geometry", where)
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise ZoneValidationError(f"{where}: geometry must be Polygon or MultiPolygon, got {gtype!r}")
        coords = geom.get("coordinates")
        try:
            rings = tuple(
                _ring_from_geojson(ring, f"{where}, part {p}, ring {r}")
                for p, part in enumerate([coords] if gtype == "Polygon" else coords)
                for r, ring in enumerate(part)
            )
        except (TypeError, ValueError) as exc:
            raise ZoneValidationError(f"{where}: coordinates: {exc}") from None
        damage_ratio, population = props["damage_ratio"], props["population"]
        if isinstance(damage_ratio, bool) or not isinstance(damage_ratio, (int, float)):
            raise ZoneValidationError(f"{where}: damage_ratio must be a number, got {damage_ratio!r}")
        if isinstance(population, float) and population.is_integer():
            population = int(population)
        if isinstance(population, bool) or not isinstance(population, int):
            raise ZoneValidationError(f"{where}: population must be an integer, got {population!r}")
        zones.append(Zone(zone_id, rings, float(damage_ratio), population))
    return zones


def write_zones(zones, path):
    """Write zones as a GeoJSON FeatureCollection readable by read_zones.

    Every ring is emitted closed, as one Polygon per ring grouped into a
    MultiPolygon when a zone has several rings. Holes are not re-nested on
    write; even-odd membership gives the same region either way.
    """
    features = []
    for zone in zones:
        closed = [
            [[float(x), float(y)] for x, y in ring] + [[float(ring[0][0]), float(ring[0][1])]]
            for ring in zone.rings
        ]
        if len(closed) == 1:
            geometry = {"type": "Polygon", "coordinates": closed}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": [[ring] for ring in closed]}
        features.append(
            {
                "type": "Feature",
                "geometry": geometry,
                "properties": {
                    "zone_id": zone.zone_id,
                    "damage_ratio": zone.damage_ratio,
                    "population": zone.population,
                },
            }
        )
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh, indent=2)
        fh.write("\n")
