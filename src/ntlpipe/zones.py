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
    "flat_indices",
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
        if not self.zone_id:
            raise ZoneValidationError("zone_id must be a non-empty string")
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


def rasterize_zone(zone, spec):
    """Mask of grid cells whose pixel-center lies inside the zone.

    A zone overlapping no pixel-centers yields an all-false mask; whether
    that is an error is the caller's call.
    """
    xs = spec.center_xs()[None, :]
    ys = spec.center_ys()[:, None]
    return ZoneMask(spec, _crossing_parity(zone.rings, xs, ys))


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
    return float(np.mean(raster.values[take]))


def flat_indices(masks, spec):
    """Each mask's inside cells as row-major flat indices, for zonal_means on ``spec``.

    A mask on another grid raises ValueError, as zonal_mean does.
    """
    for mask in masks:
        if mask.spec != spec:
            raise ValueError(f"raster grid {spec} does not match mask grid {mask.spec}")
    return tuple(np.flatnonzero(mask.inside) for mask in masks)


def zonal_means(raster, indices):
    """zonal_mean of each zone, given as flat_indices on the raster's grid.

    The valid values are summed in the same row-major order as in
    zonal_mean, with np.mean's own arithmetic (np.add.reduce in float64,
    then one division by the count) minus its per-call overhead, so each
    mean is bit-identical to it. The geometry check is flat_indices's, made
    once for all the rasters of a stack.
    """
    values = raster.values.ravel()
    missing = raster.missing.ravel()
    means = []
    for index in indices:
        kept = values[index][~missing[index]]
        total = float(np.add.reduce(kept, dtype=np.float64))
        means.append(total / kept.size if kept.size else float("nan"))
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
    ``zone_id`` (string), ``damage_ratio`` (in [0, 1]) and ``population``
    (integer >= 0); a boolean, or a fractional population, is refused
    rather than converted. Zone ids must be unique. MultiPolygon parts
    merge into one polygon set. Every malformed feature, including a value
    of the wrong type, raises ZoneValidationError naming the feature by
    zone_id when present, index otherwise; a file that cannot be read, is
    not JSON or whose ``features`` is not an array names the path.
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
        where = f"feature {props['zone_id']!r}" if "zone_id" in props else f"feature #{i}"
        for key in ("zone_id", "damage_ratio", "population"):
            if key not in props:
                raise ZoneValidationError(f"{where}: missing property {key!r}")
        if str(props["zone_id"]) in seen:
            raise ZoneValidationError(f"{where}: duplicate zone_id")
        seen.add(str(props["zone_id"]))
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
        if isinstance(damage_ratio, bool):
            raise ZoneValidationError(f"{where}: damage_ratio must be a number, got {damage_ratio!r}")
        if isinstance(population, bool) or isinstance(population, float) and not population.is_integer():
            raise ZoneValidationError(f"{where}: population must be an integer, got {population!r}")
        try:
            damage_ratio, population = float(damage_ratio), int(population)
        except (TypeError, ValueError) as exc:
            raise ZoneValidationError(f"{where}: {exc}") from None
        zones.append(Zone(str(props["zone_id"]), rings, damage_ratio, population))
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
