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
import struct
import sys
from dataclasses import dataclass
from itertools import chain

from ._numpy import np
from .errors import ZoneValidationError
from .grid import GridSpec, replacing

__all__ = [
    "Zone",
    "ZoneMask",
    "rect_ring",
    "point_in_polygon",
    "rasterize_zone",
    "zonal_mean",
    "zone_columns",
    "ZoneColumns",
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
    """A ring's (x, y) points as float64 pairs, stored open, in a read-only (n, 2) memoryview; or ZoneValidationError.

    Checked in Python alone, so reading zones loads no numpy. np.asarray
    views the ring without a copy; len gives its vertex count.
    """
    if isinstance(ring, memoryview):  # a stored ring, which iterates only as a list
        ring = ring.tolist()
    try:
        pts = [(float(x), float(y)) for x, y in ring]
    except (TypeError, ValueError):  # not a sequence of pairs of numbers
        pts = []
    if len(pts) < 3:
        raise ZoneValidationError(f"{where}: ring must be a sequence of at least 3 (x, y) points")
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise ZoneValidationError(f"{where}: ring contains a non-finite coordinate")
    if pts[0] == pts[-1]:  # compared as floats: -0.0 closes a ring opened at 0.0
        pts.pop()  # store rings open; closure is implicit
    # a set of coordinate tuples counts -0.0 and 0.0 as one, as == does
    if len(set(pts)) < 3:
        raise ZoneValidationError(f"{where}: ring needs at least 3 distinct vertices")
    # bytes, which hold exactly 16 bytes a vertex, where an array.array would hold some spare
    packed = struct.pack(f"{2 * len(pts)}d", *chain.from_iterable(pts))
    return memoryview(packed).cast("d", (len(pts), 2))


def _is_path_component(name):
    """Whether name can be one output path component: not empty, ``.`` or ``..``, no separator or NUL."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


# The value rules of every JSON input: run.json and scene.json (see config) and zones.geojson.
def _integer(minimum=None):
    """Converter for an integer >= minimum; a bool, a string or a fraction is refused, not truncated."""

    def convert(value):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value

    return convert


def _number(value):
    """Converter for a finite number; a bool, a string, NaN, an infinity or an int past the float range is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN compares false; an int compares exactly
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _string(value):
    """Converter for a string; any other value is refused, not converted."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class Zone:
    """One analysis unit: polygon set + damage ratio + population.

    ``rings`` may be given closed (first point repeated last) or open.
    All rings of all polygon parts live in one flat tuple; even-odd
    membership makes the outer/hole distinction unnecessary. Each is
    stored open, as a read-only (n, 2) memoryview of float64 pairs.
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

    def _arguments(self):
        """Zone's arguments, each ring as a list of [x, y] lists: a memoryview neither pickles nor shows its values."""
        return self.zone_id, tuple(ring.tolist() for ring in self.rings), self.damage_ratio, self.population

    def __reduce__(self):
        # pickle and copy rebuild the zone through __post_init__'s checks
        return type(self), self._arguments()

    def __repr__(self):
        return f"{type(self).__name__}{self._arguments()!r}"


@dataclass(frozen=True)
class ZoneMask:
    """Boolean pixel-membership raster for one zone on one grid."""

    spec: GridSpec
    inside: "np.ndarray"

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
    for ring in map(np.asarray, rings):
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
    with np.errstate(over="ignore"):  # a box padded past the float range is bounded by an infinity, as it should be
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


@dataclass(frozen=True)
class ZoneColumns:
    """The cells some zone covers on a grid, as one row (a row per month of a stack); see zone_columns."""

    row: GridSpec
    cells: "np.ndarray"
    positions: dict

    def cut(self, raster):
        """A raster on the zones' grid, cut down to ``cells``: one of the same type on ``row``.

        When ``cells`` is every cell of the grid, the cut is ``raster``
        itself, not a copy: its row-major flat indices are then the positions.
        """
        if self.cells.size == raster.spec.size:
            return raster
        # take gives the cut its one row, in an array of its own
        values, missing = (np.take(a.reshape(-1), self.cells[None, :]) for a in (raster.values, raster.missing))
        return type(raster)(self.row, values, missing)


def zone_columns(zones, spec):
    """The cells some zone covers on a grid, and where each zone's cells lie among them.

    Returns a ZoneColumns. ``cells`` is the sorted union of the zones'
    row-major flat indices on ``spec``, the inside cells of
    rasterize_zone. ``positions`` maps each zone_id, in zone order, to the
    zone's inside cells as ascending positions within ``cells``. ``row``
    is the one-row GridSpec of ``cells``, at the grid's origin, of unit
    cells: no cell of a cut sits where the row would put it anyway, and
    a row of unit cells ends inside the float range at any length, where
    a row of the grid's cells might not. ``cut`` takes a raster on
    ``spec`` down to it, or leaves it whole when ``cells`` is every cell.
    Taking ``cells`` keeps row-major order, so zonal_means on a cut raster
    sums each zone's values in zonal_mean's order. When no zone covers a
    pixel-centre, ``cells`` is cell 0 alone, named by no zone, so a cut
    raster still has a cell.

    Zones are rasterized one at a time; only index arrays are kept.
    """
    covered = np.zeros(spec.size, dtype=bool)
    inside = {}
    for zone in zones:
        inside[zone.zone_id] = index = np.flatnonzero(rasterize_zone(zone, spec).inside)
        covered[index] = True
    cells = np.flatnonzero(covered) if covered.any() else np.zeros(1, dtype=np.intp)
    row = GridSpec(cells.size, 1, spec.x_origin, spec.y_origin, 1.0)
    return ZoneColumns(row, cells, {zone_id: np.searchsorted(cells, index) for zone_id, index in inside.items()})


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
    positions = isinstance(ring, list) and all(isinstance(p, list) and len(p) in (2, 3) for p in ring)
    if not (positions and len(ring) >= 4):
        raise ZoneValidationError(f"{where}: ring must hold at least 4 closed (x, y) or (x, y, z) positions")
    try:
        pts = [tuple(map(_number, position))[:2] for position in ring]  # an altitude is checked, then dropped
    except ValueError as exc:
        raise ZoneValidationError(f"{where}: coordinate {exc}") from None
    if pts[0] != pts[-1]:  # compared as floats: -0.0 closes a ring opened at 0.0
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


def _property(props, key, convert, where):
    """``props[key]`` through a value rule such as _number; errors name the feature."""
    if key not in props:
        raise ZoneValidationError(f"{where}: missing property {key!r}")
    try:
        return convert(props[key])
    except ValueError as exc:
        raise ZoneValidationError(f"{where}: {key} {exc}") from None


def read_zones(path):
    """Read zones from a GeoJSON FeatureCollection.

    Each feature must be a Polygon or MultiPolygon carrying properties
    ``zone_id`` (a string, one path component, see Zone), ``damage_ratio``
    (in [0, 1]) and ``population`` (integer >= 0). They and every
    coordinate are read by the value rules of run.json and scene.json: a
    zone_id that is a number or null, a boolean, a string, a non-finite
    number or a fractional population is refused, not converted. Zone ids
    must be unique. MultiPolygon parts merge into one polygon set; an
    altitude is checked as a number, then dropped. Every fault raises
    ZoneValidationError naming the path, and a feature's fault the feature:
    by zone_id when that is a string, by index otherwise.
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
    zones = {}
    try:  # a feature's fault, or its Zone's, names the file too
        for i, feature in enumerate(features):
            props = _member(feature, "properties", f"feature #{i}")
            zone_id = _property(props, "zone_id", _string, f"feature #{i}")
            where = f"feature {zone_id!r}"
            if zone_id in zones:
                raise ZoneValidationError(f"{where}: duplicate zone_id")
            damage_ratio = _property(props, "damage_ratio", _number, where)
            population = _property(props, "population", _integer(), where)
            geom = _member(feature, "geometry", where)
            gtype = geom.get("type")
            if gtype not in ("Polygon", "MultiPolygon"):
                raise ZoneValidationError(f"{where}: geometry must be Polygon or MultiPolygon, got {gtype!r}")
            parts = [geom.get("coordinates")] if gtype == "Polygon" else geom.get("coordinates")
            if not (isinstance(parts, list) and all(isinstance(part, list) for part in parts)):
                raise ZoneValidationError(f"{where}: coordinates: not a {gtype} coordinate array")
            rings = tuple(
                _ring_from_geojson(ring, f"{where}, part {p}, ring {r}")
                for p, part in enumerate(parts)
                for r, ring in enumerate(part)
            )
            zones[zone_id] = Zone(zone_id, rings, damage_ratio, population)
    except ZoneValidationError as exc:
        raise ZoneValidationError(f"{path}: {exc}") from None
    return list(zones.values())


def write_zones(zones, path):
    """Write zones as a GeoJSON FeatureCollection readable by read_zones.

    Every ring is emitted closed, as one Polygon per ring grouped into a
    MultiPolygon when a zone has several rings. Holes are not re-nested on
    write; even-odd membership gives the same region either way. The file
    is written through grid.replacing: whole, or not at all.
    """
    features = []
    for zone in zones:
        closed = [points + points[:1] for points in (ring.tolist() for ring in zone.rings)]
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
    with replacing(path) as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh, indent=2)
        fh.write("\n")
