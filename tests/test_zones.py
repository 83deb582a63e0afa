"""Tests for zone geometry: membership, rasterization, zonal means, GeoJSON I/O."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ntlpipe import (
    GridSpec,
    RasterGrid,
    Zone,
    ZoneMask,
    ZoneValidationError,
    point_in_polygon,
    rasterize_zone,
    read_zones,
    rect_ring,
    write_zones,
    zonal_mean,
    zonal_means,
    zone_columns,
)
from ntlpipe.zones import _crossing_parity

UNIT_SQUARE = rect_ring(0.0, 0.0, 1.0, 1.0)
SQUARE = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}
PROPS = {"zone_id": "Z1", "damage_ratio": 0.1, "population": 5}


def winding_inside(px, py, ring):
    """Nonzero-winding membership; agrees with even-odd on simple polygons.

    Implemented directly from the signed-crossing definition so it shares no
    code with the library's ray-crossing parity.
    """
    wn = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        side = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
        if y1 <= py:
            if y2 > py and side > 0:
                wn += 1
        elif y2 <= py and side < 0:
            wn -= 1
    return wn != 0


def random_convex_ring(rng, n_vertices):
    """Convex polygon from sorted angles on a circle, randomly placed."""
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_vertices))
    radius = rng.uniform(0.5, 5.0)
    cx, cy = rng.uniform(-10.0, 10.0, 2)
    return tuple((cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles)


class TestRectRing:
    def test_corners_counterclockwise_from_lower_left(self):
        assert rect_ring(1.0, 2.0, 3.0, 5.0) == ((1.0, 2.0), (3.0, 2.0), (3.0, 5.0), (1.0, 5.0))

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ZoneValidationError):
            rect_ring(1.0, 0.0, 1.0, 2.0)
        with pytest.raises(ZoneValidationError):
            rect_ring(0.0, 2.0, 1.0, 2.0)
        with pytest.raises(ZoneValidationError):
            rect_ring(2.0, 0.0, 1.0, 2.0)


class TestZoneValidation:
    def test_closed_ring_is_stored_open(self):
        closed = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
        zone = Zone("A", (closed,), damage_ratio=0.5)
        assert len(zone.rings[0]) == 4

    def test_empty_id_rejected(self):
        with pytest.raises(ZoneValidationError):
            Zone("", (UNIT_SQUARE,), damage_ratio=0.1)

    @pytest.mark.parametrize("zone_id", ["a/b", "a\\b", "a\0b", ".", "..", ""])
    def test_id_must_be_one_path_component(self, zone_id):
        message = f"zone {zone_id!r}: zone_id is not a single path component"
        with pytest.raises(ZoneValidationError, match=re.escape(message)):
            Zone(zone_id, (UNIT_SQUARE,), damage_ratio=0.1)

    def test_dotted_id_is_one_path_component(self):
        for zone_id in ("a.b", "...", ".z", "Z 01"):
            assert Zone(zone_id, (UNIT_SQUARE,), damage_ratio=0.1).zone_id == zone_id

    def test_no_rings_rejected(self):
        with pytest.raises(ZoneValidationError):
            Zone("A", (), damage_ratio=0.1)

    def test_too_few_distinct_vertices_rejected(self):
        with pytest.raises(ZoneValidationError):
            Zone("A", (((0, 0), (1, 1)),), damage_ratio=0.1)
        with pytest.raises(ZoneValidationError):
            Zone("A", (((0, 0), (1, 1), (0, 0), (1, 1)),), damage_ratio=0.1)

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(ZoneValidationError):
            Zone("A", (((0, 0), (1, 0), (float("nan"), 1)),), damage_ratio=0.1)

    def test_damage_ratio_bounds(self):
        Zone("A", (UNIT_SQUARE,), damage_ratio=0.0)
        Zone("A", (UNIT_SQUARE,), damage_ratio=1.0)
        with pytest.raises(ZoneValidationError):
            Zone("A", (UNIT_SQUARE,), damage_ratio=-0.01)
        with pytest.raises(ZoneValidationError):
            Zone("A", (UNIT_SQUARE,), damage_ratio=1.01)

    def test_negative_population_rejected(self):
        with pytest.raises(ZoneValidationError):
            Zone("A", (UNIT_SQUARE,), damage_ratio=0.1, population=-1)


class TestPointInPolygon:
    def test_unit_square_center_inside(self):
        assert point_in_polygon((0.5, 0.5), (UNIT_SQUARE,))

    def test_points_outside(self):
        for pt in ((1.5, 0.5), (-0.5, 0.5), (0.5, 1.5), (0.5, -0.5)):
            assert not point_in_polygon(pt, (UNIT_SQUARE,))

    def test_hole_excluded_by_parity(self):
        hole = rect_ring(0.375, 0.375, 0.625, 0.625)
        rings = (UNIT_SQUARE, hole)
        assert not point_in_polygon((0.5, 0.5), rings)
        assert point_in_polygon((0.1, 0.1), rings)
        assert point_in_polygon((0.5, 0.7), rings)

    def test_ring_orientation_is_irrelevant(self):
        reversed_square = tuple(reversed(UNIT_SQUARE))
        for pt in ((0.5, 0.5), (1.5, 0.5), (0.2, 0.9)):
            assert point_in_polygon(pt, (UNIT_SQUARE,)) == point_in_polygon(pt, (reversed_square,))

    def test_matches_winding_oracle_on_random_convex_polygons(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            ring = random_convex_ring(rng, int(rng.integers(3, 12)))
            xs = [p[0] for p in ring]
            ys = [p[1] for p in ring]
            span_x = max(xs) - min(xs)
            span_y = max(ys) - min(ys)
            for _ in range(5):
                px = rng.uniform(min(xs) - 0.25 * span_x, max(xs) + 0.25 * span_x)
                py = rng.uniform(min(ys) - 0.25 * span_y, max(ys) + 0.25 * span_y)
                assert point_in_polygon((px, py), (ring,)) == winding_inside(px, py, ring)
                checked += 1

    def test_non_convex_polygon(self):
        # a "U" shape: inside the arms, outside the notch
        u_shape = ((0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3))
        assert point_in_polygon((0.5, 2.0), (u_shape,))
        assert point_in_polygon((2.5, 2.0), (u_shape,))
        assert not point_in_polygon((1.5, 2.0), (u_shape,))
        assert point_in_polygon((1.5, 0.5), (u_shape,))


class TestRasterizeZone:
    def test_unit_square_covers_two_by_two_grid(self):
        spec = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=0.5)
        zone = Zone("A", (UNIT_SQUARE,), damage_ratio=0.1)
        mask = rasterize_zone(zone, spec)
        assert mask.inside.all()
        assert mask.count == 4

    def test_left_half_covers_left_column(self):
        spec = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=0.5)
        zone = Zone("A", (rect_ring(0.0, 0.0, 0.5, 1.0),), damage_ratio=0.1)
        mask = rasterize_zone(zone, spec)
        assert np.array_equal(mask.inside, [[True, False], [True, False]])

    def test_zone_outside_grid_gives_empty_mask(self):
        spec = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=0.5)
        zone = Zone("A", (rect_ring(10.0, 10.0, 11.0, 11.0),), damage_ratio=0.1)
        assert rasterize_zone(zone, spec).count == 0

    def test_mask_agrees_with_point_in_polygon_everywhere(self):
        rng = np.random.default_rng(211)
        spec = GridSpec(ncols=9, nrows=7, x_origin=-3.0, y_origin=-2.0, cell_size=0.7)
        for _ in range(20):
            ring = random_convex_ring(rng, int(rng.integers(3, 9)))
            zone = Zone("A", (ring,), damage_ratio=0.1)
            mask = rasterize_zone(zone, spec)
            for r in range(spec.nrows):
                for c in range(spec.ncols):
                    x, y = spec.cell_center(r, c)
                    assert mask.inside[r, c] == point_in_polygon((x, y), zone.rings)

    def test_disjoint_rings_mask_is_union_of_parts(self):
        spec = GridSpec(ncols=8, nrows=8, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        left = rect_ring(0.0, 0.0, 3.0, 8.0)
        right = rect_ring(5.0, 2.0, 8.0, 6.0)
        both = Zone("A", (left, right), damage_ratio=0.1)
        mask_left = rasterize_zone(Zone("L", (left,), damage_ratio=0.1), spec)
        mask_right = rasterize_zone(Zone("R", (right,), damage_ratio=0.1), spec)
        combined = rasterize_zone(both, spec)
        assert np.array_equal(combined.inside, mask_left.inside | mask_right.inside)

    def test_tiled_zones_partition_pixels_exactly(self):
        # shared tile edges pass through pixel-centers; the half-open edge
        # rule must place each center in exactly one tile
        spec = GridSpec(ncols=6, nrows=6, x_origin=0.0, y_origin=0.0, cell_size=0.5)
        tiles = [
            Zone(f"T{i}{j}", (rect_ring(i * 1.5, j * 1.5, (i + 1) * 1.5, (j + 1) * 1.5),), damage_ratio=0.1)
            for i in range(2)
            for j in range(2)
        ]
        coverage = np.zeros(spec.shape, dtype=np.int64)
        for tile in tiles:
            coverage += rasterize_zone(tile, spec).inside
        assert np.array_equal(coverage, np.ones(spec.shape, dtype=np.int64))

    def test_mask_shape_must_match_spec(self):
        spec = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        with pytest.raises(ValueError):
            ZoneMask(spec, np.ones((3, 2), dtype=bool))


@st.composite
def grids_and_zones(draw):
    """A grid and a zone of 1-3 rings near it, often with vertices on or next to pixel centres, or on corners.

    Zones can be partly or wholly off the grid, smaller than a cell, or
    have a ring inside another (a hole).
    """
    cell = draw(st.sampled_from([0.25, 0.5, 0.7, 1.0, 3.0]))
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    spec = GridSpec(
        ncols=ncols,
        nrows=nrows,
        x_origin=draw(st.integers(-4, 4)) * cell / 2,
        y_origin=draw(st.integers(-4, 4)) * cell / 2,
        cell_size=cell,
    )

    def coordinate(origin, n):
        centre = st.integers(-3, n + 2).map(lambda i: origin + (i + 0.5) * cell)
        return st.one_of(
            centre,
            st.tuples(centre, st.sampled_from([-np.inf, np.inf])).map(lambda c: float(np.nextafter(*c))),
            st.integers(-3, n + 3).map(lambda i: origin + i * cell),  # a cell corner
            st.floats(origin - 3 * cell, origin + (n + 3) * cell),
        )

    point = st.tuples(coordinate(spec.x_origin, ncols), coordinate(spec.y_origin, nrows))
    rings = []
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.lists(point, min_size=3, max_size=10, unique=True))
        shape = draw(st.sampled_from(["as drawn", "hole", "tiny", "off the grid"]))
        cx, cy = np.mean(ring, axis=0)
        if shape == "hole":  # the ring and a half-size copy inside it
            rings.append(ring)
            ring = [(cx + (x - cx) / 2, cy + (y - cy) / 2) for x, y in ring]
        elif shape == "tiny":  # scaled to well under a cell
            span = max(np.ptp(ring, axis=0).max(), 1e-9)
            ring = [(cx + (x - cx) * 0.3 * cell / span, cy + (y - cy) * 0.3 * cell / span) for x, y in ring]
        elif shape == "off the grid":
            ring = [(x + (ncols + 4) * cell, y) for x, y in ring]
        rings.append(ring)
    assume(all(len({tuple(p) for p in ring}) >= 3 for ring in rings))
    return spec, Zone("A", tuple(rings), damage_ratio=0.1)


# x_int of the edge ending an ulp right of the centre rounds to left of it,
# so the centre counts one crossing although it lies left of every vertex
ROUNDED_PAST_THE_VERTICES = (
    GridSpec(ncols=1, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=0.25),
    Zone("A", ([(0.375, 0.125), (0.625, 0.375), (0.12500000000000003, 0.12499999999999999)],), damage_ratio=0.1),
)


class TestRasterizeZoneMatchesFullGrid:
    @settings(max_examples=500, deadline=None)
    @given(case=grids_and_zones())
    @example(case=ROUNDED_PAST_THE_VERTICES)
    def test_equals_crossing_parity_at_every_centre(self, case):
        spec, zone = case
        # the full grid also divides at centres an edge does not straddle and
        # discards those values, which overflow when the edge is nearly flat
        with np.errstate(over="ignore"):
            full = _crossing_parity(zone.rings, spec.center_xs()[None, :], spec.center_ys()[:, None])
        assert np.array_equal(rasterize_zone(zone, spec).inside, full)


class TestZonalMean:
    @pytest.fixture
    def spec(self):
        return GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=1.0)

    def test_plain_mean_over_inside_cells(self, spec):
        raster = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0])
        mask = ZoneMask(spec, np.ones((2, 2), dtype=bool))
        assert zonal_mean(raster, mask) == 2.5

    def test_missing_cells_excluded(self, spec):
        raster = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0], missing=[True, False, False, False])
        mask = ZoneMask(spec, np.ones((2, 2), dtype=bool))
        assert zonal_mean(raster, mask) == 3.0

    def test_empty_selection_gives_nan(self, spec):
        raster = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0])
        assert math.isnan(zonal_mean(raster, ZoneMask(spec, np.zeros((2, 2), dtype=bool))))
        all_missing = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0], missing=np.ones((2, 2), dtype=bool))
        assert math.isnan(zonal_mean(all_missing, ZoneMask(spec, np.ones((2, 2), dtype=bool))))

    def test_spec_mismatch_rejected(self, spec):
        raster = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0])
        other = GridSpec(ncols=2, nrows=2, x_origin=1.0, y_origin=0.0, cell_size=1.0)
        with pytest.raises(ValueError):
            zonal_mean(raster, ZoneMask(other, np.ones((2, 2), dtype=bool)))

    def test_mean_bounded_by_value_range(self, spec):
        rng = np.random.default_rng(307)
        for _ in range(50):
            values = rng.uniform(-10.0, 10.0, (2, 2))
            missing = rng.random((2, 2)) < 0.3
            inside = rng.random((2, 2)) < 0.6
            raster = RasterGrid(spec, values, missing)
            mean = zonal_mean(raster, ZoneMask(spec, inside))
            take = inside & ~missing
            if not take.any():
                assert math.isnan(mean)
            else:
                assert values[take].min() <= mean <= values[take].max()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("value", [1e308, -1e308, 1.7976931348623157e308])
    def test_sum_past_the_float_range_still_gives_the_mean(self, value, n):
        # np.mean would be inf, with an overflow warning that pytest makes an error; three
        # times the largest float, each divided by 3 first, still rounds past it
        spec = GridSpec(ncols=n, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        raster = RasterGrid(spec, [value] * n)
        assert zonal_mean(raster, ZoneMask(spec, np.ones((1, n), dtype=bool))) == value
        assert zonal_means(raster, [np.arange(n)]) == [value]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1.7976931348623157e308, 1.7976931348623157e308), min_size=1, max_size=20))
    def test_mean_near_the_float_limit_is_close_to_exact(self, values):
        spec = GridSpec(ncols=len(values), nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        mean = zonal_mean(RasterGrid(spec, values), ZoneMask(spec, np.ones((1, len(values)), dtype=bool)))
        exact = float(sum(map(Fraction, values)) / len(values))
        assert math.isfinite(mean)
        assert abs(mean - exact) <= 1e-12 * max(map(abs, values))


@st.composite
def rasters_and_masks(draw):
    """A raster with a random missing pattern and a few random masks on its grid."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    spec = GridSpec(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    # values near the float limit make some zone sums overflow
    limit = draw(st.sampled_from([1e6, 1.7976931348623157e308]))
    cells = st.lists(
        st.floats(-limit, limit, allow_nan=False), min_size=spec.size, max_size=spec.size
    )
    flags = st.lists(st.booleans(), min_size=spec.size, max_size=spec.size)
    raster = RasterGrid(spec, draw(cells), draw(flags))
    masks = [ZoneMask(spec, np.reshape(draw(flags), spec.shape)) for _ in range(draw(st.integers(0, 4)))]
    return raster, masks


class TestZonalMeansMatchZonalMean:
    @settings(max_examples=200, deadline=None)
    @given(case=rasters_and_masks())
    def test_bit_identical(self, case):
        raster, masks = case
        want = [zonal_mean(raster, m).hex() for m in masks]
        whole = zonal_means(raster, [np.flatnonzero(m.inside) for m in masks])
        assert [v.hex() for v in whole] == want
        # the same raster cut down to one row of the cells some mask covers, as load_dataset holds it
        covered = sorted({i for m in masks for i in np.flatnonzero(m.inside).tolist()})
        if covered:
            row = GridSpec(ncols=len(covered), nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
            cut = RasterGrid(row, raster.values.ravel()[covered], raster.missing.ravel()[covered])
            positions = [
                np.array([covered.index(i) for i in np.flatnonzero(m.inside)], dtype=np.intp) for m in masks
            ]
            assert [v.hex() for v in zonal_means(cut, positions)] == want


class TestZoneColumns:
    SPEC = GridSpec(ncols=7, nrows=5, x_origin=0.0, y_origin=0.0, cell_size=1.0)

    def test_positions_pick_each_zones_inside_cells(self):
        zones = [
            Zone("A", (rect_ring(0.0, 0.0, 3.0, 2.0),), 0.1),
            Zone("B", (rect_ring(2.0, 1.0, 5.0, 4.0),), 0.2),  # overlaps A
            Zone("C", (rect_ring(6.0, 4.0, 9.0, 9.0),), 0.3),  # runs off the grid's corner
            Zone("D", (rect_ring(20.0, 20.0, 21.0, 21.0),), 0.4),  # covers no pixel-centre
        ]
        cells, positions = zone_columns(zones, self.SPEC)
        inside = {zone.zone_id: np.flatnonzero(rasterize_zone(zone, self.SPEC).inside) for zone in zones}
        assert list(positions) == ["A", "B", "C", "D"]
        assert cells.tolist() == sorted(set(np.concatenate(list(inside.values())).tolist()))
        for zone_id, index in inside.items():
            assert cells[positions[zone_id]].tolist() == index.tolist()
        assert positions["D"].size == 0

    @pytest.mark.parametrize("zones", [[], [Zone("D", (rect_ring(20.0, 20.0, 21.0, 21.0),), 0.4)]])
    def test_no_covered_cell_keeps_cell_zero(self, zones):
        cells, positions = zone_columns(zones, self.SPEC)
        assert cells.tolist() == [0]
        assert [p.size for p in positions.values()] == [0] * len(zones)


class TestZoneFileRoundTrip:
    def make_zones(self):
        return [
            Zone("Z01", (UNIT_SQUARE,), damage_ratio=0.25, population=1200),
            Zone(
                "Z02",
                (rect_ring(2.0, 0.0, 3.0, 1.0), rect_ring(4.0, 0.0, 5.5, 2.5)),
                damage_ratio=0.0,
                population=0,
            ),
        ]

    def test_round_trip_preserves_zones(self, tmp_path):
        zones = self.make_zones()
        path = tmp_path / "zones.geojson"
        write_zones(zones, path)
        back = read_zones(path)
        assert [z.zone_id for z in back] == ["Z01", "Z02"]
        for orig, rt in zip(zones, back):
            assert rt.damage_ratio == orig.damage_ratio
            assert rt.population == orig.population
            assert len(rt.rings) == len(orig.rings)
            for a, b in zip(orig.rings, rt.rings):
                assert np.array_equal(a, b)

    def test_round_trip_preserves_membership(self, tmp_path):
        zones = self.make_zones()
        path = tmp_path / "zones.geojson"
        write_zones(zones, path)
        back = read_zones(path)
        rng = np.random.default_rng(419)
        for orig, rt in zip(zones, back):
            for _ in range(100):
                x, y = rng.uniform(-1.0, 6.0, 2)
                assert orig.contains(x, y) == rt.contains(x, y)

    def test_missing_property_names_feature(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            ' "geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,0]]]},'
            ' "properties": {"zone_id": "Z9", "damage_ratio": 0.1}}]}'
        )
        with pytest.raises(ZoneValidationError, match="Z9"):
            read_zones(path)

    def test_unclosed_ring_rejected(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            ' "geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,1]]]},'
            ' "properties": {"zone_id": "Z1", "damage_ratio": 0.1, "population": 5}}]}'
        )
        with pytest.raises(ZoneValidationError, match="not closed"):
            read_zones(path)

    def test_unsupported_geometry_rejected(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            ' "geometry": {"type": "Point", "coordinates": [0, 0]},'
            ' "properties": {"zone_id": "Z1", "damage_ratio": 0.1, "population": 5}}]}'
        )
        with pytest.raises(ZoneValidationError, match="Polygon"):
            read_zones(path)

    def test_non_feature_collection_rejected(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text('{"type": "Polygon", "coordinates": []}')
        with pytest.raises(ZoneValidationError, match="FeatureCollection"):
            read_zones(path)

    def test_feature_without_id_named_by_index(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            ' "geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,0]]]},'
            ' "properties": {"damage_ratio": 0.1, "population": 5}}]}'
        )
        with pytest.raises(ZoneValidationError, match="feature #0"):
            read_zones(path)

    def test_unreadable_file_named(self, tmp_path):
        with pytest.raises(ZoneValidationError, match="nowhere.geojson"):
            read_zones(tmp_path / "nowhere.geojson")
        path = tmp_path / "zones.geojson"
        path.write_text('{"type": "FeatureCollection", ')
        with pytest.raises(ZoneValidationError, match="invalid JSON"):
            read_zones(path)

    @pytest.mark.parametrize(
        "features, message",
        [
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "damage_ratio": "x"}}],
                "feature 'Z1': damage_ratio must be a number, got 'x'",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "population": "many"}}],
                "feature 'Z1': population must be an integer, got 'many'",
            ),
            ([5], "feature #0: expected an object"),
            (5, "features must be an array"),
            (
                [{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": 5}, "properties": PROPS}],
                "feature 'Z1': coordinates: ",
            ),
            (
                [{"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": 5}, "properties": PROPS}],
                "feature 'Z1': coordinates: ",
            ),
            ([{"type": "Feature", "geometry": SQUARE, "properties": 5}], "feature #0: properties must be an object"),
            ([{"type": "Feature", "geometry": 5, "properties": PROPS}], "feature 'Z1': geometry must be an object"),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "population": 2.5}}],
                "feature 'Z1': population must be an integer, got 2.5",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "damage_ratio": True}}],
                "feature 'Z1': damage_ratio must be a number, got True",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "damage_ratio": "0.5"}}],
                "feature 'Z1': damage_ratio must be a number, got '0.5'",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "population": "5"}}],
                "feature 'Z1': population must be an integer, got '5'",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "zone_id": None}}],
                "feature #0: zone_id must be a string, got None",
            ),
            (
                [{"type": "Feature", "geometry": SQUARE, "properties": {**PROPS, "zone_id": 7}}],
                "feature #0: zone_id must be a string, got 7",
            ),
        ],
    )
    def test_malformed_value_names_the_feature(self, tmp_path, features, message):
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        with pytest.raises(ZoneValidationError, match=re.escape(message)):
            read_zones(path)

    def test_duplicate_zone_id_rejected(self, tmp_path):
        zones = self.make_zones()
        path = tmp_path / "zones.geojson"
        write_zones([zones[0], Zone("Z01", zones[1].rings, damage_ratio=0.5)], path)
        with pytest.raises(ZoneValidationError, match="duplicate zone_id"):
            read_zones(path)
