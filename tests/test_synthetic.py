"""Tests for synthetic scene generation and the ground-truth oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    VSCNTL_HIGH_QUALITY_COUNT,
    ConfigError,
    Dataset,
    DropSample,
    EventWindow,
    GridSpec,
    IntRaster,
    MonthIndex,
    NoiseSpec,
    PipelineConfig,
    RasterGrid,
    RasterStack,
    SceneSpec,
    StatsError,
    TruthRow,
    Zone,
    build_zone_series,
    correlate_method,
    decode_vnp46a2_quality,
    event_drop,
    generate_scene,
    is_high_quality_vnp46a2,
    enumerate_configs,
    oracle_check,
    point_in_polygon,
    rasterize_zone,
    recovered_pccs,
    rect_ring,
    run_pipeline,
    tile_zones,
)
import ntlpipe.zones
from ntlpipe import synthetic

EVENT = MonthIndex(2018, 10)


def make_grid(n=12, cs=1.0):
    return GridSpec(ncols=n, nrows=n, x_origin=0.0, y_origin=0.0, cell_size=cs)


def make_spec(seed=0, n=12, tiles=(2, 2), damages=(0.05, 0.2, 0.4, 0.6), bases=10.0, **kwargs):
    grid = make_grid(n)
    zones = tile_zones(grid, *tiles, damages)
    return SceneSpec(
        seed=seed,
        grid=grid,
        zones=zones,
        months=EventWindow(EVENT),
        base_radiance=bases,
        **kwargs,
    )


class TestNoiseSpec:
    def test_defaults_are_noise_free(self):
        noise = NoiseSpec()
        assert noise.gaussian_sigma == 0.0
        assert noise.cloud_rate == 0.0
        assert noise.bloom_rate == 0.0

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            NoiseSpec(gaussian_sigma=-0.1)
        with pytest.raises(ConfigError):
            NoiseSpec(cloud_rate=1.5)
        with pytest.raises(ConfigError):
            NoiseSpec(cloud_rate=(0.1, -0.2))
        with pytest.raises(ConfigError):
            NoiseSpec(bloom_rate=2.0)
        with pytest.raises(ConfigError):
            NoiseSpec(bloom_lo=500.0, bloom_hi=60.0)

    def test_monthly_rates_broadcast_scalar(self):
        rates = NoiseSpec(cloud_rate=0.25).monthly_cloud_rates(4)
        assert np.array_equal(rates, [0.25, 0.25, 0.25, 0.25])

    def test_monthly_rate_list_must_match_months(self):
        noise = NoiseSpec(cloud_rate=(0.1, 0.2, 0.3))
        assert np.array_equal(noise.monthly_cloud_rates(3), [0.1, 0.2, 0.3])
        with pytest.raises(ConfigError):
            noise.monthly_cloud_rates(4)


class TestSceneSpec:
    def test_scalar_base_broadcasts_per_zone(self):
        spec = make_spec(bases=12.5)
        assert spec.base_radiance == (12.5, 12.5, 12.5, 12.5)

    def test_base_count_must_match_zones(self):
        with pytest.raises(ConfigError):
            make_spec(bases=(10.0, 20.0))

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(bases=(10.0, 20.0, 0.0, 30.0))

    def test_drop_gain_cannot_push_radiance_negative(self):
        make_spec(damages=(0.1, 0.2, 0.3, 0.5), drop_gain=2.0)
        with pytest.raises(ConfigError):
            make_spec(damages=(0.1, 0.2, 0.3, 0.6), drop_gain=2.0)

    def test_monthly_cloud_rates_validated_against_window(self):
        with pytest.raises(ConfigError):
            make_spec(noise=NoiseSpec(cloud_rate=tuple([0.1] * 24)))
        make_spec(noise=NoiseSpec(cloud_rate=tuple([0.1] * 25)))

    def test_built_fraction_map_off_the_scene_grid_rejected(self):
        built = RasterGrid(make_grid(4), np.ones((4, 4)))
        with pytest.raises(ConfigError, match="built_fraction_map"):
            make_spec(noise=NoiseSpec(built_fraction_map=built))

    def test_duplicate_zone_ids_rejected(self):
        zones = tile_zones(make_grid(), 2, 1, (0.1, 0.2))
        twin = (zones[0], Zone(zones[0].zone_id, zones[1].rings, damage_ratio=0.2))
        with pytest.raises(ConfigError, match="unique"):
            SceneSpec(seed=0, grid=make_grid(), zones=twin, months=EventWindow(EVENT), base_radiance=10.0)

    def test_zoneless_scene_rejected(self):
        grid = make_grid()
        with pytest.raises(ConfigError):
            SceneSpec(seed=0, grid=grid, zones=(), months=EventWindow(EVENT), base_radiance=10.0)


class TestTileZones:
    def test_row_major_ids_and_geometry(self):
        grid = make_grid(n=4, cs=0.5)  # extent [0,2] x [0,2]
        zones = tile_zones(grid, 2, 2, (0.1, 0.2, 0.3, 0.4))
        assert [z.zone_id for z in zones] == ["Z01", "Z02", "Z03", "Z04"]
        # first tile is the top-left quarter
        assert point_in_polygon((0.5, 1.5), zones[0].rings)
        assert point_in_polygon((1.5, 1.5), zones[1].rings)
        assert point_in_polygon((0.5, 0.5), zones[2].rings)
        assert point_in_polygon((1.5, 0.5), zones[3].rings)

    def test_damage_count_must_match(self):
        with pytest.raises(ConfigError):
            tile_zones(make_grid(), 2, 2, (0.1, 0.2))

    def test_populations_attach_in_order(self):
        zones = tile_zones(make_grid(), 2, 2, (0.1, 0.2, 0.3, 0.4), populations=(10, 20, 30, 40))
        assert [z.population for z in zones] == [10, 20, 30, 40]

    def test_tiles_partition_every_pixel(self):
        from ntlpipe import rasterize_zone

        grid = make_grid(n=9, cs=0.7)
        zones = tile_zones(grid, 3, 3, tuple(0.1 for _ in range(9)))
        coverage = np.zeros(grid.shape, dtype=int)
        for zone in zones:
            coverage += rasterize_zone(zone, grid).inside
        assert np.all(coverage == 1)

    def test_ids_zero_padded_to_population_width(self):
        grid = make_grid(n=20)
        zones = tile_zones(grid, 5, 5, tuple(0.01 * i for i in range(25)))
        assert zones[0].zone_id == "Z01"
        assert zones[24].zone_id == "Z25"
        zones = tile_zones(grid, 10, 10, tuple(0.005 * i for i in range(100)))
        assert zones[0].zone_id == "Z001"


class TestGenerateScene:
    def test_noise_free_scene_is_flat_except_event_month(self):
        spec = make_spec(damages=(0.05, 0.2, 0.4, 0.6), bases=10.0)
        scene = generate_scene(spec)
        months = spec.months.months()
        event_grid = scene.radiance.get(EVENT)
        for month in months:
            grid = scene.radiance.get(month)
            if month == EVENT:
                continue
            assert np.all(grid.values == 10.0)
        # zone with damage 0.4 drops to 6.0 at the event month
        zone = spec.zones[2]
        from ntlpipe import rasterize_zone, zonal_mean

        mask = rasterize_zone(zone, spec.grid)
        assert zonal_mean(event_grid, mask) == 6.0

    def test_truth_rows_record_the_linear_drop(self):
        spec = make_spec(damages=(0.05, 0.2, 0.4, 0.6), bases=(10.0, 20.0, 30.0, 40.0))
        scene = generate_scene(spec)
        for row, zone, base in zip(scene.truth, spec.zones, spec.base_radiance):
            assert row.zone_id == zone.zone_id
            assert row.base_radiance == base
            assert row.event_radiance == base * (1.0 - zone.damage_ratio)
            assert row.true_drop_percent == pytest.approx(100.0 * zone.damage_ratio)

    def test_identical_specs_generate_bit_identical_scenes(self):
        noise = NoiseSpec(gaussian_sigma=0.2, cloud_rate=0.3, corruption_scale=1.0, bloom_rate=0.05)
        a = generate_scene(make_spec(seed=77, noise=noise))
        b = generate_scene(make_spec(seed=77, noise=noise))
        assert a.radiance == b.radiance and a.quality == b.quality

    def test_different_seeds_differ(self):
        noise = NoiseSpec(gaussian_sigma=0.2)
        a = generate_scene(make_spec(seed=1, noise=noise))
        b = generate_scene(make_spec(seed=2, noise=noise))
        assert not np.array_equal(a.radiance.values, b.radiance.values)

    def test_quality_flags_mark_exactly_the_corrupted_pixels(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=0.4, corruption_scale=1.0))
        scene = generate_scene(spec)
        # re-derive which pixels the generator corrupted: any pixel whose
        # quality word is the low-quality code must differ from a clean
        # regeneration only at flagged positions
        clean = generate_scene(make_spec(seed=5))
        low = scene.quality.values == 0
        assert np.array_equal(scene.radiance.values[~low], clean.radiance.values[~low])
        assert low.sum() > 0

    def test_vscntl_quality_codes(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=0.5))
        scene = generate_scene(spec)
        codes = set(np.unique(scene.quality.values))
        assert codes == {0, VSCNTL_HIGH_QUALITY_COUNT}

    def test_vnp46a2_quality_codes_decode_to_stated_quality(self):
        spec = make_spec(seed=5, dataset=Dataset.VNP46A2, noise=NoiseSpec(cloud_rate=0.5))
        scene = generate_scene(spec)
        codes = set(np.unique(scene.quality.values))
        assert codes == {VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE}
        assert is_high_quality_vnp46a2(decode_vnp46a2_quality(VNP46A2_HIGH_QUALITY_CODE))
        assert not is_high_quality_vnp46a2(decode_vnp46a2_quality(VNP46A2_LOW_QUALITY_CODE))

    def test_cloud_rate_one_corrupts_everything(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=1.0, corruption_scale=0.0))
        scene = generate_scene(spec)
        assert np.all(scene.quality.values == 0)
        # corruption at scale zero replaces values with the pixel base
        assert np.all(scene.radiance.values == 10.0)

    def test_bloom_values_land_in_declared_range_and_stay_flagged_good(self):
        spec = make_spec(seed=9, noise=NoiseSpec(bloom_rate=0.2, bloom_lo=60.0, bloom_hi=500.0))
        scene = generate_scene(spec)
        clean = generate_scene(make_spec(seed=9))
        bloomed = scene.radiance.values != clean.radiance.values
        assert bloomed.any()
        assert np.all(scene.radiance.values[bloomed] >= 60.0)
        assert np.all(scene.radiance.values[bloomed] <= 500.0)
        assert np.all(scene.quality.values == VSCNTL_HIGH_QUALITY_COUNT)

    def test_ambient_pixels_take_mean_base(self):
        # zones covering half the grid leave ambient pixels at the base mean
        grid = make_grid(n=4)
        zones = tile_zones(
            GridSpec(ncols=4, nrows=2, x_origin=0.0, y_origin=2.0, cell_size=1.0), 2, 1, (0.1, 0.3)
        )
        spec = SceneSpec(
            seed=0, grid=grid, zones=zones, months=EventWindow(EVENT), base_radiance=(10.0, 30.0)
        )
        scene = generate_scene(spec)
        assert np.all(scene.radiance.values[0, 2:, :] == 20.0)

    def test_default_built_fraction_is_all_ones(self):
        scene = generate_scene(make_spec())
        assert np.all(scene.built_fraction.values == 1.0)
        assert not scene.built_fraction.missing.any()

    def test_custom_built_fraction_passes_through(self):
        grid = make_grid()
        built = RasterGrid(grid, np.full(grid.shape, 0.25))
        spec = make_spec(noise=NoiseSpec(built_fraction_map=built))
        scene = generate_scene(spec)
        assert scene.built_fraction is built


class TestOracleCheck:
    def test_noise_free_scene_recovers_perfect_correlation(self):
        spec = make_spec(damages=(0.05, 0.2, 0.4, 0.6))
        scene = generate_scene(spec)
        recovered, truth = oracle_check(scene, PipelineConfig(Dataset.VSC_NTL))
        assert truth == 1.0
        assert recovered == pytest.approx(1.0, abs=1e-9)

    def test_quality_filtering_beats_raw_on_cloudy_scene(self):
        damages = tuple(0.05 + 0.55 * i / 8 for i in range(9))
        grid = make_grid(n=18)
        zones = tile_zones(grid, 3, 3, damages)
        spec = SceneSpec(
            seed=42,
            grid=grid,
            zones=zones,
            months=EventWindow(EVENT),
            base_radiance=20.0,
            noise=NoiseSpec(gaussian_sigma=0.05, cloud_rate=0.3, corruption_scale=1.5),
        )
        scene = generate_scene(spec)
        raw, _ = oracle_check(scene, PipelineConfig(Dataset.VSC_NTL))
        filtered, _ = oracle_check(scene, PipelineConfig(Dataset.VSC_NTL, quality_filter=True))
        assert filtered > raw

    def test_too_few_distinct_damages_rejected(self):
        spec = make_spec(damages=(0.2, 0.2, 0.4, 0.4))
        scene = generate_scene(spec)
        with pytest.raises(ConfigError):
            oracle_check(scene, PipelineConfig(Dataset.VSC_NTL))

    def test_each_zone_is_rasterized_once(self, monkeypatch):
        # generate_scene rasterizes each zone once for its columns; the oracle reuses them
        rasterized = []

        def counted(zone, grid):
            rasterized.append(zone.zone_id)
            return rasterize_zone(zone, grid)

        monkeypatch.setattr(ntlpipe.zones, "rasterize_zone", counted)
        spec = make_spec(seed=4)
        recovered_pccs(generate_scene(spec), enumerate_configs(Dataset.VSC_NTL))
        assert rasterized == [zone.zone_id for zone in spec.zones]


def expression_scene(spec):
    """generate_scene in its expression form: whole-cube temporaries and an int64 quality cube.

    Returns (radiance, quality, truth) as generate_scene builds them, from
    the same draws in the same order, each channel as one block; the
    month-by-month generator must match its radiance bit for bit and its
    quality words by value.
    """
    grid = spec.grid
    months = spec.months.months()
    n_months = len(months)
    event_index = spec.months.months_before
    noise = spec.noise

    ambient = float(np.mean(spec.base_radiance))
    pixel_base = np.full(grid.shape, ambient)
    event_frame = np.full(grid.shape, ambient)
    truth = []
    for zone, base in zip(spec.zones, spec.base_radiance):
        inside = rasterize_zone(zone, grid).inside
        pixel_base[inside] = base
        dropped = base * (1.0 - spec.drop_gain * zone.damage_ratio)
        event_frame[inside] = dropped
        true_drop = 100.0 * spec.drop_gain * zone.damage_ratio
        truth.append(TruthRow(zone.zone_id, zone.damage_ratio, base, dropped, true_drop))

    values = np.broadcast_to(pixel_base, (n_months,) + grid.shape).copy()
    values[event_index] = event_frame

    rng = np.random.default_rng(spec.seed)
    shape = (n_months,) + grid.shape
    if noise.gaussian_sigma > 0:
        values *= np.exp(noise.gaussian_sigma * rng.standard_normal(shape))
    rates = noise.monthly_cloud_rates(n_months)
    if np.any(rates > 0):
        flagged = rng.random(shape) < rates[:, None, None]
        corrupted = pixel_base[None, :, :] * (1.0 + noise.corruption_scale * rng.uniform(-1.0, 1.0, shape))
        values = np.where(flagged, corrupted, values)
    else:
        flagged = np.zeros(shape, dtype=bool)
    if noise.bloom_rate > 0:
        bloomed = rng.random(shape) < noise.bloom_rate
        values = np.where(bloomed, rng.uniform(noise.bloom_lo, noise.bloom_hi, shape), values)

    if spec.dataset is Dataset.VNP46A2:
        good, bad = VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE
    else:
        good, bad = VSCNTL_HIGH_QUALITY_COUNT, 0
    quality_cube = np.where(flagged, bad, good)
    radiance = RasterStack(months, tuple(RasterGrid(grid, values[t]) for t in range(n_months)))
    quality = RasterStack(months, tuple(IntRaster(grid, quality_cube[t]) for t in range(n_months)))
    return radiance, quality, tuple(truth)


def assert_same_bits(stack, want):
    assert stack.months == want.months and stack.spec == want.spec
    for got, expected in ((stack.values, want.values), (stack.missing, want.missing)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@st.composite
def scene_specs(draw):
    """Small scenes over every noise channel, on or off, and both datasets."""
    ncols, nrows = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    x_origin, cell_size = draw(st.sampled_from([0.0, -3.5])), draw(st.sampled_from([0.5, 1.0, 1.3]))
    grid = GridSpec(ncols, nrows, x_origin, 0.0, cell_size)
    window = EventWindow(EVENT, draw(st.integers(0, 4)), draw(st.integers(0, 3)))
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    damage = st.floats(0.0, 1.0)
    zones = tile_zones(grid, nx, ny, draw(st.lists(damage, min_size=nx * ny, max_size=nx * ny)))
    if draw(st.booleans()):
        # one more zone, overlapping the tiles and maybe running off the grid
        x0 = grid.x_origin + draw(st.floats(-2.0, 6.0)) * grid.cell_size
        y0 = grid.y_origin + draw(st.floats(-2.0, 6.0)) * grid.cell_size
        size = draw(st.floats(0.3, 6.0)) * grid.cell_size
        zones += (Zone("X", (rect_ring(x0, y0, x0 + size, y0 + size),), draw(damage)),)
    n_months = len(window)
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    off_or = lambda strategy: st.one_of(st.just(0.0), strategy)  # noqa: E731
    noise = NoiseSpec(
        gaussian_sigma=draw(off_or(st.floats(0.01, 0.5))),
        cloud_rate=draw(st.one_of(rate, st.lists(rate, min_size=n_months, max_size=n_months).map(tuple))),
        corruption_scale=draw(off_or(st.floats(0.01, 2.0))),
        bloom_rate=draw(off_or(st.floats(0.0, 1.0))),
        bloom_lo=draw(st.sampled_from([60.0, 0.5])),
    )
    return SceneSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        grid=grid,
        zones=zones,
        months=window,
        base_radiance=draw(st.lists(st.floats(0.5, 80.0), min_size=len(zones), max_size=len(zones))),
        dataset=draw(st.sampled_from(list(Dataset))),
        drop_gain=draw(st.sampled_from([0.0, 0.5, 1.0])),
        noise=noise,
    )


class TestGenerateSceneMatchesExpressionForm:
    @settings(max_examples=200, deadline=None)
    @given(spec=scene_specs())
    def test_in_place_draws_give_the_expression_forms_bits(self, spec):
        scene = generate_scene(spec)
        radiance, quality, truth = expression_scene(spec)
        assert_same_bits(scene.radiance, radiance)
        # equal words, in 16 bits for VNP46A2 and in 64 for VSC-NTL's cloud-free counts
        words = np.uint16 if spec.dataset is Dataset.VNP46A2 else np.int64
        assert_same_bits(scene.quality, quality.with_values(quality.values.astype(words), quality.missing.copy()))
        assert scene.truth == truth


def whole_grid_pccs(scene, configs):
    """(config, pcc or StatsError) from the chain on the whole grids, one config at a time."""
    spec = scene.spec
    masks = [rasterize_zone(zone, spec.grid) for zone in spec.zones]
    for config in configs:
        try:
            cleaned = run_pipeline(scene.radiance, scene.quality, scene.built_fraction, config)
            series = [build_zone_series(cleaned, m, spec.months, z.zone_id) for z, m in zip(spec.zones, masks)]
            # the scalar event_drop, not drop_samples' batch column: this is the reference
            samples = [
                DropSample(z.zone_id, z.damage_ratio, event_drop(s, spec.months), "", z.population)
                for z, s in zip(spec.zones, series)
            ]
            yield config, correlate_method(samples, spec.dataset, config.label).pcc
        except StatsError as exc:
            yield config, exc


def comparable(result):
    return (type(result).__name__, str(result)) if isinstance(result, StatsError) else result.hex()


# each layout is (nx, ny tiles over the grid or None, extra zones as (x0, y0, x1, y1))
ZONE_LAYOUTS = {
    "every-cell": ((3, 2), ()),
    "part-of-the-grid": (
        None,
        ((1.0, 1.0, 6.0, 5.0), (9.0, 2.0, 15.0, 7.0), (3.0, 10.0, 8.0, 15.0), (12.0, 12.0, 20.0, 20.0)),
    ),
    "no-cell": (None, ((30.0, 30.0, 31.0, 31.0), (-5.0, 2.0, -1.0, 3.0), (40.0, 0.0, 41.0, 16.0))),
    "overlapping": ((2, 2), ((4.0, 4.0, 12.0, 12.0), (0.0, 0.0, 16.0, 3.0), (14.5, 14.5, 30.0, 30.0))),
}


def layout_spec(dataset, layout, seed=11):
    grid = GridSpec(16, 16, 0.0, 0.0, 1.0)
    tiles, rects = ZONE_LAYOUTS[layout]
    zones = tile_zones(grid, *tiles, [0.05 + 0.1 * i for i in range(tiles[0] * tiles[1])]) if tiles else ()
    zones += tuple(Zone(f"R{i}", (rect_ring(*rect),), 0.12 + 0.13 * i) for i, rect in enumerate(rects))
    built = RasterGrid(grid, np.random.default_rng(seed).uniform(0.0, 1.0, grid.shape))
    noise = NoiseSpec(
        gaussian_sigma=0.05,
        cloud_rate=0.3,
        corruption_scale=1.5,
        bloom_rate=0.02,
        built_fraction_map=built,
    )
    bases = [15.0 + 3.0 * i for i in range(len(zones))]
    return SceneSpec(seed, grid, zones, EventWindow(EVENT), bases, dataset, noise=noise)


class TestOracleOnZoneColumns:
    @pytest.mark.parametrize("layout", list(ZONE_LAYOUTS))
    @pytest.mark.parametrize("dataset", list(Dataset))
    def test_recovered_pccs_equal_the_whole_grid_chain(self, dataset, layout):
        scene = generate_scene(layout_spec(dataset, layout))
        configs = enumerate_configs(dataset)
        got = [(config, comparable(result)) for config, result in recovered_pccs(scene, configs)]
        want = [(config, comparable(result)) for config, result in whole_grid_pccs(scene, configs)]
        assert got == want
        if layout == "no-cell":
            assert all(isinstance(result, tuple) for _, result in got)
        else:
            assert not any(isinstance(result, tuple) for _, result in got)

    def test_the_oracle_holds_no_reference_to_the_scene(self, monkeypatch):
        scene = generate_scene(layout_spec(Dataset.VNP46A2, "part-of-the-grid"))
        chained = []
        series_by_config = synthetic.series_by_config

        def chaining(radiance, quality, built, *args):
            chained.extend((radiance, quality, built))
            return series_by_config(radiance, quality, built, *args)

        monkeypatch.setattr(synthetic, "series_by_config", chaining)
        recovered_pccs(scene, enumerate_configs(Dataset.VNP46A2))
        # the chain runs on cuts of the zones' cells, of the window's start through the event month,
        # each in arrays of its own: none is a view of the scene's cubes or its built fraction
        assert [raster.spec for raster in chained] == [scene.spec.columns.row] * 3
        months = scene.spec.months.months()[: scene.spec.months.months_before + 1]
        assert chained[0].months == chained[1].months == months
        wholes = [(whole.values, whole.missing) for whole in (scene.radiance, scene.quality, scene.built_fraction)]
        for cut, whole in itertools.product(chained, wholes):
            assert not any(np.shares_memory(a, b) for a, b in itertools.product((cut.values, cut.missing), whole))


def scene_nbytes(scene):
    stacks = (scene.radiance, scene.quality)
    return sum(stack.values.nbytes + stack.missing.nbytes for stack in stacks)


def cell_months(spec):
    return len(spec.months) * spec.grid.size


def traced_peak(run):
    """run()'s result, and the peak bytes of the allocations it made still live at one time."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def budget_spec(n=120):
    """A VNP46A2 scene like the benchmark's large tile: every noise channel on, zones over 36% of the cells."""
    grid = GridSpec(n, n, 0.0, 0.0, 1.0)
    side = n / 3
    corners = [(i * side, j * side) for j in range(3) for i in range(3)]
    zones = tuple(
        Zone(f"Z{k}", (rect_ring(x + 0.2 * side, y + 0.2 * side, x + 0.8 * side, y + 0.8 * side),), 0.05 * (k + 1))
        for k, (x, y) in enumerate(corners)
    )
    noise = NoiseSpec(gaussian_sigma=0.05, cloud_rate=0.3, corruption_scale=1.5, bloom_rate=0.01)
    return SceneSpec(5, grid, zones, EventWindow(EVENT, 6, 3), 25.0, Dataset.VNP46A2, noise=noise)


class TestMemoryBudget:
    @pytest.fixture(autouse=True)
    def warm(self):
        # first calls import and cache; they are not the scene's cost
        scene = generate_scene(budget_spec(n=6))
        recovered_pccs(scene, enumerate_configs(Dataset.VNP46A2))

    # Bounds in bytes per cell-month of the scene, whose own arrays take 12: radiance 8, quality word 2,
    # and a missing flag for each. Each bound is the peak measured with numpy 2.4 plus a margin of 1.5.

    def test_generation_peaks_near_the_scene_size(self):
        # measured 14.9, the stream's months drawn a block of rows at a time; 15.3 when each month was drawn
        # whole into the cubes, 55.8 for the expression form, and 23.1 for whole-cube draws with int64 words
        spec = budget_spec()
        scene, peak = traced_peak(lambda: generate_scene(spec))
        assert scene_nbytes(scene) == 12 * cell_months(spec)
        assert peak <= (14.9 + 1.5) * cell_months(spec)

    def test_the_oracle_works_within_the_zones_cells(self):
        # measured 7.05, each month cut to the zones' cells as it is read, through the event month; 9.5 when the
        # scene's whole stacks were cut, 10.5 with the refill's temporaries over whole months, 29.1 for the chain
        # on the whole grids, and 13.8 on int64 words
        spec = budget_spec()
        scene = generate_scene(spec)
        _, peak = traced_peak(lambda: recovered_pccs(scene, enumerate_configs(Dataset.VNP46A2)))
        assert peak <= (7.05 + 1.5) * cell_months(spec)
