"""Tests for synthetic scene generation and the ground-truth oracle."""

import numpy as np
import pytest

from ntlpipe import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    VSCNTL_HIGH_QUALITY_COUNT,
    ConfigError,
    Dataset,
    EventWindow,
    GeneratedScene,
    GridSpec,
    MonthIndex,
    NoiseSpec,
    PipelineConfig,
    RasterGrid,
    SceneSpec,
    Zone,
    decode_vnp46a2_quality,
    generate_scene,
    is_high_quality_vnp46a2,
    enumerate_configs,
    oracle_check,
    recovered_pccs,
    tile_zones,
)

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
        assert zones[0].contains(0.5, 1.5)
        assert zones[1].contains(1.5, 1.5)
        assert zones[2].contains(0.5, 0.5)
        assert zones[3].contains(1.5, 0.5)

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
        for ga, gb in zip(a.radiance.grids, b.radiance.grids):
            assert ga == gb
        for qa, qb in zip(a.quality.grids, b.quality.grids):
            assert qa == qb

    def test_different_seeds_differ(self):
        noise = NoiseSpec(gaussian_sigma=0.2)
        a = generate_scene(make_spec(seed=1, noise=noise))
        b = generate_scene(make_spec(seed=2, noise=noise))
        assert any(not np.array_equal(ga.values, gb.values) for ga, gb in zip(a.radiance.grids, b.radiance.grids))

    def test_quality_flags_mark_exactly_the_corrupted_pixels(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=0.4, corruption_scale=1.0))
        scene = generate_scene(spec)
        # re-derive which pixels the generator corrupted: any pixel whose
        # quality word is the low-quality code must differ from a clean
        # regeneration only at flagged positions
        clean = generate_scene(make_spec(seed=5))
        n_low = 0
        for grid, qgrid, base in zip(scene.radiance.grids, scene.quality.grids, clean.radiance.grids):
            low = qgrid.values == 0
            n_low += low.sum()
            assert np.array_equal(grid.values[~low], base.values[~low])
        assert n_low > 0

    def test_vscntl_quality_codes(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=0.5))
        scene = generate_scene(spec)
        codes = set(np.unique([q.values for q in scene.quality.grids]))
        assert codes == {0, VSCNTL_HIGH_QUALITY_COUNT}

    def test_vnp46a2_quality_codes_decode_to_stated_quality(self):
        spec = make_spec(seed=5, dataset=Dataset.VNP46A2, noise=NoiseSpec(cloud_rate=0.5))
        scene = generate_scene(spec)
        codes = set(np.unique([q.values for q in scene.quality.grids]))
        assert codes == {VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE}
        assert is_high_quality_vnp46a2(decode_vnp46a2_quality(VNP46A2_HIGH_QUALITY_CODE))
        assert not is_high_quality_vnp46a2(decode_vnp46a2_quality(VNP46A2_LOW_QUALITY_CODE))

    def test_cloud_rate_one_corrupts_everything(self):
        spec = make_spec(seed=5, noise=NoiseSpec(cloud_rate=1.0, corruption_scale=0.0))
        scene = generate_scene(spec)
        for qgrid in scene.quality.grids:
            assert np.all(qgrid.values == 0)
        # corruption at scale zero replaces values with the pixel base
        for grid in scene.radiance.grids:
            assert np.all(grid.values == 10.0)

    def test_bloom_values_land_in_declared_range_and_stay_flagged_good(self):
        spec = make_spec(seed=9, noise=NoiseSpec(bloom_rate=0.2, bloom_lo=60.0, bloom_hi=500.0))
        scene = generate_scene(spec)
        clean = generate_scene(make_spec(seed=9))
        bloomed_any = False
        for grid, qgrid, base in zip(scene.radiance.grids, scene.quality.grids, clean.radiance.grids):
            bloomed = grid.values != base.values
            if bloomed.any():
                bloomed_any = True
                assert np.all(grid.values[bloomed] >= 60.0)
                assert np.all(grid.values[bloomed] <= 500.0)
            assert np.all(qgrid.values == VSCNTL_HIGH_QUALITY_COUNT)
        assert bloomed_any

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
        first = scene.radiance.grids[0]
        assert np.all(first.values[2:, :] == 20.0)

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

    def test_recovered_pccs_keep_a_failing_config_to_itself(self):
        # without a built-fraction grid only the built configs can fail
        scene = generate_scene(make_spec(seed=3, noise=NoiseSpec(gaussian_sigma=0.05)))
        scene = GeneratedScene(scene.spec, scene.radiance, scene.quality, scene.truth, None)
        configs = enumerate_configs(Dataset.VSC_NTL)
        results = list(recovered_pccs(scene, configs))
        assert [config for config, _ in results] == list(configs)
        for config, pcc in results:
            if config.built_mask:
                assert isinstance(pcc, ConfigError) and "built" in str(pcc)
            else:
                assert pcc == oracle_check(scene, config)[0]
