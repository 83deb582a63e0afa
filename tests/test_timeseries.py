"""Tests for month arithmetic, zone time series, baselines, and drop metrics."""

import csv
import dataclasses
import inspect
import math
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntlpipe import (
    ConfigError,
    Dataset,
    EventWindow,
    GridSpec,
    MonthIndex,
    NoiseSpec,
    RasterGrid,
    RasterStack,
    ReportError,
    SceneSpec,
    Zone,
    ZoneMask,
    ZoneSeries,
    build_zone_series,
    config_from_label,
    enumerate_configs,
    event_drop,
    generate_scene,
    monthly_median_composite,
    percent_change,
    percent_changes,
    rasterize_zone,
    read_series_csv,
    rect_ring,
    rolling_baseline,
    rolling_baselines,
    run_pipeline,
    series_by_config,
    spell_table,
    tile_zones,
    write_grid,
    write_series_csv,
)
from ntlpipe import preprocess, timeseries
from ntlpipe.layout import BUILT_FRACTION_FILENAME, DatasetConfig, _majority_quality_composite, load_dataset
from ntlpipe.timeseries import BASELINE_MONTHS, _csv_field, _field, _read_rows, _read_written_form

SPEC = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=1.0)


def series_from(start, values, zone_id="Z"):
    return ZoneSeries(zone_id, start, tuple(values))


class TestMonthIndex:
    def test_ordinal_round_trip(self):
        for year in (1992, 2012, 2018):
            for month in range(1, 13):
                m = MonthIndex(year, month)
                assert MonthIndex.from_ordinal(m.ordinal) == m

    def test_month_bounds(self):
        with pytest.raises(ValueError):
            MonthIndex(2018, 0)
        with pytest.raises(ValueError):
            MonthIndex(2018, 13)

    def test_addition_carries_years(self):
        assert MonthIndex(2017, 11) + 3 == MonthIndex(2018, 2)
        assert MonthIndex(2018, 1) + (-1) == MonthIndex(2017, 12)

    def test_difference_counts_months(self):
        assert MonthIndex(2018, 2) - MonthIndex(2017, 11) == 3
        assert MonthIndex(2018, 2) - 3 == MonthIndex(2017, 11)

    def test_ordering_is_calendar_order(self):
        assert MonthIndex(2017, 12) < MonthIndex(2018, 1)
        assert sorted([MonthIndex(2018, 3), MonthIndex(2017, 5)])[0] == MonthIndex(2017, 5)

    def test_parse_and_str(self):
        assert MonthIndex.parse("2018-09") == MonthIndex(2018, 9)
        assert str(MonthIndex(2018, 9)) == "2018-09"
        with pytest.raises(ValueError):
            MonthIndex.parse("2018/09")
        with pytest.raises(ValueError):
            MonthIndex.parse("2018-9-1")


class TestEventWindow:
    def test_default_window_is_25_months(self):
        window = EventWindow(MonthIndex(2017, 9))
        assert len(window) == 25
        assert window.start == MonthIndex(2016, 9)
        assert window.end == MonthIndex(2018, 9)
        months = window.months()
        assert months[0] == window.start
        assert months[12] == window.event_month
        assert months[-1] == window.end

    def test_asymmetric_window(self):
        window = EventWindow(MonthIndex(2018, 10), months_before=2, months_after=0)
        assert len(window) == 3
        assert window.months() == (MonthIndex(2018, 8), MonthIndex(2018, 9), MonthIndex(2018, 10))

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            EventWindow(MonthIndex(2018, 10), months_before=-1)

    def test_months_are_worked_out_once_per_window(self):
        window = EventWindow(MonthIndex(2018, 10), months_before=2, months_after=1)
        assert window.months() is window.months()
        assert window.start is window.start and window.end is window.end
        assert (window.months()[0], window.months()[-1]) == (window.start, window.end)
        # the cache is no field: equal windows stay equal, and hash alike, whatever each has worked out
        assert window == EventWindow(MonthIndex(2018, 10), months_before=2, months_after=1)
        assert hash(window) == hash(EventWindow(MonthIndex(2018, 10), months_before=2, months_after=1))


class TestZoneSeries:
    def test_get_outside_range_is_nan(self):
        series = series_from(MonthIndex(2018, 1), [1.0, 2.0])
        assert math.isnan(series.get(MonthIndex(2017, 12)))
        assert math.isnan(series.get(MonthIndex(2018, 3)))


class TestMonthlyMedianComposite:
    def test_odd_count_takes_middle_value(self):
        days = [RasterGrid(SPEC, np.full(SPEC.shape, v)) for v in (1.0, 3.0, 5.0)]
        out = monthly_median_composite(days)
        assert np.all(out.values == 3.0)

    def test_even_count_averages_middle_pair(self):
        days = [RasterGrid(SPEC, np.full(SPEC.shape, v)) for v in (1.0, 2.0)]
        out = monthly_median_composite(days)
        assert np.all(out.values == 1.5)

    def test_missing_days_excluded_per_pixel(self):
        a = RasterGrid(SPEC, [1.0, 1.0, 1.0, 1.0], missing=[True, False, False, False])
        b = RasterGrid(SPEC, [9.0, 9.0, 9.0, 9.0])
        out = monthly_median_composite([a, b])
        assert out.values[0, 0] == 9.0  # only one valid day there
        assert out.values[0, 1] == 5.0

    def test_pixel_missing_everywhere_stays_missing(self):
        mask = [True, False, False, False]
        days = [RasterGrid(SPEC, [5.0, 1.0, 1.0, 1.0], missing=mask) for _ in range(3)]
        out = monthly_median_composite(days)
        assert out.missing[0, 0]
        assert not out.missing[0, 1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            monthly_median_composite([])

    def test_geometry_mismatch_rejected(self):
        other = GridSpec(ncols=2, nrows=2, x_origin=9.0, y_origin=0.0, cell_size=1.0)
        with pytest.raises(ValueError):
            monthly_median_composite([RasterGrid(SPEC, np.ones(SPEC.shape)), RasterGrid(other, np.ones((2, 2)))])

    def test_matches_nanmedian_on_random_cubes(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            days = [
                RasterGrid(SPEC, rng.uniform(0, 50, SPEC.shape), rng.random(SPEC.shape) < 0.4)
                for _ in range(n)
            ]
            out = monthly_median_composite(days)
            cube = np.stack([np.where(d.missing, np.nan, d.values) for d in days])
            for r in range(2):
                for c in range(2):
                    column = cube[:, r, c]
                    column = column[~np.isnan(column)]
                    if column.size == 0:
                        assert out.missing[r, c]
                    else:
                        assert out.values[r, c] == np.median(column)


    def test_odd_count_of_huge_values_keeps_the_middle_value(self):
        days = [RasterGrid(SPEC, np.full(SPEC.shape, 1e308)) for _ in range(3)]
        assert np.all(monthly_median_composite(days).values == 1e308)

    def test_middle_pair_whose_sum_overflows_is_halved_first(self):
        days = [RasterGrid(SPEC, np.full(SPEC.shape, v)) for v in (-1e308, 1e308, 1.5e308, 1.7e308)]
        assert np.all(monthly_median_composite(days).values == 1e308 / 2 + 1.5e308 / 2)

    def test_zero_median_is_positive_zero(self):
        days = [RasterGrid(SPEC, np.full(SPEC.shape, v)) for v in (-0.0, -0.0, -1.0)]
        assert [v.hex() for v in monthly_median_composite(days).values.ravel().tolist()] == ["0x0.0p+0"] * 4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_nanmedian_bit_for_bit(self, data):
        ncols, nrows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        spec = GridSpec(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        days = [
            RasterGrid(
                spec,
                data.draw(st.lists(MEDIAN_VALUES, min_size=spec.size, max_size=spec.size)),
                data.draw(st.lists(st.booleans(), min_size=spec.size, max_size=spec.size)),
            )
            for _ in range(data.draw(st.integers(1, 12)))
        ]
        out = monthly_median_composite(days)
        expected, all_missing = nanmedian_composite(days)
        assert out.missing.tolist() == all_missing.tolist()
        for got, want, column in zip(out.values.ravel().tolist(), expected.ravel().tolist(), valid_columns(days)):
            if not column:
                assert got == 0.0
            elif math.isfinite(want):
                assert got.hex() == want.hex()
            else:  # the middle pair's sum overflowed in np.nanmedian
                low, high = column[(len(column) - 1) // 2], column[len(column) // 2]
                assert got == (low if low == high else low / 2 + high / 2)


# ties, signed zeros, subnormals and values whose sum overflows
MEDIAN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308, 1.7976931348623157e308]),
)


def nanmedian_composite(days):
    """(median, all-missing) as the composite computed them with np.nanmedian."""
    cube = np.stack([np.where(d.missing, np.nan, d.values) for d in days])
    all_missing = np.all(np.isnan(cube), axis=0)
    with np.errstate(over="ignore"):
        median = np.nanmedian(np.where(all_missing[None, :, :], 0.0, cube), axis=0)
    return median, all_missing


def valid_columns(days):
    """Each pixel's sorted valid daily values, in row-major order."""
    cube = np.stack([np.where(d.missing, np.nan, d.values) for d in days])
    return [sorted(v for v in column if not math.isnan(v)) for column in cube.reshape(len(days), -1).T.tolist()]


class TestBuildZoneSeries:
    def test_window_months_map_to_zonal_means(self):
        start = MonthIndex(2018, 1)
        months = (start, start + 1, start + 2)
        grids = tuple(RasterGrid(SPEC, np.full(SPEC.shape, float(i + 1))) for i in range(3))
        stack = RasterStack(months, grids)
        mask = ZoneMask(SPEC, np.ones(SPEC.shape, dtype=bool))
        window = EventWindow(start + 1, months_before=1, months_after=1)
        series = build_zone_series(stack, mask, window, "Z1")
        assert series.zone_id == "Z1"
        assert series.values == (1.0, 2.0, 3.0)

    def test_absent_stack_months_are_nan(self):
        start = MonthIndex(2018, 1)
        stack = RasterStack((start,), (RasterGrid(SPEC, np.ones(SPEC.shape)),))
        window = EventWindow(start + 1, months_before=1, months_after=1)
        series = build_zone_series(stack, mask=ZoneMask(SPEC, np.ones(SPEC.shape, dtype=bool)), window=window, zone_id="Z")
        assert series.values[0] == 1.0
        assert math.isnan(series.values[1])
        assert math.isnan(series.values[2])


def counted(calls, name, function):
    """``function``, appending ``name`` to ``calls`` at each call."""

    def counting(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    return counting


@st.composite
def chain_inputs(draw, dataset):
    """A small noisy scene, its zones plus an off-grid one, two windows, and the scene's built grid."""
    n = draw(st.integers(3, 8))
    grid = GridSpec(ncols=n, nrows=n, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    damages = draw(st.lists(st.floats(0.0, 0.9), min_size=nx * ny, max_size=nx * ny))
    window = EventWindow(
        MonthIndex(2018, 10), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    )
    built_map = RasterGrid(grid, np.random.default_rng(draw(st.integers(0, 99))).random(grid.shape))
    noise = NoiseSpec(
        gaussian_sigma=draw(st.sampled_from((0.0, 0.1))),
        cloud_rate=draw(st.sampled_from((0.0, 0.3, 0.9))),
        corruption_scale=1.5,
        bloom_rate=draw(st.sampled_from((0.0, 0.2))),
        built_fraction_map=built_map,
    )
    spec = SceneSpec(
        seed=draw(st.integers(0, 2**16)),
        grid=grid,
        zones=tile_zones(grid, nx, ny, damages),
        months=window,
        base_radiance=draw(st.floats(0.5, 40.0)),
        dataset=dataset,
        noise=noise,
    )
    scene = generate_scene(spec)
    zones = spec.zones + (Zone("OFF", (rect_ring(50.0, 50.0, 51.0, 51.0),), 0.1),)
    # the second window runs past the stack's end, so some months are absent
    windows = (window, EventWindow(window.end, 1, 2))
    return scene, zones, windows, built_map


def assert_chain_matches_reference(scene, zones, windows, built, configs, chain=None):
    """series_by_config yields configs in the given order, each equal to run_pipeline + build_zone_series.

    ``chain`` is series_by_config's output; by default, on the scene's whole grids.
    """
    if chain is None:
        cells = {zone.zone_id: np.flatnonzero(rasterize_zone(zone, scene.spec.grid).inside) for zone in zones}
        chain = series_by_config(scene.radiance, scene.quality, built, cells, configs, windows)
    chain = list(chain)
    assert [config for config, _ in chain] == list(configs)
    for config, result in chain:
        processed = run_pipeline(scene.radiance, scene.quality, built, config)
        assert len(result) == len(windows)
        for window, table in zip(windows, result):
            expected = [
                build_zone_series(processed, rasterize_zone(zone, scene.spec.grid), window, zone.zone_id)
                for zone in zones
            ]
            # one row per zone, in zone order, over the window's months
            assert table.dtype == np.float64 and table.shape == (len(zones), len(window))
            for got, want in zip(table.tolist(), expected):
                assert [v.hex() for v in got] == [v.hex() for v in want.values]


def assert_built_mask_raises_as_run_pipeline(dataset, built, error):
    """series_by_config raises run_pipeline's built-mask error where the walk reaches the first built config."""
    grid = GridSpec(ncols=4, nrows=4, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    window = EventWindow(MonthIndex(2018, 10), 2, 1)
    spec = SceneSpec(5, grid, tile_zones(grid, 2, 1, [0.1, 0.5]), window, 20.0, dataset)
    scene = generate_scene(spec)
    cells = {zone.zone_id: np.flatnonzero(rasterize_zone(zone, grid).inside) for zone in spec.zones}
    configs = enumerate_configs(dataset)
    first_built = next(config for config in configs if config.built_mask)
    with pytest.raises(error) as expected:
        run_pipeline(scene.radiance, scene.quality, built, first_built)
    served = []
    with pytest.raises(error) as raised:
        for config, _ in series_by_config(scene.radiance, scene.quality, built, cells, configs, (window,)):
            served.append(config)
    assert str(raised.value) == str(expected.value)
    # after raw, whose branch the first built config shares
    assert served == [configs[0]]


class TestSeriesByConfig:
    @pytest.mark.parametrize("dataset", list(Dataset))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_config_reference(self, dataset, data):
        scene, zones, windows, built = data.draw(chain_inputs(dataset))
        canonical = enumerate_configs(dataset)
        # configs in any order and repeated
        mixed = st.lists(st.sampled_from(canonical), min_size=1, max_size=len(canonical) + 2)
        configs = data.draw(st.one_of(st.just(canonical), mixed), label="configs")
        assert_chain_matches_reference(scene, zones, windows, built, configs)

    @pytest.mark.parametrize("dataset", list(Dataset))
    def test_a_built_config_without_a_built_grid_raises_run_pipelines_error(self, dataset):
        assert_built_mask_raises_as_run_pipeline(dataset, None, ConfigError)

    @pytest.mark.parametrize("dataset", list(Dataset))
    def test_a_built_grid_off_the_geometry_raises_run_pipelines_error(self, dataset):
        built = RasterGrid(GridSpec(ncols=4, nrows=3, x_origin=0.0, y_origin=0.0, cell_size=1.0), np.ones((3, 4)))
        assert_built_mask_raises_as_run_pipeline(dataset, built, ValueError)

    def test_labels_out_of_canonical_order(self):
        grid = GridSpec(ncols=6, nrows=6, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        window = EventWindow(MonthIndex(2018, 10), 3, 2)
        spec = SceneSpec(
            seed=5,
            grid=grid,
            zones=tile_zones(grid, 2, 2, [0.1, 0.3, 0.5, 0.7]),
            months=window,
            base_radiance=20.0,
            noise=NoiseSpec(cloud_rate=0.3, corruption_scale=1.5, bloom_rate=0.2),
        )
        scene = generate_scene(spec)
        configs = [config_from_label(Dataset.VSC_NTL, label) for label in ("clip+quality", "raw", "quality")]
        assert_chain_matches_reference(scene, spec.zones, (window,), scene.built_fraction, configs)

    def test_each_stage_is_one_call_on_the_whole_stack(self, monkeypatch):
        grid = GridSpec(ncols=6, nrows=6, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        window = EventWindow(MonthIndex(2018, 10), 3, 2)
        zones = tile_zones(grid, 2, 2, [0.1, 0.3, 0.5, 0.7])
        noise = NoiseSpec(cloud_rate=0.3, corruption_scale=1.5, bloom_rate=0.2)
        scene = generate_scene(SceneSpec(seed=5, grid=grid, zones=zones, months=window, base_radiance=20.0, noise=noise))
        calls = []
        for name in ("quality_filter_and_impute", "threshold"):
            monkeypatch.setattr(timeseries, name, counted(calls, name, getattr(timeseries, name)))
        for name in ("apply_built_mask", "high_quality_mask"):
            monkeypatch.setattr(preprocess, name, counted(calls, name, getattr(preprocess, name)))
        monkeypatch.setattr(timeseries, "built_keep", counted(calls, "built_keep", timeseries.built_keep))
        cells = {zone.zone_id: np.flatnonzero(rasterize_zone(zone, grid).inside) for zone in zones}
        configs = enumerate_configs(Dataset.VSC_NTL)
        chain = series_by_config(scene.radiance, scene.quality, scene.built_fraction, cells, configs, (window,))
        assert len(list(chain)) == 12
        # one call per branch of the stage tree, never one per month: the stack has six. The built
        # mask masks no stack: its kept cells are found once and each built config sums only those
        assert {name: calls.count(name) for name in set(calls)} == {
            "quality_filter_and_impute": 1,
            "threshold": 4,
            "built_keep": 1,
            "high_quality_mask": 1,
        }


def sweep_spec(n):
    """A noisy VSC-NTL scene on an n x n grid that 64 zones tile, over a 25-month window."""
    grid = GridSpec(n, n, 0.0, 0.0, 1.0)
    zones = tile_zones(grid, 8, 8, [0.01 * (k + 1) for k in range(64)])
    noise = NoiseSpec(gaussian_sigma=0.05, cloud_rate=0.3, corruption_scale=1.5, bloom_rate=0.01)
    return SceneSpec(5, grid, zones, EventWindow(MonthIndex(2018, 10), 12, 12), 25.0, Dataset.VSC_NTL, noise=noise)


def sweep_inputs(spec):
    """series_by_config's stacks, built grid and zone cells for a scene, referenced by nothing else."""
    scene = generate_scene(spec)
    return scene.radiance, scene.quality, scene.built_fraction, spec.columns.positions


class TestSweepReleasesEachCube:
    def test_each_cube_dies_after_its_last_stage(self, monkeypatch):
        spec = sweep_spec(16)
        radiance, quality, built, cells = sweep_inputs(spec)
        inputs = {"radiance": weakref.ref(radiance.values), "quality": weakref.ref(quality.values)}
        impute = preprocess.quality_filter_and_impute

        def recording(*args):
            base = impute(*args)
            inputs["base"] = weakref.ref(base.values)  # the quality pass's result
            return base

        monkeypatch.setattr(timeseries, "quality_filter_and_impute", recording)
        chain = series_by_config(radiance, quality, built, cells, enumerate_configs(Dataset.VSC_NTL), (spec.months,))
        del radiance, quality
        alive = [(config.label, {name: cube() is not None for name, cube in inputs.items()}) for config, _ in chain]
        assert alive == [
            (label, {"radiance": True, "quality": True})
            for label in ("raw", "clip", "remove", "built", "clip+built", "remove+built")
        ] + [
            # the quality pass is the last reader of both stacks; its result dies with the last threshold below it
            (label, {"radiance": False, "quality": False, "base": label in ("quality", "clip+quality")})
            for label in (
                "quality",
                "clip+quality",
                "remove+quality",
                "built+quality",
                "clip+built+quality",
                "remove+built+quality",
            )
        ]

    def test_any_config_order_serves_every_config_after_both_cubes_die(self):
        # run.json may list the labels in any order: here the last base is the first to be served
        spec = sweep_spec(16)
        radiance, quality, built, cells = sweep_inputs(spec)
        cubes = [weakref.ref(radiance.values), weakref.ref(quality.values)]
        configs = enumerate_configs(Dataset.VSC_NTL)[::-1]
        chain = series_by_config(radiance, quality, built, cells, configs, (spec.months,))
        del radiance, quality
        alive = [(config.label, [cube() is not None for cube in cubes]) for config, _ in chain]
        assert alive == [(config.label, [False, False]) for config in configs]


class TestSweepMemoryBudget:
    @pytest.fixture(autouse=True)
    def warm(self):
        # first calls import and cache; they are not the sweep's cost
        spec = sweep_spec(8)
        list(series_by_config(*sweep_inputs(spec), enumerate_configs(Dataset.VSC_NTL), (spec.months,)))

    def test_a_twelve_config_sweep_peaks_within_twice_its_inputs(self):
        # Bound as a multiple of the handed-over inputs (two stacks of 9 bytes per cell-month and the
        # built grid, 1.88 MB here), the inputs included. Measured with numpy 2.4: 1.73; 1.78 when the
        # quality pass's refill temporaries spanned whole months, and 2.64 when each built config
        # masked a copy of its branch and the chain held every input to the end. The margin is 0.15.
        spec = sweep_spec(64)
        configs = enumerate_configs(Dataset.VSC_NTL)
        tracemalloc.start()
        try:
            inputs = sweep_inputs(spec)
            size = sum(array.nbytes for raster in inputs[:3] for array in (raster.values, raster.missing))
            tracemalloc.reset_peak()
            chain = series_by_config(*inputs, configs, (spec.months,))
            del inputs
            assert len(list(chain)) == 12
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.73 + 0.15) * size


@st.composite
def loaded_chain_inputs(draw, dataset):
    """chain_inputs with months left out, nodata cells, and zones that overlap, cover part of the grid or none of it.

    Returns (scene, zones, windows, built, files): ``files`` are the
    (file name, grid) pairs of the dataset directory. For VNP46A2 some
    months are written as daily files instead, and the scene holds their
    whole-grid composites.
    """
    scene, zones, windows, built = draw(chain_inputs(dataset))
    grid = scene.spec.grid
    # overlaps the tiles and runs off the grid's lower-left edge
    over = Zone("OVER", (rect_ring(-2.0, -1.0, grid.ncols / 2 + 0.3, grid.nrows / 2),), 0.2)
    # any of the tiles, in any order, with or without OVER and the off-grid zone;
    # with no tile and no OVER, no zone covers a pixel-centre
    tiles, off = zones[:-1], zones[-1:]
    picked = draw(st.lists(st.sampled_from(range(len(tiles))), unique=True), label="tiles")
    zones = (
        tuple(tiles[i] for i in picked)
        + draw(st.sampled_from(((), (over,))), label="over")
        + draw(st.sampled_from(((), off)), label="off")
    )
    months = scene.radiance.months
    dropped = draw(st.sets(st.sampled_from(months), max_size=len(months) - 1), label="dropped")
    kept = [m for m in months if m not in dropped]
    # nodata cells in every kind of file
    rng = np.random.default_rng(draw(st.integers(0, 99), label="nodata seed"))
    rate = draw(st.sampled_from((0.0, 0.2)), label="nodata rate")

    def holed(grid):
        return grid.with_values(grid.values, rng.random(grid.spec.shape) < rate)

    # a dataset with no built-fraction file as well
    built = draw(st.sampled_from((holed(built), None)), label="built")
    radiance = {m: holed(scene.radiance.get(m)) for m in kept}
    quality = {m: holed(scene.quality.get(m)) for m in kept}
    daily = draw(st.sets(st.sampled_from(kept)) if dataset is Dataset.VNP46A2 else st.just(set()), label="daily")
    files = []
    for month in daily:
        # 1-4 days around the month's grid, each with its own nodata cells and, on some cells, another word
        n_days = draw(st.integers(1, 4), label="days")
        month_radiance, month_quality = radiance[month], quality[month]
        days = [
            holed(month_radiance.with_values(month_radiance.values * rng.uniform(0.5, 1.5, grid.shape)))
            for _ in range(n_days)
        ]
        words = [
            holed(
                month_quality.with_values(
                    np.where(rng.random(grid.shape) < 0.5, month_quality.values, rng.choice([50, 242, 114, 370], grid.shape))
                )
            )
            for _ in range(n_days)
        ]
        for day, (day_radiance, day_words) in enumerate(zip(days, words), start=1):
            files += [(f"{month}-{day:02d}.asc", day_radiance), (f"{month}-{day:02d}.qf.asc", day_words)]
        radiance[month] = monthly_median_composite(days)
        quality[month] = _majority_quality_composite(words)
    monthly = [month for month in kept if month not in daily]
    files += [(f"{month}.asc", radiance[month]) for month in monthly]
    files += [(f"{month}.qf.asc", quality[month]) for month in monthly]
    if built is not None:
        files.append((BUILT_FRACTION_FILENAME, built))
    scene = dataclasses.replace(
        scene,
        radiance=RasterStack(kept, [radiance[m] for m in kept]),
        quality=RasterStack(kept, [quality[m] for m in kept]),
        built_fraction=built if built is not None else scene.built_fraction,
    )
    return scene, zones, windows, built, files


class TestLoadedColumnsMatchWholeGrids:
    """load_dataset -> zone cells -> series_by_config equals run_pipeline -> zonal_mean on whole grids."""

    @pytest.mark.parametrize("dataset", list(Dataset))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bit_identical(self, dataset, data):
        scene, zones, windows, built, files = data.draw(loaded_chain_inputs(dataset))
        configs = enumerate_configs(dataset)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for name, grid in files:
                write_grid(grid, directory / name)
            months = scene.radiance.months
            source = DatasetConfig(dataset.value, dataset, directory, directory)
            if built is None:
                # the load refuses the built configs, so only the others run
                with pytest.raises(ConfigError, match="^built masking requested but .* not found$"):
                    load_dataset(source, months[0], months[-1], configs, zones)
                configs = [config for config in configs if not config.built_mask]
            loaded = load_dataset(source, months[0], months[-1], configs, zones)
        radiance, quality, loaded_built, positions = loaded
        assert list(positions) == [zone.zone_id for zone in zones]
        assert radiance.spec.size <= max(sum(p.size for p in positions.values()), 1)
        chain = series_by_config(radiance, quality, loaded_built, positions, configs, windows)
        assert_chain_matches_reference(scene, zones, windows, built, configs, chain)


class TestRollingBaseline:
    def test_mean_of_trailing_window(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 99.0])
        assert rolling_baseline(series, start + 6) == 10.5

    def test_event_month_is_excluded(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0, 10.0, 500.0])
        assert rolling_baseline(series, start + 2) == 10.0

    def test_missing_months_skipped(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [8.0, float("nan"), 12.0, 0.0])
        assert rolling_baseline(series, start + 3) == 10.0

    def test_no_usable_history_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [float("nan"), float("nan"), 5.0])
        assert math.isnan(rolling_baseline(series, start + 2))
        assert math.isnan(rolling_baseline(series, start))

    def test_baseline_within_history_envelope(self):
        rng = np.random.default_rng(89)
        start = MonthIndex(2017, 1)
        for _ in range(50):
            values = [float(v) if rng.random() > 0.3 else float("nan") for v in rng.uniform(0, 50, 14)]
            series = series_from(start, values)
            t = start + int(rng.integers(1, 14))
            baseline = rolling_baseline(series, t)
            history = [series.get(t - d) for d in range(1, BASELINE_MONTHS + 1)]
            usable = [v for v in history if not math.isnan(v)]
            if not usable:
                assert math.isnan(baseline)
            else:
                assert min(usable) <= baseline <= max(usable)


def month_keyed_baseline(series, t):
    """The definition: mean of the non-missing series.get(t - d), d = BASELINE_MONTHS..1."""
    usable = [v for v in (series.get(t - d) for d in range(BASELINE_MONTHS, 0, -1)) if not math.isnan(v)]
    return float(np.mean(usable)) if usable else float("nan")


def month_keyed_percent_change(series, t):
    x = series.get(t)
    baseline = month_keyed_baseline(series, t)
    if math.isnan(x) or math.isnan(baseline) or baseline <= 1e-6:
        return float("nan")
    return 100.0 * (x - baseline) / baseline


radiances = st.one_of(
    st.just(float("nan")),
    st.just(0.0),
    st.just(-0.0),
    st.just(1e-6),
    st.floats(min_value=0.0, max_value=1e-5),
    st.floats(min_value=0.0, max_value=500.0),
)


# radiance near the float limit, of either sign, whose baselines and changes overflow
extreme_radiances = st.one_of(
    radiances,
    st.floats(min_value=1e300, max_value=sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPositionalSliceMatchesMonthKeyedDefinition:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
        data=st.data(),
    )
    def test_bit_identical(self, values, start, data):
        series = series_from(start, values)
        n, w = len(values), BASELINE_MONTHS
        # t before the start, inside the series and past its end
        t = start + data.draw(st.integers(-w - 3, n + w + 3), label="offset")
        assert rolling_baseline(series, t).hex() == month_keyed_baseline(series, t).hex()
        assert percent_change(series, t).hex() == month_keyed_percent_change(series, t).hex()


def np_mean_baseline(series, t):
    """rolling_baseline as np.mean defined it: the reference for its core in Python floats."""
    i = t - series.start
    window = series.values[max(i - BASELINE_MONTHS, 0) : max(i, 0)]
    usable = [v for v in window if not np.isnan(v)]
    if not usable:
        return float("nan")
    with np.errstate(over="ignore"):
        return float(np.mean(usable))


def np_mean_percent_change(series, t):
    """percent_change on np_mean_baseline."""
    x = series.get(t)
    baseline = np_mean_baseline(series, t)
    if np.isnan(x) or np.isnan(baseline) or baseline <= 1e-6:
        return float("nan")
    change = 100.0 * (x - baseline) / baseline
    return change if math.isfinite(change) else float("nan")


def np_mean_event_drop(series, window):
    change = np_mean_percent_change(series, window.event_month)
    return -change if not np.isnan(change) else float("nan")


# NaN for windows of 0 to 6 usable months; both zeros, subnormals, and magnitudes whose sums overflow
core_values = st.one_of(
    st.just(float("nan")),
    st.sampled_from([0.0, -0.0, 1.0, 1e16, 1e-6, 5e-324, -5e-324]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e307, max_value=sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestScalarCoreMatchesNpMean:
    """rolling_baseline, percent_change and event_drop, in Python floats alone, equal their np.mean forms."""

    @settings(max_examples=1000, deadline=None)
    @given(
        values=st.lists(core_values, min_size=1, max_size=12),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
        data=st.data(),
    )
    @example(values=[1e16, 1.0, 1.0, 5.0], start=MonthIndex(2018, 1), data=None)  # a compensated sum() differs
    @example(values=[-0.0, -0.0, 1.0], start=MonthIndex(2018, 1), data=None)  # np.mean's sum starts from +0.0
    @example(values=[1e308, 1e308, float("nan"), 1.0], start=MonthIndex(2018, 1), data=None)  # the sum overflows
    def test_bit_identical(self, values, start, data):
        series = series_from(start, values)
        n, w = len(values), BASELINE_MONTHS
        offsets = range(-2, n + w + 2) if data is None else [data.draw(st.integers(-w - 2, n + w + 2), label="t")]
        for offset in offsets:
            t = start + offset
            assert rolling_baseline(series, t).hex() == np_mean_baseline(series, t).hex()
            assert percent_change(series, t).hex() == np_mean_percent_change(series, t).hex()
            assert timeseries.change_at(series.values, offset).hex() == np_mean_percent_change(series, t).hex()
            window = EventWindow(t, months_before=max(offset, 0), months_after=0)
            assert event_drop(series, window).hex() == np_mean_event_drop(series, window).hex()

    def test_the_1e16_window_tells_a_compensated_sum_from_np_mean(self):
        # 1e16 + 1.0 rounds back to 1e16, so summing in order drops both ones; math.fsum, as sum() does from
        # Python 3.12, keeps them
        series = series_from(MonthIndex(2018, 1), [1e16, 1.0, 1.0, 5.0])
        t = MonthIndex(2018, 4)
        assert rolling_baseline(series, t) == np_mean_baseline(series, t) == (1e16 + 1.0 + 1.0) / 3
        assert rolling_baseline(series, t) != math.fsum([1e16, 1.0, 1.0]) / 3


class TestBatchMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(extreme_radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
    )
    def test_bit_identical(self, values, start):
        series = series_from(start, values)
        baselines = [rolling_baseline(series, month).hex() for month in series.months]
        changes = [percent_change(series, month) for month in series.months]
        assert [float(b).hex() for b in rolling_baselines(series.values)] == baselines
        assert [float(c).hex() for c in percent_changes(series.values)] == [c.hex() for c in changes]
        # a change is finite or undefined
        assert not any(math.isinf(c) for c in changes)

    def test_window_is_short_enough_to_sum_in_order(self):
        # rolling_baselines sums each window in order, which equals np.mean's
        # sum only below 8 values: from 8 on np.add.reduce sums pairwise
        assert 1 <= BASELINE_MONTHS <= 7
        for n, in_order in ((7, True), (8, False)):
            values = [1e16] + [1.0] * (n - 1)  # 1e16 + 1.0 rounds back to 1e16; 1e16 + 2.0 does not
            assert (np.mean(values) == np.cumsum(values)[-1] / n) == in_order

    def test_batch_window_slides_over_the_last_six_months(self):
        # early months average what history they have; the eighth drops the first
        values = np.arange(1.0, 9.0)
        assert rolling_baselines(values).tolist()[1:] == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5]
        assert math.isnan(rolling_baselines(values)[0])
        assert percent_changes(values).tolist()[1:] == [100.0] * 6 + [100.0 * (8.0 - 4.5) / 4.5]

    def test_zero_month_rows_give_empty_results(self):
        assert rolling_baselines(np.empty((3, 0))).shape == (3, 0)
        assert percent_changes(np.empty((3, 0))).shape == (3, 0)

    def test_no_public_function_takes_a_baseline_length(self):
        for function, params in (
            (rolling_baseline, ["series", "t"]),
            (percent_change, ["series", "t"]),
            (rolling_baselines, ["values"]),
            (percent_changes, ["values"]),
            (event_drop, ["series", "window"]),
            # bench/tracing reads the CSV path as the second positional argument
            (write_series_csv, ["series", "path", "changes"]),
        ):
            assert list(inspect.signature(function).parameters) == params


class TestMatrixMatchesScalar:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n_months=st.integers(1, 30),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
    )
    def test_bit_identical(self, data, n_months, start):
        # (zones x months), NaN-bearing
        row = st.lists(extreme_radiances, min_size=n_months, max_size=n_months)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        baselines = rolling_baselines(np.array(rows))
        changes = percent_changes(rows)
        assert baselines.shape == changes.shape == (len(rows), n_months)
        assert not np.isinf(changes).any()
        for row, row_baselines, row_changes in zip(rows, baselines.tolist(), changes.tolist()):
            series = series_from(start, row)
            months = series.months
            assert [b.hex() for b in row_baselines] == [rolling_baseline(series, m).hex() for m in months]
            assert [c.hex() for c in row_changes] == [percent_change(series, m).hex() for m in months]


class TestPercentChange:
    def test_forty_percent_drop(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 6 + [6.0])
        assert percent_change(series, start + 6) == -40.0

    def test_missing_event_value_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 6 + [float("nan")])
        assert math.isnan(percent_change(series, start + 6))

    def test_undefined_baseline_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [5.0, 6.0])
        assert math.isnan(percent_change(series, start))

    def test_near_dark_baseline_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [0.0] * 6 + [5.0])
        assert math.isnan(percent_change(series, start + 6))
        dim = series_from(start, [1e-7] * 6 + [5.0])
        assert math.isnan(percent_change(dim, start + 6))

    def test_scale_invariance(self):
        rng = np.random.default_rng(97)
        start = MonthIndex(2018, 1)
        for _ in range(30):
            values = rng.uniform(5.0, 50.0, 9)
            t = start + int(rng.integers(6, 9))
            base = series_from(start, values)
            scaled = series_from(start, values * 7.5)
            assert percent_change(scaled, t) == pytest.approx(percent_change(base, t), rel=1e-12)


class TestEventDrop:
    def test_drop_is_negated_percent_change(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 12 + [6.0] + [10.0] * 12)
        window = EventWindow(start + 12)
        assert event_drop(series, window) == 40.0

    def test_brightening_gives_negative_drop(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 12 + [15.0] + [10.0] * 12)
        assert event_drop(series, EventWindow(start + 12)) == -50.0

    def test_undefined_change_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [float("nan")] * 12 + [6.0] + [10.0] * 12)
        assert math.isnan(event_drop(series, EventWindow(start + 12)))


class TestSeriesCsv:
    def test_round_trip_preserves_values_and_gaps(self, tmp_path):
        start = MonthIndex(2017, 11)
        series = series_from(start, [10.0, 463.83, float("nan"), 0.25, 1e-7])
        path = tmp_path / "zone.csv"
        write_series_csv(series, path, percent_changes(series.values).tolist())
        back = read_series_csv(path)
        assert back.zone_id == series.zone_id
        assert back.months == series.months
        for a, b in zip(back.values, series.values):
            assert (math.isnan(a) and math.isnan(b)) or a == b

    def test_header_and_empty_fields(self, tmp_path):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 6 + [6.0])
        path = tmp_path / "zone.csv"
        write_series_csv(series, path, percent_changes(series.values).tolist())
        lines = path.read_text().splitlines()
        assert lines[0] == "zone_id,year,month,mean_radiance,percent_change"
        # first row has no trailing history, so percent_change is empty
        assert lines[1] == "Z,2018,1,10.0,"
        assert lines[7] == "Z,2018,7,6.0,-40.0"

    def test_multiple_zones_in_one_file_rejected(self, tmp_path):
        path = tmp_path / "zone.csv"
        path.write_text(
            "zone_id,year,month,mean_radiance,percent_change\nA,2018,1,1.0,\nB,2018,2,2.0,\n"
        )
        with pytest.raises(ReportError, match="one zone"):
            read_series_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zone.csv"
        path.write_text("zone_id,year,month,mean_radiance,percent_change\n")
        with pytest.raises(ReportError, match="empty"):
            read_series_csv(path)

    @pytest.mark.parametrize("first, second", [(1, 3), (3, 1), (1, 1)])
    def test_csv_skipping_a_month_is_refused(self, tmp_path, first, second):
        # a missing month has one spelling: its row, with an empty mean_radiance
        path = tmp_path / "zone.csv"
        path.write_text(f"zone_id,year,month,mean_radiance,percent_change\nZ,2018,{first},1.0,\nZ,2018,{second},3.0,\n")
        with pytest.raises(ReportError) as raised:
            read_series_csv(path)
        assert str(raised.value) == f"{path}: line 3: month 2018-{second:02d} does not follow the row before"


def row_by_row_series_csv(series, path):
    """The series CSV as written one row at a time through the scalar percent_change."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year", "month", "mean_radiance", "percent_change"])
        for month, value in zip(series.months, series.values):
            change = percent_change(series, month)
            writer.writerow(
                [
                    series.zone_id,
                    month.year,
                    month.month,
                    "" if math.isnan(value) else repr(float(value)),
                    "" if math.isnan(change) else repr(change),
                ]
            )


class TestSeriesCsvMatchesRowByRowWriter:
    @settings(max_examples=100, deadline=None)
    @given(
        zone_id=st.one_of(
            st.sampled_from(['a,"b', "\r", "\n", "a\r\nb", '"', '""', '"q"', " edge ", "  ", "\tz\t"]),
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
        ),
        values=st.lists(radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(1, 9999), st.integers(1, 12)),
    )
    def test_same_bytes(self, tmp_path_factory, zone_id, values, start):
        root = tmp_path_factory.mktemp("csv")
        series = series_from(start, values, zone_id)
        write_series_csv(series, root / "batch.csv", percent_changes(series.values).tolist())
        row_by_row_series_csv(series, root / "rows.csv")
        assert (root / "batch.csv").read_bytes() == (root / "rows.csv").read_bytes()
        # as extract writes it: the series' row of a (zones x months) computation
        changes = percent_changes([series.values, series.values[::-1]])[0].tolist()
        write_series_csv(series, root / "matrix.csv", changes=changes)
        assert (root / "matrix.csv").read_bytes() == (root / "rows.csv").read_bytes()
        # whatever extract writes, report reads back bit for bit
        back = read_series_csv(root / "batch.csv")
        assert (back.zone_id, back.start) == (zone_id, start)
        assert [v.hex() for v in back.values] == [v.hex() for v in series.values]


def read_outcome(read, path):
    """What a reader makes of a file: the series bit for bit, or its error's class and message."""
    try:
        series = read(path)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)
    return series.zone_id, series.start, [v.hex() for v in series.values]


class TestSeriesCsvRowChecks:
    @pytest.mark.parametrize(
        "row, detail",
        [
            ("Z,x,13,bright", "expected 5 fields, got 4"),
            ("Z,2018,1,1.0,,", "expected 5 fields, got 6"),
            ("", "expected 5 fields, got 0"),  # a blank line
            ("Z,x,13,bright,", "invalid literal for int() with base 10: 'x'"),
            ("Z,2018,x,bright,", "invalid literal for int() with base 10: 'x'"),
            ("Z,2018,13,bright,", "month must be 1-12, got 13"),
            ("Z,2018,0,bright,", "month must be 1-12, got 0"),
            ("Z,2018,12,bright,", "could not convert string to float: 'bright'"),
            # spellings int() and float() take but write_series_csv never writes
            ("Z, +2018,1,1.0,", "year ' +2018' is not plain digits"),
            ("Z,02018,1,1.0,", "year '02018' is not plain digits"),
            ("Z,2018,07,1.0,", "month '07' is not plain digits"),
            ("Z,2018,+7,1.0,", "month '+7' is not plain digits"),
            ("Z,2018,7 ,1.0,", "month '7 ' is not plain digits"),
            ("Z,2018,\u0667,1.0,", "month '\u0667' is not plain digits"),
            ("Z,-5,13,1.0,", "year '-5' is not plain digits"),
            ("Z,2018,13,nan,", "month must be 1-12, got 13"),
            ("Z,2018,2,nan,", "radiance 'nan' is not finite"),
            ("Z,2018,2,inf,", "radiance 'inf' is not finite"),
            ("Z,2018,2,-Infinity,", "radiance '-Infinity' is not finite"),
            ("Z,2018,2,1e999,", "radiance '1e999' is not finite"),
            # radiance spellings float() takes but write_series_csv, which writes repr, never writes
            ("Z,2018,2,1_5.0,", "radiance '1_5.0' is not spelled as repr spells it: 15.0"),
            ("Z,2018,2,+1.5,", "radiance '+1.5' is not spelled as repr spells it: 1.5"),
            ("Z,2018,2, 1.5,", "radiance ' 1.5' is not spelled as repr spells it: 1.5"),
            ("Z,2018,2,15,", "radiance '15' is not spelled as repr spells it: 15.0"),
            ("Z,2018,2,1.50,", "radiance '1.50' is not spelled as repr spells it: 1.5"),
            ("Z,2018,2,1e-5,", "radiance '1e-5' is not spelled as repr spells it: 1e-05"),
            ("Z,2018,2,-0,", "radiance '-0' is not spelled as repr spells it: -0.0"),
            ("Z,2018,13,1_5.0,", "month must be 1-12, got 13"),
            ("X,2018,2,+1.5,", "radiance '+1.5' is not spelled as repr spells it: 1.5"),
        ],
    )
    def test_checks_within_a_row_keep_their_order(self, tmp_path, row, detail):
        path = tmp_path / "Z.csv"
        path.write_text(f"zone_id,year,month,mean_radiance,percent_change\nZ,2018,1,1.0,\n{row}\n")
        assert read_outcome(read_series_csv, path) == (ReportError, f"{path}: line 3: {detail}")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "zone_id,year,month,mean_radiance\nZ,2018,1,1.0\n",
            "zone_id,month,year,mean_radiance,percent_change\nZ,1,2018,1.0,\n",
            "zone_id,year,month,mean_radiance,percent_change,note\nZ,2018,1,1.0,,\n",
            "\nzone_id,year,month,mean_radiance,percent_change\nZ,2018,1,1.0,\n",
        ],
    )
    def test_any_other_header_is_refused(self, tmp_path, text):
        path = tmp_path / "Z.csv"
        path.write_text(text)
        expected = f"{path}: the first line is not the header zone_id,year,month,mean_radiance,percent_change"
        assert read_outcome(read_series_csv, path) == (ReportError, expected)


class TestSeriesCsvPlainSpellings:
    def test_year_zero_and_the_last_month_read(self, tmp_path):
        path = tmp_path / "Z.csv"
        path.write_text("zone_id,year,month,mean_radiance,percent_change\nZ,0,12,1.5,\nZ,1,1,,\n")
        assert read_outcome(read_series_csv, path) == ("Z", MonthIndex(0, 12), [(1.5).hex(), "nan"])


class TestUndecodableSeriesFile:
    def test_names_the_first_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "Z.csv"
        path.write_bytes(b"zone_id,year,month,mean_radiance,percent_change\r\nZ03,2018,1,\xff,\r\n")
        assert read_outcome(read_series_csv, path) == (ReportError, f"{path}: not UTF-8 text: byte 60 is 0xff")


class TestOverlongField:
    def test_field_over_the_csv_limit_is_a_report_error(self, tmp_path):
        path = tmp_path / "Z.csv"
        path.write_text(f"zone_id,year,month,mean_radiance,percent_change\nZ,2018,1,{'1' * 131_073},\n")
        with pytest.raises(ReportError) as raised:
            read_series_csv(path)
        assert str(raised.value) == f"{path}: line 2: field larger than field limit (131072)"


# zone ids csv.writer writes as they are, and ones it quotes, which only the row-by-row reader reads
ZONE_IDS = st.one_of(
    st.sampled_from(["Z01", "", " edge ", "\tz\t", "\x00", "\x85 ", 'a,"b', "\r", "\n", "a\r\nb", '"', "q,"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
# radiances as a window table holds them, with the values whose repr takes an exponent
WRITTEN_RADIANCES = st.one_of(radiances, st.sampled_from([-0.0, 5e-324, 1e-05, 1e16, 1.5e300]))


SERIES_HEADER = "zone_id,year,month,mean_radiance,percent_change\r\n"


def text_of(path):
    """A series file's text, read as read_series_csv reads it."""
    return path.read_bytes().decode()


def outcomes_by_reader(path):
    """What the reference makes of a file, and what read_series_csv and the whole-text reader do, where it reads."""
    text = text_of(path)
    reference = read_outcome(lambda p: _read_rows(p, text), path)
    fast = _read_written_form(text)
    fast_outcome = reference if fast is None else read_outcome(lambda p: fast, path)
    return reference, read_outcome(read_series_csv, path), fast_outcome


class TestWrittenFormMatchesRowByRow:
    """The whole-text reader reads every file write_series_csv writes as csv.reader does, and declines the rest."""

    @settings(max_examples=200, deadline=None)
    @given(
        zone_id=ZONE_IDS,
        values=st.lists(WRITTEN_RADIANCES, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(0, 9999), st.integers(1, 12)),
    )
    def test_written_files_read_the_same(self, tmp_path_factory, zone_id, values, start):
        path = tmp_path_factory.mktemp("csv") / "Z.csv"
        series = series_from(start, values, zone_id)
        write_series_csv(series, path, percent_changes(series.values).tolist())
        written = (zone_id, start, [v.hex() for v in series.values])
        assert outcomes_by_reader(path) == (written,) * 3
        # a zone csv.writer leaves unquoted is read without csv.reader
        assert (_read_written_form(text_of(path)) is None) == (_csv_field(zone_id) != zone_id)

    DAMAGES = [
        "LF rows", "CR rows", "line break", "quoted", "over the limit", "radiance", "month", "year", "short",
        "long", "zone", "emptied", "deleted", "header", "duplicated", "undecodable",
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(WRITTEN_RADIANCES, min_size=3, max_size=8),
        start=st.builds(MonthIndex, st.integers(0, 9999), st.integers(1, 12)),
        data=st.data(),
    )
    def test_damaged_texts_read_the_same(self, tmp_path_factory, values, start, data):
        path = tmp_path_factory.mktemp("csv") / "Z.csv"
        series = series_from(start, values, "Z01")
        write_series_csv(series, path, percent_changes(series.values).tolist())
        rows = [line.split(",") for line in text_of(path).split("\r\n")[:-1]]
        at = data.draw(st.integers(1, len(rows) - 1), label="row")
        row = rows[at]  # zone_id, year, month, radiance, change
        kind = data.draw(st.sampled_from(self.DAMAGES), label="damage")
        ending = "\r\n"
        if kind in ("LF rows", "CR rows"):
            ending = {"LF rows": "\n", "CR rows": "\r"}[kind]
        elif kind == "line break":  # in a field, the change included, which the written form does not read
            field = data.draw(st.integers(0, 4), label="field")
            row[field] = data.draw(st.sampled_from(["{}\n", "\n{}", "{}\r", "{}\r\n"])).format(row[field])
        elif kind == "quoted":  # csv.reader reads a quoted field as its text
            field = data.draw(st.integers(0, 4), label="field")
            row[field] = f'"{row[field]}"'
        elif kind == "over the limit":
            row[data.draw(st.integers(0, 4), label="field")] = "1" * 131_073
        elif kind == "radiance":
            spellings = ["1_5.0", f"+{row[3]}", f" {row[3]}", f"{row[3]}0"]
            row[3] = data.draw(st.sampled_from(["x", "inf", "-inf", "nan"] + spellings))
        elif kind == "month":
            row[2] = data.draw(st.sampled_from(["13", "0", f"0{row[2]}", f"+{row[2]}", f" {row[2]}"]))
        elif kind == "year":
            row[1] = data.draw(st.sampled_from(["-5", f"0{row[1]}", f"+{row[1]}", f"{row[1]} "]))
        elif kind == "short":
            del row[data.draw(st.integers(0, 4), label="kept fields") :]
        elif kind == "long":
            row.append(data.draw(st.sampled_from(["", "1.0", "Z01"])))
        elif kind == "zone":
            row[0] = data.draw(st.sampled_from(["Z02", "Z01 ", ""]))
        elif kind == "emptied":
            rows = rows[:1]
        elif kind == "deleted":
            del rows[at]
        elif kind == "header":
            rows[0] = rows[0][::-1]
        elif kind == "duplicated":
            rows.insert(at, list(row))
        else:
            row[data.draw(st.integers(0, 4), label="field")] += "\udcff"  # the byte 0xff
        text = "".join(",".join(fields) + ending for fields in rows)
        path.write_bytes(text.encode(errors="surrogateescape"))
        if kind == "undecodable":
            byte = text.encode(errors="surrogateescape").index(b"\xff")
            assert read_outcome(read_series_csv, path) == (ReportError, f"{path}: not UTF-8 text: byte {byte} is 0xff")
        else:
            reference, read, fast = outcomes_by_reader(path)
            assert read == fast == reference


    @pytest.mark.parametrize("change", ["5\n", "\n5", "5\r", "\r5", "\r", "\n", "5\r\n"])
    def test_line_break_in_a_change_field_reads_the_same(self, tmp_path, change):
        # the written form never reads the change field, so its line breaks are found by counting them
        path = tmp_path / "Z.csv"
        path.write_bytes(f"{SERIES_HEADER}Z,2018,1,1.5,{change}\r\nZ,2018,2,2.5,\r\n".encode())
        reference, read, fast = outcomes_by_reader(path)
        assert read == fast == reference and reference[0] is ReportError


def csv_writer_series(series, changes, path):
    """The series CSV as csv.writer writes it, each radiance and change spelled by _field one value at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year", "month", "mean_radiance", "percent_change"])
        for month, value, change in zip(series.months, series.values, changes):
            writer.writerow([series.zone_id, month.year, month.month, _field(value), _field(change)])


class TestTableSpellingMatchesCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        zone_ids=st.lists(ZONE_IDS, min_size=1, max_size=4, unique=True),
        n_months=st.integers(1, 30),
        start=st.builds(MonthIndex, st.integers(0, 9999), st.integers(1, 12)),
        data=st.data(),
    )
    def test_same_bytes(self, tmp_path_factory, zone_ids, n_months, start, data):
        root = tmp_path_factory.mktemp("csv")
        cells = st.one_of(WRITTEN_RADIANCES, extreme_radiances, st.sampled_from([1e-4, -1e-4, 9.999e15, 1e15]))
        table = np.array([data.draw(st.lists(cells, min_size=n_months, max_size=n_months)) for _ in zone_ids])
        changes = percent_changes(table)
        spelled = spell_table(table, changes)
        assert [len(fields) for fields in spelled] == [n_months] * len(zone_ids)
        for zone_id, values, zone_changes, fields in zip(zone_ids, table.tolist(), changes.tolist(), spelled):
            series = series_from(start, values, zone_id)
            assert fields == [f"{_field(v)},{_field(c)}" for v, c in zip(values, zone_changes)]
            write_series_csv(series, root / "table.csv", fields)
            write_series_csv(series, root / "floats.csv", zone_changes)
            csv_writer_series(series, zone_changes, root / "rows.csv")
            written = [(root / name).read_bytes() for name in ("table.csv", "floats.csv", "rows.csv")]
            assert written == [written[2]] * 3

    def test_values_orjson_spells_otherwise_keep_repr(self):
        table = [[math.inf, 1e-05, 1e16, 0.0001, 1e15], [-0.0, math.nan, 5e-324, -1e-05, 9.999e15]]
        changes = [[-math.inf, math.nan, -1e16, 1e-4, 12.5], [math.nan, 0.0, -5e-324, 1.5e300, -0.0]]
        assert spell_table(np.array(table), np.array(changes)) == [
            ["inf,-inf", "1e-05,", "1e+16,-1e+16", "0.0001,0.0001", "1000000000000000.0,12.5"],
            ["-0.0,", ",0.0", "5e-324,-5e-324", "-1e-05,1.5e+300", "9999000000000000.0,-0.0"],
        ]

    def test_a_table_without_zones_or_months_has_no_texts(self):
        assert spell_table(np.empty((0, 3)), np.empty((0, 3))) == []
        assert spell_table(np.empty((2, 0)), np.empty((2, 0))) == [[], []]
