"""Tests for month arithmetic, zone time series, baselines, and drop metrics."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    Dataset,
    EventWindow,
    GridSpec,
    MonthIndex,
    NoiseSpec,
    PipelineError,
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
    tile_zones,
    write_series_csv,
)

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
            cube = np.stack([d.masked_values() for d in days])
            for r in range(2):
                for c in range(2):
                    column = cube[:, r, c]
                    column = column[~np.isnan(column)]
                    if column.size == 0:
                        assert out.missing[r, c]
                    else:
                        assert out.values[r, c] == np.median(column)


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


@st.composite
def chain_inputs(draw, dataset):
    """A small noisy scene, its zones plus an off-grid one, two windows, built grid or None."""
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
    return scene, zones, windows, draw(st.sampled_from((built_map, None)))


def assert_chain_matches_reference(scene, zones, windows, built, configs):
    """series_by_config yields configs in the given order, each equal to run_pipeline + build_zone_series."""
    masks = {zone.zone_id: rasterize_zone(zone, scene.spec.grid) for zone in zones}
    chain = list(series_by_config(scene.radiance, scene.quality, built, masks, configs, windows))
    assert [config for config, _ in chain] == list(configs)
    for config, result in chain:
        try:
            processed = run_pipeline(scene.radiance, scene.quality, built, config)
        except PipelineError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert len(result) == len(windows)
        for window, window_series in zip(windows, result):
            expected = [
                build_zone_series(processed, rasterize_zone(zone, scene.spec.grid), window, zone.zone_id)
                for zone in zones
            ]
            assert [s.zone_id for s in window_series] == [e.zone_id for e in expected]
            for got, want in zip(window_series, expected):
                assert got.months == want.months
                assert [v.hex() for v in got.values] == [v.hex() for v in want.values]


class TestSeriesByConfig:
    @pytest.mark.parametrize("dataset", list(Dataset))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_config_reference(self, dataset, data):
        scene, zones, windows, built = data.draw(chain_inputs(dataset))
        canonical = enumerate_configs(dataset)
        # configs in any order, repeated, or with other tunables, whose stages must not be shared
        tuned = enumerate_configs(
            dataset,
            imputation_window_months=2,
            threshold_lo=1.0,
            threshold_hi=30.0,
            built_fraction_threshold=0.7,
        )
        mixed = st.lists(st.sampled_from(canonical + tuned), min_size=1, max_size=len(canonical) + 2)
        configs = data.draw(st.one_of(st.just(canonical), mixed), label="configs")
        assert_chain_matches_reference(scene, zones, windows, built, configs)

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


class TestRollingBaseline:
    def test_mean_of_trailing_window(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 99.0])
        assert rolling_baseline(series, start + 6, w=6) == 10.5

    def test_event_month_is_excluded(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0, 10.0, 500.0])
        assert rolling_baseline(series, start + 2, w=2) == 10.0

    def test_missing_months_skipped(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [8.0, float("nan"), 12.0, 0.0])
        assert rolling_baseline(series, start + 3, w=3) == 10.0

    def test_no_usable_history_gives_nan(self):
        start = MonthIndex(2018, 1)
        series = series_from(start, [float("nan"), float("nan"), 5.0])
        assert math.isnan(rolling_baseline(series, start + 2, w=2))
        assert math.isnan(rolling_baseline(series, start, w=6))

    def test_bad_window_rejected(self):
        series = series_from(MonthIndex(2018, 1), [1.0, 2.0])
        with pytest.raises(ValueError):
            rolling_baseline(series, MonthIndex(2018, 2), w=0)

    def test_baseline_within_history_envelope(self):
        rng = np.random.default_rng(89)
        start = MonthIndex(2017, 1)
        for _ in range(50):
            values = [float(v) if rng.random() > 0.3 else float("nan") for v in rng.uniform(0, 50, 14)]
            series = series_from(start, values)
            t = start + int(rng.integers(1, 14))
            w = int(rng.integers(1, 8))
            baseline = rolling_baseline(series, t, w)
            history = [series.get(t - d) for d in range(1, w + 1)]
            usable = [v for v in history if not math.isnan(v)]
            if not usable:
                assert math.isnan(baseline)
            else:
                assert min(usable) <= baseline <= max(usable)


def month_keyed_baseline(series, t, w):
    """The definition: mean of the non-missing series.get(t - d), d = w..1."""
    usable = [v for v in (series.get(t - d) for d in range(w, 0, -1)) if not math.isnan(v)]
    return float(np.mean(usable)) if usable else float("nan")


def month_keyed_percent_change(series, t, w):
    x = series.get(t)
    baseline = month_keyed_baseline(series, t, w)
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


class TestPositionalSliceMatchesMonthKeyedDefinition:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
        data=st.data(),
    )
    def test_bit_identical(self, values, start, data):
        series = series_from(start, values)
        n = len(values)
        w = data.draw(st.integers(1, n + 5), label="w")
        # t before the start, inside the series and past its end
        t = start + data.draw(st.integers(-w - 3, n + w + 3), label="offset")
        assert rolling_baseline(series, t, w).hex() == month_keyed_baseline(series, t, w).hex()
        assert percent_change(series, t, w).hex() == month_keyed_percent_change(series, t, w).hex()


class TestBatchMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(2000, 2030), st.integers(1, 12)),
        w=st.integers(1, 13),
    )
    def test_bit_identical(self, values, start, w):
        # w above 7 takes the scalar fallback
        series = series_from(start, values)
        baselines = [rolling_baseline(series, month, w).hex() for month in series.months]
        changes = [percent_change(series, month, w).hex() for month in series.months]
        assert [float(b).hex() for b in rolling_baselines(series, w)] == baselines
        assert [float(c).hex() for c in percent_changes(series, w)] == changes

    @pytest.mark.parametrize("w", [0, -1])
    def test_bad_window_rejected(self, w):
        series = series_from(MonthIndex(2018, 1), [1.0, 2.0])
        with pytest.raises(ValueError):
            rolling_baselines(series, w)
        with pytest.raises(ValueError):
            percent_changes(series, w)


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
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert back.zone_id == series.zone_id
        assert back.months == series.months
        for a, b in zip(back.values, series.values):
            assert (math.isnan(a) and math.isnan(b)) or a == b

    def test_header_and_empty_fields(self, tmp_path):
        start = MonthIndex(2018, 1)
        series = series_from(start, [10.0] * 6 + [6.0])
        path = tmp_path / "zone.csv"
        write_series_csv(series, path)
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

    def test_csv_skipping_a_month_reads_it_as_nan(self, tmp_path):
        path = tmp_path / "zone.csv"
        path.write_text("zone_id,year,month,mean_radiance,percent_change\nZ,2018,3,3.0,\nZ,2018,1,1.0,\n")
        series = read_series_csv(path)
        m = MonthIndex(2018, 1)
        assert len(series.months) == 3
        assert series.get(m) == 1.0
        assert math.isnan(series.get(m + 1))
        assert series.get(m + 2) == 3.0


def row_by_row_series_csv(series, path, w):
    """The series CSV as written one row at a time through the scalar percent_change."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year", "month", "mean_radiance", "percent_change"])
        for month, value in zip(series.months, series.values):
            change = percent_change(series, month, w)
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
            st.just('a,"b'), st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
        ),
        values=st.lists(radiances, min_size=1, max_size=30),
        start=st.builds(MonthIndex, st.integers(1, 9999), st.integers(1, 12)),
        w=st.integers(1, 13),
    )
    def test_same_bytes(self, tmp_path_factory, zone_id, values, start, w):
        root = tmp_path_factory.mktemp("csv")
        series = series_from(start, values, zone_id)
        write_series_csv(series, root / "batch.csv", w)
        row_by_row_series_csv(series, root / "rows.csv", w)
        assert (root / "batch.csv").read_bytes() == (root / "rows.csv").read_bytes()
