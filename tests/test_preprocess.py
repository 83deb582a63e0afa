"""Tests for thresholding, built masking, quality imputation, and pipeline wiring."""

import dataclasses
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntlpipe import (
    ConfigError,
    Dataset,
    GridSpec,
    IntRaster,
    MonthIndex,
    PipelineConfig,
    RasterGrid,
    RasterStack,
    ThresholdMode,
    Zone,
    apply_built_mask,
    config_from_label,
    enumerate_configs,
    high_quality_mask,
    impute_pixel,
    quality_filter_and_impute,
    rect_ring,
    run_pipeline,
    threshold,
    zone_columns,
)
from ntlpipe.preprocess import IMPUTATION_WINDOW_MONTHS, THRESHOLD_HI

SPEC = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=1.0)


def month_range(start, n):
    return [start + i for i in range(n)]


def make_stack(spec, start, frames, missing=None):
    months = month_range(start, len(frames))
    grids = [
        RasterGrid(spec, frame, None if missing is None else missing[i])
        for i, frame in enumerate(frames)
    ]
    return RasterStack(tuple(months), tuple(grids))


def vsc_quality_stack(spec, start, counts):
    months = month_range(start, len(counts))
    return RasterStack(tuple(months), tuple(IntRaster(spec, c) for c in counts))


@st.composite
def near_limit_histories(draw):
    """(frames, counts): 1-16 months of 1-4 pixels' values, anywhere in the float range, and their cloud-free counts.

    Up to 16 months, so the 12-month imputation window cuts some histories short.
    """
    n, k = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    limit = 1.7976931348623157e308
    low = draw(st.sampled_from([0.0, -limit]))
    frames = [draw(st.lists(st.floats(low, limit), min_size=k, max_size=k)) for _ in range(n)]
    counts = [draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)) for _ in range(n)]
    return frames, counts


class TestThreshold:
    def test_clip_pins_values_into_range(self):
        raster = RasterGrid(SPEC, [75.0, 25.0, -3.0, 50.0])
        out = threshold(raster, ThresholdMode.CLIP, lo=0.0, hi=50.0)
        assert list(out.values.ravel()) == [50.0, 25.0, 0.0, 50.0]
        assert not out.missing.any()

    def test_remove_discards_out_of_range(self):
        raster = RasterGrid(SPEC, [75.0, 25.0, -3.0, 50.0])
        out = threshold(raster, ThresholdMode.REMOVE, lo=0.0, hi=50.0)
        assert list(out.missing.ravel()) == [True, False, True, False]
        assert out.values[0, 1] == 25.0

    def test_boundary_values_survive_both_modes(self):
        raster = RasterGrid(SPEC, [0.0, 50.0, 0.0, 50.0])
        for mode in (ThresholdMode.CLIP, ThresholdMode.REMOVE):
            out = threshold(raster, mode)
            assert out == raster

    def test_missing_cells_stay_missing(self):
        raster = RasterGrid(SPEC, [75.0, 25.0, 1.0, 1.0], missing=[False, True, False, False])
        for mode in (ThresholdMode.CLIP, ThresholdMode.REMOVE):
            assert threshold(raster, mode).missing[0, 1]

    def test_mode_accepts_strings(self):
        raster = RasterGrid(SPEC, [75.0, 25.0, -3.0, 50.0])
        assert threshold(raster, "clip") == threshold(raster, ThresholdMode.CLIP)

    def test_none_mode_rejected(self):
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            threshold(raster, ThresholdMode.NONE)

    def test_inverted_bounds_rejected(self):
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            threshold(raster, ThresholdMode.CLIP, lo=50.0, hi=0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            raster = RasterGrid(SPEC, rng.uniform(-20.0, 80.0, SPEC.shape), rng.random(SPEC.shape) < 0.2)
            for mode in (ThresholdMode.CLIP, ThresholdMode.REMOVE):
                once = threshold(raster, mode)
                assert threshold(once, mode) == once

    def test_clip_output_always_within_bounds(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            raster = RasterGrid(SPEC, rng.uniform(-100.0, 200.0, SPEC.shape))
            out = threshold(raster, ThresholdMode.CLIP, lo=0.0, hi=50.0)
            assert np.all(out.values >= 0.0)
            assert np.all(out.values <= 50.0)


class TestBuiltMask:
    def test_threshold_is_inclusive(self):
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        built = RasterGrid(SPEC, [0.49, 0.5, 0.51, 0.0])
        out = apply_built_mask(raster, built, built_fraction_threshold=0.5)
        assert list(out.missing.ravel()) == [True, False, False, True]
        assert out.values[0, 1] == 2.0

    def test_missing_built_fraction_drops_pixel(self):
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        built = RasterGrid(SPEC, [1.0, 1.0, 1.0, 1.0], missing=[False, True, False, False])
        out = apply_built_mask(raster, built)
        assert list(out.missing.ravel()) == [False, True, False, False]

    def test_geometry_mismatch_rejected(self):
        other = GridSpec(ncols=2, nrows=2, x_origin=5.0, y_origin=0.0, cell_size=1.0)
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        built = RasterGrid(other, [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            apply_built_mask(raster, built)

    def test_bad_threshold_rejected(self):
        raster = RasterGrid(SPEC, [1.0, 2.0, 3.0, 4.0])
        built = RasterGrid(SPEC, [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            apply_built_mask(raster, built, built_fraction_threshold=1.5)

    def test_surviving_values_are_untouched(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            raster = RasterGrid(SPEC, rng.uniform(0.0, 60.0, SPEC.shape))
            built = RasterGrid(SPEC, rng.random(SPEC.shape))
            out = apply_built_mask(raster, built)
            kept = out.valid
            assert np.array_equal(out.values[kept], raster.values[kept])


class TestImputePixel:
    def test_inverse_distance_weighted_mean(self):
        history = [(10, 10.0, True), (11, 20.0, True)]
        # weights 1/2 and 1/1: (0.5 * 10 + 1 * 20) / 1.5
        assert impute_pixel(history, t=12) == 16.666666666666668

    def test_single_contributor_passes_through(self):
        assert impute_pixel([(5, 7.25, True)], t=6) == 7.25

    def test_low_quality_history_is_ignored(self):
        history = [(10, 500.0, False), (11, 20.0, True)]
        assert impute_pixel(history, t=12) == 20.0

    def test_no_contributors_gives_nan(self):
        assert math.isnan(impute_pixel([], t=12))
        assert math.isnan(impute_pixel([(10, 5.0, False)], t=12))

    def test_window_is_inclusive_exclusive(self):
        # t - window is in range, t itself and older months are not
        history = [(0, 100.0, True)]
        assert impute_pixel(history, t=12, window=12) == 100.0
        assert math.isnan(impute_pixel(history, t=13, window=12))
        future = [(13, 100.0, True)]
        assert math.isnan(impute_pixel(future, t=12, window=12))

    def test_high_quality_target_month_rejected(self):
        with pytest.raises(ValueError):
            impute_pixel([(12, 5.0, True)], t=12)
        # a low-quality value at t is fine: that is what gets replaced
        assert impute_pixel([(11, 5.0, True), (12, 9.0, False)], t=12) == 5.0

    def test_unordered_history_rejected(self):
        with pytest.raises(ValueError):
            impute_pixel([(11, 5.0, True), (10, 6.0, True)], t=12)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            impute_pixel([(11, 5.0, True)], t=12, window=0)

    def test_result_within_contributor_envelope(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            t = int(rng.integers(20, 200))
            window = int(rng.integers(1, 15))
            n = int(rng.integers(0, 10))
            months = sorted(rng.choice(np.arange(t - 18, t), size=n, replace=False)) if n else []
            history = [
                (int(m), float(rng.uniform(0.0, 100.0)), bool(rng.random() < 0.7)) for m in months
            ]
            result = impute_pixel(history, t, window)
            contributors = [v for m, v, hq in history if hq and t - window <= m < t]
            if not contributors:
                assert math.isnan(result)
            else:
                assert min(contributors) - 1e-9 <= result <= max(contributors) + 1e-9

    def test_constant_history_imputes_the_constant(self):
        history = [(m, 42.0, True) for m in range(5, 12)]
        assert impute_pixel(history, t=12) == 42.0

    def test_weighted_sum_past_the_float_range_still_gives_the_mean(self):
        # (0.5 * 1e308 + 1.5e308) / 1.5 overflows in the numerator; clamping inf gives 1.5e308
        assert impute_pixel([(0, 1e308, True), (1, 1.5e308, True)], t=2) == pytest.approx(1e308 / 3 * 4, rel=1e-15)
        assert impute_pixel([(0, -1e308, True), (1, -1.5e308, True)], t=2) == pytest.approx(-1e308 / 3 * 4, rel=1e-15)


class TestQualityFilterAndImpute:
    def test_trusted_pixels_pass_through_bit_exact(self):
        start = MonthIndex(2018, 1)
        frames = [np.full(SPEC.shape, float(i + 1)) for i in range(3)]
        stack = make_stack(SPEC, start, frames)
        quality = vsc_quality_stack(SPEC, start, [np.ones(SPEC.shape, dtype=int)] * 3)
        assert quality_filter_and_impute(stack, quality, Dataset.VSC_NTL) is stack
        # one untrusted pixel: every trusted one still comes back with its own bits
        frames = [np.array([[-0.0, 0.1], [1e-310, 3.0]]) * (i + 1) for i in range(3)]
        stack = make_stack(SPEC, start, frames)
        counts = [np.ones(SPEC.shape, dtype=int), np.ones(SPEC.shape, dtype=int), np.array([[1, 1], [1, 0]])]
        out = quality_filter_and_impute(stack, vsc_quality_stack(SPEC, start, counts), Dataset.VSC_NTL)
        trusted = np.array(counts) > 0
        assert out.values[trusted].tobytes() == stack.values[trusted].tobytes()
        assert not out.missing.any() and out.values[2, 1, 1] != stack.values[2, 1, 1]

    def test_untrusted_pixel_imputed_from_history(self):
        start = MonthIndex(2018, 1)
        frames = [
            [10.0, 1.0, 1.0, 1.0],
            [20.0, 1.0, 1.0, 1.0],
            [999.0, 1.0, 1.0, 1.0],
        ]
        counts = [
            np.ones(SPEC.shape, dtype=int),
            np.ones(SPEC.shape, dtype=int),
            np.array([[0, 1], [1, 1]]),
        ]
        stack = make_stack(SPEC, start, frames)
        quality = vsc_quality_stack(SPEC, start, counts)
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert out.values[2, 0, 0] == 16.666666666666668
        assert not out.missing[2, 0, 0]
        # the untouched pixels keep their original bits
        assert np.array_equal(out.values[2, 0, 1:], stack.values[2, 0, 1:])

    def test_untrusted_pixel_without_history_goes_missing(self):
        start = MonthIndex(2018, 1)
        stack = make_stack(SPEC, start, [[5.0, 1.0, 1.0, 1.0]])
        quality = vsc_quality_stack(SPEC, start, [np.array([[0, 1], [1, 1]])])
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert out.missing[0, 0, 0]
        assert not out.missing[0, 0, 1]

    def test_missing_radiance_with_quality_history_is_refilled(self):
        start = MonthIndex(2018, 1)
        frames = [[10.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]
        missing = [None, [True, False, False, False]]
        stack = make_stack(SPEC, start, frames, missing)
        quality = vsc_quality_stack(SPEC, start, [np.ones(SPEC.shape, dtype=int)] * 2)
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert not out.missing[1, 0, 0]
        assert out.values[1, 0, 0] == 10.0

    def test_window_limits_lookback(self):
        start = MonthIndex(2017, 1)
        n = 15
        frames = [[float(10 + i), 1.0, 1.0, 1.0] for i in range(n)]
        counts = [np.ones(SPEC.shape, dtype=int) for _ in range(n)]
        counts[-1] = np.array([[0, 1], [1, 1]])
        for j in range(1, n - 1):
            counts[j] = np.array([[0, 1], [1, 1]])  # only month 0 is trusted history
        stack = make_stack(SPEC, start, frames)
        quality = vsc_quality_stack(SPEC, start, counts)
        # distance from month 14 back to month 0 is 14 > 12: nothing usable
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert out.missing[-1, 0, 0]
        # IMPUTATION_WINDOW_MONTHS is the edge: month 12 still reaches month 0, month 13 does not
        assert IMPUTATION_WINDOW_MONTHS == 12
        assert out.values[12, 0, 0] == 10.0 and not out.missing[12, 0, 0]
        assert out.missing[13, 0, 0]

    def test_matches_scalar_impute_on_random_stacks(self):
        rng = np.random.default_rng(79)
        start = MonthIndex(2019, 1)
        for _ in range(10):
            n = int(rng.integers(2, 14))
            frames = [rng.uniform(0.0, 50.0, SPEC.shape) for _ in range(n)]
            missing = [rng.random(SPEC.shape) < 0.15 for _ in range(n)]
            counts = [rng.integers(0, 2, SPEC.shape) for _ in range(n)]
            stack = make_stack(SPEC, start, frames, missing)
            quality = vsc_quality_stack(SPEC, start, counts)
            out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
            for r in range(SPEC.nrows):
                for c in range(SPEC.ncols):
                    for i in range(n):
                        trusted = counts[i][r, c] > 0 and not missing[i][r, c]
                        if trusted:
                            assert out.values[i, r, c] == frames[i][r, c]
                            continue
                        history = [
                            (start.ordinal + j, float(frames[j][r, c]), counts[j][r, c] > 0 and not missing[j][r, c])
                            for j in range(i)
                        ]
                        expected = impute_pixel(history, start.ordinal + i)
                        if math.isnan(expected):
                            assert out.missing[i, r, c]
                        else:
                            assert out.values[i, r, c] == pytest.approx(expected, abs=1e-12)

    def test_weighted_sum_past_the_float_range_still_gives_the_mean(self):
        start = MonthIndex(2018, 1)
        spec = GridSpec(ncols=2, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        stack = make_stack(spec, start, [[1e308, 1.0], [1.5e308, 2.0], [7.0, 3.0]])
        quality = vsc_quality_stack(spec, start, [[1, 1], [1, 1], [0, 0]])
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL).values[2]
        assert out[0, 0] == pytest.approx(1e308 / 3 * 4, rel=1e-15)
        # a pixel whose sum does not overflow keeps the plain weighted mean's bits
        assert out[0, 1] == (0.5 * 1.0 + 1.0 * 2.0) / 1.5

    @settings(max_examples=200, deadline=None)
    @given(history=near_limit_histories())
    # all subnormal: the exact means are 5/3 and 24/5 of the least subnormal, and impute_pixel gives 1 and 2
    @example(history=([[5e-324], [1e-323], [1e-323]], [[1], [1], [0]]))
    @example(history=([[4.4e-323], [0.0], [1e-323], [0.0], [0.0], [0.0], [0.0]], [[1], [0], [1], [0], [0], [0], [0]]))
    def test_matches_scalar_impute_near_the_float_limit(self, history):
        frames, counts = history
        n, k = len(frames), len(frames[0])
        spec = GridSpec(ncols=k, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        window = IMPUTATION_WINDOW_MONTHS
        start = MonthIndex(2019, 1)
        stack, quality = make_stack(spec, start, frames), vsc_quality_stack(spec, start, counts)
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        for i in range(n):
            for c in range(k):
                if counts[i][c]:
                    continue
                history = [(j, frames[j][c], counts[j][c] > 0) for j in range(i)]
                expected = impute_pixel(history, i, window)
                if math.isnan(expected):
                    assert out.missing[i, 0, c]
                    continue
                got = out.values[i, 0, c]
                contributors = [(Fraction(1.0 / (i - j)), v) for j, v, hq in history if hq and i - j <= window]
                exact = sum(w * Fraction(v) for w, v in contributors) / sum(w for w, _ in contributors)
                # Among subnormals 1e-12 * scale rounds to 0, finer than the floats' spacing there, math.ulp(0.0),
                # so no float could meet it. There each weighted term rounds by up to half that spacing, which the
                # division by the total weight magnifies, and the division and float(exact) round once each.
                total = float(sum(w for w, _ in contributors))
                floor = (len(contributors) / (2 * total) + 1) * math.ulp(0.0)
                bound = max(1e-12 * max(abs(v) for _, v in contributors), floor)
                for value in (expected, got):
                    assert min(v for _, v in contributors) <= value <= max(v for _, v in contributors)
                    assert abs(value - float(exact)) <= bound

    def test_misaligned_stacks_rejected(self):
        start = MonthIndex(2018, 1)
        stack = make_stack(SPEC, start, [[1.0, 1.0, 1.0, 1.0]])
        quality = vsc_quality_stack(SPEC, start + 1, [np.ones(SPEC.shape, dtype=int)])
        with pytest.raises(ValueError):
            quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)


class TestImputationMemory:
    @pytest.mark.parametrize("rate", [0.01, 0.3])
    def test_peak_beyond_the_output_scales_with_the_untrusted_cells(self, rate):
        # The peak under tracemalloc, less the output's values and missing flags. Bound: 2 bytes per
        # cell-month, the trusted mask and the output's finite check, plus 88 per untrusted cell of the
        # fullest month. Measured with numpy 2.4: 76.6 (1% untrusted) and 79.2 (30%) per untrusted cell
        # beyond the 2; the margin is 8. The refill over whole months peaked at 10.5 bytes per
        # cell-month beyond its output, at either rate.
        n, spec = 6, GridSpec(ncols=50_000, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        months = month_range(MonthIndex(2018, 1), n)
        rng = np.random.default_rng(3)
        shape = (n, *spec.shape)
        stack = RasterStack.from_cube(months, spec, rng.uniform(0.0, 50.0, shape), np.zeros(shape, dtype=bool))
        counts = (rng.random(shape) >= rate).astype(np.int64)
        quality = RasterStack.from_cube(months, spec, counts, np.zeros(shape, dtype=bool))
        quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)  # first calls import and cache
        tracemalloc.start()
        try:
            out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond = peak - out.values.nbytes - out.missing.nbytes
        fullest = (counts == 0).sum(axis=(1, 2)).max()
        assert beyond <= 2 * n * spec.size + (80 + 8) * fullest


# -0.0, values inside, on and beyond the clip band [THRESHOLD_LO, THRESHOLD_HI], and extremes
STAGE_VALUES = [-0.0, 0.0, 5e-324, 3.25, -2.5, THRESHOLD_HI, np.nextafter(THRESHOLD_HI, 60.0), 75.0, 1e300, -1e300]


def same_bits(got, want):
    """Whether two rasters have the same type, grid, and values and mask bit for bit."""
    return (
        type(got) is type(want)
        and got.spec == want.spec
        and got.values.dtype == want.values.dtype
        and got.values.tobytes() == want.values.tobytes()
        and got.missing.tobytes() == want.missing.tobytes()
    )


@st.composite
def stacks_and_grids(draw, cells=None):
    """A RasterStack with missing cells, and the per-month rasters it was stacked from.

    ``cells`` draws one value per pixel-month; by default radiance from
    STAGE_VALUES and the float range, as RasterGrids.
    """
    n, nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    spec = GridSpec(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    size = n * spec.size
    cells = st.sampled_from(STAGE_VALUES) | st.floats(-1e3, 1e3) if cells is None else cells
    values = np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(n, *spec.shape)
    missing = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(values.shape)
    raster = IntRaster if values.dtype == np.int64 else RasterGrid
    grids = [raster(spec, v, m) for v, m in zip(values, missing)]
    months = [MonthIndex(2018, 1) + 2 * i for i in range(n)]  # gaps between the months are allowed
    return RasterStack(months, grids), grids


def assert_months_equal(stack, want):
    """The stack's months, read through get and iteration, equal ``want`` bit for bit, as views of the cube."""
    assert len(stack.months) == len(want)
    for views in ([stack.get(m) for m in stack.months], [g for _, g in stack]):
        assert all(same_bits(got, expected) for got, expected in zip(views, want, strict=True))
        for view in views:
            for array, cube in ((view.values, stack.values), (view.missing, stack.missing)):
                assert np.shares_memory(array, cube) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flags.writeable = True


class TestStackGet:
    @settings(max_examples=50, deadline=None)
    @given(data=stacks_and_grids())
    def test_get_is_iterations_month_or_none(self, data):
        stack, _ = data
        by_month = dict(stack)
        first, last = stack.months[0], stack.months[-1]
        # the stack's months are two apart: every other month between them is absent, as are those outside
        for month in (first + k for k in range(-2, last - first + 3)):
            got = stack.get(month)
            assert got is None if month not in by_month else same_bits(got, by_month[month])
        assert_months_equal(stack, list(by_month.values()))


class TestStagesOnStacksEqualStagesMonthByMonth:
    """Each stage on a whole stack equals the same stage on each month's raster, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=stacks_and_grids(), mode=st.sampled_from([ThresholdMode.CLIP, ThresholdMode.REMOVE]))
    def test_threshold(self, data, mode):
        stack, grids = data
        assert_months_equal(threshold(stack, mode), [threshold(grid, mode) for grid in grids])

    @settings(max_examples=150, deadline=None)
    @given(data=stacks_and_grids(), built=st.data())
    def test_apply_built_mask(self, data, built):
        stack, grids = data
        size = stack.spec.size
        fractions = built.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), min_size=size, max_size=size))
        holes = built.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        built = RasterGrid(stack.spec, fractions, holes)
        assert_months_equal(apply_built_mask(stack, built), [apply_built_mask(grid, built) for grid in grids])

    @settings(max_examples=150, deadline=None)
    @given(data=stacks_and_grids(st.integers(0, 3)))
    def test_high_quality_mask_vsc_ntl(self, data):
        stack, grids = data
        want = np.stack([high_quality_mask(grid, Dataset.VSC_NTL) for grid in grids])
        assert np.array_equal(high_quality_mask(stack, Dataset.VSC_NTL), want)

    @settings(max_examples=150, deadline=None)
    @given(data=stacks_and_grids(st.integers(0, 2047).filter(lambda word: (word >> 1) & 0b111 not in (4, 6, 7))))
    def test_high_quality_mask_vnp46a2(self, data):
        stack, grids = data
        want = np.stack([high_quality_mask(grid, Dataset.VNP46A2) for grid in grids])
        assert np.array_equal(high_quality_mask(stack, Dataset.VNP46A2), want)

    @settings(max_examples=150, deadline=None)
    @given(data=stacks_and_grids(), corners=st.data())
    def test_zone_columns_cut(self, data, corners):
        stack, grids = data
        spec = stack.spec
        x0, y0 = corners.draw(st.integers(0, spec.ncols - 1)), corners.draw(st.integers(0, spec.nrows - 1))
        x1, y1 = corners.draw(st.integers(x0 + 1, spec.ncols)), corners.draw(st.integers(y0 + 1, spec.nrows))
        part = zone_columns([Zone("P", (rect_ring(x0, y0, x1, y1),), 0.1)], spec)
        whole = zone_columns([Zone("W", (rect_ring(0, 0, spec.ncols, spec.nrows),), 0.1)], spec)
        # each month is cut alone, to the rectangle's cells in row-major order (row 0 is north)
        rows, cols = slice(spec.nrows - y1, spec.nrows - y0), slice(x0, x1)
        for grid in grids:
            cut = part.cut(grid)
            assert type(cut) is type(grid) and cut.values.dtype == grid.values.dtype
            assert cut.values.tobytes() == grid.values[rows, cols].tobytes()
            assert cut.missing.tobytes() == grid.missing[rows, cols].tobytes()
            assert whole.cut(grid) is grid


class TestPipelineConfig:
    def test_label_composition(self):
        assert PipelineConfig(Dataset.VSC_NTL).label == "raw"
        assert PipelineConfig(Dataset.VSC_NTL, threshold_mode="clip").label == "clip"
        assert (
            PipelineConfig(Dataset.VSC_NTL, threshold_mode="remove", built_mask=True, quality_filter=True).label
            == "remove+built+quality"
        )
        assert PipelineConfig(Dataset.VNP46A2, built_mask=True, quality_filter=True).label == "built+quality"

    def test_vnp46a2_cannot_threshold(self):
        with pytest.raises(ConfigError):
            PipelineConfig(Dataset.VNP46A2, threshold_mode="clip")
        with pytest.raises(ConfigError):
            PipelineConfig(Dataset.VNP46A2, threshold_mode=ThresholdMode.REMOVE)

    def test_a_config_is_its_dataset_and_three_stage_switches(self):
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert fields == ["dataset", "threshold_mode", "built_mask", "quality_filter"]
        assert list(inspect.signature(enumerate_configs).parameters) == ["dataset"]
        assert list(inspect.signature(config_from_label).parameters) == ["dataset", "label"]

    def test_enumerate_vsc_ntl_gives_twelve_in_canonical_order(self):
        labels = [c.label for c in enumerate_configs(Dataset.VSC_NTL)]
        assert labels == [
            "raw",
            "clip",
            "remove",
            "built",
            "clip+built",
            "remove+built",
            "quality",
            "clip+quality",
            "remove+quality",
            "built+quality",
            "clip+built+quality",
            "remove+built+quality",
        ]

    def test_enumerate_vnp46a2_gives_four_in_canonical_order(self):
        labels = [c.label for c in enumerate_configs(Dataset.VNP46A2)]
        assert labels == ["raw", "built", "quality", "built+quality"]

    def test_label_round_trip(self):
        for dataset in Dataset:
            for config in enumerate_configs(dataset):
                assert config_from_label(dataset, config.label) == config

    def test_label_parts_commute(self):
        a = config_from_label(Dataset.VSC_NTL, "quality+clip+built")
        b = config_from_label(Dataset.VSC_NTL, "clip+built+quality")
        assert a == b
        assert a.label == "clip+built+quality"

    def test_bad_labels_rejected(self):
        with pytest.raises(ConfigError, match="^unknown method 'sparkle' in label 'clip\\+sparkle'$"):
            config_from_label(Dataset.VSC_NTL, "clip+sparkle")
        # a duplicate part, two threshold modes, a threshold on VNP46A2: a label no config of the dataset has
        for dataset, label in ((Dataset.VSC_NTL, "clip+clip"), (Dataset.VSC_NTL, "clip+remove"), (Dataset.VNP46A2, "clip")):
            valid = ", ".join(config.label for config in enumerate_configs(dataset))
            with pytest.raises(ConfigError) as raised:
                config_from_label(dataset, label)
            assert str(raised.value) == f"label {label!r} names no {dataset.value} method combination; valid labels: {valid}"


class TestRunPipeline:
    def base_inputs(self):
        start = MonthIndex(2018, 1)
        frames = [[60.0, 10.0, 20.0, 30.0], [70.0, 11.0, 21.0, 31.0]]
        counts = [np.array([[1, 0], [1, 1]]), np.array([[1, 1], [1, 0]])]
        stack = make_stack(SPEC, start, frames)
        quality = vsc_quality_stack(SPEC, start, counts)
        built = RasterGrid(SPEC, [0.9, 0.9, 0.2, 0.9])
        return stack, quality, built

    def test_raw_config_returns_stack_unchanged(self):
        stack, quality, built = self.base_inputs()
        config = PipelineConfig(Dataset.VSC_NTL)
        out = run_pipeline(stack, quality, built, config)
        assert out is stack

    def test_canonical_order_quality_then_threshold_then_built(self):
        stack, quality, built = self.base_inputs()
        config = PipelineConfig(
            Dataset.VSC_NTL, threshold_mode="clip", built_mask=True, quality_filter=True
        )
        out = run_pipeline(stack, quality, built, config)
        imputed = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        # month by month: threshold each imputed month, then built-mask it
        manual = [apply_built_mask(threshold(grid, "clip"), built) for _, grid in imputed]
        assert out.months == stack.months and [g for _, g in out] == manual

    def test_quality_imputed_value_is_thresholded(self):
        # month 1 pixel (1,1) is untrusted; its history value 80 exceeds
        # THRESHOLD_HI, so the imputed value must be clipped after refilling
        start = MonthIndex(2018, 1)
        stack = make_stack(SPEC, start, [[10.0, 20.0, 30.0, 80.0], [11.0, 21.0, 31.0, 31.0]])
        quality = vsc_quality_stack(SPEC, start, [np.ones((2, 2), dtype=int), np.array([[1, 1], [1, 0]])])
        imputed = run_pipeline(stack, quality, None, PipelineConfig(Dataset.VSC_NTL, quality_filter=True))
        assert imputed.values[1, 1, 1] == 80.0
        config = PipelineConfig(Dataset.VSC_NTL, threshold_mode="clip", quality_filter=True)
        assert run_pipeline(stack, quality, None, config).values[1, 1, 1] == THRESHOLD_HI

    def test_missing_stage_inputs_rejected(self):
        stack, quality, built = self.base_inputs()
        with pytest.raises(ConfigError, match="quality"):
            run_pipeline(stack, None, built, PipelineConfig(Dataset.VSC_NTL, quality_filter=True))
        with pytest.raises(ConfigError, match="built"):
            run_pipeline(stack, quality, None, PipelineConfig(Dataset.VSC_NTL, built_mask=True))

    def test_threshold_only_touches_values_not_months(self):
        stack, quality, built = self.base_inputs()
        out = run_pipeline(stack, None, None, PipelineConfig(Dataset.VSC_NTL, threshold_mode="remove"))
        assert out.months == stack.months
        assert out.missing[0, 0, 0]  # 60 > 50 removed
        assert out.values[0, 0, 1] == 10.0
