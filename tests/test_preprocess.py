"""Tests for thresholding, built masking, quality imputation, and pipeline wiring."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    apply_built_mask,
    config_from_label,
    enumerate_configs,
    impute_pixel,
    quality_filter_and_impute,
    run_pipeline,
    threshold,
)

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
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        for before, after in zip(stack.grids, out.grids):
            assert after is before

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
        assert out.grids[2].values[0, 0] == 16.666666666666668
        assert out.grids[2].valid[0, 0]
        # the untouched pixels keep their original bits
        assert np.array_equal(out.grids[2].values[0, 1:], stack.grids[2].values[0, 1:])

    def test_untrusted_pixel_without_history_goes_missing(self):
        start = MonthIndex(2018, 1)
        stack = make_stack(SPEC, start, [[5.0, 1.0, 1.0, 1.0]])
        quality = vsc_quality_stack(SPEC, start, [np.array([[0, 1], [1, 1]])])
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert out.grids[0].missing[0, 0]
        assert not out.grids[0].missing[0, 1]

    def test_missing_radiance_with_quality_history_is_refilled(self):
        start = MonthIndex(2018, 1)
        frames = [[10.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]
        missing = [None, [True, False, False, False]]
        stack = make_stack(SPEC, start, frames, missing)
        quality = vsc_quality_stack(SPEC, start, [np.ones(SPEC.shape, dtype=int)] * 2)
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        assert out.grids[1].valid[0, 0]
        assert out.grids[1].values[0, 0] == 10.0

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
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL, window=12)
        assert out.grids[-1].missing[0, 0]
        wide = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL, window=14)
        assert wide.grids[-1].values[0, 0] == 10.0

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
                            assert out.grids[i].values[r, c] == frames[i][r, c]
                            continue
                        history = [
                            (start.ordinal + j, float(frames[j][r, c]), counts[j][r, c] > 0 and not missing[j][r, c])
                            for j in range(i)
                        ]
                        expected = impute_pixel(history, start.ordinal + i)
                        if math.isnan(expected):
                            assert out.grids[i].missing[r, c]
                        else:
                            assert out.grids[i].values[r, c] == pytest.approx(expected, abs=1e-12)

    def test_weighted_sum_past_the_float_range_still_gives_the_mean(self):
        start = MonthIndex(2018, 1)
        spec = GridSpec(ncols=2, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        stack = make_stack(spec, start, [[1e308, 1.0], [1.5e308, 2.0], [7.0, 3.0]])
        quality = vsc_quality_stack(spec, start, [[1, 1], [1, 1], [0, 0]])
        out = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL).grids[2].values
        assert out[0, 0] == pytest.approx(1e308 / 3 * 4, rel=1e-15)
        # a pixel whose sum does not overflow keeps the plain weighted mean's bits
        assert out[0, 1] == (0.5 * 1.0 + 1.0 * 2.0) / 1.5

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_impute_near_the_float_limit(self, data):
        n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
        spec = GridSpec(ncols=k, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        limit = 1.7976931348623157e308
        low = data.draw(st.sampled_from([0.0, -limit]))
        frames = [data.draw(st.lists(st.floats(low, limit), min_size=k, max_size=k)) for _ in range(n)]
        counts = [data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)) for _ in range(n)]
        window = data.draw(st.integers(1, 8))
        start = MonthIndex(2019, 1)
        out = quality_filter_and_impute(
            make_stack(spec, start, frames), vsc_quality_stack(spec, start, counts), Dataset.VSC_NTL, window
        )
        for i in range(n):
            for c in range(k):
                if counts[i][c]:
                    continue
                history = [(j, frames[j][c], counts[j][c] > 0) for j in range(i)]
                expected = impute_pixel(history, i, window)
                if math.isnan(expected):
                    assert out.grids[i].missing[0, c]
                    continue
                got = out.grids[i].values[0, c]
                contributors = [(Fraction(1.0 / (i - j)), v) for j, v, hq in history if hq and i - j <= window]
                exact = sum(w * Fraction(v) for w, v in contributors) / sum(w for w, _ in contributors)
                scale = max(abs(v) for _, v in contributors)
                for value in (expected, got):
                    assert min(v for _, v in contributors) <= value <= max(v for _, v in contributors)
                    assert abs(value - float(exact)) <= 1e-12 * scale

    def test_misaligned_stacks_rejected(self):
        start = MonthIndex(2018, 1)
        stack = make_stack(SPEC, start, [[1.0, 1.0, 1.0, 1.0]])
        quality = vsc_quality_stack(SPEC, start + 1, [np.ones(SPEC.shape, dtype=int)])
        with pytest.raises(ValueError):
            quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)


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

    def test_tunable_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(Dataset.VSC_NTL, threshold_lo=50.0, threshold_hi=50.0)
        with pytest.raises(ConfigError):
            PipelineConfig(Dataset.VSC_NTL, built_fraction_threshold=-0.1)
        with pytest.raises(ConfigError):
            PipelineConfig(Dataset.VSC_NTL, imputation_window_months=0)

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

    def test_enumerate_passes_tunables_through(self):
        configs = enumerate_configs(Dataset.VSC_NTL, threshold_hi=60.0, imputation_window_months=6)
        assert all(c.threshold_hi == 60.0 for c in configs)
        assert all(c.imputation_window_months == 6 for c in configs)

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
        with pytest.raises(ConfigError):
            config_from_label(Dataset.VSC_NTL, "clip+clip")
        with pytest.raises(ConfigError):
            config_from_label(Dataset.VSC_NTL, "clip+remove")
        with pytest.raises(ConfigError):
            config_from_label(Dataset.VSC_NTL, "sparkle")
        with pytest.raises(ConfigError):
            config_from_label(Dataset.VNP46A2, "clip")


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
        manual = quality_filter_and_impute(stack, quality, Dataset.VSC_NTL)
        manual = manual.with_grids(threshold(g, "clip") for g in manual.grids)
        manual = manual.with_grids(apply_built_mask(g, built) for g in manual.grids)
        for a, b in zip(out.grids, manual.grids):
            assert a == b

    def test_quality_imputed_value_is_thresholded(self):
        # month 1 pixel (1,1) is untrusted; history value 31 exceeds hi=25,
        # so the imputed value must be clipped after refilling
        stack, quality, built = self.base_inputs()
        config = PipelineConfig(Dataset.VSC_NTL, threshold_mode="clip", threshold_hi=25.0, quality_filter=True)
        out = run_pipeline(stack, quality, None if not config.built_mask else built, config)
        assert out.grids[1].values[1, 1] == 25.0

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
        assert out.grids[0].missing[0, 0]  # 60 > 50 removed
        assert out.grids[0].values[0, 1] == 10.0
