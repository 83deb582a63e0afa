"""Tests for correlation math, sample filtering, and report assembly."""

import math
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    ConfigError,
    CorrelationReport,
    Dataset,
    DropSample,
    EventWindow,
    MonthIndex,
    ReportError,
    ReportRow,
    StatsError,
    Zone,
    ZoneSeries,
    build_report,
    config_from_label,
    correlate_method,
    drop_samples,
    enumerate_configs,
    event_drop,
    filter_zones,
    pearson,
    rect_ring,
    select_case_study_zones,
    write_report_csv,
)


def reference_pearson(xs, ys):
    """Independent two-pass evaluation in numpy, for cross-checking."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_partial_correlation(self):
        assert pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry(self):
        xs = [1.0, 5.0, 2.0, 8.0]
        ys = [2.0, 1.0, 9.0, 3.0]
        assert pearson(xs, ys) == pearson(ys, xs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(StatsError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(StatsError):
            pearson([1.0], [2.0])
        with pytest.raises(StatsError):
            pearson([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(StatsError):
            pearson([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(StatsError):
            pearson([1.0, 2.0, 3.0], [1.0, float("inf"), 3.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(StatsError):
            pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        with pytest.raises(StatsError):
            pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    def test_result_always_within_unit_interval(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            xs = rng.normal(0.0, 10.0, n)
            ys = rng.normal(0.0, 10.0, n)
            assert -1.0 <= pearson(xs, ys) <= 1.0

    def test_matches_scipy_and_reference_on_random_vectors(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(2, 1001))
            xs = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50.0), n)
            ys = 0.4 * xs + rng.normal(0.0, rng.uniform(0.1, 40.0), n)
            r = pearson(xs, ys)
            assert r == pytest.approx(reference_pearson(xs, ys), abs=1e-12)
            assert r == pytest.approx(scipy.stats.pearsonr(xs, ys).statistic, abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            n = int(rng.integers(3, 50))
            xs = rng.normal(0.0, 5.0, n)
            ys = rng.normal(0.0, 5.0, n)
            r = pearson(xs, ys)
            assert pearson(3.0 * xs + 11.0, ys) == pytest.approx(r, abs=1e-12)
            assert pearson(xs, 0.25 * ys - 7.0) == pytest.approx(r, abs=1e-12)
            assert pearson(-2.0 * xs, ys) == pytest.approx(-r, abs=1e-12)

    def test_survives_large_offsets(self):
        # two-pass centering must not cancel on a large common offset
        xs = [1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0, 1e9 + 4.0]
        ys = [1e9 + 1.0, 1e9 + 3.0, 1e9 + 2.0, 1e9 + 4.0]
        assert pearson(xs, ys) == pytest.approx(0.8, abs=1e-9)


class TestFilterZones:
    def make_samples(self):
        return [
            DropSample("A", 0.5, 20.0),
            DropSample("B", 0.005, 10.0),
            DropSample("C", 0.2, float("nan")),
            DropSample("D", 0.01, 5.0),
        ]

    def test_low_damage_and_undefined_drops_excluded(self):
        kept, excluded = filter_zones(self.make_samples())
        assert [s.zone_id for s in kept] == ["A", "D"]
        assert {s.zone_id: reason for s, reason in excluded} == {
            "B": "damage_ratio 0.005 below 0.01",
            "C": "event drop undefined",
        }

    def test_cutoff_is_inclusive(self):
        kept, _ = filter_zones([DropSample("A", 0.01, 1.0)], min_damage=0.01)
        assert len(kept) == 1
        kept, excluded = filter_zones([DropSample("A", 0.009999, 1.0)], min_damage=0.01)
        assert not kept
        assert len(excluded) == 1

    def test_damage_reason_wins_over_nan_drop(self):
        _, excluded = filter_zones([DropSample("A", 0.001, float("nan"))])
        assert excluded[0][1].startswith("damage_ratio")

    def test_order_preserved(self):
        samples = [DropSample(str(i), 0.5, float(i)) for i in range(10)]
        kept, _ = filter_zones(samples)
        assert kept == samples


class TestSelectCaseStudyZones:
    def make_zones(self):
        damage = {"A": 0.5, "B": 0.3, "C": 0.1, "D": 0.05, "E": 0.02, "F": 0.01}
        return [DropSample(z, d, 0.0, population=100 * (i + 1)) for i, (z, d) in enumerate(damage.items())]

    def test_top_and_bottom_by_damage(self):
        top, bottom = select_case_study_zones(self.make_zones(), k=3)
        assert [z.zone_id for z in top] == ["A", "B", "C"]
        assert [z.zone_id for z in bottom] == ["F", "E", "D"]

    def test_damage_ties_break_by_zone_id(self):
        zones = [
            DropSample("Z2", 0.5, 0.0),
            DropSample("Z1", 0.5, 0.0),
            DropSample("Z3", 0.1, 0.0),
            DropSample("Z4", 0.1, 0.0),
        ]
        top, bottom = select_case_study_zones(zones, k=2)
        assert [z.zone_id for z in top] == ["Z1", "Z2"]
        assert [z.zone_id for z in bottom] == ["Z3", "Z4"]

    def test_population_band_restricts_candidates(self):
        zones = self.make_zones()  # populations 100..600
        top, bottom = select_case_study_zones(zones, k=1, population_lo=200, population_hi=500)
        assert top[0].zone_id == "B"  # A (pop 100) is outside the band
        assert bottom[0].zone_id == "E"  # F (pop 600) is outside the band

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ConfigError):
            select_case_study_zones(self.make_zones(), k=4)
        with pytest.raises(ConfigError):
            select_case_study_zones(self.make_zones(), k=3, population_lo=250)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            select_case_study_zones(self.make_zones(), k=0)


class TestCorrelateMethod:
    def test_row_carries_dataset_label_and_count(self):
        samples = [
            DropSample("A", 0.6, 30.0),
            DropSample("B", 0.3, 20.0),
            DropSample("C", 0.1, 5.0),
            DropSample("D", 0.001, 99.0),  # filtered out
        ]
        row = correlate_method(samples, Dataset.VSC_NTL, "clip+quality")
        assert row.dataset is Dataset.VSC_NTL
        assert row.methods == "clip+quality"
        assert row.n_samples == 3
        assert row.pcc == pytest.approx(reference_pearson([30.0, 20.0, 5.0], [0.6, 0.3, 0.1]), abs=1e-12)

    def test_undefined_correlation_names_the_method(self):
        samples = [DropSample("A", 0.5, 10.0), DropSample("B", 0.4, 10.0)]
        with pytest.raises(StatsError, match="built\\+quality"):
            correlate_method(samples, Dataset.VSC_NTL, "built+quality")

    def test_all_samples_filtered_names_the_method(self):
        samples = [DropSample("A", 0.001, 10.0)]
        with pytest.raises(StatsError, match="raw"):
            correlate_method(samples, Dataset.VSC_NTL, "raw")


class TestBuildReport:
    def pooled_samples(self):
        rng = np.random.default_rng(113)
        damages = rng.uniform(0.05, 0.8, 8)
        return {
            (dataset, config.label): [
                DropSample(f"Z{i}", float(d), float(100.0 * d + rng.normal(0, 3.0)))
                for i, d in enumerate(damages)
            ]
            for dataset in Dataset
            for config in enumerate_configs(dataset)
        }

    def test_rows_in_canonical_order_per_dataset(self):
        report = build_report(self.pooled_samples(), datasets=(Dataset.VSC_NTL, Dataset.VNP46A2))
        assert len(report.rows) == 16
        labels = [(row.dataset, row.methods) for row in report.rows]
        expected = [
            (dataset, config.label)
            for dataset in (Dataset.VSC_NTL, Dataset.VNP46A2)
            for config in enumerate_configs(dataset)
        ]
        assert labels == expected

    def test_single_dataset_report(self):
        samples = {k: v for k, v in self.pooled_samples().items() if k[0] is Dataset.VNP46A2}
        report = build_report(samples, datasets=(Dataset.VNP46A2,))
        assert len(report.rows) == 4

    def test_missing_combination_aborts_with_names(self):
        samples = self.pooled_samples()
        del samples[(Dataset.VSC_NTL, "clip+built")]
        del samples[(Dataset.VNP46A2, "quality")]
        with pytest.raises(ReportError) as exc_info:
            build_report(samples, datasets=(Dataset.VSC_NTL, Dataset.VNP46A2))
        message = str(exc_info.value)
        assert "VSC-NTL/clip+built" in message
        assert "VNP46A2/quality" in message

    def test_configs_subset_in_the_requested_order(self):
        vsc = [config_from_label(Dataset.VSC_NTL, label) for label in ("clip+quality", "raw", "built")]
        report = build_report(
            self.pooled_samples(), (Dataset.VSC_NTL, Dataset.VNP46A2), configs={Dataset.VSC_NTL: vsc}
        )
        # a dataset the mapping does not name keeps every combination, in canonical order
        assert [(row.dataset, row.methods) for row in report.rows] == [
            (Dataset.VSC_NTL, "clip+quality"),
            (Dataset.VSC_NTL, "raw"),
            (Dataset.VSC_NTL, "built"),
        ] + [(Dataset.VNP46A2, config.label) for config in enumerate_configs(Dataset.VNP46A2)]

    def test_absent_subset_config_is_named(self):
        samples = self.pooled_samples()
        del samples[(Dataset.VNP46A2, "built+quality")]
        subset = [config_from_label(Dataset.VNP46A2, label) for label in ("quality", "built+quality")]
        with pytest.raises(ReportError, match=r"^missing results for: VNP46A2/built\+quality$"):
            build_report(samples, (Dataset.VNP46A2,), configs={Dataset.VNP46A2: subset})
        # the same samples serve a subset that leaves the absent config out
        report = build_report(samples, (Dataset.VNP46A2,), configs={Dataset.VNP46A2: subset[:1]})
        assert [row.methods for row in report.rows] == ["quality"]


radiances = st.one_of(
    st.just(float("nan")),
    st.just(0.0),
    st.just(-0.0),
    st.just(1e-6),
    st.floats(min_value=0.0, max_value=1e-5),
    st.floats(min_value=0.0, max_value=500.0),
    # sums and changes past the float range: undefined
    st.floats(min_value=1e300, max_value=sys.float_info.max),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def placed_series(draw):
    """(window, series, table): series files that may start late or end early, placed into the window's table."""
    window = EventWindow(MonthIndex(2018, 10), draw(st.integers(0, 8)), draw(st.integers(0, 4)))
    n = len(window)
    series = []
    for i in range(draw(st.integers(1, 5))):
        first = draw(st.integers(0, n - 1), label="first")
        end = draw(st.integers(first + 1, n), label="end")
        values = draw(st.lists(radiances, min_size=end - first, max_size=end - first), label="values")
        # a run of missing months, as a cloudy season leaves
        run_start = draw(st.integers(0, len(values)), label="run start")
        run_end = draw(st.integers(run_start, len(values)), label="run end")
        values[run_start:run_end] = [float("nan")] * (run_end - run_start)
        series.append(ZoneSeries(f"Z{i}", window.start + first, values))
    table = np.full((len(series), n), np.nan)
    for row, s in zip(table, series):
        first = s.start - window.start
        row[first : first + len(s.values)] = s.values
    return window, series, table


class TestDropSamplesMatchScalar:
    @settings(max_examples=300, deadline=None)
    @given(placed=placed_series())
    def test_bit_identical_to_event_drop(self, placed):
        window, series, table = placed
        zones = [Zone(s.zone_id, (rect_ring(0.0, 0.0, 1.0, 1.0),), 0.5, 100) for s in series]
        samples = drop_samples(zones, table, window, "H")
        assert [(d.zone_id, d.damage_ratio, d.hurricane, d.population) for d in samples] == [
            (z.zone_id, 0.5, "H", 100) for z in zones
        ]
        assert [d.drop.hex() for d in samples] == [event_drop(s, window).hex() for s in series]
        # report's form: each zone's series values, as read back from its file
        listed = drop_samples(zones, [tuple(row) for row in table.tolist()], window, "H")
        assert [(d.zone_id, d.drop.hex()) for d in listed] == [(d.zone_id, d.drop.hex()) for d in samples]

    def test_table_off_the_window_is_refused(self):
        window = EventWindow(MonthIndex(2018, 10), 2, 1)
        zones = [Zone("A", (rect_ring(0.0, 0.0, 1.0, 1.0),), 0.5)]
        with pytest.raises(ValueError, match="shape"):
            drop_samples(zones, np.ones((1, 5)), window)
        with pytest.raises(ValueError, match="shape"):
            drop_samples(zones, np.ones((2, 4)), window)
        with pytest.raises(ValueError, match="shape"):
            drop_samples(zones, [[1.0] * 5], window)
        with pytest.raises(ValueError, match="shape"):
            drop_samples(zones + zones, [[1.0] * 4, [1.0] * 3], window)


class TestReportCsv:
    def test_columns_and_exact_values(self, tmp_path):
        report = CorrelationReport(
            rows=(
                ReportRow(Dataset.VSC_NTL, "raw", 0.7999999999999998, 25),
                ReportRow(Dataset.VNP46A2, "built+quality", -0.125, 24),
            )
        )
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,methods,pcc,n_samples"
        assert lines[1] == "VSC-NTL,raw,0.7999999999999998,25"
        assert lines[2] == "VNP46A2,built+quality,-0.125,24"
