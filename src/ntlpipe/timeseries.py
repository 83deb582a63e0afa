"""Per-zone monthly radiance series and event-drop metrics.

A ZoneSeries holds one zone's mean radiance over a contiguous month range,
with NaN marking months where no valid observation exists. Missing never
becomes zero anywhere in this module: a fabricated zero would read as a
radiance drop.

The change metric compares each month against a trailing baseline that
excludes the month itself (an inclusive baseline would contaminate itself
with the very drop being measured). Baselines skip missing months rather
than failing, so one cloudy month does not sever the series, and a
baseline at or below 1e-6 nW/cm^2/sr makes the percent change undefined
instead of dividing by a near-zero.

The event drop is the negated percent change at the single event month:
positive numbers mean the lights dimmed.

series_by_config is the one "stack -> cleaned stack -> zone series" chain.
It walks the configs' stage tree, so the quality pass runs once and every
threshold and built branch below it shares its result, and it gathers
each zone's pixels by flat index, one sum per zone-month. The CSV
writer and the case study take a whole series' percent changes at once
through percent_changes: a sliding-window sum for baseline windows of up
to 7 months, the scalar rolling_baseline for longer ones. zonal_mean,
build_zone_series, rolling_baseline and percent_change stay as the scalar
definitions the batch paths equal bit for bit.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PipelineError, ReportError
from .grid import RasterGrid
from .preprocess import run_stage_tree
from .stack import MonthIndex
from .zones import flat_indices, zonal_mean, zonal_means

__all__ = [
    "EventWindow",
    "ZoneSeries",
    "monthly_median_composite",
    "build_zone_series",
    "series_by_config",
    "rolling_baseline",
    "rolling_baselines",
    "percent_change",
    "percent_changes",
    "event_drop",
    "write_series_csv",
    "read_series_csv",
]

BASELINE_EPSILON = 1e-6


@dataclass(frozen=True)
class EventWindow:
    """An event month plus the analysis months around it (default 25 total)."""

    event_month: MonthIndex
    months_before: int = 12
    months_after: int = 12

    def __post_init__(self):
        if self.months_before < 0 or self.months_after < 0:
            raise ValueError("window extents must be non-negative")

    @property
    def start(self):
        return self.event_month - self.months_before

    @property
    def end(self):
        return self.event_month + self.months_after

    def __len__(self):
        return self.months_before + self.months_after + 1

    def months(self):
        """All window months in calendar order."""
        return tuple(self.start + i for i in range(len(self)))


@dataclass(frozen=True)
class ZoneSeries:
    """One zone's monthly mean radiance: ``values[i]`` is month ``start + i``."""

    zone_id: str
    start: MonthIndex
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("series needs at least one month")
        object.__setattr__(self, "values", values)

    @property
    def months(self):
        return tuple(self.start + i for i in range(len(self.values)))

    def get(self, month):
        """Value at a month; NaN when the month is missing or out of range."""
        offset = month - self.start
        if 0 <= offset < len(self.values):
            return self.values[offset]
        return float("nan")


def monthly_median_composite(daily_rasters):
    """Per-pixel median of daily rasters from one calendar month.

    Only valid daily values enter each pixel's median; an even count takes
    the mean of the two middle values; a pixel valid on no day is missing.
    """
    grids = list(daily_rasters)
    if not grids:
        raise ValueError("composite needs at least one daily raster")
    if any(g.spec != grids[0].spec for g in grids):
        raise ValueError("daily rasters disagree on grid geometry")
    cube = np.stack([g.masked_values() for g in grids])
    all_missing = np.all(np.isnan(cube), axis=0)
    # dummy zeros where every day is missing keep nanmedian warning-free;
    # those pixels are masked out right below
    median = np.nanmedian(np.where(all_missing[None, :, :], 0.0, cube), axis=0)
    return RasterGrid(grids[0].spec, median, all_missing)


def build_zone_series(stack, mask, window, zone_id):
    """Zonal mean per window month; absent months and empty means are NaN."""
    grids = (stack.get(month) for month in window.months())
    values = [zonal_mean(grid, mask) if grid is not None else float("nan") for grid in grids]
    return ZoneSeries(zone_id, window.start, values)


def _series_by_window(stack, zone_ids, indices, windows):
    """``series[i][j]``: zone j's ZoneSeries over windows[i], from one cleaned stack."""
    wanted = {month for window in windows for month in window.months()}
    means = {month: zonal_means(grid, indices) for month, grid in stack if month in wanted}
    absent = (float("nan"),) * len(zone_ids)
    return tuple(
        tuple(
            ZoneSeries(zone_id, window.start, values)
            for zone_id, values in zip(zone_ids, zip(*(means.get(m, absent) for m in window.months())))
        )
        for window in windows
    )


def series_by_config(radiance, quality, built, masks, configs, windows):
    """Run each config's pipeline and yield ``(config, series)`` in the order given.

    ``masks`` maps zone_id to ZoneMask; ``series[i][j]`` is the j-th zone's
    ZoneSeries over ``windows[i]``, equal to build_zone_series on the
    config's run_pipeline result. A config whose pipeline raises a
    PipelineError yields ``(config, error)`` and the rest still run. The
    pipelines run as one run_stage_tree walk; a config finished ahead of its
    turn waits as its (small) series, never as a stack.
    """
    zone_ids = tuple(masks)
    # every stage keeps the radiance grid, so one geometry check covers every stack
    indices = flat_indices(masks.values(), radiance.spec) if len(radiance) else ()
    order = list(configs)
    done = {}
    for group, result in run_stage_tree(radiance, quality, built, order):
        if not isinstance(result, PipelineError):
            # rebinding drops this frame's reference to the stack before the next is built
            result = _series_by_window(result, zone_ids, indices, windows)
        done.update(dict.fromkeys(group, result))
        while order and order[0] in done:
            config = order.pop(0)
            yield config, done[config] if config in order else done.pop(config)


def rolling_baseline(series, t, w=6):
    """Mean of the non-missing observations in [t-w, t-1]; NaN if none.

    Trailing and exclusive of t itself, so the baseline can never contain
    the event month it is judging.
    """
    if w < 1:
        raise ValueError(f"baseline window must be positive, got {w}")
    i = t - series.start
    # values[i - w:i], oldest first, clamped at 0: a negative bound would wrap round
    usable = [v for v in series.values[max(i - w, 0) : max(i, 0)] if not np.isnan(v)]
    if not usable:
        return float("nan")
    return float(np.mean(usable))


def percent_change(series, t, w=6):
    """100 * (x_t - baseline) / baseline; NaN when either side is unusable.

    Unusable means x_t missing, baseline undefined, or baseline at or
    below 1e-6 nW/cm^2/sr (near-dark zones divide to noise, not signal).
    """
    x = series.get(t)
    baseline = rolling_baseline(series, t, w)
    if np.isnan(x) or np.isnan(baseline) or baseline <= BASELINE_EPSILON:
        return float("nan")
    return 100.0 * (x - baseline) / baseline


# A window sum equals np.mean's only while np.add.reduce sums sequentially,
# which it does below 8 elements; from 8 on it switches to pairwise
# summation with 8 accumulators, so longer windows take rolling_baseline.
BATCH_MAX_WINDOW = 7


def rolling_baselines(series, w=6):
    """rolling_baseline(series, m, w) for every month m of the series, as an array.

    Bit-identical to the scalar: each window's usable values are summed in
    the same order, with -0.0 (the exact identity of float addition) in
    place of missing and pre-start months, and divided by their count.
    """
    if w < 1:
        raise ValueError(f"baseline window must be positive, got {w}")
    if w > BATCH_MAX_WINDOW:
        return np.array([rolling_baseline(series, month, w) for month in series.months])
    values = np.array(series.values)
    # row i is values[i - w:i], oldest first
    windows = sliding_window_view(np.concatenate((np.full(w, np.nan), values)), w)[:-1]
    usable = ~np.isnan(windows)
    sums = np.where(usable, windows, -0.0).sum(axis=1)
    counts = usable.sum(axis=1)
    return np.divide(sums, counts, out=np.full(len(values), np.nan), where=counts > 0)


def percent_changes(series, w=6):
    """percent_change(series, m, w) for every month m of the series, bit-identical, as an array."""
    values = np.array(series.values)
    baselines = rolling_baselines(series, w)
    defined = ~np.isnan(values) & (baselines > BASELINE_EPSILON)  # a NaN baseline compares false
    changes = np.full(len(values), np.nan)
    changes[defined] = 100.0 * (values[defined] - baselines[defined]) / baselines[defined]
    return changes


def event_drop(series, window, w=6):
    """Negated percent change at the event month: positive = lights dimmed."""
    change = percent_change(series, window.event_month, w)
    return -change if not np.isnan(change) else float("nan")


def _field(value):
    return "" if math.isnan(value) else repr(value)


def write_series_csv(series, path, w=6):
    """Write a series as CSV rows of zone_id, year, month, radiance, change.

    Missing and undefined entries are empty fields. The percent-change
    column uses the trailing baseline of ``w`` months, so early rows with
    no history are empty too.
    """
    ordinal = series.start.ordinal  # row i is month ordinal + i, as MonthIndex.from_ordinal splits it
    rows = [
        [series.zone_id, (ordinal + i) // 12, (ordinal + i) % 12 + 1, _field(value), _field(change)]
        for i, (value, change) in enumerate(zip(series.values, percent_changes(series, w).tolist()))
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year", "month", "mean_radiance", "percent_change"])
        writer.writerows(rows)


def _series_row(row):
    """(zone_id, month, radiance) of one series CSV row; an empty radiance is NaN."""
    zone_id, year, month, field = (row[key] for key in ("zone_id", "year", "month", "mean_radiance"))
    if None in row.values():
        raise ValueError("short row")
    return zone_id, MonthIndex(int(year), int(month)), float(field) if field else float("nan")


def read_series_csv(path):
    """Read a series CSV back into a ZoneSeries (radiance column only).

    Each row lands at its month's offset from the earliest month, so a
    month the file skips reads back as NaN. A file that is empty, holds
    several zones, lacks a column or has a short row or a bad field raises
    ReportError naming the path.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = [_series_row(row) for row in reader]
        except KeyError as exc:
            raise ReportError(f"{path}: missing column {exc}") from None
        except ValueError as exc:
            raise ReportError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ReportError(f"{path}: empty series file")
    zone_ids, months, radiances = zip(*rows)
    if len(set(zone_ids)) != 1:
        raise ReportError(f"{path}: expected one zone per file, found {sorted(set(zone_ids))}")
    start = min(months)
    values = [float("nan")] * (max(months) - start + 1)
    for month, value in zip(months, radiances):
        values[month - start] = value
    return ZoneSeries(zone_ids[0], start, values)
