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
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import PipelineError, ReportError
from .grid import RasterGrid
from .preprocess import run_pipeline
from .stack import MonthIndex
from .zones import zonal_mean

__all__ = [
    "EventWindow",
    "ZoneSeries",
    "monthly_median_composite",
    "build_zone_series",
    "series_by_config",
    "rolling_baseline",
    "percent_change",
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


def series_by_config(radiance, quality, built, masks, configs, windows):
    """Run each config's pipeline and yield ``(config, series)`` in order.

    ``masks`` maps zone_id to ZoneMask; ``series[i][j]`` is the j-th zone's
    ZoneSeries over ``windows[i]``. A config whose pipeline raises a
    PipelineError yields ``(config, error)`` and the rest still run.
    """
    for config in configs:
        try:
            processed = run_pipeline(radiance, quality, built, config)
        except PipelineError as exc:
            yield config, exc
            continue
        series = tuple(
            tuple(build_zone_series(processed, mask, w, zone_id) for zone_id, mask in masks.items())
            for w in windows
        )
        del processed  # else it stays alive through the next config's pipeline
        yield config, series


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


def event_drop(series, window, w=6):
    """Negated percent change at the event month: positive = lights dimmed."""
    change = percent_change(series, window.event_month, w)
    return -change if not np.isnan(change) else float("nan")


def _field(value):
    return "" if np.isnan(value) else repr(float(value))


def write_series_csv(series, path, w=6):
    """Write a series as CSV rows of zone_id, year, month, radiance, change.

    Missing and undefined entries are empty fields. The percent-change
    column uses the trailing baseline of ``w`` months, so early rows with
    no history are empty too.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year", "month", "mean_radiance", "percent_change"])
        for month, value in zip(series.months, series.values):
            writer.writerow(
                [
                    series.zone_id,
                    month.year,
                    month.month,
                    _field(value),
                    _field(percent_change(series, month, w)),
                ]
            )


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
