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
instead of dividing by a near-zero. A change that comes out infinite or
NaN, from radiance near the float limit, is undefined as well: NaN, an
empty cell in a CSV.

The event drop is the negated percent change at the single event month:
positive numbers mean the lights dimmed.

series_by_config is the one "stack -> cleaned stack -> zone series" chain.
It walks the configs' stage tree, so the quality pass runs once and every
threshold and built branch below it shares its result, and it gathers
each zone's pixels by flat index, one sum per zone-month. It runs as well
on the rows of zone cells load_dataset returns as on whole grids.
percent_changes takes the percent changes of a whole series, or of every
row of a (zones x months) array, at once: a sliding-window sum for
baseline windows of up to 7 months, the scalar baseline for longer ones.
zonal_mean, build_zone_series, rolling_baseline and percent_change stay
as the scalar definitions the batch paths equal bit for bit.

The series CSV is written as one string per file and read with
csv.reader and integer month ordinals; tests hold the bytes to
csv.writer's and the rows and errors to csv.DictReader's.
"""

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PipelineError, ReportError
from .grid import RasterGrid
from .preprocess import run_stage_tree
from .stack import MonthIndex, month_ordinal
from .zones import zonal_mean, zonal_means

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
BASELINE_MONTHS = 6  # an event month's change is against the mean of this many months before it


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

    Only valid daily values enter each pixel's median: the middle value
    of an odd count, the mean of the middle pair of an even one (each
    halved before adding when their sum would overflow); a zero median is
    +0.0, and a pixel valid on no day is missing. The days are sorted once
    per pixel, so wherever np.nanmedian's median is finite this one
    equals it bit for bit.
    """
    grids = list(daily_rasters)
    if not grids:
        raise ValueError("composite needs at least one daily raster")
    if any(g.spec != grids[0].spec for g in grids):
        raise ValueError("daily rasters disagree on grid geometry")
    cube = np.stack([g.values for g in grids], dtype=np.float64)  # IntRaster days too
    missing = np.stack([g.missing for g in grids])
    cube[missing] = np.nan  # NaN sorts last
    counts = len(grids) - missing.sum(axis=0)
    # positions of the middle pair; an odd count's middle value is both
    middle = np.stack([np.maximum(counts - 1, 0) // 2, counts // 2])
    low, high = np.take_along_axis(np.sort(cube, axis=0), middle, axis=0)
    # np.nanmedian sums the pair as np.add.reduce does, where two zeros of
    # either sign give +0.0, and halves the sum; + 0.0 does the same here
    with np.errstate(over="ignore"):
        median = (low + high + 0.0) / 2
    median = np.where(np.isinf(median), low / 2 + high / 2, median)
    return RasterGrid(grids[0].spec, median, counts == 0)


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


def series_by_config(radiance, quality, built, zone_cells, configs, windows):
    """Run each config's pipeline and yield ``(config, series)`` in the order given.

    ``zone_cells`` maps zone_id to the zone's cells as ascending flat
    indices into the stacks' rasters: a whole grid's row-major inside
    cells, or load_dataset's positions on rasters cut down to the cells
    some zone covers. ``series[i][j]`` is the j-th zone's ZoneSeries over
    ``windows[i]``, equal to build_zone_series on the config's
    run_pipeline result over whole grids. A config whose pipeline raises a
    PipelineError yields ``(config, error)`` and the rest still run. The
    pipelines run as one run_stage_tree walk; a config finished ahead of
    its turn waits as its (small) series, never as a stack.
    """
    zone_ids = tuple(zone_cells)
    indices = tuple(zone_cells.values())
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


def rolling_baseline(series, t, w=BASELINE_MONTHS):
    """Mean of the non-missing observations in [t-w, t-1]; NaN if none.

    Trailing and exclusive of t itself, so the baseline can never contain
    the event month it is judging. The mean is np.mean's, so a sum past
    the float range makes it inf, without a warning.
    """
    if w < 1:
        raise ValueError(f"baseline window must be positive, got {w}")
    return _baseline_at(series.values, t - series.start, w)


def _baseline_at(values, i, w):
    """rolling_baseline at position i of a sequence of values."""
    # values[i - w:i], oldest first, clamped at 0: a negative bound would wrap round
    usable = [v for v in values[max(i - w, 0) : max(i, 0)] if not np.isnan(v)]
    if not usable:
        return float("nan")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, its change undefined
        return float(np.mean(usable))


def percent_change(series, t, w=BASELINE_MONTHS):
    """100 * (x_t - baseline) / baseline; NaN when either side is unusable.

    Unusable means x_t missing, baseline undefined, or baseline at or
    below 1e-6 nW/cm^2/sr (near-dark zones divide to noise, not signal).
    A change that is not finite, as when radiance near the float limit
    overflows it or the baseline's sum, is undefined too: NaN.
    """
    x = series.get(t)
    baseline = rolling_baseline(series, t, w)
    if np.isnan(x) or np.isnan(baseline) or baseline <= BASELINE_EPSILON:
        return float("nan")
    change = 100.0 * (x - baseline) / baseline
    return change if math.isfinite(change) else float("nan")


# A window sum equals np.mean's only while np.add.reduce sums sequentially,
# which it does below 8 elements; from 8 on it switches to pairwise
# summation with 8 accumulators, so longer windows take rolling_baseline.
BATCH_MAX_WINDOW = 7


def _as_rows(series):
    """A ZoneSeries' values as a 1-D array; any other array-like, one series per row, as float64."""
    if isinstance(series, ZoneSeries):
        return np.array(series.values)
    return np.asarray(series, dtype=np.float64)


def rolling_baselines(series, w=BASELINE_MONTHS):
    """rolling_baseline(series, m, w) at every month m, as an array.

    ``series`` is a ZoneSeries or an array of series values, one series
    per row (zones x months); the result has its shape. Bit-identical to
    the scalar: each window's usable values are summed in the same order,
    with -0.0 (the exact identity of float addition) in place of missing
    and pre-start months, and divided by their count.
    """
    if w < 1:
        raise ValueError(f"baseline window must be positive, got {w}")
    values = _as_rows(series)
    if w > BATCH_MAX_WINDOW:
        rows = values.reshape(-1, values.shape[-1]).tolist()
        return np.array([[_baseline_at(row, i, w) for i in range(len(row))] for row in rows]).reshape(
            values.shape
        )
    padded = np.concatenate((np.full(values.shape[:-1] + (w,), np.nan), values), axis=-1)
    # windows[..., i, :] is values[..., i - w:i], oldest first
    windows = sliding_window_view(padded, w, axis=-1)[..., :-1, :]
    usable = ~np.isnan(windows)
    with np.errstate(over="ignore"):  # as in _baseline_at
        sums = np.where(usable, windows, -0.0).sum(axis=-1)
    counts = usable.sum(axis=-1)
    return np.divide(sums, counts, out=np.full(values.shape, np.nan), where=counts > 0)


def percent_changes(series, w=BASELINE_MONTHS):
    """percent_change(series, m, w) at every month m, bit-identical, shaped as rolling_baselines."""
    values = _as_rows(series)
    baselines = rolling_baselines(values, w)
    defined = ~np.isnan(values) & (baselines > BASELINE_EPSILON)  # a NaN baseline compares false
    changes = np.full(values.shape, np.nan)
    # an overflow gives inf, and an inf baseline inf / inf = NaN; either change is undefined
    with np.errstate(over="ignore", invalid="ignore"):
        changes[defined] = 100.0 * (values[defined] - baselines[defined]) / baselines[defined]
    changes[np.isinf(changes)] = np.nan
    return changes


def event_drop(series, window, w=BASELINE_MONTHS):
    """Negated percent change at the event month: positive = lights dimmed."""
    change = percent_change(series, window.event_month, w)
    return -change if not np.isnan(change) else float("nan")


_SERIES_HEADER = "zone_id,year,month,mean_radiance,percent_change\r\n"
_READ_COLUMNS = ("zone_id", "year", "month", "mean_radiance")


def _field(value):
    return "" if math.isnan(value) else repr(value)


def _csv_field(text):
    """``text`` as csv.writer writes it inside a row: quoted, quotes doubled, only when it must be."""
    buffer = io.StringIO()
    # a second field: csv.writer quotes an empty field only when it is a row's only one
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


@lru_cache(maxsize=16)
def _month_fields(ordinal, n):
    """The ``year,month`` text of n months from an ordinal; every series of a window shares it."""
    return tuple(f"{m // 12},{m % 12 + 1}" for m in range(ordinal, ordinal + n))


def write_series_csv(series, path, w=BASELINE_MONTHS, changes=None):
    """Write a series as CSV rows of zone_id, year, month, radiance, change.

    Missing and undefined entries are empty fields. The percent-change
    column uses the trailing baseline of ``w`` months, so early rows with
    no history are empty too. A caller that has the series' row of
    percent_changes for ``w`` already passes it as ``changes``.

    The bytes are csv.writer's (excel dialect: CRLF rows, the zone id
    quoted only when it must be), built as one string.
    """
    if changes is None:
        changes = percent_changes(series, w).tolist()
    zone = _csv_field(series.zone_id)
    months = _month_fields(series.start.ordinal, len(series.values))
    lines = [_SERIES_HEADER]
    lines += [
        f"{zone},{month},{_field(value)},{_field(change)}\r\n"
        for month, value, change in zip(months, series.values, changes)
    ]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_series_csv(path):
    """Read a series CSV back into a ZoneSeries (radiance column only).

    Each row lands at its month's offset from the earliest month, so a
    month the file skips reads back as NaN. A file that is empty, holds
    several zones, lacks a column or has a short row or a bad field raises
    ReportError naming the path, as does a field longer than
    csv.field_size_limit() (131,072 characters by default).

    Reads as csv.DictReader would: the first line is the header (a
    repeated name means its last column), blank lines are skipped, a row
    longer than the header is accepted, and within a row the checks run
    in the order short row, year, month, month range, radiance.
    """
    zone_ids = set()
    ordinals = []
    radiances = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            absent = next((key for key in _READ_COLUMNS if key not in position), None)
            pick = None if absent else itemgetter(*(position[key] for key in _READ_COLUMNS))
            for row in reader:
                if not row:
                    continue
                if pick is None:
                    raise ReportError(f"{path}: missing column {absent!r}")
                if len(row) < len(header):
                    raise ValueError("short row")
                zone_id, year, month, field = pick(row)
                ordinals.append(month_ordinal(int(year), int(month)))
                radiances.append(float(field) if field else float("nan"))
                zone_ids.add(zone_id)
        except (ValueError, csv.Error) as exc:  # csv.Error: say, a field over csv.field_size_limit()
            raise ReportError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ordinals:
        raise ReportError(f"{path}: empty series file")
    if len(zone_ids) != 1:
        raise ReportError(f"{path}: expected one zone per file, found {sorted(zone_ids)}")
    first = min(ordinals)
    values = [float("nan")] * (max(ordinals) - first + 1)
    for ordinal, value in zip(ordinals, radiances):
        values[ordinal - first] = value
    return ZoneSeries(zone_ids.pop(), MonthIndex.from_ordinal(first), values)
