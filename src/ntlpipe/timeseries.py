"""Per-zone monthly radiance series and event-drop metrics.

A window table is a float64 (zones x months) array over one event
window, one row per zone, with NaN marking months where no valid
observation exists. A ZoneSeries holds one such row with its zone id and
first month: the unit of one series CSV. Missing never becomes zero
anywhere in this module: a fabricated zero would read as a radiance drop.

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

series_by_config is the one "stack -> cleaned stack -> zone series" chain,
and the one place the configs' stage tree is built and walked: the quality
pass runs once and every threshold branch below it shares its result, and
each stack and base is released after its last reader. It gathers each
zone's pixels by flat index, one sum per zone-month, into one window table
per event window; a built config gathers only the pixels the built mask
keeps. It runs as well on the rows of zone cells load_dataset returns as
on whole grids. The baseline is always the
BASELINE_MONTHS (six) months before the month it judges. percent_changes
takes the percent changes of every row of a table at once, by a
sliding-window sum, for extract's series files. ZoneSeries, zonal_mean,
build_zone_series, rolling_baseline, percent_change and event_drop stay
as the scalar definitions the batch paths equal bit for bit. The last
three share change_at, a core in Python floats alone, which takes the
event drops a row at a time (analysis.drop_samples) and report's case
study a series at a time, so report loads no numpy.

The series CSV is written as one string per file, its radiance and
change fields spelled a window table at once (spell_table), in bytes
tests hold to csv.writer's. It is read back only in exactly that form:
by a few whole-string operations where the text is exactly as written,
row by row through csv.reader otherwise.
"""

import csv
import io
import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from ._numpy import np
from .errors import ReportError
from .grid import RasterGrid, _orjson_spells_as_repr
from .preprocess import ThresholdMode, built_keep, quality_filter_and_impute, threshold
from .stack import MonthIndex, month_ordinal
from .zones import zonal_mean, zonal_means

__all__ = [
    "EventWindow",
    "drop_window",
    "ZoneSeries",
    "monthly_median_composite",
    "build_zone_series",
    "series_by_config",
    "rolling_baseline",
    "rolling_baselines",
    "percent_change",
    "percent_changes",
    "change_at",
    "event_drop",
    "spell_table",
    "write_series_csv",
    "read_series_csv",
]

BASELINE_EPSILON = 1e-6
# An event month's change is against the mean of this many months before
# it. The batch baselines sum each window in order, which equals np.mean's
# sum only while np.add.reduce sums sequentially: below 8 elements. From 8
# on it sums pairwise with 8 accumulators, so this must stay at most 7.
BASELINE_MONTHS = 6


@dataclass(frozen=True)
class EventWindow:
    """An event month plus the analysis months around it (default 25 total)."""

    event_month: MonthIndex
    months_before: int = 12
    months_after: int = 12

    def __post_init__(self):
        if self.months_before < 0 or self.months_after < 0:
            raise ValueError("window extents must be non-negative")

    # worked out once per window, however many series files and zones read them
    @cached_property
    def start(self):
        return self.event_month - self.months_before

    @cached_property
    def end(self):
        return self.event_month + self.months_after

    def __len__(self):
        return self.months_before + self.months_after + 1

    def months(self):
        """All window months in calendar order."""
        return self._months

    @cached_property
    def _months(self):
        return tuple(self.start + i for i in range(len(self)))


def drop_window(window):
    """The months of a window that its event drop reads: the event month and its baseline.

    The baseline is the BASELINE_MONTHS before the event, clipped at the
    window's start, as a series over the window holds them. The drop over
    this window's table equals the drop over the whole window's bit for
    bit: rolling_baselines sums the same values in the same order.
    """
    return EventWindow(window.event_month, min(window.months_before, BASELINE_MONTHS), 0)


@dataclass(frozen=True)
class ZoneSeries:
    """One zone's monthly mean radiance: ``values[i]`` is month ``start + i``."""

    zone_id: str
    start: MonthIndex
    values: tuple

    def __post_init__(self):
        values = tuple(map(float, self.values))
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


def _series_by_window(stack, indices, windows):
    """One (zones x window months) table per window, from one cleaned stack; absent months are NaN."""
    wanted = {month for window in windows for month in window.months()}
    means = {month: zonal_means(grid, indices) for month, grid in stack if month in wanted}
    absent = [float("nan")] * len(indices)
    return tuple(np.array([means.get(m, absent) for m in window.months()]).T.copy() for window in windows)


def series_by_config(radiance, quality, built, zone_cells, configs, windows):
    """Run each config's pipeline and yield ``(config, tables)`` in the order given.

    ``zone_cells`` maps zone_id to the zone's cells as ascending flat
    indices into the stacks' rasters: a whole grid's row-major inside
    cells, or load_dataset's positions on rasters cut down to the cells
    some zone covers. ``tables[i]`` is a float64 (zones x months) array
    over ``windows[i]``, one row per zone in ``zone_cells`` order, each
    row equal to build_zone_series' values on the config's run_pipeline
    result over whole grids.

    The canonical stage order makes the configs a tree: each distinct
    quality pass runs once and each threshold once below it, each one call
    on a whole stack, and a stage raises run_pipeline's error when the walk
    reaches it. The built mask is purely spatial, so a built config's
    tables are its unmasked branch's zonal means over each zone's cells
    that the mask keeps: the same values in the same order as on the
    masked stack, so the same sums, and no masked copy of a stack. Its
    kept cells are found at the first built config, which raises the built
    mask's error. A config finished ahead of its turn waits as its (small)
    tables, never as a stack.

    The unfiltered base is walked first, so the last base is the last
    reader of both stacks in any config order. The stacks are dropped once
    the last base is built (at once when no config filters by quality), a
    base once the last branch below it is built, and each branch before
    the next is built; where the caller keeps no reference to the stacks,
    each cube is freed there.
    """
    indices = tuple(zone_cells.values())
    spec = radiance.spec
    order = list(configs)
    tree = {}  # quality pass (None: unfiltered) -> threshold mode -> its configs, in the given order
    for config in sorted(order, key=attrgetter("quality_filter")):
        quality_pass = config.dataset if config.quality_filter else None
        tree.setdefault(quality_pass, {}).setdefault(config.threshold_mode, []).append(config)
    kept = None  # each zone's cells the built mask keeps, found when the walk first needs them
    done = {}
    for quality_pass in list(tree):
        branches = tree.pop(quality_pass)
        base = radiance if quality_pass is None else quality_filter_and_impute(radiance, quality, quality_pass)
        if not tree:
            radiance = quality = None  # the last base was their last reader
        for mode in list(branches):
            group = branches.pop(mode)
            branch = base if mode is ThresholdMode.NONE else threshold(base, mode)
            if not branches:
                base = None  # the last branch below it is built
            for masked in dict.fromkeys(config.built_mask for config in group):
                if masked and kept is None:
                    keep = built_keep(spec, built).ravel()
                    kept, built = tuple(cells[keep[cells]] for cells in indices), None
                tables = _series_by_window(branch, kept if masked else indices, windows)
                done.update((config, tables) for config in group if config.built_mask == masked)
                while order and order[0] in done:
                    config = order.pop(0)
                    yield config, done[config] if config in order else done.pop(config)
            del branch  # before the walk builds the next branch


def rolling_baseline(series, t):
    """Mean of the non-missing observations in the BASELINE_MONTHS before t; NaN if none.

    Trailing and exclusive of t itself, so the baseline can never contain
    the event month it is judging. The mean is np.mean's, so a sum past
    the float range makes it inf, without a warning.
    """
    return _baseline_at(series.values, t - series.start)


def percent_change(series, t):
    """100 * (x_t - baseline) / baseline; NaN when either side is unusable.

    Unusable means x_t missing, baseline undefined, or baseline at or
    below 1e-6 nW/cm^2/sr (near-dark zones divide to noise, not signal).
    A change that is not finite, as when radiance near the float limit
    overflows it or the baseline's sum, is undefined too: NaN.
    """
    return change_at(series.values, t - series.start)


def _baseline_at(values, i):
    """rolling_baseline at index i of a series' values, in Python floats.

    The sum runs left to right from +0.0, as np.mean's does on fewer than
    8 values, and never through sum(), which compensates from Python 3.12.
    """
    # values[i - BASELINE_MONTHS:i], oldest first, clamped at 0: a negative bound would wrap round
    total, count = 0.0, 0
    for v in values[max(i - BASELINE_MONTHS, 0) : max(i, 0)]:
        if v == v:  # not NaN
            total += v  # past the float range it is inf, without an error
            count += 1
    return total / count if count else math.nan


def change_at(values, i):
    """percent_change at index i of a series' values (month ``start + i``), in Python floats alone.

    drop_samples takes each drop from it, and report its case study, a
    series at a time, without loading numpy. Its baseline is np.mean's bit for bit,
    as tests/test_timeseries.py holds it.
    """
    x = values[i] if 0 <= i < len(values) else math.nan
    baseline = _baseline_at(values, i)
    if math.isnan(x) or math.isnan(baseline) or baseline <= BASELINE_EPSILON:
        return math.nan
    change = 100.0 * (x - baseline) / baseline
    return change if math.isfinite(change) else math.nan


def rolling_baselines(values):
    """rolling_baseline at every month of an array of series values, one series per row.

    ``values`` is one series' values or a (zones x months) array; the
    result has its shape. Bit-identical to the scalar: each window's
    usable values are summed in the same order, with -0.0 (the exact
    identity of float addition) in place of missing and pre-start months,
    and divided by their count.
    """
    values = np.asarray(values, dtype=np.float64)
    w = BASELINE_MONTHS
    padded = np.concatenate((np.full(values.shape[:-1] + (w,), np.nan), values), axis=-1)
    # windows[..., i, :] is values[..., i - w:i], oldest first
    windows = np.lib.stride_tricks.sliding_window_view(padded, w, axis=-1)[..., :-1, :]
    usable = ~np.isnan(windows)
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in rolling_baseline
        sums = np.where(usable, windows, -0.0).sum(axis=-1)
    counts = usable.sum(axis=-1)
    return np.divide(sums, counts, out=np.full(values.shape, np.nan), where=counts > 0)


def percent_changes(values):
    """percent_change at every month of series values, bit-identical, shaped as rolling_baselines."""
    values = np.asarray(values, dtype=np.float64)
    baselines = rolling_baselines(values)
    defined = ~np.isnan(values) & (baselines > BASELINE_EPSILON)  # a NaN baseline compares false
    changes = np.full(values.shape, np.nan)
    # an overflow gives inf, and an inf baseline inf / inf = NaN; either change is undefined
    with np.errstate(over="ignore", invalid="ignore"):
        changes[defined] = 100.0 * (values[defined] - baselines[defined]) / baselines[defined]
    changes[np.isinf(changes)] = np.nan
    return changes


def event_drop(series, window):
    """Negated percent change at the event month: positive = lights dimmed."""
    change = percent_change(series, window.event_month)
    return -change if not math.isnan(change) else math.nan


_SERIES_COLUMNS = ["zone_id", "year", "month", "mean_radiance", "percent_change"]
_SERIES_HEADER = ",".join(_SERIES_COLUMNS) + "\r\n"


def _field(value):
    return "" if math.isnan(value) else repr(value)


def spell_table(table, changes):
    """The ``radiance,change`` text of every month of every zone of a window table, spelled a table at once.

    ``changes`` is the table's percent_changes. The result holds one list
    per zone, one text per month, each field as _field spells it: what
    write_series_csv writes after a row's year and month.

    orjson spells the whole table in one call. Its text stands where it
    spells a value as _field does: 0 and magnitudes in [1e-4, 1e16), as
    for grid's _format_row, and NaN, whose null is made empty here. A
    month holding any other value, such as 1e-05 or inf, is spelled by
    _field.
    """
    import orjson  # here, not at the top, as in grid: report writes no series file

    n_zones, n_months = np.shape(table)
    pairs = np.stack([table, changes], axis=-1, dtype=np.float64).reshape(-1, 2)
    text = orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = text[2:-2].replace("null", "").split("],[") if pairs.size else []
    as_repr = _orjson_spells_as_repr(pairs) | np.isnan(pairs)
    for i in np.flatnonzero(~as_repr.all(axis=1)).tolist():
        texts[i] = ",".join(map(_field, pairs[i].tolist()))
    return [texts[z * n_months : (z + 1) * n_months] for z in range(n_zones)]


def _csv_field(text):
    """``text`` as csv.writer writes it inside a row: quoted, quotes doubled, only when it must be."""
    buffer = io.StringIO()
    # a second field: csv.writer quotes an empty field only when it is a row's only one
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


@lru_cache(maxsize=16)
def _month_columns(ordinal, n):
    """The year and the month fields of n months from an ordinal, as lists; every series of a window shares them."""
    ordinals = range(ordinal, ordinal + n)
    return [str(m // 12) for m in ordinals], [str(m % 12 + 1) for m in ordinals]


def write_series_csv(series, path, changes):
    """Write a series as CSV rows of zone_id, year, month, radiance, change.

    ``changes`` is the series' row of percent_changes, as Python floats,
    or, as extract passes it, the series' row of spell_table, which
    already holds each month's radiance and change fields. Missing and
    undefined entries are empty fields, so early rows with no history
    have an empty change.

    The bytes are csv.writer's (excel dialect: CRLF rows, the zone id
    quoted only when it must be) in UTF-8, built as one string.
    """
    if not isinstance(changes[0], str):
        (changes,) = spell_table([series.values], [changes])
    zone = _csv_field(series.zone_id)
    years, months = _month_columns(series.start.ordinal, len(series.values))
    rows = [f"{zone},{year},{month},{fields}\r\n" for year, month, fields in zip(years, months, changes)]
    with open(path, "wb") as fh:
        fh.write((_SERIES_HEADER + "".join(rows)).encode())


def _plain_int(text, name):
    """int(text) for text spelled as str spells a non-negative int: ASCII digits, without a leading zero."""
    value = int(text)  # its error names text that is no integer at all
    if not (text.isdigit() and text.isascii()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"{name} {text!r} is not plain digits")
    return value


def read_series_csv(path):
    """Read a file in write_series_csv's form back into a ZoneSeries (radiance column only).

    That form is its header, then a row of five fields per month, each of
    the same zone and a month after the row before; a year and a month are
    ASCII digits without a leading zero, and a radiance is empty for a
    missing month, or finite and spelled as repr spells it. Any other
    file, one that is not UTF-8 text, or a field over
    csv.field_size_limit(), raises ReportError naming the path and, for a
    row fault, the line; a row is checked for field count, year, month,
    radiance, zone, sequence.

    The text is read once. Text exactly as write_series_csv writes it is
    read by a few whole-string operations (_read_written_form); any other
    goes to csv.reader row by row (_read_rows), which finds the first
    fault and names its line.

    A path that is not a regular file, such as a directory or a FIFO, is
    FileNotFoundError: a FIFO is opened without waiting for a writer, and
    nothing is read from it.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise FileNotFoundError(f"{path}: not a regular file")
        with open(fd, "rb", closefd=False) as fh:
            data = fh.read()
    finally:
        os.close(fd)
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path}: not UTF-8 text: byte {exc.start} is {exc.object[exc.start]:#04x}") from None
    return _read_written_form(text) or _read_rows(path, text)


_NOT_RADIANCE = {"nan", "inf", "-inf"}  # the texts repr gives a float that is not finite


def _read_written_form(text):
    """The ZoneSeries of text exactly as write_series_csv writes it, or None for any other text.

    That is the header, then one or more CRLF rows of five fields: an
    unquoted zone, the same on every row; years and months that run on
    from the first row's, as _month_columns spells them; and each radiance
    empty or finite, spelled as repr spells it. Where the text passes
    these checks, _read_rows reads it to the same series bit for bit;
    the differential tests in tests/test_timeseries.py hold the two
    together.
    """
    # a quote would need csv's unquoting; a field over the limit, csv's error
    if not text.startswith(_SERIES_HEADER) or '"' in text or len(text) > csv.field_size_limit():
        return None
    body = text[len(_SERIES_HEADER) :]
    n = body.count("\r\n")
    # every \r and \n ends a row: a line break inside a field, even in the change, which is not read, is refused
    if body.count("\r") != n or body.count("\n") != n:
        return None
    # every row after the first starts with "\n" and the last ends with one: n rows of five fields,
    # and nothing after them, put these at field indices 5, 10, ..., 5n and no other "\n" anywhere
    fields = body.replace("\r\n", ",\n").split(",")
    zone = fields[0]
    if len(fields) != 5 * n + 1 or fields[5::5] != [f"\n{zone}"] * (n - 1) + ["\n"]:
        return None
    try:
        first = month_ordinal(_plain_int(fields[1], "year"), _plain_int(fields[2], "month"))
    except ValueError:
        return None
    years, months = _month_columns(first, n)
    if fields[1::5] != years or fields[2::5] != months:
        return None
    radiance = fields[3::5]
    spelled = [field or "nan" for field in radiance]  # an empty field is a missing month
    try:
        values = list(map(float, spelled))
    except ValueError:
        return None
    if list(map(repr, values)) != spelled or not _NOT_RADIANCE.isdisjoint(radiance):
        return None
    return ZoneSeries(zone, MonthIndex.from_ordinal(first), values)


def _read_rows(path, text):
    """The ZoneSeries of a series file's text, row by row through csv.reader; raises ReportError at the first fault.

    The reference for _read_written_form, and the path that names a
    faulty file's line.
    """
    values = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != _SERIES_COLUMNS:
            raise ReportError(f"{path}: the first line is not the header {_SERIES_HEADER.rstrip()}")
        for row in reader:
            if len(row) != len(_SERIES_COLUMNS):
                raise ValueError(f"expected {len(_SERIES_COLUMNS)} fields, got {len(row)}")
            zone_id, year, month, field, _ = row
            ordinal = month_ordinal(_plain_int(year, "year"), _plain_int(month, "month"))
            value = float(field) if field else math.nan  # an empty field is a missing month
            if field and not math.isfinite(value):
                raise ValueError(f"radiance {field!r} is not finite")
            if field and repr(value) != field:
                raise ValueError(f"radiance {field!r} is not spelled as repr spells it: {value!r}")
            values.append(value)
            if len(values) == 1:
                first, zone = ordinal, zone_id
            elif zone_id != zone:
                raise ValueError(f"zone {zone_id!r} after zone {zone!r}; one zone per file")
            elif ordinal != first + len(values) - 1:
                raise ValueError(f"month {MonthIndex.from_ordinal(ordinal)} does not follow the row before")
    except (ValueError, csv.Error) as exc:  # csv.Error: say, a field over csv.field_size_limit()
        raise ReportError(f"{path}: line {reader.line_num}: {exc}") from None
    if not values:
        raise ReportError(f"{path}: empty series file")
    return ZoneSeries(zone, MonthIndex.from_ordinal(first), values)
