"""Dataset directories on disk: file names, scanning, loading and writing.

A dataset directory holds ``<YYYY-MM>.asc`` monthly radiance,
``<YYYY-MM>.qf.asc`` monthly quality, daily ``<YYYY-MM-DD>.asc`` and
``<YYYY-MM-DD>.qf.asc`` (VNP46A2 only), and ``built_fraction.asc``. Daily
radiance aggregates to a monthly median composite; daily quality
aggregates by majority vote over the observed days (a pixel is
monthly-high-quality when more than half of its observed days are). An
explicit monthly file always wins over daily files for the same month.

Every grid reads as floats. A quality grid is where a grid turns into
integers: each valid cell must be an integer in [0, 2^16), a VNP46A2
quality word or a VSC-NTL cloud-free count, and a VNP46A2 word must hold
no reserved field. _quality_words checks that on the whole grid and
returns the IntRaster the quality stack is built from.

Every grid one load reads shares one geometry: the dataset's configured
grid when it has one, else that of the first radiance file read. The
loader checks each file whole, then keeps only the cells some zone
covers: the chain's stages are all pixel-local, so a stack is carried as
one (months x cells) cube of those cells, and a zone as its positions
within a month's row. A cell outside every zone is read and checked,
never held. When the zones cover every cell, a month is the grid as read.
"""

import os
import re
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .errors import ConfigError, GridParseError, QualityDecodeError
from .grid import GridSpec, IntRaster, read_grid
from .quality import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    Dataset,
    decode_vnp46a2_quality,
    vnp46a2_high_quality,
    vnp46a2_reserved,
)
from .stack import MonthIndex, StackBuilder
from .timeseries import monthly_median_composite
from .zones import zone_columns

__all__ = ["BUILT_FRACTION_FILENAME", "DatasetConfig", "scan_dataset_dir", "load_dataset", "month_paths"]

# group 1 is the month; group 2, the day, is present only in a daily file name
_RADIANCE_RE = re.compile(r"^(\d{4}-(?:0[1-9]|1[0-2]))(-\d{2})?\.asc$")
_QUALITY_RE = re.compile(r"^(\d{4}-(?:0[1-9]|1[0-2]))(-\d{2})?\.qf\.asc$")
BUILT_FRACTION_FILENAME = "built_fraction.asc"


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset directory and how to interpret it."""

    name: str
    kind: Dataset
    raster_dir: Path
    quality_dir: Path
    expected_grid: GridSpec = None

    @property
    def built_path(self):
        return self.raster_dir / BUILT_FRACTION_FILENAME


def scan_dataset_dir(dataset):
    """Discover month-keyed files in a dataset directory.

    Returns (radiance, quality) dicts mapping MonthIndex to either a Path
    (monthly file) or a sorted list of Paths (daily files needing
    aggregation). Monthly files shadow daily ones for the same month.
    Daily layouts are only recognized for VNP46A2.
    """
    daily = dataset.kind is Dataset.VNP46A2
    return (
        _scan(dataset.raster_dir, _RADIANCE_RE, daily),
        _scan(dataset.quality_dir, _QUALITY_RE, daily),
    )


def _scan(directory, pattern, daily):
    monthly, days = {}, {}
    # names sort as the entries' Paths would: every entry has the same parent
    for name in sorted(os.listdir(directory) if directory.is_dir() else []):
        m = pattern.match(name)
        if m and not m.group(2):
            monthly[MonthIndex.parse(m.group(1))] = directory / name
        elif m and daily:
            days.setdefault(MonthIndex.parse(m.group(1)), []).append(directory / name)
    return {**days, **monthly}


def _majority_quality_composite(daily_quality_grids):
    """Monthly quality from daily quality words by per-pixel majority vote.

    A pixel is monthly-high-quality when more than half of the days it was
    observed decode high-quality; pixels observed on no day are missing.
    The result uses one canonical high- and one canonical low-quality word.
    No word is decoded but the smallest reserved word of the month, whose
    QualityDecodeError is raised (vnp46a2_high_quality).
    """
    words = np.stack([grid.values for grid in daily_quality_grids])
    valid = ~np.stack([grid.missing for grid in daily_quality_grids])
    high = vnp46a2_high_quality(words, valid)
    observed = valid.sum(axis=0)
    monthly = np.where(high.sum(axis=0) * 2 > observed, VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE)
    return IntRaster(daily_quality_grids[0].spec, monthly, observed == 0)


def _quality_words(grid, name, kind):
    """The IntRaster of a whole quality grid; ConfigError naming the file unless every valid cell is usable.

    A usable cell is an integer in [0, 2^16): a VNP46A2 word, which must
    also hold no reserved field, or a VSC-NTL cloud-free count.
    """
    values = grid.values[grid.valid]
    if (values < 0).any():
        raise ConfigError(f"negative quality value in {name}")
    if (values >= 1 << 16).any():
        raise ConfigError(f"quality {'word' if kind is Dataset.VNP46A2 else 'value'} of 2^16 or more in {name}")
    if (values != np.floor(values)).any():
        raise ConfigError(f"fractional quality value in {name}")
    words = IntRaster(grid.spec, grid.values, grid.missing)
    if kind is Dataset.VNP46A2:
        reserved = vnp46a2_reserved(words.values)  # a missing cell's word is 0, which is not
        if reserved.any():
            try:
                decode_vnp46a2_quality(words.values[reserved].min())  # only the smallest is decoded
            except QualityDecodeError as exc:
                raise ConfigError(f"{exc} in {name}") from None
    return words


def load_dataset(dataset, month_lo, month_hi, configs, zones):
    """Load a dataset's months within [month_lo, month_hi], kept only where a zone lies.

    Every file is read and checked whole, then cut down to the cells of
    zone_columns(zones, reference grid) by its cut, as simulate's oracle
    cuts its scene, daily files before they are composited, and copied
    into a preallocated (months x cells) cube: a month is one row of those
    cells, in the grid's row-major order, at the reference grid's origin
    and cell size, or, when the zones cover every cell, the grid as read.
    Returns (radiance stack, quality stack or None, built fraction or
    None, positions), where positions maps each zone_id to its cells'
    positions within that row, or its row-major flat indices on the whole
    grid. Every stage of the chain, the daily composites included, is
    pixel-local, so the cells no zone covers are never needed. The
    quality stack is loaded only when one of ``configs`` filters by quality.

    Daily files aggregate to monthly composites. Radiance and built
    fraction are float64, as every grid reads. A quality stack holds
    VNP46A2 words as uint16 and VSC-NTL cloud-free counts as int64
    (Dataset.word_dtype), each month checked by _quality_words first.

    Raises ConfigError naming the file when a grid it reads is malformed
    or off the dataset's geometry, or a quality grid holds a valid cell
    that is negative, of 2^16 or more or fractional, or, for VNP46A2, a
    word with a reserved field; then when a config needs a quality or
    built-fraction file that is absent. Messages leave naming the dataset
    to the caller.
    """
    radiance_files, quality_files = scan_dataset_dir(dataset)
    reference, source = dataset.expected_grid, "configured grid"
    columns = None  # zone_columns on the reference grid, once that is known

    def read(path, check=None):
        """The file's grid, checked whole (and as ``check`` returns it), then cut down to the cells some zone covers."""
        nonlocal reference, source, columns
        try:
            grid = read_grid(path)
        except GridParseError as exc:
            raise ConfigError(f"unreadable grid {path.name}: {exc}") from None
        if reference is None:
            reference, source = grid.spec, path.name
        elif grid.spec != reference:
            raise ConfigError(f"grid of {path.name} does not match {source}")
        if check is not None:
            grid = check(grid, path.name, dataset.kind)
        if columns is None:
            columns = zone_columns(zones, reference)
        return columns.cut(grid)

    months = tuple(m for m in sorted(radiance_files) if month_lo <= m <= month_hi)
    if not months:
        raise ConfigError(
            f"no radiance months found in {dataset.raster_dir} within {month_lo}..{month_hi}"
        )
    radiance = _stack(months, radiance_files, read, monthly_median_composite, np.float64)

    quality = None
    if any(config.quality_filter for config in configs):
        absent = [str(m) for m in months if m not in quality_files]
        if absent:
            raise ConfigError(
                f"quality filtering requested but quality files are missing "
                f"for months: {', '.join(absent)}"
            )
        # _quality_words refuses a value outside [0, 2^16), so a checked month fits in word_dtype
        words = dataset.kind.word_dtype
        quality = _stack(months, quality_files, lambda p: read(p, _quality_words), _majority_quality_composite, words)

    built = read(dataset.built_path) if dataset.built_path.is_file() else None
    if built is None and any(config.built_mask for config in configs):
        raise ConfigError(f"built masking requested but {dataset.built_path} not found")
    return radiance, quality, built, columns.positions


def _stack(months, files, read, composite, dtype):
    """RasterStack of each month's file or daily composite, copied into one cube as read (see StackBuilder)."""
    builder = StackBuilder(months, dtype)
    for month in months:
        source = files[month]
        builder.add(composite([read(p) for p in source]) if isinstance(source, list) else read(source))
    return builder.stack()


def month_paths(directory, month):
    """The (radiance, quality) file paths of a month of a dataset directory Path."""
    return directory / f"{month}.asc", directory / f"{month}.qf.asc"
