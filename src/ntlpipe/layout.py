"""Dataset directories on disk: file names, scanning, loading and writing.

A dataset directory holds ``<YYYY-MM>.asc`` monthly radiance,
``<YYYY-MM>.qf.asc`` monthly quality, daily ``<YYYY-MM-DD>.asc`` and
``<YYYY-MM-DD>.qf.asc`` (VNP46A2 only), and ``built_fraction.asc``. Daily
radiance aggregates to a monthly median composite; daily quality
aggregates by majority vote over the observed days (a pixel is
monthly-high-quality when more than half of its observed days are). An
explicit monthly file always wins over daily files for the same month.

Every grid one load reads shares one geometry: the dataset's configured
grid when it has one, else that of the first radiance file read.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridParseError
from .grid import GridSpec, IntRaster, as_float, read_grid
from .quality import VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE, Dataset, high_quality_mask
from .stack import MonthIndex, RasterStack
from .timeseries import monthly_median_composite

__all__ = ["BUILT_FRACTION_FILENAME", "DatasetConfig", "scan_dataset_dir", "load_dataset", "dataset_files"]

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
    for entry in sorted(directory.iterdir() if directory.is_dir() else []):
        m = pattern.match(entry.name)
        if m and not m.group(2):
            monthly[MonthIndex.parse(m.group(1))] = entry
        elif m and daily:
            days.setdefault(MonthIndex.parse(m.group(1)), []).append(entry)
    return {**days, **monthly}


def _majority_quality_composite(daily_quality_grids):
    """Monthly quality from daily quality words by per-pixel majority vote.

    A pixel is monthly-high-quality when more than half of the days it was
    observed decode high-quality; pixels observed on no day are missing.
    The result uses one canonical high- and one canonical low-quality word.
    """
    spec = daily_quality_grids[0].spec
    observed = np.zeros(spec.shape, dtype=np.int64)
    high = np.zeros(spec.shape, dtype=np.int64)
    for grid in daily_quality_grids:
        observed += grid.valid
        high += high_quality_mask(grid, Dataset.VNP46A2)
    words = np.where(high * 2 > observed, VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE)
    return IntRaster(spec, words, observed == 0)


def load_dataset(dataset, month_lo, month_hi, need_quality):
    """Load a dataset's stacks for months within [month_lo, month_hi].

    Returns (radiance stack, quality stack or None, built fraction or
    None). Daily files aggregate to monthly composites. Radiance grids are
    coerced to real-valued rasters so integer-looking files behave the
    same as any other radiance. Raises ConfigError naming the file when a
    grid it reads is malformed or off the dataset's geometry; messages
    leave naming the dataset to the caller.
    """
    radiance_files, quality_files = scan_dataset_dir(dataset)
    reference, source = dataset.expected_grid, "configured grid"

    def read(path):
        nonlocal reference, source
        try:
            grid = read_grid(path)
        except GridParseError as exc:
            raise ConfigError(f"unreadable grid {path.name}: {exc}") from None
        if reference is None:
            reference, source = grid.spec, path.name
        elif grid.spec != reference:
            raise ConfigError(f"grid of {path.name} does not match {source}")
        return grid

    months = tuple(m for m in sorted(radiance_files) if month_lo <= m <= month_hi)
    if not months:
        raise ConfigError(
            f"no radiance months found in {dataset.raster_dir} within {month_lo}..{month_hi}"
        )
    radiance = RasterStack(
        months,
        [as_float(_month_grid(radiance_files[m], read, monthly_median_composite)) for m in months],
    )

    quality = None
    if need_quality:
        absent = [str(m) for m in months if m not in quality_files]
        if absent:
            raise ConfigError(
                f"quality filtering requested but quality files are missing "
                f"for months: {', '.join(absent)}"
            )
        quality = RasterStack(
            months,
            [_month_grid(quality_files[m], read, _majority_quality_composite) for m in months],
        )

    built = as_float(read(dataset.built_path)) if dataset.built_path.is_file() else None
    return radiance, quality, built


def _month_grid(source, read, composite):
    """A month's grid: its monthly file, or the composite of its daily files."""
    return composite([read(p) for p in source]) if isinstance(source, list) else read(source)


def dataset_files(directory, radiance, quality, built):
    """(path, grid) for every file of a monthly dataset under a directory Path, in write order."""
    return (
        [(directory / f"{month}.asc", grid) for month, grid in radiance]
        + [(directory / f"{month}.qf.asc", grid) for month, grid in quality]
        + [(directory / BUILT_FRACTION_FILENAME, built)]
    )
