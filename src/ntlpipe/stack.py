"""Calendar-month indexing and month-ordered raster stacks.

MonthIndex is a total order over (year, month) with exact month-difference
arithmetic, so temporal windows and imputation distances never touch
day-level calendars. A RasterStack maps strictly increasing months to
rasters on one shared grid; gaps are allowed and simply read as absent
months, never as zeros. A stack is one frozen (months x rows x cols) cube
of ``values``, float64, int64 or uint16 (VNP46A2 quality words), and one
of ``missing`` flags, so each cleanup stage takes it in one call, as it
takes a raster; a month of it is a read-only view. A StackBuilder fills
the cube a month at a time, as each month's raster is read or drawn.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass

from ._numpy import np
from .grid import GridSpec, IntRaster, RasterGrid, _normalize_raster

__all__ = ["MonthIndex", "RasterStack", "StackBuilder", "month_ordinal"]

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


def month_ordinal(year, month):
    """Months since year 0, January, of (year, month); raises ValueError unless month is 1-12."""
    if not 1 <= month <= 12:
        raise ValueError(f"month must be 1-12, got {month}")
    return year * 12 + month - 1


@dataclass(frozen=True, order=True)
class MonthIndex:
    """One calendar month. Ordering and subtraction are exact in months."""

    year: int
    month: int

    def __post_init__(self):
        month_ordinal(self.year, self.month)  # the month check

    @property
    def ordinal(self):
        """Months since year 0, January; the subtraction basis."""
        return month_ordinal(self.year, self.month)

    @classmethod
    def from_ordinal(cls, ordinal):
        return cls(ordinal // 12, ordinal % 12 + 1)

    @classmethod
    def parse(cls, text):
        """Parse 'YYYY-MM'."""
        m = _MONTH_RE.match(text)
        if not m:
            raise ValueError(f"expected 'YYYY-MM', got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self):
        return f"{self.year:04d}-{self.month:02d}"

    def __add__(self, months):
        return MonthIndex.from_ordinal(self.ordinal + int(months))

    def __sub__(self, other):
        if isinstance(other, MonthIndex):
            return self.ordinal - other.ordinal
        return MonthIndex.from_ordinal(self.ordinal - int(other))


@dataclass(frozen=True, eq=False)
class RasterStack:
    """Rasters keyed by strictly increasing months on one grid, as one float64, int64 or uint16 cube; equal by value."""

    months: tuple
    spec: GridSpec
    values: "np.ndarray"
    missing: "np.ndarray"

    def __init__(self, months, grids):
        """Stacks the grids, copying each once; a float64 cube's months are RasterGrids, an integer one's IntRasters."""
        grids = tuple(grids)
        if len({g.spec for g in grids}) != 1:
            raise ValueError("stack grids disagree on grid geometry, or there are none")
        values, missing = np.stack([g.values for g in grids]), np.stack([g.missing for g in grids])
        self._take(months, grids[0].spec, values, missing)

    @classmethod
    def from_cube(cls, months, spec, values, missing):
        """The stack of (months, nrows, ncols) arrays, taken over: checked as a raster's and frozen in place.

        So hand over arrays that own their memory and nothing else writes to.
        """
        return cls.__new__(cls)._take(months, spec, values, missing)

    def _take(self, months, spec, values, missing):
        months = tuple(months)
        if values.ndim != 3 or len(values) != len(months):
            raise ValueError(f"{len(months)} months vs values of shape {values.shape}")
        if any(b - a <= 0 for a, b in zip(months, months[1:])):
            raise ValueError("stack months must be strictly increasing")
        # a uint16 cube (VNP46A2 quality words) keeps its dtype; any other integer cube becomes int64
        dtype = values.dtype if values.dtype == np.uint16 else np.int64 if values.dtype.kind in "iu" else np.float64
        values, missing = _normalize_raster(spec, values, missing, dtype)
        self.__dict__.update(months=months, spec=spec, values=values, missing=missing)
        return self

    def with_values(self, values, missing):
        """The same months on the same grid with a replacement cube, taken over as from_cube takes it."""
        return RasterStack.from_cube(self.months, self.spec, values, missing)

    def __eq__(self, other):
        if type(other) is not RasterStack:
            return NotImplemented
        same = (self.months, self.spec, self.values.dtype) == (other.months, other.spec, other.values.dtype)
        return same and np.array_equal(self.missing, other.missing) and np.array_equal(self.values, other.values)

    __hash__ = None  # array payload; equality is by value, so not hashable

    def __iter__(self):
        """(month, raster) in month order, each raster a read-only view of the cube."""
        return ((m, self._month(i)) for i, m in enumerate(self.months))

    def get(self, month):
        """The raster at a month, a read-only view of the cube, or None when the month is absent."""
        i = bisect_left(self.months, month)
        return self._month(i) if self.months[i : i + 1] == (month,) else None

    def _month(self, i):
        raster = RasterGrid if self.values.dtype == np.float64 else IntRaster
        return raster._view(self.spec, self.values[i], self.missing[i])


class StackBuilder:
    """A RasterStack's cube of ``dtype``, filled one month at a time: each raster added is copied into it, then may go.

    The dtype is float64 for radiance, or Dataset.word_dtype for quality,
    and must hold every value added: a value is cast to it as numpy
    assignment casts, unchecked.
    """

    def __init__(self, months, dtype):
        self.months = tuple(months)
        self.dtype = dtype
        self.spec = self.values = self.missing = None
        self.added = 0

    def add(self, raster):
        """Copy the next month's raster into the cube."""
        if self.values is None:
            shape = (len(self.months), *raster.spec.shape)
            self.spec, self.values, self.missing = raster.spec, np.empty(shape, self.dtype), np.empty(shape, bool)
        self.values[self.added], self.missing[self.added] = raster.values, raster.missing
        self.added += 1

    def stack(self):
        """The RasterStack of the months, taking the cube over: drop the builder with it."""
        if self.added != len(self.months):
            raise ValueError(f"{self.added} rasters added for {len(self.months)} months")
        return RasterStack.from_cube(self.months, self.spec, self.values, self.missing)
