"""Calendar-month indexing and month-ordered raster stacks.

MonthIndex is a total order over (year, month) with exact month-difference
arithmetic, so temporal windows and imputation distances never touch
day-level calendars. A RasterStack maps strictly increasing months to
rasters on one shared grid; gaps are allowed and simply read as absent
months, never as zeros.
"""

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MonthIndex", "RasterStack", "month_ordinal"]

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


@dataclass(frozen=True)
class RasterStack:
    """Rasters keyed by strictly increasing months, all on one grid."""

    months: tuple
    grids: tuple
    _by_month: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        months = tuple(self.months)
        grids = tuple(self.grids)
        if len(months) != len(grids):
            raise ValueError(f"{len(months)} months vs {len(grids)} grids")
        if any(b - a <= 0 for a, b in zip(months, months[1:])):
            raise ValueError("stack months must be strictly increasing")
        specs = {g.spec for g in grids}
        if len(specs) > 1:
            raise ValueError("stack grids disagree on grid geometry")
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "_by_month", dict(zip(months, grids)))

    @property
    def spec(self):
        if not self.grids:
            raise ValueError("empty stack has no grid geometry")
        return self.grids[0].spec

    def __len__(self):
        return len(self.months)

    def __iter__(self):
        return iter(zip(self.months, self.grids))

    def get(self, month):
        """The raster at a month, or None when the month is absent."""
        return self._by_month.get(month)

    def with_grids(self, grids):
        """Same months, replacement rasters (one per month)."""
        return RasterStack(self.months, tuple(grids))

    def aligned_with(self, other):
        """True when months and grid geometry both agree."""
        return (
            self.months == other.months
            and bool(self.grids)
            and bool(other.grids)
            and self.spec == other.spec
        )

    def cube(self):
        """(values, missing) as (T, nrows, ncols) arrays, time-major."""
        values = np.stack([g.values for g in self.grids])
        missing = np.stack([g.missing for g in self.grids])
        return values, missing
