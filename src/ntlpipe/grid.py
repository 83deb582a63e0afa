"""Grid data model, ASCII grid file I/O, and class-fraction resampling.

Rasters are 2-D row-major arrays on a square-cell planar grid. Row 0 is the
northernmost row, and the pixel-center of cell (row r, col c) sits at

    x = x_origin + (c + 0.5) * cell_size
    y = y_origin + (nrows - r - 0.5) * cell_size

where (x_origin, y_origin) is the lower-left corner of the grid. All grids
carry an explicit per-cell missing mask; the numeric value stored under a
missing cell is never read, and constructors zero it so equal grids compare
bit-identically.

File interchange uses the ASCII grid layout: six header lines (``ncols``,
``nrows``, ``xllcorner``, ``yllcorner``, ``cellsize``, ``NODATA_value``,
case-insensitive, any order) followed by ``nrows`` lines of ``ncols``
whitespace-separated tokens, northernmost row first. Grids whose data tokens
are all integer literals, with no valid cell negative or of 2^63 or more,
read back as :class:`IntRaster`, everything else as :class:`RasterGrid`.
Only square cells are supported; headers describing rectangular cells
(``dx``/``dy`` variants) are rejected at parse time.

No projection or datum handling is done anywhere: all rasters and polygons
used together are assumed co-registered in a single planar frame.
"""

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridParseError

__all__ = [
    "GridSpec",
    "RasterGrid",
    "IntRaster",
    "read_grid",
    "write_grid",
    "as_float",
    "class_fraction_resample",
]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a square-cell grid: shape, lower-left origin, cell size."""

    ncols: int
    nrows: int
    x_origin: float
    y_origin: float
    cell_size: float

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.nrows}x{self.ncols}")
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")

    @property
    def shape(self):
        """(nrows, ncols), the numpy array shape of rasters on this grid."""
        return (self.nrows, self.ncols)

    @property
    def size(self):
        return self.nrows * self.ncols

    def center_xs(self):
        """X coordinates of all pixel-centers, one per column."""
        return self.x_origin + (np.arange(self.ncols) + 0.5) * self.cell_size

    def center_ys(self):
        """Y coordinates of all pixel-centers, one per row (row 0 north)."""
        return self.y_origin + (self.nrows - np.arange(self.nrows) - 0.5) * self.cell_size

    def cell_center(self, row, col):
        """Pixel-center (x, y) of the cell at (row, col)."""
        x = self.x_origin + (col + 0.5) * self.cell_size
        y = self.y_origin + (self.nrows - row - 0.5) * self.cell_size
        return x, y

    def cell_at(self, x, y):
        """(row, col) of the cell containing point (x, y), or None if outside."""
        col = math.floor((x - self.x_origin) / self.cell_size)
        row = self.nrows - 1 - math.floor((y - self.y_origin) / self.cell_size)
        if 0 <= row < self.nrows and 0 <= col < self.ncols:
            return row, col
        return None


def _normalize_raster(spec, values, missing, dtype):
    vals = np.array(values, copy=True)
    if vals.ndim == 1 and vals.size == spec.size:
        vals = vals.reshape(spec.shape)
    if vals.shape != spec.shape:
        raise ValueError(f"values shape {vals.shape} does not match grid {spec.shape}")
    if missing is None:
        miss = np.zeros(spec.shape, dtype=bool)
    else:
        miss = np.array(missing, dtype=bool, copy=True)
        if miss.ndim == 1 and miss.size == spec.size:
            miss = miss.reshape(spec.shape)
        if miss.shape != spec.shape:
            raise ValueError(f"missing mask shape {miss.shape} does not match grid {spec.shape}")
    if dtype == np.int64 and np.issubdtype(vals.dtype, np.floating):
        if not np.all(vals[~miss] == np.floor(vals[~miss])):
            raise ValueError("integer raster given non-integral values")
    vals = vals.astype(dtype, copy=False)  # vals is already a copy
    if dtype == np.float64 and not np.all(np.isfinite(vals[~miss])):
        raise ValueError("non-finite value in a valid cell")
    if dtype == np.int64 and np.any(vals[~miss] < 0):
        raise ValueError("integer raster values must be non-negative")
    vals[miss] = 0  # value under a missing cell is never read; zero for stable equality
    vals.flags.writeable = False
    miss.flags.writeable = False
    return vals, miss


class _RasterMixin:
    @property
    def valid(self):
        """Boolean array, True where the cell holds a usable observation."""
        return ~self.missing

    def masked_values(self):
        """Float copy of the values with NaN substituted at missing cells."""
        out = self.values.astype(np.float64)
        out[self.missing] = np.nan
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.missing, other.missing)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # array payload; equality is by value, so not hashable

    def allclose(self, other, atol=1e-9):
        """True if specs and masks match and valid cells agree within atol."""
        if type(other) is not type(self) or self.spec != other.spec:
            return False
        if not np.array_equal(self.missing, other.missing):
            return False
        ok = self.valid
        return bool(np.all(np.abs(self.values[ok] - other.values[ok]) <= atol))


@dataclass(frozen=True, eq=False)
class RasterGrid(_RasterMixin):
    """Real-valued raster (e.g. radiance in nW/cm^2/sr) with a missing mask.

    ``values`` may be passed as a (nrows, ncols) array or a flat row-major
    sequence of length nrows*ncols. ``missing`` defaults to all-False.
    Arrays are copied and frozen; instances are safe to share across threads.
    """

    spec: GridSpec
    values: np.ndarray
    missing: np.ndarray = None

    def __post_init__(self):
        vals, miss = _normalize_raster(self.spec, self.values, self.missing, np.float64)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", miss)

    def with_values(self, values, missing=None):
        """New grid on the same spec with replacement values/mask."""
        return RasterGrid(self.spec, values, missing)


@dataclass(frozen=True, eq=False)
class IntRaster(_RasterMixin):
    """Non-negative integer raster: class labels, counts, or quality words."""

    spec: GridSpec
    values: np.ndarray
    missing: np.ndarray = None

    def __post_init__(self):
        vals, miss = _normalize_raster(self.spec, self.values, self.missing, np.int64)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", miss)

    def with_values(self, values, missing=None):
        return IntRaster(self.spec, values, missing)


def as_float(grid):
    """Coerce an IntRaster to a RasterGrid; RasterGrids pass through unchanged."""
    if isinstance(grid, RasterGrid):
        return grid
    return RasterGrid(grid.spec, grid.values.astype(np.float64), grid.missing)


_HEADER_KEYS = {
    "ncols": int,
    "nrows": int,
    "xllcorner": float,
    "yllcorner": float,
    "cellsize": float,
    "nodata_value": float,
}

_INT_TOKEN = re.compile(r"^[+-]?\d+$")


def read_grid(path):
    """Parse an ASCII grid file into a RasterGrid or IntRaster.

    Cells equal to the declared NODATA value become missing. The raster is
    an IntRaster when every data token is an integer literal and no valid
    cell is negative or of 2^63 or more (past int64), otherwise a
    RasterGrid. Raises GridParseError (with a 1-based line number) on any
    malformed header or data line.

    Only the header lines are split into tokens. A well-formed body goes
    through numpy's C text reader in one call; any other body goes to the
    line-by-line loop, which finds the first fault and names its line.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    header = {}
    header_lines = {}
    pos = 0
    while len(header) < len(_HEADER_KEYS):
        if pos >= len(lines):
            missing = sorted(set(_HEADER_KEYS) - set(header))
            raise GridParseError(f"incomplete header, missing {', '.join(missing)}")
        tokens = lines[pos].split()
        pos += 1
        lineno = pos
        if not tokens:
            continue  # a line is blank when it splits into no tokens
        if len(tokens) != 2:
            raise GridParseError(f"expected 'key value' header line, got {len(tokens)} tokens", lineno)
        key = tokens[0].lower()
        if key not in _HEADER_KEYS:
            raise GridParseError(f"unknown header key {tokens[0]!r} (square cells only)", lineno)
        if key in header:
            raise GridParseError(f"duplicate header key {tokens[0]!r}", lineno)
        try:
            header[key] = _HEADER_KEYS[key](tokens[1])
        except ValueError:
            raise GridParseError(f"malformed value {tokens[1]!r} for header key {tokens[0]!r}", lineno) from None
        header_lines[key] = lineno

    try:
        spec = GridSpec(
            ncols=header["ncols"],
            nrows=header["nrows"],
            x_origin=header["xllcorner"],
            y_origin=header["yllcorner"],
            cell_size=header["cellsize"],
        )
    except ValueError as exc:
        raise GridParseError(str(exc), header_lines["cellsize"]) from None

    body_lines = lines[pos:]
    body = _convert_body(spec, body_lines)
    if body is None:
        data_lines = [
            (lineno, tokens)
            for lineno, tokens in enumerate(map(str.split, body_lines), start=pos + 1)
            if tokens
        ]
        body = _parse_body(spec, data_lines)
    values, all_int = body
    missing = values == header["nodata_value"]
    if all_int:
        # an IntRaster's valid cells are non-negative int64s, so a negative cell, or
        # one astype would wrap, makes the body real-valued
        valid = values[~missing]
        all_int = not ((valid < 0) | (valid >= 2.0**63)).any()
    if all_int:
        return IntRaster(spec, values.astype(np.int64), missing)
    return RasterGrid(spec, values, missing)


def _convert_body(spec, body_lines):
    """(values, all_int) of a well-formed body in one np.loadtxt call; None if any check fails.

    body_lines come from str.splitlines, so rows end where they end for
    _parse_body. loadtxt splits a line where str.split does and converts
    each token with PyOS_string_to_double, as float() does, but only plain
    ASCII tokens: no '_', non-ASCII digit or surrounding junk. So a body
    that passes every check here gets the same bits as from _parse_body;
    the differential tests in tests/test_grid.py hold the two together.
    """
    if not any(map(str.strip, body_lines)):
        return None  # no data row; loadtxt would warn, and _parse_body names the fault
    try:
        values = np.loadtxt(body_lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != spec.shape or not np.isfinite(values).all():
        return None
    if (values != np.floor(values)).any():
        return values, False  # an integer literal converts to an integral value
    # loadtxt's tokens are [+-]digits, with a fraction or exponent or both, or
    # inf and nan spelled out, which the finite check refused
    text = "".join(body_lines)
    return values, not ("." in text or "e" in text or "E" in text)


def _parse_body(spec, data_lines):
    """(values, all_int) of the data lines, token by token; raises GridParseError at the first fault.

    The reference for _convert_body, and the path that names a malformed
    body's line.
    """
    if len(data_lines) != spec.nrows:
        raise GridParseError(
            f"expected {spec.nrows} data rows, found {len(data_lines)}",
            data_lines[spec.nrows][0] if len(data_lines) > spec.nrows else None,
        )
    values = np.empty(spec.shape, dtype=np.float64)
    all_int = True
    for r, (lineno, tokens) in enumerate(data_lines):
        if len(tokens) != spec.ncols:
            raise GridParseError(f"expected {spec.ncols} cell tokens, got {len(tokens)}", lineno)
        for c, tok in enumerate(tokens):
            try:
                v = float(tok)
            except ValueError:
                raise GridParseError(f"non-numeric cell token {tok!r}", lineno) from None
            if not math.isfinite(v):
                raise GridParseError(f"non-finite cell value {tok!r}", lineno)
            values[r, c] = v
            if all_int and not _INT_TOKEN.match(tok):
                all_int = False
    return values, all_int


def write_grid(grid, path, nodata=-9999.0):
    """Write a raster to an ASCII grid file.

    Float values are printed with full round-trip precision, so
    read_grid(write_grid(g)) reproduces g exactly. Missing cells are written
    as the NODATA token; a grid holding a valid value equal to ``nodata`` is
    rejected (pick a different sentinel).
    """
    is_int = isinstance(grid, IntRaster)
    if is_int:
        if nodata != int(nodata):
            raise ValueError(f"integer raster needs an integer nodata, got {nodata}")
        nodata_tok = str(int(nodata))
    else:
        nodata_tok = repr(float(nodata))
    if np.any(grid.values[grid.valid] == nodata):
        raise ValueError(f"grid contains valid cells equal to the nodata sentinel {nodata}")

    spec = grid.spec
    lines = [
        f"ncols {spec.ncols}",
        f"nrows {spec.nrows}",
        f"xllcorner {float(spec.x_origin)!r}",
        f"yllcorner {float(spec.y_origin)!r}",
        f"cellsize {float(spec.cell_size)!r}",
        f"NODATA_value {nodata_tok}",
    ]
    fmt = str if is_int else repr  # on the Python ints and floats tolist gives
    for values, missing in zip(grid.values.tolist(), grid.missing.tolist()):
        lines.append(" ".join(nodata_tok if m else fmt(v) for v, m in zip(values, missing)))
    Path(path).write_text("\n".join(lines) + "\n")


def class_fraction_resample(src, target_spec, class_label):
    """Fraction of matching-label source pixels per target cell.

    Each target cell receives the fraction (in [0, 1]) of non-missing source
    pixel-centers falling inside it whose value equals ``class_label``.
    Target cells receiving no source centers are missing. Both grids must
    share one planar coordinate frame; that is the caller's responsibility
    and is not checked here.
    """
    t = target_spec
    cols = np.floor((src.spec.center_xs() - t.x_origin) / t.cell_size).astype(np.int64)
    rows = t.nrows - 1 - np.floor((src.spec.center_ys() - t.y_origin) / t.cell_size).astype(np.int64)
    in_x = (cols >= 0) & (cols < t.ncols)
    in_y = (rows >= 0) & (rows < t.nrows)
    contributing = src.valid & in_y[:, None] & in_x[None, :]

    # clip keeps flat indices legal for out-of-bounds centers; they are
    # excluded from the counts by the contributing mask
    flat = np.clip(rows, 0, t.nrows - 1)[:, None] * t.ncols + np.clip(cols, 0, t.ncols - 1)[None, :]
    totals = np.bincount(flat[contributing], minlength=t.size)
    matches = np.bincount(flat[contributing & (src.values == class_label)], minlength=t.size)

    empty = totals == 0
    fractions = np.divide(matches, totals, out=np.zeros(t.size), where=~empty)
    return RasterGrid(t, fractions.reshape(t.shape), empty.reshape(t.shape))
