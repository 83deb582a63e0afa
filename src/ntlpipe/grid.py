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
whitespace-separated tokens, northernmost row first. Every grid reads back
as a :class:`RasterGrid` of the floats its tokens spell; a quality band
becomes an :class:`IntRaster` only where the loader checks it. Only
square cells are supported; headers describing rectangular cells
(``dx``/``dy`` variants) are rejected at parse time.

No projection or datum handling is done anywhere: all rasters and polygons
used together are assumed co-registered in a single planar frame.
"""

import contextlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .errors import GridParseError

__all__ = [
    "GridSpec",
    "RasterGrid",
    "IntRaster",
    "read_grid",
    "write_grid",
    "replacing",
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
        try:
            far = (self.x_origin + self.ncols * self.cell_size, self.y_origin + self.nrows * self.cell_size)
        except OverflowError:  # a count past the float range
            far = (math.inf, math.inf)
        if not all(map(math.isfinite, far)):
            raise ValueError(f"far corner {far} is past the float range")

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


def _normalize_raster(spec, values, missing, dtype):
    """(values, missing) of a raster on ``spec``, or of a stack of rasters (months first), checked and frozen.

    Works in place, on arrays that own their memory, so nothing can make them writeable again. Values under
    missing cells are zeroed (they are never read), then every cell is checked, so no check copies the values.
    """
    if values.shape[-2:] != spec.shape or values.ndim > 3:
        raise ValueError(f"values shape {values.shape} does not match grid {spec.shape}")
    dtype = np.dtype(dtype)  # a raster class names its dtype, as it is made before numpy loads
    if missing is None:
        missing = np.zeros(values.shape, dtype=bool)
    if missing.shape != values.shape:
        raise ValueError(f"missing mask shape {missing.shape} does not match values {values.shape}")
    np.copyto(values, 0, where=missing)  # so equal rasters compare bit-identically
    if dtype == np.int64 and np.issubdtype(values.dtype, np.floating) and (values != np.floor(values)).any():
        raise ValueError("integer raster given non-integral values")
    values = values.astype(dtype, copy=False)
    if dtype == np.float64 and not np.isfinite(values).all():
        raise ValueError("non-finite value in a valid cell")
    if dtype == np.int64 and (values < 0).any():
        raise ValueError("integer raster values must be non-negative")
    values.flags.writeable = False
    missing.flags.writeable = False
    return values, missing


def _owned(array, spec, dtype=None):
    """A copy of ``array`` for a raster on ``spec`` to own; a flat row-major array takes the grid's shape."""
    array = np.asarray(array)
    return np.array(array.reshape(spec.shape) if array.shape == (spec.size,) else array, dtype=dtype)


class _RasterMixin:
    def __post_init__(self):
        missing = None if self.missing is None else _owned(self.missing, self.spec, bool)
        values, missing = _normalize_raster(self.spec, _owned(self.values, self.spec), missing, self._dtype)
        self.__dict__.update(values=values, missing=missing)

    @classmethod
    def _view(cls, spec, values, missing):
        """A raster over arrays already checked and frozen, such as a month of a stack: shared, not copied."""
        raster = object.__new__(cls)
        raster.__dict__.update(spec=spec, values=values, missing=missing)
        return raster

    def with_values(self, values, missing=None):
        """New raster of the same type on the same spec with replacement values/mask."""
        return type(self)(self.spec, values, missing)

    @property
    def valid(self):
        """Boolean array, True where the cell holds a usable observation."""
        return ~self.missing

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.spec == other.spec
            and np.array_equal(self.missing, other.missing)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # array payload; equality is by value, so not hashable


@dataclass(frozen=True, eq=False)
class RasterGrid(_RasterMixin):
    """Real-valued raster (e.g. radiance in nW/cm^2/sr) with a missing mask.

    ``values`` may be passed as a (nrows, ncols) array or a flat row-major
    sequence of length nrows*ncols. ``missing`` defaults to all-False.
    Arrays are copied and frozen; instances are safe to share across threads.
    """

    spec: GridSpec
    values: "np.ndarray"
    missing: "np.ndarray" = None
    _dtype = "float64"


@dataclass(frozen=True, eq=False)
class IntRaster(_RasterMixin):
    """Non-negative integer raster: class labels, counts, or quality words.

    Its values are int64, or uint16 as a month of a stack of VNP46A2 words.
    """

    spec: GridSpec
    values: "np.ndarray"
    missing: "np.ndarray" = None
    _dtype = "int64"


_CHECK_CELLS = 4096  # cells read_grid converts, and write_grid checks against the sentinel, at once

_HEADER_KEYS = {
    "ncols": int,
    "nrows": int,
    "xllcorner": float,
    "yllcorner": float,
    "cellsize": float,
    "nodata_value": float,
}


def read_grid(path):
    """Parse an ASCII grid file into a RasterGrid.

    Each cell is the float64 its token reads as, as float() reads it, and
    cells equal to the declared NODATA value, compared as floats, become
    missing. Raises GridParseError (with a 1-based line number) on any
    malformed header or data line, on text that is not UTF-8, and, naming
    the path, on a file that cannot be read.

    Only the header lines are split into tokens. A well-formed body is
    read by np.loadtxt in one call when its cells are spelled short, and
    by orjson a block of rows per call when they are spelled long; any
    other body goes to the line-by-line loop, which finds the first fault
    and names its line.
    """
    path = Path(path)
    try:
        lines = _lines(path.read_text())
    except OSError as exc:
        raise GridParseError(f"{exc.strerror}: {path}") from None
    except UnicodeDecodeError as exc:
        raise GridParseError(f"not UTF-8 text: byte {exc.start} is {exc.object[exc.start]:#04x}") from None
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
    values = _convert_body(spec, body_lines)
    if values is None:
        data_lines = [
            (lineno, tokens)
            for lineno, tokens in enumerate(map(str.split, body_lines), start=pos + 1)
            if tokens
        ]
        values = _parse_body(spec, data_lines)
    return RasterGrid(spec, values, values == header["nodata_value"])


# str.splitlines' line boundaries in ASCII text besides "\n"
_OTHER_ASCII_BOUNDARIES = "\r\v\f\x1c\x1d\x1e"


def _lines(text):
    """text.splitlines(): split at "\n" alone where the text holds no other line boundary.

    splitlines checks every character against its eleven boundaries; ASCII
    text (isascii is O(1)) can hold only the six "\n" and these, each
    looked for by one fast scan.
    """
    if not text.isascii() or any(boundary in text for boundary in _OTHER_ASCII_BOUNDARIES):
        return text.splitlines()
    lines = text.split("\n")
    if lines[-1] == "":  # a final "\n" ends the last line, and starts none
        lines.pop()
    return lines


def _convert_body(spec, body_lines):
    """The values of a well-formed body, by np.loadtxt or by orjson; None if any check fails.

    body_lines come from _lines, which splits as str.splitlines does, so
    rows end where they end for _parse_body. The reader is chosen by how
    long the cells are spelled (see _JSON_CHARS): short tokens go to
    np.loadtxt in one call, long ones to orjson a block of rows per call
    (see _json_cells). Both read a token as float() does, bit for bit,
    where they read it at all; neither takes every token float() takes,
    and such a body, or one with a value past the float range, goes to
    _parse_body. So a body that passes every check here gets the same
    bits as from _parse_body; the differential tests in
    tests/test_grid.py hold the three together.
    """
    rows = [row for row in map(str.strip, body_lines) if row]
    chars = sum(map(len, rows))
    # each cell takes a character at least, so the header alone never sizes an array
    if len(rows) != spec.nrows or chars < spec.size:
        return None
    if chars < _JSON_CHARS * spec.size:
        try:
            # loadtxt splits a line where str.split does and converts a token with
            # PyOS_string_to_double, as float() does, but only plain ASCII tokens
            values = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
    else:
        values = _json_cells(spec, rows)
    if values is None or values.shape != spec.shape or not np.isfinite(values).all():
        return None
    return values


# the mean characters a cell takes, its separator counted, from which orjson reads a body faster than np.loadtxt.
# loadtxt converts a token of 16 or 17 digits, as write_grid and the repr of a float32 value spell them, four to six
# times slower than a short one, while orjson takes about as long on either. Up to about 8 characters a cell, as
# 23.4 or 65535 take, loadtxt is the faster, the more so on integers, which orjson makes Python ints; from 9 to 15
# the two are about even.
_JSON_CHARS = 12


def _json_cells(spec, rows):
    """The values of stripped rows read by orjson, a block of rows per call; None if a block cannot be read."""
    values = np.empty(spec.shape)
    # a block of rows at a time, so only a block's cells are ever Python floats
    step = max(1, _CHECK_CELLS // spec.ncols)
    for lo in range(0, spec.nrows, step):
        cells = _block_cells(rows[lo : lo + step])
        if cells is None or cells.shape != values[lo : lo + step].shape:
            return None
        values[lo : lo + step] = cells
    return values


# JSON strings, arrays, objects and the literals true, false and null; and the comma, which would split a token in two
_NOT_CELLS = '"[]{},tfn'


def _block_cells(rows):
    """The cells of a block of stripped rows, as orjson reads them; None where it cannot, or could read them wrong.

    Rows whose cells are one space apart are read as ``[[a,b],[c,d]]``
    made with two replaces; rows spaced any other way are rebuilt from
    their str.split tokens. Either way each cell is followed by ``,`` or
    ``]``, so a ``-0`` token, which orjson reads as the integer 0 where
    float() reads -0.0, shows as ``-0,`` or ``-0]``.
    """
    block = "\n".join(rows)
    if any(char in block for char in _NOT_CELLS):
        return None
    import orjson  # here, not at the top: a command that reads no long-spelled grid need not load it

    for text in _json_forms(block, rows):
        try:
            cells = np.array(orjson.loads(text), dtype=np.float64)
        except ValueError:  # not JSON numbers, or rows of unequal length
            continue
        if "-" in block and not cells.all() and ("-0," in text or "-0]" in text):
            return None
        return cells
    return None


def _json_forms(block, rows):
    """The JSON texts of a block to try, fastest first."""
    if "\t" not in block:  # a tab is JSON whitespace: "-0\t 1" would become "-0\t,1"
        yield "[[" + block.replace(" ", ",").replace("\n", "],[") + "]]"
    yield "[[" + "],[".join(",".join(row.split()) for row in rows) + "]]"


def _parse_body(spec, data_lines):
    """The values of the data lines, token by token; raises GridParseError at the first fault.

    The reference for _convert_body, and the path that names a malformed
    body's line.
    """
    if len(data_lines) != spec.nrows:
        raise GridParseError(
            f"expected {spec.nrows} data rows, found {len(data_lines)}",
            data_lines[spec.nrows][0] if len(data_lines) > spec.nrows else None,
        )
    # no array is sized from the header before the rows are read: a huge ncols is a row fault, not an allocation
    rows = []
    for lineno, tokens in data_lines:
        if len(tokens) != spec.ncols:
            raise GridParseError(f"expected {spec.ncols} cell tokens, got {len(tokens)}", lineno)
        row = []
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise GridParseError(f"non-numeric cell token {tok!r}", lineno) from None
            if not math.isfinite(v):
                raise GridParseError(f"non-finite cell value {tok!r}", lineno)
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


NODATA = -9999  # the sentinel write_grid writes in missing cells: -9999 in an IntRaster, -9999.0 in a RasterGrid


def write_grid(grid, path):
    """Write a raster to an ASCII grid file, one row at a time.

    Float values are printed with full round-trip precision, so
    read_grid(write_grid(g)) reproduces g's values exactly, as floats.
    Missing cells are written as NODATA; a grid holding a valid value
    equal to NODATA is rejected before any file is opened.

    Each row is formatted and written on its own, so the writer never holds
    more than one row as Python objects. The rows go through replacing:
    a write that fails leaves ``path`` as it was, or absent, and no
    temporary file.
    """
    # np.where needs the sentinel as a numpy scalar, or -9999 would wrap in a uint16 row
    fill = np.int64(NODATA) if isinstance(grid, IntRaster) else np.float64(NODATA)
    spec = grid.spec
    # a block of rows at a time, so the check never copies the grid's values
    step = max(1, _CHECK_CELLS // spec.ncols)
    for lo in range(0, spec.nrows, step):
        values, missing = grid.values[lo : lo + step], grid.missing[lo : lo + step]
        if np.any(values[~missing] == NODATA):
            raise ValueError(f"grid contains valid cells equal to the nodata sentinel {fill}")

    header = (
        f"ncols {spec.ncols}\n"
        f"nrows {spec.nrows}\n"
        f"xllcorner {float(spec.x_origin)!r}\n"
        f"yllcorner {float(spec.y_origin)!r}\n"
        f"cellsize {float(spec.cell_size)!r}\n"
        f"NODATA_value {fill}\n"
    )
    with replacing(path) as out:
        out.write(header)
        for values, missing in zip(grid.values, grid.missing):
            out.write(_format_row(np.where(missing, fill, values)) + "\n")


def _format_row(row):
    """The cells of one numpy row as text, each spelled as repr spells it, separated by spaces.

    repr is the reference, at about 0.6 us a float64. orjson spells a whole numpy row with Ryu's shortest
    round-trip digits, about ten times faster, and spells it as repr does for any integer and for a
    float that is 0 or of magnitude in [1e-4, 1e16). Outside that range it writes 1e16 and 0.00001
    where repr writes 1e+16 and 1e-05, and null for nan and inf, so a row holding such a value keeps
    repr. tests/test_grid.py holds the two spellings together.
    """
    if row.dtype.kind == "f" and not _orjson_spells_as_repr(row).all():
        return " ".join(map(repr, row.tolist()))
    import orjson  # here, not at the top: report, which touches no grid, need not load it

    return orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b",", b" ").decode()


def _orjson_spells_as_repr(values):
    """Where orjson spells a float as repr does: 0, and magnitudes in [1e-4, 1e16); nan fails both comparisons."""
    size = np.abs(values)
    return (size < 1e16) & ((size >= 1e-4) | (size == 0))


@contextlib.contextmanager
def replacing(path, newline=None):
    """Open a text file whose contents replace ``path`` once the block ends, whole.

    The file is a temporary one beside ``path``, made as open() makes any
    file. It replaces ``path`` when the block ends without an error; on
    an error it is removed, so ``path`` stays as it was, or absent.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    out = open(tmp, "x", newline=newline)  # outside the try: a name that exists already is not this write's to remove
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
