"""Tests for the grid data model, ASCII grid I/O, and class-fraction resampling."""

import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ntlpipe import grid as grid_module
from ntlpipe import (
    GridParseError,
    GridSpec,
    IntRaster,
    RasterGrid,
    RasterStack,
    class_fraction_resample,
    read_grid,
    write_grid,
)


def make_spec(ncols=4, nrows=3, x0=0.0, y0=0.0, cs=1.0):
    return GridSpec(ncols=ncols, nrows=nrows, x_origin=x0, y_origin=y0, cell_size=cs)


class TestGridSpec:
    def test_shape_and_size(self):
        spec = make_spec(ncols=5, nrows=2)
        assert spec.shape == (2, 5)
        assert spec.size == 10

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            GridSpec(ncols=0, nrows=3, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        with pytest.raises(ValueError):
            GridSpec(ncols=3, nrows=0, x_origin=0.0, y_origin=0.0, cell_size=1.0)

    def test_rejects_nonpositive_cell_size(self):
        for cs in (0.0, -1.0):
            with pytest.raises(ValueError):
                GridSpec(ncols=3, nrows=3, x_origin=0.0, y_origin=0.0, cell_size=cs)

    @pytest.mark.parametrize(
        "geometry",
        [
            dict(ncols=3, nrows=1, x0=0.0, y0=0.0, cs=1e308),
            dict(ncols=1, nrows=2, x0=-1e308, y0=1.7e308, cs=1e307),
            dict(ncols=1, nrows=1, x0=float("inf"), y0=0.0, cs=1.0),
            dict(ncols=10**400, nrows=1, x0=0.0, y0=0.0, cs=1.0),  # a count that is no float
        ],
    )
    def test_rejects_far_corner_past_the_float_range(self, geometry):
        # so no pixel-centre of a grid overflows
        with pytest.raises(ValueError, match="is past the float range"):
            make_spec(**geometry)

    def test_extent_near_the_float_limit(self):
        # far corner 2^1022, 1.5 * 2^1023
        spec = make_spec(ncols=2, nrows=1, x0=-(2.0**1022), y0=2.0**1023, cs=2.0**1022)
        assert spec.center_xs().tolist() == [-(2.0**1021), 2.0**1021]
        assert spec.center_ys().tolist() == [2.0**1023 + 2.0**1021]

    def test_center_vectors_row_zero_is_north(self):
        spec = make_spec(ncols=4, nrows=3, x0=10.0, y0=20.0, cs=2.0)
        # the top-left cell sits half a cell in from the upper-left corner, the
        # bottom-right one half a cell in from the lower-right corner
        assert spec.center_xs().tolist() == [11.0, 13.0, 15.0, 17.0]
        assert spec.center_ys().tolist() == [25.0, 23.0, 21.0]


class TestRasterConstruction:
    def test_accepts_flat_row_major_values(self):
        spec = make_spec(ncols=2, nrows=2)
        grid = RasterGrid(spec, [1.0, 2.0, 3.0, 4.0])
        assert grid.values[0, 1] == 2.0
        assert grid.values[1, 0] == 3.0

    def test_shape_mismatch_rejected(self):
        spec = make_spec(ncols=2, nrows=2)
        with pytest.raises(ValueError):
            RasterGrid(spec, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            RasterGrid(spec, np.zeros(5))

    def test_missing_defaults_to_all_valid(self):
        spec = make_spec(ncols=2, nrows=2)
        grid = RasterGrid(spec, np.ones((2, 2)))
        assert grid.valid.all()
        assert grid.missing.sum() == 0

    def test_missing_cells_zeroed_for_stable_equality(self):
        spec = make_spec(ncols=2, nrows=1)
        a = RasterGrid(spec, [7.0, 99.0], missing=[False, True])
        b = RasterGrid(spec, [7.0, -123.0], missing=[False, True])
        assert a.values[0, 1] == 0.0
        assert a == b

    def test_nonfinite_valid_cell_rejected(self):
        spec = make_spec(ncols=2, nrows=1)
        with pytest.raises(ValueError):
            RasterGrid(spec, [1.0, np.nan])
        # the same value hidden under the mask is fine
        grid = RasterGrid(spec, [1.0, np.nan], missing=[False, True])
        assert grid.values[0, 1] == 0.0

    def test_int_raster_rejects_negative_and_fractional(self):
        spec = make_spec(ncols=2, nrows=1)
        with pytest.raises(ValueError):
            IntRaster(spec, [1, -2])
        with pytest.raises(ValueError):
            IntRaster(spec, [1.5, 2.0])

    def test_arrays_are_frozen(self):
        spec = make_spec(ncols=2, nrows=1)
        grid = RasterGrid(spec, [1.0, 2.0])
        with pytest.raises(ValueError):
            grid.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            grid.missing[0, 0] = True

    def test_constructor_copies_input(self):
        spec = make_spec(ncols=2, nrows=1)
        src = np.array([[1.0, 2.0]])
        grid = RasterGrid(spec, src)
        src[0, 0] = 99.0
        assert grid.values[0, 0] == 1.0

    def test_equality_is_by_type_spec_mask_and_values(self):
        spec = make_spec(ncols=2, nrows=1)
        a = RasterGrid(spec, [1.0, 2.0])
        assert a == RasterGrid(spec, [1.0, 2.0])
        assert a != RasterGrid(spec, [1.0, 2.5])
        assert a != RasterGrid(spec, [1.0, 2.0], missing=[False, True])
        assert a != RasterGrid(make_spec(ncols=2, nrows=1, x0=1.0), [1.0, 2.0])
        assert a != IntRaster(spec, [1, 2])


class TestGridFileRoundTrip:
    @pytest.fixture
    def spec(self):
        return make_spec(ncols=3, nrows=2, x0=-80.5, y0=25.25, cs=0.25)

    def test_float_round_trip_is_exact(self, spec, tmp_path):
        grid = RasterGrid(
            spec,
            [463.83, 0.1, 1e-7, 3.141592653589793, 2.5e8, 7.0],
            missing=[False, False, False, False, False, False],
        )
        path = tmp_path / "grid.asc"
        write_grid(grid, path)
        back = read_grid(path)
        assert type(back) is RasterGrid
        assert back == grid

    def test_missing_cells_round_trip(self, spec, tmp_path):
        values = [0.5, -0.0, 5e-324, 3.5, 1e308, 5.5]
        grid = RasterGrid(spec, values, missing=[True, False, False, True, False, True])
        path = tmp_path / "grid.asc"
        write_grid(grid, path)
        # each valid cell is written as repr of its float, edge values included
        assert path.read_text().splitlines()[6:] == ["-9999.0 -0.0 5e-324", "-9999.0 1e+308 -9999.0"]
        back = read_grid(path)
        assert np.array_equal(back.missing, grid.missing)
        assert back == grid

    def test_int_round_trip(self, spec, tmp_path):
        # integer literals, read back as the floats they spell: exact up to 2^53
        grid = IntRaster(spec, [0, 1, 50, 242, 2**53, 7], missing=[False, True, False, False, False, False])
        path = tmp_path / "grid.asc"
        write_grid(grid, path)
        assert path.read_text().splitlines()[5:] == ["NODATA_value -9999", "0 -9999 50", "242 9007199254740992 7"]
        assert grid_bits(read_grid(path)) == grid_bits(as_read(grid))

    def test_random_float_grids_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        for i in range(20):
            spec = make_spec(
                ncols=int(rng.integers(1, 9)),
                nrows=int(rng.integers(1, 9)),
                x0=float(rng.uniform(-1e4, 1e4)),
                y0=float(rng.uniform(-1e4, 1e4)),
                cs=float(rng.uniform(1e-3, 1e3)),
            )
            values = rng.uniform(-1e6, 1e6, spec.shape)
            missing = rng.random(spec.shape) < 0.3
            grid = RasterGrid(spec, values, missing)
            path = tmp_path / f"g{i}.asc"
            write_grid(grid, path)
            assert read_grid(path) == grid

    def test_write_rejects_valid_cell_equal_to_nodata(self, spec, tmp_path):
        grid = RasterGrid(spec, [1.0, -9999.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="^grid contains valid cells equal to the nodata sentinel -9999.0$"):
            write_grid(grid, tmp_path / "g.asc")
        # the same value in a missing cell is written as the sentinel
        write_grid(grid.with_values(grid.values, [False, True, False, False, False, False]), tmp_path / "g.asc")
        assert read_grid(tmp_path / "g.asc").missing.tolist() == [[False, True, False], [False, False, False]]


class TestWriteIsWholeOrAbsent:
    @pytest.fixture
    def grid(self):
        # row 2 holds the one cell the failing formatter refuses
        return RasterGrid(make_spec(ncols=3, nrows=4), [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.25, 8.5, 9.5, 10.5, 11.5])

    def write_failing_at_row_2(self, grid, path):
        format_row = grid_module._format_row

        def format_row_refusing_7_25(row):
            if 7.25 in row:
                raise RuntimeError("formatting failed")
            return format_row(row)

        with mock.patch.object(grid_module, "_format_row", format_row_refusing_7_25):
            with pytest.raises(RuntimeError, match="formatting failed"):
                write_grid(grid, path)

    def test_failed_write_leaves_no_file(self, tmp_path, grid):
        self.write_failing_at_row_2(grid, tmp_path / "g.asc")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, grid):
        path = tmp_path / "g.asc"
        path.write_bytes(b"old bytes\n")
        self.write_failing_at_row_2(grid, path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old bytes\n"

    def test_refused_grid_opens_no_file(self, tmp_path, grid):
        with pytest.raises(ValueError, match="nodata sentinel"):
            write_grid(grid.with_values(np.where(grid.values == 7.25, -9999.0, grid.values)), tmp_path / "g.asc")
        assert list(tmp_path.iterdir()) == []

    def test_whole_write_replaces_the_file_with_a_plain_file_mode(self, tmp_path, grid):
        path = tmp_path / "g.asc"
        path.write_bytes(b"old bytes\n")
        write_grid(grid, path)
        assert list(tmp_path.iterdir()) == [path]
        assert read_grid(path) == grid
        # the temporary file is made as open() makes any file, not private to its owner as mkstemp makes it
        (tmp_path / "plain").write_text("")
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestWriteMemoryBudget:
    # The peak of one write, under tracemalloc, of a float raster 400 cells wide with a fifth of its cells missing.
    # Measured with numpy 2.4 and orjson 3.8: 42.2 KB at 50 rows and at 400 rows, a row's arrays and text
    # (64.0 KB when each row went through repr). The whole-grid writer this one replaced peaked at 2.36 MB on
    # a 200x200 raster and 9.07 MB on 400x400.

    def peak(self, tmp_path, nrows):
        rng = np.random.default_rng(nrows)
        spec = make_spec(ncols=400, nrows=nrows)
        grid = RasterGrid(spec, rng.uniform(0, 500, spec.shape), rng.random(spec.shape) < 0.2)
        write_grid(grid, tmp_path / "g.asc")  # first calls import and cache; they are not the write's cost
        tracemalloc.start()
        try:
            write_grid(grid, tmp_path / "g.asc")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_bounded_by_a_row_not_the_grid(self, tmp_path):
        small, large = self.peak(tmp_path, 50), self.peak(tmp_path, 400)
        # 350 more rows are 1.12 MB of raster; the margin is 16 KB
        assert large <= small + 16 * 1024
        assert large <= 128 * 1024


class TestReadMemoryBudget:
    # The peak of one read, under tracemalloc, of write_grid's file of a float raster 400 cells wide, a fifth of its
    # cells missing. Measured with numpy 2.4 and orjson 3.8: 0.82 MB at 50 rows and 5.69 MB at 400 rows, the peak
    # coming while the file's text (2.61 MB there) and its lines (2.64 MB) are alive together; the result is 1.44 MB.
    # write_grid spells these cells in 17 digits, so orjson reads the body, a block of rows at a time: the whole body
    # in one orjson call would also hold a JSON copy of the text and a Python float per cell, 32 bytes each, with the
    # lines.

    def peak(self, tmp_path, nrows):
        rng = np.random.default_rng(nrows)
        spec = make_spec(ncols=400, nrows=nrows)
        path = tmp_path / "g.asc"
        write_grid(RasterGrid(spec, rng.uniform(0, 500, spec.shape), rng.random(spec.shape) < 0.2), path)
        read_grid(path)  # first calls import and cache; they are not the read's cost
        tracemalloc.start()
        try:
            read_grid(path)
            return tracemalloc.get_traced_memory()[1], path.stat().st_size
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_the_text_the_lines_and_the_result(self, tmp_path):
        (small, small_text), (large, large_text) = self.peak(tmp_path, 50), self.peak(tmp_path, 400)
        # the text twice, as one string and as lines, and 9 bytes a cell of result; the margin is 64 KB
        assert large - small <= 2 * (large_text - small_text) + 9 * 350 * 400 + 64 * 1024


def read_grid_by_lines(path):
    """read_grid with its fast path declined, so the line-by-line loop parses every body."""
    with mock.patch.object(grid_module, "_convert_body", lambda spec, data_lines: None):
        return read_grid(path)


def write_grid_by_cells(grid, path):
    """The reference for write_grid: the whole grid as Python objects at once, each cell's token chosen on its own."""
    is_int = isinstance(grid, IntRaster)
    nodata_tok = str(grid_module.NODATA) if is_int else repr(float(grid_module.NODATA))
    if np.any(grid.values[grid.valid] == grid_module.NODATA):
        raise ValueError(f"grid contains valid cells equal to the nodata sentinel {nodata_tok}")

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


class TestGridParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "grid.asc"
        path.write_text(text)
        return path

    def test_header_keys_any_order_any_case(self, tmp_path):
        path = self.write(
            tmp_path,
            "NODATA_value -9999\n"
            "cellsize 0.5\n"
            "YLLCORNER 2.0\n"
            "xllcorner 1.0\n"
            "nrows 1\n"
            "NCOLS 2\n"
            "3.5 4.5\n",
        )
        grid = read_grid(path)
        assert grid.spec == GridSpec(ncols=2, nrows=1, x_origin=1.0, y_origin=2.0, cell_size=0.5)
        assert grid.values[0, 1] == 4.5

    def test_one_float_token_gives_float_raster(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n3 4.0\n",
        )
        assert type(read_grid(path)) is RasterGrid

    @pytest.mark.parametrize("read", [read_grid, read_grid_by_lines])
    def test_negative_integer_cell_gives_float_raster(self, tmp_path, read):
        path = self.write(
            tmp_path,
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n3 -4 -9999\n",
        )
        grid = read(path)
        assert type(grid) is RasterGrid
        assert grid.values[0, :2].tolist() == [3.0, -4.0]
        assert grid.missing[0].tolist() == [False, False, True]

    @pytest.mark.parametrize("read", [read_grid, read_grid_by_lines])
    @pytest.mark.parametrize("token", ["9223372036854775808", "99999999999999999999"])
    def test_integer_cell_past_int64_gives_float_raster(self, tmp_path, read, token):
        path = self.write(
            tmp_path,
            f"ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n{token} 5 -9999\n",
        )
        grid = read(path)
        assert type(grid) is RasterGrid
        assert grid.values[0, :2].tolist() == [float(token), 5.0]
        assert grid.missing[0].tolist() == [False, False, True]

    @pytest.mark.parametrize("read", [read_grid, read_grid_by_lines])
    @pytest.mark.parametrize("nodata", ["9007199254740993", "9007199254740992", "9.007199254740992e15"])
    def test_nodata_compared_as_a_float(self, tmp_path, read, nodata):
        # as float64s, 2^53 and 2^53 + 1 are one value, so a sentinel spelling either one makes both cells missing
        path = self.write(
            tmp_path,
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            f"NODATA_value {nodata}\n9007199254740992 9007199254740993 7\n",
        )
        grid = read(path)
        assert type(grid) is RasterGrid
        assert grid.missing[0].tolist() == [True, True, False]
        assert grid.values[0].tolist() == [0.0, 0.0, 7.0]

    def test_nodata_cells_become_missing(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1.5 -9999 2.5\n",
        )
        grid = read_grid(path)
        assert list(grid.missing[0]) == [False, True, False]

    def test_unknown_header_key_rejected_with_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 1\ndx 1.0\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n",
        )
        with pytest.raises(GridParseError, match="line 3"):
            read_grid(path)

    def test_duplicate_header_key_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n",
        )
        with pytest.raises(GridParseError, match="line 2"):
            read_grid(path)

    def test_malformed_header_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols two\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n",
        )
        with pytest.raises(GridParseError, match="line 1"):
            read_grid(path)

    def test_missing_header_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n")
        with pytest.raises(GridParseError, match="nodata_value"):
            read_grid(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n",
        )
        with pytest.raises(GridParseError, match="expected 2 data rows"):
            read_grid(path)

    def test_wrong_column_count_rejected_with_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n1 2 3\n",
        )
        with pytest.raises(GridParseError, match="line 8"):
            read_grid(path)

    def test_non_numeric_cell_rejected_with_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 abc\n",
        )
        with pytest.raises(GridParseError, match="line 7"):
            read_grid(path)

    def test_nonpositive_cellsize_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0\nNODATA_value -9999\n1 2\n",
        )
        with pytest.raises(GridParseError):
            read_grid(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\n\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n\n1 2\n",
        )
        grid = read_grid(path)
        assert grid.values[0, 0] == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_rejected_with_line(self, tmp_path, token):
        path = self.write(
            tmp_path,
            f"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2\n\n3 {token}\n",
        )
        with pytest.raises(GridParseError) as raised:
            read_grid(path)
        assert str(raised.value) == f"line 9: non-finite cell value {token!r}"
        assert raised.value.line == 9


def grid_bits(grid):
    """A raster bit for bit: its type, spec, values (floats as float.hex) and mask."""
    values = [v.hex() if isinstance(v, float) else v for v in grid.values.ravel().tolist()]
    return type(grid), grid.spec, values, grid.missing.tolist()


def as_read(grid):
    """The RasterGrid read_grid makes of write_grid's file of ``grid``: each value as the float it reads as."""
    return RasterGrid(grid.spec, grid.values.astype(np.float64), grid.missing)


def parse_outcome(read, path):
    """What a reader makes of a file: the raster bit for bit, or its GridParseError."""
    try:
        grid = read(path)
    except GridParseError as exc:
        return type(exc), str(exc), exc.line
    return grid_bits(grid)


# tokens float() reads, real and integer, some past 2^63; the integer literals
# among them include a sign, digit separators and non-ASCII decimal digits.
# JSON has no '_', '+', bare '.' or non-ASCII digit, so those bodies take the
# line-by-line loop. orjson reads -0 as the integer 0; the other zeros with a
# sign are floats to it, -1e-400 one that underflows.
CELL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**6).map(str),
    st.integers(2**63 - 2**10, 10**30).map(str),
    st.integers(-50, -1).map(str),
    st.sampled_from(
        ["-0.0", "-0", "-0e0", "-1e-400", "+7", "1_0", "1_000.5", "\u0661", "\u0661\u0662", "\uff17"]
        + ["0.1e-3", "5E+2", "1E5", "1e-0", ".5", "7."]
    ),
)
# tokens float() refuses, some of which a text reader might take: a comment
# mark, quotes, hex, a doubled sign, a bare exponent, Fortran's d exponent; and
# JSON that is not a number, or two of them
BAD_TOKENS = st.sampled_from(
    ["abc", "1.2.3", "0x10", "1__0", "_1", "#", "'1'", '"1"', "+-1", "1e", "1d5", "nan", "inf", "-Infinity", "1e999"]
    + ["1e400", "1" + "0" * 400, "-" + "9" * 400, "1,2", "true", "false", "null", "[1]", "{}"]
)
# whitespace inside a line: str.split splits on all of it, \x1f included; JSON takes a tab as a space
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\t ", " \t", "\xa0", " \u2003 ", "\x1f"])
BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "\xa0", "\u2003", " \x1f"]), max_size=2)
# every line boundary of str.splitlines; "\r" and "\r\n" also pass read_text's newline translation
LINE_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])


@st.composite
def grid_files(draw):
    """The text of a well-formed grid file, as header lines and rows of cell tokens."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nodata = draw(st.sampled_from(["-9999", "-9999.0", "0", "-1e30"]))
    header = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        "xllcorner 0.5",
        "yllcorner -2",
        f"cellsize {draw(st.sampled_from(['1', '0.25', '30.0']))}",
        f"NODATA_value {nodata}",
    ]
    cells = st.one_of(CELL_TOKENS, st.just(nodata))
    rows = [[draw(cells) for _ in range(ncols)] for _ in range(nrows)]
    return header, rows


def grid_text(draw, header, rows):
    """header and rows as file text, with random separators, blank lines and line endings."""
    lines = []
    for line in header + [draw(SEPARATORS).join(row) for row in rows]:
        lines += draw(BLANK_LINES) + [line]
    return "".join(line + draw(LINE_ENDINGS) for line in lines)


def read_grid_by(reader):
    """read_grid with its choice of body reader pinned: np.loadtxt, or orjson, for every body however it is spelled."""
    json_chars = {"loadtxt": math.inf, "orjson": 0}[reader]

    def read(path):
        with mock.patch.object(grid_module, "_JSON_CHARS", json_chars):
            return read_grid(path)

    return read


BODY_READERS = [read_grid_by("loadtxt"), read_grid_by("orjson")]


def outcomes_by_reader(path):
    """parse_outcome of read_grid with each body reader pinned in turn, np.loadtxt's first."""
    return [parse_outcome(read, path) for read in BODY_READERS]


class TestOneConversionMatchesLineByLine:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_valid_files_read_the_same(self, tmp_path_factory, data):
        header, rows = data.draw(grid_files())
        path = tmp_path_factory.mktemp("grid") / "grid.asc"
        path.write_text(grid_text(data.draw, header, rows), newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assert outcomes_by_reader(path) == [expected] * 2
        # each cell is the float its token reads as, and missing where that equals NODATA's float
        nodata = float(header[5].split()[1])
        cells = [float(tok) for row in rows for tok in row]
        missing = [cell == nodata for cell in cells]
        values = [(0.0 if m else cell).hex() for cell, m in zip(cells, missing)]  # a missing cell holds 0.0
        assert expected[0] is RasterGrid
        assert expected[2:] == (values, [missing[r * len(rows[0]) : (r + 1) * len(rows[0])] for r in range(len(rows))])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_malformed_files_fail_the_same(self, tmp_path_factory, data):
        header, rows = data.draw(grid_files())
        for _ in range(data.draw(st.integers(1, 3))):
            r = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(0, len(rows[r]) - 1)) if rows[r] else 0
            fault = data.draw(
                st.sampled_from(["short row", "broken row", "long row", "lost row", "extra row", "bad token", "NUL"])
            )
            if fault == "short row":
                del rows[r][c:]
            elif fault == "broken row":
                # a line boundary inside a row: a text reader that ended lines only
                # at \n or \r would read the two parts as one row again
                rows[r : r + 1] = [rows[r][:c], rows[r][c:]]
            elif fault == "long row":
                rows[r].append(data.draw(st.one_of(CELL_TOKENS, BAD_TOKENS)))
            elif fault == "lost row":
                del rows[r]
            elif fault == "extra row":
                rows.insert(r, list(rows[r]))
            elif fault == "bad token" and rows[r]:
                rows[r][c] = data.draw(BAD_TOKENS)
            elif rows[r]:
                rows[r][c] = data.draw(st.sampled_from(["\0", "{}\0", "\0{}", "1\0{}"])).format(rows[r][c])
            if not rows:
                break
        path = tmp_path_factory.mktemp("grid") / "grid.asc"
        path.write_text(grid_text(data.draw, header, rows), newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assume(expected[0] is GridParseError)  # a lost row and an extra row can cancel
        assert outcomes_by_reader(path) == [expected] * 2

    HEADER_1X4 = "ncols 4\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"

    @pytest.mark.parametrize("boundary", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_boundary_inside_a_row_ends_it(self, tmp_path, boundary):
        # a reader that ended lines only at \n or \r would take "1 2<boundary>3 4" as one 1x4 row
        path = tmp_path / "grid.asc"
        path.write_text(f"{self.HEADER_1X4}1 2{boundary}3 4\n", newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assert expected == (GridParseError, "line 8: expected 1 data rows, found 2", 8)
        assert outcomes_by_reader(path) == [expected] * 2

    @pytest.mark.parametrize("body", ["", "\n", " \n\t\n", "\xa0\n\u2003\x1f\n", "\x85\u2028"])
    def test_body_without_a_data_line(self, tmp_path, body):
        # a reader that sized its array from the header alone would return a 1x4 grid here
        path = tmp_path / "grid.asc"
        path.write_text(f"{self.HEADER_1X4}{body}", newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assert expected == (GridParseError, "expected 1 data rows, found 0", None)
        assert outcomes_by_reader(path) == [expected] * 2

    @pytest.mark.parametrize(
        "token",
        ["#", "'1'", '"1"', "1_0", "\u0661", "0x10", "+-1", "1e", "1d5", "\0", "1\0", "9223372036854775808"]
        + ["1,2", "true", "false", "null", "[1]", "{}", "-0", "-0e0", "1e-0", "1E5", "1e400", "-1e-400"]
        + ["1" + "0" * 400],
    )
    def test_token_reads_as_line_by_line(self, tmp_path, token):
        path = tmp_path / "grid.asc"
        path.write_text(f"{self.HEADER_1X4}1 {token} 3 4\n")
        assert outcomes_by_reader(path) == [parse_outcome(read_grid_by_lines, path)] * 2
        # a fifth token: a reader that took '#' as a comment or a quote as a field mark could drop it
        path.write_text(f"{self.HEADER_1X4}1 2 3 4 {token}\n")
        assert outcomes_by_reader(path) == [parse_outcome(read_grid_by_lines, path)] * 2
        # three tokens: a reader that split '1,2' at its comma would find four cells
        path.write_text(f"{self.HEADER_1X4}1 {token} 4\n")
        assert outcomes_by_reader(path) == [parse_outcome(read_grid_by_lines, path)] * 2

    def test_header_alone_sizes_no_array(self, tmp_path):
        path = tmp_path / "grid.asc"
        path.write_text(self.HEADER_1X4.replace("ncols 4", f"ncols {10**30}") + "1 2\n")
        expected = parse_outcome(read_grid_by_lines, path)
        assert expected == (GridParseError, f"line 7: expected {10**30} cell tokens, got 2", 7)
        assert outcomes_by_reader(path) == [expected] * 2

    @pytest.mark.parametrize("separator", [" ", "  ", "\t", "\t ", " \t"])
    @pytest.mark.parametrize("row", [["-0", "1", "0", "3"], ["1", "-0", "0", "3"], ["1", "0", "3", "-0"], ["-0"]])
    def test_negative_zero_keeps_its_sign(self, tmp_path, separator, row):
        # orjson reads the token -0 as the integer 0, and a tab beside a space is JSON whitespace
        path = tmp_path / "grid.asc"
        header = self.HEADER_1X4.replace("ncols 4", f"ncols {len(row)}")
        path.write_text(f"{header}{separator.join(row)}\n")
        expected = parse_outcome(read_grid_by_lines, path)
        assert outcomes_by_reader(path) == [expected] * 2
        assert expected[2][row.index("-0")] == "-0x0.0p+0"


def read_grid_by_splitlines(path):
    """read_grid with its text split into lines by str.splitlines alone: the reference for _lines."""
    with mock.patch.object(grid_module, "_lines", str.splitlines):
        return read_grid(path)


class TestLinesAreSplitlines:
    """_lines ends lines where str.splitlines does, so read_grid reads the same values and names the same lines."""

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(list("1 -.e\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029\xa0\t"))))
    def test_same_lines(self, text):
        assert grid_module._lines(text) == text.splitlines()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_outcome(self, tmp_path_factory, data):
        header, rows = data.draw(grid_files())
        r = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans(), label="break a row"):
            c = data.draw(st.integers(0, len(rows[r])))
            rows[r : r + 1] = [rows[r][:c], rows[r][c:]]
        path = tmp_path_factory.mktemp("grid") / "grid.asc"
        path.write_text(grid_text(data.draw, header, rows), newline="")
        assert parse_outcome(read_grid, path) == parse_outcome(read_grid_by_splitlines, path)

    HEADER_1X4 = TestOneConversionMatchesLineByLine.HEADER_1X4

    @pytest.mark.parametrize("boundary", ["\r\n", "\v", "\x1c", "\x85", "\u2028"])
    def test_each_boundary_ends_a_line(self, tmp_path, boundary):
        path = tmp_path / "grid.asc"
        path.write_text(self.HEADER_1X4.replace("\n", boundary) + "1 2 3 4" + boundary, newline="")
        assert parse_outcome(read_grid, path) == parse_outcome(read_grid_by_splitlines, path)
        assert parse_outcome(read_grid, path)[2] == [(1.0).hex(), (2.0).hex(), (3.0).hex(), (4.0).hex()]
        # inside a row it ends the row, and the line numbers count it
        path.write_text(f"{self.HEADER_1X4}1 2{boundary}3 4\n", newline="")
        expected = (GridParseError, "line 8: expected 1 data rows, found 2", 8)
        assert parse_outcome(read_grid, path) == parse_outcome(read_grid_by_splitlines, path) == expected


def fast_path_outcomes(path):
    """read_grid_by each body reader, with the line-by-line loop made to fail, so a body that would fall back raises."""
    with mock.patch.object(grid_module, "_parse_body", side_effect=AssertionError("fell back to _parse_body")):
        return [grid_bits(read(path)) for read in BODY_READERS]


class TestBodyReaderIsChosenBySpelling:
    """Short tokens go to np.loadtxt in one call, long ones to orjson: each reader where it is the faster."""

    @pytest.mark.parametrize(
        "token, reader",
        [
            ("0", "loadtxt"),
            ("23.4", "loadtxt"),  # VNP46A2 radiance, stored in 0.1 steps
            ("65535", "loadtxt"),  # a quality word
            ("123456.8901", "loadtxt"),  # 11 characters and a space: just under 12 a cell
            ("1234567.8901", "orjson"),  # 12 characters and a space
            ("23.399999618530273", "orjson"),  # a float32 value's repr
            ("318.54862374023438", "orjson"),  # 17 digits, as write_grid spells a float64
        ],
    )
    def test_reader_by_token_length(self, tmp_path, token, reader):
        path = tmp_path / "g.asc"
        header = "ncols 40\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
        path.write_text(header + (" ".join([token] * 40) + "\n") * 3)
        declined = {"loadtxt": (grid_module, "_json_cells"), "orjson": (np, "loadtxt")}[reader]
        with mock.patch.object(*declined) as other, mock.patch.object(grid_module, "_parse_body") as by_lines:
            grid = read_grid(path)
        assert not other.called and not by_lines.called
        assert grid.values.tolist() == [[float(token)] * 40] * 3


# how other writers lay out a row's tokens: GDAL's AAIGrid driver puts a space before every value
LAYOUTS = {
    "written": " ".join,
    "AAIGrid": lambda tokens: "".join(" " + tok for tok in tokens),
    "double spaces": "  ".join,
    "tabs": "\t".join,
}


def respell(path, nodata, layout="written"):
    """Rewrite write_grid's file at ``path`` as another writer would with sentinel ``nodata``: header and rows."""
    lines = path.read_text().splitlines()
    written = lines[5].split()[1]
    lines[5] = f"NODATA_value {nodata!r}"
    lines[6:] = [LAYOUTS[layout](repr(nodata) if tok == written else tok for tok in line.split()) for line in lines[6:]]
    path.write_text("\n".join(lines) + "\n")


class TestFastPathReadsEveryWrittenGrid:
    """Every file write_grid writes takes the fast path, by either body reader: a silent fallback would be a slowdown.

    read_grid reads any NODATA, so each file is also read with its sentinel respelled as another writer might write it,
    and with its rows laid out as other writers lay them out. The widest and tallest shapes span more than one block.
    """

    EDGE_VALUES = [0.5, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.141592653589793, 1e-7, 7.0]
    SHAPES = [(1, 1), (1, 8), (8, 1), (3, 5), (2, grid_module._CHECK_CELLS + 1), (2 * grid_module._CHECK_CELLS // 3, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("nodata", [-9999.0, -1e30, 0.25])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_float_grid(self, tmp_path, shape, nodata, layout):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        spec = make_spec(ncols=shape[1], nrows=shape[0])
        values = rng.choice(self.EDGE_VALUES + list(rng.uniform(-1e6, 1e6, 8)), size=shape)
        missing = rng.random(shape) < 0.3
        grid = RasterGrid(spec, values, missing)
        write_grid(grid, tmp_path / "g.asc")
        respell(tmp_path / "g.asc", nodata, layout)
        assert fast_path_outcomes(tmp_path / "g.asc") == [grid_bits(grid)] * 2

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("nodata", [-9999, 0, 2**40])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_int_grid(self, tmp_path, shape, nodata, layout):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        spec = make_spec(ncols=shape[1], nrows=shape[0])
        values = rng.choice([1, 50, 242, 65535, 2**53, 2**62], size=shape)
        missing = rng.random(shape) < 0.3
        grid = IntRaster(spec, values, missing)
        write_grid(grid, tmp_path / "g.asc")
        respell(tmp_path / "g.asc", nodata, layout)
        assert fast_path_outcomes(tmp_path / "g.asc") == [grid_bits(as_read(grid))] * 2

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_all_missing_grids(self, tmp_path, layout):
        spec = make_spec(ncols=3, nrows=2)
        for grid in (RasterGrid(spec, np.zeros(6), np.ones(6, bool)), IntRaster(spec, np.zeros(6), np.ones(6, bool))):
            write_grid(grid, tmp_path / "g.asc")
            respell(tmp_path / "g.asc", grid_module.NODATA, layout)
            assert fast_path_outcomes(tmp_path / "g.asc") == [grid_bits(as_read(grid))] * 2


# float cells at the edges of repr: signed zero, the least subnormal and the largest finite values
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
CELLS_BY_KIND = {
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS),
    "int64": st.one_of(st.integers(0, 2**16), st.integers(0, 2**63 - 1)),
    "uint16": st.integers(0, 2**16 - 1),
}


@st.composite
def rasters(draw, kinds=tuple(CELLS_BY_KIND)):
    """A float, int64 or uint16 raster from 1x1 up, some rows all missing.

    A valid float cell may equal the sentinel, -9999.0, which write_grid refuses. A uint16 raster is a month
    of a stack of VNP46A2 words, as the loader makes it.
    """
    kind = draw(st.sampled_from(kinds))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    spec = make_spec(
        ncols=ncols,
        nrows=nrows,
        x0=draw(st.floats(-1e6, 1e6)),
        y0=draw(st.floats(-1e6, 1e6)),
        cs=draw(st.floats(1e-3, 1e3)),
    )
    cells = CELLS_BY_KIND[kind]
    if kind == "float":
        cells = st.one_of(cells, st.just(float(grid_module.NODATA)))
    values = [[draw(cells) for _ in range(ncols)] for _ in range(nrows)]
    missing = [[draw(st.booleans()) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, nrows - 1))):
        missing[r] = [True] * ncols
    if kind == "float":
        return RasterGrid(spec, np.array(values, dtype=np.float64), np.array(missing))
    if kind == "int64":
        return IntRaster(spec, np.array(values, dtype=np.int64), np.array(missing))
    stack = RasterStack.from_cube((1,), spec, np.array([values], dtype=np.uint16), np.array([missing]))
    return stack.get(1)


def write_outcome(write, grid, path):
    """What a writer makes of a raster: the file's bytes, or its ValueError."""
    try:
        write(grid, path)
    except ValueError as exc:
        return type(exc), str(exc)
    return path.read_bytes()


class TestWriterMatchesCellByCell:
    @settings(max_examples=150, deadline=None)
    @given(grid=rasters(), check_cells=st.integers(1, 30))
    def test_same_bytes_or_same_refusal(self, tmp_path_factory, grid, check_cells):
        folder = tmp_path_factory.mktemp("write")
        expected = write_outcome(write_grid_by_cells, grid, folder / "by_cells.asc")
        # a check block of a few cells reaches every row split of the sentinel check
        with mock.patch.object(grid_module, "_CHECK_CELLS", check_cells):
            assert write_outcome(write_grid, grid, folder / "g.asc") == expected


# the edges of the range in which orjson spells a float as repr does: 0 or of magnitude in [1e-4, 1e16)
RYU_EDGES = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16]
# cells of one row: a float row draws all its cells from any finite double (subnormals and both zeros
# included), or from the range's inside and its edges, so that a whole row can sit next to an edge
FORMATTED_CELLS = {
    "float": st.sampled_from(
        [
            st.floats(allow_nan=False, allow_infinity=False),
            st.one_of(
                st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
                st.sampled_from([0.0, -0.0, *RYU_EDGES, *(-v for v in RYU_EDGES)]),
            ),
        ]
    ),
    "int64": st.just(st.one_of(st.integers(0, 2**16), st.integers(0, 2**63 - 1))),
    "uint16": st.just(st.integers(0, 2**16 - 1)),
}
# fills of the missing cells: write_grid's sentinel, and others in range and out of it, nan and inf included,
# so that _format_row is held to repr on any row
FORMATTED_SENTINELS = {
    "float": st.sampled_from([-9999.0, 0.25, -0.0, -1e30, 1e-5, *RYU_EDGES, float("nan"), float("inf")]),
    "int64": st.sampled_from([-9999, 0, -(2**63), 2**63 - 1]),
    "uint16": st.just(-9999),
}


class TestRowFormatterMatchesRepr:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(list(FORMATTED_CELLS)), width=st.integers(1, 80))
    def test_same_text_as_repr(self, data, kind, width):
        # a row as write_grid builds it: the sentinel in the missing cells, through np.where
        dtype = {"float": np.float64, "int64": np.int64, "uint16": np.uint16}[kind]
        cells = data.draw(FORMATTED_CELLS[kind])
        values = np.array(data.draw(st.lists(cells, min_size=width, max_size=width)), dtype=dtype)
        missing = np.array(data.draw(st.lists(st.booleans(), min_size=width, max_size=width)))
        fill = data.draw(FORMATTED_SENTINELS[kind])
        row = np.where(missing, np.float64(fill) if kind == "float" else np.int64(fill), values)
        assert grid_module._format_row(row) == " ".join(map(repr, row.tolist()))

    @pytest.mark.parametrize(
        "row, fast",
        [
            (np.array([0.0, -0.0, 1e-4, -np.nextafter(1e16, 0), 7.25]), True),
            (np.array([1.5, np.nextafter(1e-4, 0)]), False),
            (np.array([1.5, -1e16]), False),
            (np.array([1.5, 5e-324]), False),
            (np.array([1.5, float("nan")]), False),
            (np.array([1.5, float("-inf")]), False),
            (np.array([0, 2**63 - 1, -9999]), True),
            (np.where([True, False], np.int64(-9999), np.uint16([7, 65535])), True),
        ],
    )
    def test_only_rows_in_range_reach_orjson(self, row, fast):
        with mock.patch.dict("sys.modules", {"orjson": None}):  # import orjson now raises ImportError
            if fast:
                with pytest.raises(ImportError):
                    grid_module._format_row(row)
            else:
                assert grid_module._format_row(row) == " ".join(map(repr, row.tolist()))


class TestIntegerRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(grid=rasters(kinds=("int64", "uint16")))
    def test_int_raster_reads_back_as_its_values(self, tmp_path_factory, grid):
        # each value reads back as the float nearest it, which is the value itself below 2^53
        path = tmp_path_factory.mktemp("grid") / "g.asc"
        write_grid(grid, path)
        assert grid_bits(read_grid(path)) == grid_bits(as_read(grid))
        assert grid_bits(read_grid_by_lines(path)) == grid_bits(as_read(grid))
        exact = grid.values < 2**53
        assert np.array_equal(read_grid(path).values[exact], grid.values[exact])


class TestClassFractionResample:
    def test_identical_grids_give_pure_fractions(self):
        spec = make_spec(ncols=2, nrows=2)
        labels = IntRaster(spec, [6, 6, 0, 3])
        frac = class_fraction_resample(labels, spec, class_label=6)
        assert np.array_equal(frac.values, [[1.0, 1.0], [0.0, 0.0]])
        assert not frac.missing.any()

    def test_two_by_two_into_one_cell_averages(self):
        src_spec = make_spec(ncols=2, nrows=2, cs=0.5)
        target = make_spec(ncols=1, nrows=1, cs=1.0)
        labels = IntRaster(src_spec, [6, 6, 0, 0])
        frac = class_fraction_resample(labels, target, class_label=6)
        assert frac.values[0, 0] == 0.5

    def test_missing_source_pixels_do_not_contribute(self):
        src_spec = make_spec(ncols=2, nrows=2, cs=0.5)
        target = make_spec(ncols=1, nrows=1, cs=1.0)
        labels = IntRaster(src_spec, [6, 6, 0, 0], missing=[False, True, False, True])
        frac = class_fraction_resample(labels, target, class_label=6)
        assert frac.values[0, 0] == 0.5

    def test_target_cell_without_source_centers_is_missing(self):
        src_spec = make_spec(ncols=1, nrows=1, cs=1.0)
        target = make_spec(ncols=2, nrows=1, cs=1.0)
        labels = IntRaster(src_spec, [6])
        frac = class_fraction_resample(labels, target, class_label=6)
        assert frac.values[0, 0] == 1.0
        assert frac.missing[0, 1]

    def test_source_centers_outside_target_are_dropped(self):
        src_spec = make_spec(ncols=4, nrows=1, cs=1.0)
        target = make_spec(ncols=2, nrows=1, x0=0.0, y0=0.0, cs=1.0)
        labels = IntRaster(src_spec, [6, 0, 6, 6])
        frac = class_fraction_resample(labels, target, class_label=6)
        assert np.array_equal(frac.values, [[1.0, 0.0]])

    def test_fractions_always_within_unit_interval(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            src_spec = make_spec(
                ncols=int(rng.integers(1, 20)),
                nrows=int(rng.integers(1, 20)),
                x0=float(rng.uniform(-5, 5)),
                y0=float(rng.uniform(-5, 5)),
                cs=float(rng.uniform(0.1, 2.0)),
            )
            target = make_spec(
                ncols=int(rng.integers(1, 8)),
                nrows=int(rng.integers(1, 8)),
                x0=float(rng.uniform(-5, 5)),
                y0=float(rng.uniform(-5, 5)),
                cs=float(rng.uniform(0.5, 5.0)),
            )
            labels = IntRaster(
                src_spec,
                rng.integers(0, 4, src_spec.shape),
                missing=rng.random(src_spec.shape) < 0.2,
            )
            frac = class_fraction_resample(labels, target, class_label=2)
            valid = frac.valid
            assert np.all(frac.values[valid] >= 0.0)
            assert np.all(frac.values[valid] <= 1.0)

    def test_complementary_labels_sum_to_one(self):
        rng = np.random.default_rng(41)
        src_spec = make_spec(ncols=12, nrows=12, cs=0.25)
        target = make_spec(ncols=3, nrows=3, cs=1.0)
        labels = IntRaster(src_spec, rng.integers(0, 2, src_spec.shape))
        f0 = class_fraction_resample(labels, target, class_label=0)
        f1 = class_fraction_resample(labels, target, class_label=1)
        assert np.allclose(f0.values + f1.values, 1.0)
