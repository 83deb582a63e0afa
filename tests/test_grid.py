"""Tests for the grid data model, ASCII grid I/O, and class-fraction resampling."""

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
    as_float,
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

    def test_cell_center_row_zero_is_north(self):
        spec = make_spec(ncols=4, nrows=3, x0=10.0, y0=20.0, cs=2.0)
        # top-left cell sits half a cell in from the upper-left corner
        assert spec.cell_center(0, 0) == (11.0, 25.0)
        # bottom-right cell sits half a cell in from the lower-right corner
        assert spec.cell_center(2, 3) == (17.0, 21.0)

    def test_center_vectors_match_cell_center(self):
        spec = make_spec(ncols=4, nrows=3, x0=-5.0, y0=2.5, cs=0.5)
        xs = spec.center_xs()
        ys = spec.center_ys()
        for r in range(spec.nrows):
            for c in range(spec.ncols):
                assert (xs[c], ys[r]) == spec.cell_center(r, c)

    def test_cell_at_inverts_cell_center(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = make_spec(
                ncols=int(rng.integers(1, 12)),
                nrows=int(rng.integers(1, 12)),
                x0=float(rng.uniform(-100, 100)),
                y0=float(rng.uniform(-100, 100)),
                cs=float(rng.uniform(0.1, 10.0)),
            )
            for _ in range(20):
                r = int(rng.integers(0, spec.nrows))
                c = int(rng.integers(0, spec.ncols))
                assert spec.cell_at(*spec.cell_center(r, c)) == (r, c)

    def test_cell_at_outside_returns_none(self):
        spec = make_spec(ncols=2, nrows=2, x0=0.0, y0=0.0, cs=1.0)
        assert spec.cell_at(-0.5, 1.0) is None
        assert spec.cell_at(1.0, 2.5) is None
        assert spec.cell_at(2.5, 1.0) is None


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

    def test_masked_values_puts_nan_at_missing(self):
        spec = make_spec(ncols=3, nrows=1)
        grid = RasterGrid(spec, [1.0, 2.0, 3.0], missing=[False, True, False])
        mv = grid.masked_values()
        assert mv[0, 0] == 1.0
        assert np.isnan(mv[0, 1])

    def test_equality_is_by_type_spec_mask_and_values(self):
        spec = make_spec(ncols=2, nrows=1)
        a = RasterGrid(spec, [1.0, 2.0])
        assert a == RasterGrid(spec, [1.0, 2.0])
        assert a != RasterGrid(spec, [1.0, 2.5])
        assert a != RasterGrid(spec, [1.0, 2.0], missing=[False, True])
        assert a != RasterGrid(make_spec(ncols=2, nrows=1, x0=1.0), [1.0, 2.0])
        assert a != IntRaster(spec, [1, 2])

    def test_allclose_tolerates_small_differences(self):
        spec = make_spec(ncols=2, nrows=1)
        a = RasterGrid(spec, [1.0, 2.0])
        b = RasterGrid(spec, [1.0 + 1e-12, 2.0])
        assert a != b
        assert a.allclose(b)
        assert not a.allclose(RasterGrid(spec, [1.0 + 1e-6, 2.0]))

    def test_as_float_preserves_values_and_mask(self):
        spec = make_spec(ncols=2, nrows=1)
        ints = IntRaster(spec, [3, 9], missing=[False, True])
        floats = as_float(ints)
        assert isinstance(floats, RasterGrid)
        assert floats.values[0, 0] == 3.0
        assert floats.missing[0, 1]
        already = RasterGrid(spec, [1.0, 2.0])
        assert as_float(already) is already


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
        grid = IntRaster(spec, [0, 1, 50, 242, 65535, 7], missing=[False, True, False, False, False, False])
        path = tmp_path / "grid.asc"
        write_grid(grid, path, nodata=-9999)
        back = read_grid(path)
        assert type(back) is IntRaster
        assert back == grid

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
        with pytest.raises(ValueError):
            write_grid(grid, tmp_path / "g.asc")
        # a different sentinel works
        write_grid(grid, tmp_path / "g.asc", nodata=-1e30)
        assert read_grid(tmp_path / "g.asc") == grid

    def test_write_rejects_fractional_nodata_for_int_raster(self, spec, tmp_path):
        grid = IntRaster(spec, list(range(6)))
        with pytest.raises(ValueError):
            write_grid(grid, tmp_path / "g.asc", nodata=-0.5)


def read_grid_by_lines(path):
    """read_grid with its one-conversion path declined, so the line-by-line loop parses every body."""
    with mock.patch.object(grid_module, "_convert_body", lambda spec, data_lines: None):
        return read_grid(path)


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

    def test_integer_tokens_give_int_raster(self, tmp_path):
        path = self.write(
            tmp_path,
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n3 4\n",
        )
        assert type(read_grid(path)) is IntRaster

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
    @pytest.mark.parametrize("token", ["9223372036854775808", "99999999999999999999", "9223372036854775807"])
    def test_integer_cell_past_int64_gives_float_raster(self, tmp_path, read, token):
        # 2^63 - 1 reads as the float 2^63, which int64 cannot hold either
        path = self.write(
            tmp_path,
            f"ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n{token} 5 -9999\n",
        )
        grid = read(path)
        assert type(grid) is RasterGrid
        assert grid.values[0, :2].tolist() == [float(token), 5.0]
        assert grid.missing[0].tolist() == [False, False, True]

    @pytest.mark.parametrize("read", [read_grid, read_grid_by_lines])
    def test_negative_nodata_keeps_an_int_raster(self, tmp_path, read):
        path = self.write(
            tmp_path,
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n3 -9999 -0\n",
        )
        grid = read(path)
        assert type(grid) is IntRaster
        assert grid.missing[0].tolist() == [False, True, False]

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


def parse_outcome(read, path):
    """What a reader makes of a file: the raster bit for bit, or its GridParseError."""
    try:
        grid = read(path)
    except GridParseError as exc:
        return type(exc), str(exc), exc.line
    values = [v.hex() if isinstance(v, float) else v for v in grid.values.ravel().tolist()]
    return type(grid), grid.spec, values, grid.missing.tolist()


# tokens float() reads; the integer literals among them include a sign, digit
# separators and non-ASCII decimal digits, which _INT_TOKEN's \d also matches.
# A negative one, or one of 2^63 or more, makes the file a RasterGrid, as an
# IntRaster's valid cells are non-negative int64s.
CELL_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(0, 10**6).map(str),
    st.integers(2**63 - 2**10, 10**30).map(str),
    st.integers(-50, -1).map(str),
    st.sampled_from(["-0.0", "-0", "+7", "1_0", "1_000.5", "\u0661\u0662", "\uff17", "0.1e-3", "5E+2", ".5", "7."]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", " \u2003 "])
BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "\xa0"]), max_size=2)


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
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestOneConversionMatchesLineByLine:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_valid_files_read_the_same(self, tmp_path_factory, data):
        header, rows = data.draw(grid_files())
        path = tmp_path_factory.mktemp("grid") / "grid.asc"
        path.write_text(grid_text(data.draw, header, rows), newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assert expected[0] in (RasterGrid, IntRaster)
        assert parse_outcome(read_grid, path) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_malformed_files_fail_the_same(self, tmp_path_factory, data):
        header, rows = data.draw(grid_files())
        for _ in range(data.draw(st.integers(1, 3))):
            r = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(0, len(rows[r]) - 1)) if rows[r] else 0
            fault = data.draw(
                st.sampled_from(["short row", "long row", "lost row", "extra row", "bad token", "NUL"])
            )
            if fault == "short row":
                del rows[r][c:]
            elif fault == "long row":
                rows[r].append(data.draw(CELL_TOKENS))
            elif fault == "lost row":
                del rows[r]
            elif fault == "extra row":
                rows.insert(r, list(rows[r]))
            elif fault == "bad token" and rows[r]:
                rows[r][c] = data.draw(
                    st.sampled_from(["abc", "1.2.3", "0x10", "1__0", "_1", "nan", "inf", "-Infinity", "1e999"])
                )
            elif rows[r]:
                rows[r][c] = data.draw(st.sampled_from(["\0", "{}\0", "\0{}", "1\0{}"])).format(rows[r][c])
            if not rows:
                break
        path = tmp_path_factory.mktemp("grid") / "grid.asc"
        path.write_text(grid_text(data.draw, header, rows), newline="")
        expected = parse_outcome(read_grid_by_lines, path)
        assume(expected[0] is GridParseError)  # a lost row and an extra row can cancel
        assert parse_outcome(read_grid, path) == expected

    @pytest.mark.parametrize(
        "row, kind",
        [
            ("+7 -0 0 12", IntRaster),
            ("+7 -3 0 12", RasterGrid),
            ("1_0 2 3 4", RasterGrid),
            ("\u0661\u0662 \uff17 +\u0663 4", IntRaster),
            ("-\u0663 1 2 3", RasterGrid),
            ("1.0 2 3 4", RasterGrid),
            ("2 3 4 1.0", RasterGrid),
            ("2 1e3 4 5", RasterGrid),
            ("2 3 4 -1E+0", RasterGrid),
            ("2 3 4 5.5", RasterGrid),
        ],
    )
    def test_integer_check_matches_line_by_line(self, tmp_path, row, kind):
        header = "ncols 4\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
        path = tmp_path / "grid.asc"
        path.write_text(f"{header}{row}\n5 6 7 8\n")
        expected = parse_outcome(read_grid_by_lines, path)
        assert expected[0] is kind
        assert parse_outcome(read_grid, path) == expected


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
