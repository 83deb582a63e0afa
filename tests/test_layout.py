"""Tests for the dataset-directory layout: the simulate writer and the loader."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    ConfigError,
    Dataset,
    EventWindow,
    GridSpec,
    IntRaster,
    MonthIndex,
    NoiseSpec,
    QualityDecodeError,
    RasterGrid,
    SceneSpec,
    Zone,
    config_from_label,
    decode_vnp46a2_quality,
    generate_scene,
    is_high_quality_vnp46a2,
    rect_ring,
    tile_zones,
    write_grid,
)
from ntlpipe import layout, quality
from ntlpipe.layout import BUILT_FRACTION_FILENAME, DatasetConfig, load_dataset, month_paths, scan_dataset_dir

GRID = GridSpec(ncols=6, nrows=5, x_origin=10.0, y_origin=-3.0, cell_size=0.5)
WINDOW = EventWindow(MonthIndex(2018, 10), 3, 2)
HEADER = "ncols 6\nnrows 5\nxllcorner 10.0\nyllcorner -3.0\ncellsize 0.5\nNODATA_value -9999\n"
# covers every cell of GRID, so a load holds each grid as read, uncut
WHOLE = (Zone("ALL", (rect_ring(10.0, -3.0, 13.0, -0.5),), 0.1),)


def load(dataset, month_lo=WINDOW.start, month_hi=WINDOW.end, labels=("quality",)):
    """load_dataset with the whole-grid zone, for the configs of ``labels``."""
    configs = [config_from_label(dataset.kind, label) for label in labels]
    radiance, quality_stack, built, positions = load_dataset(dataset, month_lo, month_hi, configs, WHOLE)
    assert positions["ALL"].tolist() == list(range(GRID.size))
    return radiance, quality_stack, built


def written_scene(directory, kind):
    scene = generate_scene(
        SceneSpec(
            seed=5,
            grid=GRID,
            zones=tile_zones(GRID, 2, 1, [0.1, 0.4]),
            months=WINDOW,
            base_radiance=[12.5, 30.25],
            dataset=kind,
            noise=NoiseSpec(gaussian_sigma=0.1, cloud_rate=0.4, corruption_scale=1.0),
        )
    )
    for (month, radiance), (_, quality_grid) in zip(scene.radiance, scene.quality):
        for grid, path in zip((radiance, quality_grid), month_paths(directory, month)):
            write_grid(grid, path)
    write_grid(scene.built_fraction, directory / BUILT_FRACTION_FILENAME)
    return scene, DatasetConfig(kind.value, kind, directory, directory)


@pytest.mark.parametrize("kind", list(Dataset))
def test_written_scene_loads_back_exactly(tmp_path, kind):
    scene, dataset = written_scene(tmp_path, kind)
    radiance, quality, built = load(dataset)
    assert radiance == scene.radiance
    assert quality == scene.quality
    assert quality.values.dtype == (np.uint16 if kind is Dataset.VNP46A2 else np.int64)
    assert built == scene.built_fraction


@pytest.mark.parametrize("kind", list(Dataset))
def test_missing_built_grid_fails_the_load_only_when_a_config_needs_it(tmp_path, kind):
    scene, dataset = written_scene(tmp_path, kind)
    dataset.built_path.unlink()
    with pytest.raises(ConfigError) as raised:
        load(dataset, labels=("raw", "built", "quality"))
    assert str(raised.value) == f"built masking requested but {dataset.built_path} not found"
    radiance, quality, built = load(dataset, labels=("raw", "quality"))
    assert radiance == scene.radiance and quality == scene.quality and built is None


def test_missing_quality_months_are_named_before_a_missing_built_grid(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    dataset.built_path.unlink()
    (tmp_path / "2018-09.qf.asc").unlink()
    with pytest.raises(ConfigError) as raised:
        load(dataset, labels=("built+quality",))
    assert str(raised.value) == "quality filtering requested but quality files are missing for months: 2018-09"


def test_malformed_grid_is_named(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    (tmp_path / "2018-09.qf.asc").write_text("ncols 6\n")
    with pytest.raises(ConfigError, match=r"unreadable grid 2018-09\.qf\.asc: "):
        load(dataset)


@pytest.mark.parametrize(
    "spoil, detail",
    [
        (lambda path: path.write_bytes(b"ncols 6\xff\n"), "not UTF-8 text: byte 7 is 0xff"),
        (lambda path: (path.unlink(), path.mkdir()), "Is a directory: {path}"),
    ],
    ids=["not-utf8", "directory"],
)
def test_unreadable_file_is_named(tmp_path, spoil, detail):
    _, dataset = written_scene(tmp_path, Dataset.VNP46A2)
    path = tmp_path / "2018-10.asc"
    spoil(path)
    with pytest.raises(ConfigError) as raised:
        load(dataset)
    assert str(raised.value) == f"unreadable grid 2018-10.asc: {detail.format(path=path)}"


def test_names_outside_the_layout_are_ignored(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    for name in ("2018-13.asc", "2018-00.qf.asc", "2018-9.asc", "notes.txt"):
        (tmp_path / name).write_text("not a grid\n")
    radiance, quality = scan_dataset_dir(dataset)
    assert sorted(radiance) == list(WINDOW.months()) == sorted(quality)


def test_daily_files_are_listed_in_name_order(tmp_path):
    for day in ("12", "03", "30", "01"):
        (tmp_path / f"2018-10-{day}.asc").write_text("")
    radiance, _ = scan_dataset_dir(DatasetConfig("VNP46A2", Dataset.VNP46A2, tmp_path, tmp_path))
    assert radiance == {MonthIndex(2018, 10): sorted(tmp_path.iterdir())}
    assert [p.name[-6:-4] for p in radiance[MonthIndex(2018, 10)]] == ["01", "03", "12", "30"]


def test_negative_integer_radiance_loads_as_real_values(tmp_path):
    scene, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    header = "ncols 6\nnrows 5\nxllcorner 10.0\nyllcorner -3.0\ncellsize 0.5\nNODATA_value -9999\n"
    (tmp_path / "2018-10.asc").write_text(header + "\n".join(["3 -4 5 6 7 8"] * 5) + "\n")
    radiance, _, _ = load(dataset)
    assert radiance.get(MonthIndex(2018, 10)).values[:, :2].tolist() == [[3.0, -4.0]] * 5
    assert radiance.get(MonthIndex(2018, 9)) == scene.radiance.get(MonthIndex(2018, 9))


@pytest.mark.parametrize("kind", list(Dataset))
def test_negative_quality_value_is_named(tmp_path, kind):
    _, dataset = written_scene(tmp_path, kind)
    header = "ncols 6\nnrows 5\nxllcorner 10.0\nyllcorner -3.0\ncellsize 0.5\nNODATA_value -9999\n"
    (tmp_path / "2018-09.qf.asc").write_text(header + "\n".join(["1 -4 5 6 7 8"] * 5) + "\n")
    with pytest.raises(ConfigError, match=r"^negative quality value in 2018-09\.qf\.asc$"):
        load(dataset)


@pytest.mark.parametrize("name", ["2018-09.qf.asc", "2018-09-14.qf.asc"])
def test_vnp46a2_quality_word_of_16_bits_or_more_is_named(tmp_path, name):
    _, dataset = written_scene(tmp_path, Dataset.VNP46A2)
    (tmp_path / "2018-09.qf.asc").unlink()
    (tmp_path / name).write_text(HEADER + "\n".join(["50 65536 50 50 50 50"] * 5) + "\n")
    with pytest.raises(ConfigError) as raised:
        load(dataset)
    assert str(raised.value) == f"quality word of 2^16 or more in {name}"


def test_largest_16_bit_word_is_named_as_reserved(tmp_path):
    # below 2^16, so the reserved-field check, not the width check, refuses it
    _, dataset = written_scene(tmp_path, Dataset.VNP46A2)
    (tmp_path / "2018-09.qf.asc").write_text(HEADER + "\n".join(["50 65535 50 50 50 50"] * 5) + "\n")
    with pytest.raises(ConfigError) as raised:
        load(dataset)
    assert str(raised.value) == "reserved bits 11-15 are set (raw value 65535) in 2018-09.qf.asc"


# words a 16-bit cast would wrap, pass or truncate, with the message the load refuses each with (65536 is tested above)
REFUSED_WORDS = [
    ("65586", "quality word of 2^16 or more in {}"),  # 2^16 + 50: 50 in 16 bits, a trusted word
    ("-1", "negative quality value in {}"),
    ("-65486", "negative quality value in {}"),  # 50 - 2^16
    ("8", "reserved background code 4 (raw value 8) in {}"),
    ("2098", "reserved bits 11-15 are set (raw value 2098) in {}"),  # 2^11 + 50
    ("12.5", "fractional quality value in {}"),
    ("50.5", "fractional quality value in {}"),
    ("-0.5", "negative quality value in {}"),
    ("65535.5", "fractional quality value in {}"),
]


@pytest.mark.parametrize("name", ["2018-09.qf.asc", "2018-09-14.qf.asc"])
@pytest.mark.parametrize("word, message", REFUSED_WORDS)
def test_no_vnp46a2_word_is_narrowed_before_it_is_checked(tmp_path, word, message, name):
    _, dataset = written_scene(tmp_path, Dataset.VNP46A2)
    (tmp_path / "2018-09.qf.asc").unlink()
    (tmp_path / name).write_text(HEADER + "\n".join([f"50 {word} 50 50 50 50"] * 5) + "\n")
    with pytest.raises(ConfigError) as raised:
        load(dataset)
    assert str(raised.value) == message.format(name)


@pytest.mark.parametrize(
    "counts, message",
    [
        ("0.5 1 1 1 1 1", "fractional quality value in 2018-09.qf.asc"),
        ("65536 1 1 1 1 1", "quality value of 2^16 or more in 2018-09.qf.asc"),
        ("1 1 1 1 1 9007199254740992", "quality value of 2^16 or more in 2018-09.qf.asc"),
    ],
)
def test_vscntl_count_outside_16_bit_integers_is_named(tmp_path, counts, message):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    (tmp_path / "2018-09.qf.asc").write_text(HEADER + "\n".join([counts] * 5) + "\n")
    with pytest.raises(ConfigError) as raised:
        load(dataset)
    assert str(raised.value) == message


def test_vscntl_counts_up_to_65535_load_as_int64(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    counts = [65535, 65534, 2, 1, 0, 31]
    (tmp_path / "2018-09.qf.asc").write_text(HEADER + "\n".join([" ".join(map(str, counts))] * 5) + "\n")
    _, quality_stack, _ = load(dataset)
    assert quality_stack.values.dtype == np.int64
    assert quality_stack.get(MonthIndex(2018, 9)).values.tolist() == [counts] * 5


@pytest.mark.parametrize("kind", list(Dataset))
def test_quality_spelled_as_reals_loads_the_same_cube(tmp_path, kind):
    # 50.0 and 50 read as one float, and the check turns either into one integer word
    _, dataset = written_scene(tmp_path, kind)
    integers = load(dataset)[1]
    for path in tmp_path.glob("*.qf.asc"):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6] + [" ".join(f"{tok}.0" for tok in line.split()) for line in lines[6:]]))
    reals = load(dataset)[1]
    assert reals.values.dtype == integers.values.dtype == kind.word_dtype
    assert reals == integers


def daily_month(directory, radiance_rows, quality_rows):
    """A VNP46A2 dataset of one month, 2018-10, as one daily radiance and quality file per row pair."""
    for day, (radiance, words) in enumerate(zip(radiance_rows, quality_rows), start=1):
        (directory / f"2018-10-{day:02d}.asc").write_text(HEADER + "\n".join([radiance] * 5) + "\n")
        (directory / f"2018-10-{day:02d}.qf.asc").write_text(HEADER + "\n".join([words] * 5) + "\n")
    return DatasetConfig("VNP46A2", Dataset.VNP46A2, directory, directory)


class TestDailyMonth:
    def test_no_word_is_decoded_in_a_month_without_a_refused_word(self, tmp_path, monkeypatch):
        dataset = daily_month(
            tmp_path,
            ["1.5 2.5 3.5 4.5 5.5 6.5"] * 3,
            ["50 242 50 242 50 242", "242 242 50 50 50 50", "50 50 50 50 242 -9999"],
        )
        decoded, read = [], []
        decode, read_grid = quality.decode_vnp46a2_quality, layout.read_grid
        monkeypatch.setattr(quality, "decode_vnp46a2_quality", lambda qf: decoded.append(qf) or decode(qf))
        monkeypatch.setattr(layout, "read_grid", lambda path: read.append(path.name) or read_grid(path))
        month = MonthIndex(2018, 10)
        _, quality_stack, _ = load(dataset, month, month)
        assert decoded == []
        assert sorted(read) == sorted(p.name for p in tmp_path.iterdir())
        assert len(read) == 6
        high, low = VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE
        assert quality_stack.get(month).values[0].tolist() == [high, low, high, high, high, low]

    def test_integer_daily_radiance_composites_as_real_values(self, tmp_path):
        rows = ["3 5 -9999 1 2 -9999", "7 5 2 1 2 -9999", "4 -9999 -9999 1 8 -9999"]
        dataset = daily_month(tmp_path, rows, ["50 50 50 50 50 50"] * 3)
        month = MonthIndex(2018, 10)
        radiance, _, _ = load(dataset, month, month, labels=("raw",))
        composite = radiance.get(month)
        assert composite.values.dtype == np.float64
        assert composite.values[0, :5].tolist() == [4.0, 5.0, 2.0, 1.0, 2.0]
        assert composite.missing[0].tolist() == [False] * 5 + [True]

    def test_fractional_daily_quality_word_is_named(self, tmp_path):
        words = ["50 50 50 50 50 50", "50 50 50 50 50 50", "50 50 50 50 50 50.5"]
        dataset = daily_month(tmp_path, ["1.5 2.5 3.5 4.5 5.5 6.5"] * 3, words)
        month = MonthIndex(2018, 10)
        with pytest.raises(ConfigError, match=r"^fractional quality value in 2018-10-03\.qf\.asc$"):
            load(dataset, month, month)

    def test_huge_daily_radiance_composites_to_a_finite_month(self, tmp_path):
        dataset = daily_month(tmp_path, ["1e308 1 1 1 1 1"] * 3, ["50 50 50 50 50 50"] * 3)
        month = MonthIndex(2018, 10)
        radiance, _, _ = load(dataset, month, month, labels=("raw",))
        assert radiance.get(month).values[:, 0].tolist() == [1e308] * 5


# high-quality words (50, 51, 114, 115), valid low-quality ones, and reserved ones
# (background codes 4, 6 and 7; bits 11-15)
QUALITY_WORDS = st.one_of(
    st.sampled_from([50, 51, 114, 115, 0, 242, 370, 1074]),
    st.sampled_from([8, 12, 14, 2048, 2098, 65535]),
    st.integers(0, 2047),
)


def day_mask(grid):
    """One day's high-quality mask, written apart from quality.py: np.unique, decode, np.isin."""
    codes = np.unique(grid.values[grid.valid])
    good = {int(code) for code in codes if is_high_quality_vnp46a2(decode_vnp46a2_quality(int(code)))}
    return np.isin(grid.values, sorted(good)) & grid.valid


def vote_by_days(grids):
    """The majority vote as a loop over days, one day_mask per day; a reserved word names the month's smallest."""
    spec = grids[0].spec
    observed = np.zeros(spec.shape, dtype=np.int64)
    high = np.zeros(spec.shape, dtype=np.int64)
    errors = []
    for grid in grids:
        observed += grid.valid
        try:
            high += day_mask(grid)
        except QualityDecodeError as exc:
            errors.append(exc)
    if errors:  # the month's smallest reserved word
        raise min(errors, key=lambda exc: exc.qf)
    words = np.where(high * 2 > observed, VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE)
    return IntRaster(spec, words, observed == 0)


def vote_outcome(vote, grids):
    try:
        return vote(grids)
    except QualityDecodeError as exc:
        return type(exc), str(exc), exc.qf


class TestVoteMatchesDayByDay:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_month_or_same_error(self, data):
        ncols, nrows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        spec = GridSpec(ncols=ncols, nrows=nrows, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        n_days = data.draw(st.integers(1, 12))
        # days that may hold reserved words; on the others they become a valid low-quality word
        dirty = data.draw(st.sets(st.integers(0, n_days - 1), max_size=2))
        grids = []
        for day in range(n_days):
            words = data.draw(st.lists(QUALITY_WORDS, min_size=spec.size, max_size=spec.size))
            if day not in dirty:
                words = [w if quality_word_is_valid(w) else 242 for w in words]
            missing = data.draw(st.lists(st.booleans(), min_size=spec.size, max_size=spec.size))
            grids.append(IntRaster(spec, words, missing))
        assert vote_outcome(layout._majority_quality_composite, grids) == vote_outcome(vote_by_days, grids)


def quality_word_is_valid(word):
    try:
        quality.decode_vnp46a2_quality(word)
    except QualityDecodeError:
        return False
    return True


def test_load_holds_only_the_zone_cells(tmp_path):
    """A 3x3 zone on a 200x200 grid: every file is read whole, every month held as 9 cells."""
    spec = GridSpec(ncols=200, nrows=200, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    values = np.arange(spec.size, dtype=np.float64).reshape(spec.shape)
    for month in ("2018-09", "2018-10"):
        write_grid(RasterGrid(spec, values), tmp_path / f"{month}.asc")
        write_grid(IntRaster(spec, np.full(spec.shape, VNP46A2_HIGH_QUALITY_CODE)), tmp_path / f"{month}.qf.asc")
    write_grid(RasterGrid(spec, np.ones(spec.shape)), tmp_path / layout.BUILT_FRACTION_FILENAME)
    dataset = DatasetConfig("VNP46A2", Dataset.VNP46A2, tmp_path, tmp_path)
    # centres of rows 196-198, columns 100-102
    zone = Zone("Z", (rect_ring(100.0, 1.0, 103.0, 4.0),), 0.1)
    configs = [config_from_label(Dataset.VNP46A2, "built+quality")]
    radiance, quality_stack, built, positions = load_dataset(
        dataset, MonthIndex(2018, 9), MonthIndex(2018, 10), configs, (zone,)
    )
    assert positions["Z"].tolist() == list(range(9))
    for grid in [g for _, g in radiance] + [g for _, g in quality_stack] + [built]:
        assert grid.values.shape == grid.missing.shape == (1, 9)
    flat = [row * 200 + col for row in range(196, 199) for col in range(100, 103)]
    assert radiance.values[0].ravel().tolist() == [float(i) for i in flat]


@pytest.mark.parametrize("days", [0, 3])
def test_vnp46a2_quality_cube_takes_two_bytes_per_kept_cell_month(tmp_path, days):
    """Monthly files, or three daily files a month: the loaded quality stack holds a 2-byte word per kept cell-month."""
    spec = GridSpec(ncols=100, nrows=100, x_origin=0.0, y_origin=0.0, cell_size=1.0)
    months = ["2018-09", "2018-10", "2018-11"]
    words = np.where(np.arange(spec.size).reshape(spec.shape) % 7, VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE)
    for month in months:
        for name in [f"{month}-{day:02d}" for day in range(1, days + 1)] or [month]:
            write_grid(RasterGrid(spec, np.ones(spec.shape)), tmp_path / f"{name}.asc")
            write_grid(IntRaster(spec, words), tmp_path / f"{name}.qf.asc")
    dataset = DatasetConfig("VNP46A2", Dataset.VNP46A2, tmp_path, tmp_path)
    zone = Zone("Z", (rect_ring(20.0, 20.0, 80.0, 70.0),), 0.1)  # 60 x 50 cells
    kept = len(months) * 60 * 50
    configs = [config_from_label(Dataset.VNP46A2, "quality")]
    lo, hi = MonthIndex(2018, 9), MonthIndex(2018, 11)
    tracemalloc.start()
    try:
        quality_stack = load_dataset(dataset, lo, hi, configs, (zone,))[1]
        gc.collect()
        with_stack = array_bytes(tracemalloc.take_snapshot())
        assert quality_stack.values.dtype == np.uint16 and quality_stack.values.size == kept
        del quality_stack
        gc.collect()
        held = with_stack - array_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    # the word and the missing flag, and 1 KiB to spare; int64 words would hold 9 B
    assert held <= (2 + 1) * kept + 1024


def array_bytes(snapshot):
    """The bytes of numpy array data in a tracemalloc snapshot, which numpy traces in a domain of its own.

    Only the arrays: the Python objects a load leaves, such as its months' ints, vary in size with what ran before.
    """
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in arrays.traces)
