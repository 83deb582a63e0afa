"""End-to-end tests for the command line: simulate, validate, extract, report."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlpipe import (
    ConfigError,
    Dataset,
    DropSample,
    GridParseError,
    GridSpec,
    IntRaster,
    MonthIndex,
    RasterGrid,
    StatsError,
    build_report,
    correlate_method,
    drop_samples,
    enumerate_configs,
    event_drop,
    generate_scene,
    percent_change,
    read_grid,
    read_series_csv,
    read_zones,
    rasterize_zone,
    recovered_pccs,
    series_by_config,
    write_grid,
    write_report_csv,
    write_zones,
)
import ntlpipe
from ntlpipe import cli, preprocess, synthetic, timeseries
from ntlpipe.cli import main
from ntlpipe.config import SCENE_MAX_CELLS, parse_run_config, parse_scene_spec
from ntlpipe.preprocess import IMPUTATION_WINDOW_MONTHS

VSC_SCENE = {
    "seed": 7,
    "dataset": "VSC-NTL",
    "grid": {"ncols": 12, "nrows": 12, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
    "event_month": "2018-10",
    "zones": {
        "nx": 3,
        "ny": 2,
        "damage_ratios": [0.05, 0.1, 0.2, 0.3, 0.45, 0.6],
        "populations": [500, 1500, 2500, 3500, 4500, 5500],
    },
    "base_radiance": [18.0, 22.0, 26.0, 30.0, 34.0, 38.0],
    "noise": {"gaussian_sigma": 0.05, "cloud_rate": 0.1, "corruption_scale": 1.0},
}

TILE_DAMAGE = VSC_SCENE["zones"]["damage_ratios"]
ZONE_A = {"zone_id": "A", "damage_ratio": 0.1}  # a scene zone without its rect or rings

VNP_SCENE = {
    "seed": 8,
    "dataset": "VNP46A2",
    "grid": VSC_SCENE["grid"],
    "event_month": "2018-10",
    "zones": VSC_SCENE["zones"],
    "base_radiance": VSC_SCENE["base_radiance"],
    "noise": {"gaussian_sigma": 0.05, "cloud_rate": 0.2, "corruption_scale": 1.0},
}


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))
    return path


def run_config_doc():
    return {
        "datasets": [
            {"kind": "VSC-NTL", "raster_dir": "simv/VSC-NTL"},
            {"kind": "VNP46A2", "raster_dir": "simn/VNP46A2"},
        ],
        "zones": "simv/zones.geojson",
        "hurricanes": [{"name": "TestStorm", "event_month": "2018-10"}],
        "configs": "all",
        "output_dir": "out",
    }


def tree_digest(root):
    """Stable content hash of every file under a directory."""
    digests = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="class")
def pipeline_run(tmp_path_factory):
    """One complete simulate -> validate -> extract -> report round trip."""
    root = tmp_path_factory.mktemp("pipeline")
    scene_v = write_json(root / "scene_v.json", VSC_SCENE)
    scene_n = write_json(root / "scene_n.json", VNP_SCENE)
    config = write_json(root / "run.json", run_config_doc())
    codes = {
        "simulate_v": main(["simulate", "--config", str(scene_v), "--out", str(root / "simv")]),
        "simulate_n": main(["simulate", "--config", str(scene_n), "--out", str(root / "simn")]),
    }
    codes["validate"] = main(["validate", "--config", str(config)])
    codes["extract"] = main(["extract", "--config", str(config)])
    codes["report"] = main(["report", "--config", str(config)])
    return root, config, codes


class TestPipelineRoundTrip:
    def test_every_stage_exits_zero(self, pipeline_run):
        _, _, codes = pipeline_run
        assert codes == {k: 0 for k in codes}

    def test_simulate_writes_the_dataset_layout(self, pipeline_run):
        root, _, _ = pipeline_run
        dataset_dir = root / "simv" / "VSC-NTL"
        months = [f"{MonthIndex(2017, 10) + i}" for i in range(25)]
        for month in months:
            assert (dataset_dir / f"{month}.asc").is_file()
            assert (dataset_dir / f"{month}.qf.asc").is_file()
        assert (dataset_dir / "built_fraction.asc").is_file()
        assert (root / "simv" / "zones.geojson").is_file()
        assert (root / "simv" / "oracle.csv").is_file()

    def test_oracle_lists_every_method_combination(self, pipeline_run):
        root, _, _ = pipeline_run
        with open(root / "simv" / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config"] for r in rows] == [
            "raw",
            "clip",
            "remove",
            "built",
            "clip+built",
            "remove+built",
            "quality",
            "clip+quality",
            "remove+quality",
            "built+quality",
            "clip+built+quality",
            "remove+built+quality",
        ]
        assert all(-1.0 <= float(r["recovered_pcc"]) <= 1.0 for r in rows)
        with open(root / "simn" / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config"] for r in rows] == ["raw", "built", "quality", "built+quality"]

    def test_extract_writes_one_csv_per_combination(self, pipeline_run):
        root, _, _ = pipeline_run
        out = root / "out"
        files = sorted(out.rglob("*.csv"))
        series_files = [f for f in files if f.name not in ("report.csv", "case_study.csv")]
        # (12 VSC-NTL + 4 VNP46A2 configs) x 1 hurricane x 6 zones
        assert len(series_files) == 96
        sample = out / "VSC-NTL" / "clip+quality" / "TestStorm" / "Z04.csv"
        assert sample.is_file()
        series = read_series_csv(sample)
        assert series.zone_id == "Z04"
        assert len(series.months) == 25
        assert series.months[0] == MonthIndex(2017, 10)

    def test_report_has_one_row_per_combination(self, pipeline_run):
        root, _, _ = pipeline_run
        with open(root / "out" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert [r["dataset"] for r in rows] == ["VSC-NTL"] * 12 + ["VNP46A2"] * 4
        assert all(r["n_samples"] == "6" for r in rows)
        assert all(-1.0 <= float(r["pcc"]) <= 1.0 for r in rows)

    def test_report_pcc_matches_oracle_exactly(self, pipeline_run):
        # extract/report round-trips through CSV; full-precision fields make
        # the recomputed correlation identical to the in-process oracle
        root, _, _ = pipeline_run
        with open(root / "simv" / "oracle.csv", newline="") as fh:
            oracle = {r["config"]: r["recovered_pcc"] for r in csv.DictReader(fh)}
        with open(root / "out" / "report.csv", newline="") as fh:
            report = {r["methods"]: r["pcc"] for r in csv.DictReader(fh) if r["dataset"] == "VSC-NTL"}
        assert report == oracle

    def test_case_study_covers_selected_zones_every_month(self, pipeline_run):
        root, _, _ = pipeline_run
        with open(root / "out" / "case_study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 16 combinations x 1 hurricane x 6 case-study zones x 25 months
        assert len(rows) == 2400
        zones = {r["zone_id"] for r in rows}
        assert zones == {"Z06", "Z05", "Z04", "Z01", "Z02", "Z03"}
        groups = {(r["zone_id"], r["group"]) for r in rows}
        assert ("Z06", "top") in groups  # highest damage ratio
        assert ("Z01", "bottom") in groups  # lowest damage ratio

    def test_existing_outputs_refused_without_force(self, pipeline_run, capsys):
        root, config, _ = pipeline_run
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "exists" in err and "--force" in err
        assert main(["report", "--config", str(config)]) == 1
        scene = root / "scene_v.json"
        assert main(["simulate", "--config", str(scene), "--out", str(root / "simv")]) == 1

    def test_force_rerun_is_byte_identical(self, pipeline_run):
        root, config, _ = pipeline_run
        before = tree_digest(root / "out")
        assert main(["extract", "--config", str(config), "--force"]) == 0
        assert main(["report", "--config", str(config), "--force"]) == 0
        assert tree_digest(root / "out") == before


# runs one command in a fresh interpreter, then names the numpy submodules it loaded
LOADED_MODULES = """
import sys
from ntlpipe.cli import main
code = main(sys.argv[1:])
print(code, *sorted(name for name in ("numpy.ma", "numpy.random", "orjson") if name in sys.modules))
"""


class TestImportsPerCommand:
    def run_command(self, root, *argv):
        path = [str(Path(ntlpipe.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        command = [sys.executable, "-c", LOADED_MODULES, *argv]
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True)
        return done.stdout.splitlines()[-1].split()

    def test_only_simulate_draws_and_no_command_loads_numpy_ma(self, tmp_path):
        # numpy.ma costs each process 10-14 ms and 1.3 MiB; np.unique would import it. orjson writes grid
        # rows and reads long-spelled ones, as simulate spells radiance, so validate and extract load it
        # here (2-5 ms); report reads no grid
        for name, scene in (("simv", VSC_SCENE), ("simn", VNP_SCENE)):
            path = write_json(tmp_path / f"{name}.json", scene)
            loaded = self.run_command(tmp_path, "simulate", "--config", str(path), "--out", str(tmp_path / name))
            assert loaded == ["0", "numpy.random", "orjson"]
        config = str(write_json(tmp_path / "run.json", run_config_doc()))
        for command in ("validate", "extract"):
            assert self.run_command(tmp_path, command, "--config", config) == ["0", "orjson"]
        assert self.run_command(tmp_path, "report", "--config", config) == ["0"]


class TestSimulateMemory:
    # three zones along the bottom of a 60x60 grid: simulate keeps a third of each month
    PARTIAL_SCENE = dict(
        VSC_SCENE,
        grid=dict(VSC_SCENE["grid"], ncols=60, nrows=60),
        base_radiance=20.0,
        zones=[
            {"zone_id": f"P{i}", "damage_ratio": 0.1 * i + 0.1, "rect": [20 * i, 0, 20 * i + 20, 20]} for i in range(3)
        ],
    )

    def simulate(self, tmp_path, doc):
        scene = write_json(tmp_path / "scene.json", doc)
        return main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim"), "--force"])

    def test_whole_cover_oracle_runs_on_the_cubes_simulate_filled(self, tmp_path, monkeypatch):
        chained = []
        series_by_config = synthetic.series_by_config

        def chaining(radiance, quality, built, *args):
            chained.extend((radiance, quality, built))
            return series_by_config(radiance, quality, built, *args)

        monkeypatch.setattr(synthetic, "series_by_config", chaining)
        assert self.simulate(tmp_path, VSC_SCENE) == 0
        # the whole grids, filled month by month as simulate drew them: the zones cover every cell
        assert [raster.spec for raster in chained] == [GridSpec(**VSC_SCENE["grid"])] * 3
        radiance, quality, built = chained
        for stack, suffix in ((radiance, ".asc"), (quality, ".qf.asc")):
            for month, grid in stack:
                # a file reads as floats, and a cloud-free count as the float of the same value
                back = read_grid(tmp_path / "sim" / "VSC-NTL" / f"{month}{suffix}")
                assert (grid.values.tolist(), grid.missing.tolist()) == (back.values.tolist(), back.missing.tolist())
        assert built == read_grid(tmp_path / "sim" / "VSC-NTL" / "built_fraction.asc")

    def test_no_whole_month_is_alive_when_the_oracle_runs(self, tmp_path, monkeypatch):
        drawn = []
        alive = []
        scene_months, threshold = cli.scene_months, preprocess.threshold

        def recording(spec):
            for month, radiance, quality in scene_months(spec):
                # a month's raster is a view of the month's own cube
                drawn.extend(weakref.ref(raster.values.base) for raster in (radiance, quality))
                yield month, radiance, quality

        def thresholding(*args):
            if not alive:  # VSC-NTL's first stage call is the first threshold
                alive.extend(cube() is not None for cube in drawn)
            return threshold(*args)

        monkeypatch.setattr(cli, "scene_months", recording)
        monkeypatch.setattr(timeseries, "threshold", thresholding)
        assert self.simulate(tmp_path, self.PARTIAL_SCENE) == 0
        assert alive == [False] * 50  # radiance and quality of 25 months

    def test_no_earlier_month_is_alive_when_a_month_is_drawn(self, tmp_path, monkeypatch):
        drawn, alive = [], []
        month_raster = synthetic._month_raster

        def raster(month, grid, values, missing):
            alive.append(sum(cube() is not None for cube in drawn))
            drawn.append(weakref.ref(values))
            return month_raster(month, grid, values, missing)

        monkeypatch.setattr(synthetic, "_month_raster", raster)
        assert self.simulate(tmp_path, self.PARTIAL_SCENE) == 0
        # each month's radiance, then its quality, when only the month's own radiance may be alive
        assert alive == [0, 1] * 25

    def test_peak_is_within_the_zones_cells_and_one_month(self, tmp_path, capsys):
        # Bound in bytes: 23.3 per zone-cell-month (25 months of 1,200 zone cells) plus one whole month
        # of 25 per cell (3,600 cells), the month's radiance, words, missing flags and pixel base. Measured
        # with numpy 2.4 under tracemalloc: 20.0-20.3 per zone-cell-month beyond the month, the oracle
        # stacking the 13 months through the event; 34.3 when it stacked all 25, and 68.0 when simulate
        # generated the whole scene before it cut the zones' cells. The margin is 3.
        assert self.simulate(tmp_path, self.PARTIAL_SCENE) == 0  # first calls import and cache
        tracemalloc.start()
        try:
            assert self.simulate(tmp_path, self.PARTIAL_SCENE) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (20.3 + 3) * 25 * 1200 + 25 * 3600


class TestOutputPathIsAFile:
    """An --out that names an existing file is one error line, not a traceback."""

    def assert_one_error_line(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Not a directory" in err

    def test_simulate(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        (tmp_path / "taken").write_text("")
        self.assert_one_error_line(["simulate", "--config", str(scene), "--out", str(tmp_path / "taken")], capsys)

    def test_extract(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        (tmp_path / "taken").write_text("")
        self.assert_one_error_line(["extract", "--config", str(config), "--out", str(tmp_path / "taken")], capsys)


class TestSimulateDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_out_directory_required(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        assert main(["simulate", "--config", str(scene)]) == 1
        assert "out" in capsys.readouterr().err


@st.composite
def stream_scenes(draw, befores=st.integers(1, 4), afters=st.integers(0, 3)):
    """Scene docs of either dataset, zones over every cell or part of the grid, and each noise channel off in turn."""
    ncols, nrows = draw(st.integers(3, 9), label="ncols"), draw(st.integers(3, 9), label="nrows")
    before, after = draw(befores, label="months before"), draw(afters, label="months after")
    if draw(st.booleans(), label="every cell"):
        zones = {"nx": 3, "ny": 1, "damage_ratios": [0.1, 0.3, 0.5]}
    else:  # three one-column zones that leave out the top row and every column past the third
        zones = [
            {"zone_id": f"P{i}", "damage_ratio": 0.1 + 0.2 * i, "rect": [i, 0, i + 1, nrows - 1]} for i in range(3)
        ]
    noise = {"gaussian_sigma": 0.05, "cloud_rate": 0.2, "corruption_scale": 1.0, "bloom_rate": 0.05}
    off = draw(st.sampled_from([None, "gaussian_sigma", "cloud_rate", "bloom_rate"]), label="off")
    if off is not None:
        noise[off] = 0.0
    elif draw(st.booleans(), label="monthly cloud rates"):
        rates = st.sampled_from([0.0, 0.4])
        noise["cloud_rate"] = draw(st.lists(rates, min_size=before + after + 1, max_size=before + after + 1))
    return {
        "seed": draw(st.integers(0, 2**32 - 1), label="seed"),
        "dataset": draw(st.sampled_from(["VSC-NTL", "VNP46A2"]), label="dataset"),
        "grid": {"ncols": ncols, "nrows": nrows, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
        "event_month": "2018-10",
        "months_before": before,
        "months_after": after,
        "zones": zones,
        "base_radiance": [15.0, 25.0, 35.0],
        "noise": noise,
    }


class TestSimulateStreamsTheGeneratedScene:
    @settings(max_examples=25, deadline=None)
    @given(doc=stream_scenes())
    def test_files_and_oracle_equal_generate_scene_and_recovered_pccs(self, doc):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            path = write_json(root / "scene.json", doc)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(["simulate", "--config", str(path), "--out", str(root / "sim")])
            spec = parse_scene_spec(path)
            scene = generate_scene(spec)
            want = root / "want" / spec.dataset.value
            want.mkdir(parents=True)
            for stack, suffix in ((scene.radiance, ".asc"), (scene.quality, ".qf.asc")):
                for month, grid in stack:
                    write_grid(grid, want / f"{month}{suffix}")
            write_grid(scene.built_fraction, want / "built_fraction.asc")
            write_zones(spec.zones, root / "want" / "zones.geojson")
            oracle = io.StringIO(newline="")
            writer = csv.writer(oracle)
            writer.writerow(["config", "recovered_pcc"])
            for config, pcc in recovered_pccs(scene, enumerate_configs(spec.dataset)):
                writer.writerow([config.label, "" if isinstance(pcc, StatsError) else repr(pcc)])
            (root / "want" / "oracle.csv").write_bytes(oracle.getvalue().encode())
            assert tree_digest(root / "sim") == tree_digest(root / "want")


def full_window_pccs(scene, configs):
    """(config, pcc or StatsError): the chain's zone means over every window month of the whole stacks."""
    spec = scene.spec
    cells = {zone.zone_id: rasterize_zone(zone, spec.grid).inside.ravel().nonzero()[0] for zone in spec.zones}
    chain = series_by_config(scene.radiance, scene.quality, scene.built_fraction, cells, configs, (spec.months,))
    for config, (table,) in chain:
        samples = drop_samples(spec.zones, table, spec.months)
        try:
            yield config, correlate_method(samples, spec.dataset, config.label).pcc
        except StatsError as exc:
            yield config, exc


def shown(result):
    """A pcc as oracle.csv writes it, or a StatsError as its message."""
    return str(result) if isinstance(result, StatsError) else repr(result)


class TestOracleReadsOnlyTheDropWindow:
    # windows that start before and after the event's baseline, so the drop window is clipped or not
    @settings(max_examples=60, deadline=None)
    @given(doc=stream_scenes(befores=st.integers(0, 14), afters=st.integers(0, 4)))
    def test_each_pcc_equals_the_full_window_reference(self, doc):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            path = write_json(root / "scene.json", doc)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                main(["simulate", "--config", str(path), "--out", str(root / "sim")])
            with open(root / "sim" / "oracle.csv", newline="") as fh:
                oracle = list(csv.reader(fh))
            scene = generate_scene(parse_scene_spec(path))
        configs = enumerate_configs(scene.spec.dataset)
        want = list(full_window_pccs(scene, configs))
        got = recovered_pccs(scene, configs)
        assert [(config, shown(pcc)) for config, pcc in got] == [(config, shown(pcc)) for config, pcc in want]
        # simulate writes each pcc, or an empty cell and a failed: line with the error's message
        failures = [pcc for _, pcc in want if isinstance(pcc, StatsError)]
        assert oracle[1:] == [[config.label, "" if isinstance(pcc, StatsError) else repr(pcc)] for config, pcc in want]
        assert err.getvalue().splitlines() == [f"  failed: {failure}" for failure in failures]

    def test_the_oracles_stacks_end_at_the_event(self, tmp_path, monkeypatch):
        handed, means = [], []
        series_by_config, zonal_means = synthetic.series_by_config, timeseries.zonal_means

        def chaining(radiance, quality, *args):
            handed.extend((radiance.months, quality.months))
            return series_by_config(radiance, quality, *args)

        def averaging(*args):
            means.append(args)
            return zonal_means(*args)

        monkeypatch.setattr(synthetic, "series_by_config", chaining)
        monkeypatch.setattr(timeseries, "zonal_means", averaging)
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 0
        # the window start, 2017-10, through the event month: 13 of 25 months
        months = tuple(MonthIndex(2017, 10) + i for i in range(13))
        assert handed == [months, months]
        # the event month and its 6 baseline months, for each of 12 configs
        assert len(means) == 12 * 7


class TestSimulateOutputsAreWholeOrAbsent:
    def fail_mid_write(self, monkeypatch, target):
        def no_space():
            raise OSError(28, "No space left on device")

        if target == "zones.geojson":

            def dump(doc, fh, **kwargs):
                fh.write('{"type": "FeatureCollection", "features": [')
                no_space()

            monkeypatch.setattr(ntlpipe.zones, "json", types.SimpleNamespace(dump=dump))
        else:  # the third config fails once two rows of oracle.csv are written
            scored = []
            correlate_method = synthetic.correlate_method

            def correlating(*args):
                scored.append(args)
                if len(scored) == 3:
                    no_space()
                return correlate_method(*args)

            monkeypatch.setattr(synthetic, "correlate_method", correlating)

    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    @pytest.mark.parametrize("target", ["zones.geojson", "oracle.csv"])
    def test_a_failed_write_keeps_the_old_file_or_none(self, tmp_path, monkeypatch, capsys, target, old):
        out = tmp_path / "sim"
        path = out / target
        if old is not None:
            out.mkdir()
            path.write_bytes(old)
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        self.fail_mid_write(monkeypatch, target)
        assert main(["simulate", "--config", str(scene), "--out", str(out), "--force"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert (path.read_bytes() if path.exists() else None) == old
        assert not [p.name for p in out.rglob("*") if p.name.endswith(".tmp")]


class TestReportOutputsAreWholeOrAbsent:
    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    @pytest.mark.parametrize("target, module", [("report.csv", ntlpipe.analysis), ("case_study.csv", cli)])
    def test_a_failed_write_keeps_the_old_file_or_none(self, tmp_path, monkeypatch, capsys, target, module, old):
        config = simulated_vsc_run(tmp_path, configs=["raw", "clip"])
        assert main(["extract", "--config", str(config)]) == 0
        out = tmp_path / "out"
        path = out / target
        if old is not None:
            path.write_bytes(old)
        writer = csv.writer

        def failing(fh):
            # the third row fails once the header and one row are written
            rows = []

            def writerow(row):
                rows.append(row)
                if len(rows) == 3:
                    raise OSError(28, "No space left on device")
                return writer(fh).writerow(row)

            return types.SimpleNamespace(writerow=writerow)

        monkeypatch.setattr(module, "csv", types.SimpleNamespace(writer=failing))
        assert main(["report", "--config", str(config), "--force"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert (path.read_bytes() if path.exists() else None) == old
        assert not [p.name for p in out.rglob("*") if p.name.endswith(".tmp")]


class TestWindowWithinFileNameMonths:
    """A window must lie within 0000-01..9999-12, the months a YYYY-MM file name can express."""

    REFUSED = [
        ("months_before", 1000000, "2018-10", "months_before: 1000000 reaches back from 2018-10{of} past 0000-01"),
        ("months_after", 1000000, "2018-10", "months_after: 1000000 reaches on from 2018-10{of} past 9999-12"),
        ("months_before", 1, "0000-01", "months_before: 1 reaches back from 0000-01{of} past 0000-01"),
        ("months_after", 1, "9999-12", "months_after: 1 reaches on from 9999-12{of} past 9999-12"),
    ]

    @pytest.mark.parametrize("key, value, event, message", REFUSED)
    def test_run_config_is_refused_by_every_command(self, tmp_path, capsys, key, value, event, message):
        doc = {**run_config_doc(), key: value, "hurricanes": [{"name": "TestStorm", "event_month": event}]}
        config = write_json(tmp_path / "run.json", doc)
        for command in ("validate", "extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {config}: {message.format(of=' of TestStorm')}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, event, message", REFUSED)
    def test_scene_spec_is_refused_and_nothing_written(self, tmp_path, capsys, key, value, event, message):
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, key: value, "event_month": event})
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err == f"error: {scene}: {message.format(of='')}\n"
        assert not (tmp_path / "sim").exists()

    def test_windows_reaching_the_first_and_the_last_month_are_read(self, tmp_path):
        edge_windows = (("0000-07", 6, 0, "0000-01", "0000-07"), ("9999-06", 0, 6, "9999-06", "9999-12"))
        for event, before, after, first, last in edge_windows:
            edges = {"months_before": before, "months_after": after}
            doc = {**run_config_doc(), **edges, "hurricanes": [{"name": "S", "event_month": event}]}
            (hurricane,) = parse_run_config(write_json(tmp_path / "run.json", doc)).hurricanes
            spec = parse_scene_spec(write_json(tmp_path / "scene.json", {**VSC_SCENE, **edges, "event_month": event}))
            for window in (hurricane.window, spec.months):
                assert (str(window.start), str(window.end)) == (first, last)


# one literal per kind of bad cell token: huge, negative, fractional, a non-ASCII digit, NaN and 2^63
FUZZ_LITERALS = ["1e999", "-3", "0.5", "\u0663", "nan", "9223372036854775808"]
# and, for daily VNP46A2 files, a fractional word and words of 2^16 or more
DAILY_LITERALS = [*FUZZ_LITERALS, "50.5", "65536", "1e5"]
# one literal per kind of bad header value: zero, negative, fractional, NaN, infinite, too large to
# allocate, past int64, and a non-ASCII digit
HEADER_LITERALS = ["0", "-1", "2.5", "nan", "inf", "1000000000000", "99999999999999999999", "\u0663"]


@pytest.fixture(scope="class")
def fuzz_run(tmp_path_factory):
    """A tiny simulated run of each dataset: 4x3 grids, three zones leaving one column out, four months."""
    root = tmp_path_factory.mktemp("fuzz")
    window = {"months_before": 2, "months_after": 1}
    grid = {"ncols": 4, "nrows": 3, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0}
    zones = [{"zone_id": f"F{i}", "damage_ratio": 0.1 + 0.2 * i, "rect": [i, 0, i + 1, 3]} for i in range(3)]
    for name, scene in (("simv", VSC_SCENE), ("simn", VNP_SCENE)):
        doc = {**scene, **window, "grid": grid, "zones": zones, "base_radiance": 20.0}
        path = write_json(root / f"{name}.json", doc)
        assert main(["simulate", "--config", str(path), "--out", str(root / name)]) == 0
    write_json(root / "run.json", {**run_config_doc(), **window})
    return root


class TestCorruptedGridFile:
    """One damaged grid file fails validate and extract alike, each fault in one line, never in a traceback."""

    @staticmethod
    def damage(path, draw, literals=FUZZ_LITERALS):
        kind = draw(st.sampled_from(["token", "header", "truncated", "emptied", "not UTF-8"]), label="damage")
        data = path.read_bytes()
        if kind == "emptied":
            path.write_bytes(b"")
        elif kind == "truncated":
            path.write_bytes(data[: draw(st.integers(0, len(data) - 1), label="kept bytes")])
        elif kind == "not UTF-8":
            at = draw(st.integers(0, len(data) - 1), label="byte")
            path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        else:  # the grid's six header lines of key and value, then its rows of cell tokens
            rows = [line.split() for line in data.decode().splitlines()]
            if kind == "header":
                rows[draw(st.integers(0, 5), label="header line")][1] = draw(st.sampled_from(HEADER_LITERALS))
            else:
                row = rows[draw(st.integers(6, len(rows) - 1), label="row")]
                row[draw(st.integers(0, len(row) - 1), label="column")] = draw(st.sampled_from(literals))
            path.write_text("".join(" ".join(tokens) + "\n" for tokens in rows))

    @staticmethod
    def assert_each_failure_in_one_line(code, out, err):
        assert code in (0, 1) and "Traceback" not in out + err
        lines = [line.strip() for line in (out + err).splitlines()]
        faults = [line for line in lines if line.startswith(("problem:", "failed:", "error:"))]
        if code == 0:
            assert faults == []
        elif err.startswith("error: "):
            assert faults == err.splitlines()
        else:  # validate's problems or extract's failures, after or before their count
            (count,) = re.findall(r"(\d+) (?:problem|failure)\(s\)", out + err)
            assert len(faults) == int(count) > 0

    @classmethod
    def assert_a_damaged_file_agrees(cls, run, pattern, data, literals=FUZZ_LITERALS):
        """Damage one file of a copy of ``run`` matching ``pattern``: validate and extract agree, in one-line faults."""
        grids = sorted(p.relative_to(run) for p in run.glob(pattern))
        with tempfile.TemporaryDirectory() as root:
            root = Path(shutil.copytree(run, Path(root) / "run"))
            cls.damage(root / data.draw(st.sampled_from(grids), label="grid"), data.draw, literals)
            codes = []
            for command in ("validate", "extract"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(main([command, "--config", str(root / "run.json")]))
                cls.assert_each_failure_in_one_line(codes[-1], out.getvalue(), err.getvalue())
        assert codes[0] == codes[1]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_validate_and_extract_agree(self, fuzz_run, data):
        self.assert_a_damaged_file_agrees(fuzz_run, "sim?/*/*.asc", data)

    @pytest.mark.parametrize("ncols", ["99999999999999999999", "1000000000000"])
    def test_a_header_too_large_to_allocate_is_one_fault(self, fuzz_run, tmp_path, capsys, ncols):
        root = Path(shutil.copytree(fuzz_run, tmp_path / "run"))
        path = root / "simv" / "VSC-NTL" / "2018-09.asc"
        path.write_text(path.read_text().replace("ncols 4\n", f"ncols {ncols}\n"))
        fault = f"line 7: expected {ncols} cell tokens, got 4"
        with pytest.raises(GridParseError, match=f"^{fault}$"):
            read_grid(path)
        for command in ("validate", "extract"):
            code = main([command, "--config", str(root / "run.json")])
            out, err = capsys.readouterr()
            self.assert_each_failure_in_one_line(code, out, err)
            assert code == 1
            assert [line for line in (out + err).splitlines() if fault in line and path.name in line]


@pytest.fixture(scope="class")
def daily_fuzz_run(fuzz_run, tmp_path_factory):
    """fuzz_run's VNP46A2 dataset alone, each month's radiance and quality files split into two equal days."""
    root = Path(shutil.copytree(fuzz_run / "simn", tmp_path_factory.mktemp("daily") / "simn"))
    for path in sorted((root / "VNP46A2").glob("????-??.*")):
        month, suffix = path.name.split(".", 1)
        for day in ("01", "02"):
            shutil.copyfile(path, path.with_name(f"{month}-{day}.{suffix}"))
        path.unlink()
    doc = json.loads((fuzz_run / "run.json").read_text())
    doc["datasets"] = [{"kind": "VNP46A2", "raster_dir": "simn/VNP46A2"}]
    doc["zones"] = "simn/zones.geojson"
    write_json(root.parent / "run.json", doc)
    return root.parent


class TestCorruptedDailyFile:
    """One damaged daily VNP46A2 file fails validate and extract alike, each fault in one line, never in a traceback."""

    def test_the_undamaged_run_is_daily_files_and_extracts(self, daily_fuzz_run, tmp_path):
        names = sorted(p.name for p in (daily_fuzz_run / "simn" / "VNP46A2").glob("*.asc"))
        assert names[-1] == "built_fraction.asc"
        assert len(names) == 17 and all(re.fullmatch(r"2018-\d\d-0[12](\.qf)?\.asc", name) for name in names[:-1])
        root = Path(shutil.copytree(daily_fuzz_run, tmp_path / "run"))
        assert main(["extract", "--config", str(root / "run.json")]) == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_validate_and_extract_agree(self, daily_fuzz_run, data):
        TestCorruptedGridFile.assert_a_damaged_file_agrees(daily_fuzz_run, "simn/*/????-??-??.*", data, DAILY_LITERALS)


# what one value of zones.geojson is retyped to: a string, a bool, null, a list, NaN and an integer past the float range
ZONES_RETYPES = ["1", True, None, [1], math.nan, 10**400]


class TestCorruptedZonesFile:
    """A retyped value of zones.geojson fails validate and extract in one line naming the feature, never a traceback."""

    @staticmethod
    def retype(path, draw):
        """Retype a coordinate or a property of one feature; returns the names the feature's fault may go by."""
        doc = json.loads(path.read_text())
        i = draw(st.integers(0, len(doc["features"]) - 1), label="feature")
        feature = doc["features"][i]
        names = (f"feature {feature['properties']['zone_id']!r}", f"feature #{i}")
        key = draw(st.sampled_from(["zone_id", "damage_ratio", "population", "coordinate"]), label="value")
        # a string is a zone_id and 10**400 a population, so those two are no retypes of them
        wrong = [v for v in ZONES_RETYPES if (key, v) not in (("zone_id", "1"), ("population", 10**400))]
        value = draw(st.sampled_from(wrong), label="retyped to")
        if key == "coordinate":
            (ring,) = feature["geometry"]["coordinates"]
            position = ring[draw(st.integers(0, len(ring) - 1), label="position")]
            position[draw(st.integers(0, 1), label="axis")] = value
        else:
            feature["properties"][key] = value
        path.write_text(json.dumps(doc))
        return names

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_validate_and_extract_name_the_feature(self, fuzz_run, data):
        with tempfile.TemporaryDirectory() as root:
            root = Path(shutil.copytree(fuzz_run, Path(root) / "run"))
            names = self.retype(root / "simv" / "zones.geojson", data.draw)
            for command in ("validate", "extract"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(root / "run.json")])
                TestCorruptedGridFile.assert_each_failure_in_one_line(code, out.getvalue(), err.getvalue())
                assert code == 1
                (fault,) = [line for line in (out.getvalue() + err.getvalue()).splitlines() if "feature" in line]
                assert any(f"{name}:" in fault or f"{name}," in fault for name in names)


@pytest.fixture(scope="class")
def extracted_run(fuzz_run):
    """fuzz_run with its series extracted, three zones' series CSVs for each config of each dataset, and reportable."""
    config = fuzz_run / "run.json"
    write_json(config, {**json.loads(config.read_text()), "case_study_k": 1})  # the top and bottom of three zones
    assert main(["extract", "--config", str(config)]) == 0
    return fuzz_run


class TestCorruptedSeriesFile:
    """One damaged series CSV makes report fail in one error line, never in a traceback."""

    DAMAGES = [
        "radiance", "month", "year", "short", "zone",
        "emptied", "deleted", "header", "duplicated", "undecodable",
    ]

    @staticmethod
    def damage(path, draw):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        at = draw(st.integers(1, len(rows) - 1), label="row")
        row = rows[at]  # zone_id, year, month, radiance, change
        kind = draw(st.sampled_from(TestCorruptedSeriesFile.DAMAGES), label="damage")
        if kind == "emptied":
            rows = []
        elif kind == "deleted":  # neither the first month nor the last
            del rows[draw(st.integers(2, len(rows) - 2), label="middle row")]
        elif kind == "header":
            names = st.lists(st.integers(0, len(rows[0]) - 1), min_size=2, max_size=2, unique=True)
            i, j = draw(names, label="swapped names")
            rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
        elif kind == "duplicated":
            rows.insert(at, list(row))
        elif kind == "radiance":
            # spellings float() takes but write_series_csv, which writes repr, never writes
            spellings = ["1_5.0", f"+{row[3]}", f" {row[3]}", f"{row[3]}0"]
            row[3] = draw(st.sampled_from(["x", "inf", "nan", "-Infinity"] + spellings))
        elif kind == "month":
            row[2] = draw(st.sampled_from(["13", f"0{row[2]}", f"+{row[2]}", f" {row[2]}"]))
        elif kind == "year":
            row[1] = draw(st.sampled_from(["-5", f"0{row[1]}", f"+{row[1]}", f" {row[1]}"]))
        elif kind == "short":
            del row[draw(st.integers(0, len(row) - 1), label="kept fields") :]
        elif kind == "undecodable":
            row[draw(st.integers(0, len(row) - 1), label="field")] += "\udcff"  # the byte 0xff
        else:
            row[0] = draw(st.sampled_from([f"F{i}" for i in range(3) if f"F{i}" != row[0]]))
        path.write_bytes("".join(",".join(fields) + "\r\n" for fields in rows).encode(errors="surrogateescape"))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_report_fails_in_one_line_or_not_at_all(self, extracted_run, data):
        series = sorted(p.relative_to(extracted_run) for p in extracted_run.glob("out/*/*/*/*.csv"))
        with tempfile.TemporaryDirectory() as root:
            root = Path(shutil.copytree(extracted_run, Path(root) / "run"))
            self.damage(root / data.draw(st.sampled_from(series), label="series"), data.draw)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["report", "--config", str(root / "run.json")])
        assert code == 1 and "Traceback" not in out.getvalue() + err.getvalue()
        faults = [line for line in (out.getvalue() + err.getvalue()).splitlines() if "error:" in line]
        assert len(faults) == 1
        assert err.getvalue() == faults[0] + "\n" and faults[0].startswith("error: ")


class TestSimulateRefusesUnscorableScene:
    def test_two_damage_ratios_fail_before_anything_is_written(self, tmp_path, capsys):
        doc = dict(VSC_SCENE, zones={"nx": 2, "ny": 1, "damage_ratios": [0.1, 0.2]})
        doc["base_radiance"] = 20.0
        scene = write_json(tmp_path / "scene.json", doc)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.count("at least 3 distinct damage ratios") == 1
        assert not (tmp_path / "sim").exists()


class TestValidate:
    def test_missing_dataset_dir_fails(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        main(["simulate", "--config", str(scene), "--out", str(tmp_path / "simv")])
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][0], {"kind": "VNP46A2", "raster_dir": "nowhere"}]
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert "nowhere" in capsys.readouterr().out

    def test_event_month_outside_data_fails(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        main(["simulate", "--config", str(scene), "--out", str(tmp_path / "simv")])
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][0]]
        doc["hurricanes"] = [{"name": "Ghost", "event_month": "2030-01"}]
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert "2030-01" in capsys.readouterr().out

    def test_single_dataset_run_validates(self, tmp_path):
        # a leftover "jobs" key from older configs is ignored
        config = simulated_vsc_run(tmp_path, jobs=2)
        assert main(["validate", "--config", str(config)]) == 0

    def test_event_month_without_baseline_months_fails(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        radiance = tmp_path / "simv" / "VSC-NTL"
        for month in ("2018-04", "2018-05", "2018-06", "2018-07", "2018-08"):
            (radiance / f"{month}.asc").unlink()
        capsys.readouterr()
        # one baseline month left is enough
        assert main(["validate", "--config", str(config)]) == 0
        (radiance / "2018-09.asc").unlink()
        assert main(["validate", "--config", str(config)]) == 1
        problems = [line for line in capsys.readouterr().out.splitlines() if "problem:" in line]
        assert problems == [
            "  problem: VSC-NTL: no radiance file in the 6 baseline months before event month "
            "2018-10 of TestStorm, so every zone's drop is undefined"
        ]

    @pytest.mark.parametrize("months_before, code", [(0, 1), (1, 1), (2, 1), (3, 0)])
    def test_baseline_is_the_window_months_before_the_event(self, tmp_path, capsys, months_before, code):
        # a series holds only its window, so a file before the window's start is no baseline
        config = simulated_vsc_run(tmp_path, months_before=months_before)
        for month in ("2018-08", "2018-09"):
            (tmp_path / "simv" / "VSC-NTL" / f"{month}.asc").unlink()
        assert main(["validate", "--config", str(config)]) == code
        if months_before:
            problem = f"no radiance file in the {months_before} baseline months before event month 2018-10"
        else:
            # no baseline month at all is not a missing file
            problem = "the window of TestStorm holds no month before event month 2018-10, so every zone's drop is undefined"
        assert (problem in capsys.readouterr().out) == bool(code)


def simulated_vsc_run(root, **overrides):
    """Simulate the VSC-NTL scene under root; return its one-dataset run config."""
    scene = write_json(root / "scene.json", VSC_SCENE)
    assert main(["simulate", "--config", str(scene), "--out", str(root / "simv")]) == 0
    doc = run_config_doc()
    doc["datasets"] = [doc["datasets"][0]]
    doc.update(overrides)
    return write_json(root / "run.json", doc)


class TestQualityPassRunsOncePerDataset:
    def test_twelve_and_four_configs_share_one_quality_pass(self, tmp_path, monkeypatch):
        for name, scene in (("simv", VSC_SCENE), ("simn", VNP_SCENE)):
            path = write_json(tmp_path / f"{name}.json", scene)
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        config = write_json(tmp_path / "run.json", run_config_doc())
        calls = []
        original = preprocess.quality_filter_and_impute

        def counting(stack, quality_stack, dataset):
            calls.append(dataset)
            return original(stack, quality_stack, dataset)

        monkeypatch.setattr(timeseries, "quality_filter_and_impute", counting)
        assert main(["extract", "--config", str(config)]) == 0
        assert sorted(calls, key=lambda d: d.value) == [Dataset.VNP46A2, Dataset.VSC_NTL]
        assert len(list((tmp_path / "out").rglob("*.csv"))) == (12 + 4) * 6


class TestExtractDirectories:
    def test_each_series_directory_is_made_once(self, tmp_path, monkeypatch):
        config = simulated_vsc_run(tmp_path)
        made = []
        original = Path.mkdir

        def recording(path, *args, **kwargs):
            made.append((path, kwargs.get("parents")))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", recording)
        assert main(["extract", "--config", str(config)]) == 0
        series_dirs = {path.parent for path in (tmp_path / "out").rglob("*.csv")}
        assert len(series_dirs) == 12
        # pathlib itself makes the missing parents, then retries the leaf with parents=False
        asked = [path for path, parents in made if parents and path in series_dirs]
        assert sorted(asked) == sorted(series_dirs)


class TestExtractMemory:
    def test_the_loaded_stacks_are_handed_over_to_the_chain(self, tmp_path, monkeypatch):
        config = simulated_vsc_run(tmp_path)
        cubes = []
        alive = []
        load_dataset, series_by_config = cli.load_dataset, cli.series_by_config

        def loading(*args):
            loaded = load_dataset(*args)
            cubes.extend(weakref.ref(stack.values) for stack in loaded[:2])  # radiance and quality
            return loaded

        def watched(results):
            for served in results:
                alive.append([cube() is not None for cube in cubes])
                yield served

        monkeypatch.setattr(cli, "load_dataset", loading)
        # a plain function: its frame, which holds the arguments, is gone once the chain is built
        monkeypatch.setattr(cli, "series_by_config", lambda *args: watched(series_by_config(*args)))
        assert main(["extract", "--config", str(config)]) == 0
        # both cubes live through the configs without quality, and die with the quality pass
        assert alive == [[True, True]] * 6 + [[False, False]] * 6


class TestCaseStudy:
    def test_changes_equal_the_scalar_percent_change(self, tmp_path):
        config = simulated_vsc_run(tmp_path)
        assert main(["extract", "--config", str(config)]) == 0
        # a series file whose first 3 and last 2 months are missing: those months have no change
        path = tmp_path / "out" / "VSC-NTL" / "clip+quality" / "TestStorm" / "Z01.csv"
        lines = [line.split(",") for line in path.read_text().splitlines(keepends=True)]
        for fields in lines[1:4] + lines[-2:]:
            fields[3] = ""
        path.write_text("".join(",".join(fields) for fields in lines))
        assert main(["report", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "case_study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 6 * 25
        for row in rows:
            path = tmp_path / "out" / row["dataset"] / row["methods"] / row["hurricane"] / f"{row['zone_id']}.csv"
            change = percent_change(read_series_csv(path), MonthIndex(int(row["year"]), int(row["month"])))
            assert row["percent_change"] == ("" if math.isnan(change) else repr(change))


class TestMissingBuiltGrid:
    """validate fails exactly when extract's loading would: a built grid is needed only by a built config."""

    def test_validate_and_extract_fail_the_dataset_in_one_line(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        built_path = tmp_path / "simv" / "VSC-NTL" / "built_fraction.asc"
        built_path.unlink()
        expected = f"VSC-NTL: built masking requested but {built_path} not found"
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert f"  problem: {expected}\n" in out and out.count("problem:") == 1
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"extract: 1 failure(s)\n  failed: {expected}\n"
        assert not list((tmp_path / "out" / "VSC-NTL").rglob("*.csv"))

    def test_nothing_is_refused_when_no_config_masks_by_built_fraction(self, tmp_path):
        config = simulated_vsc_run(tmp_path, configs=["raw", "quality"])
        (tmp_path / "simv" / "VSC-NTL" / "built_fraction.asc").unlink()
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        assert len(list((tmp_path / "out" / "VSC-NTL").rglob("*.csv"))) == 2 * 6


class TestGridMismatch:
    """validate and extract both refuse a dataset whose grids disagree, naming the file."""

    OFF_GRID = GridSpec(ncols=12, nrows=11, x_origin=0.0, y_origin=0.0, cell_size=1.0)

    @pytest.mark.parametrize(
        "filename, raster",
        [
            ("2018-05.asc", RasterGrid(OFF_GRID, [[20.0] * 12] * 11)),
            ("2018-05.qf.asc", IntRaster(OFF_GRID, [[1] * 12] * 11)),
            ("built_fraction.asc", RasterGrid(OFF_GRID, [[1.0] * 12] * 11)),
        ],
    )
    def test_file_off_the_first_grid_is_named(self, tmp_path, capsys, filename, raster):
        config = simulated_vsc_run(tmp_path)
        write_grid(raster, tmp_path / "simv" / "VSC-NTL" / filename)
        expected = f"VSC-NTL: grid of {filename} does not match 2017-10.asc"
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert expected in capsys.readouterr().out
        assert main(["extract", "--config", str(config)]) == 1
        assert f"failed: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_extract_honours_the_configured_grid(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        doc = json.loads(config.read_text())
        doc["datasets"][0]["grid"] = dict(VSC_SCENE["grid"], x_origin=5.0)
        write_json(config, doc)
        expected = "VSC-NTL: grid of 2017-10.asc does not match configured grid"
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert expected in capsys.readouterr().out
        assert main(["extract", "--config", str(config)]) == 1
        assert f"failed: {expected}" in capsys.readouterr().err


SERIES_HEADER = "zone_id,year,month,mean_radiance,percent_change"


class TestReportUnreadableSeries:
    @pytest.mark.parametrize(
        "content, detail",
        [
            ("", f"the first line is not the header {SERIES_HEADER}"),
            (f"{SERIES_HEADER}\n", "empty series file"),
            ("zone,year,month\nZ01,2018,1\n", f"the first line is not the header {SERIES_HEADER}"),
            (f"{SERIES_HEADER}\nZ03,2018\n", "line 2: expected 5 fields, got 2"),
            (
                f"{SERIES_HEADER}\nZ03,2018,1,1.0,\nZ03,2018,3,1.0,\n",
                "line 3: month 2018-03 does not follow the row before",
            ),
            (
                f"{SERIES_HEADER}\nZ03,2018,1,bright,\n",
                "line 2: could not convert string to float: 'bright'",
            ),
            pytest.param(
                f"{SERIES_HEADER}\nZ03,2018,1,{'1' * 131_073},\n",
                "line 2: field larger than field limit (131072)",
                id="field-over-the-csv-limit",
            ),
            (
                f"{SERIES_HEADER}\nZ03,2018,1,+1.0,\n",
                "line 2: radiance '+1.0' is not spelled as repr spells it: 1.0",
            ),
            pytest.param(
                f"{SERIES_HEADER}\r\nZ03,2018,10,\udcff,\r\n",
                "not UTF-8 text: byte 61 is 0xff",
                id="not-utf-8",
            ),
        ],
    )
    def test_unparsable_csv_is_an_error_naming_the_file(self, tmp_path, capsys, content, detail):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        assert main(["extract", "--config", str(config)]) == 0
        path = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z03.csv"
        path.write_bytes(content.encode(errors="surrogateescape"))
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        assert f"error: {path}: {detail}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()


class TestReportMissingSeries:
    def test_absent_file_and_directory_in_its_place_are_both_missing(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw", "clip"])
        assert main(["extract", "--config", str(config)]) == 0
        (tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z02.csv").unlink()
        path = tmp_path / "out" / "VSC-NTL" / "clip" / "TestStorm" / "Z05.csv"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: missing extraction outputs (2): VSC-NTL/raw/TestStorm/Z02.csv, VSC-NTL/clip/TestStorm/Z05.csv\n"
        )
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()

    def test_fifo_and_device_in_a_files_place_are_missing_without_a_wait(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        assert main(["extract", "--config", str(config)]) == 0
        series_dir = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm"
        (series_dir / "Z01.csv").unlink()
        os.mkfifo(series_dir / "Z01.csv")  # no writer: an open that waits for one never returns
        (series_dir / "Z04.csv").unlink()
        (series_dir / "Z04.csv").symlink_to(os.devnull)  # a device, read as a file it would read as empty
        capsys.readouterr()

        def waited(signum, frame):
            raise TimeoutError("report waited on a FIFO for a writer")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(20)  # a failure, not a hang, if report blocks on the FIFO
        try:
            assert main(["report", "--config", str(config)]) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capsys.readouterr().err == (
            "error: missing extraction outputs (2): VSC-NTL/raw/TestStorm/Z01.csv, VSC-NTL/raw/TestStorm/Z04.csv\n"
        )

    def test_series_directory_that_is_a_file_is_missing_every_zone(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        assert main(["extract", "--config", str(config)]) == 0
        series_dir = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm"
        shutil.rmtree(series_dir)
        series_dir.write_text("")
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        names = ", ".join(f"VSC-NTL/raw/TestStorm/Z0{i}.csv" for i in range(1, 7))
        assert capsys.readouterr().err == f"error: missing extraction outputs (6): {names}\n"


class TestMonthArithmeticIsPerWindow:
    """extract and report work out each window's months once, however many zones and series files there are."""

    def month_arithmetic(self, root, nx, monkeypatch):
        """The MonthIndex additions and subtractions of extract, then of report, on an nx by nx tiling of the scene."""
        zones = {"nx": nx, "ny": nx, "damage_ratios": [0.05 + 0.9 * i / nx**2 for i in range(nx**2)]}
        scene = write_json(root / "scene.json", {**VSC_SCENE, "zones": zones, "base_radiance": 20.0})
        assert main(["simulate", "--config", str(scene), "--out", str(root / "simv")]) == 0
        doc = run_config_doc()
        config = write_json(root / "run.json", {**doc, "datasets": doc["datasets"][:1], "case_study_k": 1})
        calls = []
        with monkeypatch.context() as patched:
            for name in ("__add__", "__sub__"):
                original = getattr(MonthIndex, name)

                def counting(month, other, original=original):
                    calls.append(month)
                    return original(month, other)

                patched.setattr(MonthIndex, name, counting)
            assert main(["extract", "--config", str(config)]) == 0
            extract = len(calls)
            assert main(["report", "--config", str(config)]) == 0
        assert len(list((root / "out").rglob("Z*.csv"))) == 12 * nx**2
        return extract, len(calls) - extract

    def test_same_count_for_4_and_16_zones(self, tmp_path, monkeypatch):
        four = self.month_arithmetic(tmp_path / "four", 2, monkeypatch)
        sixteen = self.month_arithmetic(tmp_path / "sixteen", 4, monkeypatch)
        assert four == sixteen


class TestReportZoneMismatch:
    def test_series_file_naming_another_zone_is_refused(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        assert main(["extract", "--config", str(config)]) == 0
        path = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z01.csv"
        path.write_text(path.read_text().replace("\nZ01,", "\nZ02,"))
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {path}: rows name zone 'Z02', expected 'Z01'\n"
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()


class TestSeriesFileCalls:
    """extract and report handle each series file in one call, the path as a positional argument."""

    def test_one_call_per_series_file(self, tmp_path, monkeypatch):
        config = simulated_vsc_run(tmp_path, configs=["raw", "clip+quality"])
        written, read = [], []
        write, read_back = cli.write_series_csv, cli.read_series_csv

        def recording_write(*args, **kwargs):
            written.append(args[1])
            return write(*args, **kwargs)

        def recording_read(*args, **kwargs):
            read.append(args[0])
            return read_back(*args, **kwargs)

        monkeypatch.setattr(cli, "write_series_csv", recording_write)
        monkeypatch.setattr(cli, "read_series_csv", recording_read)
        assert main(["extract", "--config", str(config)]) == 0
        series_files = sorted((tmp_path / "out").rglob("*.csv"))
        assert len(series_files) == 2 * 6
        assert sorted(written) == series_files
        assert main(["report", "--config", str(config)]) == 0
        assert sorted(map(Path, read)) == series_files  # report joins each path as a string on its directory's


class TestNegativeCells:
    """A negative cell in an all-integer grid reads as a real-valued raster."""

    HEADER = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"

    def build_run(self, root, kind, body, quality=None):
        data = root / "data"
        data.mkdir()
        for month in ("2018-09", "2018-10", "2018-11"):
            (data / f"{month}.asc").write_text(self.HEADER + body(month) + "\n")
            if quality is not None:
                (data / f"{month}.qf.asc").write_text(self.HEADER + quality(month) + "\n")
        zone = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [2, 0], [2, 1], [0, 1], [0, 0]]]},
            "properties": {"zone_id": "Z1", "damage_ratio": 0.5, "population": 10},
        }
        write_json(root / "zones.geojson", {"type": "FeatureCollection", "features": [zone]})
        return write_json(
            root / "run.json",
            {
                "datasets": [{"kind": kind, "raster_dir": "data"}],
                "zones": "zones.geojson",
                "hurricanes": [{"name": "S", "event_month": "2018-10"}],
                "configs": ["raw"] if quality is None else ["raw", "quality"],
                "months_before": 1,
                "months_after": 1,
                "output_dir": "out",
            },
        )

    def test_negative_radiance_cell_extracts(self, tmp_path):
        config = self.build_run(tmp_path, "VSC-NTL", lambda month: "3 -4" if month == "2018-10" else "3 5")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        series = read_series_csv(tmp_path / "out" / "VSC-NTL" / "raw" / "S" / "Z1.csv")
        assert series.values == (4.0, -0.5, 4.0)

    def test_negative_quality_word_fails_extract_in_one_line(self, tmp_path, capsys):
        config = self.build_run(
            tmp_path,
            "VNP46A2",
            lambda month: "3 5",
            quality=lambda month: "50 -4" if month == "2018-10" else "50 50",
        )
        message = "VNP46A2: negative quality value in 2018-10.qf.asc"
        assert main(["validate", "--config", str(config)]) == 1
        assert f"  problem: {message}" in capsys.readouterr().out
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "failed:" in line] == [f"  failed: {message}"]

    def test_quality_word_of_16_bits_or_more_fails_in_one_line(self, tmp_path, capsys):
        config = self.build_run(
            tmp_path,
            "VNP46A2",
            lambda month: "3 5",
            quality=lambda month: "50 70000" if month == "2018-10" else "50 50",
        )
        message = "VNP46A2: quality word of 2^16 or more in 2018-10.qf.asc"
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {message}"]
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "failed:" in line] == [f"  failed: {message}"]


class TestWholeGridChecks:
    """Cells outside every zone are never kept, yet a fault there fails validate and extract alike."""

    HEADER = "ncols 4\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"

    def build_run(self, root, kind):
        data = root / "data"
        data.mkdir()
        for month in ("2018-09", "2018-10", "2018-11"):
            (data / f"{month}.asc").write_text(self.HEADER + "3 5 7 9\n")
            (data / f"{month}.qf.asc").write_text(self.HEADER + "50 50 50 50\n")
        (data / "built_fraction.asc").write_text(self.HEADER + "1 1 1 1\n")
        # the zone covers the first cell alone
        zone = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
            "properties": {"zone_id": "Z1", "damage_ratio": 0.5, "population": 10},
        }
        write_json(root / "zones.geojson", {"type": "FeatureCollection", "features": [zone]})
        return write_json(
            root / "run.json",
            {
                "datasets": [{"kind": kind, "raster_dir": "data"}],
                "zones": "zones.geojson",
                "hurricanes": [{"name": "S", "event_month": "2018-10"}],
                "configs": "all",
                "months_before": 1,
                "months_after": 1,
                "output_dir": "out",
            },
        )

    def assert_one_line_failure(self, config, message, capsys):
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {message}"]
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "failed:" in line] == [f"  failed: {message}"]
        assert "Traceback" not in out + err
        assert not (config.parent / "out").exists()

    def test_clean_run_extracts_the_zone_cell(self, tmp_path):
        config = self.build_run(tmp_path, "VNP46A2")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        assert read_series_csv(tmp_path / "out" / "VNP46A2" / "raw" / "S" / "Z1.csv").values == (3.0,) * 3

    @pytest.mark.parametrize("kind", ["VSC-NTL", "VNP46A2"])
    def test_negative_quality_cell(self, tmp_path, capsys, kind):
        config = self.build_run(tmp_path, kind)
        (tmp_path / "data" / "2018-10.qf.asc").write_text(self.HEADER + "50 50 50 -1\n")
        self.assert_one_line_failure(config, f"{kind}: negative quality value in 2018-10.qf.asc", capsys)

    @pytest.mark.parametrize(
        "word, detail",
        [
            ("8", "reserved background code 4 (raw value 8)"),
            ("12.5", "fractional quality value"),
            ("2098", "reserved bits 11-15 are set (raw value 2098)"),
        ],
    )
    def test_reserved_quality_word(self, tmp_path, capsys, word, detail):
        config = self.build_run(tmp_path, "VNP46A2")
        (tmp_path / "data" / "2018-09.qf.asc").write_text(self.HEADER + f"50 50 {word} 30000\n")
        # the smallest reserved word of the file is named; a fractional word is refused before any is decoded
        self.assert_one_line_failure(config, f"VNP46A2: {detail} in 2018-09.qf.asc", capsys)

    @pytest.mark.parametrize("kind, daily", [("VSC-NTL", False), ("VNP46A2", False), ("VNP46A2", True)])
    @pytest.mark.parametrize(
        "value, fault",
        [
            ("0.5", "fractional quality value"),
            ("65535.5", "fractional quality value"),
            ("-1", "negative quality value"),
            ("65536", "quality {} of 2^16 or more"),
            ("1e5", "quality {} of 2^16 or more"),
        ],
        ids=["0.5", "65535.5", "-1", "65536", "1e5"],
    )
    def test_quality_cell_outside_16_bit_integers(self, tmp_path, capsys, kind, daily, value, fault):
        config = self.build_run(tmp_path, kind)
        name = "2018-10.qf.asc"
        if daily:  # the month as two days, the second holding the bad cell; no monthly file shadows them
            for path in (tmp_path / "data").glob("2018-10.*"):
                path.unlink()
            for day in ("01", "02"):
                (tmp_path / "data" / f"2018-10-{day}.asc").write_text(self.HEADER + "3 5 7 9\n")
                (tmp_path / "data" / f"2018-10-{day}.qf.asc").write_text(self.HEADER + "50 50 50 50\n")
            name = "2018-10-02.qf.asc"
        (tmp_path / "data" / name).write_text(self.HEADER + f"50 50 {value} 50\n")
        fault = fault.format("word" if kind == "VNP46A2" else "value")
        self.assert_one_line_failure(config, f"{kind}: {fault} in {name}", capsys)

    def test_reserved_daily_quality_word(self, tmp_path, capsys):
        config = self.build_run(tmp_path, "VNP46A2")
        for day, words in (("01", "50 50 50 50"), ("02", "50 50 14 8")):
            (tmp_path / "data" / f"2018-12-{day}.asc").write_text(self.HEADER + "3 5 7 9\n")
            (tmp_path / "data" / f"2018-12-{day}.qf.asc").write_text(self.HEADER + words + "\n")
        doc = json.loads(config.read_text())
        doc["months_after"] = 2
        write_json(config, doc)
        self.assert_one_line_failure(
            config, "VNP46A2: reserved background code 4 (raw value 8) in 2018-12-02.qf.asc", capsys
        )

    @pytest.mark.parametrize("filename", ["2018-10.asc", "2018-10.qf.asc", "built_fraction.asc"])
    def test_non_numeric_token(self, tmp_path, capsys, filename):
        config = self.build_run(tmp_path, "VSC-NTL")
        (tmp_path / "data" / filename).write_text(self.HEADER + "1 1 1 x\n")
        message = f"VSC-NTL: unreadable grid {filename}: line 7: non-numeric cell token 'x'"
        self.assert_one_line_failure(config, message, capsys)

    def test_month_file_not_utf8(self, tmp_path, capsys):
        config = self.build_run(tmp_path, "VNP46A2")
        (tmp_path / "data" / "2018-10.asc").write_bytes(self.HEADER.encode() + b"3 5 \xff 9\n")
        offset = len(self.HEADER) + 4
        message = f"VNP46A2: unreadable grid 2018-10.asc: not UTF-8 text: byte {offset} is 0xff"
        self.assert_one_line_failure(config, message, capsys)

    def test_directory_named_as_a_month_file(self, tmp_path, capsys):
        config = self.build_run(tmp_path, "VNP46A2")
        path = tmp_path / "data" / "2018-10.asc"
        path.unlink()
        path.mkdir()
        self.assert_one_line_failure(config, f"VNP46A2: unreadable grid 2018-10.asc: Is a directory: {path}", capsys)

    @pytest.mark.parametrize("filename", ["2018-10.asc", "2018-10.qf.asc", "built_fraction.asc"])
    def test_file_off_the_geometry(self, tmp_path, capsys, filename):
        config = self.build_run(tmp_path, "VSC-NTL")
        # one more column, past the zone: the zone's cell reads the same on either grid
        header = self.HEADER.replace("ncols 4", "ncols 5")
        (tmp_path / "data" / filename).write_text(header + "1 1 1 1 1\n")
        self.assert_one_line_failure(config, f"VSC-NTL: grid of {filename} does not match 2018-09.asc", capsys)

    def test_integer_past_int64_is_one_problem(self, tmp_path, capsys):
        config = self.build_run(tmp_path, "VNP46A2")
        (tmp_path / "data" / "2018-10.qf.asc").write_text(self.HEADER + "50 50 99999999999999999999 5\n")
        self.assert_one_line_failure(config, "VNP46A2: quality word of 2^16 or more in 2018-10.qf.asc", capsys)

    def test_integer_radiance_past_int64_extracts(self, tmp_path):
        config = self.build_run(tmp_path, "VSC-NTL")
        (tmp_path / "data" / "2018-10.asc").write_text(self.HEADER + "99999999999999999999 5 7 9\n")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        series = read_series_csv(tmp_path / "out" / "VSC-NTL" / "raw" / "S" / "Z1.csv")
        assert series.values == (3.0, 1e20, 3.0)


class TestOverflowingChange:
    def test_change_past_the_float_range_is_an_empty_cell(self, tmp_path):
        config = simulated_vsc_run(tmp_path)
        path = tmp_path / "simv" / "VSC-NTL" / "2018-10.asc"
        grid = read_grid(path)
        values = grid.values.copy()
        values[0, 0] = 1e308  # in Z01, whose event-month mean is then near 4e306
        write_grid(grid.with_values(values, grid.missing), path)
        assert main(["extract", "--config", str(config)]) == 0
        rows = (tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z01.csv").read_text().splitlines()
        event = next(row.split(",") for row in rows if row.startswith("Z01,2018,10,"))
        assert float(event[3]) > 1e306 and event[4] == ""
        assert main(["report", "--config", str(config)]) == 0
        for name in ("case_study.csv", "report.csv"):
            assert "inf" not in (tmp_path / "out" / name).read_text()


class TestExtentPastTheFloatRange:
    """Grids and zones whose coordinates pass the float range: a clean refusal or a clean run, never a numpy warning.

    pytest turns every warning into an error, so a warning from the chain fails extract here.
    """

    def build_run(self, root, ncols, nrows, cellsize, corner):
        (root / "data").mkdir()
        header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize {cellsize}\nNODATA_value -9999\n"
        body = "\n".join(" ".join(["1"] * ncols) for _ in range(nrows))
        for month in ("2018-09", "2018-10", "2018-11"):
            (root / "data" / f"{month}.asc").write_text(f"{header}{body}\n")
        ring = [[0, 0], [corner, 0], [corner, corner], [0, corner], [0, 0]]
        zone = {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"zone_id": "Z1", "damage_ratio": 0.5, "population": 10},
        }
        write_json(root / "zones.geojson", {"type": "FeatureCollection", "features": [zone]})
        doc = {**run_config_doc(), "datasets": [{"kind": "VSC-NTL", "raster_dir": "data"}], "configs": ["raw"]}
        return write_json(root / "run.json", {**doc, "zones": "zones.geojson", "months_before": 1, "months_after": 1})

    def test_grid_whose_far_corner_overflows_is_refused_at_its_cellsize_line(self, tmp_path, capsys):
        config = self.build_run(tmp_path, 3, 1, "1e308", 1e308)
        message = "VSC-NTL: unreadable grid 2018-09.asc: line 5: far corner (inf, 1e+308) is past the float range"
        assert main(["validate", "--config", str(config)]) == 1
        assert [line for line in capsys.readouterr().out.splitlines() if "problem:" in line] == [f"  problem: {message}"]
        assert main(["extract", "--config", str(config)]) == 1
        assert [line for line in capsys.readouterr().err.splitlines() if "failed:" in line] == [f"  failed: {message}"]

    @pytest.mark.parametrize(
        "ncols, cellsize, corner",
        [
            pytest.param(1, "1e308", 1e308, id="padded-box"),  # the zone's box, padded by a cell, reaches infinity
            pytest.param(2, "6e307", 1.2e308, id="cut-row"),  # a row of four of the grid's cells passes the float range
        ],
    )
    def test_zone_box_past_the_float_range_extracts(self, tmp_path, capsys, ncols, cellsize, corner):
        config = self.build_run(tmp_path, ncols, ncols, cellsize, corner)
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["extract", "--config", str(config)]) == 0
        assert "Warning" not in capsys.readouterr().err
        series = read_series_csv(tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z1.csv")
        assert series.values == (1.0, 1.0, 1.0)


class TestReportIsBuildReport:
    def test_report_csv_equals_build_report_on_the_scalar_drops(self, tmp_path):
        labels = ["clip+quality", "raw", "built"]
        config = simulated_vsc_run(
            tmp_path,
            configs=labels,
            hurricanes=[{"name": "TestStorm", "event_month": "2018-10"}, {"name": "Later", "event_month": "2018-12"}],
            months_before=4,
            months_after=3,
            min_damage=0.08,
        )
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["report", "--config", str(config)]) == 0
        run = parse_run_config(config)
        zones = read_zones(run.zones_path)
        [(dataset, configs)] = run.datasets
        samples = {}
        # each drop from the scalar event_drop on the series file as read
        for pipeline, h, zone in itertools.product(configs, run.hurricanes, zones):
            series = read_series_csv(tmp_path / "out" / "VSC-NTL" / pipeline.label / h.name / f"{zone.zone_id}.csv")
            drop = event_drop(series, h.window)
            sample = DropSample(zone.zone_id, zone.damage_ratio, drop, h.name, zone.population)
            samples.setdefault((dataset.kind, pipeline.label), []).append(sample)
        expected = build_report(samples, [dataset.kind], run.min_damage, {dataset.kind: configs})
        write_report_csv(expected, tmp_path / "expected.csv")
        report = (tmp_path / "out" / "report.csv").read_bytes()
        assert report == (tmp_path / "expected.csv").read_bytes()
        # rows in the run's order, not the canonical one
        assert [line.split(b",")[1].decode() for line in report.splitlines()[1:]] == labels


class TestReportRefusesStaleSeries:
    """A series file over any other months than its hurricane's window comes from another extract."""

    @pytest.mark.parametrize(
        "extracted, reported, months, window",
        [
            ({}, {"months_before": 3, "months_after": 2}, "2017-10..2019-10", "2018-07..2018-12"),
            ({}, {"months_before": 12, "months_after": 2}, "2017-10..2019-10", "2017-10..2018-12"),
            ({"months_before": 3}, {}, "2018-07..2019-10", "2017-10..2019-10"),
        ],
    )
    def test_series_of_another_window_writes_nothing(self, tmp_path, capsys, extracted, reported, months, window):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        doc = json.loads(config.read_text())
        write_json(config, {**doc, **extracted})
        assert main(["extract", "--config", str(config)]) == 0
        write_json(config, {**doc, **reported})
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        path = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z01.csv"
        assert capsys.readouterr().err == (
            f"error: {path}: months {months} are not the window {window} of TestStorm; re-run extract\n"
        )
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()
        # a fresh extract at the reported window reports
        assert main(["extract", "--config", str(config), "--force"]) == 0
        assert main(["report", "--config", str(config)]) == 0


class TestReportWritesNothingOnFailure:
    def test_failed_case_study_selection_leaves_no_report(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, configs=["raw"], case_study_k=40)
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["report", "--config", str(config)]) == 1
        assert "case study needs at least 80 zones" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()
        # with a satisfiable k the rerun needs no --force
        write_json(config, {**json.loads(config.read_text()), "case_study_k": 3})
        assert main(["report", "--config", str(config)]) == 0


class TestUnsafeNames:
    def rename_zone(self, root, zone_id):
        path = root / "simv" / "zones.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["properties"]["zone_id"] = zone_id
        path.write_text(json.dumps(doc))

    def test_duplicate_zone_id_rejected(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        self.rename_zone(tmp_path, "Z01")
        assert main(["validate", "--config", str(config)]) == 1
        assert "duplicate zone_id" in capsys.readouterr().out
        assert main(["extract", "--config", str(config), "--force"]) == 1
        assert "duplicate zone_id" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("zone_id", ["../../escaped", "a/b", "..", "."])
    def test_zone_id_must_be_one_path_component(self, tmp_path, capsys, zone_id):
        config = simulated_vsc_run(tmp_path)
        self.rename_zone(tmp_path, zone_id)
        assert main(["validate", "--config", str(config)]) == 1
        assert "not a single path component" in capsys.readouterr().out
        assert main(["extract", "--config", str(config)]) == 1
        assert "not a single path component" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize(
        "section, name", [("hurricanes", "../up"), ("hurricanes", ".."), ("datasets", "a/b"), ("datasets", "")]
    )
    def test_hurricane_and_dataset_names_must_be_one_path_component(
        self, tmp_path, capsys, section, name
    ):
        doc = run_config_doc()
        doc[section][0]["name"] = name
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert "not a single path component" in capsys.readouterr().err

    def test_scene_zone_id_must_be_one_path_component(self, tmp_path, capsys):
        zones = [
            {"zone_id": zone_id, "damage_ratio": damage, "rect": [x0, 0, x0 + 4, 12]}
            for zone_id, damage, x0 in (("A", 0.1, 0), ("a/b", 0.3, 4), ("C", 0.5, 8))
        ]
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, "zones": zones, "base_radiance": 20.0})
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        message = "zones[1]: zone 'a/b': zone_id is not a single path component"
        assert capsys.readouterr().err == f"error: {scene}: {message}\n"
        assert not (tmp_path / "sim").exists()


class TestDailyAggregation:
    GRID_HEADER = "ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\ncellsize 1.0\nNODATA_value -9999.0\n"

    def write_asc(self, path, rows):
        path.parent.mkdir(parents=True, exist_ok=True)
        body = "\n".join(" ".join(str(v) for v in row) for row in rows)
        path.write_text(self.GRID_HEADER + body + "\n")

    def build_dataset(self, root):
        d = root / "data" / "VNP46A2"
        # monthly files either side of the event month
        for month in ("2018-09", "2018-11"):
            self.write_asc(d / f"{month}.asc", [[10.0, 10.0], [10.0, 10.0]])
            self.write_asc(d / f"{month}.qf.asc", [[50, 50], [50, 50]])
        # the event month exists only as three daily files; pixel (0,0) is
        # majority low-quality, every other pixel is clean
        for day, value, q00 in (("01", 1.0, 50), ("02", 3.0, 242), ("03", 5.0, 242)):
            self.write_asc(d / f"2018-10-{day}.asc", [[value, value], [value, value]])
            self.write_asc(d / f"2018-10-{day}.qf.asc", [[q00, 50], [50, 50]])
        zones = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]],
                    },
                    "properties": {"zone_id": "Z1", "damage_ratio": 0.5, "population": 10},
                }
            ],
        }
        write_json(root / "zones.geojson", zones)
        return write_json(
            root / "run.json",
            {
                "datasets": [{"kind": "VNP46A2", "raster_dir": "data/VNP46A2"}],
                "zones": "zones.geojson",
                "hurricanes": [{"name": "S", "event_month": "2018-10"}],
                "configs": ["raw", "quality"],
                "months_before": 1,
                "months_after": 1,
                "output_dir": "out",
            },
        )

    def test_daily_median_feeds_the_raw_series(self, tmp_path):
        config = self.build_dataset(tmp_path)
        assert main(["extract", "--config", str(config)]) == 0
        series = read_series_csv(tmp_path / "out" / "VNP46A2" / "raw" / "S" / "Z1.csv")
        # per-pixel median of days (1, 3, 5) is 3 everywhere
        assert series.get(MonthIndex(2018, 10)) == 3.0
        assert series.get(MonthIndex(2018, 9)) == 10.0

    def test_majority_vote_marks_the_flaky_pixel_low_quality(self, tmp_path):
        config = self.build_dataset(tmp_path)
        assert main(["extract", "--config", str(config)]) == 0
        series = read_series_csv(tmp_path / "out" / "VNP46A2" / "quality" / "S" / "Z1.csv")
        # pixel (0,0): high-quality on 1 of 3 observed days, so the month is
        # low-quality there and refills from September's 10.0; the other
        # three pixels keep the daily median 3.0
        assert series.get(MonthIndex(2018, 10)) == pytest.approx((10.0 + 3.0 * 3) / 4)

    def test_daily_file_off_the_grid_is_named(self, tmp_path, capsys):
        config = self.build_dataset(tmp_path)
        off_grid = GridSpec(ncols=2, nrows=1, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        write_grid(RasterGrid(off_grid, [[3.0, 3.0]]), tmp_path / "data" / "VNP46A2" / "2018-10-02.asc")
        expected = "VNP46A2: grid of 2018-10-02.asc does not match 2018-09.asc"
        assert main(["validate", "--config", str(config)]) == 1
        assert expected in capsys.readouterr().out
        assert main(["extract", "--config", str(config)]) == 1
        assert f"failed: {expected}" in capsys.readouterr().err

    def test_daily_quality_word_of_16_bits_or_more_is_one_problem(self, tmp_path, capsys):
        config = self.build_dataset(tmp_path)
        self.write_asc(tmp_path / "data" / "VNP46A2" / "2018-10-02.qf.asc", [[50, 70000], [50, 50]])
        message = "VNP46A2: quality word of 2^16 or more in 2018-10-02.qf.asc"
        assert main(["validate", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if "problem:" in line] == [f"  problem: {message}"]
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "failed:" in line] == [f"  failed: {message}"]

    def test_huge_daily_values_validate(self, tmp_path, capsys):
        config = self.build_dataset(tmp_path)
        for day in ("01", "02", "03"):
            self.write_asc(tmp_path / "data" / "VNP46A2" / f"2018-10-{day}.asc", [[1e308, 1.0], [1.0, 1.0]])
        assert main(["validate", "--config", str(config)]) == 0
        assert "validation ok" in capsys.readouterr().out

    def test_monthly_file_shadows_daily_files(self, tmp_path):
        config = self.build_dataset(tmp_path)
        d = tmp_path / "data" / "VNP46A2"
        self.write_asc(d / "2018-10.asc", [[7.0, 7.0], [7.0, 7.0]])
        self.write_asc(d / "2018-10.qf.asc", [[50, 50], [50, 50]])
        assert main(["extract", "--config", str(config)]) == 0
        series = read_series_csv(tmp_path / "out" / "VNP46A2" / "raw" / "S" / "Z1.csv")
        assert series.get(MonthIndex(2018, 10)) == 7.0


class TestMalformedValues:
    """A malformed config value is one error line naming the file and the key."""

    def assert_one_error(self, err, path, key):
        assert err.startswith(f"error: {path}: {key}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("tunables", {"threshold_hi": 60.0}, "tunables"),
            ("tunables", {}, "tunables"),
            ("months_before", "x", "months_before"),
            ("min_damage", "lots", "min_damage"),
            ("population_band", ["a", "b"], "population_band"),
            ("hurricanes", [{"name": "S", "event_month": 201810}], "hurricanes[0]: event_month"),
            ("case_study_k", "x", "case_study_k"),
            ("months_before", 2.7, "months_before"),
            ("months_after", True, "months_after"),
            ("case_study_k", 2.9, "case_study_k"),
            ("case_study_k", 0, "case_study_k"),
            ("population_band", [50000, 10], "population_band"),
            ("population_band", [0.5, 10], "population_band"),
            ("min_damage", True, "min_damage"),
            ("min_damage", "0.5", "min_damage"),
            ("min_damage", math.nan, "min_damage"),
            ("min_damage", -math.inf, "min_damage"),
            ("hurricanes", [{"name": 7, "event_month": "2018-10"}], "hurricanes[0]: name"),
            ("datasets", [{"kind": "VSC-NTL", "raster_dir": "simv/VSC-NTL", "name": None}], "datasets[0]: name"),
            pytest.param("min_damage", 10**400, "min_damage", id="min_damage-10**400"),
        ],
    )
    def test_run_config_value(self, tmp_path, capsys, key, value, named):
        config = write_json(tmp_path / "run.json", {**run_config_doc(), key: value})
        for command in ("validate", "extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            self.assert_one_error(capsys.readouterr().err, config, named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("seed", "x", "seed"),
            ("months_before", "x", "months_before"),
            ("months_before", -1, "months_before"),
            ("drop_gain", "x", "drop_gain"),
            ("noise", {"gaussian_sigma": "x"}, "noise: gaussian_sigma"),
            ("event_month", 201810, "event_month"),
            ("zones", [{"zone_id": "A", "damage_ratio": 0.1, "rect": [0, 0, 4]}], "zones[0]: rect"),
            ("noise", {"built_fraction": "nowhere.asc"}, "noise: built_fraction"),
            ("seed", 1.5, "seed"),
            ("seed", True, "seed"),
            ("grid", {**VSC_SCENE["grid"], "ncols": 12.5}, "grid: ncols"),
            ("zones", {**VSC_SCENE["zones"], "nx": 3.5}, "zones: nx"),
            ("zones", {"nx": 0, "ny": 2, "damage_ratios": []}, "zones: nx"),
            ("zones", {**VSC_SCENE["zones"], "populations": [1.5] * 6}, "zones: populations[0]"),
            (
                "zones",
                [{"zone_id": "A", "damage_ratio": 0.1, "rect": [0, 0, 4, 4], "population": 2.5}],
                "zones[0]: population",
            ),
            ("grid", {**VSC_SCENE["grid"], "cell_size": "1.0"}, "grid: cell_size"),
            ("noise", {"bloom_rate": True}, "noise: bloom_rate"),
            ("noise", {"cloud_rate": [0.1, "0.2"]}, "noise: cloud_rate[1]"),
            ("drop_gain", True, "drop_gain"),
            ("zones", [{"zone_id": None, "damage_ratio": 0.1, "rect": [0, 0, 4, 4]}], "zones[0]: zone_id"),
            ("zones", [{"zone_id": 7, "damage_ratio": 0.1, "rect": [0, 0, 4, 4]}], "zones[0]: zone_id"),
            ("drop_gain", math.nan, "drop_gain"),
            ("base_radiance", math.inf, "base_radiance"),
            ("base_radiance", [18.0, -math.inf, 26.0, 30.0, 34.0, 38.0], "base_radiance[1]"),
            ("noise", {"corruption_scale": math.inf, "cloud_rate": 0.2}, "noise: corruption_scale"),
            ("noise", {"gaussian_sigma": math.nan}, "noise: gaussian_sigma"),
            ("zones", [{"zone_id": "A", "damage_ratio": math.nan, "rect": [0, 0, 4, 4]}], "zones[0]: damage_ratio"),
            ("zones", [{"zone_id": "A", "damage_ratio": 0.1, "rect": [0, 0, math.inf, 4]}], "zones[0]: rect"),
            ("zones", {**VSC_SCENE["zones"], "damage_ratios": ["0.05", *TILE_DAMAGE[1:]]}, "zones: damage_ratios[0]"),
            ("zones", {**VSC_SCENE["zones"], "damage_ratios": [0.0, True, *TILE_DAMAGE[2:]]}, "zones: damage_ratios[1]"),
            ("zones", [{**ZONE_A, "rings": [[[0, 0], [4, "0"], [4, 4]]]}], "zones[0]: rings[0][1][1]"),
            ("zones", [{**ZONE_A, "rings": [[[0, 0], [4, 0], [True, 4]]]}], "zones[0]: rings[0][2][0]"),
            ("zones", [{**ZONE_A, "rings": [[0, 0, 4, 4]]}], "zones[0]: rings[0][0]"),
            ("zones", [{**ZONE_A, "rect": 5}], "zones[0]: rect"),
            ("zones", [{**ZONE_A, "rect": [0, 0, 4, 4, 5]}], "zones[0]: rect"),
            ("zones", [{**ZONE_A, "rect": "abcd"}], "zones[0]: rect"),
            ("zones", [{**ZONE_A, "rect": {"x0": 0}}], "zones[0]: rect"),
            pytest.param("grid", {**VSC_SCENE["grid"], "x_origin": 10**400}, "grid: x_origin", id="x_origin-10**400"),
            # past the scene cell cap: a width that overflows a float, and a grid too large to allocate
            pytest.param("grid", {**VSC_SCENE["grid"], "ncols": 10**400}, "grid", id="ncols-10**400"),
            pytest.param("grid", {**VSC_SCENE["grid"], "ncols": 10**5, "nrows": 10**5}, "grid", id="10**10-cells"),
            # within the cap, but its far corner is past the float range
            pytest.param(
                "grid", {**VSC_SCENE["grid"], "ncols": 5000, "nrows": 2, "cell_size": 1e308}, "grid", id="extent"
            ),
        ],
    )
    def test_scene_spec_value_writes_nothing(self, tmp_path, capsys, key, value, named):
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, key: value})
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        self.assert_one_error(capsys.readouterr().err, scene, named)
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("population_band", 5, "population_band: must be an array of two integers, got 5"),
            ("population_band", [1, 2, 3], "population_band: must be an array of two integers, got [1, 2, 3]"),
            ("hurricanes", {"name": "S"}, "hurricanes: must be an array, got {'name': 'S'}"),
        ],
    )
    def test_run_config_array_of_the_wrong_kind(self, tmp_path, capsys, key, value, message):
        config = write_json(tmp_path / "run.json", {**run_config_doc(), key: value})
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    @pytest.mark.parametrize(
        "zones, message",
        [
            ({**VSC_SCENE["zones"], "damage_ratios": 0.5}, "zones: damage_ratios: must be an array, got 0.5"),
            (
                [{**ZONE_A, "rect": [0, 0, 4, 4], "rings": [[[0, 0], [4, 0], [4, 4]]]}],
                "zones[0]: give rect or rings, not both",
            ),
            ([ZONE_A], "zones[0]: missing required key 'rings'"),
            ([{**ZONE_A, "rect": 5}], "zones[0]: rect: must be an array of four numbers, got 5"),
            ([{**ZONE_A, "rect": [0, 0, 4]}], "zones[0]: rect: must be an array of four numbers, got [0, 0, 4]"),
            (
                [{**ZONE_A, "rect": [0, 0, 4, 4, 5]}],
                "zones[0]: rect: must be an array of four numbers, got [0, 0, 4, 4, 5]",
            ),
            ([{**ZONE_A, "rect": "abcd"}], "zones[0]: rect: must be an array of four numbers, got 'abcd'"),
            ([{**ZONE_A, "rect": [0, 0, "4", 4]}], "zones[0]: rect: must be a number, got '4'"),
        ],
    )
    def test_scene_zones_of_the_wrong_shape(self, tmp_path, capsys, zones, message):
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, "zones": zones})
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err == f"error: {scene}: {message}\n"
        assert not (tmp_path / "sim").exists()

    def test_tunables_key_names_the_fixed_values(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", {**run_config_doc(), "tunables": {"threshold_hi": 60.0}})
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: tunables: pre-processing settings are fixed (threshold [0.0, 50.0], "
            "built fraction >= 0.5, imputation window 12 months); remove this key\n"
        )

    def test_built_fraction_map_off_the_scene_grid_writes_nothing(self, tmp_path, capsys):
        off_grid = GridSpec(ncols=4, nrows=4, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        write_grid(RasterGrid(off_grid, [[1.0] * 4] * 4), tmp_path / "built.asc")
        doc = dict(VSC_SCENE, noise={"built_fraction": "built.asc"})
        scene = write_json(tmp_path / "scene.json", doc)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        assert "built_fraction_map grid" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


class TestSceneCellCap:
    @pytest.mark.parametrize("ncols, refused", [(SCENE_MAX_CELLS // 4096, False), (SCENE_MAX_CELLS // 4096 + 1, True)])
    def test_cap_is_inclusive(self, tmp_path, ncols, refused):
        grid = {**VSC_SCENE["grid"], "ncols": ncols, "nrows": 4096}
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, "grid": grid})
        if refused:
            with pytest.raises(ConfigError, match=f"grid: 4096 rows of {ncols} cells are more than a scene's 33554432"):
                parse_scene_spec(scene)
        else:
            assert parse_scene_spec(scene).grid.size == SCENE_MAX_CELLS


class TestUnreadableZonesFile:
    def test_missing_zones_file_is_an_error(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path, zones="nowhere.geojson")
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert "nowhere.geojson" in capsys.readouterr().out
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert f"error: cannot read zones file {tmp_path / 'nowhere.geojson'}" in capsys.readouterr().err

    def test_invalid_zones_json_is_an_error(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        (tmp_path / "simv" / "zones.geojson").write_text("{not json")
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert f"  problem: {tmp_path / 'simv' / 'zones.geojson'}: invalid JSON" in capsys.readouterr().out
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert f"error: {tmp_path / 'simv' / 'zones.geojson'}: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_malformed_feature_value_is_a_problem(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        path = tmp_path / "simv" / "zones.geojson"
        original = path.read_text()
        ratio, position = ("properties", "damage_ratio"), ("geometry", "coordinates", 0, 1)  # a ring position
        for keys, value, message in [
            (ratio, "x", "feature 'Z01': damage_ratio must be a number, got 'x'"),
            (ratio, 10**400, f"feature 'Z01': damage_ratio must be a finite number, got {10**400}"),
            (position, ["1", 0], "feature 'Z01', part 0, ring 0: coordinate must be a number, got '1'"),
            (position, [True, 0], "feature 'Z01', part 0, ring 0: coordinate must be a number, got True"),
        ]:
            doc = json.loads(original)
            target = doc["features"][0]
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["validate", "--config", str(config)]) == 1
            assert f"  problem: {path}: {message}\n" in capsys.readouterr().out
            for command in ("extract", "report"):
                assert main([command, "--config", str(config)]) == 1
                assert capsys.readouterr().err == f"error: {path}: {message}\n"
            assert not (tmp_path / "out").exists()


    def test_zones_file_without_features_is_an_error(self, tmp_path, capsys, monkeypatch):
        config = simulated_vsc_run(tmp_path)
        path = tmp_path / "simv" / "zones.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert f"  problem: {path}: the zones file has no features\n" in capsys.readouterr().out
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: loaded.append(args))
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {path}: the zones file has no features\n"
        assert loaded == []
        assert not (tmp_path / "out").exists()


class TestUnknownRunKeys:
    """A key run.json does not read is refused at every level, naming the closest key it does read."""

    @pytest.mark.parametrize(
        "edit, path, hint",
        [
            (lambda doc: doc.update(min_damge=0.5), "min_damge", "did you mean 'min_damage'?"),
            (lambda doc: doc["datasets"][1].update(raster_dri="x"), "datasets[1]: raster_dri", "did you mean 'raster_dir'?"),
            (
                lambda doc: doc["datasets"][0].update(grid={**VSC_SCENE["grid"], "ncol": 12}),
                "datasets[0]: grid: ncol",
                "did you mean 'ncols'?",
            ),
            (
                lambda doc: doc["hurricanes"][0].update(event_mont="2018-10"),
                "hurricanes[0]: event_mont",
                "did you mean 'event_month'?",
            ),
            (
                lambda doc: doc.update(zzz=1),
                "zzz",
                "expected one of datasets, zones, hurricanes, configs, output_dir, min_damage, case_study_k, "
                "months_before, months_after, population_band, tunables, jobs",
            ),
        ],
    )
    def test_refused_by_every_command(self, tmp_path, capsys, edit, path, hint):
        doc = run_config_doc()
        edit(doc)
        config = write_json(tmp_path / "run.json", doc)
        for command in ("validate", "extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {config}: {path}: unknown key; {hint}\n"
        assert not (tmp_path / "out").exists()


class TestUnknownSceneKeys:
    """A key scene.json does not read is refused at every level, naming the closest key it does read."""

    @pytest.mark.parametrize(
        "edit, path, hint",
        [
            (lambda doc: doc.update(months_befor=3), "months_befor", "did you mean 'months_before'?"),
            (lambda doc: doc["grid"].update(cellsize=1.0), "grid: cellsize", "did you mean 'cell_size'?"),
            (lambda doc: doc["zones"].update(population=[1] * 6), "zones: population", "did you mean 'populations'?"),
            (
                lambda doc: doc.update(zones=[{**ZONE_A, "rect": [0, 0, 4, 4], "zoneid": "B"}]),
                "zones[0]: zoneid",
                "did you mean 'zone_id'?",
            ),
            (lambda doc: doc["noise"].update(gausian_sigma=0.5), "noise: gausian_sigma", "did you mean 'gaussian_sigma'?"),
        ],
    )
    def test_simulate_writes_nothing(self, tmp_path, capsys, edit, path, hint):
        doc = json.loads(json.dumps(VSC_SCENE))
        edit(doc)
        scene = write_json(tmp_path / "scene.json", doc)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err == f"error: {scene}: {path}: unknown key; {hint}\n"
        assert not (tmp_path / "sim").exists()


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/run.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert main(["validate", "--config", str(config)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_no_datasets_rejected(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "run.json",
            {"zones": "z.geojson", "hurricanes": [{"name": "S", "event_month": "2018-10"}]},
        )
        assert main(["validate", "--config", str(config)]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_unknown_dataset_kind_rejected(self, tmp_path, capsys):
        doc = run_config_doc()
        doc["datasets"][0]["kind"] = "DMSP-OLS"
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert "DMSP-OLS" in capsys.readouterr().err

    def test_duplicate_dataset_kind_rejected(self, tmp_path, capsys):
        doc = run_config_doc()
        doc["datasets"][1]["kind"] = "VSC-NTL"
        doc["datasets"][1]["name"] = "other"
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_unknown_config_label_rejected(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        main(["simulate", "--config", str(scene), "--out", str(tmp_path / "simv")])
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][0]]
        doc["configs"] = ["raw", "sparkle"]
        config = write_json(tmp_path / "run.json", doc)
        capsys.readouterr()
        # labels resolve at parse time, so every command refuses them alike
        for command in ("validate", "extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {config}: configs: unknown method 'sparkle'")
        assert not (tmp_path / "out").exists()

    def test_threshold_label_for_vnp46a2_rejected(self, tmp_path, capsys):
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][1]]
        doc["configs"] = ["clip"]
        config = write_json(tmp_path / "run.json", doc)
        assert main(["validate", "--config", str(config)]) == 1
        assert capsys.readouterr().err.endswith(
            "label 'clip' names no VNP46A2 method combination; valid labels: raw, built, quality, built+quality\n"
        )

    def test_report_without_extraction_names_missing_files(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        main(["simulate", "--config", str(scene), "--out", str(tmp_path / "simv")])
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][0]]
        config = write_json(tmp_path / "run.json", doc)
        assert main(["report", "--config", str(config)]) == 1
        assert "missing extraction outputs" in capsys.readouterr().err


class TestLoadRange:
    def test_spans_every_window_plus_the_imputation_lead_in(self, tmp_path):
        doc = {
            **run_config_doc(),
            "hurricanes": [{"name": "Late", "event_month": "2018-10"}, {"name": "Early", "event_month": "2017-09"}],
            "months_before": 3,
            "months_after": 2,
        }
        run = parse_run_config(write_json(tmp_path / "run.json", doc))
        assert [(h.window.start, h.window.end) for h in run.hurricanes] == [
            (MonthIndex(2018, 7), MonthIndex(2018, 12)),
            (MonthIndex(2017, 6), MonthIndex(2017, 11)),
        ]
        assert run.load_range == (MonthIndex(2017, 6) - IMPUTATION_WINDOW_MONTHS, MonthIndex(2018, 12))
        assert run.load_range[0] == MonthIndex(2016, 6)
