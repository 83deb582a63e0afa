"""End-to-end tests for the command line: simulate, validate, extract, report."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from ntlpipe import (
    Dataset,
    GridSpec,
    IntRaster,
    MonthIndex,
    RasterGrid,
    enumerate_configs,
    percent_change,
    read_grid,
    read_series_csv,
    write_grid,
)
from ntlpipe import cli, preprocess
from ntlpipe.cli import main

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
        problem = f"no radiance file in the {months_before} baseline months before event month 2018-10"
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

        def counting(stack, quality_stack, dataset, window=12):
            calls.append(dataset)
            return original(stack, quality_stack, dataset, window)

        monkeypatch.setattr(preprocess, "quality_filter_and_impute", counting)
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


class TestCaseStudy:
    def test_changes_equal_the_scalar_percent_change(self, tmp_path):
        config = simulated_vsc_run(tmp_path)
        assert main(["extract", "--config", str(config)]) == 0
        # a series file that starts late and ends early: the window months outside it have no change
        path = tmp_path / "out" / "VSC-NTL" / "clip+quality" / "TestStorm" / "Z01.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + lines[4:-2]))
        assert main(["report", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "case_study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 6 * 25
        for row in rows:
            path = tmp_path / "out" / row["dataset"] / row["methods"] / row["hurricane"] / f"{row['zone_id']}.csv"
            change = percent_change(read_series_csv(path), MonthIndex(int(row["year"]), int(row["month"])))
            assert row["percent_change"] == ("" if math.isnan(change) else repr(change))


class TestExtractFailures:
    def test_missing_built_grid_fails_only_the_built_configs(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        (tmp_path / "simv" / "VSC-NTL" / "built_fraction.asc").unlink()
        assert main(["extract", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        for pipeline in enumerate_configs(Dataset.VSC_NTL):
            written = sorted(
                p.name for p in (tmp_path / "out" / "VSC-NTL" / pipeline.label).rglob("*.csv")
            )
            if pipeline.built_mask:
                assert written == []
                assert f"VSC-NTL/{pipeline.label}: built masking" in err
            else:
                assert written == [f"Z0{i}.csv" for i in range(1, 7)]


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


class TestReportUnreadableSeries:
    @pytest.mark.parametrize(
        "content, detail",
        [
            ("", "empty series file"),
            ("zone_id,year,month,mean_radiance,percent_change\n", "empty series file"),
            ("zone,year,month\nZ01,2018,1\n", "missing column 'zone_id'"),
            ("zone_id,year,month,mean_radiance,percent_change\nZ03,2018\n", "line 2: short row"),
            (
                "zone_id,year,month,mean_radiance,percent_change\nZ03,2018,1,bright,\n",
                "line 2: could not convert string to float: 'bright'",
            ),
            pytest.param(
                f"zone_id,year,month,mean_radiance,percent_change\nZ03,2018,1,{'1' * 131_073},\n",
                "line 2: field larger than field limit (131072)",
                id="field-over-the-csv-limit",
            ),
        ],
    )
    def test_unparsable_csv_is_an_error_naming_the_file(self, tmp_path, capsys, content, detail):
        config = simulated_vsc_run(tmp_path, configs=["raw"])
        assert main(["extract", "--config", str(config)]) == 0
        path = tmp_path / "out" / "VSC-NTL" / "raw" / "TestStorm" / "Z03.csv"
        path.write_text(content)
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 1
        assert f"error: {path}: {detail}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "case_study.csv").exists()


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
        assert sorted(read) == series_files


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
            ("12.5", "reserved background code 6 (raw value 12)"),
            ("2098", "reserved bits 11-15 are set (raw value 2098)"),
        ],
    )
    def test_reserved_quality_word(self, tmp_path, capsys, word, detail):
        config = self.build_run(tmp_path, "VNP46A2")
        (tmp_path / "data" / "2018-09.qf.asc").write_text(self.HEADER + f"50 50 {word} 30000\n")
        # the smallest reserved word of the file is named
        self.assert_one_line_failure(config, f"VNP46A2: {detail} in 2018-09.qf.asc", capsys)

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
            ("tunables", {"sparkle_gain": 2.0}, "tunables"),
            ("tunables", {"imputation_window_months": "x"}, "tunables: imputation_window_months"),
            ("tunables", {"threshold_lo": "a"}, "tunables: threshold_lo"),
            ("months_before", "x", "months_before"),
            ("min_damage", "lots", "min_damage"),
            ("population_band", ["a", "b"], "population_band"),
            ("hurricanes", [{"name": "S", "event_month": 201810}], "hurricanes[0]: event_month"),
            ("case_study_k", "x", "case_study_k"),
            ("months_before", 2.7, "months_before"),
            ("months_after", True, "months_after"),
            ("tunables", {"imputation_window_months": 3.5}, "tunables: imputation_window_months"),
            ("case_study_k", 2.9, "case_study_k"),
            ("case_study_k", 0, "case_study_k"),
            ("population_band", [50000, 10], "population_band"),
            ("population_band", [0.5, 10], "population_band"),
            ("min_damage", True, "min_damage"),
            ("min_damage", "0.5", "min_damage"),
            ("tunables", {"threshold_hi": True}, "tunables: threshold_hi"),
            ("hurricanes", [{"name": 7, "event_month": "2018-10"}], "hurricanes[0]: name"),
            ("datasets", [{"kind": "VSC-NTL", "raster_dir": "simv/VSC-NTL", "name": None}], "datasets[0]: name"),
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
        ],
    )
    def test_scene_spec_value_writes_nothing(self, tmp_path, capsys, key, value, named):
        scene = write_json(tmp_path / "scene.json", {**VSC_SCENE, key: value})
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        self.assert_one_error(capsys.readouterr().err, scene, named)
        assert not (tmp_path / "sim").exists()

    def test_built_fraction_map_off_the_scene_grid_writes_nothing(self, tmp_path, capsys):
        off_grid = GridSpec(ncols=4, nrows=4, x_origin=0.0, y_origin=0.0, cell_size=1.0)
        write_grid(RasterGrid(off_grid, [[1.0] * 4] * 4), tmp_path / "built.asc")
        doc = dict(VSC_SCENE, noise={"built_fraction": "built.asc"})
        scene = write_json(tmp_path / "scene.json", doc)
        assert main(["simulate", "--config", str(scene), "--out", str(tmp_path / "sim")]) == 1
        assert "built_fraction_map grid" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


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
        assert "zones file invalid" in capsys.readouterr().out
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert "zones.geojson: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_malformed_feature_value_is_a_problem(self, tmp_path, capsys):
        config = simulated_vsc_run(tmp_path)
        path = tmp_path / "simv" / "zones.geojson"
        doc = json.loads(path.read_text())
        doc["features"][0]["properties"]["damage_ratio"] = "x"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        message = "feature 'Z01': damage_ratio must be a number, got 'x'"
        assert f"  problem: zones file invalid: {message}" in capsys.readouterr().out
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


    def test_zones_file_without_features_is_an_error(self, tmp_path, capsys, monkeypatch):
        config = simulated_vsc_run(tmp_path)
        path = tmp_path / "simv" / "zones.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        capsys.readouterr()
        assert main(["validate", "--config", str(config)]) == 1
        assert f"  problem: zones file has no features: {path}" in capsys.readouterr().out
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: loaded.append(args))
        for command in ("extract", "report"):
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: zones file has no features: {path}\n"
        assert loaded == []
        assert not (tmp_path / "out").exists()


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
        assert "threshold" in capsys.readouterr().err

    def test_report_without_extraction_names_missing_files(self, tmp_path, capsys):
        scene = write_json(tmp_path / "scene.json", VSC_SCENE)
        main(["simulate", "--config", str(scene), "--out", str(tmp_path / "simv")])
        doc = run_config_doc()
        doc["datasets"] = [doc["datasets"][0]]
        config = write_json(tmp_path / "run.json", doc)
        assert main(["report", "--config", str(config)]) == 1
        assert "missing extraction outputs" in capsys.readouterr().err
