"""Tests for the dataset-directory layout: the simulate writer and the loader."""

import pytest

from ntlpipe import (
    ConfigError,
    Dataset,
    EventWindow,
    GridSpec,
    MonthIndex,
    NoiseSpec,
    SceneSpec,
    generate_scene,
    tile_zones,
    write_grid,
)
from ntlpipe.layout import DatasetConfig, dataset_files, load_dataset, scan_dataset_dir

GRID = GridSpec(ncols=6, nrows=5, x_origin=10.0, y_origin=-3.0, cell_size=0.5)
WINDOW = EventWindow(MonthIndex(2018, 10), 3, 2)


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
    for path, grid in dataset_files(directory, scene.radiance, scene.quality, scene.built_fraction):
        write_grid(grid, path)
    return scene, DatasetConfig(kind.value, kind, directory, directory)


@pytest.mark.parametrize("kind", list(Dataset))
def test_written_scene_loads_back_exactly(tmp_path, kind):
    scene, dataset = written_scene(tmp_path, kind)
    radiance, quality, built = load_dataset(dataset, WINDOW.start, WINDOW.end, need_quality=True)
    assert radiance.months == scene.radiance.months
    assert radiance.grids == scene.radiance.grids
    assert quality.months == scene.quality.months
    assert quality.grids == scene.quality.grids
    assert built == scene.built_fraction


def test_malformed_grid_is_named(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    (tmp_path / "2018-09.qf.asc").write_text("ncols 6\n")
    with pytest.raises(ConfigError, match=r"unreadable grid 2018-09\.qf\.asc: "):
        load_dataset(dataset, WINDOW.start, WINDOW.end, need_quality=True)


def test_names_outside_the_layout_are_ignored(tmp_path):
    _, dataset = written_scene(tmp_path, Dataset.VSC_NTL)
    for name in ("2018-13.asc", "2018-00.qf.asc", "2018-9.asc", "notes.txt"):
        (tmp_path / name).write_text("not a grid\n")
    radiance, quality = scan_dataset_dir(dataset)
    assert sorted(radiance) == list(WINDOW.months()) == sorted(quality)
