"""Readers of the run config (``run.json``) and the scene spec (``scene.json``).

``parse_run_config`` and ``parse_scene_spec`` read a whole file before any
data; a malformed value is one ConfigError ``<file>: <key>: <reason>``.
Relative paths inside a config resolve against the config file's
directory.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, PipelineError
from .grid import GridSpec, as_float, read_grid
from .layout import DatasetConfig
from .preprocess import (
    BUILT_FRACTION_MIN,
    IMPUTATION_WINDOW_MONTHS,
    THRESHOLD_HI,
    THRESHOLD_LO,
    config_from_label,
    enumerate_configs,
)
from .quality import Dataset
from .stack import MonthIndex
from .synthetic import NoiseSpec, SceneSpec, tile_zones
from .timeseries import EventWindow
from .zones import Zone, _is_path_component, rect_ring

__all__ = ["Hurricane", "RunConfig", "parse_run_config", "parse_scene_spec"]


@dataclass(frozen=True)
class Hurricane:
    name: str
    window: EventWindow


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration (see README for the JSON schema).

    ``datasets`` pairs each DatasetConfig with the PipelineConfigs the run
    asks of it. ``load_range`` is the (lo, hi) month range every command
    loads: all event windows plus the imputation lead-in.
    """

    datasets: tuple
    zones_path: Path
    hurricanes: tuple
    output_dir: Path
    load_range: tuple
    min_damage: float
    case_study_k: int
    population_band: tuple


_REQUIRED = object()


class _ItemError(ConfigError):
    """A ConfigError about one array item; it reads ``[i]: ...``."""


def _require(doc, key, convert=None, default=_REQUIRED):
    """Read ``doc[key]`` through ``convert``: the one reader of config values.

    ``doc`` is a JSON object read by name, or a JSON array read by index.
    An absent name gives ``default``, or is an error when there is none. A
    value that ``convert`` rejects with TypeError, ValueError, LookupError,
    OSError or a PipelineError is an error too. Each error is a ConfigError
    ``<key>: <reason>``. Nested values are read inside ``convert``, so each
    level adds its key and the message names the whole path to the value,
    such as ``datasets[0]: kind: ...``; the parser adds the file name.
    """
    by_index = isinstance(key, int)
    if not isinstance(doc, list if by_index else dict):
        expected = "an array" if by_index else "an object"
        raise ConfigError(f"expected {expected}, got {type(doc).__name__}")
    if not by_index and key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return doc[key] if convert is None else convert(doc[key])
    except (TypeError, ValueError, LookupError, OSError, PipelineError) as exc:
        # an item's error joins its array's key directly: "datasets" + "[0]: ..."
        separator = "" if isinstance(exc, _ItemError) else ": "
        if by_index:
            raise _ItemError(f"[{key}]{separator}{exc}") from None
        raise ConfigError(f"{key}{separator}{exc}") from None


def _closed(doc, keys):
    """Refuse the first key of the JSON object ``doc`` not in ``keys``, naming the closest known key.

    A ``doc`` that is not an object is left to _require, which says so.
    """
    unknown = [key for key in doc if key not in keys] if isinstance(doc, dict) else []
    if unknown:
        import difflib  # only an error needs it; every command parses a config

        close = difflib.get_close_matches(unknown[0], keys, n=1)
        hint = f"did you mean {close[0]!r}?" if close else f"expected one of {', '.join(keys)}"
        raise ConfigError(f"{unknown[0]}: unknown key; {hint}")


def _each(convert):
    """Converter for a JSON array: ``convert`` on every item, as a tuple."""
    return lambda items: tuple(_require(items, i, convert) for i in range(len(items)))


def _integer(minimum=None):
    """Converter for an integer >= minimum; a bool, a string or a fraction is refused, not truncated."""

    def convert(value):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        return value

    return convert


def _number(value):
    """Converter for a finite number; a bool, a string, NaN or an infinity is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _string(value):
    """Converter for a string; any other value is refused, not converted."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _numbers(value):
    """Converter for a number or a list of numbers."""
    return _each(_number)(value) if isinstance(value, list) else _number(value)


def _dataset_kind(text):
    names = [d.value for d in Dataset]
    if text not in names:
        raise ValueError(f"unknown dataset kind {text!r} (expected one of {names})")
    return Dataset(text)


def _grid_spec_from_json(obj):
    return GridSpec(
        ncols=_require(obj, "ncols", _integer()),
        nrows=_require(obj, "nrows", _integer()),
        x_origin=_require(obj, "x_origin", _number),
        y_origin=_require(obj, "y_origin", _number),
        cell_size=_require(obj, "cell_size", _number),
    )


def _event_window(doc):
    """Converter for an event month into its EventWindow, sized by doc."""
    before = _require(doc, "months_before", _integer(0), 12)
    after = _require(doc, "months_after", _integer(0), 12)
    return lambda text: EventWindow(MonthIndex.parse(text), before, after)


def _parse_json(path, parse):
    """``parse(doc, directory)`` for the JSON file at path; errors name the file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        return parse(doc, path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_names(names, where):
    """Names that become output path components: unique, one component each."""
    if len(set(names)) != len(names):
        raise ConfigError(f"{where} contain duplicates: {names}")
    for name in names:
        if not _is_path_component(name):
            raise ConfigError(f"{where}: {name!r} is not a single path component")


def _configs(kind, labels):
    """The PipelineConfigs a run asks of one dataset kind, in order."""
    if labels == "all":
        return enumerate_configs(kind)
    if not isinstance(labels, list) or not labels:
        raise ValueError("must be 'all' or a non-empty list of labels")
    configs = tuple(config_from_label(kind, str(label)) for label in labels)
    if len({config.label for config in configs}) != len(configs):
        raise ValueError(f"{labels} names one combination twice")
    return configs


_GRID_KEYS = ("ncols", "nrows", "x_origin", "y_origin", "cell_size")
_DATASET_KEYS = ("kind", "raster_dir", "quality_dir", "name", "grid")
_HURRICANE_KEYS = ("name", "event_month")
# "jobs" is read by nothing; it is accepted for run configs that still carry it
_RUN_KEYS = (
    "datasets",
    "zones",
    "hurricanes",
    "configs",
    "output_dir",
    "min_damage",
    "case_study_k",
    "months_before",
    "months_after",
    "population_band",
    "tunables",
    "jobs",
)


def _run_grid(obj):
    _closed(obj, _GRID_KEYS)
    return _grid_spec_from_json(obj)


def _dataset_from_json(entry, root):
    _closed(entry, _DATASET_KEYS)
    kind = _require(entry, "kind", _dataset_kind)
    raster_dir = _require(entry, "raster_dir", root.joinpath)
    return DatasetConfig(
        name=_require(entry, "name", _string, kind.value),
        kind=kind,
        raster_dir=raster_dir,
        quality_dir=_require(entry, "quality_dir", root.joinpath, raster_dir),
        expected_grid=_require(entry, "grid", _run_grid, None),
    )


def _population_band(band):
    low, high = map(_integer(), band)
    if low > high:
        raise ValueError(f"low {low} is above high {high}")
    return low, high


def _run_config(doc, root):
    _closed(doc, _RUN_KEYS)
    datasets = _require(doc, "datasets", _each(lambda entry: _dataset_from_json(entry, root)), ())
    if not datasets:
        raise ConfigError("at least one dataset is required")
    _check_names([d.kind.value for d in datasets], "dataset kinds")
    _check_names([d.name for d in datasets], "dataset names")

    event_window = _event_window(doc)

    def hurricane(entry):
        _closed(entry, _HURRICANE_KEYS)
        return Hurricane(_require(entry, "name", _string), _require(entry, "event_month", event_window))

    hurricanes = _require(doc, "hurricanes", _each(hurricane), ())
    if not hurricanes:
        raise ConfigError("at least one hurricane is required")
    _check_names([h.name for h in hurricanes], "hurricane names")

    if "tunables" in doc:
        # refused, not ignored: dropping it would change the results of a run that relied on it
        raise ConfigError(
            f"tunables: pre-processing settings are fixed (threshold [{THRESHOLD_LO}, {THRESHOLD_HI}], "
            f"built fraction >= {BUILT_FRACTION_MIN}, imputation window {IMPUTATION_WINDOW_MONTHS} months); "
            "remove this key"
        )

    def with_configs(labels):
        return tuple((d, _configs(d.kind, labels)) for d in datasets)

    return RunConfig(
        datasets=_require(doc, "configs", with_configs, with_configs("all")),
        zones_path=_require(doc, "zones", root.joinpath),
        hurricanes=hurricanes,
        output_dir=_require(doc, "output_dir", root.joinpath, root / "out"),
        load_range=(
            min(h.window.start for h in hurricanes) - IMPUTATION_WINDOW_MONTHS,
            max(h.window.end for h in hurricanes),
        ),
        min_damage=_require(doc, "min_damage", _number, 0.01),
        case_study_k=_require(doc, "case_study_k", _integer(1), 3),
        population_band=_require(doc, "population_band", _population_band, (None, None)),
    )


def parse_run_config(path):
    """Parse a run config JSON file, resolving configs, windows and load range."""
    return _parse_json(path, _run_config)


def _zone_from_json(obj):
    rect = _require(obj, "rect", lambda rect: rect_ring(*map(_number, rect)), None)
    return Zone(
        zone_id=_require(obj, "zone_id", _string),
        rings=(rect,) if rect is not None else _require(obj, "rings"),
        damage_ratio=_require(obj, "damage_ratio", _number),
        population=_require(obj, "population", _integer(), 0),
    )


def _scene_zones(zones, grid):
    """Converter for a scene's zones: an nx by ny tiling, or a list of zones."""
    if not isinstance(zones, dict):
        return _each(_zone_from_json)(zones)
    return tile_zones(
        grid,
        _require(zones, "nx", _integer()),
        _require(zones, "ny", _integer()),
        _require(zones, "damage_ratios"),
        _require(zones, "populations", _each(_integer()), None),
    )


def _noise_from_json(obj, root):
    return NoiseSpec(
        gaussian_sigma=_require(obj, "gaussian_sigma", _number, 0.0),
        cloud_rate=_require(obj, "cloud_rate", _numbers, 0.0),
        corruption_scale=_require(obj, "corruption_scale", _number, 0.0),
        bloom_rate=_require(obj, "bloom_rate", _number, 0.0),
        bloom_lo=_require(obj, "bloom_lo", _number, 60.0),
        bloom_hi=_require(obj, "bloom_hi", _number, 500.0),
        built_fraction_map=_require(obj, "built_fraction", lambda p: as_float(read_grid(root / p)), None),
    )


def _scene_spec(doc, root):
    grid = _require(doc, "grid", _grid_spec_from_json)
    return SceneSpec(
        seed=_require(doc, "seed", _integer(0)),
        grid=grid,
        zones=_require(doc, "zones", lambda zones: _scene_zones(zones, grid)),
        months=_require(doc, "event_month", _event_window(doc)),
        base_radiance=_require(doc, "base_radiance", _numbers),
        dataset=_require(doc, "dataset", _dataset_kind, Dataset.VSC_NTL),
        drop_gain=_require(doc, "drop_gain", _number, 1.0),
        noise=_require(doc, "noise", lambda noise: _noise_from_json(noise, root), NoiseSpec()),
    )


def parse_scene_spec(path):
    """Parse a scene spec JSON file into a SceneSpec."""
    return _parse_json(path, _scene_spec)
