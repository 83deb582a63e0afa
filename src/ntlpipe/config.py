"""Readers of the run config (``run.json``) and the scene spec (``scene.json``).

``parse_run_config`` and ``parse_scene_spec`` read a whole file before any
data; a malformed value is one ConfigError ``<file>: <key>: <reason>``.
Each JSON object is read through one key table: every key it may hold,
with its converter, default and doc, from which README's key tables are
rendered. Relative paths resolve against the config file's directory.
"""

import json
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

from .analysis import MIN_DAMAGE
from .errors import ConfigError, PipelineError
from .grid import GridSpec, read_grid
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
from .zones import Zone, _integer, _is_path_component, _number, _string, rect_ring

__all__ = ["SCENE_MAX_CELLS", "Hurricane", "RunConfig", "parse_run_config", "parse_scene_spec"]


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
    ``population_band`` is (lo, hi), or None when the run sets no band.
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
_ROOT = ContextVar("_ROOT")  # the directory of the config file _parse_json is parsing, set for that parse only


class _Same(str):
    """A default that is the named key's value in the same object, as written there."""


class _ItemError(ConfigError):
    """A ConfigError about one array item; it reads ``[i]: ...``."""


def _require(doc, key, convert):
    """Read ``doc[key]`` through ``convert``: the one reader of config values.

    ``doc`` is a JSON object read by name, where an absent name is an
    error, or a JSON array read by index. A value that ``convert`` rejects
    with TypeError, ValueError, LookupError, OSError or a PipelineError is
    an error too. Each error is a ConfigError ``<key>: <reason>``. Nested
    values are read inside ``convert``, so each level adds its key and the
    message names the whole path to the value, such as ``datasets[0]:
    kind: ...``; the parser adds the file name.
    """
    by_index = isinstance(key, int)
    if not by_index and key not in doc:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return doc[key] if convert is None else convert(doc[key])
    except (TypeError, ValueError, LookupError, OSError, PipelineError) as exc:
        # an item's error joins its array's key directly: "datasets" + "[0]: ..."
        separator = "" if isinstance(exc, _ItemError) else ": "
        if by_index:
            raise _ItemError(f"[{key}]{separator}{exc}") from None
        raise ConfigError(f"{key}{separator}{exc}") from None


def _read(doc, table):
    """{key: value} for every key of ``table``, which maps each to (converter, default, doc).

    A key of the JSON object ``doc`` is read by _require. An absent key is
    its default, as JSON, through the converter: a _Same default is the
    named key's value, None stays None, and _REQUIRED is an error. A key
    not in ``table`` is refused, naming the closest one that is.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in table]
    if unknown:
        import difflib  # only an error needs it; every command parses a config

        close = difflib.get_close_matches(unknown[0], table, n=1)
        hint = f"did you mean {close[0]!r}?" if close else f"expected one of {', '.join(table)}"
        raise ConfigError(f"{unknown[0]}: unknown key; {hint}")
    got = dict.fromkeys(table)  # an absent key whose default is None stays None
    for key, (convert, default, _) in table.items():
        if key in doc or default is _REQUIRED:
            got[key] = _require(doc, key, convert)
        elif default is not None:
            got[key] = convert(doc[default] if isinstance(default, _Same) else default)
    return got


def _object(table, build):
    """Converter for a JSON object: ``build`` called with its keys, read through ``table``."""
    return lambda value: build(**_read(value, table))


def _each(convert):
    """Converter for a JSON array: ``convert`` on every item, as a tuple."""

    def convert_items(items):
        if not isinstance(items, list):
            raise ValueError(f"must be an array, got {items!r}")
        return tuple(_require(items, i, convert) for i in range(len(items)))

    return convert_items


def _numbers(value):
    """Converter for a number or a list of numbers."""
    return _each(_number)(value) if isinstance(value, list) else _number(value)


def _path(value):
    """Converter for a path string, resolved against the directory of the config file."""
    return _ROOT.get() / _string(value)


def _dataset_kind(text):
    names = [d.value for d in Dataset]
    if text not in names:
        raise ValueError(f"unknown dataset kind {text!r} (expected one of {names})")
    return Dataset(text)


def _labels(value):
    if value != "all" and not (isinstance(value, list) and value):
        raise ValueError("must be 'all' or a non-empty list of labels")
    return value


def _population_band(band):
    if not (isinstance(band, list) and len(band) == 2):
        raise ValueError(f"must be an array of two integers, got {band!r}")
    low, high = map(_integer(), band)
    if low > high:
        raise ValueError(f"low {low} is above high {high}")
    return low, high


def _rect(rect):
    if not (isinstance(rect, list) and len(rect) == 4):
        raise ValueError(f"must be an array of four numbers, got {rect!r}")
    return rect_ring(*map(_number, rect))


def _fixed_settings(_):
    """Refuses ``tunables``: ignoring it would change the results of a run that relied on it."""
    raise ValueError(
        f"pre-processing settings are fixed (threshold [{THRESHOLD_LO}, {THRESHOLD_HI}], "
        f"built fraction >= {BUILT_FRACTION_MIN}, imputation window {IMPUTATION_WINDOW_MONTHS} months); "
        "remove this key"
    )


def _zone(zone_id, damage_ratio, rect, rings, population):
    if (rect is None) == (rings is None):
        raise ConfigError("missing required key 'rings'" if rect is None else "give rect or rings, not both")
    return Zone(zone_id, (rect,) if rect is not None else rings, damage_ratio, population)


def _zones(value):
    """Converter for a scene's zones: an nx by ny tiling's keys, or a tuple of Zones."""
    return _read(value, _TILING) if isinstance(value, dict) else _each(_object(_ZONE, _zone))(value)


def _dataset(grid, **paths_and_names):
    return DatasetConfig(expected_grid=grid, **paths_and_names)


def _noise(built_fraction, **magnitudes):
    return NoiseSpec(built_fraction_map=built_fraction, **magnitudes)


# the months a `YYYY-MM` file name, and so MonthIndex.parse, can express
_FIRST_MONTH, _LAST_MONTH = MonthIndex(0, 1), MonthIndex(9999, 12)


def _event_window(event_month, months_before, months_after, of=""):
    """The EventWindow of an event; one reaching outside _FIRST_MONTH.._LAST_MONTH is refused, naming its key."""
    if months_before > event_month - _FIRST_MONTH:
        raise ConfigError(f"months_before: {months_before} reaches back from {event_month}{of} past {_FIRST_MONTH}")
    if months_after > _LAST_MONTH - event_month:
        raise ConfigError(f"months_after: {months_after} reaches on from {event_month}{of} past {_LAST_MONTH}")
    return EventWindow(event_month, months_before, months_after)


_WINDOW = {
    "months_before": (
        _integer(0),
        12,
        "non-negative integer, the months of each window before its event; the window starts in 0000-01 or later",
    ),
    "months_after": (
        _integer(0),
        12,
        "non-negative integer, the months of each window after its event; the window ends in 9999-12 or earlier",
    ),
}
_GRID = {
    "ncols": (_integer(), _REQUIRED, "integer, the grid's columns"),
    "nrows": (_integer(), _REQUIRED, "integer, the grid's rows"),
    "x_origin": (_number, _REQUIRED, "number, the x of the grid's lower-left corner"),
    "y_origin": (_number, _REQUIRED, "number, the y of the grid's lower-left corner"),
    "cell_size": (_number, _REQUIRED, "number, the side of a cell"),
}
# the most cells a scene grid may have: 2^25, which holds a 2x2 block of 2400x2400 VNP46A2 tiles, or
# nearly twelve times Florida's 2,845,440 cells at 15"; a larger grid is refused before any array is
# allocated, so before simulate writes anything
SCENE_MAX_CELLS = 2**25


def _scene_grid(**geometry):
    grid = GridSpec(**geometry)
    if grid.size > SCENE_MAX_CELLS:
        raise ValueError(f"{grid.nrows} rows of {grid.ncols} cells are more than a scene's {SCENE_MAX_CELLS} cells")
    return grid


_DATASET = {
    "kind": (_dataset_kind, _REQUIRED, '`"VSC-NTL"` or `"VNP46A2"`'),
    "raster_dir": (_path, _REQUIRED, "path string"),
    "quality_dir": (_path, _Same("raster_dir"), "path string"),
    "name": (_string, _Same("kind"), "string, the dataset's output directory name"),
    "grid": (_object(_GRID, GridSpec), None, "object, the geometry every file of the dataset must have"),
}
_HURRICANE = {
    "name": (_string, _REQUIRED, "string"),
    "event_month": (MonthIndex.parse, _REQUIRED, '`"YYYY-MM"`'),
}
_RUN = {
    "datasets": (_each(_object(_DATASET, _dataset)), _REQUIRED, "array of objects, at least one"),
    "zones": (_path, _REQUIRED, "path string of the zones GeoJSON file"),
    "hurricanes": (_each(_object(_HURRICANE, dict)), _REQUIRED, "array of objects, at least one"),
    "configs": (_labels, "all", '`"all"` or a non-empty array of label strings'),
    "output_dir": (_path, "out", "path string"),
    "min_damage": (_number, MIN_DAMAGE, "number, the damage ratio below which a zone is left out"),
    "case_study_k": (_integer(1), 3, "integer, at least 1, the zones at each end of the case study"),
    **_WINDOW,
    "population_band": (_population_band, None, "two integers `[lo, hi]`, `lo <= hi`, the case study's filter"),
    "tunables": (_fixed_settings, None, "refused: the pre-processing settings are fixed"),
    "jobs": (None, None, "ignored, accepted from older configs"),
}
_TILING = {
    "nx": (_integer(1), _REQUIRED, "integer, the tiles across"),
    "ny": (_integer(1), _REQUIRED, "integer, the tiles down"),
    "damage_ratios": (_each(_number), _REQUIRED, "array of numbers, one per tile, row-major from top-left"),
    "populations": (_each(_integer()), None, "array of integers, one per tile"),
}
_ZONE = {
    "zone_id": (_string, _REQUIRED, "string"),
    "damage_ratio": (_number, _REQUIRED, "number in [0, 1]"),
    "rect": (_rect, None, "four numbers `[x0, y0, x1, y1]`"),
    "rings": (_each(_each(_each(_number))), None, "array of rings of `[x, y]` numbers, in place of `rect`"),
    "population": (_integer(), 0, "integer"),
}
_NOISE = {
    "gaussian_sigma": (_number, 0.0, "number, the sigma of multiplicative sensor noise"),
    "cloud_rate": (_numbers, 0.0, "number, or one per window month: the share of flagged, corrupted cells"),
    "corruption_scale": (_number, 0.0, "number, the relative size of a flagged corruption"),
    "bloom_rate": (_number, 0.0, "number, the share of unflagged blooming cells"),
    "bloom_lo": (_number, 60.0, "number, a bloom's least radiance"),
    "bloom_hi": (_number, 500.0, "number, a bloom's greatest radiance"),
    "built_fraction": (lambda path: read_grid(_path(path)), None, "path of a grid on the scene's grid"),
}
_SCENE = {
    "seed": (_integer(0), _REQUIRED, "non-negative integer"),
    "dataset": (_dataset_kind, "VSC-NTL", '`"VSC-NTL"` or `"VNP46A2"`'),
    "grid": (_object(_GRID, _scene_grid), _REQUIRED, "object, the scene's geometry, of at most 2^25 cells"),
    "event_month": (MonthIndex.parse, _REQUIRED, '`"YYYY-MM"`'),
    **_WINDOW,
    "zones": (_zones, _REQUIRED, "object, an `nx` by `ny` tiling, or an array of zone objects"),
    "base_radiance": (_numbers, _REQUIRED, "number, or an array of one number per zone"),
    "drop_gain": (_number, 1.0, "number, the event month's drop per unit of damage ratio"),
    "noise": (_object(_NOISE, _noise), {}, "object, the noise channels"),
}


def _parse_json(path, parse):
    """``parse(doc)`` for the JSON file at path, paths resolving against its directory; errors name the file."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    token = _ROOT.set(path.parent)
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    finally:
        _ROOT.reset(token)


def _check_names(names, where):
    """Names that become output path components: unique, one component each."""
    if len(set(names)) != len(names):
        raise ConfigError(f"{where} contain duplicates: {names}")
    for name in names:
        if not _is_path_component(name):
            raise ConfigError(f"{where}: {name!r} is not a single path component")


def _configs(dataset, labels):
    """The PipelineConfigs a run asks of one dataset, in order."""
    if labels == "all":
        return enumerate_configs(dataset.kind)
    configs = tuple(config_from_label(dataset.kind, str(label)) for label in labels)
    if len({config.label for config in configs}) != len(configs):
        raise ValueError(f"{labels} names one combination twice")
    return configs


def _run_config(datasets, zones, hurricanes, configs, months_before, months_after, tunables, jobs, **values):
    if not datasets:
        raise ConfigError("at least one dataset is required")
    _check_names([d.kind.value for d in datasets], "dataset kinds")
    _check_names([d.name for d in datasets], "dataset names")
    hurricanes = tuple(
        Hurricane(h["name"], _event_window(h["event_month"], months_before, months_after, f" of {h['name']}"))
        for h in hurricanes
    )
    if not hurricanes:
        raise ConfigError("at least one hurricane is required")
    _check_names([h.name for h in hurricanes], "hurricane names")
    return RunConfig(
        datasets=_require(
            {"configs": configs}, "configs", lambda labels: tuple((d, _configs(d, labels)) for d in datasets)
        ),
        zones_path=zones,
        hurricanes=hurricanes,
        load_range=(
            min(h.window.start for h in hurricanes) - IMPUTATION_WINDOW_MONTHS,
            max(h.window.end for h in hurricanes),
        ),
        **values,
    )


def parse_run_config(path):
    """Parse a run config JSON file, resolving configs, windows and load range."""
    return _parse_json(path, _object(_RUN, _run_config))


def _scene_spec(grid, zones, event_month, months_before, months_after, **values):
    zones = _require({"zones": zones}, "zones", lambda z: tile_zones(grid, **z) if isinstance(z, dict) else z)
    months = _event_window(event_month, months_before, months_after)
    return SceneSpec(grid=grid, zones=zones, months=months, **values)


def parse_scene_spec(path):
    """Parse a scene spec JSON file into a SceneSpec."""
    return _parse_json(path, _object(_SCENE, _scene_spec))
