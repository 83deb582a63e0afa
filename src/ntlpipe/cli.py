"""Config-driven batch runner for the radiance analysis pipeline.

Four subcommands share one JSON config convention:

* ``validate`` checks a run config: zone geometry, names, event months
  inside the available range, and that ``extract`` can load every dataset.
* ``extract`` runs every configured pre-processing combination and writes
  one monthly series CSV per (dataset, combination, hurricane, zone).
* ``report`` correlates extracted event drops against damage ratios into
  ``report.csv`` and emits ``case_study.csv`` percent-change series for
  the most- and least-damaged zones.
* ``simulate`` generates a synthetic scene with known ground truth, writes
  it in the standard dataset layout, and scores every combination against
  the truth in ``oracle.csv``.

Dataset directories follow the layout of :mod:`ntlpipe.layout`, which
also holds the one loader ``validate`` and ``extract`` share.

Relative paths inside a config resolve against the config file's
directory. Commands exit 0 only when every work item succeeded; failures
are reported per item and never silently swallowed. Existing outputs are
never overwritten unless --force is given. Outputs are byte-deterministic:
rerunning any command with identical inputs and --force reproduces
identical files.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import (
    CorrelationReport,
    correlate_method,
    drop_samples,
    select_case_study_zones,
    write_report_csv,
)
from .errors import ConfigError, PipelineError, StatsError
from .grid import GridSpec, as_float, read_grid, write_grid
from .layout import DatasetConfig, dataset_files, load_dataset, scan_dataset_dir
from .preprocess import PipelineConfig, config_from_label, enumerate_configs
from .quality import Dataset
from .stack import MonthIndex
from .synthetic import (
    NoiseSpec,
    SceneSpec,
    check_scorable,
    generate_scene,
    recovered_pccs,
    tile_zones,
)
from .timeseries import (
    EventWindow,
    percent_change,
    read_series_csv,
    series_by_config,
    write_series_csv,
)
from .zones import Zone, rasterize_zone, read_zones, rect_ring, write_zones

__all__ = ["main"]


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


def _numbers(value):
    """Converter for a number or a list of numbers."""
    return tuple(float(v) for v in value) if isinstance(value, list) else float(value)


def _dataset_kind(text):
    names = [d.value for d in Dataset]
    if text not in names:
        raise ValueError(f"unknown dataset kind {text!r} (expected one of {names})")
    return Dataset(text)


def _grid_spec_from_json(obj):
    return GridSpec(
        ncols=_require(obj, "ncols", _integer()),
        nrows=_require(obj, "nrows", _integer()),
        x_origin=_require(obj, "x_origin", float),
        y_origin=_require(obj, "y_origin", float),
        cell_size=_require(obj, "cell_size", float),
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
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"{where}: {name!r} is not a single path component")


def _read_zones(path):
    zones = read_zones(path)
    _check_names([zone.zone_id for zone in zones], f"{path}: zone ids")
    return zones


def _tunables(obj):
    """A run's tunables: numeric PipelineConfig fields, each read as its type."""
    types = {f.name: {int: _integer(), float: float}.get(f.type) for f in fields(PipelineConfig)}
    tunables = {key: _require(obj, key, types.get(key)) for key in obj}
    enumerate_configs(Dataset.VSC_NTL, **tunables)  # rejects unknown keys and bad values
    return tunables


def _configs(kind, labels, tunables):
    """The PipelineConfigs a run asks of one dataset kind, in order."""
    if labels == "all":
        return enumerate_configs(kind, **tunables)
    if not isinstance(labels, list) or not labels:
        raise ValueError("must be 'all' or a non-empty list of labels")
    configs = tuple(config_from_label(kind, str(label), **tunables) for label in labels)
    if len({config.label for config in configs}) != len(configs):
        raise ValueError(f"{labels} names one combination twice")
    return configs


def _dataset_from_json(entry, root):
    kind = _require(entry, "kind", _dataset_kind)
    raster_dir = _require(entry, "raster_dir", root.joinpath)
    return DatasetConfig(
        name=_require(entry, "name", str, kind.value),
        kind=kind,
        raster_dir=raster_dir,
        quality_dir=_require(entry, "quality_dir", root.joinpath, raster_dir),
        expected_grid=_require(entry, "grid", _grid_spec_from_json, None),
    )


def _population_band(band):
    low, high = map(_integer(), band)
    if low > high:
        raise ValueError(f"low {low} is above high {high}")
    return low, high


def _run_config(doc, root):
    datasets = _require(doc, "datasets", _each(lambda entry: _dataset_from_json(entry, root)), ())
    if not datasets:
        raise ConfigError("at least one dataset is required")
    _check_names([d.kind.value for d in datasets], "dataset kinds")
    _check_names([d.name for d in datasets], "dataset names")

    event_window = _event_window(doc)

    def hurricane(entry):
        return Hurricane(_require(entry, "name", str), _require(entry, "event_month", event_window))

    hurricanes = _require(doc, "hurricanes", _each(hurricane), ())
    if not hurricanes:
        raise ConfigError("at least one hurricane is required")
    _check_names([h.name for h in hurricanes], "hurricane names")

    tunables = _require(doc, "tunables", _tunables, {})

    def with_configs(labels):
        return tuple((d, _configs(d.kind, labels, tunables)) for d in datasets)

    lead = PipelineConfig(Dataset.VSC_NTL, **tunables).imputation_window_months
    return RunConfig(
        datasets=_require(doc, "configs", with_configs, with_configs("all")),
        zones_path=_require(doc, "zones", root.joinpath),
        hurricanes=hurricanes,
        output_dir=_require(doc, "output_dir", root.joinpath, root / "out"),
        load_range=(
            min(h.window.start for h in hurricanes) - lead,
            max(h.window.end for h in hurricanes),
        ),
        min_damage=_require(doc, "min_damage", float, 0.01),
        case_study_k=_require(doc, "case_study_k", _integer(1), 3),
        population_band=_require(doc, "population_band", _population_band, (None, None)),
    )


def parse_run_config(path):
    """Parse a run config JSON file, resolving configs, windows and load range."""
    return _parse_json(path, _run_config)


def _print_issue(issues, message):
    issues.append(message)
    print(f"  problem: {message}")


def cmd_validate(args):
    """Check a run config and its referenced data; exit 0 iff clean."""
    run = parse_run_config(args.config)
    issues = []

    try:
        zones = _read_zones(run.zones_path)
        if not zones:
            _print_issue(issues, f"zones file has no features: {run.zones_path}")
    except PipelineError as exc:
        zones = None
        _print_issue(issues, f"zones file invalid: {exc}")

    for dataset, configs in run.datasets:
        radiance_files, quality_files = scan_dataset_dir(dataset)
        if not radiance_files:
            _print_issue(issues, f"{dataset.name}: no radiance files in {dataset.raster_dir}")
            continue
        available = sorted(radiance_files)
        for hurricane in run.hurricanes:
            event_month = hurricane.window.event_month
            if not available[0] <= event_month <= available[-1]:
                _print_issue(
                    issues,
                    f"{dataset.name}: event month {event_month} of {hurricane.name} "
                    f"outside available range {available[0]}..{available[-1]}",
                )
        need_quality = any(c.quality_filter for c in configs)
        try:
            _, _, built = load_dataset(dataset, *run.load_range, need_quality)
        except PipelineError as exc:
            _print_issue(issues, f"{dataset.name}: {exc}")
        else:
            if built is None and any(c.built_mask for c in configs):
                _print_issue(
                    issues,
                    f"{dataset.name}: built masking requested but {dataset.built_path} not found",
                )
        print(
            f"dataset {dataset.name}: {len(radiance_files)} radiance months "
            f"({available[0]}..{available[-1]}), {len(quality_files)} quality months"
        )

    if zones is not None:
        print(f"zones: {len(zones)} from {run.zones_path.name}")
    print(f"hurricanes: {', '.join(f'{h.name} ({h.window.event_month})' for h in run.hurricanes)}")
    n_configs = sum(len(configs) for _, configs in run.datasets)
    print(f"pipeline configs: {n_configs} across {len(run.datasets)} dataset(s)")
    if issues:
        print(f"validation failed with {len(issues)} problem(s)")
        return 1
    print("validation ok")
    return 0


def _series_path(out_dir, dataset, label, hurricane, zone_id):
    return out_dir / dataset.name / label / hurricane / f"{zone_id}.csv"


def cmd_extract(args):
    """Write one processed series CSV per (dataset, config, hurricane, zone)."""
    run = parse_run_config(args.config)
    out_dir = Path(args.out) if args.out else run.output_dir
    zones = _read_zones(run.zones_path)
    failures = []
    written = 0

    for dataset, configs in run.datasets:
        need_quality = any(c.quality_filter for c in configs)
        try:
            radiance, quality, built = load_dataset(dataset, *run.load_range, need_quality)
        except PipelineError as exc:
            failures.append(f"{dataset.name}: {exc}")
            continue
        masks = {zone.zone_id: rasterize_zone(zone, radiance.spec) for zone in zones}
        for zone_id, mask in masks.items():
            if mask.count == 0:
                print(f"warning: zone {zone_id} covers no {dataset.name} pixel-centers", file=sys.stderr)

        windows = [h.window for h in run.hurricanes]
        chain = series_by_config(radiance, quality, built, masks, configs, windows)
        for config, result in chain:
            if isinstance(result, PipelineError):
                failures.append(f"{dataset.name}/{config.label}: {result}")
                continue
            for hurricane, window_series in zip(run.hurricanes, result):
                for series in window_series:
                    path = _series_path(
                        out_dir, dataset, config.label, hurricane.name, series.zone_id
                    )
                    if path.exists() and not args.force:
                        failures.append(f"{path}: exists (use --force to overwrite)")
                        continue
                    path.parent.mkdir(parents=True, exist_ok=True)
                    write_series_csv(series, path)
                    written += 1

    print(f"extract: wrote {written} series file(s) under {out_dir}")
    if failures:
        print(f"extract: {len(failures)} failure(s)", file=sys.stderr)
        for failure in failures:
            print(f"  failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _guard_overwrite(path, force):
    if path.exists() and not force:
        raise ConfigError(f"{path}: exists (use --force to overwrite)")


def cmd_report(args):
    """Correlate extracted drops into report.csv; emit case_study.csv."""
    run = parse_run_config(args.config)
    out_dir = Path(args.out) if args.out else run.output_dir
    zones = _read_zones(run.zones_path)
    report_path = out_dir / "report.csv"
    case_path = out_dir / "case_study.csv"
    _guard_overwrite(report_path, args.force)
    _guard_overwrite(case_path, args.force)

    series_by_key = {}
    absent = []
    for dataset, configs in run.datasets:
        for config, hurricane, zone in product(configs, run.hurricanes, zones):
            path = _series_path(out_dir, dataset, config.label, hurricane.name, zone.zone_id)
            if not path.is_file():
                absent.append(str(path.relative_to(out_dir)))
                continue
            series_by_key[dataset.name, config.label, hurricane.name, zone.zone_id] = read_series_csv(path)
    if absent:
        shown = ", ".join(absent[:8]) + (" ..." if len(absent) > 8 else "")
        raise ConfigError(f"missing extraction outputs ({len(absent)}): {shown}")

    rows = []
    for dataset, configs in run.datasets:
        for config in configs:
            samples = []
            for h in run.hurricanes:
                series = [series_by_key[dataset.name, config.label, h.name, z.zone_id] for z in zones]
                samples += drop_samples(zones, series, h.window, h.name)
            rows.append(correlate_method(samples, dataset.kind, config.label, run.min_damage))
    report = CorrelationReport(
        rows=tuple(rows),
        hurricanes=tuple(h.name for h in run.hurricanes),
        min_damage=run.min_damage,
    )
    # select before writing: a failed selection must not leave report.csv behind
    band_lo, band_hi = run.population_band
    top, bottom = select_case_study_zones(
        zones, run.case_study_k, population_lo=band_lo, population_hi=band_hi
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, report_path)
    _write_case_study_csv(case_path, run, top, bottom, series_by_key)

    print(f"report: {len(report.rows)} correlation row(s) -> {report_path}")
    print(f"report: case study for {len(top) + len(bottom)} zone(s) -> {case_path}")
    return 0


def _write_case_study_csv(path, run, top, bottom, series_by_key):
    """Percent-change rows for the selected zones, every config and month."""
    groups = [("top", zone) for zone in top] + [("bottom", zone) for zone in bottom]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "methods", "hurricane", "group", "zone_id", "year", "month", "percent_change"]
        )
        for dataset, configs in run.datasets:
            for config, hurricane, (group, zone) in product(configs, run.hurricanes, groups):
                series = series_by_key[dataset.name, config.label, hurricane.name, zone.zone_id]
                columns = [dataset.name, config.label, hurricane.name, group, zone.zone_id]
                for month in hurricane.window.months():
                    change = percent_change(series, month)
                    text = "" if np.isnan(change) else repr(change)
                    writer.writerow(columns + [month.year, month.month, text])


def _zone_from_json(obj):
    rect = _require(obj, "rect", lambda rect: rect_ring(*map(float, rect)), None)
    return Zone(
        zone_id=_require(obj, "zone_id", str),
        rings=(rect,) if rect is not None else _require(obj, "rings"),
        damage_ratio=_require(obj, "damage_ratio", float),
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
        gaussian_sigma=_require(obj, "gaussian_sigma", float, 0.0),
        cloud_rate=_require(obj, "cloud_rate", _numbers, 0.0),
        corruption_scale=_require(obj, "corruption_scale", float, 0.0),
        bloom_rate=_require(obj, "bloom_rate", float, 0.0),
        bloom_lo=_require(obj, "bloom_lo", float, 60.0),
        bloom_hi=_require(obj, "bloom_hi", float, 500.0),
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
        drop_gain=_require(doc, "drop_gain", float, 1.0),
        noise=_require(doc, "noise", lambda noise: _noise_from_json(noise, root), NoiseSpec()),
    )


def parse_scene_spec(path):
    """Parse a scene spec JSON file into a SceneSpec."""
    return _parse_json(path, _scene_spec)


def cmd_simulate(args):
    """Generate a synthetic scene, write it out, and score every config."""
    spec = parse_scene_spec(args.config)
    if not args.out:
        raise ConfigError("simulate requires --out <directory>")
    check_scorable(spec)
    out_dir = Path(args.out)
    scene = generate_scene(spec)

    dataset_dir = out_dir / spec.dataset.value
    oracle_path = out_dir / "oracle.csv"
    zones_path = out_dir / "zones.geojson"
    files = dataset_files(dataset_dir, scene.radiance, scene.quality, scene.built_fraction)
    for target in [oracle_path, zones_path] + [path for path, _ in files]:
        _guard_overwrite(target, args.force)

    dataset_dir.mkdir(parents=True, exist_ok=True)
    for path, grid in files:
        write_grid(grid, path)
    write_zones(spec.zones, zones_path)

    failures = []
    with open(oracle_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "recovered_pcc"])
        for config, recovered in recovered_pccs(scene, enumerate_configs(spec.dataset)):
            if isinstance(recovered, PipelineError):
                # a StatsError from correlate_method already names the config
                prefix = "" if isinstance(recovered, StatsError) else f"{config.label}: "
                failures.append(f"{prefix}{recovered}")
                writer.writerow([config.label, ""])
            else:
                writer.writerow([config.label, repr(recovered)])

    print(f"simulate: wrote {len(files)} raster(s) under {dataset_dir}")
    print(f"simulate: oracle results -> {oracle_path}")
    if failures:
        for failure in failures:
            print(f"  failed: {failure}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config file")
    common.add_argument("--out", help="output directory (overrides the config)")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")

    parser = argparse.ArgumentParser(
        prog="ntlpipe",
        description="nighttime-light pre-processing, extraction, and damage correlation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("validate", cmd_validate, "check a run config and its data"),
        ("extract", cmd_extract, "write per-zone series CSVs"),
        ("report", cmd_report, "correlate drops against damage"),
        ("simulate", cmd_simulate, "generate a synthetic scene"),
    ):
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
