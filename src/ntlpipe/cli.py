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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    CorrelationReport,
    correlate_method,
    drop_samples,
    select_case_study_zones,
    write_report_csv,
)
from .errors import ConfigError, PipelineError, ReportError, StatsError
from .grid import GridSpec, as_float, read_grid, write_grid
from .layout import DatasetConfig, dataset_files, load_dataset, scan_dataset_dir
from .preprocess import config_from_label, enumerate_configs
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
    event_month: MonthIndex


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration (see README for the JSON schema)."""

    datasets: tuple
    zones_path: Path
    hurricanes: tuple
    config_labels: object  # "all" or tuple of labels
    output_dir: Path
    min_damage: float = 0.01
    months_before: int = 12
    months_after: int = 12
    case_study_k: int = 3
    population_band: tuple = None
    tunables: dict = field(default_factory=dict)


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _grid_spec_from_json(obj, where):
    try:
        return GridSpec(
            ncols=int(_require(obj, "ncols", where)),
            nrows=int(_require(obj, "nrows", where)),
            x_origin=float(_require(obj, "x_origin", where)),
            y_origin=float(_require(obj, "y_origin", where)),
            cell_size=float(_require(obj, "cell_size", where)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _dataset_kind(text, where):
    try:
        return Dataset(text)
    except ValueError:
        names = ", ".join(repr(d.value) for d in Dataset)
        raise ConfigError(f"{where}: unknown dataset kind {text!r} (expected {names})") from None


def _check_names(names, where):
    """Names that become output path components: unique, one component each."""
    if len(set(names)) != len(names):
        raise ConfigError(f"{where} must be unique, got {names}")
    for name in names:
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ConfigError(f"{where}: {name!r} is not a single path component")


def _read_zones(path):
    zones = read_zones(path)
    _check_names([zone.zone_id for zone in zones], f"{path}: zone ids")
    return zones


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def parse_run_config(path):
    """Parse and structurally validate a run config JSON file."""
    path = Path(path)
    doc = _load_json(path)
    root = path.parent

    datasets = []
    seen_kinds = set()
    for i, entry in enumerate(doc.get("datasets") or []):
        where = f"datasets[{i}]"
        kind = _dataset_kind(_require(entry, "kind", where), where)
        if kind in seen_kinds:
            raise ConfigError(f"{where}: duplicate dataset kind {kind.value!r}")
        seen_kinds.add(kind)
        raster_dir = root / _require(entry, "raster_dir", where)
        quality_dir = root / entry["quality_dir"] if "quality_dir" in entry else raster_dir
        expected = (
            _grid_spec_from_json(entry["grid"], f"{where}.grid") if "grid" in entry else None
        )
        datasets.append(
            DatasetConfig(
                name=str(entry.get("name", kind.value)),
                kind=kind,
                raster_dir=raster_dir,
                quality_dir=quality_dir,
                expected_grid=expected,
            )
        )
    if not datasets:
        raise ConfigError(f"{path}: at least one dataset is required")
    _check_names([d.name for d in datasets], f"{path}: dataset names")

    hurricanes = []
    for i, entry in enumerate(doc.get("hurricanes") or []):
        where = f"hurricanes[{i}]"
        try:
            month = MonthIndex.parse(_require(entry, "event_month", where))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        hurricanes.append(Hurricane(name=str(_require(entry, "name", where)), event_month=month))
    if not hurricanes:
        raise ConfigError(f"{path}: at least one hurricane is required")
    _check_names([h.name for h in hurricanes], f"{path}: hurricane names")

    labels = doc.get("configs", "all")
    if labels != "all":
        labels = tuple(str(lab) for lab in labels)
        if not labels:
            raise ConfigError(f"{path}: configs must be 'all' or a non-empty list of labels")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{path}: configs list contains duplicates")

    band = doc.get("population_band")
    if band is not None:
        if len(band) != 2:
            raise ConfigError(f"{path}: population_band must be [low, high]")
        band = (int(band[0]), int(band[1]))

    config = RunConfig(
        datasets=tuple(datasets),
        zones_path=root / _require(doc, "zones", str(path)),
        hurricanes=tuple(hurricanes),
        config_labels=labels,
        output_dir=root / doc.get("output_dir", "out"),
        min_damage=float(doc.get("min_damage", 0.01)),
        months_before=int(doc.get("months_before", 12)),
        months_after=int(doc.get("months_after", 12)),
        case_study_k=int(doc.get("case_study_k", 3)),
        population_band=band,
        tunables=dict(doc.get("tunables") or {}),
    )
    if config.months_before < 0 or config.months_after < 0:
        raise ConfigError(f"{path}: window extents must be non-negative")
    return config


def expand_configs(run, dataset_kind):
    """The pipeline configs a run requests for one dataset, in order."""
    if run.config_labels == "all":
        return enumerate_configs(dataset_kind, **run.tunables)
    return tuple(
        config_from_label(dataset_kind, label, **run.tunables) for label in run.config_labels
    )


def _windows(run):
    return [
        EventWindow(h.event_month, run.months_before, run.months_after) for h in run.hurricanes
    ]


def _wanted_month_range(run):
    """Months worth loading: all windows plus imputation lead-in."""
    windows = _windows(run)
    lead = int(run.tunables.get("imputation_window_months", 12))
    lo = min(w.start for w in windows) - lead
    hi = max(w.end for w in windows)
    return lo, hi


def _print_issue(issues, message):
    issues.append(message)
    print(f"  problem: {message}")


def cmd_validate(args):
    """Check a run config and its referenced data; exit 0 iff clean."""
    run = parse_run_config(args.config)
    issues = []

    try:
        zones = _read_zones(run.zones_path) if run.zones_path.is_file() else None
        if zones is None:
            _print_issue(issues, f"zones file not found: {run.zones_path}")
        elif not zones:
            _print_issue(issues, f"zones file has no features: {run.zones_path}")
    except PipelineError as exc:
        zones = None
        _print_issue(issues, f"zones file invalid: {exc}")

    month_lo, month_hi = _wanted_month_range(run)
    for dataset in run.datasets:
        configs = expand_configs(run, dataset.kind)
        radiance_files, quality_files = scan_dataset_dir(dataset)
        if not radiance_files:
            _print_issue(issues, f"{dataset.name}: no radiance files in {dataset.raster_dir}")
            continue
        available = sorted(radiance_files)
        for hurricane in run.hurricanes:
            if not available[0] <= hurricane.event_month <= available[-1]:
                _print_issue(
                    issues,
                    f"{dataset.name}: event month {hurricane.event_month} of {hurricane.name} "
                    f"outside available range {available[0]}..{available[-1]}",
                )
        need_quality = any(c.quality_filter for c in configs)
        try:
            _, _, built = load_dataset(dataset, month_lo, month_hi, need_quality)
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
    print(f"hurricanes: {', '.join(f'{h.name} ({h.event_month})' for h in run.hurricanes)}")
    n_configs = sum(len(expand_configs(run, d.kind)) for d in run.datasets)
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
    month_lo, month_hi = _wanted_month_range(run)
    failures = []
    written = 0

    for dataset in run.datasets:
        configs = expand_configs(run, dataset.kind)
        need_quality = any(c.quality_filter for c in configs)
        try:
            radiance, quality, built = load_dataset(dataset, month_lo, month_hi, need_quality)
        except PipelineError as exc:
            failures.append(f"{dataset.name}: {exc}")
            continue
        masks = {zone.zone_id: rasterize_zone(zone, radiance.spec) for zone in zones}
        for zone in zones:
            if masks[zone.zone_id].count == 0:
                print(
                    f"warning: zone {zone.zone_id} covers no {dataset.name} pixel-centers",
                    file=sys.stderr,
                )

        chain = series_by_config(radiance, quality, built, masks, configs, _windows(run))
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
    windows = dict(zip([h.name for h in run.hurricanes], _windows(run)))
    report_path = out_dir / "report.csv"
    case_path = out_dir / "case_study.csv"
    _guard_overwrite(report_path, args.force)
    _guard_overwrite(case_path, args.force)

    series_by_key = {}
    absent = []
    for dataset in run.datasets:
        for config in expand_configs(run, dataset.kind):
            for hurricane in run.hurricanes:
                for zone in zones:
                    path = _series_path(out_dir, dataset, config.label, hurricane.name, zone.zone_id)
                    if not path.is_file():
                        absent.append(str(path.relative_to(out_dir)))
                        continue
                    series_by_key[dataset.name, config.label, hurricane.name, zone.zone_id] = (
                        _read_series(path)
                    )
    if absent:
        shown = ", ".join(absent[:8]) + (" ..." if len(absent) > 8 else "")
        raise ConfigError(f"missing extraction outputs ({len(absent)}): {shown}")

    rows = []
    for dataset in run.datasets:
        for config in expand_configs(run, dataset.kind):
            samples = [
                sample
                for h in run.hurricanes
                for sample in drop_samples(
                    zones,
                    [series_by_key[dataset.name, config.label, h.name, z.zone_id] for z in zones],
                    windows[h.name],
                    h.name,
                )
            ]
            rows.append(correlate_method(samples, dataset.kind, config.label, run.min_damage))
    report = CorrelationReport(
        rows=tuple(rows),
        hurricanes=tuple(h.name for h in run.hurricanes),
        min_damage=run.min_damage,
    )
    # select before writing: a failed selection must not leave report.csv behind
    band = run.population_band or (None, None)
    top, bottom = select_case_study_zones(
        zones, run.case_study_k, population_lo=band[0], population_hi=band[1]
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, report_path)
    _write_case_study_csv(case_path, run, windows, top, bottom, series_by_key)

    print(f"report: {len(report.rows)} correlation row(s) -> {report_path}")
    print(f"report: case study for {len(top) + len(bottom)} zone(s) -> {case_path}")
    return 0


def _read_series(path):
    """read_series_csv, with a file it cannot parse reported as a ReportError."""
    try:
        return read_series_csv(path)
    except KeyError as exc:
        raise ReportError(f"{path}: missing column {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ReportError(f"{path}: {str(exc).removeprefix(f'{path}: ')}") from None


def _write_case_study_csv(path, run, windows, top, bottom, series_by_key):
    """Percent-change rows for the selected zones, every config and month."""
    groups = [("top", zone) for zone in top] + [("bottom", zone) for zone in bottom]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "methods", "hurricane", "group", "zone_id", "year", "month", "percent_change"]
        )
        for dataset in run.datasets:
            for config in expand_configs(run, dataset.kind):
                for hurricane in run.hurricanes:
                    window = windows[hurricane.name]
                    for group, zone in groups:
                        series = series_by_key[
                            dataset.name, config.label, hurricane.name, zone.zone_id
                        ]
                        for month in window.months():
                            change = percent_change(series, month)
                            writer.writerow(
                                [
                                    dataset.name,
                                    config.label,
                                    hurricane.name,
                                    group,
                                    zone.zone_id,
                                    month.year,
                                    month.month,
                                    "" if np.isnan(change) else repr(change),
                                ]
                            )


def _zone_from_json(obj, where):
    zone_id, damage_ratio = _require(obj, "zone_id", where), _require(obj, "damage_ratio", where)
    if "rect" in obj:
        x0, y0, x1, y1 = (float(v) for v in obj["rect"])
        rings = (rect_ring(x0, y0, x1, y1),)
    elif "rings" in obj:
        rings = tuple(tuple((float(x), float(y)) for x, y in ring) for ring in obj["rings"])
    else:
        raise ConfigError(f"{where}: zone needs either 'rect' or 'rings'")
    return Zone(
        zone_id=str(zone_id),
        rings=rings,
        damage_ratio=float(damage_ratio),
        population=int(obj.get("population", 0)),
    )


def parse_scene_spec(path):
    """Parse a scene spec JSON file into a SceneSpec."""
    path = Path(path)
    doc = _load_json(path)
    where = str(path)
    grid = _grid_spec_from_json(_require(doc, "grid", where), f"{where}.grid")
    try:
        event_month = MonthIndex.parse(_require(doc, "event_month", where))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    window = EventWindow(
        event_month,
        int(doc.get("months_before", 12)),
        int(doc.get("months_after", 12)),
    )

    zones_doc = _require(doc, "zones", where)
    if isinstance(zones_doc, dict):
        zones = tile_zones(
            grid,
            int(_require(zones_doc, "nx", f"{where}.zones")),
            int(_require(zones_doc, "ny", f"{where}.zones")),
            _require(zones_doc, "damage_ratios", f"{where}.zones"),
            zones_doc.get("populations"),
        )
    else:
        zones = tuple(
            _zone_from_json(obj, f"{where}.zones[{i}]") for i, obj in enumerate(zones_doc)
        )

    noise_doc = doc.get("noise") or {}
    built = None
    if noise_doc.get("built_fraction"):
        built = as_float(read_grid(path.parent / noise_doc["built_fraction"]))
    cloud_rate = noise_doc.get("cloud_rate", 0.0)
    noise = NoiseSpec(
        gaussian_sigma=float(noise_doc.get("gaussian_sigma", 0.0)),
        cloud_rate=tuple(float(r) for r in cloud_rate)
        if isinstance(cloud_rate, (list, tuple))
        else float(cloud_rate),
        corruption_scale=float(noise_doc.get("corruption_scale", 0.0)),
        bloom_rate=float(noise_doc.get("bloom_rate", 0.0)),
        bloom_lo=float(noise_doc.get("bloom_lo", 60.0)),
        bloom_hi=float(noise_doc.get("bloom_hi", 500.0)),
        built_fraction_map=built,
    )
    return SceneSpec(
        seed=int(_require(doc, "seed", where)),
        grid=grid,
        zones=zones,
        months=window,
        base_radiance=_require(doc, "base_radiance", where),
        dataset=_dataset_kind(doc.get("dataset", Dataset.VSC_NTL.value), where),
        drop_gain=float(doc.get("drop_gain", 1.0)),
        noise=noise,
    )


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
