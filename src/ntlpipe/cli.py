"""Config-driven batch runner for the radiance analysis pipeline.

Four subcommands share one JSON config convention:

* ``validate`` checks a run config: referenced paths, zone geometry,
  per-month grid consistency, event months inside the available range.
* ``extract`` runs every configured pre-processing combination and writes
  one monthly series CSV per (dataset, combination, hurricane, zone).
* ``report`` correlates extracted event drops against damage ratios into
  ``report.csv`` and emits ``case_study.csv`` percent-change series for
  the most- and least-damaged zones.
* ``simulate`` generates a synthetic scene with known ground truth, writes
  it in the standard dataset layout, and scores every combination against
  the truth in ``oracle.csv``.

Dataset directories follow a fixed layout: ``<dir>/<YYYY-MM>.asc`` monthly
radiance, ``<dir>/<YYYY-MM>.qf.asc`` monthly quality, daily
``<dir>/<YYYY-MM-DD>.asc`` and ``<dir>/<YYYY-MM-DD>.qf.asc`` (VNP46A2
only), and ``<dir>/built_fraction.asc``. Daily radiance aggregates to a
monthly median composite; daily quality aggregates by majority vote over
the observed days (a pixel is monthly-high-quality when more than half of
its observed days are). An explicit monthly file always wins over daily
files for the same month.

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
import re
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
from .errors import ConfigError, PipelineError, StatsError
from .grid import GridSpec, IntRaster, as_float, read_grid, write_grid
from .preprocess import config_from_label, enumerate_configs
from .quality import Dataset, high_quality_mask
from .stack import MonthIndex, RasterStack
from .synthetic import (
    VNP46A2_HIGH_QUALITY_CODE,
    VNP46A2_LOW_QUALITY_CODE,
    NoiseSpec,
    SceneSpec,
    generate_scene,
    recovered_pccs,
    tile_zones,
)
from .timeseries import (
    EventWindow,
    monthly_median_composite,
    percent_change,
    read_series_csv,
    series_by_config,
    write_series_csv,
)
from .zones import Zone, rasterize_zone, read_zones, rect_ring, write_zones

__all__ = ["main"]

_MONTHLY_RE = re.compile(r"^(\d{4}-\d{2})\.asc$")
_MONTHLY_QF_RE = re.compile(r"^(\d{4}-\d{2})\.qf\.asc$")
_DAILY_RE = re.compile(r"^(\d{4}-\d{2})-(\d{2})\.asc$")
_DAILY_QF_RE = re.compile(r"^(\d{4}-\d{2})-(\d{2})\.qf\.asc$")
BUILT_FRACTION_FILENAME = "built_fraction.asc"


@dataclass(frozen=True)
class Hurricane:
    name: str
    event_month: MonthIndex


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset directory and how to interpret it."""

    name: str
    kind: Dataset
    raster_dir: Path
    quality_dir: Path
    expected_grid: GridSpec = None


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


def scan_dataset_dir(dataset):
    """Discover month-keyed files in a dataset directory.

    Returns (radiance, quality) dicts mapping MonthIndex to either a Path
    (monthly file) or a sorted list of Paths (daily files needing
    aggregation). Monthly files shadow daily ones for the same month.
    Daily layouts are only recognized for VNP46A2.
    """
    radiance = {}
    quality = {}
    daily_radiance = {}
    daily_quality = {}
    for entry in sorted(dataset.raster_dir.iterdir() if dataset.raster_dir.is_dir() else []):
        name = entry.name
        if m := _MONTHLY_RE.match(name):
            radiance[MonthIndex.parse(m.group(1))] = entry
        elif (m := _DAILY_RE.match(name)) and dataset.kind is Dataset.VNP46A2:
            daily_radiance.setdefault(MonthIndex.parse(m.group(1)), []).append(entry)
    for entry in sorted(dataset.quality_dir.iterdir() if dataset.quality_dir.is_dir() else []):
        name = entry.name
        if m := _MONTHLY_QF_RE.match(name):
            quality[MonthIndex.parse(m.group(1))] = entry
        elif (m := _DAILY_QF_RE.match(name)) and dataset.kind is Dataset.VNP46A2:
            daily_quality.setdefault(MonthIndex.parse(m.group(1)), []).append(entry)
    for month, paths in daily_radiance.items():
        radiance.setdefault(month, paths)
    for month, paths in daily_quality.items():
        quality.setdefault(month, paths)
    return radiance, quality


def _majority_quality_composite(daily_quality_grids):
    """Monthly quality from daily quality words by per-pixel majority vote.

    A pixel is monthly-high-quality when more than half of the days it was
    observed decode high-quality; pixels observed on no day are missing.
    The result uses one canonical high- and one canonical low-quality word.
    """
    spec = daily_quality_grids[0].spec
    if any(g.spec != spec for g in daily_quality_grids):
        raise ValueError("daily quality rasters disagree on grid geometry")
    observed = np.zeros(spec.shape, dtype=np.int64)
    high = np.zeros(spec.shape, dtype=np.int64)
    for grid in daily_quality_grids:
        observed += grid.valid
        high += high_quality_mask(grid, Dataset.VNP46A2)
    words = np.where(high * 2 > observed, VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE)
    return IntRaster(spec, words, observed == 0)


def load_dataset(dataset, month_lo, month_hi, need_quality):
    """Load a dataset's stacks for months within [month_lo, month_hi].

    Returns (radiance stack, quality stack or None, built fraction or
    None). Daily files aggregate to monthly composites. Radiance grids are
    coerced to real-valued rasters so integer-looking files behave the
    same as any other radiance.
    """
    radiance_files, quality_files = scan_dataset_dir(dataset)
    rad_pairs = []
    for month in sorted(radiance_files):
        if not month_lo <= month <= month_hi:
            continue
        source = radiance_files[month]
        if isinstance(source, list):
            grid = monthly_median_composite([as_float(read_grid(p)) for p in source])
        else:
            grid = as_float(read_grid(source))
        rad_pairs.append((month, grid))
    if not rad_pairs:
        raise ConfigError(
            f"{dataset.name}: no radiance months found in {dataset.raster_dir} "
            f"within {month_lo}..{month_hi}"
        )
    radiance = RasterStack.from_pairs(rad_pairs)

    quality = None
    if need_quality:
        q_pairs = []
        absent = []
        for month, _ in rad_pairs:
            source = quality_files.get(month)
            if source is None:
                absent.append(str(month))
                continue
            if isinstance(source, list):
                grid = _majority_quality_composite([read_grid(p) for p in source])
            else:
                grid = read_grid(source)
            q_pairs.append((month, grid))
        if absent:
            raise ConfigError(
                f"{dataset.name}: quality filtering requested but quality files are missing "
                f"for months: {', '.join(absent)}"
            )
        quality = RasterStack.from_pairs(q_pairs)

    built_path = dataset.raster_dir / BUILT_FRACTION_FILENAME
    built = as_float(read_grid(built_path)) if built_path.is_file() else None
    return radiance, quality, built


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
        if not dataset.raster_dir.is_dir():
            _print_issue(issues, f"{dataset.name}: raster directory not found: {dataset.raster_dir}")
            continue
        if not dataset.quality_dir.is_dir():
            _print_issue(issues, f"{dataset.name}: quality directory not found: {dataset.quality_dir}")
            continue
        radiance_files, quality_files = scan_dataset_dir(dataset)
        if not radiance_files:
            _print_issue(issues, f"{dataset.name}: no radiance files in {dataset.raster_dir}")
            continue

        spec = dataset.expected_grid
        spec_source = "configured grid"
        month_paths = _scanned_paths(radiance_files)
        built_path = dataset.raster_dir / BUILT_FRACTION_FILENAME
        if built_path.is_file():
            month_paths.append(built_path)
        for p in month_paths + _scanned_paths(quality_files):
            try:
                grid = read_grid(p)
            except PipelineError as exc:
                _print_issue(issues, f"{dataset.name}: unreadable grid {p.name}: {exc}")
                continue
            if spec is None:
                spec = grid.spec
                spec_source = p.name
            elif grid.spec != spec:
                _print_issue(
                    issues,
                    f"{dataset.name}: grid of {p.name} does not match {spec_source}",
                )

        available = sorted(radiance_files)
        for hurricane in run.hurricanes:
            if not available[0] <= hurricane.event_month <= available[-1]:
                _print_issue(
                    issues,
                    f"{dataset.name}: event month {hurricane.event_month} of {hurricane.name} "
                    f"outside available range {available[0]}..{available[-1]}",
                )
        if any(c.quality_filter for c in configs):
            missing_q = [
                str(month)
                for month in available
                if month_lo <= month <= month_hi and month not in quality_files
            ]
            if missing_q:
                _print_issue(
                    issues,
                    f"{dataset.name}: quality files missing for months: {', '.join(missing_q)}",
                )
        if any(c.built_mask for c in configs) and not built_path.is_file():
            _print_issue(
                issues,
                f"{dataset.name}: built masking requested but {built_path} not found",
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


def _scanned_paths(files):
    """Every path of a scan_dataset_dir mapping, in month order."""
    entries = (files[month] for month in sorted(files))
    return [p for entry in entries for p in (entry if isinstance(entry, list) else [entry])]


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
                        read_series_csv(path)
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
    for key in ("zone_id", "damage_ratio"):
        if key not in obj:
            raise ConfigError(f"{where}: missing required key {key!r}")
    if "rect" in obj:
        x0, y0, x1, y1 = (float(v) for v in obj["rect"])
        rings = (rect_ring(x0, y0, x1, y1),)
    elif "rings" in obj:
        rings = tuple(tuple((float(x), float(y)) for x, y in ring) for ring in obj["rings"])
    else:
        raise ConfigError(f"{where}: zone needs either 'rect' or 'rings'")
    return Zone(
        zone_id=str(obj["zone_id"]),
        rings=rings,
        damage_ratio=float(obj["damage_ratio"]),
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
    out_dir = Path(args.out)
    scene = generate_scene(spec)

    dataset_dir = out_dir / spec.dataset.value
    oracle_path = out_dir / "oracle.csv"
    zones_path = out_dir / "zones.geojson"
    targets = [oracle_path, zones_path, dataset_dir / BUILT_FRACTION_FILENAME]
    for month in spec.months.months():
        targets.append(dataset_dir / f"{month}.asc")
        targets.append(dataset_dir / f"{month}.qf.asc")
    for target in targets:
        _guard_overwrite(target, args.force)

    dataset_dir.mkdir(parents=True, exist_ok=True)
    for month, grid in scene.radiance:
        write_grid(grid, dataset_dir / f"{month}.asc")
    for month, grid in scene.quality:
        write_grid(grid, dataset_dir / f"{month}.qf.asc")
    write_grid(scene.built_fraction, dataset_dir / BUILT_FRACTION_FILENAME)
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

    print(f"simulate: wrote {len(spec.months.months()) * 2} raster(s) under {dataset_dir}")
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
    sub.add_parser("validate", parents=[common], help="check a run config and its data").set_defaults(
        func=cmd_validate
    )
    sub.add_parser("extract", parents=[common], help="write per-zone series CSVs").set_defaults(
        func=cmd_extract
    )
    sub.add_parser("report", parents=[common], help="correlate drops against damage").set_defaults(
        func=cmd_report
    )
    sub.add_parser("simulate", parents=[common], help="generate a synthetic scene").set_defaults(
        func=cmd_simulate
    )
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
