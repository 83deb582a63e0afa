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

Run configs and scene specs are read by :mod:`ntlpipe.config`. Dataset
directories follow the layout of :mod:`ntlpipe.layout`, which also holds
the one loader ``validate`` and ``extract`` share.

Commands exit 0 only when every work item succeeded; failures are
reported per item and never silently swallowed. Existing outputs are
never overwritten unless --force is given. Outputs are byte-deterministic:
rerunning any command with identical inputs and --force reproduces
identical files.
"""

import argparse
import csv
import sys
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
from .config import parse_run_config, parse_scene_spec
from .errors import ConfigError, PipelineError, ReportError, StatsError
# read_grid is not called here: the bench tracer's test looks it up as ntlpipe.cli.read_grid
from .grid import read_grid, write_grid  # noqa: F401
from .layout import dataset_files, load_dataset, scan_dataset_dir
from .preprocess import enumerate_configs
from .synthetic import check_scorable, generate_scene, recovered_pccs
from .timeseries import BASELINE_MONTHS, percent_changes, read_series_csv, series_by_config, write_series_csv
from .zones import read_zones, write_zones

__all__ = ["main"]


def _print_issue(issues, message):
    issues.append(message)
    print(f"  problem: {message}")


def cmd_validate(args):
    """Check a run config and its referenced data; exit 0 iff clean."""
    run = parse_run_config(args.config)
    issues = []

    try:
        zones = read_zones(run.zones_path)
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
            # the drop's baseline: the months before the event that its series holds
            before = min(BASELINE_MONTHS, hurricane.window.months_before)
            baseline = [event_month - k for k in range(1, before + 1)]
            if not available[0] <= event_month <= available[-1]:
                _print_issue(
                    issues,
                    f"{dataset.name}: event month {event_month} of {hurricane.name} "
                    f"outside available range {available[0]}..{available[-1]}",
                )
            elif not any(month in radiance_files for month in baseline):
                _print_issue(
                    issues,
                    f"{dataset.name}: no radiance file in the {len(baseline)} baseline months before event "
                    f"month {event_month} of {hurricane.name}, so every zone's drop is undefined",
                )
        need_quality = any(c.quality_filter for c in configs)
        try:
            # every check of a load is on whole files, so no zone's cells need keeping
            _, _, built, _ = load_dataset(dataset, *run.load_range, need_quality, ())
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


def _read_run_zones(run):
    """The run's zones; a zones file with no features is an error, as in validate."""
    zones = read_zones(run.zones_path)
    if not zones:
        raise ConfigError(f"zones file has no features: {run.zones_path}")
    return zones


def _series_dir(out_dir, dataset, label, hurricane):
    """The directory of one (dataset, config, hurricane): one ``<zone_id>.csv`` per zone."""
    return out_dir / dataset.name / label / hurricane


def cmd_extract(args):
    """Write one processed series CSV per (dataset, config, hurricane, zone)."""
    run = parse_run_config(args.config)
    out_dir = Path(args.out) if args.out else run.output_dir
    zones = _read_run_zones(run)
    failures = []
    written = 0

    for dataset, configs in run.datasets:
        need_quality = any(c.quality_filter for c in configs)
        try:
            radiance, quality, built, positions = load_dataset(
                dataset, *run.load_range, need_quality, zones
            )
        except PipelineError as exc:
            failures.append(f"{dataset.name}: {exc}")
            continue
        for zone_id, zone_positions in positions.items():
            if not zone_positions.size:
                print(f"warning: zone {zone_id} covers no {dataset.name} pixel-centers", file=sys.stderr)

        windows = [h.window for h in run.hurricanes]
        chain = series_by_config(radiance, quality, built, positions, configs, windows)
        for config, result in chain:
            if isinstance(result, PipelineError):
                failures.append(f"{dataset.name}/{config.label}: {result}")
                continue
            for hurricane, window_series in zip(run.hurricanes, result):
                series_dir = _series_dir(out_dir, dataset, config.label, hurricane.name)
                series_dir.mkdir(parents=True, exist_ok=True)
                changes = percent_changes([series.values for series in window_series]).tolist()
                for series, series_changes in zip(window_series, changes):
                    path = series_dir / f"{series.zone_id}.csv"
                    if path.exists() and not args.force:
                        failures.append(f"{path}: exists (use --force to overwrite)")
                        continue
                    write_series_csv(series, path, changes=series_changes)
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
    zones = _read_run_zones(run)
    report_path = out_dir / "report.csv"
    case_path = out_dir / "case_study.csv"
    _guard_overwrite(report_path, args.force)
    _guard_overwrite(case_path, args.force)

    series_by_key = {}
    absent = []
    for dataset, configs in run.datasets:
        for config, hurricane, zone in product(configs, run.hurricanes, zones):
            path = _series_dir(out_dir, dataset, config.label, hurricane.name) / f"{zone.zone_id}.csv"
            if not path.is_file():
                absent.append(str(path.relative_to(out_dir)))
                continue
            series = read_series_csv(path)
            if series.zone_id != zone.zone_id:
                raise ReportError(f"{path}: rows name zone {series.zone_id!r}, expected {zone.zone_id!r}")
            series_by_key[dataset.name, config.label, hurricane.name, zone.zone_id] = series
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
                changes = percent_changes(series).tolist()
                first = hurricane.window.start - series.start
                for i, month in enumerate(hurricane.window.months(), first):
                    # a month outside the series has no value, so no change
                    change = changes[i] if 0 <= i < len(changes) else float("nan")
                    text = "" if np.isnan(change) else repr(change)
                    writer.writerow(columns + [month.year, month.month, text])


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
