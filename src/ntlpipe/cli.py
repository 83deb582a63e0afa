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
import math
import os
import sys
from collections import deque
from itertools import product
from pathlib import Path

from .analysis import build_report, drop_samples, select_case_study_zones, write_report_csv
from .config import parse_run_config, parse_scene_spec
from .errors import ConfigError, PipelineError, ReportError, StatsError
# read_grid is not called here: the bench tracer's test looks it up as ntlpipe.cli.read_grid
from .grid import read_grid, replacing, write_grid  # noqa: F401
from .layout import BUILT_FRACTION_FILENAME, load_dataset, month_paths, scan_dataset_dir
from .preprocess import enumerate_configs
from .synthetic import scene_months, scene_pccs
from .timeseries import (
    ZoneSeries,
    change_at,
    drop_window,
    percent_changes,
    read_series_csv,
    series_by_config,
    spell_table,
    write_series_csv,
)
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
        zones = _read_run_zones(run)
    except PipelineError as exc:
        zones = None
        _print_issue(issues, str(exc))

    for dataset, configs in run.datasets:
        radiance_files, quality_files = scan_dataset_dir(dataset)
        if not radiance_files:
            _print_issue(issues, f"{dataset.name}: no radiance files in {dataset.raster_dir}")
            continue
        available = sorted(radiance_files)
        for hurricane in run.hurricanes:
            event_month = hurricane.window.event_month
            # the drop's baseline: the months before the event that its series holds
            baseline = drop_window(hurricane.window).months()[:-1]
            if not available[0] <= event_month <= available[-1]:
                _print_issue(
                    issues,
                    f"{dataset.name}: event month {event_month} of {hurricane.name} "
                    f"outside available range {available[0]}..{available[-1]}",
                )
            elif not baseline:
                _print_issue(
                    issues,
                    f"{dataset.name}: the window of {hurricane.name} holds no month before event "
                    f"month {event_month}, so every zone's drop is undefined",
                )
            elif not any(month in radiance_files for month in baseline):
                _print_issue(
                    issues,
                    f"{dataset.name}: no radiance file in the {len(baseline)} baseline months before event "
                    f"month {event_month} of {hurricane.name}, so every zone's drop is undefined",
                )
        try:
            # every check of a load is on whole files, so no zone's cells need keeping
            load_dataset(dataset, *run.load_range, configs, ())
        except PipelineError as exc:
            _print_issue(issues, f"{dataset.name}: {exc}")
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
    """The run's zones, for every command; a zones file with no features is an error."""
    zones = read_zones(run.zones_path)
    if not zones:
        raise ConfigError(f"{run.zones_path}: the zones file has no features")
    return zones


def _series_dir(out_dir, dataset, label, hurricane):
    """The directory of one (dataset, config, hurricane): one ``<zone_id>.csv`` per zone."""
    return out_dir / dataset.name / label / hurricane


# Threads that create and write the series files while the chain runs on the main thread. On 2 vCPUs one
# gained nothing, each of its syscalls waiting for the main thread to let go of the GIL, and three to six did
# no better than two.
SERIES_WRITERS = 2
# Directories handed to the writers and not yet taken back, at most: the chain waits for the oldest beyond it
SERIES_DIRS_PENDING = 2 * SERIES_WRITERS


def cmd_extract(args):
    """Write one processed series CSV per (dataset, config, hurricane, zone).

    The chain (series_by_config, percent_changes, spell_table) runs on this
    thread. Each (dataset, config, hurricane) directory's spelled rows go
    to one of SERIES_WRITERS threads, which only make the directory and
    create and write its files. Directories are taken back in the order
    they were handed over, so refusals and errors come out in dataset,
    config, hurricane, zone order, as they would if this thread wrote
    every file. Every writer has ended when this returns.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at the top: no other command starts a thread

    run = parse_run_config(args.config)
    out_dir = Path(args.out) if args.out else run.output_dir
    zones = _read_run_zones(run)
    failures = []
    written = 0
    pending = deque()  # futures of the directories handed over, oldest first

    def take_back(keep):
        """Add the oldest directories' counts and refusals until at most ``keep`` are pending.

        A writer's error is raised here, and the directories handed over
        after it that no writer has started are cancelled: written in
        turn, none of them would be.
        """
        nonlocal written
        while len(pending) > keep:
            future = pending.popleft()
            try:
                count, refusals = future.result()
            except BaseException:
                for later in pending:
                    later.cancel()
                pending.clear()
                raise
            written += count
            failures.extend(refusals)

    with ThreadPoolExecutor(SERIES_WRITERS) as writers:
        try:
            for dataset, configs in run.datasets:
                try:
                    radiance, quality, built, positions = load_dataset(dataset, *run.load_range, configs, zones)
                except PipelineError as exc:
                    take_back(0)  # an earlier dataset's refusals come first
                    failures.append(f"{dataset.name}: {exc}")
                    continue
                for zone_id, zone_positions in positions.items():
                    if not zone_positions.size:
                        print(f"warning: zone {zone_id} covers no {dataset.name} pixel-centers", file=sys.stderr)

                windows = [h.window for h in run.hurricanes]
                chain = series_by_config(radiance, quality, built, positions, configs, windows)
                # handed over: the chain frees each cube after its last stage
                del radiance, quality, built
                for config, tables in chain:
                    for hurricane, table in zip(run.hurricanes, tables):
                        series_dir = _series_dir(out_dir, dataset, config.label, hurricane.name)
                        # str and float lists only, and numpy has run by now: a writer runs no numpy code
                        rows = list(zip(positions, table.tolist(), spell_table(table, percent_changes(table))))
                        start = hurricane.window.start
                        pending.append(writers.submit(_write_series_dir, series_dir, start, rows, args.force))
                        take_back(SERIES_DIRS_PENDING)
        finally:
            # also when this thread raised: an error of a directory handed over before it comes first
            take_back(0)

    print(f"extract: wrote {written} series file(s) under {out_dir}")
    if failures:
        print(f"extract: {len(failures)} failure(s)", file=sys.stderr)
        for failure in failures:
            print(f"  failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _write_series_dir(series_dir, start, rows, force):
    """Make one series directory and write a file per (zone_id, values, fields) row; return (written, refusals).

    Without ``force``, a file that exists is refused, not written, and its
    refusal is listed in row order.
    """
    series_dir.mkdir(parents=True, exist_ok=True)
    written, refusals = 0, []
    for zone_id, values, fields in rows:
        path = series_dir / f"{zone_id}.csv"
        if path.exists() and not force:
            refusals.append(f"{path}: exists (use --force to overwrite)")
            continue
        write_series_csv(ZoneSeries(zone_id, start, values), path, fields)
        written += 1
    return written, refusals


def _guard_overwrite(path, force):
    if path.exists() and not force:
        raise ConfigError(f"{path}: exists (use --force to overwrite)")


def _check_window(series, path, zone, hurricane):
    """Refuse a series read from path unless it is its zone's, over the hurricane's window exactly."""
    if series.zone_id != zone.zone_id:
        raise ReportError(f"{path}: rows name zone {series.zone_id!r}, expected {zone.zone_id!r}")
    window = hurricane.window
    if series.start != window.start or len(series.values) != len(window):
        raise ReportError(
            f"{path}: months {series.start}..{series.start + (len(series.values) - 1)} are not the window "
            f"{window.start}..{window.end} of {hurricane.name}; re-run extract"
        )


def cmd_report(args):
    """Correlate extracted drops into report.csv; emit case_study.csv."""
    run = parse_run_config(args.config)
    out_dir = Path(args.out) if args.out else run.output_dir
    zones = _read_run_zones(run)
    report_path = out_dir / "report.csv"
    case_path = out_dir / "case_study.csv"
    _guard_overwrite(report_path, args.force)
    _guard_overwrite(case_path, args.force)

    # one table per (dataset, config, hurricane): a row per zone, its series values read from its file
    tables = {}
    absent = []
    for dataset, configs in run.datasets:
        for config, hurricane in product(configs, run.hurricanes):
            series_dir = _series_dir(out_dir, dataset, config.label, hurricane.name)
            # each file's path is a string on its directory's, joined once
            where, relative = f"{series_dir}{os.sep}", f"{series_dir.relative_to(out_dir)}{os.sep}"
            found = []
            for zone in zones:
                path = f"{where}{zone.zone_id}.csv"
                try:
                    zone_series = read_series_csv(path)
                except (FileNotFoundError, NotADirectoryError):  # no regular file at path
                    absent.append(f"{relative}{zone.zone_id}.csv")
                    continue
                _check_window(zone_series, path, zone, hurricane)
                found.append(zone_series.values)
            tables[dataset.name, config.label, hurricane.name] = found
    if absent:
        shown = ", ".join(absent[:8]) + (" ..." if len(absent) > 8 else "")
        raise ConfigError(f"missing extraction outputs ({len(absent)}): {shown}")

    samples = {
        (dataset.kind, config.label): [
            sample
            for h in run.hurricanes
            for sample in drop_samples(zones, tables[dataset.name, config.label, h.name], h.window, h.name)
        ]
        for dataset, configs in run.datasets
        for config in configs
    }
    by_kind = {dataset.kind: configs for dataset, configs in run.datasets}
    report = build_report(samples, list(by_kind), run.min_damage, by_kind)
    # select before writing: a failed selection must not leave report.csv behind
    band_lo, band_hi = run.population_band or (None, None)
    top, bottom = select_case_study_zones(
        zones, run.case_study_k, population_lo=band_lo, population_hi=band_hi
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, report_path)
    _write_case_study_csv(case_path, run, top, bottom, zones, tables)

    print(f"report: {len(report.rows)} correlation row(s) -> {report_path}")
    print(f"report: case study for {len(top) + len(bottom)} zone(s) -> {case_path}")
    return 0


def _write_case_study_csv(path, run, top, bottom, zones, tables):
    """Percent-change rows for the selected zones, every config and month, written whole or not at all."""
    groups = [("top", zone) for zone in top] + [("bottom", zone) for zone in bottom]
    row_of = {zone.zone_id: i for i, zone in enumerate(zones)}
    rows = [row_of[zone.zone_id] for _, zone in groups]
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "methods", "hurricane", "group", "zone_id", "year", "month", "percent_change"]
        )
        for dataset, configs in run.datasets:
            for config, hurricane in product(configs, run.hurricanes):
                table = tables[dataset.name, config.label, hurricane.name]
                months = hurricane.window.months()
                for (group, zone), row in zip(groups, rows):
                    columns = [dataset.name, config.label, hurricane.name, group, zone.zone_id]
                    values = table[row]
                    for i, month in enumerate(months):
                        change = change_at(values, i)
                        text = "" if math.isnan(change) else repr(change)
                        writer.writerow(columns + [month.year, month.month, text])


def cmd_simulate(args):
    """Generate a synthetic scene a month at a time, write it out, and score every config.

    scene_months(spec) streams the scene through scene_pccs(spec, months,
    configs), which keeps only the zones' cells (spec.columns) of the
    months a drop can read. The stream writes each month's two rasters as
    the month passes, then drops them, and after the last month writes
    the built fraction and the zones. A scene the
    oracle cannot score is refused before the first month is drawn, so
    nothing is written for it.
    """
    spec = parse_scene_spec(args.config)
    if not args.out:
        raise ConfigError("simulate requires --out <directory>")
    out_dir = Path(args.out)
    months = spec.months.months()

    dataset_dir = out_dir / spec.dataset.value
    oracle_path = out_dir / "oracle.csv"
    zones_path = out_dir / "zones.geojson"
    built_path = dataset_dir / BUILT_FRACTION_FILENAME
    radiance_paths, quality_paths = zip(*(month_paths(dataset_dir, month) for month in months))
    for target in [oracle_path, zones_path, *radiance_paths, *quality_paths, built_path]:
        _guard_overwrite(target, args.force)

    def written():
        dataset_dir.mkdir(parents=True, exist_ok=True)  # on the first month's write
        # not zipped with the paths: zip would hold each month until the next is drawn
        for month, radiance, quality in scene_months(spec):
            radiance_path, quality_path = month_paths(dataset_dir, month)
            write_grid(radiance, radiance_path)
            write_grid(quality, quality_path)
            yield month, radiance, quality
            del radiance, quality  # before the next month is drawn
        # the default all-ones grid is made after the months, so no whole grid is held through the draw
        write_grid(spec.built_fraction(), built_path)
        write_zones(spec.zones, zones_path)

    results = scene_pccs(spec, written(), enumerate_configs(spec.dataset))
    failures = []
    with replacing(oracle_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "recovered_pcc"])
        for config, recovered in results:
            if isinstance(recovered, StatsError):
                # correlate_method's error already names the config
                failures.append(str(recovered))
                writer.writerow([config.label, ""])
            else:
                writer.writerow([config.label, repr(recovered)])

    print(f"simulate: wrote {2 * len(months) + 1} raster(s) under {dataset_dir}")
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
    except (PipelineError, OSError) as exc:  # an OSError names the path it could not use, such as an --out file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
