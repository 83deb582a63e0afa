"""Correlation of event-month radiance drops against damage ratios.

Samples pool zone-hurricane pairs: every zone of every configured
hurricane contributes one (drop, damage_ratio) point, and each method
combination gets a single correlation over that pooled set. Zones are
dropped from the pool when their damage ratio sits below the cutoff or
their event drop is undefined, and every exclusion is recorded with its
reason.

The Pearson coefficient is computed in two passes (means first, then
centered moments). A single-pass running-sum formula would cancel
catastrophically on near-constant radiance series, which zonal means of
stable city lights routinely are.
"""

import csv
import math
from dataclasses import dataclass

from .errors import ConfigError, ReportError, StatsError
from .grid import replacing
from .preprocess import enumerate_configs
from .timeseries import change_at

__all__ = [
    "DropSample",
    "ReportRow",
    "CorrelationReport",
    "pearson",
    "filter_zones",
    "drop_samples",
    "select_case_study_zones",
    "correlate_method",
    "build_report",
    "write_report_csv",
]

MIN_DAMAGE = 0.01  # the default damage ratio below which a zone is left out of a correlation


@dataclass(frozen=True)
class DropSample:
    """One zone-hurricane observation: event drop vs damage ratio."""

    zone_id: str
    damage_ratio: float
    drop: float
    hurricane: str = ""
    population: int = 0


@dataclass(frozen=True)
class ReportRow:
    """One correlation result: dataset, method combination, pcc, samples."""

    dataset: object
    methods: str
    pcc: float
    n_samples: int


@dataclass(frozen=True)
class CorrelationReport:
    """All method-combination rows."""

    rows: tuple


def pearson(xs, ys):
    """Product-moment correlation of two equal-length samples.

    Two-pass evaluation: center on the means, then form moments. The
    result is clamped into [-1, 1] to absorb last-ulp rounding. Fewer than
    two points, length mismatch, non-finite entries, or a constant
    argument make the coefficient undefined and raise StatsError.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise StatsError(f"sample length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise StatsError(f"need at least 2 samples, got {n}")
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        raise StatsError("samples contain a non-finite value")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("zero variance makes the correlation undefined")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    # sqrt of the product rounds once where two sqrts round twice, keeping
    # perfectly linear samples at exactly +/-1; fall back to the two-sqrt
    # form only when the product leaves the double range
    denom = math.sqrt(sxx * syy)
    if math.isinf(denom) or denom == 0.0:
        denom = math.sqrt(sxx) * math.sqrt(syy)
    r = sxy / denom
    return min(1.0, max(-1.0, r))


def filter_zones(samples, min_damage=MIN_DAMAGE):
    """Split samples into (kept, excluded-with-reason) for correlation.

    Kept samples have damage_ratio at or above the cutoff and a defined
    (non-NaN) drop. Excluded entries come back as (sample, reason) pairs.
    """
    kept = []
    excluded = []
    for sample in samples:
        if sample.damage_ratio < min_damage:
            excluded.append((sample, f"damage_ratio {sample.damage_ratio} below {min_damage}"))
        elif math.isnan(sample.drop):
            excluded.append((sample, "event drop undefined"))
        else:
            kept.append(sample)
    return kept, excluded


def drop_samples(zones, table, window, hurricane=""):
    """One DropSample per zone, from its row of the window table over window.

    ``table`` holds one row of radiance per zone in ``zones`` order, each
    over the window's months: a (zones x window months) ndarray, as
    series_by_config yields it, or a list of each zone's series values.
    Each drop is the negated change_at the event month, equal bit for bit
    to event_drop on the row's series.
    """
    rows = table.tolist() if hasattr(table, "tolist") else table  # an ndarray's rows as Python floats
    widths = sorted({len(row) for row in rows})
    if len(rows) != len(zones) or widths not in ([], [len(window)]):
        raise ValueError(f"table of shape {len(rows)} x {widths} for {len(zones)} zones over {len(window)} months")
    event = window.months_before  # the event month's index in the window
    return [
        DropSample(zone.zone_id, zone.damage_ratio, -change_at(row, event), hurricane, zone.population)
        for zone, row in zip(zones, rows)
    ]


def _population_band(zones, lo, hi):
    if lo is None and hi is None:
        return list(zones)
    return [
        z
        for z in zones
        if (lo is None or z.population >= lo) and (hi is None or z.population <= hi)
    ]


def select_case_study_zones(zones, k=3, population_lo=None, population_hi=None):
    """The k most-damaged and k least-damaged zones, deterministically.

    Damage ties break toward the lexicographically smaller zone_id. The
    optional population band restricts candidates to a comparable size
    class before selection; by default it is off. Works on anything
    carrying zone_id, damage_ratio, and population attributes.
    """
    if k < 1:
        raise ConfigError(f"case-study k must be at least 1, got {k}")
    candidates = _population_band(zones, population_lo, population_hi)
    if len(candidates) < 2 * k:
        raise ConfigError(
            f"case study needs at least {2 * k} zones, got {len(candidates)}"
        )
    top = sorted(candidates, key=lambda z: (-z.damage_ratio, z.zone_id))[:k]
    bottom = sorted(candidates, key=lambda z: (z.damage_ratio, z.zone_id))[:k]
    return top, bottom


def correlate_method(samples, dataset, label, min_damage=MIN_DAMAGE):
    """One report row: pooled correlation for one method combination."""
    kept, _ = filter_zones(samples, min_damage)
    try:
        pcc = pearson([s.drop for s in kept], [s.damage_ratio for s in kept])
    except StatsError as exc:
        raise StatsError(f"{label}: {exc}") from None
    return ReportRow(dataset=dataset, methods=label, pcc=pcc, n_samples=len(kept))


def build_report(samples_by_config, datasets, min_damage=MIN_DAMAGE, configs=None):
    """Correlate every configured method combination into one report.

    ``samples_by_config`` maps (dataset, canonical label) to that config's
    pooled DropSamples. Rows come out per dataset, in ``datasets`` order:
    by default every combination in canonical enumeration order, or, for a
    dataset that the optional ``configs`` mapping names, the
    PipelineConfigs it lists, in that order. Combinations the report
    expects but the mapping lacks abort it, listed by name.
    """
    expected = [
        (dataset, config.label)
        for dataset in datasets
        for config in (configs or {}).get(dataset, enumerate_configs(dataset))
    ]
    absent = [key for key in expected if key not in samples_by_config]
    if absent:
        names = ", ".join(f"{d.value}/{label}" for d, label in absent)
        raise ReportError(f"missing results for: {names}")
    rows = tuple(
        correlate_method(samples_by_config[key], key[0], key[1], min_damage)
        for key in expected
    )
    return CorrelationReport(rows=rows)


def write_report_csv(report, path):
    """Write report rows as CSV with columns dataset,methods,pcc,n_samples, whole or not at all (grid.replacing)."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "methods", "pcc", "n_samples"])
        for row in report.rows:
            writer.writerow([row.dataset.value, row.methods, repr(row.pcc), row.n_samples])
