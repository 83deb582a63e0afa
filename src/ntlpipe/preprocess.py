"""The three radiance pre-processing methods and their composition.

Three independently switchable stages clean a monthly radiance stack:

* quality filtering: untrusted pixels are masked and refilled from their
  own recent trusted history by inverse-time-distance weighting;
* value thresholding: clip pins values into [lo, hi], remove discards
  values outside it (VSC-NTL only; the other product is already filtered
  upstream, so thresholding is disabled for it by construction);
* built masking: pixels whose built-up fraction falls below a threshold
  are dropped, keeping only light from structures.

When several stages are enabled they always run in one canonical order:
quality/imputation first (it needs each pixel's temporal history before
anything discards data), then thresholding (it catches blooming, including
any extreme imputed value), then the purely spatial built mask. The order
is fixed, not configurable, so every method combination is reproducible.
It also makes the combinations a tree: run_stage_tree runs each distinct
stage prefix once and shares it between the configs below it.

A PipelineConfig names one dataset plus one combination of stages, and
carries every tunable. Enumerating all combinations for a dataset yields
the 12 (threshold × built × quality) or 4 (built × quality) canonical
configs, labeled like ``raw``, ``clip+built``, ``built+quality``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PipelineError
from .quality import Dataset, high_quality_mask

__all__ = [
    "ThresholdMode",
    "PipelineConfig",
    "threshold",
    "apply_built_mask",
    "impute_pixel",
    "quality_filter_and_impute",
    "run_pipeline",
    "run_stage_tree",
    "enumerate_configs",
    "config_from_label",
]


class ThresholdMode(enum.Enum):
    NONE = "none"
    CLIP = "clip"
    REMOVE = "remove"


@dataclass(frozen=True)
class PipelineConfig:
    """One dataset + one stage combination + all tunables."""

    dataset: Dataset
    threshold_mode: ThresholdMode = ThresholdMode.NONE
    built_mask: bool = False
    built_fraction_threshold: float = 0.5
    quality_filter: bool = False
    threshold_lo: float = 0.0
    threshold_hi: float = 50.0
    imputation_window_months: int = 12

    def __post_init__(self):
        object.__setattr__(self, "threshold_mode", ThresholdMode(self.threshold_mode))
        if self.dataset is Dataset.VNP46A2 and self.threshold_mode is not ThresholdMode.NONE:
            raise ConfigError("VNP46A2 pipelines cannot threshold (already filtered upstream)")
        if not self.threshold_lo < self.threshold_hi:
            raise ConfigError(
                f"threshold_lo must be below threshold_hi, got [{self.threshold_lo}, {self.threshold_hi}]"
            )
        if not 0.0 <= self.built_fraction_threshold <= 1.0:
            raise ConfigError(
                f"built_fraction_threshold {self.built_fraction_threshold} outside [0, 1]"
            )
        if self.imputation_window_months < 1:
            raise ConfigError(
                f"imputation_window_months must be positive, got {self.imputation_window_months}"
            )

    @property
    def label(self):
        """Canonical method-combination name: threshold, built, quality."""
        parts = []
        if self.threshold_mode is not ThresholdMode.NONE:
            parts.append(self.threshold_mode.value)
        if self.built_mask:
            parts.append("built")
        if self.quality_filter:
            parts.append("quality")
        return "+".join(parts) if parts else "raw"


def threshold(raster, mode, lo=0.0, hi=50.0):
    """Clip valid values into [lo, hi], or remove the ones outside it."""
    mode = ThresholdMode(mode)
    if mode is ThresholdMode.NONE:
        raise ValueError("threshold mode must be clip or remove")
    if not lo < hi:
        raise ValueError(f"threshold bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if mode is ThresholdMode.CLIP:
        return raster.with_values(np.clip(raster.values, lo, hi), raster.missing)
    out_of_range = (raster.values < lo) | (raster.values > hi)
    return raster.with_values(raster.values, raster.missing | out_of_range)


def apply_built_mask(raster, built_fraction, built_fraction_threshold=0.5):
    """Keep cells at least threshold-fraction built; all others go missing.

    Cells where the built fraction itself is missing are dropped too: with
    no land-cover evidence the built criterion cannot be met.
    """
    if raster.spec != built_fraction.spec:
        raise ValueError("raster and built-fraction grids disagree on geometry")
    if not 0.0 <= built_fraction_threshold <= 1.0:
        raise ValueError(f"built fraction threshold {built_fraction_threshold} outside [0, 1]")
    keep = built_fraction.valid & (built_fraction.values >= built_fraction_threshold)
    return raster.with_values(raster.values, raster.missing | ~keep)


# Where a weighted sum of finite values overflows float64, it is summed again
# scaled by this exact power of two. The weights 1/d of distinct months add up
# to less than 2^8 for fewer than e^255 contributors, so the scaled sum cannot
# overflow.
_SUM_SCALE = 2.0**-8


def impute_pixel(history, t, window=12):
    """Refill one pixel at month ``t`` from its trusted recent history.

    ``history`` is an ordered sequence of (month_index, value,
    high_quality) triples with strictly increasing integer month indices.
    High-quality entries at months m in [t - window, t) contribute with
    weight 1 / (t - m); the result is the weighted mean, or NaN when no
    such entry exists. ``t`` must not itself appear as a high-quality entry
    (trusted observations are never imputed over). The result always lies
    within [min, max] of the contributing values: the exact weighted mean
    does by construction, and accumulation rounding is clamped away so a
    constant history imputes exactly that constant. A weighted sum that
    overflows is summed again, scaled, so values near the float64 limit
    still impute their weighted mean.
    """
    if window < 1:
        raise ValueError(f"imputation window must be positive, got {window}")
    num = 0.0
    den = 0.0
    lo = math.inf
    hi = -math.inf
    terms = []
    prev = None
    for m, value, high_quality in history:
        if prev is not None and m <= prev:
            raise ValueError("history months must be strictly increasing")
        prev = m
        if high_quality and m == t:
            raise ValueError(f"month {t} is already a high-quality observation")
        if not high_quality or not t - window <= m < t:
            continue
        w = 1.0 / (t - m)
        num += w * value
        den += w
        lo = min(lo, value)
        hi = max(hi, value)
        terms.append((w, value))
    if den <= 0.0:
        return float("nan")
    mean = num / den
    if not math.isfinite(mean):
        mean = math.fsum(w * (value * _SUM_SCALE) for w, value in terms) / den / _SUM_SCALE
    return min(max(mean, lo), hi)


def quality_filter_and_impute(stack, quality_stack, dataset, window=12):
    """Mask untrusted pixels in a monthly stack and impute them from history.

    Trusted pixels (high-quality flag and an actual observation) pass
    through bit-exact. Every other pixel-month is re-estimated from that
    pixel's trusted observations in the preceding ``window`` calendar
    months, weighted by inverse month distance; with no usable history it
    becomes missing. The quality stack must cover the same months on the
    same grid.
    """
    if window < 1:
        raise ValueError(f"imputation window must be positive, got {window}")
    if not stack.aligned_with(quality_stack):
        raise ValueError("radiance and quality stacks disagree on months or geometry")
    values, missing = stack.cube()
    trusted = np.stack(
        [high_quality_mask(q, dataset) for q in quality_stack.grids]
    ) & ~missing
    ordinals = [m.ordinal for m in stack.months]
    shape = values.shape[1:]

    out = []
    for i, grid in enumerate(stack.grids):
        target = ~trusted[i]
        if not target.any():
            out.append(grid)
            continue
        wsum = np.zeros(shape)
        vsum = np.zeros(shape)
        lo = np.full(shape, np.inf)
        hi = np.full(shape, -np.inf)
        lookback = []  # (j, dist) in the window; a weight array is rebuilt only where a sum overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(i - 1, -1, -1):
                dist = ordinals[i] - ordinals[j]
                if dist > window:
                    break
                lookback.append((j, dist))
                w = np.where(trusted[j], 1.0 / dist, 0.0)
                wsum += w
                vsum += w * values[j]
                lo = np.where(trusted[j], np.minimum(lo, values[j]), lo)
                hi = np.where(trusted[j], np.maximum(hi, values[j]), hi)
            refillable = target & (wsum > 0.0)
            new_values = values[i].copy()
            mean = vsum[refillable] / wsum[refillable]
            over = ~np.isfinite(mean)
            if over.any():
                # the weighted sum overflowed at these pixels: sum it again, scaled
                scaled = sum(
                    np.where(trusted[j], 1.0 / dist, 0.0) * (values[j] * _SUM_SCALE) for j, dist in lookback
                )[refillable]
                mean[over] = scaled[over] / wsum[refillable][over] / _SUM_SCALE
            # clamp accumulation rounding back into the contributor envelope,
            # matching the scalar impute_pixel contract
            new_values[refillable] = np.clip(mean, lo[refillable], hi[refillable])
        new_missing = np.where(target, ~refillable, missing[i])
        out.append(grid.with_values(new_values, new_missing))
    return stack.with_grids(out)


def _quality_stage(stack, quality_stack, config):
    if quality_stack is None:
        raise ConfigError("quality filtering is enabled but no quality stack was given")
    return quality_filter_and_impute(
        stack, quality_stack, config.dataset, config.imputation_window_months
    )


def _threshold_stage(stack, config):
    return stack.with_grids(
        threshold(g, config.threshold_mode, config.threshold_lo, config.threshold_hi)
        for g in stack.grids
    )


def _built_stage(stack, built_fraction, config):
    if built_fraction is None:
        raise ConfigError("built masking is enabled but no built-fraction grid was given")
    return stack.with_grids(
        apply_built_mask(g, built_fraction, config.built_fraction_threshold) for g in stack.grids
    )


def run_pipeline(stack, quality_stack, built_fraction, config):
    """Apply a config's enabled stages to a radiance stack, canonical order.

    Quality filtering requires ``quality_stack``; built masking requires
    ``built_fraction``; pass None for inputs whose stage is disabled. With
    every stage disabled the stack comes back unchanged.
    """
    out = stack
    if config.quality_filter:
        out = _quality_stage(out, quality_stack, config)
    if config.threshold_mode is not ThresholdMode.NONE:
        out = _threshold_stage(out, config)
    if config.built_mask:
        out = _built_stage(out, built_fraction, config)
    return out


def _stage_keys(config):
    """What each stage of a config computes from: quality, threshold, built; None when off."""
    return (
        (config.dataset, config.imputation_window_months) if config.quality_filter else None,
        (config.threshold_mode, config.threshold_lo, config.threshold_hi)
        if config.threshold_mode is not ThresholdMode.NONE
        else None,
        config.built_fraction_threshold if config.built_mask else None,
    )


def run_stage_tree(stack, quality_stack, built_fraction, configs):
    """Run the pipelines of many configs, sharing the stages they have in common.

    The canonical stage order makes the configs a tree: each distinct
    quality pass runs once, each threshold once below it, the built mask
    last. Yields ``(group, processed)`` per distinct stage combination, in
    tree order, where ``group`` lists the configs asking for it in their
    given order and ``processed`` equals ``run_pipeline`` for each of them;
    a stage that raises a PipelineError yields ``(group, error)`` for every
    config below it instead. At most one quality result and one branch
    below it are alive at a time, and the quality result is dropped after
    the last config that needs it.
    """
    tree = {}
    for config in configs:
        quality, thresh, built = _stage_keys(config)
        tree.setdefault(quality, {}).setdefault(thresh, {}).setdefault(built, []).append(config)
    for by_threshold in tree.values():
        below = [c for by_built in by_threshold.values() for group in by_built.values() for c in group]
        try:
            base = _quality_stage(stack, quality_stack, below[0]) if below[0].quality_filter else stack
        except PipelineError as exc:
            yield below, exc
            continue
        for by_built in by_threshold.values():
            first = next(iter(by_built.values()))[0]
            thresholded = first.threshold_mode is not ThresholdMode.NONE
            branch = _threshold_stage(base, first) if thresholded else base
            for group in by_built.values():
                try:
                    leaf = _built_stage(branch, built_fraction, group[0]) if group[0].built_mask else branch
                except PipelineError as exc:
                    yield group, exc
                    continue
                yield group, leaf
                # each result goes once served, else it lives on while the next one is built
                del leaf
            del branch
        del base


def enumerate_configs(dataset, **tunables):
    """All method combinations for a dataset, in canonical report order.

    12 configs for VSC-NTL (3 threshold modes x built on/off x quality
    on/off), 4 for VNP46A2 (thresholding unavailable). The order walks
    quality slowest, built next, threshold fastest, so it starts at ``raw``
    and ends at the all-stages config. Extra keyword arguments set shared
    tunables on every config.
    """
    if dataset is Dataset.VNP46A2:
        modes = (ThresholdMode.NONE,)
    else:
        modes = (ThresholdMode.NONE, ThresholdMode.CLIP, ThresholdMode.REMOVE)
    return tuple(
        PipelineConfig(
            dataset=dataset,
            threshold_mode=mode,
            built_mask=built,
            quality_filter=quality,
            **tunables,
        )
        for quality in (False, True)
        for built in (False, True)
        for mode in modes
    )


def config_from_label(dataset, label, **tunables):
    """Build the PipelineConfig for a method-combination label.

    Accepts parts in any order (``quality+clip`` equals ``clip+quality``);
    the config's own ``label`` is always canonical.
    """
    parts = label.split("+") if label != "raw" else []
    mode = ThresholdMode.NONE
    built = False
    quality = False
    seen = set()
    for part in parts:
        if part in seen:
            raise ConfigError(f"duplicate method {part!r} in label {label!r}")
        seen.add(part)
        if part in ("clip", "remove"):
            if mode is not ThresholdMode.NONE:
                raise ConfigError(f"label {label!r} names two threshold modes")
            mode = ThresholdMode(part)
        elif part == "built":
            built = True
        elif part == "quality":
            quality = True
        else:
            raise ConfigError(f"unknown method {part!r} in label {label!r}")
    return PipelineConfig(
        dataset=dataset,
        threshold_mode=mode,
        built_mask=built,
        quality_filter=quality,
        **tunables,
    )
