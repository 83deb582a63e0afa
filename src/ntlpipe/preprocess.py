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
It also makes the combinations a tree: timeseries.series_by_config runs
each distinct stage prefix once and shares it between the configs below it.

A PipelineConfig names one dataset plus one combination of stages; the
settings each stage runs at are the fixed constants below, so the paper's
comparison is over combinations, not settings. Enumerating all
combinations for a dataset yields the 12 (threshold × built × quality)
or 4 (built × quality) canonical configs, labeled like ``raw``,
``clip+built``, ``built+quality``.
"""

import enum
import math
from dataclasses import dataclass

from ._numpy import np
from .errors import ConfigError
from .quality import Dataset, high_quality_mask

__all__ = [
    "THRESHOLD_LO",
    "THRESHOLD_HI",
    "BUILT_FRACTION_MIN",
    "IMPUTATION_WINDOW_MONTHS",
    "ThresholdMode",
    "PipelineConfig",
    "threshold",
    "built_keep",
    "apply_built_mask",
    "impute_pixel",
    "quality_filter_and_impute",
    "run_pipeline",
    "enumerate_configs",
    "config_from_label",
]

# The fixed pre-processing settings: the threshold band in nW/cm²/sr, the
# built-up fraction a pixel needs to survive the built mask, and how many
# calendar months back imputation looks.
THRESHOLD_LO = 0.0
THRESHOLD_HI = 50.0
BUILT_FRACTION_MIN = 0.5
IMPUTATION_WINDOW_MONTHS = 12


class ThresholdMode(enum.Enum):
    NONE = "none"
    CLIP = "clip"
    REMOVE = "remove"


@dataclass(frozen=True)
class PipelineConfig:
    """One dataset + one stage combination."""

    dataset: Dataset
    threshold_mode: ThresholdMode = ThresholdMode.NONE
    built_mask: bool = False
    quality_filter: bool = False

    def __post_init__(self):
        object.__setattr__(self, "threshold_mode", ThresholdMode(self.threshold_mode))
        if self.dataset is Dataset.VNP46A2 and self.threshold_mode is not ThresholdMode.NONE:
            raise ConfigError("VNP46A2 pipelines cannot threshold (already filtered upstream)")

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


def threshold(raster, mode, lo=THRESHOLD_LO, hi=THRESHOLD_HI):
    """Clip valid values of a raster or of each month of a stack into [lo, hi], or remove the ones outside it."""
    mode = ThresholdMode(mode)
    if mode is ThresholdMode.NONE:
        raise ValueError("threshold mode must be clip or remove")
    if not lo < hi:
        raise ValueError(f"threshold bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if mode is ThresholdMode.CLIP:
        return raster.with_values(np.clip(raster.values, lo, hi), raster.missing)
    out_of_range = (raster.values < lo) | (raster.values > hi)
    return raster.with_values(raster.values.copy(), raster.missing | out_of_range)


def built_keep(spec, built_fraction, built_fraction_threshold=BUILT_FRACTION_MIN):
    """The cells of a grid the built mask keeps: a bool array shaped as the built-fraction grid.

    A cell is kept when its built fraction is valid and at least the
    threshold: with no land-cover evidence the built criterion cannot be
    met. Raises as apply_built_mask does, for a raster on ``spec``.
    """
    if built_fraction is None:
        raise ConfigError("built masking is enabled but no built-fraction grid was given")
    if spec != built_fraction.spec:
        raise ValueError("raster and built-fraction grids disagree on geometry")
    if not 0.0 <= built_fraction_threshold <= 1.0:
        raise ValueError(f"built fraction threshold {built_fraction_threshold} outside [0, 1]")
    return built_fraction.valid & (built_fraction.values >= built_fraction_threshold)


def apply_built_mask(raster, built_fraction, built_fraction_threshold=BUILT_FRACTION_MIN):
    """Keep cells at least threshold-fraction built, in a raster or each month of a stack; others go missing.

    Cells where the built fraction itself is missing are dropped too (see
    built_keep).
    """
    keep = built_keep(raster.spec, built_fraction, built_fraction_threshold)
    return raster.with_values(raster.values.copy(), raster.missing | ~keep)


# Where a weighted sum of finite values overflows float64, it is summed again
# scaled by this exact power of two. The weights 1/d of distinct months add up
# to less than 2^8 for fewer than e^255 contributors, so the scaled sum cannot
# overflow.
_SUM_SCALE = 2.0**-8


def impute_pixel(history, t, window=IMPUTATION_WINDOW_MONTHS):
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


def quality_filter_and_impute(stack, quality_stack, dataset):
    """Mask untrusted pixels in a monthly stack and impute them from history.

    Trusted pixels (high-quality flag and an actual observation) pass
    through bit-exact, and a stack with no other pixel comes back as
    itself. Every other pixel-month is re-estimated from that pixel's
    trusted observations in the preceding IMPUTATION_WINDOW_MONTHS calendar months,
    weighted by inverse month distance; with no usable history it becomes
    missing. The quality stack must cover the same months on the same grid.
    """
    if quality_stack is None:
        raise ConfigError("quality filtering is enabled but no quality stack was given")
    if (stack.months, stack.spec) != (quality_stack.months, quality_stack.spec):
        raise ValueError("radiance and quality stacks disagree on months or geometry")
    trusted = high_quality_mask(quality_stack, dataset) & ~stack.missing
    if trusted.all():
        return stack
    ordinals = [m.ordinal for m in stack.months]

    # every untrusted pixel-month goes missing unless its history refills it
    new_values, new_missing = stack.values.copy(), ~trusted
    # each month as one row of its cells: a month's untrusted cells are gathered
    # by flat index, so the month's temporaries scale with them
    rows = (len(ordinals), -1)
    values, trusted, refills = stack.values.reshape(rows), trusted.reshape(rows), new_values.reshape(rows)
    for i, target in enumerate(new_missing.reshape(rows)):
        cells = np.flatnonzero(target)
        if not cells.size:
            continue
        wsum, vsum = np.zeros(cells.size), np.zeros(cells.size)
        lo, hi = np.full(cells.size, np.inf), np.full(cells.size, -np.inf)
        lookback = []  # (j, dist) in the window; a weight array is rebuilt only where a sum overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(i - 1, -1, -1):
                dist = ordinals[i] - ordinals[j]
                if dist > IMPUTATION_WINDOW_MONTHS:
                    break
                lookback.append((j, dist))
                trusted_j, values_j = trusted[j, cells], values[j, cells]
                w = np.where(trusted_j, 1.0 / dist, 0.0)
                wsum += w
                vsum += w * values_j
                lo = np.where(trusted_j, np.minimum(lo, values_j), lo)
                hi = np.where(trusted_j, np.maximum(hi, values_j), hi)
            refillable = wsum > 0.0
            mean = vsum[refillable] / wsum[refillable]
            over = ~np.isfinite(mean)
            if over.any():
                # the weighted sum overflowed at these pixels: sum it again, scaled
                scaled = sum(
                    np.where(trusted[j, cells], 1.0 / dist, 0.0) * (values[j, cells] * _SUM_SCALE)
                    for j, dist in lookback
                )[refillable]
                mean[over] = scaled[over] / wsum[refillable][over] / _SUM_SCALE
            # clamp accumulation rounding back into the contributor envelope,
            # matching the scalar impute_pixel contract
            refilled = cells[refillable]
            refills[i, refilled] = np.clip(mean, lo[refillable], hi[refillable])
        target[refilled] = False
    return stack.with_values(new_values, new_missing)


def run_pipeline(stack, quality_stack, built_fraction, config):
    """Apply a config's enabled stages to a radiance stack, canonical order.

    Quality filtering requires ``quality_stack``; built masking requires
    ``built_fraction``; pass None for inputs whose stage is disabled. With
    every stage disabled the stack comes back unchanged. Each stage is one
    call on the whole stack.
    """
    out = stack
    if config.quality_filter:
        out = quality_filter_and_impute(out, quality_stack, config.dataset)
    if config.threshold_mode is not ThresholdMode.NONE:
        out = threshold(out, config.threshold_mode)
    if config.built_mask:
        out = apply_built_mask(out, built_fraction)
    return out


def enumerate_configs(dataset):
    """All method combinations for a dataset, in canonical report order.

    12 configs for VSC-NTL (3 threshold modes x built on/off x quality
    on/off), 4 for VNP46A2 (thresholding unavailable). The order walks
    quality slowest, built next, threshold fastest, so it starts at ``raw``
    and ends at the all-stages config.
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
        )
        for quality in (False, True)
        for built in (False, True)
        for mode in modes
    )


def config_from_label(dataset, label):
    """The config of enumerate_configs(dataset) whose label has the parts of ``label``, in any order.

    ``quality+clip`` names the config labelled ``clip+quality``; the
    config's own ``label`` is always canonical.
    """
    parts = sorted(label.split("+"))
    known = {part for kind in Dataset for config in enumerate_configs(kind) for part in config.label.split("+")}
    for part in parts:
        if part not in known:
            raise ConfigError(f"unknown method {part!r} in label {label!r}")
    configs = enumerate_configs(dataset)
    for config in configs:
        if sorted(config.label.split("+")) == parts:
            return config
    valid = ", ".join(config.label for config in configs)
    raise ConfigError(f"label {label!r} names no {dataset.value} method combination; valid labels: {valid}")
