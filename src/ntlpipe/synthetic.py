"""Ground-truth scene generation: the pipeline's verification oracle.

A scene is a month-by-month radiance stack over rectangular-or-arbitrary
zones in which the event month's true radiance is constructed, per zone, as

    base * (1 - drop_gain * damage_ratio)

and every other month's is the flat base. Because the truth is recorded
before any noise is applied, the pipeline's recovered event drops and
correlation can be checked against exact expectations.

Three independent noise channels sit on top of the truth, mirroring the
failure modes the pre-processing stages exist to handle:

* multiplicative sensor noise, exp(sigma * Z) with Z standard normal, an
  unflagged noise floor no filter can remove;
* flagged cloud corruption: each pixel-month is hit with probability
  cloud_rate (a scalar, or one rate per month), its value replaced by
  pixel_base * (1 + corruption_scale * U) with U uniform on [-1, 1], and
  the quality stack marks exactly these pixels low-quality; this is
  what quality filtering targets;
* unflagged blooming: with probability bloom_rate a pixel-month is
  overwritten by a uniform draw from [bloom_lo, bloom_hi], far above the
  plausible radiance range but flagged high-quality; this is what
  thresholding targets.

Determinism contract: all randomness comes from numpy's default generator
(the PCG64 bit generator) seeded with SceneSpec.seed, drawing in a fixed
order: sensor-noise normals, then cloud flags, then corruption uniforms,
then bloom flags, then bloom uniforms, each as one (months, rows, cols)
block, skipping channels whose rate or scale is zero. Identical specs
therefore produce bit-identical scenes. Scenes are reproducible across
versions of this package but not across unrelated implementations.
"""

from dataclasses import dataclass, field

import numpy as np

from .analysis import correlate_method, drop_samples, pearson
from .errors import ConfigError, PipelineError, StatsError
from .grid import GridSpec, IntRaster, RasterGrid
from .quality import VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE, Dataset
from .stack import RasterStack
from .timeseries import EventWindow, series_by_config
from .zones import Zone, rasterize_zone, rect_ring

__all__ = [
    "NoiseSpec",
    "SceneSpec",
    "TruthRow",
    "GeneratedScene",
    "tile_zones",
    "generate_scene",
    "check_scorable",
    "recovered_pccs",
    "oracle_check",
    "VNP46A2_HIGH_QUALITY_CODE",
    "VNP46A2_LOW_QUALITY_CODE",
    "VSCNTL_HIGH_QUALITY_COUNT",
]

VSCNTL_HIGH_QUALITY_COUNT = 1


@dataclass(frozen=True)
class NoiseSpec:
    """Noise-channel magnitudes; everything defaults to off."""

    gaussian_sigma: float = 0.0
    cloud_rate: object = 0.0
    corruption_scale: float = 0.0
    bloom_rate: float = 0.0
    bloom_lo: float = 60.0
    bloom_hi: float = 500.0
    built_fraction_map: RasterGrid = None

    def __post_init__(self):
        if self.gaussian_sigma < 0:
            raise ConfigError(f"gaussian_sigma must be non-negative, got {self.gaussian_sigma}")
        if self.corruption_scale < 0:
            raise ConfigError(f"corruption_scale must be non-negative, got {self.corruption_scale}")
        rates = self.cloud_rate if np.iterable(self.cloud_rate) else (self.cloud_rate,)
        rates = tuple(float(r) for r in rates)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ConfigError(f"cloud_rate values must lie in [0, 1], got {self.cloud_rate}")
        object.__setattr__(
            self, "cloud_rate", rates if np.iterable(self.cloud_rate) else rates[0]
        )
        if not 0.0 <= self.bloom_rate <= 1.0:
            raise ConfigError(f"bloom_rate must lie in [0, 1], got {self.bloom_rate}")
        if not 0.0 < self.bloom_lo < self.bloom_hi:
            raise ConfigError(
                f"bloom range must satisfy 0 < lo < hi, got [{self.bloom_lo}, {self.bloom_hi}]"
            )

    def monthly_cloud_rates(self, n_months):
        """Per-month cloud rates, broadcasting a scalar rate."""
        if np.iterable(self.cloud_rate):
            rates = tuple(self.cloud_rate)
            if len(rates) != n_months:
                raise ConfigError(
                    f"cloud_rate lists one rate per month: got {len(rates)} for {n_months} months"
                )
            return np.array(rates, dtype=np.float64)
        return np.full(n_months, float(self.cloud_rate))


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines a scene, including its random seed."""

    seed: int
    grid: GridSpec
    zones: tuple
    months: EventWindow
    base_radiance: object
    dataset: Dataset = Dataset.VSC_NTL
    drop_gain: float = 1.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        zones = tuple(self.zones)
        if not zones:
            raise ConfigError("scene needs at least one zone")
        object.__setattr__(self, "zones", zones)
        ids = [z.zone_id for z in zones]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"scene zone ids must be unique, got {ids}")
        bases = self.base_radiance
        bases = tuple(float(b) for b in bases) if np.iterable(bases) else (float(bases),) * len(zones)
        if len(bases) != len(zones):
            raise ConfigError(
                f"base_radiance lists one value per zone: got {len(bases)} for {len(zones)} zones"
            )
        if any(b <= 0 for b in bases):
            raise ConfigError("base_radiance values must be positive")
        object.__setattr__(self, "base_radiance", bases)
        if self.drop_gain < 0:
            raise ConfigError(f"drop_gain must be non-negative, got {self.drop_gain}")
        worst = self.drop_gain * max(z.damage_ratio for z in zones)
        if worst > 1.0:
            raise ConfigError(
                f"drop_gain * max damage_ratio = {worst} would push radiance below zero"
            )
        # validates any per-month cloud-rate list against the window length
        self.noise.monthly_cloud_rates(len(self.months))
        built = self.noise.built_fraction_map
        if built is not None and built.spec != self.grid:
            raise ConfigError(f"built_fraction_map grid {built.spec} is not the scene grid {self.grid}")


@dataclass(frozen=True)
class TruthRow:
    """Noise-free per-zone expectations recorded before noise is applied."""

    zone_id: str
    damage_ratio: float
    base_radiance: float
    event_radiance: float
    true_drop_percent: float


@dataclass(frozen=True)
class GeneratedScene:
    """A generated scene: stacks, per-zone truth, and its originating spec."""

    spec: SceneSpec
    radiance: RasterStack
    quality: RasterStack
    truth: tuple
    built_fraction: RasterGrid


def tile_zones(grid, nx, ny, damage_ratios, populations=None, id_prefix="Z"):
    """Partition a grid's extent into nx * ny rectangular zones, row-major.

    Tiles are numbered left-to-right, top-to-bottom, with zero-padded ids
    like Z01. Tile edges shared by neighbors assign every pixel-center to
    exactly one tile thanks to the half-open membership convention.
    """
    ratios = tuple(float(d) for d in damage_ratios)
    if len(ratios) != nx * ny:
        raise ConfigError(f"need {nx * ny} damage ratios for {nx}x{ny} tiles, got {len(ratios)}")
    pops = tuple(populations) if populations is not None else (0,) * len(ratios)
    if len(pops) != len(ratios):
        raise ConfigError(f"need {len(ratios)} populations, got {len(pops)}")
    width = grid.ncols * grid.cell_size / nx
    height = grid.nrows * grid.cell_size / ny
    digits = max(2, len(str(nx * ny)))
    zones = []
    for j in range(ny):
        y1 = grid.y_origin + grid.nrows * grid.cell_size - j * height
        for i in range(nx):
            x0 = grid.x_origin + i * width
            index = j * nx + i
            zones.append(
                Zone(
                    zone_id=f"{id_prefix}{index + 1:0{digits}d}",
                    rings=(rect_ring(x0, y1 - height, x0 + width, y1),),
                    damage_ratio=ratios[index],
                    population=pops[index],
                )
            )
    return tuple(zones)


def _default_built_fraction(grid):
    return RasterGrid(grid, np.ones(grid.shape))


def generate_scene(spec):
    """Build the radiance and quality stacks plus the ground-truth table.

    See the module docstring for the truth construction, the three noise
    channels, and the fixed random draw order that makes equal specs
    produce bit-identical scenes.
    """
    grid = spec.grid
    months = spec.months.months()
    n_months = len(months)
    event_index = spec.months.months_before
    noise = spec.noise

    zone_masks = [rasterize_zone(z, grid).inside for z in spec.zones]
    ambient = float(np.mean(spec.base_radiance))
    pixel_base = np.full(grid.shape, ambient)
    event_frame = np.full(grid.shape, ambient)
    truth = []
    for zone, mask, base in zip(spec.zones, zone_masks, spec.base_radiance):
        pixel_base[mask] = base
        dropped = base * (1.0 - spec.drop_gain * zone.damage_ratio)
        event_frame[mask] = dropped
        truth.append(
            TruthRow(
                zone_id=zone.zone_id,
                damage_ratio=zone.damage_ratio,
                base_radiance=base,
                event_radiance=dropped,
                true_drop_percent=100.0 * spec.drop_gain * zone.damage_ratio,
            )
        )

    values = np.broadcast_to(pixel_base, (n_months,) + grid.shape).copy()
    values[event_index] = event_frame

    rng = np.random.default_rng(spec.seed)
    shape = (n_months,) + grid.shape
    if noise.gaussian_sigma > 0:
        values *= np.exp(noise.gaussian_sigma * rng.standard_normal(shape))
    rates = noise.monthly_cloud_rates(n_months)
    if np.any(rates > 0):
        flagged = rng.random(shape) < rates[:, None, None]
        corrupted = pixel_base[None, :, :] * (
            1.0 + noise.corruption_scale * rng.uniform(-1.0, 1.0, shape)
        )
        values = np.where(flagged, corrupted, values)
    else:
        flagged = np.zeros(shape, dtype=bool)
    if noise.bloom_rate > 0:
        bloomed = rng.random(shape) < noise.bloom_rate
        values = np.where(bloomed, rng.uniform(noise.bloom_lo, noise.bloom_hi, shape), values)

    if spec.dataset is Dataset.VNP46A2:
        good, bad = VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE
    else:
        good, bad = VSCNTL_HIGH_QUALITY_COUNT, 0
    quality_cube = np.where(flagged, bad, good)

    radiance = RasterStack(months, tuple(RasterGrid(grid, values[t]) for t in range(n_months)))
    quality = RasterStack(months, tuple(IntRaster(grid, quality_cube[t]) for t in range(n_months)))
    built = noise.built_fraction_map if noise.built_fraction_map is not None else _default_built_fraction(grid)
    return GeneratedScene(
        spec=spec, radiance=radiance, quality=quality, truth=tuple(truth), built_fraction=built
    )


def check_scorable(spec):
    """Raise ConfigError unless the oracle can score a scene of this spec.

    The recovered pcc correlates per-zone event drops with damage ratios;
    with fewer than three distinct damage ratios it is not meaningful.
    """
    if len({z.damage_ratio for z in spec.zones}) < 3:
        raise ConfigError("oracle needs at least 3 distinct damage ratios")


def recovered_pccs(scene, configs, min_damage=0.01):
    """Yield (config, recovered_pcc) per config, or (config, PipelineError).

    The recovered pcc correlates per-zone event drops with damage ratios.
    A scene check_scorable refuses raises its ConfigError instead.
    """
    spec = scene.spec
    check_scorable(spec)
    masks = {zone.zone_id: rasterize_zone(zone, spec.grid) for zone in spec.zones}
    chain = series_by_config(
        scene.radiance, scene.quality, scene.built_fraction, masks, configs, (spec.months,)
    )
    for config, result in chain:
        if not isinstance(result, PipelineError):
            samples = drop_samples(spec.zones, result[0], spec.months)
            try:
                result = correlate_method(samples, spec.dataset, config.label, min_damage).pcc
            except StatsError as exc:
                result = exc
        yield config, result


def oracle_check(scene, config, min_damage=0.01):
    """Run the full pipeline on a scene and score it against the truth.

    Returns (recovered_pcc, truth_pcc): the correlation the pipeline
    recovers between per-zone event drops and damage ratios, next to the
    correlation of the noise-free drops (1.0 by construction, since the
    true drop is linear in the damage ratio). Needs at least three zones
    with three distinct damage ratios, or neither correlation is
    meaningful.
    """
    [(_, recovered)] = recovered_pccs(scene, (config,), min_damage)
    if isinstance(recovered, PipelineError):
        raise recovered
    truth = pearson(
        [row.true_drop_percent for row in scene.truth],
        [row.damage_ratio for row in scene.truth],
    )
    return recovered, truth
