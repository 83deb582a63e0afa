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

Determinism contract: all randomness comes from numpy's PCG64 bit
generator seeded with SceneSpec.seed, as numpy's default generator seeds
it. Its outputs are laid out in a fixed order of channels: sensor-noise
normals, then cloud flags, then corruption uniforms, then bloom flags,
then bloom uniforms. Each channel is one (months, rows, cols) block in
month order; the normals are drawn only when gaussian_sigma is positive,
the cloud flags and corruption uniforms only when some month's cloud rate
is, and the bloom pair only when bloom_rate is. Identical specs therefore
produce bit-identical scenes. Scenes are reproducible across versions of
this package but not across unrelated implementations.

The scene is drawn a month at a time (scene_months), from one generator
per channel, each positioned at its channel's first draw, so a month is
finished before the next is drawn. The normals' generator is the seeded
one. The normals take a varying number of outputs (ziggurat rejection),
so where they end is found by drawing them once more from a second
generator seeded alike. Every later channel takes one 64-bit output per
cell-month, so its start is that end advanced (PCG64.advance) past the
blocks before it. The draws are therefore those of one generator that
draws each channel as a whole block, in order.

Each month's draws are applied to its radiance and quality words in
place, with the arithmetic of the expression form (``values * exp(sigma
* Z)``, then ``np.where(flagged, corrupted, values)``), so the bits are
too. VNP46A2 quality words are uint16, VSC-NTL cloud-free counts int64.
"""

import copy
from dataclasses import dataclass, field
from functools import cached_property

from ._numpy import np
from .analysis import correlate_method, drop_samples, pearson
from .errors import ConfigError, StatsError
from .grid import GridSpec, RasterGrid
from .quality import VNP46A2_HIGH_QUALITY_CODE, VNP46A2_LOW_QUALITY_CODE, Dataset
from .stack import RasterStack, StackBuilder
from .timeseries import EventWindow, drop_window, series_by_config
from .zones import Zone, rect_ring, zone_columns

__all__ = [
    "NoiseSpec",
    "SceneSpec",
    "TruthRow",
    "GeneratedScene",
    "tile_zones",
    "generate_scene",
    "scene_months",
    "scene_pccs",
    "recovered_pccs",
    "oracle_check",
    "VNP46A2_HIGH_QUALITY_CODE",
    "VNP46A2_LOW_QUALITY_CODE",
    "VSCNTL_HIGH_QUALITY_COUNT",
]

VSCNTL_HIGH_QUALITY_COUNT = 1
_DRAW_CELLS = 4096  # cells scene_months draws at once


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

    def built_fraction(self):
        """The scene's built-fraction grid: the noise spec's map, else every cell fully built."""
        return self.noise.built_fraction_map or RasterGrid(self.grid, np.ones(self.grid.shape))

    @cached_property
    def columns(self):
        """zone_columns of the zones on the scene grid, each zone rasterized once per spec."""
        return zone_columns(self.zones, self.grid)


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
    """A generated scene: stacks, per-zone truth, and its originating spec.

    The built fraction is a grid: the spec's map, else every cell fully built.
    """

    spec: SceneSpec
    radiance: RasterStack
    quality: RasterStack
    truth: tuple
    built_fraction: RasterGrid


def tile_zones(grid, nx, ny, damage_ratios, populations=None):
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
                    zone_id=f"Z{index + 1:0{digits}d}",
                    rings=(rect_ring(x0, y1 - height, x0 + width, y1),),
                    damage_ratio=ratios[index],
                    population=pops[index],
                )
            )
    return tuple(zones)


def generate_scene(spec):
    """Build the radiance and quality stacks plus the ground-truth table.

    The stacks are scene_months' months, each copied into its cube as it
    is drawn. See the module docstring for the truth construction, the
    three noise channels, and the fixed random draws that make equal specs
    produce bit-identical scenes.
    """
    months = spec.months.months()
    radiance, quality = StackBuilder(months, np.float64), StackBuilder(months, spec.dataset.word_dtype)
    for _, month_radiance, month_quality in scene_months(spec):
        radiance.add(month_radiance)
        quality.add(month_quality)
        del month_radiance, month_quality  # before the next month is read
    return GeneratedScene(
        spec=spec,
        radiance=radiance.stack(),
        quality=quality.stack(),
        truth=_truth(spec),
        built_fraction=spec.built_fraction(),
    )


def scene_months(spec):
    """The scene of a spec a month at a time: an iterator of (month, radiance, quality) in month order.

    Each month is drawn when it is asked for, from the positioned
    per-channel generators of the module docstring, so no cube of the
    whole scene is ever held, and the months stacked are generate_scene's
    stacks. A month's RasterGrid and IntRaster (uint16 words for VNP46A2)
    are read-only views of that month's own arrays, checked and frozen as
    a stack's month is.
    """
    grid, columns = spec.grid, spec.columns
    months = spec.months.months()
    noise = spec.noise
    truth = _truth(spec)
    pixel_base = np.full(grid.shape, float(np.mean(spec.base_radiance)))
    for zone, row in zip(spec.zones, truth):
        pixel_base.flat[columns.cells[columns.positions[zone.zone_id]]] = row.base_radiance
    word = spec.dataset.word_dtype
    if spec.dataset is Dataset.VNP46A2:
        good, bad = word(VNP46A2_HIGH_QUALITY_CODE), word(VNP46A2_LOW_QUALITY_CODE)
    else:
        good, bad = word(VSCNTL_HIGH_QUALITY_COUNT), word(0)
    rates = noise.monthly_cloud_rates(len(months))
    normals, clouds, corruptions, bloom_flags, bloom_values = _channels(spec, len(months))
    shape = (1, *grid.shape)  # a one-month cube, which the month's stack takes over
    no_missing = np.zeros(shape, dtype=bool)  # read-only once taken over, so every month shares it

    # a month is drawn a block of rows at a time, so that the draws' temporaries stay small;
    # each channel's generator still draws the month's cells in row-major order
    step = max(1, _DRAW_CELLS // grid.ncols)
    blocks = [slice(lo, lo + step) for lo in range(0, grid.nrows, step)]

    def draw(i, month):
        """Month i's radiance and quality rasters; a cloud-corrupted pixel's word is ``bad``, unlike any other."""
        values = np.array(pixel_base, ndmin=3)
        if i == spec.months.months_before:
            for zone, row in zip(spec.zones, truth):
                values.flat[columns.cells[columns.positions[zone.zone_id]]] = row.event_radiance
        words = np.full(shape, good)
        for rows in blocks:
            block, block_words, base = values[0, rows], words[0, rows], pixel_base[rows]
            # each step is the expression form's, in place: values * exp(sigma * Z), then
            # pixel_base * (1 + scale * U) where flagged, then the blooms
            if normals is not None:
                factor = normals.standard_normal(block.shape)
                factor *= noise.gaussian_sigma
                block *= np.exp(factor, out=factor)
                del factor
            if clouds is not None:
                flagged = clouds.random(block.shape) < rates[i]
                block_words[flagged] = bad
                corrupted = corruptions.uniform(-1.0, 1.0, block.shape)
                corrupted *= noise.corruption_scale
                corrupted += 1.0
                corrupted *= base
                np.copyto(block, corrupted, where=flagged)
                del flagged, corrupted
            if bloom_flags is not None:
                bloomed = bloom_flags.random(block.shape) < noise.bloom_rate
                np.copyto(block, bloom_values.uniform(noise.bloom_lo, noise.bloom_hi, block.shape), where=bloomed)
        return month, _month_raster(month, grid, values, no_missing), _month_raster(month, grid, words, no_missing)

    # a month is held only by the caller once yielded, so it can go before the next is drawn
    for i, month in enumerate(months):
        yield draw(i, month)


def _truth(spec):
    """The TruthRow of each zone, in zone order."""
    return tuple(
        TruthRow(
            zone_id=zone.zone_id,
            damage_ratio=zone.damage_ratio,
            base_radiance=base,
            event_radiance=base * (1.0 - spec.drop_gain * zone.damage_ratio),
            true_drop_percent=100.0 * spec.drop_gain * zone.damage_ratio,
        )
        for zone, base in zip(spec.zones, spec.base_radiance)
    )


def _channels(spec, n_months):
    """One generator per noise channel, positioned at the channel's first draw, or None for a channel not drawn.

    In draw order: normals, cloud flags, corruption uniforms, bloom flags
    and bloom uniforms; see the module docstring.
    """
    noise, grid = spec.noise, spec.grid
    normals = np.random.default_rng(spec.seed) if noise.gaussian_sigma > 0 else None
    after = np.random.default_rng(spec.seed)
    if normals is not None:
        # the normals take a varying number of outputs (ziggurat rejection): draw them once to find where they end
        for _ in range(n_months):
            after.standard_normal(grid.shape)
    block = n_months * grid.size  # the outputs of one later channel: one per cell-month

    def positioned(skip):
        return np.random.Generator(copy.deepcopy(after.bit_generator).advance(skip))

    clouds = corruptions = bloom_flags = bloom_values = None
    skip = 0
    if np.any(noise.monthly_cloud_rates(n_months) > 0):
        clouds, corruptions = positioned(0), positioned(block)
        skip = 2 * block
    if noise.bloom_rate > 0:
        bloom_flags, bloom_values = positioned(skip), positioned(skip + block)
    return normals, clouds, corruptions, bloom_flags, bloom_values


def _month_raster(month, grid, values, missing):
    """A one-month cube as its month's raster: a read-only view, the cube checked and frozen as a stack's is."""
    ((_, raster),) = RasterStack.from_cube((month,), grid, values, missing)
    return raster


def scene_pccs(spec, months, configs):
    """An iterator of (config, recovered pcc or StatsError) per config, on a scene read as a stream of months.

    ``months`` yields (month, radiance, quality) over the spec's window in
    month order, as scene_months does, and is read to its end before this
    returns; the spec's built fraction is made only then. A spec with
    fewer than three distinct damage ratios, against which no pcc is
    meaningful, raises ConfigError before the first month is read.

    Each month is cut down to the zones' cells (spec.columns, as
    load_dataset cuts what it reads), and only the cuts from the window's
    start through the event month are kept: every stage is pixel-local
    and looks only back in time (imputation reads the months before,
    thresholding one pixel-month, the built mask no month), so no later
    month can reach a drop, and each pcc equals the chain's on the whole
    grids. Zone means are taken over the drop window only (drop_window),
    the months a drop reads, so each pcc is bit-identical to one over the
    whole window. The recovered pcc correlates per-zone event drops with
    damage ratios, or is correlate_method's StatsError, which names the
    config. The cuts are handed over to series_by_config, which frees
    each after its last stage; a stage raises as it does in run_pipeline
    when the iterator reaches it.
    """
    if len({z.damage_ratio for z in spec.zones}) < 3:
        raise ConfigError("oracle needs at least 3 distinct damage ratios")
    columns = spec.columns
    stacked = spec.months.months()[: spec.months.months_before + 1]
    radiance, quality = StackBuilder(stacked, np.float64), StackBuilder(stacked, spec.dataset.word_dtype)
    for month, month_radiance, month_quality in months:
        if month <= spec.months.event_month:
            radiance.add(columns.cut(month_radiance))
            quality.add(columns.cut(month_quality))
        del month_radiance, month_quality  # before the next month is read
    fraction = columns.cut(spec.built_fraction())
    window = drop_window(spec.months)
    chain = series_by_config(radiance.stack(), quality.stack(), fraction, columns.positions, configs, (window,))
    del radiance, quality, fraction  # handed over: the chain frees each cube after its last stage
    return ((config, _recovered(spec, table, window, config)) for config, (table,) in chain)


def _recovered(spec, table, window, config):
    """The pcc of a config's zone drops against damage ratios, or correlate_method's StatsError."""
    try:
        return correlate_method(drop_samples(spec.zones, table, window), spec.dataset, config.label).pcc
    except StatsError as exc:
        return exc


def recovered_pccs(scene, configs):
    """scene_pccs on a generated scene's stacks: a list of (config, pcc or StatsError)."""
    months = ((month, radiance, quality) for (month, radiance), (_, quality) in zip(scene.radiance, scene.quality))
    return list(scene_pccs(scene.spec, months, configs))


def oracle_check(scene, config):
    """Run the full pipeline on a scene and score it against the truth.

    Returns (recovered_pcc, truth_pcc): the correlation the pipeline
    recovers between per-zone event drops and damage ratios, next to the
    correlation of the noise-free drops (1.0 by construction, since the
    true drop is linear in the damage ratio). Needs at least three zones
    with three distinct damage ratios, or neither correlation is
    meaningful.
    """
    [(_, recovered)] = recovered_pccs(scene, (config,))
    if isinstance(recovered, StatsError):
        raise recovered
    truth = pearson(
        [row.true_drop_percent for row in scene.truth],
        [row.damage_ratio for row in scene.truth],
    )
    return recovered, truth
