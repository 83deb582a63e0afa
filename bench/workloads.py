"""Seeded benchmark inputs, written without any ntlpipe code.

Every input file (scene specs, run configs, zones, built-fraction grids and
the daily rasters) comes from numpy's PCG64 generator seeded with the
workload seed, and is formatted by the small writers below. The bytes a
workload feeds the program therefore cannot shift when the program changes.

Three workloads stress different layers of the program:

* ``vsc-zones``: many small zones on a modest grid, all 12 VSC-NTL configs.
  Per-zone series, zonal means and series CSV I/O dominate.
* ``vnp-tile``: a large grid with few zones, each a many-vertex polygon,
  all 4 VNP46A2 configs. Grid write/read and rasterization dominate.
* ``vnp-daily``: VNP46A2 delivered as hundreds of small daily files. Per-file
  grid reading, the directory scan, monthly median compositing and the
  majority-vote quality composite dominate.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVENT_MONTH = (2018, 10)
HIGH_QUALITY_WORD = 50  # VNP46A2: night, land, high mask quality, confident clear
LOW_QUALITY_WORD = 242  # the same word with cloud confidence "confident cloudy"
NODATA = -9999
NOISE = {"gaussian_sigma": 0.05, "cloud_rate": 0.3, "corruption_scale": 1.5}
PASS_DIR = "pass"  # sibling of the inputs directory that each timed pass recreates


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; ``tag`` separates the random streams."""

    name: str
    tag: int
    dataset: str
    grid: int  # square grid side in cells
    zone_tiles: int  # zones per grid side (tiles), so tiles**2 zones
    star_vertices: int  # 0 for rectangular zones
    months_before: int
    months_after: int
    bloom_rate: float
    daily_days: int  # 0 when the dataset is delivered as monthly files
    n_configs: int
    why: str

    @property
    def n_zones(self):
        return self.zone_tiles * self.zone_tiles

    @property
    def n_months(self):
        return self.months_before + self.months_after + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vsc-zones", tag=1, dataset="VSC-NTL", grid=64, zone_tiles=8,
            star_vertices=0, months_before=12, months_after=12, bloom_rate=0.01,
            daily_days=0, n_configs=12,
            why="64 small zones x 12 configs: zone series, zonal means and series CSVs dominate",
        ),
        Workload(
            name="vnp-tile", tag=2, dataset="VNP46A2", grid=200, zone_tiles=3,
            star_vertices=300, months_before=6, months_after=3, bloom_rate=0.0,
            daily_days=0, n_configs=4,
            why="large grid, 9 many-vertex zones: grid write/read and rasterization dominate",
        ),
        Workload(
            name="vnp-daily", tag=3, dataset="VNP46A2", grid=48, zone_tiles=4,
            star_vertices=0, months_before=12, months_after=12, bloom_rate=0.0,
            daily_days=10, n_configs=4,
            why="hundreds of small daily files: per-file grid reads and daily composites dominate",
        ),
    )
}


def month_add(year_month, months):
    year, month = year_month
    ordinal = year * 12 + month - 1 + months
    return ordinal // 12, ordinal % 12 + 1


def month_name(year_month):
    return f"{year_month[0]:04d}-{year_month[1]:02d}"


def write_ascii_grid(path, values, nodata=NODATA):
    """Write an ASCII grid; ints print as ints, floats as their ``repr``.

    ``values`` is a 2-D numpy array, row 0 northernmost; NaN cells become
    the NODATA token. The grid sits at the origin with unit cells.
    """
    nrows, ncols = values.shape
    is_int = np.issubdtype(values.dtype, np.integer)
    nodata_tok = str(int(nodata)) if is_int else repr(float(nodata))
    lines = [
        f"ncols {ncols}",
        f"nrows {nrows}",
        "xllcorner 0.0",
        "yllcorner 0.0",
        "cellsize 1.0",
        f"NODATA_value {nodata_tok}",
    ]
    for row in values.tolist():
        lines.append(" ".join(nodata_tok if v != v else repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _rect_ring(i, j, tiles, side):
    """Closed ring of tile (column i, row j from the north) on a side x side grid."""
    size = side / tiles
    x0, x1 = i * size, (i + 1) * size
    y1 = side - j * size
    y0 = y1 - size
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _star_ring(rng, i, j, tiles, side, vertices):
    """Closed star polygon centered in tile (i, j), alternating long and short arms."""
    size = side / tiles
    cx = (i + 0.5) * size
    cy = side - (j + 0.5) * size
    outer = 0.45 * size
    k = np.arange(vertices)
    angles = 2 * math.pi * (k + rng.uniform(-0.3, 0.3, vertices)) / vertices
    radii = np.where(k % 2 == 0, outer, outer * rng.uniform(0.45, 0.75, vertices))
    ring = [[float(cx + r * math.cos(a)), float(cy + r * math.sin(a))] for a, r in zip(angles, radii)]
    return ring + [ring[0]]


def _zones(rng, w):
    """(zone docs with rings, damage ratios and populations, per-zone base radiance)."""
    damage = rng.uniform(0.02, 0.6, w.n_zones)
    population = rng.integers(500, 50_000, w.n_zones)
    base = rng.uniform(15.0, 40.0, w.n_zones)
    digits = max(2, len(str(w.n_zones)))
    zones = []
    for index in range(w.n_zones):
        j, i = divmod(index, w.zone_tiles)
        if w.star_vertices:
            ring = _star_ring(rng, i, j, w.zone_tiles, w.grid, w.star_vertices)
        else:
            ring = _rect_ring(i, j, w.zone_tiles, w.grid)
        zones.append(
            {
                "zone_id": f"Z{index + 1:0{digits}d}",
                "rings": [ring],
                "damage_ratio": float(damage[index]),
                "population": int(population[index]),
            }
        )
    return zones, base


def _geojson(zones):
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": z["rings"]},
                "properties": {
                    "zone_id": z["zone_id"],
                    "damage_ratio": z["damage_ratio"],
                    "population": z["population"],
                },
            }
            for z in zones
        ],
    }


def _daily_rasters(rng, w, zones, base, raster_dir):
    """Daily radiance and quality files for every window month.

    Each zone's pixels carry its base radiance under multiplicative noise,
    scaled by (1 - damage) in the event month. Cloudy pixel-days get a
    corrupted value and the low-quality word; the rest the high-quality word.
    """
    tiles = w.zone_tiles
    size = w.grid // tiles
    zone_of = (np.arange(w.grid)[:, None] // size) * tiles + (np.arange(w.grid)[None, :] // size)
    pixel_base = base[zone_of]
    damage = np.array([z["damage_ratio"] for z in zones])[zone_of]
    start = month_add(EVENT_MONTH, -w.months_before)
    for t in range(w.n_months):
        month = month_name(month_add(start, t))
        level = pixel_base * (1.0 - damage) if t == w.months_before else pixel_base
        for day in range(1, w.daily_days + 1):
            shape = (w.grid, w.grid)
            values = level * np.exp(NOISE["gaussian_sigma"] * rng.standard_normal(shape))
            cloudy = rng.random(shape) < NOISE["cloud_rate"]
            corrupted = pixel_base * (1.0 + NOISE["corruption_scale"] * rng.uniform(-1.0, 1.0, shape))
            values = np.where(cloudy, corrupted, values)
            words = np.where(cloudy, LOW_QUALITY_WORD, HIGH_QUALITY_WORD)
            write_ascii_grid(raster_dir / f"{month}-{day:02d}.asc", values)
            write_ascii_grid(raster_dir / f"{month}-{day:02d}.qf.asc", words)


def write_inputs(name, seed, inputs_dir):
    """Write every input of workload ``name`` for ``seed`` into ``inputs_dir``.

    The run config points at ``../PASS_DIR``: ``simulate`` writes its scene
    there under ``sim/`` and ``extract``/``report`` write under ``out/``.
    """
    w = WORKLOADS[name]
    inputs_dir = Path(inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, w.tag])
    zones, base = _zones(rng, w)
    built = rng.uniform(0.0, 1.0, (w.grid, w.grid))
    write_ascii_grid(inputs_dir / "built.asc", built)

    event = month_name(EVENT_MONTH)
    noise = dict(NOISE, bloom_rate=w.bloom_rate, built_fraction="built.asc")
    scene = {
        "seed": seed,
        "dataset": w.dataset,
        "grid": {"ncols": w.grid, "nrows": w.grid, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
        "event_month": event,
        "months_before": w.months_before,
        "months_after": w.months_after,
        "zones": zones,
        "base_radiance": [float(b) for b in base],
        "noise": noise,
    }
    _write_json(inputs_dir / "scene.json", scene)

    if w.daily_days:
        raster_dir = inputs_dir / w.dataset
        raster_dir.mkdir(exist_ok=True)
        write_ascii_grid(raster_dir / "built_fraction.asc", built)
        _daily_rasters(rng, w, zones, base, raster_dir)
        _write_json(inputs_dir / "zones.geojson", _geojson(zones))
        raster_rel, zones_rel = w.dataset, "zones.geojson"
    else:
        raster_rel = f"../{PASS_DIR}/sim/{w.dataset}"
        zones_rel = f"../{PASS_DIR}/sim/zones.geojson"

    run = {
        "datasets": [{"kind": w.dataset, "raster_dir": raster_rel}],
        "zones": zones_rel,
        "hurricanes": [{"name": "H1", "event_month": event}],
        "configs": "all",
        "output_dir": f"../{PASS_DIR}/out",
        "jobs": 2,
        "months_before": w.months_before,
        "months_after": w.months_after,
    }
    _write_json(inputs_dir / "run.json", run)
    return w
