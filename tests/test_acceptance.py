"""Release acceptance gate: nine numbered end-to-end checks.

Each test covers one acceptance criterion and prints a single [PASS] line
so a verbose run doubles as a release checklist. The criteria pin exact
operator fixtures, oracle equivalence for the statistics, method-ranking
properties on noisy synthetic scenes, and bit-identical determinism of
the command line. Tolerances and runtime budgets are asserted inline.
"""

import itertools
import json
import math
import shutil
import time

import numpy as np
import pytest

from ntlpipe import (
    Background,
    CloudConfidence,
    CloudMaskQuality,
    ConfigError,
    Dataset,
    DayNight,
    DropSample,
    EventWindow,
    GridParseError,
    GridSpec,
    IntRaster,
    MonthIndex,
    NoiseSpec,
    PipelineConfig,
    QualityDecodeError,
    QualityFlags,
    RasterGrid,
    RasterStack,
    SceneSpec,
    StatsError,
    ThresholdMode,
    Zone,
    ZoneMask,
    ZoneSeries,
    ZoneValidationError,
    apply_built_mask,
    build_report,
    build_zone_series,
    class_fraction_resample,
    config_from_label,
    correlate_method,
    decode_vnp46a2_quality,
    encode_vnp46a2_quality,
    enumerate_configs,
    event_drop,
    filter_zones,
    generate_scene,
    high_quality_mask,
    impute_pixel,
    is_high_quality_vnp46a2,
    is_high_quality_vscntl,
    monthly_median_composite,
    oracle_check,
    pearson,
    percent_change,
    point_in_polygon,
    quality_filter_and_impute,
    rasterize_zone,
    read_grid,
    read_series_csv,
    read_zones,
    rect_ring,
    rolling_baseline,
    run_pipeline,
    select_case_study_zones,
    threshold,
    tile_zones,
    write_grid,
    write_zones,
    zonal_mean,
)
from ntlpipe.cli import main

TOL = 1e-9
EVENT = MonthIndex(2018, 10)

# 25 damage ratios spread evenly over [0.01, 0.6], one per tiled zone
DAMAGES_25 = [0.01 + (0.6 - 0.01) * i / 24 for i in range(25)]

VSC_LABELS = [
    "raw",
    "clip",
    "remove",
    "built",
    "clip+built",
    "remove+built",
    "quality",
    "clip+quality",
    "remove+quality",
    "built+quality",
    "clip+built+quality",
    "remove+built+quality",
]
VNP_LABELS = ["raw", "built", "quality", "built+quality"]


def announce(capsys, number, message):
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {message}")


def ascii_grid_text(rows, cell_size=1.0, nodata=-9999, x0=0.0, y0=0.0):
    ncols = len(rows[0])
    header = (
        f"ncols {ncols}\nnrows {len(rows)}\nxllcorner {x0}\nyllcorner {y0}\n"
        f"cellsize {cell_size}\nNODATA_value {nodata}\n"
    )
    return header + "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def month_range(start, n):
    return tuple(start + i for i in range(n))


def make_stack(spec, start, frames, missing=None):
    grids = tuple(
        RasterGrid(spec, frame, None if missing is None else missing[i])
        for i, frame in enumerate(frames)
    )
    return RasterStack(month_range(start, len(frames)), grids)


def flat_series(values, start=MonthIndex(2018, 1), zone_id="Z"):
    return ZoneSeries(zone_id, start, values)


def square_zone(zone_id, damage, population=0):
    return Zone(zone_id, (rect_ring(0.0, 0.0, 1.0, 1.0),), damage, population)


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))
    return path


def tree_digest(root):
    import hashlib

    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def tiled_scene(seed, dataset, grid_n, bases, noise, damages=DAMAGES_25, tiles=5):
    grid = GridSpec(grid_n, grid_n, 0.0, 0.0, 1.0)
    zones = tile_zones(grid, tiles, tiles, damages)
    spec = SceneSpec(
        seed=seed,
        grid=grid,
        zones=zones,
        months=EventWindow(EVENT),
        base_radiance=bases,
        dataset=dataset,
        noise=noise,
    )
    return generate_scene(spec)


def test_criterion_1_operator_fixtures(tmp_path, capsys):
    """Every pinned operator example, end to end, including the command line."""
    t0 = time.perf_counter()
    done = []

    def ok(label):
        done.append(label)

    # --- ASCII grid reading ---------------------------------------------
    single = tmp_path / "single.asc"
    single.write_text(ascii_grid_text([[7.5]]))
    grid = read_grid(single)
    assert isinstance(grid, RasterGrid)
    assert grid.values[0, 0] == 7.5 and grid.valid.all()
    ok("grid read single cell")

    holed = tmp_path / "holed.asc"
    holed.write_text(ascii_grid_text([[1.5, 2.5], [-9999, 4.5]]))
    grid = read_grid(holed)
    assert grid.missing[1, 0] and not grid.missing[0, 0]
    assert grid.values[0, 1] == 2.5
    ok("grid read nodata cell")

    short = tmp_path / "short.asc"
    short.write_text(ascii_grid_text([[1.0, 2.0, 3.0]]).replace("1.0 2.0 3.0", "1.0 2.0"))
    with pytest.raises(GridParseError, match="line 7"):
        read_grid(short)
    ok("grid short row rejected at its line")

    # --- ASCII grid writing ---------------------------------------------
    spec1 = GridSpec(1, 1, 0.0, 0.0, 1.0)
    out_path = tmp_path / "rt.asc"
    write_grid(RasterGrid(spec1, [[7.5]]), out_path)
    assert read_grid(out_path) == RasterGrid(spec1, [[7.5]])
    ok("grid write-read round trip")

    spec21 = GridSpec(2, 1, 0.0, 0.0, 1.0)
    gappy = RasterGrid(spec21, [[7.5, 0.0]], [[False, True]])
    write_grid(gappy, out_path := tmp_path / "gap.asc")
    assert read_grid(out_path) == gappy
    ok("grid missing cell round trip")

    # --- class-fraction resampling --------------------------------------
    src_spec = GridSpec(2, 2, 0.0, 0.0, 1.0)
    coarse = GridSpec(1, 1, 0.0, 0.0, 2.0)
    frac = class_fraction_resample(IntRaster(src_spec, [[6, 6], [6, 6]]), coarse, class_label=6)
    assert frac.values[0, 0] == 1.0
    ok("resample uniform source")

    frac = class_fraction_resample(IntRaster(src_spec, [[6, 6], [0, 0]]), coarse, class_label=6)
    assert frac.values[0, 0] == 0.5
    ok("resample half coverage")

    far = GridSpec(1, 1, 100.0, 100.0, 2.0)
    frac = class_fraction_resample(IntRaster(src_spec, [[6, 6], [6, 6]]), far, class_label=6)
    assert frac.missing[0, 0]
    ok("resample empty target cell missing")

    # --- zone file reading -----------------------------------------------
    ring = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    feature = {
        "type": "Feature",
        "properties": {"zone_id": "Z1", "damage_ratio": 0.12, "population": 10000},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }
    zpath = write_json(tmp_path / "one.geojson", {"type": "FeatureCollection", "features": [feature]})
    zones = read_zones(zpath)
    assert len(zones) == 1 and len(zones[0].rings) == 1
    assert zones[0].damage_ratio == 0.12 and zones[0].population == 10000
    ok("zone file single polygon")

    broken = json.loads(json.dumps(feature))
    del broken["properties"]["damage_ratio"]
    zpath = write_json(tmp_path / "bad.geojson", {"type": "FeatureCollection", "features": [broken]})
    with pytest.raises(ZoneValidationError, match="damage_ratio"):
        read_zones(zpath)
    ok("zone file missing damage ratio rejected")

    ring2 = [[2.0, 2.0], [3.0, 2.0], [3.0, 3.0], [2.0, 3.0], [2.0, 2.0]]
    multi = json.loads(json.dumps(feature))
    multi["geometry"] = {"type": "MultiPolygon", "coordinates": [[ring], [ring2]]}
    zpath = write_json(tmp_path / "multi.geojson", {"type": "FeatureCollection", "features": [multi]})
    assert len(read_zones(zpath)[0].rings) == 2
    ok("zone file multipolygon keeps both rings")

    # --- point in polygon -------------------------------------------------
    unit = rect_ring(0.0, 0.0, 1.0, 1.0)
    assert point_in_polygon((0.5, 0.5), (unit,))
    ok("point inside unit square")
    assert not point_in_polygon((1.5, 0.5), (unit,))
    ok("point outside unit square")

    hole = rect_ring(0.375, 0.375, 0.625, 0.625)
    assert not point_in_polygon((0.5, 0.5), (unit, hole))
    assert point_in_polygon((0.1, 0.5), (unit, hole))
    ok("point inside hole excluded")

    # --- zone rasterization ------------------------------------------------
    quad = GridSpec(2, 2, 0.0, 0.0, 0.5)
    mask = rasterize_zone(square_zone("Q", 0.1), quad)
    assert mask.inside.all() and mask.count == 4
    ok("rasterize exact cover hits all centers")

    outside = Zone("O", (rect_ring(10.0, 10.0, 11.0, 11.0),), 0.1)
    assert rasterize_zone(outside, quad).count == 0
    ok("rasterize fully outside is empty")

    left = Zone("L", (rect_ring(0.0, 0.0, 0.5, 1.0),), 0.1)
    assert rasterize_zone(left, quad).inside.tolist() == [[True, False], [True, False]]
    ok("rasterize left half hits left column")

    # --- zonal mean ----------------------------------------------------------
    sq = GridSpec(2, 2, 0.0, 0.0, 1.0)
    full = ZoneMask(sq, np.ones((2, 2), dtype=bool))
    assert zonal_mean(RasterGrid(sq, [[1.0, 2.0], [3.0, 4.0]]), full) == 2.5
    ok("zonal mean plain average")

    partial = RasterGrid(sq, [[0.0, 2.0], [3.0, 4.0]], [[True, False], [False, False]])
    assert zonal_mean(partial, full) == 3.0
    ok("zonal mean skips missing cells")

    empty = ZoneMask(sq, np.zeros((2, 2), dtype=bool))
    assert math.isnan(zonal_mean(RasterGrid(sq, [[1.0, 2.0], [3.0, 4.0]]), empty))
    ok("zonal mean undefined on empty mask")

    # --- radiance thresholds ---------------------------------------------------
    quadv = RasterGrid(sq, [75.0, 25.0, -3.0, 50.0])
    removed = threshold(quadv, ThresholdMode.REMOVE, lo=0.0, hi=50.0)
    assert removed.missing.ravel().tolist() == [True, False, True, False]
    assert removed.values[0, 1] == 25.0 and removed.values[1, 1] == 50.0
    ok("remove drops out-of-range values")

    clipped = threshold(quadv, ThresholdMode.CLIP, lo=0.0, hi=50.0)
    assert clipped.values.ravel().tolist() == [50.0, 25.0, 0.0, 50.0]
    assert not clipped.missing.any()
    ok("clip pins ends and keeps in-range values")

    # --- quality word decoding ---------------------------------------------------
    flags = decode_vnp46a2_quality(0)
    assert flags.day_night is DayNight.NIGHT
    assert flags.background is Background.LAND_DESERT
    assert flags.cloud_mask_quality is CloudMaskQuality.POOR
    assert flags.cloud_confidence is CloudConfidence.CONFIDENT_CLEAR
    assert not (flags.shadow or flags.cirrus or flags.snow_ice)
    ok("decode all-zero word")

    flags = decode_vnp46a2_quality(114)
    assert flags.background is Background.LAND_NO_DESERT
    assert flags.cloud_mask_quality is CloudMaskQuality.HIGH
    assert flags.cloud_confidence is CloudConfidence.PROBABLY_CLEAR
    assert not (flags.shadow or flags.cirrus or flags.snow_ice)
    ok("decode trusted word 114")

    shadowed = decode_vnp46a2_quality(370)
    assert shadowed.shadow and shadowed.background is Background.LAND_NO_DESERT
    ok("decode shadow bit on 370")

    assert is_high_quality_vnp46a2(decode_vnp46a2_quality(114))
    assert not is_high_quality_vnp46a2(decode_vnp46a2_quality(370))
    ok("trust rule accepts 114 and rejects 370")

    assert is_high_quality_vscntl(17)
    assert is_high_quality_vscntl(1) and not is_high_quality_vscntl(0)
    ok("cloud-free count rule")

    # --- temporal imputation --------------------------------------------------------
    constant = [(9, 9.0, True), (10, 9.0, True), (11, 9.0, True)]
    assert impute_pixel(constant, t=12) == 9.0
    ok("impute constant history exactly")

    two_point = impute_pixel([(10, 10.0, True), (11, 20.0, True)], t=12)
    assert abs(two_point - 50.0 / 3.0) <= TOL
    ok("impute inverse-distance weights")

    assert math.isnan(impute_pixel([(11, 5.0, False)], t=12))
    ok("impute without trusted history is missing")

    # --- stack-level quality filtering ------------------------------------------------
    stack = make_stack(sq, MonthIndex(2018, 1), [np.full((2, 2), 10.0), np.full((2, 2), 20.0), np.full((2, 2), 7.0)])
    trusted = RasterStack(stack.months, tuple(IntRaster(sq, np.ones((2, 2), dtype=int)) for _ in range(3)))
    out = quality_filter_and_impute(stack, trusted, Dataset.VSC_NTL)
    assert all(out.get(m) == stack.get(m) for m in stack.months)
    ok("all-trusted stack passes through unchanged")

    counts = [np.ones((2, 2), dtype=int) for _ in range(3)]
    counts[2] = np.array([[0, 1], [1, 1]])
    spotty = RasterStack(stack.months, tuple(IntRaster(sq, c) for c in counts))
    out = quality_filter_and_impute(stack, spotty, Dataset.VSC_NTL)
    march = out.get(MonthIndex(2018, 3))
    assert abs(march.values[0, 0] - 50.0 / 3.0) <= TOL
    assert march.values[0, 1] == 7.0
    ok("untrusted pixel refilled from its history")

    counts = [np.ones((2, 2), dtype=int) for _ in range(3)]
    counts[0] = np.array([[0, 1], [1, 1]])
    spotty = RasterStack(stack.months, tuple(IntRaster(sq, c) for c in counts))
    out = quality_filter_and_impute(stack, spotty, Dataset.VSC_NTL)
    assert out.get(MonthIndex(2018, 1)).missing[0, 0]
    ok("untrusted pixel without history goes missing")

    # --- built-area masking ---------------------------------------------------------
    values = RasterGrid(sq, [[5.0, 6.0], [7.0, 8.0]])
    built = RasterGrid(sq, [[1.0, 0.2], [0.5, 0.49]])
    masked = apply_built_mask(values, built, built_fraction_threshold=0.5)
    assert masked.missing.tolist() == [[False, True], [False, True]]
    assert masked.values[0, 0] == 5.0 and masked.values[1, 0] == 7.0
    ok("built mask keeps the boundary fraction")

    # --- pipeline composition ----------------------------------------------------------
    raw_cfg = PipelineConfig(Dataset.VSC_NTL)
    out = run_pipeline(stack, None, None, raw_cfg)
    assert all(out.get(m) == stack.get(m) for m in stack.months)
    ok("stage-free pipeline is the identity")

    with pytest.raises(ConfigError):
        PipelineConfig(Dataset.VNP46A2, threshold_mode=ThresholdMode.CLIP)
    ok("gap-filled product rejects thresholding")

    bright = make_stack(sq, MonthIndex(2018, 1), [[75.0, 10.0, 20.0, 30.0], [75.0, 75.0, 10.0, 20.0]])
    out = run_pipeline(bright, None, None, config_from_label(Dataset.VSC_NTL, "clip"))
    assert out.get(MonthIndex(2018, 1)).values[0, 0] == 50.0
    assert out.get(MonthIndex(2018, 2)).values.ravel().tolist() == [50.0, 50.0, 10.0, 20.0]
    ok("clip-only pipeline rewrites every 75 to 50")

    # --- daily-to-monthly composites ------------------------------------------------------
    one = GridSpec(1, 1, 0.0, 0.0, 1.0)
    days = [RasterGrid(one, [[v]]) for v in (1.0, 3.0, 5.0)]
    assert monthly_median_composite(days).values[0, 0] == 3.0
    ok("median of odd day count")

    days = [RasterGrid(one, [[1.0]]), RasterGrid(one, [[3.0]])]
    assert monthly_median_composite(days).values[0, 0] == 2.0
    ok("median of even day count")

    days = [RasterGrid(one, [[0.0]], [[True]]) for _ in range(3)]
    assert monthly_median_composite(days).missing[0, 0]
    ok("all-missing pixel stays missing")

    # --- zone series over the event window -------------------------------------------------
    window = EventWindow(EVENT)
    months = window.months()
    frames = [np.full((2, 2), 10.0) for _ in months]
    series = build_zone_series(make_stack(sq, months[0], frames), full, window, "Z")
    assert series.values == (10.0,) * len(months)
    ok("constant stack gives a constant series")

    sparse = RasterStack(
        tuple(m for m in months if m != EVENT),
        tuple(RasterGrid(sq, np.full((2, 2), 10.0)) for m in months if m != EVENT),
    )
    series = build_zone_series(sparse, full, window, "Z")
    assert math.isnan(series.get(EVENT)) and series.get(EVENT - 1) == 10.0
    ok("absent month surfaces as missing")

    dipped = [np.full((2, 2), 6.0 if m == EVENT else 10.0) for m in months]
    series = build_zone_series(make_stack(sq, months[0], dipped), full, window, "Z")
    assert series.get(EVENT) == 6.0
    assert all(series.get(m) == 10.0 for m in months if m != EVENT)
    ok("event-month dip is the only excursion")

    # --- trailing baseline --------------------------------------------------------------------
    steady = flat_series([10.0] * 12)
    assert all(rolling_baseline(steady, t) == 10.0 for t in steady.months[1:])
    ok("baseline of a constant series")

    ramp = flat_series([8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 99.0])
    assert rolling_baseline(ramp, MonthIndex(2018, 7)) == 10.5
    ok("baseline averages the six prior months")

    dark_history = flat_series([float("nan")] * 6 + [5.0])
    assert math.isnan(rolling_baseline(dark_history, MonthIndex(2018, 7)))
    ok("baseline undefined without prior data")

    # --- percent change and event drop -------------------------------------------------------------
    assert all(percent_change(steady, t) == 0.0 for t in steady.months[1:])
    ok("constant series has zero change")

    dip = flat_series([10.0] * 6 + [6.0])
    assert percent_change(dip, MonthIndex(2018, 7)) == -40.0
    ok("forty percent dip measures -40")

    dark = flat_series([0.0] * 6 + [5.0])
    assert math.isnan(percent_change(dark, MonthIndex(2018, 7)))
    ok("dark baseline leaves change undefined")

    july = EventWindow(MonthIndex(2018, 7), months_before=6, months_after=0)
    assert event_drop(dip, july) == 40.0
    ok("drop is the negated change")
    assert event_drop(flat_series([10.0] * 7), july) == 0.0
    ok("no change means zero drop")
    assert math.isnan(event_drop(flat_series([10.0] * 6 + [float("nan")]), july))
    ok("missing event month leaves drop undefined")

    # --- correlation -----------------------------------------------------------------------------------
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    assert abs(pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) - 0.8) <= TOL
    ok("pinned correlation fixtures")

    samples = [
        DropSample("A", 0.01, 5.0),
        DropSample("B", 0.5, float("nan")),
        DropSample("C", 0.005, 3.0),
    ]
    kept, excluded = filter_zones(samples)
    assert [s.zone_id for s in kept] == ["A"]
    reasons = {s.zone_id: reason for s, reason in excluded}
    assert reasons["B"] == "event drop undefined"
    assert "below" in reasons["C"]
    ok("damage cutoff is inclusive and missing drops are dropped")

    ladder = [square_zone(zid, d) for zid, d in
              [("A", 0.5), ("B", 0.3), ("C", 0.1), ("D", 0.05), ("E", 0.02), ("F", 0.01)]]
    top, bottom = select_case_study_zones(ladder, k=3)
    assert {z.zone_id for z in top} == {"A", "B", "C"}
    assert {z.zone_id for z in bottom} == {"D", "E", "F"}
    ok("case-study split picks the damage extremes")

    tied = [square_zone(zid, d) for zid, d in
            [("G1", 0.5), ("G2", 0.3), ("G3", 0.1), ("G4", 0.1), ("G5", 0.05), ("G6", 0.01)]]
    top, _ = select_case_study_zones(tied, k=3)
    assert [z.zone_id for z in top] == ["G1", "G2", "G3"]
    ok("boundary tie resolves to the smaller id")

    with pytest.raises(ConfigError):
        select_case_study_zones(ladder, k=0)
    ok("zero-width case study rejected")

    linear = [DropSample(f"Z{i}", d, 100.0 * d) for i, d in enumerate([0.1, 0.2, 0.3, 0.4, 0.5])]
    row = correlate_method(linear, Dataset.VSC_NTL, "raw")
    assert row.pcc == 1.0 and row.n_samples == 5
    ok("proportional drops correlate perfectly")

    rng = np.random.default_rng(127)
    damages = np.linspace(0.05, 0.6, 25)
    draws = [pearson(damages.tolist(), rng.normal(0.0, 1.0, 25).tolist()) for _ in range(400)]
    assert all(abs(r) <= 1.0 for r in draws)
    assert abs(float(np.mean(draws))) < 0.05
    ok("independent noise centers on zero correlation")

    faint = [DropSample(f"Z{i}", 0.001, 5.0) for i in range(5)]
    with pytest.raises(StatsError):
        correlate_method(faint, Dataset.VSC_NTL, "raw")
    ok("too few surviving zones surfaces a statistics error")

    by_config = {
        (dataset, label): linear
        for dataset in Dataset
        for label in (VSC_LABELS if dataset is Dataset.VSC_NTL else VNP_LABELS)
    }
    report = build_report(by_config, [Dataset.VSC_NTL, Dataset.VNP46A2])
    assert len(report.rows) == 16
    assert [r.methods for r in report.rows if r.dataset is Dataset.VSC_NTL] == VSC_LABELS
    assert [r.methods for r in report.rows if r.dataset is Dataset.VNP46A2] == VNP_LABELS
    ok("report rows carry the canonical method labels")

    # --- synthetic scenes ----------------------------------------------------------------------------------
    grid4 = GridSpec(4, 4, 0.0, 0.0, 1.0)
    whole = tile_zones(grid4, 1, 1, [0.4])
    scene = generate_scene(
        SceneSpec(seed=3, grid=grid4, zones=whole, months=EventWindow(EVENT), base_radiance=10.0)
    )
    mask = rasterize_zone(whole[0], grid4)
    assert zonal_mean(scene.radiance.get(EVENT), mask) == 6.0
    assert zonal_mean(scene.radiance.get(EVENT - 1), mask) == 10.0
    assert scene.truth[0].true_drop_percent == 40.0
    ok("noise-free event month darkens by the damage fraction")

    event_only_clouds = tuple([0.0] * 12 + [1.0] + [0.0] * 12)
    cloudy = generate_scene(
        SceneSpec(
            seed=4,
            grid=grid4,
            zones=whole,
            months=EventWindow(EVENT),
            base_radiance=10.0,
            noise=NoiseSpec(cloud_rate=event_only_clouds),
        )
    )
    assert not high_quality_mask(cloudy.quality.get(EVENT), Dataset.VSC_NTL).any()
    raw_series = build_zone_series(cloudy.radiance, mask, EventWindow(EVENT), "Z")
    assert raw_series.get(EVENT) == 10.0 and event_drop(raw_series, EventWindow(EVENT)) == 0.0
    filled = run_pipeline(
        cloudy.radiance, cloudy.quality, cloudy.built_fraction,
        config_from_label(Dataset.VSC_NTL, "quality"),
    )
    assert float(filled.get(EVENT).values[0, 0]) == 10.0
    ok("total event cloud cover hides the drop and imputes to baseline")

    noisy_spec = SceneSpec(
        seed=5, grid=grid4, zones=whole, months=EventWindow(EVENT), base_radiance=10.0,
        noise=NoiseSpec(gaussian_sigma=0.3, cloud_rate=0.2, corruption_scale=1.0, bloom_rate=0.1),
    )
    first, second = generate_scene(noisy_spec), generate_scene(noisy_spec)
    assert all(first.radiance.get(m) == second.radiance.get(m) for m in first.radiance.months)
    assert all(first.quality.get(m) == second.quality.get(m) for m in first.quality.months)
    assert first.truth == second.truth
    ok("same seed reproduces the scene bit for bit")

    grid6 = GridSpec(6, 6, 0.0, 0.0, 1.0)
    quads = tile_zones(grid6, 2, 2, [0.05, 0.2, 0.4, 0.6])
    clean = generate_scene(
        SceneSpec(seed=6, grid=grid6, zones=quads, months=EventWindow(EVENT),
                  base_radiance=[10.0, 20.0, 30.0, 40.0])
    )
    recovered, truth = oracle_check(clean, config_from_label(Dataset.VSC_NTL, "raw"))
    assert recovered >= 0.999 and truth >= 0.999
    ok("noise-free oracle recovery")

    # --- command line ---------------------------------------------------------------------------------------
    scene_doc = {
        "seed": 11,
        "dataset": "VSC-NTL",
        "grid": {"ncols": 8, "nrows": 8, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
        "event_month": "2018-10",
        "zones": {
            "nx": 3,
            "ny": 2,
            "damage_ratios": [0.6, 0.45, 0.3, 0.2, 0.1, 0.05],
            "populations": [1000, 2000, 3000, 4000, 5000, 6000],
        },
        "base_radiance": [18.0, 22.0, 26.0, 30.0, 34.0, 38.0],
    }
    scene_path = write_json(tmp_path / "scene.json", scene_doc)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(scene_path), "--out", str(sim)]) == 0
    capsys.readouterr()
    oracle_rows = dict(
        line.split(",") for line in (sim / "oracle.csv").read_text().splitlines()[1:]
    )
    assert float(oracle_rows["raw"]) >= 0.999
    ok("noiseless simulate scores a near-perfect raw oracle")

    sim_b = tmp_path / "sim_b"
    assert main(["simulate", "--config", str(scene_path), "--out", str(sim_b)]) == 0
    capsys.readouterr()
    assert (sim / "oracle.csv").read_bytes() == (sim_b / "oracle.csv").read_bytes()
    ok("repeated simulate writes an identical oracle")

    bad_doc = dict(scene_doc, noise={"cloud_rate": 1.5})
    bad_path = write_json(tmp_path / "bad_scene.json", bad_doc)
    assert main(["simulate", "--config", str(bad_path), "--out", str(tmp_path / "simbad_out")]) == 1
    captured = capsys.readouterr()
    assert "cloud_rate" in captured.err
    ok("out-of-range probability names the offending field")

    out1 = tmp_path / "out1"
    run_doc = {
        "datasets": [{"kind": "VSC-NTL", "raster_dir": str(sim / "VSC-NTL")}],
        "zones": str(sim / "zones.geojson"),
        "hurricanes": [{"name": "TEST", "event_month": "2018-10"}],
        "configs": ["raw", "quality"],
        "output_dir": str(out1),
        "case_study_k": 3,
    }
    run_path = write_json(tmp_path / "run.json", run_doc)
    assert main(["validate", "--config", str(run_path)]) == 0
    captured = capsys.readouterr()
    assert "VSC-NTL" in captured.out and "zones: 6" in captured.out
    assert "25 radiance months" in captured.out and "validation ok" in captured.out
    ok("validate summarizes datasets, zones, and months")

    missing_doc = dict(run_doc, zones=str(tmp_path / "nowhere.geojson"))
    missing_path = write_json(tmp_path / "run_missing.json", missing_doc)
    assert main(["validate", "--config", str(missing_path)]) == 1
    captured = capsys.readouterr()
    assert "nowhere.geojson" in captured.out + captured.err
    ok("validate names a missing zones file")

    bad_dir = tmp_path / "sim_mismatch"
    shutil.copytree(sim / "VSC-NTL", bad_dir)
    write_grid(RasterGrid(spec1, [[1.0]]), bad_dir / "2017-12.asc")
    mismatch_doc = dict(run_doc, datasets=[{"kind": "VSC-NTL", "raster_dir": str(bad_dir)}])
    mismatch_path = write_json(tmp_path / "run_mismatch.json", mismatch_doc)
    assert main(["validate", "--config", str(mismatch_path)]) == 1
    captured = capsys.readouterr()
    assert "2017-12.asc" in captured.out + captured.err
    ok("validate names a file whose grid disagrees")

    grid8 = GridSpec(8, 8, 0.0, 0.0, 1.0)
    pair_path = tmp_path / "zones_pair.geojson"
    write_zones(tile_zones(grid8, 2, 1, [0.3, 0.1]), pair_path)
    out2 = tmp_path / "out2"
    pair_doc = dict(run_doc, zones=str(pair_path), output_dir=str(out2))
    pair_cfg = write_json(tmp_path / "run_pair.json", pair_doc)
    assert main(["extract", "--config", str(pair_cfg)]) == 0
    capsys.readouterr()
    assert len(list(out2.rglob("*.csv"))) == 4
    ok("two zones times two configs extract to four files")

    stray_path = tmp_path / "zones_stray.geojson"
    write_zones(
        [Zone("IN", (rect_ring(0.0, 0.0, 4.0, 4.0),), 0.3),
         Zone("OUT", (rect_ring(100.0, 100.0, 101.0, 101.0),), 0.2)],
        stray_path,
    )
    out3 = tmp_path / "out3"
    stray_doc = dict(run_doc, zones=str(stray_path), configs=["raw"], output_dir=str(out3))
    stray_cfg = write_json(tmp_path / "run_stray.json", stray_doc)
    assert main(["extract", "--config", str(stray_cfg)]) == 0
    captured = capsys.readouterr()
    assert "covers no" in captured.err
    stray_series = read_series_csv(out3 / "VSC-NTL" / "raw" / "TEST" / "OUT.csv")
    assert all(math.isnan(v) for v in stray_series.values)
    ok("empty-mask zone yields a missing series plus a warning")

    assert main(["extract", "--config", str(pair_cfg)]) == 1
    captured = capsys.readouterr()
    assert "--force" in captured.err
    ok("rerun without force refuses to overwrite")

    assert main(["extract", "--config", str(run_path)]) == 0
    capsys.readouterr()
    strict_doc = dict(run_doc, min_damage=0.9)
    strict_path = write_json(tmp_path / "run_strict.json", strict_doc)
    assert main(["report", "--config", str(strict_path)]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    ok("report fails loudly when no zone passes the filter")

    assert main(["report", "--config", str(run_path)]) == 0
    capsys.readouterr()
    case_lines = (out1 / "case_study.csv").read_text().splitlines()
    rows = [line.split(",") for line in case_lines[1:]]
    assert len(rows) == 2 * 6 * 25
    zone_ids = {row[4] for row in rows}
    assert zone_ids == {"Z01", "Z02", "Z03", "Z04", "Z05", "Z06"}
    top_zones = {row[4] for row in rows if row[3] == "top"}
    assert top_zones == {"Z01", "Z02", "Z03"}
    per_key = {}
    for row in rows:
        per_key[(row[1], row[4])] = per_key.get((row[1], row[4]), 0) + 1
    assert set(per_key.values()) == {25}
    ok("case study walks six zones across the full window")

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(capsys, 1, f"operator fixtures, {len(done)} checks exact ({elapsed:.2f}s)")


def test_criterion_2_pearson_reference_equivalence(capsys):
    """Correlation agrees with an independent two-pass formula to 1e-12."""
    t0 = time.perf_counter()

    def two_pass(xs, ys):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        dx = x - x.mean()
        dy = y - y.mean()
        return float(np.dot(dx, dy) / (math.sqrt(np.dot(dx, dx)) * math.sqrt(np.dot(dy, dy))))

    rng = np.random.default_rng(211)
    compared = 0
    for case in range(100):
        n = int(rng.integers(2, 1001))
        scale = 10.0 ** float(rng.integers(-2, 3))
        xs = rng.normal(0.0, scale, n)
        if case % 2:
            ys = 0.7 * xs + rng.normal(0.0, scale, n)
        else:
            ys = rng.normal(0.0, scale, n)
        assert abs(pearson(xs.tolist(), ys.tolist()) - two_pass(xs, ys)) <= 1e-12
        compared += 1

    for _ in range(30):
        n = int(rng.integers(3, 60))
        xs = rng.normal(0.0, 5.0, n)
        ys = rng.normal(0.0, 5.0, n)
        base = pearson(xs.tolist(), ys.tolist())
        a = float(rng.uniform(0.1, 8.0))
        b = float(rng.uniform(-100.0, 100.0))
        assert abs(pearson((a * xs + b).tolist(), ys.tolist()) - base) <= 1e-12
        assert abs(pearson((-a * xs + b).tolist(), ys.tolist()) + base) <= 1e-12
        assert abs(pearson(xs.tolist(), (a * ys + b).tolist()) - base) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(
        capsys, 2,
        f"pearson equals the two-pass reference to 1e-12 on {compared} vectors "
        f"plus the affine suite ({elapsed:.2f}s)",
    )


def test_criterion_3_quality_word_round_trip(capsys):
    """decode then encode is the identity over the whole valid word space."""
    t0 = time.perf_counter()

    combos = 0
    for flags_tuple in itertools.product(
        DayNight, Background, CloudMaskQuality, CloudConfidence,
        (False, True), (False, True), (False, True),
    ):
        flags = QualityFlags(*flags_tuple)
        assert decode_vnp46a2_quality(encode_vnp46a2_quality(flags)) == flags
        combos += 1
    assert combos == 1280

    valid_words = 0
    for word in range(1 << 11):
        background_code = (word >> 1) & 0b111
        if background_code in (4, 6, 7):
            with pytest.raises(QualityDecodeError):
                decode_vnp46a2_quality(word)
            continue
        assert encode_vnp46a2_quality(decode_vnp46a2_quality(word)) == word
        valid_words += 1
    assert valid_words == 1280

    for code in (4, 6, 7):
        with pytest.raises(QualityDecodeError):
            decode_vnp46a2_quality(code << 1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(
        capsys, 3,
        f"quality words round trip over {valid_words} valid combinations; "
        f"reserved backgrounds raise ({elapsed:.2f}s)",
    )


def test_criterion_4_config_enumeration(capsys):
    """Expansion yields 12 and 4 canonically ordered method combinations."""
    t0 = time.perf_counter()

    vsc = [config.label for config in enumerate_configs(Dataset.VSC_NTL)]
    vnp = [config.label for config in enumerate_configs(Dataset.VNP46A2)]
    assert vsc == VSC_LABELS and len(vsc) == 12
    assert vnp == VNP_LABELS and len(vnp) == 4

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(capsys, 4, f"12 + 4 canonical method combinations ({elapsed:.2f}s)")


def test_criterion_5_noise_free_recovery(capsys):
    """Zero noise: every config recovers the planted linear damage signal."""
    t0 = time.perf_counter()

    bases = np.linspace(10.0, 40.0, 25).tolist()
    window = EventWindow(EVENT)
    configs_checked = 0
    for dataset in (Dataset.VSC_NTL, Dataset.VNP46A2):
        scene = tiled_scene(5, dataset, 20, bases, NoiseSpec())
        masks = {z.zone_id: rasterize_zone(z, scene.radiance.spec) for z in scene.spec.zones}
        for config in enumerate_configs(dataset):
            recovered, truth_pcc = oracle_check(scene, config)
            assert recovered >= 0.999 and truth_pcc >= 0.999
            processed = run_pipeline(scene.radiance, scene.quality, scene.built_fraction, config)
            for row in scene.truth:
                series = build_zone_series(processed, masks[row.zone_id], window, row.zone_id)
                drop = event_drop(series, window)
                expected = 100.0 * scene.spec.drop_gain * row.damage_ratio
                assert abs(drop - expected) <= 1e-6 * abs(expected)
            configs_checked += 1
    assert configs_checked == 16

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(
        capsys, 5,
        f"all {configs_checked} configs at PCC >= 0.999 with per-zone drops "
        f"exact to 1e-6 relative ({elapsed:.2f}s)",
    )


def test_criterion_6_quality_filter_superiority(capsys):
    """Flagged corruption: the quality config beats raw on almost every seed."""
    t0 = time.perf_counter()

    wins = 0
    quality_pccs = []
    raw_pccs = []
    for seed in range(20):
        bases = np.random.default_rng(1000 + seed).uniform(15.0, 40.0, 25).tolist()
        noise = NoiseSpec(gaussian_sigma=0.05, cloud_rate=0.3, corruption_scale=1.5)
        scene = tiled_scene(seed, Dataset.VNP46A2, 30, bases, noise)
        quality_pcc, _ = oracle_check(scene, config_from_label(Dataset.VNP46A2, "quality"))
        raw_pcc, _ = oracle_check(scene, config_from_label(Dataset.VNP46A2, "raw"))
        quality_pccs.append(quality_pcc)
        raw_pccs.append(raw_pcc)
        wins += quality_pcc > raw_pcc

    assert wins >= 18
    assert float(np.mean(quality_pccs)) > float(np.mean(raw_pccs))

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(
        capsys, 6,
        f"quality beats raw in {wins}/20 corrupted seeds "
        f"(mean {np.mean(quality_pccs):.3f} vs {np.mean(raw_pccs):.3f}, {elapsed:.2f}s)",
    )


def test_criterion_7_clip_benefit_under_blooming(capsys):
    """Bloom outliers: clip matches or beats both raw and remove per seed."""
    t0 = time.perf_counter()

    clip_wins_raw = 0
    clip_wins_remove = 0
    clip_pccs, raw_pccs, remove_pccs = [], [], []
    for seed in range(20):
        bases = np.random.default_rng(2000 + seed).uniform(32.0, 48.0, 25).tolist()
        noise = NoiseSpec(gaussian_sigma=0.45, bloom_rate=0.05)
        scene = tiled_scene(seed, Dataset.VSC_NTL, 60, bases, noise)
        clip_pcc, _ = oracle_check(scene, config_from_label(Dataset.VSC_NTL, "clip"))
        raw_pcc, _ = oracle_check(scene, config_from_label(Dataset.VSC_NTL, "raw"))
        remove_pcc, _ = oracle_check(scene, config_from_label(Dataset.VSC_NTL, "remove"))
        clip_pccs.append(clip_pcc)
        raw_pccs.append(raw_pcc)
        remove_pccs.append(remove_pcc)
        clip_wins_raw += clip_pcc >= raw_pcc
        clip_wins_remove += clip_pcc >= remove_pcc

    assert clip_wins_raw >= 15
    assert clip_wins_remove >= 15
    assert float(np.mean(clip_pccs)) >= float(np.mean(raw_pccs))
    assert float(np.mean(clip_pccs)) >= float(np.mean(remove_pccs))

    elapsed = time.perf_counter() - t0
    announce(
        capsys, 7,
        f"clip >= raw in {clip_wins_raw}/20 and clip >= remove in "
        f"{clip_wins_remove}/20 bloom seeds ({elapsed:.2f}s)",
    )


def test_criterion_8_bit_identical_reruns(tmp_path, capsys):
    """simulate and extract write byte-identical trees on repeat runs."""
    scene_doc = {
        "seed": 21,
        "dataset": "VSC-NTL",
        "grid": {"ncols": 10, "nrows": 10, "x_origin": 0.0, "y_origin": 0.0, "cell_size": 1.0},
        "event_month": "2018-10",
        "zones": {"nx": 2, "ny": 2, "damage_ratios": [0.05, 0.2, 0.4, 0.6]},
        "base_radiance": [12.0, 18.0, 24.0, 30.0],
        "noise": {
            "gaussian_sigma": 0.2,
            "cloud_rate": 0.15,
            "corruption_scale": 1.0,
            "bloom_rate": 0.05,
        },
    }
    scene_path = write_json(tmp_path / "scene.json", scene_doc)
    sim_a = tmp_path / "sim_a"
    sim_b = tmp_path / "sim_b"
    assert main(["simulate", "--config", str(scene_path), "--out", str(sim_a)]) == 0
    assert main(["simulate", "--config", str(scene_path), "--out", str(sim_b)]) == 0
    capsys.readouterr()
    sim_digest_a = tree_digest(sim_a)
    assert sim_digest_a and sim_digest_a == tree_digest(sim_b)

    run_doc = {
        "datasets": [{"kind": "VSC-NTL", "raster_dir": str(sim_a / "VSC-NTL")}],
        "zones": str(sim_a / "zones.geojson"),
        "hurricanes": [{"name": "TEST", "event_month": "2018-10"}],
        "configs": "all",
        "output_dir": str(tmp_path / "unused"),
    }
    run_path = write_json(tmp_path / "run.json", run_doc)
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert main(["extract", "--config", str(run_path), "--out", str(out_a)]) == 0
    assert main(["extract", "--config", str(run_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    extract_digest_a = tree_digest(out_a)
    assert extract_digest_a and extract_digest_a == tree_digest(out_b)

    announce(
        capsys, 8,
        f"simulate ({len(sim_digest_a)} files) and extract ({len(extract_digest_a)} files) "
        "rerun bit-identically",
    )


def test_criterion_9_imputation_properties(capsys):
    """Constant, envelope, and absent-history behavior over 1000 histories."""
    t0 = time.perf_counter()

    rng = np.random.default_rng(9001)
    constants = enveloped = absent = 0
    for case in range(1000):
        t = int(rng.integers(8, 40))
        window = int(rng.integers(1, 15))
        n = int(rng.integers(0, 9))
        if n:
            months = sorted(
                int(m) for m in rng.choice(np.arange(t - 16, t + 1), size=n, replace=False)
            )
        else:
            months = []
        make_constant = case % 3 == 0
        level = float(rng.uniform(0.5, 99.0))
        history = []
        for m in months:
            high_quality = bool(rng.random() < 0.6) and m != t
            if make_constant:
                value = level
            else:
                value = float(rng.uniform(0.0, 100.0)) * 10.0 ** int(rng.integers(-3, 4))
            history.append((m, value, high_quality))

        out = impute_pixel(history, t=t, window=window)
        contributors = [v for m, v, hq in history if hq and t - window <= m < t]
        if not contributors:
            assert math.isnan(out)
            absent += 1
            continue
        assert min(contributors) <= out <= max(contributors)
        enveloped += 1
        if make_constant:
            assert out == level
            constants += 1

    assert constants >= 100 and enveloped >= 400 and absent >= 80
    assert enveloped + absent == 1000

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(
        capsys, 9,
        f"{enveloped} envelope cases ({constants} exact constants) and "
        f"{absent} absent-history cases over 1000 histories ({elapsed:.2f}s)",
    )
