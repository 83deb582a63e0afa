"""
Ranking pre-processing methods on a synthetic hurricane
=======================================================

Plants a known damage signal in a noisy synthetic scene, recovers the
per-zone radiance drops under every method combination, and ranks the
combinations by how well the recovered drops correlate with the planted
damage ratios.
"""

import numpy as np

from ntlpipe import (
    Dataset,
    EventWindow,
    GridSpec,
    MonthIndex,
    NoiseSpec,
    SceneSpec,
    enumerate_configs,
    generate_scene,
    pearson,
    recovered_pccs,
    tile_zones,
)

# Twenty-five zones tile the grid; damage grows smoothly from light to
# severe so a perfect method would recover a correlation near one.
grid = GridSpec(ncols=30, nrows=30, x_origin=0.0, y_origin=0.0, cell_size=1.0)
damages = [0.01 + (0.6 - 0.01) * i / 24 for i in range(25)]
zones = tile_zones(grid, 5, 5, damages)
bases = np.random.default_rng(42).uniform(15.0, 40.0, 25)

# The noise model matters: flagged corruption overwrites almost a third
# of all observations with bright garbage, but marks them untrusted.
noise = NoiseSpec(gaussian_sigma=0.05, cloud_rate=0.3, corruption_scale=1.5)
scene = generate_scene(
    SceneSpec(
        seed=0,
        grid=grid,
        zones=zones,
        months=EventWindow(MonthIndex(2018, 10)),
        base_radiance=bases,
        dataset=Dataset.VNP46A2,
        noise=noise,
    )
)

# The noise-free drops recorded when the scene was generated are linear
# in the damage ratio, so the truth correlates at one.
truth = pearson([row.true_drop_percent for row in scene.truth], [row.damage_ratio for row in scene.truth])
print(f"truth pcc: {truth:.3f}\n")

# Every enumerated combination runs over the same scene in one chain, as
# `ntlpipe simulate` scores it: the quality pass runs once for the two
# configs that share it.
print(f"{'methods':<16} {'recovered':>9}")
rows = []
for config, recovered in recovered_pccs(scene, enumerate_configs(Dataset.VNP46A2)):
    rows.append((config.label, recovered))
    print(f"{config.label:<16} {recovered:>9.3f}")

best = max(rows, key=lambda row: row[1])
print("\nbest combination:", best[0])
print("quality filtering recovers the signal that raw leaves buried",
      "under flagged corruption.")
