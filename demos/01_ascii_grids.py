"""
Reading and writing ASCII raster grids
======================================

Round-trips a small radiance grid through the on-disk ASCII format,
shows how missing cells travel through, and coarsens a land-cover
classification into per-cell class fractions.
"""

import tempfile
from pathlib import Path

import numpy as np

from ntlpipe import GridSpec, IntRaster, RasterGrid, class_fraction_resample, read_grid, write_grid

workdir = Path(tempfile.mkdtemp(prefix="ntl_grids_"))

# A grid is a regular mesh of square cells. Row 0 is the northernmost row,
# and the origin names the lower-left corner of the whole extent.
spec = GridSpec(ncols=4, nrows=3, x_origin=0.0, y_origin=0.0, cell_size=0.5)
print("grid extent:", spec.ncols, "x", spec.nrows, "cells of", spec.cell_size)
print("cell-center xs by column:", spec.center_xs(), "ys by row, row 0 first:", spec.center_ys())

# Values live in a float raster; a boolean mask marks cells with no data.
values = np.arange(12, dtype=float).reshape(3, 4)
missing = np.zeros((3, 4), dtype=bool)
missing[1, 2] = True
radiance = RasterGrid(spec, values, missing)
print("valid cells:", int(radiance.valid.sum()), "of", spec.size)

# Writing and reading back reproduces the raster exactly, including the
# missing cell, because values serialize with full float precision.
path = workdir / "radiance.asc"
write_grid(radiance, path)
print("\nfirst lines of", path.name)
print("\n".join(path.read_text().splitlines()[:7]))
assert read_grid(path) == radiance
print("round trip exact:", read_grid(path) == radiance)

# Integer grids hold class labels or quality words. Aggregating a fine
# classification to a coarser mesh yields, per coarse cell, the fraction
# of fine cell-centers carrying the class of interest.
fine = GridSpec(ncols=4, nrows=4, x_origin=0.0, y_origin=0.0, cell_size=0.25)
labels = IntRaster(fine, [[6, 6, 0, 0],
                          [6, 6, 0, 6],
                          [0, 0, 6, 6],
                          [0, 0, 6, 6]])
coarse = GridSpec(ncols=2, nrows=2, x_origin=0.0, y_origin=0.0, cell_size=0.5)
fraction = class_fraction_resample(labels, coarse, class_label=6)
print("\nbuilt fraction per coarse cell:")
print(fraction.values)
