"""Raster ↔ vector stages (north rule): per tile, rasterize polygon coverage
onto a fixed grid inside ``map_batches``, vectorize back, and verify the
round-trip against the vector tile assignment.

A tile (grid cell at RES_COARSE) is rasterized to GRID×GRID boolean coverage
of a polygon set; ``vectorize`` recovers the covered sub-cell rectangles
(run-length merged per row), whose union exactly equals the rasterization —
the round-trip invariant tested in tests/test_raster.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.cells import RES_COARSE, cell_bounds
from .spatial_join import PolygonSet

GRID = 64


def rasterize_tile(cell_id: int, polys: PolygonSet, res: int = RES_COARSE, grid: int = GRID) -> np.ndarray:
    """(grid, grid) bool mask: pixel center inside ANY polygon."""
    lat0, lon0, lat1, lon1 = cell_bounds(np.asarray([cell_id]), res)
    lat0, lon0, lat1, lon1 = float(lat0[0]), float(lon0[0]), float(lat1[0]), float(lon1[0])
    ys = lat0 + (np.arange(grid) + 0.5) * (lat1 - lat0) / grid
    xs = lon0 + (np.arange(grid) + 0.5) * (lon1 - lon0) / grid
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    pt_idx, _ = polys.locate(gy.ravel(), gx.ravel())
    mask = np.zeros(grid * grid, dtype=bool)
    mask[np.unique(pt_idx)] = True
    return mask.reshape(grid, grid)


def vectorize_mask(mask: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Mask → rectangles (row0, col0, row1, col1) inclusive, greedy
    row-RLE + vertical merge of identical runs. Union == mask exactly."""
    grid = mask.shape[0]
    open_rects: dict[tuple[int, int], list] = {}  # (c0, c1) -> [r0, r_last]
    out: list[tuple[int, int, int, int]] = []
    for r in range(grid):
        runs = []
        c = 0
        row = mask[r]
        while c < grid:
            if row[c]:
                c0 = c
                while c < grid and row[c]:
                    c += 1
                runs.append((c0, c - 1))
            else:
                c += 1
        next_open: dict[tuple[int, int], list] = {}
        for run in runs:
            if run in open_rects and open_rects[run][1] == r - 1:
                rect = open_rects.pop(run)
                rect[1] = r
                next_open[run] = rect
            else:
                next_open[run] = [r, r]
        for (c0, c1), (r0, r1) in open_rects.items():
            out.append((r0, c0, r1, c1))
        open_rects = next_open
    for (c0, c1), (r0, r1) in open_rects.items():
        out.append((r0, c0, r1, c1))
    return sorted(out)


def rects_to_mask(rects: list[tuple[int, int, int, int]], grid: int = GRID) -> np.ndarray:
    mask = np.zeros((grid, grid), dtype=bool)
    for r0, c0, r1, c1 in rects:
        mask[r0 : r1 + 1, c0 : c1 + 1] = True
    return mask


def rasterize_batch(batch: pa.Table, polys: PolygonSet, res: int, grid: int) -> pa.Table:
    """Per batch of tile cell ids, emit (cell, n_covered_px, n_rects,
    rects serialized)."""
    n_px, n_rects, rect_rows = [], [], []
    for c in batch.column("cell").to_numpy():
        mask = rasterize_tile(int(c), polys, res, grid)
        rects = vectorize_mask(mask)
        if not (rects_to_mask(rects, grid) == mask).all():
            raise RuntimeError("vectorize_mask: rects do not round-trip to the tile mask")
        n_px.append(int(mask.sum()))
        n_rects.append(len(rects))
        rect_rows.append(np.asarray(rects, dtype=np.int64).ravel().tolist())
    return pa.table(
        {
            "cell": batch.column("cell"),
            "covered_px": pa.array(n_px, pa.int64()),
            "n_rects": pa.array(n_rects, pa.int64()),
            "rects": pa.array(rect_rows, pa.list_(pa.int64())),
        }
    )


def rasterize_coverage(tiles: "ray.data.Dataset", polys: PolygonSet, res: int = RES_COARSE, grid: int = GRID):
    """tiles(cell) → per-tile raster coverage + vectorized rectangles. The
    polygon set is put once; each batch gets it from the object store."""
    ref = ray.put(polys)
    return tiles.map_batches(
        lambda t: rasterize_batch(t, ray.get(ref), res, grid), batch_format="pyarrow", batch_size=256
    )
