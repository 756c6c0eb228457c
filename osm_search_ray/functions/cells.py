"""Hierarchical grid-cell encoding (H3/S2 analogue, dependency-free).

The reference engine locates everything through a global R-tree
(``/root/reference/pkg/datastructure/rtree.go:167-496``).  At cluster scale a
single mutable tree is the wrong shape; instead every point and polygon is
assigned to cells of a fixed hierarchical equirectangular grid and the wide
spatial operators become hash-partitioned shuffles on the cell key, with a
small per-partition spatial index built inside actor workers
(see stages/spatial_join.py).

Scheme
------
At resolution ``r`` the world ``lon ∈ [-180, 180) × lat ∈ [-90, 90)`` is a
``2^r × 2^r`` grid.  A cell is identified by

    cell_id = ix * 2**r + iy          (int64; ix = lon index, iy = lat index)

which is deliberately *SQL-expressible* (pure floor arithmetic) so DuckDB
oracles can re-derive tile assignments exactly.  A Morton/Z-order variant
(`morton_cell`) interleaves the bits — the S2-style space-filling-curve key
used when range-partitioning output files so spatially close cells land in
the same Parquet partition.

All kernels are vectorized numpy; use inside ``map_batches``.
"""

from __future__ import annotations

import numpy as np

# Default resolutions (analogue of the reference's H3 res-7 / res-9 pairing).
RES_COARSE = 12  # ~0.088° ≈ 9.8 km at the equator — the join/shuffle key
RES_FINE = 14  # ~0.022° ≈ 2.4 km — fine tiling / kNN seed


def cell_of(lat: np.ndarray, lon: np.ndarray, res: int) -> np.ndarray:
    """Vectorized (lat, lon) → cell_id at resolution ``res``.

    SQL equivalent (the oracle contract — keep in sync):
        CAST(floor((lon + 180.0) / 360.0 * 2^res) AS BIGINT) * 2^res
        + CAST(floor((lat + 90.0) / 180.0 * 2^res) AS BIGINT)
    with both indices clamped to [0, 2^res - 1].
    """
    n = np.int64(1) << res
    ix = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 360.0 * n).astype(np.int64)
    iy = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0 * n).astype(np.int64)
    np.clip(ix, 0, n - 1, out=ix)
    np.clip(iy, 0, n - 1, out=iy)
    return ix * n + iy


def cell_ixiy(cell_id: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    n = np.int64(1) << res
    cell_id = np.asarray(cell_id, dtype=np.int64)
    return cell_id // n, cell_id % n


def cell_bounds(cell_id: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lat0, lon0, lat1, lon1) of each cell (degrees, half-open)."""
    n = float(1 << res)
    ix, iy = cell_ixiy(cell_id, res)
    lon0 = ix / n * 360.0 - 180.0
    lat0 = iy / n * 180.0 - 90.0
    return lat0, lon0, lat0 + 180.0 / n, lon0 + 360.0 / n


def parent_cell(cell_id: np.ndarray, res: int, parent_res: int) -> np.ndarray:
    """Re-key a cell to a coarser resolution (pure bit math, no floats)."""
    shift = res - parent_res
    if shift < 0:
        raise ValueError("parent_res must be <= res")
    ix, iy = cell_ixiy(cell_id, res)
    np_ = np.int64(1) << parent_res
    return (ix >> shift) * np_ + (iy >> shift)


def k_ring(cell_id: int, res: int, k: int) -> np.ndarray:
    """All cell ids within Chebyshev distance ``k`` of ``cell_id`` (the H3
    k-ring analogue used for kNN ring expansion — SURVEY.md K2).

    Longitude wraps; latitude clamps at the poles.
    """
    n = np.int64(1) << res
    ix, iy = int(cell_id) // int(n), int(cell_id) % int(n)
    dxs = np.arange(-k, k + 1, dtype=np.int64)
    gx, gy = np.meshgrid((ix + dxs) % n, iy + dxs, indexing="ij")
    keep = (gy >= 0) & (gy < n)
    return (gx[keep] * n + gy[keep]).ravel()


def ring_only(cell_id: int, res: int, k: int) -> np.ndarray:
    """Cells at Chebyshev distance exactly ``k`` (ring k minus ring k-1)."""
    if k == 0:
        return np.asarray([cell_id], dtype=np.int64)
    outer = set(k_ring(cell_id, res, k).tolist())
    inner = set(k_ring(cell_id, res, k - 1).tolist())
    return np.asarray(sorted(outer - inner), dtype=np.int64)


def cover_bbox(lat0: float, lon0: float, lat1: float, lon1: float, res: int) -> np.ndarray:
    """All cells intersecting a lat/lon bounding box (polygon → cell cover
    step of the spatial join; analogue of H3 ``polygon_to_cells`` over the
    MBR — exactness is restored by the per-partition PIP test)."""
    n = np.int64(1) << res
    ix0 = int(np.clip(np.floor((lon0 + 180.0) / 360.0 * float(n)), 0, int(n) - 1))
    ix1 = int(np.clip(np.floor((lon1 + 180.0) / 360.0 * float(n)), 0, int(n) - 1))
    iy0 = int(np.clip(np.floor((lat0 + 90.0) / 180.0 * float(n)), 0, int(n) - 1))
    iy1 = int(np.clip(np.floor((lat1 + 90.0) / 180.0 * float(n)), 0, int(n) - 1))
    gx, gy = np.meshgrid(
        np.arange(ix0, ix1 + 1, dtype=np.int64), np.arange(iy0, iy1 + 1, dtype=np.int64), indexing="ij"
    )
    return (gx * n + gy).ravel()


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 30 bits of v so there is a zero bit between each."""
    v = v.astype(np.uint64) & np.uint64(0x3FFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def morton_cell(lat: np.ndarray, lon: np.ndarray, res: int = 15) -> np.ndarray:
    """Z-order (Morton) interleaved cell key — the S2-style locality-preserving
    curve used to range-partition sinks so nearby tiles co-locate on disk."""
    n = np.int64(1) << res
    ix = np.clip(np.floor((np.asarray(lon, np.float64) + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    iy = np.clip(np.floor((np.asarray(lat, np.float64) + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    return (_spread_bits(ix) << np.uint64(1) | _spread_bits(iy)).astype(np.int64)
