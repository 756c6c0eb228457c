"""kNN / nearby-places / reverse geocoding (SURVEY.md K2/K3, J4 analogues).

The reference answers kNN with best-first traversal of a global R-tree
(pkg/datastructure/rtree.go:675-713, Hjaltason–Samet).  Distributed shape:

  * ``broadcast_knn``: the QUERY side is small (a batch of API calls); it is
    broadcast once, every point batch computes distances to all queries
    vectorized and keeps a per-batch partial top-k — a combiner — so the
    shuffle/merge sees ≤ k rows per (query, block), never the full corpus.
    The final per-query merge is joins.topk_per_key.

  * ``cell_knn`` (scale path): corpus pre-partitioned by grid cell
    (tiles written by the tiling pipeline); each query reads only the
    k-ring of cells around it, ring-by-ring, stopping when the k-th best
    distance is proven ≤ the minimum possible distance of the next ring —
    the same bound the R-tree best-first traversal guarantees.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.cells import RES_FINE, cell_bounds, cell_of, ring_only
from ..functions.geometry import haversine_km
from ..functions.topk import query_topk
from .joins import topk_per_key


def knn_batch(
    batch: pa.Table, queries: pa.Table, k: int, lat_col: str, lon_col: str, id_col: str, radius_km: float | None
) -> pa.Table:
    """The per-batch combiner of broadcast_knn: for each query, the k
    nearest points of ``batch`` (within ``radius_km`` when given) as
    (query_id, id_col, dist_km) rows, ties to the smaller id."""
    lat = batch.column(lat_col).to_numpy()
    lon = batch.column(lon_col).to_numpy()
    ids = batch.column(id_col).to_numpy()
    qlat = queries.column("qlat").to_numpy()
    qlon = queries.column("qlon").to_numpy()

    def row(i):
        d = haversine_km(qlat[i], qlon[i], lat, lon)
        keep = d <= radius_km if radius_km is not None else slice(None)
        return ids[keep], -d[keep]  # nearest first = highest negated distance

    q, d, s = query_topk(queries.column("query_id").to_numpy(), k, row)
    return pa.table({"query_id": q, id_col: d, "dist_km": -s})


def broadcast_knn(
    points: "ray.data.Dataset",
    queries: pa.Table,
    k: int,
    lat_col: str = "lat",
    lon_col: str = "lon",
    id_col: str = "doc_id",
    radius_km: float | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Exact kNN of each broadcast query against the full point dataset.

    Ties broken by ascending id (deterministic; the reference's ordering is
    heap-pop order, asserted set-wise by its tests — SURVEY.md §5).
    Output: (query_id, id_col, dist_km, rank) with rank 1..k.
    """
    qref = ray.put(queries)

    def combine(batch: pa.Table) -> pa.Table:
        return knn_batch(batch, ray.get(qref), k, lat_col, lon_col, id_col, radius_km)

    partial = points.map_batches(combine, batch_format="pyarrow", batch_size=batch_size)
    return topk_per_key(partial, "query_id", "dist_km", id_col, k, descending=False)


def cell_knn_oneshot(
    tiles_dir: str,
    qlat: float,
    qlon: float,
    k: int,
    res: int = RES_FINE,
    id_col: str = "doc_id",
    max_rings: int = 64,
) -> pd.DataFrame:
    """Scale-path kNN over a cell-partitioned Parquet corpus: expand the
    k-ring ring-by-ring; stop once k hits are found AND the k-th best
    distance ≤ the minimum possible distance to the next unexplored ring
    (the R-tree best-first bound, pkg/datastructure/rtree.go:675-713).

    Reads only the Parquet partitions of visited cells (pruned read).
    """
    import glob

    import pyarrow.parquet as pq

    center = int(cell_of(np.asarray([qlat]), np.asarray([qlon]), res)[0])
    best: list[tuple[float, int]] = []
    for ring in range(max_rings):
        cells = ring_only(center, res, ring)
        frames = []
        for c in cells:
            # both layouts: ray write_parquet hive dirs and the checkpointed
            # sink's part=<cell> dirs
            for pat in (f"{tiles_dir}/cell={int(c)}/*.parquet", f"{tiles_dir}/part={int(c)}/*.parquet"):
                for f in glob.glob(pat):
                    frames.append(pq.read_table(f, columns=[id_col, "lat", "lon"]).to_pandas())
        if frames:
            df = pd.concat(frames, ignore_index=True)
            d = haversine_km(qlat, qlon, df["lat"].to_numpy(), df["lon"].to_numpy())
            for dist, i in zip(d, df[id_col].to_numpy()):
                best.append((float(dist), int(i)))
            best.sort()
            best = best[:k]
        if len(best) >= k:
            # lower bound on the distance to anything in ring r+1: a point in
            # the center cell is ≥ r axis-steps from every ring-(r+1) cell —
            # use the SMALLER step (lon cells shrink by cos(lat)) so the
            # bound stays conservative at all latitudes
            lat0, lon0, lat1, lon1 = cell_bounds(np.asarray([center]), res)
            lat_step_deg = lat1[0] - lat0[0]
            lat_step_km = lat_step_deg * 111.19492664455873
            # lon cells shrink with latitude: evaluate cos at the MAXIMUM
            # |latitude| reachable within ring+1 cells of the center, so the
            # per-step bound stays conservative for every unexplored cell
            # (ADVICE r01: the center-cell cos could terminate one ring early
            # near ties at high latitude)
            reach_lat = min(90.0, max(abs(lat0[0]), abs(lat1[0])) + (ring + 1) * lat_step_deg)
            lon_step_km = (lon1[0] - lon0[0]) * 111.19492664455873 * max(np.cos(np.radians(reach_lat)), 1e-9)
            if best[k - 1][0] <= ring * min(lat_step_km, lon_step_km):
                break
    return pd.DataFrame(
        {
            id_col: [i for _, i in best],
            "dist_km": [d for d, _ in best],
            "rank": np.arange(1, len(best) + 1, dtype=np.int64),
        }
    )
