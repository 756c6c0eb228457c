"""Tiling + spatial-join pipelines (the flagship, SURVEY.md §3.1 engine form).

pages → coordinate extraction → grid-cell assignment (tiling) → PIP join
against admin polygons → per-tile stats / partitioned Parquet tiles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.cells import RES_COARSE, RES_FINE, cell_of, morton_cell
from ..sources.derived import admin_rects, geo_pages, knn_query_points
from ..stages.spatial_join import PolygonSet, broadcast_pip_join, partitioned_pip_join
from ..stages.knn import broadcast_knn


def add_cells(batch: pa.Table, lat_col: str = "lat", lon_col: str = "lon") -> pa.Table:
    """Vectorized tile assignment: coarse + fine grid cells + Morton key."""
    lat = batch.column(lat_col).to_numpy()
    lon = batch.column(lon_col).to_numpy()
    batch = batch.append_column("cell_r12", pa.array(cell_of(lat, lon, RES_COARSE)))
    batch = batch.append_column("cell_r14", pa.array(cell_of(lat, lon, RES_FINE)))
    return batch.append_column("z_cell", pa.array(morton_cell(lat, lon)))


def tiled_pages(sf_dir: str) -> "ray.data.Dataset":
    """documents → geo pages → tile assignment."""
    return geo_pages(sf_dir).map_batches(add_cells, batch_format="pyarrow")


def tile_counts(sf_dir: str, res_col: str = "cell_r12") -> "ray.data.Dataset":
    """Per-tile document counts — pre-aggregated per batch (combiner) before
    the small groupby shuffle, so the exchange sees one row per (block, cell)
    instead of one per document."""

    def partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch.column(res_col).to_numpy(), return_counts=True)
        return pa.table({res_col: u, "n_docs": c.astype(np.int64)})

    from ray.data.aggregate import Sum

    partials = tiled_pages(sf_dir).map_batches(partial, batch_format="pyarrow")
    return partials.groupby(res_col).aggregate(Sum("n_docs", alias_name="n_docs"))


def pip_join(sf_dir: str, partitioned: bool = False) -> "ray.data.Dataset":
    """Every geo page joined to every admin rectangle containing it.

    Broadcast form by default (admin polygons are the small side); the
    ``partitioned`` flag exercises the cell-partitioned shuffle join —
    identical output, for the both-sides-large regime.
    """
    rects = admin_rects(sf_dir)
    polys = PolygonSet.from_rects(rects.select(["rect_id", "lat0", "lon0", "lat1", "lon1"]))
    pts = geo_pages(sf_dir)
    if partitioned:
        return partitioned_pip_join(pts, polys, id_out="rect_id")
    return broadcast_pip_join(pts, polys, id_out="rect_id").select_columns(["doc_id", "lat", "lon", "rect_id"])


def pip_tile_summary(sf_dir: str) -> "ray.data.Dataset":
    """Flagship composite: join + tiling + per-(rect, tile) aggregation."""

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {"rect_id": batch.column("rect_id").to_numpy(), "cell_r12": batch.column("cell_r12").to_numpy()}
        )
        g = df.groupby(["rect_id", "cell_r12"], sort=False).size().reset_index(name="n_docs")
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    joined = pip_join(sf_dir).map_batches(add_cells, batch_format="pyarrow")
    partials = joined.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["rect_id", "cell_r12"]).aggregate(Sum("n_docs", alias_name="n_docs"))


def knn_nearest_docs(sf_dir: str, k: int = 3) -> "ray.data.Dataset":
    """k nearest geo pages to each region-derived query point (K2 analogue)."""
    return broadcast_knn(geo_pages(sf_dir), knn_query_points(sf_dir), k=k).select_columns(
        ["query_id", "doc_id", "rank"]
    )


def write_tiles(sf_dir: str, out_dir: str) -> str:
    """Write the tiled corpus as cell-partitioned Parquet through the
    checkpointed sink (one directory per coarse cell + lineage manifest —
    resumable; also avoids Arrow's 1024-partitions-per-fragment limit that
    plain ``write_parquet(partition_cols=...)`` hits on wide cell spreads).
    kNN and reverse geocoding prune on the cell directories."""
    from ..sources.checkpoint import checkpointed_write

    checkpointed_write(tiled_pages(sf_dir), out_dir, "cell_r12", stage="tiles")
    return out_dir


def refresh_tiles(
    tiles_dir: str,
    upserts: "ray.data.Dataset | None" = None,
    deletes=None,
    id_col: str = "doc_id",
) -> list[int]:
    """Incremental index maintenance — the engine form of the reference
    R-tree's delete + reinsert (pkg/datastructure/rtree_test.go:477-713,
    rtree.go delete/condense/reinsert): instead of mutating a shared tree,
    ONLY the cell partitions touched by the change set are rewritten
    (read old partition → drop deleted/overwritten ids → append upserts →
    atomic tmp+rename, sidecar manifest refreshed); every untouched
    partition keeps its bytes and lineage. Returns the refreshed cell keys.

    ``upserts``: rows with the tile schema minus cell columns (id, lat,
    lon, ...); cells are assigned here. An id already present in a touched
    cell is REPLACED (reinsert semantics). ``deletes``: pandas frame with
    (id_col, lat, lon) — the location identifies the cell, exactly like
    the reference's Delete(bbox) API.

    STORAGE REQUIREMENT (ADVICE r02): partition merges run inside Ray
    workers with plain filesystem I/O against ``tiles_dir``, so the path
    must be visible AND writable at the same location from every node —
    a single-node cluster (this sandbox) or a shared filesystem / FUSE
    mount (NFS, s3fs, GCS-fuse) on multi-node. On a multi-node cluster
    WITHOUT a shared mount the rewrites would land on each worker's local
    disk silently; ``sources.checkpoint.assert_shared_visible`` refuses to
    run in that case by probing the directory from every node.
    """
    import json
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    del_by_cell: dict[int, set] = {}
    if deletes is not None and len(deletes):
        dcells = cell_of(
            np.asarray(deletes["lat"], np.float64), np.asarray(deletes["lon"], np.float64), RES_COARSE
        )
        for c, i in zip(dcells, deletes[id_col]):
            del_by_cell.setdefault(int(c), set()).add(int(i))

    import ray

    def merge_partition(cell: int, g, dels: set) -> dict:
        """Pure per-partition merge: drop deleted/overwritten ids, append
        upserts, atomic tmp+rename, refresh the sidecar manifest."""
        pdir = os.path.join(tiles_dir, f"part={cell}")
        path = os.path.join(pdir, "data.parquet")
        old = pq.read_table(path).to_pandas() if os.path.exists(path) else None
        if old is None:
            old = g.iloc[0:0]
        gone = dels | set(g[id_col].tolist())
        kept = old[~old[id_col].isin(gone)] if len(old) else old
        new = pd.concat([kept, g], ignore_index=True)[list(old.columns)]  # keep partition schema order
        new = new.sort_values(id_col, kind="mergesort").reset_index(drop=True)
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".tmp-data.parquet")
        pq.write_table(pa.Table.from_pandas(new, preserve_index=False), tmp)
        os.replace(tmp, path)
        row = {
            "stage": "tiles_refresh",
            "partition_key": cell,
            "row_count": int(len(new)),
            "byte_count": int(os.path.getsize(path)),
            "wall_ms": 0,
            "status": "done",
        }
        side = os.path.join(pdir, ".tmp-manifest.json")
        with open(side, "w") as f:
            json.dump(row, f)
        os.replace(side, os.path.join(pdir, "manifest.json"))
        return row

    from ..sources.checkpoint import assert_shared_visible

    assert_shared_visible(tiles_dir)
    del_ref = ray.put(del_by_cell)
    manifest_rows: list[dict] = []
    upsert_cells: set[int] = set()
    if upserts is not None:

        def rewrite_cell(g: pd.DataFrame) -> pd.DataFrame:
            dels = ray.get(del_ref)
            cell = int(g["cell_r12"].iloc[0])
            return pd.DataFrame([merge_partition(cell, g, dels.get(cell, set()))])

        out = (
            upserts.map_batches(add_cells, batch_format="pyarrow")
            .groupby("cell_r12")
            .map_groups(rewrite_cell, batch_format="pandas")
            .to_pandas()
        )
        manifest_rows += out.to_dict("records")
        upsert_cells = {int(k) for k in out["partition_key"]}

    # delete-only cells: an incremental batch touches few — merge them with
    # empty upsert frames (schema taken from the existing partition)
    for cell in sorted(set(del_by_cell) - upsert_cells):
        path = os.path.join(tiles_dir, f"part={cell}", "data.parquet")
        if not os.path.exists(path):
            continue
        empty = pq.read_table(path).to_pandas().iloc[0:0]
        manifest_rows.append(merge_partition(cell, empty, del_by_cell[cell]))

    # append refreshed rows to the compacted manifest (completed_keys reads
    # both the jsonl and the per-partition sidecars)
    if manifest_rows:
        mp = os.path.join(tiles_dir, "_manifest.jsonl")
        with open(mp, "a") as f:
            for r in manifest_rows:
                f.write(json.dumps(r) + "\n")
    return sorted(int(r["partition_key"]) for r in manifest_rows)


def knn_radius_lang(sf_dir: str, k: int = 5, radius_km: float = 25.0, lang: str = "en") -> "ray.data.Dataset":
    """K3 analogue — radius + feature-filtered kNN: the k nearest geo pages
    within ``radius_km`` whose ``lang`` matches (the reference's
    NearestNeighboursRadiusWithFeatureFilter, pkg/datastructure/rtree.go:648-672;
    the feature predicate filters the streamed side before the combiner)."""
    import pyarrow.compute as _pc

    pts = geo_pages(sf_dir, columns=["doc_id", "lang"])
    pts = pts.map_batches(lambda t: t.filter(_pc.equal(t.column("lang"), lang)), batch_format="pyarrow")
    return broadcast_knn(pts, knn_query_points(sf_dir), k=k, radius_km=radius_km).select_columns(
        ["query_id", "doc_id", "rank"]
    )


def reverse_geocode(sf_dir: str) -> "ray.data.Dataset":
    """Reverse geocoding = 1-NN (the reference's ReverseGeocoding,
    pkg/searcher/searcher.go:679-686): nearest geo page to each query point."""
    return broadcast_knn(geo_pages(sf_dir), knn_query_points(sf_dir), k=1).select_columns(
        ["query_id", "doc_id", "rank"]
    )


def kring_density(sf_dir: str, res: int = RES_COARSE):
    """k-ring neighborhood density (the H3 k-ring analogue on the grid,
    reference kNN seed pattern /root/reference/pkg/kv/...): for every
    OCCUPIED res-12 cell, the total docs in its 3x3 cell neighborhood.

    Shape: per-cell counts (tile_counts combiner + one small groupby), then
    each count row is FANNED OUT to its <=9 neighbor cells (flat-map, x9
    rows of an already cell-aggregated — i.e. tiny — table) and summed in
    one cell-keyed exchange; occupied-cell markers ride the same exchange,
    so unoccupied ring members never produce output rows. No driver state,
    no polygon broadcast — the ring is pure cell arithmetic."""
    from ..stages.joins import hash_partitioned_apply
    import pandas as pd

    n = 1 << res
    counts = tile_counts(sf_dir)

    def fan_out(batch: pa.Table) -> pa.Table:
        cell = batch.column("cell_r12").to_numpy(zero_copy_only=False)
        cnt = batch.column("n_docs").to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = cell // n, cell % n
        cells_out, n_out, side_out = [cell], [cnt], [np.zeros(len(cell), np.int8)]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                m = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                cells_out.append((nx * n + ny)[m])
                n_out.append(cnt[m])
                side_out.append(np.ones(int(m.sum()), np.int8))
        return pa.table(
            {
                "cell_r12": pa.array(np.concatenate(cells_out)),
                "n": pa.array(np.concatenate(n_out)),
                "side": pa.array(np.concatenate(side_out)),
            }
        )

    def ring_sum(df: "pd.DataFrame") -> "pd.DataFrame":
        occ = df[df["side"] == 0][["cell_r12", "n"]].rename(columns={"n": "n_docs"})
        ring = (
            df[df["side"] == 1]
            .groupby("cell_r12", sort=False, as_index=False)["n"]
            .sum()
            .rename(columns={"n": "n_ring"})
        )
        out = occ.merge(ring, on="cell_r12")  # inner: occupied cells only
        out["n_docs"] = out["n_docs"].astype(np.int64)
        out["n_ring"] = out["n_ring"].astype(np.int64)
        return out

    fanned = counts.map_batches(fan_out, batch_format="pyarrow")
    return hash_partitioned_apply(fanned, "cell_r12", ring_sum, num_parts=16)


# ----------------------------------------------------- z-order global sort

Z_QUAD_RES = 10  # quadtree level reported alongside the key (fixture spans ~20 quads)


def zorder_sort(sf_dir: str):
    """Global Z-order (Morton) curve ordering of the corpus — the
    OPTIMIZE-ZORDER trick: sorting pages by the interleaved cell key makes
    any axis-aligned spatial window a SMALL number of contiguous key
    ranges, so windowed reads touch O(few) sorted runs instead of the
    whole corpus (functions/cells.morton_cell already range-partitions the
    tile sinks; this exposes the same curve as a driver-checkable global
    sort).  Output (doc_id, zkey, quad4, rank): rank by (zkey, doc_id) via
    the global-rank machinery (range-exchange sort + O(blocks) driver
    offsets), quad = the level-Z_QUAD_RES quadtree prefix — every aligned quad is
    a CONTIGUOUS rank interval (the defining Morton property, unit-pinned).
    """
    from ..functions.cells import morton_cell
    from ..stages.joins import zip_with_index

    pages = geo_pages(sf_dir, columns=["doc_id"])

    def add_z(t: pa.Table) -> pa.Table:
        lat = t.column("lat").to_numpy()
        lon = t.column("lon").to_numpy()
        z = morton_cell(lat, lon)  # res 15
        quad = z >> (2 * (15 - Z_QUAD_RES))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "zkey": pa.array(z),
                "quad": pa.array(quad.astype(np.int64)),
            }
        )

    srt = pages.map_batches(add_z, batch_format="pyarrow").sort(["zkey", "doc_id"])

    def to_rank(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rank = pc.add(t.column("row_id"), 1)
        return t.drop_columns(["row_id"]).append_column("rank", rank)

    return zip_with_index(srt, "row_id").map_batches(to_rank, batch_format="pyarrow")


def sql_zorder_sort() -> str:
    """Exact twin of functions/cells._spread_bits + morton_cell as a CTE
    chain (15-bit coords; every intermediate < 2^62 so BIGINT bit ops are
    sign-safe)."""
    from ..sources.derived import SQL_GEO_PAGES

    n = 1 << 15
    steps = [
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    ]
    ctes = [
        f"""xy AS (SELECT doc_id,
    LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1}) AS x,
    LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1}) AS y
  FROM geo_pages)"""
    ]
    prev = "xy"
    for axis in ("x", "y"):
        for i, (s, m) in enumerate(steps):
            other = "y" if axis == "x" else "x"
            cur = f"s{axis}{i}"
            ctes.append(
                f"{cur} AS (SELECT doc_id, (({axis} | ({axis} << {s})) & {m}) AS {axis}, {other} FROM {prev})"
            )
            prev = cur
    chain = ",\n".join(ctes)
    return f"""
WITH {SQL_GEO_PAGES.strip()},
{chain},
z AS (SELECT doc_id, (x << 1) | y AS zkey FROM {prev})
SELECT doc_id, zkey, zkey >> {2 * (15 - Z_QUAD_RES)} AS quad,
       ROW_NUMBER() OVER (ORDER BY zkey, doc_id) AS rank
FROM z
"""


# ------------------------------------------------ nearest-neighbor self-join

_KM_PER_DEG = 111.19492664455873


def nn_join(sf_dir: str, res: int = RES_COARSE):
    """Spatial 1-NN SELF-join: every page's nearest OTHER page — the geo
    twin of simsearch.knn_graph, and the all-pairs operator the query-set
    kNN (broadcast_knn) cannot give at scale.  Output (doc_id, nn_id).

    Two regimes, together EXACT:
      1. bucketed ring pass — each page emits one member row into its res-12
         cell and query rows into the 3x3 ring; ONE cell-keyed exchange;
         per partition the per-query nearest candidate (vectorized
         haversine), then ONE doc-keyed exchange reduces the up-to-9
         per-cell candidates and evaluates the confirmation bound: any
         point outside the 3x3 block differs by >= one full cell step in
         grid lat or lon, so its distance is >= 1 x min(lat_step_km,
         lon_step_km at the maximum |lat| reachable within 2 cells) — the
         cell_knn_oneshot best-first bound at ring=1.  Seam columns
         (grid x = 0 or n-1) are NEVER confirmed: the grid does not wrap
         but the antimeridian does, so wrapped partners violate the
         grid-distance argument only there.
      2. fallback — the UNCONFIRMED remainder (sparse rings, high
         latitudes, seam; small by construction — it is the only piece
         that ever reaches the driver) is re-resolved exactly against the
         full corpus stream with the broadcast-kNN combiner.

    Nothing corpus-sized touches the driver: the confirmed side stays a
    Dataset end to end.  Tie rule both regimes and in SQL: (distance,
    nn_id) ascending."""
    import pandas as pd

    from ..functions.cells import cell_bounds
    from ..functions.geometry import haversine_km
    from ..stages.joins import hash_partitioned_apply

    n_cells = 1 << res
    pages = geo_pages(sf_dir)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        cell = cell_of(lat, lon, res)
        x, y = cell // n_cells, cell % n_cells
        out = {"cell": [], "doc_id": [], "lat": [], "lon": [], "side": []}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                ok = (nx >= 0) & (nx < n_cells) & (ny >= 0) & (ny < n_cells)
                out["cell"].append((nx * n_cells + ny)[ok])
                out["doc_id"].append(ids[ok])
                out["lat"].append(lat[ok])
                out["lon"].append(lon[ok])
                side = np.ones(int(ok.sum()), np.int8)
                if dx == 0 and dy == 0:
                    side[:] = 0  # member AND query in its own cell
                out["side"].append(side)
        return pa.table(
            {
                "cell": pa.array(np.concatenate(out["cell"])),
                "doc_id": pa.array(np.concatenate(out["doc_id"])),
                "lat": pa.array(np.concatenate(out["lat"])),
                "lon": pa.array(np.concatenate(out["lon"])),
                "side": pa.array(np.concatenate(out["side"])),
            }
        )

    def best_in_cell(df: pd.DataFrame) -> pd.DataFrame:
        """Per probed cell: each query's nearest member (self excluded).
        side=0 rows (a page in its OWN cell) always emit — with a -1
        sentinel when the cell holds no other member — so every page
        reaches the doc-keyed reduce exactly once even in empty rings."""
        outs = []
        for _, g in df.groupby("cell", sort=False):
            mem = g[g["side"] == 0]
            if len(mem) == 0:
                continue
            mids = mem["doc_id"].to_numpy(np.int64)
            mlat, mlon = mem["lat"].to_numpy(), mem["lon"].to_numpy()
            qids = g["doc_id"].to_numpy(np.int64)
            qlat, qlon = g["lat"].to_numpy(), g["lon"].to_numpy()
            own = g["side"].to_numpy() == 0
            for qi in range(len(qids)):
                d = haversine_km(qlat[qi], qlon[qi], mlat, mlon)
                mask = mids != qids[qi]
                if mask.any():
                    dm, im = d[mask], mids[mask]
                    j = np.lexsort((im, dm))[0]
                    outs.append((qids[qi], int(im[j]), float(dm[j]), qlat[qi], qlon[qi]))
                elif own[qi]:
                    outs.append((qids[qi], -1, np.inf, qlat[qi], qlon[qi]))
        cols = ["doc_id", "nn_id", "dist_km", "lat", "lon"]
        if not outs:
            return pd.DataFrame({c: pd.Series(dtype=np.float64 if c in ("dist_km", "lat", "lon") else np.int64) for c in cols})
        out = pd.DataFrame(outs, columns=cols)
        return out.astype({"doc_id": np.int64, "nn_id": np.int64})

    cand = hash_partitioned_apply(
        pages.map_batches(tag, batch_format="pyarrow"), "cell", best_in_cell, num_parts=16
    )

    def reduce_doc(df: pd.DataFrame) -> pd.DataFrame:
        """Per page: best candidate across its probed cells + the ring
        confirmation bound (computed from the page's own coordinates —
        nothing leaves the partition)."""
        df = df.sort_values(["doc_id", "dist_km", "nn_id"], kind="mergesort").drop_duplicates("doc_id")
        lat = df["lat"].to_numpy()
        lon = df["lon"].to_numpy()
        cell = cell_of(lat, lon, res)
        lat0, lon0, lat1, lon1 = cell_bounds(cell, res)
        lat_step = lat1 - lat0
        reach_lat = np.minimum(90.0, np.maximum(np.abs(lat0), np.abs(lat1)) + 2 * lat_step)
        lon_step_km = (lon1 - lon0) * _KM_PER_DEG * np.maximum(np.cos(np.radians(reach_lat)), 1e-9)
        bound_km = np.minimum(lat_step * _KM_PER_DEG, lon_step_km)
        x = cell // n_cells
        seam = (x <= 0) | (x >= n_cells - 1)
        confirmed = (~seam) & (df["nn_id"].to_numpy() >= 0) & (df["dist_km"].to_numpy() <= bound_km)
        out = df[["doc_id", "nn_id", "lat", "lon"]].copy()
        out["confirmed"] = confirmed
        return out

    reduced = hash_partitioned_apply(cand, "doc_id", reduce_doc, num_parts=16)

    confirmed_ds = reduced.map_batches(
        lambda t: t.filter(t.column("confirmed")).select(["doc_id", "nn_id"]),
        batch_format="pyarrow",
    )
    unresolved = reduced.map_batches(
        lambda t: t.filter(pc_not(t.column("confirmed"))).select(["doc_id", "lat", "lon"]),
        batch_format="pyarrow",
    ).to_pandas()  # small by construction: the bound confirms dense interior pages

    fallback = None
    if len(unresolved):
        from ..stages.knn import broadcast_knn

        q = pa.table(
            {
                "query_id": pa.array(unresolved["doc_id"].to_numpy(np.int64)),
                "qlat": pa.array(unresolved["lat"].to_numpy()),
                "qlon": pa.array(unresolved["lon"].to_numpy()),
            }
        )
        res2 = broadcast_knn(geo_pages(sf_dir), q, k=2).to_pandas()
        res2 = res2[res2["doc_id"] != res2["query_id"]]
        res2 = res2.sort_values(["query_id", "rank"], kind="mergesort").drop_duplicates("query_id")
        fallback = pd.DataFrame(
            {
                "doc_id": res2["query_id"].to_numpy(np.int64),
                "nn_id": res2["doc_id"].to_numpy(np.int64),
            }
        )
    # result stays a Dataset — the confirmed (corpus-sized) side never
    # collects on the driver; only the small fallback frame does
    if fallback is None or len(fallback) == 0:
        return confirmed_ds
    return confirmed_ds.union(ray.data.from_pandas(fallback))


def pc_not(arr):
    import pyarrow.compute as _pc

    return _pc.invert(arr)


def sql_nn_join() -> str:
    from ..sources.derived import SQL_GEO_PAGES, SQL_HAVERSINE

    hav = SQL_HAVERSINE.format(lat1="a.lat", lon1="a.lon", lat2="b.lat", lon2="b.lon")
    return f"""
WITH {SQL_GEO_PAGES.strip()},
scored AS (
    SELECT a.doc_id, b.doc_id AS nn_id,
           ROW_NUMBER() OVER (PARTITION BY a.doc_id ORDER BY {hav}, b.doc_id) AS rank
    FROM geo_pages a JOIN geo_pages b ON b.doc_id <> a.doc_id
)
SELECT doc_id, nn_id FROM scored WHERE rank = 1
"""


PYRAMID_TOP = 8  # coarsest rollup level (res 12 → 8 = 5 pyramid levels)


def _pyramid_levels(sf_dir: str, res_fine: int, res_top: int) -> dict:
    """Per-cell doc counts at every level in [res_top, res_fine]: ONE corpus
    pass at the finest level, then 4×-shrinking cells-bounded parent rollups
    (the shared core of tile_pyramid and adaptive_tiles)."""
    from ray.data.aggregate import Sum

    levels = {res_fine: tile_counts(sf_dir).materialize()}
    for r in range(res_fine, res_top, -1):
        n = 1 << r
        half = n >> 1

        def to_parent(batch: pa.Table, n=n, half=half) -> pa.Table:
            c = batch.column(batch.column_names[0]).to_numpy().astype(np.int64)
            parent = (c // n // 2) * half + (c % n) // 2
            return pa.table({"cell": pa.array(parent), "n_docs": batch.column("n_docs")})

        levels[r - 1] = (
            levels[r]
            .map_batches(to_parent, batch_format="pyarrow")
            .groupby("cell")
            .aggregate(Sum("n_docs", alias_name="n_docs"))
            .materialize()
        )
    return levels


def tile_pyramid(sf_dir: str, res_fine: int = RES_COARSE, res_top: int = PYRAMID_TOP):
    """The full TILE PYRAMID in one corpus pass: per-cell doc counts at the
    finest resolution, then parent rollups level by level down to
    ``res_top`` — the map-serving aggregation every tiling engine ships
    (z/x/y count tiles at all zooms). Parent arithmetic is pure integer:
    cell = x·2^r + y → parent = (x//2)·2^(r-1) + y//2, and the equirect
    floor guarantees parent-of-child == direct assignment at the coarser
    res (clamping included, n even). The corpus is read ONCE (combiner
    partials at the finest level); each coarser level reduces the previous
    one, a 4× smaller cells-bounded exchange per level — documents never
    re-shuffle. Output (level, cell, n_docs) for level in [res_top,
    res_fine]."""
    levels = _pyramid_levels(sf_dir, res_fine, res_top)

    def tag(r: int):
        def fn(batch: pa.Table) -> pa.Table:
            c = batch.column(batch.column_names[0]).to_numpy().astype(np.int64)
            return pa.table(
                {
                    "level": pa.array(np.full(len(c), r, np.int64)),
                    "cell": pa.array(c),
                    "n_docs": batch.column("n_docs"),
                }
            )

        return fn

    out = None
    for r, ds_r in sorted(levels.items()):
        tagged = ds_r.map_batches(tag(r), batch_format="pyarrow")
        out = tagged if out is None else out.union(tagged)
    return out


def sql_tile_pyramid(res_fine: int = RES_COARSE, res_top: int = PYRAMID_TOP) -> str:
    import osm_search_ray.sources.derived as _dv

    parts = []
    for r in range(res_top, res_fine + 1):
        parts.append(
            f"SELECT CAST({r} AS BIGINT) AS level, {_dv.sql_cell_expr('lat', 'lon', r)} AS cell,\n"
            f"       COUNT(*) AS n_docs FROM geo_pages GROUP BY 1, 2"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}
{union}
"""


# ----------------------------------------------------- adaptive quadtree tiling

TILE_CAP = 64  # max docs per tile before it must split (the quadtree knob)


def adaptive_tiles(
    sf_dir: str, res_fine: int = RES_COARSE, res_top: int = PYRAMID_TOP, cap: int = TILE_CAP
):
    """ADAPTIVE (quadtree) tiling: split every tile whose doc count exceeds
    ``cap`` into its 4 children, recursively, down to ``res_fine`` — the
    cap-split leaf layout tile servers use so dense urban tiles go deep
    while empty ocean stays coarse (the reference's R-tree leaf-size bound,
    /root/reference/pkg/datastructure/rtree.go MAXENTRIES, re-expressed as a
    grid decomposition).

    Counts are monotone up the pyramid (parent ≥ child), so a tile is a LEAF
    of the decomposition iff
      - level == res_top and count ≤ cap                  (never split), or
      - count ≤ cap and count(parent) > cap               (split stopped here), or
      - level == res_fine and count(parent) > cap         (unsplittable floor —
        kept even when still over cap; parent > cap implies every higher
        ancestor > cap, so the tile genuinely exists in the decomposition).
    Leaves therefore partition the corpus: every page lies in exactly one
    (tests/test_adaptive_dbscan.py pins Σ n_docs == n_pages).

    Shape: ONE corpus pass (a multi-level combiner emits per-batch partial
    counts for every level at once — the pyramid re-keyed by pure parent bit
    math), ONE (level, cell) count reduce, then ONE bounded exchange keyed
    by (level, parent cell) in which every count row plays child to its
    parent and parent to its children — so the whole decomposition costs
    two cells-bounded exchanges after the corpus read, no broadcast of any
    level-sized table, and nothing corpus-sized ever re-shuffles. Output
    (level, cell, n_docs) over leaf tiles only."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from ..functions.cells import parent_cell
    from ..stages.joins import hash_partitioned_apply

    rng = list(range(res_top, res_fine + 1))

    def partial(batch: pa.Table) -> pa.Table:
        fine = batch.column("cell_r12").to_numpy()
        lvl_out, cell_out, n_out = [], [], []
        for r in rng:
            u, c = np.unique(parent_cell(fine, res_fine, r), return_counts=True)
            lvl_out.append(np.full(u.size, r, np.int64))
            cell_out.append(u)
            n_out.append(c.astype(np.int64))
        return pa.table(
            {
                "level": pa.array(np.concatenate(lvl_out)),
                "cell": pa.array(np.concatenate(cell_out)),
                "n_docs": pa.array(np.concatenate(n_out)),
            }
        )

    counts = (
        tiled_pages(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["level", "cell"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )

    def tag(batch: pa.Table) -> pa.Table:
        lvl = batch.column("level").to_numpy().astype(np.int64)
        c = batch.column("cell").to_numpy().astype(np.int64)
        nd = batch.column("n_docs").to_numpy().astype(np.int64)
        # child role: keyed by (own level, parent cell); top level keys to
        # its own cell (no parent exists — the partition rule special-cases it)
        n_arr = np.int64(1) << lvl
        half = n_arr >> 1
        pcell = np.where(lvl > res_top, (c // n_arr // 2) * half + (c % n_arr) // 2, c)
        roles = [
            pa.table(
                {
                    "klevel": pa.array(lvl),
                    "pkey": pa.array(pcell),
                    "cell": pa.array(c),
                    "n": pa.array(nd),
                    "side": pa.array(np.ones(c.size, np.int8)),
                }
            )
        ]
        m = lvl < res_fine  # parent role for the level below
        roles.append(
            pa.table(
                {
                    "klevel": pa.array(lvl[m] + 1),
                    "pkey": pa.array(c[m]),
                    "cell": pa.array(c[m]),
                    "n": pa.array(nd[m]),
                    "side": pa.array(np.zeros(int(m.sum()), np.int8)),
                }
            )
        )
        return pa.concat_tables(roles)

    def leaves(df: "pd.DataFrame") -> "pd.DataFrame":
        kids = df[df["side"] == 1]
        par = df[df["side"] == 0][["klevel", "pkey", "n"]].rename(columns={"n": "pn"})
        j = kids.merge(par, on=["klevel", "pkey"], how="left")
        top = j["klevel"] == res_top
        ok_top = top & (j["n"] <= cap)
        deep = ~top & (j["pn"] > cap) & ((j["n"] <= cap) | (j["klevel"] == res_fine))
        j = j[ok_top | deep]
        return pd.DataFrame(
            {
                "level": j["klevel"].to_numpy(np.int64),
                "cell": j["cell"].to_numpy(np.int64),
                "n_docs": j["n"].to_numpy(np.int64),
            }
        )

    tagged = counts.map_batches(tag, batch_format="pyarrow")
    return hash_partitioned_apply(tagged, ["klevel", "pkey"], leaves)


def sql_adaptive_tiles(
    res_fine: int = RES_COARSE, res_top: int = PYRAMID_TOP, cap: int = TILE_CAP
) -> str:
    import osm_search_ray.sources.derived as _dv

    ctes = [
        f"c{r} AS (SELECT {_dv.sql_cell_expr('lat', 'lon', r)} AS cell, COUNT(*) AS n\n"
        f"         FROM geo_pages GROUP BY 1)"
        for r in range(res_top, res_fine + 1)
    ]
    parts = [
        f"SELECT CAST({res_top} AS BIGINT) AS level, cell, n AS n_docs FROM c{res_top} WHERE n <= {cap}"
    ]
    for r in range(res_top + 1, res_fine + 1):
        n = 1 << r
        half = n >> 1
        own = f"AND c.n <= {cap}" if r != res_fine else ""
        parts.append(
            f"SELECT CAST({r} AS BIGINT) AS level, c.cell, c.n AS n_docs\n"
            f"FROM c{r} c JOIN c{r - 1} p ON p.cell = (c.cell // {n} // 2) * {half} + (c.cell % {n}) // 2\n"
            f"WHERE p.n > {cap} {own}"
        )
    union = "\nUNION ALL\n".join(parts)
    cte_block = ",\n".join(ctes)
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()},
{cte_block}
{union}
"""


# ----------------------------------------------------- grid DBSCAN clustering

DBSCAN_MIN_PTS = 12  # 3x3-neighborhood density bound for a CORE cell


def dbscan_cells(sf_dir: str, res: int = RES_COARSE, min_pts: int = DBSCAN_MIN_PTS):
    """Grid DBSCAN (GDBSCAN on the cell lattice): a cell is CORE when its
    3×3 neighborhood holds ≥ ``min_pts`` documents (the eps-neighborhood,
    eps = one cell pitch, self included — exactly kring_density's n_ring);
    clusters are the connected components of core cells under 8-adjacency,
    labelled by the component's min cell id. The density-based spatial
    clustering every geo stack ships, composed entirely from primitives this
    engine already has: the k-ring density pass + the generic contraction-CC
    operator, so every exchange is cells-bounded (the corpus shuffles once,
    inside tile_counts' combiner aggregate; all later tables are ≤ one row
    per occupied cell).

    Adjacency edges: every core cell fans out to its ≤8 neighbors keyed BY
    the neighbor, core occupants ride the same exchange side-tagged, so an
    edge materializes only when both endpoints are core — no cells-squared
    blowup, no driver state. Each undirected edge is born twice (once per
    endpoint's partition); contraction CC is insensitive to duplicates, so
    no distinct pass is spent. Singleton core cells (no core neighbor) take
    cluster_id = self via one final cells-bounded side-tagged exchange.

    Output (cell_r12, cluster_id, n_docs) over core cells."""
    import pandas as pd

    from ..stages.joins import hash_partitioned_apply
    from .webcorpus import contraction_cc

    n = 1 << res
    cells = kring_density(sf_dir, res=res).materialize()

    def core_only(batch: pa.Table) -> pa.Table:
        keep = pa.array(batch.column("n_ring").to_numpy() >= min_pts)
        return batch.filter(keep).select(["cell_r12", "n_docs"])

    core = cells.map_batches(core_only, batch_format="pyarrow").materialize()

    def fan_out(batch: pa.Table) -> pa.Table:
        cell = batch.column("cell_r12").to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = cell // n, cell % n
        keys, srcs, sides = [cell], [cell], [np.zeros(len(cell), np.int8)]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                m = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                keys.append((nx * n + ny)[m])
                srcs.append(cell[m])
                sides.append(np.ones(int(m.sum()), np.int8))
        return pa.table(
            {
                "key": pa.array(np.concatenate(keys)),
                "src": pa.array(np.concatenate(srcs)),
                "side": pa.array(np.concatenate(sides)),
            }
        )

    def to_edges(df: "pd.DataFrame") -> "pd.DataFrame":
        occ = set(df.loc[df["side"] == 0, "key"].tolist())
        nb = df[df["side"] == 1]
        nb = nb[nb["key"].isin(occ)]
        u = nb["src"].to_numpy(np.int64)
        v = nb["key"].to_numpy(np.int64)
        return pd.DataFrame({"u": np.minimum(u, v), "v": np.maximum(u, v)})

    edges = hash_partitioned_apply(
        core.map_batches(fan_out, batch_format="pyarrow"), "key", to_edges
    )
    cc = contraction_cc(edges)
    if not isinstance(cc, ray.data.Dataset):
        cc = ray.data.from_arrow(cc)

    def tag_core(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_r12": batch.column("cell_r12"),
                "val": batch.column("n_docs").cast(pa.int64()),
                "side": pa.array(np.zeros(batch.num_rows, np.int8)),
            }
        )

    def tag_cc(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell_r12": batch.column("doc_id"),
                "val": batch.column("cluster_id").cast(pa.int64()),
                "side": pa.array(np.ones(batch.num_rows, np.int8)),
            }
        )

    both = core.map_batches(tag_core, batch_format="pyarrow").union(
        cc.map_batches(tag_cc, batch_format="pyarrow")
    )

    def fuse(df: "pd.DataFrame") -> "pd.DataFrame":
        occ = df[df["side"] == 0]
        lab = df[df["side"] == 1].set_index("cell_r12")["val"]
        cells_ = occ["cell_r12"].to_numpy(np.int64)
        cluster = lab.reindex(occ["cell_r12"]).fillna(-1).to_numpy(np.int64)
        cluster = np.where(cluster < 0, cells_, cluster)
        return pd.DataFrame(
            {"cell_r12": cells_, "cluster_id": cluster, "n_docs": occ["val"].to_numpy(np.int64)}
        )

    return hash_partitioned_apply(both, "cell_r12", fuse)


def sql_dbscan_cells(res: int = RES_COARSE, min_pts: int = DBSCAN_MIN_PTS) -> str:
    import osm_search_ray.sources.derived as _dv

    n = 1 << res
    xe = f"LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1})"
    ye = f"LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1})"
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()},
pts AS (SELECT {xe} AS x, {ye} AS y FROM geo_pages),
cells AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1, 2),
ring AS (
    SELECT c.x, c.y, c.n, SUM(m.n) AS n_ring
    FROM cells c JOIN cells m
      ON m.x BETWEEN c.x - 1 AND c.x + 1 AND m.y BETWEEN c.y - 1 AND c.y + 1
    GROUP BY 1, 2, 3),
core AS (SELECT x, y, x * {n} + y AS cell, n FROM ring WHERE n_ring >= {min_pts}),
edges0 AS (
    SELECT a.cell AS u, b.cell AS v
    FROM core a JOIN core b
      ON b.x BETWEEN a.x - 1 AND a.x + 1 AND b.y BETWEEN a.y - 1 AND a.y + 1
     AND a.cell < b.cell),
edges AS (SELECT u, v FROM edges0 UNION SELECT v AS u, u AS v FROM edges0),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach AS (
    WITH RECURSIVE r(node, reached) AS (
        SELECT node, node FROM nodes
        UNION
        SELECT r.node, e.v FROM r JOIN edges e ON e.u = r.reached
    ) SELECT * FROM r),
comp AS (SELECT node, MIN(reached) AS cluster_id FROM reach GROUP BY node)
SELECT c.cell AS cell_r12, COALESCE(p.cluster_id, c.cell) AS cluster_id, c.n AS n_docs
FROM core c LEFT JOIN comp p ON p.node = c.cell
"""


def hotspot_cells(sf_dir: str):
    """Spatial hotspot detection: res-12 cells whose doc count exceeds the
    corpus-wide 95th percentile of cell counts — the density-anomaly pass
    over the tile grid. The threshold is an EXACT interpolated quantile of
    the (cells-bounded) count distribution, carried at 20× integer scale
    (quantile_cont of ints lands on k/20 grid for q=0.95) so the comparison
    2·20·n > p95_x20·2 is pure int64 on both sides. One tile-counts
    aggregate + a driver-side threshold from the cells-bounded histogram +
    one filter pass. Output (cell_r12, n_docs, p95_x20)."""
    counts = tile_counts(sf_dir).materialize()
    hist = counts.to_pandas()  # cells-bounded, not row-bounded
    v = np.sort(hist["n_docs"].to_numpy(np.int64))
    n = v.size
    pos = (n - 1) * 0.95
    lo = int(pos)
    frac = pos - lo  # multiple of 1/20 for q=.95 → exact in binary
    p95_x20 = int(round((v[lo] * (1 - frac) + v[min(lo + 1, n - 1)] * frac) * 20))

    def flt(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_docs").to_numpy()
        keep = 20 * nd > p95_x20
        c = batch.column("cell_r12").to_numpy()[keep]
        return pa.table(
            {
                "cell_r12": pa.array(c.astype(np.int64)),
                "n_docs": pa.array(nd[keep].astype(np.int64)),
                "p95_x20": pa.array(np.full(keep.sum(), p95_x20, np.int64)),
            }
        )

    return counts.map_batches(flt, batch_format="pyarrow")


def sql_hotspot_cells() -> str:
    import osm_search_ray.sources.derived as _dv

    cell12 = _dv.sql_cell_expr("lat", "lon", 12)
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()},
cells AS (SELECT {cell12} AS cell_r12, COUNT(*) AS n_docs FROM geo_pages GROUP BY 1),
thr AS (SELECT CAST(ROUND(quantile_cont(n_docs, 0.95) * 20) AS BIGINT) AS p95_x20 FROM cells)
SELECT c.cell_r12, c.n_docs, t.p95_x20
FROM cells c, thr t
WHERE 20 * c.n_docs > t.p95_x20
"""


# ------------------------------------------------------- spatial ANTI-join


def pip_anti_join(sf_dir: str):
    """Spatial ANTI-join: every geo page contained by NO admin rectangle —
    the coverage-gap audit (pages outside all administrative areas; the
    complement of pip_join). One streaming pass through the broadcast
    polygon index with how='left' (the reference's first-match rule emits a
    null id for unmatched points) and a null filter — no shuffle at all.
    Output (doc_id, lat, lon)."""
    rects = admin_rects(sf_dir)
    polys = PolygonSet.from_rects(rects.select(["rect_id", "lat0", "lon0", "lat1", "lon1"]))
    pts = geo_pages(sf_dir)
    left = broadcast_pip_join(pts, polys, how="left", id_out="rect_id")

    def unmatched(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_null(batch.column("rect_id"))
        return batch.filter(keep).select(["doc_id", "lat", "lon"])

    return left.map_batches(unmatched, batch_format="pyarrow")


def sql_pip_anti_join() -> str:
    import osm_search_ray.sources.derived as _dv

    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}, {_dv.SQL_ADMIN_RECTS.strip()}
SELECT p.doc_id, p.lat, p.lon
FROM geo_pages p
WHERE NOT EXISTS (
    SELECT 1 FROM admin_rects r
    WHERE p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1)
"""


# ------------------------------------------------- kernel density smoothing


def kde_cells(sf_dir: str, res: int = RES_COARSE):
    """KERNEL-DENSITY smoothed tile grid — the heatmap-rendering pass: every
    occupied cell's density is the 3×3-neighborhood count convolved with the
    integer kernel w(dx,dy) = 4 >> (|dx|+|dy|)  (center 4, edge 2, corner 1)
    — kring_density's weighted sibling, same shape: per-cell counts once,
    each count row fans to its ≤9 neighbors CARRYING ITS WEIGHTED
    contribution, one cell-keyed exchange sums; occupied markers ride along
    so empty cells emit nothing. Pure integers. Output (cell_r12, n_docs,
    density)."""
    import pandas as pd

    from ..stages.joins import hash_partitioned_apply

    n = 1 << res
    counts = tile_counts(sf_dir)

    def fan_out(batch: pa.Table) -> pa.Table:
        cell = batch.column("cell_r12").to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = batch.column("n_docs").to_numpy(zero_copy_only=False).astype(np.int64)
        x, y = cell // n, cell % n
        cells_out, n_out, side_out = [cell], [cnt], [np.zeros(len(cell), np.int8)]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                w = 4 >> (abs(dx) + abs(dy))
                nx, ny = x + dx, y + dy
                m = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                cells_out.append((nx * n + ny)[m])
                n_out.append(cnt[m] * w)
                side_out.append(np.ones(int(m.sum()), np.int8))
        return pa.table(
            {
                "cell_r12": pa.array(np.concatenate(cells_out)),
                "n": pa.array(np.concatenate(n_out)),
                "side": pa.array(np.concatenate(side_out)),
            }
        )

    def fuse(df: "pd.DataFrame") -> "pd.DataFrame":
        occ = df[df["side"] == 0][["cell_r12", "n"]].rename(columns={"n": "n_docs"})
        dens = (
            df[df["side"] == 1]
            .groupby("cell_r12", sort=False, as_index=False)["n"]
            .sum()
            .rename(columns={"n": "density"})
        )
        out = occ.merge(dens, on="cell_r12")
        out["n_docs"] = out["n_docs"].astype(np.int64)
        out["density"] = out["density"].astype(np.int64)
        return out

    return hash_partitioned_apply(
        counts.map_batches(fan_out, batch_format="pyarrow"), "cell_r12", fuse
    )


def sql_kde_cells(res: int = RES_COARSE) -> str:
    import osm_search_ray.sources.derived as _dv

    n = 1 << res
    xe = f"LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {n - 1})"
    ye = f"LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * {n}) AS BIGINT), 0), {n - 1})"
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()},
pts AS (SELECT {xe} AS x, {ye} AS y FROM geo_pages),
cells AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1, 2)
SELECT c.x * {n} + c.y AS cell_r12, c.n AS n_docs,
       CAST(SUM(m.n * (4 >> (abs(m.x - c.x) + abs(m.y - c.y)))) AS BIGINT) AS density
FROM cells c JOIN cells m
  ON m.x BETWEEN c.x - 1 AND c.x + 1 AND m.y BETWEEN c.y - 1 AND c.y + 1
GROUP BY 1, 2
"""


# --------------------------------------------- general-polygon (triangle) PIP


def pip_triangles(sf_dir: str):
    """PIP join against GENERAL polygons (derived triangles) — the ring class
    rects never exercise: non-axis-aligned edges through the exact
    winding-number kernel (functions/geometry.points_in_polygon, the
    reference M13 parity /root/reference/pkg/geo — see SURVEY §2.8), streamed
    through the same broadcast PolygonSet index as pip_join. The SQL oracle
    proves containment with the INDEPENDENT half-plane sign test — two
    different float formulations agreeing exactly (the derived vertices keep
    every page strictly off every edge; the unit asserts the margin).
    Output (doc_id, tri_id)."""
    import osm_search_ray.sources.derived as _dv

    t = _dv.tri_polys(sf_dir)
    tri_id = t.column("tri_id").to_numpy()
    rings = [
        (
            np.asarray([t.column("alat")[i].as_py(), t.column("blat")[i].as_py(), t.column("clat")[i].as_py()]),
            np.asarray([t.column("alon")[i].as_py(), t.column("blon")[i].as_py(), t.column("clon")[i].as_py()]),
        )
        for i in range(t.num_rows)
    ]
    polys = PolygonSet.from_rings(tri_id, rings)
    pts = geo_pages(sf_dir)
    return broadcast_pip_join(pts, polys, id_out="tri_id").select_columns(["doc_id", "tri_id"])


def sql_pip_triangles() -> str:
    import osm_search_ray.sources.derived as _dv

    s1 = "((t.blon - t.alon) * (p.lat - t.alat) - (t.blat - t.alat) * (p.lon - t.alon))"
    s2 = "((t.clon - t.blon) * (p.lat - t.blat) - (t.clat - t.blat) * (p.lon - t.blon))"
    s3 = "((t.alon - t.clon) * (p.lat - t.clat) - (t.alat - t.clat) * (p.lon - t.clon))"
    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}, {_dv.SQL_TRI_POLYS.strip()}
SELECT p.doc_id, t.tri_id
FROM geo_pages p JOIN tri_polys t
  ON ({s1} >= 0 AND {s2} >= 0 AND {s3} >= 0)
  OR ({s1} <= 0 AND {s2} <= 0 AND {s3} <= 0)
"""


# ------------------------------------------------- grouped exact quantiles


def rect_quantiles(sf_dir: str):
    """GROUPED exact quantiles: per admin rect, the interpolated quartiles of
    contained pages' n_chars — events_quantiles' per-group sibling. Quartile
    positions land on a k/4 grid, so p·4 is an exact integer:
    p_x4 = v[lo]·(4−f4) + v[lo+1]·f4 with pos4 = (n−1)·k, lo = pos4//4,
    f4 = pos4 % 4 — pure int64 on both engines (SQL: quantile_cont × 4
    rounds exactly; the hotspot_cells ×20 precedent).

    Shape: the broadcast PIP join tags rows at the scan; per-batch
    (rect, n_chars) value-count partials make the ONE rect-keyed exchange
    carry a rects×domain-bounded histogram, never pages. Output
    (rect_id, n_pages, p25_x4, p50_x4, p75_x4)."""
    import pandas as pd

    from ..stages.joins import hash_partitioned_apply

    rects = admin_rects(sf_dir)
    polys = PolygonSet.from_rects(rects.select(["rect_id", "lat0", "lon0", "lat1", "lon1"]))
    pts = geo_pages(sf_dir, columns=["doc_id", "n_chars"])
    joined = broadcast_pip_join(pts, polys, id_out="rect_id")

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "rect_id": batch.column("rect_id").to_numpy(),
                "v": batch.column("n_chars").to_numpy(),
            }
        )
        g = df.groupby(["rect_id", "v"], sort=False).size().reset_index(name="c")
        return pa.Table.from_pandas(g.astype({"c": np.int64}), preserve_index=False)

    def quartiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for rid, g in df.groupby("rect_id", sort=False):
            h = g.groupby("v", sort=True)["c"].sum()
            vals = h.index.to_numpy(np.int64)
            reps = h.to_numpy(np.int64)
            n = int(reps.sum())
            cum = np.cumsum(reps)  # rank r (0-based) lives at vals[searchsorted(cum, r, 'right')]
            qs = []
            for k in (1, 2, 3):
                pos4 = (n - 1) * k
                lo, f4 = pos4 // 4, pos4 % 4
                vlo = vals[np.searchsorted(cum, lo, side="right")]
                vhi = vals[np.searchsorted(cum, min(lo + 1, n - 1), side="right")]
                qs.append(int(vlo) * (4 - f4) + int(vhi) * f4)
            rows.append((rid, n, qs[0], qs[1], qs[2]))
        return pd.DataFrame(
            rows, columns=["rect_id", "n_pages", "p25_x4", "p50_x4", "p75_x4"]
        ).astype(np.int64)

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_apply(partials, "rect_id", quartiles)


def sql_rect_quantiles() -> str:
    import osm_search_ray.sources.derived as _dv

    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}, {_dv.SQL_ADMIN_RECTS.strip()},
inrect AS (
    SELECT r.rect_id, d.n_chars
    FROM geo_pages p
    JOIN documents d USING (doc_id)
    JOIN admin_rects r
      ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1)
SELECT rect_id, CAST(COUNT(*) AS BIGINT) AS n_pages,
       CAST(ROUND(quantile_cont(n_chars, 0.25) * 4) AS BIGINT) AS p25_x4,
       CAST(ROUND(quantile_cont(n_chars, 0.50) * 4) AS BIGINT) AS p50_x4,
       CAST(ROUND(quantile_cont(n_chars, 0.75) * 4) AS BIGINT) AS p75_x4
FROM inrect GROUP BY 1
"""


# -------------------------------------------------- rect-overlap spatial join


def rect_overlap_pairs(sf_dir: str):
    """2D box-intersection SELF-join (PBSM, Patel & DeWitt '96): every pair of
    derived part rects whose closed boxes overlap, reported EXACTLY once.
    This is the partition-based twin of the broadcast pip_join family — both
    sides BIG, neither collectible, the shape a 100 TB footprint-overlap
    audit needs (reference's bbox ops are M16, /root/reference/pkg/geo;
    this composes them into a distributed join).

    Shape: each rect fans out to the <=4 grid cells it touches (cell size
    0.02 deg >= max rect extent per axis), ONE cell-keyed exchange, per-cell
    vectorized all-pairs test, and the PBSM reference-point rule — a pair is
    emitted only by the cell containing the intersection's min corner
    (max(lat0), max(lon0)), a point both rects cover — kills cross-cell
    duplicates without a distinct pass. Both engines compare bit-identical
    float64 (derived arithmetic shared with SQL_PART_RECTS), so closed-edge
    touches agree exactly. Output (a_id, b_id), a_id < b_id."""
    import pandas as pd

    import osm_search_ray.sources.derived as _dv
    from ..stages.joins import hash_partitioned_apply

    G = 0.02
    BLAT, BLON = -6.75, 106.25

    def fan_out(batch: pa.Table) -> pa.Table:
        lat0 = batch.column("lat0").to_numpy()
        lon0 = batch.column("lon0").to_numpy()
        lat1 = batch.column("lat1").to_numpy()
        lon1 = batch.column("lon1").to_numpy()
        rid = batch.column("rid").to_numpy()
        ix0 = np.floor((lat0 - BLAT) / G).astype(np.int64)
        ix1 = np.floor((lat1 - BLAT) / G).astype(np.int64)
        iy0 = np.floor((lon0 - BLON) / G).astype(np.int64)
        iy1 = np.floor((lon1 - BLON) / G).astype(np.int64)
        # The {0,1}² offset fan-out below is exact ONLY while every rect
        # spans ≤ 2 cells per axis (extent ≤ G) and indices are in-range
        # non-negative (key ix*1_000_003+iy injective): fail loudly rather
        # than silently drop overlapping pairs if a fixture change widens
        # rects or moves them south/west of the grid base.
        if len(ix0):
            if not ((ix1 - ix0 <= 1).all() and (iy1 - iy0 <= 1).all()):
                raise ValueError(
                    "rect_overlap_pairs: rect extent exceeds one grid cell "
                    f"(G={G}) — widen the fan-out offsets"
                )
            if not (ix0.min() >= 0 and iy0.min() >= 0 and iy1.max() < 1_000_003):
                raise ValueError(
                    "rect_overlap_pairs: rect outside the grid base — cell key "
                    "no longer injective"
                )
        outs = []
        for dx in (0, 1):
            for dy in (0, 1):
                m = (ix0 + dx <= ix1) & (iy0 + dy <= iy1)
                outs.append(
                    pa.table(
                        {
                            "cell": (ix0[m] + dx) * 1_000_003 + (iy0[m] + dy),
                            "rid": rid[m],
                            "lat0": lat0[m],
                            "lon0": lon0[m],
                            "lat1": lat1[m],
                            "lon1": lon1[m],
                        }
                    )
                )
        return pa.concat_tables(outs)

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        a_out, b_out = [], []
        for cell, g in df.groupby("cell", sort=False):
            k = len(g)
            if k < 2:
                continue
            lat0 = g["lat0"].to_numpy()
            lon0 = g["lon0"].to_numpy()
            lat1 = g["lat1"].to_numpy()
            lon1 = g["lon1"].to_numpy()
            rid = g["rid"].to_numpy()
            hit = (
                (lat0[:, None] <= lat1[None, :])
                & (lat0[None, :] <= lat1[:, None])
                & (lon0[:, None] <= lon1[None, :])
                & (lon0[None, :] <= lon1[:, None])
                & (rid[:, None] < rid[None, :])
            )
            ii, jj = np.nonzero(hit)
            if not len(ii):
                continue
            # PBSM reference point: intersection min corner's cell == this cell
            rlat = np.maximum(lat0[ii], lat0[jj])
            rlon = np.maximum(lon0[ii], lon0[jj])
            rcell = (
                np.floor((rlat - BLAT) / G).astype(np.int64) * 1_000_003
                + np.floor((rlon - BLON) / G).astype(np.int64)
            )
            keep = rcell == cell
            a_out.append(rid[ii[keep]])
            b_out.append(rid[jj[keep]])
        if not a_out:
            return pd.DataFrame({"a_id": pd.Series([], dtype=np.int64), "b_id": pd.Series([], dtype=np.int64)})
        return pd.DataFrame(
            {"a_id": np.concatenate(a_out), "b_id": np.concatenate(b_out)}
        )

    fanned = _dv.part_rects(sf_dir).map_batches(fan_out, batch_format="pyarrow")
    return hash_partitioned_apply(fanned, "cell", per_partition)


def sql_rect_overlap_pairs() -> str:
    import osm_search_ray.sources.derived as _dv

    return f"""
WITH {_dv.SQL_PART_RECTS.strip()}
SELECT a.rid AS a_id, b.rid AS b_id
FROM part_rects a JOIN part_rects b
  ON a.rid < b.rid
 AND a.lat0 <= b.lat1 AND b.lat0 <= a.lat1
 AND a.lon0 <= b.lon1 AND b.lon0 <= a.lon1
"""


# ------------------------------------------------- distance-band pair join


DIST_EPS = 0.002  # degrees; pair iff (dlat^2 + dlon^2) <= DIST_EPS^2


def distance_band_pairs(sf_dir: str):
    """All page pairs within DIST_EPS degrees (squared planar degree metric)
    — the epsilon-range SELF-join under DBSCAN/near-duplicate-location
    audits, with BOTH sides big (the broadcast knn family can't express
    this). Composes the reference's bbox/cell primitives (M16,
    /root/reference/pkg/geo) into a distributed band join.

    Shape: one grid pass keys every point to its epsilon-sized home cell and
    replicates it to the 8 neighbors flagged visitor; ONE cell-keyed
    exchange; per cell a vectorized home x all test. Exactly-once rule: a
    pair is emitted only where the HOME point has the smaller doc_id — the
    (a<b) pair appears as (home=a, visitor=b) in a's cell and fails the id
    test everywhere else, so no distinct pass. Both engines compare
    bit-identical float64 (shared derived arithmetic + identical epsilon
    expression 0.002*0.002). Output (a_id, b_id), a_id < b_id."""
    import pandas as pd

    from ..stages.joins import hash_partitioned_apply

    G = DIST_EPS
    BLAT, BLON = -6.75, 106.25
    EPS2 = np.float64(DIST_EPS) * np.float64(DIST_EPS)
    CK = 4_000_037

    def fan_out(batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        did = batch.column("doc_id").to_numpy()
        ix = np.floor((lat - BLAT) / G).astype(np.int64)
        iy = np.floor((lon - BLON) / G).astype(np.int64)
        # Cell key (ix+dx)*CK + (iy+dy) is injective only for in-range
        # non-negative indices; points south/west of the grid base would
        # silently collide cells — fail loudly instead.
        if len(ix):
            if not (ix.min() >= 1 and 1 <= iy.min() and iy.max() < CK - 1):
                raise ValueError(
                    "distance_band_pairs: point outside the grid base "
                    f"(BLAT={BLAT}, BLON={BLON}) — cell key no longer injective"
                )
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                outs.append(
                    pa.table(
                        {
                            "cell": (ix + dx) * CK + (iy + dy),
                            "doc_id": did,
                            "lat": lat,
                            "lon": lon,
                            "home": np.full(len(did), dx == 0 and dy == 0),
                        }
                    )
                )
        return pa.concat_tables(outs)

    def per_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        a_out, b_out = [], []
        for _, g in df.groupby("cell", sort=False):
            hm = g["home"].to_numpy()
            if not hm.any() or len(g) < 2:
                continue
            lat = g["lat"].to_numpy()
            lon = g["lon"].to_numpy()
            did = g["doc_id"].to_numpy()
            hlat, hlon, hid = lat[hm], lon[hm], did[hm]
            dlat = hlat[:, None] - lat[None, :]
            dlon = hlon[:, None] - lon[None, :]
            hit = (dlat * dlat + dlon * dlon <= EPS2) & (hid[:, None] < did[None, :])
            ii, jj = np.nonzero(hit)
            if len(ii):
                a_out.append(hid[ii])
                b_out.append(did[jj])
        if not a_out:
            return pd.DataFrame(
                {"a_id": pd.Series([], dtype=np.int64), "b_id": pd.Series([], dtype=np.int64)}
            )
        return pd.DataFrame({"a_id": np.concatenate(a_out), "b_id": np.concatenate(b_out)})

    fanned = geo_pages(sf_dir).map_batches(fan_out, batch_format="pyarrow")
    return hash_partitioned_apply(fanned, "cell", per_partition)


def sql_distance_band_pairs() -> str:
    import osm_search_ray.sources.derived as _dv

    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}
SELECT a.doc_id AS a_id, b.doc_id AS b_id
FROM geo_pages a JOIN geo_pages b
  ON a.doc_id < b.doc_id
 AND (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
     <= 0.002 * 0.002
"""


# ----------------------------------------------------- IDW interpolation


def idw_interpolate(sf_dir: str):
    """Inverse-distance-squared interpolation of page n_chars at the 5
    derived query points — the raster-estimation pass of a heatmap service.
    Weight scheme is division-free-exact across engines: d2 (squared degree
    distance) is a bit-identical float64 expression, the weight
    w = floor(1.0 / (d2 + 1e-6)) is an INTEGER (max 10⁶ at d2=0 — the +1e-6
    cap doubles as the self-distance guard), and all sums are exact
    integers, so idw_milli = 1000·Σ(w·v) // Σw needs no float agreement
    beyond the shared d2/w expressions.

    Shape: queries are a closure constant (broadcast once); ONE streaming
    corpus pass emits per-(batch, query) int64 partials (Σw, Σwv, n·[w>0]);
    the driver reduces O(5 × blocks) rows exactly (Python int). Output
    (query_id, n_pages, idw_milli) for queries with Σw > 0."""
    import pandas as pd

    import osm_search_ray.sources.derived as _dv

    qt = _dv.knn_query_points(sf_dir)
    qid = qt.column("query_id").to_numpy().astype(np.int64)
    qlat = qt.column("qlat").to_numpy()
    qlon = qt.column("qlon").to_numpy()

    def partial(batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        v = batch.column("n_chars").to_numpy().astype(np.int64)
        dlat = qlat[:, None] - lat[None, :]
        dlon = qlon[:, None] - lon[None, :]
        d2 = dlat * dlat + dlon * dlon
        w = np.floor(1.0 / (d2 + 1e-6)).astype(np.int64)
        return pa.table(
            {
                "query_id": qid,
                "sw": w.sum(axis=1),
                "swv": (w * v[None, :]).sum(axis=1),
                "n": (w > 0).sum(axis=1).astype(np.int64),
            }
        )

    parts = (
        geo_pages(sf_dir, columns=["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )  # O(queries × blocks) rows — never corpus-sized
    rows = []
    for q, g in parts.groupby("query_id", sort=True):
        sw = int(g["sw"].astype(object).sum())
        swv = int(g["swv"].astype(object).sum())
        n = int(g["n"].astype(object).sum())
        if sw > 0:
            rows.append((q, n, (1000 * swv) // sw))
    out = pd.DataFrame(rows, columns=["query_id", "n_pages", "idw_milli"]).astype(np.int64)
    import ray.data as _rd

    return _rd.from_pandas(out)


def sql_idw_interpolate() -> str:
    import osm_search_ray.sources.derived as _dv

    return f"""
WITH {_dv.SQL_GEO_PAGES.strip()}, {_dv.SQL_KNN_QUERIES.strip()},
wts AS (
    SELECT q.query_id, d.n_chars AS v,
           CAST(FLOOR(1.0 / ((q.qlat - p.lat) * (q.qlat - p.lat)
                           + (q.qlon - p.lon) * (q.qlon - p.lon) + 1e-6)) AS BIGINT) AS w
    FROM geo_pages p
    JOIN documents d USING (doc_id)
    CROSS JOIN knn_queries q)
SELECT query_id,
       CAST(COUNT(*) FILTER (WHERE w > 0) AS BIGINT) AS n_pages,
       CAST((1000 * SUM(CAST(w AS HUGEINT) * v)) // SUM(CAST(w AS HUGEINT)) AS BIGINT) AS idw_milli
FROM wts GROUP BY 1 HAVING SUM(w) > 0
"""
