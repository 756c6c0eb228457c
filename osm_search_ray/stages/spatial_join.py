"""Point-in-polygon spatial join — the flagship operator (SURVEY.md J3).

The reference enriches every document with its containing admin areas by
querying global R-trees + winding-number PIP inside one process
(pkg/index/indexer.go:1017-1170).  At cluster scale there is no global tree;
this module provides the two Ray-Data-native shapes, one code path each:

  broadcast_pip_join   polygon side small (admin boundaries for a country):
                       the PolygonSet is ``ray.put`` once and every
                       stateless point-batch task ``ray.get``s it
                       (zero-copy from the object store). No shuffle at
                       all — the point side never moves.

  partitioned_pip_join both sides large: points keyed to their coarse grid
                       cell, polygons exploded to every cell their MBR
                       covers, both sides tagged into one typed Arrow union
                       and co-located on (cell, salt) by the one exchange
                       (``joins._exchange``); one Arrow/numpy kernel per
                       partition runs the PIP test per (cell, salt). Hot
                       cells are SALTED (points spread across ``salt``
                       replicas, polygons copied to every salt) so one
                       dense urban tile cannot straggle the shuffle;
                       results need no dedup because each point lands in
                       exactly one (cell, salt).

Polygons are plain numpy rings (no shapely in this environment): a
``PolygonSet`` of bboxes + ring arrays. ``locate`` loops over the
polygons, prefilters the points by each polygon's bbox (one vectorized
interval test) and runs the exact winding-number test on the survivors —
a linear scan over polygons, meant for the few polygons of a broadcast
set or of one partition's cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray

from ..functions.cells import RES_COARSE, cell_of, cover_bbox
from ..functions.geometry import points_in_polygon
from ..functions.hashing import splitmix64
from .joins import _arrow_schema, _exchange, _tag, default_num_parts


@dataclass
class PolygonSet:
    """Columnar polygon collection: per-polygon bbox + ring arrays."""

    poly_id: np.ndarray  # (P,) int64
    bbox: np.ndarray  # (P, 4) float64 rows (lat0, lon0, lat1, lon1)
    rings: list[tuple[np.ndarray, np.ndarray]]  # per polygon (ring_lat, ring_lon)
    payload: dict[str, np.ndarray] | None = None  # extra columns keyed by position

    @staticmethod
    def from_rings(poly_id, rings, payload=None) -> "PolygonSet":
        bbox = np.empty((len(rings), 4), dtype=np.float64)
        for i, (rlat, rlon) in enumerate(rings):
            bbox[i] = (rlat.min(), rlon.min(), rlat.max(), rlon.max())
        return PolygonSet(np.asarray(poly_id, dtype=np.int64), bbox, rings, payload)

    @staticmethod
    def from_rects(rect_table: pa.Table, id_col: str = "rect_id") -> "PolygonSet":
        """Rectangles (lat0, lon0, lat1, lon1) → 4-corner rings."""
        lat0 = rect_table.column("lat0").to_numpy()
        lon0 = rect_table.column("lon0").to_numpy()
        lat1 = rect_table.column("lat1").to_numpy()
        lon1 = rect_table.column("lon1").to_numpy()
        rings = [
            (
                np.asarray([lat0[i], lat0[i], lat1[i], lat1[i]], dtype=np.float64),
                np.asarray([lon0[i], lon1[i], lon1[i], lon0[i]], dtype=np.float64),
            )
            for i in range(len(lat0))
        ]
        payload = {
            name: rect_table.column(name).to_numpy(zero_copy_only=False)
            for name in rect_table.column_names
            if name not in (id_col, "lat0", "lon0", "lat1", "lon1")
        }
        return PolygonSet.from_rings(rect_table.column(id_col).to_numpy(), rings, payload)

    def locate(self, lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (point_idx, polygon_idx) containment pairs, edge-inclusive.

        bbox prefilter (vectorized interval test) → exact winding-number test
        per surviving polygon over only its candidate points.
        """
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        if len(lat) == 0 or len(self.rings) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        out_pt: list[np.ndarray] = []
        out_pl: list[np.ndarray] = []
        # candidate filter: for each polygon, the points inside its bbox.
        # Polygons per partition are few (≪ points); loop polygons, vector points.
        for j, (rlat, rlon) in enumerate(self.rings):
            b = self.bbox[j]
            cand = np.nonzero((lat >= b[0]) & (lat <= b[2]) & (lon >= b[1]) & (lon <= b[3]))[0]
            if len(cand) == 0:
                continue
            hit = points_in_polygon(lat[cand], lon[cand], rlat, rlon)
            idx = cand[hit]
            if len(idx):
                out_pt.append(idx)
                out_pl.append(np.full(len(idx), j, dtype=np.int64))
        if not out_pt:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(out_pt), np.concatenate(out_pl)


def pip_join_batch(
    batch: pa.Table, polys: PolygonSet, lat_col: str, lon_col: str, how: str, id_out: str
) -> pa.Table:
    """Join one point batch against the whole PolygonSet — the per-task
    body of the broadcast join."""
    lat = batch.column(lat_col).to_numpy()
    lon = batch.column(lon_col).to_numpy()
    pt_idx, pl_idx = polys.locate(lat, lon)
    if how == "inner":
        out = batch.take(pa.array(pt_idx))
        out = out.append_column(id_out, pa.array(polys.poly_id[pl_idx], pa.int64()))
        if polys.payload:
            for name, col in polys.payload.items():
                out = out.append_column(name, pa.array(col[pl_idx]))
        return out
    # left join: unmatched points keep null polygon id
    n = len(batch)
    first = np.full(n, -1, dtype=np.int64)
    # keep the FIRST matching polygon per point (reference first-match rule,
    # pkg/index/indexer.go:1060-1065); callers needing all matches use inner.
    for p, g in zip(pt_idx[::-1], pl_idx[::-1]):
        first[p] = g
    ids = np.where(first >= 0, polys.poly_id[np.clip(first, 0, None)], -1)
    return batch.append_column(id_out, pa.array(np.where(first >= 0, ids, None), pa.int64(), from_pandas=True))


def broadcast_pip_join(
    points: "ray.data.Dataset",
    polys: PolygonSet,
    lat_col: str = "lat",
    lon_col: str = "lon",
    how: str = "inner",
    id_out: str = "poly_id",
) -> "ray.data.Dataset":
    """Stream the (huge) point dataset through a broadcast polygon set:
    stateless tasks ``ray.get`` the shared PolygonSet per task — zero-copy
    from the object store, and the task pool scales elastically with the
    available CPUs."""
    ref = ray.put(polys)

    def join_task(batch: pa.Table) -> pa.Table:
        return pip_join_batch(batch, ray.get(ref), lat_col, lon_col, how, id_out)

    return points.map_batches(join_task, batch_format="pyarrow", batch_size=32768)


# ---------------------------------------------------------------------------
# Partitioned join (both sides large)
# ---------------------------------------------------------------------------


def _deserialize_ring(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = len(flat) // 2
    return flat[:half], flat[half:]


def polygons_to_cell_rows(polys: PolygonSet, res: int = RES_COARSE) -> pa.Table:
    """Explode each polygon to one row per covering cell (its MBR cover);
    ``ring`` holds the ring's lats then its lons."""
    covers = [cover_bbox(*b, res) for b in polys.bbox]
    per_poly = pa.table(
        {
            "poly_id": pa.array(polys.poly_id),
            "ring": pa.array([np.concatenate(r) for r in polys.rings], pa.list_(pa.float64())),
        }
    )
    rows = per_poly.take(pa.array(np.repeat(np.arange(len(covers)), [len(c) for c in covers])))
    return rows.add_column(0, "cell", pa.array(np.concatenate(covers) if covers else np.empty(0, np.int64)))


def compute_salts(points: "ray.data.Dataset", lat_col: str, lon_col: str, res: int, hot_threshold: int) -> dict[int, int]:
    """Skew pre-pass: per-cell point counts; returns {cell: n_salts} for the
    cells whose count exceeds ``hot_threshold``. Each block emits partial
    counts (≤ one row per cell per block, not per point), merged by one
    Arrow ``group_by`` on the driver."""

    def partial_counts(batch: pa.Table) -> pa.Table:
        cells = cell_of(batch.column(lat_col).to_numpy(), batch.column(lon_col).to_numpy(), res)
        u, c = np.unique(cells, return_counts=True)
        return pa.table({"cell": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())})

    parts = points.map_batches(partial_counts, batch_format="pyarrow")
    tables = [t for t in parts.iter_batches(batch_format="pyarrow", batch_size=None) if len(t)]
    if not tables:
        return {}
    merged = pa.concat_tables(tables).group_by("cell").aggregate([("n", "sum")])
    cell, n = merged.column("cell").to_numpy(), merged.column("n_sum").to_numpy()
    hot = n > hot_threshold
    return dict(zip(cell[hot].tolist(), np.ceil(n[hot] / hot_threshold).astype(np.int64).tolist()))


def partitioned_pip_join(
    points: "ray.data.Dataset",
    polys: PolygonSet,
    lat_col: str = "lat",
    lon_col: str = "lon",
    id_out: str = "poly_id",
    res: int = RES_COARSE,
    hot_threshold: int = 200_000,
    salts: dict[int, int] | None = None,
) -> "ray.data.Dataset":
    """Cell-partitioned PIP join. Exact; inner semantics; each point emits
    one row per containing polygon: the point's columns at their own Arrow
    types, then ``id_out`` (int64).

    The point side is materialized first, so the salt pre-pass
    (``compute_salts``, unless ``salts`` is given) and the schema read use
    its stored blocks and the upstream runs once. A point's salt is a
    splitmix64 spread over its cell's salt count; each polygon cell row is
    copied once per salt. Both sides are tagged into one typed union
    (``joins._tag``: one column order, typed nulls) and exchanged on
    (cell, salt); one kernel per partition groups the rows by (cell, salt)
    with one stable sort and runs ``PolygonSet.locate`` per group."""
    points = points.materialize()
    if points.schema() is None:  # an upstream that yields no block: nothing to join
        return points
    points, types = _arrow_schema(points)
    if salts is None:
        salts = compute_salts(points, lat_col, lon_col, res, hot_threshold)
    hot = np.asarray(sorted(salts), dtype=np.int64)
    hot_salts = np.asarray([salts[c] for c in hot.tolist()], dtype=np.int64)

    def salt_count(cells: np.ndarray) -> np.ndarray:
        if not len(hot):
            return np.ones(len(cells), dtype=np.int64)
        i = np.minimum(np.searchsorted(hot, cells), len(hot) - 1)
        return np.where(hot[i] == cells, hot_salts[i], 1)

    point_cols = list(types)
    # internal columns are dunder-named, so no point column can clash
    types = {**types, "__salt": pa.int64(), "__poly_id": pa.int64(), "__ring": pa.list_(pa.float64())}
    pt_src = {**{c: c for c in point_cols}, "__salt": "__salt"}

    def key_points(batch: pa.Table) -> pa.Table:
        cells = cell_of(batch.column(lat_col).to_numpy(), batch.column(lon_col).to_numpy(), res)
        # deterministic point→salt spread (stable across retries/resume)
        mix = splitmix64(cells.astype(np.uint64) ^ np.arange(len(cells), dtype=np.uint64))
        salt = (mix % salt_count(cells).astype(np.uint64)).astype(np.int64)
        batch = batch.append_column("__cell", pa.array(cells)).append_column("__salt", pa.array(salt))
        return _tag(batch, 0, "__cell", pa.int64(), pt_src, types)

    rows = polygons_to_cell_rows(polys, res)
    reps = salt_count(rows.column("cell").to_numpy())
    rows = rows.take(pa.array(np.repeat(np.arange(len(reps)), reps)))
    salt = np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)
    rows = rows.append_column("salt", pa.array(salt, pa.int64()))
    poly_side = _tag(rows, 1, "cell", pa.int64(), {"__salt": "salt", "__poly_id": "poly_id", "__ring": "ring"}, types)

    def join_partition(t: pa.Table) -> pa.Table:
        cell, salt = t.column("__key").to_numpy(), t.column("__salt").to_numpy()
        is_pl = t.column("__side").to_numpy() == 1
        order = np.lexsort((is_pl, salt, cell))  # per (cell, salt): points, then polygons
        cs, ss = cell[order], salt[order]
        starts = np.flatnonzero(np.r_[True, (cs[1:] != cs[:-1]) | (ss[1:] != ss[:-1])])
        lat, lon = t.column(lat_col).to_numpy(), t.column(lon_col).to_numpy()
        ring = t.column("__ring").combine_chunks()
        offs, vals = ring.offsets.to_numpy(), ring.values.to_numpy()
        pid = t.column("__poly_id").fill_null(0).to_numpy()
        out_pt, out_id = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for g in np.split(order, starts[1:]):
            pts, pls = g[~is_pl[g]], g[is_pl[g]]
            if len(pts) == 0 or len(pls) == 0:
                continue
            pset = PolygonSet.from_rings(pid[pls], [_deserialize_ring(vals[offs[j] : offs[j + 1]]) for j in pls])
            pt_idx, pl_idx = pset.locate(lat[pts], lon[pts])
            out_pt.append(pts[pt_idx])
            out_id.append(pset.poly_id[pl_idx])
        out = t.select(point_cols).take(pa.array(np.concatenate(out_pt)))
        return out.append_column(id_out, pa.array(np.concatenate(out_id), pa.int64()))

    sides = [points.map_batches(key_points, batch_format="pyarrow"), ray.data.from_arrow(poly_side)]
    return _exchange(sides, ["__key", "__salt"], join_partition, default_num_parts(), "pyarrow")
