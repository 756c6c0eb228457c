"""OSM-style ingest: nodes/ways/relations Parquet → search documents.

The engine form of the reference indexing pipeline (SURVEY.md §3.1;
/root/reference/cmd/indexing/main.go:26-120 + pkg/geo/parse_osm.go +
pkg/index/indexer.go): three in-RAM scans and mutex-guarded loops become
Ray-Data shuffles:

  shuffle 1  way→node explode-join-regroup (J1/J2): ways flat-mapped to
             (way_id, pos, node_id), hash-bucket-joined to nodes, regrouped
             by way_id with position order preserved
  shuffle 2  dedup groupby(lower(name)) with the D1 containment rules, made
             DETERMINISTIC (group sorted by (src_rank, orig_id) — the
             reference's outcome depends on goroutine arrival order,
             pkg/index/indexer.go:603-635)
  shuffle 3  deterministic doc_id assignment: sort + per-block offsets
             (replaces the arrival-order counter, pkg/index/indexer.go:196-216)
  then       J3 address enrichment via the broadcast PIP join
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.geometry import bbox_contains, median_centroid


def pack_ring(lat: np.ndarray, lon: np.ndarray) -> bytes:
    """Ring coords → packed float64 bytes (lat array then lon array)."""
    return np.ascontiguousarray(
        np.concatenate([np.asarray(lat, np.float64), np.asarray(lon, np.float64)])
    ).tobytes()


def unpack_ring(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    flat = np.frombuffer(blob, dtype=np.float64)
    half = len(flat) // 2
    return flat[:half], flat[half:]
from ..stages import maps
from ..stages.joins import grouped_apply_bounded, hash_bucket_join, hash_partitioned_apply, zip_with_index
from ..stages.spatial_join import PolygonSet, broadcast_pip_join


def explode_way_nodes(batch: pa.Table, id_col: str = "id", list_col: str = "node_ids") -> pa.Table:
    """way → (way_id, pos, node_id) rows, vectorized via list offsets."""
    col = batch.column(list_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy()
    values = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.diff(offsets)
    way_ids = np.repeat(batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64), lens)
    pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lens]) if len(lens) else np.empty(0, np.int64)
    return pa.table({"way_id": pa.array(way_ids), "pos": pa.array(pos), "node_id": pa.array(values)})


def build_way_geometries(ways: "ray.data.Dataset", nodes: "ray.data.Dataset", num_buckets: int = 16) -> "ray.data.Dataset":
    """J1: gather each way's node coordinates in ring order.

    Output: (way_id, ring: packed float64 bytes,
    clat, clon  — the reference median 'centroid', M5,
    lat0/lon0/lat1/lon1 — the MBR).
    """
    exploded = ways.map_batches(explode_way_nodes, batch_format="pyarrow")
    coords = nodes.map_batches(
        lambda t: t.select(["id", "lat", "lon"]).rename_columns(["node_id", "lat", "lon"]),
        batch_format="pyarrow",
    )
    joined = hash_bucket_join(exploded, coords, on="node_id", num_buckets=num_buckets)

    def regroup_partition(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized per-partition: group boundaries via np.unique +
        # reduceat; medians via per-axis lexsort and the len//2 element
        # (the reference median rule, M5); rings packed as float64 bytes
        # (uniform-length list columns trip Ray's tensor-extension concat)
        if len(g) == 0:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in [
                    ("way_id", np.int64), ("ring", object), ("clat", float), ("clon", float),
                    ("lat0", float), ("lon0", float), ("lat1", float), ("lon1", float)]}
            )
        g = g.sort_values(["way_id", "pos"], kind="mergesort")
        wid = g["way_id"].to_numpy(dtype=np.int64)
        lat = g["lat"].to_numpy(dtype=np.float64)
        lon = g["lon"].to_numpy(dtype=np.float64)
        uniq, starts = np.unique(wid, return_index=True)
        lens = np.diff(np.append(starts, len(wid)))
        rings = [pack_ring(lat[s : s + l], lon[s : s + l]) for s, l in zip(starts, lens)]
        order_lat = np.lexsort((lat, wid))
        order_lon = np.lexsort((lon, wid))
        med_lat = lat[order_lat][starts + lens // 2]
        med_lon = lon[order_lon][starts + lens // 2]
        return pd.DataFrame(
            {
                "way_id": uniq,
                "ring": rings,
                "clat": med_lat,
                "clon": med_lon,
                "lat0": np.minimum.reduceat(lat, starts),
                "lon0": np.minimum.reduceat(lon, starts),
                "lat1": np.maximum.reduceat(lat, starts),
                "lon1": np.maximum.reduceat(lon, starts),
            }
        )

    return hash_partitioned_apply(joined, "way_id", regroup_partition, num_parts=num_buckets * 2)


def build_relation_boundaries(
    relations: "ray.data.Dataset", way_geoms: "ray.data.Dataset", num_buckets: int = 8
) -> "ray.data.Dataset":
    """J2: concat member-way node coords in member order (the reference does
    NOT close or orient rings — pkg/geo/parse_osm.go:348-368; neither do we).

    Output: (rel_id, name, admin_level, postal_code, ring: packed bytes,
    clat, clon, lat0..lon1)."""

    def explode_rel(batch: pa.Table) -> pa.Table:
        col = batch.column("way_ids")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offsets = col.offsets.to_numpy()
        lens = np.diff(offsets)
        rel_ids = np.repeat(batch.column("id").to_numpy(), lens)
        pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lens]) if len(lens) else np.empty(0, np.int64)
        return pa.table(
            {
                "rel_id": pa.array(rel_ids.astype(np.int64)),
                "member_pos": pa.array(pos),
                "way_id": pa.array(col.values.to_numpy(zero_copy_only=False).astype(np.int64)),
            }
        )

    exploded = relations.map_batches(explode_rel, batch_format="pyarrow")
    joined = hash_bucket_join(exploded, way_geoms, on="way_id", num_buckets=num_buckets)

    def regroup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("member_pos", kind="mergesort")
        parts = [unpack_ring(r) for r in g["ring"]]
        lat = np.concatenate([p[0] for p in parts])
        lon = np.concatenate([p[1] for p in parts])
        clat, clon = median_centroid(lat, lon)  # M6 — same median semantics
        return pd.DataFrame(
            {
                "rel_id": [g["rel_id"].iloc[0]],
                "ring": [pack_ring(lat, lon)],
                "clat": [clat],
                "clon": [clon],
                "lat0": [float(lat.min())],
                "lon0": [float(lon.min())],
                "lat1": [float(lat.max())],
                "lon1": [float(lon.max())],
            }
        )

    rings = joined.groupby("rel_id").map_groups(regroup, batch_format="pandas")
    meta = relations.map_batches(
        lambda t: t.select(["id", "name", "admin_level", "postal_code"]).rename_columns(
            ["rel_id2", "name", "admin_level", "postal_code"]
        ),
        batch_format="pyarrow",
    )
    return hash_bucket_join(rings, meta, on="rel_id", right_on="rel_id2", num_buckets=num_buckets).drop_columns(
        ["rel_id2"]
    )


def dedup_documents(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """D1 near-dup place suppression, deterministic form.

    Reference rule (pkg/index/indexer.go:603-635): per lowercased name, a doc
    is DROPPED if the registry MBR for that name contains its MBR or its MBR
    contains the registry MBR; otherwise kept and the registry MBR grows to
    the union. The reference applies this in goroutine arrival order; we sort
    each name-group by (src_rank, orig_id) and apply the same sequential rule
    — a canonical deterministic order (SURVEY.md §7.4)."""

    def add_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column("name_lower", pc.utf8_lower(batch.column("name")))

    def resolve_partition(g: pd.DataFrame) -> pd.DataFrame:
        # names are mostly unique: vectorized fast path keeps all singleton
        # name-groups; only multi-doc names run the sequential registry rule
        if len(g) == 0:
            return g
        g = g.sort_values(["name_lower", "src_rank", "orig_id"], kind="mergesort")
        sizes = g.groupby("name_lower", sort=False)["orig_id"].transform("size").to_numpy()
        singles = g[sizes == 1]
        multi = g[sizes > 1]
        kept = [singles]
        for _, sub in multi.groupby("name_lower", sort=False):
            reg: tuple[float, float, float, float] | None = None
            keep = []
            for row in sub.itertuples(index=False):
                box = (row.lat0, row.lon0, row.lat1, row.lon1)
                if reg is not None and (bbox_contains(reg, box) or bbox_contains(box, reg)):
                    keep.append(False)
                    continue
                keep.append(True)
                reg = box if reg is None else (
                    min(reg[0], box[0]), min(reg[1], box[1]), max(reg[2], box[2]), max(reg[3], box[3])
                )
            kept.append(sub[np.asarray(keep)])
        return pd.concat(kept, ignore_index=True)

    return hash_partitioned_apply(
        docs.map_batches(add_key, batch_format="pyarrow"), "name_lower", resolve_partition, num_parts=64
    )


def ingest_documents(
    nodes: "ray.data.Dataset",
    ways: "ray.data.Dataset",
    relations: "ray.data.Dataset",
    num_buckets: int = 16,
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Full ingest: returns (docs, boundaries).

    docs: (doc_id, name, lat, lon, street, tipe, postal_code, house_number,
           src_rank, orig_id) — doc_id dense + deterministic.
    boundaries: relation polygons with centroid/MBR.
    """
    # materialized ONCE: three consumers below (way docs, boundaries,
    # streets) would otherwise each re-execute the way-node shuffle join —
    # the single most expensive ingest exchange (O(ways) rows, spillable)
    way_geoms = build_way_geometries(ways, nodes, num_buckets).materialize()

    # way-side documents: M1 filter → M3/M4 projection → join geometry
    def way_attrs(batch: pa.Table) -> pa.Table:
        keep = maps.check_way_allowed(batch)
        t = batch.filter(pa.array(keep))
        # M10: the doc's key=value feature list (indexer.go:1172-1180),
        # carried as a ';'-joined string so it survives pandas-widened
        # shuffles (list columns break mixed blocks — CLAUDE.md pitfalls)
        t = t.append_column("features", pa.compute.binary_join(maps.osm_features(t), ";"))
        t = maps.project_name_address_type(t)
        return t.select(["id", "name", "street", "tipe", "postal_code", "house_number", "features"]).rename_columns(
            ["attr_way_id", "name", "street", "tipe", "postal_code", "house_number", "features"]
        )

    attrs = ways.map_batches(way_attrs, batch_format="pyarrow")
    way_docs = hash_bucket_join(way_geoms, attrs, on="way_id", right_on="attr_way_id", num_buckets=num_buckets)

    def finish_way_docs(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "orig_id": batch.column("way_id"),
                "name": batch.column("name"),
                "lat": batch.column("clat"),
                "lon": batch.column("clon"),
                "street": batch.column("street"),
                "tipe": batch.column("tipe"),
                "postal_code": batch.column("postal_code"),
                "house_number": batch.column("house_number"),
                "lat0": batch.column("lat0"),
                "lon0": batch.column("lon0"),
                "lat1": batch.column("lat1"),
                "lon1": batch.column("lon1"),
                "features": batch.column("features"),
                "src_rank": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    way_docs = way_docs.map_batches(finish_way_docs, batch_format="pyarrow")

    # node-side documents: M2 filter → M3/M4 projection; point MBR
    def node_docs_fn(batch: pa.Table) -> pa.Table:
        keep = maps.check_node_allowed(batch)
        t = batch.filter(pa.array(keep))
        t = t.append_column("features", pa.compute.binary_join(maps.osm_features(t), ";"))
        t = maps.project_name_address_type(t)
        n = len(t)
        lat = t.column("lat")
        lon = t.column("lon")
        return pa.table(
            {
                "orig_id": t.column("id"),
                "name": t.column("name"),
                "lat": lat,
                "lon": lon,
                "street": t.column("street"),
                "tipe": t.column("tipe"),
                "postal_code": t.column("postal_code"),
                "house_number": t.column("house_number"),
                "lat0": lat,
                "lon0": lon,
                "lat1": lat,
                "lon1": lon,
                "features": t.column("features"),
                "src_rank": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    node_docs = nodes.map_batches(node_docs_fn, batch_format="pyarrow")

    merged = way_docs.union(node_docs)
    # tipe == "chalet" rows are dropped (pkg/index/indexer.go:185)
    merged = merged.map_batches(
        lambda t: t.filter(pa.compute.not_equal(t.column("tipe"), "chalet")), batch_format="pyarrow"
    )
    deduped = dedup_documents(merged)

    # deterministic dense doc ids: canonical order (name_lower, src_rank, orig_id)
    ordered = deduped.sort(["name_lower", "src_rank", "orig_id"])
    docs = zip_with_index(ordered, id_col="doc_id")

    boundaries = build_relation_boundaries(relations, way_geoms, max(num_buckets // 2, 1))

    # street table for the nearest-street address fallback: named highway ways
    def street_attrs(batch: pa.Table) -> pa.Table:
        has_hwy = maps.map_lookup(batch.column("tags"), "highway") != None  # noqa: E711
        t = batch.filter(pa.array(has_hwy))
        t = maps.project_name_address_type(t)
        return t.select(["id", "name"]).rename_columns(["street_way_id", "name"])

    sattrs = ways.map_batches(street_attrs, batch_format="pyarrow")
    streets = hash_bucket_join(
        way_geoms.map_batches(lambda t: t.select(["way_id", "clat", "clon"]), batch_format="pyarrow"),
        sattrs,
        on="way_id",
        right_on="street_way_id",
        num_buckets=max(num_buckets // 2, 1),
    )
    return docs, boundaries, streets


# --------------------------------------------------------------------------
# J3 — address enrichment (the flagship spatial join applied to docs)
# --------------------------------------------------------------------------

ADMIN_LEVEL_FIELD = {
    # reference assembly rules (pkg/index/indexer.go:1017-1170): which admin
    # level fills which address slot, and the match rule quirk per slot.
    "7": ("kelurahan", "first"),
    "6": ("kecamatan", "first"),
    "5": ("city", "first"),
    "4": ("province", "last"),  # last-match, no break (indexer.go:1128-1140)
    "2": ("country", "bbox"),  # bbox hit only, NO point-in-polygon (:1162-1167)
}


class StreetGrid:
    """Exact 1-NN over street centroids under the reference's equirect
    ranking metric (functions/geometry.equirect_approx), via a uniform
    degree grid with conservative ring bounds — the broadcast-side analogue
    of stages/knn.py's cell-ring kNN (same reachable-latitude cos bound).

    Replaces the O(missing × streets) distance matrix in the J3
    nearest-street fallback: at 20k streets that matrix costs ~27 s per
    12.5k-doc batch on this host; the grid is O(missing × local density).
    Ties (equal metric) resolve to the LOWEST street index, matching
    np.argmin over the full matrix (parity unit-tested)."""

    def __init__(self, s_lat: np.ndarray, s_lon: np.ndarray, target_per_cell: int = 8):
        import math

        self.lat = np.asarray(s_lat, np.float64)
        self.lon = np.asarray(s_lon, np.float64)
        lat0, lat1 = float(self.lat.min()), float(self.lat.max())
        lon0, lon1 = float(self.lon.min()), float(self.lon.max())
        span = max(lat1 - lat0, 1e-9) * max(lon1 - lon0, 1e-9)
        # 1e-4° (~11 m) floor: a degenerate street set must not shrink the
        # cell below query-point reach (a tiny cell makes a distant point's
        # cell index astronomically large and the ring walk unbounded)
        self.deg = max(math.sqrt(span * target_per_cell / max(len(self.lat), 1)), 1e-4)
        self.olat, self.olon = lat0, lon0
        ix = np.floor((self.lat - lat0) / self.deg).astype(np.int64)
        iy = np.floor((self.lon - lon0) / self.deg).astype(np.int64)
        self.nx = int(ix.max()) + 1
        self.ny = int(iy.max()) + 1
        order = np.argsort(ix * (self.ny + 1) + iy, kind="stable")  # in-cell order stays ascending
        cells: dict[tuple[int, int], np.ndarray] = {}
        k_sorted = [(int(ix[i]), int(iy[i])) for i in order]
        start = 0
        for i in range(1, len(order) + 1):
            if i == len(order) or k_sorted[i] != k_sorted[start]:
                cells[k_sorted[start]] = order[start:i]
                start = i
        self.cells = cells
        self.street_lat_lo, self.street_lat_hi = lat0, lat1

    def _ring(self, cx: int, cy: int, r: int) -> list[np.ndarray]:
        """Street-index arrays of every grid cell at Chebyshev distance r,
        clamped to the occupied grid rectangle (a ring that misses the grid
        costs O(1) — the query cell may sit far outside the grid)."""
        out = []
        if r == 0:
            a = self.cells.get((cx, cy))
            return [a] if a is not None else []
        for dx in range(max(-r, -cx), min(r, self.nx - 1 - cx) + 1):
            if abs(dx) == r:
                dys = range(max(-r, -cy), min(r, self.ny - 1 - cy) + 1)
            else:
                dys = [d for d in (-r, r) if 0 <= cy + d < self.ny]
            for dy in dys:
                a = self.cells.get((cx + dx, cy + dy))
                if a is not None:
                    out.append(a)
        return out

    def nearest(self, plat: np.ndarray, plon: np.ndarray) -> np.ndarray:
        """Index of the nearest street per point (exact under the metric)."""
        from ..functions.geometry import EARTH_RADIUS_KM, equirect_approx

        plat = np.asarray(plat, np.float64)
        plon = np.asarray(plon, np.float64)
        out = np.empty(len(plat), np.int64)
        cx = np.floor((plat - self.olat) / self.deg).astype(np.int64)
        cy = np.floor((plon - self.olon) / self.deg).astype(np.int64)
        order = np.lexsort((cy, cx))
        start = 0
        for i in range(1, len(order) + 1):
            if i == len(order) or (cx[order[i]], cy[order[i]]) != (cx[order[start]], cy[order[start]]):
                pts = order[start:i]
                self._nearest_group(plat, plon, pts, int(cx[pts[0]]), int(cy[pts[0]]), out, EARTH_RADIUS_KM, equirect_approx)
                start = i
        return out

    @staticmethod
    def _interval_abs_cos_min(lo: float, hi: float) -> float:
        """min |cos(v)| over v ∈ [lo, hi] (v in the metric's raw units).
        Zero iff the interval contains π/2 + kπ for some integer k."""
        import math

        if hi - lo >= math.pi:
            return 0.0
        k_lo = math.ceil((lo - math.pi / 2) / math.pi)
        if math.pi / 2 + k_lo * math.pi <= hi:
            return 0.0
        return min(abs(math.cos(lo)), abs(math.cos(hi)))

    def _nearest_group(self, plat, plon, pts, cgx, cgy, out, R, metric):
        # every cell is within this Chebyshev radius of the group's cell —
        # by then the whole grid has been gathered
        rlimit = max(cgx, self.nx - 1 - cgx, cgy, self.ny - 1 - cgy, 1)
        # lower bound for anything in ring k: ≥ (k-1) axis-steps away in
        # SOME axis. The lat axis contributes R·separation directly; the
        # lon axis is scaled by the metric's cos(0.5(lat1+lat2)) — which,
        # per the reference's degrees-into-radians quirk
        # (functions/geometry.equirect_approx), oscillates with latitude
        # IN DEGREE UNITS and can reach ZERO near lat ≈ ±(π/2+kπ) degrees
        # (~±1.57°, ±4.71°, …). Bound |cos| from below over the reachable
        # mean-lat interval; when the interval straddles a zero the lon
        # bound vanishes and pruning degrades to the group's full ring
        # span — correct, just slower for those latitude bands.
        v_lo = 0.5 * (float(plat[pts].min()) + self.street_lat_lo)
        v_hi = 0.5 * (float(plat[pts].max()) + self.street_lat_hi)
        cosb = self._interval_abs_cos_min(v_lo, v_hi)
        step = R * self.deg * min(1.0, cosb)
        cand: list[np.ndarray] = []
        # rings below the Chebyshev distance to the grid rectangle cannot
        # contain a cell — start the walk where the grid begins
        r = max(0, -cgx, cgx - (self.nx - 1), -cgy, cgy - (self.ny - 1))
        r0 = rlimit
        while r <= rlimit:
            cand.extend(self._ring(cgx, cgy, r))
            if cand:
                r0 = r
                break
            r += 1
        if not cand:  # unreachable when streets is non-empty; be safe
            cand = [np.arange(len(self.lat), dtype=np.int64)]
        c = np.sort(np.concatenate(cand))
        d = metric(plat[pts][:, None], plon[pts][:, None], self.lat[None, c], self.lon[None, c])
        dmax = float(d.min(axis=1).max())
        # gather every ring whose lower bound could still beat dmax; a zero
        # step (mean-lat interval straddles a cos zero) prunes nothing
        r_stop = min(int(np.ceil(dmax / step)) + 1, rlimit) if step > 0.0 else rlimit
        extra: list[np.ndarray] = []
        for rr in range(r0 + 1, r_stop + 1):
            extra.extend(self._ring(cgx, cgy, rr))
        if extra:
            c = np.sort(np.concatenate([c] + extra))
            d = metric(plat[pts][:, None], plon[pts][:, None], self.lat[None, c], self.lon[None, c])
        out[pts] = c[np.argmin(d, axis=1)]


def enrich_addresses(
    docs: "ray.data.Dataset", boundaries_pd: pd.DataFrame, streets_pd: pd.DataFrame | None = None
) -> "ray.data.Dataset":
    """Fill kelurahan/kecamatan/city/province/country + postal fallback and
    assemble the full address string (GetFullAdress ordering:
    street, house_number, kelurahan, kecamatan, city, province, postal,
    country — pkg/index/indexer.go:1017-1170).

    Docs WITHOUT an ``addr:street`` get the NEAREST street's name
    (unconditional 1-NN over street centroids by the equirect ranking
    metric — reference indexer.go:1030-1037 via the street R-tree).

    boundaries_pd / streets_pd are the small broadcast sides: the polygon
    sets, the name dicts and the StreetGrid are built here and put once,
    and each batch gets them with ray.get (7 ms per batch for a 20k-street
    grid on a one-CPU host, against ~1.3 s to start an actor).
    """
    by_level: dict[str, PolygonSet] = {}
    meta: dict[str, dict[int, tuple[str, str]]] = {}
    for level, grp in boundaries_pd.groupby("admin_level"):
        rings = [unpack_ring(r) for r in grp["ring"]]
        by_level[level] = PolygonSet.from_rings(grp["rel_id"].to_numpy(np.int64), rings)
        meta[level] = {
            int(r): (nm, pc_ or "") for r, nm, pc_ in zip(grp["rel_id"], grp["name"], grp["postal_code"])
        }
    # the street grid is built once here and put with the rest of the state
    streets = None
    if streets_pd is not None and len(streets_pd):
        streets = (
            streets_pd["name"].to_numpy(dtype=object),
            StreetGrid(streets_pd["clat"].to_numpy(dtype=np.float64), streets_pd["clon"].to_numpy(dtype=np.float64)),
        )
    state_ref = ray.put((by_level, meta, streets))

    def enrich(batch: pa.Table) -> pa.Table:
        by_level, meta, streets = ray.get(state_ref)
        names, grid = streets if streets is not None else (None, None)
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        n = len(batch)
        slots = {f: np.full(n, "", dtype=object) for f, _ in ADMIN_LEVEL_FIELD.values()}
        postal_by_level = {lv: np.full(n, "", dtype=object) for lv in ADMIN_LEVEL_FIELD}
        for level, (field, rule) in ADMIN_LEVEL_FIELD.items():
            pset = by_level.get(level)
            if pset is None:
                continue
            if rule == "bbox":
                # country: first bbox hit, no PIP (reference quirk)
                for j in range(len(pset.poly_id)):
                    b = pset.bbox[j]
                    hit = (lat >= b[0]) & (lat <= b[2]) & (lon >= b[1]) & (lon <= b[3])
                    fresh = hit & (slots[field] == "")
                    nm, _ = meta[level][int(pset.poly_id[j])]
                    slots[field][fresh] = nm
                continue
            pt_idx, pl_idx = pset.locate(lat, lon)
            order = np.argsort(pl_idx, kind="stable")
            if rule == "first":
                order = order[::-1]  # later writes win ⇒ apply descending so FIRST poly sticks
            for p, j in zip(pt_idx[order], pl_idx[order]):
                nm, pcode = meta[level][int(pset.poly_id[j])]
                slots[field][p] = nm
                if pcode:
                    postal_by_level[level][p] = pcode
        # postal fallback: most specific admin level wins (the reference
        # takes the kelurahan postal code, pkg/index/indexer.go:1017-1170)
        postal_fb = np.full(n, "", dtype=object)
        for lv in ("7", "6", "5", "4"):
            empty = postal_fb == ""
            postal_fb[empty] = postal_by_level[lv][empty]
        street = batch.column("street").to_numpy(zero_copy_only=False).copy()
        # nearest-street fallback (reference indexer.go:1030-1037)
        if grid is not None:
            midx = np.nonzero(np.asarray([not s for s in street]))[0]
            if len(midx):
                # exact grid-bucketed 1-NN (StreetGrid) — O(local
                # density) per doc, replacing the (missing × streets)
                # distance matrix that cost ~27 s per 12.5k-doc batch
                # at 20k streets. Beyond ~10^6 streets the broadcast
                # table itself outgrows a worker — at that scale
                # streets move into the cell-partitioned tile store
                # and this becomes a cell_knn lookup.
                street[midx] = names[grid.nearest(lat[midx], lon[midx])]
        housenum = batch.column("house_number").to_numpy(zero_copy_only=False)
        postal = batch.column("postal_code").to_numpy(zero_copy_only=False)
        address = []
        for i in range(n):
            parts = [
                street[i] or "",
                housenum[i] or "",
                slots["kelurahan"][i],
                slots["kecamatan"][i],
                slots["city"][i],
                slots["province"][i],
                (postal[i] or "") or postal_fb[i],
                slots["country"][i],
            ]
            address.append(", ".join([p for p in parts if p]))
        out = batch
        for f in ("kelurahan", "kecamatan", "city", "province", "country"):
            out = out.append_column(f, pa.array(slots[f], pa.string()))
        return out.append_column("address", pa.array(address, pa.string()))

    return docs.map_batches(enrich, batch_format="pyarrow")
