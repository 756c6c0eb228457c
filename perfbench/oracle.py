"""Independent oracles for the benchmark's outputs.

Ingest: the (page, polygon) pairs the job must write, computed in numpy
from the generator's ground-truth coordinates with a convex-polygon sign
test, and a comparison that counts every page whose output differs.
Serve: reverse geocoding by brute-force haversine.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from gen import URL_PREFIX


def _inside_convex(lat, lon, rlat, rlon) -> np.ndarray:
    """Edge-inclusive containment in a convex counter-clockwise ring
    (x = lon, y = lat): the point is left of or on every edge."""
    ok = np.ones(len(lat), dtype=bool)
    n = len(rlat)
    for e in range(n):
        x0, y0 = rlon[e], rlat[e]
        x1, y1 = rlon[(e + 1) % n], rlat[(e + 1) % n]
        ok &= (x1 - x0) * (lat - y0) - (lon - x0) * (y1 - y0) >= 0
    return ok


def expected_pairs(truth: dict) -> np.ndarray:
    """Sorted int64 keys ``page * K + polygon ordinal`` of every
    (page, polygon) containment pair the job must output."""
    has = truth["has_geo"]
    page = np.nonzero(has)[0]
    lat, lon = truth["lat"][page], truth["lon"][page]
    order = np.argsort(lat, kind="stable")
    page, lat, lon = page[order], lat[order], lon[order]
    rlat_all, rlon_all = truth["ring_lat"], truth["ring_lon"]
    k = len(rlat_all)
    out = []
    for j in range(k):
        rlat, rlon = rlat_all[j], rlon_all[j]
        lo = np.searchsorted(lat, rlat.min(), side="left")
        hi = np.searchsorted(lat, rlat.max(), side="right")
        cl, cn = lat[lo:hi], lon[lo:hi]
        m = (cn >= rlon.min()) & (cn <= rlon.max())
        idx = np.nonzero(m)[0]
        if len(idx) == 0:
            continue
        hit = idx[_inside_convex(cl[idx], cn[idx], rlat, rlon)]
        out.append(page[lo + hit] * k + j)
    return np.sort(np.concatenate(out)) if out else np.empty(0, np.int64)


def read_output(out_dir: str, id_col: str) -> pa.Table:
    """Every row the checkpointed write committed, read straight from the
    partition files (not through the code under test)."""
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    if not files:
        return pa.table({"url": pa.array([], pa.string()), "lat": pa.array([], pa.float64()),
                         "lon": pa.array([], pa.float64()), id_col: pa.array([], pa.int64())})
    return pa.concat_tables([pq.read_table(f, columns=["url", "lat", "lon", id_col]) for f in files])


def output_keys(out: pa.Table, truth: dict, id_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(pair keys, page index per row) of the job's output, in its row
    order; rows with an unknown url or polygon id get key -1."""
    url = out.column("url")
    suffix = pc.utf8_slice_codeunits(url, len(URL_PREFIX))
    valid = pc.and_(pc.starts_with(url, URL_PREFIX), pc.match_substring_regex(suffix, r"^[0-9]{1,12}$"))
    page = pc.cast(pc.if_else(valid, suffix, "-1"), pa.int64()).to_numpy()
    ids = truth["poly_id"]
    k = len(ids)
    pos = np.searchsorted(ids, out.column(id_col).to_numpy())  # ids are sorted
    pos_ok = (pos < k) & (ids[np.minimum(pos, k - 1)] == out.column(id_col).to_numpy())
    page_ok = (page >= 0) & (page < len(truth["lat"]))
    keys = np.where(pos_ok & page_ok, page * k + pos, -1)
    return keys, page


def count_wrong_pages(out: pa.Table, truth: dict, expected: np.ndarray, id_col: str) -> int:
    """Pages whose output differs from the oracle: a missing, extra or
    duplicated (page, polygon) pair, or coordinates other than the ground
    truth. Returns the number of distinct pages affected."""
    keys, page = output_keys(out, truth, id_col)
    k = len(truth["poly_id"])
    bad_pages: set[int] = set()
    unknown = keys < 0
    if unknown.any():
        bad_pages.update(int(p) for p in page[unknown])
    got = np.sort(keys[~unknown])
    if not np.array_equal(got, expected):
        ug, cg = np.unique(got, return_counts=True)
        ue, ce = np.unique(expected, return_counts=True)
        allk = np.union1d(ug, ue)
        ng = np.zeros(len(allk), np.int64)
        ne = np.zeros(len(allk), np.int64)
        ng[np.searchsorted(allk, ug)] = cg
        ne[np.searchsorted(allk, ue)] = ce
        bad_pages.update(int(x) for x in allk[ng != ne] // k)
    ok = ~unknown
    p = page[ok]
    wrong_xy = (out.column("lat").to_numpy()[ok] != truth["lat"][p]) | (out.column("lon").to_numpy()[ok] != truth["lon"][p])
    bad_pages.update(int(x) for x in p[wrong_xy])
    return len(bad_pages)


def haversine_km(lat1, lon1, lat2, lon2):
    r = np.radians
    dlat = r(lat2) - r(lat1)
    dlon = r(lon2) - r(lon1)
    a = np.sin(dlat / 2) ** 2 + np.cos(r(lat1)) * np.cos(r(lat2)) * np.sin(dlon / 2) ** 2
    return 2 * 6371.0088 * np.arcsin(np.sqrt(a))


def nearest_doc(lat: float, lon: float, doc_id: np.ndarray, dlat: np.ndarray, dlon: np.ndarray) -> tuple[int, float]:
    """(doc_id of the nearest document, km to the second nearest minus
    km to the nearest) — callers skip near-ties, where rounding decides."""
    d = haversine_km(lat, lon, dlat, dlon)
    order = np.argsort(d, kind="stable")
    return int(doc_id[order[0]]), float(d[order[1]] - d[order[0]])
