"""End-to-end ingest tests over the reference-parity OSM fixture corpus."""

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osm_search_ray.pipelines import ingest
from osm_search_ray.sources.fixtures import GOLDEN_PLACES, SPIMI_NODE_NAMES, SPIMI_WAY_NAMES, make_osm_tables
from osm_search_ray.sources.readers import read_pq


@pytest.fixture(scope="module")
def osm_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("osm")
    for name, tbl in make_osm_tables().items():
        pq.write_table(tbl, d / f"{name}.parquet")
    return str(d)


@pytest.fixture(scope="module")
def ingested(osm_dir):
    nodes = read_pq(f"{osm_dir}/nodes.parquet")
    ways = read_pq(f"{osm_dir}/ways.parquet")
    rels = read_pq(f"{osm_dir}/relations.parquet")
    docs, boundaries, streets = ingest.ingest_documents(nodes, ways, rels, num_buckets=4)
    return docs.to_pandas(), boundaries.to_pandas(), streets.to_pandas()


def test_docs_contents(ingested):
    docs, _, _ = ingested
    names = set(docs["name"])
    for n in SPIMI_WAY_NAMES + SPIMI_NODE_NAMES:
        assert n in names, n
    for n, _, _, _ in GOLDEN_PLACES:
        assert n in names, n
    # unnamed / disallowed rows filtered
    assert "" not in names
    # doc ids dense + deterministic
    ids = np.sort(docs["doc_id"].to_numpy())
    assert (ids == np.arange(len(docs))).all()
    # M10: every doc carries its whitelisted key=value feature list
    # (';'-joined string form; indexer.go:1172-1180)
    assert "features" in docs.columns
    feats = dict(zip(docs["name"], docs["features"]))
    assert "name=Monumen Nasional" in feats["Monumen Nasional"].split(";")
    assert all("wikidata" not in (f or "") for f in docs["features"])


def test_doc_ids_deterministic(osm_dir, ingested):
    docs1, _, _ = ingested
    nodes = read_pq(f"{osm_dir}/nodes.parquet")
    ways = read_pq(f"{osm_dir}/ways.parquet")
    rels = read_pq(f"{osm_dir}/relations.parquet")
    docs2, _, _ = ingest.ingest_documents(nodes, ways, rels, num_buckets=2)  # different bucketing
    a = docs1.sort_values("doc_id")[["doc_id", "name", "orig_id"]].reset_index(drop=True)
    b = docs2.to_pandas().sort_values("doc_id")[["doc_id", "name", "orig_id"]].reset_index(drop=True)
    assert a.equals(b)


def test_way_centroid_median_semantics(ingested, osm_dir):
    docs, _, _ = ingested
    # way centroids follow the reference median rule: verify against a direct
    # recompute from the fixture tables
    nodes = pq.read_table(f"{osm_dir}/nodes.parquet").to_pandas()
    ways = pq.read_table(f"{osm_dir}/ways.parquet").to_pandas()
    nd = dict(zip(nodes["id"], zip(nodes["lat"], nodes["lon"])))
    for _, w in ways.iterrows():
        tags = dict(w["tags"])
        name = tags.get("name")
        if not name:
            continue
        lats = np.sort([nd[i][0] for i in w["node_ids"]])
        lons = np.sort([nd[i][1] for i in w["node_ids"]])
        row = docs[(docs["name"] == name) & (docs["src_rank"] == 0)]
        if len(row) == 0:
            continue
        assert abs(row["lat"].iloc[0] - lats[len(lats) // 2]) < 1e-12
        assert abs(row["lon"].iloc[0] - lons[len(lons) // 2]) < 1e-12


def test_boundaries(ingested):
    _, b, _ = ingested
    assert set(b["name"]) == {"Indonesia", "Jawa Barat", "Jakarta", "Jakarta Selatan", "Kebayoran", "Gandaria"}
    from osm_search_ray.pipelines.ingest import unpack_ring

    ind = b[b["name"] == "Indonesia"].iloc[0]
    rl, _ = unpack_ring(ind["ring"])
    assert len(rl) == 5
    assert ind["lat0"] == pytest.approx(-9.25) and ind["lat1"] == pytest.approx(-3.25)


def test_address_enrichment(ingested):
    docs_pd, bounds_pd, _ = ingested
    docs = ray.data.from_pandas(docs_pd)
    enriched = ingest.enrich_addresses(docs, bounds_pd).to_pandas()
    monas = enriched[enriched["name"] == "Monumen Nasional"].iloc[0]
    # (-6.1754, 106.8272) vs nested rects centered (-6.25, 106.80):
    assert monas["kelurahan"] == ""  # outside Gandaria (half 0.05)
    assert monas["kecamatan"] == "Kebayoran"  # inside half 0.1
    assert monas["city"] == "Jakarta Selatan"
    assert monas["province"] == "Jakarta"
    assert monas["country"] == "Indonesia"
    assert monas["address"] == "Kebayoran, Jakarta Selatan, Jakarta, 14000, Indonesia"
    # street docs keep their addr:street in front of the admin chain
    way = enriched[enriched["name"] == "Jalan Sentosa Harapan"].iloc[0]
    assert way["address"].startswith("Jalan Sentosa Harapan")


def test_dedup_containment():
    """D1: same lowercased name with contained MBR ⇒ dropped; disjoint ⇒ kept."""
    import pandas as pd

    docs = pd.DataFrame(
        {
            "orig_id": [1, 2, 3, 4],
            "name": ["Alpha", "alpha", "Alpha", "Beta"],
            "lat": [0.5, 0.5, 5.0, 0.0],
            "lon": [0.5, 0.5, 5.0, 0.0],
            "street": [""] * 4,
            "tipe": [""] * 4,
            "postal_code": [""] * 4,
            "house_number": [""] * 4,
            "lat0": [0.0, 0.2, 5.0, 0.0],
            "lon0": [0.0, 0.2, 5.0, 0.0],
            "lat1": [1.0, 0.8, 5.1, 0.0],
            "lon1": [1.0, 0.8, 5.1, 0.0],
            "src_rank": np.zeros(4, dtype=np.int8),
        }
    )
    out = ingest.dedup_documents(ray.data.from_pandas(docs)).to_pandas()
    kept = set(out["orig_id"])
    assert 1 in kept  # first Alpha kept
    assert 2 not in kept  # contained in registry → dropped
    assert 3 in kept  # disjoint same-name → kept (registry grows)
    assert 4 in kept


def test_nearest_street_fallback(ingested):
    """Docs without addr:street get the NEAREST street's name in front of
    the address chain (reference indexer.go:1030-1037)."""
    docs_pd, bounds_pd, streets_pd = ingested
    docs = ray.data.from_pandas(docs_pd)
    enriched = ingest.enrich_addresses(docs, bounds_pd, streets_pd).to_pandas()
    monas = enriched[enriched["name"] == "Monumen Nasional"].iloc[0]
    first = monas["address"].split(", ")[0]
    assert first in set(streets_pd["name"])  # a street name now leads
    # docs WITH addr:street keep their own street
    way = enriched[enriched["name"] == "Jalan Sentosa Harapan"].iloc[0]
    assert way["address"].startswith("Jalan Sentosa Harapan")


def test_e2e_ingest_index_search(ingested):
    """Reference §3.2 golden flow end-to-end through OUR ingest: fixture OSM
    tables → docs → text index + LM → misspelled query corrects and ranks
    the golden place first (searcher_test.go:50-190 semantics)."""
    import ray.data

    from osm_search_ray.pipelines import search as search_mod
    from osm_search_ray.pipelines import text_index as ti
    from osm_search_ray.state.lm import build_ngram_lm
    from osm_search_ray.state.spell import SpellCorrector

    docs_pd, bounds_pd, _ = ingested
    docs_pd = docs_pd.copy()
    docs_pd["address"] = docs_pd["street"].fillna("")
    docs = ray.data.from_pandas(docs_pd[["doc_id", "name", "address"]])
    index = ti.build_text_index(docs)
    lm = build_ngram_lm(ray.data.from_pandas(docs_pd[["name", "address"]].fillna("")))
    sc = SpellCorrector.build(lm.full_vocab, lm)

    import pandas as pd

    queries = pd.DataFrame(
        {
            "query_id": [0, 1],
            "text": ["Dunia Fantasi", "Duniu Fantaso"],  # exact + misspelled
            "scoring": ["BM25_FIELD", "BM25_FIELD"],
            "top_k": [3, 3],
            "offset": [0, 0],
        }
    )
    res = search_mod.free_form_search(index, queries, corrector=sc).to_pandas()
    name_of = dict(zip(docs_pd["doc_id"], docs_pd["name"]))
    for qid in (0, 1):
        top = res[(res["query_id"] == qid) & (res["rank"] == 1)]["doc_id"].iloc[0]
        assert name_of[top] == "Dunia Fantasi", (qid, name_of[top])


def test_salted_partitioned_join_equals_broadcast():
    """Forcing salting (hot_threshold=50 over a clustered point set) must not
    change the join result vs the broadcast join."""
    import numpy as np
    import pandas as pd
    import ray.data

    from osm_search_ray.stages.spatial_join import (
        PolygonSet,
        broadcast_pip_join,
        compute_salts,
        partitioned_pip_join,
    )
    import pyarrow as pa

    rng = np.random.default_rng(4)
    n = 2000
    # heavy skew: 70% of points in one tiny cluster (one hot cell)
    hot = rng.integers(0, n, n) % 10 < 7
    lat = np.where(hot, -6.2 + rng.uniform(0, 0.001, n), rng.uniform(-6.6, -5.9, n))
    lon = np.where(hot, 106.8 + rng.uniform(0, 0.001, n), rng.uniform(106.4, 107.2, n))
    pts = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "lat": lat, "lon": lon})
    rects = pa.table(
        {
            "rect_id": pa.array(np.arange(4, dtype=np.int64)),
            "lat0": pa.array([-6.7, -6.25, -6.0, -6.3]),
            "lon0": pa.array([106.3, 106.7, 106.9, 106.0]),
            "lat1": pa.array([-6.3, -6.1, -5.8, -5.9]),
            "lon1": pa.array([106.9, 106.9, 107.3, 107.4]),
        }
    )
    polys = PolygonSet.from_rects(rects)
    a = broadcast_pip_join(ray.data.from_pandas(pts), polys, id_out="rect_id").to_pandas()
    salts = compute_salts(ray.data.from_pandas(pts), "lat", "lon", 12, hot_threshold=50)
    assert len(salts) >= 1  # the hot cell was detected and split
    b = partitioned_pip_join(
        ray.data.from_pandas(pts), polys, id_out="rect_id", hot_threshold=50, salts=salts
    ).to_pandas()
    key = ["doc_id", "rect_id"]
    pd.testing.assert_frame_equal(
        a[key].sort_values(key).reset_index(drop=True), b[key].sort_values(key).reset_index(drop=True)
    )


def test_partitioned_join_on_pages_to_geo_equals_broadcast(tmp_path):
    """The partitioned join takes the web-ingest head's output as is: its
    string columns (url, lang) union with the polygon side's null padding,
    and the result equals the broadcast join's."""
    import pandas as pd
    import pyarrow as pa

    from osm_search_ray.sources.pages import make_pages_table, pages_to_geo, read_pages
    from osm_search_ray.stages.spatial_join import PolygonSet, broadcast_pip_join, partitioned_pip_join

    path = str(tmp_path / "pages.parquet")
    pq.write_table(make_pages_table(300), path)
    rects = pa.table(
        {
            "rect_id": pa.array(np.arange(4, dtype=np.int64)),
            "lat0": pa.array([-6.45, -6.3, -6.2, -6.4]),
            "lon0": pa.array([106.45, 106.6, 106.5, 106.8]),
            "lat1": pa.array([-6.2, -6.1, -5.95, -6.0]),
            "lon1": pa.array([106.7, 106.9, 107.05, 107.0]),
        }
    )
    polys = PolygonSet.from_rects(rects)
    geo = pages_to_geo(read_pages(path, extract=True))
    a = broadcast_pip_join(geo, polys, id_out="rect_id").to_pandas()
    b = partitioned_pip_join(geo, polys, id_out="rect_id").to_pandas()
    assert len(a) > 0 and a["rect_id"].nunique() == 4
    assert set(b.columns) == set(a.columns)
    key = ["url", "rect_id"]
    pd.testing.assert_frame_equal(
        a[key].sort_values(key).reset_index(drop=True), b[key].sort_values(key).reset_index(drop=True)
    )


def _salt_case_points(seed: int, n: int):
    """n points in a ~0.3° square (several coarse cells) with an int32
    column holding nulls and a string column — named like columns the
    partitioned join adds internally — plus four rects, the first covering
    every point."""
    import pyarrow as pa

    from osm_search_ray.stages.spatial_join import PolygonSet

    rng = np.random.default_rng(seed)
    pts = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "lat": pa.array(-6.3 + rng.uniform(0, 0.3, n)),
            "lon": pa.array(106.7 + rng.uniform(0, 0.3, n)),
            "salt": pa.array(rng.integers(-9, 9, n).astype(np.int32), mask=rng.uniform(0, 1, n) < 0.2),
            "ring": pa.array([f"p{int(v)}" * int(v % 3) for v in rng.integers(0, 99, n)]),
        }
    )
    rects = pa.table(
        {
            "rect_id": pa.array(np.arange(4, dtype=np.int64)),
            "lat0": pa.array([-6.35, -6.25, -6.2, -6.1]),
            "lon0": pa.array([106.65, 106.7, 106.8, 106.75]),
            "lat1": pa.array([-5.95, -6.1, -6.0, -6.05]),
            "lon1": pa.array([107.05, 106.9, 107.0, 106.95]),
        }
    )
    return pts, PolygonSet.from_rects(rects)


def _blocks(t, k: int) -> "ray.data.Dataset":
    cuts = np.linspace(0, len(t), k + 1).astype(int)
    return ray.data.from_arrow([t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])


def _sorted_table(ds):
    import pyarrow as pa

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([("doc_id", "ascending"), ("rect_id", "ascending")])


@pytest.mark.parametrize("n_blocks,hot_threshold", [(1, 200_000), (4, 50)])
def test_partitioned_join_runs_its_upstream_once(tmp_path, n_blocks, hot_threshold):
    """The partitioned join materializes its point side first, so the salt
    pre-pass, the schema read and the join read stored blocks: an upstream
    stage processes each input row exactly once, salted or not."""
    from osm_search_ray.functions.cells import RES_COARSE
    from osm_search_ray.stages.spatial_join import compute_salts, partitioned_pip_join

    pts, polys = _salt_case_points(7, 2000)
    assert bool(compute_salts(_blocks(pts, n_blocks), "lat", "lon", RES_COARSE, hot_threshold)) == (hot_threshold == 50)
    log = tmp_path / "batch_rows.txt"

    def counting(t):
        with open(log, "a") as f:
            f.write(f"{len(t)}\n")
        return t

    upstream = _blocks(pts, n_blocks).map_batches(counting, batch_format="pyarrow")
    out = partitioned_pip_join(upstream, polys, id_out="rect_id", hot_threshold=hot_threshold)
    assert out.count() >= len(pts)  # the first rect covers every point
    assert sum(int(x) for x in log.read_text().split()) == len(pts)


@st.composite
def _salt_maps(draw):
    from osm_search_ray.functions.cells import RES_COARSE, cell_of

    seed, n = draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 200))
    pts, polys = _salt_case_points(seed, n)
    present = np.unique(cell_of(pts.column("lat").to_numpy(), pts.column("lon").to_numpy(), RES_COARSE)).tolist()
    absent = [0, 12345, 2**24 - 1]  # cells with no point and no polygon
    cells = draw(st.lists(st.sampled_from(present + absent), unique=True, max_size=len(present) + 3))
    salts = {c: draw(st.integers(1, 8)) for c in cells}
    return pts, polys, salts, draw(st.integers(1, 3))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_salt_maps())
def test_partitioned_join_any_salt_map_equals_broadcast(case):
    """Salting moves rows between partitions, never changes the result: any
    salt map (absent cells, 1..8 salts) gives broadcast_pip_join's rows, with
    the point columns' Arrow types (int32 with nulls, string) kept."""
    from osm_search_ray.stages.spatial_join import broadcast_pip_join, partitioned_pip_join

    pts, polys, salts, n_blocks = case
    want = _sorted_table(broadcast_pip_join(_blocks(pts, n_blocks), polys, id_out="rect_id"))
    got = _sorted_table(partitioned_pip_join(_blocks(pts, n_blocks), polys, id_out="rect_id", salts=salts))
    assert got.schema == want.schema and got.schema.field("salt").type == "int32"
    assert got.equals(want)


def test_street_grid_equals_bruteforce():
    """StreetGrid 1-NN == full (points × streets) argmin under the equirect
    ranking metric — including tie resolution (lowest street index), points
    outside the street bbox, and a degenerate all-colocated street set."""
    from osm_search_ray.functions.geometry import equirect_approx
    from osm_search_ray.pipelines.ingest import StreetGrid

    rng = np.random.default_rng(11)
    s_lat = -6.25 + rng.uniform(-0.3, 0.3, 800)
    s_lon = 106.8 + rng.uniform(-0.3, 0.3, 800)
    # exact-duplicate street centroids → metric ties; argmin must pick the
    # lowest index on both paths
    s_lat[100:110] = s_lat[0]
    s_lon[100:110] = s_lon[0]
    p_lat = -6.25 + rng.uniform(-0.5, 0.5, 500)  # beyond the street bbox too
    p_lon = 106.8 + rng.uniform(-0.5, 0.5, 500)
    p_lat[0], p_lon[0] = s_lat[0], s_lon[0]  # a point exactly ON the tie group
    d = equirect_approx(p_lat[:, None], p_lon[:, None], s_lat[None, :], s_lon[None, :])
    expect = np.argmin(d, axis=1)
    got = StreetGrid(s_lat, s_lon).nearest(p_lat, p_lon)
    np.testing.assert_array_equal(got, expect)

    # one street total (1x1 grid), points far away
    g1 = StreetGrid(s_lat[:1], s_lon[:1])
    np.testing.assert_array_equal(g1.nearest(p_lat, p_lon), np.zeros(len(p_lat), np.int64))


def test_street_grid_degree_quirk_latitudes():
    """Regression: the equirect metric feeds DEGREES into cos, so its lon
    factor cos(0.5(lat1+lat2)) vanishes near lat ≈ ±1.5708° (π/2 in degree
    units — Singapore/Sumatra band). The ring-pruning bound must not assume
    cos(radians(lat)) ≈ 1 there, or the walk stops early and returns a
    non-nearest street (r3 code-review finding, 50/300 wrong at lat 1.5708)."""
    from osm_search_ray.functions.geometry import equirect_approx
    from osm_search_ray.pipelines.ingest import StreetGrid

    rng = np.random.default_rng(7)
    for center in (1.5708, 4.7124, -1.5708, 0.0):  # cos zeros in deg units + equator
        s_lat = center + rng.uniform(-0.05, 0.05, 2000)
        s_lon = 103.8 + rng.uniform(-0.5, 0.5, 2000)
        p_lat = center + rng.uniform(-0.02, 0.02, 300)
        p_lon = 103.8 + rng.uniform(-0.5, 0.5, 300)
        d = equirect_approx(p_lat[:, None], p_lon[:, None], s_lat[None, :], s_lon[None, :])
        expect = np.argmin(d, axis=1)
        got = StreetGrid(s_lat, s_lon).nearest(p_lat, p_lon)
        np.testing.assert_array_equal(got, expect, err_msg=f"center lat {center}")


def test_interval_abs_cos_min():
    import math

    from osm_search_ray.pipelines.ingest import StreetGrid

    f = StreetGrid._interval_abs_cos_min
    assert f(0.0, 0.0) == 1.0
    assert f(1.0, 2.0) == 0.0  # contains pi/2
    assert f(4.0, 5.0) == 0.0  # contains 3pi/2
    assert f(-2.0, -1.0) == 0.0  # contains -pi/2
    assert f(0.0, 4.0) == 0.0  # wider than pi
    assert math.isclose(f(0.2, 0.9), min(abs(math.cos(0.2)), abs(math.cos(0.9))))
    assert math.isclose(f(2.0, 4.0), min(abs(math.cos(2.0)), abs(math.cos(4.0))))  # straddles pi (no zero)
    # brute-force cross-check on random zero-free and zero-containing intervals
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo = float(rng.uniform(-10, 10))
        hi = lo + float(rng.uniform(0, 5))
        grid = np.linspace(lo, hi, 2001)
        brute = float(np.abs(np.cos(grid)).min())
        assert f(lo, hi) <= brute + 1e-9
