"""PageRank over the derived link graph: edge-derivation parity with SQL,
distributed power iteration == pure-numpy reference, and mass/teleport
invariants — all at sf0.001."""

import duckdb
import numpy as np
import pandas as pd

from osm_search_ray.sources.readers import read_pq

SF = "/root/testdata/sf0.001"


def _edges_numpy(n):
    from osm_search_ray.sources.derived import link_targets

    src = np.arange(n, dtype=np.int64)
    dsts = link_targets(src, n)
    return np.tile(src, len(dsts)), np.concatenate(dsts)


def test_link_edges_match_sql():
    from osm_search_ray.sources import derived as dv

    got = (
        dv.link_edges(SF)
        .to_pandas()
        .sort_values(["src", "dst"], kind="mergesort")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    want = (
        con.execute(f"WITH {dv.SQL_LINK_EDGES.strip()} SELECT * FROM link_edges")
        .df()
        .sort_values(["src", "dst"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want.astype({"src": np.int64, "dst": np.int64}))
    assert len(got) == 3 * 500  # 3 out-edges per doc, multi-edges kept


def _pagerank_numpy(n, iters):
    from osm_search_ray.pipelines.graph import SCALE, DAMP_NUM, DAMP_DEN

    src, dst = _edges_numpy(n)
    deg = np.bincount(src, minlength=n).astype(np.int64)
    r = np.full(n, SCALE // n, np.int64)
    base = (15 * SCALE) // (100 * n)
    for _ in range(iters):
        contrib = (r[src] * DAMP_NUM) // (DAMP_DEN * deg[src])
        nxt = np.full(n, base, np.int64)
        np.add.at(nxt, dst, contrib)
        r = nxt
    return r


def test_pagerank_matches_numpy_reference():
    from osm_search_ray.pipelines.graph import pagerank_links, PAGERANK_ITERS

    got = pagerank_links(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = _pagerank_numpy(500, PAGERANK_ITERS)
    assert len(got) == 500
    assert (got["pr_x1e12"].to_numpy() == want).all()


def test_pagerank_distributed_path_equals_small_regime():
    """Force the two-exchange-per-iteration distributed path (small_edges=0)
    and require bit-identical ranks to the driver-numpy regime."""
    import ray.data
    from osm_search_ray.pipelines.graph import pagerank
    from osm_search_ray.sources import derived as dv

    nodes = read_pq(f"{SF}/documents.parquet", columns=["doc_id"]).map_batches(
        lambda b: b.rename_columns(["id"]), batch_format="pyarrow"
    )
    dist = (
        pagerank(nodes, dv.link_edges(SF), small_edges=0)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert (dist["r"].to_numpy() == _pagerank_numpy(500, 3)).all()


def test_pagerank_mass_and_floor_invariants():
    """Total mass stays ~SCALE (floor-division leakage only, bounded by
    #edges + N), and every rank >= the teleport base."""
    from osm_search_ray.pipelines.graph import SCALE, PAGERANK_ITERS

    r = _pagerank_numpy(500, PAGERANK_ITERS)
    base = (15 * SCALE) // (100 * 500)
    assert (r >= base).all()
    assert 0 < SCALE - r.sum() < (3 * 500 + 500) * PAGERANK_ITERS * 2
    assert r.max() > r.min()  # the graph actually differentiates pages


# ------------------------------------------------------------------ k-core


def _kcore_numpy(a, b, k, max_peels=16):
    ids = np.unique(np.concatenate([a, b]))
    ai, bi = np.searchsorted(ids, a), np.searchsorted(ids, b)
    alive = np.ones(len(ids), bool)
    for _ in range(max_peels):
        m = alive[ai] & alive[bi]
        deg = np.bincount(ai[m], minlength=len(ids)) + np.bincount(bi[m], minlength=len(ids))
        drop = alive & (deg < k)
        if not drop.any():
            break
        alive &= ~drop
    m = alive[ai] & alive[bi]
    deg = np.bincount(ai[m], minlength=len(ids)) + np.bincount(bi[m], minlength=len(ids))
    return ids[alive], deg[alive]


def _planted_kcore_edges():
    """K5 clique (nodes 0-4, the 4-core) + a pendant chain 4-10-11-12 that
    must peel away, with duplicate and reversed edges thrown in."""
    import pyarrow as pa
    import ray.data

    e = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    e += [(4, 10), (10, 11), (11, 12), (12, 11), (10, 4), (3, 3)]
    src = np.array([x for x, _ in e], np.int64)
    dst = np.array([y for _, y in e], np.int64)
    return ray.data.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))


def test_kcore_planted_clique():
    from osm_search_ray.pipelines.graph import kcore

    got = kcore(_planted_kcore_edges(), k=4).to_pandas().sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == [0, 1, 2, 3, 4]
    assert (got["core_deg"].to_numpy() == 4).all()


def test_kcore_regimes_agree():
    """Distributed path (small_edges=0), both the broadcast-drop and the
    anti-join-drop variants, == the driver-numpy regime on the link graph."""
    from osm_search_ray.pipelines.graph import kcore
    from osm_search_ray.sources import derived as dv

    small = (
        kcore(dv.link_edges(SF), k=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    s, d = _edges_numpy(500)
    keep = s != d
    pair = np.unique(np.stack([np.minimum(s[keep], d[keep]), np.maximum(s[keep], d[keep])], 1), axis=0)
    ids, deg = _kcore_numpy(pair[:, 0], pair[:, 1], 4)
    assert small["id"].tolist() == ids.tolist()
    assert small["core_deg"].tolist() == deg.tolist()
    for bl in (2_000_000, 0):  # broadcast-drop, then forced anti-join-drop
        dist = (
            kcore(dv.link_edges(SF), k=4, small_edges=0, broadcast_limit=bl, num_parts=4)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        assert dist["id"].tolist() == small["id"].tolist()
        assert dist["core_deg"].tolist() == small["core_deg"].tolist()


def test_kcore_loud_convergence_bound():
    """A 12-node path graph under k=2 peels from both ends (~5 rounds);
    max_peels=2 must raise rather than return a non-fixed-point."""
    import pyarrow as pa
    import pytest
    import ray.data
    from osm_search_ray.pipelines.graph import kcore

    src = np.arange(11, dtype=np.int64)
    dst = src + 1
    edges = ray.data.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    with pytest.raises(RuntimeError, match="KCORE_MAX_PEELS"):
        kcore(edges, k=2, max_peels=2)
    # and the full bound converges to the empty 2-core (a path has none)
    assert kcore(edges, k=2).count() == 0


# ------------------------------------------------------- link prediction


def test_link_prediction_planted_square():
    """Square a-b-c-d-a: diagonals (a,c) and (b,d) are the only non-adjacent
    common-neighbor pairs; common=2, jaccard = 2*1e6 // (2+2-2) = 1e6."""
    import pyarrow as pa
    import ray.data
    from osm_search_ray.pipelines import graph as gr

    ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([0, 1, 2, 3], type=pa.int64()),
                "dst": pa.array([1, 2, 3, 0], type=pa.int64()),
            }
        )
    )
    import osm_search_ray.sources.derived as dv

    orig = dv.link_edges
    dv.link_edges = lambda sf: ds
    try:
        got = (
            gr.link_prediction("ignored")
            .to_pandas()
            .sort_values(["node_a", "node_b"])
            .reset_index(drop=True)
        )
    finally:
        dv.link_edges = orig
    assert got["node_a"].tolist() == [0, 1]
    assert got["node_b"].tolist() == [2, 3]
    assert (got["common"] == 2).all()
    assert (got["jaccard_micro"] == gr.LP_SCALE).all()


def test_link_prediction_regimes_agree():
    from osm_search_ray.pipelines import graph as gr

    cols = ["node_a", "node_b", "common", "jaccard_micro"]
    bc = (
        gr.link_prediction(SF)
        .to_pandas()
        .sort_values(cols)
        .reset_index(drop=True)
    )
    dist = (
        gr.link_prediction(SF, broadcast_nodes=0)
        .to_pandas()
        .sort_values(cols)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc[cols], dist[cols])
    assert len(bc) > 0 and (bc["node_a"] < bc["node_b"]).all()


def test_label_prop_regimes_agree():
    """The driver pandas loop and the distributed two-exchange-per-round
    path must produce identical (doc_id, community) labels."""
    from osm_search_ray.pipelines.graph import label_prop

    small = label_prop(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    dist = (
        label_prop(SF, small_edges=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(small, dist)
    # labels are real communities: at least one multi-node community exists
    assert (small.groupby("community").size() > 1).any()


def test_bfs_levels_regimes_agree():
    """Driver numpy BFS and the distributed frontier-exchange path must
    produce identical (doc_id, level) tables, and levels must be valid hop
    distances (seeds at 0, each level nonempty up to the max reached)."""
    from osm_search_ray.pipelines.graph import BFS_SEED_MOD, bfs_levels

    small = bfs_levels(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    dist = (
        bfs_levels(SF, small_edges=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(small, dist)
    seeds = small[small["doc_id"] % BFS_SEED_MOD == 0]
    assert (seeds["level"] == 0).all()
    assert set(small["level"]) == set(range(int(small["level"].max()) + 1))


def test_ppr_regimes_agree_and_mass_concentrates_on_seeds():
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from osm_search_ray.pipelines.graph import PPR_SEED_MOD, PAGERANK_ITERS, pagerank
    from osm_search_ray.sources import derived as dv

    n = pq.ParquetFile(f"{SF}/documents.parquet").metadata.num_rows
    nodes = read_pq(f"{SF}/documents.parquet", columns=["doc_id"]).map_batches(
        lambda b: b.rename_columns(["id"]), batch_format="pyarrow"
    )
    n_seeds = (n + PPR_SEED_MOD - 1) // PPR_SEED_MOD
    kw = dict(iters=PAGERANK_ITERS, n_nodes=n, seed_mod=PPR_SEED_MOD, n_seeds=n_seeds)
    small = pagerank(nodes, dv.link_edges(SF), **kw).to_pandas().sort_values("id").reset_index(drop=True)
    dist = (
        pagerank(nodes, dv.link_edges(SF), small_edges=0, **kw)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(small, dist)
    seeds = small["id"] % PPR_SEED_MOD == 0
    assert small.loc[seeds, "r"].mean() > 5 * small.loc[~seeds, "r"].mean(), (
        "teleport-to-seeds must concentrate rank mass on the seed set"
    )


def test_scc_numpy_known_structure():
    """Hand-checkable digraph: a 3-cycle, a 2-cycle reached from it, a chain
    tail, and an isolated self-referential pair."""
    import numpy as np

    from osm_search_ray.pipelines.graph import _scc_numpy

    #  0->1->2->0 (SCC {0,1,2});  2->3, 3->4, 4->3 (SCC {3,4});  4->5 (singleton)
    #  10<->11 (SCC {10,11})
    src = np.array([0, 1, 2, 2, 3, 4, 4, 10, 11], np.int64)
    dst = np.array([1, 2, 0, 3, 4, 3, 5, 11, 10], np.int64)
    nodes, sid = _scc_numpy(src, dst)
    got = dict(zip(nodes.tolist(), sid.tolist()))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 5, 10: 10, 11: 10}


def test_scc_distributed_equals_numpy_regime():
    """Force the distributed FW-BW-coloring path (small_edges=0) on a graph
    with multiple peel rounds and nested cycles; must equal _scc_numpy."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from osm_search_ray.pipelines.graph import _scc_numpy, scc

    rng = np.arange(12, dtype=np.int64)
    # chord-shortened 12-ring (one big SCC, small diameter) + a detached
    # DAG + two 2-cycles (second peel round)
    src = np.concatenate([rng, rng[::2], np.array([100, 101, 102, 103, 104, 105, 105])])
    dst = np.concatenate(
        [(rng + 1) % 12, (rng[::2] + 5) % 12, np.array([101, 100, 103, 102, 105, 104, 106])]
    )
    ds = ray.data.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    got = scc(ds, small_edges=0).to_pandas().sort_values("doc_id").reset_index(drop=True)
    nodes, sid = _scc_numpy(src, dst)
    assert got["doc_id"].tolist() == nodes.tolist()
    assert got["scc_id"].tolist() == sid.tolist()


def test_degree_assortativity_matches_numpy():
    """Engine one-row result == a dense numpy replay (degrees via bincount,
    Pearson via np.corrcoef over the 2m ordered endpoint views)."""
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines import graph as gr

    n = pq.ParquetFile(f"{SF}/documents.parquet").metadata.num_rows
    s, d = _edges_numpy(n)
    keep = s != d
    a = np.minimum(s[keep], d[keep])
    b = np.maximum(s[keep], d[keep])
    und = np.unique(np.stack([a, b], axis=1), axis=0)
    a, b = und[:, 0], und[:, 1]
    deg = np.bincount(np.concatenate([a, b]), minlength=n)
    x = np.concatenate([deg[a], deg[b]]).astype(np.float64)
    y = np.concatenate([deg[b], deg[a]]).astype(np.float64)
    r = np.corrcoef(x, y)[0, 1]
    assert np.std(x) > 0, "fixture degenerate: regular graph"
    got = gr.degree_assortativity(SF).to_pandas()
    assert int(got["n_samples"].iloc[0]) == 2 * len(a)
    assert abs(int(got["assort_x1e9"].iloc[0]) / 1e9 - r) < 1e-6
