"""k-NN graph: brute-force SQL parity in the exact regime, probe
containment + recall in the approximate regime, and shape invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from osm_search_ray.pipelines import simsearch as ss
from osm_search_ray.sources.readers import read_pq

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def exact():
    return ss.knn_graph(SF).to_pandas().sort_values(["src_id", "rank"]).reset_index(drop=True)


class TestKnnGraph:
    def test_matches_sql_exact_regime(self, exact):
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
        )
        want = (
            con.execute(ss.SQL_KNN_GRAPH)
            .df()
            .sort_values(["src_id", "rank"])
            .reset_index(drop=True)
            .astype({c: exact[c].dtype for c in exact.columns})[exact.columns]
        )
        pd.testing.assert_frame_equal(exact, want)

    def test_shape_invariants(self, exact):
        # every vector gets exactly k neighbors, none of them itself
        per_src = exact.groupby("src_id").size()
        assert (per_src == ss.KNN_GRAPH_K).all()
        assert (exact["src_id"] != exact["neighbor_id"]).all()
        # no duplicate neighbor within a source
        assert not exact.duplicated(["src_id", "neighbor_id"]).any()

    def test_approximate_regime(self, exact):
        """nprobe < nlist: (a) probe CONTAINMENT — every returned neighbor's
        member list is one of the source's probed lists (the IVF pruning
        contract); (b) rank-1 recall is monotone in nprobe (the fixture's
        embeddings are near-random, so absolute recall at tiny nprobe is
        low by nature — the contract is the trend, not a magic number)."""
        import pyarrow.parquet as pq
        import ray.data

        from osm_search_ray.functions.arrowutil import vec_matrix
        from osm_search_ray.stages.annindex import sq_dists, train_centroids

        emb = read_pq(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        cent = train_centroids(emb, "embedding", ss.KNN_GRAPH_NLIST)
        t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        ids = t.column("vec_id").to_numpy().astype(np.int64)
        d = sq_dists(vec_matrix(t.column("embedding")), cent)
        member = dict(zip(ids.tolist(), np.argmin(d, axis=1).tolist()))
        order = np.argsort(d, kind="stable", axis=1)

        recalls = {}
        e1 = exact[exact["rank"] == 1].set_index("src_id")["neighbor_id"]
        for nprobe in (2, 4):
            approx = ss.knn_graph(SF, nprobe=nprobe).to_pandas()
            assert (approx.groupby("src_id").size() <= ss.KNN_GRAPH_K).all()
            probe_sets = {int(v): set(order[i, :nprobe].tolist()) for i, v in enumerate(ids)}
            ok = [
                member[int(r["neighbor_id"])] in probe_sets[int(r["src_id"])]
                for _, r in approx.iterrows()
            ]
            assert all(ok)  # probe containment
            a1 = approx[approx["rank"] == 1].set_index("src_id")["neighbor_id"]
            common = e1.index.intersection(a1.index)
            recalls[nprobe] = float((e1.loc[common] == a1.loc[common]).mean())
        assert recalls[4] >= recalls[2] > 0.2


def test_mutual_knn_pairs_are_exactly_the_reciprocal_edges():
    from osm_search_ray.pipelines import simsearch as ss

    g = ss.knn_graph("/root/testdata/sf0.001").to_pandas()
    directed = set(zip(g["src_id"].astype(int), g["neighbor_id"].astype(int)))
    exp = sorted(
        (a, b) for (a, b) in directed if a < b and (b, a) in directed
    )
    got = (
        ss.mutual_knn_pairs("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values(["a_id", "b_id"])
    )
    assert 0 < len(got) < len(directed), "mutual filter must actually filter"
    assert list(map(tuple, got.to_numpy())) == exp
