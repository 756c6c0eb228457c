"""IVF ANN recall, varint codec round-trip, postings pushdown, validation,
and determinism."""

import numpy as np
import pandas as pd
import pytest
import ray.data


def _emb(n=400, dim=16, seed=2):
    rng = np.random.default_rng(seed)
    # clustered data so IVF lists are meaningful
    centers = rng.normal(size=(8, dim)) * 3
    assign = rng.integers(0, 8, n)
    mat = centers[assign] + rng.normal(size=(n, dim)) * 0.5
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": mat.tolist()})


class TestIVF:
    def test_nprobe_all_equals_bruteforce(self):
        from osm_search_ray.stages.annindex import ivf_cosine_topk

        df = _emb()
        mat = np.asarray(df["embedding"].tolist())
        qids = np.array([0, 50, 100], dtype=np.int64)
        queries = {"vec_id": qids, "mat": mat[qids]}
        got = ivf_cosine_topk(ray.data.from_pandas(df), queries, k=5, nlist=8, nprobe=8)
        # brute force oracle
        mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        for qi, qid in enumerate(qids):
            sims = mn[qid] @ mn.T
            sims[qid] = -np.inf
            order = np.lexsort((np.arange(len(sims)), -sims))[:5]
            g = got[got["query_id"] == qid].sort_values("rank")["vec_id"].tolist()
            assert g == order.tolist(), qid

    def test_store_pruned_read(self, tmp_path):
        """The on-disk IVF store: probed reads open a STRICT SUBSET of the
        list partition files, and with nprobe=nlist results match the
        streaming IVF exactly (VERDICT r01 item 8)."""
        import glob

        from osm_search_ray.stages.annindex import (
            build_ivf_store,
            ivf_cosine_topk,
            ivf_store_topk,
            probed_list_files,
        )

        df = _emb()
        mat = np.asarray(df["embedding"].tolist())
        qids = np.array([0, 50, 100], dtype=np.int64)
        queries = {"vec_id": qids, "mat": mat[qids]}
        store = str(tmp_path / "ivf")
        # float32 store round-trip: feed float32 vectors so blob == input
        df32 = df.assign(embedding=[np.asarray(v, np.float32).tolist() for v in df["embedding"]])
        build_ivf_store(ray.data.from_pandas(df32), store, nlist=8)

        all_files = set(glob.glob(f"{store}/lists/part=*/data.parquet"))
        assert len(all_files) == 8
        # nprobe=2 → pruned file set is a strict subset
        centroids = np.load(f"{store}/centroids.npy")
        qd = ((queries["mat"][:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        probes = np.argsort(qd, axis=1)[:, :2]
        pruned = set(probed_list_files(store, np.unique(probes)))
        assert pruned and pruned < all_files

        # nprobe=nlist → exact: equals the streaming IVF result
        want = ivf_cosine_topk(ray.data.from_pandas(df32), queries, k=5, nlist=8, nprobe=8)
        got = ivf_store_topk(store, queries, k=5, nprobe=8)
        key = ["query_id", "rank"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True), want.sort_values(key).reset_index(drop=True)
        )

    def test_partial_probe_recall(self):
        from osm_search_ray.stages.annindex import ivf_cosine_topk

        df = _emb()
        mat = np.asarray(df["embedding"].tolist())
        qids = np.arange(0, 400, 40, dtype=np.int64)
        queries = {"vec_id": qids, "mat": mat[qids]}
        got = ivf_cosine_topk(ray.data.from_pandas(df), queries, k=5, nlist=8, nprobe=3)
        mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        hits = total = 0
        for qid in qids:
            sims = mn[qid] @ mn.T
            sims[qid] = -np.inf
            truth = set(np.argsort(-sims)[:5].tolist())
            g = set(got[got["query_id"] == qid]["vec_id"].tolist())
            hits += len(truth & g)
            total += 5
        assert hits / total >= 0.8  # clustered data: 3/8 probes keep recall high


class TestVarint:
    def test_roundtrip(self):
        from osm_search_ray.functions.hashing import decode_uvarints, encode_uvarints

        vals = np.array([0, 1, 127, 128, 300, 2**20, 2**40, 2**63 - 1], dtype=np.uint64)
        assert (decode_uvarints(encode_uvarints(vals)) == vals).all()

    def test_posting_gap_encoding(self):
        from osm_search_ray.functions.hashing import delta_decode_postings, delta_encode_postings

        ids = np.array([3, 7, 8, 100, 10_000, 10_001], dtype=np.int64)
        enc = delta_encode_postings(ids)
        assert (delta_decode_postings(enc) == ids).all()
        # gaps compress: sorted dense ids use ~1 byte each
        dense = np.arange(1000, dtype=np.int64)
        assert len(delta_encode_postings(dense)) < 1010


class TestPushdownAndValidation:
    def test_read_postings_for_terms(self, tmp_path):
        from osm_search_ray.pipelines import text_index as ti

        docs = pd.DataFrame(
            {"doc_id": [0, 1], "name": ["apel malang", "jeruk"], "address": ["jalan apel", "jalan jeruk"]}
        )
        index = ti.build_text_index(ray.data.from_pandas(docs))
        ti.save_text_index(index, str(tmp_path / "idx"))
        vocab = index.vocab()
        got = ti.read_postings_for_terms(str(tmp_path / "idx"), [vocab["apel"]])
        assert set(got["term_id"]) == {vocab["apel"]}
        assert len(got) == 2  # name field doc 0, address field doc 0

    def test_postings_bucket_pruned_read(self, tmp_path):
        """The query-time read must touch ONLY the term_id-range buckets
        containing requested terms (a strict subset of all bucket files),
        and return the same rows as the in-RAM postings restriction."""
        import glob

        from osm_search_ray.pipelines import text_index as ti

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(8),
                "name": [f"kata{i} umum kata{i+10}" for i in range(8)],
                "address": [f"jalan nomor{i}" for i in range(8)],
            }
        )
        index = ti.build_text_index(ray.data.from_pandas(docs))
        ti.save_text_index(index, str(tmp_path / "idx"), num_buckets=4)
        vocab = index.vocab()
        all_files = set(glob.glob(str(tmp_path / "idx" / "postings" / "part=*" / "*.parquet")))
        assert len({f.split("part=")[1].split("/")[0] for f in all_files}) == 4
        want = [vocab["jalan"]]
        pruned = set(ti.postings_files_for_terms(str(tmp_path / "idx"), want))
        assert pruned < all_files  # strict subset — whole buckets skipped
        got = ti.read_postings_for_terms(str(tmp_path / "idx"), want)
        exp = index.postings[index.postings["term_id"].isin(want)]
        assert len(got) == len(exp) and set(got["doc_id"]) == set(exp["doc_id"])

    def test_validate_queries(self):
        from osm_search_ray.pipelines.search import validate_queries

        q = pd.DataFrame(
            {
                "query_id": [0, 1, 2, 3],
                "text": ["ok", "", "also ok", "neg"],
                "top_k": [10, 10, 0, 5],
                "offset": [0, 0, 0, -1],
            }
        )
        out = validate_queries(ray.data.from_pandas(q)).to_pandas()
        assert out["query_id"].tolist() == [0]


def test_text_index_build_deterministic():
    """Two builds over shuffled input rows produce identical artifacts
    (the determinism the reference lacks — SURVEY.md §7.4)."""
    from osm_search_ray.pipelines import text_index as ti

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(50, dtype=np.int64),
            "name": [f"jalan nomor {i % 7} blok {i % 3}" for i in range(50)],
            "address": [f"kota {i % 5}" for i in range(50)],
        }
    )
    a = ti.build_text_index(ray.data.from_pandas(docs))
    b = ti.build_text_index(ray.data.from_pandas(docs.sample(frac=1, random_state=9)))
    pd.testing.assert_frame_equal(a.terms, b.terms)
    pd.testing.assert_frame_equal(
        a.postings.reset_index(drop=True), b.postings.sort_values(["field", "term_id", "doc_id"]).reset_index(drop=True)
    )
    assert a.globals == b.globals


class TestHLL:
    def test_estimate_within_error(self):
        from osm_search_ray.stages.sketches import approx_distinct

        n = 20_000
        df = pd.DataFrame({"v": (np.arange(n * 3, dtype=np.int64) % n)})  # n distinct, 3x dup
        est = approx_distinct(ray.data.from_pandas(df), "v", p=12)
        assert abs(est - n) / n < 0.05  # HLL p=12 → ~1.6% typical error

    def test_merge_equals_single(self):
        from osm_search_ray.stages.sketches import hll_add_hashes, hll_create, hll_estimate, hll_merge
        from osm_search_ray.functions.hashing import splitmix64

        h = splitmix64(np.arange(10_000, dtype=np.uint64))
        full = hll_create(10)
        hll_add_hashes(full, h)
        a, b = hll_create(10), hll_create(10)
        hll_add_hashes(a, h[:6000])
        hll_add_hashes(b, h[4000:])  # overlapping halves
        merged = hll_merge(a, b)
        assert (merged == full).all()  # mergeability is exact
        assert abs(hll_estimate(full) - 10_000) / 10_000 < 0.1

    def test_string_column(self):
        from osm_search_ray.stages.sketches import approx_distinct

        df = pd.DataFrame({"s": [f"user-{i % 500}" for i in range(5000)]})
        est = approx_distinct(ray.data.from_pandas(df), "s", p=12)
        assert abs(est - 500) / 500 < 0.1

    def test_exact_int_estimate_matches_float_form(self):
        """hll_estimate_int (the SQL-twin evaluation: integer Σ2^(53-reg),
        shared float constants, floor(x+0.5)) must stay within one count of
        rounding the float-form estimate, across both the linear-counting
        and raw-HLL branches — and keep the accuracy bound."""
        from osm_search_ray.functions.hashing import splitmix64
        from osm_search_ray.stages.sketches import hll_add_hashes, hll_create, hll_estimate, hll_estimate_int

        for n in (50, 500, 5_000, 200_000):  # spans both branches at p=12
            reg = hll_create(12)
            hll_add_hashes(reg, splitmix64(np.arange(n, dtype=np.uint64)))
            vi = hll_estimate_int(reg)
            vf = hll_estimate(reg)
            assert abs(vi - vf) <= 1.0, (n, vi, vf)
            assert abs(vi - n) / n < 0.05, (n, vi)


class TestPointQueryStore:
    def test_point_query_store_equals_in_ram_restriction(self, tmp_path):
        """The two-pruned-read point query (dictionary buckets via footer
        stats, then postings buckets/row-groups) must return exactly the
        in-RAM index's restriction to the queried tokens — including
        unknown-token handling."""
        from osm_search_ray.pipelines import text_index as ti

        docs = pd.DataFrame(
            {
                "doc_id": np.arange(8),
                "name": [f"kata{i} umum kata{i+10}" for i in range(8)],
                "address": [f"jalan nomor{i}" for i in range(8)],
            }
        )
        index = ti.build_text_index(ray.data.from_pandas(docs))
        ti.save_text_index(index, str(tmp_path / "idx"), num_buckets=4)
        vocab = index.vocab()
        ids, posts = ti.point_query_store(str(tmp_path / "idx"), ["jalan", "kata3", "zzz-missing"])
        assert ids == {"jalan": vocab["jalan"], "kata3": vocab["kata3"]}
        exp = index.postings[index.postings["term_id"].isin(list(ids.values()))]
        key = ["field", "term_id", "doc_id"]
        got = posts.sort_values(key).reset_index(drop=True)[list(exp.columns)]
        pd.testing.assert_frame_equal(got.astype(np.int64), exp.sort_values(key).reset_index(drop=True).astype(np.int64))
        # all-unknown query -> typed empty
        ids2, posts2 = ti.point_query_store(str(tmp_path / "idx"), ["zzz"])
        assert ids2 == {} and len(posts2) == 0 and list(posts2.columns) == list(exp.columns)


class TestDistributedKMeans:
    def _sep_data(self, n_per=40, dim=8):
        rng = np.random.default_rng(11)
        centers = np.array([[10.0] * dim, [-10.0] * dim, [10.0] * 4 + [-10.0] * 4])
        vecs = np.vstack([c + rng.standard_normal((n_per, dim)) for c in centers])
        return pd.DataFrame({"vec_id": np.arange(3 * n_per, dtype=np.int64), "embedding": list(vecs)})

    def test_recovers_planted_clusters(self):
        from osm_search_ray.stages.annindex import cluster_assign

        df = self._sep_data()
        out = cluster_assign(ray.data.from_pandas(df), k=3).to_pandas()
        out = out.sort_values("vec_id").reset_index(drop=True)
        labels = out["cluster"].to_numpy()
        # each planted block maps to ONE cluster, and blocks to distinct ones
        blocks = [set(labels[i * 40 : (i + 1) * 40]) for i in range(3)]
        assert all(len(b) == 1 for b in blocks), blocks
        assert len(set().union(*blocks)) == 3

    def test_block_order_independent(self):
        """Partials are reduced in content-keyed order, so different Ray
        batching must give identical centroids/assignments."""
        from osm_search_ray.stages.annindex import kmeans_fit

        df = self._sep_data()
        a = kmeans_fit(ray.data.from_pandas(df), k=3)
        ds_small = ray.data.from_pandas(df).map_batches(lambda t: t, batch_format="pyarrow", batch_size=7)
        b = kmeans_fit(ds_small, k=3)
        np.testing.assert_array_equal(a, b)

    def test_smallest_k_vecs_block_order_independent(self):
        """The Forgy-init gather (kmeans_clusters' SQL-oracle contract) is a
        per-batch combiner: it must return the k globally-smallest ids in id
        order under ANY batching, including ids arriving out of order."""
        from osm_search_ray.stages.annindex import smallest_k_vecs

        rng = np.random.default_rng(11)
        ids = rng.permutation(100).astype(np.int64)  # shuffled ids
        mat = rng.standard_normal((100, 8))
        df = pd.DataFrame({"vec_id": ids, "embedding": list(mat)})
        want = mat[np.argsort(ids)[:5]]
        for bs in (7, 33, 100):
            ds = ray.data.from_pandas(df).map_batches(lambda t: t, batch_format="pyarrow", batch_size=bs)
            got = smallest_k_vecs(ds, 5)
            np.testing.assert_array_equal(got, want)


class TestAnnSession:
    def test_ann_session_equals_direct_store_query(self, tmp_path):
        """The long-lived ANN session (centroids warm in the actor) must
        return exactly ivf_store_topk's frame, including replace-on-name
        semantics shared with the other sessions."""
        from osm_search_ray.stages.annindex import build_ivf_store, ivf_store_topk
        from osm_search_ray.serving import start_ann_session

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {"vec_id": np.arange(200, dtype=np.int64), "embedding": list(rng.standard_normal((200, 16)))}
        )
        store = str(tmp_path / "ivf")
        build_ivf_store(ray.data.from_pandas(df), store, nlist=8)
        queries = {"vec_id": np.array([0, 50], dtype=np.int64), "mat": np.vstack([df["embedding"][0], df["embedding"][50]])}
        want = ivf_store_topk(store, queries, k=5, nprobe=3)
        sess = start_ann_session(store, name="ann-test")
        got = sess.topk(queries, k=5, nprobe=3)
        key = ["query_id", "rank"]
        pd.testing.assert_frame_equal(
            want.sort_values(key).reset_index(drop=True), got.sort_values(key).reset_index(drop=True)
        )
        sess2 = start_ann_session(store, name="ann-test")  # replace, no raise
        sess2.stop()


class TestQuantizedStore:
    def test_roundtrip_error_bound_and_recall(self, tmp_path):
        """INT8 quantization: elementwise |x − q·scale| ≤ scale/2 on the real
        fixture, and symmetric-quantized brute-force top-k keeps high
        recall vs the exact float query (accuracy bound; exactness vs the
        SQL twin is the driver oracle since r04)."""
        import pyarrow.parquet as pq

        from osm_search_ray.pipelines import simsearch as ss

        sf = "/root/testdata/sf0.001"
        out = str(tmp_path / "qstore")
        ss.build_quantized_store(sf, out)
        orig = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"]).to_pandas()
        q = pq.read_table(out).to_pandas().set_index("vec_id").loc[orig["vec_id"]]
        dim = int(q["dim"].iloc[0])
        q8 = np.frombuffer(b"".join(q["qvec"]), dtype=np.int8).reshape(-1, dim)
        deq = q8.astype(np.float64) * q["scale"].to_numpy()[:, None]
        x = np.asarray(list(orig["embedding"]), dtype=np.float64)
        assert (np.abs(x - deq) <= q["scale"].to_numpy()[:, None] / 2 + 1e-12).all()
        # storage: int8 payload is exactly 1/4 of the float32 vector bytes
        assert q8.nbytes * 4 == x.astype(np.float32).nbytes

        exact = ss.ann_cosine_topk(sf, k=5).to_pandas()
        quant = ss.ann_quantized_topk(sf, k=5).to_pandas()
        e = exact.groupby("query_id")["vec_id"].apply(set)
        g = quant.groupby("query_id")["vec_id"].apply(set)
        recall = np.mean([len(e[k] & g[k]) / len(e[k]) for k in e.index])
        assert recall >= 0.9, recall

    def test_scale_cancellation_and_zero_copy_codes(self, tmp_path):
        """The no-dequantize scorer relies on cos(s·v, q) = cos(v, q) for
        s > 0: cosine on raw int8 codes must match cosine on the
        dequantized float64 vectors to float32 precision. And the
        zero-copy buffer view over the binary codes column must equal the
        per-row bytes join it replaced."""
        import pyarrow as pa

        from osm_search_ray.pipelines.simsearch import _int8_codes

        rng = np.random.default_rng(7)
        x = rng.normal(size=(64, 16))
        scale = np.abs(x).max(axis=1) / 127.0
        v8 = np.rint(x / scale[:, None]).astype(np.int8)
        q = rng.normal(size=16)
        deq = v8.astype(np.float64) * scale[:, None]
        cos_deq = (deq @ q) / (np.linalg.norm(deq, axis=1) * np.linalg.norm(q))
        v32 = v8.astype(np.float32)
        cos_raw = (v32 / np.linalg.norm(v32, axis=1, keepdims=True)) @ (q / np.linalg.norm(q))
        np.testing.assert_allclose(cos_raw, cos_deq, atol=1e-6)

        col = pa.chunked_array([pa.array([r.tobytes() for r in v8[:40]], pa.binary()),
                                pa.array([r.tobytes() for r in v8[40:]], pa.binary())])
        np.testing.assert_array_equal(_int8_codes(col, 16), v8)
        # sliced array (non-zero offset) still decodes correctly
        np.testing.assert_array_equal(_int8_codes(col.combine_chunks().slice(3, 20), 16), v8[3:23])


class TestPQTopK:
    def _exact_topk(self, ids, mat, q, k=5):
        qv = mat[ids == q][0]
        d = ((mat - qv) ** 2).sum(1)
        d[ids == q] = np.inf
        order = np.lexsort((ids, d))
        return list(ids[order][:k])

    def test_pq_rerank_recall_floor(self):
        import pyarrow.parquet as pq

        from osm_search_ray.functions.arrowutil import vec_matrix
        from osm_search_ray.pipelines.simsearch import QUERY_STRIDE, ann_pq_topk

        sf = "/root/testdata/sf0.001"
        t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        ids, mat = t.column("vec_id").to_numpy(), vec_matrix(t.column("embedding"))
        got = ann_pq_topk(sf).to_pandas()
        qids = ids[ids % QUERY_STRIDE == 0]
        rec = [
            len(set(self._exact_topk(ids, mat, q)) & set(got[got.query_id == q].vec_id)) / 5
            for q in qids
        ]
        assert np.mean(rec) >= 0.5, f"PQ+rerank recall collapsed: {rec}"

    def test_pq_full_rerank_equals_bruteforce(self):
        import pyarrow.parquet as pq

        from osm_search_ray.functions.arrowutil import vec_matrix
        from osm_search_ray.pipelines.simsearch import QUERY_STRIDE, ann_pq_topk

        sf = "/root/testdata/sf0.001"
        t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
        ids, mat = t.column("vec_id").to_numpy(), vec_matrix(t.column("embedding"))
        got = ann_pq_topk(sf, rerank=len(ids)).to_pandas()
        for q in ids[ids % QUERY_STRIDE == 0]:
            g = got[got.query_id == q].sort_values("rank")
            assert list(g["vec_id"]) == self._exact_topk(ids, mat, q), (
                "rerank=corpus must reduce PQ to exact L2 top-k"
            )
