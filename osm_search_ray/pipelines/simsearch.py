"""Similarity search over the embedding column (training-data operator).

Baseline: brute-force cosine top-k — the query matrix is broadcast once and
every corpus batch does one numpy matmul + per-batch partial top-k
(combiner), so the merge shuffle sees ≤ k rows per (query, block).
Scale path (LSH-bucketed ANN) lives in stages/annindex.py.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ..sources.readers import read_pq
from ..sources.memo import memo, store_dir
import ray.data

from ..functions.arrowutil import vec_matrix
from ..stages.annindex import cosine_partial
from ..stages.joins import topk_per_key

K_DEFAULT = 5
QUERY_STRIDE = 100  # vec_id % 100 == 0 rows are the query set (deterministic)


def cosine_topk_batch(batch: pa.Table, queries: tuple, k: int) -> pa.Table:
    """The per-batch combiner of ann_cosine_topk: ``queries`` is (query ids,
    row-normalized query matrix); per query, the k most similar rows of
    ``batch``, self excluded, as (query_id, vec_id, cosine)."""
    qids, qn = queries
    ids = batch.column("vec_id").to_numpy()
    mat = vec_matrix(batch.column("embedding"))
    sims = qn @ (mat / np.linalg.norm(mat, axis=1, keepdims=True)).T if len(ids) else np.empty((len(qids), 0))
    return cosine_partial(qids, ids, sims, k, "vec_id")


def _query_vectors(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The query set: (vec_id, embedding matrix) of the vec_id % 100 == 0 rows."""
    import pyarrow.parquet as pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qt = qt.filter(pa.array((qt.column("vec_id").to_numpy() % QUERY_STRIDE) == 0))
    return qt.column("vec_id").to_numpy(), vec_matrix(qt.column("embedding"))


def ann_cosine_topk(sf_dir: str, k: int = K_DEFAULT):
    """Top-k cosine neighbors for each query vector (vec_id % 100 == 0),
    self excluded; deterministic ties by vec_id. Output (query_id, vec_id, rank)."""
    qids, qm = _query_vectors(sf_dir)
    qm = qm.astype(np.float64)
    ref = ray.put((qids, qm / np.linalg.norm(qm, axis=1, keepdims=True)))
    corpus = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    partial = corpus.map_batches(
        lambda t: cosine_topk_batch(t, ray.get(ref), k), batch_format="pyarrow", batch_size=4096
    )
    return topk_per_key(partial, "query_id", "cosine", "vec_id", k, True).select_columns(["query_id", "vec_id", "rank"])


SQL_ANN_COSINE_TOPK = f"""
WITH q AS (
    SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id % {QUERY_STRIDE} = 0
),
scored AS (
    SELECT q.query_id, e.vec_id,
           ROW_NUMBER() OVER (PARTITION BY q.query_id
                              ORDER BY list_cosine_similarity(
                                  list_transform(q.qe, x -> CAST(x AS DOUBLE)),
                                  list_transform(e.embedding, x -> CAST(x AS DOUBLE))) DESC,
                              e.vec_id) AS rank
    FROM q CROSS JOIN embeddings e
    WHERE e.vec_id <> q.query_id
)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= {K_DEFAULT}
"""

# Exact oracle for ann_quantized_topk (r04): the same symmetric int8
# quantization per element (CAST → ÷scale → round_even == np.rint), dots
# as exact integer sums (order-free), score = dot/(√qnsq·√vnsq) as single
# IEEE ops, ROW_NUMBER over (score DESC, vec_id) — the engine's tie-aware
# top-k. See pipelines/simsearch.quantize_int8 / _int8_denoms.
SQL_ANN_QUANTIZED_TOPK = f"""
WITH scales AS (
    SELECT vec_id, embedding,
           list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE)))) / 127.0 AS sc0
    FROM embeddings),
codes AS (
    SELECT vec_id,
           list_transform(embedding,
                          x -> CAST(round_even(CAST(x AS DOUBLE)
                                               / (CASE WHEN sc0 = 0 THEN 1.0 ELSE sc0 END), 0) AS BIGINT)) AS code
    FROM scales),
norms AS (
    SELECT vec_id, code,
           GREATEST(sqrt(CAST(list_reduce(list_transform(code, c -> c * c), (a, b) -> a + b) AS DOUBLE)), 1e-12) AS den
    FROM codes),
scored AS (
    SELECT q.vec_id AS query_id, v.vec_id,
           CAST(list_reduce(list_transform(list_zip(q.code, v.code), z -> z[1] * z[2]), (a, b) -> a + b) AS DOUBLE)
             / (q.den * v.den) AS score
    FROM norms q JOIN norms v ON v.vec_id <> q.vec_id
    WHERE q.vec_id % {QUERY_STRIDE} = 0),
ranked AS (
    SELECT query_id, vec_id,
           ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rank
    FROM scored)
SELECT query_id, vec_id, rank FROM ranked WHERE rank <= {K_DEFAULT}
"""


def ann_ivf_topk(sf_dir: str, k: int = K_DEFAULT, nlist: int = 8, nprobe: int | None = None):
    """IVF scale-path ANN through the ON-DISK list-partitioned store
    (stages/annindex.py build_ivf_store → ivf_store_topk): the corpus is
    written once partitioned by list id, and the query opens ONLY the
    probed partitions' files. With nprobe=nlist (default here) every list
    is probed and results are EXACT, so the brute-force SQL oracle applies;
    smaller nprobe is the read-pruned approximate regime (pruned file set +
    recall tested in tests/test_ann_misc.py)."""
    import tempfile

    from ..stages.annindex import build_ivf_store, ivf_store_topk

    qids, qm = _query_vectors(sf_dir)
    queries = {"vec_id": qids, "mat": qm}
    corpus = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    store = tempfile.mkdtemp(prefix="ivf_store_", dir="/tmp")
    try:
        build_ivf_store(corpus, store, nlist=nlist)
        return ivf_store_topk(store, queries, k=k, nprobe=nprobe or nlist)
    finally:
        import shutil

        shutil.rmtree(store, ignore_errors=True)  # the driver query owns its scratch


def kmeans_clusters(sf_dir: str, k: int = 8, iters: int = 5):
    """Distributed k-means over the embeddings table (training-data
    clustering operator; stages/annindex.kmeans_fit): per-iteration
    combiner partials (cluster, count, sum-blob) are the ONLY exchange —
    O(k·dim·blocks) per pass — then one broadcast scoring pass emits
    (vec_id, cluster).

    This query's init contract is DETERMINISTIC Forgy: the k vectors with
    the smallest vec_ids, in id order (smallest_k_vecs — a per-batch top-k
    combiner, no sort shuffle). That makes the whole run relationally
    expressible, so since r04 it has an EXACT SQL oracle (sql_kmeans_clusters:
    ``iters`` unrolled Lloyd CTEs). Float caveat shared with the LM/ANN
    oracles: the engine sums distances in matmul form and means via the
    okey-ordered combiner while SQL sums in its own order — an assignment
    flip needs two centroids equidistant to ~1e-15 from the same point.
    Planted-cluster recovery and block-order determinism stay unit-tested
    (tests/test_ann_misc.py::TestDistributedKMeans)."""
    from ..stages.annindex import cluster_assign, smallest_k_vecs

    emb = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    init = smallest_k_vecs(emb, k)
    return cluster_assign(emb, k=k, iters=iters, init=init)


def _sql_kmeans_clusters(k: int = 8, iters: int = 5) -> str:
    """Exact oracle for kmeans_clusters: Lloyd's unrolled into ``iters``
    CTE rounds over the unnested (vec_id, dim, x) relation. c0 is the
    Forgy init (ORDER BY vec_id LIMIT k, cluster = id rank − 1); each
    round assigns every vector to its nearest centroid (ROW_NUMBER over
    the summed squared per-dim gap, cluster index as the tie-break —
    numpy argmin's first-min) and recomputes per-(cluster, dim) means,
    COALESCE-ing empty clusters to their previous centroid exactly like
    kmeans_fit's new_cent = cent.copy() carry-forward."""
    parts = [
        f"""pts AS MATERIALIZED (
    SELECT vec_id, i AS d, CAST(embedding[i] AS DOUBLE) AS x
    FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS t(i)),
c0 AS (
    SELECT r.cluster, p.d, p.x AS c
    FROM (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
          FROM embeddings ORDER BY vec_id LIMIT {k}) r
    JOIN pts p USING (vec_id))"""
    ]
    for i in range(iters):
        parts.append(
            f"""a{i} AS MATERIALIZED (
    SELECT vec_id, cluster FROM (
        SELECT p.vec_id, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id
                                  ORDER BY SUM((p.x - c.c) * (p.x - c.c)), c.cluster) AS rn
        FROM pts p JOIN c{i} c USING (d) GROUP BY p.vec_id, c.cluster)
    WHERE rn = 1),
m{i} AS MATERIALIZED (
    SELECT a.cluster, p.d, AVG(p.x) AS c
    FROM a{i} a JOIN pts p USING (vec_id) GROUP BY 1, 2),
c{i + 1} AS MATERIALIZED (
    SELECT c.cluster, c.d, COALESCE(m.c, c.c) AS c
    FROM c{i} c LEFT JOIN m{i} m USING (cluster, d))"""
        )
    parts.append(
        f"""afin AS (
    SELECT vec_id, cluster FROM (
        SELECT p.vec_id, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id
                                  ORDER BY SUM((p.x - c.c) * (p.x - c.c)), c.cluster) AS rn
        FROM pts p JOIN c{iters} c USING (d) GROUP BY p.vec_id, c.cluster)
    WHERE rn = 1)"""
    )
    body = ",\n".join(parts)
    return f"WITH {body}\nSELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM afin"


sql_kmeans_clusters = functools.cache(_sql_kmeans_clusters)


def build_quantized_store(sf_dir: str, out_dir: str) -> None:
    """INT8 scalar quantization of the embedding column — the storage-scale
    path for 100 TB embedding corpora (4× smaller than float32, 8× than
    float64; dot products stay a numpy matmul after dequantize). Symmetric
    per-vector scheme: scale = max|x|/127, q = rint(x/scale) ∈ [−127, 127],
    elementwise |x − q·scale| ≤ scale/2 (unit-tested). One streaming pass,
    written as partitioned Parquet (vec_id, qvec int8 blob, scale, dim).
    Any earlier output in ``out_dir`` is removed first: a rerun after a
    crashed write must not append to the partial files."""
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def quantize(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = vec_matrix(batch.column("embedding"))
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "qvec": pa.array([], pa.binary()),
                    "scale": pa.array([], pa.float64()),
                    "dim": pa.array([], pa.int64()),
                }
            )
        q, scale = quantize_int8(mat)  # shared kernel — the SQL-oracle contract
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "qvec": pa.array([r.tobytes() for r in q], pa.binary()),
                "scale": pa.array(scale),
                "dim": pa.array(np.full(len(ids), mat.shape[1], np.int64)),
            }
        )

    ds.map_batches(quantize, batch_format="pyarrow").write_parquet(out_dir)


def _quant_store_dir(sf_dir: str) -> str:
    """The quantized store of ``sf_dir``'s embeddings, built once per corpus."""
    return store_dir(
        "quant_store", [f"{sf_dir}/embeddings.parquet"], lambda out_dir: build_quantized_store(sf_dir, out_dir)
    )


def _int8_codes(col, dim: int) -> np.ndarray:
    """Zero-copy (len, dim) int8 view over a binary column of fixed dim-byte
    blobs — no per-row Python bytes, no join copy."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count == 0:
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
        data = np.frombuffer(arr.buffers()[2], dtype=np.int8)
        flat = data[offs[0] : offs[-1]]
        if len(flat) == len(arr) * dim:  # contiguous fixed-width blobs
            return flat.reshape(len(arr), dim)
    return np.frombuffer(b"".join(arr.to_pylist()), dtype=np.int8).reshape(-1, dim)


def quantize_int8(mat: np.ndarray) -> np.ndarray:
    """Symmetric per-vector int8 codes: scale = max|x|/127 (1.0 for the
    all-zero vector), q = rint(x/scale) ∈ [−127, 127]. The ONE shared
    kernel for the store build and the query side — and the contract the
    SQL oracle reproduces per element (CAST → divide → round_even, each a
    single IEEE op; DuckDB's round_even(x,0) == np.rint probe-verified)."""
    scale = np.abs(mat).max(axis=1) / 127.0
    scale = np.where(scale == 0, 1.0, scale)
    return np.rint(mat / scale[:, None]).astype(np.int8), scale


def _int8_denoms(codes: np.ndarray) -> np.ndarray:
    """max(√Σc², 1e-12) — the sum is an exact integer (≤ dim·127² « 2^53),
    so it is order-free; √ and the clamp are single IEEE ops, repeated
    verbatim by the SQL oracle."""
    nsq = (codes.astype(np.int64) ** 2).sum(axis=1).astype(np.float64)
    return np.maximum(np.sqrt(nsq), 1e-12)


def ann_quantized_topk(sf_dir: str, k: int = K_DEFAULT):
    """Brute-force cosine top-k served from the INT8-quantized store
    WITHOUT dequantizing: the per-vector scale is positive, and cosine is
    invariant under positive per-vector scaling — cos(s·v, q) = cos(v, q)
    — so scoring ranks the raw int8 codes directly. The scale column is
    never read (pruned at the read), the codes go through a zero-copy
    buffer view, and the matmul runs in float32 (int8×int8 dots are ≤
    dim·127² < 2²⁴ — EXACT in float32; half the float64 memory traffic on
    this DRAM-bound host).

    Exact-oracled since r04 (SQL_ANN_QUANTIZED_TOPK): queries are
    quantized with the same kernel (symmetric int8×int8 search), so every
    dot is an exact integer (summation-order-free), the score
    dot/(√qnsq·√vnsq) is a chain of single IEEE ops, and top-k selection
    is the engine's tie-aware order ((score DESC, vec_id), functions/topk —
    int scores make ties REAL). Recall vs the exact float query and
    scale-cancellation parity are pinned in tests/test_ann_misc.py.
    Output (query_id, vec_id, rank)."""
    qids, qm = _query_vectors(sf_dir)
    q8, _ = quantize_int8(qm)
    ref = ray.put((qids, q8.astype(np.float32), _int8_denoms(q8)))
    corpus = read_pq(_quant_store_dir(sf_dir), columns=["vec_id", "qvec", "dim"])
    partial = corpus.map_batches(
        lambda t: quantized_topk_batch(t, ray.get(ref), k), batch_format="pyarrow", batch_size=4096
    )
    return topk_per_key(partial, "query_id", "cosine", "vec_id", k, True).select_columns(["query_id", "vec_id", "rank"])


def quantized_topk_batch(batch: pa.Table, queries: tuple, k: int) -> pa.Table:
    """The per-batch combiner of ann_quantized_topk: ``queries`` is (query
    ids, float32 int8 query codes, their norms); scores int8×int8 dots
    (exact integers in float32) over the batch's codes."""
    qids, q32, qden = queries
    if not len(batch):
        return cosine_partial(qids, batch.column("vec_id").to_numpy(), np.empty((len(qids), 0)), k, "vec_id")
    v8 = _int8_codes(batch.column("qvec"), int(batch.column("dim")[0].as_py()))
    dots = (q32 @ v8.astype(np.float32).T).astype(np.float64)  # exact integers
    sims = dots / (qden[:, None] * _int8_denoms(v8)[None, :])
    return cosine_partial(qids, batch.column("vec_id").to_numpy(), sims, k, "vec_id")


# ----------------------------------------------------------- k-NN graph

KNN_GRAPH_K = 5
KNN_GRAPH_NLIST = 8


def knn_graph(sf_dir: str, k: int = KNN_GRAPH_K, nlist: int = KNN_GRAPH_NLIST, nprobe: int | None = None):
    """All-vectors k-NN graph — top-k cosine neighbors for EVERY vector
    (the SemDeDup / kNN-LM / dedup-graph building block), built as a
    LIST-BUCKETED SELF-JOIN rather than a corpus broadcast:

      1. kmeans-lite centroids (tiny, broadcast);
      2. every vector emits ONE member row (its assigned list) and
         ``nprobe`` query rows (its nearest lists);
      3. one list_id-keyed exchange co-locates each query with the member
         vectors of its probed lists — scoring is a per-partition matmul
         with per-(query, partition) top-k;
      4. one query-keyed reduce takes the global top-k.

    nprobe=None (default) probes every list — EXACT (every pair meets in
    the member list's partition), which is what the brute-force SQL
    oracle checks; nprobe < nlist is the approximate scale regime (the
    ann_ivf_topk contract), unit-tested for recall and probe containment.
    Exchange budget: n x (1 + nprobe) fixed-width rows; no corpus-sized
    broadcast anywhere.  Output (src_id, neighbor_id, rank).

    The result is memoized per (corpus, k, nlist, nprobe) — materialized
    object-store blocks — so mutual_knn_pairs reuses the graph instead of
    rebuilding it."""
    if nprobe is None:
        nprobe = nlist
    path = f"{sf_dir}/embeddings.parquet"
    return memo("knn_graph", [path], lambda: _knn_graph(path, k, nlist, nprobe), k, nlist, nprobe)


def _knn_graph(path: str, k: int, nlist: int, nprobe: int):
    from ..stages.annindex import sq_dists, train_centroids
    from ..stages.joins import hash_partitioned_apply

    emb = read_pq(path, columns=["vec_id", "embedding"])
    centroids = train_centroids(emb, "embedding", nlist)
    dim = centroids.shape[1]

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        mat = vec_matrix(batch.column("embedding"))
        d = sq_dists(mat, centroids)
        member = np.argmin(d, axis=1).astype(np.int64)
        probes = np.argsort(d, kind="stable", axis=1)[:, :nprobe].astype(np.int64)
        blobs = [mat[i].tobytes() for i in range(len(ids))]
        out_list = [member]
        out_ids = [ids]
        out_side = [np.zeros(len(ids), np.int8)]
        out_blob = list(blobs)
        for K in range(nprobe):
            out_list.append(probes[:, K])
            out_ids.append(ids)
            out_side.append(np.ones(len(ids), np.int8))
            out_blob.extend(blobs)
        return pa.table(
            {
                "list_id": pa.array(np.concatenate(out_list)),
                "vec_id": pa.array(np.concatenate(out_ids)),
                "side": pa.array(np.concatenate(out_side)),
                "blob": pa.array(out_blob, pa.binary()),
            }
        )

    def score_partition(df: pd.DataFrame) -> pa.Table:
        out = []
        for _, g in df.groupby("list_id", sort=False):
            mem = g[g["side"] == 0]
            qry = g[g["side"] == 1]
            if len(mem) == 0 or len(qry) == 0:
                continue
            mids = mem["vec_id"].to_numpy(np.int64)
            qids = qry["vec_id"].to_numpy(np.int64)
            mm = np.frombuffer(b"".join(mem["blob"]), np.float64).reshape(len(mids), dim)
            qm = np.frombuffer(b"".join(qry["blob"]), np.float64).reshape(len(qids), dim)
            mn = mm / np.maximum(np.linalg.norm(mm, axis=1, keepdims=True), 1e-12)
            qn = qm / np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-12)
            out.append(cosine_partial(qids, mids, qn @ mn.T, k, "neighbor_id"))
        if not out:  # an empty partition still carries the schema
            schema = pa.schema([("src_id", pa.int64()), ("neighbor_id", pa.int64()), ("cosine", pa.float64())])
            return schema.empty_table()
        return pa.concat_tables(out).rename_columns(["src_id", "neighbor_id", "cosine"])

    partial = hash_partitioned_apply(
        emb.map_batches(tag, batch_format="pyarrow"), "list_id", score_partition, num_parts=16
    )

    # a pair meets once: only in the neighbor's one member list, which each query probes at most once
    ranked = topk_per_key(partial, "src_id", "cosine", "neighbor_id", k, True)
    return ranked.select_columns(["src_id", "neighbor_id", "rank"]).materialize()


SQL_KNN_GRAPH = f"""
WITH scored AS (
    SELECT a.vec_id AS src_id, b.vec_id AS neighbor_id,
           ROW_NUMBER() OVER (PARTITION BY a.vec_id
                              ORDER BY list_cosine_similarity(
                                  list_transform(a.embedding, x -> CAST(x AS DOUBLE)),
                                  list_transform(b.embedding, x -> CAST(x AS DOUBLE))) DESC,
                              b.vec_id) AS rank
    FROM embeddings a JOIN embeddings b ON b.vec_id <> a.vec_id
)
SELECT src_id, neighbor_id, rank FROM scored WHERE rank <= {KNN_GRAPH_K}
"""


def embedding_centroids(sf_dir: str):
    """Grouped vector aggregate — the per-class centroid pass behind SemDeDup
    / cluster-balance reports: per (label, dim) the exact scaled component
    sum and member count (centroid = sum/n, left unreduced so the integer
    result is hash-exact). Components quantize via the repo's probe-verified
    float contract: np.rint(x_f64 * 1000) == DuckDB round_even(x, 0) on the
    identical double. Output (label, dim, sum_x1000, n_vecs).

    Scale shape: per-batch partial = one (labels × dims)-sized numpy
    scatter-add per batch (vec_matrix zero-copy read, no Python list
    round-trip); ONE label-keyed exchange sums partials — exchange rows are
    labels × dims, never vectors."""
    from ..functions.arrowutil import vec_matrix
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = np.rint(vec_matrix(batch.column("embedding")) * 1000.0).astype(np.int64)
        ulab, inv = np.unique(lab, return_inverse=True)
        dim = mat.shape[1]
        sums = np.zeros((len(ulab), dim), np.int64)
        np.add.at(sums, inv, mat)
        cnt = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(ulab, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(ulab))),
                "sum_x1000": pa.array(sums.ravel()),
                "n_vecs": pa.array(np.repeat(cnt, dim)),
            }
        )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["label", "dim"], sort=False)[["sum_x1000", "n_vecs"]].sum()
        return g.reset_index().astype(np.int64)

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "label", fuse, num_parts=8
    )


SQL_EMBEDDING_CENTROIDS = """
SELECT CAST(label AS BIGINT) AS label, CAST(j.j AS BIGINT) AS dim,
       CAST(SUM(CAST(round_even(CAST(embedding[j.j + 1] AS DOUBLE) * 1000, 0) AS BIGINT))
            AS BIGINT) AS sum_x1000,
       CAST(COUNT(*) AS BIGINT) AS n_vecs
FROM embeddings, UNNEST(range(0, len(embedding))) AS j(j)
GROUP BY 1, 2
"""


# --------------------------------------------------- product quantization

PQ_M = 4  # subspaces
PQ_KSUB = 16  # codewords per subspace
PQ_ITERS = 3  # Lloyd rounds per subspace
PQ_RERANK = 50  # ADC shortlist size fed to the exact re-rank


def ann_pq_topk(
    sf_dir: str,
    k: int = K_DEFAULT,
    m: int = PQ_M,
    ksub: int = PQ_KSUB,
    iters: int = PQ_ITERS,
    rerank: int = PQ_RERANK,
):
    """Product-quantization ANN with exact re-rank — the memory-scale path
    beyond int8: each vector compresses to ``m`` one-byte codes (dim·4
    bytes → 4 bytes at the defaults), the ADC lookup-table sums build a
    ``rerank``-deep candidate shortlist per query, and the shortlist is
    re-ranked by EXACT squared distance (the standard PQ serving design —
    the candidate vectors are already in the scoring batch, so exactness
    costs O(rerank) extra distance rows, not a second corpus pass).
    Completes the ANN family (brute-float / IVF store / int8 / PQ).

    Training reuses the distributed kmeans machinery per subspace
    (stages/annindex.kmeans_fit over a projected sub-vector dataset, Forgy
    init by smallest vec_ids — the relationally-expressible contract of
    kmeans_clusters), so the WHOLE run has an exact SQL oracle
    (sql_ann_pq_topk: one unrolled Lloyd chain where the subspace index is
    just a column of the unnested relation, then relational LUT + ADC +
    shortlist re-rank). Float caveat shared with the kmeans oracle: engine
    sums squared gaps in matmul/axis order, SQL in its own — a flip needs
    distances equal to ~1e-15, and exact ties break by vec_id on both
    sides (incl. the shortlist boundary).

    Scale shape: ``m × iters`` combiner passes for training (each exchange
    O(ksub·dim·blocks) — corpus-size-independent), codebooks + query LUTs
    broadcast once (ray.put), scoring one streaming pass with tie-aware
    per-batch top-``rerank`` partials carrying (adist, exact dist), one
    query-keyed reduce (global shortlist by adist → exact rank). Output
    (query_id, vec_id, rank)."""
    from ..stages.annindex import kmeans_fit, smallest_k_vecs, sq_dists

    qids, qm = _query_vectors(sf_dir)
    qids = qids.astype(np.int64)
    dim = qm.shape[1]
    if dim % m:
        raise ValueError(f"ann_pq_topk: dim {dim} not divisible by m={m}")
    sub = dim // m

    emb = read_pq(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    def project(lo: int, hi: int):
        def fn(batch: pa.Table) -> pa.Table:
            mat = vec_matrix(batch.column("embedding"))[:, lo:hi]
            return pa.table(
                {
                    "vec_id": batch.column("vec_id"),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(np.ascontiguousarray(mat).ravel()), hi - lo
                    ),
                }
            )

        return fn

    codebooks = []
    for s in range(m):
        sub_ds = emb.map_batches(project(s * sub, (s + 1) * sub), batch_format="pyarrow")
        init = smallest_k_vecs(sub_ds, ksub)
        codebooks.append(kmeans_fit(sub_ds, ksub, iters=iters, init=init))
    cbs = np.stack(codebooks)  # (m, ksub, sub)

    # query ADC tables: luts[qi, s, j] = ||q_sub - codeword||²
    luts = np.stack(
        [sq_dists(qm[:, s * sub : (s + 1) * sub], cbs[s]) for s in range(m)], axis=1
    )  # (n_q, m, ksub)
    bundle_ref = ray.put((qids, qm, cbs, luts))

    def partial_pq_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "adist": pa.array([], pa.float64()),
                "dist": pa.array([], pa.float64()),
            }
        )
        if len(batch) == 0:
            return empty
        qids, qm, cbs, luts = ray.get(bundle_ref)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        mat = vec_matrix(batch.column("embedding"))
        adist = np.zeros((len(qids), len(ids)))
        for s in range(m):
            codes = sq_dists(mat[:, s * sub : (s + 1) * sub], cbs[s]).argmin(1)
            adist += luts[:, s, :][:, codes]
        out_q, out_v, out_a, out_e = [], [], [], []
        for qi in range(len(qids)):
            mask = ids != qids[qi]  # exclude self-match
            d_m, ids_m = adist[qi][mask], ids[mask]
            order = np.lexsort((ids_m, d_m))[:rerank]  # (adist, vec_id)
            kept = mat[mask][order]
            exact = ((kept - qm[qi]) ** 2).sum(axis=1)
            out_q.append(np.full(len(order), qids[qi], np.int64))
            out_v.append(ids_m[order])
            out_a.append(d_m[order])
            out_e.append(exact)
        if not out_q:
            return empty
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "adist": pa.array(np.concatenate(out_a)),
                "dist": pa.array(np.concatenate(out_e)),
            }
        )

    partial = emb.map_batches(partial_pq_topk, batch_format="pyarrow", batch_size=4096)

    return _pq_reduce(partial, k, rerank)


def _pq_reduce(partial: "ray.data.Dataset", k: int, rerank: int) -> "ray.data.Dataset":
    from ..stages.joins import hash_partitioned_apply

    def final(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("query_id", sort=False):
            # global shortlist by ADC order, then the exact re-rank
            g = g.sort_values(["adist", "vec_id"], kind="mergesort").head(rerank)
            g = g.sort_values(["dist", "vec_id"], kind="mergesort").head(k).copy()
            g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
            outs.append(g[["query_id", "vec_id", "rank"]])
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ["query_id", "vec_id", "rank"]}
        )

    return hash_partitioned_apply(partial, "query_id", final, num_parts=8)


def _sql_ann_pq_topk(
    k: int = K_DEFAULT,
    m: int = PQ_M,
    ksub: int = PQ_KSUB,
    iters: int = PQ_ITERS,
    rerank: int = PQ_RERANK,
) -> str:
    """Exact oracle for ann_pq_topk: the kmeans_clusters oracle generalized —
    the subspace index ``s = (i-1) // sub`` is just a COLUMN of the unnested
    relation, so ALL m codebooks train in ONE unrolled Lloyd chain
    (assignments partition by (vec_id, s), means by (s, cluster, d),
    carry-forward COALESCE per (s, cluster, d)); then the ADC phase is
    relational: query LUT = per-(query, s, cluster) squared gap sum against
    the final codebooks, approx distance = the m-term LUT sum joined through
    each vector's final codes, top-k by (adist, vec_id). The sub-vector
    width is derived in SQL from len(embedding) so the oracle needs no
    hard-coded dimensionality."""
    parts = [
        f"""dimn AS (SELECT len(embedding) // {m} AS sub FROM embeddings LIMIT 1),
pts AS MATERIALIZED (
    SELECT vec_id,
           CAST((i - 1) // (SELECT sub FROM dimn) AS BIGINT) AS s,
           CAST((i - 1) % (SELECT sub FROM dimn) AS BIGINT) AS d,
           CAST(embedding[i] AS DOUBLE) AS x
    FROM embeddings, UNNEST(range(1, len(embedding) + 1)) AS t(i)),
c0 AS MATERIALIZED (
    SELECT p.s, r.cluster, p.d, p.x AS c
    FROM (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
          FROM embeddings ORDER BY vec_id LIMIT {ksub}) r
    JOIN pts p USING (vec_id))"""
    ]
    for i in range(iters):
        parts.append(
            f"""a{i} AS MATERIALIZED (
    SELECT vec_id, s, cluster FROM (
        SELECT p.vec_id, p.s, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id, p.s
                                  ORDER BY SUM((p.x - c.c) * (p.x - c.c)), c.cluster) AS rn
        FROM pts p JOIN c{i} c ON c.s = p.s AND c.d = p.d
        GROUP BY p.vec_id, p.s, c.cluster)
    WHERE rn = 1),
m{i} AS MATERIALIZED (
    SELECT a.s, a.cluster, p.d, AVG(p.x) AS c
    FROM a{i} a JOIN pts p ON p.vec_id = a.vec_id AND p.s = a.s
    GROUP BY 1, 2, 3),
c{i + 1} AS MATERIALIZED (
    SELECT c.s, c.cluster, c.d, COALESCE(m.c, c.c) AS c
    FROM c{i} c LEFT JOIN m{i} m ON m.s = c.s AND m.cluster = c.cluster AND m.d = c.d)"""
        )
    parts.append(
        f"""codes AS MATERIALIZED (
    SELECT vec_id, s, cluster FROM (
        SELECT p.vec_id, p.s, c.cluster,
               ROW_NUMBER() OVER (PARTITION BY p.vec_id, p.s
                                  ORDER BY SUM((p.x - c.c) * (p.x - c.c)), c.cluster) AS rn
        FROM pts p JOIN c{iters} c ON c.s = p.s AND c.d = p.d
        GROUP BY p.vec_id, p.s, c.cluster)
    WHERE rn = 1),
lut AS MATERIALIZED (
    SELECT q.vec_id AS query_id, c.s, c.cluster,
           SUM((q.x - c.c) * (q.x - c.c)) AS dist
    FROM pts q JOIN c{iters} c ON c.s = q.s AND c.d = q.d
    WHERE q.vec_id % {QUERY_STRIDE} = 0
    GROUP BY 1, 2, 3),
adist AS (
    SELECT l.query_id, v.vec_id, SUM(l.dist) AS ad
    FROM codes v JOIN lut l ON l.s = v.s AND l.cluster = v.cluster
    WHERE v.vec_id <> l.query_id
    GROUP BY 1, 2),
shortlist AS MATERIALIZED (
    SELECT query_id, vec_id FROM (
        SELECT query_id, vec_id,
               ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY ad, vec_id) AS rn
        FROM adist)
    WHERE rn <= {rerank}),
rerank AS (
    SELECT sl.query_id, sl.vec_id, SUM((q.x - v.x) * (q.x - v.x)) AS dist
    FROM shortlist sl
    JOIN pts q ON q.vec_id = sl.query_id
    JOIN pts v ON v.vec_id = sl.vec_id AND v.s = q.s AND v.d = q.d
    GROUP BY 1, 2),
ranked AS (
    SELECT query_id, vec_id,
           ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY dist, vec_id) AS rank
    FROM rerank)"""
    )
    body = ",\n".join(parts)
    return f"WITH {body}\nSELECT query_id, vec_id, rank FROM ranked WHERE rank <= {k}"


sql_ann_pq_topk = functools.cache(_sql_ann_pq_topk)


def embed_normalize(sf_dir: str):
    """Per-dimension z-score normalization of the embedding table — the
    feature-standardization pass before clustering / linear probes.
    Components quantize to int (×1000, the probe-verified rint/round_even
    contract) FIRST, so the per-dim moments (n, Σq, Σq²) are exact int64
    and order-free; the z expression then uses the identical IEEE op tree
    on both sides ((q - s/n) / sqrt(ss/n - (s/n)²), then ×1e4 and
    round-even), so every output value is bit-exact. Zero-variance dims
    emit 0. Scale shape: per-batch moment partials → one dims-sized
    reduce, broadcast back via ray.put — vectors stream through exactly
    once; nothing vector-sized lands on the driver.
    Output (vec_id, dim, z_e4)."""
    from ..functions.arrowutil import vec_matrix

    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        q = np.rint(vec_matrix(batch.column("embedding")) * 1000.0).astype(np.int64)
        return pd.DataFrame(
            {
                "dim": np.arange(q.shape[1], dtype=np.int64),
                "n": np.full(q.shape[1], q.shape[0], np.int64),
                "s": q.sum(axis=0),
                "ss": (q * q).sum(axis=0),
            }
        )

    mom = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("dim")
        .sum(["n", "s", "ss"])
        .to_pandas()  # dims-sized (bounded by the embedding width)
        .sort_values("dim")
    )
    n = mom["sum(n)"].to_numpy(np.int64).astype(np.float64)
    s = mom["sum(s)"].to_numpy(np.int64).astype(np.float64)
    ss = mom["sum(ss)"].to_numpy(np.int64).astype(np.float64)
    mean = s / n
    var = ss / n - mean * mean
    ref = ray.put((mean, var))

    def apply_z(batch: pa.Table) -> pa.Table:
        mean, var = ray.get(ref)
        q = np.rint(vec_matrix(batch.column("embedding")) * 1000.0)
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        dim = q.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (q - mean) / np.sqrt(var)
        z = np.where(var <= 0, 0.0, z)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vid, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(vid))),
                "z_e4": pa.array(np.rint(z * 10000.0).astype(np.int64).ravel()),
            }
        )

    return ds.map_batches(apply_z, batch_format="pyarrow")


SQL_EMBED_NORMALIZE = """
WITH q AS (
    SELECT vec_id, CAST(j.j AS BIGINT) AS dim,
           CAST(round_even(CAST(embedding[j.j + 1] AS DOUBLE) * 1000, 0) AS BIGINT) AS qv
    FROM embeddings, UNNEST(range(0, len(embedding))) AS j(j)
),
m AS (
    SELECT dim, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(qv) AS BIGINT) AS s,
           CAST(SUM(qv * qv) AS BIGINT) AS ss
    FROM q GROUP BY 1
)
SELECT q.vec_id, q.dim,
       CAST(CASE WHEN CAST(ss AS DOUBLE) / n - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n) <= 0
                 THEN 0
                 ELSE round_even((CAST(qv AS DOUBLE) - CAST(s AS DOUBLE) / n)
                                 / sqrt(CAST(ss AS DOUBLE) / n
                                        - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
                                 * 10000, 0)
            END AS BIGINT) AS z_e4
FROM q JOIN m USING (dim)
"""


def nearest_centroid_classify(sf_dir: str):
    """Nearest-centroid classification of every embedding against the
    per-label centroids, reported as a confusion matrix (true label × 
    predicted label) — the cluster-purity / label-noise audit an embedding
    pipeline runs after training. EXACT integer argmin: centroid components
    are quantized to x1e6 ints with round-half-up ((2·S·1000 + n) // (2n) —
    floor division agrees between numpy and DuckDB for negatives too), the
    query components to x1e6 by construction (q1000·1000), so squared
    distances are exact int64 (≤ ~1e15) and ties break by smallest label on
    both sides — no float comparison anywhere. Scale shape: centroids are
    (labels × dims), reduced via combiner partials then BROADCAST once
    (ray.put); each batch does one (B × L × D) numpy matmul-free squared
    distance and emits (labels × labels)-bounded confusion partials; ONE
    tiny final exchange. Output (true_label, pred_label, n_vecs)."""
    from ..functions.arrowutil import vec_matrix
    from ..stages.joins import hash_partitioned_apply

    cent = embedding_centroids(sf_dir).to_pandas()  # (labels × dims) — bounded
    cent = cent.sort_values(["label", "dim"])
    labels = np.sort(cent["label"].unique()).astype(np.int64)
    dims = int(cent["dim"].max()) + 1
    S = cent["sum_x1000"].to_numpy(np.int64).reshape(len(labels), dims)
    n = cent["n_vecs"].to_numpy(np.int64).reshape(len(labels), dims)
    c6 = (2 * S * 1000 + n) // (2 * n)  # round-half-up centroid at x1e6
    ref = ray.put((labels, c6))

    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label", "embedding"])

    def classify(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(ref)
        q6 = (np.rint(vec_matrix(batch.column("embedding")) * 1000.0).astype(np.int64)) * 1000
        diff = q6[:, None, :] - cm[None, :, :]
        d = (diff * diff).sum(axis=2)  # exact int64
        pred = labs[np.argmin(d, axis=1)]  # argmin takes FIRST min = smallest label
        true = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        df = (
            pd.DataFrame({"true_label": true, "pred_label": pred})
            .groupby(["true_label", "pred_label"], sort=False)
            .size()
            .reset_index(name="n_vecs")
        )
        df["n_vecs"] = df["n_vecs"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = ds.map_batches(classify, batch_format="pyarrow")
    return hash_partitioned_apply(
        parts,
        ["true_label", "pred_label"],
        lambda df: df.groupby(["true_label", "pred_label"], sort=False)["n_vecs"]
        .sum()
        .reset_index()
        .astype(np.int64),
        num_parts=8,
    )


SQL_NEAREST_CENTROID = f"""
WITH cent0 AS ({SQL_EMBEDDING_CENTROIDS.strip()}),
cent AS (
    SELECT label, dim, (2 * sum_x1000 * 1000 + n_vecs) // (2 * n_vecs) AS c6 FROM cent0
),
q AS (
    SELECT vec_id, CAST(label AS BIGINT) AS true_label, CAST(j.j AS BIGINT) AS dim,
           CAST(round_even(CAST(embedding[j.j + 1] AS DOUBLE) * 1000, 0) AS BIGINT) * 1000 AS q6
    FROM embeddings, UNNEST(range(0, len(embedding))) AS j(j)
),
dist AS (
    SELECT q.vec_id, ANY_VALUE(q.true_label) AS true_label, c.label AS pred_label,
           SUM((q.q6 - c.c6) * (q.q6 - c.c6)) AS d
    FROM q JOIN cent c USING (dim) GROUP BY q.vec_id, c.label
),
pred AS (
    SELECT vec_id, true_label, pred_label,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d, pred_label) AS rn
    FROM dist
)
SELECT true_label, pred_label, COUNT(*) AS n_vecs
FROM pred WHERE rn = 1 GROUP BY 1, 2
"""


def label_medoids(sf_dir: str):
    """EXACT medoid per label: the member vector minimizing the sum of
    squared distances to all vectors of its label — the outlier-robust
    cluster representative (SemDeDup keeps medoids, k-medoids seeds from
    them). All arithmetic on the ×1000-quantized ints: sum of squared
    distances from member i decomposes as n·|qᵢ|² - 2·qᵢ·S + Σ|q|², so one
    label-keyed exchange computing the label's (n, S, Σ|q|²) partials and
    a second vectorized pass scoring every member against its label's
    moments replaces the O(n²) pairwise matrix; ties break by min vec_id.
    All-int64 (components ≤3e3 quantized → scores ≤ ~1e13 at fixture
    scale; the same decomposition holds with int128 blocks at corpus
    scale). Output (label, medoid_vec_id, sq_dist_sum)."""
    from ..functions.arrowutil import vec_matrix
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label", "embedding"]
    )

    def score_rows(batch: pa.Table) -> pd.DataFrame:
        q = np.rint(vec_matrix(batch.column("embedding")) * 1000.0).astype(np.int64)
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        dim = q.shape[1]
        return pd.DataFrame(
            {
                "label": lab,
                "vec_id": vid,
                "nrm": (q * q).sum(axis=1),
                **{f"c{d}": q[:, d] for d in range(dim)},
            }
        )

    def per_label(df: pd.DataFrame) -> pd.DataFrame:
        ccols = [c for c in df.columns if c.startswith("c")]
        outs = []
        for lab, g in df.groupby("label", sort=False):
            q = g[ccols].to_numpy(np.int64)
            nrm = g["nrm"].to_numpy(np.int64)
            n = len(g)
            S = q.sum(axis=0)
            tot = int(nrm.sum())
            # Σ_j |q_i - q_j|² = n·|q_i|² - 2·q_i·S + Σ_j |q_j|²
            scores = n * nrm - 2 * (q @ S) + tot
            g2 = pd.DataFrame({"vec_id": g["vec_id"].to_numpy(np.int64), "sc": scores})
            g2 = g2.sort_values(["sc", "vec_id"], kind="mergesort")
            outs.append(
                pd.DataFrame(
                    {
                        "label": [lab],
                        "medoid_vec_id": [int(g2["vec_id"].iloc[0])],
                        "sq_dist_sum": [int(g2["sc"].iloc[0])],
                    }
                )
            )
        return (
            pd.concat(outs, ignore_index=True).astype(np.int64)
            if outs
            else pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ["label", "medoid_vec_id", "sq_dist_sum"]}
            )
        )

    return hash_partitioned_apply(
        ds.map_batches(score_rows, batch_format="pyarrow"), "label", per_label, num_parts=8
    )


SQL_LABEL_MEDOIDS = """
WITH q AS (
    SELECT vec_id, CAST(label AS BIGINT) AS label, CAST(j.j AS BIGINT) AS dim,
           CAST(round_even(CAST(embedding[j.j + 1] AS DOUBLE) * 1000, 0) AS BIGINT) AS qv
    FROM embeddings, UNNEST(range(0, len(embedding))) AS j(j)
),
nrm AS (SELECT vec_id, label, CAST(SUM(qv * qv) AS BIGINT) AS nrm FROM q GROUP BY 1, 2),
mom AS (
    SELECT label, dim, CAST(SUM(qv) AS BIGINT) AS s FROM q GROUP BY 1, 2
),
lt AS (
    SELECT label, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(nrm) AS BIGINT) AS tot
    FROM nrm GROUP BY 1
),
dot AS (
    SELECT q.vec_id, q.label, CAST(SUM(q.qv * m.s) AS BIGINT) AS qs
    FROM q JOIN mom m ON m.label = q.label AND m.dim = q.dim
    GROUP BY 1, 2
),
scored AS (
    SELECT n.vec_id, n.label, lt.n * n.nrm - 2 * d.qs + lt.tot AS sc
    FROM nrm n JOIN dot d USING (vec_id, label) JOIN lt USING (label)
),
best AS (
    SELECT label, vec_id, sc,
           ROW_NUMBER() OVER (PARTITION BY label ORDER BY sc, vec_id) AS rn
    FROM scored
)
SELECT label, vec_id AS medoid_vec_id, sc AS sq_dist_sum
FROM best WHERE rn = 1
"""


def mutual_knn_pairs(sf_dir: str):
    """RECIPROCAL k-NN pairs — vector pairs that are in each other's top-k
    (the high-precision SemDeDup / duplicate-candidate filter: a one-sided
    neighbor is often a hub artifact, a mutual one is a near-duplicate
    signal). Built ON TOP of the exact knn_graph: directed edges →
    canonical (min, max) keys → ONE pair-keyed exchange → a pair survives
    iff both directions arrived (count == 2). Output (a_id, b_id), a < b."""
    from ..stages.joins import hash_partitioned_apply

    g = knn_graph(sf_dir)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src_id").to_numpy().astype(np.int64)
        n = batch.column("neighbor_id").to_numpy().astype(np.int64)
        return pa.table({"a_id": np.minimum(s, n), "b_id": np.maximum(s, n)})

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby(["a_id", "b_id"], sort=False).size()
        keep = c[c == 2].reset_index()[["a_id", "b_id"]]
        return keep.astype(np.int64)

    return hash_partitioned_apply(
        g.map_batches(canon, batch_format="pyarrow"), ["a_id", "b_id"], per_part
    )


SQL_MUTUAL_KNN_PAIRS = f"""
WITH scored AS (
    SELECT a.vec_id AS src_id, b.vec_id AS neighbor_id,
           ROW_NUMBER() OVER (PARTITION BY a.vec_id
                              ORDER BY list_cosine_similarity(
                                  list_transform(a.embedding, x -> CAST(x AS DOUBLE)),
                                  list_transform(b.embedding, x -> CAST(x AS DOUBLE))) DESC,
                              b.vec_id) AS rank
    FROM embeddings a JOIN embeddings b ON b.vec_id <> a.vec_id
),
topk AS (SELECT src_id, neighbor_id FROM scored WHERE rank <= {KNN_GRAPH_K})
SELECT a.src_id AS a_id, a.neighbor_id AS b_id
FROM topk a JOIN topk b
  ON b.src_id = a.neighbor_id AND b.neighbor_id = a.src_id
WHERE a.src_id < a.neighbor_id
"""
