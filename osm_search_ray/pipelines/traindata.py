"""Training-data preparation operators (beyond-reference charter ops):

  train_val_split   deterministic hash-bucketed train/val/test assignment —
                    the split a data pipeline must reproduce bit-for-bit on
                    every rerun and at any parallelism. Pure per-batch map
                    (no shuffle); the bucketing arithmetic is shared
                    exactly with the SQL oracle.

  pack_sequences    greedy sequence packing for LM training: documents in
                    doc_id order are laid head-to-tail into fixed-size
                    token windows; each doc gets (window_id, start offset).
                    Needs a GLOBAL prefix sum of token counts — computed
                    the Ray-native way: per-block partial sums → O(blocks)
                    driver offsets → one map pass adding block offset +
                    in-block cumsum. No all-to-all; the only ordered pass
                    is the doc_id sort (range shuffle).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ..sources.readers import read_pq
import ray.data

from ..functions.tokenize import SQL_TOKENIZE, tokenize_array
from ..functions.topk import topk_rows
from ..stages.joins import topk_per_key

SPLIT_MOD = 2_147_483_648  # 2^31 — keeps doc_id * MIX inside int64/BIGINT
SPLIT_MIX = 2_654_435_761
TRAIN_PERMILLE = 800
VAL_PERMILLE = 900


def train_val_split(sf_dir: str):
    """(doc_id, bucket, split) — 80/10/10 by a deterministic integer mix of
    doc_id. Stable under reruns, re-partitioning, and cluster size (the
    property a training pipeline needs so val docs never leak into train
    between runs)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        # reduce mod 2^31 BEFORE the mix so the product stays inside int64
        # for ANY doc_id (numpy would wrap silently, DuckDB would error —
        # either way the two engines diverge without this)
        bucket = (ids % SPLIT_MOD) * SPLIT_MIX % SPLIT_MOD % 1000
        split = np.where(bucket < TRAIN_PERMILLE, "train", np.where(bucket < VAL_PERMILLE, "val", "test"))
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "bucket": pa.array(bucket.astype(np.int64)),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_SQL_BUCKET = f"(doc_id % {SPLIT_MOD}) * {SPLIT_MIX} % {SPLIT_MOD} % 1000"

SQL_TRAIN_VAL_SPLIT = f"""
SELECT doc_id,
       {_SQL_BUCKET} AS bucket,
       CASE WHEN {_SQL_BUCKET} < {TRAIN_PERMILLE} THEN 'train'
            WHEN {_SQL_BUCKET} < {VAL_PERMILLE} THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


def pack_sequences(sf_dir: str, ctx: int = 256, keep_ref=None):
    """(doc_id, n_tokens, start_off, window_id, start_in_window) — docs in
    doc_id order packed head-to-tail into ``ctx``-token windows.

    start_off is the GLOBAL token prefix sum before this doc: per-block
    token totals are read once (O(blocks) driver work, zero data movement
    — the zip_with_index pattern, stages/joins.py), then one distributed
    pass adds block offset + in-block exclusive cumsum. All integer
    arithmetic, bit-identical to the SQL window-function oracle.

    ``keep_ref``: optional ray.put handle to a SORTED int64 doc_id array —
    packs only those docs (the composed training-data job's curate+mix
    survivors; zero-copy plasma view per batch, same membership pattern as
    webcorpus.drop_bad)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count_tokens(batch: pa.Table) -> pa.Table:
        if keep_ref is not None:
            batch = _keep_filter(batch, keep_ref)
        _, counts = tokenize_array(batch.column("text").to_pylist())
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_tokens": pa.array(counts.astype(np.int64))}
        )

    counted = ds.map_batches(count_tokens, batch_format="pyarrow").sort("doc_id").materialize()
    refs = counted.to_arrow_refs()

    @ray.remote
    def block_sum(t: pa.Table) -> int:
        return int(t.column("n_tokens").to_numpy().sum()) if t.num_rows else 0

    sums = ray.get([block_sum.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]]).astype(np.int64)

    @ray.remote
    def add_offsets(t: pa.Table, off: int) -> pa.Table:
        n = t.column("n_tokens").to_numpy().astype(np.int64)
        start = off + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tokens": pa.array(n),
                "start_off": pa.array(start),
                "window_id": pa.array(start // ctx),
                "start_in_window": pa.array(start % ctx),
            }
        )

    out_refs = [add_offsets.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


_SQL_NTOK = f"CAST(len({SQL_TOKENIZE.format(col='text')}) AS BIGINT)"

SQL_PACK_SEQUENCES = f"""
WITH counted AS (
    SELECT doc_id, {_SQL_NTOK} AS n_tokens FROM documents
), packed AS (
    SELECT doc_id, n_tokens,
           CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS start_off
    FROM counted
)
SELECT doc_id, n_tokens, start_off,
       start_off // 256 AS window_id,
       start_off % 256 AS start_in_window
FROM packed
"""


SAMPLE_MIX = 2_246_822_519  # decorrelated from SPLIT_MIX (different prime)
SAMPLE_K = 100


def sample_weighted(sf_dir: str, k: int = SAMPLE_K):
    """Deterministic WEIGHTED sample of k docs, weight = token count + 1 —
    sequential Poisson sampling (Ohlsson): rank by u/w ascending where u is
    a hash-derived uniform, take the k smallest. Inclusion probability is
    ∝ weight in the threshold regime, the sample is reproducible on every
    rerun and at any parallelism (no RNG), and the whole thing is a
    per-batch partial top-k + an O(blocks × k) driver merge — no shuffle.

    Float discipline: u and w are exact int64 (< 2^53), so u/w is ONE
    correctly-rounded IEEE division — bit-identical between numpy and the
    SQL oracle — and the rank order (priority, doc_id) cannot diverge.

    Output (doc_id, weight, rank)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        _, counts = tokenize_array(batch.column("text").to_pylist())
        wt = counts.astype(np.int64) + 1
        u = (ids % SPLIT_MOD) * SAMPLE_MIX % SPLIT_MOD
        pr = u.astype(np.float64) / wt
        order = np.lexsort((ids, pr))[:k]
        return pa.table(
            {
                "doc_id": pa.array(ids[order]),
                "weight": pa.array(wt[order]),
                "pr": pa.array(pr[order]),
            }
        )

    parts = [
        b for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pandas"
        )
    ]
    if not parts:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64), "weight": pd.Series(dtype=np.int64), "rank": pd.Series(dtype=np.int64)})
    out = pd.concat(parts, ignore_index=True)
    out = out.sort_values(["pr", "doc_id"], kind="mergesort").head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["doc_id", "weight", "rank"]].astype(np.int64)


STRATUM_K = 20


def sample_stratified(sf_dir: str, k: int = STRATUM_K):
    """Deterministic STRATIFIED sample: k docs per language stratum, ranked
    by the same hash-derived priority as sample_weighted (unweighted within
    a stratum, so priorities stay pure int64 — no float anywhere; the
    training-data op for balancing languages/domains in a mixture).

    Per-batch combiner keeps ≤ k rows per stratum before
    joins.topk_per_key, so the exchange is O(strata × blocks × k).
    NULL-lang rows are excluded on BOTH sides (both topk_rows and SQL would
    rank NULL as its own partition; a sample has no NULL stratum).
    Output (lang, doc_id, rank)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(batch.column("lang").is_valid())
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        t = pa.table({"lang": batch.column("lang"), "doc_id": ids, "u": (ids % SPLIT_MOD) * SAMPLE_MIX % SPLIT_MOD})
        return topk_rows(t, "lang", "u", "doc_id", k, False).drop_columns(["rank"])

    out = topk_per_key(ds.map_batches(partial, batch_format="pyarrow"), "lang", "u", "doc_id", k, False)
    return out.select_columns(["lang", "doc_id", "rank"])


SQL_SAMPLE_STRATIFIED = f"""
WITH ranked AS (
    SELECT lang, doc_id,
           ROW_NUMBER() OVER (PARTITION BY lang
                              ORDER BY (doc_id % {SPLIT_MOD}) * {SAMPLE_MIX} % {SPLIT_MOD}, doc_id) AS rank
    FROM documents
    WHERE lang IS NOT NULL
)
SELECT lang, doc_id, rank FROM ranked WHERE rank <= {STRATUM_K}
"""


SQL_SAMPLE_WEIGHTED = f"""
WITH w AS (
    SELECT doc_id,
           {_SQL_NTOK} + 1 AS weight,
           (doc_id % {SPLIT_MOD}) * {SAMPLE_MIX} % {SPLIT_MOD} AS u
    FROM documents
), ranked AS (
    SELECT doc_id, weight,
           ROW_NUMBER() OVER (ORDER BY CAST(u AS DOUBLE) / weight, doc_id) AS rank
    FROM w
)
SELECT doc_id, weight, rank FROM ranked WHERE rank <= {SAMPLE_K}
"""


# ------------------------------------------------- leakage-safe splitting

CLUSTER_BROADCAST_LIMIT = 2_000_000  # labeled docs that may sit in one map


def split_leakage_safe(sf_dir: str):
    """(doc_id, rep_id, bucket, split) — train/val/test assignment keyed by
    the document's near-dup CLUSTER representative instead of its own id.

    Splitting by doc_id alone puts near-identical documents on both sides
    of the train/eval boundary (the contamination path the C4/Pile cleanup
    literature warns about); here every doc of a duplicate cluster
    inherits the cluster's min doc_id (webcorpus.dup_clusters — chunk-share
    edges, contraction CC) as ``rep_id``, so the whole cluster lands in ONE
    split by construction. Unclustered docs keep rep_id = doc_id and get
    exactly the train_val_split assignment.

    Scale shape: dup_clusters labels only docs with ≥1 near-dup edge — a
    small fraction of a real corpus. Under CLUSTER_BROADCAST_LIMIT the
    label table rides one ``ray.put`` into a stateless map pass (no
    shuffle beyond dup_clusters' own); past it, a hash_bucket_join(left)
    keyed on doc_id — both regimes equality-tested."""
    from ..stages.joins import hash_bucket_join
    from .webcorpus import dup_clusters

    docs = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    clusters = dup_clusters(sf_dir)

    def finish_pd(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        rep = df["cluster_id"].fillna(pd.Series(ids, index=df.index)).to_numpy(np.int64)
        bucket = (rep % SPLIT_MOD) * SPLIT_MIX % SPLIT_MOD % 1000
        split = np.where(bucket < TRAIN_PERMILLE, "train", np.where(bucket < VAL_PERMILLE, "val", "test"))
        return pd.DataFrame(
            {
                "doc_id": ids,
                "rep_id": rep,
                "bucket": bucket.astype(np.int64),
                "split": split.astype(object),
            }
        )

    if isinstance(clusters, pa.Table):  # dup_clusters' typed empty result
        labels: dict[int, int] = {}
    else:
        clusters = clusters.materialize()
        if clusters.count() > CLUSTER_BROADCAST_LIMIT:
            joined = hash_bucket_join(docs, clusters, "doc_id", how="left")
            return joined.map_batches(finish_pd, batch_format="pandas")
        labels = {int(r["doc_id"]): int(r["cluster_id"]) for r in clusters.take_all()}
    lab_ref = ray.put(labels)

    def fn(batch: pa.Table) -> pa.Table:
        lab = ray.get(lab_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        rep = np.fromiter((lab.get(int(i), int(i)) for i in ids), dtype=np.int64, count=len(ids))
        bucket = (rep % SPLIT_MOD) * SPLIT_MIX % SPLIT_MOD % 1000
        split = np.where(bucket < TRAIN_PERMILLE, "train", np.where(bucket < VAL_PERMILLE, "val", "test"))
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "rep_id": pa.array(rep),
                "bucket": pa.array(bucket.astype(np.int64)),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


def _sql_split_leakage_safe() -> str:
    from .webcorpus import SQL_DUP_CLUSTERS

    rep = "COALESCE(c.cluster_id, d.doc_id)"
    bucket = f"({rep} % {SPLIT_MOD}) * {SPLIT_MIX} % {SPLIT_MOD} % 1000"
    return f"""
WITH clust AS ({SQL_DUP_CLUSTERS.strip()})
SELECT d.doc_id,
       {rep} AS rep_id,
       {bucket} AS bucket,
       CASE WHEN {bucket} < {TRAIN_PERMILLE} THEN 'train'
            WHEN {bucket} < {VAL_PERMILLE} THEN 'val'
            ELSE 'test' END AS split
FROM documents d LEFT JOIN clust c ON c.doc_id = d.doc_id
"""


import functools  # noqa: E402  (module tail, matching textops' lazy-SQL pattern)

sql_split_leakage_safe = functools.cache(_sql_split_leakage_safe)


# --------------------------------------------------- temperature mixing

MIX_BUDGET = 200  # total selected docs across all language sources
MIX_ALPHA_NOTE = "alpha = 0.5 via integer isqrt"


def _keep_filter(batch: pa.Table, keep_ref) -> pa.Table:
    """Restrict a batch to the broadcast SORTED doc_id array (zero-copy
    plasma view; searchsorted membership — webcorpus.drop_bad pattern)."""
    keep = ray.get(keep_ref)
    ids = batch.column("doc_id").to_numpy()
    if len(keep) == 0:
        return batch.slice(0, 0)
    idx = np.searchsorted(keep, ids)
    idx[idx == len(keep)] = 0
    return batch.filter(pa.array(keep[idx] == ids))


def mix_temperature(sf_dir: str, budget: int = MIX_BUDGET, keep_ref=None):
    """Temperature-weighted data-source mixing (the LLaMA/Pile mixing
    stage): per-language quotas proportional to n_lang^0.5 — upsampling
    low-resource languages relative to proportional sampling — then the
    deterministic hash-priority pick within each language (the
    sample_stratified machinery).  Output (lang, doc_id, rank, quota).

    Integer discipline: the temperature weight is math.isqrt(n) — SQL's
    CAST(floor(sqrt(n)) AS BIGINT) is identical for n < ~2^50 (IEEE sqrt
    is correctly rounded; between squares it cannot cross an integer at
    these magnitudes); quota = budget * w // sum(w) is floor arithmetic on
    both sides; priorities are the pure-int64 stratified hash.  A quota
    larger than a language's corpus truncates naturally on both sides.

    Scale shape: one tiny counts groupby (lang cardinality), quotas
    computed driver-side (bounded by #languages) and captured in the
    per-batch ≤ quota combiner, O(langs x blocks x quota) rows to the
    final merge — no corpus shuffle."""
    import math

    from ray.data.aggregate import Sum

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def count_partial(batch: pa.Table) -> pa.Table:
        if keep_ref is not None:
            batch = _keep_filter(batch, keep_ref)
        df = batch.to_pandas()
        df = df[df["lang"].notna()]
        g = df.groupby("lang", sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: one row per language
    )
    w = {r["lang"]: math.isqrt(int(r["n"])) for _, r in counts.iterrows()}
    tot = sum(w.values()) or 1
    quota = {lang: budget * wl // tot for lang, wl in w.items()}

    def pick_partial(batch: pa.Table) -> pa.Table:
        if keep_ref is not None:
            batch = _keep_filter(batch, keep_ref)
        df = batch.to_pandas()
        df = df[df["lang"].notna()].copy()
        df["u"] = (df["doc_id"] % SPLIT_MOD) * SAMPLE_MIX % SPLIT_MOD
        df = df.sort_values(["u", "doc_id"], kind="mergesort")
        df["q"] = df["lang"].map(quota).fillna(0).astype(np.int64)
        df = df.groupby("lang", sort=False).head(int(max(quota.values(), default=0)))
        keep = df.groupby("lang", sort=False).cumcount() < df["q"]
        return pa.Table.from_pandas(df.loc[keep, ["lang", "doc_id", "u"]], preserve_index=False)

    parts = ds.map_batches(pick_partial, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["u", "doc_id"], kind="mergesort")
    parts["rank"] = parts.groupby("lang", sort=False).cumcount() + 1
    parts["quota"] = parts["lang"].map(quota).astype(np.int64)
    out = parts[parts["rank"] <= parts["quota"]].reset_index(drop=True)
    out["rank"] = out["rank"].astype(np.int64)
    return out[["lang", "doc_id", "rank", "quota"]]


SQL_MIX_TEMPERATURE = f"""
WITH cnt AS (SELECT lang, COUNT(*) AS n FROM documents
             WHERE lang IS NOT NULL GROUP BY 1),
w AS (SELECT lang, CAST(floor(sqrt(n)) AS BIGINT) AS w FROM cnt),
q AS (SELECT lang, CAST({MIX_BUDGET} * w // (SELECT SUM(w) FROM w) AS BIGINT) AS quota FROM w),
ranked AS (
    SELECT lang, doc_id,
           ROW_NUMBER() OVER (PARTITION BY lang
                              ORDER BY (doc_id % {SPLIT_MOD}) * {SAMPLE_MIX} % {SPLIT_MOD}, doc_id) AS rank
    FROM documents WHERE lang IS NOT NULL
)
SELECT r.lang, r.doc_id, r.rank, q.quota
FROM ranked r JOIN q USING (lang) WHERE r.rank <= q.quota
"""


# --- RAG-style overlapping chunk windows ---

CHUNK_W = 32   # window length in tokens
CHUNK_S = 24   # stride (CHUNK_W - CHUNK_S tokens of overlap)


def chunk_windows(sf_dir: str, window: int = CHUNK_W, stride: int = CHUNK_S):
    """Split every document into overlapping token windows (the retrieval /
    context-chunking prep step): windows start at 0, S, 2S, ... and carry up
    to W tokens; the last window may be short; empty docs emit nothing.
    Chunk COUNT and boundaries are computed vectorized (ceil arithmetic over
    the per-doc token counts + one np.repeat); only the final chunk-text
    join is per-output-row, i.e. bounded by the result size, not the corpus
    token count. No shuffle at all — chunking is embarrassingly parallel.
    Output (doc_id, chunk_no, n_tokens, chunk_text)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy()
        off = np.concatenate([[0], np.cumsum(counts)])
        n = counts.astype(np.int64)
        n_chunks = np.where(n == 0, 0, np.maximum(n - window, 0) // stride
                            + (np.maximum(n - window, 0) % stride > 0) + 1)
        rep_doc = np.repeat(doc_ids, n_chunks)
        rep_off = np.repeat(off[:-1], n_chunks)
        rep_n = np.repeat(n, n_chunks)
        total = int(n_chunks.sum())
        chunk_no = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_chunks)[:-1]]), n_chunks
        )
        starts = rep_off + chunk_no * stride
        ends = np.minimum(starts + window, rep_off + rep_n)
        texts = [" ".join(toks[s:e]) for s, e in zip(starts, ends)]  # output-bound
        return pa.table(
            {
                "doc_id": pa.array(rep_doc),
                "chunk_no": pa.array(chunk_no),
                "n_tokens": pa.array(ends - starts),
                "chunk_text": pa.array(texts, pa.string()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_CHUNK_WINDOWS = f"""
WITH toks AS (
    SELECT doc_id, {SQL_TOKENIZE.format(col='text')} AS t FROM documents
),
meta AS (
    SELECT doc_id, t, len(t) AS n FROM toks WHERE len(t) > 0
),
chunks AS (
    SELECT doc_id, CAST(j AS BIGINT) AS chunk_no,
           list_slice(t, j * {CHUNK_S} + 1, j * {CHUNK_S} + {CHUNK_W}) AS ct
    FROM meta, UNNEST(range(0,
        CASE WHEN n <= {CHUNK_W} THEN 1
             ELSE (n - {CHUNK_W} + {CHUNK_S} - 1) // {CHUNK_S} + 1 END)) AS g(j)
)
SELECT doc_id, chunk_no, CAST(len(ct) AS BIGINT) AS n_tokens,
       array_to_string(ct, ' ') AS chunk_text
FROM chunks
"""


# --- deterministic global training-order shuffle + sharding ---

SHARD_SIZE = 64


def shuffle_shards(sf_dir: str, shard_size: int = SHARD_SIZE):
    """Deterministic global SHUFFLE for training order + shard assignment:
    every doc gets rank = splitmix64(doc_id) (the SQL-twinned mixer — a
    seedable pseudo-random permutation with no RNG state), one range-
    partitioned sort by (rank, doc_id) fixes the global order, and
    stages/joins.zip_with_index numbers rows from per-block counts (O(blocks)
    driver ints). Shards are contiguous runs of ``shard_size`` positions —
    the resumable-epoch layout (shard = file, pos = offset). Output
    (doc_id, shard, pos_in_shard)."""
    from ..functions.hashing import splitmix64
    from ..stages.joins import zip_with_index

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_rank(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        # keep rk UNSIGNED: int64-casting would wrap high hashes negative,
        # while the SQL twin orders the HUGEINT x in [0, 2^64)
        return batch.append_column("rk", pa.array(splitmix64(d)))

    srt = ds.map_batches(add_rank, batch_format="pyarrow").sort(["rk", "doc_id"])

    def to_shard(t: pa.Table) -> pa.Table:
        pos = t.column("row_id").to_numpy()
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "shard": pa.array(pos // shard_size),
                "pos_in_shard": pa.array(pos % shard_size),
            }
        )

    return zip_with_index(srt, "row_id").map_batches(to_shard, batch_format="pyarrow")


def sql_shuffle_shards(shard_size: int = SHARD_SIZE) -> str:
    from ..sources.derived import sql_splitmix64_chain

    chain = sql_splitmix64_chain("documents", ["doc_id"], "doc_id", "mx")
    return f"""
WITH {chain},
ranked AS (
    SELECT doc_id,
           ROW_NUMBER() OVER (ORDER BY x, doc_id) - 1 AS pos
    FROM mx
)
SELECT doc_id, pos // {shard_size} AS shard, pos % {shard_size} AS pos_in_shard
FROM ranked
"""


def class_balance(sf_dir: str):
    """Class-balanced downsampling: keep exactly min-class-count docs per
    language, chosen by the deterministic splitmix64(doc_id) priority order
    (no RNG, resumable — the balanced-training-set prep). Two stages: a
    langs-bounded count aggregate fixes the quota (broadcast scalar), then
    one lang-keyed exchange ranks per language by (hash, doc_id) and cuts —
    the same priority discipline as sample_stratified. Output
    (lang, doc_id, rank)."""
    from ..functions.hashing import splitmix64
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = batch.filter(pc.is_valid(batch.column("lang")))
        u, c = np.unique(t.column("lang").to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"lang": pa.array(u.astype(object), pa.string()), "n": pa.array(c.astype(np.int64))})

    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # langs-bounded
    )
    quota = int(counts["n"].min())

    def per_lang(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["lang"].notna()].copy()
        if not len(df):
            return pd.DataFrame(
                {"lang": pd.Series(dtype=object), "doc_id": pd.Series(dtype=np.int64),
                 "rank": pd.Series(dtype=np.int64)}
            )
        df["h"] = splitmix64(df["doc_id"].to_numpy(np.int64).astype(np.uint64))
        df = df.sort_values(["lang", "h", "doc_id"], kind="mergesort")
        df["rank"] = df.groupby("lang", sort=False).cumcount() + 1
        out = df[df["rank"] <= quota]
        return pd.DataFrame(
            {
                "lang": out["lang"].to_numpy(object),
                "doc_id": out["doc_id"].to_numpy(np.int64),
                "rank": out["rank"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(ds, "lang", per_lang)


def sql_class_balance() -> str:
    from ..sources.derived import sql_splitmix64_chain

    chain = sql_splitmix64_chain(
        "(SELECT doc_id, lang FROM documents WHERE lang IS NOT NULL)", ["doc_id", "lang"], "doc_id", "mx"
    )
    return f"""
WITH {chain},
q AS (SELECT MIN(n) AS quota FROM (SELECT COUNT(*) AS n FROM documents WHERE lang IS NOT NULL GROUP BY lang)),
ranked AS (
    SELECT lang, doc_id,
           ROW_NUMBER() OVER (PARTITION BY lang ORDER BY x, doc_id) AS rank
    FROM mx
)
SELECT lang, doc_id, rank FROM ranked WHERE rank <= (SELECT quota FROM q)
"""
