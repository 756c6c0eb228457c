"""End-to-end corpus curation funnel — the composed webtext-cleaning
pipeline a training-data engine exists for (C4/CCNet-style, built entirely
from this repo's own operator kernels):

    eval holdout → quality gate → language gate → near-dup removal →
    benchmark decontamination → kept

Every document receives exactly ONE verdict: the first stage that drops it
(precedence above), or ``kept``. The whole composition is deterministic and
SQL-expressible, so the driver hash-checks the full funnel end to end —
stage kernels reused: tokenizer contract (functions/tokenize.py), langid
stopword sets (stages/textstats.py), shingle window (textops._shingles),
bounded hash-partition dedup (stages/joins.hash_partitioned_apply).

Stage semantics (constants below; chosen so every verdict class is
populated at the test fixtures):
  eval_holdout  doc_id % EVAL_MOD == 0 — the held-out "benchmark" subset
                (removed from the corpus; it is what decontamination
                protects).
  quality       n_tokens < MIN_TOKENS, or distinct-token ratio < 2/5 —
                the integer form 5·n_distinct < 2·n_tokens, so the
                comparison is exact on both sides (no float threshold).
  langid        zero stopword hits across every language's set — exactly
                textstats.predict_lang(...) == 'unknown'.
  duplicate     among surviving docs, not the lowest doc_id for its
                PREFIX_TOKENS-token prefix key (the cheap boilerplate-prefix
                near-dup rule; exact-text dedup is pipelines/dedup_pipelines
                — this fixture has no exact dups, a prefix key exercises
                the stage for real).
  contaminated  any CONTAM_N-token shingle also occurs in the eval holdout.

Scale shape: one classify scan (no shuffle) → one bounded hash-partition
exchange keyed by the prefix (only surviving docs carry text bytes through
it) → one broadcast-membership scan (eval shingles are benchmark-sized,
ray.put once). No driver-side corpus structure anywhere.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ..sources.readers import read_pq
import ray.data

from ..functions.tokenize import SQL_TOKENIZE, tokenize_array
from ..stages.textstats import LANG_STOPWORDS
from .textops import CONTAM_N, EVAL_MOD, _shingles

MIN_TOKENS = 20
UNIQ_NUM, UNIQ_DEN = 2, 5  # drop when UNIQ_DEN·n_distinct < UNIQ_NUM·n_tokens
PREFIX_TOKENS = 3

_ALL_STOPWORDS = np.array(sorted(set().union(*LANG_STOPWORDS.values())), dtype=object)


def _classify(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, code, pfx, text) — text kept ONLY for
    'pass' rows (later stages never read dropped docs' bytes)."""
    ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    toks, counts = tokenize_array(texts)
    n = counts.astype(np.int64)
    off = np.concatenate([[0], np.cumsum(counts)])
    if len(toks):
        wdoc = np.repeat(np.arange(len(ids)), counts)
        hits = np.bincount(wdoc[np.isin(toks, _ALL_STOPWORDS)], minlength=len(ids))
        d = (
            pd.Series(toks)
            .groupby(pd.Series(wdoc))
            .nunique()
            .reindex(range(len(ids)), fill_value=0)
            .to_numpy(np.int64)
        )
    else:
        hits = np.zeros(len(ids), np.int64)
        d = np.zeros(len(ids), np.int64)
    code = np.where(
        ids % EVAL_MOD == 0,
        "eval_holdout",
        np.where(
            (n < MIN_TOKENS) | (UNIQ_DEN * d < UNIQ_NUM * n),
            "quality",
            np.where(hits == 0, "langid", "pass"),
        ),
    )
    pfx = [" ".join(toks[off[i] : off[i] + min(PREFIX_TOKENS, n[i])].tolist()) for i in range(len(ids))]
    kept_text = [t if c == "pass" else "" for t, c in zip(texts, code)]
    return pa.table(
        {
            "doc_id": pa.array(ids.astype(np.int64)),
            "code": pa.array(code.astype(object), pa.string()),
            "pfx": pa.array(pfx, pa.string()),
            "text": pa.array(kept_text, pa.string()),
        }
    )


def _mark_prefix_dups(df: pd.DataFrame) -> pd.DataFrame:
    """Within a hash partition: among 'pass' rows, every doc that is not
    the lowest doc_id of its prefix group becomes 'duplicate'."""
    df = df.copy()
    is_pass = df["code"] == "pass"
    if is_pass.any():
        sub = df.loc[is_pass]
        keep_min = sub.groupby("pfx")["doc_id"].transform("min")
        dup_idx = sub.index[sub["doc_id"] != keep_min]
        df.loc[dup_idx, "code"] = "duplicate"
        df.loc[dup_idx, "text"] = ""
    return df[["doc_id", "code", "text"]]


def curate_corpus(sf_dir: str):
    """(doc_id, verdict) for EVERY document — the funnel's one-frame audit."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    # eval-holdout shingles: benchmark-sized by construction → collect
    # sorted-unique once, broadcast (same shape as contamination_check)
    def eval_partial(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pa.array(batch.column("doc_id").to_numpy() % EVAL_MOD == 0))
        g, _ = _shingles(sub, CONTAM_N)
        return pa.table({"g": pa.array(np.unique(g).astype(object), pa.string())})

    eval_parts = [
        b.column("g").to_numpy(zero_copy_only=False)
        for b in ds.map_batches(eval_partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    ]
    eval_ref = ray.put(np.unique(np.concatenate(eval_parts)) if eval_parts else np.empty(0, object))

    deduped = hash_partitioned_apply(
        ds.map_batches(_classify, batch_format="pyarrow"), "pfx", _mark_prefix_dups, num_parts=64
    )

    def finish(batch: pa.Table) -> pa.Table:
        ev = ray.get(eval_ref)
        code = np.asarray(batch.column("code").to_pylist(), dtype=object)
        is_pass = code == "pass"
        if is_pass.any():
            sub = batch.filter(pa.array(is_pass))
            g, nw = _shingles(sub, CONTAM_N)
            if len(g) and len(ev):
                pos = np.minimum(np.searchsorted(ev, g), len(ev) - 1)
                hit = (ev[pos] == g).astype(np.int64)
            else:
                hit = np.zeros(len(g), np.int64)
            wdoc = np.repeat(np.arange(len(nw), dtype=np.int64), nw)
            per_doc = np.bincount(wdoc[hit > 0], minlength=len(nw))
            code[is_pass] = np.where(per_doc > 0, "contaminated", "kept")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "verdict": pa.array(code.astype(object), pa.string()),
            }
        )

    return deduped.map_batches(finish, batch_format="pyarrow")


_T = SQL_TOKENIZE.format(col="text")
_SW = ", ".join(f"'{w}'" for w in sorted(set().union(*LANG_STOPWORDS.values())))

SQL_CURATE_CORPUS = f"""
WITH toks AS (SELECT doc_id, {_T} AS t FROM documents),
cls AS (
    SELECT doc_id, t,
           array_to_string(t[1:{PREFIX_TOKENS}], ' ') AS pfx,
           CASE WHEN doc_id % {EVAL_MOD} = 0 THEN 'eval_holdout'
                WHEN len(t) < {MIN_TOKENS}
                     OR {UNIQ_DEN} * len(list_distinct(t)) < {UNIQ_NUM} * len(t) THEN 'quality'
                WHEN len(list_filter(t, x -> x IN ({_SW}))) = 0 THEN 'langid'
                ELSE 'pass' END AS code
    FROM toks),
ded AS (
    SELECT doc_id,
           CASE WHEN code = 'pass'
                     AND doc_id <> MIN(CASE WHEN code = 'pass' THEN doc_id END)
                                   OVER (PARTITION BY pfx)
                THEN 'duplicate' ELSE code END AS code
    FROM cls),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+{CONTAM_N - 1}], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - {CONTAM_N - 2})) AS u(i)
    WHERE len(t) >= {CONTAM_N}),
eval_g AS (SELECT DISTINCT g FROM grams WHERE doc_id % {EVAL_MOD} = 0),
contam AS (SELECT DISTINCT gr.doc_id FROM grams gr JOIN eval_g e USING (g))
SELECT d.doc_id,
       CASE WHEN d.code = 'pass'
            THEN CASE WHEN c.doc_id IS NOT NULL THEN 'contaminated' ELSE 'kept' END
            ELSE d.code END AS verdict
FROM ded d LEFT JOIN contam c ON d.doc_id = c.doc_id
"""


# ------------------------------------------- CCNet perplexity bucketing

PPX_SENTINEL = 1 << 62  # -inf logprob or zero tokens -> worst bucket
CCNET_K = 3  # head / middle / tail


def ccnet_buckets(sf_dir: str, k: int = CCNET_K):
    """CCNet-style head/middle/tail partition (Wenzek et al. 2020,
    arXiv:1911.00359): every doc scored by the corpus's own 4-gram
    stupid-backoff LM (search_docs.lm_doc_scores — per-batch scoring,
    broadcast LM), ranked by per-token perplexity proxy and cut into k
    equal NTILE buckets — bucket 1 = head (lowest perplexity), k = tail.

    Integer discipline: ppx_scaled = (-logprob_milli * 1000) // n_tokens —
    the numerator is non-negative (logprob <= 0) so floor == truncate and
    numpy `//` equals SQL `//` exactly; -inf-scored or token-free docs get
    PPX_SENTINEL (always the tail).  Output (doc_id, ppx_scaled, bucket).

    Scale: LM scoring is one streaming scan; the NTILE is the
    global_rank machinery — one range-exchange sort + per-block offsets
    (O(blocks) driver ints, no data re-movement after the sort)."""
    from ..stages.joins import zip_with_index
    from .search_docs import lm_doc_scores

    scores = lm_doc_scores(sf_dir)

    def to_ppx(t: pa.Table) -> pa.Table:
        lp = t.column("logprob_milli").to_numpy()
        nt = t.column("n_tokens").to_numpy()
        ok = (t.column("is_finite").to_numpy() == 1) & (nt > 0)
        ppx = np.full(len(lp), PPX_SENTINEL, np.int64)
        ppx[ok] = (-lp[ok] * 1000) // nt[ok]
        return pa.table({"doc_id": t.column("doc_id"), "ppx_scaled": pa.array(ppx)})

    px = scores.map_batches(to_ppx, batch_format="pyarrow")
    # row count from parquet metadata (scoring is 1:1 per doc) — never
    # execute the LM scan twice just to size the buckets
    n = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    srt = px.sort(["ppx_scaled", "doc_id"])
    sizes = np.full(k, n // k, np.int64)
    sizes[: n % k] += 1
    bounds = np.cumsum(sizes)  # exact SQL NTILE rule (relational.ntile_chars)

    def add_bucket(t: pa.Table) -> pa.Table:
        rank = t.column("row_id").to_numpy(zero_copy_only=False)
        b = np.searchsorted(bounds, rank, side="right") + 1
        return t.drop_columns(["row_id"]).append_column("bucket", pa.array(b.astype(np.int64)))

    return zip_with_index(srt, "row_id").map_batches(add_bucket, batch_format="pyarrow")


def _sql_ccnet_buckets() -> str:
    from .search_docs import sql_lm_doc_scores

    return f"""
WITH scores AS ({sql_lm_doc_scores()}),
px AS (SELECT doc_id,
              CASE WHEN is_finite = 1 AND n_tokens > 0
                   THEN (-logprob_milli * 1000) // n_tokens
                   ELSE {PPX_SENTINEL} END AS ppx_scaled
       FROM scores)
SELECT doc_id, ppx_scaled,
       CAST(NTILE({CCNET_K}) OVER (ORDER BY ppx_scaled, doc_id) AS BIGINT) AS bucket
FROM px
"""


sql_ccnet_buckets = functools.cache(_sql_ccnet_buckets)
