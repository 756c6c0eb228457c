"""Web-corpus maintenance operators over the derived Common-Crawl-style
``web_pages`` table (sources/derived.py: url / domain / warc_ts from doc_id
arithmetic — every pipeline here is oracle-checkable against DuckDB).

Operators (all Ray-Data-first, every exchange is an explicit bounded hash
partition — no driver-side corpus state):

  * ``url_latest``      — crawl-snapshot compaction: keep the newest
                          (warc_ts, doc_id) crawl per url. The CDC/upsert
                          analogue of the reference's doc-store rewrite
                          (/root/reference/pkg/index/indexer.go builds its
                          store from the latest extract only).
  * ``domain_stats``    — per-domain rollup with two exact distinct counts.
  * ``domain_cap``      — deterministic per-domain document cap (the
                          RefinedWeb-style anti-spam quota).
  * ``chunk_dedup``     — CCNet-style boilerplate removal: 5-token chunks
                          that occur in >= MIN_DOCS distinct docs are
                          dropped from every doc, text reassembled in chunk
                          order.
  * ``dup_clusters``    — connected components over the "docs sharing a
                          duplicated chunk" graph by iterative min-label
                          propagation (the distributed union-find analogue;
                          converges in graph-diameter rounds).

Scale notes (100 TB): the chunk explode is fully vectorized Arrow
(split_pattern + offset regrouping + binary_join — no per-row Python); doc
frequencies / anti-join / reassembly are three bounded hash exchanges keyed
by chunk, chunk, doc_id; label propagation ships only (node, label) pairs
per round. Hot chunks are capped (MAX_CLIQUE) before pair expansion, the
same discipline as stages/dedup.py's banded MinHash verify.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..sources.readers import read_pq
from ..sources.memo import memo

from ..sources import derived as dv
from ..functions.topk import topk_rows
from ..stages.joins import hash_partitioned_apply, topk_per_key

CHUNK_WORDS = 5
MIN_DOCS = 2  # chunk in >= this many distinct docs -> boilerplate
MAX_CLIQUE = 10  # dup_clusters: ignore chunks shared by more docs (hub guard)
DOMAIN_CAP_K = 5
_SQL_CHUNKS = """
ws AS (SELECT doc_id, string_split(text, ' ') AS words FROM documents),
chunklists AS (
    SELECT doc_id,
           list_transform(range(0, CAST(ceil(len(words) / 5.0) AS BIGINT)),
                          j -> array_to_string(words[j*5+1 : j*5+5], ' ')) AS chunks
    FROM ws),
chunks AS (
    SELECT doc_id, unnest(chunks) AS chunk, unnest(range(0, len(chunks))) AS ci
    FROM chunklists)"""


# ------------------------------------------------------------- url snapshots


def _latest_combine(df: pd.DataFrame, n_col: str) -> pd.DataFrame:
    """Keep the max-(warc_ts_us, doc_id) row per url, summing n_col."""
    df = df.sort_values(["url", "warc_ts_us", "doc_id"], kind="mergesort")
    keep = df.drop_duplicates("url", keep="last")[["url", "doc_id", "warc_ts_us"]]
    n = df.groupby("url", sort=False)[n_col].sum()
    out = keep.merge(n.rename("n_snapshots"), on="url")
    return pd.DataFrame(
        {
            "url": out["url"],
            "doc_id": out["doc_id"].to_numpy(np.int64),
            "warc_ts_us": out["warc_ts_us"].to_numpy(np.int64),
            "n_snapshots": out["n_snapshots"].to_numpy(np.int64),
        }
    )


def url_latest(sf_dir: str):
    """Snapshot compaction: one row per url — the crawl with the largest
    (warc_ts, doc_id) — plus how many snapshots it superseded.

    Shape: per-batch argmax combiner (exchange carries <= |urls-in-batch|
    rows), then ONE url-hash exchange for the exact argmax + count."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "url", "warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "url": batch.column("url").to_pandas(),
                "doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False),
                "warc_ts_us": batch.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False),
            }
        )
        df["n"] = np.ones(len(df), np.int64)
        return pa.Table.from_pandas(_latest_combine(df, "n"), preserve_index=False)

    partials = wp.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_apply(
        partials, "url", lambda df: _latest_combine(df, "n_snapshots"), num_parts=32
    )


SQL_URL_LATEST = f"""
WITH {dv.SQL_WEB_PAGES.strip()},
ranked AS (
    SELECT url, doc_id, epoch_us(warc_ts) AS warc_ts_us,
           ROW_NUMBER() OVER (PARTITION BY url ORDER BY warc_ts DESC, doc_id DESC) AS rn,
           COUNT(*) OVER (PARTITION BY url) AS n_snapshots
    FROM web_pages)
SELECT url, doc_id, warc_ts_us, n_snapshots FROM ranked WHERE rn = 1
"""


# --------------------------------------------------------------- domain agg


def domain_stats(sf_dir: str):
    """Per-domain rollup: page count, total chars, exact distinct urls and
    langs. The url distinct (unbounded cardinality — a mega-domain can hold
    10⁹ urls) is a per-batch-deduped combiner feeding a url-keyed bounded
    exchange so hot domains stay spread; the lang distinct is inherently
    bounded (≤ |domains| × |langs| pairs per batch), so its per-batch-distinct
    pairs share ONE corpus scan with the page-count partials and ride the
    final domain-keyed fuse exchange directly — two corpus reads, two
    exchanges, no driver sets."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "lang", "n_chars", "domain", "url"])

    def _frame(domain, n_pages, total_chars, n_urls, lang) -> pa.Table:
        return pa.table(
            {
                "domain": pa.array(domain, pa.string()),
                "n_pages": pa.array(n_pages),
                "total_chars": pa.array(total_chars),
                "n_urls": pa.array(n_urls),
                "lang": pa.array(lang, pa.string()),
            }
        )

    def partial_pages_langs(batch: pa.Table) -> pa.Table:
        """One scan serves both fuse-bound streams: per-domain (count, chars)
        partials AND the per-batch-distinct (domain, lang) pairs."""
        df = batch.select(["domain", "n_chars", "lang"]).to_pandas()
        g = df.groupby("domain", sort=False)["n_chars"].agg(["size", "sum"]).reset_index()
        n = len(g)
        pages = _frame(
            g["domain"],
            g["size"].to_numpy(np.int64),
            g["sum"].to_numpy(np.int64),
            np.zeros(n, np.int64),
            [""] * n,
        )
        # NULL langs are excluded on BOTH sides: SQL's COUNT(DISTINCT lang)
        # ignores NULLs, while pandas drop_duplicates would keep NaN as a
        # value (ADVICE r03; sample_stratified's discipline)
        dl = df.loc[df["lang"].notna(), ["domain", "lang"]].drop_duplicates()
        m = len(dl)
        z = np.zeros(m, np.int64)
        return pa.concat_tables([pages, _frame(dl["domain"], z, z, z, dl["lang"])])

    def partial_urls(batch: pa.Table) -> pa.Table:
        df = batch.select(["domain", "url"]).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def count_urls(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates().groupby("domain", sort=False).size().reset_index(name="k")
        n = len(g)
        z = np.zeros(n, np.int64)
        return pd.DataFrame(
            {
                "domain": g["domain"],
                "n_pages": z,
                "total_chars": z,
                "n_urls": g["k"].to_numpy(np.int64),
                "lang": [""] * n,
            }
        )

    pages_langs = wp.map_batches(partial_pages_langs, batch_format="pyarrow")
    # url determines its domain, so a url-keyed dedup is domain-exact
    urls = hash_partitioned_apply(
        wp.map_batches(partial_urls, batch_format="pyarrow"), "url", count_urls, num_parts=32
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("domain", sort=False)[["n_pages", "total_chars", "n_urls"]].sum()
        nl = (
            df[(df["lang"] != "") & df["lang"].notna()]
            .drop_duplicates(["domain", "lang"])
            .groupby("domain", sort=False)
            .size()
        )
        out = g.join(nl.rename("n_langs")).reset_index()
        for c in ["n_pages", "total_chars", "n_urls", "n_langs"]:
            out[c] = out[c].fillna(0).astype(np.int64)
        return out

    return hash_partitioned_apply(pages_langs.union(urls), "domain", fuse, num_parts=16)


SQL_DOMAIN_STATS = f"""
WITH {dv.SQL_WEB_PAGES.strip()}
SELECT domain,
       COUNT(*) AS n_pages,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       COUNT(DISTINCT url) AS n_urls,
       COUNT(DISTINCT lang) AS n_langs
FROM web_pages GROUP BY 1
"""


def domain_cap(sf_dir: str, k: int = DOMAIN_CAP_K):
    """Per-domain quota: keep the k lowest-doc_id pages per domain (the
    deterministic stand-in for a quality-ordered cap). Combiner keeps <= k
    rows per (batch, domain) before the single domain exchange."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "domain"])

    def partial(batch: pa.Table) -> pa.Table:
        t = topk_rows(batch.select(["domain", "doc_id"]), "domain", "doc_id", "doc_id", k, False)
        return t.drop_columns(["rank"])

    partials = wp.map_batches(partial, batch_format="pyarrow")
    ranked = topk_per_key(partials, "domain", "doc_id", "doc_id", k, False)
    return ranked.rename_columns({"rank": "rn"})


SQL_DOMAIN_CAP = f"""
WITH {dv.SQL_WEB_PAGES.strip()},
ranked AS (
    SELECT domain, doc_id,
           ROW_NUMBER() OVER (PARTITION BY domain ORDER BY doc_id) AS rn
    FROM web_pages)
SELECT domain, doc_id, rn FROM ranked WHERE rn <= {DOMAIN_CAP_K}
"""


def domain_top_lang(sf_dir: str):
    """Grouped argmax / deterministic mode: each domain's most frequent
    language (ties broken by lexicographically smallest lang — exact on both
    sides, unlike SQL's nondeterministic mode()). Two-level combiner: per-
    batch (domain, lang) counts → ONE domain-keyed exchange → count merge +
    vectorized per-domain argmax. Output (domain, top_lang, n_pages)."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "lang", "domain"])

    def partial(batch: pa.Table) -> pa.Table:
        # NULL-lang pages are excluded EXPLICITLY (pandas groupby silently
        # drops NaN keys while SQL GROUP BY keeps NULL as a group and could
        # even elect it as top_lang — ADVICE r03; the SQL twin filters
        # lang IS NOT NULL to match)
        df = batch.select(["domain", "lang"]).to_pandas()
        df = df[df["lang"].notna()]
        g = df.groupby(["domain", "lang"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["domain", "lang"], sort=False, as_index=False)["n"].sum()
        g = g.sort_values(["domain", "n", "lang"], ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("domain", keep="first")
        return pd.DataFrame(
            {
                "domain": top["domain"],
                "top_lang": top["lang"],
                "n_pages": top["n"].to_numpy(np.int64),
            }
        )

    partials = wp.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_apply(partials, "domain", final, num_parts=16)


SQL_DOMAIN_TOP_LANG = f"""
WITH {dv.SQL_WEB_PAGES.strip()},
counts AS (
    SELECT domain, lang, COUNT(*) AS n FROM web_pages
    WHERE lang IS NOT NULL GROUP BY 1, 2),
ranked AS (
    SELECT domain, lang, n,
           ROW_NUMBER() OVER (PARTITION BY domain ORDER BY n DESC, lang) AS rn
    FROM counts)
SELECT domain, lang AS top_lang, n AS n_pages FROM ranked WHERE rn = 1
"""


# ----------------------------------------------------- SCD-2 url history


def url_history(sf_dir: str):
    """Slowly-changing-dimension (type 2) view of the crawl: every snapshot
    of every url gets its validity interval [valid_from_us, valid_to_us) —
    the LEAD window per url — plus its 1-based snapshot_no. The open (latest)
    interval carries valid_to_us = -1. Complements ``url_latest`` (which
    keeps only the newest snapshot): this is the temporal-join side table a
    point-in-time crawl query reads.

    Shape: ONE url-keyed bounded hash exchange; inside each partition the
    per-url groups are sorted once and LEAD/rank come from a vectorized
    shift/cumcount — no per-group Python loop, no driver state."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "url", "warc_ts"])

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": batch.column("url"),
                "doc_id": batch.column("doc_id"),
                "ts_us": batch.column("warc_ts").cast(pa.int64()),
            }
        )

    def per_url(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["url", "ts_us", "doc_id"], kind="mergesort")
        g = df.groupby("url", sort=False)
        return pd.DataFrame(
            {
                "url": df["url"],
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "valid_from_us": df["ts_us"].to_numpy(np.int64),
                "valid_to_us": g["ts_us"].shift(-1).fillna(-1).to_numpy(np.int64),
                "snapshot_no": (g.cumcount() + 1).to_numpy(np.int64),
            }
        )

    tagged = wp.map_batches(tag, batch_format="pyarrow")
    return hash_partitioned_apply(tagged, "url", per_url, num_parts=32)


SQL_URL_HISTORY = f"""
WITH {dv.SQL_WEB_PAGES.strip()}
SELECT url, doc_id,
       epoch_us(warc_ts) AS valid_from_us,
       COALESCE(LEAD(epoch_us(warc_ts))
                OVER (PARTITION BY url ORDER BY warc_ts, doc_id), -1) AS valid_to_us,
       ROW_NUMBER() OVER (PARTITION BY url ORDER BY warc_ts, doc_id) AS snapshot_no
FROM web_pages
"""


def visit_snapshots(sf_dir: str):
    """Point-in-time (temporal) join: each visit in the derived visit log
    (sources/derived.visit_urls) is joined to the url snapshot that was
    live at its timestamp — the SCD-2 lookup every crawl-aware analytics
    query runs against ``url_history``. Visits before a url's first
    snapshot drop (inner join).

    Shape: snapshots and visits meet in ONE url-keyed bounded exchange; the
    per-partition kernel is a single vectorized ``pd.merge_asof(by=url)``
    (backward as-of). Because SCD-2 intervals chain contiguously
    (valid_to == next valid_from), the backward as-of IS the interval
    containment test — no post-filter, no per-group loop.

    Output (event_id, url, doc_id, snapshot_no)."""
    snaps = url_history(sf_dir)
    visits = dv.visit_urls(sf_dir)

    def tag_snap(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "url": batch.column("url"),
                "ts_us": batch.column("valid_from_us"),
                "a": batch.column("doc_id"),
                "b": batch.column("snapshot_no"),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def tag_visit(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "url": batch.column("url"),
                "ts_us": batch.column("ts_us"),
                "a": batch.column("event_id"),
                "b": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    both = snaps.map_batches(tag_snap, batch_format="pyarrow").union(
        visits.map_batches(tag_visit, batch_format="pyarrow")
    )

    def pit(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["side"] == 1].sort_values("ts_us", kind="mergesort")
        v = df[df["side"] == 0].sort_values("ts_us", kind="mergesort")
        m = pd.merge_asof(
            v[["url", "ts_us", "a"]].rename(columns={"a": "event_id"}),
            s[["url", "ts_us", "a", "b"]].rename(columns={"a": "doc_id", "b": "snapshot_no"}),
            on="ts_us",
            by="url",
            direction="backward",
        ).dropna(subset=["doc_id"])
        return pd.DataFrame(
            {
                "event_id": m["event_id"].to_numpy(np.int64),
                "url": m["url"],
                "doc_id": m["doc_id"].to_numpy(np.int64),
                "snapshot_no": m["snapshot_no"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(both, "url", pit, num_parts=32)


SQL_VISIT_SNAPSHOTS = f"""
WITH {dv.SQL_WEB_PAGES.strip()},
history AS (
    SELECT url, doc_id, epoch_us(warc_ts) AS valid_from_us,
           COALESCE(LEAD(epoch_us(warc_ts))
                    OVER (PARTITION BY url ORDER BY warc_ts, doc_id), -1) AS valid_to_us,
           ROW_NUMBER() OVER (PARTITION BY url ORDER BY warc_ts, doc_id) AS snapshot_no
    FROM web_pages),
{dv.SQL_VISITS.strip()}
SELECT v.event_id, v.url, h.doc_id, h.snapshot_no
FROM visits v
JOIN history h ON h.url = v.url
 AND v.ts_us >= h.valid_from_us AND (v.ts_us < h.valid_to_us OR h.valid_to_us = -1)
"""


# ----------------------------------------------------- chunk explode (Arrow)


def explode_chunks(ds: "ray.data.Dataset", chunk_words: int = CHUNK_WORDS):
    """documents → (doc_id, ci, chunk, chash): consecutive
    ``chunk_words``-token spans, fully vectorized (split_pattern → offset
    regrouping → binary_join; the only Python loop is over Arrow chunks).

    ``chash`` is a deterministic int64 SipHash of the chunk string —
    downstream exchanges key on it instead of shipping the string
    (VERDICT r03 item 2; ~|chunks|²/2⁶⁵ collision odds, the bound
    ngram_jaccard_pairs_ds already accepts)."""

    def fn(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch.column("text"), " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        offsets = words.offsets.to_numpy()
        w = np.diff(offsets)
        c = -(-w // chunk_words)  # ceil: chunks per doc
        tot = int(c.sum())
        cum = np.concatenate([[0], np.cumsum(c)[:-1]])
        ci = np.arange(tot, dtype=np.int64) - np.repeat(cum, c)
        starts = np.repeat(offsets[:-1], c) + ci * chunk_words
        offs_new = np.concatenate([starts, offsets[-1:]])
        if pa.types.is_large_list(words.type):
            chunk_list = pa.LargeListArray.from_arrays(
                pa.array(offs_new.astype(np.int64), pa.int64()), words.values
            )
        else:
            chunk_list = pa.ListArray.from_arrays(
                pa.array(offs_new.astype(np.int32), pa.int32()), words.values
            )
        chunk_str = pc.binary_join(chunk_list, " ")
        doc_rep = np.repeat(
            batch.column("doc_id").to_numpy(zero_copy_only=False), c
        )
        chash = (
            pd.util.hash_pandas_object(chunk_str.to_pandas(), index=False)
            .to_numpy()
            .astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_rep),
                "ci": pa.array(ci),
                "chunk": chunk_str,
                "chash": pa.array(chash),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _chunk_doc_freq(exploded: "ray.data.Dataset"):
    """(chash, ndocs distinct) — per-batch (chash, doc) dedup combiner, then
    ONE int64-keyed exchange for the exact distinct count. The chunk STRING
    never enters this exchange (VERDICT r03 item 2)."""

    def combiner(batch: pa.Table) -> pa.Table:
        df = batch.select(["chash", "doc_id"]).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def count(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.drop_duplicates()
            .groupby("chash", sort=False)
            .size()
            .reset_index(name="ndocs")
        )
        g["ndocs"] = g["ndocs"].astype(np.int64)
        return g

    return hash_partitioned_apply(
        exploded.map_batches(combiner, batch_format="pyarrow"), "chash", count, num_parts=32
    )


# boilerplate chunks (doc-freq >= MIN_DOCS) broadcast as one sorted int64
# array when at most this many — 8M keys = 64 MB in every worker's plasma
# view, read zero-copy; above it, fall back to the distributed anti-join
BOILERPLATE_BROADCAST_LIMIT = 8_000_000


def chunk_dedup(sf_dir: str, min_docs: int = MIN_DOCS):
    """CCNet-style boilerplate removal: drop every 5-token chunk that occurs
    in >= min_docs distinct documents, reassemble the survivors in order.
    Docs whose every chunk is boilerplate disappear (both sides).

    Output (doc_id, clean_text, n_kept). Exchange budget: one int64-keyed
    (chash, doc_id) exchange for the doc-freq count, then — boilerplate set
    being small — a ray.put broadcast of the bad-chash array filters chunks
    in-place with NO anti-join exchange, and the chunk strings move exactly
    once, on the doc_id-keyed reassembly exchange where they ARE the
    payload. Fallback above BOILERPLATE_BROADCAST_LIMIT: a narrow
    (doc_id, ci, chash) anti-join exchange, strings still only on the
    reassembly leg."""
    docs = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    exploded = explode_chunks(docs)

    freq = _chunk_doc_freq(exploded).map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("ndocs"), min_docs)),
        batch_format="pyarrow",
    ).materialize()

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "ci"], kind="mergesort")
        g = df.groupby("doc_id", sort=False)["chunk"]
        out = g.agg(" ".join).reset_index(name="clean_text")
        out["n_kept"] = g.size().to_numpy(np.int64)
        out["doc_id"] = out["doc_id"].astype(np.int64)
        return out

    if freq.count() <= BOILERPLATE_BROADCAST_LIMIT:
        bad_sorted = np.sort(
            np.concatenate(
                [b.column("chash").to_numpy() for b in freq.iter_batches(batch_format="pyarrow")]
                or [np.array([], np.int64)]
            )
        )
        bad_ref = ray.put(bad_sorted)

        def drop_bad(batch: pa.Table) -> pa.Table:
            bad = ray.get(bad_ref)  # zero-copy plasma view, shared per node
            if len(bad) == 0:
                return batch.select(["doc_id", "ci", "chunk"])
            ch = batch.column("chash").to_numpy()
            idx = np.searchsorted(bad, ch)
            idx[idx == len(bad)] = 0  # ch > bad[-1] can never match bad[0]
            return batch.filter(pa.array(bad[idx] != ch)).select(["doc_id", "ci", "chunk"])

        kept = exploded.map_batches(drop_bad, batch_format="pyarrow")
        return hash_partitioned_apply(kept, "doc_id", reassemble, num_parts=32)

    # distributed fallback: anti-join on int64 chash (narrow rows), then the
    # surviving (doc_id, ci) keys ride the string-carrying reassembly leg.
    # exploded feeds TWO more consumers here (anti side + reassembly side) —
    # materialize so the corpus is read/split/hashed once and reused from
    # object-store blocks (which spill under pressure) instead of re-running
    # the explode lineage per consumer
    exploded = exploded.materialize()

    def tag_freq(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc_id": pa.array(np.full(n, -1, np.int64)),
                "ci": pa.array(np.full(n, -1, np.int64)),
                "chash": batch.column("chash"),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def tag_rows(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "ci", "chash"]).append_column(
            "side", pa.array(np.zeros(len(batch), np.int8))
        )

    both = exploded.map_batches(tag_rows, batch_format="pyarrow").union(
        freq.map_batches(tag_freq, batch_format="pyarrow")
    )

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        bad = df.loc[df["side"] == 1, "chash"]
        keep = df[(df["side"] == 0) & (~df["chash"].isin(bad))]
        return keep[["doc_id", "ci"]]

    survivors = hash_partitioned_apply(both, "chash", anti, num_parts=32)

    def tag_surv(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "ci": batch.column("ci"),
                "chunk": pa.array([""] * n, pa.string()),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def tag_chunks(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "ci", "chunk"]).append_column(
            "side", pa.array(np.zeros(len(batch), np.int8))
        )

    merged = exploded.map_batches(tag_chunks, batch_format="pyarrow").union(
        survivors.map_batches(tag_surv, batch_format="pyarrow")
    )

    def semi_reassemble(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["side"] == 1, ["doc_id", "ci"]]
        rows = df[df["side"] == 0].merge(keys, on=["doc_id", "ci"], how="inner")
        return reassemble(rows[["doc_id", "ci", "chunk"]])

    return hash_partitioned_apply(merged, "doc_id", semi_reassemble, num_parts=32)


SQL_CHUNK_DEDUP = f"""
WITH {_SQL_CHUNKS.strip()},
freq AS (
    SELECT chunk FROM chunks GROUP BY chunk
    HAVING COUNT(DISTINCT doc_id) >= {MIN_DOCS}),
kept AS (
    SELECT c.doc_id, c.ci, c.chunk
    FROM chunks c LEFT JOIN freq f USING (chunk) WHERE f.chunk IS NULL)
SELECT doc_id, string_agg(chunk, ' ' ORDER BY ci) AS clean_text,
       COUNT(*) AS n_kept
FROM kept GROUP BY doc_id
"""


# ------------------------------------------------- duplicate-cluster labels


def _local_cc(u: np.ndarray, v: np.ndarray) -> dict:
    """Union-find over one edge block; returns node → min-node-of-component.
    Path-halving find, union by min — O(E α(E)) per block."""
    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for a, b in zip(u.tolist(), v.tolist()):
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra != rb:
            # root at the smaller id so every root IS its component min
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return {x: find(x) for x in parent}


def dup_clusters(sf_dir: str, min_docs: int = MIN_DOCS, max_docs: int = MAX_CLIQUE,
                 max_levels: int = 10):
    """Memoizing wrapper: the suite consumes the cluster table from TWO
    queries (dup_clusters itself and split_leakage_safe) in one driver
    process; the MATERIALIZED labels are memoized per (corpus, params) so
    the contraction CC runs once per corpus."""

    def build():
        out = _dup_clusters_impl(sf_dir, min_docs, max_docs, max_levels)
        return out.materialize() if isinstance(out, ray.data.Dataset) else out

    return memo("dup_clusters", [f"{sf_dir}/documents.parquet"], build, min_docs, max_docs, max_levels)


def _dup_clusters_impl(sf_dir: str, min_docs: int = MIN_DOCS, max_docs: int = MAX_CLIQUE,
                 max_levels: int = 10):
    """Connected components over the doc-similarity graph "share a chunk
    that appears in [min_docs, max_docs] distinct docs"; cluster_id = min
    doc_id in the component (= the SQL oracle's MIN over reachable nodes).

    Algorithm (contraction CC, the filtering technique of
    Lattanzi et al., "Filtering: a method for solving graph problems in
    MapReduce", SPAA'11): each level runs union-find LOCALLY inside every
    edge block (no exchange), then ONE node-keyed exchange reconciles
    per-block labels — a node seen with k different block-labels emits k-1
    contracted edges between those labels — and the next level recurses on
    the contracted graph, which shrinks geometrically (once it is small it
    is coalesced into a single block and solved exactly). Final labels are
    then unwound through the per-level mappings, one bounded exchange per
    level. Total exchanges ≈ 2 × levels (2-3 levels in practice) versus
    diameter × 2 for naive min-label propagation. The hub cap bounds pair
    expansion per chunk at C(max_docs,2), same discipline as the MinHash
    band verify.

    Output (doc_id, cluster_id) for every doc with at least one edge."""
    docs = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    exploded = explode_chunks(docs)

    # chunk identity travels as its int64 chash — the string is never needed
    # past explode (edges are doc-id pairs); same collision bound as
    # chunk_dedup's exchange keys (VERDICT r03 item 2 family)
    def combiner(batch: pa.Table) -> pa.Table:
        df = batch.select(["chash", "doc_id"]).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates().sort_values(["chash", "doc_id"], kind="mergesort")
        sizes = df.groupby("chash", sort=False)["doc_id"].transform("size")
        df = df[(sizes >= min_docs) & (sizes <= max_docs)]
        us, vs = [], []
        for _, g in df.groupby("chash", sort=False):
            ids = g["doc_id"].to_numpy(np.int64)
            iu, iv = np.triu_indices(len(ids), k=1)
            us.append(ids[iu])
            vs.append(ids[iv])
        if not us:
            return pd.DataFrame({"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"u": np.concatenate(us), "v": np.concatenate(vs)})

    cand = hash_partitioned_apply(
        exploded.map_batches(combiner, batch_format="pyarrow"), "chash", pairs, num_parts=32
    )
    return contraction_cc(cand, max_levels=max_levels)


def contraction_cc(cand: "ray.data.Dataset", max_levels: int = 10):
    """Contraction connected components over an arbitrary (u, v) edge
    Dataset — the generic core behind dup_clusters, reused by any
    similarity-pair producer (dedup_clusters_minhash). See
    _dup_clusters_impl's docstring for the algorithm and exchange budget.
    Returns (doc_id, cluster_id) for every node with at least one edge,
    cluster_id = the component's min node id."""
    # candidate pairs (u < v) are enough — contraction is direction-free
    g = cand.materialize()
    if g.count() == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())})

    def block_cc(batch: pa.Table) -> pa.Table:
        lab = _local_cc(
            batch.column("u").to_numpy(zero_copy_only=False),
            batch.column("v").to_numpy(zero_copy_only=False),
        )
        nodes = np.fromiter(lab.keys(), np.int64, len(lab))
        labels = np.fromiter(lab.values(), np.int64, len(lab))
        return pa.table({"node": pa.array(nodes), "label": pa.array(labels)})

    def reconcile(df: pd.DataFrame) -> pd.DataFrame:
        """Per node: mapping row node→min(label); one contracted-edge row
        (kind=1, node=label_i, label=min) per extra distinct label."""
        df = df.drop_duplicates().sort_values(["node", "label"], kind="mergesort")
        lmin = df.groupby("node", sort=False)["label"].transform("min")
        mapping = df.drop_duplicates("node")[["node"]].copy()
        mapping["label"] = lmin[mapping.index].to_numpy(np.int64)
        mapping["kind"] = np.zeros(len(mapping), np.int8)
        extra = df[df["label"].to_numpy() != lmin.to_numpy()]
        edges_out = pd.DataFrame(
            {
                "node": extra["label"].to_numpy(np.int64),
                "label": lmin[extra.index].to_numpy(np.int64),
                "kind": np.ones(len(extra), np.int8),
            }
        ).drop_duplicates()
        return pd.concat([mapping, edges_out], ignore_index=True)

    maps: list = []
    for level in range(max_levels):
        m = g.map_batches(block_cc, batch_format="pyarrow", batch_size=None)
        out = hash_partitioned_apply(m, "node", reconcile, num_parts=32).materialize()
        maps.append(
            out.map_batches(
                lambda b: b.filter(pc.equal(b.column("kind"), 0)).drop_columns(["kind"]),
                batch_format="pyarrow",
            ).materialize()
        )
        new_edges = out.map_batches(
            lambda b: pa.table(
                {
                    "u": b.filter(pc.equal(b.column("kind"), 1)).column("node"),
                    "v": b.filter(pc.equal(b.column("kind"), 1)).column("label"),
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        n_edges = new_edges.count()
        if n_edges == 0:
            break
        # the contracted graph shrinks geometrically; once small, coalesce
        # it into one block so the next level solves it exactly
        g = new_edges.repartition(1) if n_edges < 1_000_000 else new_edges
    else:
        raise RuntimeError("contraction_cc: contraction did not converge")

    # unwind: compose final labels back through the earlier mappings.
    # labels(level k) are node-ids of level k+1; absent keys are final.
    labels = maps[-1]
    for mp in reversed(maps[:-1]):
        tagged_mp = mp.map_batches(
            lambda b: pa.table(
                {
                    "key": b.column("label"),
                    "node": b.column("node"),
                    "label": b.column("label"),
                    "side": pa.array(np.zeros(len(b), np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        tagged_fin = labels.map_batches(
            lambda b: pa.table(
                {
                    "key": b.column("node"),
                    "node": pa.array(np.full(len(b), -1, np.int64)),
                    "label": b.column("label"),
                    "side": pa.array(np.ones(len(b), np.int8)),
                }
            ),
            batch_format="pyarrow",
        )

        def compose(df: pd.DataFrame) -> pd.DataFrame:
            fin = df[df["side"] == 1].drop_duplicates("key").set_index("key")["label"]
            a = df[df["side"] == 0]
            resolved = a["key"].map(fin).fillna(a["label"]).astype(np.int64)
            return pd.DataFrame({"node": a["node"].to_numpy(np.int64), "label": resolved.to_numpy()})

        labels = hash_partitioned_apply(tagged_mp.union(tagged_fin), "key", compose, num_parts=32)

    return labels.map_batches(
        lambda b: pa.table({"doc_id": b.column("node"), "cluster_id": b.column("label")}),
        batch_format="pyarrow",
    )


SQL_DUP_CLUSTERS = f"""
WITH {_SQL_CHUNKS.strip()},
cdocs AS (SELECT chunk, doc_id FROM chunks GROUP BY chunk, doc_id),
csz AS (SELECT chunk, COUNT(*) AS n FROM cdocs GROUP BY chunk),
edges0 AS (
    SELECT a.doc_id AS u, b.doc_id AS v
    FROM cdocs a JOIN cdocs b USING (chunk) JOIN csz USING (chunk)
    WHERE csz.n BETWEEN {MIN_DOCS} AND {MAX_CLIQUE} AND a.doc_id < b.doc_id
    GROUP BY 1, 2),
edges AS (SELECT u, v FROM edges0 UNION SELECT v AS u, u AS v FROM edges0),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach AS (
    WITH RECURSIVE r(node, reached) AS (
        SELECT node, node FROM nodes
        UNION
        SELECT r.node, e.v FROM r JOIN edges e ON e.u = r.reached
    ) SELECT * FROM r)
SELECT node AS doc_id, MIN(reached) AS cluster_id FROM reach GROUP BY node
"""


def url_canonical(sf_dir: str):
    """URL canonicalization — the crawl-dedup step that collapses tracking
    params, fragments, case and trailing-slash variants of one page into a
    single key. The derived web_pages urls are already clean, so each page's
    MESSY form is derived deterministically by doc_id % 4 (as-is / uppercased
    + trailing slash / ?utm tracking params / #fragment — identical
    arithmetic in numpy and SQL, the derived.py contract), then canonicalized
    by the shared rule: strip from the first '#', strip from the first '?',
    lowercase, strip trailing '/'. Output (url, n_variants): every messy row
    grouped under its canonical url.

    Shape: messy-derivation + canonicalization + counting are all combiner
    work inside map_batches (vectorized pandas str ops); ONE url-keyed
    exchange sums the partial counts."""
    wp = dv.web_pages(sf_dir, columns=["doc_id", "url"])

    def partial(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy().astype(np.int64)
        url = pd.Series(batch.column("url").to_pylist())
        v = doc % 4
        raw = url.copy()
        raw[v == 1] = url[v == 1].str.upper() + "/"
        raw[v == 2] = url[v == 2] + "?utm_source=x&uid=" + pd.Series(doc.astype(str))[v == 2]
        raw[v == 3] = url[v == 3] + "#sec" + pd.Series((doc % 7).astype(str))[v == 3]
        canon = (
            raw.str.split("#").str[0].str.split("?").str[0].str.lower().str.rstrip("/")
        )
        g = canon.groupby(canon, sort=False).size().reset_index(name="n")
        g.columns = ["url", "n"]
        return pa.Table.from_pandas(g.astype({"n": np.int64}), preserve_index=False)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("url", sort=False)["n"].sum().reset_index(name="n_variants")
        return g.astype({"n_variants": np.int64})

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        wp.map_batches(partial, batch_format="pyarrow"), "url", fuse, num_parts=16
    )


SQL_URL_CANONICAL = f"""
WITH {dv.SQL_WEB_PAGES.strip()},
messy AS (
    SELECT CASE doc_id % 4
               WHEN 0 THEN url
               WHEN 1 THEN upper(url) || '/'
               WHEN 2 THEN url || '?utm_source=x&uid=' || CAST(doc_id AS VARCHAR)
               ELSE url || '#sec' || CAST(doc_id % 7 AS VARCHAR)
           END AS raw
    FROM web_pages)
SELECT rtrim(lower(split_part(split_part(raw, '#', 1), '?', 1)), '/') AS url,
       CAST(COUNT(*) AS BIGINT) AS n_variants
FROM messy GROUP BY 1
"""


def snapshot_diff(sf_dir: str):
    """Crawl snapshot delta — the maintenance report comparing two corpus
    versions: snapshot A = documents as-is; snapshot B = the deterministic
    next crawl (doc_id % 13 == 0 pages DROPPED, doc_id % 7 == 0 pages
    RECRAWLED with changed text — text || ' v2', identical arithmetic on
    both sides). Classifies every doc_id as 'removed' (A only), 'changed'
    (both, different text) or 'same'; 'added' can't occur in this derivation
    and the oracle proves the engine agrees (count 0 enforced by absence).
    Output (status, n_docs, ids_sum) — ids_sum anchors WHICH docs, not just
    how many.

    Scale shape: each side ships (doc_id, h1, h2) only — the ~128-bit
    content identity (dedup_exact's bytes discipline), never text; ONE
    doc_id-keyed exchange classifies, a tiny status-keyed fuse aggregates."""
    from ..functions.hashing import hash64_str
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def both_sides(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy().astype(np.int64)
        txt = pd.Series(batch.column("text").to_pylist())

        def ident(s: pd.Series) -> tuple:
            return (
                hash64_str(s.tolist()).astype(np.int64),
                pd.util.hash_pandas_object(s, index=False).to_numpy().astype(np.int64),
            )

        a1, a2 = ident(txt)
        keep_b = doc % 13 != 0
        txt_b = txt.where(doc % 7 != 0, txt + " v2")
        b1, b2 = ident(txt_b[keep_b])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([doc, doc[keep_b]])),
                "h1": pa.array(np.concatenate([a1, b1])),
                "h2": pa.array(np.concatenate([a2, b2])),
                "side": pa.array(
                    np.concatenate([np.zeros(len(doc), np.int8), np.ones(int(keep_b.sum()), np.int8)])
                ),
            }
        )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        a = df[df["side"] == 0].set_index("doc_id")
        b = df[df["side"] == 1].set_index("doc_id")
        in_b = a.index.isin(b.index)
        status = np.where(
            ~in_b,
            "removed",
            np.where(
                (a["h1"].to_numpy() == b["h1"].reindex(a.index).to_numpy())
                & (a["h2"].to_numpy() == b["h2"].reindex(a.index).to_numpy()),
                "same",
                "changed",
            ),
        )
        out = pd.DataFrame({"status": status, "doc_id": a.index.to_numpy(np.int64)})
        g = out.groupby("status", sort=False).agg(
            n_docs=("doc_id", "size"), ids_sum=("doc_id", "sum")
        )
        return g.reset_index().astype({"n_docs": np.int64, "ids_sum": np.int64})

    parts = hash_partitioned_apply(
        ds.map_batches(both_sides, batch_format="pyarrow"), "doc_id", classify
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("status", sort=False)[["n_docs", "ids_sum"]].sum()
        return g.reset_index().astype({"n_docs": np.int64, "ids_sum": np.int64})

    return hash_partitioned_apply(parts, "status", fuse, num_parts=4)


SQL_SNAPSHOT_DIFF = """
WITH b AS (
    SELECT doc_id,
           CASE WHEN doc_id % 7 = 0 THEN text || ' v2' ELSE text END AS text
    FROM documents WHERE doc_id % 13 <> 0),
cls AS (
    SELECT a.doc_id,
           CASE WHEN b.doc_id IS NULL THEN 'removed'
                WHEN a.text = b.text THEN 'same'
                ELSE 'changed' END AS status
    FROM documents a LEFT JOIN b USING (doc_id))
SELECT status, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(doc_id) AS BIGINT) AS ids_sum
FROM cls GROUP BY 1
"""


def changelog_apply(sf_dir: str):
    """MERGE-style changelog application (the Delta/Hudi upsert+delete
    compaction): the visit log becomes a per-url op stream — op = DELETE
    when event_id·(event_id+1) % 5 == 0 (fires for ids ≡ 0,4 mod 5), else UPSERT carrying event_id as the
    payload — applied in (ts, event_id) order; a url whose LAST op is a
    delete vanishes from the final state. One url-keyed exchange; inside
    the partition the winner is one vectorized sort + drop_duplicates
    (keep=last), no per-key loop. Distinct from url_latest by the
    tombstone semantics. Output (url, last_event, n_ops)."""
    v = dv.visit_urls(sf_dir)

    def add_op(batch: pa.Table) -> pa.Table:
        ev = batch.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "url": batch.column("url"),
                "ts_us": batch.column("ts_us"),
                "event_id": batch.column("event_id"),
                "is_del": pa.array(((ev * (ev + 1)) % 5 == 0).astype(np.int8)),
            }
        )

    def apply_log(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["url", "ts_us", "event_id"], kind="mergesort")
        n_ops = df.groupby("url", sort=False)["event_id"].transform("size")
        df = df.assign(n_ops=n_ops.to_numpy(np.int64))
        last = df.drop_duplicates("url", keep="last")
        live = last[last["is_del"] == 0]
        return pd.DataFrame(
            {
                "url": live["url"].to_numpy(object),
                "last_event": live["event_id"].to_numpy(np.int64),
                "n_ops": live["n_ops"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(
        v.map_batches(add_op, batch_format="pyarrow"), "url", apply_log
    )


SQL_CHANGELOG_APPLY = f"""
WITH {dv.SQL_VISITS.strip()},
log AS (
    SELECT url, ts_us, event_id,
           CASE WHEN (event_id * (event_id + 1)) % 5 = 0 THEN 1 ELSE 0 END AS is_del
    FROM visits
),
r AS (
    SELECT url, event_id, is_del,
           ROW_NUMBER() OVER (PARTITION BY url ORDER BY ts_us DESC, event_id DESC) AS rn,
           COUNT(*) OVER (PARTITION BY url) AS n_ops
    FROM log
)
SELECT url, event_id AS last_event, CAST(n_ops AS BIGINT) AS n_ops
FROM r WHERE rn = 1 AND is_del = 0
"""


def domain_gini(sf_dir: str):
    """GINI concentration of pages over domains — the crawl-diversity KPI
    next to domain_cap (how much of the corpus do the biggest domains own?).
    With per-domain counts x₁≤…≤x_k: G = (2·Σi·xᵢ − (k+1)·Σx) / (k·Σx),
    emitted as gini_micro = (10⁶·(2·Σi·xᵢ − (k+1)·Σx)) // (k·Σx) — exact
    integers end-to-end (Σi·xᵢ is permutation-invariant within ties, so the
    two engines' tie orders cannot diverge). Output one row
    (n_domains, n_pages, gini_micro).

    Shape: per-batch (domain, count) partials → ONE domain-keyed bounded
    exchange → a |domains|-sized driver fuse."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.joins import hash_partitioned_apply

    wp = dv.web_pages(sf_dir, columns=["domain"])

    def partial(batch: pa.Table) -> pa.Table:
        dom = batch.column("domain").to_pandas()
        g = dom.value_counts()
        return pa.table({"domain": g.index.to_numpy(object), "c": g.to_numpy(np.int64)})

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("domain", sort=False)["c"].sum().reset_index()
        return g

    counts = hash_partitioned_apply(
        wp.map_batches(partial, batch_format="pyarrow"), "domain", fuse
    ).to_pandas()
    x = np.sort(counts["c"].to_numpy(np.int64))
    k = len(x)
    sx = int(x.sum())
    six = int((np.arange(1, k + 1, dtype=np.int64) * x).sum())
    gini = (1000000 * (2 * six - (k + 1) * sx)) // (k * sx)
    out = pd.DataFrame(
        {
            "n_domains": [np.int64(k)],
            "n_pages": [np.int64(sx)],
            "gini_micro": [np.int64(gini)],
        }
    )
    import ray.data as _rd

    return _rd.from_pandas(out)


def sql_domain_gini() -> str:
    return f"""
WITH {dv.SQL_WEB_PAGES.strip()},
c AS (SELECT domain, CAST(COUNT(*) AS BIGINT) AS n FROM web_pages GROUP BY 1),
o AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS i FROM c)
SELECT CAST(COUNT(*) AS BIGINT) AS n_domains,
       CAST(SUM(n) AS BIGINT) AS n_pages,
       CAST((1000000 * (2 * SUM(CAST(i AS HUGEINT) * n) - (COUNT(*) + 1) * SUM(CAST(n AS HUGEINT))))
            // (COUNT(*) * SUM(CAST(n AS HUGEINT))) AS BIGINT) AS gini_micro
FROM o
"""
