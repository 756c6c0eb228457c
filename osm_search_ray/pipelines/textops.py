"""Text-analysis pipelines over ``documents`` (tokenizer M8; stats A3/A4/A8;
plus the training-data text operators: token counting, quality scoring,
language-ID, fingerprinting).

Tokenization here IS the engine tokenizer (functions/tokenize.py) — the same
function used by the inverted-index and query paths, with a fixed SQL
equivalent for the oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.readers import read_pq
from ray.data.aggregate import Sum

from ..functions.tokenize import SQL_TOKENIZE, tokenize_array


def token_counts(sf_dir: str):
    """(doc_id, n_tokens) via the canonical tokenizer — A3-style field-length
    stats, vectorized per batch, no shuffle."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        _, counts = tokenize_array(batch.column("text").to_pylist())
        return pa.table({"doc_id": batch.column("doc_id"), "n_tokens": pa.array(counts)})

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_TOKEN_COUNTS = f"""
SELECT doc_id, CAST(len({SQL_TOKENIZE.format(col='text')}) AS BIGINT) AS n_tokens
FROM documents
"""


# GPT-2-style pretokenizer, simplified to RE2 (no lookahead): a piece is an
# optionally-space-prefixed letter run, digit run, or punctuation run.
# Evaluated by RE2 on BOTH sides (pyarrow.compute and DuckDB), so alternation
# precedence is engine-identical by construction.
BPE_PATTERN = r" ?[a-zA-Z]+| ?[0-9]+| ?[^\sa-zA-Z0-9]+"


def token_counts_bpe(sf_dir: str):
    """(doc_id, n_bpe_tokens) — subword-ish token counts via the BPE-style
    pretokenizer regex (the budget number an LLM data pipeline sizes
    datasets by; the whitespace-word twin is token_counts). Vectorized RE2
    count per batch, no shuffle."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = pc.cast(pc.count_substring_regex(batch.column("text"), BPE_PATTERN), pa.int64())
        return pa.table({"doc_id": batch.column("doc_id"), "n_bpe_tokens": n})

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_TOKEN_COUNTS_BPE = f"""
SELECT doc_id, CAST(len(regexp_extract_all(text, '{BPE_PATTERN}')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""


def term_doc_freq(sf_dir: str):
    """(term, df) document frequency — the A8 ``count_distinct(doc)`` per
    term, built the scalable way: per-batch DISTINCT (term, doc) partials →
    per-batch per-term counts → groupby(term).sum(). A document's terms are
    always within one batch row, so batch-level dedup is exact."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        doc_rep = np.repeat(batch.column("doc_id").to_numpy(), counts)
        df = pd.DataFrame({"term": toks, "doc_id": doc_rep})
        per = df.drop_duplicates().groupby("term", sort=False).size().reset_index(name="df")
        return pa.Table.from_pandas(per, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("term").aggregate(Sum("df", alias_name="df"))


SQL_TERM_DOC_FREQ = f"""
SELECT term, COUNT(DISTINCT doc_id) AS df
FROM (SELECT doc_id, unnest({SQL_TOKENIZE.format(col='text')}) AS term FROM documents)
GROUP BY 1
"""


def term_dictionary(sf_dir: str):
    """(term, term_id) — the DISTRIBUTED term dictionary (M9 at scale;
    pipelines/text_index.build_term_dictionary: per-block unique →
    hash-partitioned distinct → sort → dense row-index zip, never
    driver-resident). Dense ids follow sorted-term order, which the SQL
    oracle reproduces with ROW_NUMBER() OVER (ORDER BY term) — tokens are
    [a-z0-9]+ so Python and DuckDB binary collation agree."""
    from .text_index import build_term_dictionary

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def explode(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        return pa.table({"term": pa.array(toks.astype(object), pa.string())})

    terms_ds, _ = build_term_dictionary(ds.map_batches(explode, batch_format="pyarrow"))
    return terms_ds


SQL_TERM_DICTIONARY = f"""
SELECT term, CAST(ROW_NUMBER() OVER (ORDER BY term) - 1 AS BIGINT) AS term_id
FROM (SELECT DISTINCT unnest({SQL_TOKENIZE.format(col='text')}) AS term FROM documents)
"""


def text_quality(sf_dir: str):
    """Quality-scoring features per document (training-data op): char count,
    token count, mean token length, distinct-token ratio (all exactly
    SQL-expressible; stopword/punct ratios live in stages/textstats.py with
    pytest oracles)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks, counts = tokenize_array(texts)
        off = np.concatenate([[0], np.cumsum(counts)])
        n = len(texts)
        mean_len = np.zeros(n, dtype=np.float64)
        uniq_ratio = np.zeros(n, dtype=np.float64)
        for i in range(n):
            t = toks[off[i] : off[i + 1]]
            if len(t):
                mean_len[i] = float(np.mean([len(x) for x in t]))
                uniq_ratio[i] = len(set(t)) / len(t)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pa.array(np.asarray([len(s) for s in texts], dtype=np.int64)),
                "n_tokens": pa.array(counts),
                "mean_token_len": pa.array(np.rint(mean_len * 1e9).astype(np.int64)),
                "uniq_ratio": pa.array(np.rint(uniq_ratio * 1e9).astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_TOKS = SQL_TOKENIZE.format(col="text")
SQL_TEXT_QUALITY = f"""
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS n_chars,
       CAST(len({_TOKS}) AS BIGINT) AS n_tokens,
       CAST(ROUND((CASE WHEN len({_TOKS}) > 0
            THEN list_avg(list_transform({_TOKS}, x -> CAST(length(x) AS DOUBLE)))
            ELSE 0.0 END) * 1000000000) AS BIGINT) AS mean_token_len,
       CAST(ROUND((CASE WHEN len({_TOKS}) > 0
            THEN CAST(len(list_distinct({_TOKS})) AS DOUBLE) / len({_TOKS})
            ELSE 0.0 END) * 1000000000) AS BIGINT) AS uniq_ratio
FROM documents
"""


def langid(sf_dir: str):
    """Language-ID heuristic (stopword hit counts, deterministic arg-max) —
    a per-batch stage; exactly reproducible in SQL for the oracle."""
    import ray.data

    from ..stages.textstats import langid_stage

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return langid_stage(ds)


def _sql_langid() -> str:
    from ..stages.textstats import LANG_ORDER, LANG_STOPWORDS

    toks = SQL_TOKENIZE.format(col="text")
    score_cols = []
    for lang in LANG_ORDER:
        words = ", ".join(f"'{w}'" for w in sorted(LANG_STOPWORDS[lang]))
        score_cols.append(f"len(list_filter({toks}, x -> x IN ({words}))) AS s_{lang}")
    greatest = "GREATEST(" + ", ".join(f"s_{lang}" for lang in LANG_ORDER) + ")"
    cases = " ".join(f"WHEN s_{lang} = m THEN '{lang}'" for lang in LANG_ORDER)
    return f"""
WITH scores AS (SELECT doc_id, {', '.join(score_cols)} FROM documents),
m AS (SELECT doc_id, {greatest} AS m, * FROM scores)
SELECT doc_id, CASE WHEN m = 0 THEN 'unknown' {cases} ELSE 'unknown' END AS pred_lang FROM m
"""


SQL_LANGID = None  # filled lazily via sql_langid() to avoid import cycles


def bigram_counts(sf_dir: str):
    """Raw consecutive-token bigram counts over the corpus (A6-style sliding
    window → groupby; the padded 4-gram LM variant is pipelines/state/lm.py,
    parity-tested against the reference fixtures in tests/test_search.py)."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        toks, lens = tokenize_array(batch.column("text").to_pylist())
        off = np.concatenate([[0], np.cumsum(lens)])
        for i in range(len(lens)):
            row = toks[off[i] : off[i + 1]]
            for j in range(len(row) - 1):
                g = f"{row[j]} {row[j+1]}"
                counts[g] = counts.get(g, 0) + 1
        return pa.table(
            {"gram": pa.array(list(counts.keys()), pa.string()), "cnt": pa.array(list(counts.values()), pa.int64())}
        )

    return ds.map_batches(partial, batch_format="pyarrow").groupby("gram").aggregate(Sum("cnt", alias_name="cnt"))


_TOKS2 = SQL_TOKENIZE.format(col="text")
SQL_BIGRAM_COUNTS = f"""
WITH toks AS (SELECT doc_id, {_TOKS2} AS t FROM documents),
pairs AS (
    SELECT t[i] || ' ' || t[i + 1] AS gram
    FROM toks, LATERAL (SELECT unnest(range(1, len(t))) AS i) r
)
SELECT gram, COUNT(*) AS cnt FROM pairs GROUP BY 1
"""


def postings_lists(sf_dir: str):
    """Reference SPIMI posting-list shape over the documents corpus: term →
    sorted doc ids WITH tf-by-repetition, serialized as a CSV string column
    (list-typed columns hash awkwardly across engines)."""
    import ray.data

    from .text_index import spimi_postings_lists

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lists = spimi_postings_lists(ds)

    def stringify(batch: pa.Table) -> pa.Table:
        ids_str = [",".join(str(int(x)) for x in row) for row in batch.column("doc_ids").to_pylist()]
        return pa.table(
            {
                "term": batch.column("term"),
                "doc_ids_str": pa.array(ids_str, pa.string()),
                "n_postings": batch.column("n_postings"),
            }
        )

    return lists.map_batches(stringify, batch_format="pyarrow")


SQL_POSTINGS_LISTS = f"""
WITH occurrences AS (
    SELECT doc_id, unnest({_TOKS2}) AS term FROM documents
)
SELECT term,
       array_to_string(list(doc_id ORDER BY doc_id), ',') AS doc_ids_str,
       COUNT(*) AS n_postings
FROM occurrences GROUP BY 1
"""


def image_features(sf_dir: str):
    """Multimodal plumbing driver query (rows-only): documents' text bytes
    stand in as opaque binary payloads → per-batch decode/feature stage
    (deterministic fake decode; stages/multimodal.py — no real codecs in
    this container). Output (item_id, height, width, feat_sum_x1e9)."""
    import ray.data

    from ..stages.multimodal import image_feature_stage

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_binary(batch: pa.Table) -> pa.Table:
        payloads = [t.encode() for t in batch.column("text").to_pylist()]
        return pa.table({"item_id": batch.column("doc_id"), "payload": pa.array(payloads, pa.binary())})

    feats = image_feature_stage(ds.map_batches(to_binary, batch_format="pyarrow"))

    def summarize(batch: pa.Table) -> pa.Table:
        from ..functions.arrowutil import vec_matrix

        f = vec_matrix(batch.column("features"))
        s = np.rint(f.max(axis=1) * 1e9).astype(np.int64) if len(f) else np.empty(0, np.int64)
        return pa.table(
            {
                "item_id": batch.column("item_id"),
                "height": batch.column("height"),
                "width": batch.column("width"),
                "feat_max_x1e9": pa.array(s),
            }
        )

    return feats.map_batches(summarize, batch_format="pyarrow")


def _sql_image_features() -> str:
    """Oracle for the deterministic fake image decode (stages/multimodal.py
    _fake_pixels_batch): per doc, seed = byte length, head = first 8 utf-8 bytes
    little-endian (hex-parsed), base = splitmix64(seed ^ head), pixel j =
    splitmix64((j + base) mod 2^64) & 0xFF over the 32×32 grid; feature =
    16-bin intensity histogram / 1024, reported as rint(max * 1e9). The
    rint is np.rint (half-to-EVEN) — maxc/1024*1e9 is maxc*976562.5
    exactly, so the SQL reproduces banker's rounding arithmetically
    (VERDICT r03 item 5)."""
    from ..sources.derived import sql_splitmix64_chain

    p64 = 1 << 64
    b = lambda i: (  # noqa: E731 — byte i (1-based) of the utf-8 payload, 0 past the end
        f"CASE WHEN len >= {i} THEN CAST('0x' || substr(hx, {2 * i - 1}, 2) AS BIGINT)::HUGEINT"
        f" ELSE 0::HUGEINT END"
    )
    head = " + ".join(f"{b(i)} * {1 << (8 * (i - 1))}::HUGEINT" for i in range(1, 9))
    # banker's rounding of maxc * 976562.5 (odd maxc ⇒ exact .5 halves)
    rint = (
        "CASE WHEN v2 % 2 = 0 THEN v2 // 2"
        " ELSE (v2 - 1) // 2 + ((v2 - 1) // 2) % 2 END"
    )
    return f"""
WITH raw AS (
    SELECT doc_id, hex(encode(text)) AS hx, octet_length(encode(text)) AS len
    FROM documents),
seeded AS (SELECT doc_id, xor(CAST(len AS UBIGINT), CAST(({head}) AS UBIGINT)) AS s FROM raw),
{sql_splitmix64_chain('seeded', ['doc_id'], 's', 'base')},
pixin AS (
    SELECT b.doc_id, (j.j::HUGEINT + b.x) % {p64} AS v
    FROM base b, range(0, 1024) j(j)),
{sql_splitmix64_chain('pixin', ['doc_id'], 'v', 'pix')},
hist AS (
    SELECT doc_id, (x % 256) // 16 AS bin, COUNT(*) AS c
    FROM pix GROUP BY 1, 2),
mx AS (SELECT doc_id, MAX(c) AS maxc FROM hist GROUP BY 1),
v AS (SELECT doc_id, maxc * 1953125 AS v2 FROM mx)
SELECT doc_id AS item_id, CAST(32 AS INTEGER) AS height, CAST(32 AS INTEGER) AS width,
       CAST({rint} AS BIGINT) AS feat_max_x1e9
FROM v
"""


import functools

sql_image_features = functools.cache(_sql_image_features)


EVAL_MOD = 97  # deterministic held-out "benchmark" subset: doc_id % 97 == 0
CONTAM_N = 3  # shingle width (3 at test scale: synthetic docs share few longer runs)


def _shingles(batch: pa.Table, n: int):
    """(flat shingle strings, per-doc shingle counts) for a docs batch —
    vectorized window join over the flat token array (same index
    arithmetic as state/lm.windowed_gram_counts, without padding)."""
    toks, counts = tokenize_array(batch.column("text").to_pylist())
    nw = np.maximum(counts - (n - 1), 0)
    nd = len(counts)
    if nw.sum() == 0:
        return np.empty(0, object), nw.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    wdoc = np.repeat(np.arange(nd), nw)
    wwithin = np.arange(int(nw.sum())) - np.repeat(np.concatenate([[0], np.cumsum(nw)[:-1]]), nw)
    wstart = starts[wdoc] + wwithin
    g = toks[wstart]
    for j in range(1, n):
        g = g + " "
        g = g + toks[wstart + j]
    return g, nw.astype(np.int64)


def contamination_check(sf_dir: str):
    """Benchmark DECONTAMINATION: for every training doc, how many of its
    3-token shingle occurrences appear in the held-out eval subset
    (doc_id % 97 == 0 — the deterministic stand-in for a benchmark suite).
    Output (doc_id, n_contaminated) for contaminated docs only.

    Shape: eval shingles are collected once (an eval set is small by
    nature — benchmark suites, not corpora) and broadcast via ray.put as a
    SORTED array; the training pass is one streaming scan with a
    searchsorted membership test per batch. No shuffle anywhere."""
    import ray

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def eval_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % EVAL_MOD == 0))
        g, _ = _shingles(sub, CONTAM_N)
        return pa.table({"g": pa.array(np.unique(g).astype(object), pa.string())})

    eval_parts = [
        b.column("g").to_numpy(zero_copy_only=False)
        for b in ds.map_batches(eval_partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    ]
    eval_sorted = np.unique(np.concatenate(eval_parts)) if eval_parts else np.empty(0, object)
    eval_ref = ray.put(eval_sorted)

    def check(batch: pa.Table) -> pa.Table:
        ev = ray.get(eval_ref)
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % EVAL_MOD != 0))
        sub_ids = sub.column("doc_id").to_numpy().astype(np.int64)
        g, nw = _shingles(sub, CONTAM_N)
        if len(g) and len(ev):
            pos = np.minimum(np.searchsorted(ev, g), len(ev) - 1)
            hit = (ev[pos] == g).astype(np.int64)
        else:
            hit = np.zeros(len(g), np.int64)
        # bincount, not reduceat: reduceat's offsets go out of bounds when a
        # trailing doc has zero shingles (offset == len(hit) → IndexError)
        wdoc = np.repeat(np.arange(len(nw), dtype=np.int64), nw)
        per_doc = np.bincount(wdoc[hit > 0], minlength=len(nw)).astype(np.int64)
        keep = per_doc > 0
        return pa.table(
            {
                "doc_id": pa.array(sub_ids[keep]),
                "n_contaminated": pa.array(per_doc[keep].astype(np.int64)),
            }
        )

    return ds.map_batches(check, batch_format="pyarrow")


_SQL_TOKS = SQL_TOKENIZE.format(col="text")

SQL_CONTAMINATION_CHECK = f"""
WITH toks AS (SELECT doc_id, {_SQL_TOKS} AS t FROM documents),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+{CONTAM_N - 1}], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - {CONTAM_N - 2})) AS u(i)
    WHERE len(t) >= {CONTAM_N}
),
eval_g AS (SELECT DISTINCT g FROM grams WHERE doc_id % {EVAL_MOD} = 0)
SELECT t.doc_id, COUNT(*) AS n_contaminated
FROM grams t JOIN eval_g e USING (g)
WHERE t.doc_id % {EVAL_MOD} <> 0
GROUP BY 1
"""


def contamination_check_bloom(sf_dir: str):
    """Decontamination with a BLOOM-FILTER broadcast — the at-scale twin of
    contamination_check: instead of the exact sorted eval-shingle strings
    (~40 B/key), workers receive 24 bits/key of packed filter (~20× less
    broadcast traffic; FPR ≈ 1e-5, false negatives impossible — a doc is
    never cleared wrongly, a ~1e-5 sliver is over-flagged).

    Keys are hash64_md5 (not hash64_str): md5 has a bit-identical DuckDB
    twin, so the WHOLE sketch — Kirsch-Mitzenmacher positions via the SQL
    splitmix64 chain, membership as a relational anti-join on set bits —
    is oracle-checked exactly, false positives included
    (SQL_CONTAMINATION_BLOOM; VERDICT r03 item 5).

    Output (doc_id, n_flagged) for flagged training docs."""
    import ray

    from ..functions.hashing import hash64_md5
    from ..stages.sketches import BLOOM_BITS_PER_KEY, bloom_build, bloom_contains

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def eval_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % EVAL_MOD == 0))
        g, _ = _shingles(sub, CONTAM_N)
        return pa.table({"h": pa.array(np.unique(hash64_md5(np.unique(g))))})

    parts = [
        b.column("h").to_numpy(zero_copy_only=False)
        for b in ds.map_batches(eval_partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    ]
    eval_h = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
    m_bits = max(64, BLOOM_BITS_PER_KEY * len(eval_h))
    bloom_ref = ray.put(bloom_build(eval_h, m_bits))

    def check(batch: pa.Table) -> pa.Table:
        words = ray.get(bloom_ref)
        ids = batch.column("doc_id").to_numpy()
        sub = batch.filter(pa.array(ids % EVAL_MOD != 0))
        sub_ids = sub.column("doc_id").to_numpy().astype(np.int64)
        g, nw = _shingles(sub, CONTAM_N)
        if len(g):
            # hash each DISTINCT shingle once (hash64_md5 is a per-item
            # hashlib loop; boilerplate-heavy batches repeat shingles a lot)
            # and gather per-occurrence hits through the inverse index
            uniq, inv = np.unique(g, return_inverse=True)
            hit = bloom_contains(words, hash64_md5(uniq), m_bits)[inv]
        else:
            hit = np.zeros(0, bool)
        wdoc = np.repeat(np.arange(len(nw), dtype=np.int64), nw)
        per_doc = np.bincount(wdoc[hit], minlength=len(nw)).astype(np.int64)
        keep = per_doc > 0
        return pa.table(
            {
                "doc_id": pa.array(sub_ids[keep]),
                "n_flagged": pa.array(per_doc[keep].astype(np.int64)),
            }
        )

    return ds.map_batches(check, batch_format="pyarrow")


def _sql_contamination_bloom() -> str:
    """The Bloom decontamination oracle: same grams CTE as the exact check,
    keys hashed via md5 (SQL_HASH64_MD5 twin), K-M positions through the
    SQL splitmix64 chain, membership = 'no probe position unset' anti-join.
    Reproduces the engine's output EXACTLY, false positives included."""
    from ..sources.derived import SQL_HASH64_MD5, sql_splitmix64_chain
    from ..stages.sketches import BLOOM_BITS_PER_KEY, BLOOM_K

    p64 = 1 << 64
    seed = 0xA076_1D64_78BD_642F
    h_of_g = SQL_HASH64_MD5.format(col="g")
    # h2 = splitmix64(h ^ seed) | 1 — the |1 done arithmetically (x - x%2 + 1)
    km_pos = f"((CAST(h AS HUGEINT) + j.j * (c.x - c.x % 2 + 1)) % {p64}) % (SELECT m FROM mb)"
    return f"""
WITH toks AS (SELECT doc_id, {_SQL_TOKS} AS t FROM documents),
grams AS (
    SELECT doc_id, array_to_string(t[i:i+{CONTAM_N - 1}], ' ') AS g
    FROM toks, UNNEST(range(1, len(t) - {CONTAM_N - 2})) AS u(i)
    WHERE len(t) >= {CONTAM_N}
),
eh AS (SELECT DISTINCT {h_of_g} AS h FROM grams WHERE doc_id % {EVAL_MOD} = 0),
mb AS (SELECT GREATEST(64, {BLOOM_BITS_PER_KEY} * COUNT(*))::HUGEINT AS m FROM eh),
{sql_splitmix64_chain('eh', ['h'], f'xor(h, {seed}::UBIGINT)', 'eh2')},
epos AS (
    SELECT DISTINCT {km_pos} AS pos
    FROM eh2 c, range(0, {BLOOM_K}) j(j)
),
pg AS (SELECT DISTINCT g FROM grams WHERE doc_id % {EVAL_MOD} <> 0),
pgh AS (SELECT g, {h_of_g} AS h FROM pg),
{sql_splitmix64_chain('pgh', ['g', 'h'], f'xor(h, {seed}::UBIGINT)', 'pg2')},
ppos AS (
    SELECT c.g, {km_pos} AS pos
    FROM pg2 c, range(0, {BLOOM_K}) j(j)
),
miss AS (
    SELECT DISTINCT p.g
    FROM ppos p LEFT JOIN epos e USING (pos)
    WHERE e.pos IS NULL
),
member AS (SELECT g FROM pg EXCEPT SELECT g FROM miss)
SELECT t.doc_id, COUNT(*) AS n_flagged
FROM grams t JOIN member m2 USING (g)
WHERE t.doc_id % {EVAL_MOD} <> 0
GROUP BY 1
"""


sql_contamination_bloom = functools.cache(_sql_contamination_bloom)


TOP_TERMS_K = 25
TOP_TERMS_WIDTH = 4096


def top_terms_sketch(sf_dir: str, k: int = TOP_TERMS_K, width: int = TOP_TERMS_WIDTH):
    """(rank, term, n) — EXACT top-k most frequent tokens, found the
    sketch-first way a 100 TB corpus requires: a Misra-Gries candidate pass
    (per-batch count summaries reduced to ``width`` entries, merged by
    groupby-sum + a final reduce — stages/sketches.py mg_*) bounds the
    candidate set to ≤ width terms, then ONE exact counting pass restricted
    to the broadcast candidates yields true counts. A direct
    groupby(term).count() would shuffle |vocab| rows (10⁸⁺ terms at web
    scale); here the shuffles carry ≤ width·n_batches summary rows and
    ≤ width final counts.

    The output is provably exact (not approximate): MG guarantees every
    term with true count > N/(width+1) survives to the candidate set, and
    the pipeline asserts the k-th candidate count clears that threshold —
    so no non-candidate can belong in the top-k. Ordered by
    (n DESC, term ASC); SQL-oracle-checked."""
    from ..stages.sketches import mg_reduce

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def mg_partial(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        vc = pd.Series(toks).value_counts(sort=False)
        it, ct = mg_reduce(vc.index.to_numpy(dtype=object), vc.to_numpy(np.int64), width)
        if len(it) < len(vc):  # reduction happened — flag via the "" sentinel
            it = np.concatenate([it, [""]])
            ct = np.concatenate([ct, [1]])
        return pa.table({"term": pa.array(it.tolist(), pa.string()), "est": pa.array(ct, pa.int64())})

    # survivor-union groupby: cardinality ≤ min(|vocab|, width·n_batches).
    # The final reduce to ≤ width entries is a top-(width+1) SELECTION, so
    # it distributes: materialize the summary in the OBJECT STORE (never
    # the driver — at web-corpus vocab it can be GBs), take per-block
    # top-(width+1) partials (driver sees n_blocks·(width+1) ints), derive
    # the MG decrement threshold, then fetch only the ≤ width candidates.
    summed_ds = (
        ds.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("est", alias_name="est"))
        .materialize()
    )

    def survivor_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sent = int(pc.sum(pc.cast(pc.equal(t.column("term"), ""), pa.int64())).as_py() or 0)
        est = t.filter(pc.invert(pc.equal(t.column("term"), ""))).column("est").to_numpy()
        top = np.partition(est, len(est) - (width + 1))[len(est) - (width + 1):] if len(est) > width + 1 else est
        return pa.table(
            {
                "val": pa.array(np.concatenate([top, [len(est)]]).astype(np.int64)),
                "is_meta": pa.array([False] * len(top) + [True]),
                "sent": pa.array([0] * len(top) + [sent], pa.int64()),
            }
        )

    parts = summed_ds.map_batches(survivor_partial, batch_format="pyarrow").to_pandas()
    n_rows = int(parts.loc[parts["is_meta"], "val"].sum())
    reduced = bool(parts["sent"].sum() > 0) or n_rows > width
    ests = parts.loc[~parts["is_meta"], "val"].to_numpy(np.int64)
    if n_rows <= width:
        kth = np.int64(-1)  # no reduction: every survivor is a candidate
    else:
        # global (width+1)-th largest ⊆ union of per-block top-(width+1);
        # identical to mg_reduce's np.partition threshold on the full vector
        kth = np.sort(ests)[-(width + 1)]

    def cand_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(pc.invert(pc.equal(t.column("term"), "")), pc.greater(t.column("est"), int(kth)))
        return t.filter(keep).select(["term"])

    cand_terms = (
        summed_ds.map_batches(cand_filter, batch_format="pyarrow").to_pandas()["term"].to_numpy(dtype=object)
    )  # ≤ width rows by the MG bound
    cand_ref = ray.put(pd.Index(np.sort(cand_terms)))

    def exact_partial(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        n_batch = len(toks)
        if n_batch:
            s = pd.Series(toks)
            vc = s[s.isin(cand)].value_counts(sort=False)
        else:
            vc = pd.Series(dtype=np.int64)
        t = vc.index.to_numpy(dtype=object)
        return pa.table(
            {
                "term": pa.array(np.concatenate([t, [""]]).tolist(), pa.string()),
                "n": pa.array(np.concatenate([vc.to_numpy(np.int64), [n_batch]])),
            }
        )

    counts = (
        ds.map_batches(exact_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # ≤ width + 1 rows
    )
    n_total = int(counts.loc[counts["term"] == "", "n"].iloc[0])
    counts = counts[counts["term"] != ""]
    top = counts.sort_values(["n", "term"], ascending=[False, True], kind="mergesort").head(k)
    kth = int(top["n"].iloc[-1]) if len(top) >= k else 0
    # exactness certificate: valid if NOTHING was ever reduced (candidates
    # are the full exact vocabulary), or the k-th candidate count beats the
    # MG survival threshold N/(width+1) every non-candidate is under. A
    # len(top) < k result after any reduction is NOT certifiable either —
    # dropped terms could fill the missing places.
    if reduced and (len(top) < k or kth <= n_total / (width + 1)):
        raise ValueError(
            f"top-{k} not certifiably exact: kth count {kth} ≤ N/(width+1) "
            f"= {n_total / (width + 1):.1f}; increase width"
        )
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(top) + 1, dtype=np.int64),
            "term": top["term"].to_numpy(dtype=object),
            "n": top["n"].to_numpy(np.int64),
        }
    )


SQL_TOP_TERMS = f"""
SELECT CAST(ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, term ASC) AS BIGINT) AS rank,
       term, COUNT(*) AS n
FROM (SELECT unnest({SQL_TOKENIZE.format(col='text')}) AS term FROM documents)
GROUP BY term
ORDER BY n DESC, term ASC
LIMIT {TOP_TERMS_K}
"""


def repetition_stats(sf_dir: str):
    """(doc_id, n_tokens, n_repeats) — the boilerplate/repetition quality
    signal of web-text filtering (e.g. Gopher/C4-style repetition rules):
    how many ADJACENT token pairs are equal ("batch batch batch" → 2).
    One vectorized streaming pass, no shuffle; repeat ratio is
    n_repeats/n_tokens downstream (kept as two exact ints per the
    oracle-float rule)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        nd = len(counts)
        if len(toks) > 1:
            doc_idx = np.repeat(np.arange(nd), counts)
            hit = (toks[1:] == toks[:-1]) & (doc_idx[1:] == doc_idx[:-1])
            n_rep = np.bincount(doc_idx[1:][hit], minlength=nd)
        else:
            n_rep = np.zeros(nd, np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(counts.astype(np.int64)),
                "n_repeats": pa.array(n_rep.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_REPETITION_STATS = f"""
WITH toks AS (SELECT doc_id, {SQL_TOKENIZE.format(col='text')} AS t FROM documents)
SELECT doc_id,
       CAST(len(t) AS BIGINT) AS n_tokens,
       CAST(len(list_filter(range(1, len(t)), i -> t[i] = t[i + 1])) AS BIGINT) AS n_repeats
FROM toks
"""


def quality_model(sf_dir: str):
    """Model-based quality filtering (the fasttext-classifier slot of an
    LLM data pipeline): a linear scorer over integer text features runs as
    a per-batch inference stage (the weights are a module constant), emitting
    (doc_id, logit, keep). The logit is bit-identical to the SQL oracle —
    integer features, single-IEEE-op weight products, left-associative sum
    (the stages/dedup.ordered_dot float discipline)."""
    import ray.data

    from ..stages.textstats import quality_model_stage

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return quality_model_stage(ds)


def _sql_quality_model() -> str:
    from ..stages.textstats import LANG_STOPWORDS, QUALITY_WEIGHTS

    toks = SQL_TOKENIZE.format(col="text")
    stop = ", ".join(f"'{w}'" for w in sorted(LANG_STOPWORDS["en"]))
    w = QUALITY_WEIGHTS
    logit = (
        f"(((({w['bias']!r} + {w['n_tokens']!r} * CAST(nt AS DOUBLE))"
        f" + {w['stop_hits']!r} * CAST(ns AS DOUBLE))"
        f" + {w['distinct_ratio']!r} * (CASE WHEN nt > 0 THEN CAST(nd AS DOUBLE) / CAST(nt AS DOUBLE) ELSE 0.0 END))"
        f" + {w['n_chars']!r} * CAST(nc AS DOUBLE))"
        f" + {w['digit_runs']!r} * CAST(ng AS DOUBLE)"
    )
    return f"""
WITH f AS (
    SELECT doc_id,
           CAST(len({toks}) AS BIGINT) AS nt,
           CAST(len(list_filter({toks}, x -> x IN ({stop}))) AS BIGINT) AS ns,
           CAST(len(list_distinct({toks})) AS BIGINT) AS nd,
           CAST(length(text) AS BIGINT) AS nc,
           CAST(len(regexp_extract_all(text, '[0-9]+')) AS BIGINT) AS ng
    FROM documents),
scored AS (SELECT doc_id, {logit} AS logit FROM f)
SELECT doc_id, logit, CASE WHEN logit > 0.0 THEN 1 ELSE 0 END AS keep FROM scored
"""


sql_quality_model = functools.cache(_sql_quality_model)


# ---------------------------------------------------- Count-Min heavy terms

CMS_MIN_COUNT = 20  # report terms with exact global count >= this


def cms_heavy_terms(sf_dir: str, min_count: int = CMS_MIN_COUNT):
    """(term, n_exact, cms_est) for every term with exact global occurrence
    count >= min_count — the Count-Min sketch demonstrated END-TO-END: the
    mergeable (CMS_D x CMS_W) registers are built from per-batch partials
    (one bounded d*w-row exchange, 16 KB per batch — never vocab-sized),
    exact counts come from the usual vocab-bounded term groupby, and the
    reported estimate replays the sketch point query, collisions included,
    so est >= exact always and BOTH columns hash-match the SQL twin.

    Scale: the register exchange is O(d*w*blocks) rows regardless of corpus
    size; the heavy-hitter output is <= total_tokens/min_count rows, the
    driver never sees the vocab.  Hash chain (md5-hash64 -> splitmix64
    K-M double hashing) is the Bloom filter's, SQL-twinned in
    sources/derived.py."""
    import pyarrow.compute as pc

    from ..functions.hashing import hash64_md5
    from ..stages.sketches import CMS_D, CMS_W, cms_estimate, cms_partial

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def reg_partial(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        codes, uniq = pd.factorize(pd.Series(toks, dtype=object))
        h = hash64_md5(list(uniq))[codes] if len(toks) else np.zeros(0, np.uint64)
        regs = cms_partial(h)
        return pa.table(
            {
                "reg": pa.array(np.arange(CMS_D * CMS_W, dtype=np.int64)),
                "cnt": pa.array(regs.ravel()),
            }
        )

    reg_rows = (
        ds.map_batches(reg_partial, batch_format="pyarrow")
        .groupby("reg")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded: exactly d*w rows
    )
    regs = np.zeros(CMS_D * CMS_W, np.int64)
    regs[reg_rows["reg"].to_numpy()] = reg_rows["cnt"].to_numpy()
    regs = regs.reshape(CMS_D, CMS_W)

    def count_partial(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        u, c = np.unique(toks, return_counts=True)
        return pa.table(
            {"term": pa.array(u.tolist(), pa.string()), "n_exact": pa.array(c.astype(np.int64))}
        )

    heavy = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_exact", alias_name="n_exact"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("n_exact"), min_count)),
            batch_format="pyarrow",
        )
        .to_pandas()  # bounded: <= total_tokens / min_count rows
    )
    if len(heavy) == 0:  # empty Datasets drop columns on to_pandas
        return pd.DataFrame(
            {
                "term": pd.Series(dtype=object),
                "n_exact": pd.Series(dtype=np.int64),
                "cms_est": pd.Series(dtype=np.int64),
            }
        )
    h = hash64_md5(heavy["term"].to_numpy(dtype=object))
    heavy["cms_est"] = cms_estimate(regs, h)
    if not (heavy["cms_est"].to_numpy() >= heavy["n_exact"].to_numpy()).all():
        raise RuntimeError("cms_heavy_terms: count-min estimate below the exact count")
    return heavy.reset_index(drop=True)[["term", "n_exact", "cms_est"]]


def _sql_cms_heavy_terms() -> str:
    from ..sources.derived import sql_splitmix64_chain
    from ..stages.sketches import CMS_D, CMS_SEED, CMS_W

    p64 = 1 << 64
    sm = sql_splitmix64_chain("th", ["term", "h"], f"xor(h, {CMS_SEED}::UBIGINT)", "sm")
    # h2 forced odd arithmetically, then K-M position with the uint64
    # wraparound BEFORE mod w — exactly stages/sketches.cms_positions
    pos = f"((c.h + i.i * (c.x - c.x % 2 + 1)) % {p64}) % {CMS_W}"
    return f"""
WITH toks AS (SELECT unnest({_SQL_TOKS}) AS term FROM documents),
th AS (SELECT term,
              CAST(CAST('0x' || substr(md5(term), 1, 16) AS UBIGINT) AS HUGEINT) AS h
       FROM toks),
{sm},
regs AS (SELECT i.i * {CMS_W} + {pos} AS reg, COUNT(*) AS cnt
         FROM sm c, range(0, {CMS_D}) i(i) GROUP BY 1),
exact AS (SELECT term, COUNT(*) AS n_exact FROM toks
          GROUP BY 1 HAVING COUNT(*) >= {CMS_MIN_COUNT}),
qh AS (SELECT e.term, e.n_exact,
              CAST(CAST('0x' || substr(md5(e.term), 1, 16) AS UBIGINT) AS HUGEINT) AS h
       FROM exact e),
{sql_splitmix64_chain('qh', ['term', 'n_exact', 'h'], f'xor(h, {CMS_SEED}::UBIGINT)', 'qm')},
probe AS (SELECT c.term, c.n_exact, i.i * {CMS_W} + {pos} AS reg
          FROM qm c, range(0, {CMS_D}) i(i)),
est AS (SELECT p.term, p.n_exact,
               MIN(COALESCE(r.cnt, 0)) AS cms_est
        FROM probe p LEFT JOIN regs r ON r.reg = p.reg
        GROUP BY 1, 2)
SELECT term, CAST(n_exact AS BIGINT) AS n_exact, CAST(cms_est AS BIGINT) AS cms_est FROM est
"""


sql_cms_heavy_terms = functools.cache(_sql_cms_heavy_terms)


# ---------------------------------------- skip-gram PMI collocation mining

SKIPGRAM_WINDOW = 3  # co-occurrence distance bound (tokens)
SKIPGRAM_TOP = 200  # deterministic top slice (n DESC, w1, w2)
PMI_SCALE = 1_000_000


def skipgram_pmi(sf_dir: str, window: int = SKIPGRAM_WINDOW, top: int = SKIPGRAM_TOP):
    """Collocation mining — the phrase-vocabulary / word-embedding-prep pass
    of a text pipeline: every unordered token pair co-occurring within
    ``window`` positions inside a document, counted corpus-wide, top
    ``top`` by (count DESC, w1, w2), with exact pointwise mutual
    information ``pmi_micro = FLOOR(ln((n·T²)/(c1·c2·P))·10⁶)`` where T is
    the corpus token count, P the total pair events and c1/c2 the unigram
    counts — the identical int64→float64 expression on both sides (the
    DSIR float discipline; ln/floor parity probed over a 2000-point grid).

    Shape: pair events are generated by ``window`` vectorized shifts over
    the flat token array (a doc-boundary mask kills cross-doc pairs — no
    per-doc loop) and pre-aggregated per batch, so the ONE pair-keyed
    exchange carries distinct-pair partials, not events; the top slice is
    a distributed sort+limit on the |distinct pairs|-sized result and the
    PMI lookup joins unigram counts only for the ≤ 2·top surviving tokens.

    int64 bound (documented, loud): n·T² must fit int64 — T ≤ ~3·10⁹
    tokens per corpus shard at n ≤ 10⁴; larger corpora must shard the
    statistic (the CMS/HLL partial-merge pattern) before PMI."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pair_partials(batch: pa.Table) -> pa.Table:
        flat, counts = tokenize_array(batch.column("text").to_pylist())
        doc_ix = np.repeat(np.arange(len(counts)), counts)
        parts = []
        for d in range(1, window + 1):
            if len(flat) <= d:
                break
            same = doc_ix[:-d] == doc_ix[d:]
            l, r = flat[:-d][same], flat[d:][same]
            lo = np.where(l <= r, l, r)
            hi = np.where(l <= r, r, l)
            parts.append(pd.DataFrame({"w1": lo, "w2": hi}))
        if not parts:
            return pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        g = (
            pd.concat(parts, ignore_index=True)
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(pair_partials, batch_format="pyarrow")
    pair_counts = hash_partitioned_apply(
        partials,
        ["w1", "w2"],
        lambda df: df.groupby(["w1", "w2"], sort=False)["n"]
        .sum()
        .reset_index()
        .astype({"n": np.int64}),
    ).materialize()

    # corpus totals: pair events P (sum over the distinct-pair table) and
    # token count T (one narrow tokenize scan aggregated, no text shuffled)
    total_pairs = int(pair_counts.aggregate(Sum("n", alias_name="s"))["s"])

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat, counts = tokenize_array(batch.column("text").to_pylist())
        u, c = np.unique(flat, return_counts=True)
        return pa.table({"w": pa.array(u.astype(object)), "c": pa.array(c.astype(np.int64))})

    uni = hash_partitioned_apply(
        ds.map_batches(tok_partial, batch_format="pyarrow"),
        "w",
        lambda df: df.groupby("w", sort=False)["c"].sum().reset_index().astype({"c": np.int64}),
    ).materialize()
    total_tokens = int(uni.aggregate(Sum("c", alias_name="s"))["s"])

    head = (
        pair_counts.sort(["n", "w1", "w2"], descending=[True, False, False])
        .limit(top)
        .to_pandas()
    )
    vocab_needed = set(head["w1"]) | set(head["w2"])

    def keep_needed(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_pandas()
        return batch.filter(pa.array(w.isin(vocab_needed).to_numpy()))

    small_uni = uni.map_batches(keep_needed, batch_format="pyarrow").to_pandas()
    cmap = small_uni.set_index("w")["c"]
    c1 = cmap.reindex(head["w1"]).to_numpy(np.int64)
    c2 = cmap.reindex(head["w2"]).to_numpy(np.int64)
    n = head["n"].to_numpy(np.int64)
    num = n * np.int64(total_tokens) * np.int64(total_tokens)
    den = c1 * c2 * np.int64(total_pairs)
    head["pmi_micro"] = np.floor(np.log(num / den) * PMI_SCALE).astype(np.int64)
    return head.reset_index(drop=True)


def _sql_skipgram_pmi() -> str:
    return f"""
WITH toks AS (SELECT doc_id, {_SQL_TOKS} AS t FROM documents),
pos AS (SELECT doc_id, i, t[i] AS w
        FROM toks, UNNEST(range(1, len(t) + 1)) AS u(i)),
pr AS (SELECT LEAST(p1.w, p2.w) AS w1, GREATEST(p1.w, p2.w) AS w2
       FROM pos p1 JOIN pos p2
         ON p1.doc_id = p2.doc_id AND p2.i - p1.i BETWEEN 1 AND {SKIPGRAM_WINDOW}),
pc AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS n FROM pr GROUP BY 1, 2),
uni AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c
        FROM (SELECT unnest(t) AS w FROM toks) GROUP BY 1),
tot AS (SELECT (SELECT SUM(n) FROM pc) AS p_total,
               (SELECT SUM(c) FROM uni) AS t_total),
head AS (SELECT w1, w2, n FROM pc ORDER BY n DESC, w1, w2 LIMIT {SKIPGRAM_TOP})
SELECT h.w1, h.w2, h.n,
       CAST(FLOOR(ln((h.n * CAST(t.t_total AS BIGINT) * CAST(t.t_total AS BIGINT))
                     / (u1.c * u2.c * CAST(t.p_total AS BIGINT))) * {PMI_SCALE})
            AS BIGINT) AS pmi_micro
FROM head h
JOIN uni u1 ON u1.w = h.w1 JOIN uni u2 ON u2.w = h.w2
CROSS JOIN tot t
"""


sql_skipgram_pmi = functools.cache(_sql_skipgram_pmi)


# ------------------------------------------- audio frame-sample plumbing

AUDIO_FRAME_BYTES = 256
AUDIO_STRIDE = 4


def audio_features(sf_dir: str):
    """Multimodal AUDIO plumbing driver query — the frame-sampling twin of
    image_features: documents' text bytes stand in as opaque audio payloads
    → per-batch audio_frames_batch (fixed 256-byte frames, every 4th kept;
    stages/multimodal.py — no real codecs in this container), then
    a summary the oracle can reproduce by pure byte arithmetic:
    (item_id, n_frames, n_sampled, first_byte_sum) where first_byte_sum is
    the sum of the FIRST byte of every sampled frame (a content checksum —
    proves the sampler picked the right byte windows, not just counts)."""
    import ray.data

    from ..stages.multimodal import audio_sample_stage

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_binary(batch: pa.Table) -> pa.Table:
        payloads = [t.encode() for t in batch.column("text").to_pylist()]
        return pa.table({"item_id": batch.column("doc_id"), "payload": pa.array(payloads, pa.binary())})

    sampled = audio_sample_stage(ds.map_batches(to_binary, batch_format="pyarrow"))

    def summarize(batch: pa.Table) -> pa.Table:
        frames_col = batch.column("sampled_frames").to_pylist()
        n_sampled = np.array([len(fr) for fr in frames_col], np.int64)
        fb = np.array(
            [sum(f[0] for f in fr if len(f)) for fr in frames_col], np.int64
        )
        return pa.table(
            {
                "item_id": batch.column("item_id"),
                "n_frames": batch.column("n_frames").cast(pa.int64()),
                "n_sampled": pa.array(n_sampled),
                "first_byte_sum": pa.array(fb),
            }
        )

    return sampled.map_batches(summarize, batch_format="pyarrow")


def _sql_audio_features() -> str:
    """Exact oracle for the frame sampler: n_frames = ceil(len/256); the
    sampler keeps frames 0, 4, 8, …; each kept frame's first byte sits at
    payload offset 256·j, read from the hex dump (frames are non-empty by
    construction: a frame exists only where at least one byte remains)."""
    fb, st = AUDIO_FRAME_BYTES, AUDIO_STRIDE
    return f"""
WITH raw AS (
    SELECT doc_id, hex(encode(text)) AS hx,
           CAST(octet_length(encode(text)) AS BIGINT) AS len
    FROM documents),
meta AS (SELECT doc_id, hx, len, (len + {fb - 1}) // {fb} AS n_frames FROM raw),
picked AS (
    SELECT m.doc_id,
           CAST('0x' || substr(m.hx, CAST({fb} * j.j * 2 + 1 AS BIGINT), 2) AS BIGINT) AS b
    FROM meta m, UNNEST(range(0, m.n_frames)) AS j(j)
    WHERE j.j % {st} = 0),
agg AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_sampled,
               CAST(SUM(b) AS BIGINT) AS first_byte_sum
        FROM picked GROUP BY 1)
SELECT m.doc_id AS item_id, m.n_frames,
       COALESCE(a.n_sampled, 0) AS n_sampled,
       COALESCE(a.first_byte_sum, 0) AS first_byte_sum
FROM meta m LEFT JOIN agg a USING (doc_id)
"""


sql_audio_features = functools.cache(_sql_audio_features)


# --- fuzzy string join (edit-distance <= 1, SymSpell deletes blocking) ---

FUZZY_PROBE_MOD = 2
FUZZY_MIN_LEN = 4


def _deletion_keys(strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, owner_row) pairs for every 1-deletion variant of every string —
    vectorized per deletion POSITION (pandas C-level slice+concat over the
    whole column), never per row: the loop bound is max word length, not
    corpus size."""
    s = pd.Series(strings, dtype=object)
    lens = s.str.len().to_numpy(np.int64)
    keys, owners = [], []
    for i in range(int(lens.max()) if lens.size else 0):
        mask = lens > i
        sub = s[mask]
        keys.append((sub.str.slice(0, i) + sub.str.slice(i + 1)).to_numpy())
        owners.append(np.flatnonzero(mask))
    if not keys:
        return np.array([], object), np.array([], np.int64)
    return np.concatenate(keys), np.concatenate(owners)


def fuzzy_join_terms(sf_dir: str):
    """Set-to-set FUZZY string join: every (probe, vocab term) pair within
    Levenshtein distance 1, found WITHOUT a cross join. Probes are derived
    typos: for vocab terms with hash64_md5(term) % FUZZY_PROBE_MOD == 0 and
    len >= FUZZY_MIN_LEN,
    delete the character at hash % len (the md5 hash twin keeps the numpy
    and SQL derivations identical). Blocking is the SymSpell deletes
    neighborhood (state/spell.py, reference pkg/searcher parity): each side
    explodes to {s} ∪ 1-deletions(s); a shared key is NECESSARY for
    lev <= 1 (equal → s itself; substitution → delete the differing position
    on both; indel → the deletion of the longer one), so one bucketed
    equi-join + a per-candidate banded-DP verify replaces the |probes|×|V|
    cross product. The deletes index is the documented SymSpell space
    tradeoff (~len× keys per term), exchanged bucketed, never driver-wide.
    Output (probe, term, dist)."""
    from ..functions.hashing import hash64_md5
    from ..stages.joins import hash_bucket_join, hash_partitioned_apply
    from ..state.spell import _lev_leq

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def explode(batch: pa.Table) -> pa.Table:
        toks, _ = tokenize_array(batch.column("text").to_pylist())
        return pa.table({"term": pa.array(np.unique(toks).astype(object), pa.string())})

    # per-batch unique only — cross-batch duplicate terms/probes merely
    # duplicate candidate pairs, which the FINAL pair-level distinct removes;
    # skipping the two global-distinct exchanges saves 3 shuffles
    terms = ds.map_batches(explode, batch_format="pyarrow")

    def mk_probes(df: pd.DataFrame) -> pd.DataFrame:
        t = df["term"].to_numpy(object)
        lens = df["term"].str.len().to_numpy(np.uint64)
        h = hash64_md5(t)
        mask = (lens >= FUZZY_MIN_LEN) & (h % np.uint64(FUZZY_PROBE_MOD) == 0)
        sel, pos = t[mask], (h[mask] % lens[mask]).astype(np.int64)
        probes = [w[:p] + w[p + 1 :] for w, p in zip(sel, pos)]  # output-bound
        return pd.DataFrame({"probe": pd.Series(probes, dtype=object)}).drop_duplicates()

    probes = terms.map_batches(mk_probes, batch_format="pandas")

    def keys_of(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            if col not in batch.column_names:
                return pa.schema([("bkey", pa.string()), (col, pa.string())]).empty_table()
            s = batch.column(col).to_numpy(zero_copy_only=False)
            dk, owner = _deletion_keys(s)
            return pa.table(
                {
                    "bkey": pa.array(np.concatenate([s, dk]), pa.string()),
                    col: pa.array(np.concatenate([s, s[owner]]), pa.string()),
                }
            )

        return fn

    cand = hash_bucket_join(
        probes.map_batches(keys_of("probe"), batch_format="pyarrow"),
        terms.map_batches(keys_of("term"), batch_format="pyarrow"),
        on="bkey",
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["probe", "term"])
        keep = np.fromiter(
            (_lev_leq(a, b, 1) for a, b in zip(df["probe"], df["term"])),
            bool,
            len(df),
        )
        out = df.loc[keep, ["probe", "term"]].copy()
        out["dist"] = (out["probe"] != out["term"]).astype(np.int64)
        return out

    return hash_partitioned_apply(cand, ["probe", "term"], verify)


def sql_fuzzy_join_terms() -> str:
    from ..sources.derived import SQL_HASH64_MD5

    hx = SQL_HASH64_MD5.format(col="term")
    return f"""
WITH toks AS MATERIALIZED (
    SELECT DISTINCT unnest({SQL_TOKENIZE.format(col='text')}) AS term FROM documents
),
h AS (SELECT term, {hx} AS hx, length(term) AS L FROM toks),
probes AS MATERIALIZED (
    SELECT DISTINCT
        substr(term, 1, CAST(hx % L AS INT)) || substr(term, CAST(hx % L AS INT) + 2) AS probe
    FROM h WHERE L >= {FUZZY_MIN_LEN} AND hx % {FUZZY_PROBE_MOD} = 0
),
vkeys AS MATERIALIZED (
    SELECT term, term AS bkey FROM toks
    UNION ALL
    SELECT term, substr(term, 1, CAST(i AS INT)) || substr(term, CAST(i AS INT) + 2)
    FROM toks, UNNEST(range(0, length(term))) AS g(i)
),
pkeys AS MATERIALIZED (
    SELECT probe, probe AS bkey FROM probes
    UNION ALL
    SELECT probe, substr(probe, 1, CAST(i AS INT)) || substr(probe, CAST(i AS INT) + 2)
    FROM probes, UNNEST(range(0, length(probe))) AS g(i)
)
SELECT DISTINCT p.probe, v.term,
       CAST(CASE WHEN p.probe = v.term THEN 0 ELSE 1 END AS BIGINT) AS dist
FROM pkeys p JOIN vkeys v USING (bkey)
WHERE levenshtein(p.probe, v.term) <= 1
"""


def char_entropy(sf_dir: str):
    """(doc_id, n_chars, entropy_micro) — Shannon entropy of each document's
    character distribution, the compressibility proxy web-corpus quality
    filters use (gibberish and boilerplate sit at the entropy extremes).
    H = ln(n) - Σ c·ln(c) / n over codepoint counts c. Float discipline:
    ln comes from math.log, which is bit-identical to DuckDB's ln on this
    platform (np.log is NOT — differs in the last ulp on some inputs);
    values are memoized into a lookup table once per batch (one scalar loop
    bounded by the max count, then vectorized gathers), and the final sum's
    engine-order difference (~1e-12) vanishes under the 1e6 scaling. Empty
    docs are excluded on both sides. No shuffle."""
    import math

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_numpy()
        keep, ns, ents = [], [], []
        # ln table up to the longest doc, shared across the batch
        m = max((len(t) for t in texts), default=0)
        ln = np.zeros(m + 1, np.float64)
        for k in range(1, m + 1):
            ln[k] = math.log(k)
        for i, t in enumerate(texts):
            if not t:
                continue
            codes = np.frombuffer(t.encode("utf-32-le"), np.uint32)
            _, c = np.unique(codes, return_counts=True)
            n = codes.size
            ents.append(ln[n] - float((c.astype(np.float64) * ln[c]).sum()) / n)
            ns.append(n)
            keep.append(i)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[keep].astype(np.int64)),
                "n_chars": pa.array(np.asarray(ns, np.int64)),
                "entropy_micro": pa.array(np.rint(np.asarray(ents) * 1e6).astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_CHAR_ENTROPY = """
WITH ch AS (
    SELECT doc_id, unnest(string_split_regex(text, '')) AS c
    FROM documents WHERE length(text) > 0
),
cc AS (SELECT doc_id, c, CAST(COUNT(*) AS BIGINT) AS k FROM ch GROUP BY 1, 2),
tot AS (SELECT doc_id, CAST(SUM(k) AS BIGINT) AS n, SUM(k * ln(k)) AS s FROM cc GROUP BY 1)
SELECT doc_id, n AS n_chars,
       CAST(ROUND((ln(n) - s / n) * 1000000) AS BIGINT) AS entropy_micro
FROM tot
"""


# ------------------------------------------------ TF-IDF keyword extraction


KEYWORDS_TOP_K = 3


def keywords_tfidf(sf_dir: str, k: int = KEYWORDS_TOP_K):
    """Per-document KEYWORD EXTRACTION: the top-k terms by tf·idf, idf =
    ln(N/df) — the classic summarization/labeling pass over a corpus (and
    the score family the reference's TF-IDF scorer uses per query,
    /root/reference/pkg/searcher/searcher.go TF-IDF branch — here inverted
    to run corpus-wide, per document, with no query).

    Shape: one vocab-bounded df aggregate (term_doc_freq's combiner), whose
    ln(N/df) weights are broadcast once via ray.put (past
    text_index.BROADCAST_TERMS_LIMIT the same regime switch as the term
    dictionary applies — hash_bucket_join the weights instead); then ONE
    streaming corpus pass scores and ranks inside each batch (a document's
    terms live in its own row, so per-doc top-k never crosses a batch).

    Float contract: idf weights are computed with math.log per DISTINCT df
    (bit-identical to DuckDB ln on this platform — np.log is NOT, see
    char_entropy), score = tf·idf is then ONE IEEE multiply on both sides;
    ranks order by (score DESC, term ASC) so equal scores break
    deterministically. Output (doc_id, term, rank) — integers/strings only.
    """
    import math

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = float(ds.count())

    df_tbl = term_doc_freq(sf_dir).to_pandas()  # vocab-bounded artifact
    dfs = df_tbl["df"].to_numpy(np.int64)
    idf_by_df = {int(d): math.log(n_docs / float(d)) for d in np.unique(dfs)}
    weights = {t: idf_by_df[int(d)] for t, d in zip(df_tbl["term"], dfs)}
    w_ref = ray.put(weights)

    def score(batch: pa.Table) -> pa.Table:
        w = ray.get(w_ref)
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        doc_rep = np.repeat(batch.column("doc_id").to_numpy(), counts)
        df = pd.DataFrame({"doc_id": doc_rep, "term": toks})
        tf = df.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        idf = np.fromiter((w[t] for t in tf["term"]), np.float64, len(tf))
        tf["score"] = tf["tf"].to_numpy(np.int64) * idf
        tf = tf.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True], kind="mergesort"
        )
        tf["rank"] = tf.groupby("doc_id", sort=False).cumcount() + 1
        top = tf[tf["rank"] <= k]
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
                "term": pa.array(top["term"].astype(str)),
                "rank": pa.array(top["rank"].to_numpy(np.int64)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def sql_keywords_tfidf(k: int = KEYWORDS_TOP_K) -> str:
    return f"""
WITH occ AS (SELECT doc_id, unnest({_TOKS2}) AS term FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf FROM occ GROUP BY 1, 2),
df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM occ GROUP BY 1),
nd AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents),
scored AS (
    SELECT t.doc_id, t.term,
           ROW_NUMBER() OVER (
               PARTITION BY t.doc_id
               ORDER BY t.tf * ln(nd.n / CAST(d.df AS DOUBLE)) DESC, t.term
           ) AS rank
    FROM tf t JOIN df d USING (term), nd)
SELECT doc_id, term, rank FROM scored WHERE rank <= {k}
"""


# ------------------------------------------- postings compression accounting


def postings_sizes(sf_dir: str):
    """Index-engineering accounting: for every term, the byte size its
    posting list takes under the engine's on-disk gap+LEB128-varint format
    (functions/hashing.delta_encode_postings — the reference codec,
    /root/reference/pkg/compress/compress.go:28-48) next to the raw 8-byte
    encoding — the compression-ratio audit run before sizing an index build.

    varint length is computed EXACTLY in integers (1 + one per 7-bit
    threshold crossed — no float log), identically in SQL; the first gap is
    the doc_id itself (the codec's prepend-0 contract). Distinct (term,
    doc_id) pairs dedup in-batch (a doc's terms live in one row), then ONE
    vocab-keyed exchange sorts and sizes each list vectorized. Output
    (term, n_postings, encoded_bytes, raw_bytes)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        doc_rep = np.repeat(batch.column("doc_id").to_numpy(), counts)
        df = pd.DataFrame({"term": toks, "doc_id": doc_rep}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def size_lists(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates().sort_values(["term", "doc_id"], kind="mergesort")
        ids = df["doc_id"].to_numpy(np.int64)
        first = np.r_[True, df["term"].to_numpy()[1:] != df["term"].to_numpy()[:-1]]
        gaps = np.where(first, ids, ids - np.r_[np.int64(0), ids[:-1]])
        nbytes = np.ones(gaps.size, np.int64)
        thr = np.int64(1) << 7
        while True:
            over = gaps >= thr
            if not over.any():
                break
            nbytes += over
            thr <<= 7
        out = pd.DataFrame({"term": df["term"].to_numpy(), "b": nbytes})
        g = out.groupby("term", sort=False)["b"].agg(["count", "sum"]).reset_index()
        return pd.DataFrame(
            {
                "term": g["term"],
                "n_postings": g["count"].to_numpy(np.int64),
                "encoded_bytes": g["sum"].to_numpy(np.int64),
                "raw_bytes": g["count"].to_numpy(np.int64) * 8,
            }
        )

    return hash_partitioned_apply(
        ds.map_batches(pairs, batch_format="pyarrow"), "term", size_lists
    )


def sql_postings_sizes() -> str:
    vlen = " + ".join(f"CAST(g >= {1 << (7 * i)} AS BIGINT)" for i in range(1, 9))
    return f"""
WITH occ AS (
    SELECT DISTINCT term, doc_id
    FROM (SELECT doc_id, unnest({_TOKS2}) AS term FROM documents)),
gaps AS (
    SELECT term,
           doc_id - COALESCE(LAG(doc_id) OVER (PARTITION BY term ORDER BY doc_id), 0) AS g
    FROM occ)
SELECT term, CAST(COUNT(*) AS BIGINT) AS n_postings,
       CAST(SUM(1 + {vlen}) AS BIGINT) AS encoded_bytes,
       8 * CAST(COUNT(*) AS BIGINT) AS raw_bytes
FROM gaps GROUP BY 1
"""


# ----------------------------------------------------- related-term expansion

RELATED_TOP_K = 3


def related_terms(sf_dir: str, window: int = SKIPGRAM_WINDOW, k: int = RELATED_TOP_K):
    """QUERY-EXPANSION table: for every term, its top-k co-occurring partner
    terms by windowed skip-gram count (count DESC, partner ASC) — the
    related-searches / synonym-candidate pass built on skipgram_pmi's pair
    machinery, integer-only (no PMI float needed for a rank output).

    Shape: the same vectorized shift pair partials, ONE pair-keyed count
    exchange, then each pair row fans to both directions and ONE term-keyed
    exchange ranks partners in-partition. Output (term, partner, n_pairs,
    rank)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def pair_partials(batch: pa.Table) -> pa.Table:
        flat, counts = tokenize_array(batch.column("text").to_pylist())
        doc_ix = np.repeat(np.arange(len(counts)), counts)
        parts = []
        for d in range(1, window + 1):
            if len(flat) <= d:
                break
            same = doc_ix[:-d] == doc_ix[d:]
            l, r = flat[:-d][same], flat[d:][same]
            lo = np.where(l <= r, l, r)
            hi = np.where(l <= r, r, l)
            parts.append(pd.DataFrame({"w1": lo, "w2": hi}))
        if not parts:
            return pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        g = (
            pd.concat(parts, ignore_index=True)
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["w1", "w2"], sort=False)["n"].sum().reset_index()
        return g.astype({"n": np.int64})

    pairs = hash_partitioned_apply(
        ds.map_batches(pair_partials, batch_format="pyarrow"), ["w1", "w2"], sum_pairs
    )

    def both_dirs(batch: pa.Table) -> pa.Table:
        w1 = batch.column("w1").to_pandas()
        w2 = batch.column("w2").to_pandas()
        n = batch.column("n").to_numpy()
        # self-pairs (w1 == w2) expand once, not twice
        m = (w1 != w2).to_numpy()
        return pa.table(
            {
                "term": pa.array(pd.concat([w1, w2[m]], ignore_index=True)),
                "partner": pa.array(pd.concat([w2, w1[m]], ignore_index=True)),
                "n": pa.array(np.concatenate([n, n[m]])),
            }
        )

    def rank_partners(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["term", "n", "partner"], ascending=[True, False, True], kind="mergesort")
        df["rank"] = df.groupby("term", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return pd.DataFrame(
            {
                "term": df["term"].to_numpy(),
                "partner": df["partner"].to_numpy(),
                "n_pairs": df["n"].to_numpy(np.int64),
                "rank": df["rank"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(
        pairs.map_batches(both_dirs, batch_format="pyarrow"), "term", rank_partners
    )


def sql_related_terms(window: int = SKIPGRAM_WINDOW, k: int = RELATED_TOP_K) -> str:
    return f"""
WITH toks AS (SELECT doc_id, {_TOKS2} AS t FROM documents),
pos AS (SELECT doc_id, unnest(t) AS w,
               generate_subscripts(t, 1) AS i FROM toks),
ev AS (
    SELECT LEAST(a.w, b.w) AS w1, GREATEST(a.w, b.w) AS w2
    FROM pos a JOIN pos b
      ON a.doc_id = b.doc_id AND b.i - a.i BETWEEN 1 AND {window}),
pc AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS n FROM ev GROUP BY 1, 2),
d AS (SELECT w1 AS term, w2 AS partner, n FROM pc
      UNION ALL SELECT w2, w1, n FROM pc WHERE w1 <> w2),
ranked AS (
    SELECT term, partner, n,
           ROW_NUMBER() OVER (PARTITION BY term ORDER BY n DESC, partner) AS rank
    FROM d)
SELECT term, partner, n AS n_pairs, rank FROM ranked WHERE rank <= {k}
"""


# ---------------------------------------------------------- lexicon tagging


# (kw_id, phrase) — the broadcast dictionary of a brand-safety / taxonomy
# tagger; tiny here, an Aho-Corasick automaton broadcast once (ray.put) at
# real lexicon sizes.
TAG_LEXICON: list[tuple[int, str]] = [
    (0, "sort merge"),
    (1, "join order"),
    (2, "batch batch"),
    (3, "table scan"),
    (4, "hash join"),
    (5, "data line"),
    (6, "window window"),
    (7, "stream spark"),
]


def lexicon_tags(sf_dir: str):
    """Multi-phrase dictionary tagging: per (doc, phrase), the number of
    NON-OVERLAPPING left-to-right occurrences of the phrase as a raw
    substring — the scan-side kernel of brand-safety / taxonomy / PII-lexicon
    tagging over a web corpus. The lexicon is broadcast state (a closure
    constant; a broadcast Aho-Corasick automaton at 10^5-phrase scale);
    the corpus streams through one map_batches with zero shuffles.
    Left-to-right non-overlapping is exactly what both regex findall and
    SQL replace() compute, so the twins agree on self-overlapping phrases
    ("batch batch" in "batch batch batch" counts once on both engines).
    Output (doc_id, kw_id, n) for n > 0."""
    import re

    pats = [(kid, re.compile(re.escape(kw))) for kid, kw in TAG_LEXICON]

    def tag(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pandas()
        did = batch.column("doc_id").to_numpy()
        ids_out, kid_out, n_out = [], [], []
        for kid, pat in pats:
            n = texts.str.count(pat).to_numpy(np.int64)
            m = n > 0
            ids_out.append(did[m])
            kid_out.append(np.full(int(m.sum()), kid, dtype=np.int64))
            n_out.append(n[m])
        return pa.table(
            {
                "doc_id": np.concatenate(ids_out),
                "kw_id": np.concatenate(kid_out),
                "n": np.concatenate(n_out),
            }
        )

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(tag, batch_format="pyarrow")


def sql_lexicon_tags() -> str:
    vals = ", ".join(f"({kid}, '{kw}')" for kid, kw in TAG_LEXICON)
    return f"""
WITH lex(kw_id, kw) AS (VALUES {vals})
SELECT d.doc_id, CAST(l.kw_id AS BIGINT) AS kw_id,
       (length(d.text) - length(replace(d.text, l.kw, ''))) // length(l.kw) AS n
FROM documents d CROSS JOIN lex l
WHERE (length(d.text) - length(replace(d.text, l.kw, ''))) // length(l.kw) > 0
"""


# ------------------------------------------------------- feature hashing


FEATURE_HASH_DIMS = 64


def feature_hash(sf_dir: str):
    """HASHING-TRICK featurizer (Weinberger et al.): every doc becomes a
    signed-count vector over FEATURE_HASH_DIMS buckets — dim = h % 64,
    sign = (h // 64) % 2 (an independent hash bit), h = the md5-derived
    64-bit token hash whose SQL twin is SQL_HASH64_MD5. The streaming
    embedding for linear models / MinHash-free similarity when no learned
    encoder is available.

    Shape: ZERO shuffles — a doc's tokens live in its row, so one
    map_batches pass emits final (doc_id, dim, feat≠0) rows; hashing runs
    once per DISTINCT batch token. Exact integers end-to-end."""
    from ..functions.hashing import hash64_md5

    def featurize(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        if len(toks) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "feat": pa.array([], pa.int64()),
                }
            )
        uniq, inv = np.unique(toks, return_inverse=True)
        h = hash64_md5(uniq)
        dim = (h % np.uint64(FEATURE_HASH_DIMS)).astype(np.int64)[inv]
        sign = np.where(
            ((h // np.uint64(FEATURE_HASH_DIMS)) % np.uint64(2)).astype(np.int64)[inv] == 0,
            np.int64(1),
            np.int64(-1),
        )
        di = np.repeat(np.arange(len(doc_ids), dtype=np.int64), counts)
        key = di * FEATURE_HASH_DIMS + dim
        feat = np.bincount(key, weights=sign, minlength=len(doc_ids) * FEATURE_HASH_DIMS)
        feat = np.rint(feat).astype(np.int64)  # ±1 sums are exact in float64
        nz = np.flatnonzero(feat)
        return pa.table(
            {
                "doc_id": doc_ids[nz // FEATURE_HASH_DIMS],
                "dim": nz % FEATURE_HASH_DIMS,
                "feat": feat[nz],
            }
        )

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(featurize, batch_format="pyarrow")


def sql_feature_hash() -> str:
    from ..sources.derived import SQL_HASH64_MD5

    toks = SQL_TOKENIZE.format(col="text")
    h = SQL_HASH64_MD5.format(col="tok")
    return f"""
WITH toks AS (SELECT doc_id, unnest({toks}) AS tok FROM documents),
hv AS (SELECT doc_id, {h} AS h FROM toks),
f AS (
    SELECT doc_id, CAST(h % {FEATURE_HASH_DIMS} AS BIGINT) AS dim,
           SUM(CASE WHEN (h // {FEATURE_HASH_DIMS}) % 2 = 0 THEN 1 ELSE -1 END) AS feat
    FROM hv GROUP BY 1, 2)
SELECT doc_id, dim, CAST(feat AS BIGINT) AS feat FROM f WHERE feat <> 0
"""


# ------------------------------------------------- chi-square independence


def lang_source_chi2(sf_dir: str):
    """Pearson CHI-SQUARE independence test of lang × source — the corpus
    drift / sampling-bias audit (is language mix independent of the crawl
    source?). Exact integer contract: with per-cell observed O, row total
    R, column total C and N rows, each cell contributes
    (10⁶ · (O·N − R·C)²) // (N·R·C) — floor per cell, summed, arbitrary
    precision (Python int ↔ HUGEINT), ZERO-count cells included (their
    R·C/N mass is part of the statistic). Output one row
    (n_rows, n_cells, chi2_micro).

    Shape: per-batch (lang, source) count partials; the fuse is driver-side
    over O(cells × blocks) count rows — nothing corpus-sized moves."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().dropna()
        g = df.groupby(["lang", "source"], sort=False).size().reset_index(name="c")
        g["c"] = g["c"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    cells = parts.groupby(["lang", "source"], sort=False)["c"].sum()
    langs = sorted({k[0] for k in cells.index})
    sources = sorted({k[1] for k in cells.index})
    n = int(cells.sum())
    r = {l: int(cells[cells.index.get_level_values(0) == l].sum()) for l in langs}
    col = {s: int(cells[cells.index.get_level_values(1) == s].sum()) for s in sources}
    chi2 = 0
    for l in langs:
        for s in sources:
            o = int(cells.get((l, s), 0))
            d = o * n - r[l] * col[s]
            chi2 += (1000000 * d * d) // (n * r[l] * col[s])
    out = pd.DataFrame(
        {
            "n_rows": [np.int64(n)],
            "n_cells": [np.int64(len(langs) * len(sources))],
            "chi2_micro": [np.int64(chi2)],
        }
    )
    return ray.data.from_pandas(out)


SQL_LANG_SOURCE_CHI2 = """
WITH c AS (
    SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS o
    FROM documents WHERE lang IS NOT NULL AND source IS NOT NULL
    GROUP BY 1, 2),
r AS (SELECT lang, SUM(o) AS rt FROM c GROUP BY 1),
s AS (SELECT source, SUM(o) AS ct FROM c GROUP BY 1),
t AS (SELECT SUM(o) AS n FROM c),
cells AS (
    SELECT COALESCE(c.o, 0) AS o, r.rt, s.ct
    FROM r CROSS JOIN s
    LEFT JOIN c ON c.lang = r.lang AND c.source = s.source)
SELECT CAST(t.n AS BIGINT) AS n_rows,
       CAST((SELECT COUNT(*) FROM cells) AS BIGINT) AS n_cells,
       CAST(SUM((1000000 * (CAST(o AS HUGEINT) * t.n - rt * ct)
                         * (CAST(o AS HUGEINT) * t.n - rt * ct))
                // (CAST(t.n AS HUGEINT) * rt * ct)) AS BIGINT) AS chi2_micro
FROM cells, t GROUP BY t.n
"""


# ------------------------------------------------------- lexical diversity


def lexical_diversity(sf_dir: str):
    """Per-doc TYPE-TOKEN RATIO — distinct tokens per token, the lexical-
    diversity quality signal next to char_entropy / repetition_stats
    (template/spam pages score low). ttr_micro = 10⁶·n_types // n_tokens,
    pure integers. ZERO shuffles — one streaming scan, per-row np.unique
    over the flat token array segmented by doc. Empty docs are dropped on
    both engines. Output (doc_id, n_tokens, n_types, ttr_micro)."""

    def scan(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        n = len(doc_ids)
        di = np.repeat(np.arange(n), counts)
        # distinct per doc: sort (doc, token) pairs once, count group firsts
        order = np.lexsort((toks, di))
        dd, tt = di[order], toks[order]
        first = np.concatenate([[True], (dd[1:] != dd[:-1]) | (tt[1:] != tt[:-1])])
        types = np.bincount(dd[first], minlength=n).astype(np.int64)
        ntok = counts.astype(np.int64)
        keep = ntok > 0
        ttr = 1000000 * types[keep] // ntok[keep]
        return pa.table(
            {
                "doc_id": doc_ids[keep],
                "n_tokens": ntok[keep],
                "n_types": types[keep],
                "ttr_micro": ttr,
            }
        )

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(scan, batch_format="pyarrow")


def sql_lexical_diversity() -> str:
    toks = SQL_TOKENIZE.format(col="text")
    return f"""
WITH t AS (SELECT doc_id, {toks} AS toks FROM documents)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct(toks)) AS BIGINT) AS n_types,
       CAST(1000000 * len(list_distinct(toks)) // len(toks) AS BIGINT) AS ttr_micro
FROM t WHERE len(toks) > 0
"""


# ---------------------------------------------------- vocabulary growth


def vocab_growth(sf_dir: str):
    """HEAPS-LAW vocabulary growth curve: the corpus in doc_id order is cut
    into 10 deciles (dec = doc_id·10 // N over the dense id space); for
    each decile, the CUMULATIVE token count and CUMULATIVE distinct-term
    count after consuming deciles 0..d — the tokenizer-budget / OOV-rate
    planning curve. A term's contribution decile is its MINIMUM decile of
    occurrence, so cum_types(d) = Σ terms first seen ≤ d — exact, no
    approximate sketches. Output (dec, cum_tokens, cum_types), 10 rows.

    Shape: per-batch distinct (term, min-batch-dec) partials → ONE
    vocab-bounded term-keyed exchange taking the global min per term →
    10-bin counts; token counts ride the same scan as O(10 × blocks)
    partials; the 10-row cumsum is driver arithmetic."""
    import pyarrow.parquet as pq

    from ..stages.joins import hash_partitioned_apply

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        toks, counts = tokenize_array(batch.column("text").to_pylist())
        dec = doc_ids * 10 // n_docs
        di = np.repeat(dec, counts)
        df = pd.DataFrame({"term": toks, "dec": di})
        firsts = df.groupby("term", sort=False)["dec"].min().reset_index()
        ntok = np.bincount(dec, weights=counts, minlength=10)[:10]
        tok_rows = pd.DataFrame(
            {"term": [f"#tokens{d}" for d in range(10)], "dec": -np.rint(ntok).astype(np.int64) - 1}
        )
        # token partials ride the exchange as sentinel terms (dec < 0 encodes
        # the per-decile token count so one exchange carries both signals);
        # '#' cannot tokenize, and NEVER use \x00 sentinels — pandas' string
        # hashtable is NUL-terminated and collapses them into one group
        return pa.Table.from_pandas(pd.concat([firsts, tok_rows], ignore_index=True), preserve_index=False)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        toks_mask = df["dec"] < 0
        out = []
        t = df[toks_mask]
        if len(t):
            g = t.groupby("term", sort=False)["dec"].apply(lambda s: (-s - 1).sum())
            out.append(pd.DataFrame({"kind": 1, "dec": [int(k[7:]) for k in g.index], "v": g.to_numpy(np.int64)}))
        f = df[~toks_mask]
        if len(f):
            firsts = f.groupby("term", sort=False)["dec"].min()
            cnt = firsts.value_counts()
            out.append(pd.DataFrame({"kind": 0, "dec": cnt.index.to_numpy(np.int64), "v": cnt.to_numpy(np.int64)}))
        if not out:
            return pd.DataFrame({"kind": pd.Series(dtype=np.int64), "dec": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)})
        return pd.concat(out, ignore_index=True).astype(np.int64)

    parts = hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "term", fuse
    ).to_pandas()
    ntok = np.zeros(10, dtype=np.int64)
    nty = np.zeros(10, dtype=np.int64)
    for kind, dec, v in parts.itertuples(index=False):
        (ntok if kind == 1 else nty)[int(dec)] += int(v)
    out = pd.DataFrame(
        {
            "dec": np.arange(10, dtype=np.int64),
            "cum_tokens": np.cumsum(ntok),
            "cum_types": np.cumsum(nty),
        }
    )
    return ray.data.from_pandas(out)


def sql_vocab_growth() -> str:
    toks = SQL_TOKENIZE.format(col="text")
    return f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
tok AS (SELECT doc_id * 10 // (SELECT n FROM nn) AS dec, unnest({toks}) AS term
        FROM documents),
tcount AS (SELECT dec, CAST(COUNT(*) AS BIGINT) AS ntok FROM tok GROUP BY 1),
firsts AS (SELECT term, MIN(dec) AS dec FROM tok GROUP BY 1),
ty AS (SELECT dec, CAST(COUNT(*) AS BIGINT) AS nty FROM firsts GROUP BY 1),
decs AS (SELECT unnest(range(0, 10)) AS dec)
SELECT CAST(d.dec AS BIGINT) AS dec,
       CAST(SUM(COALESCE(t.ntok, 0)) OVER (ORDER BY d.dec) AS BIGINT) AS cum_tokens,
       CAST(SUM(COALESCE(y.nty, 0)) OVER (ORDER BY d.dec) AS BIGINT) AS cum_types
FROM decs d LEFT JOIN tcount t ON t.dec = d.dec LEFT JOIN ty y ON y.dec = d.dec
"""
