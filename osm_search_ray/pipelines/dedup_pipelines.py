"""Deduplication pipelines over ``documents`` (training-data operators +
the reference's D1 near-dup suppression analogue).

Exact / exact-substring / n-gram-Jaccard dedup live here, each with an
EXACT SQL oracle (as do simhash and fingerprint, oracled since r04 via
the md5-hash64 twin + SQL splitmix64 chain in sources/derived.py).
MinHash-LSH / SimHash / embedding-cosine near-dup STAGES live in
stages/dedup.py; MinHash gained its exact oracle too (sql_dedup_minhash —
the seed-derived permutation coefficients embed as SQL literals), so of
the dedup driver queries only dedup_embedding remains rows-only
(numpy-RNG hyperplanes + float sign sums are not SQL-reproducible — unit
oracle in tests/test_dedup.py)."""

from __future__ import annotations

import functools
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.readers import read_pq
from ..sources.memo import memo, store_dir

from ..functions.hashing import hash64_str


def dedup_exact(sf_dir: str):
    """Exact content dedup: keep the lowest doc_id per distinct text, report
    group size. The exchange carries ONLY (doc_id, h1, h2) — a ~128-bit
    content identity from two independent 64-bit hash families (crc-based
    splitmix64 + pandas SipHash) — never the text itself: at corpus scale the
    one all-to-all here must not move the corpus (VERDICT r03 item 3). Two
    distinct texts agreeing on BOTH hashes is a ~2^-128 event per pair
    (~|docs|^2 / 2^129 overall — a non-event at 10^12 docs), so group
    identity == text identity and no in-group text verification pass is
    needed.

    Output: (doc_id, n_dups) for each kept representative."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pandas()
        h1 = hash64_str(texts.tolist()).astype(np.int64)
        h2 = pd.util.hash_pandas_object(texts, index=False).to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "h1": pa.array(h1),
                "h2": pa.array(h2),
            }
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")

    # hash-partition on h1 into BOUNDED Ray groups (~one group per distinct
    # doc would pay map_groups' per-group ms overhead corpus-wide — VERDICT
    # r01 item 7); the real per-text grouping is one vectorized pandas
    # groupby per partition, keyed by the 128-bit (h1, h2) identity
    def keep_first_partition(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["h1", "h2"], sort=False)
            .agg(doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
            .reset_index(drop=True)
        )

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(hashed, "h1", keep_first_partition, num_parts=64)


SQL_DEDUP_EXACT = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dups
FROM documents GROUP BY text
"""


def dedup_minhash(sf_dir: str):
    """MinHash-LSH near-dup candidate pairs over documents — exact-oracled
    since r04 (sql_dedup_minhash reproduces signatures, band buckets and
    the jaccard estimate bit-for-bit; the estimator is also unit-tested
    against exact Jaccard in tests/test_functions.py)."""
    import ray.data

    from ..stages.dedup import minhash_lsh_pairs

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.5)


def _sql_dedup_minhash(
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 5,
    seed: int = 7,
    threshold: float = 0.5,
    pair_pred: str = "a.doc_id < b.doc_id",
    out_a: str = "doc_a",
    out_b: str = "doc_b",
) -> str:
    """Exact oracle for dedup_minhash (r04): the ENTIRE MinHash-LSH
    pipeline reproduced relationally, bit-for-bit against
    functions/hashing.minhash_signature_batch —

      * normalized text = tokens joined by ' ', utf-8 bytes hex-parsed,
        short rows null-padded to one shingle window (engine ljust twin);
      * window hash = splitmix64(Σ byte·257^j mod 2^64) via the SQL chain;
      * 128 universal-hash permutations min-folded per doc — the (a_p, b_p)
        coefficients are seed-derived CONSTANTS (perm_coeffs), embedded as
        a VALUES table, with the wraparound a·x multiply 32-bit-split;
      * band buckets = bit_xor of (sig · 2654435761 mod 2^64) over each
        band's rows, sign bit masked — the engine's band_rows math;
      * candidate pairs share any band bucket; jaccard_est = eq/128.0 is
        an exact dyadic double on both sides, so even the float column
        hash-matches.

    The threshold filter compares the integer match count
    (eq >= ceil(τ·num_perm)), which is exactly the engine's est >= τ for
    EVERY τ — eq/num_perm >= τ ⟺ eq >= ceil(τ·num_perm)."""
    from ..functions.hashing import perm_coeffs
    from ..functions.tokenize import SQL_TOKENIZE
    from ..sources.derived import sql_splitmix64_chain

    p64 = 1 << 64
    a, b = perm_coeffs(num_perm, seed)
    perm_rows = ", ".join(
        f"({p}, {int(a[p])}::HUGEINT, {int(b[p])}::HUGEINT)" for p in range(num_perm)
    )
    pows = [pow(257, j, p64) for j in range(shingle_k)]  # ascending j (unreversed)
    pow_rows = ", ".join(f"({o}, {p}::HUGEINT)" for o, p in enumerate(pows))
    byte_at = "CAST('0x' || substr(hx, 2 * (ws.s + o.o) - 1, 2) AS BIGINT)::HUGEINT"
    mul_ax = (
        f"((pc.a % 4294967296) * u.x % {p64} + "
        f"((pc.a // 4294967296) * (u.x % 4294967296)) % 4294967296 * 4294967296) % {p64}"
    )
    tok = SQL_TOKENIZE.format(col="text")
    return f"""
WITH norm AS (SELECT doc_id, array_to_string({tok}, ' ') AS nt FROM documents),
raw AS (
    SELECT doc_id,
           hex(encode(nt)) || repeat('00', GREATEST(0, {shingle_k} - octet_length(encode(nt)))) AS hx,
           GREATEST(octet_length(encode(nt)), {shingle_k}) AS len
    FROM norm),
pw(o, p) AS (VALUES {pow_rows}),
pc(p, a, b) AS (VALUES {perm_rows}),
ws AS (SELECT doc_id, hx, unnest(range(1, len - {shingle_k} + 2)) AS s FROM raw),
wh AS (
    SELECT ws.doc_id, ws.s AS s, SUM({byte_at} * pw.p) % {p64} AS v
    FROM ws, range(0, {shingle_k}) o(o) JOIN pw ON pw.o = o.o
    GROUP BY 1, 2),
wd AS (SELECT DISTINCT doc_id, v FROM wh),
{sql_splitmix64_chain('wd', ['doc_id'], 'v', 'sm')},
u AS (SELECT DISTINCT doc_id, x FROM sm),
sig AS (
    SELECT u.doc_id, pc.p, MIN(({mul_ax} + pc.b) % {p64}) AS sig
    FROM u, pc GROUP BY 1, 2),
banded AS (
    SELECT doc_id, p // {num_perm // bands} AS band,
           CAST((sig * 2654435761::HUGEINT) % {p64} AS UBIGINT) AS m
    FROM sig),
buckets AS (
    SELECT doc_id, band, bit_xor(m) & 9223372036854775807::UBIGINT AS bucket
    FROM banded GROUP BY 1, 2),
cand AS (
    SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM buckets a JOIN buckets b ON a.band = b.band AND a.bucket = b.bucket
                                  AND {pair_pred}),
est AS (
    SELECT c.doc_a, c.doc_b, SUM(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END) AS eq
    FROM cand c
    JOIN sig sa ON sa.doc_id = c.doc_a
    JOIN sig sb ON sb.doc_id = c.doc_b AND sb.p = sa.p
    GROUP BY 1, 2)
SELECT doc_a AS {out_a}, doc_b AS {out_b}, eq / {num_perm}.0 AS jaccard_est
FROM est WHERE eq >= {math.ceil(threshold * num_perm)}
"""


sql_dedup_minhash = functools.cache(_sql_dedup_minhash)


# ------------------------------------------- incremental dedup vs a store

INCR_NEW_MOD = 10  # doc_id % 10 == 0 → the deterministic "new crawl" batch

def _mod_split(new: bool):
    """Batch filter selecting the deterministic corpus split: the 'new
    crawl' half (doc_id % INCR_NEW_MOD == 0) or the stored-corpus rest."""

    def f(t: pa.Table) -> pa.Table:
        mod = t.column("doc_id").to_numpy() % INCR_NEW_MOD
        return t.filter(pa.array(mod == 0 if new else mod != 0))

    return f


def _minhash_store_dir(sf_dir: str) -> str:
    """Build (once per corpus) the persisted LSH store for the OLD portion
    of the corpus (doc_id % INCR_NEW_MOD != 0) and return its directory."""
    from ..stages.dedup import build_minhash_store

    path = f"{sf_dir}/documents.parquet"

    def build(out_dir: str) -> None:
        ds = read_pq(path, columns=["doc_id", "text"]).map_batches(
            _mod_split(new=False), batch_format="pyarrow"
        )
        build_minhash_store(ds, out_dir)

    return store_dir("minhash_store", [path], build)


def dedup_incremental(sf_dir: str):
    """Incremental MinHash dedup against a PERSISTED corpus LSH store — the
    continuous-crawl operator: the corpus split doc_id % 10 != 0 is signed,
    banded and written to disk ONCE per process (checkpointed, partitioned
    by bucket/id hash), then the 'new crawl' split doc_id % 10 == 0 is
    deduped against it by probing only the touched partitions
    (stages/dedup.minhash_store_new_pairs) — the old corpus is never
    re-processed. Output (doc_new, doc_old, jaccard_est); exact-oracled by
    the same SQL LSH pipeline with the pair predicate restricted to
    new×old (sql_dedup_incremental)."""
    from ..stages.dedup import minhash_store_new_pairs

    store = _minhash_store_dir(sf_dir)
    new_docs = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        _mod_split(new=True), batch_format="pyarrow"
    )
    return minhash_store_new_pairs(new_docs, store, threshold=0.5)


def _sql_dedup_incremental() -> str:
    return _sql_dedup_minhash(
        pair_pred=f"a.doc_id % {INCR_NEW_MOD} = 0 AND b.doc_id % {INCR_NEW_MOD} <> 0",
        out_a="doc_new",
        out_b="doc_old",
    )


sql_dedup_incremental = functools.cache(_sql_dedup_incremental)


def dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs — exact-oracled since r04 (SQL_DEDUP_SIMHASH)."""
    import ray.data

    from ..stages.dedup import simhash_near_dups

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_near_dups(ds, max_hamming=3)


def _sql_dedup_simhash(max_hamming: int = 3) -> str:
    """Exact oracle for dedup_simhash (r04): token hashes via the md5
    hash64 twin, per-bit majority as an integer sign-sum (64 rows/token,
    GROUP BY doc,bit), signature assembled from 2^bit terms in HUGEINT,
    4×16-bit block buckets, Hamming via bit_count(xor). Token-less docs
    keep the engine's sig=0 through the LEFT JOIN."""
    from ..functions.tokenize import SQL_TOKENIZE
    from ..sources.derived import SQL_HASH64_MD5

    h = SQL_HASH64_MD5.format(col="tok")
    return f"""
WITH toks AS (SELECT doc_id, unnest({SQL_TOKENIZE.format(col='text')}) AS tok FROM documents),
th AS (SELECT doc_id, {h} AS h FROM toks),
bitscore AS (
    SELECT doc_id, j.j AS bit,
           SUM(CASE WHEN ((h >> CAST(j.j AS INTEGER)) & 1::UBIGINT) = 1::UBIGINT
               THEN 1 ELSE -1 END) AS score
    FROM th, range(0, 64) j(j) GROUP BY 1, 2),
sigs0 AS (
    SELECT doc_id,
           CAST(SUM(CASE WHEN score > 0 THEN (1::HUGEINT << CAST(bit AS INTEGER))
                    ELSE 0::HUGEINT END) AS UBIGINT) AS sig
    FROM bitscore GROUP BY 1),
sigs AS (
    SELECT d.doc_id, COALESCE(s.sig, 0::UBIGINT) AS sig
    FROM documents d LEFT JOIN sigs0 s USING (doc_id)),
blocks AS (
    SELECT doc_id, sig, j.j AS block,
           (sig >> CAST(16 * j.j AS INTEGER)) & 65535::UBIGINT AS key
    FROM sigs, range(0, 4) j(j)),
pairs AS (
    SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
           bit_count(xor(a.sig, b.sig)) AS hamming
    FROM blocks a JOIN blocks b ON a.block = b.block AND a.key = b.key
                                AND a.doc_id < b.doc_id)
SELECT doc_a, doc_b, CAST(hamming AS BIGINT) AS hamming
FROM pairs WHERE hamming <= {max_hamming}
"""


sql_dedup_simhash = functools.cache(_sql_dedup_simhash)


def dedup_embedding(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane LSH — exact-oracled
    since r04 (sql_dedup_embedding: splitmix64-derived ±1 planes embedded
    as literals, list_reduce replaying the engine's fixed-order float
    accumulation; see stages/dedup.ordered_dot)."""
    import ray.data

    from ..stages.dedup import embedding_near_dups

    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_near_dups(ds, threshold=0.35)


def _sql_dedup_embedding(
    threshold: float = 0.35,
    planes: int = 12,
    bands: int = 2,
    seed: int = 11,
    max_bucket: int = 8192,
    dim: int = 64,
) -> str:
    """Exact oracle for dedup_embedding (r04): the full hyperplane-LSH +
    cosine-verify pipeline relationally —

      * the ±1 plane matrix is the SAME splitmix64-derived constant the
        engine memoizes (stages/dedup.rademacher_planes), embedded as
        DOUBLE list literals (±1·v is exact — no rounding anywhere in the
        projection except the additions);
      * every float reduction (plane projection, norm², pair dot) is a
        list_reduce over a list_transform/list_zip in dimension order —
        LEFT-ASSOCIATIVE, the exact order the engine's ordered_dot /
        ordered_proj accumulate in;
      * band buckets, the per-band salt cap (uint64-wrap mix % 2^31 %
        ceil(sz/max_bucket)) and the a<b distinct pair set mirror
        pairs_in_partition integer-for-integer;
      * cosine = dot / (GREATEST(√norm², 1e-12) · GREATEST(√norm², 1e-12))
        — single IEEE ops on both sides, so the float column hash-matches.

    Assumes the registered fixture dim (64); the engine adapts to any dim."""
    from ..stages.dedup import rademacher_planes

    w = rademacher_planes(bands * planes, dim, seed)
    plane_rows = ",".join(
        "({}, [{}])".format(p, ",".join(f"{v:.1e}" for v in w[p])) for p in range(bands * planes)
    )
    return f"""
WITH planes(p, w) AS (VALUES {plane_rows}),
proj AS (
    SELECT e.vec_id, pl.p,
           list_reduce(list_transform(list_zip(e.embedding, pl.w),
                                      z -> CAST(z[1] AS DOUBLE) * z[2]),
                       (a, b) -> a + b) AS s
    FROM embeddings e CROSS JOIN planes pl),
buckets AS (
    SELECT vec_id, p // {planes} AS band,
           CAST(SUM(CASE WHEN s > 0 THEN 1::BIGINT << (p % {planes}) ELSE 0 END) AS BIGINT) AS bucket
    FROM proj GROUP BY 1, 2),
sized AS (SELECT band, bucket, COUNT(*) AS sz FROM buckets GROUP BY 1, 2),
salted AS (
    SELECT b.vec_id, b.band, b.bucket,
           CAST((CAST(b.vec_id AS HUGEINT) * 2654435761 + b.band * 40503)
                % 18446744073709551616 % 2147483648
                % GREATEST(CAST(ceil(s.sz / {max_bucket}.0) AS BIGINT), 1) AS BIGINT) AS salt
    FROM buckets b JOIN sized s USING (band, bucket) WHERE s.sz > 1),
cand AS (
    SELECT DISTINCT a.vec_id AS doc_a, b.vec_id AS doc_b
    FROM salted a JOIN salted b
      ON a.band = b.band AND a.bucket = b.bucket AND a.salt = b.salt AND a.vec_id < b.vec_id),
vec AS (
    SELECT vec_id, embedding,
           GREATEST(sqrt(list_reduce(list_transform(embedding,
                                                    x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)),
                                     (a, b) -> a + b)), 1e-12) AS den
    FROM embeddings),
scored AS (
    SELECT c.doc_a, c.doc_b,
           list_reduce(list_transform(list_zip(va.embedding, vb.embedding),
                                      z -> CAST(z[1] AS DOUBLE) * CAST(z[2] AS DOUBLE)),
                       (a, b) -> a + b) / (va.den * vb.den) AS cosine
    FROM cand c JOIN vec va ON va.vec_id = c.doc_a JOIN vec vb ON vb.vec_id = c.doc_b)
SELECT doc_a, doc_b, cosine FROM scored WHERE cosine >= {threshold:.17e}
"""


sql_dedup_embedding = functools.cache(_sql_dedup_embedding)


def _sql_dedup_fingerprint(window: int = 16) -> str:
    """Exact oracle for dedup_fingerprint (r04): per byte-window the
    Karp–Rabin polynomial Σ byte·257^(w-1-o) mod 2^64 (hex-parsed bytes,
    power constants as a VALUES join, HUGEINT accumulation), then the SQL
    splitmix64 chain and a per-doc MIN; texts shorter than the window take
    the md5-hash64 fallback — all bit-identical to
    functions/hashing.rolling_fingerprint. Fingerprints are re-signed to
    the engine's int64 view before grouping."""
    from ..sources.derived import SQL_HASH64_MD5, sql_splitmix64_chain

    p64 = 1 << 64
    pows = [pow(257, window - 1 - o, p64) for o in range(window)]
    pow_rows = ", ".join(f"({o}, {p}::HUGEINT)" for o, p in enumerate(pows))
    byte_at = "CAST('0x' || substr(hx, 2 * (ws.s + o.o) - 1, 2) AS BIGINT)::HUGEINT"
    md5h = SQL_HASH64_MD5.format(col="text")
    signed = "CASE WHEN fp >= 9223372036854775808::HUGEINT THEN fp - 18446744073709551616::HUGEINT ELSE fp END"
    return f"""
WITH raw AS (
    SELECT doc_id, text, hex(encode(text)) AS hx,
           octet_length(encode(text)) AS len
    FROM documents),
pw(o, p) AS (VALUES {pow_rows}),
ws AS (
    SELECT doc_id, hx, unnest(range(1, len - {window} + 2)) AS s
    FROM raw WHERE len >= {window}),
wh AS (
    SELECT ws.doc_id, ws.s AS s,
           SUM({byte_at} * pw.p) % {p64} AS v
    FROM ws, range(0, {window}) o(o)
    JOIN pw ON pw.o = o.o
    GROUP BY 1, 2),
{sql_splitmix64_chain('wh', ['doc_id'], 'v', 'sm')},
fp_long AS (SELECT doc_id, MIN(x) AS fp FROM sm GROUP BY 1),
fp_all AS (
    SELECT r.doc_id,
           COALESCE(f.fp, CAST({md5h} AS HUGEINT)) AS fp
    FROM raw r LEFT JOIN fp_long f USING (doc_id)),
fp_signed AS (SELECT doc_id, CAST({signed} AS BIGINT) AS fingerprint FROM fp_all)
SELECT fingerprint, COUNT(*) AS n_docs, MIN(doc_id) AS min_doc_id
FROM fp_signed GROUP BY 1
"""


sql_dedup_fingerprint = functools.cache(_sql_dedup_fingerprint)


def dedup_fingerprint(sf_dir: str):
    """Rolling-hash fingerprint per doc + exact dedup on the fingerprint:
    output (fingerprint, n_docs, min_doc_id) — oracle-checked exactly via
    SQL_DEDUP_FINGERPRINT (r04)."""
    import pandas as pd
    import ray.data

    from ..stages.textstats import fingerprint_stage

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    fp = fingerprint_stage(ds)

    # bounded partitions + one vectorized groupby per partition (same
    # rationale as dedup_exact: ~one Ray group per distinct fingerprint
    # would pay per-group overhead corpus-wide)
    def agg_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("fingerprint", sort=False)
            .agg(n_docs=("doc_id", "size"), min_doc_id=("doc_id", "min"))
            .reset_index()
        )
        return g[["fingerprint", "n_docs", "min_doc_id"]]

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(fp, "fingerprint", agg_partition, num_parts=64)


# ----------------------------------------------------- n-gram Jaccard dedup

NGRAM_N = 3
NGRAM_THRESHOLD_MICRO = 500_000  # keep pairs with jaccard >= 0.5
NGRAM_MAX_OCC = 64  # per-gram distinct-doc cap (boilerplate guard, SQL-mirrored)
NGRAM_SIZES_BROADCAST_LIMIT = 4_000_000  # per-doc size table broadcast cutover

def _distinct_kgrams(sf_dir: str, n: int) -> "ray.data.Dataset":
    """DISTINCT (doc_id, ghash) token-n-gram table over documents —
    materialized once per (corpus, n) and shared by dedup_ngram,
    dedup_ngram_prefix and containment_pairs (identical prep in all
    three)."""
    path = f"{sf_dir}/documents.parquet"

    def build():
        return read_pq(path, columns=["doc_id", "text"]).map_batches(
            lambda b: _kgram_explode(b, n), batch_format="pyarrow"
        ).map_batches(
            lambda b: pa.Table.from_pandas(
                b.select(["doc_id", "ghash"]).to_pandas().drop_duplicates(),
                preserve_index=False,
            ),
            batch_format="pyarrow",
        ).materialize()

    return memo("kgrams", [path], build, n)


def dedup_ngram(
    sf_dir: str,
    n: int = NGRAM_N,
    threshold_micro: int = NGRAM_THRESHOLD_MICRO,
    max_occ: int = NGRAM_MAX_OCC,
):
    """Token-n-gram Jaccard near-dup pairs over the DISTINCT-gram sets:
    jaccard(a, b) = |A∩B| / (|A|+|B|-|A∩B|), computed exactly and
    distributed — no LSH, no sampling. Grams in more than ``max_occ``
    distinct docs are boilerplate and dropped from BOTH the intersection
    and the per-doc set sizes (the SQL oracle mirrors the drop exactly,
    like dedup_substring's cap).

    Integer-only output: jaccard_micro = round-half-up(jaccard * 1e6)
    computed as (2·i·10⁶ + den) // (2·den) — no float appears on either
    side, so the oracle hash-matches bit-for-bit.

    Shape: distinct (doc, gram-hash) explode → ONE gram-keyed exchange
    emits per-gram pair rows + surviving-gram marker rows → pair-keyed /
    doc-keyed counting exchanges → two doc_id-bucketed joins attach set
    sizes. Every exchanged row is int64s; gram strings never leave the
    explode (2⁻⁶⁴ hash-collision bound, as dedup_substring)."""
    from ..stages.joins import attach_columns, hash_partitioned_apply

    grams = _distinct_kgrams(sf_dir, n)

    def gram_partition(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized pair expansion (self-merge, the dedup_substring shape) —
        # a per-gram Python loop here costs ~ms × |distinct grams| and
        # dominated the first version of this query
        df = df.drop_duplicates()
        sizes = df.groupby("ghash", sort=False)["doc_id"].transform("size")
        df = df[sizes <= max_occ]
        m = df.merge(df, on="ghash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        pairs = pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(np.int64),
                "doc_b": m["doc_id_y"].to_numpy(np.int64),
            }
        )
        # surviving-gram markers ride the same output (doc_b = -1)
        marks = pd.DataFrame({"doc_a": df["doc_id"].to_numpy(np.int64)})
        marks["doc_b"] = np.int64(-1)
        return pd.concat([pairs, marks], ignore_index=True)

    rows = hash_partitioned_apply(grams, "ghash", gram_partition, num_parts=32)

    def count_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["doc_a", "doc_b"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return g

    counted = hash_partitioned_apply(rows, ["doc_a", "doc_b"], count_partition, num_parts=32).materialize()

    def split(kind: int):
        def fn(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if kind == 0:  # pairs
                t = b.filter(pc.greater_equal(b.column("doc_b"), 0))
                return pa.table(
                    {"doc_a": t.column("doc_a"), "doc_b": t.column("doc_b"), "i": t.column("cnt")}
                )
            t = b.filter(pc.less(b.column("doc_b"), 0))  # per-doc set sizes
            return pa.table({"doc": t.column("doc_a"), "n_grams": t.column("cnt")})

        return fn

    pairs = counted.map_batches(split(0), batch_format="pyarrow")
    sizes = counted.map_batches(split(1), batch_format="pyarrow")
    if pairs.count() == 0:
        return ray.data.from_pandas(
            pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ["doc_a", "doc_b", "jaccard_micro"]})
        )

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ["doc_a", "doc_b", "jaccard_micro"]})
        i = df["i"].to_numpy(np.int64)
        den = df["na"].to_numpy(np.int64) + df["nb"].to_numpy(np.int64) - i
        jm = (2 * i * 1_000_000 + den) // (2 * den)
        out = pd.DataFrame(
            {"doc_a": df["doc_a"].to_numpy(np.int64), "doc_b": df["doc_b"].to_numpy(np.int64), "jaccard_micro": jm}
        )
        return out[out["jaccard_micro"] >= threshold_micro]

    # regime switch (the minhash-verify discipline): the per-doc set-size
    # table is one int per doc — broadcast it while it fits (zero extra
    # exchanges); the two doc_id-bucketed joins are the 10^12-doc path
    if sizes.count() <= NGRAM_SIZES_BROADCAST_LIMIT:
        sz = sizes.to_pandas()
        order = np.argsort(sz["doc"].to_numpy(np.int64), kind="mergesort")
        ref = ray.put((sz["doc"].to_numpy(np.int64)[order], sz["n_grams"].to_numpy(np.int64)[order]))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            docs_sorted, ngs = ray.get(ref)
            df = df.copy()
            df["na"] = ngs[np.searchsorted(docs_sorted, df["doc_a"].to_numpy(np.int64))]
            df["nb"] = ngs[np.searchsorted(docs_sorted, df["doc_b"].to_numpy(np.int64))]
            return _finish(df)

        return pairs.map_batches(attach, batch_format="pandas")

    a_side = sizes.map_batches(
        lambda t: pa.table({"doc_a": t.column("doc"), "na": t.column("n_grams")}),
        batch_format="pyarrow",
    )
    b_side = sizes.map_batches(
        lambda t: pa.table({"doc_b": t.column("doc"), "nb": t.column("n_grams")}),
        batch_format="pyarrow",
    )
    j = attach_columns(pairs, a_side, on="doc_a", cols={"na": "na"}, num_buckets=16)
    j = attach_columns(j, b_side, on="doc_b", cols={"nb": "nb"}, num_buckets=16)
    return j.map_batches(_finish, batch_format="pandas")


def _sql_dedup_ngram(n: int = NGRAM_N, threshold_micro: int = NGRAM_THRESHOLD_MICRO, max_occ: int = NGRAM_MAX_OCC) -> str:
    from ..functions.tokenize import SQL_TOKENIZE

    tok = SQL_TOKENIZE.format(col="text")
    return f"""
WITH toks AS (SELECT doc_id, {tok} AS t FROM documents),
sh AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(range(1, len(t) - {n} + 2),
                                 i -> array_to_string(t[i : i + {n} - 1], ' '))) AS g
    FROM toks WHERE len(t) >= {n}),
hot AS (SELECT g FROM sh GROUP BY g HAVING COUNT(*) > {max_occ}),
surv AS (SELECT s.doc_id, s.g FROM sh s LEFT JOIN hot h USING (g) WHERE h.g IS NULL),
counts AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS ng FROM surv GROUP BY 1),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
    FROM surv a JOIN surv b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2)
SELECT doc_a, doc_b,
       (2 * i * 1000000 + (ca.ng + cb.ng - i)) // (2 * (ca.ng + cb.ng - i)) AS jaccard_micro
FROM inter JOIN counts ca ON ca.doc_id = doc_a
           JOIN counts cb ON cb.doc_id = doc_b
WHERE (2 * i * 1000000 + (ca.ng + cb.ng - i)) // (2 * (ca.ng + cb.ng - i)) >= {threshold_micro}
"""


sql_dedup_ngram = functools.cache(_sql_dedup_ngram)


# ------------------------------------------------- exact substring dedup
# The Lee-et-al.-style "deduplicating training data" primitive: every MAXIMAL
# run of >= SUBSTR_K tokens shared verbatim between two documents. Shape:
# rolling K-gram explode (one scan) -> gram-keyed bounded exchange emits
# cross-doc occurrence pairs (grams above the occurrence cap are dropped —
# O(occ²) boilerplate guard; the SQL oracle mirrors the drop exactly, so the
# pair stays hash-equal at every scale) -> (doc_a, doc_b)-keyed exchange
# merges matches on each positional diagonal into maximal runs (vectorized
# gaps-and-islands).

SUBSTR_K = 8  # run-detection granularity (tokens)
SUBSTR_MAX_OCC = 64  # per-gram occurrence cap at scale (never binds at sf<=0.1)


def _kgram_explode(batch: pa.Table, k: int) -> pa.Table:
    """(doc_id, pos, ghash): 1-based token position, int64 hash of the K
    tokens joined by ' '. Vectorized: one tokenize pass, K shifted pandas
    str concats, one vectorized SipHash over the valid windows.

    The gram STRING never leaves this function — downstream only ever joins
    on gram equality, so the exchange key is its 64-bit hash (VERDICT r03
    item 4; ~|grams|^2 / 2^65 collision odds, the same bound
    ngram_jaccard_pairs_ds accepts). A collision merges two grams'
    occurrence lists: usually that only ADDS a spurious pair, but if the
    merged list crosses the max_occ cap it is dropped whole, losing the
    cold gram's real occurrences (and diverging from the per-STRING-capped
    SQL oracle) — accepted at the same 2^-65 odds."""
    from ..functions.tokenize import tokenize_array

    toks, counts = tokenize_array(batch.column("text").to_pylist())
    nd = len(counts)
    if len(toks) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "ghash": pa.array([], pa.int64()),
            }
        )
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    doc_idx = np.repeat(np.arange(nd), counts)
    s = pd.Series(toks, dtype=object)
    gram = s.str.cat([s.shift(-j) for j in range(1, k)], sep=" ", na_rep="\x00")
    # a position is valid iff the whole window stays inside one doc
    same_doc = np.zeros(len(toks), dtype=bool)
    if len(toks) >= k:
        same_doc[: len(toks) - k + 1] = doc_idx[: len(toks) - k + 1] == doc_idx[k - 1 :]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    pos = np.arange(len(toks), dtype=np.int64) - offsets[doc_idx] + 1
    ghash = pd.util.hash_pandas_object(gram[same_doc], index=False).to_numpy().astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[doc_idx[same_doc]]),
            "pos": pa.array(pos[same_doc]),
            "ghash": pa.array(ghash),
        }
    )


def dedup_substring(sf_dir: str, k: int = SUBSTR_K, max_occ: int = SUBSTR_MAX_OCC):
    """Maximal cross-doc shared token runs of >= k tokens.

    Output (doc_a, doc_b, start_a, start_b, n_tokens) — one row per maximal
    run (doc_a < doc_b; starts are 1-based token positions)."""
    import logging

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    grams = ds.map_batches(lambda b: _kgram_explode(b, k), batch_format="pyarrow")

    def gram_pairs(df: pd.DataFrame) -> pd.DataFrame:
        sizes = df.groupby("ghash", sort=False)["doc_id"].transform("size")
        if (sizes > max_occ).any():
            # ultra-hot grams are boilerplate (menus, headers) — pair
            # expansion on them is O(occ²) for near-zero dedup signal, so
            # they are DROPPED whole (runs crossing them fragment), loudly
            dropped = df.loc[sizes > max_occ, "ghash"].nunique()
            logging.getLogger(__name__).warning(
                "dedup_substring: dropping %d grams with > %d occurrences", dropped, max_occ
            )
            df = df[sizes <= max_occ].copy()
        m = df.merge(df, on="ghash", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return pd.DataFrame(
            {
                "doc_a": m["doc_id_a"].to_numpy(np.int64),
                "doc_b": m["doc_id_b"].to_numpy(np.int64),
                "pos_a": m["pos_a"].to_numpy(np.int64),
                "pos_b": m["pos_b"].to_numpy(np.int64),
            }
        )

    pairs = hash_partitioned_apply(grams, "ghash", gram_pairs, num_parts=32).materialize()
    if pairs.count() == 0:
        # typed empty result — a schema-less empty dataset breaks downstream
        # column access (the simhash lesson, ADVICE r02; from_pandas, not
        # from_arrow — a 0-row arrow table loses its schema in this Ray)
        return ray.data.from_pandas(
            pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ["doc_a", "doc_b", "start_a", "start_b", "n_tokens"]}
            )
        )

    def runs(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ["doc_a", "doc_b", "start_a", "start_b", "n_tokens"]}
            )
        df = df.assign(diag=df["pos_a"] - df["pos_b"]).sort_values(
            ["doc_a", "doc_b", "diag", "pos_a"], kind="mergesort"
        )
        key_change = (
            (df["doc_a"].diff() != 0)
            | (df["doc_b"].diff() != 0)
            | (df["diag"].diff() != 0)
            | (df["pos_a"].diff() != 1)
        )
        run_id = key_change.cumsum()
        g = df.groupby(run_id, sort=False)
        out = g.agg(
            doc_a=("doc_a", "first"),
            doc_b=("doc_b", "first"),
            start_a=("pos_a", "min"),
            start_b=("pos_b", "min"),
            n_tokens=("pos_a", "size"),
        ).reset_index(drop=True)
        out["n_tokens"] = out["n_tokens"].to_numpy(np.int64) + np.int64(k - 1)
        return out.astype(np.int64)

    return hash_partitioned_apply(pairs, ["doc_a", "doc_b"], runs, num_parts=32)


from ..functions.tokenize import SQL_TOKENIZE as _SQL_TOK

SQL_DEDUP_SUBSTRING = f"""
WITH toks AS (SELECT doc_id, {_SQL_TOK.format(col='text')} AS t FROM documents),
sh AS (
    SELECT doc_id,
           unnest(range(1, len(t) - {SUBSTR_K} + 2)) AS pos,
           unnest(list_transform(range(1, len(t) - {SUBSTR_K} + 2),
                                 i -> array_to_string(t[i : i + {SUBSTR_K} - 1], ' '))) AS gram
    FROM toks),
hot AS (
    SELECT gram FROM sh GROUP BY gram HAVING COUNT(*) > {SUBSTR_MAX_OCC}),
p AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.pos AS pos_a, b.pos AS pos_b
    FROM sh a JOIN sh b ON a.gram = b.gram AND a.doc_id < b.doc_id
    LEFT JOIN hot h ON h.gram = a.gram WHERE h.gram IS NULL),
isl AS (
    SELECT *, pos_a - ROW_NUMBER() OVER (PARTITION BY doc_a, doc_b, pos_a - pos_b ORDER BY pos_a) AS grp
    FROM p)
SELECT doc_a, doc_b,
       CAST(MIN(pos_a) AS BIGINT) AS start_a,
       CAST(MIN(pos_b) AS BIGINT) AS start_b,
       CAST(COUNT(*) + {SUBSTR_K} - 1 AS BIGINT) AS n_tokens
FROM isl GROUP BY doc_a, doc_b, pos_a - pos_b, grp
"""


def semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): deterministic-centroid clustering of the
    embedding table, then per-cluster pairwise cosine marks semantic
    duplicates. Integer-only output (vec_id, cluster, is_dup) — the full
    pipeline (splitmix64 centroid pick, ordered-cosine argmax assignment,
    salt-capped within-cluster pairs, cosine verify, witness rule) is exactly
    reproduced by sql_semantic_dedup. See stages/dedup.semantic_dedup for the
    scale shape."""
    import ray.data

    from ..stages.dedup import semantic_dedup as _sd

    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return _sd(ds, k=16, threshold=0.35)


def _sql_semantic_dedup(
    k: int = 16,
    threshold: float = 0.35,
    seed: int = 23,
    max_cluster: int = 8192,
) -> str:
    """Exact oracle for semantic_dedup: every stage relationally, every float
    reduction in the engine's fixed left-associative dimension order (the
    dedup_embedding list_reduce discipline), every integer rule (splitmix64
    centroid keys, argmax tie→lowest cidx, the salt cap, the a<b witness)
    mirrored integer-for-integer. Output is integer-only, but the
    comparisons it flows through are on bit-identical floats."""
    from ..sources.derived import sql_splitmix64_chain

    chain = sql_splitmix64_chain(
        "emb_ids", ["vec_id"], f"CAST(vec_id AS HUGEINT) + {seed << 32}", "keyed"
    )
    odot = (
        "list_reduce(list_transform(list_zip({a}, {b}),"
        " z -> CAST(z[1] AS DOUBLE) * CAST(z[2] AS DOUBLE)), (x, y) -> x + y)"
    )
    return f"""
WITH emb_ids AS (SELECT vec_id FROM embeddings),
{chain},
cent_ids AS (
    SELECT vec_id, cidx FROM (
        SELECT vec_id, ROW_NUMBER() OVER (ORDER BY x, vec_id) - 1 AS cidx FROM keyed)
    WHERE cidx < {k}),
vec AS (
    SELECT vec_id, embedding,
           GREATEST(sqrt({odot.format(a='embedding', b='embedding')}), 1e-12) AS den
    FROM embeddings),
cent AS (SELECT c.cidx, v.embedding, v.den FROM cent_ids c JOIN vec v USING (vec_id)),
cosc AS (
    SELECT v.vec_id, c.cidx,
           {odot.format(a='v.embedding', b='c.embedding')} / (v.den * c.den) AS cos
    FROM vec v CROSS JOIN cent c),
assign AS (
    SELECT vec_id, cidx AS cluster FROM (
        SELECT vec_id, cidx,
               ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY cos DESC, cidx) AS rn
        FROM cosc)
    WHERE rn = 1),
sized AS (SELECT cluster, COUNT(*) AS sz FROM assign GROUP BY 1),
salted AS (
    SELECT a.vec_id, a.cluster,
           CAST((CAST(a.vec_id AS HUGEINT) * 2654435761 + a.cluster * 40503)
                % 18446744073709551616 % 2147483648
                % GREATEST(CAST(ceil(s.sz / {max_cluster}.0) AS BIGINT), 1) AS BIGINT) AS salt
    FROM assign a JOIN sized s USING (cluster) WHERE s.sz > 1),
cand AS (
    SELECT a.vec_id AS doc_a, b.vec_id AS doc_b
    FROM salted a JOIN salted b
      ON a.cluster = b.cluster AND a.salt = b.salt AND a.vec_id < b.vec_id),
scored AS (
    SELECT c.doc_b,
           {odot.format(a='va.embedding', b='vb.embedding')} / (va.den * vb.den) AS cosine
    FROM cand c JOIN vec va ON va.vec_id = c.doc_a JOIN vec vb ON vb.vec_id = c.doc_b),
dups AS (SELECT DISTINCT doc_b FROM scored WHERE cosine >= {threshold:.17e})
SELECT a.vec_id, a.cluster, CASE WHEN d.doc_b IS NULL THEN 0 ELSE 1 END AS is_dup
FROM assign a LEFT JOIN dups d ON d.doc_b = a.vec_id
"""


sql_semantic_dedup = functools.cache(_sql_semantic_dedup)


# ------------------------------------------------ C4-style line-level dedup

LINE_WORDS = 10


def line_dedup(sf_dir: str):
    """Corpus-wide LINE dedup, the C4 / RefinedWeb cleaning step: every
    'line' occurring more than once in the corpus is kept only at its first
    occurrence (lowest (doc_id, line_no)) and removed everywhere else, and
    each document's text is reassembled from its surviving lines. The
    synthetic corpus has no newlines, so the line unit is the deterministic
    non-overlapping 10-word window — expressed identically in numpy and SQL
    (split on single space, exactly ceil(n_tokens/10) windows per doc, even
    for empty text).

    Scale shape: two exchanges. (1) winner election moves ONLY
    (h1, h2, doc_id, line_no) — a ~128-bit line identity from two
    independent hash families, never line text (dedup_exact's bytes
    discipline; two distinct lines agreeing on both hashes is ~2^-128 per
    pair, so hash identity == line identity). (2) reassembly moves each
    line's text ONCE, keyed by doc_id — unavoidable, the output itself is
    the corpus. Output (doc_id, text_dedup, n_lines, n_kept)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode_lines(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy()
        toks = pd.Series(batch.column("text").to_pylist()).str.split(" ")
        e = pd.DataFrame({"doc_id": doc, "tok": toks}).explode("tok", ignore_index=True)
        # doc_id is unique per input row, so cumcount is the token position
        e["line_no"] = (e.groupby("doc_id", sort=False).cumcount() // LINE_WORDS).astype(np.int64)
        g = (
            e.groupby(["doc_id", "line_no"], sort=False)["tok"]
            .agg(" ".join)
            .reset_index(name="line")
        )
        return pa.Table.from_pandas(
            g.astype({"doc_id": np.int64, "line_no": np.int64}), preserve_index=False
        )

    lines = ds.map_batches(explode_lines, batch_format="pyarrow").materialize()

    def to_identity(batch: pa.Table) -> pa.Table:
        s = pd.Series(batch.column("line").to_pylist())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "line_no": batch.column("line_no"),
                "h1": pa.array(hash64_str(s.tolist()).astype(np.int64)),
                "h2": pa.array(
                    pd.util.hash_pandas_object(s, index=False).to_numpy().astype(np.int64)
                ),
            }
        )

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        w = (
            df.sort_values(["doc_id", "line_no"], kind="mergesort")
            .drop_duplicates(["h1", "h2"], keep="first")
        )
        return w[["doc_id", "line_no"]].reset_index(drop=True)

    keep = hash_partitioned_apply(
        lines.map_batches(to_identity, batch_format="pyarrow"), "h1", winners
    )

    def tag_line(batch: pa.Table) -> pa.Table:
        return batch.append_column("is_keep", pa.array(np.zeros(len(batch), np.int64)))

    def tag_keep(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "line_no": batch.column("line_no"),
                "line": pa.array([""] * n, pa.string()),
                "is_keep": pa.array(np.ones(n, np.int64)),
            }
        )

    both = lines.map_batches(tag_line, batch_format="pyarrow").union(
        keep.map_batches(tag_keep, batch_format="pyarrow")
    )

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["is_keep"] == 0]
        k = df[df["is_keep"] == 1][["doc_id", "line_no"]]
        kept = l.merge(k, on=["doc_id", "line_no"], how="inner")
        kept = kept.sort_values(["doc_id", "line_no"], kind="mergesort")
        n_lines = l.groupby("doc_id", sort=False).size()
        agg = kept.groupby("doc_id", sort=False)["line"].agg("\n".join)
        n_kept = kept.groupby("doc_id", sort=False).size()
        return pd.DataFrame(
            {
                "doc_id": n_lines.index.to_numpy(np.int64),
                "text_dedup": agg.reindex(n_lines.index, fill_value="").to_numpy(dtype=object),
                "n_lines": n_lines.to_numpy(np.int64),
                "n_kept": n_kept.reindex(n_lines.index, fill_value=0).to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(both, "doc_id", reassemble)


SQL_LINE_DEDUP = f"""
WITH toks AS (
    SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
meta AS (
    SELECT doc_id, arr,
           CAST((len(arr) + {LINE_WORDS - 1}) // {LINE_WORDS} AS BIGINT) AS n_lines
    FROM toks),
lines AS (
    SELECT m.doc_id, CAST(j.j AS BIGINT) AS line_no,
           array_to_string(
               list_slice(m.arr, CAST(j.j * {LINE_WORDS} + 1 AS BIGINT),
                          CAST(j.j * {LINE_WORDS} + {LINE_WORDS} AS BIGINT)), ' ') AS line
    FROM meta m, UNNEST(range(0, m.n_lines)) AS j(j)),
ranked AS (
    SELECT doc_id, line_no, line,
           ROW_NUMBER() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
    FROM lines),
kept AS (
    SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text_dedup,
           CAST(COUNT(*) AS BIGINT) AS n_kept
    FROM ranked WHERE rn = 1 GROUP BY 1)
SELECT m.doc_id, COALESCE(k.text_dedup, '') AS text_dedup, m.n_lines,
       COALESCE(k.n_kept, 0) AS n_kept
FROM meta m LEFT JOIN kept k USING (doc_id)
"""


def dedup_clusters_minhash(sf_dir: str):
    """End-to-end near-duplicate CLUSTERING — the step after pair detection
    a real dedup pipeline runs: MinHash-LSH candidate pairs (the
    dedup_minhash operator, threshold 0.5) become the edge set of a
    similarity graph whose connected components are the duplicate groups
    (cluster representative = min doc_id). Composes the two existing
    scale-safe primitives: banded LSH pair generation and contraction CC
    (webcorpus.contraction_cc — local union-find per block + one node-keyed
    reconcile per level). Output (doc_id, cluster_id) for every doc with at
    least one near-dup."""
    from ..stages.dedup import minhash_lsh_pairs
    from .webcorpus import contraction_cc

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs_ds = minhash_lsh_pairs(ds, threshold=0.5)

    def to_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": batch.column("doc_a").cast(pa.int64()),
                "v": batch.column("doc_b").cast(pa.int64()),
            }
        )

    return contraction_cc(pairs_ds.map_batches(to_edges, batch_format="pyarrow"))


def _sql_dedup_clusters_minhash() -> str:
    """The dedup_minhash pair oracle (threshold 0.5, u/v aliases) feeding
    the dup_clusters recursive-CTE components oracle."""
    pair_sql = _sql_dedup_minhash(threshold=0.5, out_a="u", out_b="v")
    return f"""
WITH pairs AS MATERIALIZED (SELECT u, v FROM ({pair_sql})),
edges AS (SELECT u, v FROM pairs UNION SELECT v AS u, u AS v FROM pairs),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach AS (
    WITH RECURSIVE r(node, reached) AS (
        SELECT node, node FROM nodes
        UNION
        SELECT r.node, e.v FROM r JOIN edges e ON e.u = r.reached
    ) SELECT * FROM r)
SELECT node AS doc_id, MIN(reached) AS cluster_id FROM reach GROUP BY node
"""


sql_dedup_clusters_minhash = functools.cache(_sql_dedup_clusters_minhash)


# ------------------------------------- prefix-filtered set-similarity join

PREFIX_MAX_OCC = 4096  # loud exactness guard on per-prefix-gram fan-out


def dedup_ngram_prefix(
    sf_dir: str,
    n: int = NGRAM_N,
    threshold_micro: int = NGRAM_THRESHOLD_MICRO,
    max_occ_guard: int = PREFIX_MAX_OCC,
):
    """PREFIX-FILTERED exact n-gram Jaccard threshold join (Chaudhuri et
    al.'s prefix filter, the PPJoin candidate-generation core): instead of
    pairing documents through EVERY shared gram (dedup_ngram's shape), each
    document pairs only through its p = |d| − ceil(t'·|d|) + 1 globally
    RAREST grams — any pair with true Jaccard above the threshold must
    share a prefix gram, so the filter is LOSSLESS, and the driver check
    proves it: the SQL oracle is the UNCAPPED brute-force threshold join
    (dedup_ngram's oracle at max_occ=∞) and the outputs must hash-match.
    t' uses threshold_micro − 1 so pairs that only reach the threshold
    after round-half-up still generate a candidate.

    Shape: distinct (doc, gram-hash) explode → gram-keyed exchange attaches
    each gram's document frequency in place (no broadcast, no vocab-sized
    driver state) → doc-keyed exchange picks each doc's prefix (rarest
    first, (df, ghash) order) AND emits the doc's sorted gram-set blob →
    prefix-gram-keyed pair generation (fan-out guarded LOUDLY at
    ``max_occ_guard`` — an exactness guard, not a silent cap: prefix grams
    are the rarest, so a hot prefix gram means the threshold is too low for
    this corpus) → pair-keyed dedup → two doc-bucketed blob joins →
    vectorized sorted-set intersections. Every exchange row is int64s or
    one blob per doc. Output (doc_a, doc_b, jaccard_micro), round-half-up,
    filtered at ``threshold_micro`` — dedup_ngram's exact contract."""
    from ..stages.joins import attach_columns, hash_partitioned_apply

    grams = _distinct_kgrams(sf_dir, n)

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        df = df.assign(df_=df.groupby("ghash", sort=False)["ghash"].transform("size").astype(np.int64))
        return df

    with_df = hash_partitioned_apply(grams, "ghash", attach_df, num_parts=32)

    thr = threshold_micro - 1  # round-half-up safety margin (see docstring)

    def prefix_and_blob(df: pd.DataFrame) -> pd.DataFrame:
        # gram hashes are SIGNED int64 (either sign), so the blob marker is
        # an explicit column, never a sign sentinel on ghash. Fully
        # vectorized across the partition's docs — a per-doc mini-frame
        # loop here cost ~20 s at 5k docs (the map_groups lesson, in-process)
        empty = pd.DataFrame(
            {
                "ghash": pd.Series(dtype=np.int64),
                "doc_id": pd.Series(dtype=np.int64),
                "blob": pd.Series(dtype=object),
                "is_blob": pd.Series(dtype=np.int8),
            }
        )
        if not len(df):
            return empty
        df = df.sort_values(["doc_id", "df_", "ghash"], kind="mergesort")
        doc = df["doc_id"].to_numpy(np.int64)
        gh = df["ghash"].to_numpy(np.int64)
        rank = df.groupby("doc_id", sort=False).cumcount().to_numpy(np.int64)
        nd = df.groupby("doc_id", sort=False)["ghash"].transform("size").to_numpy(np.int64)
        p = nd - (thr * nd + 999_999) // 1_000_000 + 1
        keep = rank < p
        prefix = pd.DataFrame(
            {
                "ghash": gh[keep],
                "doc_id": doc[keep],
                "blob": b"",
                "is_blob": np.int8(0),
            }
        )
        # per-doc sorted gram-set blobs: one contiguous sort + boundary split
        order = np.lexsort((gh, doc))
        bounds = np.flatnonzero(np.diff(doc[order])) + 1
        doc_ids = doc[order][np.concatenate([[0], bounds])] if len(doc) else doc[:0]
        blobs = [seg.tobytes() for seg in np.split(gh[order], bounds)]
        blob_rows = pd.DataFrame(
            {
                "ghash": np.int64(0),
                "doc_id": doc_ids,
                "blob": blobs,
                "is_blob": np.int8(1),
            }
        )
        return pd.concat([prefix, blob_rows], ignore_index=True)

    pb = hash_partitioned_apply(with_df, "doc_id", prefix_and_blob, num_parts=32).materialize()

    import pyarrow.compute as pc

    prefix_rows = pb.map_batches(
        lambda b: b.filter(pc.equal(b.column("is_blob"), 0)).select(["ghash", "doc_id"]),
        batch_format="pyarrow",
    )
    blobs = pb.map_batches(
        lambda b: b.filter(pc.equal(b.column("is_blob"), 1)).select(["doc_id", "blob"]),
        batch_format="pyarrow",
    )

    def gen_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        sizes = df.groupby("ghash", sort=False)["doc_id"].transform("size")
        if (sizes > max_occ_guard).any():
            hot = df.loc[sizes > max_occ_guard, "ghash"].iloc[0]
            raise RuntimeError(
                f"dedup_ngram_prefix: prefix gram {hot} occurs in more than "
                f"{max_occ_guard} docs — raise the guard or the threshold"
            )
        m = df.merge(df, on="ghash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(np.int64),
                "doc_b": m["doc_id_y"].to_numpy(np.int64),
            }
        )

    cand = hash_partitioned_apply(prefix_rows, "ghash", gen_pairs, num_parts=32)
    pairs = hash_partitioned_apply(
        cand, ["doc_a", "doc_b"], lambda df: df.drop_duplicates(), num_parts=16
    )

    a_side = blobs.map_batches(
        lambda t: pa.table({"doc_a": t.column("doc_id"), "blob": t.column("blob")}),
        batch_format="pyarrow",
    )
    b_side = blobs.map_batches(
        lambda t: pa.table({"doc_b": t.column("doc_id"), "blob": t.column("blob")}),
        batch_format="pyarrow",
    )
    j = attach_columns(pairs, a_side, on="doc_a", cols={"blob": "g_a"})
    j = attach_columns(j, b_side, on="doc_b", cols={"blob": "g_b"})

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_a", "doc_b", "jaccard_micro"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        i = np.empty(len(df), np.int64)
        na = np.empty(len(df), np.int64)
        nb = np.empty(len(df), np.int64)
        for r, (ba, bb) in enumerate(zip(df["g_a"], df["g_b"])):
            a = np.frombuffer(ba, np.int64)
            b = np.frombuffer(bb, np.int64)
            i[r] = len(np.intersect1d(a, b, assume_unique=True))
            na[r], nb[r] = len(a), len(b)
        den = na + nb - i
        jm = (2 * i * 1_000_000 + den) // (2 * den)
        out = pd.DataFrame(
            {
                "doc_a": df["doc_a"].to_numpy(np.int64),
                "doc_b": df["doc_b"].to_numpy(np.int64),
                "jaccard_micro": jm,
            }
        )
        return out[out["jaccard_micro"] >= threshold_micro]

    return j.map_batches(verify, batch_format="pandas", batch_size=None)


def _sql_dedup_ngram_prefix(n: int = NGRAM_N, threshold_micro: int = NGRAM_THRESHOLD_MICRO) -> str:
    """The UNCAPPED brute-force threshold join — dedup_ngram's oracle with
    the hot-gram cap removed. The engine's prefix filter must reproduce it
    EXACTLY; a hash-match here is a losslessness proof, not a similarity."""
    return _sql_dedup_ngram(n=n, threshold_micro=threshold_micro, max_occ=1 << 60)


sql_dedup_ngram_prefix = functools.cache(_sql_dedup_ngram_prefix)


CONTAIN_THRESHOLD_MICRO = 800_000  # keep directed pairs with containment >= 0.8


def containment_pairs(
    sf_dir: str,
    n: int = NGRAM_N,
    threshold_micro: int = CONTAIN_THRESHOLD_MICRO,
    max_occ: int = NGRAM_MAX_OCC,
):
    """DIRECTED n-gram containment pairs: C(src→dst) = |src∩dst| / |src|
    over distinct-token-n-gram sets — the asymmetric near-dup signal
    Jaccard misses (a paragraph quoted inside a much longer page scores
    C≈1 from the quote's side but tiny Jaccard; dedup policies drop the
    CONTAINED side). Same exchange shape and boilerplate cap as
    dedup_ngram (one gram-keyed pair expansion, int64 gram hashes only,
    broadcast/bucketed-join regime switch for set sizes); the finisher
    emits both directions of each undirected overlap row and applies the
    integer round-half-up micro scaling, so the oracle is bit-exact.
    Output (src, dst, containment_micro)."""
    from ..stages.joins import attach_columns, hash_partitioned_apply

    grams = _distinct_kgrams(sf_dir, n)

    def gram_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        sizes = df.groupby("ghash", sort=False)["doc_id"].transform("size")
        df = df[sizes <= max_occ]
        m = df.merge(df, on="ghash")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        pairs = pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(np.int64),
                "doc_b": m["doc_id_y"].to_numpy(np.int64),
            }
        )
        marks = pd.DataFrame({"doc_a": df["doc_id"].to_numpy(np.int64)})
        marks["doc_b"] = np.int64(-1)
        return pd.concat([pairs, marks], ignore_index=True)

    rows = hash_partitioned_apply(grams, "ghash", gram_partition, num_parts=32)

    def count_partition(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["doc_a", "doc_b"], sort=False).size().reset_index(name="cnt")
        g["cnt"] = g["cnt"].astype(np.int64)
        return g

    counted = hash_partitioned_apply(rows, ["doc_a", "doc_b"], count_partition, num_parts=32).materialize()

    def split(kind: int):
        def fn(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if kind == 0:
                t = b.filter(pc.greater_equal(b.column("doc_b"), 0))
                return pa.table(
                    {"doc_a": t.column("doc_a"), "doc_b": t.column("doc_b"), "i": t.column("cnt")}
                )
            t = b.filter(pc.less(b.column("doc_b"), 0))
            return pa.table({"doc": t.column("doc_a"), "n_grams": t.column("cnt")})

        return fn

    pairs = counted.map_batches(split(0), batch_format="pyarrow")
    sizes = counted.map_batches(split(1), batch_format="pyarrow")
    empty = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ["src", "dst", "containment_micro"]})
    if pairs.count() == 0:
        return ray.data.from_pandas(empty)

    def _finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return empty
        i = df["i"].to_numpy(np.int64)
        a = df["doc_a"].to_numpy(np.int64)
        b = df["doc_b"].to_numpy(np.int64)
        na = df["na"].to_numpy(np.int64)
        nb = df["nb"].to_numpy(np.int64)
        out = pd.DataFrame(
            {
                "src": np.concatenate([a, b]),
                "dst": np.concatenate([b, a]),
                "containment_micro": np.concatenate(
                    [
                        (2 * i * 1_000_000 + na) // (2 * na),
                        (2 * i * 1_000_000 + nb) // (2 * nb),
                    ]
                ),
            }
        )
        return out[out["containment_micro"] >= threshold_micro]

    if sizes.count() <= NGRAM_SIZES_BROADCAST_LIMIT:
        sz = sizes.to_pandas()
        order = np.argsort(sz["doc"].to_numpy(np.int64), kind="mergesort")
        ref = ray.put((sz["doc"].to_numpy(np.int64)[order], sz["n_grams"].to_numpy(np.int64)[order]))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            docs_sorted, ngs = ray.get(ref)
            df = df.copy()
            df["na"] = ngs[np.searchsorted(docs_sorted, df["doc_a"].to_numpy(np.int64))]
            df["nb"] = ngs[np.searchsorted(docs_sorted, df["doc_b"].to_numpy(np.int64))]
            return _finish(df)

        return pairs.map_batches(attach, batch_format="pandas")

    a_side = sizes.map_batches(
        lambda t: pa.table({"doc_a": t.column("doc"), "na": t.column("n_grams")}),
        batch_format="pyarrow",
    )
    b_side = sizes.map_batches(
        lambda t: pa.table({"doc_b": t.column("doc"), "nb": t.column("n_grams")}),
        batch_format="pyarrow",
    )
    j = attach_columns(pairs, a_side, on="doc_a", cols={"na": "na"}, num_buckets=16)
    j = attach_columns(j, b_side, on="doc_b", cols={"nb": "nb"}, num_buckets=16)
    return j.map_batches(_finish, batch_format="pandas")


def _sql_containment_pairs(
    n: int = NGRAM_N,
    threshold_micro: int = CONTAIN_THRESHOLD_MICRO,
    max_occ: int = NGRAM_MAX_OCC,
) -> str:
    from ..functions.tokenize import SQL_TOKENIZE

    tok = SQL_TOKENIZE.format(col="text")
    return f"""
WITH toks AS (SELECT doc_id, {tok} AS t FROM documents),
sh AS (
    SELECT DISTINCT doc_id,
           unnest(list_transform(range(1, len(t) - {n} + 2),
                                 i -> array_to_string(t[i : i + {n} - 1], ' '))) AS g
    FROM toks WHERE len(t) >= {n}),
hot AS (SELECT g FROM sh GROUP BY g HAVING COUNT(*) > {max_occ}),
surv AS (SELECT s.doc_id, s.g FROM sh s LEFT JOIN hot h USING (g) WHERE h.g IS NULL),
counts AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS ng FROM surv GROUP BY 1),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
    FROM surv a JOIN surv b ON a.g = b.g AND a.doc_id < b.doc_id
    GROUP BY 1, 2),
dirp AS (
    SELECT doc_a AS src, doc_b AS dst, i, ca.ng AS ns
    FROM inter JOIN counts ca ON ca.doc_id = doc_a
    UNION ALL
    SELECT doc_b, doc_a, i, cb.ng
    FROM inter JOIN counts cb ON cb.doc_id = doc_b)
SELECT src, dst, (2 * i * 1000000 + ns) // (2 * ns) AS containment_micro
FROM dirp
WHERE (2 * i * 1000000 + ns) // (2 * ns) >= {threshold_micro}
"""


sql_containment_pairs = functools.cache(_sql_containment_pairs)
