"""4-gram language model with stupid backoff — exact reference semantics
(/root/reference/pkg/searcher/ngram_lm.go).

Counting is a Ray groupby shuffle (A6: flat_map sliding windows →
groupby((n, gram)).count()); the resulting count dicts are small and are
broadcast to scorer/spell actors via ``ray.put``.

Reference semantics reproduced exactly:
  * vocab threshold: words with corpus frequency >= 2 kept, others → <UNK>
    (COUNT_THRESOLD_NGRAM, spell_corrector.go:19-22)
  * per-n padding: n × <s> prepended + ONE </s> appended before counting
    n-grams (ngram_lm.go:368-379) — so unigram counts include 1 <s> per doc,
    bigram counts 2, etc. (denominator scope quirk kept as-is)
  * probability: count(ngram) / count((n-1)-prefix) where the prefix count
    comes from the (n-1)-gram pass (ngram_lm.go:212-297); unigram:
    count / TotalWordFreq (TotalWordFreq counted in the n=1 pass)
  * stupid backoff: λ=1 at 4-gram, ×0.4 per backoff, stop at first non-zero
    (ngram_lm.go:322-337)
  * query log-probability: pad with 4 <s> + </s>, sum ln(P(w_i | prev3))
    from i=4 (ngram_lm.go:300-318) — natural log, as in math.Log
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

START_TOKEN = "<s>"
END_TOKEN = "</s>"
UNKNOWN_TOKEN = "<UNK>"
COUNT_THRESHOLD = 2


@dataclass
class NGramLM:
    unigram: dict[str, int] = field(default_factory=dict)
    bigram: dict[tuple, int] = field(default_factory=dict)
    trigram: dict[tuple, int] = field(default_factory=dict)
    quadgram: dict[tuple, int] = field(default_factory=dict)
    total_word_freq: int = 0
    vocab: set = field(default_factory=set)  # thresholded vocab (no specials)
    full_vocab: set = field(default_factory=set)  # ALL corpus terms — the
    # spell/autocomplete FST domain (reference: CorpusTermsFST over the full
    # term dictionary, pkg/searcher/spell_corrector.go:47-72; the LM's
    # thresholded vocab only governs <UNK> replacement)

    # -- probability (ngram_lm.go:212-297) --------------------------------
    def _prob(self, next_word: str, prev: tuple, n: int) -> float:
        if n == 1:
            return self.unigram.get(next_word, 0) / self.total_word_freq if self.total_word_freq else 0.0
        if n == 2:
            denom = self.unigram.get(prev[0])
            if denom is None:
                return 0.0
            return self.bigram.get((prev[0], next_word), 0) / denom
        if n == 3:
            denom = self.bigram.get((prev[0], prev[1]))
            if denom is None:
                return 0.0
            return self.trigram.get((prev[0], prev[1], next_word), 0) / denom
        if n == 4:
            denom = self.trigram.get(tuple(prev[:3]))
            if denom is None:
                return 0.0
            return self.quadgram.get((prev[0], prev[1], prev[2], next_word), 0) / denom
        return 0.0

    def stupid_backoff(self, next_word: str, prev: tuple, n: int = 4) -> float:
        lam = 1.0
        while n > 0:
            p = lam * self._prob(next_word, prev, n)
            if p != 0:
                return p
            prev = prev[1:]
            lam *= 0.4
            n -= 1
        return 0.0

    def query_log_prob(self, tokens: list[str]) -> float:
        """ln-sum of stupid-backoff 4-gram probs over the padded query.

        Tokens are scored RAW — no <UNK> substitution — matching the
        reference: EstimateQueriesProbabilities (ngram_lm.go:300-318) pads
        and scores the caller's term IDs as-is, so a below-threshold word
        (counted as <UNK> during training) has no counts at any order and
        backs off to unigram 0 → math.Log(0) = -inf. UNK-replacing here
        (the r01 behavior) let such words inherit the aggregate <UNK> mass
        and could invert spell/autocomplete rankings (ADVICE r01, medium)."""
        q = [START_TOKEN] * 4 + list(tokens) + [END_TOKEN]
        total = 0.0
        for i in range(4, len(q)):
            p = self.stupid_backoff(q[i], tuple(q[i - 3 : i]), 4)
            # math.Log(0) = -Inf in Go; mirror it
            total += np.log(p) if p > 0 else -np.inf
        return float(total)


def count_doc_ngrams(counts: dict, toks: list[str]) -> None:
    """Accumulate the reference's 4 counting passes for one doc into a
    {(n, gram_key): cnt} dict — n × <s> prepended, one </s> appended per pass
    (ngram_lm.go:368-379). The readable per-doc form: backs the pure
    ``count_ngrams`` build (used throughout the unit tests) and serves as
    the oracle for the vectorized ``windowed_gram_counts`` both Ray LM
    paths use (parity pinned in tests/test_search.py)."""
    for n in (1, 2, 3, 4):
        padded = [START_TOKEN] * n + toks + [END_TOKEN]
        for i in range(len(padded) - n + 1):
            key = (n, "\x1f".join(padded[i : i + n]))
            counts[key] = counts.get(key, 0) + 1


def windowed_gram_counts(toks: np.ndarray, counts: np.ndarray):
    """VECTORIZED form of running ``count_doc_ngrams`` over every doc of a
    batch (multiset-identical — pinned by
    tests/test_search.py::test_windowed_gram_counts_equals_per_doc): one
    flat 4-padded token
    array ([<s>×4, toks…, </s>] per doc; the n<4 paddings are suffixes of
    it), window gathers by index arithmetic, elementwise '\\x1f' joins,
    hash-based value_counts. ``toks`` is the batch's flat token array,
    ``counts[i]`` the token count of doc i. Returns (n, gram, cnt) arrays."""
    nd = len(counts)
    if nd == 0:
        return np.empty(0, np.int8), np.empty(0, object), np.empty(0, np.int64)
    plens = counts + 5  # 4×<s> + toks + </s>
    starts = np.concatenate([[0], np.cumsum(plens)[:-1]])
    pad = np.full(int(plens.sum()), START_TOKEN, dtype=object)
    if len(toks):
        doc_idx = np.repeat(np.arange(nd), counts)
        within = np.arange(len(toks)) - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        pad[starts[doc_idx] + 4 + within] = toks
    pad[starts + plens - 1] = END_TOKEN
    ns, gs, cs = [], [], []
    nw = counts + 2  # windows per doc for every n: len(padded_n) - n + 1
    wdoc = np.repeat(np.arange(nd), nw)
    wwithin = np.arange(int(nw.sum())) - np.repeat(np.concatenate([[0], np.cumsum(nw)[:-1]]), nw)
    for n in (1, 2, 3, 4):
        wstart = starts[wdoc] + (4 - n) + wwithin
        g = pad[wstart]
        for j in range(1, n):
            g = g + "\x1f"
            g = g + pad[wstart + j]
        vc = pd.Series(g).value_counts(sort=False)
        ns.append(np.full(len(vc), n, np.int8))
        gs.append(vc.index.to_numpy(dtype=object))
        cs.append(vc.to_numpy(dtype=np.int64))
    return np.concatenate(ns), np.concatenate(gs), np.concatenate(cs)


def lm_from_counts(counts: dict, vocab: set) -> NGramLM:
    """NGramLM from a {(n, gram_key): cnt} dict (see count_doc_ngrams)."""
    keys = list(counts)
    return lm_from_columns(
        np.fromiter((n for n, _ in keys), np.int64, len(keys)),
        np.array([g for _, g in keys], dtype=object),
        np.fromiter(counts.values(), np.int64, len(keys)),
        vocab,
    )


def lm_from_columns(n: np.ndarray, gram: np.ndarray, cnt: np.ndarray, vocab: set) -> NGramLM:
    """NGramLM from distinct (n, gram_key, cnt) rows — gram_key is the
    n tokens joined by '\x1f'; one dict fill per order."""
    lm = NGramLM(vocab=vocab)
    uni = n == 1
    lm.unigram.update(zip(gram[uni].tolist(), cnt[uni].tolist()))
    lm.total_word_freq = int(cnt[uni].sum())
    for k, d in ((2, lm.bigram), (3, lm.trigram), (4, lm.quadgram)):
        m = n == k
        d.update(zip((tuple(g.split("\x1f")) for g in gram[m].tolist()), cnt[m].tolist()))
    return lm


def _summed(parts: "ray.data.Dataset", schema: pa.Schema, keys: list[str], col: str) -> pa.Table:
    """Stream per-batch count partials to the driver and sum ``col`` per
    ``keys`` with one Arrow group_by: O(distinct keys), no per-row loop
    (the groupby-shuffle alternative pays ~5s fixed sort-shuffle cost per
    call in this Ray version). The sum is column ``<col>_sum``."""
    tables = list(parts.iter_batches(batch_size=None, batch_format="pyarrow"))
    t = pa.concat_tables(tables) if tables else schema.empty_table()
    return t.group_by(keys).aggregate([(col, "sum")])


def count_ngrams(docs_tokens: list[list[str]], vocab: set | None = None) -> NGramLM:
    """Pure (no-Ray) LM build over already-tokenized docs; vocab defaults to
    all tokens (no UNK) — the shape of the reference's unit tests."""
    full = {t for doc in docs_tokens for t in doc}
    if vocab is None:
        vocab = full
    counts: dict = {}
    for toks in docs_tokens:
        count_doc_ngrams(counts, [t if t in vocab else UNKNOWN_TOKEN for t in toks])
    lm = lm_from_counts(counts, vocab)
    lm.full_vocab = full
    return lm


def build_ngram_lm(docs: "ray.data.Dataset", text_cols: list[str] = ("name", "address")) -> NGramLM:
    """A5 + A6 as Ray shuffles: word counts → threshold → UNK-replace →
    n-gram counts for n=1..4, each with the reference's per-n padding.

    The doc corpus is tokenized ``name + " " + address`` per doc
    (pkg/index/indexer.go:858-869)."""
    from ..functions.tokenize import tokenize_array

    def tokens_per_doc(batch: pa.Table) -> pa.Table:
        cols = [
            pc.coalesce(pc.cast(batch.column(c), pa.string()), pa.scalar("", pa.string()))
            for c in text_cols
        ]
        joined = cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, " ")
        toks, counts = tokenize_array(joined.to_pylist())
        off = np.concatenate([[0], np.cumsum(counts)])
        docs_tokens = [toks[off[i] : off[i + 1]].tolist() for i in range(len(counts))]
        return pa.table({"tokens": pa.array(docs_tokens, pa.list_(pa.string()))})

    # materialize: the tokenized corpus is consumed TWICE (word-count pass
    # for the vocab threshold, then the n-gram pass) — without this each
    # pass re-runs the tokenizer over the full corpus
    tok_ds = docs.map_batches(tokens_per_doc, batch_format="pyarrow").materialize()

    # A5: word frequency partials → threshold
    def wc_partial(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.values.to_pylist()
        u, c = np.unique(np.asarray(flat, dtype=object), return_counts=True)
        return pa.table({"word": pa.array(u.astype(object), pa.string()), "n": pa.array(c)})

    wc = _summed(
        tok_ds.map_batches(wc_partial, batch_format="pyarrow"),
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
        ["word"],
        "n",
    )
    words = wc.column("word")
    vocab = set(words.filter(pc.greater_equal(wc.column("n_sum"), COUNT_THRESHOLD)).to_pylist())
    full_vocab = set(words.to_pylist())

    # A6: n-gram count partials per n, with per-n padding, then groupby-sum
    import ray

    vocab_ref = ray.put(np.sort(np.asarray(list(vocab), dtype=object)))

    def ngram_partial(batch: pa.Table) -> pa.Table:
        """UNK-substitute by sorted-vocab searchsorted, then the shared
        vectorized window counter (== per-doc count_doc_ngrams, tested)."""
        vs = ray.get(vocab_ref)
        col = batch.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = np.asarray(pc.list_flatten(col).to_pylist(), dtype=object)
        counts = pc.list_value_length(col).to_numpy().astype(np.int64)
        if len(vs) and len(toks):
            pos = np.minimum(np.searchsorted(vs, toks), len(vs) - 1)
            toks = np.where(vs[pos] == toks, toks, UNKNOWN_TOKEN)
        elif len(toks):
            toks = np.full(len(toks), UNKNOWN_TOKEN, dtype=object)
        n_, g_, c_ = windowed_gram_counts(toks, counts)
        return pa.table(
            {"n": pa.array(n_), "gram": pa.array(g_.tolist(), pa.string()), "cnt": pa.array(c_)}
        )

    counts = _summed(
        tok_ds.map_batches(ngram_partial, batch_format="pyarrow"),
        pa.schema([("n", pa.int8()), ("gram", pa.string()), ("cnt", pa.int64())]),
        ["n", "gram"],
        "cnt",
    )
    lm = lm_from_columns(
        counts.column("n").to_numpy(),
        counts.column("gram").to_numpy(zero_copy_only=False),
        counts.column("cnt_sum").to_numpy(),
        vocab,
    )
    lm.full_vocab = full_vocab
    return lm


def ngram_counts_table(lm: NGramLM) -> pd.DataFrame:
    """(n, gram, cnt) frame — the S9 Parquet artifact — sorted by (n, gram):
    the count dicts' insertion order depends on how the build merged its
    partials."""
    rows = []
    uni = {(k,): v for k, v in lm.unigram.items()}
    for n, d in ((1, uni), (2, lm.bigram), (3, lm.trigram), (4, lm.quadgram)):
        for k, v in d.items():
            rows.append((n, " ".join(k), v))
    df = pd.DataFrame(rows, columns=["n", "gram", "cnt"])
    return df.sort_values(["n", "gram"], kind="mergesort").reset_index(drop=True)


def build_ngram_counts_ds(
    docs: "ray.data.Dataset",
    text_cols: list[str] = ("name", "address"),
    num_parts: int = 64,
    join_vocab: bool = False,
    count_threshold: int = COUNT_THRESHOLD,
):
    """A5+A6 with EVERY artifact a Dataset — the 100 TB form of
    ``build_ngram_lm`` (whose threshold vocab and count dicts are
    driver-resident, the reference's own in-RAM budget but not a web
    corpus's). Returns (counts_ds, word_counts_ds):

      counts_ds       (n, gram, cnt) — UNK-replaced per the threshold
                      vocab, per-n padding included; identical multiset to
                      build_ngram_lm's dicts (equality-tested).
      word_counts_ds  (word, wcnt) raw corpus word frequencies.

    Shape — no corpus-sized exchange and nothing vocab- or gram-sized on
    the driver:
      1. one tokenize pass emits per-batch RAW n-gram count partials →
         bounded hash-partitioned groupby-sum (distinct-gram-sized).
      2. word-count partials → groupby-sum; vocab = wcnt >= threshold.
      3. <UNK> substitution rewrites the GRAM KEYS, not the corpus: each
         distinct gram explodes into (gram, slot, token) rows, tokens are
         membership-tested against the vocab (broadcast sorted array by
         default; ``join_vocab=True`` forces the hash-partitioned
         string-key join for the 10⁸⁺-word regime), keys are reassembled
         with <UNK> where absent, and a final groupby-sum merges collided
         keys. Raw-count-then-replace ≡ replace-then-count because the
         substitution is per-token and padding tokens pass through.
    """
    import pyarrow.compute as pc

    from ..functions.tokenize import tokenize_array
    from ..stages.joins import hash_bucket_join, hash_partitioned_apply

    def _doc_tokens(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """(flat tokens, per-doc counts) over the space-joined text cols —
        Arrow join kernel + the shared vectorized tokenizer (replaces the
        r02 per-row ``as_py()`` loop)."""
        cols = [
            pc.coalesce(pc.cast(batch.column(c), pa.string()), pa.scalar("", pa.string()))
            for c in text_cols
        ]
        joined = cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, " ")
        return tokenize_array(joined.to_pylist())

    def raw_gram_partial(batch: pa.Table) -> pa.Table:
        toks, counts = _doc_tokens(batch)
        n_, g_, c_ = windowed_gram_counts(toks, counts)
        return pa.table(
            {"n": pa.array(n_), "gram": pa.array(g_.tolist(), pa.string()), "cnt": pa.array(c_)}
        )


    def _sum_group(cols):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(cols, sort=False, as_index=False)["__v"].sum()

        return fn

    specials = (START_TOKEN, END_TOKEN)

    # raw gram counts materialized once (distinct-gram-sized): word counts
    # and the UNK rewrite below both consume it
    raw = hash_partitioned_apply(
        docs.map_batches(raw_gram_partial, batch_format="pyarrow").map_batches(
            lambda t: t.rename_columns(["n", "gram", "__v"]), batch_format="pyarrow"
        ),
        ["n", "gram"],
        _sum_group(["n", "gram"]),
        num_parts=num_parts,
    ).map_batches(lambda df: df.rename(columns={"__v": "cnt"}), batch_format="pandas").materialize()

    # word counts DERIVED from the n=1 gram counts: unigram padding adds
    # exactly one <s> and one </s> per doc, so dropping the specials leaves
    # the raw corpus word frequencies — the r02 second tokenize pass over
    # the corpus (wc partials + their own vocab shuffle) is gone
    def to_wc(t: pa.Table) -> pa.Table:
        m = t.filter(
            pc.and_(
                pc.equal(t.column("n"), 1),
                pc.invert(pc.is_in(t.column("gram"), value_set=pa.array(list(specials)))),
            )
        )
        return pa.table({"word": m.column("gram"), "wcnt": m.column("cnt")})

    word_counts = raw.map_batches(to_wc, batch_format="pyarrow").materialize()
    vocab_ds = word_counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("wcnt"), count_threshold)), batch_format="pyarrow"
    )

    def explode(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy()
        grams = t.column("gram").to_pylist()
        cnt = t.column("cnt").to_numpy()
        gn, gg, gc, slot, tok = [], [], [], [], []
        for i, g in enumerate(grams):
            parts = g.split("\x1f")
            for j, p in enumerate(parts):
                gn.append(int(n[i]))
                gg.append(g)
                gc.append(int(cnt[i]))
                slot.append(j)
                tok.append(p)
        return pa.table(
            {
                "n": pa.array(gn, pa.int8()),
                "gram": pa.array(gg, pa.string()),
                "cnt": pa.array(gc, pa.int64()),
                "slot": pa.array(slot, pa.int32()),
                "token": pa.array(tok, pa.string()),
            }
        )

    tokens_rows = raw.map_batches(explode, batch_format="pyarrow")

    if join_vocab:
        vocab_only = vocab_ds.map_batches(lambda t: t.select(["word", "wcnt"]), batch_format="pyarrow")
        joined = hash_bucket_join(
            tokens_rows, vocab_only, on="token", right_on="word", how="left", num_buckets=num_parts
        )

        def mark(df: pd.DataFrame) -> pd.DataFrame:
            in_vocab = df["wcnt"].notna() | df["token"].isin(specials)
            df = df.assign(token2=np.where(in_vocab, df["token"], UNKNOWN_TOKEN))
            return df[["n", "gram", "cnt", "slot", "token2"]]

        marked = joined.map_batches(mark, batch_format="pandas")
    else:
        vocab_sorted = np.sort(vocab_ds.to_pandas()["word"].to_numpy(dtype=object))
        import ray as _ray

        vocab_ref = _ray.put(vocab_sorted)

        def mark_b(t: pa.Table) -> pa.Table:
            vs = _ray.get(vocab_ref)
            tok = t.column("token").to_numpy(zero_copy_only=False)
            if len(vs):
                pos = np.minimum(np.searchsorted(vs, tok), len(vs) - 1)
                in_vocab = vs[pos] == tok
            else:
                in_vocab = np.zeros(len(tok), dtype=bool)
            for s in specials:
                in_vocab |= tok == s
            t2 = np.where(in_vocab, tok, UNKNOWN_TOKEN)
            return pa.table(
                {
                    "n": t.column("n"),
                    "gram": t.column("gram"),
                    "cnt": t.column("cnt"),
                    "slot": t.column("slot"),
                    "token2": pa.array(t2.astype(object), pa.string()),
                }
            )

        marked = tokens_rows.map_batches(mark_b, batch_format="pyarrow")

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "gram", "slot"], kind="mergesort")
        g = df.groupby(["n", "gram"], sort=False).agg(
            gram2=("token2", "\x1f".join), cnt=("cnt", "first")
        ).reset_index()[["n", "gram2", "cnt"]]
        return g.rename(columns={"gram2": "gram"})

    replaced = hash_partitioned_apply(marked, ["n", "gram"], reassemble, num_parts=num_parts)
    counts_ds = hash_partitioned_apply(
        replaced.map_batches(lambda df: df.rename(columns={"cnt": "__v"}), batch_format="pandas"),
        ["n", "gram"],
        _sum_group(["n", "gram"]),
        num_parts=num_parts,
    ).map_batches(lambda df: df.rename(columns={"__v": "cnt"}), batch_format="pandas")
    return counts_ds, word_counts


def lm_from_counts_ds(counts_ds, word_counts_ds, count_threshold: int = COUNT_THRESHOLD) -> NGramLM:
    """Collect Dataset counts into the in-RAM serving NGramLM (O(grams) —
    the reference's own serving budget; at true web scale the counts stay
    as bucketed Parquet and scorers read only the grams they touch)."""
    cpd = counts_ds.to_pandas()
    wc = word_counts_ds.to_pandas()
    vocab = set(wc[wc["wcnt"] >= count_threshold]["word"])
    lm = lm_from_columns(cpd["n"].to_numpy(), cpd["gram"].to_numpy(dtype=object), cpd["cnt"].to_numpy(), vocab)
    lm.full_vocab = set(wc["word"])
    return lm


def save_ngram_counts_ds(counts_ds, word_counts_ds, out_dir: str, num_buckets: int = 16) -> None:
    """Stream the Dataset LM artifacts to gram-hash-bucketed Parquet through
    the checkpointed sink (resumable, lineage-carrying — the S9 artifact at
    scale; the driver-side single-file form is ngram_counts_table)."""
    from ..sources import checkpoint as cp

    def add_bucket(col):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_pandas_object(df[col], index=False).to_numpy()
            return df.assign(bucket=(h % num_buckets).astype(np.int64))

        return fn

    cdir = f"{out_dir}/counts"
    cp.checkpointed_write(
        counts_ds.map_batches(add_bucket("gram"), batch_format="pandas"), cdir, "bucket", stage="ngram_counts"
    )
    cp.mark_stage_complete(cdir, "ngram_counts")
    wdir = f"{out_dir}/word_counts"
    cp.checkpointed_write(
        word_counts_ds.map_batches(add_bucket("word"), batch_format="pandas"), wdir, "bucket", stage="word_counts"
    )
    cp.mark_stage_complete(wdir, "word_counts")


def load_ngram_lm_ds(out_dir: str) -> NGramLM:
    """Load the bucketed Dataset LM artifacts back into the serving NGramLM."""
    from ..sources import checkpoint as cp

    counts = cp.read_checkpointed(f"{out_dir}/counts", columns=["n", "gram", "cnt"])
    wc = cp.read_checkpointed(f"{out_dir}/word_counts", columns=["word", "wcnt"])
    return lm_from_counts_ds(counts, wc)


# --------------------------------------------------------------- SQL twin
#
# The whole stupid-backoff LM expressed relationally, so every LM-ranked
# driver query (lm_doc_scores, autocomplete, spell_search[,_store]) gets an
# exact DuckDB oracle instead of a rows-only check.  Float discipline
# (pipelines/_util.py contract): every probability is lam·(c/d) with the
# SAME association the Python scorer uses (single IEEE ops on both sides);
# the per-sequence ln-sum replays the scorer's left-to-right accumulation
# via list_reduce over positions ORDER BY i (the dedup_embedding
# ordered-float technique).  The one op that is not bit-identical across
# engines is ln itself (numpy vs DuckDB libm, ≤1 ulp — measured 1.8e-15
# max over 10^5 backoff-shaped samples) — the same accepted risk class as
# the green log10-based BM25 oracles, with 10^7× margin under the
# milli/argmax consumers.

LM_SENTINEL_NEG = -(2**62)


def sql_lm_count_ctes(doc_rel: str = "documents", text_col: str = "text") -> str:
    """CTE block (no WITH) defining the LM's count tables over ``doc_rel``:

      lm_toks   (doc_id, t)            raw token lists (tokenizer contract)
      lm_fvocab (tok)                  full vocabulary (spell/autocomplete domain)
      lm_cnt1..lm_cnt4 (w1..wn, c)     n-gram counts, per-n <s> padding, one
                                       </s>, tokens <UNK>-replaced under the
                                       corpus-frequency >= COUNT_THRESHOLD
                                       vocab (build_ngram_lm semantics)
      lm_tot    (c)                    total unigram mass (denominator of the
                                       unigram backoff level)
    """
    from ..functions.tokenize import SQL_TOKENIZE

    toks = SQL_TOKENIZE.format(col=f"COALESCE({text_col}, '')")
    parts = [
        f"lm_toks AS (SELECT doc_id, {toks} AS t FROM {doc_rel})",
        """lm_wcnt AS (
    SELECT u.tok, COUNT(*) AS c
    FROM lm_toks, LATERAL (SELECT unnest(t) AS tok) u GROUP BY 1)""",
        "lm_fvocab AS (SELECT tok FROM lm_wcnt)",
        f"lm_vocab AS (SELECT tok FROM lm_wcnt WHERE c >= {COUNT_THRESHOLD})",
        """lm_occ AS (
    SELECT doc_id, r.i, t[r.i] AS tok
    FROM lm_toks, LATERAL (SELECT unnest(range(1, len(t) + 1)) AS i) r)""",
        f"""lm_rocc AS (
    SELECT o.doc_id, o.i,
           CASE WHEN v.tok IS NULL THEN '{UNKNOWN_TOKEN}' ELSE o.tok END AS tok
    FROM lm_occ o LEFT JOIN lm_vocab v ON o.tok = v.tok)""",
        """lm_rl AS (
    SELECT lt.doc_id, COALESCE(g.rt, CAST([] AS VARCHAR[])) AS t
    FROM lm_toks lt LEFT JOIN (
        SELECT doc_id, list(tok ORDER BY i) AS rt FROM lm_rocc GROUP BY 1) g
    USING (doc_id))""",
    ]
    for n in (1, 2, 3, 4):
        pad = "[" + ", ".join([f"'{START_TOKEN}'"] * n) + f"] || t || ['{END_TOKEN}']"
        cols = ", ".join(f"p[r.i + {j}] AS w{j + 1}" for j in range(n))
        parts.append(
            f"""lm_p{n} AS (SELECT {pad} AS p FROM lm_rl),
lm_cnt{n} AS (
    SELECT {cols}, COUNT(*) AS c
    FROM lm_p{n}, LATERAL (SELECT unnest(range(1, len(p) - {n} + 2)) AS i) r
    GROUP BY ALL)"""
        )
    parts.append("lm_tot AS (SELECT SUM(c) AS c FROM lm_cnt1)")
    return ",\n".join(parts)


def sql_lm_score_ctes(seq_cte: str, id_cols: str) -> str:
    """CTE block scoring a relation ``seq_cte(<id_cols>, t VARCHAR[])`` of
    RAW token sequences (no <UNK> substitution — query_log_prob semantics)
    against the lm_cnt* tables: emits ``lm_lp(<id_cols>, lp DOUBLE)`` where
    lp replays query_log_prob exactly — 4×<s> padding + </s>, per position
    the first non-zero backoff level lam_k·(c/d) (lam left-assoc powers of
    0.4), ln-summed in position order starting from 0.0 (list_reduce with a
    prepended 0.0 == the scorer's ``total = 0.0; total += ...`` loop)."""
    ids = ", ".join(c.strip() for c in id_cols.split(","))
    ids_sp = ", ".join(f"sp.{c.strip()}" for c in id_cols.split(","))
    return f"""lm_sp AS (
    SELECT {ids}, ['{START_TOKEN}', '{START_TOKEN}', '{START_TOKEN}', '{START_TOKEN}'] || t || ['{END_TOKEN}'] AS s
    FROM {seq_cte}),
lm_pos AS (
    SELECT {ids}, r.i, s[r.i] AS w, s[r.i - 1] AS p1, s[r.i - 2] AS p2, s[r.i - 3] AS p3
    FROM lm_sp, LATERAL (SELECT unnest(range(5, len(s) + 1)) AS i) r),
lm_pp AS (
    SELECT {ids_sp}, sp.i,
           CASE WHEN d3.c IS NOT NULL AND c4.c IS NOT NULL
                    THEN CAST(c4.c AS DOUBLE) / CAST(d3.c AS DOUBLE)
                WHEN d2.c IS NOT NULL AND c3.c IS NOT NULL
                    THEN 0.4 * (CAST(c3.c AS DOUBLE) / CAST(d2.c AS DOUBLE))
                WHEN d1.c IS NOT NULL AND c2.c IS NOT NULL
                    THEN (0.4 * 0.4) * (CAST(c2.c AS DOUBLE) / CAST(d1.c AS DOUBLE))
                WHEN c1.c IS NOT NULL
                    THEN ((0.4 * 0.4) * 0.4) * (CAST(c1.c AS DOUBLE) / CAST(t.c AS DOUBLE))
                ELSE 0.0 END AS p
    FROM lm_pos sp
    LEFT JOIN lm_cnt4 c4 ON c4.w1 = sp.p3 AND c4.w2 = sp.p2 AND c4.w3 = sp.p1 AND c4.w4 = sp.w
    LEFT JOIN lm_cnt3 d3 ON d3.w1 = sp.p3 AND d3.w2 = sp.p2 AND d3.w3 = sp.p1
    LEFT JOIN lm_cnt3 c3 ON c3.w1 = sp.p2 AND c3.w2 = sp.p1 AND c3.w3 = sp.w
    LEFT JOIN lm_cnt2 d2 ON d2.w1 = sp.p2 AND d2.w2 = sp.p1
    LEFT JOIN lm_cnt2 c2 ON c2.w1 = sp.p1 AND c2.w2 = sp.w
    LEFT JOIN lm_cnt1 d1 ON d1.w1 = sp.p1
    LEFT JOIN lm_cnt1 c1 ON c1.w1 = sp.w
    CROSS JOIN lm_tot t),
lm_lp AS (
    SELECT {ids},
           list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
               list(CASE WHEN p > 0 THEN ln(p)
                         ELSE CAST('-infinity' AS DOUBLE) END ORDER BY i)),
               (a, b) -> a + b) AS lp
    FROM lm_pp GROUP BY {ids})"""
