"""Text-analysis stages: language-ID, quality scoring, fingerprinting
(training-data operators; the tokenizer is the engine-wide one).

The language-ID heuristic is deliberately SQL-expressible (stopword-set hit
counts + deterministic arg-max) so the driver oracle can verify it exactly.

Every stage is a plain per-batch function (``map_batches(fn)``): the
stopword sets and the quality weights are module constants, so there is
no per-worker state to load and no actor pool to hold a CPU.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import rolling_fingerprint
from ..functions.tokenize import tokenize_array

# Stopword sets per language, alphabetical language order is the tie-break.
LANG_STOPWORDS: dict[str, frozenset] = {
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein"}),
    "en": frozenset({"the", "a", "of", "to", "is", "and", "in"}),
    "es": frozenset({"el", "la", "de", "los", "es", "y", "en"}),
    "fr": frozenset({"le", "la", "les", "et", "est", "un", "dans"}),
    "id": frozenset({"yang", "dan", "di", "dari", "jalan", "kota"}),
}
LANG_ORDER = sorted(LANG_STOPWORDS)  # deterministic tie-break order


def predict_lang(tokens: list[str]) -> str:
    scores = {lang: sum(t in sw for t in tokens) for lang, sw in LANG_STOPWORDS.items()}
    best = max(scores.values())
    if best == 0:
        return "unknown"
    for lang in LANG_ORDER:  # first language reaching the max wins
        if scores[lang] == best:
            return lang
    return "unknown"


def langid_batch(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(id, pred_lang) per row: ``predict_lang`` over the row's tokens."""
    toks, counts = tokenize_array(batch.column(text_col).to_pylist())
    off = np.concatenate([[0], np.cumsum(counts)])
    preds = [predict_lang(list(toks[off[i] : off[i + 1]])) for i in range(len(batch))]
    return pa.table({id_col: batch.column(id_col), "pred_lang": pa.array(preds, pa.string())})


def langid_stage(docs, text_col: str = "text", id_col: str = "doc_id"):
    return docs.map_batches(langid_batch, fn_kwargs=dict(text_col=text_col, id_col=id_col), batch_format="pyarrow")


def fingerprint_stage(docs, text_col: str = "text", id_col: str = "doc_id"):
    """Rolling-hash document fingerprint column (Karp–Rabin min-hash of byte
    windows) — cheap near-exact dup key."""

    def fn(batch: pa.Table) -> pa.Table:
        fps = [rolling_fingerprint(t or "") for t in batch.column(text_col).to_pylist()]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "fingerprint": pa.array(np.asarray(fps, dtype=np.uint64).astype(np.int64)),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


# --- linear quality-filter model (the fasttext-classifier role) -----------
# Weights of a shipped "model checkpoint": a linear scorer over integer text
# features (token count, English-stopword hits, distinct-token ratio, char
# count, digit-run count). Every feature is integer-derived and every float
# op (weight·feature products, the one ratio divide, the left-associative
# sum) is a single IEEE-754 operation, so the logit is bit-identical between
# numpy and the DuckDB oracle (the oracle-float discipline of
# stages/dedup.ordered_dot).
QUALITY_WEIGHTS: dict[str, float] = {
    "bias": -4.0,
    "n_tokens": 0.02,
    "stop_hits": 0.25,
    "distinct_ratio": 2.0,
    "n_chars": 0.003,
    "digit_runs": -0.5,
}
_EN_STOPWORDS = np.asarray(sorted(LANG_STOPWORDS["en"]))


def quality_model_batch(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Model inference over one batch, vectorized: the linear scorer over
    ``QUALITY_WEIGHTS`` (the shipped "checkpoint"). Output (id, logit,
    keep)."""
    import pyarrow.compute as pc

    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    toks, counts = tokenize_array(texts)
    doc_idx = np.repeat(np.arange(n), counts)
    tok_arr = np.asarray(toks, dtype=object)
    hits = np.bincount(doc_idx, weights=np.isin(tok_arr, _EN_STOPWORDS), minlength=n).astype(np.int64)
    nd = (
        pd.DataFrame({"d": doc_idx, "t": tok_arr})
        .drop_duplicates()
        .groupby("d")
        .size()
        .reindex(range(n), fill_value=0)
        .to_numpy(dtype=np.int64)
    )
    nt = counts.astype(np.int64)
    nc = np.asarray([len(s or "") for s in texts], dtype=np.int64)
    ng = pc.count_substring_regex(batch.column(text_col), "[0-9]+").to_numpy().astype(np.int64)
    ratio = np.zeros(n, dtype=np.float64)
    nz = nt > 0
    ratio[nz] = nd[nz].astype(np.float64) / nt[nz].astype(np.float64)
    w = QUALITY_WEIGHTS
    # left-associative sum of single-IEEE-op terms — the order the SQL
    # oracle's parenthesization replays
    logit = w["bias"] + w["n_tokens"] * nt.astype(np.float64)
    logit = logit + w["stop_hits"] * hits.astype(np.float64)
    logit = logit + w["distinct_ratio"] * ratio
    logit = logit + w["n_chars"] * nc.astype(np.float64)
    logit = logit + w["digit_runs"] * ng.astype(np.float64)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "logit": pa.array(logit),
            "keep": pa.array((logit > 0.0).astype(np.int64)),
        }
    )


def quality_model_stage(docs, text_col: str = "text", id_col: str = "doc_id"):
    """Batched model inference over the corpus, one ``quality_model_batch``
    call per batch."""
    return docs.map_batches(
        quality_model_batch, fn_kwargs=dict(text_col=text_col, id_col=id_col), batch_format="pyarrow"
    )
