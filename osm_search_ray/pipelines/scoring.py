"""Similarity scoring — exact reproductions of the reference formulas,
including their quirks (SURVEY.md A7; /root/reference/pkg/searcher/searcher.go).

All scorers are vectorized over a postings-rows frame
(field, term_id, doc_id, tf, name_len, address_len, total_len) restricted to
the query's terms, and return per-(doc) scores.

Reference quirks reproduced verbatim:
  * BM25F (searcher.go:249-315): K1=10, name W=20 B=0.95; the ADDRESS field
    uses NAME_B (0.95) instead of ADDRESS_B (0.3) — searcher.go:299;
    idf = log10((N - df + 0.5) / (df + 0.5)) with df = distinct docs
    containing the term across BOTH fields; iterates query terms WITH
    duplicates (a repeated query term contributes twice).
  * BM25+ (searcher.go:317-354): Δ=1, k1=1.2, b=0.98,
    idf = log10((N+1)/df); numerator is ``(k1+1) + tf`` — as written, NOT
    the standard (k1+1)*tf; fields merged by concatenation (D3); iterates
    DISTINCT query terms (map iteration).
  * TF-IDF cosine (searcher.go:356-400): doc/query norms computed but NEVER
    applied to the final score (raw dot product ranks).

BM25F is split in two: ``bm25f_row_weights`` is the query-independent
``(wtd / (K1 + wtd)) * idf`` of each posting row (the one copy of the
formula), and a request multiplies those by its term multiplicities and
sums them per doc (``group_sum``). ``score_bm25_field`` runs both halves per
call; ``search.SearchCore`` runs the first once, at construction.

Ranking ties: the reference's sort is stable over Go map iteration order —
nondeterministic. We define ties broken by ascending doc_id (SURVEY.md §7.4),
the engine-wide order of ``functions/topk.rank_slice``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.topk import rank_slice
from .text_index import FIELD_ADDRESS, FIELD_NAME, TextIndex

# BM25+ parameters (searcher.go:27-37)
DELTA = 1.0
K1 = 1.2
B = 0.98
# BM25F parameters
K1_BM25F = 10.0
NAME_WEIGHT = 20.0
ADDRESS_WEIGHT = 1.0
NAME_B = 0.95
ADDRESS_B = 0.3  # defined in the reference but unused due to the :299 quirk


def _col(p, name: str) -> np.ndarray:
    """Postings column as numpy — ``p`` is a pandas frame (batch pipelines,
    store reads) or a dict of numpy arrays (SearchCore's zero-copy serving
    gather); both carry the same columns in the same row order."""
    c = p[name]
    return c if isinstance(c, np.ndarray) else c.to_numpy()


def _nrows(p) -> int:
    return len(p["term_id"]) if isinstance(p, dict) else len(p)


def group_sum(doc: np.ndarray, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """groupby(doc).sum() as numpy, returned as (doc_ids, sums): groups in
    ascending doc order, addition within a group in the rows' ORIGINAL
    order — the exact accumulation order pandas' cython groupby uses, so
    the float results are bit-identical to the frame form this replaced
    (gated by the store-search oracle hashes and TestScoring)."""
    o = np.argsort(doc, kind="stable")
    d_o, c_o = doc[o], contrib[o]
    starts = np.concatenate([[0], np.nonzero(d_o[1:] != d_o[:-1])[0] + 1])
    return d_o[starts], np.add.reduceat(c_o, starts)


def _group_sum_by_doc(doc: np.ndarray, contrib: np.ndarray) -> pd.Series:
    d, s = group_sum(doc, contrib)
    return pd.Series(s, index=pd.Index(d, name="doc_id"))


def _query_term_counts(query_term_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    qt, qn = np.unique(np.asarray(query_term_ids, dtype=np.int64), return_counts=True)
    return qt, qn


def df_per_term(tid: np.ndarray, doc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(term ids ascending, df): each term's number of distinct docs over
    the given posting rows, counted across BOTH fields."""
    po = np.lexsort((doc, tid))
    t_s, d_s = tid[po], doc[po]
    new_pair = np.concatenate([[1], ((t_s[1:] != t_s[:-1]) | (d_s[1:] != d_s[:-1])).astype(np.int64)])
    ut, t_start = np.unique(t_s, return_index=True)
    return ut, np.add.reduceat(new_pair, t_start)


def bm25f_row_weights(p, df: np.ndarray, g: dict) -> np.ndarray:
    """The query-independent half of BM25F: each posting row's
    ``(wtd / (K1_BM25F + wtd)) * idf``, given its term's df per row. A
    request multiplies these by the query-term multiplicity and sums them
    per doc; ``SearchCore`` computes them once for all of its postings."""
    n = float(g["docs_count"])
    dfv = df.astype(np.float64)
    idf = np.log10(n - dfv + 0.5) - np.log10(dfv + 0.5)
    is_name = _col(p, "field") == FIELD_NAME
    weight = np.where(is_name, NAME_WEIGHT, ADDRESS_WEIGHT)
    avg_len = np.where(is_name, g["avg_name_len"], g["avg_address_len"])
    flen = np.where(is_name, _col(p, "name_len"), _col(p, "address_len")).astype(np.float64)
    tf = _col(p, "tf").astype(np.float64)
    # NAME_B used for BOTH fields (reference searcher.go:299 quirk)
    wtd = weight * (tf / (1.0 + NAME_B * ((flen / avg_len) - 1.0)))
    return (wtd / (K1_BM25F + wtd)) * idf


def score_bm25_field(p: pd.DataFrame, query_term_ids: list[int], g: dict) -> pd.Series:
    """p: postings rows for the query's terms. query_term_ids WITH duplicates
    (a repeated query term contributes per occurrence — applied here as a
    multiplicity factor, exact for ×2/×4 and within one ulp otherwise).
    Pure numpy: the row weights (df counted over all of ``p``), times the
    multiplicity, summed per doc."""
    if _nrows(p) == 0:
        return pd.Series(dtype=np.float64)
    qt, first, qn = np.unique(np.asarray(query_term_ids, dtype=np.int64), return_index=True, return_counts=True)
    tid_all = _col(p, "term_id")
    doc_all = _col(p, "doc_id")
    rows = np.nonzero(np.isin(tid_all, qt))[0]
    if len(rows) == 0:
        return pd.Series(dtype=np.float64)
    ut, df = df_per_term(tid_all, doc_all)
    # terms in first-seen query order, each term's rows in p's order: the
    # order SearchCore's plan adds up a doc's contributions in, so the
    # in-RAM, on-disk and segmented cores return bit-identical scores
    q = np.searchsorted(qt, tid_all[rows])
    o = np.argsort(first[q], kind="stable")
    rows, q = rows[o], q[o]
    cols = {c: _col(p, c)[rows] for c in ("field", "tf", "name_len", "address_len")}
    w = bm25f_row_weights(cols, df[np.searchsorted(ut, tid_all[rows])], g)
    return _group_sum_by_doc(doc_all[rows], w * qn[q].astype(np.float64))


def _merge_fields(p: pd.DataFrame):
    """p.groupby([term_id, doc_id]) as numpy: returns (tid, doc, tf_sum,
    total_len_first) in ascending (term_id, doc_id) order — the same row
    order pandas' sorted groupby emits, so downstream float accumulation
    order is unchanged. lexsort is stable, so 'first' is the original-order
    first."""
    tid_all = _col(p, "term_id")
    doc_all = _col(p, "doc_id")
    po = np.lexsort((doc_all, tid_all))
    t_s, d_s = tid_all[po], doc_all[po]
    starts = np.concatenate([[0], np.nonzero((t_s[1:] != t_s[:-1]) | (d_s[1:] != d_s[:-1]))[0] + 1])
    tf_sum = np.add.reduceat(_col(p, "tf")[po], starts)
    tl_first = _col(p, "total_len")[po][starts]
    return t_s[starts], d_s[starts], tf_sum, tl_first


def _sizes_per_term(m_tid: np.ndarray):
    """(unique_terms_sorted, group_size) over the merged (tid, doc) rows —
    df per term when each (term, doc) pair is one row."""
    ut, t_start = np.unique(m_tid, return_index=True)
    return ut, np.diff(np.append(t_start, len(m_tid)))


def score_bm25_plus(p: pd.DataFrame, query_term_ids: list[int], g: dict) -> pd.Series:
    """Fields merged (D3); distinct query terms only (map-iteration semantics)."""
    n = float(g["docs_count"])
    avg = g["avg_total_len"]
    if _nrows(p) == 0:
        return pd.Series(dtype=np.float64)
    m_tid, m_doc, m_tf, m_tl = _merge_fields(p)
    tids = np.asarray(list(dict.fromkeys(query_term_ids)), dtype=np.int64)
    sel = np.isin(m_tid, tids)
    if not sel.any():
        return pd.Series(dtype=np.float64)
    ut, sizes = _sizes_per_term(m_tid)
    dfv = sizes[np.searchsorted(ut, m_tid[sel])].astype(np.float64)
    idf = np.log10(n + 1.0) - np.log10(dfv)
    tf = m_tf[sel].astype(np.float64)
    dl = m_tl[sel].astype(np.float64)
    # numerator (K1+1)+tf — reproduced as written (searcher.go:339-340)
    contrib = idf * (DELTA + ((K1 + 1.0) + tf) / (K1 * (1.0 - B + B * dl / avg) + tf))
    return _group_sum_by_doc(m_doc[sel], contrib)


def score_tfidf_cosine(p: pd.DataFrame, query_term_ids: list[int], g: dict) -> pd.Series:
    """Norms computed but unused (searcher.go:382-399) — raw dot product."""
    n = float(g["docs_count"])
    if _nrows(p) == 0:
        return pd.Series(dtype=np.float64)
    qt, qn = _query_term_counts(query_term_ids)
    m_tid, m_doc, m_tf, _ = _merge_fields(p)
    sel = np.isin(m_tid, qt)
    if not sel.any():
        return pd.Series(dtype=np.float64)
    ut, sizes = _sizes_per_term(m_tid)
    dfv = sizes[np.searchsorted(ut, m_tid[sel])].astype(np.float64)
    idf = np.log10(n) - np.log10(dfv)
    tf_q = 1.0 + np.log10(qn[np.searchsorted(qt, m_tid[sel])].astype(np.float64))
    tfidf_q = tf_q * idf
    tf_d = 1.0 + np.log10(m_tf[sel].astype(np.float64))
    contrib = (tf_d * idf) * tfidf_q
    return _group_sum_by_doc(m_doc[sel], contrib)


SCORERS = {
    "BM25_FIELD": score_bm25_field,
    "BM25_PLUS": score_bm25_plus,
    "TF_IDF_COSINE": score_tfidf_cosine,
}


def rank_scores(scores: pd.Series, k: int, offset: int = 0) -> pd.DataFrame:
    """rank_slice of a per-doc score Series as a (doc_id, score, rank) frame."""
    d, s = rank_slice(scores.index.to_numpy(), scores.to_numpy(dtype=np.float64), k, offset)
    return pd.DataFrame({"doc_id": d, "score": s, "rank": np.arange(1, len(d) + 1, dtype=np.int64)})
