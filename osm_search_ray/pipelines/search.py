"""Batch search pipelines — the engine form of the reference HTTP endpoints
(SURVEY.md §3.2/§3.3): a ``queries`` table streamed through plain per-batch
functions over the (broadcast) index state, instead of goroutine-per-request
over global in-RAM indexes.

Scale shape: the query table is the STREAMED side; the search state (a
SearchCore, a corrector) is built once on the driver, ``ray.put`` once, and
each batch gets it with ``ray.get`` — no actor pool, which could hold a
one-CPU cluster's only CPU before the tasks that feed it run. A SearchCore
is numpy arrays plus per-term dicts (0.34 ms per ``ray.get`` at sf0.01); a
corrector carries the n-gram LM (~24 ms per ``ray.get`` at sf0.01), paid
once per batch of queries.  At 100 TB-corpus scale the
postings would be a term_id-partitioned Parquet dataset and this stage would
flip to streaming postings past broadcast queries — same operator, the small
side swaps (documented in pipelines/text_index.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.tokenize import tokenize
from ..functions.topk import rank_slice
from .scoring import SCORERS, bm25f_row_weights, df_per_term, group_sum
from .text_index import TextIndex


def _arrays(scores: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    return scores.index.to_numpy(), scores.to_numpy(dtype=np.float64)


def _qid_column(qids: list) -> np.ndarray:
    """``pd.Series(qids).to_numpy()`` — the query_id dtype of one frame per
    query concatenated — without building a Series for the usual batch of
    Python ints that fit int64 (numpy infers the same dtype for those)."""
    if all(type(q) is int for q in qids):
        a = np.array(qids)
        if a.dtype == np.int64:
            return a
    return pd.Series(qids).to_numpy()


class _Core:
    """The request loop every search core shares: tokenize (+ spell-correct),
    look the tokens up (``_point_query`` → term ids + their postings), score,
    rank, and concatenate the whole batch into columns once."""

    def _tokens(self, text: str) -> list[str]:
        toks = tokenize(text)
        return self.corrector.correct_query(toks) if self.corrector is not None else toks

    def _score(self, text: str, scoring: str) -> "tuple[np.ndarray, np.ndarray] | None":
        """(doc_id, score) arrays of one query, None when no query term is
        indexed."""
        toks = self._tokens(text)
        ids, posts = self._point_query(toks)
        tids = [ids[t] for t in toks if t in ids]
        return _arrays(SCORERS[scoring](posts, tids, self.globals)) if tids else None

    def search_columns(self, rows: list[dict]) -> dict[str, np.ndarray]:
        """rows: dicts with query_id, text[, scoring, top_k, offset] →
        doc_id, score, rank and query_id arrays, queries in input order,
        each in rank order.

        The dtypes are those of one frame per query concatenated: a query
        with no indexed term counts as an empty float64 frame, which makes
        doc_id and rank float64 for the whole batch (and an empty batch is
        all float64)."""
        qids, counts, docs, scores = [], [], [], []
        unmatched = not rows
        for row in rows:
            k = int(row.get("top_k") or 10)
            offset = int(row.get("offset") or 0)
            s = self._score(row["text"], row.get("scoring") or "BM25_FIELD")
            qids.append(row["query_id"])
            if s is None:
                unmatched = True
                counts.append(0)
                continue
            d, v = rank_slice(*s, k, offset)
            docs.append(d)
            scores.append(v)
            counts.append(len(d))
        n = np.asarray(counts, dtype=np.int64)
        rank = np.arange(1, n.sum() + 1, dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
        doc = np.concatenate(docs) if docs else np.empty(0, np.float64)
        if unmatched:
            doc, rank = doc.astype(np.float64), rank.astype(np.float64)
        return {
            "doc_id": doc,
            "score": np.concatenate(scores) if scores else np.empty(0, np.float64),
            "rank": rank,
            "query_id": np.repeat(_qid_column(qids), n) if rows else np.empty(0, np.float64),
        }

    def search_rows(self, rows: list[dict]) -> pd.DataFrame:
        """``search_columns`` as a frame, which owns the fresh arrays uncopied."""
        return pd.DataFrame(self.search_columns(rows), copy=False)


class SearchCore(_Core):
    """The in-RAM query engine: vocab + per-term postings + globals (+
    optional spell corrector). Shared by the batch stage (free_form_search)
    and the serving session (serving.Session) — one scoring
    implementation, two execution shapes.

    The constructor plans BM25F once: postings sorted stably by term_id
    (each term one contiguous ``(lo, hi)`` slice, original row order kept)
    and every row's query-independent weight from
    ``scoring.bm25f_row_weights``, with each term's df counted over all
    postings — one float64 per posting row. A BM25F request then only
    concatenates its terms' slices in first-seen order, multiplies by each
    term's multiplicity and sums per doc; the rows and their order are
    those ``score_bm25_field`` sees over ``_gather``, so the scores are
    bit-identical. BM25_PLUS and TF_IDF_COSINE score ``_gather`` rows
    through ``SCORERS``."""

    def __init__(self, index: TextIndex, corrector=None):
        self.vocab = index.vocab()
        self.postings = index.postings
        self.globals = index.globals
        self.corrector = corrector
        order = np.argsort(self.postings["term_id"].to_numpy(), kind="stable")
        self._cols = {
            c: self.postings[c].to_numpy()[order]
            for c in ("term_id", "doc_id", "field", "tf", "name_len", "address_len", "total_len")
        }
        tid, self._doc = self._cols["term_id"], self._cols["doc_id"]
        ut, df = df_per_term(tid, self._doc)
        self._w = bm25f_row_weights(self._cols, df[np.searchsorted(ut, tid)], self.globals)
        lo = np.searchsorted(tid, ut, side="left")
        hi = np.searchsorted(tid, ut, side="right")
        self._span = dict(zip(ut.tolist(), zip(lo.tolist(), hi.tolist())))

    def _gather(self, tids: list[int]) -> dict:
        """Postings rows for the query's terms as a dict of numpy arrays —
        per-term contiguous slices concatenated in first-seen query-term
        order."""
        spans = [self._span[t] for t in dict.fromkeys(tids)]
        idx = np.concatenate([np.arange(a, b) for a, b in spans]) if spans else np.empty(0, np.int64)
        return {c: v[idx] for c, v in self._cols.items()}

    def _score(self, text: str, scoring: str) -> "tuple[np.ndarray, np.ndarray] | None":
        tids = [self.vocab[t] for t in self._tokens(text) if t in self.vocab]
        if not tids:
            return None
        if scoring != "BM25_FIELD":
            return _arrays(SCORERS[scoring](self._gather(tids), tids, self.globals))
        mult = dict.fromkeys(tids, 0)
        for t in tids:
            mult[t] += 1
        spans = [(*self._span[t], m) for t, m in mult.items()]
        w = np.concatenate([self._w[a:b] * float(m) for a, b, m in spans])
        return group_sum(np.concatenate([self._doc[a:b] for a, b, _ in spans]), w)


def free_form_search(
    index: TextIndex, queries: "ray.data.Dataset | pd.DataFrame", corrector=None
) -> "ray.data.Dataset":
    """queries(query_id, text[, scoring, top_k, offset]) → ranked results.

    Optionally spell-corrects out-of-vocabulary terms with the state/spell.py
    corrector (T4/T5) before scoring — mirroring FreeFormQuery
    (/root/reference/pkg/searcher/searcher.go:150-246)."""
    if isinstance(queries, pd.DataFrame):
        queries = ray.data.from_pandas(queries)
    ref = ray.put(SearchCore(index, corrector))

    def search_batch(batch: pa.Table) -> pa.Table:
        res = ray.get(ref).search_columns(batch.to_pylist())
        return pa.table(
            {
                "query_id": pa.array(res["query_id"].astype(np.int64)),
                "doc_id": pa.array(res["doc_id"].astype(np.int64)),
                "score": pa.array(res["score"]),
                "rank": pa.array(res["rank"].astype(np.int64)),
            }
        )

    return queries.map_batches(search_batch, batch_format="pyarrow")


def boolean_and_search(index: TextIndex, queries: "ray.data.Dataset | pd.DataFrame"):
    """J5 — implicit-AND boolean retrieval: docs containing ALL query terms
    (sorted-posting intersection, /root/reference/pkg/searcher/searcher.go:572-630;
    OR/NOT are parsed but unimplemented there, :664-670 — matched here)."""
    if isinstance(queries, pd.DataFrame):
        queries = ray.data.from_pandas(queries)
    merged = index.postings.groupby(["term_id", "doc_id"]).size().reset_index(name="n")
    ref = ray.put((index.vocab(), {t: g["doc_id"].to_numpy() for t, g in merged.groupby("term_id")}))

    def and_batch(batch: pa.Table) -> pa.Table:
        vocab, docs_by_term = ray.get(ref)
        out_q, out_d = [], []
        for row in batch.to_pylist():
            tids = [vocab.get(t, -1) for t in tokenize(row["text"])]
            if not tids or any(t < 0 for t in tids):
                continue
            acc = None
            for t in dict.fromkeys(tids):
                docs = docs_by_term.get(t, np.empty(0, np.int64))
                acc = docs if acc is None else np.intersect1d(acc, docs)
                if len(acc) == 0:
                    break
            for d in acc if acc is not None else []:
                out_q.append(row["query_id"])
                out_d.append(int(d))
        return pa.table({"query_id": pa.array(out_q, pa.int64()), "doc_id": pa.array(out_d, pa.int64())})

    return queries.map_batches(and_batch, batch_format="pyarrow")


def validate_queries(queries: "ray.data.Dataset", require_geo: bool = False) -> "ray.data.Dataset":
    """M18 analogue — request validation as a filter stage on the query
    table (the reference validates per HTTP request,
    pkg/http/http-router/controllers/searcher.go:109-145): drops rows with
    empty text, non-positive top_k, negative offset, or (if required)
    out-of-range lat/lon."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.invert(pc.equal(pc.coalesce(t.column("text"), ""), "")),
            pc.greater(pc.coalesce(t.column("top_k"), 10), 0),
        )
        mask = pc.and_(mask, pc.greater_equal(pc.coalesce(t.column("offset"), 0), 0))
        if require_geo and "lat" in t.column_names:
            ok_lat = pc.and_(pc.greater_equal(t.column("lat"), -90.0), pc.less_equal(t.column("lat"), 90.0))
            ok_lon = pc.and_(pc.greater_equal(t.column("lon"), -180.0), pc.less_equal(t.column("lon"), 180.0))
            mask = pc.and_(mask, pc.and_(ok_lat, ok_lon))
        return t.filter(mask)

    return queries.map_batches(fn, batch_format="pyarrow")


_AUTOCOMPLETE_SCHEMA = pa.schema([("query_id", pa.int64()), ("rank", pa.int64()), ("completion", pa.string())])


def autocomplete_columns(corrector, rows: list[dict], top_n: int = 3) -> dict[str, list]:
    """rows: dicts with query_id, text → query_id, rank and completion
    lists, queries in input order, each in rank order. The completion is
    the completed LAST term (reference spell_corrector.go:160-227)."""
    out = {"query_id": [], "rank": [], "completion": []}
    for row in rows:
        for rank, cand in enumerate(corrector.autocomplete(tokenize(row["text"]), top_n=top_n), start=1):
            out["query_id"].append(int(row["query_id"]))
            out["rank"].append(rank)
            out["completion"].append(cand[-1])
    return out


def autocomplete_search(corrector, queries: "ray.data.Dataset | pd.DataFrame", top_n: int = 3) -> "ray.data.Dataset":
    """Batch autocomplete: queries(query_id, text) streamed past the
    corrector (sorted vocab + LM, put once) — the engine form of GET
    /api/autocomplete: ``autocomplete_columns`` per batch."""
    if isinstance(queries, pd.DataFrame):
        queries = ray.data.from_pandas(queries)
    ref = ray.put(corrector)
    return queries.map_batches(
        lambda t: pa.table(autocomplete_columns(ray.get(ref), t.to_pylist(), top_n), schema=_AUTOCOMPLETE_SCHEMA),
        batch_format="pyarrow",
    )


class DiskSearchCore(_Core):
    """S11 when the index EXCEEDS RAM: nothing index-sized is resident —
    each request resolves its tokens through the footer-pruned dictionary
    buckets and reads only those terms' postings buckets/row-groups
    (text_index.point_query_store); only globals.json (+ an optional
    corrector) stay loaded. Same scoring kernels as SearchCore, so the
    two cores are result-identical (tested) — the engine's answer to the
    reference's mmap'd-index server at web-corpus scale."""

    def __init__(self, index_dir: str, corrector=None):
        from .text_index import StoreReader

        self.index_dir = index_dir
        # resident handle/footer cache — buckets are opened ONCE per session
        # (the reference server's one-time mmap analogue); per request only
        # pruned row groups are read
        self.reader = StoreReader(index_dir)
        self.globals = {k: v for k, v in self.reader.meta.items() if k not in ("postings_buckets", "n_terms")}
        self.corrector = corrector

    def _point_query(self, toks) -> tuple[dict, pd.DataFrame]:
        return self.reader.point_query(toks)


class SegmentedSearchCore(_Core):
    """Serving over a SEGMENTED index (pipelines/index_segments): one
    resident StoreReader per COMMITTED segment, and ``refresh()`` picks up
    newly added segments WITHOUT a rebuild or restart — the operational
    payoff of incremental indexing (the reference must reindex the whole
    corpus and restart its server for new data, cmd/indexing/main.go).

    Per request: per-segment footer-pruned point reads through the warm
    readers, local term_ids remapped to query-local ids by term string,
    globals merged EXACTLY from the persisted integer sums — so scores are
    bit-identical to a DiskSearchCore over the equivalent monolithic store
    (tested)."""

    def __init__(self, index_dir: str, corrector=None):
        self.index_dir = index_dir
        self.readers: dict = {}
        self.globals: dict = {}
        self.corrector = corrector
        self.refresh()

    def refresh(self) -> int:
        """Attach readers for newly committed segments AND detach readers
        whose segment dir is gone (out-of-band compaction cleanup) — globals
        and postings must always cover the SAME segment set, or scores go
        silently inconsistent (ADVICE r03). Returns the segment count now
        being served."""
        from .index_segments import merged_globals, segment_dirs
        from .text_index import StoreReader

        segs = segment_dirs(self.index_dir)
        live = set(segs)
        for s in list(self.readers):
            if s not in live:
                del self.readers[s]
        for s in segs:
            if s not in self.readers:
                self.readers[s] = StoreReader(s)
        self.globals = merged_globals(segs)
        return len(self.readers)

    def _point_query(self, toks) -> tuple[dict, pd.DataFrame]:
        from .text_index import _POSTING_COLS

        uniq = sorted(set(toks))
        qid = {t: i for i, t in enumerate(uniq)}
        found: dict = {}
        frames = []
        for reader in self.readers.values():
            ids, posts = reader.point_query(uniq)
            if not ids:
                continue
            inv = {int(tid): qid[t] for t, tid in ids.items()}
            posts = posts.copy()
            posts["term_id"] = posts["term_id"].map(inv).astype("int64")
            frames.append(posts)
            found.update({t: qid[t] for t in ids})
        if frames:
            return found, pd.concat(frames, ignore_index=True)
        import numpy as _np

        return found, pd.DataFrame({c: pd.Series(dtype=_np.int64) for c in _POSTING_COLS})
