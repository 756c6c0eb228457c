"""The ranking order, in one place. Every top-k in the engine ranks by score
descending (a distance is ranked by its negation, so ascending), ties go to
the smaller id, and NaN sorts last — the ``ORDER BY score DESC, id`` of the
SQL oracles' ``ROW_NUMBER``.

  rank_slice   one query's (id, score) arrays → the slice [offset, offset+k)
               of that order (the per-batch partials and the search cores).
  query_topk   rank_slice for each query of a broadcast query set.
  topk_rows    per key of a table, its first k rows in that order plus a
               ``rank`` column (the per-key merge, stages/joins.topk_per_key).

``np.argpartition`` keeps an arbitrary member of a tie at the k-th place,
so no ranked output goes through it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def rank_slice(d: np.ndarray, s: np.ndarray, k: int, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(doc_id, score) arrays in rank order: descending score, ties by
    ascending doc_id; slice [offset, offset+k). When the slice ends before
    the last doc, ``np.partition`` finds the (offset+k)-th best score and
    only docs scoring at least that — every tie at the boundary included —
    are lexsorted. The order is total, so the result equals the full
    sort's; the cost is O(docs) plus a sort of the kept few."""
    neg = -s
    n = offset + k
    if offset >= 0 and k > 0 and n < len(s):
        # ~(neg > kth) rather than neg <= kth: a NaN score is kept, as the
        # full sort would rank it (last)
        keep = np.nonzero(~(neg > np.partition(neg, n - 1)[n - 1]))[0]
        d, s, neg = d[keep], s[keep], neg[keep]
    o = np.lexsort((d, neg))[offset:n]
    return d[o], s[o]


def query_topk(qids: np.ndarray, k: int, row) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(query_id, id, score) arrays: for each query ``i``, the rank_slice
    top-k of ``row(i) = (ids, scores)``, the candidates it may rank."""
    parts = [rank_slice(*row(i), k) for i in range(len(qids))]
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    q = np.repeat(np.asarray(qids, np.int64), [len(d) for d, _ in parts])
    return q, np.concatenate([d for d, _ in parts]), np.concatenate([s for _, s in parts])


def topk_rows(t: pa.Table, key: str, score: str, id_col: str, k: int, descending: bool) -> pa.Table:
    """The first ``k`` rows of each ``key`` (a null key is one key, as SQL's
    PARTITION BY) ordered by ``score`` (descending or ascending), ties by
    ascending ``id_col``, NaN or null scores last — with an int64 ``rank``
    1..k appended. Rows come out grouped by key, in rank order.

    One lexsort over (key code, score, id): the key becomes integer codes
    first, so string keys sort as cheaply as ints. Descending negates the
    score (an integer one bitwise, which cannot overflow): Arrow's
    ``sort_indices`` would put NaN first in descending order."""
    codes = pc.dictionary_encode(t.column(key).combine_chunks(), null_encoding="encode").indices
    s = t.column(score).to_numpy()
    if descending:
        s = ~s if np.issubdtype(s.dtype, np.integer) else -s
    codes = codes.to_numpy(zero_copy_only=False)
    order = np.lexsort((t.column(id_col).to_numpy(), s, codes))
    c = codes[order]
    first = np.ones(len(c), bool)
    first[1:] = c[1:] != c[:-1]
    pos = np.arange(len(c))
    pos -= np.maximum.accumulate(np.where(first, pos, 0))  # place within its key
    keep = pos < k
    return t.take(pa.array(order[keep])).append_column("rank", pa.array(pos[keep] + 1, pa.int64()))
