"""Ties and slice boundaries of the in-RAM search core, property-based.

``SearchCore`` scores BM25F from per-posting weights computed once and ranks
top-k by partition. ``_reference_search_rows`` below is the path it
replaced: the ``SCORERS`` function over the gathered rows, a full lexsort by
(-score, doc_id), then the slice, one frame per query concatenated. The
generated corpora repeat documents under new ids, so exact score ties
straddle the k boundary; queries repeat terms, slice past the result count
and may hold no indexed term. The core must equal the reference exactly
for all three scorings, and the on-disk core must equal the in-RAM one."""

import tempfile

import numpy as np
import pandas as pd
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osm_search_ray.functions.tokenize import tokenize
from osm_search_ray.pipelines import text_index as ti
from osm_search_ray.pipelines.scoring import SCORERS
from osm_search_ray.pipelines.search import DiskSearchCore, SearchCore

WORDS = ["jalan", "ancol", "kebun", "pantai", "dunia", "raya", "baru"]
SCORINGS = ["BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE"]

_SETTINGS = dict(
    max_examples=15,  # each example builds an index through Ray
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _reference_search_rows(core, rows):
    out = []
    for row in rows:
        tids = [core.vocab[t] for t in tokenize(row["text"]) if t in core.vocab]
        k = int(row.get("top_k") or 10)
        offset = int(row.get("offset") or 0)
        if tids:
            s = SCORERS[row.get("scoring") or "BM25_FIELD"](core._gather(tids), tids, core.globals)
            d, v = s.index.to_numpy(), s.to_numpy(dtype=np.float64)
            o = np.lexsort((d, -v))[offset : offset + k]
            ranked = pd.DataFrame({"doc_id": d[o], "score": v[o], "rank": np.arange(1, len(o) + 1, dtype=np.int64)})
        else:
            ranked = pd.DataFrame({"doc_id": [], "score": [], "rank": []})
        ranked["query_id"] = row["query_id"]
        out.append(ranked)
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        {"doc_id": [], "score": [], "rank": [], "query_id": []}
    )


phrase = st.lists(st.sampled_from(WORDS), min_size=0, max_size=4).map(" ".join)


@st.composite
def corpus_and_queries(draw):
    base = draw(st.lists(st.tuples(phrase.filter(bool), phrase), min_size=1, max_size=12))
    dups = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
    docs = base + [base[i] for i in dups]
    ids = draw(st.permutations(range(len(docs))))  # doc_id order differs from insertion order
    frame = pd.DataFrame(
        {
            "doc_id": np.asarray(ids, dtype=np.int64) * 7 + 3,
            "name": [n for n, _ in docs],
            "address": [a for _, a in docs],
        }
    )
    query_text = st.lists(st.sampled_from(WORDS + ["zzz"]), min_size=0, max_size=5).map(" ".join)
    rows = [
        {
            "query_id": i,
            "text": draw(query_text),
            "scoring": draw(st.sampled_from(SCORINGS)),
            "top_k": draw(st.sampled_from([1, 2, 3, 5, 50])),
            "offset": draw(st.integers(0, len(docs) + 2)),
        }
        for i in range(draw(st.integers(1, 8)))
    ]
    return frame, rows


@settings(**_SETTINGS)
@given(corpus_and_queries(), st.integers(1, 4))
def test_core_equals_full_sort_reference_and_disk_core(case, buckets):
    frame, rows = case
    index = ti.build_text_index(ray.data.from_pandas(frame))
    core = SearchCore(index)
    with tempfile.TemporaryDirectory() as d:
        ti.save_text_index(index, d, num_buckets=buckets)
        disk = DiskSearchCore(d)
        for batch in [rows] + [[r] for r in rows]:
            got = core.search_rows(batch)
            want = _reference_search_rows(core, batch)
            assert got.equals(want), (batch, got, want)
            assert list(got.dtypes) == list(want.dtypes), batch
            on_disk = disk.search_rows(batch)
            assert on_disk.equals(got) and list(on_disk.dtypes) == list(got.dtypes), (batch, on_disk, got)
