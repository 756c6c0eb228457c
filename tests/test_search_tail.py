"""The search tail and the serving session.

``search_rows`` collects every query's ranked arrays and builds one frame;
``_reference_search_rows`` below is the per-query form it replaced (one
``rank_scores`` frame per query, a ``query_id`` column insert, one
``pd.concat``). The two must return equal frames, dtypes included, for all
three cores. The session tests pin that an unnamed session runs its core in
this process and that in-process, named-actor and batch paths agree."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from osm_search_ray import serving
from osm_search_ray.functions.tokenize import tokenize
from osm_search_ray.pipelines import text_index as ti
from osm_search_ray.pipelines.scoring import SCORERS, rank_scores
from osm_search_ray.pipelines.search import DiskSearchCore, SearchCore, SegmentedSearchCore, free_form_search
from osm_search_ray.state.lm import count_ngrams
from osm_search_ray.state.spell import SpellCorrector

DOCS = pd.DataFrame(
    {
        "doc_id": np.arange(10, dtype=np.int64),
        "name": [
            "Dunia Fantasi",
            "Kebun Binatang Ragunan",
            "Monumen Nasional",
            "Taman Mini Indonesia",
            "Jalan Dunia Baru",
            "Jalan Kebun Jeruk Apel",
            "Jalan Pantai Ancol",
            "Jalan Sentosa Harapan",
            "Pantai Indah Kapuk",
            "Jalan Jalan Ancol",
        ],
        "address": [
            "Jalan Lodan Timur, Ancol, Jakarta Utara",
            "Jalan Harsono, Ragunan, Jakarta Selatan",
            "Gambir, Jakarta Pusat",
            "Ceger, Jakarta Timur",
            "Jalan Dunia Baru",
            "Jalan Kebun Jeruk Apel",
            "Jalan Pantai Ancol",
            "Jalan Sentosa Harapan",
            "Penjaringan, Jakarta Utara",
            "Jalan Ancol Barat",
        ],
    }
)
TEXT_COLS = {"name": ti.FIELD_NAME, "address": ti.FIELD_ADDRESS}
SCORINGS = ["BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE"]


def _reference_search_rows(core, rows):
    """The per-query tail every core used before the one-frame tail."""
    out = []
    for row in rows:
        toks = tokenize(row["text"])
        if core.corrector is not None:
            toks = core.corrector.correct_query(toks)
        if isinstance(core, SearchCore):
            tids = [core.vocab[t] for t in toks if t in core.vocab]
            posts = core._gather(tids)
        else:
            lookup = core.reader.point_query if isinstance(core, DiskSearchCore) else core._point_query
            ids, posts = lookup(toks)
            tids = [ids[t] for t in toks if t in ids]
        scoring = row.get("scoring") or "BM25_FIELD"
        k = int(row.get("top_k") or 10)
        offset = int(row.get("offset") or 0)
        if tids:
            scores = SCORERS[scoring](posts, tids, core.globals)
            ranked = rank_scores(scores, k, offset)
        else:
            ranked = pd.DataFrame({"doc_id": [], "score": [], "rank": []})
        ranked["query_id"] = row["query_id"]
        out.append(ranked)
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        {"doc_id": [], "score": [], "rank": [], "query_id": []}
    )


@pytest.fixture(scope="module")
def index():
    return ti.build_text_index(ray.data.from_pandas(DOCS))


@pytest.fixture(scope="module")
def corrector(index):
    lm = count_ngrams([tokenize(f"{n} {a}") for n, a in zip(DOCS["name"], DOCS["address"])])
    return SpellCorrector.build(set(index.terms["term"]), lm)


@pytest.fixture(scope="module")
def dirs(index, tmp_path_factory):
    """The same corpus as an on-disk store and as a two-segment index."""
    from osm_search_ray.pipelines.index_segments import add_segment

    root = tmp_path_factory.mktemp("tail")
    disk = str(root / "disk")
    ti.save_text_index(index, disk, num_buckets=4)
    seg = str(root / "seg")
    for half in (DOCS.iloc[:5], DOCS.iloc[5:]):
        add_segment(seg, ray.data.from_pandas(half.reset_index(drop=True)), TEXT_COLS, in_ram=True)
    return disk, seg


@pytest.fixture(scope="module", params=["ram", "disk", "seg"])
def core_args(request, index, dirs):
    make = {"ram": (SearchCore, index), "disk": (DiskSearchCore, dirs[0]), "seg": (SegmentedSearchCore, dirs[1])}
    return make[request.param]


def _batches():
    hit = {"query_id": 0, "text": "jalan ancol"}
    miss = {"query_id": 1, "text": "zzz qqq"}
    out = {f"{s}-{k}": [dict(hit, scoring=s, top_k=k)] for s in SCORINGS for k in (1, 3, 20)}
    out.update(
        {
            "repeated-terms": [{"query_id": 3, "text": "jalan jalan ancol jalan", "scoring": s} for s in SCORINGS],
            "empty-alone": [miss],
            "empty-only": [miss, dict(miss, query_id=2), {"query_id": 4, "text": ""}],
            "empty-first": [miss, hit],
            "empty-last": [hit, miss],
            "empty-middle": [hit, miss, dict(hit, query_id=5, text="pantai", scoring="BM25_PLUS")],
            "offset-past-end": [dict(hit, offset=100)],
            "offset-past-end-mixed": [dict(hit, offset=100), dict(hit, query_id=6, offset=2, top_k=4)],
            "offset-past-end-and-empty": [dict(hit, offset=100), miss],
            "no-rows": [],
            "numpy-query-ids": [dict(hit, query_id=np.int64(9)), dict(hit, query_id=np.int64(10), text="kebun")],
            "multi-row": [
                {"query_id": i, "text": t, "scoring": SCORINGS[i % 3], "top_k": 2 + i % 4, "offset": i % 3}
                for i, t in enumerate(
                    ["dunia fantasi", "jalan", "jakarta utara", "pantai ancol", "kebun jeruk", "taman", "jalan jakarta"]
                )
            ],
        }
    )
    return out


def test_tail_equals_reference_for_every_core(core_args, corrector):
    make_core, arg = core_args
    for corr in (None, corrector):
        core = make_core(arg, corr)
        for name, rows in _batches().items():
            got = core.search_rows(rows)
            want = _reference_search_rows(core, rows)
            try:
                pd.testing.assert_frame_equal(got, want, check_exact=True)
            except AssertionError as e:
                raise AssertionError(f"{make_core.__name__} corrector={corr is not None} batch {name}: {e}")


def test_tail_dtypes_pinned(index):
    """The dtypes the concat form produced: int64 ids/ranks when every query
    has an indexed term (even with no rows left after ``offset``), float64
    once one query has none, float64 everywhere for an empty batch."""
    core = SearchCore(index)
    hit = {"query_id": 0, "text": "jalan"}
    cases = [([hit, dict(hit, offset=100)], "int64"), ([hit, {"query_id": 1, "text": "zzz"}], "float64")]
    for rows, want in cases:
        got = core.search_rows(rows)
        assert [str(got[c].dtype) for c in ("doc_id", "score", "rank", "query_id")] == [want, "float64", want, "int64"]
    assert (core.search_rows([]).dtypes == np.float64).all()


def test_unnamed_session_runs_in_process(index, monkeypatch):
    def no_actor(*a, **kw):
        raise AssertionError("an unnamed session must not start an actor")

    monkeypatch.setattr(serving, "_start_named", no_actor)
    monkeypatch.setattr(serving, "_RemoteSession", None)
    s = serving.start_session(index)
    assert type(s) is serving.Session and type(s.core) is SearchCore
    rows = [{"query_id": 0, "text": "jalan ancol"}]
    pd.testing.assert_frame_equal(pd.DataFrame(s.search(rows)), SearchCore(index).search_rows(rows))
    s.warmup()
    s.stop()


def test_session_parity_in_process_named_batch(index, dirs, corrector):
    """Unnamed (in process), named (actor) and the batch free_form_search
    return the same rows for the in-RAM, on-disk and segmented cores."""
    queries = pd.DataFrame(
        {
            "query_id": np.arange(6, dtype=np.int64),
            "text": ["dunia fantasi", "jalan ancol", "kebon jerok", "jakarta utara", "pantai", "jalan jalan"],
            "scoring": ["BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE", "BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE"],
            "top_k": [3, 5, 5, 4, 2, 10],
            "offset": [0, 1, 0, 2, 0, 0],
        }
    )
    key = ["query_id", "rank"]
    batch = free_form_search(index, queries, corrector=corrector).to_pandas().sort_values(key).reset_index(drop=True)
    starts = {
        "ram": (serving.start_session, index),
        "disk": (serving.start_disk_session, dirs[0]),
        "seg": (serving.start_segmented_session, dirs[1]),
    }
    for kind, (start, arg) in starts.items():
        local = start(arg, corrector)
        named = start(arg, corrector, name=f"parity-{kind}")
        try:
            assert type(local) is serving.Session
            a = pd.DataFrame(local.search(queries.to_dict("records")))
            b = pd.DataFrame(named.search(queries.to_dict("records")))
            pd.testing.assert_frame_equal(a, b, check_exact=True)
            got = a[batch.columns].astype(batch.dtypes.to_dict()).sort_values(key).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, batch, check_exact=True, obj=kind)
        finally:
            named.stop()


def test_session_columns_equal_frame_path(index, corrector):
    """``Session.search`` columns, framed, equal ``search_rows`` with equal
    dtypes for matched, unmatched (float64 ids and ranks) and empty
    batches, in process and through a named actor; ``autocomplete`` columns
    equal the corrector's own completions."""
    batches = {k: v for k, v in _batches().items() if k in ("multi-row", "empty-middle", "empty-only", "no-rows")}
    core = SearchCore(index, corrector)
    typed = [{"query_id": 3, "text": "jalan keb"}, {"query_id": 5, "text": "zzz"}, {"query_id": 8, "text": "pantai an"}]
    want_ac = {"query_id": [], "rank": [], "completion": []}
    for row in typed:
        for rank, cand in enumerate(corrector.autocomplete(tokenize(row["text"]), top_n=2), start=1):
            want_ac["query_id"].append(row["query_id"])
            want_ac["rank"].append(rank)
            want_ac["completion"].append(cand[-1])
    assert want_ac["completion"]
    named = serving.start_session(index, corrector, name="columns-test")
    try:
        for s in (serving.start_session(index, corrector), named):
            for name, rows in batches.items():
                got, want = pd.DataFrame(s.search(rows)), core.search_rows(rows)
                assert got.equals(want) and list(got.dtypes) == list(want.dtypes), (type(s), name)
            assert s.autocomplete(typed, top_n=2) == want_ac
    finally:
        named.stop()


def test_ann_session_parity(tmp_path):
    from osm_search_ray.stages.annindex import IvfStoreCore, build_ivf_store, ivf_store_topk

    rng = np.random.default_rng(11)
    df = pd.DataFrame({"vec_id": np.arange(120, dtype=np.int64), "embedding": list(rng.standard_normal((120, 8)))})
    store = str(tmp_path / "ivf")
    build_ivf_store(ray.data.from_pandas(df), store, nlist=6)
    queries = {"vec_id": np.array([3, 40, 77], dtype=np.int64), "mat": np.vstack(df["embedding"].iloc[[3, 40, 77]])}
    key = ["query_id", "rank"]

    def norm(f):
        return f.sort_values(key).reset_index(drop=True)

    want = norm(ivf_store_topk(store, queries, k=4, nprobe=2))
    local = serving.start_ann_session(store)
    assert type(local) is serving.Session and type(local.core) is IvfStoreCore
    named = serving.start_ann_session(store, name="ann-parity")
    try:
        pd.testing.assert_frame_equal(norm(local.topk(queries, k=4, nprobe=2)), want)
        pd.testing.assert_frame_equal(norm(named.topk(queries, k=4, nprobe=2)), want)
    finally:
        named.stop()
