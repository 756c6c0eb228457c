"""sources/memo: per-corpus memo keyed by input-file fingerprint.

Facility unit tests, plus the sites that used to key by ``sf_dir`` alone: a
file rewritten at the same path must give the fresh corpus's result, not
the memoized one."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_search_ray.sources import memo


@pytest.fixture
def fresh_memo():
    memo.clear()
    yield
    memo.clear()
    shutil.rmtree("/tmp/osm_search_ray_memo_test", ignore_errors=True)


def _touch(path, data: bytes):
    with open(path, "wb") as f:
        f.write(data)
    return str(path)


def _counting(value="v"):
    calls = []

    def build():
        calls.append(1)
        return value

    return build, calls


def test_hit_does_not_build(tmp_path, fresh_memo):
    f = _touch(tmp_path / "a", b"x")
    build, calls = _counting()
    assert memo.memo("t", [f], build) == "v"
    assert memo.memo("t", [f], build) == "v"
    assert len(calls) == 1


def test_other_params_keep_the_first_entry(tmp_path, fresh_memo):
    f = _touch(tmp_path / "a", b"x")
    build, calls = _counting()
    memo.memo("t", [f], build, 1)
    memo.memo("t", [f], build, 2)
    memo.memo("t", [f], build, 1)
    assert len(calls) == 2


def test_created_or_rewritten_file_is_a_new_corpus(tmp_path, fresh_memo):
    f = str(tmp_path / "a")
    assert memo.memo("t", [f], lambda: "absent") == "absent"
    _touch(f, b"x")
    assert memo.memo("t", [f], lambda: "old") == "old"
    _touch(f, b"xy")
    assert memo.memo("t", [f], lambda: "new") == "new"


def test_other_corpus_evicts_and_removes_its_store_dir(tmp_path, fresh_memo):
    a, b = _touch(tmp_path / "a", b"x"), _touch(tmp_path / "b", b"y")
    build, calls = _counting()

    def make(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        build()

    da = memo.store_dir("memo_test", [a], make)
    assert os.path.isdir(da)
    db = memo.store_dir("memo_test", [b], make)
    assert db != da and os.path.isdir(db)
    assert not os.path.exists(da)
    memo.store_dir("memo_test", [a], make)  # a's entry was evicted too
    assert len(calls) == 3


def test_clear_forces_rebuild_and_keeps_finished_stores(tmp_path, fresh_memo):
    f = _touch(tmp_path / "a", b"x")
    build, calls = _counting()
    memo.memo("t", [f], build)
    memo.clear()
    memo.memo("t", [f], build)
    assert len(calls) == 2

    made = []
    d = memo.store_dir("memo_test", [f], made.append)
    memo.clear()
    assert memo.store_dir("memo_test", [f], made.append) == d
    assert made == [d]  # the completion marker makes the store reusable


def test_store_without_marker_is_rebuilt(tmp_path, fresh_memo):
    f = _touch(tmp_path / "a", b"x")
    made = []
    d = memo.store_dir("memo_test", [f], made.append)
    os.remove(f"{d}/{memo._MARKER}")  # as if the build had crashed
    memo.clear()
    memo.store_dir("memo_test", [f], made.append)
    assert made == [d, d]


# ------------------------------------------------- regenerated input files

_WORDS = np.array("alpha beta gamma delta river road park north south east west hill".split())


def _write_docs(sf_dir, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(_WORDS, size=rng.integers(3, 12))) for _ in range(n)]
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(texts, pa.string())}),
        f"{sf_dir}/documents.parquet",
    )


def _write_embeddings(sf_dir, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 8)).astype(np.float32)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
            }
        ),
        f"{sf_dir}/embeddings.parquet",
    )


def _frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_regenerated_file_invalidates_every_memo_site(tmp_path, fresh_memo):
    from osm_search_ray.pipelines import dedup_pipelines as dp
    from osm_search_ray.pipelines import graph, search_docs, simsearch

    sf = str(tmp_path)
    sites = {
        "und_edges": lambda: graph._und_edges(sf),
        "triangles": lambda: graph._triangles_cached(sf),
        "kgrams": lambda: dp._distinct_kgrams(sf, 3),
        "lm_doc_scores": lambda: search_docs.lm_doc_scores(sf),
        "knn_graph": lambda: simsearch.knn_graph(sf),
    }
    _write_docs(sf, 40, seed=1)
    _write_embeddings(sf, 40, seed=1)
    first = {name: _frame(site()) for name, site in sites.items()}

    _write_docs(sf, 70, seed=2)
    _write_embeddings(sf, 70, seed=2)
    second = {name: _frame(site()) for name, site in sites.items()}
    memo.clear()
    for name, site in sites.items():
        fresh = _frame(site())
        assert not fresh.equals(first[name]), name  # the rewrite changed the answer
        pd.testing.assert_frame_equal(second[name], fresh, obj=name)


def test_partial_quantized_store_is_rebuilt(tmp_path, fresh_memo):
    from osm_search_ray.pipelines import simsearch
    from osm_search_ray.sources.readers import read_pq

    sf = str(tmp_path)
    _write_embeddings(sf, 50, seed=3)
    store = simsearch._quant_store_dir(sf)
    full = _frame(read_pq(store))
    assert sorted(full["vec_id"]) == list(range(50))

    # a write that crashed partway: some rows on disk, no completion marker
    shutil.rmtree(store)
    os.makedirs(store)
    pq.write_table(pa.Table.from_pandas(full.head(10), preserve_index=False), f"{store}/partial.parquet")
    memo.clear()
    assert simsearch._quant_store_dir(sf) == store
    pd.testing.assert_frame_equal(_frame(read_pq(store)), full)
    shutil.rmtree(store)
