"""The one ranking order (functions/topk.py) and the stages built on it:
score descending (a distance ascending), ties to the smaller id, NaN last.

Equal coordinates and equal embeddings are normal inputs (pages geocoded
to one spot, duplicated documents), so ties at the k-th place are real;
each test here plants them and compares against a full sort."""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from osm_search_ray.functions.geometry import haversine_km
from osm_search_ray.functions.topk import rank_slice, topk_rows
from osm_search_ray.stages.knn import broadcast_knn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tied_points(seed: int = 7) -> tuple[list[pd.DataFrame], pa.Table]:
    """400 points at 40 places in 4 blocks, and 5 query points."""
    rng = np.random.default_rng(seed)
    plat, plon = rng.uniform(-6.4, -6.0, 40), rng.uniform(106.6, 107.0, 40)
    place = rng.integers(0, 40, 400)
    pts = pd.DataFrame({"doc_id": rng.permutation(400).astype(np.int64), "lat": plat[place], "lon": plon[place]})
    queries = pa.table(
        {
            "query_id": pa.array(np.arange(5, dtype=np.int64)),
            "qlat": pa.array(rng.uniform(-6.4, -6.0, 5)),
            "qlon": pa.array(rng.uniform(106.6, 107.0, 5)),
        }
    )
    return np.array_split(pts, 4), queries


def knn_by_sort(pts: pd.DataFrame, queries: pa.Table, k: int) -> pd.DataFrame:
    """The oracle's ROW_NUMBER() OVER (ORDER BY dist, doc_id), k rows a query."""
    out = []
    for qid, qlat, qlon in zip(*(queries.column(c).to_pylist() for c in ("query_id", "qlat", "qlon"))):
        d = haversine_km(qlat, qlon, pts["lat"].to_numpy(), pts["lon"].to_numpy())
        o = np.lexsort((pts["doc_id"].to_numpy(), d))[:k]
        out.append(pd.DataFrame({"query_id": qid, "doc_id": pts["doc_id"].to_numpy()[o], "rank": np.arange(1, len(o) + 1)}))
    return pd.concat(out, ignore_index=True)


class TestTies:
    def test_broadcast_knn_keeps_the_smaller_id_of_a_tie(self):
        blocks, queries = tied_points()
        got = broadcast_knn(ray.data.from_pandas(blocks), queries, k=3, batch_size=64).to_pandas()
        got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)[["query_id", "doc_id", "rank"]]
        want = knn_by_sort(pd.concat(blocks), queries, 3)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    @staticmethod
    def _duplicated_embeddings():
        """Two directions, each on 18 rows with shuffled ids: every query's
        top-5 ends inside its 17 equal cosines. Scaled basis vectors, so
        each cosine is exactly 1 or 0 whatever the summation order."""
        rng = np.random.default_rng(3)
        mat = np.eye(8)[rng.permutation(np.repeat([0, 1], 18))] * rng.integers(1, 4, (36, 1))
        ids = rng.permutation(np.arange(100, 136)).astype(np.int64)
        return ids, mat

    @staticmethod
    def _cosine_by_sort(qids, qm, ids, mat, k) -> pd.DataFrame:
        qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = qn @ mn.T
        out = []
        for i, q in enumerate(qids):
            m = ids != q
            o = np.lexsort((ids[m], -sims[i][m]))[:k]
            out.append(pd.DataFrame({"query_id": q, "vec_id": ids[m][o], "rank": np.arange(1, len(o) + 1)}))
        return pd.concat(out, ignore_index=True)

    def test_cosine_batch_function(self):
        from osm_search_ray.pipelines.simsearch import cosine_topk_batch

        ids, mat = self._duplicated_embeddings()
        qids, qm = ids[:3], mat[:3]
        batch = pa.table({"vec_id": ids, "embedding": pa.array(list(mat), pa.list_(pa.float64()))})
        qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
        got = cosine_topk_batch(batch, (qids, qn), 5).to_pandas()
        got["rank"] = got.groupby("query_id").cumcount() + 1
        want = self._cosine_by_sort(qids, qm, ids, mat, 5)
        pd.testing.assert_frame_equal(got[["query_id", "vec_id", "rank"]], want, check_dtype=False)

    def test_ivf_store_core(self, tmp_path):
        from osm_search_ray.stages.annindex import IvfStoreCore, build_ivf_store

        ids, mat = self._duplicated_embeddings()
        df = pd.DataFrame({"vec_id": ids, "embedding": list(mat)})
        build_ivf_store(ray.data.from_pandas(np.array_split(df, 3)), str(tmp_path), nlist=2)
        qids, qm = ids[::7], mat[::7]
        got = IvfStoreCore(str(tmp_path)).topk({"vec_id": qids, "mat": qm}, 5, nprobe=2)
        want = self._cosine_by_sort(qids, qm, ids, mat, 5)
        want = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def pandas_final(t: pa.Table, key, score, id_col, k, descending) -> pd.DataFrame:
    """The per-key merge the engine ran before topk_rows: a mergesort by
    (score, id) and head(k) per key group."""
    df = t.to_pandas()
    out = []
    for _, g in df.groupby(key, sort=False, dropna=False):
        g = g.sort_values([score, id_col], ascending=[not descending, True], kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        out.append(g)
    if not out:
        return df.assign(rank=pd.Series(dtype=np.int64))
    return pd.concat(out)


def canon(df: pd.DataFrame, key, id_col) -> pd.DataFrame:
    df = df.astype({key: str})
    return df.sort_values([key, "rank", id_col]).reset_index(drop=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 4)), st.sampled_from([0.0, 1.0, 1.5, 2.0, float("nan")]), st.integers(0, 30)
        ),
        max_size=40,
    ),
    st.integers(0, 6),
    st.booleans(),
    st.booleans(),
)
def test_topk_rows_equals_pandas_final(rows, k, descending, string_key):
    keys = [f"k{r[0]}" if string_key and r[0] is not None else r[0] for r in rows]
    t = pa.table(
        {
            "key": pa.array(keys, pa.string() if string_key else pa.int64()),
            "score": pa.array([r[1] for r in rows], pa.float64()),
            "id": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    got = topk_rows(t, "key", "score", "id", k, descending)
    assert got.column_names == ["key", "score", "id", "rank"] and got.schema.field("rank").type == pa.int64()
    want = pandas_final(t, "key", "score", "id", k, descending)
    pd.testing.assert_frame_equal(canon(got.to_pandas(), "key", "id"), canon(want, "key", "id"), check_dtype=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, float("nan")]), max_size=30), st.integers(0, 8))
def test_rank_slice_equals_full_sort(scores, k):
    s = np.array(scores, np.float64)
    d = np.arange(len(s))[::-1].copy()
    o = np.lexsort((d, -s))[:k]
    got_d, got_s = rank_slice(d, s, k)
    np.testing.assert_array_equal(got_d, d[o])
    np.testing.assert_array_equal(got_s, s[o])


def test_topk_rows_integer_scores_descending():
    """An integer score is negated bitwise: the int64 minimum ranks last."""
    lo = np.iinfo(np.int64).min
    t = pa.table({"key": [1, 1, 1], "score": pa.array([lo, 0, 5], pa.int64()), "id": [1, 2, 3]})
    assert topk_rows(t, "key", "score", "id", 3, True).column("id").to_pylist() == [3, 2, 1]


def test_broadcast_knn_on_one_cpu(tmp_path):
    """The knn combiner is a plain task: on a one-CPU Ray it finishes. (An
    actor pool's first actor takes the only CPU before the read tasks that
    feed it can run.)"""
    import pyarrow.parquet as pq

    blocks, _ = tied_points()
    for i, b in enumerate(blocks):
        pq.write_table(pa.Table.from_pandas(b, preserve_index=False), tmp_path / f"part{i}.parquet")
    script = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{ROOT!r}, {os.path.join(ROOT, "tests")!r}]
        import pandas as pd, ray
        ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
                 runtime_env={{"env_vars": {{"PYTHONPATH": {ROOT!r}}}}})
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from osm_search_ray.sources.readers import read_pq
        from osm_search_ray.stages.knn import broadcast_knn
        from test_topk import knn_by_sort, tied_points
        blocks, queries = tied_points()
        got = broadcast_knn(read_pq({str(tmp_path)!r}), queries, k=3, batch_size=64).to_pandas()
        got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
        want = knn_by_sort(pd.concat(blocks), queries, 3)
        print("OK" if got["doc_id"].tolist() == want["doc_id"].tolist() else "WRONG")
        """
    )
    # its own process group, so the Ray processes it starts go with it
    p = subprocess.Popen(
        [sys.executable, "-c", script], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("broadcast_knn did not finish within 120 s on num_cpus=1")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    assert out.strip().splitlines()[-1:] == ["OK"], err[-2000:]
