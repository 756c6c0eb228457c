"""Property-based checks (hypothesis) for the exchange/join primitives the
whole engine rides on: hash_bucket_join and attach_columns vs a
pandas-merge ground truth over randomized key types, key distributions,
payload types and bucket counts, and hash_partitioned_apply's
whole-key-group guarantee."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osm_search_ray.stages.joins import attach_columns, hash_bucket_join, hash_partitioned_apply

_SETTINGS = dict(
    max_examples=12,  # each example spins Ray datasets — keep the run short
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def join_case(draw):
    n_left = draw(st.integers(0, 120))
    n_keys = draw(st.integers(1, 25))
    buckets = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    left = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys * 2, n_left).astype(np.int64),  # half miss
            "payload": rng.integers(-5, 5, n_left).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": np.arange(n_keys, dtype=np.int64),
            "blob": [bytes(rng.integers(0, 255, rng.integers(0, 9)).astype(np.uint8)) for _ in range(n_keys)],
            "val": rng.integers(-100, 100, n_keys).astype(np.int64),
        }
    )
    return left, right, buckets


class TestAttachColumnsProperties:
    @settings(**_SETTINGS)
    @given(join_case())
    def test_equals_pandas_inner_merge(self, case):
        left, right, buckets = case
        want = left.merge(right, on="k", how="inner").rename(
            columns={"blob": "g", "val": "v"}
        )
        got = attach_columns(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on="k",
            cols={"blob": "g", "val": "v"},
            num_buckets=buckets,
        ).to_pandas()
        if len(want) == 0:
            # Ray 2.49 drops the schema of all-empty block sets on
            # to_pandas (the documented empty-block wart grouped_apply_
            # bounded works around) — row-count equality is the invariant
            assert len(got) == 0
            return
        key = ["k", "payload", "g", "v"]
        want_s = want[key].sort_values(key).reset_index(drop=True)
        got_s = got[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s.astype(want_s.dtypes.to_dict()), want_s)

    def test_duplicate_right_key_raises(self):
        """A duplicated right key must fail loudly: attaching whichever of
        its rows arrived first would depend on block order."""
        left = pd.DataFrame({"k": np.arange(10, dtype=np.int64)})
        right = pd.DataFrame({"k": np.array([0, 1, 2, 2, 3], np.int64), "val": np.arange(5, dtype=np.int64)})
        with pytest.raises(ValueError, match="1 duplicate right keys"):
            attach_columns(
                ray.data.from_pandas(left), ray.data.from_pandas(right), on="k", cols={"val": "v"}, num_buckets=1
            ).materialize()


@st.composite
def bucket_join_case(draw):
    """Left/right tables with nullable int32/int64/string keys drawn from a
    small range (negatives included), so keys repeat on both sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["int64", "int32_vs_int64", "string"]))
    how = draw(st.sampled_from(["inner", "left"]))
    right_on = draw(st.sampled_from(["k", "k2"]))
    n_keys = draw(st.integers(1, 10))

    def keys(n, typ):
        vals = rng.integers(-n_keys, n_keys, n)
        null = rng.random(n) < 0.15
        vals = [f"s{v}" if typ == pa.string() else int(v) for v in vals]
        return pa.array([None if z else v for v, z in zip(vals, null)], typ)

    n_left, n_right = draw(st.integers(0, 60)), draw(st.integers(0, 40))
    l_type = {"int64": pa.int64(), "int32_vs_int64": pa.int32(), "string": pa.string()}[kind]
    r_type = pa.string() if kind == "string" else pa.int64()
    left = pa.table({"k": keys(n_left, l_type), "lv": pa.array(np.arange(n_left, dtype=np.int64))})
    right = pa.table(
        {
            right_on: keys(n_right, r_type),
            "rl": pa.array([[i, -i] for i in range(n_right)], pa.list_(pa.int64())),
            "rb": pa.array([bytes(rng.integers(0, 255, i % 5).astype(np.uint8)) for i in range(n_right)], pa.binary()),
        }
    )
    return left, right, how, right_on, draw(st.integers(1, 7))


def _canon_rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    def v(x):
        if x is None or (isinstance(x, float) and np.isnan(x)):
            return None
        if isinstance(x, (list, np.ndarray)):
            return tuple(int(y) for y in x)
        if isinstance(x, (int, float, np.integer, np.floating)):
            return int(x)
        return x

    return sorted((tuple(v(x) for x in row) for row in df[cols].itertuples(index=False)), key=repr)


class TestHashBucketJoinProperties:
    @settings(**_SETTINGS)
    @given(bucket_join_case())
    def test_equals_pandas_merge(self, case):
        """hash_bucket_join == pandas.merge with SQL null semantics (a null
        key never matches; a left join keeps null-key left rows)."""
        left, right, how, right_on, buckets = case
        lp, rp = left.to_pandas(), right.to_pandas()
        # merge on plain Python key objects: a nullable int32 key would
        # otherwise turn float64 in pandas
        lp["__k"] = pd.Series(left.column("k").to_pylist(), dtype=object)
        rp["__k"] = pd.Series(right.column(right_on).to_pylist(), dtype=object)
        want = lp.merge(rp[rp["__k"].notna()].drop(columns="k" if right_on == "k" else []), on="__k", how=how)
        got_ds = hash_bucket_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            on="k",
            right_on=right_on,
            num_buckets=buckets,
            how=how,
        )
        # Arrow blocks straight to pandas: Ray's to_pandas casts a list
        # column holding nulls (left-join misses) to its tensor type and
        # fails; empty blocks can come without a schema, so skip them
        blocks = [t for t in ray.get(got_ds.to_arrow_refs()) if t.num_rows]
        if len(want) == 0:
            assert not blocks
            return
        got = pa.concat_tables(blocks).to_pandas()
        cols = ["k", "lv"] + (["k2"] if right_on == "k2" else []) + ["rl", "rb"]
        assert list(got.columns) == cols
        assert _canon_rows(got, cols) == _canon_rows(want, cols)


class TestHashPartitionedApplyProperties:
    @settings(**_SETTINGS)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 9))
    def test_whole_key_groups(self, seed, parts):
        """Every key's rows land in exactly ONE partition call — the
        invariant every partial-aggregation kernel in the repo assumes."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        df = pd.DataFrame({"k": rng.integers(0, 40, n).astype(np.int64)})

        def label(part: pd.DataFrame) -> pd.DataFrame:
            # one distinct label per partition CALL: min key is unique per
            # call because whole key groups co-locate
            out = part.groupby("k", as_index=False).size()
            out["call_min"] = np.int64(part["k"].min())
            return out

        got = hash_partitioned_apply(
            ray.data.from_pandas(df), "k", label, num_parts=parts
        ).to_pandas()
        # each key appears exactly once across all partition outputs,
        # with its full count
        want = df.groupby("k", as_index=False).size()
        g = got.sort_values("k").reset_index(drop=True)[["k", "size"]]
        w = want.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(g.astype(w.dtypes.to_dict()), w)


class TestScanPrimitivesProperties:
    @settings(**_SETTINGS)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_zip_with_index_dense_in_sort_order(self, seed, blocks):
        from osm_search_ray.stages.joins import zip_with_index

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        df = pd.DataFrame({"v": rng.integers(-50, 50, n).astype(np.int64)})
        ds = ray.data.from_pandas(df).repartition(blocks).sort("v")
        out = zip_with_index(ds, "row_id").to_pandas()
        assert len(out) == n
        # dense 0..n-1, and row_id order == sort order
        assert sorted(out["row_id"]) == list(range(n))
        o = out.sort_values("row_id")
        assert (np.diff(o["v"].to_numpy()) >= 0).all()

    @settings(**_SETTINGS)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_prefix_max_exclusive_matches_cummax(self, seed, blocks):
        from osm_search_ray.stages.joins import PREFIX_SENTINEL, prefix_max_exclusive, zip_with_index

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        df = pd.DataFrame(
            {
                "t": np.sort(rng.integers(0, 1000, n)).astype(np.int64),
                "v": rng.integers(-100, 100, n).astype(np.int64),
            }
        )
        ds = ray.data.from_pandas(df).repartition(blocks).sort("t")
        out = prefix_max_exclusive(zip_with_index(ds, "rid"), "v").to_pandas()
        o = out.sort_values("rid").reset_index(drop=True)
        v = o["v"].to_numpy()
        want = np.empty(n, np.int64)
        want[0] = PREFIX_SENTINEL
        if n > 1:
            np.maximum.accumulate(v[:-1], out=want[1:])
        assert (o["prev_max"].to_numpy(np.int64) == want).all()
