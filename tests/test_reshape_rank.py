"""Round-5 operators: props_extract_stats (semi-structured extraction),
unpivot_revenue (melt), percent_rank_orders (RANK-tie window) — each
replayed brute-force against the same parquet inputs."""

import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


class TestPropsExtractStats:
    def test_matches_json_replay(self):
        from osm_search_ray.pipelines.events import props_extract_stats

        got = (
            props_extract_stats(SF)
            .to_pandas()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        df = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "props"]).to_pandas()
        df["k"] = [int(json.loads(p)["k"]) for p in df["props"]]
        want = (
            df.groupby("event_type")
            .agg(n_events=("k", "size"), sum_k=("k", "sum"), n_distinct_k=("k", "nunique"))
            .reset_index()
            .sort_values("event_type")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)

    def test_malformed_props_row_raises(self, tmp_path):
        """A props value without an integer "k" must fail loudly (the SQL
        twin's CAST errors) instead of vanishing in the groupby."""
        from osm_search_ray.pipelines.events import props_extract_stats

        t = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "props"])
        props = t.column("props").to_pylist()
        props[7] = '{"k": "seven"}'
        i = t.schema.get_field_index("props")
        pq.write_table(t.set_column(i, "props", pa.array(props, pa.string())), tmp_path / "events.parquet")
        # the ValueError reaches the driver wrapped in Ray's task error
        with pytest.raises(Exception, match=r"ValueError: props_extract_stats: 1 props value"):
            props_extract_stats(str(tmp_path)).to_pandas()


class TestUnpivotRevenue:
    def test_matches_long_replay(self):
        from osm_search_ray.pipelines.relational import unpivot_revenue

        got = (
            unpivot_revenue(SF)
            .to_pandas()
            .sort_values(["l_returnflag", "linestatus"])
            .reset_index(drop=True)
        )
        df = pq.read_table(
            f"{SF}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
        ).to_pandas()
        price_c = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc = np.rint(df["l_discount"].to_numpy() * 100).astype(np.int64)
        df["rev"] = price_c * (100 - disc)
        long = (
            df.groupby(["l_returnflag", "l_linestatus"])["rev"].sum().reset_index()
        ).rename(columns={"l_linestatus": "linestatus", "rev": "revenue_x10000"})
        # the wide form carries a zero cell for absent (flag, status) combos
        flags = sorted(df["l_returnflag"].unique())
        full = pd.MultiIndex.from_product([flags, ["F", "O"]], names=["l_returnflag", "linestatus"])
        want = (
            long.set_index(["l_returnflag", "linestatus"])
            .reindex(full, fill_value=0)
            .reset_index()
            .sort_values(["l_returnflag", "linestatus"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)

    def test_melt_is_pivot_inverse(self):
        """Every wide cell appears exactly once in the long form."""
        from osm_search_ray.pipelines.relational import unpivot_revenue

        got = unpivot_revenue(SF).to_pandas()
        assert not got.duplicated(["l_returnflag", "linestatus"]).any()
        assert set(got["linestatus"]) == {"F", "O"}


class TestPercentRankOrders:
    def test_matches_pandas_rank(self):
        from osm_search_ray.pipelines.relational import percent_rank_orders

        got = (
            percent_rank_orders(SF)
            .to_pandas()
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        df = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderkey", "o_totalprice"]).to_pandas()
        cents = np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        rank = pd.Series(cents).rank(method="min").astype(np.int64)  # RANK() ties
        n = len(df)
        want = pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(np.int64),
                "cents": cents,
                "pr_micro": 1_000_000 * (rank.to_numpy() - 1) // max(n - 1, 1),
            }
        ).sort_values("o_orderkey").reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)

    def test_bounds_and_ties(self):
        from osm_search_ray.pipelines.relational import percent_rank_orders

        got = percent_rank_orders(SF).to_pandas()
        assert got["pr_micro"].min() == 0
        assert got["pr_micro"].max() <= 1_000_000
        # tied cents share pr
        g = got.groupby("cents")["pr_micro"].nunique()
        assert (g == 1).all()


class TestRollingDistinctUsers:
    def test_matches_brute_force(self):
        from osm_search_ray.pipelines.events import ROLLING_DAYS, rolling_distinct_users

        got = (
            rolling_distinct_users(SF)
            .to_pandas()
            .sort_values("day_bucket")
            .reset_index(drop=True)
        )
        df = pq.read_table(f"{SF}/events.parquet", columns=["ts", "user_id"]).to_pandas()
        day = (df["ts"].astype("int64") // 86_400_000_000).to_numpy()
        du = pd.DataFrame({"day": day, "u": df["user_id"]}).drop_duplicates()
        lo, hi = int(du["day"].min()), int(du["day"].max())
        rows = []
        for w in range(lo + ROLLING_DAYS - 1, hi + 1):
            n = du[(du["day"] >= w - ROLLING_DAYS + 1) & (du["day"] <= w)]["u"].nunique()
            rows.append((w, n))
        want = pd.DataFrame(rows, columns=["day_bucket", "n_distinct_users"]).astype(np.int64)
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)

    def test_file_without_statistics(self, tmp_path):
        """A file written without row-group statistics gives the same
        series (the day span falls back to a scan of ts)."""
        from osm_search_ray.pipelines.events import rolling_distinct_users

        t = pq.read_table(f"{SF}/events.parquet", columns=["ts", "user_id"])
        pq.write_table(t, tmp_path / "events.parquet", write_statistics=False, row_group_size=300)
        meta = pq.read_metadata(tmp_path / "events.parquet")
        assert meta.num_row_groups > 1 and meta.row_group(0).column(0).statistics is None
        got = rolling_distinct_users(str(tmp_path)).to_pandas().sort_values("day_bucket").reset_index(drop=True)
        want = rolling_distinct_users(SF).to_pandas().sort_values("day_bucket").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_exactly_once_per_user_window(self):
        """The min-day-in-window fan-out rule never double-counts: every
        count is <= the total distinct user population."""
        from osm_search_ray.pipelines.events import rolling_distinct_users

        got = rolling_distinct_users(SF).to_pandas()
        total_users = pq.read_table(f"{SF}/events.parquet", columns=["user_id"])["user_id"].to_pandas().nunique()
        assert (got["n_distinct_users"] <= total_users).all()
        assert (got["n_distinct_users"] > 0).all()


class TestWeightedMedianPrice:
    def test_matches_brute_force(self):
        from osm_search_ray.pipelines.relational import weighted_median_price

        got = (
            weighted_median_price(SF)
            .to_pandas()
            .sort_values("l_returnflag")
            .reset_index(drop=True)
        )
        df = pq.read_table(
            f"{SF}/lineitem.parquet",
            columns=["l_returnflag", "l_extendedprice", "l_quantity"],
        ).to_pandas()
        df["cents"] = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        df["w"] = np.rint(df["l_quantity"].to_numpy() * 100).astype(np.int64)
        rows = []
        for flag, g in df.groupby("l_returnflag"):
            g = g.sort_values("cents")
            cum = g["w"].cumsum().to_numpy(np.int64)
            total = int(cum[-1])
            med = int(g["cents"].to_numpy()[np.searchsorted(2 * cum, total)])
            rows.append((flag, med, total))
        want = (
            pd.DataFrame(rows, columns=["l_returnflag", "median_cents", "total_weight"])
            .sort_values("l_returnflag")
            .reset_index(drop=True)
            .astype({"median_cents": np.int64, "total_weight": np.int64})
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)

    def test_weighting_matters(self):
        """The weighted median must differ from treating every row equally
        whenever weights are non-uniform (sanity that weights are applied)."""
        from osm_search_ray.pipelines.relational import weighted_median_price

        got = weighted_median_price(SF).to_pandas()
        df = pq.read_table(
            f"{SF}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
        ).to_pandas()
        for _, row in got.iterrows():
            cents = np.rint(
                df[df["l_returnflag"] == row["l_returnflag"]]["l_extendedprice"].to_numpy() * 100
            ).astype(np.int64)
            # the weighted median stays within the group's value range
            assert cents.min() <= row["median_cents"] <= cents.max()


class TestTableChecksum:
    def test_order_and_partition_invariant(self, tmp_path):
        """The digest must be identical for any row order / partitioning of
        the same rows, and change when any row changes."""
        import pyarrow as pa

        from osm_search_ray.pipelines.profile import table_checksum

        t = pq.read_table(f"{SF}/documents.parquet")
        base = table_checksum(SF).to_pandas()

        # shuffled copy, multiple row groups
        idx = np.random.default_rng(3).permutation(t.num_rows)
        shuf = t.take(idx)
        d2 = tmp_path / "shuf"
        d2.mkdir()
        pq.write_table(shuf, str(d2 / "documents.parquet"), row_group_size=100)
        got2 = table_checksum(str(d2)).to_pandas()
        pd.testing.assert_frame_equal(base, got2)

        # one-character change flips the digest
        texts = t.column("text").to_pylist()
        texts[0] = texts[0] + "x"
        t3 = t.set_column(t.schema.get_field_index("text"), "text", pa.array(texts, pa.string()))
        d3 = tmp_path / "mut"
        d3.mkdir()
        pq.write_table(t3, str(d3 / "documents.parquet"))
        got3 = table_checksum(str(d3)).to_pandas()
        assert got3["checksum"].iloc[0] != base["checksum"].iloc[0]
        assert got3["n_rows"].iloc[0] == base["n_rows"].iloc[0]
