"""Relational operator coverage: sources S1-S3 (Parquet scan + filter),
projections/filters (M1-M4 analogues), joins (J1/J4 analogues), aggregations
(A1-A8 analogues), sorts/top-k (K1) — exercised over the TPC-H-ish tables.

Each pipeline follows the scale discipline: prune columns at the read,
vectorized Arrow kernels in map_batches, partial aggregation before any
groupby shuffle, broadcast joins for small sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ..sources.readers import read_pq
import ray.data
from ray.data.aggregate import Count, Max, Mean, Sum


def agg_pricing(sf_dir: str):
    """TPC-H-Q1-shaped grouped aggregate with per-batch partial combine.

    groupby (l_returnflag, l_linestatus): sum qty, sum price, sum discounted
    revenue, row count — the A1/A3/A4-style accumulation pattern."""
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # integerize PER ROW (all inputs have exactly 2 decimals), sum in
        # int64: zero float accumulation, so the engine and the SQL oracle
        # are exactly equal at any scale (float sums diverge in the last
        # ulps and scaled rounding can straddle .5 boundaries)
        df = batch.to_pandas()
        qty_c = np.rint(df["l_quantity"].to_numpy() * 100).astype(np.int64)
        price_c = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_pct = np.rint(df["l_discount"].to_numpy() * 100).astype(np.int64)
        df["sum_qty"] = qty_c
        df["sum_price"] = price_c
        df["revenue"] = price_c * (100 - disc_pct)  # price_cents × pct → ×10000
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(sum_qty=("sum_qty", "sum"), sum_price=("sum_price", "sum"), revenue=("revenue", "sum"), n_rows=("l_quantity", "size"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price", alias_name="sum_price"),
        Sum("revenue", alias_name="revenue"),
        Sum("n_rows", alias_name="n_rows"),
    )


SQL_AGG_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue,
       COUNT(*) AS n_rows
FROM lineitem GROUP BY 1, 2
"""


def agg_pricing_rollup(sf_dir: str):
    """ROLLUP (grouping sets) over the pricing aggregate: (flag, status),
    (flag), () levels with 'ALL' as the rolled-up key sentinel.

    Scale shape: the corpus is aggregated ONCE at the finest granularity
    (agg_pricing — per-batch integer partials + one bounded shuffle); the
    coarser levels re-aggregate that |distinct-keys|-sized result, so a
    rollup costs exactly one corpus pass regardless of level count."""
    finest = agg_pricing(sf_dir).to_pandas()  # ≤ |flag × status| rows
    vals = ["sum_qty", "sum_price", "revenue", "n_rows"]
    lvl1 = finest.groupby("l_returnflag", as_index=False)[vals].sum()
    lvl1["l_linestatus"] = "ALL"
    lvl0 = pd.DataFrame([finest[vals].sum()])
    lvl0["l_returnflag"] = "ALL"
    lvl0["l_linestatus"] = "ALL"
    cols = ["l_returnflag", "l_linestatus"] + vals
    out = pd.concat([finest[cols], lvl1[cols], lvl0[cols]], ignore_index=True)
    out[vals] = out[vals].astype(np.int64)
    return out.sort_values(["l_returnflag", "l_linestatus"], kind="mergesort").reset_index(drop=True)


def agg_pricing_cube(sf_dir: str):
    """CUBE (all grouping sets) over the pricing aggregate: (flag, status),
    (flag), (status), () with 'ALL' as the grouped-away key sentinel — the
    rollup's missing (status-only) set. Same scale shape: ONE corpus pass at
    finest granularity, every coarser level re-aggregates the
    |distinct-keys|-sized result (sums/counts are distributive)."""
    finest = agg_pricing(sf_dir).to_pandas()  # ≤ |flag × status| rows
    vals = ["sum_qty", "sum_price", "revenue", "n_rows"]
    lvl_rf = finest.groupby("l_returnflag", as_index=False)[vals].sum()
    lvl_rf["l_linestatus"] = "ALL"
    lvl_ls = finest.groupby("l_linestatus", as_index=False)[vals].sum()
    lvl_ls["l_returnflag"] = "ALL"
    lvl0 = pd.DataFrame([finest[vals].sum()])
    lvl0["l_returnflag"] = "ALL"
    lvl0["l_linestatus"] = "ALL"
    cols = ["l_returnflag", "l_linestatus"] + vals
    out = pd.concat([finest[cols], lvl_rf[cols], lvl_ls[cols], lvl0[cols]], ignore_index=True)
    out[vals] = out[vals].astype(np.int64)
    return out.sort_values(["l_returnflag", "l_linestatus"], kind="mergesort").reset_index(drop=True)


SQL_AGG_PRICING_CUBE = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue,
       COUNT(*) AS n_rows
FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
"""


SQL_AGG_PRICING_ROLLUP = """
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(l_linestatus, 'ALL') AS l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue,
       COUNT(*) AS n_rows
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def join_customer_orders(sf_dir: str):
    """Broadcast hash join (small dim side shipped once via ray.put) +
    grouped rollup: per (nation, market segment) order count and total price.

    The J4-style 'lookup join': customer⋈nation is tiny → broadcast dict;
    the big orders table streams through map_batches un-shuffled, partials
    pre-aggregated before the final small groupby."""
    import pyarrow.parquet as pq

    # dimension tables are tiny: direct driver read (a Dataset pipeline per
    # dim costs ~1-2s of scheduling for a 150-row file)
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_mktsegment"]).to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[["c_custkey", "n_name", "c_mktsegment"]]
    dim_ref = ray.put(dim.set_index("c_custkey"))

    def join_rollup(batch: pa.Table) -> pa.Table:
        # stateless task: the broadcast dim table is a zero-copy object-store
        # ray.get per batch (an actor pool's spawn cost dominates this short
        # stage; tasks scale elastically — see stages/spatial_join.py note)
        dim = ray.get(dim_ref)
        df = batch.to_pandas()
        j = df.join(dim, on="o_custkey", how="inner")
        # exact integer cents per row → int64 sums (no float accumulation)
        j["total_price"] = np.rint(j["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = (
            j.groupby(["n_name", "c_mktsegment"], sort=False)
            .agg(n_orders=("o_orderkey", "size"), total_price=("total_price", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    orders = read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    partials = orders.map_batches(join_rollup, batch_format="pyarrow")
    return partials.groupby(["n_name", "c_mktsegment"]).aggregate(
        Sum("n_orders", alias_name="n_orders"), Sum("total_price", alias_name="total_price")
    )


SQL_JOIN_CUSTOMER_ORDERS = """
SELECT n.n_name, c.c_mktsegment,
       COUNT(*) AS n_orders, CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_price
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1, 2
"""


def customer_left_join_orders(sf_dir: str):
    """LEFT OUTER join coverage: every customer with their order count and
    total spend, ZERO-filled for customers who never ordered (the rows an
    inner join silently drops — ~1/3 of TPC-H customers).

    Scale shape — aggregate and join SHARE one partitioning: both sides
    are tagged and unioned, ONE custkey hash exchange co-locates a
    customer with all their orders, and the per-partition kernel does
    groupby-sum + left-merge + zero-fill in-process
    (stages/joins.hash_partitioned_apply). A separate
    groupby.aggregate followed by a bucket join moves the same rows
    through TWO exchanges (measured ~3× slower here; at cluster scale it
    doubles network volume). Per-custkey partials would not help: key
    cardinality ≈ batch size for orders-per-customer, so combiners only
    inflate the exchange. Output (c_custkey, c_mktsegment, n_orders,
    total_cents)."""
    from ..stages.joins import hash_partitioned_apply

    orders = read_pq(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = read_pq(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])

    def prep_orders(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        n = len(cents)
        return pa.table(
            {
                "key": batch.column("o_custkey"),
                "c_mktsegment": pa.array([""] * n, pa.string()),
                "cents": pa.array(cents),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def prep_cust(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("c_custkey"),
                "c_mktsegment": batch.column("c_mktsegment"),
                "cents": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    both = orders.map_batches(prep_orders, batch_format="pyarrow").union(
        cust.map_batches(prep_cust, batch_format="pyarrow")
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["side"] == 1].groupby("key", sort=False)["cents"].agg(["size", "sum"])
        m = df[df["side"] == 0].join(o, on="key")  # left join: no-order customers keep NaN
        return pd.DataFrame(
            {
                "c_custkey": m["key"].to_numpy(np.int64),
                "c_mktsegment": m["c_mktsegment"],
                "n_orders": m["size"].fillna(0).infer_objects(copy=False).to_numpy(np.int64),
                "total_cents": m["sum"].fillna(0).infer_objects(copy=False).to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(both, "key", fuse, num_parts=8)


SQL_CUSTOMER_LEFT_JOIN_ORDERS = """
SELECT c.c_custkey, c.c_mktsegment,
       CAST(COUNT(o.o_custkey) AS BIGINT) AS n_orders,
       CAST(COALESCE(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)), 0) AS BIGINT) AS total_cents
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY 1, 2
"""


def topk_orders_per_segment(sf_dir: str, k: int = 5):
    """Per-group top-k (K1 rank-and-slice analogue): the 3 highest-value
    orders per market segment, deterministic ties by o_orderkey.

    Combiner discipline: each batch keeps ≤ k rows per segment before the
    groupby shuffle, so the exchange is O(segments × blocks × k)."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]).to_pandas()
    dim_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def partial_topk(batch: pa.Table) -> pa.Table:
        seg = ray.get(dim_ref)
        df = batch.to_pandas()
        df["c_mktsegment"] = df["o_custkey"].map(seg)
        df = df.dropna(subset=["c_mktsegment"])
        df = df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort")
        g = df.groupby("c_mktsegment", sort=False).head(k)
        return pa.Table.from_pandas(g[["c_mktsegment", "o_orderkey", "o_totalprice"]], preserve_index=False)

    orders = read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    partials = orders.map_batches(partial_topk, batch_format="pyarrow")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return partials.groupby("c_mktsegment").map_groups(final, batch_format="pandas")


SQL_TOPK_ORDERS_PER_SEGMENT = """
WITH ranked AS (
    SELECT c.c_mktsegment, o.o_orderkey, o.o_totalprice,
           ROW_NUMBER() OVER (PARTITION BY c.c_mktsegment
                              ORDER BY o.o_totalprice DESC, o.o_orderkey) AS rank
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
)
SELECT c_mktsegment, o_orderkey, o_totalprice, rank FROM ranked WHERE rank <= 5
"""


def filter_project_lineitem(sf_dir: str):
    """Vectorized filter + projection + computed column, zero-copy Arrow
    (M1/M2/M3-style predicate + projection). Filter pushed to the read."""
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch.column("l_returnflag"), "R"), pc.greater(batch.column("l_quantity"), 30.0))
        t = batch.filter(m)
        disc_price = pc.multiply(t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_linenumber": t.column("l_linenumber"),
                "disc_price": disc_price,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_FILTER_PROJECT_LINEITEM = """
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1.0 - l_discount) AS disc_price
FROM lineitem WHERE l_returnflag = 'R' AND l_quantity > 30.0
"""


def join_lineitem_orders_bucketed(sf_dir: str):
    """Both-sides-large equi-join through the generic hash-bucket partitioned
    join (stages/joins.hash_bucket_join — the portable pattern for when no
    side fits a broadcast), then a grouped rollup:
    per o_orderpriority, line count + total quantity (scaled int)."""
    import ray.data

    from ..stages.joins import hash_bucket_join

    import os

    li = read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])
    orders = read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"])
    # size the exchange to the data: every partition is one Ray group
    # with a fixed per-group cost, which dwarfs small inputs. Target
    # ~256 MB in-memory per partition (parquet ~4× expansion), floor 4,
    # cap 1024 (the write-partition limit, plenty at 100 TB where the cap
    # gives ~100 GB partitions — raise per-partition memory, not groups).
    est = (os.path.getsize(f"{sf_dir}/lineitem.parquet") + os.path.getsize(f"{sf_dir}/orders.parquet")) * 4
    nb = int(min(1024, max(4, est // (256 << 20) + 1)))
    joined = hash_bucket_join(li, orders, on="l_orderkey", right_on="o_orderkey", num_buckets=nb)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["sum_qty"] = np.rint(df["l_quantity"].to_numpy() * 100).astype(np.int64)
        g = df.groupby("o_orderpriority", sort=False).agg(
            n_lines=("sum_qty", "size"), sum_qty=("sum_qty", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_lines", alias_name="n_lines"), Sum("sum_qty", alias_name="sum_qty"))
    )


SQL_JOIN_LINEITEM_ORDERS_BUCKETED = """
SELECT o.o_orderpriority, COUNT(*) AS n_lines,
       CAST(SUM(CAST(ROUND(l.l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY 1
"""


def doc_lookup(sf_dir: str):
    """S5/J4 analogue — point lookups as a batch semi-join: a broadcast id
    set filters the doc store stream (no shuffle)."""
    import ray.data

    wanted = [1, 7, 42, 99, 365]
    wanted_arr = pa.array(wanted, pa.int64())

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=wanted_arr)), batch_format="pyarrow"
    )


SQL_DOC_LOOKUP = """
SELECT doc_id, lang, n_chars FROM documents WHERE doc_id IN (1, 7, 42, 99, 365)
"""


def corr_price_qty(sf_dir: str):
    """(l_returnflag, n_rows, corr_x1e9) — per-group Pearson correlation of
    extended price vs quantity via EXACT sufficient statistics: one corpus
    pass emits per-(batch, group) int64 partials (n, Σx, Σy, Σxy, Σx²,
    Σy²) over cent/unit-scaled integers, a |groups×blocks|-sized groupby
    sums them, and the closed form evaluates once per group.

    Float discipline: partials are exact int64 (batch Σx² ≤ 4·10¹⁷),
    group totals are summed exactly (Python int on the engine side,
    HUGEINT in the SQL oracle), and the final formula converts the exact
    integer moments to float64 in the SAME expression order on both
    sides — corr_x1e9 is a bit-identical scaled BIGINT."""
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column("l_returnflag").to_pandas(),
                "x": np.rint(batch.column("l_extendedprice").to_numpy() * 100).astype(np.int64),
                "y": np.rint(batch.column("l_quantity").to_numpy()).astype(np.int64),
            }
        )
        df["xy"] = df["x"] * df["y"]
        df["xx"] = df["x"] * df["x"]
        df["yy"] = df["y"] * df["y"]
        df["n"] = np.int64(1)
        g = df.groupby("g", sort=False)[["n", "x", "y", "xy", "xx", "yy"]].sum().reset_index()
        return pa.Table.from_pandas(g.rename(columns={"g": "l_returnflag"}), preserve_index=False)

    parts = (
        ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    )  # |groups × blocks| rows of int64 moments — O(blocks), never corpus-sized

    rows = []
    for flag, g in parts.groupby("l_returnflag", sort=True):
        # exact arbitrary-precision totals (per-block partials are int64-safe;
        # the grand totals may exceed int64 — Python ints never overflow)
        n, sx, sy, sxy, sxx, syy = (int(g[c].astype(object).sum()) for c in ("n", "x", "y", "xy", "xx", "yy"))
        num = float(n * sxy - sx * sy)
        den = np.sqrt(float(n * sxx - sx * sx)) * np.sqrt(float(n * syy - sy * sy))
        rows.append(
            {
                "l_returnflag": flag,
                "n_rows": np.int64(n),
                "corr_x1e9": np.int64(np.rint(num / den * 1e9)),
            }
        )
    return pd.DataFrame(rows, columns=["l_returnflag", "n_rows", "corr_x1e9"])


SQL_CORR_PRICE_QTY = """
WITH m AS (
    SELECT l_returnflag,
           COUNT(*) AS n,
           SUM(CAST(CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS HUGEINT)) AS sx,
           SUM(CAST(CAST(ROUND(l_quantity) AS BIGINT) AS HUGEINT)) AS sy,
           SUM(CAST(CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS HUGEINT)
               * CAST(ROUND(l_quantity) AS BIGINT)) AS sxy,
           SUM(CAST(CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS HUGEINT)
               * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS sxx,
           SUM(CAST(CAST(ROUND(l_quantity) AS BIGINT) AS HUGEINT)
               * CAST(ROUND(l_quantity) AS BIGINT)) AS syy
    FROM lineitem GROUP BY 1
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n_rows,
       CAST(ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
            / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
            * 1000000000) AS BIGINT) AS corr_x1e9
FROM m
"""


def price_quantiles_tdigest(sf_dir: str, delta: int = 200):
    """(l_returnflag, n_rows, p50_milli, p90_milli, p99_milli) — APPROXIMATE
    per-group quantiles of l_extendedprice via mergeable t-digests
    (stages/sketches.py): one corpus pass emits per-(batch, group) centroid
    partials (≤ delta rows each), a tiny |groups|-ary groupby merges and
    reads the quantiles out. CONSTANT sketch size on unbounded/continuous
    domains — the complement of events.py's exact bounded-domain
    histograms, which stay exact but grow with |distinct values|.

    Rows-only driver check (the estimate is batch-split-dependent);
    accuracy (rank error ≤ ~1/delta after merging) and merge-invariance
    are pinned in tests/test_functions.py."""
    from ..stages.sketches import tdigest_from_values, tdigest_merge, tdigest_quantiles

    ds = read_pq(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch.column("l_returnflag").to_pandas(),
                "v": batch.column("l_extendedprice").to_numpy(),
            }
        )
        gs, ms, ws = [], [], []
        for g, sub in df.groupby("g", sort=False):
            m, w = tdigest_from_values(sub["v"].to_numpy(), delta=delta)
            gs.append(np.full(len(m), g, dtype=object))
            ms.append(m)
            ws.append(w)
        return pa.table(
            {
                "l_returnflag": pa.array(np.concatenate(gs), pa.string()),
                "mean": pa.array(np.concatenate(ms), pa.float64()),
                "weight": pa.array(np.concatenate(ws), pa.float64()),
            }
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        m, w = tdigest_merge([(g["mean"].to_numpy(), g["weight"].to_numpy())], delta=delta)
        q = tdigest_quantiles(m, w, [0.5, 0.9, 0.99])
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "n_rows": np.int64(round(w.sum())),
                "p50_milli": np.int64(round(q[0] * 1000)),
                "p90_milli": np.int64(round(q[1] * 1000)),
                "p99_milli": np.int64(round(q[2] * 1000)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .map_groups(finish, batch_format="pandas")
    )


def revenue_by_nation(sf_dir: str):
    """Three-way join rollup (TPC-H Q5 shape): orders ⋈ customer ⋈ nation →
    revenue per nation. Scale shape: the order fact stream is pre-aggregated
    per custkey inside each batch, joined to customers in ONE custkey hash
    exchange (tagged union, like customer_left_join_orders), re-aggregated
    per NATION inside the same partition kernel, and only |nations|×parts
    rows reach the final exchange; the 25-row nation dim rides along as a
    captured constant (a broadcast in cluster terms).

    Output (n_name, n_orders, revenue_cents)."""
    from ..stages.joins import hash_partitioned_apply
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(), nation.column("n_name").to_pylist()))

    orders = read_pq(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = read_pq(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def prep_orders(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["cents"] = np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = df.groupby("o_custkey", sort=False)["cents"].agg(["size", "sum"]).reset_index()
        return pa.table(
            {
                "key": pa.array(g["o_custkey"].to_numpy(np.int64)),
                "nationkey": pa.array(np.full(len(g), -1, np.int64)),
                "n": pa.array(g["size"].to_numpy(np.int64)),
                "cents": pa.array(g["sum"].to_numpy(np.int64)),
            }
        )

    def prep_cust(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("c_custkey"),
                "nationkey": batch.column("c_nationkey").cast(pa.int64()),
                "n": pa.array(np.zeros(n, np.int64)),
                "cents": pa.array(np.zeros(n, np.int64)),
            }
        )

    both = orders.map_batches(prep_orders, batch_format="pyarrow").union(
        cust.map_batches(prep_cust, batch_format="pyarrow")
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["nationkey"] < 0].groupby("key", sort=False)[["n", "cents"]].sum()
        c = df[df["nationkey"] >= 0][["key", "nationkey"]]
        m = c.join(o, on="key", how="inner", lsuffix="_c")
        g = m.groupby("nationkey", sort=False)[["n", "cents"]].sum().reset_index()
        return pd.DataFrame(
            {
                "nationkey": g["nationkey"].to_numpy(np.int64),
                "n_orders": g["n"].to_numpy(np.int64),
                "revenue_cents": g["cents"].to_numpy(np.int64),
            }
        )

    per_part = hash_partitioned_apply(both, "key", fuse, num_parts=8)

    # final rollup input is PROVABLY |nations| × num_parts rows (≤ 200) —
    # a second sort-shuffle would pay this host's ~5 s fixed exchange cost
    # to move a few hundred ints, so combine driver-side (the documented
    # bounded-result pattern, BENCH/BASELINE.md 'Known single-node costs')
    parts = [
        b for b in per_part.iter_batches(batch_size=None, batch_format="pandas")
    ]
    df = (
        pd.concat(parts, ignore_index=True)
        if parts
        else pd.DataFrame({c: pd.Series(dtype=np.int64) for c in ["nationkey", "n_orders", "revenue_cents"]})
    )
    g = df.groupby("nationkey", sort=False)[["n_orders", "revenue_cents"]].sum().reset_index()
    return pd.DataFrame(
        {
            "n_name": g["nationkey"].map(names),
            "n_orders": g["n_orders"].to_numpy(np.int64),
            "revenue_cents": g["revenue_cents"].to_numpy(np.int64),
        }
    )


SQL_REVENUE_BY_NATION = """
SELECT n.n_name,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


def global_rank_chars(sf_dir: str):
    """Global total-order enumeration: every document's corpus-wide rank by
    (n_chars DESC, doc_id) — one range-exchange sort, then
    stages/joins.zip_with_index numbers the rows from per-block counts
    (O(blocks) driver ints, zero data re-movement after the sort).
    Output (doc_id, n_chars, rank)."""
    from ..stages.joins import zip_with_index

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    srt = ds.sort(["n_chars", "doc_id"], descending=[True, False])

    def to_rank(t: pa.Table) -> pa.Table:
        rank = pc.add(t.column("row_id"), 1)
        return t.drop_columns(["row_id"]).append_column("rank", rank)

    return zip_with_index(srt, "row_id").map_batches(to_rank, batch_format="pyarrow")


SQL_GLOBAL_RANK_CHARS = """
SELECT doc_id, n_chars,
       ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) AS rank
FROM documents
"""


def ntile_chars(sf_dir: str, k: int = 4):
    """Global NTILE(k): quartile bucket of every document by
    (n_chars DESC, doc_id) — sort + stages/joins.zip_with_index, then the
    exact SQL NTILE rule (the first N mod k buckets take one extra row)
    evaluated per row by searchsorted against the k bucket boundaries.
    Output (doc_id, n_chars, tile)."""
    from ..stages.joins import zip_with_index

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    n = ds.count()  # parquet metadata, no read
    srt = ds.sort(["n_chars", "doc_id"], descending=[True, False])
    # bucket b (1-based) spans n//k + (1 if b <= n%k) rows — cumulative
    # boundaries of the k buckets (exact SQL NTILE semantics)
    sizes = np.full(k, n // k, np.int64)
    sizes[: n % k] += 1
    bounds = np.cumsum(sizes)  # 0-based rank < bounds[b-1]  →  tile b

    def add_tile(t: pa.Table) -> pa.Table:
        rank = t.column("row_id").to_numpy(zero_copy_only=False)
        tile = np.searchsorted(bounds, rank, side="right") + 1
        return t.drop_columns(["row_id"]).append_column("tile", pa.array(tile.astype(np.int64)))

    return zip_with_index(srt, "row_id").map_batches(add_tile, batch_format="pyarrow")


SQL_NTILE_CHARS = """
SELECT doc_id, n_chars,
       CAST(NTILE(4) OVER (ORDER BY n_chars DESC, doc_id) AS BIGINT) AS tile
FROM documents
"""


def dense_rank_chars(sf_dir: str):
    """Global DENSE_RANK by length: every document's rank over the DISTINCT
    n_chars values (descending) — ties share a rank and ranks have no gaps,
    the window variant ROW_NUMBER/NTILE don't cover. No sort shuffle at
    all: the distinct value DOMAIN is bounded (the events_median
    histogram argument), so per-batch unique-value combiners reduce to a
    domain-sized driver array, and one broadcast searchsorted pass ranks
    every row in place. Output (doc_id, n_chars, dense_rank)."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def uniq(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"v": pa.array(np.unique(batch.column("n_chars").to_numpy()).astype(np.int64))}
        )

    vals = np.unique(
        ds.map_batches(uniq, batch_format="pyarrow").to_pandas()["v"].to_numpy(np.int64)
    )  # ascending distinct values; domain-sized (≤ max doc length)
    ref = ray.put(vals)

    def rank(batch: pa.Table) -> pa.Table:
        v = ray.get(ref)
        x = batch.column("n_chars").to_numpy()
        # descending dense rank: largest value → 1
        dr = len(v) - np.searchsorted(v, x, side="left")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": batch.column("n_chars"),
                "dense_rank": pa.array(dr.astype(np.int64)),
            }
        )

    return ds.map_batches(rank, batch_format="pyarrow")


SQL_DENSE_RANK_CHARS = """
SELECT doc_id, n_chars,
       DENSE_RANK() OVER (ORDER BY n_chars DESC) AS dense_rank
FROM documents
"""


BAND_EPS = 2  # |n_chars_a − n_chars_b| <= 2 defines a band partner


def band_join_chars(sf_dir: str, eps: int = BAND_EPS):
    """Band (theta) self-join, aggregated: for every document, how many
    OTHER documents have n_chars within ±eps — the 1-D analogue of the
    spatial ring join (nn_join), and the join class equality keys can't
    express. The scale plan is NOT an all-pairs exchange: the join value
    domain is bounded (the events_median/dense_rank argument), so a
    domain-sized histogram from per-batch bincount combiners is broadcast
    once and each row's partner count is a vectorized window sum minus
    itself. Output (doc_id, n_partners) including zero-partner docs."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def hist_partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(batch.column("n_chars").to_numpy(), return_counts=True)
        return pa.table({"v": pa.array(v.astype(np.int64)), "c": pa.array(c.astype(np.int64))})

    h = ds.map_batches(hist_partial, batch_format="pyarrow").to_pandas()
    h = h.groupby("v")["c"].sum()  # domain-sized (≤ max doc length)
    vals = h.index.to_numpy(np.int64)
    counts = h.to_numpy(np.int64)
    csum = np.concatenate([[0], np.cumsum(counts)])
    ref = ray.put((vals, csum))

    def partners(batch: pa.Table) -> pa.Table:
        v, cs = ray.get(ref)
        x = batch.column("n_chars").to_numpy()
        lo = np.searchsorted(v, x - eps, side="left")
        hi = np.searchsorted(v, x + eps, side="right")
        n = cs[hi] - cs[lo] - 1  # window total minus the row itself
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_partners": pa.array(n.astype(np.int64)),
            }
        )

    return ds.map_batches(partners, batch_format="pyarrow")


SQL_BAND_JOIN_CHARS = f"""
SELECT a.doc_id, CAST(COUNT(b.doc_id) AS BIGINT) AS n_partners
FROM documents a
LEFT JOIN documents b
  ON b.doc_id <> a.doc_id AND abs(a.n_chars - b.n_chars) <= {BAND_EPS}
GROUP BY 1
"""


def promo_revenue_share(sf_dir: str):
    """TPC-H-Q14-shaped broadcast-join conditional aggregate: per ship
    month, the PROMO-part share of discounted revenue. The part dimension
    reduces to ONE boolean per partkey broadcast via ray.put (dim lookup,
    never a fact shuffle); the fact table streams through a monthly
    combiner. Integer-exact: revenue in cents×pct (agg_pricing's unit),
    promo_share_micro = promo·10⁶ // total. Output
    (ship_month, promo_revenue, total_revenue, promo_share_micro)."""
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    is_promo = np.array(
        [t.startswith("PROMO") for t in part.column("p_type").to_pylist()], bool
    )
    order = np.argsort(pk, kind="stable")
    ref = ray.put((pk[order], is_promo[order]))

    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys, promo = ray.get(ref)
        lp = batch.column("l_partkey").to_numpy().astype(np.int64)
        is_p = promo[np.searchsorted(keys, lp)]
        ship_us = batch.column("l_shipdate").cast(pa.int64()).to_numpy()
        # epoch-derived month id: identical integer arithmetic in SQL via
        # date_trunc-free (year*12 + month) over epoch extraction
        days = ship_us // 86_400_000_000
        dt = pd.to_datetime(days, unit="D")
        month = (dt.year.to_numpy(np.int64) * 12 + dt.month.to_numpy(np.int64) - 1)
        price_c = np.rint(batch.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
        disc_pct = np.rint(batch.column("l_discount").to_numpy() * 100).astype(np.int64)
        rev = price_c * (100 - disc_pct)
        df = pd.DataFrame(
            {
                "ship_month": month,
                "promo_revenue": np.where(is_p, rev, 0),
                "total_revenue": rev,
            }
        )
        g = df.groupby("ship_month", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g.astype(np.int64), preserve_index=False)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ship_month", sort=False)[["promo_revenue", "total_revenue"]].sum()
        g = g.reset_index().astype(np.int64)
        g["promo_share_micro"] = (
            g["promo_revenue"].to_numpy(np.int64) * 1_000_000
            // g["total_revenue"].to_numpy(np.int64)
        )
        return g

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "ship_month", fuse, num_parts=8
    )


SQL_PROMO_REVENUE_SHARE = """
WITH rows_ AS (
    SELECT CAST(EXTRACT(year FROM l_shipdate) * 12 + EXTRACT(month FROM l_shipdate) - 1
                AS BIGINT) AS ship_month,
           CAST(ROUND(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS rev,
           CASE WHEN p.p_type LIKE 'PROMO%' THEN 1 ELSE 0 END AS is_promo
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey)
SELECT ship_month,
       CAST(SUM(is_promo * rev) AS BIGINT) AS promo_revenue,
       CAST(SUM(rev) AS BIGINT) AS total_revenue,
       CAST(SUM(is_promo * rev) * 1000000 // SUM(rev) AS BIGINT) AS promo_share_micro
FROM rows_ GROUP BY 1
"""


# --------------------------------------------------- grouped OLS price trend


def price_trend(sf_dir: str):
    """Per-brand ORDINARY-LEAST-SQUARES line of extended price (cents) on
    quantity — the grouped-regression analytics pass (trend per product
    family), built like corr_price_qty from EXACT integer sufficient
    statistics: one lineitem pass emits per-(batch, brand) int64 partials
    (n, Σx, Σy, Σxy, Σx²) with the part→brand dim broadcast once via
    ray.put (the promo_revenue_share small-side discipline), the brand-
    bounded partial table reduces on the driver with Python-int exactness,
    and slope/intercept evaluate in the SAME float expression order as the
    SQL oracle — scaled BIGINT outputs.

    Output (p_brand, n_rows, slope_x1e6, intercept_x1e6):
      slope     = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)       [cents per unit qty]
      intercept = (ΣyΣx² − ΣxΣxy) / (nΣx² − (Σx)²)     [cents]"""
    part = read_pq(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    pdf = part.to_pandas()  # |part| dim rows — the broadcast small side
    brand_of = ray.put(dict(zip(pdf["p_partkey"].astype(np.int64), pdf["p_brand"])))

    ds = read_pq(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity", "l_extendedprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(brand_of)
        pk = batch.column("l_partkey").to_numpy()
        df = pd.DataFrame(
            {
                "g": pd.Series(pk).map(lookup),
                "x": np.rint(batch.column("l_quantity").to_numpy()).astype(np.int64),
                "y": np.rint(batch.column("l_extendedprice").to_numpy() * 100).astype(np.int64),
            }
        )
        df["xy"] = df["x"] * df["y"]
        df["xx"] = df["x"] * df["x"]
        df["n"] = np.int64(1)
        g = df.groupby("g", sort=False)[["n", "x", "y", "xy", "xx"]].sum().reset_index()
        return pa.Table.from_pandas(g.rename(columns={"g": "p_brand"}), preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()  # |brands×blocks|

    rows = []
    for brand, g in parts.groupby("p_brand", sort=True):
        n, sx, sy, sxy, sxx = (
            int(g[c].astype(object).sum()) for c in ("n", "x", "y", "xy", "xx")
        )
        den = float(n * sxx - sx * sx)
        rows.append(
            {
                "p_brand": brand,
                "n_rows": np.int64(n),
                "slope_x1e6": np.int64(np.rint(float(n * sxy - sx * sy) / den * 1e6)),
                "intercept_x1e6": np.int64(np.rint(float(sy * sxx - sx * sxy) / den * 1e6)),
            }
        )
    return pd.DataFrame(rows, columns=["p_brand", "n_rows", "slope_x1e6", "intercept_x1e6"])


SQL_PRICE_TREND = """
WITH m AS (
    SELECT p.p_brand,
           CAST(COUNT(*) AS HUGEINT) AS n,
           CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS HUGEINT) AS sx,
           CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS HUGEINT) AS sy,
           CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)
                    * CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS HUGEINT) AS sxy,
           CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)
                    * CAST(ROUND(l_quantity) AS BIGINT)) AS HUGEINT) AS sxx
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    GROUP BY 1)
SELECT p_brand, CAST(n AS BIGINT) AS n_rows,
       CAST(ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                  / CAST(n * sxx - sx * sx AS DOUBLE) * 1000000) AS BIGINT) AS slope_x1e6,
       CAST(ROUND(CAST(sy * sxx - sx * sxy AS DOUBLE)
                  / CAST(n * sxx - sx * sx AS DOUBLE) * 1000000) AS BIGINT) AS intercept_x1e6
FROM m
"""


# ------------------------------------------------------- Bloom-filtered semi-join


BLOOM_SEMI_BITS_PER_KEY = 24  # stages/sketches defaults: FPR ~1e-5
BLOOM_VERIFY_BROADCAST_LIMIT = 50_000_000  # sorted int64 keys <= ~400 MB broadcast


def bloom_semi_join(sf_dir: str):
    """Bloom-PUSHDOWN semi-join — the distributed-engine trick of shipping a
    Bloom filter of the build side's keys to every probe task so non-matching
    rows die AT THE SCAN and never reach the join exchange: lineitem rows are
    kept only when l_orderkey belongs to a high-value order (o_totalprice ≥
    200000). The Bloom pass admits ~1e-5 false positives, so survivors take
    one EXACT verify — the result is exactly the plain semi-join (the SQL
    oracle), the bloom only cuts bytes: at scale the filter is |filtered
    orders|·24 bits broadcast once, while the verify touches only the
    pre-filtered survivors instead of the corpus.

    Exact-verify regimes: under BLOOM_VERIFY_BROADCAST_LIMIT keys the SORTED
    key array rides the same broadcast as the bloom and membership is a
    per-batch searchsorted — zero exchanges end to end (per-batch partial
    aggregates fuse in one flag-bounded reduce); past it the survivors take
    one bucketed key-keyed semi-join exchange (both-sides-large regime).

    Output: per (l_returnflag) survivor row count + revenue cents."""
    from ..functions.hashing import splitmix64
    from ..stages.joins import hash_partitioned_apply
    from ..stages.sketches import BLOOM_K, bloom_build, bloom_contains

    orders = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def okeys(batch: pa.Table) -> pa.Table:
        keep = batch.column("o_totalprice").to_numpy() >= 200000.0
        return pa.table({"key": pa.array(batch.column("o_orderkey").to_numpy()[keep])})

    keys_ds = orders.map_batches(okeys, batch_format="pyarrow").materialize()
    keys = np.concatenate(
        [b.column("key").to_numpy() for b in keys_ds.iter_batches(batch_format="pyarrow")]
        or [np.empty(0, np.int64)]
    ).astype(np.int64)
    m_bits = max(64, int(keys.size) * BLOOM_SEMI_BITS_PER_KEY)
    bloom = bloom_build(splitmix64(keys.astype(np.uint64)), m_bits)
    keys_sorted = np.sort(keys)
    small = keys.size <= BLOOM_VERIFY_BROADCAST_LIMIT
    bloom_ref = ray.put((bloom, m_bits, keys_sorted if small else None))

    li = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice"],
    )

    from ray.data.aggregate import Sum as _Sum

    if small:

        def probe_exact(batch: pa.Table) -> pa.Table:
            words, mb, ks = ray.get(bloom_ref)
            ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
            hit = bloom_contains(words, splitmix64(ok.astype(np.uint64)), mb)
            # exact membership on the bloom survivors only (the bloom did the
            # bulk kill; searchsorted confirms, removing the ~1e-5 FPs)
            surv = ok[hit]
            pos = np.searchsorted(ks, surv)
            exact = np.zeros(len(ok), bool)
            exact[np.flatnonzero(hit)] = (pos < ks.size) & (ks[np.clip(pos, 0, ks.size - 1)] == surv)
            t = batch.filter(pa.array(exact))
            cents = np.rint(t.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
            df = pd.DataFrame({"flag": t.column("l_returnflag").to_pandas(), "cents": cents})
            g = df.groupby("flag", sort=False)["cents"].agg(["count", "sum"]).reset_index()
            return pa.table(
                {
                    "l_returnflag": pa.array(g["flag"].astype(str)),
                    "n_rows": pa.array(g["count"].to_numpy(np.int64)),
                    "revenue_cents": pa.array(g["sum"].to_numpy(np.int64)),
                }
            )

        partials = li.map_batches(probe_exact, batch_format="pyarrow")
        return partials.groupby("l_returnflag").aggregate(
            _Sum("n_rows", alias_name="n_rows"),
            _Sum("revenue_cents", alias_name="revenue_cents"),
        )

    def probe(batch: pa.Table) -> pa.Table:
        words, mb, _ = ray.get(bloom_ref)
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        hit = bloom_contains(words, splitmix64(ok.astype(np.uint64)), mb)
        t = batch.filter(pa.array(hit))
        return pa.table(
            {
                "key": t.column("l_orderkey").cast(pa.int64()),
                "flag": t.column("l_returnflag"),
                "cents": pa.array(
                    np.rint(t.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
                ),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )

    def tag_keys(batch: pa.Table) -> pa.Table:
        k = batch.column("key").cast(pa.int64())
        return pa.table(
            {
                "key": k,
                "flag": pa.array([""] * len(k), pa.string()),
                "cents": pa.array(np.zeros(len(k), np.int64)),
                "side": pa.array(np.zeros(len(k), np.int8)),
            }
        )

    both = li.map_batches(probe, batch_format="pyarrow").union(
        keys_ds.map_batches(tag_keys, batch_format="pyarrow")
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        real = set(df.loc[df["side"] == 0, "key"].tolist())
        rows = df[(df["side"] == 1) & df["key"].isin(real)]
        g = rows.groupby("flag", sort=False)["cents"].agg(["count", "sum"]).reset_index()
        return pd.DataFrame(
            {
                "l_returnflag": g["flag"],
                "n_rows": g["count"].to_numpy(np.int64),
                "revenue_cents": g["sum"].to_numpy(np.int64),
            }
        )

    partials = hash_partitioned_apply(both, "key", verify)
    return partials.groupby("l_returnflag").aggregate(
        _Sum("n_rows", alias_name="n_rows"),
        _Sum("revenue_cents", alias_name="revenue_cents"),
    )


SQL_BLOOM_SEMI_JOIN = """
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_totalprice >= 200000)
GROUP BY 1
"""


# ---------------------------------------------------- weekly revenue deltas


def revenue_wow(sf_dir: str):
    """Weekly revenue time series with WEEK-OVER-WEEK deltas — the trend
    dashboard aggregate: revenue cents per epoch week (days-since-epoch //
    7, pure integer), delta vs the previous EXISTING week (LAG over present
    weeks; calendar gaps intentionally skip, both engines). One orders pass
    of per-(batch, week) cent partials; the fused series is calendar-bounded
    (weeks, not rows), so the delta pass is a driver-side shift over a
    |weeks|-sized artifact. Output (week, revenue_cents, delta_cents) with
    delta NULL-free: the first week reports 0."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("o_orderdate").cast(pa.int64()).to_numpy()  # timestamp[us]
        week = us // 86_400_000_000 // 7
        cents = np.rint(batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame({"week": week, "cents": cents})
        g = df.groupby("week", sort=False)["cents"].agg(["sum"]).reset_index()
        return pa.table(
            {"week": pa.array(g["week"].to_numpy(np.int64)),
             "cents": pa.array(g["sum"].to_numpy(np.int64))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()  # |weeks×blocks|
    g = parts.groupby("week", sort=True)["cents"].sum().reset_index()
    rev = g["cents"].to_numpy(np.int64)
    delta = np.concatenate([[np.int64(0)], rev[1:] - rev[:-1]])
    return pd.DataFrame(
        {"week": g["week"].to_numpy(np.int64), "revenue_cents": rev, "delta_cents": delta}
    )


SQL_REVENUE_WOW = """
WITH w AS (
    SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS week,
           CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
    FROM orders GROUP BY 1)
SELECT CAST(week AS BIGINT) AS week, revenue_cents,
       CAST(COALESCE(revenue_cents - LAG(revenue_cents) OVER (ORDER BY week), 0) AS BIGINT)
           AS delta_cents
FROM w
"""


def _skyline_2d(key: np.ndarray, pc: np.ndarray, sz: np.ndarray):
    """Exact 2D min-min skyline kernel: sort by (pc asc, sz asc); a point
    survives iff its sz is strictly below every strictly-cheaper point's
    min sz AND equals its own price group's min sz (equal-price points
    with larger sz are dominated within the group; full duplicates all
    survive — neither dominates). Fuzz-tested against O(n²) brute force."""
    order = np.lexsort((sz, pc))
    key, pc, sz = key[order], pc[order], sz[order]
    new_price = np.concatenate([[True], pc[1:] != pc[:-1]])
    grp = np.cumsum(new_price) - 1
    first_idx = np.flatnonzero(new_price)
    cm = np.minimum.accumulate(sz)
    # min sz over all strictly-cheaper points: cummin up to each group start
    prev = np.full(len(first_idx), np.iinfo(np.int64).max, dtype=np.int64)
    if len(first_idx) > 1:
        prev[1:] = cm[first_idx[1:] - 1]
    prev_min = prev[grp]
    # each group's own min sz = sz of its first row (sz asc within group)
    grp_min = sz[first_idx][grp]
    keep = (sz < prev_min) & (sz == grp_min)
    return key[keep], pc[keep], sz[keep]


def part_skyline(sf_dir: str):
    """SKYLINE (Pareto-front) query: parts not dominated on (retail price,
    size), both minimized — the multi-criteria "best offers" operator.
    Dominance: another part with BOTH coords <= and at least one strictly <.

    Shape: the skyline-of-skylines identity (a global skyline point is a
    skyline point of every subset containing it) makes this embarrassingly
    partial: each batch computes its LOCAL skyline with one sort + running
    running-min scan (vectorized), and ONE final pass over the
    O(batches × skyline-size) union — bounded, never corpus-shaped —
    yields the exact global front. Output (p_partkey, price_cents, p_size)."""

    ds = read_pq(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def local(batch: pa.Table) -> pa.Table:
        key = batch.column("p_partkey").to_numpy().astype(np.int64)
        pc = np.rint(batch.column("p_retailprice").to_numpy() * 100).astype(np.int64)
        sz = batch.column("p_size").to_numpy().astype(np.int64)
        k, p, s = _skyline_2d(key, pc, sz)
        return pa.table({"p_partkey": k, "price_cents": p, "p_size": s})

    parts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    # O(batches × local-skyline) rows — bounded; final exact front
    k, p, s = _skyline_2d(
        parts["p_partkey"].to_numpy(np.int64),
        parts["price_cents"].to_numpy(np.int64),
        parts["p_size"].to_numpy(np.int64),
    )
    out = pd.DataFrame({"p_partkey": k, "price_cents": p, "p_size": s})
    return ray.data.from_pandas(out)


SQL_PART_SKYLINE = """
SELECT a.p_partkey,
       CAST(ROUND(a.p_retailprice * 100) AS BIGINT) AS price_cents,
       CAST(a.p_size AS BIGINT) AS p_size
FROM part a
WHERE NOT EXISTS (
    SELECT 1 FROM part b
    WHERE ROUND(b.p_retailprice * 100) <= ROUND(a.p_retailprice * 100)
      AND b.p_size <= a.p_size
      AND (ROUND(b.p_retailprice * 100) < ROUND(a.p_retailprice * 100)
           OR b.p_size < a.p_size))
"""


def benford_digits(sf_dir: str):
    """BENFORD leading-digit audit of l_extendedprice (cents) — the classic
    fabricated-data / corruption screen. Leading digit extracted with PURE
    INTEGER arithmetic (searchsorted against the 10^k ladder, then one
    floor divide — no float log10, whose boundary ulps flip digits at
    powers of ten). Output (digit, n) for digits 1-9.

    Shape: per-batch 9-bin bincount partials, digit-keyed driver fuse over
    O(9 × blocks) rows — the minimal-footprint audit scan."""
    ds = read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    powers = np.array([10**k for k in range(1, 19)], dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("l_extendedprice").to_numpy() * 100).astype(np.int64)
        cents = cents[cents > 0]
        nd = np.searchsorted(powers, cents, side="right") + 1  # digit count
        lead = cents // np.concatenate([[1], powers])[nd - 1]
        c = np.bincount(lead, minlength=10)[1:10]
        return pa.table({"digit": np.arange(1, 10, dtype=np.int64), "n": c.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("digit", as_index=False)["n"].sum()
    out = out[out["n"] > 0].astype(np.int64).reset_index(drop=True)
    return ray.data.from_pandas(out)


SQL_BENFORD_DIGITS = """
WITH c AS (
    SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents FROM lineitem),
d AS (
    SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
    FROM c WHERE cents > 0)
SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY 1
"""


# ------------------------------------------------------- unpivot / melt


def unpivot_revenue(sf_dir: str):
    """UNPIVOT (melt, wide → long) — events_pivot's inverse, the missing
    half of the reshape pair: the per-returnflag revenue cube is built
    WIDE (one exact-integer revenue column per linestatus, conditional
    aggregation inside the per-batch partial) and then melted back to one
    (flag, status, revenue) row per cell. The melt is a flat map over the
    flag-bounded wide table — reshaping never adds a shuffle.
    Output (l_returnflag, linestatus, revenue_x10000); revenue follows
    revenue_by_nation's exact-integer contract (price_cents × pct)."""
    from ray.data.aggregate import Sum

    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        price_c = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_pct = np.rint(df["l_discount"].to_numpy() * 100).astype(np.int64)
        rev = price_c * (100 - disc_pct)
        out = pd.DataFrame({"l_returnflag": df["l_returnflag"]})
        for st in ("F", "O"):
            out[f"rev_{st}"] = np.where(df["l_linestatus"].to_numpy() == st, rev, 0)
        g = out.groupby("l_returnflag", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    wide = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("rev_F", alias_name="rev_F"), Sum("rev_O", alias_name="rev_O"))
    )

    def melt(batch: pa.Table) -> pa.Table:
        flags = batch.column("l_returnflag")
        outs = []
        for st in ("F", "O"):
            outs.append(
                pa.table(
                    {
                        "l_returnflag": flags,
                        "linestatus": pa.array([st] * len(batch), pa.string()),
                        "revenue_x10000": batch.column(f"rev_{st}").cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    return wide.map_batches(melt, batch_format="pyarrow")


SQL_UNPIVOT_REVENUE = """
WITH wide AS (
    SELECT l_returnflag,
           SUM(CASE WHEN l_linestatus = 'F'
                    THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                    ELSE 0 END) AS rev_f,
           SUM(CASE WHEN l_linestatus = 'O'
                    THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                    ELSE 0 END) AS rev_o
    FROM lineitem GROUP BY 1)
SELECT l_returnflag, 'F' AS linestatus, CAST(rev_f AS BIGINT) AS revenue_x10000 FROM wide
UNION ALL
SELECT l_returnflag, 'O' AS linestatus, CAST(rev_o AS BIGINT) AS revenue_x10000 FROM wide
"""


# -------------------------------------------------- PERCENT_RANK (ties)


def percent_rank_orders(sf_dir: str):
    """PERCENT_RANK with RANK-tie semantics over order totals — the
    normalized-rank window the ROW_NUMBER family (global_rank_chars /
    ntile_chars / dense_rank_chars) doesn't cover: tied totals share a
    rank, pr = (rank−1)/(n−1) emitted as the exact integer
    ``pr_micro = 10⁶·(rank−1) // (n−1)``.

    Shape: global sort + zip_with_index gives ROW_NUMBER−1; RANK−1 is the
    MINIMUM row id among a value's ties — ONE cents-keyed exchange
    computes it, one typed-Arrow attach joins it back (attach_columns).
    n comes from Parquet metadata, not a count pass.
    Output (o_orderkey, cents, pr_micro)."""
    import pyarrow.parquet as _pq

    from ..stages.joins import attach_columns, hash_partitioned_apply, zip_with_index

    n = _pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    ds = read_pq(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch.column("o_totalprice").to_numpy() * 100).astype(np.int64)
        return pa.table({"o_orderkey": batch.column("o_orderkey"), "cents": pa.array(cents)})

    # deterministic global order: (cents, o_orderkey) so row ids are stable
    idx = zip_with_index(
        ds.map_batches(to_cents, batch_format="pyarrow").sort(["cents", "o_orderkey"]),
        "row_id",
    )

    def min_row(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cents", sort=False)["row_id"].min().reset_index(name="minrow")
        return g.astype({"minrow": np.int64})

    minrows = hash_partitioned_apply(
        idx.drop_columns(["o_orderkey"]), "cents", min_row
    )
    j = attach_columns(idx, minrows, on="cents", cols={"minrow": "minrow"})

    def finish(batch: pa.Table) -> pa.Table:
        mr = batch.column("minrow").to_numpy(zero_copy_only=False).astype(np.int64)
        pr = 1_000_000 * mr // max(n - 1, 1)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "cents": batch.column("cents"),
                "pr_micro": pa.array(pr),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


SQL_PERCENT_RANK_ORDERS = """
WITH c AS (
    SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
    FROM orders)
SELECT o_orderkey, cents,
       CAST(1000000 * (RANK() OVER (ORDER BY cents) - 1)
            // GREATEST(COUNT(*) OVER () - 1, 1) AS BIGINT) AS pr_micro
FROM c
"""


# ------------------------------------------------ exact weighted median


def weighted_median_price(sf_dir: str):
    """EXACT WEIGHTED MEDIAN per group — the quantity-weighted median unit
    price per returnflag (the robust price-level statistic unweighted
    medians and t-digests don't give you; most engines only offer the
    unweighted percentile). Integer-exact: median = the smallest cents
    value v with 2·cumweight(v) ≥ totalweight (weights = quantity cents),
    so both engines pick the identical row with no interpolation float.

    Shape (the rect_quantiles histogram discipline, plus weights): per-batch
    (flag, cents) → weight-sum partials — the exchange carries DISTINCT
    value rows, value-bounded, never raw rows — ONE flag-keyed exchange,
    per-flag sorted cumsum scan. Output (l_returnflag, median_cents,
    total_weight)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        w = np.rint(df["l_quantity"].to_numpy() * 100).astype(np.int64)
        g = (
            pd.DataFrame({"l_returnflag": df["l_returnflag"], "cents": cents, "w": w})
            .groupby(["l_returnflag", "cents"], sort=False)["w"]
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g.astype({"w": np.int64}), preserve_index=False)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            g = g.groupby("cents", sort=True)["w"].sum()
            cum = g.cumsum().to_numpy(np.int64)
            total = int(cum[-1])
            med = int(g.index.to_numpy(np.int64)[np.searchsorted(2 * cum, total)])
            out.append((flag, med, total))
        return pd.DataFrame(out, columns=["l_returnflag", "median_cents", "total_weight"]).astype(
            {"median_cents": np.int64, "total_weight": np.int64}
        )

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "l_returnflag", fuse
    )


SQL_WEIGHTED_MEDIAN_PRICE = """
WITH vals AS (
    SELECT l_returnflag,
           CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents,
           SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS w
    FROM lineitem GROUP BY 1, 2),
cum AS (
    SELECT l_returnflag, cents, w,
           SUM(w) OVER (PARTITION BY l_returnflag ORDER BY cents) AS cw,
           SUM(w) OVER (PARTITION BY l_returnflag) AS tw
    FROM vals)
SELECT l_returnflag,
       CAST(MIN(CASE WHEN 2 * cw >= tw THEN cents END) AS BIGINT) AS median_cents,
       CAST(MAX(tw) AS BIGINT) AS total_weight
FROM cum GROUP BY 1
"""
