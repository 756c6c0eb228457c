"""Streaming-shaped pipelines over the ``events`` log (SURVEY.md §2.9:
the reference is strictly batch; its only incremental state is the geofence
last-point store — windowing here follows the Ray-Data streaming-shaped
pattern: partition by key, sort by ts inside the group, window with pandas).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.readers import read_pq
from ray.data.aggregate import Sum


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: event count + value sum.

    Window key = floor(epoch_us / 3600e6) computed vectorized; partial
    per-batch aggregation before the groupby shuffle."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()  # microseconds since epoch
        hour = ts // 3_600_000_000
        df = pd.DataFrame(
            {"event_type": batch.column("event_type").to_pandas(), "hour_bucket": hour, "value": batch.column("value").to_numpy()}
        )
        df["value_c"] = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        g = df.groupby(["event_type", "hour_bucket"], sort=False).agg(
            n_events=("value_c", "size"), sum_value=("value_c", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["event_type", "hour_bucket"]).aggregate(
        Sum("n_events", alias_name="n_events"), Sum("sum_value", alias_name="sum_value")
    )


SQL_EVENTS_HOURLY = """
SELECT event_type,
       CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_bucket,
       COUNT(*) AS n_events, CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value
FROM events GROUP BY 1, 2
"""


def events_sliding(sf_dir: str, window_hours: int = 3):
    """SLIDING window per event_type: for each (type, hour) bucket, the
    event count over that hour and the ``window_hours - 1`` preceding
    OCCUPIED hour rows (ROWS-frame semantics, not gap-filled — exactly
    DuckDB's ROWS BETWEEN n PRECEDING AND CURRENT ROW).

    Shape: tumbling hourly partials (the events_hourly combiner — the only
    pass over the raw log) → per-type ordered moving sum over the TINY
    aggregated table (#types groups, each |hours| rows).

    Output (event_type, hour_bucket, n_sliding)."""
    hourly = events_hourly(sf_dir)

    def moving(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hour_bucket", kind="mergesort").copy()
        g["n_sliding"] = (
            g["n_events"].rolling(window=window_hours, min_periods=1).sum().astype(np.int64)
        )
        return g[["event_type", "hour_bucket", "n_sliding"]]

    return hourly.groupby("event_type").map_groups(moving, batch_format="pandas")


SQL_EVENTS_SLIDING = """
WITH hourly AS (
    SELECT event_type,
           CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_bucket,
           COUNT(*) AS n_events
    FROM events GROUP BY 1, 2
)
SELECT event_type, hour_bucket,
       CAST(SUM(n_events) OVER (PARTITION BY event_type ORDER BY hour_bucket
                                ROWS BETWEEN {prev} PRECEDING AND CURRENT ROW) AS BIGINT) AS n_sliding
FROM hourly
"""


def sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user: events within ``gap_minutes`` of the
    previous event share a session. groupby(user) + sorted window inside the
    group — the ordering assumption is per-user ts order, established by the
    in-group sort (not globally)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts", kind="mergesort").copy()
        gap = g["ts"].diff().dt.total_seconds().fillna(np.inf)
        g["session_idx"] = ((gap > gap_minutes * 60).cumsum() - 1).astype(np.int64)
        out = (
            g.groupby("session_idx", sort=True)
            .agg(user_id=("user_id", "first"), n_events=("event_id", "size"), first_event=("event_id", "min"))
            .reset_index()
        )
        return out[["user_id", "session_idx", "n_events", "first_event"]]

    from ..stages.joins import grouped_apply_bounded

    return grouped_apply_bounded(ds, "user_id", per_user)


SQL_SESSIONIZE = """
WITH ordered AS (
    SELECT user_id, event_id, ts,
           CASE WHEN epoch(ts) - epoch(LAG(ts) OVER w) > {gap} OR LAG(ts) OVER w IS NULL
                THEN 1 ELSE 0 END AS new_session
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
    SELECT user_id, event_id,
           SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
    FROM ordered
)
SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
       COUNT(*) AS n_events, MIN(event_id) AS first_event
FROM sess GROUP BY 1, 2
"""


def purchase_attribution(sf_dir: str):
    """As-of join (ray_guide.md 'Joins and lookups'): for every purchase
    event, the most recent PRIOR click by the same user. Partition by user,
    sort by ts inside the group, pandas merge_asof per group.

    Output (purchase_event_id, click_event_id nullable, gap_seconds_x100)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        purchases = g[g["event_type"] == "purchase"].sort_values(["ts", "event_id"], kind="mergesort")
        clicks = g[g["event_type"] == "click"].sort_values(["ts", "event_id"], kind="mergesort")
        if len(purchases) == 0:
            return pd.DataFrame(
                {"purchase_event_id": pd.Series(dtype=np.int64), "click_event_id": pd.Series(dtype=np.int64), "gap_seconds_x100": pd.Series(dtype=np.int64)}
            )
        m = pd.merge_asof(
            purchases[["event_id", "ts"]],
            clicks[["event_id", "ts"]].rename(columns={"event_id": "click_event_id", "ts": "click_ts"}),
            left_on="ts",
            right_on="click_ts",
            direction="backward",
            allow_exact_matches=False,  # strictly prior
        )
        # EXACT integer microsecond arithmetic (float seconds * 100 lands
        # on .5 boundaries when micros % 10000 == 5000, where np.rint
        # half-to-even and SQL ROUND half-away disagree)
        gap_int = (m["ts"].values.astype("datetime64[us]").astype(np.int64)
                   - m["click_ts"].values.astype("datetime64[us]").astype(np.int64))
        has = m["click_ts"].notna().to_numpy()
        return pd.DataFrame(
            {
                "purchase_event_id": m["event_id"].astype(np.int64),
                "click_event_id": m["click_event_id"].fillna(-1).astype(np.int64),
                "gap_seconds_x100": np.where(has, np.where(has, gap_int, 0) // 10000, -1).astype(np.int64),
            }
        )

    from ..stages.joins import grouped_apply_bounded

    return grouped_apply_bounded(ds, "user_id", per_user)


SQL_PURCHASE_ATTRIBUTION = """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'),
matched AS (
    SELECT p.event_id AS purchase_event_id,
           (SELECT c.event_id FROM c
            WHERE c.user_id = p.user_id AND c.ts < p.ts
            ORDER BY c.ts DESC, c.event_id DESC LIMIT 1) AS click_event_id,
           (SELECT c.ts FROM c
            WHERE c.user_id = p.user_id AND c.ts < p.ts
            ORDER BY c.ts DESC, c.event_id DESC LIMIT 1) AS click_ts
    FROM p
)
SELECT purchase_event_id,
       COALESCE(click_event_id, -1) AS click_event_id,
       CASE WHEN click_ts IS NULL THEN -1
            ELSE (epoch_us(p_ts) - epoch_us(click_ts)) // 10000 END AS gap_seconds_x100
FROM (SELECT purchase_event_id, click_event_id, click_ts,
             (SELECT ts FROM events e WHERE e.event_id = purchase_event_id) AS p_ts
      FROM matched)
"""


def approx_distinct_users(sf_dir: str, p: int = 12):
    """HLL approximate distinct users per event_type in ONE pass over the
    events table (VERDICT r01 item 6: the old form re-read the table twice
    per event type). Each batch emits per-(batch, event_type) sketch
    partials AND distinct-(event_type, user) pair partials; sketches merge
    driver-side (constant size × #types × #batches), the exact column is a
    distributed dedup + count over the pair partials.

    Output (event_type, approx_users, exact_users) — exact-oracled since
    r04 (sql_approx_distinct_users): the registers are pure integer
    arithmetic over the splitmix64 SQL chain and both sides evaluate the
    estimate with bit-identical single float ops (hll_estimate_int). The
    ±5% bound vs exact stays asserted in tests."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..functions.hashing import splitmix64
    from ..stages.joins import hash_partitioned_apply
    from ..stages.sketches import hll_add_hashes, hll_create, hll_estimate_int, hll_merge

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["event_type", "user_id"]).to_pandas()
        types_l, kinds, sketches, users = [], [], [], []
        for et, sub in df.groupby("event_type", sort=False):
            reg = hll_create(p)
            hll_add_hashes(reg, splitmix64(sub["user_id"].to_numpy().astype(np.uint64)))
            types_l.append(et)
            kinds.append(0)
            sketches.append(reg.tobytes())
            users.append(-1)
        pairs = df.drop_duplicates()
        types_l.extend(pairs["event_type"].tolist())
        kinds.extend([1] * len(pairs))
        sketches.extend([b""] * len(pairs))
        users.extend(pairs["user_id"].astype(np.int64).tolist())
        return pa.table(
            {
                "event_type": pa.array(types_l, pa.string()),
                "kind": pa.array(kinds, pa.int8()),
                "sketch": pa.array(sketches, pa.binary()),
                "user_id": pa.array(users, pa.int64()),
            }
        )

    scanned = ds.map_batches(partial, batch_format="pyarrow").materialize()

    # sketches: #batches × #types rows, constant size each — merge driver-side
    sk = scanned.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), 0)).select(["event_type", "sketch"]),
        batch_format="pyarrow",
    ).to_pandas()
    merged: dict[str, np.ndarray] = {}
    for et, blob in zip(sk["event_type"], sk["sketch"]):
        reg = np.frombuffer(blob, dtype=np.uint8)
        merged[et] = hll_merge(merged[et], reg) if et in merged else reg

    # exact: distributed dedup of (event_type, user) pairs → per-type count
    pairs_ds = scanned.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), 1)).select(["event_type", "user_id"]),
        batch_format="pyarrow",
    )
    uniq = hash_partitioned_apply(
        pairs_ds, ["event_type", "user_id"], lambda d: d.drop_duplicates(), num_parts=32
    )

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.select(["event_type"]).to_pandas().groupby("event_type", sort=False).size().reset_index(name="n")
        return pa.table({"event_type": pa.array(g["event_type"], pa.string()), "n": pa.array(g["n"], pa.int64())})

    exact = (
        uniq.map_batches(count_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    exact_map = dict(zip(exact["event_type"], exact["n"].astype(int)))
    rows = [(et, hll_estimate_int(reg), exact_map.get(et, 0)) for et, reg in sorted(merged.items())]
    return pd.DataFrame(rows, columns=["event_type", "approx_users", "exact_users"])


def _sql_approx_distinct_users(p: int = 12) -> str:
    """Exact oracle for approx_distinct_users (r04): the WHOLE HLL pipeline
    relationally —

      * hash = splitmix64(user_id) via the HUGEINT CTE chain
        (sources/derived.sql_splitmix64_chain; distinct pairs first, since
        register max is duplicate-insensitive);
      * bucket = top p bits (integer division), rest = (h << p) mod 2^64;
      * rank = min(clz(rest), 64-p) + 1 — clz via UBIGINT bit-smear +
        bit_count, matching stages/sketches.hll_add_hashes' shift cascade;
      * register = MAX(rank) per (event_type, bucket); the Σ2^-reg sum is
        the INTEGER Σ2^(53-reg) (HUGEINT — every term exact), absent
        buckets contributing 2^53 each;
      * estimate: alpha·m² and the m·ln(m/zeros) linear-counting table are
        the SAME float64 constants the engine uses
        (stages/sketches._hll_float_consts), embedded as e-notation
        literals (exact round-trip); the remaining ops (one cast, one
        multiply, one divide, one compare, floor(x+0.5)) are single IEEE
        operations — bit-identical in numpy and DuckDB."""
    from ..sources.derived import sql_splitmix64_chain
    from ..stages.sketches import _hll_float_consts

    m = 1 << p
    alpha_m2, ln_tab = _hll_float_consts(m)
    two_pm = 1 << (64 - p)  # 2^52 for p=12
    chain = sql_splitmix64_chain("du", ["event_type"], "user_id", "hx")
    ln_rows = ",".join(f"({z},{v:.17e})" for z, v in enumerate(ln_tab, start=1))
    return f"""
WITH du AS (SELECT DISTINCT event_type, user_id FROM events),
{chain},
parts AS (
  SELECT event_type,
         CAST(x // {two_pm} AS BIGINT) AS bucket,
         CAST((x % {two_pm}) * {m} AS UBIGINT) AS rest
  FROM hx),
sm1 AS (SELECT event_type, bucket, rest | (rest >> 1) AS s FROM parts),
sm2 AS (SELECT event_type, bucket, s | (s >> 2) AS s FROM sm1),
sm3 AS (SELECT event_type, bucket, s | (s >> 4) AS s FROM sm2),
sm4 AS (SELECT event_type, bucket, s | (s >> 8) AS s FROM sm3),
sm5 AS (SELECT event_type, bucket, s | (s >> 16) AS s FROM sm4),
sm6 AS (SELECT event_type, bucket, s | (s >> 32) AS s FROM sm5),
ranks AS (SELECT event_type, bucket,
                 LEAST(64 - bit_count(s), {64 - p}) + 1 AS rank FROM sm6),
regs AS (SELECT event_type, bucket, MAX(rank) AS reg FROM ranks GROUP BY 1, 2),
sums AS (SELECT event_type,
                SUM(1::BIGINT << (53 - reg))
                  + ({m} - COUNT(*))::HUGEINT * (1::HUGEINT << 53) AS s_scaled,
                {m} - COUNT(*) AS zeros
         FROM regs GROUP BY 1),
lntab(z, lnv) AS (VALUES {ln_rows}),
est AS (SELECT event_type, zeros,
               {alpha_m2:.17e} * 9.007199254740992e15 / CAST(s_scaled AS DOUBLE) AS est0
        FROM sums),
approx AS (
  SELECT e.event_type,
         CAST(CASE WHEN e.est0 <= {2.5 * m:.17e} AND e.zeros > 0
                   THEN floor(l.lnv + 0.5) ELSE floor(e.est0 + 0.5) END AS BIGINT) AS approx_users
  FROM est e LEFT JOIN lntab l ON l.z = e.zeros),
exact AS (SELECT event_type, COUNT(DISTINCT user_id) AS exact_users FROM events GROUP BY 1)
SELECT a.event_type, a.approx_users, x.exact_users
FROM approx a JOIN exact x USING (event_type)
"""


sql_approx_distinct_users = functools.cache(_sql_approx_distinct_users)


def events_median(sf_dir: str):
    """(event_type, n_events, median_x10) — EXACT distributed median via
    bounded-domain histogram counting: per-batch (event_type, scaled-value)
    count partials → one groupby-sum whose cardinality is |types| ×
    |distinct scaled values| (domain-bounded, NOT row-bounded — the
    shape that stays exact at 10¹² rows where sort-based medians
    cannot), then the interpolated median falls out of the cumulative
    counts driver-side.

    Float discipline (oracle-float-strategy): values are scaled to int64
    FIRST (×100, rint), the q=0.5 interpolation over ints is exact in
    binary (x.0 / x.5 only), and ×10 re-scales to a BIGINT both engines
    agree on bit-for-bit."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "v": np.rint(batch.column("value").to_numpy() * 100).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "v"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "v": pa.array(g["v"], pa.int64()),
                "n": pa.array(g["n"], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "v"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # O(types × distinct scaled values) — domain-bounded
    )
    rows = []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v")
        v = g["v"].to_numpy()
        c = np.cumsum(g["n"].to_numpy())
        n = int(c[-1])
        pos = (n - 1) * 0.5
        lo, frac = int(pos), pos - int(pos)
        vlo = v[np.searchsorted(c, lo + 1)]  # value at sorted index lo
        vhi = v[np.searchsorted(c, lo + 2)] if frac else vlo
        med = vlo + (vhi - vlo) * frac  # ints, frac ∈ {0, .5} → exact
        rows.append((et, n, int(round(med * 10))))
    return pd.DataFrame(rows, columns=["event_type", "n_events", "median_x10"])


SQL_EVENTS_MEDIAN = """
SELECT event_type, COUNT(*) AS n_events,
       CAST(ROUND(quantile_cont(CAST(ROUND(value * 100) AS BIGINT), 0.5) * 10) AS BIGINT) AS median_x10
FROM events
GROUP BY 1
"""


def events_quantiles(sf_dir: str):
    """(event_type, n_events, p50_x1000, p90_x1000, p99_x1000) — exact
    distributed p50/p90/p99 from the SAME domain-bounded histogram as
    events_median: ONE corpus pass of count partials + one |types ×
    distinct-scaled-values| groupby serves every quantile (adding a
    quantile is free — the shape that stays exact at 10¹² rows).

    Integer-exact interpolation: with values scaled to int64 cents and
    q = p/100, pos = (n−1)·p/100 is kept as (quotient, remainder), so
    qv×1000 = vlo×1000 + (vhi−vlo)×rem×10 is pure int64 arithmetic — no
    float ever enters, and the SQL quantile_cont lands on the same
    integer (its only error is ~ulp, absorbed by the ROUND)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "v": np.rint(batch.column("value").to_numpy() * 100).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "v"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "v": pa.array(g["v"], pa.int64()),
                "n": pa.array(g["n"], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "v"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    rows = []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("v")
        v = g["v"].to_numpy()
        c = np.cumsum(g["n"].to_numpy())
        n = int(c[-1])
        qs = []
        for p in (50, 90, 99):
            posnum = (n - 1) * p  # pos = posnum / 100, exactly
            lo, rem = posnum // 100, posnum % 100
            vlo = int(v[np.searchsorted(c, lo + 1)])
            vhi = int(v[np.searchsorted(c, lo + 2)]) if rem else vlo
            qs.append(vlo * 1000 + (vhi - vlo) * rem * 10)  # ×1000, int64-exact
        rows.append((et, n, *qs))
    return pd.DataFrame(rows, columns=["event_type", "n_events", "p50_x1000", "p90_x1000", "p99_x1000"])


SQL_EVENTS_QUANTILES = """
SELECT event_type, COUNT(*) AS n_events,
       CAST(ROUND(quantile_cont(CAST(ROUND(value * 100) AS BIGINT), 0.50) * 1000) AS BIGINT) AS p50_x1000,
       CAST(ROUND(quantile_cont(CAST(ROUND(value * 100) AS BIGINT), 0.90) * 1000) AS BIGINT) AS p90_x1000,
       CAST(ROUND(quantile_cont(CAST(ROUND(value * 100) AS BIGINT), 0.99) * 1000) AS BIGINT) AS p99_x1000
FROM events
GROUP BY 1
"""


BIG_PURCHASE = 200.0


def users_view_no_purchase(sf_dir: str):
    """(user_id) — users with at least one 'view' and NO big purchase
    (value >= BIG_PURCHASE): the ANTI-join (NOT EXISTS) shape. Per-batch
    combiner dedups to one (user_id, saw_view, saw_purchase) row per user
    per batch, so the only shuffle is a user-keyed groupby-max over
    user-bounded rows — never an events-sized exchange, and no broadcast
    of either side."""
    from ray.data.aggregate import Max

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "et": batch.column("event_type").to_pandas(),
                "value": batch.column("value").to_numpy(),
            }
        )
        g = df.assign(
            saw_view=(df["et"] == "view").astype(np.int64),
            saw_purchase=((df["et"] == "purchase") & (df["value"] >= BIG_PURCHASE)).astype(np.int64),
        ).groupby("user_id", sort=False)[["saw_view", "saw_purchase"]].max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("saw_view", alias_name="saw_view"), Max("saw_purchase", alias_name="saw_purchase"))
    )
    import pyarrow.compute as pc

    return agg.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t.column("saw_view"), 1), pc.equal(t.column("saw_purchase"), 0))
        ).select(["user_id"]),
        batch_format="pyarrow",
    )


SQL_USERS_VIEW_NO_PURCHASE = """
SELECT DISTINCT user_id FROM events e
WHERE event_type = 'view'
  AND NOT EXISTS (SELECT 1 FROM events p
                  WHERE p.user_id = e.user_id AND p.event_type = 'purchase' AND p.value >= 200.0)
"""

VIEW_WINDOW_US = 30 * 60 * 1_000_000  # 30 minutes, integer microseconds


def purchase_view_window(sf_dir: str):
    """RANGE join: for every purchase, the number of 'view' events by the
    same user with ts in [purchase_ts − 30 min, purchase_ts) — the
    interval-predicate join shape (vs purchase_attribution's as-of
    first-match). Partition by user (bounded 64-way — the ONLY exchange),
    then two vectorized searchsorted calls per group resolve every
    purchase's window count; exact integer-µs boundaries.

    Output (purchase_event_id, n_views_30m)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["event_type"] == "purchase"]
        if len(p) == 0:
            return pd.DataFrame(
                {"purchase_event_id": pd.Series(dtype=np.int64), "n_views_30m": pd.Series(dtype=np.int64)}
            )
        vts = np.sort(g.loc[g["event_type"] == "view", "ts"].values.astype("datetime64[us]").astype(np.int64))
        pts = p["ts"].values.astype("datetime64[us]").astype(np.int64)
        lo = np.searchsorted(vts, pts - VIEW_WINDOW_US, side="left")  # ts >= start inclusive
        hi = np.searchsorted(vts, pts, side="left")  # ts < purchase_ts exclusive
        return pd.DataFrame(
            {
                "purchase_event_id": p["event_id"].to_numpy(dtype=np.int64),
                "n_views_30m": (hi - lo).astype(np.int64),
            }
        )

    from ..stages.joins import grouped_apply_bounded

    return grouped_apply_bounded(ds, "user_id", per_user)


SQL_PURCHASE_VIEW_WINDOW = """
WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
v AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'view')
SELECT p.event_id AS purchase_event_id, COUNT(v.event_id) AS n_views_30m
FROM p LEFT JOIN v
  ON v.user_id = p.user_id
 AND v.ts >= p.ts - INTERVAL 30 MINUTE
 AND v.ts < p.ts
GROUP BY 1
"""


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot(sf_dir: str):
    """PIVOT / conditional aggregation: one row per hour with a count
    column per event type (wide layout for dashboards and feature tables).
    The pivot happens INSIDE the per-batch partial (one indicator column
    per type, summed), so the shuffle moves |hours| × |types| integers —
    adding a type widens rows, it never adds a pass or a shuffle.

    Output (hour_bucket, n_click, n_error, n_purchase, n_signup, n_view)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        hour = ts // 3_600_000_000
        et = batch.column("event_type").to_pandas().to_numpy()
        df = pd.DataFrame({"hour_bucket": hour})
        for t in PIVOT_TYPES:
            df[f"n_{t}"] = (et == t).astype(np.int64)
        g = df.groupby("hour_bucket", sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("hour_bucket").aggregate(
        *[Sum(f"n_{t}", alias_name=f"n_{t}") for t in PIVOT_TYPES]
    )


SQL_EVENTS_PIVOT = """
SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_bucket,
       COUNT(*) FILTER (event_type = 'click') AS n_click,
       COUNT(*) FILTER (event_type = 'error') AS n_error,
       COUNT(*) FILTER (event_type = 'purchase') AS n_purchase,
       COUNT(*) FILTER (event_type = 'signup') AS n_signup,
       COUNT(*) FILTER (event_type = 'view') AS n_view
FROM events GROUP BY 1
"""


def events_cumulative(sf_dir: str):
    """WINDOW FUNCTIONS per user: running value sum and LAG time-gap —
    SUM(...) OVER (PARTITION BY user ORDER BY ts, event_id) and
    epoch − LAG(epoch) OVER the same window (−1 for the first event).
    Shape: user-bucketed bounded groups (stages/joins.grouped_apply_bounded,
    the sessionize discipline) — each user's history sorts and scans inside
    one partition; the shuffle moves each event once. Exact: values scale
    to int64 cents BEFORE the cumsum, gaps are integer µs.

    Output (event_id, user_id, cum_value, prev_gap_us)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        v = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        ep = g["ts"].astype("int64").to_numpy()  # µs since epoch
        gap = np.concatenate([[-1], ep[1:] - ep[:-1]])
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "cum_value": np.cumsum(v),
                "prev_gap_us": gap,
            }
        )

    from ..stages.joins import grouped_apply_bounded

    return grouped_apply_bounded(ds, "user_id", per_user)


SQL_EVENTS_CUMULATIVE = """
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS cum_value,
       COALESCE(CAST(epoch_us(ts) - LAG(epoch_us(ts))
            OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT), -1) AS prev_gap_us
FROM events
"""


MOVING_WINDOW_ROWS = 3  # ROWS BETWEEN 3 PRECEDING AND CURRENT ROW


def events_moving_sum(sf_dir: str, preceding: int = MOVING_WINDOW_ROWS):
    """Window FRAME clause per user: SUM over a bounded sliding row frame
    (ROWS BETWEEN ``preceding`` PRECEDING AND CURRENT ROW) — the missing
    member of the window family next to running SUM (unbounded frame) and
    LAG. Same shape: user-bucketed bounded groups, one exchange; inside a
    partition the frame sum is a cumsum difference (cs[i] − cs[i−w], exact
    int64 cents), vectorized across every user at once via the group-reset
    trick — no per-group loop.

    Output (event_id, user_id, moving_sum_cents)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"])
    w = preceding + 1

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["event_id", "user_id", "moving_sum_cents"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        cs = np.cumsum(v)
        uid = df["user_id"].to_numpy()
        # users are contiguous post-sort; run_start[i] = first row of i's user
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_start = np.maximum.accumulate(np.where(new_user, np.arange(len(uid)), -1))
        # frame start index per row: max(run_start, i - w + 1); sum = cs[i] - cs[lo-1]
        lo = np.maximum(run_start, np.arange(len(uid)) - w + 1)
        base = np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": uid,
                "moving_sum_cents": cs - base,
            }
        )

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(ds, "user_id", per_part, num_parts=64)


SQL_EVENTS_MOVING_SUM = f"""
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS BETWEEN {MOVING_WINDOW_ROWS} PRECEDING AND CURRENT ROW) AS BIGINT)
           AS moving_sum_cents
FROM events
"""


# ------------------------------------------------------------ funnel steps

FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_WINDOW_US = 6 * 3_600_000_000  # conversion window per step: 6 hours


def events_funnel(sf_dir: str, steps: tuple = FUNNEL_STEPS, window_us: int = FUNNEL_WINDOW_US):
    """Windowed ordered funnel analysis: per user, the earliest time each
    funnel step completed, where step i+1 must happen STRICTLY AFTER step
    i's first completion and WITHIN the conversion window (classic
    product-analytics sequential pattern — the ordered-sequence operator
    class the window/session/as-of family doesn't cover).  Output
    (user_id, steps_completed, t1_us, t2_us, t3_us) with -1 sentinels for
    unreached steps; timestamps as epoch microseconds so every column is
    integer-exact.

    Shape: ONE user-keyed bounded exchange (only funnel-step rows enter
    it, pre-projected to 3 int64 columns); per partition the sequential
    mins are pandas-vectorized merges — t_{{i+1}} = min ts of step i+1
    rows with t_i < ts <= t_i + window — never a per-user Python loop."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    step_ids = {s: i for i, s in enumerate(steps)}

    def project(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pandas()
        keep = et.isin(steps).to_numpy()
        return pa.table(
            {
                "user_id": batch.column("user_id").filter(pa.array(keep)),
                "ts_us": batch.column("ts").cast(pa.int64()).filter(pa.array(keep)),
                "step": pa.array(et[keep].map(step_ids).to_numpy(np.int64)),
            }
        )

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        users = pd.DataFrame({"user_id": df["user_id"].unique()})
        prev = None
        tcols = []
        for i in range(len(steps)):
            rows = df[df["step"] == i]
            if prev is not None:
                rows = rows.merge(prev, on="user_id")
                rows = rows[
                    (rows["ts_us"] > rows["prev_t"])
                    & (rows["ts_us"] <= rows["prev_t"] + window_us)
                ]
            t = rows.groupby("user_id")["ts_us"].min().rename(f"t{i + 1}_us")
            users = users.merge(t, on="user_id", how="left")
            prev = t.rename("prev_t").reset_index()
            tcols.append(f"t{i + 1}_us")
        users["steps_completed"] = users[tcols].notna().sum(axis=1).astype(np.int64)
        for c in tcols:
            users[c] = users[c].fillna(-1).astype(np.int64)
        users["user_id"] = users["user_id"].astype(np.int64)
        return users[["user_id", "steps_completed", *tcols]]

    return hash_partitioned_apply(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", per_part, num_parts=32
    )


SQL_EVENTS_FUNNEL = f"""
WITH t1 AS (SELECT user_id, MIN(ts) AS t FROM events
            WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY 1),
t2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN t1 ON t1.user_id = e.user_id AND e.ts > t1.t
                AND epoch_us(e.ts) <= epoch_us(t1.t) + {FUNNEL_WINDOW_US}
       WHERE e.event_type = '{FUNNEL_STEPS[1]}' GROUP BY 1),
t3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN t2 ON t2.user_id = e.user_id AND e.ts > t2.t
                AND epoch_us(e.ts) <= epoch_us(t2.t) + {FUNNEL_WINDOW_US}
       WHERE e.event_type = '{FUNNEL_STEPS[2]}' GROUP BY 1),
users AS (SELECT DISTINCT user_id FROM events
          WHERE event_type IN ('{FUNNEL_STEPS[0]}', '{FUNNEL_STEPS[1]}', '{FUNNEL_STEPS[2]}'))
SELECT u.user_id,
       CAST(CASE WHEN t3.t IS NOT NULL THEN 3
                 WHEN t2.t IS NOT NULL THEN 2
                 WHEN t1.t IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS steps_completed,
       COALESCE(epoch_us(t1.t), -1) AS t1_us,
       COALESCE(epoch_us(t2.t), -1) AS t2_us,
       COALESCE(epoch_us(t3.t), -1) AS t3_us
FROM users u
LEFT JOIN t1 ON t1.user_id = u.user_id
LEFT JOIN t2 ON t2.user_id = u.user_id
LEFT JOIN t3 ON t3.user_id = u.user_id
"""


# -------------------------------------------------------- full outer join


def viewers_full_outer_buyers(sf_dir: str):
    """FULL OUTER join — the one outer-join variant the relational set
    lacked: per-user view counts vs purchase counts, keeping users present
    on EITHER side, zero-filled, with a which-side flag.  Output
    (user_id, n_view, n_purchase, side) where side ∈ {{'both','view_only',
    'purchase_only'}}.

    Shape: two per-batch count combiners feed ONE user-keyed exchange
    (domain_stats discipline); the outer merge is per-partition pandas —
    a user's rows co-locate, so the zero-fill is exact."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
            }
        ).to_pandas()
        df = df[df["event_type"].isin(("view", "purchase"))]
        g = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "event_type"], sort=False)["n"].sum().unstack(fill_value=0)
        out = pd.DataFrame({"user_id": g.index.to_numpy(np.int64)})
        out["n_view"] = g["view"].to_numpy(np.int64) if "view" in g else np.int64(0)
        out["n_purchase"] = g["purchase"].to_numpy(np.int64) if "purchase" in g else np.int64(0)
        out["side"] = np.where(
            (out["n_view"] > 0) & (out["n_purchase"] > 0),
            "both",
            np.where(out["n_view"] > 0, "view_only", "purchase_only"),
        )
        return out

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", per_part, num_parts=32
    )


SQL_VIEWERS_FULL_OUTER_BUYERS = """
WITH v AS (SELECT user_id, COUNT(*) AS n_view FROM events
           WHERE event_type = 'view' GROUP BY 1),
p AS (SELECT user_id, COUNT(*) AS n_purchase FROM events
      WHERE event_type = 'purchase' GROUP BY 1)
SELECT COALESCE(v.user_id, p.user_id) AS user_id,
       COALESCE(v.n_view, 0) AS n_view,
       COALESCE(p.n_purchase, 0) AS n_purchase,
       CASE WHEN v.user_id IS NOT NULL AND p.user_id IS NOT NULL THEN 'both'
            WHEN v.user_id IS NOT NULL THEN 'view_only'
            ELSE 'purchase_only' END AS side
FROM v FULL OUTER JOIN p ON v.user_id = p.user_id
"""


# -------------------------------------------------------- retention cohorts

WEEK_US = 7 * 24 * 3_600_000_000


def retention_cohorts(sf_dir: str):
    """Classic cohort retention: users grouped by first-activity week, then
    for each cohort the distinct-user count active in week k after joining.
    Output (cohort_week, week_k, n_users) — all integer (epoch-week ids).

    Shape: ONE user-keyed exchange of per-batch-deduped (user_id, week)
    pairs; first-week and per-(cohort, k) distinct counts are computed
    per partition (a user's rows co-locate, so the local counts are over
    DISJOINT user sets) and summed in one tiny (cohorts x weeks) groupby."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def project(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(),
                "week": batch.column("ts").cast(pa.int64()).to_numpy() // WEEK_US,
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        first = df.groupby("user_id")["week"].min().rename("cohort_week")
        m = df.merge(first, on="user_id")
        m["week_k"] = m["week"] - m["cohort_week"]
        g = (
            m.groupby(["cohort_week", "week_k"], sort=False)["user_id"]
            .nunique()
            .reset_index(name="n_users")
        )
        g["n_users"] = g["n_users"].astype(np.int64)
        return g

    parts = hash_partitioned_apply(
        ds.map_batches(project, batch_format="pyarrow"), "user_id", per_part, num_parts=32
    )
    return parts.groupby(["cohort_week", "week_k"]).aggregate(
        Sum("n_users", alias_name="n_users")
    )


SQL_RETENTION_COHORTS = f"""
WITH f AS (SELECT user_id, MIN(epoch_us(ts) // {WEEK_US}) AS cohort_week
           FROM events GROUP BY 1),
a AS (SELECT DISTINCT e.user_id, f.cohort_week,
             epoch_us(e.ts) // {WEEK_US} - f.cohort_week AS week_k
      FROM events e JOIN f USING (user_id))
SELECT cohort_week, week_k, COUNT(*) AS n_users
FROM a GROUP BY 1, 2
"""


# ------------------------------------------------ item co-visitation pairs

COVISIT_CAP = 20  # deterministic per-user item cap (first-seen ts, then item)
COVISIT_ITEM_RE = r'"k":\s*(?P<item>\d+)'


def covisit_pairs(sf_dir: str, cap: int = COVISIT_CAP):
    """Item co-visitation counts — the bipartite user→item projection a
    recommender / co-occurrence-features stage computes over a clickstream:
    for every user, the set of DISTINCT items viewed (item = the ``k`` prop
    of a ``view`` event, extracted with a vectorized Arrow regex), capped at
    ``cap`` items per user by (first-view time, item) — the hub-user guard
    that keeps the per-user pair expansion O(cap²) no matter how hot a
    session gets; then every unordered item pair co-viewed by a user,
    counted across users. Output (item_a, item_b, n_users), item_a < item_b.

    Scale shape: props parsing and the (user, item, first_ts) partial run
    vectorized per batch; ONE user-keyed exchange dedups + caps + expands
    pairs inside the partition (each user's rows land together); the pair
    counts exchange is bounded by |items|² regardless of corpus size. The
    cap is a SILENT policy bound (part of the operator's definition, shared
    by the SQL oracle via ROW_NUMBER), unlike the loud TRI_MAX_DEGREE-style
    exactness guards."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "props"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("event_type"), "view")
        t = batch.filter(mask)
        ex = pc.extract_regex(t.column("props"), pattern=COVISIT_ITEM_RE)
        item = pc.struct_field(ex, "item").cast(pa.int64())
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id").to_numpy(),
                "item": item.to_numpy(zero_copy_only=False),
                "ts_us": t.column("ts").cast(pa.int64()).to_numpy(),
            }
        )
        g = df.groupby(["user_id", "item"], sort=False)["ts_us"].min().reset_index(name="first_ts")
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_user_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "item"], sort=False)["first_ts"].min().reset_index()
        g = g.sort_values(["user_id", "first_ts", "item"], kind="mergesort")
        rank = g.groupby("user_id", sort=False).cumcount()
        g = g[rank < cap]
        outs = []
        for _, items in g.groupby("user_id", sort=False)["item"]:
            v = np.sort(items.to_numpy(np.int64))
            if len(v) < 2:
                continue
            ia, ib = np.triu_indices(len(v), k=1)
            outs.append(pd.DataFrame({"item_a": v[ia], "item_b": v[ib]}))
        if not outs:
            return pd.DataFrame(
                {
                    "item_a": np.empty(0, np.int64),
                    "item_b": np.empty(0, np.int64),
                    "n_users": np.empty(0, np.int64),
                }
            )
        allp = pd.concat(outs, ignore_index=True)
        c = allp.groupby(["item_a", "item_b"], sort=False).size().reset_index(name="n_users")
        c["n_users"] = c["n_users"].astype(np.int64)
        return c

    parts = hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", per_user_pairs, num_parts=32
    )

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # NOT ds.groupby().aggregate(Sum): Ray 2.49's sort-based Aggregate
        # pays seconds of per-task overhead at a few thousand groups (ds.stats
        # showed 205 s remote wall on this 4950-group fuse); one bounded
        # pair-keyed exchange + a vectorized pandas sum is ~100× cheaper
        g = df.groupby(["item_a", "item_b"], sort=False)["n_users"].sum().reset_index()
        return g.astype({"n_users": np.int64})

    return hash_partitioned_apply(parts, ["item_a", "item_b"], sum_pairs, num_parts=16)


SQL_COVISIT_PAIRS = f"""
WITH v AS (SELECT user_id,
                  CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT) AS item,
                  epoch_us(ts) AS ts_us
           FROM events WHERE event_type = 'view'),
fi AS (SELECT user_id, item, MIN(ts_us) AS first_ts FROM v GROUP BY 1, 2),
capped AS (
    SELECT user_id, item FROM (
        SELECT user_id, item,
               ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY first_ts, item) AS rn
        FROM fi) WHERE rn <= {COVISIT_CAP})
SELECT a.item AS item_a, b.item AS item_b, CAST(COUNT(*) AS BIGINT) AS n_users
FROM capped a JOIN capped b ON a.user_id = b.user_id AND a.item < b.item
GROUP BY 1, 2
"""


# -------------------------------------------- next-event transition matrix

TRANSITION_SCALE = 1_000_000  # p_micro fixed-point scale


def next_transitions(sf_dir: str):
    """First-order Markov transition matrix over the event stream: for each
    user's events ordered by (ts, event_id), count every consecutive
    (from_type → to_type) step, then attach the row-normalized transition
    probability as ``p_micro = n * 10^6 // total-from-from_type`` (exact
    integer floor on both sides). Output (from_type, to_type, n, p_micro).

    Scale shape: ONE user-keyed exchange; inside each partition the sort +
    shift is vectorized (no per-user loop — a user-boundary mask on the
    shifted arrays), emitting |types|²-bounded partial counts; the final
    groupby and the normalization run on the |types|²-sized result."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = df["user_id"].to_numpy()
        t = df["event_type"].to_numpy()
        same = u[:-1] == u[1:]
        out = pd.DataFrame({"from_type": t[:-1][same], "to_type": t[1:][same]})
        g = out.groupby(["from_type", "to_type"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    def add_ts_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    parts = hash_partitioned_apply(
        ds.map_batches(add_ts_us, batch_format="pyarrow"), "user_id", per_part, num_parts=32
    )
    counts = parts.groupby(["from_type", "to_type"]).aggregate(Sum("n", alias_name="n"))

    # |types|²-sized result: the normalization join is a bounded driver step
    df = counts.to_pandas()
    tot = df.groupby("from_type")["n"].transform("sum").to_numpy(np.int64)
    df["p_micro"] = df["n"].to_numpy(np.int64) * TRANSITION_SCALE // tot
    return df.sort_values(["from_type", "to_type"], kind="mergesort").reset_index(drop=True)


SQL_NEXT_TRANSITIONS = f"""
WITH nx AS (
    SELECT event_type AS from_type,
           LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS to_type
    FROM events),
c AS (SELECT from_type, to_type, CAST(COUNT(*) AS BIGINT) AS n
      FROM nx WHERE to_type IS NOT NULL GROUP BY 1, 2)
SELECT from_type, to_type, n,
       CAST(n * {TRANSITION_SCALE} // SUM(n) OVER (PARTITION BY from_type) AS BIGINT)
           AS p_micro
FROM c
"""


def events_gapfill(sf_dir: str):
    """Gap-filled hourly resample per event_type: every hour between the
    type's first and last occupied hour gets a row, missing hours at
    n_events = 0 — the densification step any time-series featurizer needs
    before rolling windows can trust row adjacency.

    Shape: the events_hourly combiner partials (the only pass over the raw
    log) → ONE type-keyed exchange; the dense hour grid is generated INSIDE
    each type's partition (bounded by the corpus time span in hours, never
    by event count). Output (event_type, hour_bucket, n_events)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = batch.column("ts").cast(pa.int64()).to_numpy() // 3_600_000_000
        df = pd.DataFrame(
            {"event_type": batch.column("event_type").to_pandas(), "hour_bucket": hour}
        )
        g = df.groupby(["event_type", "hour_bucket"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g.astype({"n": np.int64}), preserve_index=False)

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for t, g in df.groupby("event_type", sort=False):
            n = g.groupby("hour_bucket", sort=True)["n"].sum()
            grid = np.arange(n.index.min(), n.index.max() + 1, dtype=np.int64)
            dense = n.reindex(grid, fill_value=0)
            outs.append(
                pd.DataFrame(
                    {
                        "event_type": t,
                        "hour_bucket": grid,
                        "n_events": dense.to_numpy(np.int64),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "hour_bucket": pd.Series(dtype=np.int64),
                    "n_events": pd.Series(dtype=np.int64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "event_type", fill, num_parts=8
    )


SQL_EVENTS_GAPFILL = """
WITH hourly AS (
    SELECT event_type, CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hb,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM events GROUP BY 1, 2),
span AS (SELECT event_type, MIN(hb) AS lo, MAX(hb) AS hi FROM hourly GROUP BY 1),
grid AS (
    SELECT s.event_type, CAST(s.lo + g.g AS BIGINT) AS hour_bucket
    FROM span s, UNNEST(range(0, s.hi - s.lo + 1)) AS g(g))
SELECT g.event_type, g.hour_bucket, COALESCE(h.n, 0) AS n_events
FROM grid g LEFT JOIN hourly h ON h.event_type = g.event_type AND h.hb = g.hour_bucket
"""


def events_lag_delta(sf_dir: str):
    """Per-user inter-event gap (LAG window function): for every event, the
    microseconds since the user's previous event, -1 for the user's first —
    the feature behind dwell-time and bot-burst detection. One user-keyed
    exchange; order inside the partition is (ts, event_id), the SQL window's
    exact ORDER BY. Output (event_id, user_id, delta_us)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("user_id", sort=False):
            g = g.sort_values(["ts_us", "event_id"], kind="mergesort")
            prev = g["ts_us"].shift(1)
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(np.int64),
                        "user_id": g["user_id"].to_numpy(np.int64),
                        "delta_us": (g["ts_us"] - prev).fillna(-1).to_numpy(np.int64),
                    }
                )
            )
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "user_id": pd.Series(dtype=np.int64),
                "delta_us": pd.Series(dtype=np.int64),
            }
        )

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        ds.map_batches(to_us, batch_format="pyarrow"), "user_id", per_user
    )


SQL_EVENTS_LAG_DELTA = """
SELECT event_id, user_id,
       CAST(COALESCE(
           epoch_us(ts) - epoch_us(LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)),
           -1) AS BIGINT) AS delta_us
FROM events
"""


LATE_HOURS = 336  # watermark allowed lateness (14 days — splits the fixture)


def late_events(sf_dir: str, late_hours: int = LATE_HOURS):
    """Event-time watermark lateness audit — the streaming-ingest accounting
    that decides which arrivals a window may still accept: events ARRIVE in
    a deterministic shuffled order (arrival key = bijective LCG on event_id,
    identical arithmetic in numpy and SQL — the derived-input contract; the
    raw log is ts-monotone so real lateness needs a derived arrival
    permutation), the watermark after each arrival is the running max event
    time minus ``late_hours``, and an event is LATE if its own event time
    is below the watermark its predecessors established. Output per event
    hour: (hour_bucket, n_ontime, n_late).

    Scale shape: ONE global sort by arrival key, then the distributed
    prefix-scan primitive (stages/joins.prefix_max_exclusive: per-block
    maxima → O(blocks) driver carry → per-block seeded cummax, no further
    exchange), then combiner partials into a tiny hour-keyed groupby."""
    import pyarrow.parquet as pq

    from ..stages.joins import PREFIX_SENTINEL, prefix_max_exclusive

    n_events = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    late_us = late_hours * 3_600_000_000
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def derive(batch: pa.Table) -> pa.Table:
        ev = batch.column("event_id").to_numpy().astype(np.int64)
        return pa.table(
            {
                "akey": pa.array((ev * 48271 + 11) % np.int64(n_events)),
                "tsu": batch.column("ts").cast(pa.int64()),
            }
        )

    scanned = prefix_max_exclusive(
        ds.map_batches(derive, batch_format="pyarrow").sort("akey"), "tsu"
    )

    def partial(batch: pa.Table) -> pa.Table:
        tsu = batch.column("tsu").to_numpy()
        prev = batch.column("prev_max").to_numpy()
        late = (prev != PREFIX_SENTINEL) & (tsu < prev - late_us)
        df = pd.DataFrame(
            {
                "hour_bucket": tsu // 3_600_000_000,
                "n_late": late.astype(np.int64),
                "n_ontime": (~late).astype(np.int64),
            }
        )
        g = df.groupby("hour_bucket", sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        scanned.map_batches(partial, batch_format="pyarrow")
        .groupby("hour_bucket")
        .aggregate(Sum("n_ontime", alias_name="n_ontime"), Sum("n_late", alias_name="n_late"))
    )


def _sql_late_events(late_hours: int = LATE_HOURS) -> str:
    return f"""
WITH nn AS (SELECT COUNT(*) AS n FROM events),
a AS (SELECT event_id, epoch_us(ts) AS tsu,
             (event_id * 48271 + 11) % (SELECT n FROM nn) AS akey
      FROM events),
w AS (SELECT tsu,
             MAX(tsu) OVER (ORDER BY akey ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                 AS prevmax
      FROM a)
SELECT CAST(tsu // 3600000000 AS BIGINT) AS hour_bucket,
       CAST(COUNT(*) FILTER (WHERE prevmax IS NULL
                                OR tsu >= prevmax - {late_hours * 3_600_000_000}) AS BIGINT)
           AS n_ontime,
       CAST(COUNT(*) FILTER (WHERE prevmax IS NOT NULL
                               AND tsu < prevmax - {late_hours * 3_600_000_000}) AS BIGINT)
           AS n_late
FROM w GROUP BY 1
"""


sql_late_events = functools.cache(_sql_late_events)


RANGE_WINDOW_US = 3_600_000_000  # 1 hour trailing RANGE frame


def events_range_sum(sf_dir: str, window_us: int = RANGE_WINDOW_US):
    """TIME-based (RANGE-frame) trailing window — the frame class ROWS
    frames can't express: for every event, the user's value-cents sum over
    events in (ts - 1h, ts] BY TIMESTAMP, however many rows that is (burst
    periods aggregate many rows, quiet ones few). One user-keyed exchange;
    inside the partition the frame sum is a cumsum difference at a
    searchsorted LEFT boundary per row — vectorized across each user, no
    per-row loop. Ties: all rows sharing a timestamp see the same frame
    (RANGE semantics — the SQL twin's peer-row rule), which the cumsum-at-
    last-peer form reproduces exactly. Output
    (event_id, user_id, range_sum_cents)."""
    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "cents": pa.array(
                    np.rint(batch.column("value").to_numpy() * 100).astype(np.int64)
                ),
            }
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("user_id", sort=False):
            g = g.sort_values(["ts_us", "event_id"], kind="mergesort")
            ts = g["ts_us"].to_numpy(np.int64)
            csum = np.concatenate([[0], np.cumsum(g["cents"].to_numpy(np.int64))])
            # frame = (ts - window, ts]: left boundary exclusive, right
            # boundary includes ALL peer rows with the same ts (RANGE rule)
            lo = np.searchsorted(ts, ts - window_us, side="right")
            hi = np.searchsorted(ts, ts, side="right")
            outs.append(
                pd.DataFrame(
                    {
                        "event_id": g["event_id"].to_numpy(np.int64),
                        "user_id": g["user_id"].to_numpy(np.int64),
                        "range_sum_cents": csum[hi] - csum[lo],
                    }
                )
            )
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ["event_id", "user_id", "range_sum_cents"]}
        )

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        ds.map_batches(to_us, batch_format="pyarrow"), "user_id", per_user
    )


SQL_EVENTS_RANGE_SUM = f"""
SELECT event_id, user_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY epoch_us(ts)
           RANGE BETWEEN {RANGE_WINDOW_US - 1} PRECEDING AND CURRENT ROW)
           AS BIGINT) AS range_sum_cents
FROM events
"""


def session_intervals(sf_dir: str, gap_minutes: int = 30):
    """(user_id, session_idx, start_us, end_us) closed session intervals —
    the shared front half of session_concurrency / promo_overlap: one
    user-keyed exchange, vectorized per-user boundary detection (same
    30-min-gap rule and (ts, event_id) tie order as ``sessionize``)."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])
    gap_us = gap_minutes * 60 * 1_000_000

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    def per_user_intervals(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in df.groupby("user_id", sort=False):
            g = g.sort_values(["ts_us", "event_id"], kind="mergesort")
            ts = g["ts_us"].to_numpy(np.int64)
            new_sess = np.concatenate([[True], np.diff(ts) > gap_us])
            starts = ts[new_sess]
            ends = ts[np.concatenate([new_sess[1:], [True]])]
            outs.append(
                pd.DataFrame(
                    {
                        "user_id": np.full(starts.size, uid, np.int64),
                        "session_idx": np.arange(starts.size, dtype=np.int64),
                        "start_us": starts,
                        "end_us": ends,
                    }
                )
            )
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ["user_id", "session_idx", "start_us", "end_us"]}
        )

    from ..stages.joins import hash_partitioned_apply

    return hash_partitioned_apply(
        ds.map_batches(to_us, batch_format="pyarrow"), "user_id", per_user_intervals
    )


def session_concurrency(sf_dir: str, gap_minutes: int = 30):
    """Sweep-line concurrency: for every session (same 30-min-gap rule as
    ``sessionize``), how many sessions are open at its start instant —
    including itself and any session whose closed interval [first event ts,
    last event ts] covers that instant. The classic interval-overlap
    counting problem, solved without a join: sessions become +1/-1 boundary
    markers (-1 at end+1us so a session ending at t still overlaps one
    starting at t), one global sort by (ts, delta, user, session) puts every
    -1 before the +1s of the same instant, and a distributed inclusive
    prefix sum (stages/joins.prefix_sum_inclusive — per-block sums, O(blocks)
    driver carries, no second exchange) yields the running open-count.
    Equal-instant starts are serialized by (user_id, session_idx), so each
    sees the previous ones — exactly SQL's ROWS-frame rule over the same
    total order. Output (user_id, session_idx, start_us, concurrency)."""
    from ..stages.joins import prefix_sum_inclusive

    sessions = session_intervals(sf_dir, gap_minutes)

    def to_markers(batch: pa.Table) -> pa.Table:
        if "user_id" not in batch.column_names:  # schema-less empty partition
            return pa.schema(
                [(c, pa.int64()) for c in ["user_id", "session_idx", "ts_us", "delta"]]
            ).empty_table()
        uid = batch.column("user_id").to_numpy()
        sidx = batch.column("session_idx").to_numpy()
        start = batch.column("start_us").to_numpy()
        end = batch.column("end_us").to_numpy()
        return pa.table(
            {
                "user_id": pa.array(np.concatenate([uid, uid])),
                "session_idx": pa.array(np.concatenate([sidx, sidx])),
                "ts_us": pa.array(np.concatenate([start, end + 1])),
                "delta": pa.array(
                    np.concatenate(
                        [np.ones(uid.size, np.int64), np.full(uid.size, -1, np.int64)]
                    )
                ),
            }
        )

    markers = sessions.map_batches(to_markers, batch_format="pyarrow").sort(
        ["ts_us", "delta", "user_id", "session_idx"]
    )
    scanned = prefix_sum_inclusive(markers, "delta", out_col="concurrency")

    _out_schema = pa.schema(
        [(c, pa.int64()) for c in ["user_id", "session_idx", "start_us", "concurrency"]]
    )

    def keep_starts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if "delta" not in batch.column_names:  # schema-less empty sort block
            return _out_schema.empty_table()
        t = batch.filter(pc.equal(batch.column("delta"), 1))
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "session_idx": t.column("session_idx"),
                "start_us": t.column("ts_us"),
                "concurrency": t.column("concurrency"),
            }
        )

    return scanned.map_batches(keep_starts, batch_format="pyarrow")


SQL_SESSION_CONCURRENCY = """
WITH ordered AS (
    SELECT user_id, event_id, ts,
           CASE WHEN epoch(ts) - epoch(LAG(ts) OVER w) > 1800 OR LAG(ts) OVER w IS NULL
                THEN 1 ELSE 0 END AS new_session
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
    SELECT user_id,
           SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1 AS session_idx,
           ts
    FROM ordered
),
intervals AS (
    SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
           MIN(epoch_us(ts)) AS start_us, MAX(epoch_us(ts)) AS end_us
    FROM sess GROUP BY 1, 2
),
markers AS (
    SELECT user_id, session_idx, start_us AS ts_us, 1 AS delta FROM intervals
    UNION ALL
    SELECT user_id, session_idx, end_us + 1, -1 FROM intervals
),
scanned AS (
    SELECT user_id, session_idx, ts_us, delta,
           SUM(delta) OVER (ORDER BY ts_us, delta, user_id, session_idx
                            ROWS UNBOUNDED PRECEDING) AS concurrency
    FROM markers
)
SELECT user_id, session_idx, ts_us AS start_us, CAST(concurrency AS BIGINT) AS concurrency
FROM scanned WHERE delta = 1
"""


def events_mad(sf_dir: str):
    """(event_type, n_events, median_x2, mad_x4) — median absolute deviation,
    the robust dispersion statistic, EXACT at any scale from ONE distributed
    pass: the same bounded-domain value histogram events_median uses serves
    both medians, because the deviation histogram |2v - med2| is a pure
    re-keying of the value histogram (domain-bounded, never row-bounded).
    Integer discipline: cents v are doubled so the interpolated median med2
    = a + b is an exact int; deviations d2 = |2v - med2| are ints; the MAD
    median is doubled again (mad4) — every emitted column is exact BIGINT
    arithmetic both engines reproduce bit-for-bit."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "v": np.rint(batch.column("value").to_numpy() * 100).astype(np.int64),
            }
        )
        g = df.groupby(["event_type", "v"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "v": pa.array(g["v"], pa.int64()),
                "n": pa.array(g["n"], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "v"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # O(types × distinct scaled values) — domain-bounded
    )

    def hist_median_x2(vals: np.ndarray, cnts: np.ndarray) -> int:
        """Exact 2× interpolated median of a value histogram (ints in, int
        out: (a + b) where a, b are the two middle order statistics)."""
        order = np.argsort(vals, kind="mergesort")
        v, c = vals[order], np.cumsum(cnts[order])
        n = int(c[-1])
        lo = (n - 1) // 2
        a = v[np.searchsorted(c, lo + 1)]
        b = v[np.searchsorted(c, lo + 2)] if n % 2 == 0 else a
        return int(a + b)

    rows = []
    for et, g in hist.groupby("event_type", sort=True):
        v, n = g["v"].to_numpy(), g["n"].to_numpy()
        med2 = hist_median_x2(v, n)  # a+b of cents == 2x the interpolated median
        dev = np.abs(2 * v - med2)  # re-keyed histogram, same counts
        dg = pd.DataFrame({"d": dev, "n": n}).groupby("d", sort=False)["n"].sum()
        # dev is already at 2x-cents scale, so the x2 interpolated median of
        # dev == MAD_cents * 4 directly — no further doubling
        mad4 = hist_median_x2(dg.index.to_numpy(), dg.to_numpy())
        rows.append((et, int(n.sum()), med2, mad4))
    return pd.DataFrame(rows, columns=["event_type", "n_events", "median_x2", "mad_x4"])


SQL_EVENTS_MAD = """
WITH c AS (
    SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS v FROM events
),
m AS (
    SELECT event_type, COUNT(*) AS n_events,
           CAST(ROUND(quantile_cont(v, 0.5) * 2) AS BIGINT) AS median_x2
    FROM c GROUP BY 1
)
SELECT c.event_type, m.n_events, m.median_x2,
       CAST(ROUND(quantile_cont(abs(2 * c.v - m.median_x2), 0.5) * 2) AS BIGINT) AS mad_x4
FROM c JOIN m USING (event_type)
GROUP BY 1, 2, 3
"""


PROMO_PERIOD_US = 24 * 3600 * 1_000_000  # one window per day...
PROMO_LEN_US = 6 * 3600 * 1_000_000     # ...lasting 6 hours
PROMO_COUNT = 28


def promo_overlap(sf_dir: str):
    """Interval-overlap measure join: user sessions vs a small set of promo
    windows (window k = [tmin + k·24h, +6h), k < 28, anchored at the global
    min event time). The classic broadcast-small-side interval join: the
    window table is driver-derived from ONE scalar aggregate and shipped
    via ray.put; each session batch computes overlap = max(0,
    min(end+1, we) - max(start, ws)) against ALL windows vectorized
    (sessions × 28 — no shuffle, no range join); per-window partial sums
    reduce in one tiny exchange. Output (promo_k, n_sessions,
    total_overlap_us) for windows at least one session touches."""
    from ..stages.joins import hash_partitioned_apply

    tmin = read_pq(f"{sf_dir}/events.parquet", columns=["ts"]).map_batches(
        lambda b: pa.table({"t": pa.array([b.column("ts").cast(pa.int64()).to_numpy().min()])}),
        batch_format="pyarrow",
    ).min("t")
    ws = tmin + np.arange(PROMO_COUNT, dtype=np.int64) * PROMO_PERIOD_US
    ref = ray.put(ws)

    sessions = session_intervals(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ["promo_k", "n_sessions", "total_overlap_us"]}
            )
        w0 = ray.get(ref)
        s = df["start_us"].to_numpy(np.int64)[:, None]
        e = df["end_us"].to_numpy(np.int64)[:, None] + 1  # half-open duration
        ov = np.minimum(e, w0[None, :] + PROMO_LEN_US) - np.maximum(s, w0[None, :])
        ov = np.maximum(ov, 0)
        n = (ov > 0).sum(axis=0).astype(np.int64)
        tot = ov.sum(axis=0).astype(np.int64)
        keep = n > 0
        return pd.DataFrame(
            {
                "promo_k": np.flatnonzero(keep).astype(np.int64),
                "n_sessions": n[keep],
                "total_overlap_us": tot[keep],
            }
        )

    parts = sessions.map_batches(partial, batch_format="pandas")
    return hash_partitioned_apply(
        parts,
        "promo_k",
        lambda df: df.groupby("promo_k", sort=False)[["n_sessions", "total_overlap_us"]]
        .sum()
        .reset_index()
        .astype(np.int64),
        num_parts=8,
    )


SQL_PROMO_OVERLAP = f"""
WITH ordered AS (
    SELECT user_id, event_id, ts,
           CASE WHEN epoch(ts) - epoch(LAG(ts) OVER w) > 1800 OR LAG(ts) OVER w IS NULL
                THEN 1 ELSE 0 END AS new_session
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
    SELECT user_id,
           SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) - 1 AS session_idx,
           ts
    FROM ordered
),
intervals AS (
    SELECT user_id, session_idx,
           MIN(epoch_us(ts)) AS start_us, MAX(epoch_us(ts)) + 1 AS end_us
    FROM sess GROUP BY 1, 2
),
tmin AS (SELECT MIN(epoch_us(ts)) AS t0 FROM events),
windows AS (
    SELECT CAST(k AS BIGINT) AS promo_k,
           (SELECT t0 FROM tmin) + k * {PROMO_PERIOD_US} AS ws
    FROM UNNEST(range(0, {PROMO_COUNT})) AS g(k)
),
ov AS (
    SELECT w.promo_k,
           LEAST(i.end_us, w.ws + {PROMO_LEN_US}) - GREATEST(i.start_us, w.ws) AS d
    FROM intervals i JOIN windows w
      ON i.start_us < w.ws + {PROMO_LEN_US} AND i.end_us > w.ws
)
SELECT promo_k, CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(d) AS BIGINT) AS total_overlap_us
FROM ov WHERE d > 0 GROUP BY 1
"""


def path_trigrams(sf_dir: str):
    """3-step behavioural paths: counts of consecutive event-type triples
    per user timeline (the sequence-mining extension of next_transitions'
    bigrams — funnel discovery / session-path features). Per-user ordering
    is (ts, event_id); triples come from two vectorized shifts inside the
    user partition (no per-row loop), partial counts fuse in one tiny
    (e1, e2, e3)-keyed exchange. Output (e1, e2, e3, n)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def to_cols(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        et = df["event_type"].to_numpy(object)
        uid = df["user_id"].to_numpy(np.int64)
        # triple is valid when all three rows belong to the same user
        same = (uid[:-2] == uid[1:-1]) & (uid[1:-1] == uid[2:])
        if not same.any():
            return pd.DataFrame(
                {"e1": pd.Series(dtype=object), "e2": pd.Series(dtype=object),
                 "e3": pd.Series(dtype=object), "n": pd.Series(dtype=np.int64)}
            )
        t = pd.DataFrame({"e1": et[:-2][same], "e2": et[1:-1][same], "e3": et[2:][same]})
        g = t.groupby(["e1", "e2", "e3"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = hash_partitioned_apply(
        ds.map_batches(to_cols, batch_format="pyarrow"), "user_id", per_user
    )
    return hash_partitioned_apply(
        parts,
        ["e1", "e2", "e3"],
        lambda df: df.groupby(["e1", "e2", "e3"], sort=False)["n"].sum().reset_index()
        if len(df)
        else df,
        num_parts=8,
    )


SQL_PATH_TRIGRAMS = """
WITH seq AS (
    SELECT user_id, event_type AS e1,
           LEAD(event_type, 1) OVER w AS e2,
           LEAD(event_type, 2) OVER w AS e3
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT e1, e2, e3, COUNT(*) AS n
FROM seq WHERE e3 IS NOT NULL
GROUP BY 1, 2, 3
"""


CONV_BUCKET_US = 3600 * 1_000_000  # lag histogram granularity: hours


def conversion_lag(sf_dir: str):
    """Time-to-conversion distribution: for every user whose FIRST
    'purchase' follows their FIRST 'view', the lag bucketed into whole
    hours — the survival-curve input of funnel analytics. One user-keyed
    exchange computes both firsts vectorized (groupby-min over the two
    filtered frames); the histogram fuses in a bucket-keyed reduce.
    Output (lag_hours, n_users)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    )

    def to_cols(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        v = df[df["event_type"] == "view"].groupby("user_id", sort=False)["ts_us"].min()
        p = df[df["event_type"] == "purchase"].groupby("user_id", sort=False)["ts_us"].min()
        both = pd.concat([v.rename("v"), p.rename("p")], axis=1).dropna()
        both = both[both["p"] >= both["v"]]
        if not len(both):
            return pd.DataFrame({"lag_hours": pd.Series(dtype=np.int64), "n_users": pd.Series(dtype=np.int64)})
        lag = ((both["p"] - both["v"]).to_numpy(np.int64)) // CONV_BUCKET_US
        g = pd.Series(lag).value_counts().sort_index()
        return pd.DataFrame({"lag_hours": g.index.to_numpy(np.int64), "n_users": g.to_numpy(np.int64)})

    parts = hash_partitioned_apply(
        ds.map_batches(to_cols, batch_format="pyarrow"), "user_id", per_user
    )
    return hash_partitioned_apply(
        parts,
        "lag_hours",
        lambda df: df.groupby("lag_hours", sort=False)["n_users"].sum().reset_index()
        if len(df)
        else df,
        num_parts=8,
    )


SQL_CONVERSION_LAG = f"""
WITH f AS (
    SELECT user_id,
           MIN(CASE WHEN event_type = 'view' THEN epoch_us(ts) END) AS v,
           MIN(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS p
    FROM events GROUP BY 1
)
SELECT (p - v) // {CONV_BUCKET_US} AS lag_hours, COUNT(*) AS n_users
FROM f WHERE v IS NOT NULL AND p IS NOT NULL AND p >= v
GROUP BY 1
"""


def ohlc_hourly(sf_dir: str):
    """OHLC candlesticks per (event_type, hour): open/close = the value of
    the FIRST/LAST event in the bucket (by ts, event_id), high/low =
    max/min — the first/last-by-time aggregate family, built MERGEABLE:
    each batch emits one row per touched bucket carrying (argmin-ts open,
    argmax-ts close, min, max, n) partials; the fuse re-applies the same
    argmin/argmax over partials, so the reduction is associative and the
    exchange is bucket-bounded, never row-bounded. Values in exact cents.
    Output (event_type, hour_bucket, open_cents, high_cents, low_cents,
    close_cents, n_events)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "ts_us": batch.column("ts").cast(pa.int64()).to_numpy(),
                "event_id": batch.column("event_id").to_numpy(),
                "cents": np.rint(batch.column("value").to_numpy() * 100).astype(np.int64),
            }
        )
        df["hour_bucket"] = df["ts_us"] // (3600 * 1_000_000)
        df = df.sort_values(["event_type", "hour_bucket", "ts_us", "event_id"], kind="mergesort")
        g = df.groupby(["event_type", "hour_bucket"], sort=False)
        out = g.agg(
            open_ts=("ts_us", "first"),
            open_eid=("event_id", "first"),
            open_cents=("cents", "first"),
            close_ts=("ts_us", "last"),
            close_eid=("event_id", "last"),
            close_cents=("cents", "last"),
            high_cents=("cents", "max"),
            low_cents=("cents", "min"),
            n_events=("cents", "size"),
        ).reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "hour_bucket", "open_ts", "open_eid"], kind="mergesort")
        g = df.groupby(["event_type", "hour_bucket"], sort=False)
        first = g[["open_cents"]].first()
        df2 = df.sort_values(["event_type", "hour_bucket", "close_ts", "close_eid"], kind="mergesort")
        g2 = df2.groupby(["event_type", "hour_bucket"], sort=False)
        last = g2[["close_cents"]].last()
        agg = g[["high_cents"]].max().join(g[["low_cents"]].min()).join(g[["n_events"]].sum())
        out = first.join(last).join(agg).reset_index()
        for c in ["open_cents", "high_cents", "low_cents", "close_cents", "n_events"]:
            out[c] = out[c].astype(np.int64)
        return out[
            ["event_type", "hour_bucket", "open_cents", "high_cents", "low_cents", "close_cents", "n_events"]
        ]

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), ["event_type", "hour_bucket"], fuse, num_parts=16
    )


SQL_OHLC_HOURLY = """
WITH c AS (
    SELECT event_type, epoch_us(ts) // 3600000000 AS hour_bucket,
           epoch_us(ts) AS ts_us, event_id,
           CAST(ROUND(value * 100) AS BIGINT) AS cents
    FROM events
),
w AS (
    SELECT *,
           ROW_NUMBER() OVER (PARTITION BY event_type, hour_bucket
                              ORDER BY ts_us, event_id) AS rn_a,
           ROW_NUMBER() OVER (PARTITION BY event_type, hour_bucket
                              ORDER BY ts_us DESC, event_id DESC) AS rn_d
    FROM c
)
SELECT event_type, hour_bucket,
       MAX(CASE WHEN rn_a = 1 THEN cents END) AS open_cents,
       MAX(cents) AS high_cents,
       MIN(cents) AS low_cents,
       MAX(CASE WHEN rn_d = 1 THEN cents END) AS close_cents,
       COUNT(*) AS n_events
FROM w GROUP BY 1, 2
"""


# -------------------------------------------------------- association rules

ASSOC_MIN_SUP = 3  # minimum co-visit support for a rule


def assoc_rules(sf_dir: str, cap: int = COVISIT_CAP, min_sup: int = ASSOC_MIN_SUP):
    """ASSOCIATION RULES from the co-visitation graph: for every directed
    item pair (ante → cons) co-viewed by ≥ ``min_sup`` users, the rule
    confidence n_both/n_ante — the market-basket step after covisit_pairs
    (support counting is Apriori's k=2 level; the per-user cap keeps the
    candidate expansion bounded exactly as there).

    Shape: ONE user-keyed exchange dedups/caps each user's item set AND
    emits both its pair partials and per-item supports (users never split,
    so both are partition-complete combiners); pair counts fuse in one
    |items|²-bounded exchange; item supports are items-bounded and fuse on
    the driver, broadcast back into the stateless rule finisher. Confidence
    is integer micro units (round-floor division, both engines).

    Output (ante, cons, n_both, n_ante, conf_micro)."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "props"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("event_type"), "view")
        t = batch.filter(mask)
        ex = pc.extract_regex(t.column("props"), pattern=COVISIT_ITEM_RE)
        item = pc.struct_field(ex, "item").cast(pa.int64())
        df = pd.DataFrame(
            {
                "user_id": t.column("user_id").to_numpy(),
                "item": item.to_numpy(zero_copy_only=False),
                "ts_us": t.column("ts").cast(pa.int64()).to_numpy(),
            }
        )
        g = df.groupby(["user_id", "item"], sort=False)["ts_us"].min().reset_index(name="first_ts")
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["user_id", "item"], sort=False)["first_ts"].min().reset_index()
        g = g.sort_values(["user_id", "first_ts", "item"], kind="mergesort")
        rank = g.groupby("user_id", sort=False).cumcount()
        g = g[rank < cap]
        outs = [
            pd.DataFrame(
                {
                    "item_a": g["item"].to_numpy(np.int64),
                    "item_b": np.int64(-1),
                    "n": np.int64(1),
                }
            )
        ]  # item_b = -1 marks a per-item support row
        for _, items in g.groupby("user_id", sort=False)["item"]:
            v = np.sort(items.to_numpy(np.int64))
            if len(v) < 2:
                continue
            ia, ib = np.triu_indices(len(v), k=1)
            outs.append(pd.DataFrame({"item_a": v[ia], "item_b": v[ib], "n": np.int64(1)}))
        allp = pd.concat(outs, ignore_index=True)
        c = allp.groupby(["item_a", "item_b"], sort=False)["n"].sum().reset_index()
        return c.astype({"n": np.int64})

    parts = hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", per_user, num_parts=32
    ).materialize()

    # item supports: items-bounded — fuse on the driver, broadcast back
    def item_rows(batch: pa.Table) -> pa.Table:
        m = pa.array(batch.column("item_b").to_numpy() == -1)
        t = batch.filter(m)
        return pa.table({"item": t.column("item_a"), "n": t.column("n")})

    sup = (
        parts.map_batches(item_rows, batch_format="pyarrow")
        .to_pandas()
        .groupby("item")["n"]
        .sum()
    )
    sup_ref = ray.put(sup.to_dict())

    def pair_rows(batch: pa.Table) -> pa.Table:
        m = pa.array(batch.column("item_b").to_numpy() != -1)
        return batch.filter(m)

    def fuse_rules(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["item_a", "item_b"], sort=False)["n"].sum().reset_index()
        g = g[g["n"] >= min_sup]
        sups = ray.get(sup_ref)
        a = g["item_a"].to_numpy(np.int64)
        b = g["item_b"].to_numpy(np.int64)
        nb = g["n"].to_numpy(np.int64)
        ante = np.concatenate([a, b])
        cons = np.concatenate([b, a])
        n_both = np.concatenate([nb, nb])
        n_ante = np.fromiter((sups[x] for x in ante), np.int64, len(ante))
        return pd.DataFrame(
            {
                "ante": ante,
                "cons": cons,
                "n_both": n_both,
                "n_ante": n_ante,
                "conf_micro": 1_000_000 * n_both // n_ante,
            }
        )

    return hash_partitioned_apply(
        parts.map_batches(pair_rows, batch_format="pyarrow"),
        ["item_a", "item_b"],
        fuse_rules,
        num_parts=16,
    )


def sql_assoc_rules(cap: int = COVISIT_CAP, min_sup: int = ASSOC_MIN_SUP) -> str:
    return f"""
WITH v AS (SELECT user_id,
                  CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT) AS item,
                  epoch_us(ts) AS ts_us
           FROM events WHERE event_type = 'view'),
fi AS (SELECT user_id, item, MIN(ts_us) AS first_ts FROM v GROUP BY 1, 2),
capped AS (
    SELECT user_id, item FROM (
        SELECT user_id, item,
               ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY first_ts, item) AS rn
        FROM fi) WHERE rn <= {cap}),
ic AS (SELECT item, CAST(COUNT(*) AS BIGINT) AS n FROM capped GROUP BY 1),
p AS (SELECT a.item AS ia, b.item AS ib, CAST(COUNT(*) AS BIGINT) AS nb
      FROM capped a JOIN capped b ON a.user_id = b.user_id AND a.item < b.item
      GROUP BY 1, 2
      HAVING COUNT(*) >= {min_sup}),
d AS (SELECT ia AS ante, ib AS cons, nb FROM p
      UNION ALL SELECT ib AS ante, ia AS cons, nb FROM p)
SELECT d.ante, d.cons, d.nb AS n_both, ic.n AS n_ante,
       1000000 * d.nb // ic.n AS conf_micro
FROM d JOIN ic ON ic.item = d.ante
"""


# ------------------------------------------------- rolling z-score anomalies

ANOM_WINDOW = 8  # trailing frame length (full frames only)
ANOM_Z = 2  # flag |v - mean| > Z sigma


def events_anomaly(sf_dir: str, w: int = ANOM_WINDOW, z: int = ANOM_Z):
    """Rolling-window ANOMALY FLAGS per user — the streaming-quality-monitor
    pass: an event is anomalous when its value deviates from the mean of the
    user's previous ``w`` values by more than ``z`` standard deviations
    (frame = ROWS BETWEEN w PRECEDING AND 1 PRECEDING, full frames only).

    The test is EXACT INTEGER: with S = Σ, Q = Σv² over the frame (cents),
        |v − S/w| > z·σ  ⇔  (w·v − S)² > z²·(w·Q − S²)
    — no float ever (bounds: |v| ≤ 1e8 cents keeps every product within
    int64). Same shape as events_moving_sum: one user-keyed exchange,
    in-partition cumsum/cumsum-of-squares differences at group-reset
    boundaries, vectorized across all users at once.

    Output (event_id, user_id, value_cents) over anomalous rows."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["event_id", "user_id", "value_cents"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        cs = np.concatenate([[np.int64(0)], np.cumsum(v)])
        cs2 = np.concatenate([[np.int64(0)], np.cumsum(v * v)])
        uid = df["user_id"].to_numpy()
        idx = np.arange(len(uid))
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_start = np.maximum.accumulate(np.where(new_user, idx, -1))
        lo = np.maximum(run_start, idx - w)
        full = (idx - lo) == w
        s = cs[idx] - cs[lo]
        q = cs2[idx] - cs2[lo]
        dev = w * v - s
        anom = full & (dev * dev > z * z * (w * q - s * s))
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[anom],
                "user_id": uid[anom],
                "value_cents": v[anom],
            }
        )

    return hash_partitioned_apply(ds, "user_id", per_part, num_parts=64)


def sql_events_anomaly(w: int = ANOM_WINDOW, z: int = ANOM_Z) -> str:
    return f"""
WITH fr AS (
    SELECT event_id, user_id,
           CAST(ROUND(value * 100) AS BIGINT) AS v,
           COUNT(*) OVER win AS cnt,
           SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER win AS s,
           SUM(CAST(ROUND(value * 100) AS BIGINT)
               * CAST(ROUND(value * 100) AS BIGINT)) OVER win AS q
    FROM events
    WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN {w} PRECEDING AND 1 PRECEDING))
SELECT event_id, user_id, v AS value_cents
FROM fr
WHERE cnt = {w} AND ({w} * v - s) * ({w} * v - s) > {z * z} * ({w} * q - s * s)
"""


# ------------------------------------------------------------- bounce rate

BOUNCE_GAP_MIN = 30  # session gap, matching sessionize


def bounce_rate(sf_dir: str, gap_minutes: int = BOUNCE_GAP_MIN):
    """Per-user BOUNCE RATE — the web-analytics KPI over sessionized
    clickstreams: a bounce is a session containing exactly one event;
    bounce_micro = 10⁶ · n_bounces // n_sessions (round-floor, both
    engines). Same session rule as sessionize (gap > 30 min splits), same
    shape: ONE user-keyed exchange, sessions assigned vectorized across
    every user in the partition via the group-reset cumsum trick (no
    per-user loop). Output (user_id, n_sessions, n_bounces, bounce_micro)."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"])
    gap_s = gap_minutes * 60

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["user_id", "n_sessions", "n_bounces", "bounce_micro"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        # pin µs resolution before the int cast (pandas may carry ns or us)
        ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy() // 1_000_000
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        gap = np.concatenate([[np.int64(0)], ts[1:] - ts[:-1]])
        new_sess = new_user | (gap > gap_s)
        sess_id = np.cumsum(new_sess) - 1
        sizes = np.bincount(sess_id)
        sess_user = uid[new_sess]  # one row per session, in session order
        out = pd.DataFrame({"user_id": sess_user, "one": np.int64(1), "bounce": (sizes == 1).astype(np.int64)})
        g = out.groupby("user_id", sort=False).agg(
            n_sessions=("one", "sum"), n_bounces=("bounce", "sum")
        ).reset_index()
        g["n_sessions"] = g["n_sessions"].astype(np.int64)
        g["n_bounces"] = g["n_bounces"].astype(np.int64)
        g["bounce_micro"] = 1_000_000 * g["n_bounces"] // g["n_sessions"]
        return g[cols]

    return hash_partitioned_apply(ds, "user_id", per_part, num_parts=64)


def sql_bounce_rate(gap_minutes: int = BOUNCE_GAP_MIN) -> str:
    gap = gap_minutes * 60
    return f"""
WITH ordered AS (
    SELECT user_id, event_id, ts,
           CASE WHEN epoch(ts) - epoch(LAG(ts) OVER w) > {gap} OR LAG(ts) OVER w IS NULL
                THEN 1 ELSE 0 END AS new_session
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
    SELECT user_id,
           SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING) AS session_idx
    FROM ordered
),
sizes AS (SELECT user_id, session_idx, COUNT(*) AS n FROM sess GROUP BY 1, 2)
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces,
       1000000 * CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) // CAST(COUNT(*) AS BIGINT)
           AS bounce_micro
FROM sizes GROUP BY 1
"""


# ------------------------------------------------------------ integer EWMA


EWMA_NUM, EWMA_DEN = 256, 1024  # alpha = 1/4 in exact fixed-point


def events_ewma(sf_dir: str):
    """Per-user EXPONENTIAL moving average of event value — the streaming
    smoother next to events_moving_sum's flat window. The recurrence is
    EXACT integer fixed-point, so the engines agree bit-for-bit with no
    float contract at all:  e₁ = v₁,  eᵢ = (256·vᵢ + 768·eᵢ₋₁) // 1024
    over cent-scaled values (all operands non-negative — `//` is floor on
    both sides). Order is (ts, event_id) within user.

    Shape: ONE user-keyed exchange; the recurrence is inherently sequential
    per entity (the same standing partition assumption as geofence keyed
    state and track_speed), a tight per-user Python loop over the track —
    at fleet scale each user's history is one partition-resident array.
    Output (event_id, ewma_cents)."""
    import numpy as np
    import pandas as pd

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["event_id", "ewma_cents"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        uid = df["user_id"].to_numpy()
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        out = np.empty(len(v), dtype=np.int64)
        e = 0
        for i in range(len(v)):
            e = v[i] if new_user[i] else (EWMA_NUM * v[i] + (EWMA_DEN - EWMA_NUM) * e) // EWMA_DEN
            out[i] = e
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(np.int64), "ewma_cents": out})

    return hash_partitioned_apply(ds, "user_id", per_part)


SQL_EVENTS_EWMA = f"""
WITH RECURSIVE
seq AS (
    SELECT event_id, user_id, CAST(ROUND(value * 100) AS BIGINT) AS v,
           ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS i
    FROM events),
rec(user_id, i, event_id, e) AS (
    SELECT user_id, i, event_id, v FROM seq WHERE i = 1
  UNION ALL
    SELECT s.user_id, s.i, s.event_id,
           ({EWMA_NUM} * s.v + {EWMA_DEN - EWMA_NUM} * r.e) // {EWMA_DEN}
    FROM rec r JOIN seq s ON s.user_id = r.user_id AND s.i = r.i + 1)
SELECT event_id, e AS ewma_cents FROM rec
"""


def events_autocorr(sf_dir: str):
    """LAG-1 AUTOCORRELATION of the gap-filled hourly event-count series —
    the burstiness / periodicity scalar of a stream-health dashboard.
    Series: every hour in [min, max] (missing hours count 0 — the
    events_gapfill densification rule); r = Pearson over consecutive pairs
    (x_t, x_{t+1}) via EXACT integer moments in corr_price_qty's
    closed-form float contract. Output (n_pairs, autocorr_x1e9).

    Shape: per-batch (hour, count) partials; the series is CALENDAR-BOUNDED
    (hours since epoch, not corpus-sized), so the dense fuse runs
    driver-side over O(hours × blocks) rows."""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        hour = ts // 3_600_000_000
        u, c = np.unique(hour, return_counts=True)
        return pa.table({"hour": u, "c": c.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("hour")["c"].sum()
    h0, h1 = int(g.index.min()), int(g.index.max())
    dense = np.zeros(h1 - h0 + 1, dtype=np.int64)
    dense[g.index.to_numpy(np.int64) - h0] = g.to_numpy(np.int64)
    x, y = dense[:-1], dense[1:]
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxy = int((x * y).sum())
    sxx, syy = int((x * x).sum()), int((y * y).sum())
    num = float(n * sxy - sx * sy)
    den = np.sqrt(float(n * sxx - sx * sx)) * np.sqrt(float(n * syy - sy * sy))
    # A constant series (possible at tiny scale factors) has den == 0; both
    # engines define r = 0 there instead of NaN-vs-NULL disagreement.
    r_scaled = np.int64(0) if den == 0.0 else np.int64(np.rint(num / den * 1000000000))
    out = pd.DataFrame(
        {
            "n_pairs": [np.int64(n)],
            "autocorr_x1e9": [r_scaled],
        }
    )
    return ray.data.from_pandas(out)


SQL_EVENTS_AUTOCORR = """
WITH c AS (
    SELECT epoch_us(ts) // 3600000000 AS hour, CAST(COUNT(*) AS BIGINT) AS n
    FROM events GROUP BY 1),
rng AS (SELECT MIN(hour) AS h0, MAX(hour) AS h1 FROM c),
dense AS (
    SELECT u.h AS hour, COALESCE(c.n, 0) AS n
    FROM rng, UNNEST(range(rng.h0, rng.h1 + 1)) AS u(h)
    LEFT JOIN c ON c.hour = u.h),
pairs AS (
    SELECT n AS x, LEAD(n) OVER (ORDER BY hour) AS y FROM dense),
m AS (
    SELECT COUNT(*) AS n,
           SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
           SUM(CAST(x AS HUGEINT) * y) AS sxy,
           SUM(CAST(x AS HUGEINT) * x) AS sxx,
           SUM(CAST(y AS HUGEINT) * y) AS syy
    FROM pairs WHERE y IS NOT NULL)
SELECT CAST(n AS BIGINT) AS n_pairs,
       CASE WHEN sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * sqrt(CAST(n * syy - sy * sy AS DOUBLE)) = 0
            THEN CAST(0 AS BIGINT)
            ELSE CAST(ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                 / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                 * 1000000000) AS BIGINT) END AS autocorr_x1e9
FROM m
"""


BURST_PAD_US = 3_600_000_000  # ±1 h around each event


def activity_bursts(sf_dir: str):
    """INTERVAL COALESCING — per user, each event spans [ts−1h, ts+1h]; the
    overlapping spans merge into maximal activity-burst islands (the
    interval-union operator under incident windows / crawl-activity
    clustering; sessionize's gap rule expressed on intervals). With sorted
    timestamps the union rule collapses to: break when Δts > 2·pad — one
    vectorized pass, no pairwise interval join. Output
    (user_id, island, start_us, end_us, n_events), island 0-based per user.

    Shape: ONE user-keyed exchange; inside the partition a cross-user
    vectorized sort + shift assigns islands (the bounce_rate/sessionize
    pattern); min/max/count per island via one groupby over the partition."""
    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["user_id", "island", "start_us", "end_us", "n_events"]
        if not len(df):
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy(np.int64)
        t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        dt = np.concatenate([[np.int64(0)], t[1:] - t[:-1]])
        brk = new_user | (dt > 2 * BURST_PAD_US)
        # island index resets per user: cumsum of breaks minus per-user base
        cum = np.cumsum(brk)
        base = np.maximum.accumulate(np.where(new_user, cum, 0))
        island = cum - base
        g = pd.DataFrame({"user_id": uid, "island": island, "t": t}).groupby(
            ["user_id", "island"], sort=False
        )["t"]
        agg = g.agg(["min", "max", "size"]).reset_index()
        return pd.DataFrame(
            {
                "user_id": agg["user_id"].to_numpy(np.int64),
                "island": agg["island"].to_numpy(np.int64),
                "start_us": agg["min"].to_numpy(np.int64) - BURST_PAD_US,
                "end_us": agg["max"].to_numpy(np.int64) + BURST_PAD_US,
                "n_events": agg["size"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(ds, "user_id", per_part)


SQL_ACTIVITY_BURSTS = f"""
WITH o AS (
    SELECT user_id, event_id, ts, epoch_us(ts) AS t,
           CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL
                  OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w > {2 * BURST_PAD_US}
                THEN 1 ELSE 0 END AS brk
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
i AS (
    SELECT user_id, t,
           SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) - 1 AS island
    FROM o)
SELECT user_id, CAST(island AS BIGINT) AS island,
       CAST(MIN(t) - {BURST_PAD_US} AS BIGINT) AS start_us,
       CAST(MAX(t) + {BURST_PAD_US} AS BIGINT) AS end_us,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM i GROUP BY 1, 2
"""


# --------------------------------------------- semi-structured extraction


def props_extract_stats(sf_dir: str):
    """SEMI-STRUCTURED EXTRACTION over the JSON ``props`` payload — the
    parse-then-aggregate operator every event pipeline starts with (the
    ``json_extract`` family; the engine's other props consumer, covisit,
    buries the parse inside a bigger plan — this exposes it as the
    operator). The integer ``k`` property is pulled with the Arrow C++
    regex kernel (zero Python per row) and rolled up per event type.

    Shape: per-batch (event_type, k) count partials (k's domain is
    value-bounded, so partials are tiny) → ONE type-keyed exchange →
    n_events / sum_k / n_distinct_k per type, all exact int64.
    Output (event_type, n_events, sum_k, n_distinct_k)."""
    import pyarrow.compute as pc

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch.column("props"), pattern=COVISIT_ITEM_RE)
        k = pc.struct_field(ex, "item").cast(pa.int64())
        if k.null_count:
            # groupby would drop these rows silently; the SQL twin's CAST errors
            raise ValueError(f"props_extract_stats: {k.null_count} props value(s) without an integer \"k\"")
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "k": k.to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["event_type", "k"], sort=False).size().reset_index(name="cnt")
        return pa.Table.from_pandas(g.astype({"cnt": np.int64}), preserve_index=False)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "k"], sort=False)["cnt"].sum().reset_index()
        g["ksum"] = g["k"].to_numpy(np.int64) * g["cnt"].to_numpy(np.int64)
        out = g.groupby("event_type", sort=False).agg(
            n_events=("cnt", "sum"), sum_k=("ksum", "sum"), n_distinct_k=("k", "size")
        )
        return out.reset_index().astype({"n_events": np.int64, "sum_k": np.int64, "n_distinct_k": np.int64})

    return hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "event_type", fuse
    )


SQL_PROPS_EXTRACT_STATS = """
WITH ex AS (
    SELECT event_type,
           CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT) AS k
    FROM events)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       CAST(COUNT(DISTINCT k) AS BIGINT) AS n_distinct_k
FROM ex GROUP BY 1
"""


# ------------------------------------------- sliding COUNT DISTINCT


ROLLING_DAYS = 7  # trailing window width (days)


def rolling_distinct_users(sf_dir: str):
    """EXACT SLIDING COUNT DISTINCT — trailing-7-day distinct active users
    per day, the DAU/WAU-style engagement series. COUNT(DISTINCT) over a
    sliding frame is the classic window no streaming aggregate handles
    (distinct is not subtractable), and most engines punt to sketches;
    exact and distributed here:

      1. per-batch (day, user) distinct partials (tiny — day×user bounded);
      2. ONE user-keyed exchange dedups globally, then each (user, day)
         fans out to the ≤7 windows it can serve — but only ONE row per
         (user, window) survives via the min-day-in-window rule applied
         per user (vectorized diff over the user's sorted days: a day
         serves window w only if the user's previous active day is outside
         w — exactly-once without a second distinct);
      3. ONE window-keyed count exchange.

    Exchanges carry int64 (user, day|window) rows only. Output
    (day_bucket, n_distinct_users) for every day in [min+6, max]."""
    import pyarrow.parquet as _pq

    from ..stages.joins import hash_partitioned_apply

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        day = ts // 86_400_000_000
        u = batch.column("user_id").to_numpy()
        df = pd.DataFrame({"user_id": u, "day": day}).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ds.map_batches(partial, batch_format="pyarrow")

    # global day span from metadata-cheap min/max (one tiny aggregate over
    # the already-distinct partials would also do; the span is calendar-
    # bounded either way)
    meta = _pq.read_metadata(f"{sf_dir}/events.parquet")
    # row-group statistics give exact ts min/max without a data scan; a
    # writer may omit them, and then one scan of the ts column does
    ts_idx = meta.schema.names.index("ts")
    stats = [meta.row_group(i).column(ts_idx).statistics for i in range(meta.num_row_groups)]
    if stats and all(st is not None and st.has_min_max for st in stats):
        tmin, tmax = min(st.min for st in stats), max(st.max for st in stats)
    else:
        import pyarrow.compute as pc

        mm = pc.min_max(_pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"]).column("ts").cast(pa.int64()))
        tmin, tmax = mm["min"].as_py(), mm["max"].as_py()
    import datetime as _dt

    def _us(v):
        if isinstance(v, _dt.datetime):
            return int(v.replace(tzinfo=_dt.timezone.utc).timestamp() * 1_000_000)
        return int(v)

    d_lo = _us(tmin) // 86_400_000_000
    d_hi = _us(tmax) // 86_400_000_000

    def fan_out(df: pd.DataFrame) -> pd.DataFrame:
        # per user: sorted active days; day d serves window w ∈ [d, d+6]
        # iff the user's previous active day < w-6 (else the later day in
        # the window already counted the user) — exactly one row per
        # (user, window) the user is active in
        df = df.drop_duplicates(["user_id", "day"]).sort_values(["user_id", "day"], kind="mergesort")
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        prev = np.concatenate([[np.iinfo(np.int64).min], d[:-1]])
        prev[np.concatenate([[True], u[1:] != u[:-1]])] = np.iinfo(np.int64).min
        outs_u, outs_w = [], []
        for off in range(ROLLING_DAYS):
            w = d + off
            keep = (prev < w - (ROLLING_DAYS - 1)) & (w >= d_lo + ROLLING_DAYS - 1) & (w <= d_hi)
            outs_u.append(u[keep])
            outs_w.append(w[keep])
        return pd.DataFrame(
            {"window": np.concatenate(outs_w), "user_id": np.concatenate(outs_u)}
        )

    contrib = hash_partitioned_apply(pairs, "user_id", fan_out)

    def count_win(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("window", sort=False).size().reset_index(name="n_distinct_users")
        return g.astype({"n_distinct_users": np.int64}).rename(columns={"window": "day_bucket"})

    return hash_partitioned_apply(contrib, "window", count_win)


SQL_ROLLING_DISTINCT_USERS = f"""
WITH du AS (
    SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id FROM events),
span AS (SELECT MIN(day) AS d_lo, MAX(day) AS d_hi FROM du),
wins AS (
    SELECT u.w AS day_bucket FROM span, UNNEST(range(span.d_lo + {ROLLING_DAYS} - 1, span.d_hi + 1)) AS u(w))
SELECT w.day_bucket,
       CAST(COUNT(DISTINCT du.user_id) AS BIGINT) AS n_distinct_users
FROM wins w JOIN du ON du.day BETWEEN w.day_bucket - {ROLLING_DAYS} + 1 AND w.day_bucket
GROUP BY 1
"""
