"""The oracle float contract every pipeline follows (no code lives here).

Distributed float sums are order-dependent in the last ulps, and float
ROUND implementations differ between engines, so every float AGGREGATE
column is emitted as ``CAST(ROUND(x * scale) AS BIGINT)`` on both the Ray
and SQL sides. The accumulation error (~1e-8) is far below the 0.5
integer boundary, so the integer result is deterministic and exact.
Prefer integerizing PER ROW before the sum (see
pipelines/relational.agg_pricing): rounding after a float sum can
straddle .5 boundaries at scale. Per-row arithmetic columns are left as
raw float64: both engines produce bit-identical values there by
construction.
"""
