"""Distributed exchange / join / indexing primitives the Dataset API doesn't
ship. Every wide step below is ONE exchange:

  _exchange              hash the key columns into ``__gpart`` (pandas'
                         deterministic hash, stable across processes) and
                         run one sort-based groupby over it — the only
                         place in the repo that builds that exchange.
  hash_partitioned_apply hand each WHOLE hash partition to a vectorized
                         pandas kernel (partial aggregates, reduceat, ...).
  grouped_apply_bounded  per-key pandas loop inside each partition — a Ray
                         group costs ~ms, so keys share a bounded number
                         of Ray groups.
  hash_bucket_join       both-sides-large equi-join (inner/left, int or
                         string key): both sides tagged with typed Arrow
                         nulls, unioned, one exchange, one Arrow kernel
                         per partition (ray_guide.md 'Joins and lookups').
  attach_columns         the same join restricted to right payload
                         columns, with a unique right key.
  topk_per_key           the per-key final top-k of every ranked stage:
                         functions/topk.topk_rows on each partition.

  zip_with_index         deterministic dense 0..N-1 ids after a sort —
                         replaces the reference's mutex-guarded
                         arrival-order docID counter
                         (pkg/index/indexer.go:196-216), which is
                         nondeterministic under concurrency. Offsets are
                         computed from per-block row counts (O(blocks)
                         driver work, no data movement).
  prefix_max_exclusive / prefix_sum_inclusive
                         distributed scans over a sorted dataset, same
                         per-block-carry shape as zip_with_index.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.topk import topk_rows


def _exchange(
    inputs: list["ray.data.Dataset"], keys: list[str], fn, num_parts: int, batch_format: str
) -> "ray.data.Dataset":
    """Hash-partition the rows of ``inputs`` (one dataset, or the sides of a
    tagged union) by ``keys`` into ``num_parts`` Ray groups and run ``fn``
    once per WHOLE partition (``__gpart`` already dropped), in
    ``batch_format``. Equal keys always share a partition."""

    def add_part(batch: pa.Table) -> pa.Table:
        # an int column with a null turns float64 in pandas, which hashes
        # every value differently — fill first so a key's partition never
        # depends on its batch-mates (a null may share a key's partition)
        key_t = batch.select(keys)
        cols = [c.fill_null(0) if pa.types.is_integer(c.type) and c.null_count else c for c in key_t.columns]
        h = pd.util.hash_pandas_object(pa.table(cols, names=keys).to_pandas(), index=False).to_numpy()
        return batch.append_column("__gpart", pa.array((h % num_parts).astype(np.int32)))

    def apply_partition(g):
        return fn(g.drop(columns=["__gpart"]) if batch_format == "pandas" else g.drop_columns(["__gpart"]))

    # hash each input before the union, so the hash fuses into its producer
    parts = [ds.map_batches(add_part, batch_format="pyarrow") for ds in inputs]
    both = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return both.groupby("__gpart").map_groups(apply_partition, batch_format=batch_format)


def hash_partitioned_apply(
    ds: "ray.data.Dataset",
    key: str | list[str],
    partition_fn,
    num_parts: int | None = None,
) -> "ray.data.Dataset":
    """Hash-partition rows by key into ``num_parts`` Ray groups and hand each
    WHOLE partition to ``partition_fn(df) -> df`` — for fully-vectorized
    per-partition kernels (reduceat over group boundaries etc.) where even an
    in-process per-group loop is too slow. ``num_parts=None`` → the adaptive
    CPU-proportional default (default_num_parts)."""
    keys = [key] if isinstance(key, str) else list(key)
    return _exchange([ds], keys, partition_fn, num_parts or default_num_parts(), "pandas")


def grouped_apply_bounded(ds: "ray.data.Dataset", key: str | list[str], per_group_fn) -> "ray.data.Dataset":
    """Per-key apply with a BOUNDED Ray-group count: a Ray group pays ~ms
    Python overhead, catastrophic for >10k tiny groups (ways, doc names,
    LSH buckets). Keys are hash-partitioned (hash_partitioned_apply,
    adaptive width); real per-key grouping happens inside each partition
    as an in-process pandas loop.

    ``per_group_fn(sub_df) -> df`` — one pandas frame per key."""
    keys = [key] if isinstance(key, str) else list(key)

    def apply_partition(g: pd.DataFrame) -> pd.DataFrame:
        outs = [per_group_fn(sub) for _, sub in g.groupby(keys, sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            # ALWAYS return the fn's empty-frame schema — a bare DataFrame()
            # emits a schema-less block that breaks downstream Arrow ops
            return per_group_fn(g.iloc[0:0])
        return pd.concat(outs, ignore_index=True)

    return hash_partitioned_apply(ds, keys, apply_partition)


def _arrow_schema(ds: "ray.data.Dataset") -> tuple["ray.data.Dataset", dict[str, pa.DataType]]:
    # pandas-block datasets (from_pandas, incl. EMPTY frames — a
    # hypothesis-found edge) report numpy dtypes from schema(); force
    # Arrow blocks so typed nulls can be built for every column
    if not all(isinstance(t, pa.DataType) for t in ds.schema().types):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    s = ds.schema()
    return ds, dict(zip(s.names, s.types))


def _key_type(t: pa.DataType) -> pa.DataType:
    # pandas hashes an int32 -1 differently from an int64 -1: hash ONE type
    if pa.types.is_integer(t):
        return pa.int64()
    return pa.string() if pa.types.is_string(t) or pa.types.is_large_string(t) else t


def _tag(
    t: pa.Table, side: int, key: str, key_type: pa.DataType, src: dict[str, str], types: dict[str, pa.DataType]
) -> pa.Table:
    """One side's rows of the tagged union: its own columns (output name →
    source column in ``src``) at the dataset's type, every other column
    typed nulls, plus the normalised ``__key`` and ``__side``."""
    n = len(t)
    cols = []
    for name, typ in types.items():
        if name not in src:
            cols.append(pa.nulls(n, typ))
            continue
        c = t.column(src[name])
        cols.append(c if c.type == typ or pa.types.is_null(typ) else c.cast(typ))
    cols += [t.column(key).cast(key_type), pa.array(np.full(n, side, np.int8))]
    return pa.Table.from_arrays(cols, list(types) + ["__key", "__side"])


def _join_partition(t: pa.Table, l_names: list[str], r_names: list[str], how: str, unique_right: bool) -> pa.Table:
    """Join one partition of the tagged union: each left row meets its
    right matches in right-side order (left order kept — pandas.merge's
    order); ``how="left"`` keeps an unmatched left row with null payload.
    Keys become codes against the partition's distinct right keys, so int
    and string keys share one path, and a null key never matches."""
    is_r = pc.equal(t.column("__side"), 1)
    lt, rt = t.filter(pc.invert(is_r)), t.filter(is_r)
    uniq = pc.drop_null(pc.unique(rt.column("__key")))
    lcode = pc.fill_null(pc.index_in(lt.column("__key"), value_set=uniq), -1).to_numpy()
    rcode = pc.fill_null(pc.index_in(rt.column("__key"), value_set=uniq), -1).to_numpy()
    counts = np.bincount(rcode[rcode >= 0], minlength=len(uniq))
    if unique_right and (counts > 1).any():
        dup = int((counts > 1).sum())
        raise ValueError(f"attach_columns: {dup} duplicate right keys (the right key must be unique)")
    order = np.argsort(np.where(rcode >= 0, rcode, len(uniq)), kind="stable")  # right rows grouped by code
    n = np.append(counts, 0)[lcode]  # code -1 (no match) → 0
    starts = np.append(np.cumsum(counts) - counts, 0)[lcode]
    reps = n if how == "inner" else np.maximum(n, 1)
    lidx = np.repeat(np.arange(len(lcode)), reps)
    within = np.arange(len(lidx)) - np.repeat(np.cumsum(reps) - reps, reps)
    hit = within < np.repeat(n, reps)
    ridx = np.zeros(len(lidx), np.int64)
    ridx[hit] = order[(np.repeat(starts, reps) + within)[hit]]
    lo = lt.select(l_names).take(pa.array(lidx))
    ro = rt.select(r_names).take(pa.array(ridx, mask=~hit))
    return pa.Table.from_arrays(lo.columns + ro.columns, names=l_names + r_names)


def _join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    right_on: str,
    how: str,
    num_parts: int,
    cols: dict[str, str] | None = None,
) -> "ray.data.Dataset":
    """The tagged-union join behind both public forms. ``cols`` (right
    column → output name) is attach_columns' form: only those payload
    columns, binary widened to large_binary, and a unique right key.
    ``None`` keeps every right column (hash_bucket_join)."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    left, l_types = _arrow_schema(left)
    right, r_types = _arrow_schema(right)
    attach = cols is not None
    if not attach:
        cols = {n: n for n in r_types if n != on or on != right_on}
    r_out = {}
    for rc, oc in cols.items():
        if rc not in r_types:
            raise ValueError(f"right has no column {rc}")
        if oc in l_types:
            raise ValueError(f"left already has column {oc}")
        # replicating per-key blobs across many left rows can exceed
        # pa.binary()'s int32 offset range (2 GiB per array) inside one
        # partition — widen to large_binary (int64 offsets) up front
        r_out[oc] = pa.large_binary() if attach and pa.types.is_binary(r_types[rc]) else r_types[rc]
    key_type = _key_type(l_types[on])
    if pa.types.is_null(key_type):
        key_type = _key_type(r_types[right_on])
    types = {**l_types, **r_out}
    l_src = {n: n for n in l_types}
    r_src = {oc: rc for rc, oc in cols.items()}
    sides = [
        left.map_batches(lambda t: _tag(t, 0, on, key_type, l_src, types), batch_format="pyarrow"),
        right.map_batches(lambda t: _tag(t, 1, right_on, key_type, r_src, types), batch_format="pyarrow"),
    ]
    l_names, r_names = list(l_types), list(r_out)
    return _exchange(
        sides, ["__key"], lambda t: _join_partition(t, l_names, r_names, how, attach), num_parts, "pyarrow"
    )


def hash_bucket_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    num_buckets: int = 64,
    how: str = "inner",
    right_on: str | None = None,
) -> "ray.data.Dataset":
    """Partitioned hash equi-join (``how`` "inner" or "left") of two
    datasets on an int OR string key column — SQL semantics: a null key
    never matches. Output columns: every left column, then every right
    column (the right key too when ``right_on`` differs from ``on``); the
    column sets must be disjoint apart from a shared key. ``num_buckets``
    is the exchange width.

    Limit: a "left" result with a ``list`` payload cannot pass through Ray's
    pandas conversion (``to_pandas``, a pandas-format stage): the unmatched
    rows' nulls fail its tensor-extension cast. Read such a result as Arrow."""
    return _join(left, right, on, right_on or on, how, num_buckets)


def attach_columns(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    cols: dict[str, str],
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Attach ``right``'s payload columns to every ``left`` row keyed by
    ``left[on]`` — INNER join semantics, typed Arrow end to end. ``cols``
    maps right column → output column name. The right key must be unique:
    a duplicated key raises ValueError instead of attaching whichever row
    came first."""
    return _join(left, right, on, on, "inner", num_buckets, cols)


def topk_per_key(
    ds: "ray.data.Dataset", key: str, score: str, id_col: str, k: int, descending: bool
) -> "ray.data.Dataset":
    """The first ``k`` rows of each ``key`` in the engine's ranking order
    (``topk_rows``: ``score`` descending or ascending, ties by ascending
    ``id_col``, NaN last), with an int64 ``rank`` appended — one exchange on
    ``key``, one Arrow kernel per partition. Feed it per-batch partials of
    at most k rows per key, so the exchange stays O(keys × blocks × k)."""
    return _exchange(
        [ds], [key], lambda t: topk_rows(t, key, score, id_col, k, descending), default_num_parts(), "pyarrow"
    )


def zip_with_index(ds: "ray.data.Dataset", id_col: str = "row_id") -> "ray.data.Dataset":
    """Add a dense 0..N-1 int64 id following the dataset's current block
    order. Call after ``ds.sort(...)`` for a fully deterministic numbering.

    Implementation: materialize block refs (zero-copy handles, not data),
    read per-block counts from metadata, launch one task per block adding
    the running offset.
    """
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:  # zero-block dataset (e.g. empty corpus) — nothing to number
        return mat

    @ray.remote
    def count_block(t: pa.Table) -> int:
        return t.num_rows

    counts = ray.get([count_block.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)

    @ray.remote
    def add_ids(t: pa.Table, off: int) -> pa.Table:
        return t.append_column(id_col, pa.array(np.arange(off, off + t.num_rows, dtype=np.int64)))

    out_refs = [add_ids.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def default_num_parts() -> int:
    """Adaptive exchange width: 2× the cluster's CPU count, floored at 16.
    Ray's sort-shuffle exchange pays a fixed per-partition cost (~50 ms
    on this host), so a hardcoded 64 wastes seconds per exchange in a small
    local session while a 256-node cluster needs thousands of partitions —
    CPU-proportional is the standard heuristic and keeps partition count a
    pure function of the cluster, never of the data (deterministic output
    either way: partition_fn always sees whole key groups)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(16, 2 * cpus)


PREFIX_SENTINEL = np.iinfo(np.int64).min


def prefix_max_exclusive(
    ds: "ray.data.Dataset", value_col: str, out_col: str = "prev_max"
) -> "ray.data.Dataset":
    """Distributed EXCLUSIVE running max over a globally-ordered dataset:
    row i gets max(value[0..i-1]), PREFIX_SENTINEL for the first row — the
    prefix-scan primitive behind event-time watermarks (late_events).
    ``ds`` must already be globally sorted in the scan order (``ds.sort``).

    Shape (the zip_with_index machinery): per-block maxima via one tiny task
    per block, the exclusive cummax of those carries on the driver
    (O(blocks), never O(rows)), then one task per block computes the
    in-block exclusive cummax seeded by its carry. No exchange beyond the
    caller's sort."""
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        return mat

    @ray.remote
    def block_max(t: pa.Table) -> int:
        # sort can emit schema-less empty blocks (partitions > rows)
        if value_col not in t.column_names or len(t) == 0:
            return PREFIX_SENTINEL
        return int(t.column(value_col).to_numpy().max())

    maxes = np.array(ray.get([block_max.remote(r) for r in refs]), np.int64)
    carries = np.concatenate([[PREFIX_SENTINEL], np.maximum.accumulate(maxes)[:-1]])

    @ray.remote
    def add_prev(t: pa.Table, carry: int) -> pa.Table:
        if value_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        v = t.column(value_col).to_numpy().astype(np.int64)
        if len(v):
            shifted = np.concatenate([[PREFIX_SENTINEL], np.maximum.accumulate(v)[:-1]])
            prev = np.maximum(shifted, carry)
        else:
            prev = v
        return t.append_column(out_col, pa.array(prev))

    out_refs = [add_prev.remote(r, int(c)) for r, c in zip(refs, carries)]
    return ray.data.from_arrow_refs(out_refs)


def prefix_sum_inclusive(
    ds: "ray.data.Dataset", value_col: str, out_col: str = "run_sum"
) -> "ray.data.Dataset":
    """Distributed INCLUSIVE running sum over a globally-ordered dataset:
    row i gets sum(value[0..i]) — the scan primitive behind sweep-line
    operators (session_concurrency) and SQL's ``SUM(x) OVER (ORDER BY ...
    ROWS UNBOUNDED PRECEDING)``. ``ds`` must already be globally sorted in
    the scan order (``ds.sort``).

    Same two-pass shape as prefix_max_exclusive: per-block sums via one tiny
    task per block, the exclusive cumsum of those carries on the driver
    (O(blocks), never O(rows)), then one task per block adds its carry to
    the in-block inclusive cumsum. No exchange beyond the caller's sort."""
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        return mat

    @ray.remote
    def block_sum(t: pa.Table) -> int:
        # sort can emit schema-less empty blocks (partitions > rows)
        if value_col not in t.column_names or len(t) == 0:
            return 0
        return int(t.column(value_col).to_numpy().sum())

    sums = np.array(ray.get([block_sum.remote(r) for r in refs]), np.int64)
    carries = np.concatenate([[0], np.cumsum(sums)[:-1]])

    @ray.remote
    def add_run(t: pa.Table, carry: int) -> pa.Table:
        if value_col not in t.column_names:
            return t.append_column(out_col, pa.array([], pa.int64()))
        v = t.column(value_col).to_numpy().astype(np.int64)
        return t.append_column(out_col, pa.array(np.cumsum(v) + carry if len(v) else v))

    out_refs = [add_run.remote(r, int(c)) for r, c in zip(refs, carries)]
    return ray.data.from_arrow_refs(out_refs)
