"""Segmented (incremental) text-index maintenance — the Lucene-style answer
to "new documents arrived" that the reference lacks entirely: its indexer
rebuilds the whole index for any new data (/root/reference/cmd/indexing/
main.go — one-shot build, no incremental path; SURVEY.md §4). Here new docs
become a NEW SEGMENT in O(new docs), existing segments' bytes are never
touched, and queries read across segments with exactly-merged statistics.

Why segments instead of in-place appends: the store's term_ids are dense in
sorted-term order (term_id-range bucketing is what makes dictionary and
postings reads prunable, text_index.term_bucket) — inserting one new term
would renumber every id above it, i.e. rewrite the whole store. Segments
keep each store immutable; a background ``merge_segments`` compacts them by
reconstructing the scan-shaped stream from stored artifacts (no
re-tokenization) and re-running the distributed dictionary/posting build —
parity-tested byte-equal to a from-scratch index of the union corpus.

Layout: <index_dir>/seg-000/, seg-001/, ... — each a standard
save_text_index_ds store (terms/, postings/, doclens/, term_stats.parquet,
globals.json), individually resumable via the checkpointed sink.

Contract: segments hold DISJOINT doc_id sets (the ingest job routes new doc
ids to the new segment). Cross-segment stats merge exactly: df comes from
the concatenated postings themselves, docs_count and the average field
lengths from integer sums persisted in globals.json (float(Σ ints)/Σ count —
the identical single division the full build performs, so segmented BM25
scores are bit-equal to a monolithic index's; tests/test_index_segments.py).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ..sources.readers import read_pq
import ray.data

from .text_index import (
    _DOCLEN_FIELD,
    _EMPTY_GLOBALS,
    _POSTING_COLS,
    _SCAN_SCHEMA,
    _load_globals,
    build_text_index_ds,
    point_query_store,
    save_text_index_ds,
)

_SEG_PREFIX = "seg-"


def _is_complete(seg_dir: str) -> bool:
    """globals.json is written LAST by both store writers — it is the
    segment's commit marker."""
    return os.path.exists(os.path.join(seg_dir, "globals.json"))


def _is_segment_name(name: str) -> bool:
    suffix = name[len(_SEG_PREFIX):]
    return name.startswith(_SEG_PREFIX) and suffix.isdigit()


def _all_segment_dirs(index_dir: str) -> list[str]:
    if not os.path.isdir(index_dir):
        return []
    return [
        os.path.join(index_dir, d)
        for d in sorted(os.listdir(index_dir))
        # strict seg-NNN DIRECTORIES only: a stray 'seg-000.bak' file must
        # not crash the int() suffix parse in add/compact
        if _is_segment_name(d) and os.path.isdir(os.path.join(index_dir, d))
    ]


def _reserved_segment_numbers(index_dir: str) -> list[int]:
    """Every seg-NNN number that may NOT be reused for a new segment:
    live dirs, plus — while a compaction is planned/in flight — its
    retired-inputs trash, its recorded plan sources, and its chosen target
    (names recycled across a compaction would let a crash-resume retire or
    overwrite a FRESH segment that took a dead segment's name)."""
    import json as _json

    nums = [int(os.path.basename(d)[len(_SEG_PREFIX):]) for d in _all_segment_dirs(index_dir)]
    comp = os.path.join(index_dir, ".compact")
    trash = os.path.join(comp, "trash")
    if os.path.isdir(trash):
        nums += [int(d[len(_SEG_PREFIX):]) for d in os.listdir(trash) if _is_segment_name(d)]
    for f in (os.path.join(comp, "plan.json"), os.path.join(comp, "target.json")):
        if os.path.exists(f):
            val = _json.load(open(f))
            names = val if isinstance(val, list) else [val]
            nums += [int(n[len(_SEG_PREFIX):]) for n in names if _is_segment_name(n)]
    return nums


def segment_dirs(index_dir: str) -> list[str]:
    """COMPLETE segments only — readers never see a half-written segment
    (an in-flight or crashed add leaves a dir without globals.json)."""
    return [d for d in _all_segment_dirs(index_dir) if _is_complete(d)]


def add_segment(
    index_dir: str,
    docs: "ray.data.Dataset",
    text_cols: dict[str, int] | None = None,
    in_ram: bool = False,
) -> str:
    """Index ``docs`` as the next segment — O(new docs), existing segments
    untouched. A killed add leaves an UNCOMMITTED dir (no globals.json);
    re-submitting RESUMES inside that same dir instead of appending a
    duplicate segment (the distributed writer skips finished partitions via
    the checkpointed sink; the in-RAM writer just rewrites — idempotent,
    globals.json last). ``in_ram=True`` takes the driver-side small-corpus
    writer (same on-disk layout, same reader — the _text_store_dir size
    switch)."""
    dirs = _all_segment_dirs(index_dir)
    incomplete = [d for d in dirs if not _is_complete(d)]
    # next name = max RESERVED number + 1, NOT len(dirs): after a compaction
    # retires seg-000..seg-k into one higher-numbered segment the numbering
    # is sparse, and len() would eventually collide with a committed dir.
    # Reserved includes an in-flight compaction's trash/plan/target so a
    # crash-resume can never confuse a fresh segment with a retired one.
    nums = _reserved_segment_numbers(index_dir)
    nxt = (
        incomplete[0]
        if incomplete
        else os.path.join(index_dir, f"{_SEG_PREFIX}{(max(nums) + 1 if nums else 0):03d}")
    )
    if in_ram:
        from .text_index import build_text_index, save_text_index

        save_text_index(build_text_index(docs, text_cols=text_cols), nxt)
    else:
        save_text_index_ds(build_text_index_ds(docs, text_cols), nxt)
    return nxt


def merged_globals(seg_dirs: list[str]) -> dict:
    """Exact cross-segment globals from the persisted integer sums."""
    n = 0
    sums = {"sum_name_len": 0, "sum_address_len": 0, "sum_total_len": 0}
    for seg in seg_dirs:
        g = _load_globals(seg)
        n += int(g["docs_count"])
        for k in sums:
            sums[k] += int(g[k])
    if not n:
        return _EMPTY_GLOBALS.copy()
    return {
        "docs_count": n,
        "avg_name_len": float(sums["sum_name_len"]) / n,
        "avg_address_len": float(sums["sum_address_len"]) / n,
        "avg_total_len": float(sums["sum_total_len"]) / n,
        **sums,
    }


def segmented_point_query(index_dir: str, tokens) -> tuple[dict[str, int], pd.DataFrame, dict]:
    """The cross-segment point read: per segment the SAME footer-pruned
    dictionary + postings lookups as a monolithic store
    (text_index.point_query_store), then each segment's local term_ids are
    remapped to query-local ids keyed by the term STRING and the postings
    frames concatenated (doc ids disjoint by contract). Returns
    (term → query-local id, postings, merged globals) — exactly the triple
    the scoring kernels consume, so every scorer works unchanged."""
    segs = segment_dirs(index_dir)
    toks = sorted({str(t) for t in tokens})
    qid = {t: i for i, t in enumerate(toks)}
    found: dict[str, int] = {}
    frames = []
    for seg in segs:
        ids, posts = point_query_store(seg, toks)
        if not ids:
            continue
        inv = {int(tid): qid[t] for t, tid in ids.items()}
        posts = posts.copy()
        posts["term_id"] = posts["term_id"].map(inv).astype(np.int64)
        frames.append(posts)
        found.update({t: qid[t] for t in ids})
    if frames:
        posts_all = pd.concat(frames, ignore_index=True)
    else:
        posts_all = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in _POSTING_COLS})
    return found, posts_all, merged_globals(segs)


def _read_parts(sub_dir: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """part=K/data.parquet reader serving BOTH store writers: manifest-driven
    for checkpointed (save_text_index_ds) stores, part-glob for driver-side
    (save_text_index) stores, which write no manifests."""
    import glob

    from ..sources.checkpoint import completed_keys

    keys = completed_keys(sub_dir)
    if keys:
        files = [os.path.join(sub_dir, f"part={k}", "data.parquet") for k in sorted(keys, key=str)]
        missing = [f for f in files if not os.path.exists(f)]
        if missing:
            # a manifest-listed part with no data file is corruption — a
            # silent skip would rebuild an index that quietly lost data
            raise FileNotFoundError(f"manifest lists parts missing on disk: {missing}")
    else:
        files = sorted(glob.glob(os.path.join(sub_dir, "part=*", "data.parquet")))
    return read_pq(files, columns=columns)


def _segment_raw(seg_dir: str) -> "ray.data.Dataset":
    """Reconstruct the scan-shaped (_SCAN_SCHEMA) stream of a stored segment
    WITHOUT re-tokenizing: postings get their term string back via the
    segment's own dictionary (dense ids → one broadcast array per segment,
    the same vocab budget the build's broadcast path uses), doclens rows
    come from the persisted doclens artifact (they carry the token-less
    docs a postings-only reconstruction would lose)."""
    import glob as _g

    from .text_index import BROADCAST_TERMS_LIMIT

    has_terms = bool(_g.glob(os.path.join(seg_dir, "terms", "part=*", "data.parquet")))
    use_broadcast = False
    if has_terms:
        terms_ds = _read_parts(f"{seg_dir}/terms", columns=["term_id", "term"])
        # broadcast the dense id→term array only within the same vocab budget
        # the build's broadcast path uses; above it (a segment written under
        # the bucketed strategy at the 10^8-term regime) nothing vocab-sized
        # may materialize in one process (ADVICE r03) — remap via a
        # term_id-bucketed distributed join instead
        use_broadcast = terms_ds.count() <= BROADCAST_TERMS_LIMIT
        if use_broadcast:
            terms_df = terms_ds.to_pandas()
            terms_sorted = np.asarray(
                terms_df.sort_values("term_id")["term"].to_numpy(dtype=object), dtype=object
            )
            terms_ref = ray.put(terms_sorted)

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "field": t.column("field").cast(pa.int8()),
                "term": t.column("term"),
                "doc_id": t.column("doc_id"),
                "tf": t.column("tf"),
                "name_len": t.column("name_len"),
                "address_len": t.column("address_len"),
                "total_len": t.column("total_len"),
            },
            schema=_SCAN_SCHEMA,
        )

    if has_terms and use_broadcast:
        def unmap_ids(t: pa.Table) -> pa.Table:
            """dense term_id → term string: ids are dense in sorted order, so
            the inverse of the build's searchsorted is one fancy-index."""
            tid = t.column("term_id").to_numpy(zero_copy_only=False)
            return t.append_column("term", pa.array(ray.get(terms_ref)[tid].tolist(), pa.string()))

        # one call per block (batch_size=None): the term array is an object
        # array, so each ray.get unpickles it whole
        posts = (
            _read_parts(f"{seg_dir}/postings", columns=_POSTING_COLS)
            .map_batches(unmap_ids, batch_format="pyarrow", batch_size=None)
            .map_batches(project, batch_format="pyarrow")
        )
    elif has_terms:
        from ..stages.joins import hash_bucket_join

        posts = hash_bucket_join(
            _read_parts(f"{seg_dir}/postings", columns=_POSTING_COLS),
            terms_ds,
            on="term_id",
            num_buckets=64,
        ).map_batches(project, batch_format="pyarrow")
    else:
        # segment of token-less docs: no dictionary, no postings — the raw
        # stream is just the doclen sentinel rows
        posts = ray.data.from_arrow(_SCAN_SCHEMA.empty_table())

    def doclen_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "field": pa.array(np.full(n, _DOCLEN_FIELD, np.int8)),
                "term": pa.array([""] * n, pa.string()),
                "doc_id": t.column("doc_id"),
                "tf": pa.array(np.zeros(n, np.int64)),
                "name_len": t.column("name_len"),
                "address_len": t.column("address_len"),
                "total_len": t.column("total_len"),
            },
            schema=_SCAN_SCHEMA,
        )

    import glob as _glob

    len_files = sorted(_glob.glob(os.path.join(seg_dir, "doclens", "*.parquet")))
    lens = read_pq(len_files).map_batches(doclen_rows, batch_format="pyarrow")
    return posts.union(lens)


def merge_segments(index_dir: str, out_dir: str, seg_dirs: list[str] | None = None) -> None:
    """Compact segments into ONE standard store (the background merge):
    union of the segments' reconstructed scan streams → the SAME distributed
    dictionary/postings/stats build as from-scratch — so the merged store is
    content-identical to indexing the union corpus directly (parity-tested),
    and the merge never re-tokenizes a document. ``seg_dirs`` pins the
    input set (compact_segments records it so segments added DURING a
    compaction are never retired by its swap)."""
    segs = seg_dirs if seg_dirs is not None else segment_dirs(index_dir)
    if not segs:
        raise ValueError(f"no segments under {index_dir}")
    raws = [_segment_raw(s) for s in segs]
    raw = raws[0] if len(raws) == 1 else raws[0].union(*raws[1:])
    idx = build_text_index_ds(raw=raw)
    save_text_index_ds(idx, out_dir)


def compact_segments(index_dir: str) -> str:
    """IN-PLACE compaction: merge the committed segments into one new
    higher-numbered segment and retire the inputs — the lifecycle move that
    reclaims SegmentedSearchCore's per-segment read cost without a server
    restart (refresh() then detaches the retired readers and attaches the
    compacted one; the reference can only rebuild + restart,
    /root/reference/cmd/indexing/main.go).

    Crash-safe and re-entrant, one phase marker at a time under
    ``.compact/`` (invisible to readers — segment_dirs matches ``seg-``):

      1. plan.json records the input segment NAMES (segments added while
         the merge runs are NOT retired) — written once, atomically.
      2. the merge writes ``.compact/merged`` through the checkpointed
         sink; a killed run re-submitted resumes inside it (globals.json
         is its commit marker, written last).
      3. target.json records the new segment name (drawn from the RESERVED
         number space — live dirs + trash + plan + target — which
         add_segment also respects, so segment names are never recycled
         across a compaction and a crash-resume can never retire or
         overwrite a segment committed after the plan); then inputs move
         to ``.compact/trash``, the merged store is renamed in (atomic;
         already committed), and trash is deleted.

    Swap-window semantics — consistency over availability: a refresh()
    while inputs are being retired serves the not-yet-retired remainder,
    and in the two-rename window after the LAST retire and before the
    merged rename it serves an EMPTY index (never a double count; the
    alternative order would silently double every retired doc's stats).
    Admin operations (add / compact) are single-writer by contract —
    run one at a time per index.

    Every step is idempotent: re-running after a crash at any point
    finishes the phase it died in (a source already in trash is skipped,
    a target already renamed in is kept). Returns the new segment dir."""
    import json
    import shutil

    comp = os.path.join(index_dir, ".compact")
    tomb = comp + ".done"
    merged = os.path.join(comp, "merged")
    trash = os.path.join(comp, "trash")
    plan_f = os.path.join(comp, "plan.json")
    target_f = os.path.join(comp, "target.json")
    # a tombstone is a fully-finished compaction whose delete was cut short
    # — harmless, reclaim it
    shutil.rmtree(tomb, ignore_errors=True)

    def _write_json_atomic(path: str, obj) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(obj, f)
        os.replace(tmp, path)

    # phase 1: plan
    if not os.path.exists(plan_f):
        segs = segment_dirs(index_dir)
        if len(segs) < 2:
            raise ValueError(f"nothing to compact under {index_dir} ({len(segs)} segment(s))")
        os.makedirs(comp, exist_ok=True)
        _write_json_atomic(plan_f, [os.path.basename(s) for s in segs])
    sources = json.load(open(plan_f))

    # phase 2: merge (skipped on resume once merged committed or target chosen)
    if not os.path.exists(target_f) and not _is_complete(merged):
        merge_segments(index_dir, merged, seg_dirs=[os.path.join(index_dir, b) for b in sources])

    # phase 3: swap
    if not os.path.exists(target_f):
        nums = _reserved_segment_numbers(index_dir)
        _write_json_atomic(target_f, f"{_SEG_PREFIX}{(max(nums) + 1 if nums else 0):03d}")
    target = os.path.join(index_dir, json.load(open(target_f)))
    os.makedirs(trash, exist_ok=True)
    for b in sources:
        src = os.path.join(index_dir, b)
        # skip sources already retired by a crashed earlier attempt — with
        # reserved numbering a root dir of this name can only BE the source
        if os.path.isdir(src) and not os.path.isdir(os.path.join(trash, b)):
            os.rename(src, os.path.join(trash, b))
    if os.path.isdir(merged):
        os.rename(merged, target)
    # cleanup must be ATOMIC as seen by a future compaction: deleting
    # .compact file-by-file could leave target.json without plan.json, and
    # a next run would then skip its merge and retire live segments against
    # the stale target. Rename the whole dir away first (atomic), then
    # delete the tombstone at leisure.
    os.rename(comp, tomb)
    shutil.rmtree(tomb, ignore_errors=True)
    return target
