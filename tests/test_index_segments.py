"""Segmented incremental text index: cross-segment point reads equal the
monolithic store's, segmented BM25 is bit-identical to the full-store path,
and merge_segments compacts to a store content-identical to a from-scratch
build — all at sf0.001."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data

from osm_search_ray.sources.readers import read_pq

SF = "/root/testdata/sf0.001"
TOKENS = ["batch", "stream", "window", "spark", "key", "zzz-not-a-term"]


def _docs():
    return read_pq(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def _half(par):
    import pyarrow.compute as pc

    return _docs().map_batches(
        lambda t, p=par: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
        batch_format="pyarrow",
    )


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    from osm_search_ray.pipelines.index_segments import add_segment, merge_segments
    from osm_search_ray.pipelines.text_index import build_text_index_ds, save_text_index_ds

    root = tmp_path_factory.mktemp("segstores")
    full_dir = str(root / "full")
    seg_dir = str(root / "segmented")
    merged_dir = str(root / "merged")
    save_text_index_ds(build_text_index_ds(_docs(), {"text": 0}), full_dir)
    # MIXED writer layouts on purpose: seg-000 via the driver-side small-
    # corpus writer (no manifests), seg-001 via the checkpointed distributed
    # writer — readers and the merge must serve both
    add_segment(seg_dir, _half(0), {"text": 0}, in_ram=True)
    add_segment(seg_dir, _half(1), {"text": 0}, in_ram=False)
    merge_segments(seg_dir, merged_dir)
    return full_dir, seg_dir, merged_dir


def _posting_key_rows(posts, tid):
    p = posts[posts["term_id"] == tid]
    cols = ["field", "doc_id", "tf", "name_len", "address_len", "total_len"]
    return set(map(tuple, p[cols].astype(np.int64).to_numpy().tolist()))


def test_segmented_point_query_equals_full(stores):
    from osm_search_ray.pipelines.index_segments import segmented_point_query
    from osm_search_ray.pipelines.text_index import _load_globals, point_query_store

    full_dir, seg_dir, _ = stores
    ids_f, posts_f = point_query_store(full_dir, TOKENS)
    g_f = _load_globals(full_dir)
    ids_s, posts_s, g_s = segmented_point_query(seg_dir, TOKENS)
    assert set(ids_f) == set(ids_s) != set()
    assert "zzz-not-a-term" not in ids_s
    for t in ids_f:
        assert _posting_key_rows(posts_f, ids_f[t]) == _posting_key_rows(posts_s, ids_s[t]), t
    for k in ["docs_count", "sum_name_len", "sum_total_len"]:
        assert g_s[k] == g_f[k], k
    for k in ["avg_name_len", "avg_address_len", "avg_total_len"]:
        assert g_s[k] == g_f[k], k  # EXACT float equality (integer-sum merge)


def test_segmented_bm25_identical_to_store_path(stores):
    from osm_search_ray.pipelines import search_docs as sd

    a = sd.bm25_store_search(SF).reset_index(drop=True)
    b = sd.segmented_search(SF).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_merge_equals_scratch_build(stores):
    from osm_search_ray.pipelines.text_index import _POSTING_COLS
    from osm_search_ray.sources.checkpoint import read_checkpointed

    full_dir, _, merged_dir = stores

    def canon_store(d):
        terms = (
            read_checkpointed(f"{d}/terms")
            .to_pandas()[["term", "term_id"]]
            .sort_values("term_id")
            .reset_index(drop=True)
        )
        posts = (
            read_checkpointed(f"{d}/postings", columns=_POSTING_COLS)
            .to_pandas()
            .sort_values(_POSTING_COLS, kind="mergesort")
            .reset_index(drop=True)
        )
        stats = (
            pd.read_parquet(f"{d}/term_stats.parquet")
            .sort_values("term_id")
            .reset_index(drop=True)
        )
        g = json.load(open(f"{d}/globals.json"))
        return terms, posts, stats, g

    tf, pf, sf_, gf = canon_store(full_dir)
    tm, pm, sm, gm = canon_store(merged_dir)
    pd.testing.assert_frame_equal(tf, tm)
    pd.testing.assert_frame_equal(pf.astype(np.int64), pm.astype(np.int64))
    pd.testing.assert_frame_equal(sf_.astype(np.int64), sm.astype(np.int64))
    assert gf == gm


def test_add_segment_never_touches_existing(stores):
    """seg-000's bytes are immutable across the second add (checked via
    mtimes vs a fresh two-step build)."""
    _, seg_dir, _ = stores
    assert sorted(os.listdir(seg_dir)) == ["seg-000", "seg-001"]
    g0 = json.load(open(f"{seg_dir}/seg-000/globals.json"))
    g1 = json.load(open(f"{seg_dir}/seg-001/globals.json"))
    assert g0["docs_count"] + g1["docs_count"] == 500


def test_add_segment_resumes_incomplete_dir(tmp_path):
    """A killed add leaves seg-NNN without globals.json: readers must not
    see it, and a re-submitted add must REUSE that dir, not append a
    duplicate segment."""
    from osm_search_ray.pipelines.index_segments import add_segment, segment_dirs

    idx = str(tmp_path / "idx")
    os.makedirs(f"{idx}/seg-000")  # simulated crash: dir exists, no commit marker
    assert segment_dirs(idx) == []  # invisible to readers
    p = add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    assert p.endswith("seg-000")
    assert segment_dirs(idx) == [p]
    p2 = add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    assert p2.endswith("seg-001")


def test_merge_multifield_segments_equals_scratch(tmp_path):
    """Two-field segments through the DISTRIBUTED writer: the merge path's
    df must not double-count a doc whose field rows split across read
    batches (exact-pair exchange, not batch-final partials)."""
    from osm_search_ray.pipelines.index_segments import add_segment, merge_segments
    from osm_search_ray.pipelines.text_index import build_text_index_ds, save_text_index_ds

    cols = {"text": 0, "source": 1}

    def docs2():
        return read_pq(
            f"{SF}/documents.parquet", columns=["doc_id", "text", "source"]
        )

    full_dir = str(tmp_path / "full")
    save_text_index_ds(build_text_index_ds(docs2(), cols), full_dir)
    idx = str(tmp_path / "seg")
    import pyarrow.compute as pc

    for par in (0, 1):
        half = docs2().map_batches(
            lambda t, p=par: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )
        add_segment(idx, half, cols)
    merged_dir = str(tmp_path / "merged")
    merge_segments(idx, merged_dir)

    want = pd.read_parquet(f"{full_dir}/term_stats.parquet").sort_values("term_id").reset_index(drop=True)
    got = pd.read_parquet(f"{merged_dir}/term_stats.parquet").sort_values("term_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(np.int64), want.astype(np.int64))
    g_full = json.load(open(f"{full_dir}/globals.json"))
    g_merged = json.load(open(f"{merged_dir}/globals.json"))
    assert g_full == g_merged


def test_tokenless_segment_merges(tmp_path):
    """A segment whose docs tokenize to nothing still carries doclens; the
    merge keeps those docs in docs_count and average lengths."""
    import pyarrow as pa
    from osm_search_ray.pipelines.index_segments import add_segment, merge_segments

    d = tmp_path / "data"
    os.makedirs(d)
    pq.write_table(
        pa.table({"doc_id": pa.array([1000, 1001], pa.int64()),
                  "text": pa.array(["!!! ...", "---"], pa.string())}),
        f"{d}/documents.parquet",
    )
    idx = str(tmp_path / "idx")
    add_segment(idx, read_pq(f"{d}/documents.parquet"), {"text": 0}, in_ram=True)
    add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    merged = str(tmp_path / "merged")
    merge_segments(idx, merged)
    g = json.load(open(f"{merged}/globals.json"))
    n_half0 = 250
    assert g["docs_count"] == n_half0 + 2  # token-less docs kept


def test_segmented_core_refresh_picks_up_new_segment(tmp_path):
    """Live incremental serving: a core started on ONE segment serves it;
    after a second segment is added and refresh() runs, results are
    bit-identical to a DiskSearchCore over the monolithic full store
    (exact merged globals ⇒ identical BM25 floats)."""
    from osm_search_ray.pipelines.index_segments import add_segment
    from osm_search_ray.pipelines.search import DiskSearchCore, SegmentedSearchCore
    from osm_search_ray.pipelines.text_index import build_text_index, save_text_index

    idx = str(tmp_path / "idx")
    add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    core = SegmentedSearchCore(idx)
    rows = [
        {"query_id": 1, "text": "batch stream window", "scoring": "BM25_PLUS", "top_k": 10},
        {"query_id": 2, "text": "spark key dup", "scoring": "TF_IDF_COSINE", "top_k": 5},
    ]
    r1 = core.search_rows(rows)
    assert core.globals["docs_count"] == 250 and len(r1)

    add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    assert core.refresh() == 2
    r2 = core.search_rows(rows)

    full_dir = str(tmp_path / "full")
    save_text_index(build_text_index(_docs(), text_cols={"text": 0}), full_dir)
    want = DiskSearchCore(full_dir).search_rows(rows)
    pd.testing.assert_frame_equal(
        r2.reset_index(drop=True), want.reset_index(drop=True)
    )


def test_refresh_detaches_removed_segments(tmp_path):
    """Out-of-band segment removal (compaction cleanup): refresh() must DROP
    the dead reader so globals and postings cover the same segment set
    (ADVICE r03) — results after removal+refresh are bit-identical to a core
    started fresh on the surviving segment."""
    import shutil

    from osm_search_ray.pipelines.index_segments import add_segment, segment_dirs
    from osm_search_ray.pipelines.search import SegmentedSearchCore

    idx = str(tmp_path / "idx")
    add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    core = SegmentedSearchCore(idx)
    rows = [{"query_id": 1, "text": "batch stream window", "scoring": "BM25_PLUS", "top_k": 10}]
    assert len(core.readers) == 2 and len(core.search_rows(rows))

    survivor, victim = segment_dirs(idx)[0], segment_dirs(idx)[1]
    shutil.rmtree(victim)
    assert core.refresh() == 1
    assert set(core.readers) == {survivor}
    fresh = SegmentedSearchCore(idx)
    pd.testing.assert_frame_equal(
        core.search_rows(rows).reset_index(drop=True),
        fresh.search_rows(rows).reset_index(drop=True),
    )
    assert core.globals == fresh.globals


def test_merge_bucketed_term_remap_equals_broadcast(stores, tmp_path, monkeypatch):
    """Above the vocab broadcast budget, _segment_raw must remap
    term_id→term via the distributed bucketed join, never a vocab-sized
    driver array (ADVICE r03): forcing the limit to 0 routes every segment
    through that path and the merged store must stay content-identical."""
    from osm_search_ray.pipelines import text_index as ti
    from osm_search_ray.pipelines.index_segments import merge_segments
    from osm_search_ray.pipelines.text_index import _POSTING_COLS
    from osm_search_ray.sources.checkpoint import read_checkpointed

    _, seg_dir, merged_dir = stores
    monkeypatch.setattr(ti, "BROADCAST_TERMS_LIMIT", 0)
    remerged = str(tmp_path / "remerged")
    merge_segments(seg_dir, remerged)

    def canon(d):
        terms = (
            read_checkpointed(f"{d}/terms").to_pandas()[["term", "term_id"]]
            .sort_values("term_id").reset_index(drop=True)
        )
        posts = (
            read_checkpointed(f"{d}/postings", columns=_POSTING_COLS).to_pandas()
            .sort_values(_POSTING_COLS, kind="mergesort").reset_index(drop=True)
        )
        g = json.load(open(f"{d}/globals.json"))
        return terms, posts, g

    ta, pa_, ga = canon(merged_dir)
    tb, pb, gb = canon(remerged)
    pd.testing.assert_frame_equal(ta, tb)
    pd.testing.assert_frame_equal(pa_.astype(np.int64), pb.astype(np.int64))
    assert ga == gb


def test_compact_segments_inplace_and_live_refresh(tmp_path):
    """In-place compaction: two segments → one new higher-numbered segment
    with identical search results; a LIVE core follows via refresh()
    (detaching the retired readers); a segment added during the merge
    window is never retired; next add after compaction picks a fresh
    number (max+1, not len)."""
    from osm_search_ray.pipelines.index_segments import (
        add_segment,
        compact_segments,
        merged_globals,
        segment_dirs,
    )
    from osm_search_ray.pipelines.search import SegmentedSearchCore

    idx = str(tmp_path / "idx")
    add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    core = SegmentedSearchCore(idx)
    rows = [{"query_id": 1, "text": "batch stream window", "scoring": "BM25_PLUS", "top_k": 10}]
    before = core.search_rows(rows)
    g_before = merged_globals(segment_dirs(idx))

    new_seg = compact_segments(idx)
    assert segment_dirs(idx) == [new_seg]
    assert os.path.basename(new_seg) == "seg-002"  # max+1 of the retired pair
    assert not os.path.exists(os.path.join(idx, ".compact"))
    assert core.refresh() == 1 and set(core.readers) == {new_seg}
    after = core.search_rows(rows)
    pd.testing.assert_frame_equal(before.reset_index(drop=True), after.reset_index(drop=True))
    assert merged_globals(segment_dirs(idx)) == g_before

    # add after compaction: numbering must not collide with the live segment
    p = add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    assert os.path.basename(p) == "seg-003"


def test_compact_segments_resumes_after_swap_crash(tmp_path, monkeypatch):
    """Killed mid-swap (inputs trashed, merged store not yet renamed in):
    re-running compact_segments finishes the swap instead of re-merging or
    losing data."""
    import json
    import shutil

    from osm_search_ray.pipelines import index_segments as seg

    idx = str(tmp_path / "idx")
    seg.add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    seg.add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    want = seg.merged_globals(seg.segment_dirs(idx))

    # simulate the crash state by hand: plan + committed merge + target
    # recorded + inputs trashed, merged NOT yet renamed in
    comp = os.path.join(idx, ".compact")
    os.makedirs(os.path.join(comp, "trash"))
    sources = [os.path.basename(s) for s in seg.segment_dirs(idx)]
    json.dump(sources, open(os.path.join(comp, "plan.json"), "w"))
    seg.merge_segments(idx, os.path.join(comp, "merged"))
    json.dump("seg-002", open(os.path.join(comp, "target.json"), "w"))
    for b in sources:
        os.rename(os.path.join(idx, b), os.path.join(comp, "trash", b))
    assert seg.segment_dirs(idx) == []  # the documented empty swap window

    new_seg = seg.compact_segments(idx)
    assert os.path.basename(new_seg) == "seg-002"
    assert seg.segment_dirs(idx) == [new_seg]
    assert not os.path.exists(comp)
    assert seg.merged_globals([new_seg]) == want
    shutil.rmtree(idx)


def test_add_between_compact_crash_and_resume_is_never_retired(tmp_path):
    """Reserved numbering across a compaction: after a mid-swap crash (all
    inputs trashed), an add_segment must NOT recycle a retired segment's
    name — and the resumed compaction must keep the fresh segment alive
    alongside the compacted one."""
    import json

    from osm_search_ray.pipelines import index_segments as seg

    idx = str(tmp_path / "idx")
    seg.add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    seg.add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    want_total = seg.merged_globals(seg.segment_dirs(idx))["docs_count"]

    # hand-build the crash state: plan + committed merge + target recorded
    # + inputs trashed, merged not yet renamed in
    comp = os.path.join(idx, ".compact")
    os.makedirs(os.path.join(comp, "trash"))
    sources = [os.path.basename(s) for s in seg.segment_dirs(idx)]
    json.dump(sources, open(os.path.join(comp, "plan.json"), "w"))
    seg.merge_segments(idx, os.path.join(comp, "merged"))
    json.dump("seg-002", open(os.path.join(comp, "target.json"), "w"))
    for b in sources:
        os.rename(os.path.join(idx, b), os.path.join(comp, "trash", b))

    # an add lands BETWEEN crash and resume: it must pick seg-003, not
    # reuse seg-000/001 (trashed) or seg-002 (the recorded target)
    fresh = seg.add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    assert os.path.basename(fresh) == "seg-003"
    fresh_docs = seg.merged_globals([fresh])["docs_count"]

    new_seg = seg.compact_segments(idx)
    assert os.path.basename(new_seg) == "seg-002"
    assert sorted(os.path.basename(s) for s in seg.segment_dirs(idx)) == ["seg-002", "seg-003"]
    g = seg.merged_globals(seg.segment_dirs(idx))
    assert g["docs_count"] == want_total + fresh_docs  # nothing lost, nothing doubled


def test_compact_swap_crash_injection_every_rename(tmp_path, monkeypatch):
    """Kill the swap at EVERY os.rename it performs (one run per crash
    point, restored from a snapshot of the committed-merge state) and
    verify an un-injected re-run always converges to the same compacted
    index with exact doc counts — the 'idempotent at any crash point'
    claim, tested rather than asserted."""
    import json
    import shutil

    from osm_search_ray.pipelines import index_segments as seg

    base = str(tmp_path / "base")
    seg.add_segment(base, _half(0), {"text": 0}, in_ram=True)
    seg.add_segment(base, _half(1), {"text": 0}, in_ram=True)
    want = seg.merged_globals(seg.segment_dirs(base))
    # reach the committed-merge, pre-swap state once (the expensive part)
    comp = os.path.join(base, ".compact")
    os.makedirs(comp)
    sources = [os.path.basename(s) for s in seg.segment_dirs(base)]
    json.dump(sources, open(os.path.join(comp, "plan.json"), "w"))
    seg.merge_segments(base, os.path.join(comp, "merged"))

    real_rename = os.rename
    # swap performs 4 renames (2 trash moves, merged→target, .compact→tombstone)
    for crash_at in range(1, 6):
        idx = str(tmp_path / f"idx{crash_at}")
        shutil.copytree(base, idx)
        calls = {"n": 0}

        def boom(src, dst, _c=calls, _k=crash_at):
            _c["n"] += 1
            if _c["n"] == _k:
                raise RuntimeError("injected crash")
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", boom)
        try:
            seg.compact_segments(idx)
            crashed = False
        except RuntimeError:
            crashed = True
        finally:
            monkeypatch.setattr(os, "rename", real_rename)
        assert crashed == (crash_at <= 4), crash_at
        if crashed:
            seg.compact_segments(idx)  # resume
        live = seg.segment_dirs(idx)
        assert [os.path.basename(s) for s in live] == ["seg-002"], crash_at
        assert seg.merged_globals(live) == want, crash_at
        assert not os.path.exists(os.path.join(idx, ".compact")), crash_at
        assert not os.path.exists(os.path.join(idx, ".compact.done")), crash_at
        # a SECOND compaction must refuse cleanly (one segment), never
        # retire live data against stale state — the review-found hazard
        import pytest as _pytest

        with _pytest.raises(ValueError):
            seg.compact_segments(idx)
        assert seg.segment_dirs(idx) == live, crash_at


def test_segmented_session_actor_refresh(tmp_path):
    """The named-actor wrapper: refresh() reaches the resident core."""
    from osm_search_ray.pipelines.index_segments import add_segment
    from osm_search_ray.serving import start_segmented_session

    idx = str(tmp_path / "idx")
    add_segment(idx, _half(0), {"text": 0}, in_ram=True)
    s = start_segmented_session(idx, name="seg-test-session")
    q = [{"query_id": 7, "text": "batch stream", "scoring": "BM25_PLUS", "top_k": 5}]
    n1 = len(s.search(q)["doc_id"])
    add_segment(idx, _half(1), {"text": 0}, in_ram=True)
    assert s.refresh() == 2
    r = pd.DataFrame(s.search(q))
    assert len(r) >= n1 and (r["query_id"] == 7).all()
    s.stop()
