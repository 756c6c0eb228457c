"""Incremental text-index update — the segment lifecycle as a
`ray job submit` entry point (the maintenance job the reference lacks: its
indexer is a one-shot whole-corpus rebuild, /root/reference/cmd/indexing/
main.go).

    # index new documents as the next segment (O(new docs)):
    python jobs/update_index.py --index /tmp/idx add --docs new_docs.parquet

    # compact all segments into one store (no re-tokenization):
    python jobs/update_index.py --index /tmp/idx merge --out /tmp/idx_merged

    # sanity: cross-segment point read for some tokens
    python jobs/update_index.py --index /tmp/idx query --tokens batch,stream

Both add and merge write through the checkpointed sink, so a killed run
re-submitted with the same arguments resumes inside the segment/output
directory it was building. Owns its Ray session (guarded) — library code
never calls ray.init.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True, help="segmented index root (seg-NNN dirs)")
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_add = sub.add_parser("add", help="index a docs parquet as the next segment")
    p_add.add_argument("--docs", required=True, help="parquet with (doc_id, text)")
    p_add.add_argument("--text-col", default="text")
    p_merge = sub.add_parser("merge", help="compact all segments into one store")
    p_merge.add_argument("--out", required=True)
    sub.add_parser("compact", help="IN-PLACE compaction: merge committed segments into one new segment and retire the inputs (crash-safe; live cores pick it up via refresh())")
    p_query = sub.add_parser("query", help="cross-segment point read")
    p_query.add_argument("--tokens", required=True, help="comma-separated tokens")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from osm_search_ray.pipelines import index_segments as seg
    from osm_search_ray.sources.readers import read_pq

    if args.cmd == "add":
        docs = read_pq(args.docs, columns=["doc_id", args.text_col])
        new_seg = seg.add_segment(args.index, docs, {args.text_col: 0})
        g = seg.merged_globals([new_seg])
        print(f"added {new_seg}: {g['docs_count']} docs")
        print(f"index now: {len(seg.segment_dirs(args.index))} segments, "
              f"{seg.merged_globals(seg.segment_dirs(args.index))['docs_count']} docs total")
    elif args.cmd == "merge":
        seg.merge_segments(args.index, args.out)
        g = seg.merged_globals([args.out])
        print(f"merged {len(seg.segment_dirs(args.index))} segments -> {args.out}: "
              f"{g['docs_count']} docs")
    elif args.cmd == "compact":
        new_seg = seg.compact_segments(args.index)
        g = seg.merged_globals(seg.segment_dirs(args.index))
        print(f"compacted -> {new_seg}; index now: "
              f"{len(seg.segment_dirs(args.index))} segment(s), {g['docs_count']} docs")
    else:
        toks = [t for t in args.tokens.split(",") if t]
        ids, posts, g = seg.segmented_point_query(args.index, toks)
        print(f"{len(ids)}/{len(toks)} tokens found over {g['docs_count']} docs; "
              f"{len(posts)} postings rows")
        for t in sorted(ids):
            qid = ids[t]
            print(f"  {t}: df={posts[posts['term_id'] == qid]['doc_id'].nunique()}")

    ray.shutdown()


if __name__ == "__main__":
    main()
