"""Batch query runner over a built index — the serving-side `ray job submit`
entry (the engine form of the reference's HTTP server boot,
/root/reference/pkg/di/wire_gen.go:27-62: load artifacts once, serve many).

    python jobs/run_queries.py --index /tmp/index_out --queries q.parquet \
        --kind search --out /tmp/results

kinds: search (free-form + spell correction), autocomplete, knn (nearest
docs to lat/lon query points), reverse (1-NN).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True, help="output dir of jobs/build_index.py")
    ap.add_argument("--queries", required=True, help="parquet with the query table")
    ap.add_argument("--kind", choices=["search", "autocomplete", "knn", "reverse"], default="search")
    ap.add_argument("--out", required=True)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines import search as search_mod
    from osm_search_ray.pipelines.text_index import load_text_index
    from osm_search_ray.sources import checkpoint as cp
    from osm_search_ray.sources.readers import read_pq
    from osm_search_ray.state.spell import SpellCorrector

    queries = read_pq(args.queries)

    if args.kind in ("search", "autocomplete"):
        index = load_text_index(os.path.join(args.index, "text_index"))
        # rebuild the LM state DISTRIBUTED from the docs artifacts (the old
        # form collected the whole corpus to the driver and tokenized it in
        # a Python loop). count_threshold=1 keeps the historical full-vocab
        # (no-<UNK>) behavior of this job, bit-for-bit.
        from osm_search_ray.state.lm import build_ngram_counts_ds, lm_from_counts_ds

        docs_ds = cp.read_checkpointed(os.path.join(args.index, "docs"), columns=["doc_id", "name", "address"])
        counts_ds, wc_ds = build_ngram_counts_ds(docs_ds, count_threshold=1)
        lm = lm_from_counts_ds(counts_ds, wc_ds, count_threshold=1)
        sc = SpellCorrector.build(set(index.terms["term"]), lm)
        if args.kind == "search":
            queries = search_mod.validate_queries(queries)
            res = search_mod.free_form_search(index, queries, corrector=sc)
        else:
            res = search_mod.autocomplete_search(sc, queries)
    else:
        from osm_search_ray.stages.knn import broadcast_knn

        docs = cp.read_checkpointed(os.path.join(args.index, "docs"), columns=["doc_id", "lat", "lon"])
        qt = pq.read_table(args.queries)
        k = 1 if args.kind == "reverse" else 10
        res = broadcast_knn(docs, qt, k=k)

    res.write_parquet(args.out)
    print(f"WROTE {args.out}")
    ray.shutdown()


if __name__ == "__main__":
    main()
