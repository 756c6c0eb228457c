"""Resumable end-to-end index build — the `ray job submit` entry point.

    python jobs/build_index.py --osm-dir /tmp/osm --out /tmp/index_out

Stages (each writes per-partition Parquet + a lineage manifest via
sources/checkpoint.py; a killed run re-submitted with the same arguments
skips completed partitions):

  1. ingest   nodes/ways/relations → docs (deterministic doc ids)
  2. enrich   J3 address enrichment against relation boundaries
  3. tiles    docs keyed to grid cells, checkpointed by coarse cell
  4. text     inverted-index artifacts (terms/postings/stats Parquet)
  5. lm       4-gram LM counts Parquet

Owns its Ray session (guarded) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--osm-dir", required=True, help="dir with nodes/ways/relations parquet")
    ap.add_argument("--out", required=True)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--fail-at", type=int, default=None, help="inject failure at tile partition (resume testing)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    from osm_search_ray.functions.cells import RES_COARSE, cell_of
    from osm_search_ray.pipelines import ingest as ing
    from osm_search_ray.pipelines import text_index as ti
    from osm_search_ray.sources import checkpoint as cp
    from osm_search_ray.sources.readers import read_pq

    nodes = read_pq(f"{args.osm_dir}/nodes.parquet")
    ways = read_pq(f"{args.osm_dir}/ways.parquet")
    rels = read_pq(f"{args.osm_dir}/relations.parquet")

    docs_dir = os.path.join(args.out, "docs")
    if cp.stage_complete(docs_dir):
        # skip ONLY on the explicit whole-stage marker — a non-empty
        # completed_keys() after a crash means *some* partitions finished,
        # not the stage (ADVICE r01: the old guard silently resumed over an
        # incomplete corpus)
        print(f"docs stage: {len(cp.completed_keys(docs_dir))} partitions already complete")
    else:
        docs, boundaries, streets = ing.ingest_documents(nodes, ways, rels)
        boundaries_pd = boundaries.to_pandas()
        enriched = ing.enrich_addresses(docs, boundaries_pd, streets.to_pandas())

        import pyarrow as pa

        def add_cell(batch: pa.Table) -> pa.Table:
            c = cell_of(batch.column("lat").to_numpy(), batch.column("lon").to_numpy(), RES_COARSE)
            return batch.append_column("cell", pa.array(c))

        tiled = enriched.map_batches(add_cell, batch_format="pyarrow")
        fail = {args.fail_at} if args.fail_at is not None else None
        # checkpointed_write prunes already-finished partitions cheaply, so
        # a resume re-runs the (lazy) upstream compute but rewrites nothing
        rows = cp.checkpointed_write(tiled, docs_dir, "cell", stage="docs_tiles", fail_on_keys=fail)
        cp.mark_stage_complete(docs_dir, "docs_tiles")
        print(f"docs stage: wrote {len(rows)} partitions")

    docs_back = cp.read_checkpointed(docs_dir)

    text_dir = os.path.join(args.out, "text_index")
    if not os.path.exists(os.path.join(text_dir, "globals.json")):
        # distributed build + bucketed write: postings never collect to the
        # driver (term dict is O(vocab), the reference's own in-RAM budget)
        idx_ds = ti.build_text_index_ds(
            docs_back.map_batches(lambda t: t.select(["doc_id", "name", "address"]), batch_format="pyarrow")
        )
        ti.save_text_index_ds(idx_ds, text_dir)
        print(f"text stage: {idx_ds.n_terms} terms")
    else:
        print("text stage: already complete")

    lm_dir = os.path.join(args.out, "ngrams")
    if not cp.stage_complete(os.path.join(lm_dir, "counts")):
        # all-Dataset counting (state/lm.build_ngram_counts_ds — nothing
        # vocab- or gram-sized on the driver) → gram-hash-bucketed
        # checkpointed store, resumable like every other stage
        from osm_search_ray.state.lm import build_ngram_counts_ds, save_ngram_counts_ds

        counts_ds, wc_ds = build_ngram_counts_ds(docs_back)
        save_ngram_counts_ds(counts_ds, wc_ds, lm_dir)
        print(f"lm stage: {counts_ds.count()} distinct (n, gram) counts")
    else:
        print("lm stage: already complete")

    print("BUILD COMPLETE")
    ray.shutdown()


if __name__ == "__main__":
    main()
