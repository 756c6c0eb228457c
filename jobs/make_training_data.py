"""Resumable end-to-end training-data pipeline — the composed LLM-data
flow as one `ray job submit` entry:

    python jobs/make_training_data.py --sf-dir /root/testdata/sf0.001 \
        --out /tmp/traindata [--budget 200] [--ctx 256] [--fail-at N]

Stages (each guarded by a stage-complete marker, so a killed run
re-submitted with the same arguments skips finished stages; the final
write is additionally resumable PER PARTITION through the checkpointed
sink):

  1. curate   — the cleaning funnel verdict per doc (pipelines/curate);
                only verdict == 'kept' survives.
  2. mix      — temperature-weighted language quotas over the KEPT subset
                (pipelines/traindata.mix_temperature with keep_ref).
  3. pack     — head-to-tail ctx-token window packing of the selected docs
                (pack_sequences with keep_ref).
  4. write    — window assignments joined back to text, written as
                window-bucket-partitioned Parquet with per-partition
                lineage manifests (sources/checkpoint.checkpointed_write).

Owns its Ray session (guarded) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WINDOWS_PER_BUCKET = 16


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=int, default=200)
    ap.add_argument("--ctx", type=int, default=256)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--fail-at", type=int, default=None, help="inject failure at window bucket (resume testing)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines import curate as cu
    from osm_search_ray.pipelines import traindata as td
    from osm_search_ray.sources import checkpoint as cp
    from osm_search_ray.sources.readers import read_pq

    os.makedirs(args.out, exist_ok=True)
    curate_dir = os.path.join(args.out, "curate")
    mix_dir = os.path.join(args.out, "mix")
    pack_dir = os.path.join(args.out, "pack")
    data_dir = os.path.join(args.out, "data")

    def _write_stage(dir_: str, name: str, table: "pa.Table") -> None:
        os.makedirs(dir_, exist_ok=True)
        tmp = os.path.join(dir_, f".tmp-{name}.parquet")
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(dir_, f"{name}.parquet"))
        cp.mark_stage_complete(dir_, name)

    # ---- stage 1: curate -------------------------------------------------
    if cp.stage_complete(curate_dir):
        print("curate: SKIP (stage complete)")
    else:
        verdicts = cu.curate_corpus(args.sf_dir)
        vdf = verdicts if not hasattr(verdicts, "to_pandas") else verdicts.to_pandas()
        vt = pa.Table.from_pandas(vdf, preserve_index=False)
        _write_stage(curate_dir, "verdicts", vt)
        print(f"curate: {vt.num_rows} verdicts")
    vt = pq.read_table(os.path.join(curate_dir, "verdicts.parquet"))
    kept_mask = np.asarray(vt.column("verdict").to_pandas() == "kept")
    kept_ids = np.sort(vt.column("doc_id").to_numpy()[kept_mask]).astype(np.int64)
    kept_ref = ray.put(kept_ids)

    # ---- stage 2: mix ----------------------------------------------------
    if cp.stage_complete(mix_dir):
        print("mix: SKIP (stage complete)")
    else:
        sel = td.mix_temperature(args.sf_dir, budget=args.budget, keep_ref=kept_ref)
        _write_stage(mix_dir, "selected", pa.Table.from_pandas(sel, preserve_index=False))
        print(f"mix: {len(sel)} selected across {sel['lang'].nunique()} languages")
    sel_t = pq.read_table(os.path.join(mix_dir, "selected.parquet"))
    sel_ids = np.sort(sel_t.column("doc_id").to_numpy()).astype(np.int64)
    sel_ref = ray.put(sel_ids)

    # ---- stage 3: pack ---------------------------------------------------
    if cp.stage_complete(pack_dir):
        print("pack: SKIP (stage complete)")
    else:
        windows = td.pack_sequences(args.sf_dir, ctx=args.ctx, keep_ref=sel_ref)
        wt = pa.concat_tables(
            list(windows.iter_batches(batch_size=None, batch_format="pyarrow"))
        )
        _write_stage(pack_dir, "windows", wt)
        print(f"pack: {wt.num_rows} docs into {len(set(wt.column('window_id').to_pylist()))} windows")
    wt = pq.read_table(os.path.join(pack_dir, "windows.parquet"))

    # ---- stage 4: write (per-partition resumable) ------------------------
    if cp.stage_complete(data_dir):
        print("write: SKIP (stage complete)")
    else:
        win_by_doc = {
            int(d): (int(w), int(s), int(o))
            for d, w, s, o in zip(
                wt.column("doc_id").to_pylist(),
                wt.column("window_id").to_pylist(),
                wt.column("start_in_window").to_pylist(),
                wt.column("start_off").to_pylist(),
            )
        }
        win_ref = ray.put(win_by_doc)

        def attach(batch: pa.Table) -> pa.Table:
            wb = ray.get(win_ref)
            ids = batch.column("doc_id").to_numpy()
            keep = np.array([int(i) in wb for i in ids], bool)
            batch = batch.filter(pa.array(keep))
            ids = batch.column("doc_id").to_numpy()
            rows = [wb[int(i)] for i in ids]
            wid = np.array([r[0] for r in rows], np.int64)
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "text": batch.column("text"),
                    "window_id": pa.array(wid),
                    "start_in_window": pa.array(np.array([r[1] for r in rows], np.int64)),
                    "start_off": pa.array(np.array([r[2] for r in rows], np.int64)),
                    "window_bucket": pa.array(wid // WINDOWS_PER_BUCKET),
                }
            )

        ds = read_pq(
            f"{args.sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).map_batches(attach, batch_format="pyarrow")
        fail_on = {args.fail_at} if args.fail_at is not None else None
        cp.checkpointed_write(ds, data_dir, "window_bucket", stage="traindata", fail_on_keys=fail_on)
        cp.mark_stage_complete(data_dir, "traindata")
        print("write: done")

    done = sorted(cp.completed_keys(data_dir), key=str)
    print(f"RESULT buckets={len(done)}")


if __name__ == "__main__":
    main()
