"""Data-volume scaling ladder — does pipeline wall time grow ~linearly in
corpus size at fixed parallelism? (The 100 TB question the per-CPU ladder
can't answer; VERDICT r1-r4 asked for scale-shape evidence per operator.)

Synthesizes k× corpora from the sf-dir ``documents`` table (doc_id-offset
replicas with deterministic ~10% token perturbation so near-dup density
stays realistic — exact dups exist between replicas, most pairs don't
collide), then times flagship pipelines at each scale in ONE Ray session
(caches cleared between scales so nothing is reused).

Usage:  python tools/bench_datascale.py [sf_dir] [scales...]
Prints one JSON line {pipeline: {scale: sec, ...}, ...} plus the fitted
log-log growth exponent per pipeline (1.0 = linear).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

# the checkout this script lives in, for the driver and (via runtime_env) every Ray worker
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray


def synth(sf_dir: str, k: int, out_dir: str) -> None:
    t = pq.read_table(f"{sf_dir}/documents.parquet")
    n = t.num_rows
    tables = [t]
    for rep in range(1, k):
        ids = t.column("doc_id").to_numpy() + rep * n
        texts = []
        for did, txt in zip(ids, t.column("text").to_pylist()):
            toks = txt.split()
            # keep a CONSTANT 2% of docs as exact cross-replica duplicates,
            # with clique size bounded at 16 replicas (real dup clusters
            # don't grow with corpus size; unbounded cliques make the pair
            # OUTPUT itself quadratic and trip the LSH hot-bucket guard)
            if toks and not (did % 50 == 0 and rep < 16):
                h = (np.arange(len(toks)) * 2654435761 + did * 40503) & 0xFFFFFFFF
                mask = (h % 10) < 4  # ~40% replica-specific tokens
                toks = np.asarray(toks, dtype=object)
                toks[mask] = np.array([f"r{rep}w{x % 9973}" for x in h[mask]], dtype=object)
                txt = " ".join(toks.tolist())
            texts.append(txt)
        tables.append(
            pa.table(
                {
                    "doc_id": pa.array(ids),
                    "text": pa.array(texts, pa.string()),
                    "lang": t.column("lang"),
                    "source": t.column("source"),
                    "n_chars": pa.array([len(x) for x in texts], pa.int64()),
                }
            )
        )
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.concat_tables(tables), f"{out_dir}/documents.parquet")


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    scales = [int(x) for x in sys.argv[2:]] or [1, 4, 16]

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from osm_search_ray.pipelines import dedup_pipelines as dp
    from osm_search_ray.pipelines import textops
    from osm_search_ray.sources import memo

    pipelines = {
        "token_counts": textops.token_counts,  # scan baseline
        "dedup_exact": dp.dedup_exact,
        "dedup_minhash": dp.dedup_minhash,
        "dedup_ngram_prefix": dp.dedup_ngram_prefix,
        "line_dedup": dp.line_dedup,
    }

    results: dict = {p: {} for p in pipelines}
    rows: dict = {}
    for k in scales:
        d = f"/tmp/osm_ray_datascale_{k}x"
        shutil.rmtree(d, ignore_errors=True)
        synth(sf_dir, k, d)
        rows[str(k)] = pq.read_metadata(f"{d}/documents.parquet").num_rows
        for name, fn in pipelines.items():
            if name == "dedup_minhash" and rows[str(k)] > 100_000:
                # the sf tables' ~30-word vocabulary makes every doc ~35%
                # Jaccard-similar to every other; past ~100k docs a single
                # band bucket legitimately exceeds LSH_BUCKET_CAP and the
                # loud hot-bucket guard fires (verified at 64×) — by
                # design, not a scaling failure
                results[name][str(k)] = {"sec": None, "out_rows": None, "skipped": "LSH_BUCKET_CAP guard (toy vocabulary)"}
                continue
            memo.clear()
            t0 = time.perf_counter()
            out = fn(d)
            n_out = out.materialize().count()
            results[name][str(k)] = {"sec": round(time.perf_counter() - t0, 2), "out_rows": n_out}
        shutil.rmtree(d, ignore_errors=True)

    # fitted log-log growth exponent (1.0 = linear in corpus size)
    exps = {}
    for name, r in results.items():
        pts = [(rows[s], r[s]["sec"]) for s in r if r[s]["sec"] is not None]
        if len(pts) < 2:
            continue
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        exps[name] = round(float(np.polyfit(xs, ys, 1)[0]), 2)

    print(json.dumps({"rows": rows, "pipelines": results, "growth_exponent": exps}))
    ray.shutdown()


if __name__ == "__main__":
    main()
