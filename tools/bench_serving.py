"""Serving-regime benchmark — the engine's number against the reference's
load-test baseline (BASELINE.md: 511 rps, p95 1.2 ms, k6 against the
resident HTTP searcher with an in-RAM Jabodetabek index).

Measures BOTH session shapes over the sf-dir ``documents`` two-field index:
  * in-RAM  (serving.start_session / SearchCore — the reference's regime)
  * on-disk (serving.start_disk_session / DiskSearchCore — pruned point
    reads per request, the shape for indexes that exceed RAM)
and two request patterns:
  * per-request round-trips (sequential; p50/p95 latency + derived rps)
  * batched submission (one actor call per 100-query batch — the engine's
    natural high-throughput form; reported as queries/s)

Usage:  python tools/bench_serving.py [sf_dir] [n_requests]
Prints one JSON line. Owns a guarded Ray session (tools convention)."""

from __future__ import annotations

import json
import os
import sys
import time

# the checkout this script lives in, for the driver and (via runtime_env) every Ray worker
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np
import ray


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    n_req = int(sys.argv[2]) if len(sys.argv) > 2 else 400

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})

    from osm_search_ray.pipelines import text_index as ti
    from osm_search_ray.pipelines.search_docs import FIELD_QUERIES, SPELL_QUERIES, _lm_state
    from osm_search_ray.serving import start_disk_session, start_segmented_session, start_session
    from osm_search_ray.sources.readers import read_pq

    t0 = time.perf_counter()
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"])
    index = ti.build_text_index(ds, text_cols={"text": 0, "source": 1})
    _, corrector = _lm_state(sf_dir)
    store_dir = "/tmp/osm_search_ray_bench_serving_store"
    ti.save_text_index(index, store_dir)
    build_s = time.perf_counter() - t0

    # two pools, measured separately: in-vocab queries (the reference's k6
    # body is a clean in-vocab phrase) and typo'd queries, which pay the
    # OOV Levenshtein+LM correction on every request; each pool cycles all
    # three scoring modes the reference serves
    def mk_pool(src):
        pool = []
        for _, text in src:
            for scoring in ("BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE"):
                pool.append({"query_id": len(pool), "text": text, "scoring": scoring, "top_k": 10, "offset": 0})
        return pool

    pools = {"invocab": mk_pool(FIELD_QUERIES), "typo": mk_pool(SPELL_QUERIES)}

    results: dict = {"sf_dir": sf_dir, "n_requests": n_req, "build_s": round(build_s, 2)}
    # segmented store: the same corpus as two doc_id-parity segments — the
    # incremental-index serving shape (per-request point reads hit BOTH
    # segments' readers; measures the cross-segment overhead vs "disk")
    import pyarrow.compute as pc

    from osm_search_ray.pipelines.index_segments import add_segment

    seg_dir = "/tmp/osm_search_ray_bench_serving_segstore"
    import shutil

    shutil.rmtree(seg_dir, ignore_errors=True)
    for par in (0, 1):
        half = ds.map_batches(
            lambda t, p=par: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )
        add_segment(seg_dir, half, {"text": 0, "source": 1}, in_ram=True)

    sessions = {
        "ram": start_session(index, corrector=corrector, name="bench-ram"),
        "disk": start_disk_session(store_dir, corrector, name="bench-disk"),
        "seg": start_segmented_session(seg_dir, corrector, name="bench-seg"),
    }
    for label, sess in sessions.items():
        results[label] = {}
        for pname, pool in pools.items():
            sess.search(pool)  # warm + answers guard
            lat = np.empty(n_req)
            for i in range(n_req):
                t = time.perf_counter()
                sess.search([pool[i % len(pool)]])
                lat[i] = time.perf_counter() - t
            batch = (pool * (100 // len(pool) + 1))[:100]
            tb = time.perf_counter()
            reps = 20
            for _ in range(reps):
                sess.search(batch)
            batch_qps = reps * len(batch) / (time.perf_counter() - tb)
            results[label][pname] = {
                "rps_sequential": round(1.0 / lat.mean(), 1),
                "p50_ms": round(float(np.percentile(lat, 50)) * 1000, 2),
                "p95_ms": round(float(np.percentile(lat, 95)) * 1000, 2),
                "batched_qps": round(batch_qps, 1),
            }
        sess.stop()

    # HTTP facade end-to-end (the reference's k6 shape: GET /api/search
    # against the resident in-RAM searcher) — parse + search + JSON serialize
    from urllib.parse import quote
    from urllib.request import urlopen

    from osm_search_ray.serving_http import ServingApp, start_http_server

    sess = start_session(index, corrector=corrector, name="bench-http")
    server, port = start_http_server(ServingApp(sess))
    results["http"] = {}
    for pname, pool in pools.items():
        urls = [
            f"http://127.0.0.1:{port}/api/search?q={quote(pool[i % len(pool)]['text'])}"
            for i in range(n_req)
        ]
        for u in urls[:10]:  # warm
            urlopen(u, timeout=30).read()
        lat = np.empty(n_req)
        for i, u in enumerate(urls):
            t = time.perf_counter()
            urlopen(u, timeout=30).read()
            lat[i] = time.perf_counter() - t
        results["http"][pname] = {
            "rps_sequential": round(1.0 / lat.mean(), 1),
            "p50_ms": round(float(np.percentile(lat, 50)) * 1000, 2),
            "p95_ms": round(float(np.percentile(lat, 95)) * 1000, 2),
        }
    server.shutdown()
    sess.stop()
    print(json.dumps(results))


if __name__ == "__main__":
    main()
