"""Per-partition checkpointed Parquet sink with lineage manifests
(north rule: a killed run resumes without recomputing finished partitions).

Layout per stage:

    <out_dir>/part=<key>/data.parquet        one atomic file per partition
    <out_dir>/_manifest.jsonl                one row per COMPLETED partition:
        {stage, partition_key, input_lineage_hash, row_count, byte_count,
         wall_ms, status}

Write protocol (idempotent, retry-safe, crash-safe):
  1. partition data is written to ``part=<key>/.tmp-data.parquet``
  2. os.replace → ``data.parquet``  (atomic on POSIX)
  3. the WORKER writes ``part=<key>/manifest.json`` via tmp+rename — the
     per-partition completion record survives a driver crash, so a killed
     run loses at most in-flight partitions, never finished ones
  4. the driver compacts the finished partitions into ``_manifest.jsonl``
  5. a failed partition is recorded and raised after its siblings commit:
     each partition is its own failure domain, whatever the task layout

Resume protocol:
  ``completed_keys()`` reads the compacted manifest AND the sidecars; the
  driver filters finished partition keys out of the input BEFORE launching
  the stage, so completed partitions cost one set-lookup per batch, not a
  recompute.

The reference has no checkpointing at all — any crash restarts indexing
from zero (SURVEY.md §4; /root/reference/cmd/indexing/main.go:47-49).
"""

from __future__ import annotations

import json
import os
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .readers import read_pq


def _sorted_bytes(col: pa.Array) -> bytes:
    """The non-null values of ``col`` in sorted order, as bytes that do
    not depend on the process (values, never object addresses)."""
    if pa.types.is_nested(col.type):  # no Arrow sort order
        return repr(sorted(map(repr, col.drop_null().to_pylist()))).encode()
    vals = col.take(pc.sort_indices(col)).drop_null().to_numpy(zero_copy_only=False)
    if vals.dtype.kind == "f":
        vals = vals + 0.0  # -0.0 sorts level with 0.0: give both one byte form
    return repr(vals.tolist()).encode() if vals.dtype == object else vals.tobytes()


def _lineage_hash(t: pa.Table) -> str:
    """Content hash of a partition: each column's values hashed in sorted
    order, so it is row-order independent and the same in every process."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(t.column_names):
        col = t.column(name).combine_chunks()
        h.update(f"{name}\x1f{col.type}\x1f{col.null_count}\x1e".encode())
        h.update(_sorted_bytes(col))
    return h.hexdigest()[:16]


def assert_shared_visible(out_dir: str) -> None:
    """Refuse multi-node runs whose ``out_dir`` is not a shared mount:
    drops a token on the driver and probes it from every alive node (one
    NodeAffinity zero-cpu task each). Single-node clusters return without
    spawning anything. Partition writes happen INSIDE Ray workers with
    plain filesystem I/O — on a multi-node cluster without a shared
    filesystem (NFS / FUSE object-store mount) they would land on each
    worker's local disk silently (ADVICE r02, generalized from
    refresh_tiles to every checkpointed sink)."""
    import uuid

    import ray

    nodes = [n for n in ray.nodes() if n.get("Alive")]
    if len(nodes) <= 1:
        return
    os.makedirs(out_dir, exist_ok=True)
    token = os.path.join(out_dir, f".shared-probe-{uuid.uuid4().hex}")
    with open(token, "w") as f:
        f.write("probe")
    try:
        from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

        @ray.remote(num_cpus=0)
        def probe(path: str) -> bool:
            return os.path.exists(path)

        results = ray.get(
            [
                probe.options(
                    scheduling_strategy=NodeAffinitySchedulingStrategy(node_id=n["NodeID"], soft=False)
                ).remote(token)
                for n in nodes
            ]
        )
        if not all(results):
            raise RuntimeError(
                f"{out_dir!r} is not visible from every node — the checkpointed sink "
                "needs a shared filesystem (NFS / FUSE object-store mount) on "
                "multi-node clusters"
            )
    finally:
        os.remove(token)


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest.jsonl")


def stage_complete(out_dir: str) -> bool:
    """True only when a prior run finished the WHOLE stage (marker written
    by ``mark_stage_complete`` after ``checkpointed_write`` returned).

    Partition-level sidecars alone are NOT completion evidence: a crashed
    run leaves finished partitions behind, and a resume that skipped the
    stage because ``completed_keys()`` was non-empty would silently build
    downstream artifacts over an incomplete corpus (ADVICE r01, high)."""
    return os.path.exists(os.path.join(out_dir, "_STAGE_COMPLETE.json"))


def mark_stage_complete(out_dir: str, stage: str) -> None:
    """Write the stage-complete marker atomically (tmp + rename).

    Call only after ``checkpointed_write`` returned without raising; the
    marker records the final partition-key set for auditability."""
    keys = sorted(completed_keys(out_dir), key=str)
    tmp = os.path.join(out_dir, ".tmp-_STAGE_COMPLETE.json")
    with open(tmp, "w") as f:
        json.dump({"stage": stage, "partitions": keys, "completed_at": time.time()}, f)
    os.replace(tmp, os.path.join(out_dir, "_STAGE_COMPLETE.json"))


def completed_keys(out_dir: str) -> set:
    done = set()
    mp = manifest_path(out_dir)
    if os.path.exists(mp):
        with open(mp) as f:
            for line in f:
                row = json.loads(line)
                if row.get("status") == "done":
                    done.add(row["partition_key"])
    # sidecars from a crashed run (not yet compacted into _manifest.jsonl)
    import glob

    for side in glob.glob(os.path.join(out_dir, "part=*", "manifest.json")):
        with open(side) as f:
            row = json.load(f)
        if row.get("status") == "done":
            done.add(row["partition_key"])
    return done


def checkpointed_write(
    ds,
    out_dir: str,
    partition_col: str,
    stage: str = "stage",
    fail_on_keys: set | None = None,
) -> list[dict]:
    """Write ``ds`` partitioned by ``partition_col``, skipping partitions
    already in the manifest. Returns the manifest rows written this run.

    One exchange hands each partition to the writer as an Arrow table,
    written as is. A partition whose write fails does not stop its
    siblings: every other partition commits, then ``RuntimeError`` names
    the failed keys. ``fail_on_keys`` injects such a failure — used by the
    kill/resume tests to simulate a mid-run crash."""
    os.makedirs(out_dir, exist_ok=True)
    assert_shared_visible(out_dir)
    done = completed_keys(out_dir)

    # prune completed partitions BEFORE the exchange (cheap set lookup)
    if done:
        done_arr = pa.array(sorted(done))

        def prune(batch: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(batch.column(partition_col), value_set=done_arr))
            return batch.filter(mask)

        ds = ds.map_batches(prune, batch_format="pyarrow")

    def write_group(g: pa.Table) -> pa.Table:
        col = g.column(partition_col)
        key = col[0].as_py() if pa.types.is_integer(col.type) else str(col[0].as_py())
        pdir = os.path.join(out_dir, f"part={key}")
        t0 = time.time()
        try:
            os.makedirs(pdir, exist_ok=True)
            tmp, final = os.path.join(pdir, ".tmp-data.parquet"), os.path.join(pdir, "data.parquet")
            pq.write_table(g, tmp)
            if fail_on_keys and key in fail_on_keys:
                raise RuntimeError(f"injected failure at partition {key}")
            os.replace(tmp, final)
            row = {
                "stage": stage,
                "partition_key": key,
                "input_lineage_hash": _lineage_hash(g),
                "row_count": g.num_rows,
                "byte_count": os.path.getsize(final),
                "wall_ms": int((time.time() - t0) * 1000),
                "status": "done",
            }
            # per-partition sidecar: completion survives a driver crash
            side_tmp = os.path.join(pdir, ".tmp-manifest.json")
            with open(side_tmp, "w") as f:
                json.dump(row, f)
            os.replace(side_tmp, os.path.join(pdir, "manifest.json"))
        except Exception:  # the failure stops this partition only
            row = {"partition_key": key, "status": "failed", "error": traceback.format_exc()}
        return pa.table({"row": [json.dumps(row)]})

    results = ds.groupby(partition_col).map_groups(write_group, batch_format="pyarrow").take_all()
    results = [json.loads(r["row"]) for r in results]
    rows = [r for r in results if r["status"] == "done"]
    with open(manifest_path(out_dir), "a") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    failed = [r for r in results if r["status"] != "done"]
    if failed:
        raise RuntimeError(
            f"checkpointed_write({stage!r}): {len(failed)} partition(s) failed, "
            f"keys {sorted(r['partition_key'] for r in failed)}; first error:\n{failed[0]['error']}"
        )
    return rows


def read_checkpointed(out_dir: str, columns: list[str] | None = None):
    """Read back only COMPLETED partitions (manifest-driven)."""
    files = [
        os.path.join(out_dir, f"part={k}", "data.parquet")
        for k in sorted(completed_keys(out_dir), key=str)
    ]
    files = [f for f in files if os.path.exists(f)]
    return read_pq(files, columns=columns)
