"""Checkpoint/resume (kill + re-submit) and raster↔vector round-trip tests."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from osm_search_ray.sources import checkpoint as cp


def _docs(n=500):
    rng = np.random.default_rng(5)
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "part_key": rng.integers(0, 8, n).astype(np.int64),
            "value": rng.normal(size=n),
        }
    )


class TestCheckpointResume:
    def test_write_then_resume_skips_done(self, tmp_path):
        out = str(tmp_path / "stage1")
        df = _docs()
        rows = cp.checkpointed_write(ray.data.from_pandas(df), out, "part_key", stage="s1")
        assert len(rows) == 8
        assert cp.completed_keys(out) == set(range(8))
        mtimes = {k: os.path.getmtime(f"{out}/part={k}/data.parquet") for k in range(8)}

        # re-run: nothing recomputed, no new manifest rows
        rows2 = cp.checkpointed_write(ray.data.from_pandas(df), out, "part_key", stage="s1")
        assert rows2 == []
        for k in range(8):
            assert os.path.getmtime(f"{out}/part={k}/data.parquet") == mtimes[k]

        back = cp.read_checkpointed(out).to_pandas()
        assert len(back) == len(df)
        assert set(back["doc_id"]) == set(df["doc_id"])

    def test_kill_and_resume(self, tmp_path):
        """Injected failure mid-run; resume completes only the missing
        partitions and the final output is identical to a clean run."""
        out = str(tmp_path / "stage2")
        df = _docs()
        with pytest.raises(Exception):
            cp.checkpointed_write(ray.data.from_pandas(df), out, "part_key", stage="s2", fail_on_keys={5})
        done_after_crash = cp.completed_keys(out)
        assert 5 not in done_after_crash
        assert len(done_after_crash) >= 1  # sidecars survived the crash

        mtimes = {k: os.path.getmtime(f"{out}/part={k}/data.parquet") for k in done_after_crash}
        rows = cp.checkpointed_write(ray.data.from_pandas(df), out, "part_key", stage="s2")
        resumed = {r["partition_key"] for r in rows}
        assert 5 in resumed
        assert resumed.isdisjoint(done_after_crash)  # finished parts not recomputed
        for k in done_after_crash:
            assert os.path.getmtime(f"{out}/part={k}/data.parquet") == mtimes[k]

        back = cp.read_checkpointed(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            back[["doc_id", "value"]], df.sort_values("doc_id").reset_index(drop=True)[["doc_id", "value"]]
        )

    def test_manifest_records_metrics(self, tmp_path):
        out = str(tmp_path / "stage3")
        cp.checkpointed_write(ray.data.from_pandas(_docs(100)), out, "part_key", stage="s3")
        with open(cp.manifest_path(out)) as f:
            rows = [json.loads(l) for l in f]
        for r in rows:
            assert r["stage"] == "s3"
            assert r["row_count"] > 0 and r["byte_count"] > 0
            assert len(r["input_lineage_hash"]) == 16
            assert r["status"] == "done"

    def test_deterministic_lineage(self, tmp_path):
        """Same input → same lineage hashes across runs (resume validity)."""
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        df = _docs(200)
        r1 = cp.checkpointed_write(ray.data.from_pandas(df), out1, "part_key")
        r2 = cp.checkpointed_write(ray.data.from_pandas(df.sample(frac=1, random_state=1)), out2, "part_key")
        h1 = {r["partition_key"]: r["input_lineage_hash"] for r in r1}
        h2 = {r["partition_key"]: r["input_lineage_hash"] for r in r2}
        assert h1 == h2  # row-order independent
        signed = pa.table({"x": pa.array([0.0, -0.0, 1.0])})
        assert cp._lineage_hash(signed) == cp._lineage_hash(signed.take([1, 0, 2]))

    def test_partition_files_keep_input_schema(self, tmp_path):
        """Each partition file has the input's Arrow schema: an int64
        column with nulls in one partition stays int64 (not double), and
        nested, binary and timestamp columns keep their types."""
        import glob

        import pyarrow.parquet as pq

        n = 60
        t = pa.table(
            {
                "key": pa.array([f"k{i % 3}" for i in range(n)], pa.string()),
                "cnt": pa.array([None if i % 3 == 0 and i % 2 else i for i in range(n)], pa.int64()),
                "ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_003, pa.timestamp("us")),
                "ids": pa.array([list(range(i % 4)) for i in range(n)], pa.list_(pa.int64())),
                "blob": pa.array([bytes([i % 256]) * (i % 5) for i in range(n)], pa.binary()),
                "name": pa.array([f"n{i}" for i in range(n)], pa.string()),
            }
        )
        out = str(tmp_path / "schema")
        cp.checkpointed_write(ray.data.from_arrow(t), out, "key", stage="schema")
        assert cp.completed_keys(out) == {"k0", "k1", "k2"}
        files = sorted(glob.glob(f"{out}/part=*/data.parquet"))
        assert [os.path.basename(os.path.dirname(f)) for f in files] == ["part=k0", "part=k1", "part=k2"]
        assert pq.read_table(files[0]).column("cnt").null_count > 0
        for f in files:
            assert pq.read_schema(f).remove_metadata() == t.schema
        back = pa.concat_tables(pq.read_table(f) for f in files).sort_by("name")
        assert back.equals(t.sort_by("name"))

    def test_one_task_failure_stops_only_its_partition(self, tmp_path):
        """A one-block input puts every partition in one write task; a
        failure on one key still lets every sibling commit, and a resume
        rewrites only the failed key."""
        df = _docs()
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        assert ds.num_blocks() == 1
        out = str(tmp_path / "domain")
        victim = int(df["part_key"].min())
        with pytest.raises(RuntimeError, match=rf"keys \[{victim}\]"):
            cp.checkpointed_write(ds, out, "part_key", stage="s4", fail_on_keys={victim})
        done = cp.completed_keys(out)
        assert done == set(df["part_key"].unique()) - {victim}
        with open(cp.manifest_path(out)) as f:
            assert {json.loads(l)["partition_key"] for l in f} == done
        mtimes = {k: os.stat(f"{out}/part={k}/data.parquet").st_mtime_ns for k in done}

        rows = cp.checkpointed_write(ds, out, "part_key", stage="s4")
        assert [r["partition_key"] for r in rows] == [victim]
        for k in done:
            assert os.stat(f"{out}/part={k}/data.parquet").st_mtime_ns == mtimes[k]
        back = cp.read_checkpointed(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(back[list(df.columns)], df)

    def test_lineage_hash_stable_across_processes(self):
        """The hash of a string-column partition is the same in two fresh
        interpreters (it hashes values, never object addresses)."""
        import subprocess
        import sys

        code = (
            "import pyarrow as pa\n"
            "from osm_search_ray.sources.checkpoint import _lineage_hash\n"
            "t = pa.table({'k': pa.array([3, 1, 2, 1]), 'url': pa.array(['https://x/' + str(i) * i for i in range(4)])})\n"
            "print(_lineage_hash(t))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hashes = [
            subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert len(hashes[0].strip()) == 16
        assert hashes[0] == hashes[1]


class TestRaster:
    def test_roundtrip_simple_shapes(self):
        from osm_search_ray.stages.raster import rects_to_mask, vectorize_mask

        rng = np.random.default_rng(9)
        for _ in range(20):
            mask = rng.random((64, 64)) < 0.3
            rects = vectorize_mask(mask)
            assert (rects_to_mask(rects) == mask).all()
        # degenerate masks
        assert vectorize_mask(np.zeros((64, 64), dtype=bool)) == []
        full = vectorize_mask(np.ones((64, 64), dtype=bool))
        assert full == [(0, 0, 63, 63)]

    def test_tile_coverage_pipeline(self):
        from osm_search_ray.functions.cells import RES_COARSE, cell_of, cover_bbox
        from osm_search_ray.stages.raster import rasterize_coverage
        from osm_search_ray.stages.spatial_join import PolygonSet

        # one rectangle polygon; tiles covering it
        ring_lat = np.array([-6.30, -6.30, -6.10, -6.10])
        ring_lon = np.array([106.70, 106.90, 106.90, 106.70])
        polys = PolygonSet.from_rings([1], [(ring_lat, ring_lon)])
        cells = cover_bbox(-6.30, 106.70, -6.10, 106.90, RES_COARSE)
        tiles = ray.data.from_pandas(pd.DataFrame({"cell": cells}))
        out = rasterize_coverage(tiles, polys).to_pandas()
        assert len(out) == len(cells)
        # interior tiles are fully covered; total coverage > 0
        assert out["covered_px"].max() == 64 * 64
        assert (out["covered_px"] > 0).any()
        # vector tile assignment agrees: a tile whose center cell is inside
        # the polygon must have covered pixels
        inner = cell_of(np.array([-6.2]), np.array([106.8]), RES_COARSE)[0]
        assert out[out["cell"] == inner]["covered_px"].iloc[0] == 64 * 64


class TestRefreshTiles:
    def test_incremental_refresh_rewrites_only_touched_cells(self, tmp_path):
        """Index maintenance (the reference R-tree's delete+reinsert,
        rtree_test.go:477-713): upserts/deletes rewrite ONLY their cell
        partitions; every untouched partition keeps its exact bytes."""
        import glob
        import hashlib

        import pyarrow.parquet as pq

        from osm_search_ray.pipelines import tiling

        out = str(tmp_path / "tiles")
        tiling.write_tiles("/root/testdata/sf0.001", out)

        def digests():
            return {
                f: hashlib.md5(open(f, "rb").read()).hexdigest()
                for f in glob.glob(f"{out}/part=*/data.parquet")
            }

        before = digests()
        parts = sorted(before)
        assert len(parts) >= 2
        # pick a partition with at least 2 rows (victim + replaced doc)
        target = next(p for p in parts if pq.read_metadata(p).num_rows >= 2)
        old = pq.read_table(target).to_pandas()
        cell = int(old["cell_r12"].iloc[0])
        base_cols = [c for c in old.columns if c not in ("cell_r12", "cell_r14", "z_cell")]
        victim = old.iloc[0]  # will be deleted
        moved = old.iloc[1]  # will be upserted with same id (replace)

        up = pd.DataFrame([moved[base_cols], moved[base_cols]]).iloc[0:1].copy()
        new_row = moved[base_cols].copy()
        new_row["doc_id"] = 99_000_001
        up = pd.DataFrame([moved[base_cols].to_dict(), new_row.to_dict()])
        touched = tiling.refresh_tiles(
            out,
            upserts=ray.data.from_pandas(up),
            deletes=pd.DataFrame(
                {"doc_id": [victim["doc_id"]], "lat": [victim["lat"]], "lon": [victim["lon"]]}
            ),
        )
        assert touched == [cell]

        after = digests()
        changed = {f for f in before if before[f] != after[f]}
        assert changed == {f"{out}/part={cell}/data.parquet"}

        new = pq.read_table(f"{out}/part={cell}/data.parquet").to_pandas()
        assert int(victim["doc_id"]) not in set(new["doc_id"])
        assert 99_000_001 in set(new["doc_id"])
        assert (new["doc_id"] == moved["doc_id"]).sum() == 1  # replaced, not duplicated
        assert list(new.columns) == list(old.columns)
        # the store still reads back through the manifest
        assert cp.read_checkpointed(out).count() == sum(
            pq.read_metadata(f).num_rows for f in glob.glob(f"{out}/part=*/data.parquet")
        )
