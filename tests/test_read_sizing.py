"""The data-proportional read policy and the Arrow-typed blob join — the
two round-5 primitives every pipeline now rides on (sources/readers.read_pq,
stages/joins.attach_columns with a binary payload)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from osm_search_ray.sources import readers
from osm_search_ray.stages.joins import attach_columns, hash_bucket_join


class TestReadSizing:
    def test_small_file_blocks_follow_bytes(self, tmp_path):
        """A tiny table must NOT shard into 2×CPU confetti blocks (Ray's
        floor); block count follows ceil(bytes / 128 KiB) up to the cap."""
        t = pa.table({"a": np.arange(1000, dtype=np.int64)})
        p = str(tmp_path / "tiny.parquet")
        pq.write_table(t, p)
        ds = readers.read_pq(p).materialize()
        size = t.nbytes
        assert ds.num_blocks() <= max(8, int(ray.cluster_resources()["CPU"]) // 2)
        assert ds.num_blocks() >= 1
        assert ds.count() == 1000

    def test_explicit_override_wins(self, tmp_path):
        t = pa.table({"a": np.arange(100, dtype=np.int64)})
        p = str(tmp_path / "t.parquet")
        pq.write_table(t, p)
        ds = readers.read_pq(p, override_num_blocks=3).materialize()
        assert ds.num_blocks() == 3

    def test_file_list_input(self, tmp_path):
        paths = []
        for i in range(3):
            t = pa.table({"a": np.arange(i * 10, i * 10 + 10, dtype=np.int64)})
            p = str(tmp_path / f"f{i}.parquet")
            pq.write_table(t, p)
            paths.append(p)
        ds = readers.read_pq(paths)
        assert ds.count() == 30

    def test_missing_path_falls_through(self, tmp_path):
        """An unstat-able path must not crash sizing — Ray raises its own
        error at read time instead."""
        assert readers._input_bytes(str(tmp_path / "nope.parquet")) is None

    def test_directory_counts_only_parquet_files(self, tmp_path):
        """Sidecars next to the data (a write manifest, ``_SUCCESS``, logs)
        must not size the read: only ``*.parquet`` bytes count."""
        pq.write_table(pa.table({"a": np.arange(100, dtype=np.int64)}), str(tmp_path / "part-0.parquet"))
        sub = tmp_path / "cell=1"
        sub.mkdir()
        pq.write_table(pa.table({"a": np.arange(50, dtype=np.int64)}), str(sub / "part-1.parquet"))
        data = (tmp_path / "part-0.parquet").stat().st_size + (sub / "part-1.parquet").stat().st_size
        (tmp_path / "manifest.jsonl").write_bytes(b"{}\n" * 100_000)
        (tmp_path / "_SUCCESS").write_bytes(b"")
        (sub / "part-1.parquet.crc").write_bytes(b"x" * 4096)
        (sub / "notes.txt").write_bytes(b"x" * 50_000)
        assert readers._input_bytes(str(tmp_path)) == data
        assert readers._input_bytes([str(tmp_path), str(sub / "part-1.parquet")]) == data + (sub / "part-1.parquet").stat().st_size

    def test_big_input_keeps_ray_default(self, tmp_path, monkeypatch):
        """Above the small-file cutoff read_pq must NOT override — Ray's
        byte-based splitting owns the 100 TB regime."""
        seen = {}
        orig = ray.data.read_parquet

        def spy(path, **kw):
            seen.update(kw)
            return orig(path, **kw)

        monkeypatch.setattr(ray.data, "read_parquet", spy)
        t = pa.table({"a": np.arange(10, dtype=np.int64)})
        p = str(tmp_path / "t.parquet")
        pq.write_table(t, p)
        monkeypatch.setattr(readers, "_SMALL_FILE_BYTES", 0)  # everything is "big"
        readers.read_pq(p)
        assert "override_num_blocks" not in seen


class TestAttachBlobColumn:
    def _mk(self):
        rng = np.random.default_rng(7)
        pairs = pd.DataFrame(
            {
                "doc_a": rng.integers(0, 40, 500).astype(np.int64),
                "doc_b": rng.integers(0, 40, 500).astype(np.int64),
            }
        )
        blobs = pd.DataFrame(
            {
                "doc_a": np.arange(40, dtype=np.int64),
                "blob": [bytes(rng.integers(0, 255, rng.integers(1, 30)).astype(np.uint8)) for _ in range(40)],
            }
        )
        return pairs, blobs

    def test_matches_hash_bucket_join(self):
        """attach_columns(binary payload) == hash_bucket_join(inner) row-for-row."""
        pairs, blobs = self._mk()
        left = ray.data.from_pandas(pairs)
        right = ray.data.from_pandas(blobs.rename(columns={"blob": "g"}))
        want = (
            hash_bucket_join(left, right, on="doc_a", num_buckets=4)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        got = (
            attach_columns(left, ray.data.from_pandas(blobs), on="doc_a", cols={"blob": "g"}, num_buckets=4)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(got, want)

    def test_inner_semantics_drop_unmatched(self):
        pairs, blobs = self._mk()
        blobs = blobs[blobs["doc_a"] < 20]  # half the keys have no blob
        got = attach_columns(
            ray.data.from_pandas(pairs), ray.data.from_pandas(blobs), on="doc_a", cols={"blob": "g"}, num_buckets=4
        ).to_pandas()
        assert (got["doc_a"] < 20).all()
        assert len(got) == int((pairs["doc_a"] < 20).sum())

    def test_rejects_colliding_out_col(self):
        pairs, blobs = self._mk()
        with pytest.raises(ValueError):
            attach_columns(
                ray.data.from_pandas(pairs), ray.data.from_pandas(blobs), on="doc_a", cols={"blob": "doc_b"}
            )
