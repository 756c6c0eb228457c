"""Multimodal stage plumbing + cell-partitioned kNN scale path."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from osm_search_ray.stages import multimodal as mm


class TestMultimodal:
    def test_image_features_deterministic(self):
        items = mm.make_binary_items(32)
        ds = ray.data.from_arrow(items)
        out1 = mm.image_feature_stage(ds).to_pandas().sort_values("item_id").reset_index(drop=True)
        out2 = mm.image_feature_stage(ray.data.from_arrow(items)).to_pandas().sort_values("item_id").reset_index(drop=True)
        assert len(out1) == 32
        assert list(out1.columns) == ["item_id", "height", "width", "features"]
        f0 = np.asarray(out1["features"].iloc[0])
        assert len(f0) == mm.IMAGE_FEATURE_DIM
        assert f0.sum() == pytest.approx(1.0)
        for a, b in zip(out1["features"], out2["features"]):
            assert np.asarray(a).tolist() == np.asarray(b).tolist()

    def test_audio_frame_sampling(self):
        items = mm.make_binary_items(8, payload_bytes=2048)
        out = mm.audio_sample_stage(ray.data.from_arrow(items)).to_pandas()
        assert (out["n_frames"] == 8).all()  # 2048 / 256
        assert all(len(s) == 2 for s in out["sampled_frames"])  # every 4th of 8
        assert all(len(s[0]) == 256 for s in out["sampled_frames"])

    def test_empty_payload(self):
        import pyarrow as pa

        t = pa.table({"item_id": pa.array([0], pa.int64()), "payload": pa.array([b""], pa.binary())})
        out = mm.image_feature_stage(ray.data.from_arrow(t)).to_pandas()
        assert len(out) == 1  # degenerate payload doesn't crash


class TestCellKNN:
    def test_cell_knn_matches_bruteforce(self, tmp_path):
        """Scale-path kNN over cell-partitioned tiles == brute force."""
        from osm_search_ray.functions.cells import RES_COARSE
        from osm_search_ray.functions.geometry import haversine_km
        from osm_search_ray.stages.knn import cell_knn_oneshot

        rng = np.random.default_rng(17)
        n = 2000
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "lat": rng.uniform(-6.6, -5.9, n),
                "lon": rng.uniform(106.4, 107.2, n),
            }
        )
        from osm_search_ray.functions.cells import cell_of

        df["cell"] = cell_of(df["lat"].to_numpy(), df["lon"].to_numpy(), RES_COARSE)
        tiles_dir = str(tmp_path / "tiles")
        ray.data.from_pandas(df).write_parquet(tiles_dir, partition_cols=["cell"])

        qlat, qlon, k = -6.25, 106.8, 10
        got = cell_knn_oneshot(tiles_dir, qlat, qlon, k, res=RES_COARSE)
        d = haversine_km(qlat, qlon, df["lat"].to_numpy(), df["lon"].to_numpy())
        brute = df.assign(d=d).sort_values(["d", "doc_id"]).head(k)
        assert got["doc_id"].tolist() == brute["doc_id"].tolist()
        assert np.allclose(got["dist_km"].to_numpy(), brute["d"].to_numpy())


class TestLeftJoinAndTiles:
    def test_broadcast_left_join_first_match(self):
        """how='left': unmatched points keep null id; matched points get the
        FIRST polygon (reference first-match rule)."""
        import pyarrow as pa

        from osm_search_ray.stages.spatial_join import PolygonSet, broadcast_pip_join

        pts = pd.DataFrame({"doc_id": [0, 1], "lat": [0.5, 9.0], "lon": [0.5, 9.0]})
        # two overlapping rects both containing point 0; nothing contains point 1
        rects = pa.table(
            {
                "rect_id": pa.array([10, 20], pa.int64()),
                "lat0": pa.array([0.0, 0.25]),
                "lon0": pa.array([0.0, 0.25]),
                "lat1": pa.array([1.0, 0.75]),
                "lon1": pa.array([1.0, 0.75]),
            }
        )
        polys = PolygonSet.from_rects(rects)
        out = (
            broadcast_pip_join(ray.data.from_pandas(pts), polys, how="left", id_out="rect_id")
            .to_pandas()
            .sort_values("doc_id")
        )
        assert out["rect_id"].iloc[0] == 10  # first polygon wins
        assert pd.isna(out["rect_id"].iloc[1])

    def test_write_tiles_then_cell_knn(self, tmp_path):
        """write_tiles (checkpointed layout) feeds the cell-kNN scale path."""
        from osm_search_ray.functions.cells import RES_COARSE
        from osm_search_ray.functions.geometry import haversine_km
        from osm_search_ray.pipelines.tiling import write_tiles
        from osm_search_ray.sources.derived import page_coords
        from osm_search_ray.stages.knn import cell_knn_oneshot

        out = write_tiles("/root/testdata/sf0.001", str(tmp_path / "tiles"))
        got = cell_knn_oneshot(out, -6.25, 106.8, 5, res=RES_COARSE)
        has, lat, lon = page_coords(np.arange(500))
        d = haversine_km(-6.25, 106.8, lat[has], lon[has])
        ids = np.arange(500)[has]
        order = np.lexsort((ids, d))[:5]
        assert got["doc_id"].tolist() == ids[order].tolist()
