"""Doc store range-partitioned lookups, multi-format pages readers,
empty-input robustness."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from osm_search_ray.sources import doc_store
from osm_search_ray.sources.fixtures import make_pages
from osm_search_ray.sources.readers import read_pages, write_pages_as


class TestDocStore:
    def test_write_and_point_lookup(self, tmp_path):
        n = 1000
        docs = pd.DataFrame(
            {"doc_id": np.arange(n, dtype=np.int64), "name": [f"doc {i}" for i in range(n)], "lat": np.linspace(-6, -5, n)}
        )
        out = str(tmp_path / "store")
        doc_store.write_doc_store(ray.data.from_pandas(docs), out, range_size=100)
        got = doc_store.get_docs(out, [5, 250, 999])
        assert sorted(got["doc_id"]) == [5, 250, 999]
        assert got[got["doc_id"] == 250]["name"].iloc[0] == "doc 250"
        # missing ids return no rows, no error
        got2 = doc_store.get_docs(out, [10_000_000])
        assert len(got2) == 0

    def test_lookup_prunes_partitions(self, tmp_path):
        """Only the covering range partitions are read (file-level prune)."""
        docs = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64), "v": np.arange(1000)})
        out = str(tmp_path / "store")
        doc_store.write_doc_store(ray.data.from_pandas(docs), out, range_size=100)
        import osm_search_ray.sources.doc_store as ds_mod

        read_paths = []
        orig = ds_mod.pq.read_table

        def spy(path, **kw):
            read_paths.append(path)
            return orig(path, **kw)

        ds_mod.pq.read_table = spy
        try:
            doc_store.get_docs(out, [5, 7])  # both in range 0
        finally:
            ds_mod.pq.read_table = orig
        assert len(read_paths) == 1 and "part=0" in read_paths[0]


class TestReaders:
    @pytest.mark.parametrize("fmt", ["parquet", "json", "csv"])
    def test_roundtrip_formats(self, tmp_path, fmt):
        pages = make_pages(50)
        ext = {"parquet": "parquet", "json": "jsonl", "csv": "csv"}[fmt]
        path = write_pages_as(pages, str(tmp_path / f"pages.{ext}"), fmt)
        ds = read_pages(path, fmt)
        got = ds.to_pandas().sort_values("url").reset_index(drop=True)
        exp = pages.to_pandas().sort_values("url").reset_index(drop=True)
        assert len(got) == 50
        assert got["text"].tolist() == exp["text"].tolist()  # byte-identical text per url
        assert got["html"].tolist() == exp["html"].tolist()  # binary survives b64
        assert (got["warc_ts"].astype("datetime64[us]") == exp["warc_ts"].astype("datetime64[us]")).all()

    def test_extraction_same_across_formats(self, tmp_path):
        """The coordinate extractor gives identical results from any source
        format (the per-url byte-identical text invariant)."""
        from osm_search_ray.sources.fixtures import pages_to_points

        pages = make_pages(80)
        outs = {}
        for fmt, ext in [("parquet", "parquet"), ("json", "jsonl")]:
            path = write_pages_as(pages, str(tmp_path / f"p.{ext}"), fmt)
            pts = read_pages(path, fmt).map_batches(pages_to_points, batch_format="pyarrow").to_pandas()
            outs[fmt] = pts.sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(outs["parquet"], outs["json"])


class TestEmptyInputs:
    @pytest.mark.parametrize("join", ["broadcast_pip_join", "partitioned_pip_join"])
    def test_pip_join_empty_points(self, join):
        import pyarrow as pa

        from osm_search_ray.stages import spatial_join
        from osm_search_ray.stages.spatial_join import PolygonSet

        rects = pa.table(
            {"rect_id": pa.array([1], pa.int64()), "lat0": pa.array([0.0]), "lon0": pa.array([0.0]), "lat1": pa.array([1.0]), "lon1": pa.array([1.0])}
        )
        polys = PolygonSet.from_rects(rects)
        empty = ray.data.from_pandas(pd.DataFrame({"doc_id": pd.Series(dtype=np.int64), "lat": pd.Series(dtype=float), "lon": pd.Series(dtype=float)}))
        # an upstream filter that keeps no row yields no block and no schema
        filtered = ray.data.from_pandas(pd.DataFrame({"doc_id": [1], "lat": [0.5], "lon": [0.5]})).filter(lambda r: False)
        for points in (empty, filtered):
            out = getattr(spatial_join, join)(points, polys, id_out="rect_id").to_pandas()
            assert len(out) == 0

    def test_text_index_empty_docs(self):
        from osm_search_ray.pipelines import text_index as ti

        docs = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64), "name": pd.Series(dtype=str), "address": pd.Series(dtype=str)})
        index = ti.build_text_index(ray.data.from_pandas(docs))
        assert len(index.terms) == 0 and len(index.postings) == 0
        assert index.globals["docs_count"] == 0


class TestPagesTable:
    """The charter's input_hint table (url, warc_ts, html, text, lang):
    deterministic extraction, byte-identical text per url, html never read
    unless extracting and projected away in the extracting batch."""

    def test_extract_text_deterministic_and_clean(self):
        from osm_search_ray.sources.pages import extract_text

        html = (
            b"<html><head><title>no</title><script>var x=1;</script></head>"
            b"<body><h1>Hello &amp; world</h1>\n\n<p>second   line</p></body></html>"
        )
        t1 = extract_text(html)
        t2 = extract_text(html)
        assert t1 == t2 == "Hello & world second line"
        assert extract_text(None) == "" and extract_text(b"") == ""

    def test_fixture_invariant_and_pruned_read(self, tmp_path):
        import pyarrow.parquet as pq

        from osm_search_ray.sources.pages import extract_text, make_pages_table, read_pages

        f = str(tmp_path / "pages.parquet")
        tbl = make_pages_table(64)
        pq.write_table(tbl, f)
        # per-row invariant: stored text == extraction of the stored html
        for h, t in zip(tbl.column("html").to_pylist(), tbl.column("text").to_pylist()):
            assert extract_text(h) == t
        # trusted-text read prunes the html binary at the storage layer
        ds = read_pages(f)
        assert set(ds.schema().names) == {"url", "warc_ts", "text", "lang"}
        # extracting read consumes html and emits text WITHOUT the binary
        out = read_pages(f, extract=True).to_pandas()
        assert "html" not in out.columns
        stored = tbl.to_pandas().set_index("url")["text"]
        got = out.set_index("url")["text"]
        assert (stored.loc[got.index] == got).all()

    def test_pages_to_geo(self, tmp_path):
        import pyarrow.parquet as pq

        from osm_search_ray.sources.pages import make_pages_table, pages_to_geo, read_pages

        f = str(tmp_path / "pages.parquet")
        pq.write_table(make_pages_table(64, geo_every=2), f)
        geo = pages_to_geo(read_pages(f)).to_pandas()
        assert len(geo) == 32  # every 2nd page carries coordinates
        assert set(geo.columns) == {"url", "lang", "lat", "lon", "cell_r12"}
        assert geo["lat"].between(-90, 90).all() and geo["lon"].between(-180, 180).all()
        from osm_search_ray.functions.cells import RES_COARSE, cell_of

        want = cell_of(geo["lat"].to_numpy(), geo["lon"].to_numpy(), RES_COARSE)
        assert (geo["cell_r12"].to_numpy() == want).all()


class TestInterchangeRoundtrip:
    """CSV/JSONL sink+source fidelity on HOSTILE content the sf tables
    don't exercise: embedded commas, quotes, newlines, unicode, empties."""

    HOSTILE = [
        "plain words",
        'comma, and "quotes" inside',
        "newline\nand\r\nCRLF",
        "unicode — héllo wörld ✓ 漢字",
        "",
        "   leading and trailing   ",
        "tab\tseparated\tvalues",
        "trailing backslash \\",
    ]

    def _frame(self):
        n = len(self.HOSTILE)
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "text": self.HOSTILE,
                "lang": ["en", "de", "en", "xx", "en", "de", "xx", "en"],
                "n_chars": np.array([len(t) for t in self.HOSTILE], np.int64),
            }
        )

    def test_csv_roundtrip_hostile(self, tmp_path):
        from osm_search_ray.sources.csvio import export_csv, read_csv

        df = self._frame()
        export_csv(ray.data.from_pandas(df), str(tmp_path / "csv"))
        back = read_csv(str(tmp_path / "csv")).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(back[df.columns], df)

    def test_jsonl_roundtrip_hostile(self, tmp_path):
        from osm_search_ray.sources.jsonl import export_jsonl, read_jsonl

        df = self._frame()
        export_jsonl(ray.data.from_pandas(df), str(tmp_path / "jsonl"))
        back = read_jsonl(str(tmp_path / "jsonl")).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(back[df.columns], df)
