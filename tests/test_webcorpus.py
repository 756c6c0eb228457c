"""Web-corpus maintenance operators: derived url/warc_ts contract, chunk
explode vectorization, boilerplate dedup reassembly, contraction connected
components, and the k-ring density join — each against a brute-force or
DuckDB oracle at sf0.001."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
import ray.data

from osm_search_ray.sources.readers import read_pq

SF = "/root/testdata/sf0.001"


def _con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(sorted(df.columns), kind="mergesort").reset_index(drop=True)


def _cmp(ray_res, sql: str):
    a = ray_res.to_pandas() if not isinstance(ray_res, (pd.DataFrame, pa.Table)) else (
        ray_res.to_pandas() if isinstance(ray_res, pa.Table) else ray_res
    )
    b = _con().execute(sql).df()
    a, b = _canon(a), _canon(b.astype({c: a[c].dtype for c in a.columns if c in b.columns}))
    pd.testing.assert_frame_equal(a, b)


class TestDerivedWebPages:
    def test_columns_match_sql(self):
        from osm_search_ray.sources import derived as dv

        got = _canon(dv.web_pages(SF).to_pandas().assign(
            warc_ts_us=lambda d: d["warc_ts"].astype("datetime64[us]").astype(np.int64)
        ).drop(columns=["warc_ts"]))
        want = _canon(
            _con().execute(
                f"WITH {dv.SQL_WEB_PAGES.strip()} SELECT doc_id, lang, n_chars, domain, url,"
                " epoch_us(warc_ts) AS warc_ts_us FROM web_pages"
            ).df()
        )
        pd.testing.assert_frame_equal(got, want)

    def test_three_snapshots_per_url(self):
        from osm_search_ray.sources import derived as dv

        df = dv.web_pages(SF).to_pandas()
        per_url = df.groupby("url").size()
        assert per_url.max() <= 3
        # url determines domain (the domain_stats url-keyed dedup relies on it)
        assert (df.groupby("url")["domain"].nunique() == 1).all()


class TestChunkOps:
    def test_explode_matches_python(self):
        from osm_search_ray.pipelines.webcorpus import explode_chunks

        docs = read_pq(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        got = explode_chunks(docs).to_pandas().sort_values(["doc_id", "ci"]).reset_index(drop=True)
        raw = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        rows = []
        for did, text in zip(raw["doc_id"], raw["text"]):
            words = text.split(" ")
            for ci in range((len(words) + 4) // 5):
                rows.append((did, ci, " ".join(words[ci * 5 : ci * 5 + 5])))
        want = pd.DataFrame(rows, columns=["doc_id", "ci", "chunk"]).sort_values(
            ["doc_id", "ci"]
        ).reset_index(drop=True)
        # chash must be the deterministic SipHash of the chunk string
        expect_h = pd.util.hash_pandas_object(got["chunk"], index=False).astype(np.int64)
        assert (got["chash"].to_numpy() == expect_h.to_numpy()).all()
        pd.testing.assert_frame_equal(
            got[["doc_id", "ci", "chunk"]].astype({"ci": np.int64}),
            want.astype({"ci": np.int64}),
        )

    def test_chunk_dedup_sql_parity(self):
        from osm_search_ray.pipelines import webcorpus as wc

        _cmp(wc.chunk_dedup(SF), wc.SQL_CHUNK_DEDUP)

    def test_chunk_dedup_distributed_anti_join_path(self, monkeypatch):
        """Forcing the boilerplate set past the broadcast limit must route
        through the narrow distributed anti-join and produce the identical
        result (regime switch is bytes-only, never semantics)."""
        from osm_search_ray.pipelines import webcorpus as wc

        broadcast = _canon(wc.chunk_dedup(SF).to_pandas())
        monkeypatch.setattr(wc, "BOILERPLATE_BROADCAST_LIMIT", 0)
        fallback = _canon(wc.chunk_dedup(SF).to_pandas())
        pd.testing.assert_frame_equal(broadcast, fallback)

    def test_untouched_doc_keeps_text(self):
        """A doc none of whose chunks are corpus-frequent reassembles to its
        EXACT original text (split/join round-trip is lossless)."""
        from osm_search_ray.pipelines import webcorpus as wc

        clean = wc.chunk_dedup(SF).to_pandas().set_index("doc_id")
        raw = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]).set_index("doc_id")
        n_chunks = raw["text"].str.split(" ").map(lambda w: (len(w) + 4) // 5)
        untouched = clean[clean["n_kept"] == n_chunks.reindex(clean.index)]
        assert len(untouched) > 0
        assert (untouched["clean_text"] == raw.loc[untouched.index, "text"]).all()


class TestDupClusters:
    def test_local_cc_known_graph(self):
        from osm_search_ray.pipelines.webcorpus import _local_cc

        u = np.array([1, 2, 5, 9, 9], np.int64)
        v = np.array([2, 3, 6, 8, 7], np.int64)
        lab = _local_cc(u, v)
        assert lab == {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 9: 7, 8: 7, 7: 7}

    def test_matches_bruteforce_bfs(self):
        """Contraction CC == plain python BFS over the same chunk-share
        edges (and therefore the recursive-CTE oracle)."""
        from osm_search_ray.pipelines import webcorpus as wc

        got = wc.dup_clusters(SF)
        got = (got.to_pandas() if not isinstance(got, pa.Table) else got.to_pandas())
        raw = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        from collections import defaultdict

        docs_by_chunk = defaultdict(set)
        for did, text in zip(raw["doc_id"], raw["text"]):
            words = text.split(" ")
            for ci in range((len(words) + 4) // 5):
                docs_by_chunk[" ".join(words[ci * 5 : ci * 5 + 5])].add(did)
        adj = defaultdict(set)
        for docs in docs_by_chunk.values():
            if wc.MIN_DOCS <= len(docs) <= wc.MAX_CLIQUE:
                ds = sorted(docs)
                for i, a in enumerate(ds):
                    for b in ds[i + 1 :]:
                        adj[a].add(b)
                        adj[b].add(a)
        want = {}
        for start in sorted(adj):
            if start in want:
                continue
            comp, stack = [], [start]
            seen = {start}
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            m = min(comp)
            for x in comp:
                want[x] = m
        got_map = dict(zip(got["doc_id"], got["cluster_id"]))
        assert got_map == want

    def test_empty_graph_typed_result(self, tmp_path):
        """No shared chunks at all -> typed empty (doc_id, cluster_id)."""
        from osm_search_ray.pipelines import webcorpus as wc

        df = pd.DataFrame(
            {
                "doc_id": np.arange(4, dtype=np.int64),
                "text": [f"u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f" for i in range(4)],
            }
        )
        df.to_parquet(tmp_path / "documents.parquet")
        res = wc.dup_clusters(str(tmp_path))
        assert isinstance(res, pa.Table)
        assert res.column_names == ["doc_id", "cluster_id"]
        assert len(res) == 0


class TestDomainOps:
    def test_url_latest_sql_parity(self):
        from osm_search_ray.pipelines import webcorpus as wc

        _cmp(wc.url_latest(SF), wc.SQL_URL_LATEST)

    def test_domain_stats_sql_parity(self):
        from osm_search_ray.pipelines import webcorpus as wc

        _cmp(wc.domain_stats(SF), wc.SQL_DOMAIN_STATS)

    def test_domain_cap_k_and_determinism(self):
        from osm_search_ray.pipelines import webcorpus as wc

        got = wc.domain_cap(SF).to_pandas()
        assert got.groupby("domain").size().max() <= wc.DOMAIN_CAP_K
        # rn is 1..k over ascending doc_id within each domain
        g = got.sort_values(["domain", "doc_id"])
        assert (g.groupby("domain")["rn"].apply(lambda s: (s.to_numpy() == np.arange(1, len(s) + 1)).all())).all()


class TestDomainTopLang:
    def test_matches_sql_and_bruteforce(self):
        from osm_search_ray.pipelines import webcorpus as wc
        from osm_search_ray.sources import derived as dv

        _cmp(wc.domain_top_lang(SF), wc.SQL_DOMAIN_TOP_LANG)
        got = wc.domain_top_lang(SF).to_pandas().set_index("domain")
        wp = dv.web_pages(SF).to_pandas()
        for dom, g in wp.groupby("domain"):
            counts = g.groupby("lang").size()
            best = counts[counts == counts.max()].index.min()  # smallest lang on ties
            assert got.loc[dom, "top_lang"] == best, dom
            assert got.loc[dom, "n_pages"] == counts.max()


class TestNullLang:
    """NULL-lang pages must diverge nowhere between engine and SQL
    (ADVICE r03): COUNT(DISTINCT lang) ignores NULL; top_lang excludes the
    NULL group on BOTH sides."""

    @pytest.fixture()
    def null_sf(self, tmp_path):
        df = pd.read_parquet(f"{SF}/documents.parquet").head(60).copy()
        df.loc[df.index[::7], "lang"] = None  # NULL langs across several domains
        df.to_parquet(tmp_path / "documents.parquet", index=False)
        return str(tmp_path)

    def _cmp_at(self, sf, ray_res, sql):
        c = duckdb.connect()
        c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
        a = _canon(ray_res.to_pandas())
        b = c.execute(sql).df()
        b = _canon(b.astype({col: a[col].dtype for col in a.columns if col in b.columns}))
        pd.testing.assert_frame_equal(a, b)

    def test_domain_stats_ignores_null_lang(self, null_sf):
        from osm_search_ray.pipelines import webcorpus as wc

        self._cmp_at(null_sf, wc.domain_stats(null_sf), wc.SQL_DOMAIN_STATS)

    def test_domain_top_lang_excludes_null_group(self, null_sf):
        from osm_search_ray.pipelines import webcorpus as wc

        self._cmp_at(null_sf, wc.domain_top_lang(null_sf), wc.SQL_DOMAIN_TOP_LANG)


class TestUrlHistory:
    def test_intervals_chain_per_url(self):
        """Within each url (sorted by snapshot_no): valid_to == next
        valid_from, the last interval is open (-1), snapshot_no is 1..k,
        and rows match web_pages exactly."""
        from osm_search_ray.pipelines import webcorpus as wc
        from osm_search_ray.sources import derived as dv

        h = wc.url_history(SF).to_pandas().sort_values(["url", "snapshot_no"])
        wp = dv.web_pages(SF).to_pandas()
        assert len(h) == len(wp)
        assert set(h["doc_id"]) == set(wp["doc_id"])
        for _, g in h.groupby("url"):
            assert (g["snapshot_no"].to_numpy() == np.arange(1, len(g) + 1)).all()
            assert (g["valid_to_us"].to_numpy()[:-1] == g["valid_from_us"].to_numpy()[1:]).all()
            assert g["valid_to_us"].to_numpy()[-1] == -1
            assert (np.diff(g["valid_from_us"].to_numpy()) > 0).all()

    def test_matches_sql(self):
        from osm_search_ray.pipelines import webcorpus as wc

        _cmp(wc.url_history(SF), wc.SQL_URL_HISTORY)


class TestVisitSnapshots:
    def test_point_in_time_semantics_bruteforce(self):
        """Every output row's snapshot is the LAST snapshot at-or-before the
        visit ts; visits before a url's first snapshot are absent."""
        from osm_search_ray.pipelines import webcorpus as wc
        from osm_search_ray.sources import derived as dv

        got = wc.visit_snapshots(SF).to_pandas()
        visits = dv.visit_urls(SF).to_pandas()
        hist = wc.url_history(SF).to_pandas()
        by_url = {u: g.sort_values("valid_from_us") for u, g in hist.groupby("url")}
        want = {}
        for ev, ts, url in visits.itertuples(index=False):
            g = by_url[url]
            live = g[g["valid_from_us"] <= ts]
            if len(live):
                want[ev] = (live.iloc[-1]["doc_id"], live.iloc[-1]["snapshot_no"])
        assert set(got["event_id"]) == set(want)
        for ev, doc, sno in got[["event_id", "doc_id", "snapshot_no"]].itertuples(index=False):
            assert want[ev] == (doc, sno), ev

    def test_visits_sql_parity(self):
        from osm_search_ray.sources import derived as dv

        con = _con()
        con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
        got = _canon(dv.visit_urls(SF).to_pandas())
        want = _canon(con.execute(f"WITH {dv.SQL_VISITS.strip()} SELECT * FROM visits").df())
        pd.testing.assert_frame_equal(got, want)


class TestKRing:
    def test_kring_includes_self_and_dominates(self):
        from osm_search_ray.pipelines import tiling

        ring = tiling.kring_density(SF).to_pandas()
        counts = tiling.tile_counts(SF).to_pandas().rename(columns={"n_docs": "n_self"})
        m = ring.merge(counts, on="cell_r12", how="outer", indicator=True)
        assert (m["_merge"] == "both").all()  # exactly the occupied cells
        assert (m["n_ring"] >= m["n_docs"]).all()  # ring includes the cell itself
        assert (m["n_docs"] == m["n_self"]).all()

    def test_ring_sums_match_bruteforce(self):
        """n_ring == pandas brute-force 3x3 neighborhood sum per cell."""
        from osm_search_ray.pipelines import tiling

        ring = tiling.kring_density(SF).to_pandas().set_index("cell_r12")
        counts = tiling.tile_counts(SF).to_pandas()
        n = 1 << 12
        by_xy = {(c // n, c % n): k for c, k in zip(counts["cell_r12"], counts["n_docs"])}
        for (x, y), _ in by_xy.items():
            want = sum(
                by_xy.get((x + dx, y + dy), 0)
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if 0 <= x + dx < n and 0 <= y + dy < n
            )
            assert ring.loc[x * n + y, "n_ring"] == want, (x, y)


def test_changelog_apply_tombstone_semantics(tmp_path):
    """Planted op stream: a url whose last op is a delete vanishes; an
    upsert AFTER a delete resurrects; n_ops counts every op."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines.webcorpus import changelog_apply

    # op rule: delete iff e*(e+1) % 5 == 0
    dels = [e for e in range(40) if (e * (e + 1)) % 5 == 0]
    ups = [e for e in range(40) if (e * (e + 1)) % 5 != 0]
    assert len(dels) >= 2 and len(ups) >= 3
    n_urls = 12 // 3  # 12 docs -> 4 urls; url of event e is e % 4
    # url 0: upsert then delete (dead); url 1: delete then upsert (alive)
    d0 = next(e for e in dels if e % n_urls == 0)
    u0 = next(e for e in ups if e % n_urls == 0)
    d1 = next(e for e in dels if e % n_urls == 1)
    u1 = next(e for e in ups if e % n_urls == 1)
    rows = [(u0, 100), (d0, 200), (d1, 100), (u1, 200)]
    ev = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([1_700_000_000_000_000 + r[1] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(ev, str(tmp_path / "events.parquet"))
    doc = pa.table({"doc_id": pa.array(list(range(12)), pa.int64())})
    pq.write_table(doc, str(tmp_path / "documents.parquet"))

    df = changelog_apply(str(tmp_path)).to_pandas()
    urls = {u.rsplit("p", 1)[1]: r for u, r in zip(df["url"], df.itertuples())}
    assert "0" not in urls                      # last op delete -> dead
    assert urls["1"].last_event == u1           # resurrected by later upsert
    assert urls["1"].n_ops == 2
