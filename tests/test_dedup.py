"""Dedup-family stage tests — in particular the distributed MinHash verify
(VERDICT r01 item 3: the doc_id-bucketed-join verify must produce exactly
the pair set of the old driver-side verify)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data

from osm_search_ray.functions.hashing import minhash_signature_batch
from osm_search_ray.functions.tokenize import tokenize
from osm_search_ray.stages import dedup as dd

SF = "/root/testdata/sf0.001"


def _driver_oracle_minhash(texts, ids, num_perm=128, bands=32, threshold=0.5):
    """The r01 driver-side verify, reimplemented as the test oracle: same
    signature kernel, same band-bucket math, full driver pair enumeration."""
    rows_per_band = num_perm // bands
    norm = [" ".join(tokenize(t or "")) for t in texts]
    sigs = minhash_signature_batch(norm, num_perm, 5).astype(np.int64).astype(np.uint64)
    n = len(ids)
    with np.errstate(over="ignore"):
        banded = sigs.reshape(n, bands, rows_per_band) * np.uint64(2654435761)
    buckets = np.bitwise_xor.reduce(banded, axis=2) & np.uint64(0x7FFFFFFFFFFFFFFF)
    cand = set()
    for b in range(bands):
        by_bucket = {}
        for i in range(n):
            by_bucket.setdefault(int(buckets[i, b]), []).append(i)
        for members in by_bucket.values():
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    a, bb = sorted((int(ids[members[x]]), int(ids[members[y]])))
                    cand.add((a, bb))
    sig_by_id = {int(i): sigs[k].astype(np.int64) for k, i in enumerate(ids)}
    out = {}
    for a, b in cand:
        est = float((sig_by_id[a] == sig_by_id[b]).mean())
        if est >= threshold:
            out[(a, b)] = est
    return out


def test_minhash_distributed_verify_equals_driver_oracle():
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    expected = _driver_oracle_minhash(docs["text"].tolist(), docs["doc_id"].tolist())

    got = dd.minhash_lsh_pairs(
        ray.data.from_pandas(docs), threshold=0.5
    ).to_pandas()
    got_map = {
        (int(a), int(b)): float(e)
        for a, b, e in zip(got["doc_a"], got["doc_b"], got["jaccard_est"])
    }
    assert got_map.keys() == expected.keys()
    for k, v in expected.items():
        assert got_map[k] == v, k
    # and the pair set is globally unique
    assert len(got) == len(got.drop_duplicates(["doc_a", "doc_b"]))


def test_minhash_verify_paths_agree(monkeypatch):
    """The broadcast (small-candidate) and bucketed-join (large-candidate)
    verify regimes must produce identical pair sets — force the join path
    by dropping the cutover to 0 and compare against the default."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()

    broadcast = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 0)  # force distributed dedup + joins
    joined = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()

    key = ["doc_a", "doc_b"]
    b = broadcast.sort_values(key).reset_index(drop=True)
    j = joined.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(b[key + ["jaccard_est"]], j[key + ["jaccard_est"]])


def test_minhash_verify_small_pairs_many_candidates(monkeypatch):
    """The regime between the two: a pair list small enough for the driver
    whose candidate ids exceed BROADCAST_SIG_ID_LIMIT goes to the bucketed
    joins from a driver-built (from_pandas) pair frame, with the default
    broadcast run's output."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    seen = {}
    bcast = dd._verify_minhash_pairs_broadcast

    def count_ids(cand_pd, cand_ids, *a, **kw):
        seen["n_ids"] = len(cand_ids)
        return bcast(cand_pd, cand_ids, *a, **kw)

    monkeypatch.setattr(dd, "_verify_minhash_pairs_broadcast", count_ids)
    default = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()
    assert seen["n_ids"] >= 2

    calls = []
    joined_verify = dd._verify_minhash_pairs

    def spy(*a, **kw):
        calls.append(1)
        return joined_verify(*a, **kw)

    monkeypatch.setattr(dd, "BROADCAST_SIG_ID_LIMIT", seen["n_ids"] - 1)
    monkeypatch.setattr(dd, "_verify_minhash_pairs", spy)
    joined = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()

    assert calls
    key = ["doc_a", "doc_b"]
    pd.testing.assert_frame_equal(
        default.sort_values(key).reset_index(drop=True)[key + ["jaccard_est"]],
        joined.sort_values(key).reset_index(drop=True)[key + ["jaccard_est"]],
    )


def test_minhash_verify_dedup_survives_block_splits(monkeypatch):
    """VERDICT r03 item 7: the verify's in-block drop_duplicates assumes a
    join bucket arrives as one block. Force the hostile layout — identical
    docs (duplicate candidate pairs in EVERY band), the distributed
    dedup+join regime, ONE join bucket, and a target block size small
    enough to split it — and pin that the output pair set is still globally
    unique and identical to the default run."""
    rng = np.random.default_rng(5)
    texts = []
    for i in range(12):
        t = " ".join(f"w{rng.integers(0, 40)}" for _ in range(30))
        texts += [t, t, t]  # identical triplets → 3 dup pairs × 32 bands each
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})

    default = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()

    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 0)  # distributed dedup + joins
    ctx = ray.data.DataContext.get_current()
    old_target = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 1024  # split every bucket across blocks
        hostile = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()
    finally:
        ctx.target_max_block_size = old_target

    assert len(hostile) == len(hostile.drop_duplicates(["doc_a", "doc_b"]))
    key = ["doc_a", "doc_b"]
    pd.testing.assert_frame_equal(
        default.sort_values(key).reset_index(drop=True)[key + ["jaccard_est"]],
        hostile.sort_values(key).reset_index(drop=True)[key + ["jaccard_est"]],
    )


def _incr_oracle(docs: pd.DataFrame, mod: int, threshold=0.5) -> dict:
    """new×old restriction of the full driver oracle: pairs with exactly one
    side in the 'new crawl' split (doc_id % mod == 0), keyed (new, old)."""
    full = _driver_oracle_minhash(docs["text"].tolist(), docs["doc_id"].tolist(), threshold=threshold)
    out = {}
    for (a, b), est in full.items():
        if (a % mod == 0) != (b % mod == 0):
            new, old = (a, b) if a % mod == 0 else (b, a)
            out[(new, old)] = est
    return out


def _run_incremental(docs: pd.DataFrame, store_dir: str, threshold=0.5) -> dict:
    from osm_search_ray.pipelines.dedup_pipelines import INCR_NEW_MOD, _mod_split

    old_ds = ray.data.from_pandas(docs).map_batches(_mod_split(new=False), batch_format="pyarrow")
    dd.build_minhash_store(old_ds, store_dir)
    new_ds = ray.data.from_pandas(docs).map_batches(_mod_split(new=True), batch_format="pyarrow")
    got = dd.minhash_store_new_pairs(new_ds, store_dir, threshold=threshold).to_pandas()
    assert len(got) == len(got.drop_duplicates(["doc_new", "doc_old"]))
    return {
        (int(a), int(b)): float(e)
        for a, b, e in zip(got["doc_new"], got["doc_old"], got["jaccard_est"])
    }


def test_minhash_store_incremental_equals_oracle(tmp_path):
    """The persisted-store probe (sign new docs only, read only touched
    bucket/sig partitions) must produce exactly the new×old pair set of the
    full driver oracle run over the whole corpus."""
    from osm_search_ray.pipelines.dedup_pipelines import INCR_NEW_MOD

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    expected = _incr_oracle(docs, INCR_NEW_MOD)
    got = _run_incremental(docs, str(tmp_path / "store"))
    assert got.keys() == expected.keys()
    for k, v in expected.items():
        assert got[k] == v, k
    assert expected, "fixture must plant at least one cross-split near-dup"


def test_minhash_store_regimes_agree(tmp_path, monkeypatch):
    """Forcing the bucket-exchange probe + distributed verify regimes must
    reproduce the broadcast path's pair set exactly."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    default = _run_incremental(docs, str(tmp_path / "s1"))
    monkeypatch.setattr(dd, "NEW_BAND_BROADCAST_LIMIT", 0)
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 0)
    forced = _run_incremental(docs, str(tmp_path / "s2"))
    assert forced == default


def test_minhash_store_build_is_idempotent(tmp_path):
    """Re-running the store build over an already-complete store must be a
    no-op (checkpointed partitions pruned) and leave the probe result
    unchanged."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    first = _run_incremental(docs, str(tmp_path / "s"))
    second = _run_incremental(docs, str(tmp_path / "s"))  # rebuild over complete store
    assert first == second


def test_dedup_ngram_planted_duplicates_score_million(tmp_path):
    """Identical docs share every gram → jaccard_micro == 1_000_000; a doc
    pair with half-overlapping gram sets lands at the integer
    round-half-up of the true ratio."""
    base = " ".join(f"w{i}" for i in range(20))
    other = " ".join(f"w{i}" for i in range(10, 30))
    docs = pd.DataFrame(
        {"doc_id": np.arange(3, dtype=np.int64), "text": [base, base, other]}
    )
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    from osm_search_ray.pipelines.dedup_pipelines import dedup_ngram

    out = dedup_ngram(str(tmp_path), threshold_micro=1).to_pandas().set_index(["doc_a", "doc_b"])
    assert out.loc[(0, 1), "jaccard_micro"] == 1_000_000
    # docs 0/2: grams are 18 3-grams each, overlap = grams fully inside
    # w10..w29 ∩ w0..w19 = windows starting at w10..w17 → 8 shared
    i, na, nb = 8, 18, 18
    want = (2 * i * 1_000_000 + (na + nb - i)) // (2 * (na + nb - i))
    assert out.loc[(0, 2), "jaccard_micro"] == want


def test_dedup_ngram_regimes_agree(monkeypatch):
    """Broadcast size-lookup and distributed bucketed-join regimes of
    dedup_ngram must produce the identical pair set."""
    from osm_search_ray.pipelines import dedup_pipelines as dp

    a = dp.dedup_ngram(SF).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(dp, "NGRAM_SIZES_BROADCAST_LIMIT", 0)
    b = dp.dedup_ngram(SF).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_simhash_pairs_unique_and_within_hamming():
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    out = dd.simhash_near_dups(ray.data.from_pandas(docs), max_hamming=3).to_pandas()
    assert len(out) == len(out.drop_duplicates(["doc_a", "doc_b"]))
    assert (out["hamming"] <= 3).all()


def test_embedding_near_dups_finds_planted_duplicates():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 16))
    # plant 3 exact duplicates (ids 20..22 duplicate ids 0..2)
    vecs = np.vstack([base, base[:3]])
    emb = pd.DataFrame({"vec_id": np.arange(23, dtype=np.int64), "embedding": list(vecs)})
    out = dd.embedding_near_dups(
        ray.data.from_pandas(emb), threshold=0.999
    ).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert {(0, 20), (1, 21), (2, 22)} <= found
    assert (out["cosine"] >= 0.999).all()


def test_ngram_jaccard_cap():
    import pytest

    big = pd.DataFrame({"doc_a": np.arange(200_000), "doc_b": np.arange(200_000) + 1})
    with pytest.raises(ValueError, match="SMALL candidate sets"):
        dd.ngram_jaccard_pairs(None, big)


def test_simhash_empty_candidates_typed_schema():
    """Zero candidate pairs must still yield the typed (doc_a, doc_b,
    hamming) frame — map_groups over no groups emits a schema-less dataset
    otherwise (ADVICE r02)."""
    docs = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                         "text": ["alpha one", "beta two", "gamma three", "delta four"]})
    out = dd.simhash_near_dups(ray.data.from_pandas(docs), max_hamming=0)
    # schema (not to_pandas — Ray 2.49 drops columns of empty datasets there)
    assert out.schema().names == ["doc_a", "doc_b", "hamming"]
    assert out.count() == 0


def test_embedding_near_dups_salted_hot_bucket_bounded():
    """A degenerate (all-identical-direction) corpus lands every vector in
    one bucket per band; with max_bucket tiny the bucket is salt-split so
    no group does more than O(max_bucket^2) work, and the per-band salts
    still recover pairs across bands. Output must stay a subset of true
    >=threshold pairs with exact cosines."""
    rng = np.random.default_rng(7)
    base = rng.standard_normal(16)
    # 30 near-identical vectors (tiny jitter, cosine ~1) + 10 random
    vecs = np.vstack([base + rng.standard_normal((30, 16)) * 1e-3,
                      rng.standard_normal((10, 16))])
    emb = pd.DataFrame({"vec_id": np.arange(40, dtype=np.int64), "embedding": list(vecs)})
    out = dd.embedding_near_dups(
        ray.data.from_pandas(emb), threshold=0.999, max_bucket=8, bands=4
    ).to_pandas()
    # every reported pair is a true near-dup pair among the planted block
    assert (out["cosine"] >= 0.999).all()
    assert ((out["doc_a"] < 30) & (out["doc_b"] < 30)).all()
    assert len(out) == len(out.drop_duplicates(["doc_a", "doc_b"]))
    # the capped groups still recover a meaningful share of the 435 true
    # pairs (~4 salts of ~8 per band × 4 bands; deterministic: 98 here)
    assert len(out) > 80, len(out)


def test_embedding_verify_paths_agree(monkeypatch):
    """Broadcast and bucketed-join cosine-verify regimes must produce the
    same pairs and cosines (same forcing trick as the minhash test)."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 16))
    vecs = np.vstack([base, base[:5] + rng.standard_normal((5, 16)) * 1e-3])
    emb = pd.DataFrame({"vec_id": np.arange(25, dtype=np.int64), "embedding": list(vecs)})
    broadcast = dd.embedding_near_dups(ray.data.from_pandas(emb), threshold=0.99).to_pandas()
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 0)
    joined = dd.embedding_near_dups(ray.data.from_pandas(emb), threshold=0.99).to_pandas()
    key = ["doc_a", "doc_b"]
    b = broadcast.sort_values(key).reset_index(drop=True)
    j = joined.sort_values(key).reset_index(drop=True)
    assert len(b) >= 5
    pd.testing.assert_frame_equal(b[key], j[key])
    np.testing.assert_allclose(b["cosine"].to_numpy(), j["cosine"].to_numpy(), rtol=0, atol=1e-12)


def test_ngram_jaccard_distributed_equals_driver():
    """The distributed bucketed-join n-gram Jaccard verify must reproduce
    the (capped) driver verifier's exact values on real candidate pairs."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    cand = dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).to_pandas()[["doc_a", "doc_b"]]
    assert len(cand) > 0
    driver = dd.ngram_jaccard_pairs(ray.data.from_pandas(docs), cand)
    dist = dd.ngram_jaccard_pairs_ds(
        ray.data.from_pandas(docs), ray.data.from_pandas(cand)
    ).to_pandas()
    key = ["doc_a", "doc_b"]
    a = driver.sort_values(key).reset_index(drop=True)
    b = dist.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[key], b[key])
    np.testing.assert_allclose(a["jaccard"].to_numpy(), b["jaccard"].to_numpy(), rtol=0, atol=0)


class TestSubstringDedup:
    """Exact-substring (maximal shared token run) dedup."""

    def _run(self, texts, tmp_path, **kw):
        import pyarrow as pa

        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        pq.write_table(t, f"{tmp_path}/documents.parquet")
        from osm_search_ray.pipelines.dedup_pipelines import dedup_substring

        ds = dedup_substring(str(tmp_path), **kw)
        cols = ["doc_a", "doc_b", "start_a", "start_b", "n_tokens"]
        assert set(ds.schema().names) == set(cols)  # typed even when empty
        df = ds.to_pandas()
        if df.empty:  # Ray 2.49 to_pandas drops columns on 0-row datasets
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        return df.sort_values(["doc_a", "doc_b", "start_a"]).reset_index(drop=True)

    def test_maximal_run_reported_once(self, tmp_path):
        """A 12-token shared span with k=8 is ONE maximal run of 12 tokens,
        not five overlapping 8-token matches."""
        shared = "a b c d e f g h i j k l"
        out = self._run([f"x1 y1 {shared} z1", f"x2 q2 w2 {shared} z2 v2"], tmp_path, k=8)
        assert len(out) == 1
        r = out.iloc[0]
        assert (r["doc_a"], r["doc_b"], r["n_tokens"]) == (0, 1, 12)
        assert (r["start_a"], r["start_b"]) == (3, 4)  # 1-based token positions

    def test_two_disjoint_runs_split(self, tmp_path):
        s1, s2 = "a b c d e f g h", "p q r s t u v w"
        out = self._run([f"{s1} GAP1 GAP2 {s2}", f"{s1} other tokens here now {s2}"], tmp_path, k=8)
        assert len(out) == 2
        assert sorted(out["n_tokens"]) == [8, 8]

    def test_no_cross_doc_boundary_grams(self, tmp_path):
        """Tokens at the end of doc i + start of doc i+1 never form a gram."""
        out = self._run(["a b c d", "e f g h", "a b c d e f g h"], tmp_path, k=8)
        assert len(out) == 0  # docs 0/1 are shorter than k; no spliced grams

    def test_hot_gram_cap_bounds_work(self, tmp_path):
        """max_occ=2 on a gram shared by 4 docs: completes with bounded rows
        (the capped path drops the hot gram, the planted cold run stays)."""
        hot = "h1 h2 h3 h4 h5 h6 h7 h8"
        cold = "c1 c2 c3 c4 c5 c6 c7 c8 c9"
        texts = [f"{hot} pad{i}" for i in range(4)] + [f"lead {cold}", f"{cold} tail"]
        out = self._run(texts, tmp_path, k=8, max_occ=2)
        assert set(map(tuple, out[["doc_a", "doc_b"]].to_numpy())) == {(4, 5)}
        assert out.iloc[0]["n_tokens"] == 9


# --------------------------------------------------- SemDeDup semantic dedup


def _semantic_brute_force(vecs, ids, k=16, threshold=0.35, seed=23):
    """Independent numpy replay of the semantic_dedup contract: splitmix64
    centroid pick, ordered-cosine argmax assignment, FULL O(n²)
    within-cluster pairwise witness (no salting, no joins) — the oracle the
    distributed path must reproduce exactly when clusters fit one salt."""
    from osm_search_ray.functions.hashing import splitmix64
    from osm_search_ray.stages.dedup import ordered_dot, ordered_proj

    ids = np.asarray(ids, dtype=np.int64)
    with np.errstate(over="ignore"):
        key = splitmix64(ids.astype(np.uint64) + (np.uint64(seed) << np.uint64(32)))
    order = np.lexsort((ids, key))
    cent_idx = order[:k]
    cm = vecs[cent_idx]
    cd = np.maximum(np.sqrt(ordered_dot(cm, cm)), 1e-12)
    den = np.maximum(np.sqrt(ordered_dot(vecs, vecs)), 1e-12)
    cos = ordered_proj(vecs, cm) / (den[:, None] * cd[None, :])
    cl = np.argmax(cos, axis=1).astype(np.int64)
    is_dup = np.zeros(len(ids), dtype=np.int64)
    by_id = np.argsort(ids, kind="mergesort")
    for c in np.unique(cl):
        members = by_id[cl[by_id] == c]
        for xi in range(len(members)):
            for yi in range(xi + 1, len(members)):
                a, b = members[xi], members[yi]
                num = float(ordered_dot(vecs[a : a + 1], vecs[b : b + 1])[0])
                if num / (den[a] * den[b]) >= threshold:
                    is_dup[b] = 1
    return cl, is_dup


def test_semantic_dedup_matches_brute_force():
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]).to_pandas()
    vecs = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    ids = emb["vec_id"].to_numpy(dtype=np.int64)
    cl_exp, dup_exp = _semantic_brute_force(vecs, ids)
    out = dd.semantic_dedup(ray.data.from_pandas(emb)).to_pandas()
    out = out.set_index("vec_id").loc[ids]
    np.testing.assert_array_equal(out["cluster"].to_numpy(), cl_exp)
    np.testing.assert_array_equal(out["is_dup"].to_numpy(), dup_exp)
    assert dup_exp.sum() > 0  # the corpus actually exercises the dup path


def test_semantic_dedup_planted_duplicates():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((30, 16))
    vecs = np.vstack([base, base[:3]])  # ids 30..32 duplicate ids 0..2
    emb = pd.DataFrame({"vec_id": np.arange(33, dtype=np.int64), "embedding": list(vecs)})
    out = dd.semantic_dedup(ray.data.from_pandas(emb), k=4, threshold=0.999).to_pandas()
    flagged = set(out.loc[out["is_dup"] == 1, "vec_id"])
    # identical vectors share bit-identical cosines → same cluster; the
    # HIGHER id of each planted pair is the witnessed duplicate
    assert {30, 31, 32} <= flagged
    assert flagged.isdisjoint({0, 1, 2})
    cl = out.set_index("vec_id")["cluster"]
    assert all(cl[i] == cl[i + 30] for i in range(3))


def test_semantic_dedup_flag_regimes_agree(monkeypatch):
    """Broadcast flag vs bucketed-LEFT-join flag must emit identical frames
    (PAIR_DRIVER_LIMIT=0 forces the distributed fallback)."""
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]).to_pandas()
    a = dd.semantic_dedup(ray.data.from_pandas(emb)).to_pandas().sort_values("vec_id").reset_index(drop=True)
    monkeypatch.setattr(dd, "PAIR_DRIVER_LIMIT", 0)
    b = dd.semantic_dedup(ray.data.from_pandas(emb)).to_pandas().sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns].astype(a.dtypes.to_dict()))


def test_line_dedup_matches_bruteforce():
    """line_dedup == a driver-side brute force: first (doc_id, line_no)
    occurrence of each distinct 10-word window survives, texts reassemble
    in line order, zero-kept docs come back with empty text."""
    from osm_search_ray.pipelines.dedup_pipelines import LINE_WORDS, line_dedup

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    rows = []
    for d, t in zip(docs["doc_id"], docs["text"]):
        toks = t.split(" ")
        n = (len(toks) + LINE_WORDS - 1) // LINE_WORDS
        for j in range(n):
            rows.append((int(d), j, " ".join(toks[j * LINE_WORDS : (j + 1) * LINE_WORDS])))
    df = pd.DataFrame(rows, columns=["doc_id", "line_no", "line"])
    first = df.sort_values(["doc_id", "line_no"]).drop_duplicates("line", keep="first")
    kept = set(zip(first["doc_id"], first["line_no"]))
    want = {}
    for d, g in df.groupby("doc_id"):
        ks = g[[(r.doc_id, r.line_no) in kept for r in g.itertuples()]]
        want[int(d)] = ("\n".join(ks.sort_values("line_no")["line"]), len(g), len(ks))

    got = line_dedup(SF).to_pandas().set_index("doc_id")
    assert len(got) == len(want)
    assert (got["n_kept"] <= got["n_lines"]).all()
    for d, (txt, nl, nk) in want.items():
        r = got.loc[d]
        assert (r["text_dedup"], r["n_lines"], r["n_kept"]) == (txt, nl, nk)


def test_dedup_ngram_prefix_is_lossless_and_prunes():
    """The prefix filter must reproduce the UNCAPPED brute-force threshold
    join exactly (losslessness), while generating far fewer candidates than
    all-pairs (the point of the filter)."""
    from osm_search_ray.functions.hashing import hash64_str
    from osm_search_ray.functions.tokenize import tokenize_array
    from osm_search_ray.pipelines.dedup_pipelines import (
        NGRAM_N,
        NGRAM_THRESHOLD_MICRO,
        dedup_ngram_prefix,
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    toks, counts = tokenize_array(docs["text"].tolist())
    sets, pos = {}, 0
    for doc, c in zip(docs["doc_id"], counts):
        t = toks[pos : pos + c]
        pos += c
        grams = [" ".join(t[i : i + NGRAM_N]) for i in range(max(0, len(t) - NGRAM_N + 1))]
        sets[int(doc)] = set(np.unique(hash64_str(grams)).tolist()) if grams else set()
    want = {}
    ids = sorted(sets)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = sets[ids[x]], sets[ids[y]]
            i = len(a & b)
            if not i:
                continue
            den = len(a) + len(b) - i
            jm = (2 * i * 1_000_000 + den) // (2 * den)
            if jm >= NGRAM_THRESHOLD_MICRO:
                want[(ids[x], ids[y])] = jm

    got = dedup_ngram_prefix(SF).to_pandas()
    got_map = {
        (int(r.doc_a), int(r.doc_b)): int(r.jaccard_micro) for r in got.itertuples()
    }
    assert got_map == want
    # pruning: surviving pairs are a tiny fraction of all C(n,2) pairs
    assert len(got_map) < len(ids) * (len(ids) - 1) // 20


def test_minhash_hot_bucket_guard(ray_session):
    """A near-identical clique larger than LSH_BUCKET_CAP must fail LOUDLY
    (K²/2 silent candidate pairs is the 100 TB boilerplate pathology) —
    the PREFIX_MAX_OCC discipline applied to LSH band buckets."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data

    from osm_search_ray.stages import dedup as dd

    n = dd.LSH_BUCKET_CAP + 8
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": ["the same boilerplate sentence repeated everywhere"] * n,
        }
    )
    with pytest.raises(Exception, match="LSH_BUCKET_CAP|band bucket"):
        dd.minhash_lsh_pairs(ray.data.from_pandas(docs), threshold=0.5).materialize()
