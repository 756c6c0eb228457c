"""Text index, scoring, LM, spell correction, and search — reference-parity
tests (expectations mirror /root/reference/pkg/searcher/*_test.go and
pkg/index/indexer_test.go fixture semantics)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from osm_search_ray.pipelines import search as search_mod
from osm_search_ray.pipelines import text_index as ti
from osm_search_ray.pipelines.scoring import SCORERS, rank_scores
from osm_search_ray.state.lm import NGramLM, count_ngrams
from osm_search_ray.state.spell import SpellCorrector, edit_distance_candidates
from osm_search_ray.sources.readers import read_pq

DOCS = pd.DataFrame(
    {
        "doc_id": np.arange(8, dtype=np.int64),
        "name": [
            "Dunia Fantasi",
            "Kebun Binatang Ragunan",
            "Monumen Nasional",
            "Taman Mini Indonesia",
            "Jalan Dunia Baru",
            "Jalan Kebun Jeruk Apel",
            "Jalan Pantai Ancol",
            "Jalan Sentosa Harapan",
        ],
        "address": [
            "Jalan Lodan Timur, Ancol, Jakarta Utara",
            "Jalan Harsono, Ragunan, Jakarta Selatan",
            "Gambir, Jakarta Pusat",
            "Ceger, Jakarta Timur",
            "Jalan Dunia Baru",
            "Jalan Kebun Jeruk Apel",
            "Jalan Pantai Ancol",
            "Jalan Sentosa Harapan",
        ],
    }
)


@pytest.fixture(scope="module")
def index():
    return ti.build_text_index(ray.data.from_pandas(DOCS))


class TestTextIndex:
    def test_term_ids_sorted_deterministic(self, index):
        t = index.terms
        assert (t["term"].to_numpy() == np.sort(t["term"].to_numpy())).all()
        assert (t["term_id"].to_numpy() == np.arange(len(t))).all()

    def test_postings_tf(self, index):
        vocab = index.vocab()
        p = index.postings
        # "jalan" appears twice in doc 4's address? no — once in name, once in address
        jalan = p[p["term_id"] == vocab["jalan"]]
        # doc 4 name: "Jalan Dunia Baru" → tf 1 in field 0
        row = jalan[(jalan["doc_id"] == 4) & (jalan["field"] == ti.FIELD_NAME)]
        assert row["tf"].iloc[0] == 1
        # doc 0 address has "jalan" once
        row = jalan[(jalan["doc_id"] == 0) & (jalan["field"] == ti.FIELD_ADDRESS)]
        assert row["tf"].iloc[0] == 1

    def test_df_distinct_across_fields(self, index):
        vocab = index.vocab()
        stats = index.term_stats.set_index("term_id")["df"]
        # "ancol": docs 0 (address), 6 (name+address) → df = 2
        assert stats[vocab["ancol"]] == 2
        # "jakarta": docs 0,1,2,3 addresses → df = 4
        assert stats[vocab["jakarta"]] == 4

    def test_field_lengths(self, index):
        p = index.postings
        d0 = p[p["doc_id"] == 0].iloc[0]
        assert d0["name_len"] == 2  # "dunia fantasi"
        assert d0["address_len"] == 6
        assert d0["total_len"] == 8
        assert index.globals["docs_count"] == 8

    def test_save_load_roundtrip(self, index, tmp_path):
        ti.save_text_index(index, str(tmp_path / "idx"))
        loaded = ti.load_text_index(str(tmp_path / "idx"))
        assert loaded.globals == index.globals
        pd.testing.assert_frame_equal(
            loaded.postings.reset_index(drop=True), index.postings.reset_index(drop=True)
        )


class TestScoring:
    def test_bm25_field_ranks_name_match_first(self, index):
        vocab = index.vocab()
        tids = [vocab["dunia"], vocab["fantasi"]]
        p = index.postings[index.postings["term_id"].isin(tids)]
        scores = SCORERS["BM25_FIELD"](p, tids, index.globals)
        ranked = rank_scores(scores, k=10)
        assert ranked["doc_id"].iloc[0] == 0  # "Dunia Fantasi" itself

    def test_bm25_plus_formula_quirk(self, index):
        """Verify the (K1+1)+tf numerator exactly on a single-term case."""
        vocab = index.vocab()
        tid = vocab["gambir"]  # only doc 2, tf 1 (address)
        p = index.postings[index.postings["term_id"] == tid]
        scores = SCORERS["BM25_PLUS"](p, [tid], index.globals)
        n = index.globals["docs_count"]
        avg = index.globals["avg_total_len"]
        dl = p["total_len"].iloc[0]
        idf = np.log10(n + 1) - np.log10(1)
        expect = idf * (1.0 + ((1.2 + 1) + 1) / (1.2 * (1 - 0.98 + 0.98 * dl / avg) + 1))
        assert scores[2] == pytest.approx(expect, rel=1e-12)

    def test_duplicate_query_terms_double_count_bm25f_only(self, index):
        vocab = index.vocab()
        tid = vocab["gambir"]
        p = index.postings[index.postings["term_id"] == tid]
        s1 = SCORERS["BM25_FIELD"](p, [tid], index.globals)
        s2 = SCORERS["BM25_FIELD"](p, [tid, tid], index.globals)
        assert s2[2] == pytest.approx(2 * s1[2])  # per-occurrence loop
        b1 = SCORERS["BM25_PLUS"](p, [tid], index.globals)
        b2 = SCORERS["BM25_PLUS"](p, [tid, tid], index.globals)
        assert b2[2] == pytest.approx(b1[2])  # distinct-term loop

    def test_tfidf_no_norm(self, index):
        vocab = index.vocab()
        tid = vocab["gambir"]
        p = index.postings[index.postings["term_id"] == tid]
        scores = SCORERS["TF_IDF_COSINE"](p, [tid], index.globals)
        n = index.globals["docs_count"]
        idf = np.log10(n) - np.log10(1)
        # tf_q = 1+log10(1) = 1; tf_d = 1+log10(1) = 1 → score = idf^2 (no norm)
        assert scores[2] == pytest.approx(idf * idf)


class TestNGramLM:
    def test_windowed_gram_counts_equals_per_doc(self):
        """The vectorized window counter both Ray LM paths use must be
        multiset-identical to the per-doc reference form count_doc_ngrams
        (r3 code review: the claimed parity had no test). Covers empty docs,
        1-token docs, repeated tokens, and an all-empty batch."""
        from osm_search_ray.state.lm import count_doc_ngrams, windowed_gram_counts

        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(9)]
        docs = [list(rng.choice(vocab, size=int(n))) for n in rng.integers(0, 12, 60)]
        docs += [[], ["solo"], ["a", "a", "a"]]
        expect: dict = {}
        for d in docs:
            count_doc_ngrams(expect, d)
        flat = np.array([t for d in docs for t in d], dtype=object)
        counts = np.array([len(d) for d in docs], dtype=np.int64)
        ns, gs, cs = windowed_gram_counts(flat, counts)
        got = {(int(n), g): int(c) for n, g, c in zip(ns, gs, cs)}
        assert got == expect
        # all-empty batch
        ns, gs, cs = windowed_gram_counts(np.empty(0, object), np.zeros(0, np.int64))
        assert len(ns) == 0 and len(gs) == 0 and len(cs) == 0

    def test_counts_match_reference_fixture(self):
        """pkg/searcher/ngram_lm_test.go:46-115 with 0→<s>, 1→</s>."""
        docs = [["3", "4", "5"], ["6", "5", "5", "5", "5"], ["11", "12", "6", "6", "6"]]
        lm = count_ngrams(docs)
        assert lm.unigram == {"<s>": 3, "</s>": 3, "3": 1, "4": 1, "5": 5, "6": 4, "11": 1, "12": 1}
        assert lm.total_word_freq == 19
        expected_bigram = {
            ("<s>", "<s>"): 3,
            ("<s>", "3"): 1,
            ("<s>", "6"): 1,
            ("<s>", "11"): 1,
            ("3", "4"): 1,
            ("4", "5"): 1,
            ("6", "5"): 1,
            ("5", "5"): 3,
            ("11", "12"): 1,
            ("12", "6"): 1,
            ("6", "6"): 2,
            ("5", "</s>"): 2,
            ("6", "</s>"): 1,
        }
        assert lm.bigram == expected_bigram

    def test_stupid_backoff(self):
        docs = [["a", "b", "c"], ["a", "b", "d"]]
        lm = count_ngrams(docs)
        # full 4-gram exists: P(c | <s> a b) = quad(s,a,b,c)/tri(s,a,b) = 1/2
        assert lm.stupid_backoff("c", ("<s>", "a", "b"), 4) == pytest.approx(0.5)
        # backoff once: unseen 4-gram ctx → 0.4 * trigram
        p = lm.stupid_backoff("c", ("x", "a", "b"), 4)
        assert p == pytest.approx(0.4 * (lm.trigram[("a", "b", "c")] / lm.bigram[("a", "b")]))

    def test_query_log_prob_scores_raw_tokens(self):
        """EstimateQueriesProbabilities (ngram_lm.go:300-318) scores the
        caller's tokens as-is — no <UNK> substitution. A freq-1 word
        (counted as <UNK> during training) must score -inf, not inherit
        the aggregate <UNK> probability mass (ADVICE r01, medium)."""
        from collections import Counter

        docs = [["kebun", "raya"]] * 3 + [["rarething"]]
        freq = Counter(t for d in docs for t in d)
        lm = count_ngrams(docs, vocab={t for t, c in freq.items() if c >= 2})
        assert "rarething" not in lm.vocab and lm.unigram["<UNK>"] == 1
        assert lm.query_log_prob(["rarething"]) == -np.inf
        # the <UNK> mass exists but only scores when asked for explicitly
        assert lm.query_log_prob(["<UNK>"]) > -np.inf

    def test_query_log_prob_ranks_seen_sentences(self):
        docs = [["kebun", "binatang", "ragunan"]] * 3 + [["kebun", "jeruk"]]
        lm = count_ngrams(docs)
        good = lm.query_log_prob(["kebun", "binatang", "ragunan"])
        bad = lm.query_log_prob(["ragunan", "kebun", "binatang"])
        assert good > bad


class TestSpell:
    def test_edit_distance_candidates_sorted(self):
        vocab = sorted(["jalan", "jalur", "jalanan", "kebun", "dunia"])
        c1 = edit_distance_candidates("jalen", vocab, 1)
        assert c1 == ["jalan"]
        c2 = edit_distance_candidates("jalen", vocab, 2)
        assert c2 == ["jalan", "jalur"]  # lexicographic order

    def test_correct_query_reference_misspellings(self):
        """searcher_test.go:50-190: 'Duniu Fsntaso' → 'dunia fantasi',
        'Kebun Bibatqng Raginan' → 'kebun binatang ragunan'."""
        corpus = [["dunia", "fantasi"], ["kebun", "binatang", "ragunan"], ["monumen", "nasional"]] * 2
        lm = count_ngrams(corpus)
        sc = SpellCorrector.build(lm.vocab, lm)
        assert sc.correct_query(["duniu", "fsntaso"]) == ["dunia", "fantasi"]
        assert sc.correct_query(["kebun", "bibatqng", "raginan"]) == ["kebun", "binatang", "ragunan"]

    def test_word_candidates_length_bucketed_equals_full_scan(self):
        """The length-bucketed candidate generation must return exactly the
        full-vocab scan's result (same set, same lexicographic order)."""
        vocab = {"jalan", "jalur", "jalanan", "kebun", "dunia", "dunias", "ab", "jaln", "ja"}
        lm = count_ngrams([sorted(vocab)])
        sc = SpellCorrector.build(vocab, lm)
        for word in ["jalen", "dunia", "x", "jalanan", "ke"]:
            for d in (1, 2):
                assert sc.word_candidates(word, d) == edit_distance_candidates(word, sorted(vocab), d), (word, d)

    def test_spell_search_corrects_seeded_typos(self):
        """End-to-end FreeFormQuery flow on the driver corpus: every seeded
        typo in SPELL_QUERIES corrects back to the intended vocab terms
        (searcher_test.go:50-190 semantics on our corpus)."""
        import ray.data

        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines.search_docs import QUERIES, SPELL_QUERIES
        from osm_search_ray.state.lm import build_ngram_lm

        ds = read_pq("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
        lm = build_ngram_lm(ds, text_cols=["text"])
        sc = SpellCorrector.build(lm.full_vocab, lm)
        expected = {qid: tokenize(text) for qid, text in QUERIES}
        for qid, typo_text in SPELL_QUERIES:
            assert sc.correct_query(tokenize(typo_text)) == expected[qid], qid

    def test_autocomplete_prefix(self):
        """'kebun binatang ra' → 'kebun binatang ragunan' (searcher_test.go)."""
        corpus = [["kebun", "binatang", "ragunan"], ["kebun", "raya", "bogor"], ["taman", "ria"]] * 2
        lm = count_ngrams(corpus)
        sc = SpellCorrector.build(lm.vocab, lm)
        out = sc.autocomplete(["kebun", "binatang", "ra"])
        assert out[0] == ["kebun", "binatang", "ragunan"]
        assert len(out) <= 3


class TestSearchPipeline:
    def test_free_form_query_golden(self, index):
        queries = pd.DataFrame(
            {"query_id": [0, 1], "text": ["Dunia Fantasi", "kebun binatang ragunan"], "scoring": ["BM25_FIELD"] * 2, "top_k": [5, 5], "offset": [0, 0]}
        )
        res = search_mod.free_form_search(index, queries).to_pandas()
        top0 = res[(res["query_id"] == 0) & (res["rank"] == 1)]["doc_id"].iloc[0]
        top1 = res[(res["query_id"] == 1) & (res["rank"] == 1)]["doc_id"].iloc[0]
        assert top0 == 0 and top1 == 1

    def test_free_form_query_with_spell_correction(self, index):
        lm = count_ngrams([["dunia", "fantasi"], ["kebun", "binatang", "ragunan"]] * 2)
        sc = SpellCorrector.build(lm.vocab, lm)
        queries = pd.DataFrame({"query_id": [0], "text": ["Duniu Fsntaso"], "scoring": ["BM25_FIELD"], "top_k": [5], "offset": [0]})
        res = search_mod.free_form_search(index, queries, corrector=sc).to_pandas()
        assert res[res["rank"] == 1]["doc_id"].iloc[0] == 0

    def test_all_scorings_run(self, index):
        for s in ("BM25_FIELD", "BM25_PLUS", "TF_IDF_COSINE"):
            queries = pd.DataFrame({"query_id": [0], "text": ["jalan ancol"], "scoring": [s], "top_k": [3], "offset": [0]})
            res = search_mod.free_form_search(index, queries).to_pandas()
            assert len(res) > 0

    def test_offset_slicing(self, index):
        q0 = pd.DataFrame({"query_id": [0], "text": ["jalan"], "scoring": ["BM25_PLUS"], "top_k": [10], "offset": [0]})
        q2 = pd.DataFrame({"query_id": [0], "text": ["jalan"], "scoring": ["BM25_PLUS"], "top_k": [10], "offset": [2]})
        r0 = search_mod.free_form_search(index, q0).to_pandas().sort_values("rank")
        r2 = search_mod.free_form_search(index, q2).to_pandas().sort_values("rank")
        assert r0["doc_id"].iloc[2:].tolist() == r2["doc_id"].iloc[: len(r0) - 2].tolist()

    def test_boolean_and(self, index):
        queries = pd.DataFrame({"query_id": [0], "text": ["jalan ancol"]})
        res = search_mod.boolean_and_search(index, queries).to_pandas()
        # docs containing BOTH 'jalan' and 'ancol': doc 0 (address) and doc 6
        assert set(res["doc_id"]) == {0, 6}


def test_spimi_posting_lists():
    """Reference tf-by-repetition posting shape (pkg/index/indexer.go:811-817)."""
    docs = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["apel apel malang", "apel", "jeruk malang"]})
    out = ti.spimi_postings_lists(ray.data.from_pandas(docs)).to_pandas()
    apel = out[out["term"] == "apel"].iloc[0]
    assert apel["doc_ids"] == [0, 0, 1]  # doc 0 twice (tf=2), doc 1 once
    assert apel["n_postings"] == 3


class TestSpimiReferenceParity:
    """Exact expectations from pkg/index/indexer_test.go:80-135, translated
    from the reference's arrival-order term ids to term strings (our ids are
    deterministic-sorted; parity is asserted at the semantic level the
    reference's own tests use — posting sets with multiplicity + lengths)."""

    CORPUS = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "name": [
                "Jalan Sentosa Harapan",
                "Jalan Dunia Baru",
                "Jalan Mulwo Apel",
                "Jalan Kebun Jeruk Apel",
                "Jalan Pantai Ancol",
            ],
            "address": [""] * 5,
        }
    )
    # reference arrival-order vocab: jalan=0 sentosa=1 harapan=2 dunia=3
    # baru=4 mulwo=5 apel=6 kebun=7 jeruk=8 pantai=9 ancol=10; expectedPairs
    # (indexer_test.go:98-115) regrouped per term:
    EXPECTED_POSTINGS = {
        "jalan": [1, 2, 3, 4, 5],
        "sentosa": [1],
        "harapan": [1],
        "dunia": [2],
        "baru": [2],
        "mulwo": [3],
        "apel": [3, 4],
        "kebun": [4],
        "jeruk": [4],
        "pantai": [5],
        "ancol": [5],
    }
    EXPECTED_LEN_DF = {1: 3, 2: 3, 3: 3, 4: 4, 5: 3}

    def test_posting_lists_match(self):
        out = ti.spimi_postings_lists(
            ray.data.from_pandas(self.CORPUS.rename(columns={"name": "text"})[["doc_id", "text"]])
        ).to_pandas()
        got = {r["term"]: list(r["doc_ids"]) for _, r in out.iterrows()}
        assert got == self.EXPECTED_POSTINGS

    def test_field_lengths_match(self):
        index = ti.build_text_index(ray.data.from_pandas(self.CORPUS))
        lens = (
            index.postings[index.postings["field"] == ti.FIELD_NAME]
            .groupby("doc_id")["name_len"]
            .first()
            .to_dict()
        )
        assert lens == self.EXPECTED_LEN_DF

    def test_single_doc_concat_case(self):
        """indexer_test.go:40-60: one doc with all five names concatenated →
        16 token occurrences, jalan tf=5, apel tf=2."""
        doc = pd.DataFrame(
            {
                "doc_id": [1],
                "text": ["Jalan Sentosa Harapan Jalan Dunia Baru Jalan Mulwo Apel Jalan Kebun Jeruk Apel Jalan Pantai Ancol"],
            }
        )
        out = ti.spimi_postings_lists(ray.data.from_pandas(doc)).to_pandas()
        total = out["n_postings"].sum()
        assert total == 16  # lenDF[1] == 16 in the reference
        got = dict(zip(out["term"], out["doc_ids"]))
        assert got["jalan"] == [1] * 5
        assert got["apel"] == [1] * 2


class TestServingSession:
    def test_session_matches_pipeline_and_stays_warm(self, index):
        """The long-lived QuerySession returns exactly the batch pipeline's
        results, and repeated calls reuse the loaded state (ms-scale round
        trips, no per-query pipeline startup — the serving gap from
        VERDICT r01 'What's missing' 4)."""
        import time

        from osm_search_ray import serving
        from osm_search_ray.pipelines.search import free_form_search

        queries = pd.DataFrame(
            {
                "query_id": [0, 1],
                "text": ["dunia fantasi", "jalan ancol"],
                "scoring": ["BM25_FIELD", "BM25_PLUS"],
                "top_k": [3, 3],
                "offset": [0, 0],
            }
        )
        want = (
            free_form_search(index, queries)
            .to_pandas()[["query_id", "doc_id", "rank"]]
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        sess = serving.start_session(index, name="test_session")
        got = (
            pd.DataFrame(sess.search(queries.to_dict("records")))[["query_id", "doc_id", "rank"]]
            .astype(want.dtypes.to_dict())
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

        # re-attach by name — no reload — and measure warm round-trips
        sess2 = serving.get_session("test_session")
        t0 = time.time()
        for _ in range(5):
            sess2.search(queries.to_dict("records"))
        per_call = (time.time() - t0) / 5
        # warm calls are ms-scale locally; the generous bound keeps this
        # meaningful (vs seconds of pipeline startup) without flaking when
        # the shared-tenancy host stalls
        assert per_call < 2.5, per_call
        sess.stop()


class TestWriterParity:
    def test_ds_and_driver_index_writers_agree(self, index, tmp_path):
        """The distributed writer (save_text_index_ds over Dataset
        artifacts) and the driver writer (save_text_index over the in-RAM
        index) must produce byte-equivalent logical artifacts: same terms,
        postings, term_stats and globals after load."""
        ti.save_text_index(index, str(tmp_path / "a"))
        idx_ds = ti.build_text_index_ds(ray.data.from_pandas(DOCS))
        ti.save_text_index_ds(idx_ds, str(tmp_path / "b"))
        a = ti.load_text_index(str(tmp_path / "a"))
        b = ti.load_text_index(str(tmp_path / "b"))
        pd.testing.assert_frame_equal(a.terms, b.terms)
        key = ["field", "term_id", "doc_id"]
        pd.testing.assert_frame_equal(
            a.postings.sort_values(key).reset_index(drop=True).astype(np.int64),
            b.postings.sort_values(key).reset_index(drop=True).astype(np.int64),
        )
        pd.testing.assert_frame_equal(
            a.term_stats.sort_values("term_id").reset_index(drop=True).astype(np.int64),
            b.term_stats.sort_values("term_id").reset_index(drop=True).astype(np.int64),
        )
        assert a.globals == b.globals


class TestSessionReplace:
    def test_start_session_replaces_live_name(self, index):
        """A second start_session under the same name must KILL + replace
        the live actor, never raise (ADVICE r02 — get_if_exists=False made
        name collisions a ValueError)."""
        from osm_search_ray import serving

        s1 = serving.start_session(index, name="replace-test")
        s2 = serving.start_session(index, name="replace-test")  # must not raise
        s2.warmup()
        # the registered name now resolves to the NEW actor
        assert serving.get_session("replace-test")._handle == s2._handle
        s2.stop()


class TestDistributedTermDictionary:
    def test_broadcast_and_join_term_id_paths_agree(self):
        """The two term_id assignment strategies (broadcast searchsorted vs
        hash-partitioned string-key join) must yield identical postings —
        the join path is the 10^8+-term regime where the dictionary never
        fits one heap (VERDICT r02 missing item 2)."""
        key = ["field", "term_id", "doc_id"]
        cols = key + ["term", "tf", "name_len", "address_len", "total_len"]
        b = ti.build_text_index_ds(ray.data.from_pandas(DOCS), term_id_strategy="broadcast")
        j = ti.build_text_index_ds(ray.data.from_pandas(DOCS), term_id_strategy="join")
        bp = b.postings.to_pandas()[cols].sort_values(key).reset_index(drop=True)
        jp = j.postings.to_pandas()[cols].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(bp, jp.astype(bp.dtypes.to_dict()))
        assert b.n_terms == j.n_terms

    def test_dictionary_never_driver_resident_and_ids_dense_sorted(self):
        idx = ti.build_text_index_ds(ray.data.from_pandas(DOCS))
        assert isinstance(idx.terms, ray.data.Dataset)
        t = idx.terms.to_pandas()
        assert (t["term"].to_numpy() == np.sort(t["term"].to_numpy())).all()
        assert (t["term_id"].to_numpy() == np.arange(len(t))).all()
        # matches the in-RAM builder's dictionary exactly
        ram = ti.build_text_index(ray.data.from_pandas(DOCS))
        pd.testing.assert_frame_equal(
            t.reset_index(drop=True), ram.terms.reset_index(drop=True), check_dtype=False
        )

    def test_pruned_term_lookup(self, index, tmp_path):
        """read_term_ids must resolve exactly the requested tokens while
        reading only buckets whose footer term range can contain them."""
        out = str(tmp_path / "ti")
        ti.save_text_index(index, out, num_buckets=4)
        got = ti.read_term_ids(out, ["jalan", "ancol", "zzz-not-a-term"])
        vocab = index.vocab()
        assert got == {"jalan": vocab["jalan"], "ancol": vocab["ancol"]}


class TestSymSpellDeletesIndex:
    def test_deletes_index_equals_scan_on_corpus_vocab(self):
        """The SymSpell deletes-index candidate generation must equal the
        length-bucketed DP scan exactly (same set, same lexicographic
        order) over the real sf0.001 corpus vocabulary, for in-vocab words,
        seeded typos, and OOV garbage, at d=1 and d=2."""
        import ray.data

        from osm_search_ray.state.lm import build_ngram_lm

        ds = read_pq("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
        lm = build_ngram_lm(ds, text_cols=["text"])
        fast = SpellCorrector.build(lm.full_vocab, lm, use_deletes_index=True)
        slow = SpellCorrector.build(lm.full_vocab, lm, use_deletes_index=False)
        assert fast.deletes is not None and slow.deletes is None
        vocab_list = fast.vocab_sorted
        probes = vocab_list[:5] + ["jalen", "xqzzy", "a", vocab_list[len(vocab_list) // 2] + "x"]
        for word in probes:
            for d in (1, 2):
                assert fast.word_candidates(word, d) == slow.word_candidates(word, d), (word, d)


class TestDatasetSideLM:
    def test_build_merges_partials_exactly(self):
        """build_ngram_lm merges its per-batch partials with Arrow group_by;
        the reference below is the per-row driver merge it replaced (word
        counts and (n, gram) counts summed into dicts, then split per
        order). Three blocks, so partials really merge; duplicated docs, a
        null field, an empty doc and below-threshold words included."""
        from collections import Counter

        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.state.lm import COUNT_THRESHOLD, UNKNOWN_TOKEN, build_ngram_lm, count_doc_ngrams

        docs = pd.concat(
            [DOCS, DOCS.iloc[:3], pd.DataFrame({"doc_id": [90, 91], "name": ["Zzyzx Solo", None], "address": ["", "x"]})],
            ignore_index=True,
        )
        got = build_ngram_lm(ray.data.from_pandas([docs.iloc[:5], docs.iloc[5:9], docs.iloc[9:]]))

        toks = [tokenize(f"{n or ''} {a or ''}") for n, a in zip(docs["name"], docs["address"])]
        wc = Counter(t for ts in toks for t in ts)
        vocab = {w for w, c in wc.items() if c >= COUNT_THRESHOLD}
        counts: dict = {}
        for ts in toks:
            count_doc_ngrams(counts, [t if t in vocab else UNKNOWN_TOKEN for t in ts])
        want = NGramLM(vocab=vocab, full_vocab=set(wc))
        for (n, gram), cnt in counts.items():
            parts = tuple(gram.split("\x1f"))
            if n == 1:
                want.unigram[parts[0]] = cnt
                want.total_word_freq += cnt
            else:
                {2: want.bigram, 3: want.trigram, 4: want.quadgram}[n][parts] = cnt

        assert UNKNOWN_TOKEN in got.unigram and got.vocab != got.full_vocab
        for f in ("unigram", "bigram", "trigram", "quadgram", "total_word_freq", "vocab", "full_vocab"):
            assert getattr(got, f) == getattr(want, f), f
        assert all(type(v) is int for v in got.quadgram.values())

    def test_counts_ds_equals_in_ram_lm(self):
        """The all-Dataset LM counting path (raw-gram count → Dataset vocab
        threshold → distributed <UNK> key rewrite) must yield EXACTLY the
        in-RAM builder's count dicts, full vocab, and total word freq — in
        both vocab-membership regimes (broadcast and string-key join)."""
        from osm_search_ray.state.lm import build_ngram_counts_ds, build_ngram_lm, lm_from_counts_ds

        ram = build_ngram_lm(ray.data.from_pandas(DOCS))
        for join_vocab in (False, True):
            counts_ds, wc_ds = build_ngram_counts_ds(
                ray.data.from_pandas(DOCS), join_vocab=join_vocab
            )
            got = lm_from_counts_ds(counts_ds, wc_ds)
            assert got.unigram == ram.unigram, join_vocab
            assert got.bigram == ram.bigram
            assert got.trigram == ram.trigram
            assert got.quadgram == ram.quadgram
            assert got.total_word_freq == ram.total_word_freq
            assert got.vocab == ram.vocab
            assert got.full_vocab == ram.full_vocab

    def test_counts_ds_roundtrip_through_checkpointed_store(self, tmp_path):
        """Bucketed-Parquet save/load of the Dataset LM artifacts preserves
        the model exactly."""
        from osm_search_ray.state.lm import (
            build_ngram_counts_ds,
            build_ngram_lm,
            load_ngram_lm_ds,
            save_ngram_counts_ds,
        )

        counts_ds, wc_ds = build_ngram_counts_ds(ray.data.from_pandas(DOCS))
        save_ngram_counts_ds(counts_ds, wc_ds, str(tmp_path / "lm"))
        got = load_ngram_lm_ds(str(tmp_path / "lm"))
        ram = build_ngram_lm(ray.data.from_pandas(DOCS))
        assert (got.unigram, got.bigram, got.trigram, got.quadgram) == (
            ram.unigram, ram.bigram, ram.trigram, ram.quadgram
        )
        assert got.vocab == ram.vocab and got.full_vocab == ram.full_vocab


class TestDiskSearchCore:
    def test_disk_core_equals_in_ram_core(self, index, tmp_path):
        """The disk-backed core (pruned dictionary + postings point reads
        per request, nothing index-sized resident) must return exactly the
        in-RAM SearchCore's results for every scoring mode — including the
        misspelled-query path through a shared corrector."""
        from osm_search_ray.pipelines.search import DiskSearchCore, SearchCore
        from osm_search_ray.serving import start_disk_session
        from osm_search_ray.state.lm import count_ngrams

        ti.save_text_index(index, str(tmp_path / "idx"), num_buckets=4)
        from osm_search_ray.functions.tokenize import tokenize

        corpus = [tokenize(f"{n} {a}") for n, a in zip(DOCS["name"], DOCS["address"])]
        lm = count_ngrams(corpus)
        sc = SpellCorrector.build(set(index.terms["term"]), lm)

        ram = SearchCore(index, sc)
        disk = DiskSearchCore(str(tmp_path / "idx"), sc)
        rows = [
            {"query_id": 0, "text": "dunia fantasi", "scoring": "BM25_FIELD", "top_k": 5, "offset": 0},
            {"query_id": 1, "text": "jalan ancol", "scoring": "BM25_PLUS", "top_k": 5, "offset": 0},
            {"query_id": 2, "text": "kebon jerok", "scoring": "TF_IDF_COSINE", "top_k": 5, "offset": 0},
            {"query_id": 3, "text": "zzz unknown", "scoring": "BM25_FIELD", "top_k": 5, "offset": 0},
        ]
        a = ram.search_rows(rows).reset_index(drop=True)
        b = disk.search_rows(rows).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

        # and through the long-lived disk session actor
        sess = start_disk_session(str(tmp_path / "idx"), sc, name="disk-test")
        c = pd.DataFrame(sess.search(rows))
        pd.testing.assert_frame_equal(a, c)
        sess.stop()


class TestTermLookupOnDsWriter:
    def test_read_term_ids_on_checkpointed_layout(self, tmp_path):
        """read_term_ids must also prune/resolve against the DISTRIBUTED
        writer's layout (checkpointed sink persists the partition column
        alongside term/term_id)."""
        idx_ds = ti.build_text_index_ds(ray.data.from_pandas(DOCS))
        out = str(tmp_path / "ds")
        ti.save_text_index_ds(idx_ds, out, num_buckets=4)
        ram = ti.build_text_index(ray.data.from_pandas(DOCS))
        vocab = ram.vocab()
        got = ti.read_term_ids(out, ["jalan", "dunia", "zzz"])
        assert got == {"jalan": vocab["jalan"], "dunia": vocab["dunia"]}


class TestStoreReaderCache:
    def test_reader_equals_module_readers_both_layouts(self, index, tmp_path):
        """StoreReader (resident handle/footer cache, the serving hot path)
        must return byte-identical frames IN IDENTICAL ROW ORDER to the
        open-per-call module readers — on both the in-RAM writer's layout
        and the distributed writer's (which persists extra partition
        columns). Row order matters: scorer float accumulation follows it."""
        idx_ds = ti.build_text_index_ds(ray.data.from_pandas(DOCS))
        ti.save_text_index_ds(idx_ds, str(tmp_path / "ds"), num_buckets=4)
        ti.save_text_index(index, str(tmp_path / "ram"), num_buckets=4)
        toks = ["jalan", "dunia", "ancol", "zzz-not-a-term"]
        for out in (str(tmp_path / "ds"), str(tmp_path / "ram")):
            rd = ti.StoreReader(out)
            ids_mod = ti.read_term_ids(out, toks)
            assert rd.term_ids(toks) == ids_mod and ids_mod
            tids = sorted(ids_mod.values())
            pd.testing.assert_frame_equal(
                rd.postings_for_terms(tids), ti.read_postings_for_terms(out, tids)
            )
            ids_pq, posts_pq = ti.point_query_store(out, toks)
            ids_rd, posts_rd = rd.point_query(toks)
            assert ids_rd == ids_pq
            pd.testing.assert_frame_equal(posts_rd, posts_pq)
            # missing-everything path keeps the typed empty frame
            ids_rd, posts_rd = rd.point_query(["zzz-not-a-term"])
            assert ids_rd == {} and list(posts_rd.columns) == ti._POSTING_COLS and len(posts_rd) == 0

    def test_lru_never_evicts_current_request_hits(self, tmp_path):
        """Regression: a request mixing an old cache HIT with a MISS, under
        a cap that forces eviction, must not evict the hit before the
        output assembles (was a KeyError: eviction ran before hits were
        re-pinned; needs multi-row-group files, which the store writers
        don't produce at test sizes)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        f = str(tmp_path / "multi_rg.parquet")
        pq.write_table(
            pa.table({"term": [f"t{i}" for i in range(6)], "term_id": list(range(6))}),
            f,
            row_group_size=2,  # 3 row groups
        )
        pf = pq.ParquetFile(f)
        rd = ti.StoreReader.__new__(ti.StoreReader)
        from collections import OrderedDict

        one_rg = pq.ParquetFile(f).read_row_groups([0], columns=["term", "term_id"])
        rd._cache, rd._cache_bytes, rd._cache_cap = OrderedDict(), 0, int(one_rg.nbytes * 2.5)
        rd._read(pf, [0], ["term", "term_id"])
        rd._read(pf, [1], ["term", "term_id"])
        got = rd._read(pf, [0, 2], ["term", "term_id"])  # KeyError before the fix
        assert got.column("term_id").to_pylist() == [0, 1, 4, 5]
        assert rd._cache_bytes == sum(t.nbytes for t in rd._cache.values())
        assert rd._cache_bytes <= rd._cache_cap or len(rd._cache) == 2

    def test_lru_eviction_keeps_results_and_bound(self, index, tmp_path):
        """A 1-byte cache cap forces eviction on every read; results must
        stay identical and the tracked byte count must return to the
        per-call watermark (no leak, no drift)."""
        ti.save_text_index(index, str(tmp_path / "ram"), num_buckets=4)
        out = str(tmp_path / "ram")
        toks = ["jalan", "dunia", "ancol"]
        big = ti.StoreReader(out)
        tiny = ti.StoreReader(out, cache_bytes=1)
        for _ in range(3):  # repeated queries: hit path (big) vs evict path (tiny)
            a_ids, a_posts = big.point_query(toks)
            b_ids, b_posts = tiny.point_query(toks)
            assert a_ids == b_ids
            pd.testing.assert_frame_equal(a_posts, b_posts)
        assert big._cache_bytes == sum(t.nbytes for t in big._cache.values())
        assert tiny._cache_bytes == sum(t.nbytes for t in tiny._cache.values())
        # tiny keeps at most the working set of the LAST read (eviction
        # never drops row groups needed by the in-flight call)
        assert len(tiny._cache) <= len(big._cache)


class TestStoreSearchTwins:
    def test_store_queries_equal_scan_queries(self):
        """The three *_store_search driver queries must stay result-identical
        to their corpus-scan twins (same kernels, df/lengths from the index
        instead of a scan) — the invariant the shared SQL oracle asserts,
        pinned here without the driver."""
        from osm_search_ray.pipelines import search_docs as sd

        sf = "/root/testdata/sf0.001"
        for scan_fn, store_fn in [
            (sd.bm25_docs_search, sd.bm25_store_search),
            (sd.bm25f_docs_search, sd.bm25f_store_search),
            (sd.tfidf_docs_search, sd.tfidf_store_search),
        ]:
            a = scan_fn(sf).reset_index(drop=True)
            b = store_fn(sf).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)

    def test_spell_store_equals_corrected_scan(self):
        """spell_store_search (correct → two-field store BM25F) must equal
        the corpus-scan twin run on the SAME corrected queries — pins the
        whole corrected-query disk path to an independent implementation
        (scan + _scan_matches vs store + point_query_store)."""
        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines import search_docs as sd

        sf = "/root/testdata/sf0.001"
        _, sc = sd._lm_state(sf)
        corrected = [(qid, " ".join(sc.correct_query(tokenize(q)))) for qid, q in sd.SPELL_QUERIES]
        # corrections must do something at this corpus (typos are seeded
        # from in-vocab QUERIES terms) — otherwise the twin test is vacuous
        assert any(c != q for (_, c), (_, q) in zip(corrected, sd.SPELL_QUERIES))
        a = sd.bm25f_docs_search(sf, queries=corrected).reset_index(drop=True)
        b = sd.spell_store_search(sf).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


class TestLmDocScores:
    def test_distributed_scores_equal_driver_scoring(self):
        """The actor-pool LM doc scorer must equal direct driver-side
        query_log_prob over the same corpus LM (pins the broadcast/actor
        plumbing; the kernel itself is fixture-tested in TestNgramLM)."""
        import numpy as np

        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines import search_docs as sd

        sf = "/root/testdata/sf0.001"
        got = sd.lm_doc_scores(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        lm, _ = sd._lm_state(sf)
        import pyarrow.parquet as pq

        docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
        docs = docs.sort_values("doc_id").reset_index(drop=True)
        assert list(got["doc_id"]) == list(docs["doc_id"])
        for i in range(0, len(docs), 97):  # spot-check a deterministic stride
            lp = lm.query_log_prob(tokenize(docs["text"][i]))
            if np.isfinite(lp):
                assert got["is_finite"][i] == 1
                assert got["logprob_milli"][i] == int(np.rint(lp * 1000))
            else:
                assert got["is_finite"][i] == 0

    def test_sql_lm_twin_matches_python_lm(self):
        """The relational stupid-backoff LM (state/lm.sql_lm_count_ctes +
        sql_lm_score_ctes, the r04 oracle for lm_doc_scores) must be
        value-exact against the pure-Python NGramLM on a planted corpus
        covering: repeated sentences (finite scores), a freq-1 word (-inf
        via the <UNK> threshold), an empty doc (</s>-only position), and a
        doc repeating a sentence twice (longer ordered ln-sum)."""
        from collections import Counter

        import duckdb

        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines.search_docs import _sql_lm_doc_scores
        from osm_search_ray.state.lm import UNKNOWN_TOKEN, count_doc_ngrams, lm_from_counts

        texts = [
            "kebun raya bogor",
            "kebun raya bogor",
            "kebun binatang ragunan",
            "rarething",
            "",
            "kebun raya bogor kebun raya bogor",
        ]
        docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})
        toks_per = [tokenize(t) for t in texts]
        freq = Counter(t for ts in toks_per for t in ts)
        vocab = {t for t, c in freq.items() if c >= 2}
        counts: dict = {}
        for ts in toks_per:
            count_doc_ngrams(counts, [t if t in vocab else UNKNOWN_TOKEN for t in ts])
        lm = lm_from_counts(counts, vocab)

        con = duckdb.connect()
        con.register("documents", docs)
        got = con.sql(_sql_lm_doc_scores()).df().sort_values("doc_id").reset_index(drop=True)
        assert len(got) == len(texts)
        neg = -(2**62)
        for i, ts in enumerate(toks_per):
            lp = lm.query_log_prob(ts)
            assert got["n_tokens"][i] == len(ts)
            if np.isfinite(lp):
                assert got["is_finite"][i] == 1
                assert got["logprob_milli"][i] == int(np.rint(lp * 1000))
            else:
                assert got["is_finite"][i] == 0
                assert got["logprob_milli"][i] == neg
        assert got["is_finite"][3] == 0  # the freq-1 word backs off to -inf


class TestBooleanSearch:
    def test_matches_bruteforce_set_semantics(self):
        """boolean_docs_search (vectorized presence-matrix scan) must equal
        a row-at-a-time set evaluation of the same must/should/must_not
        semantics over the corpus."""
        import pyarrow.parquet as pq

        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines import search_docs as sd

        sf = "/root/testdata/sf0.001"
        got = sd.boolean_docs_search(sf).to_pandas()
        got_pairs = set(zip(got["query_id"], got["doc_id"]))

        docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
        want = set()
        for qid, must, should, must_not in sd.BOOL_QUERIES:
            m, s, n = set(tokenize(must)), set(tokenize(should)), set(tokenize(must_not))
            for doc_id, text in zip(docs["doc_id"], docs["text"]):
                toks = set(tokenize(text))
                if m <= toks and (not s or s & toks) and not (n & toks):
                    want.add((qid, doc_id))
        assert got_pairs == want
        assert len(want) > 0  # fixture must exercise the operator
        # every clause shape must actually select something at this corpus
        hit_qids = {q for q, _ in want}
        assert hit_qids == {q[0] for q in sd.BOOL_QUERIES}

    def test_pure_not_query_rejected(self):
        from osm_search_ray.pipelines import search_docs as sd

        orig = sd.BOOL_QUERIES
        sd.BOOL_QUERIES = [(0, "", "", "spark")]
        try:
            import pytest as _pytest

            with _pytest.raises(ValueError):
                sd.boolean_docs_search("/root/testdata/sf0.001")
        finally:
            sd.BOOL_QUERIES = orig


def test_phrase_search_boundaries_and_overlaps(tmp_path, monkeypatch):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines import search_docs as sd

    texts = [
        "a a a b",          # doc 0: "a a" overlaps -> 2 hits; "a b" -> 1
        "x a",              # doc 1: ends with 'a' — no cross-doc "a a" into doc 2
        "a y",              # doc 2
        "",                 # doc 3: empty
        "a a",              # doc 4: exactly the phrase
    ]
    t = pa.table({"doc_id": pa.array(np.arange(5, dtype=np.int64)), "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    monkeypatch.setattr(sd, "PHRASE_QUERIES", [(1, "a a"), (2, "a b")])
    out = sd.phrase_docs_search(str(tmp_path)).to_pandas()
    got = {(int(r.query_id), int(r.doc_id)): int(r.n_hits) for r in out.itertuples()}
    assert got == {(1, 0): 2, (1, 4): 1, (2, 0): 1}

    # SQL twin must agree on the same planted corpus (overlap + boundary rules)
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')")
    o = con.execute(sd._sql_phrase()).df()
    got_sql = {(int(r.query_id), int(r.doc_id)): int(r.n_hits) for r in o.itertuples()}
    assert got_sql == got


def test_phrase_store_equals_scan(tmp_path, monkeypatch):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.pipelines import search_docs as sd

    texts = [
        "a a a b c",
        "b a a",
        "c b a b c b a b",
        "",
        "a b c a b c a b c",
    ]
    t = pa.table({"doc_id": pa.array(np.arange(5, dtype=np.int64)), "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    monkeypatch.setattr(sd, "PHRASE_QUERIES", [(1, "a a"), (2, "a b c"), (3, "zz top")])
    scan = sd.phrase_docs_search(str(tmp_path)).to_pandas()
    store = sd.phrase_store_search(str(tmp_path)).to_pandas()
    key = ["query_id", "doc_id"]
    pd.testing.assert_frame_equal(
        scan.sort_values(key).reset_index(drop=True),
        store.astype(scan.dtypes.to_dict()).sort_values(key).reset_index(drop=True),
    )
    assert (1, 0) in set(zip(scan["query_id"], scan["doc_id"]))  # non-vacuous


def test_positional_store_crash_resume(tmp_path, monkeypatch):
    """A build killed mid-write resumes: completed buckets are not
    recomputed and the resumed store serves phrases identically to the
    scan path (the resumable-store contract of the IVF/MinHash stores,
    pinned for the positional store)."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osm_search_ray.functions.hashing import hash64_str
    from osm_search_ray.functions.tokenize import tokenize
    from osm_search_ray.pipelines import search_docs as sd
    from osm_search_ray.sources import checkpoint as cp

    texts = ["a a b c", "b c a a b", "c c a b", "a b"]
    t = pa.table({"doc_id": pa.array(np.arange(4, dtype=np.int64)), "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    vocab = sorted({w for x in texts for w in tokenize(x)})
    # NB: array-form modulo — scalar np.uint64 % int promotes to float64
    # and silently corrupts the bucket id
    fail_bucket = int((hash64_str(np.array(vocab, dtype=object)) % sd.POS_BUCKETS)[0])

    out = str(tmp_path / "posstore")
    orig = cp.checkpointed_write

    def crashing(ds, out_dir, partition_col, stage="stage", fail_on_keys=None):
        return orig(ds, out_dir, partition_col, stage=stage, fail_on_keys={fail_bucket})

    monkeypatch.setattr(cp, "checkpointed_write", crashing)
    import pytest as _pytest

    with _pytest.raises(Exception):
        sd.build_positional_store(str(tmp_path / "documents.parquet"), out)
    assert not cp.stage_complete(out)
    done = cp.completed_keys(out)
    assert fail_bucket not in done and len(done) >= 1
    mtimes = {k: os.path.getmtime(f"{out}/part={k}/data.parquet") for k in done}

    monkeypatch.setattr(cp, "checkpointed_write", orig)
    sd.build_positional_store(str(tmp_path / "documents.parquet"), out)
    assert cp.stage_complete(out)
    for k in done:  # finished buckets untouched by the resume
        assert os.path.getmtime(f"{out}/part={k}/data.parquet") == mtimes[k]

    monkeypatch.setattr(sd, "PHRASE_QUERIES", [(1, "a a"), (2, "a b")])
    monkeypatch.setattr(sd, "_pos_store_dir", lambda sf: out)
    store = sd.phrase_store_search(str(tmp_path)).to_pandas()
    scan = sd.phrase_docs_search(str(tmp_path)).to_pandas()
    key = ["query_id", "doc_id"]
    pd.testing.assert_frame_equal(
        scan.sort_values(key).reset_index(drop=True),
        store.astype(scan.dtypes.to_dict()).sort_values(key).reset_index(drop=True),
    )
