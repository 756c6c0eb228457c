"""Funnel-precedence oracle for pipelines/curate.py on a constructed corpus
where every verdict class and every precedence edge is planted by hand (the
driver check covers the SQL twin; this pins the semantics without SQL)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osm_search_ray.pipelines.curate import curate_corpus


def _doc(*parts):
    return " ".join(parts)


def test_verdict_precedence_planted(tmp_path):
    filler = [f"q{i}" for i in range(21)]  # distinct, no stopwords
    docs = {
        # doc 0: eval holdout (0 % 97 == 0) — also the contamination source
        0: _doc("alpha", "beta", "gamma", *filler),
        # doc 1: too short → quality (even though it has a stopword)
        1: _doc("the", "tiny", "doc"),
        # doc 2: 30 repeats → distinct ratio 1/30 < 2/5 → quality
        2: _doc(*(["word"] * 30)),
        # doc 3: long + distinct but ZERO stopword hits → langid
        3: _doc(*filler, "zz1", "zz2", "zz3"),
        # docs 4, 5: identical 3-token prefix, both otherwise clean →
        # 4 keeps (lowest doc_id), 5 is duplicate
        4: _doc("the", "p1", "p2", *[f"a{i}" for i in range(20)]),
        5: _doc("the", "p1", "p2", *[f"b{i}" for i in range(20)]),
        # doc 6: clean but contains doc 0's "alpha beta gamma" shingle →
        # contaminated
        6: _doc("the", "c0", "alpha", "beta", "gamma", *[f"c{i}" for i in range(20)]),
    }
    t = pa.table(
        {
            "doc_id": pa.array(sorted(docs), pa.int64()),
            "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = curate_corpus(str(tmp_path)).to_pandas().set_index("doc_id")["verdict"]
    assert out[0] == "eval_holdout"
    assert out[1] == "quality" and out[2] == "quality"
    assert out[3] == "langid"
    assert out[4] == "kept" and out[5] == "duplicate"
    assert out[6] == "contaminated"
    assert len(out) == len(docs)  # exactly one verdict per doc


# ------------------------------------------- linear quality-filter model


def _quality_reference(docs: dict[int, str]) -> dict[int, tuple[float, int]]:
    """Straight-line per-doc replay of the quality_model contract with plain
    Python floats (same IEEE ops in the same left-associative order)."""
    import re

    from osm_search_ray.functions.tokenize import tokenize
    from osm_search_ray.stages.textstats import LANG_STOPWORDS, QUALITY_WEIGHTS

    w, stop = QUALITY_WEIGHTS, LANG_STOPWORDS["en"]
    out = {}
    for did, text in docs.items():
        toks = tokenize(text)
        nt, ns = len(toks), sum(t in stop for t in toks)
        nd, nc = len(set(toks)), len(text)
        ng = len(re.findall(r"[0-9]+", text))
        ratio = (float(nd) / float(nt)) if nt > 0 else 0.0
        logit = w["bias"] + w["n_tokens"] * float(nt)
        logit = logit + w["stop_hits"] * float(ns)
        logit = logit + w["distinct_ratio"] * ratio
        logit = logit + w["n_chars"] * float(nc)
        logit = logit + w["digit_runs"] * float(ng)
        out[did] = (logit, int(logit > 0.0))
    return out


def test_quality_model_matches_reference():
    import pandas as pd
    import ray.data

    from osm_search_ray.stages.textstats import quality_model_stage

    docs = {
        0: "The quick brown fox and the lazy dog were of one mind in 1987 and 2001.",
        1: "word " * 40,  # low distinct ratio
        2: "a",  # tiny
        3: "Numbers 12 34 56 78 90 without stopwords x1 x2 x3",
        4: "",  # empty text: nt=0 branch
        # long stopword-rich doc: the keep=1 class
        5: " ".join(f"the quick w{i} and a lazy w{i} of it" for i in range(30)),
    }
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": sorted(docs), "text": [docs[k] for k in sorted(docs)]})
    )
    got = quality_model_stage(ds).to_pandas().set_index("doc_id")
    exp = _quality_reference(docs)
    for did, (logit, keep) in exp.items():
        assert got.loc[did, "logit"] == logit, did  # bit-identical, not approx
        assert got.loc[did, "keep"] == keep, did
    # the fixture must exercise both keep classes
    assert 0 < got["keep"].sum() < len(docs)
