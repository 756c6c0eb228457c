"""Driver-contract invariants for __ray_entry__ — catches a broken oracle
or dangling query key BEFORE the grading driver does."""

import duckdb
import pytest

import __ray_entry__ as entrymod

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def test_oracle_keys_subset_of_queries():
    q = entrymod.queries()
    sql = entrymod.oracle_sql()
    assert set(sql) <= set(q), set(sql) - set(q)
    assert all(callable(f) for f in q.values())
    # every query key is claimed by SURVEY's checklist philosophy: at least
    # the oracle-less ones are the documented rows-only set
    rows_only = set(q) - set(sql)
    # r04: image_features, contamination_bloom, dedup_simhash,
    # dedup_fingerprint, approx_distinct_users, dedup_embedding and
    # ann_quantized_topk gained exact oracles (SQL splitmix64 chain + md5
    # hash twin + Karp-Rabin polynomial + integer-register HLL +
    # ordered-float LSH twin + symmetric-int8 exact-integer dots); the
    # LM-ranked family (lm_doc_scores, autocomplete, spell_search,
    # spell_store_search) followed via the relational stupid-backoff LM
    # (state/lm.sql_lm_count_ctes — ordered ln-sums via list_reduce), and
    # kmeans_clusters via a deterministic Forgy-init contract + unrolled
    # Lloyd CTEs (simsearch.sql_kmeans_clusters). The one remainder is
    # irreducible: t-digest clustering is approximate by design (pytest
    # oracle instead).
    assert rows_only == {"price_quantiles_tdigest"}, rows_only


def test_order_mismatch_raises_with_both_diffs(monkeypatch):
    """The registry/order check is a real error, not an assert that
    ``python -O`` strips, and names what is missing on each side."""
    order = [k for k in entrymod._R5_ORDER if k != "table_checksum"] + ["no_such_query"]
    monkeypatch.setattr(entrymod, "_R5_ORDER", order)
    with pytest.raises(RuntimeError, match=r"not in _R5_ORDER \['table_checksum'\].*not registered \['no_such_query'\]"):
        entrymod.queries()


def test_every_oracle_sql_parses(con):
    for name, sql in entrymod.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except Exception as e:  # pragma: no cover
            raise AssertionError(f"oracle for {name!r} does not parse: {e}") from e


def test_entry_returns_rows():
    res = entrymod.entry()
    import pandas as pd

    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    assert len(df) >= 0 and len(df.columns) > 0
