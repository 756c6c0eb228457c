"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at the given sf dir, runs the matching
``oracle_sql()`` in DuckDB over the same parquet tables, and compares
row count, schema (column names), and an order-insensitive value hash
(columns sorted by name, rows sorted by all columns).

Usage: python tools/check_oracle.py [sf_dir] [query_name ...]
"""

from __future__ import annotations

import os
import sys
import time

# the checkout this script lives in, for the driver and (via runtime_env) every Ray worker
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if np.issubdtype(col.dtype, np.floating):
            h.update(np.ascontiguousarray(col.to_numpy()).tobytes())
        else:
            h.update(col.astype(str).str.cat(sep="\x1f").encode())
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR",
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = e.queries(), e.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok?  {name}: rows={len(got)} (rows-only, no oracle) [{dt:.1f}s]")
            continue
        try:
            exp = canon(con.execute(oracles[name]).df())
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        probs = []
        if list(got.columns) != list(exp.columns):
            probs.append(f"schema {list(got.columns)} != {list(exp.columns)}")
        elif len(got) != len(exp):
            probs.append(f"rows {len(got)} != {len(exp)}")
        elif value_hash(got) != value_hash(exp):
            neq = [c for c in got.columns if not got[c].equals(exp[c])]
            probs.append(f"value mismatch in {neq}")
            for c in neq[:2]:
                d = got[c] != exp[c]
                print(f"   {c}: first diffs got={got[c][d].head(3).tolist()} exp={exp[c][d].head(3).tolist()}")
        if probs:
            print(f"FAIL {name}: {'; '.join(probs)} [{dt:.1f}s]")
            failures += 1
        else:
            print(f"PASS {name}: rows={len(got)} [{dt:.1f}s]")
    return failures


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(1 if rc else 0)
