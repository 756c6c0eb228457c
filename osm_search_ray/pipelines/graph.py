"""Iterative link-graph analytics — distributed PageRank power iteration.

The web-corpus companion to ``webcorpus.dup_clusters`` (connected
components): where CC labels duplicate groups, PageRank ranks pages by link
authority — the canonical iterative bulk-synchronous graph computation a
crawl-curation pipeline uses for per-page quality priors (reference analogue:
the importance-weighted result ordering in
/root/reference/pkg/searcher/searcher.go is a static per-doc prior; PageRank
is the corpus-derived version of that prior).

All arithmetic is scaled int64 with floor division (the oracle-float rule):
ranks start at SCALE // N, every scatter ships ``r * 85 // (100 * outdeg)``
per edge, every gather adds ``15 * SCALE // (100 * N)``. Both sides (numpy
and DuckDB) perform the identical non-negative integer ops, so the driver
hash-check is exact — no float summation-order hazard.

Scale shape (100 TB): the edge list is materialized ONCE and reused every
iteration (the standard iterative-graph trade); each iteration is exactly
two bounded hash exchanges — (1) src-keyed: ranks and edges meet
co-partitioned, out-degree is computed inside the partition (all edges of a
src land together), contributions are emitted per edge plus one zero-valued
keep-alive row per node so dangling nodes still receive the teleport base;
(2) dst-keyed: integer sum + base. Rank state never touches the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.readers import read_pq
from ..sources.memo import memo

from ..sources import derived as dv
from ..stages.joins import hash_partitioned_apply

SCALE = 10**12  # rank fixed-point scale (pr_x1e12)
DAMP_NUM, DAMP_DEN = 85, 100  # damping 0.85 as an exact rational
PAGERANK_ITERS = 3


def pagerank(
    nodes: "ray.data.Dataset",
    edges: "ray.data.Dataset",
    iters: int = PAGERANK_ITERS,
    n_nodes: int | None = None,
    num_parts: int | None = None,
    small_edges: int = 2_000_000,
    seed_mod: int | None = None,
    n_seeds: int | None = None,
) -> "ray.data.Dataset":
    """Power-iteration PageRank over ``nodes`` (column ``id``) and ``edges``
    (columns ``src``, ``dst``; multi-edges allowed, out-degree = edge count).
    Returns (id, r) with r the scaled-int64 rank after ``iters`` rounds.

    Regime switch (the MinHash-verify discipline): a graph whose edge list
    fits a bounded driver budget (``small_edges``) runs the identical integer
    recurrence as one numpy loop — 6 chained exchanges cost ~2 s of fixed
    actor ramp EACH on a warm cluster, which dwarfs small graphs. Above the
    bound, the distributed two-exchange-per-iteration path runs; the paths
    are equality-tested (tests/test_graph.py).

    ``seed_mod`` switches to PERSONALIZED PageRank: the teleport mass lands
    only on seed nodes (id % seed_mod == 0), each receiving
    ``15·SCALE // (100·n_seeds)``; non-seeds get base 0. The base is a pure
    function of the node id, so neither regime carries extra state."""
    if n_nodes is None:
        n_nodes = nodes.count()
    if seed_mod is not None and n_seeds is None:
        n_seeds = nodes.filter(lambda r: r["id"] % seed_mod == 0).count()
    if num_parts is None:
        # ~2M node-rows per partition, capped; tiny graphs stay in few groups
        # so the 6-exchange iteration chain doesn't drown in per-group ramp.
        num_parts = max(2, min(512, n_nodes // 2_000_000 + 2))
    base = (15 * SCALE) // (100 * n_nodes)
    seedbase = (15 * SCALE) // (100 * n_seeds) if seed_mod is not None else 0

    def base_of(ids: np.ndarray) -> np.ndarray:
        if seed_mod is None:
            return np.full(len(ids), base, np.int64)
        return np.where(ids % seed_mod == 0, seedbase, 0).astype(np.int64)

    r0 = SCALE // n_nodes

    edges = edges.materialize()  # reused every iteration

    if n_nodes <= small_edges and edges.count() <= small_edges:
        ids = np.sort(nodes.to_pandas()["id"].to_numpy(np.int64))
        ed = edges.to_pandas()
        si = np.searchsorted(ids, ed["src"].to_numpy(np.int64))
        di = np.searchsorted(ids, ed["dst"].to_numpy(np.int64))
        deg = np.bincount(si, minlength=len(ids)).astype(np.int64)
        r = np.full(len(ids), r0, np.int64)
        for _ in range(iters):
            contrib = (r[si] * DAMP_NUM) // (DAMP_DEN * deg[si])
            nxt = base_of(ids)
            np.add.at(nxt, di, contrib)
            r = nxt
        return ray.data.from_arrow(pa.table({"id": pa.array(ids), "r": pa.array(r)}))

    def init(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").cast(pa.int64())
        return pa.table({"id": ids, "r": pa.array(np.full(len(batch), r0, np.int64))})

    ranks = nodes.map_batches(init, batch_format="pyarrow")

    def tag_ranks(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("id"),
                "dst": pa.array(np.full(n, -1, np.int64)),
                "r": batch.column("r"),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("src").cast(pa.int64()),
                "dst": batch.column("dst").cast(pa.int64()),
                "r": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def scatter(df: pd.DataFrame) -> pd.DataFrame:
        rk = df[df["side"] == 0]
        eg = df[df["side"] == 1]
        # keep-alive zero rows: every node reaches the gather even if dangling
        parts = [
            pd.DataFrame(
                {"id": rk["key"].to_numpy(np.int64), "contrib": np.zeros(len(rk), np.int64)}
            )
        ]
        if len(eg):
            deg = eg.groupby("key", sort=False)["dst"].transform("size").to_numpy(np.int64)
            r = (
                eg[["key"]]
                .merge(rk[["key", "r"]], on="key", how="left")["r"]
                .fillna(0)
                .to_numpy(np.int64)
            )
            parts.append(
                pd.DataFrame(
                    {
                        "id": eg["dst"].to_numpy(np.int64),
                        "contrib": (r * DAMP_NUM) // (DAMP_DEN * deg),
                    }
                )
            )
        return pd.concat(parts, ignore_index=True)

    def gather(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("id", sort=False)["contrib"].sum().reset_index()
        gids = g["id"].to_numpy(np.int64)
        return pd.DataFrame({"id": gids, "r": base_of(gids) + g["contrib"].to_numpy(np.int64)})

    tagged_edges = edges.map_batches(tag_edges, batch_format="pyarrow")
    for _ in range(iters):
        both = ranks.map_batches(tag_ranks, batch_format="pyarrow").union(tagged_edges)
        contribs = hash_partitioned_apply(both, "key", scatter, num_parts=num_parts)
        ranks = hash_partitioned_apply(contribs, "id", gather, num_parts=num_parts)
    return ranks


def pagerank_links(sf_dir: str):
    """Driver query: PageRank over the derived link graph (3 out-edges per
    page, sources/derived.link_edges). Output (doc_id, pr_x1e12)."""
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    nodes = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        lambda b: b.rename_columns(["id"]), batch_format="pyarrow"
    )
    ranks = pagerank(nodes, dv.link_edges(sf_dir), iters=PAGERANK_ITERS, n_nodes=n_docs)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("id"), "pr_x1e12": batch.column("r")})

    return ranks.map_batches(project, batch_format="pyarrow")


def _sql_iter(prev: str, cur: str) -> str:
    """One unrolled PageRank step: identical integer ops to scatter/gather."""
    return f"""{cur} AS (
    SELECT d.doc_id AS id,
           CAST(15000000000000 // (100 * (SELECT COUNT(*) FROM documents))
                + COALESCE(SUM(r.r * 85 // (100 * g.outdeg)), 0) AS BIGINT) AS r
    FROM documents d
    LEFT JOIN link_edges e ON e.dst = d.doc_id
    LEFT JOIN {prev} r ON r.id = e.src
    LEFT JOIN deg g ON g.src = e.src
    GROUP BY d.doc_id)"""


SQL_PAGERANK_LINKS = f"""
WITH {dv.SQL_LINK_EDGES.strip()},
deg AS (SELECT src, COUNT(*) AS outdeg FROM link_edges GROUP BY src),
r0 AS (
    SELECT doc_id AS id,
           CAST(1000000000000 // (SELECT COUNT(*) FROM documents) AS BIGINT) AS r
    FROM documents),
{_sql_iter('r0', 'r1')},
{_sql_iter('r1', 'r2')},
{_sql_iter('r2', 'r3')}
SELECT id AS doc_id, r AS pr_x1e12 FROM r3
"""


PPR_SEED_MOD = 97  # the BFS seed set: doc_id % 97 == 0


def ppr_links(sf_dir: str):
    """Personalized PageRank from the trusted-seed set (doc_id % 97 == 0 —
    the bfs_levels seeds): teleport mass lands ONLY on seeds, so rank decays
    with link distance from them — the TrustRank-style quality prior
    (bfs_levels gives the hop metric; PPR the flow-weighted one). Same
    integer recurrence, exchanges and regime switch as pagerank (seed base
    is a pure function of the node id — no extra state in either regime).
    Output (doc_id, ppr_x1e12)."""
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    nodes = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        lambda b: b.rename_columns(["id"]), batch_format="pyarrow"
    )
    # ids are exactly 0..n-1, so the seed count is closed-form
    n_seeds = (n_docs + PPR_SEED_MOD - 1) // PPR_SEED_MOD
    ranks = pagerank(
        nodes,
        dv.link_edges(sf_dir),
        iters=PAGERANK_ITERS,
        n_nodes=n_docs,
        seed_mod=PPR_SEED_MOD,
        n_seeds=n_seeds,
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("id"), "ppr_x1e12": batch.column("r")})

    return ranks.map_batches(project, batch_format="pyarrow")


def _sql_ppr_iter(prev: str, cur: str) -> str:
    return f"""{cur} AS (
    SELECT d.doc_id AS id,
           CAST(CASE WHEN d.doc_id % {PPR_SEED_MOD} = 0
                     THEN 15000000000000 // (100 * (SELECT COUNT(*) FROM documents
                                                    WHERE doc_id % {PPR_SEED_MOD} = 0))
                     ELSE 0 END
                + COALESCE(SUM(r.r * 85 // (100 * g.outdeg)), 0) AS BIGINT) AS r
    FROM documents d
    LEFT JOIN link_edges e ON e.dst = d.doc_id
    LEFT JOIN {prev} r ON r.id = e.src
    LEFT JOIN deg g ON g.src = e.src
    GROUP BY d.doc_id)"""


SQL_PPR_LINKS = f"""
WITH {dv.SQL_LINK_EDGES.strip()},
deg AS (SELECT src, COUNT(*) AS outdeg FROM link_edges GROUP BY src),
r0 AS (
    SELECT doc_id AS id,
           CAST(1000000000000 // (SELECT COUNT(*) FROM documents) AS BIGINT) AS r
    FROM documents),
{_sql_ppr_iter('r0', 'r1')},
{_sql_ppr_iter('r1', 'r2')},
{_sql_ppr_iter('r2', 'r3')}
SELECT id AS doc_id, r AS ppr_x1e12 FROM r3
"""


# ------------------------------------------------------- HITS (Kleinberg)

HITS_ITERS = 3
HITS_SCALE = 10**6  # hub/auth fixed-point scale (x1e6)


def hits(
    nodes: "ray.data.Dataset",
    edges: "ray.data.Dataset",
    iters: int = HITS_ITERS,
    small_edges: int = 2_000_000,
):
    """Hubs & authorities power iteration (Kleinberg 1999) — the second
    iterative graph prior next to PageRank: auth(j) = sum of hub over
    in-links, hub(i) = sum of auth over out-links, each phase max-normalized.

    Integer discipline: state is scaled int64; the normalization is
    ``r * HITS_SCALE // max(r)`` (GREATEST(max,1) guards the edgeless
    graph) — every op is a non-negative integer op replayed exactly in
    SQL.  Overflow bound: phase sums reach max_indegree x HITS_SCALE and
    the renormalize multiplies by HITS_SCALE again, so the arithmetic is
    exact while max_degree < 2^63 / HITS_SCALE^2 ~ 9.2e6 — the hub-cap
    regime webcorpus already enforces (MAX_CLIQUE-style guards) long
    before that.

    Regimes (the pagerank discipline): a small graph runs the identical
    recurrence as one numpy loop (the 4 exchanges/iteration cost ~2 s of
    actor ramp each on a warm cluster); above ``small_edges`` each phase
    is ONE bounded key exchange (state and edges meet co-partitioned on
    the source endpoint, contributions re-key on the target) plus a
    scalar max aggregate. Paths are equality-tested (tests/test_graph.py).
    Returns (id, hub, auth) scaled int64."""
    n_edges = edges.count()
    if n_edges <= small_edges:
        ids = np.sort(
            np.concatenate(
                [b.column("id").to_numpy() for b in nodes.iter_batches(batch_format="pyarrow")]
            )
        )
        e = edges.to_pandas()
        si = np.searchsorted(ids, e["src"].to_numpy(np.int64))
        di = np.searchsorted(ids, e["dst"].to_numpy(np.int64))
        n = len(ids)
        h = np.full(n, HITS_SCALE, np.int64)
        a = np.zeros(n, np.int64)
        for _ in range(iters):
            araw = np.zeros(n, np.int64)
            np.add.at(araw, di, h[si])
            a = araw * HITS_SCALE // max(int(araw.max(initial=0)), 1)
            hraw = np.zeros(n, np.int64)
            np.add.at(hraw, si, a[di])
            h = hraw * HITS_SCALE // max(int(hraw.max(initial=0)), 1)
        return ray.data.from_pandas(
            pd.DataFrame({"id": ids, "hub": h, "auth": a})
        )

    def propagate(state, from_col: str, to_col: str):
        """ONE bounded exchange: sum state[r] over edges grouped by the
        target endpoint; keep-alive zero rows give every node a row."""

        def tag_state(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "key": batch.column("id"),
                    "to": pa.array(np.full(n, -1, np.int64)),
                    "r": batch.column("r"),
                    "side": pa.array(np.zeros(n, np.int8)),
                }
            )

        def tag_edges(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "key": batch.column(from_col).cast(pa.int64()),
                    "to": batch.column(to_col).cast(pa.int64()),
                    "r": pa.array(np.zeros(n, np.int64)),
                    "side": pa.array(np.ones(n, np.int8)),
                }
            )

        def scatter(df: pd.DataFrame) -> pd.DataFrame:
            st = df[df["side"] == 0]
            eg = df[df["side"] == 1]
            parts = [
                pd.DataFrame({"id": st["key"].to_numpy(np.int64), "c": np.zeros(len(st), np.int64)})
            ]
            if len(eg):
                r = (
                    eg[["key"]]
                    .merge(st[["key", "r"]], on="key", how="left")["r"]
                    .fillna(0)
                    .to_numpy(np.int64)
                )
                parts.append(pd.DataFrame({"id": eg["to"].to_numpy(np.int64), "c": r}))
            return pd.concat(parts, ignore_index=True)

        def gather(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("id", sort=False)["c"].sum().reset_index()
            return pd.DataFrame({"id": g["id"].to_numpy(np.int64), "r": g["c"].to_numpy(np.int64)})

        both = state.map_batches(tag_state, batch_format="pyarrow").union(
            edges.map_batches(tag_edges, batch_format="pyarrow")
        )
        contribs = hash_partitioned_apply(both, "key", scatter)
        return hash_partitioned_apply(contribs, "id", gather)

    def renorm(state):
        m = max(int(state.max("r") or 0), 1)

        def f(batch: pa.Table) -> pa.Table:
            r = batch.column("r").to_numpy()
            return pa.table({"id": batch.column("id"), "r": pa.array(r * HITS_SCALE // m)})

        return state.map_batches(f, batch_format="pyarrow").materialize()

    def init(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": batch.column("id").cast(pa.int64()),
                "r": pa.array(np.full(len(batch), HITS_SCALE, np.int64)),
            }
        )

    h_state = nodes.map_batches(init, batch_format="pyarrow")
    a_state = None
    for _ in range(iters):
        a_state = renorm(propagate(h_state, "src", "dst"))
        h_state = renorm(propagate(a_state, "dst", "src"))

    def tag(name):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "id": batch.column("id"),
                    "hub": batch.column("r") if name == "hub" else pa.array(np.zeros(len(batch), np.int64)),
                    "auth": batch.column("r") if name == "auth" else pa.array(np.zeros(len(batch), np.int64)),
                }
            )

        return f

    both = h_state.map_batches(tag("hub"), batch_format="pyarrow").union(
        a_state.map_batches(tag("auth"), batch_format="pyarrow")
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("id", sort=False)[["hub", "auth"]].sum().reset_index()
        for c in ("id", "hub", "auth"):
            g[c] = g[c].astype(np.int64)
        return g

    return hash_partitioned_apply(both, "id", fuse)


def hits_links(sf_dir: str):
    """Driver query: HITS over the derived link graph.
    Output (doc_id, hub_x1e6, auth_x1e6)."""
    nodes = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        lambda b: b.rename_columns(["id"]), batch_format="pyarrow"
    )
    res = hits(nodes, dv.link_edges(sf_dir), iters=HITS_ITERS)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("id"),
                "hub_x1e6": batch.column("hub"),
                "auth_x1e6": batch.column("auth"),
            }
        )

    return res.map_batches(project, batch_format="pyarrow")


def _sql_hits_phase(prev: str, cur: str, from_col: str, to_col: str) -> str:
    """One propagate + max-normalize phase, identical integer ops."""
    return f"""{cur}_raw AS (
    SELECT d.doc_id AS id, CAST(COALESCE(SUM(s.r), 0) AS BIGINT) AS r
    FROM documents d
    LEFT JOIN link_edges e ON e.{to_col} = d.doc_id
    LEFT JOIN {prev} s ON s.id = e.{from_col}
    GROUP BY d.doc_id),
{cur} AS (
    SELECT id, r * {HITS_SCALE} // GREATEST((SELECT MAX(r) FROM {cur}_raw), 1) AS r
    FROM {cur}_raw)"""


def _sql_hits_links() -> str:
    parts = ["h0 AS (SELECT doc_id AS id, " f"{HITS_SCALE}::BIGINT AS r FROM documents)"]
    prev_h = "h0"
    for i in range(1, HITS_ITERS + 1):
        parts.append(_sql_hits_phase(prev_h, f"a{i}", "src", "dst"))
        parts.append(_sql_hits_phase(f"a{i}", f"h{i}", "dst", "src"))
        prev_h = f"h{i}"
    chain = ",\n".join(parts)
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
{chain}
SELECT h.id AS doc_id, h.r AS hub_x1e6, a.r AS auth_x1e6
FROM {prev_h} h JOIN a{HITS_ITERS} a USING (id)
"""


import functools

sql_hits_links = functools.cache(_sql_hits_links)


# ------------------------------------------------------ triangle counting

TRI_MAX_DEGREE = 10_000  # hub guard: wedge fan-out is O(deg^2) per center


def triangle_counts(sf_dir: str):
    """Per-node triangle participation over the undirected link graph —
    the clustering-coefficient numerator (the fourth graph-analytics
    primitive next to PageRank / HITS / connected components).  Output
    (doc_id, n_triangles) for every node in >= 1 triangle.

    Shape (node-iterator at scale): THREE bounded exchanges —
      1. (a, b)-keyed distinct of canonicalized edges (a < b, no loops);
      2. center-keyed adjacency build; each center emits its neighbor
         pairs x < y (wedges) — fan-out O(deg²), hub-guarded at
         TRI_MAX_DEGREE with a loud error (the MAX_CLIQUE discipline);
      3. (x, y)-keyed closing join: a wedge is a triangle iff its far
         pair is itself an edge; each triangle {a,b,c} closes EXACTLY
         once per center, so the per-center counts ARE the per-node
         participation counts (no /3 correction, no double count)."""
    return _triangles_cached(sf_dir)


def _triangles_cached(sf_dir: str):
    """Per-node triangle counts, materialized and memoized per corpus so
    triangle_counts and clustering_coeff share one wedge-close pass within
    a suite process."""
    return memo(
        "triangles",
        [f"{sf_dir}/documents.parquet"],
        lambda: _triangles_from_und(_und_edges(sf_dir)).materialize(),
    )


def _und_edges(sf_dir: str):
    """Distinct undirected (a < b) link edges — one (a, b)-keyed exchange,
    materialized and memoized per corpus so triangle_counts,
    clustering_coeff, degree_assortativity and link_prediction share one
    pass within a suite process (blocks live in the object store)."""
    return memo("und_edges", [f"{sf_dir}/documents.parquet"], lambda: _und_edges_build(sf_dir))


def _und_edges_build(sf_dir: str):
    edges = dv.link_edges(sf_dir)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {"a": pa.array(np.minimum(s, d)), "b": pa.array(np.maximum(s, d))}
        )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    return hash_partitioned_apply(
        edges.map_batches(canon, batch_format="pyarrow"), ["a", "b"], dedup_pairs
    ).materialize()


def _triangles_from_und(und):
    """triangle_counts' wedge-generate + close core over a materialized
    distinct-undirected-edge Dataset (see triangle_counts for the plan)."""
    from ..stages.joins import hash_partitioned_apply

    def expand(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table(
            {
                "center": pa.array(np.concatenate([a, b])),
                "nbr": pa.array(np.concatenate([b, a])),
            }
        )

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c, g in df.groupby("center", sort=False):
            nb = np.unique(g["nbr"].to_numpy(np.int64))
            if len(nb) > TRI_MAX_DEGREE:
                raise RuntimeError(
                    f"triangle_counts: node {c} degree {len(nb)} exceeds "
                    f"TRI_MAX_DEGREE={TRI_MAX_DEGREE} — raise the guard or "
                    "pre-cap hub nodes"
                )
            if len(nb) < 2:
                continue
            ix, iy = np.triu_indices(len(nb), k=1)
            outs.append(
                pd.DataFrame(
                    {"x": nb[ix], "y": nb[iy], "center": np.full(len(ix), c, np.int64)}
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "x": pd.Series(dtype=np.int64),
                    "y": pd.Series(dtype=np.int64),
                    "center": pd.Series(dtype=np.int64),
                }
            )
        return pd.concat(outs, ignore_index=True)

    wedge_ds = hash_partitioned_apply(
        und.map_batches(expand, batch_format="pyarrow"), "center", wedges
    )

    def tag_edge(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "x": batch.column("a"),
                "y": batch.column("b"),
                "center": pa.array(np.full(n, -1, np.int64)),
            }
        )

    both = wedge_ds.union(und.map_batches(tag_edge, batch_format="pyarrow"))

    def close(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["center"] == -1][["x", "y"]].drop_duplicates()
        w = df[df["center"] != -1]
        m = w.merge(e, on=["x", "y"])
        g = m.groupby("center", sort=False).size().reset_index(name="n_triangles")
        g["n_triangles"] = g["n_triangles"].astype(np.int64)
        return g.rename(columns={"center": "doc_id"})

    closed = hash_partitioned_apply(both, ["x", "y"], close)

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["n_triangles"].sum().reset_index()
        g["n_triangles"] = g["n_triangles"].astype(np.int64)
        return g

    return hash_partitioned_apply(closed, "doc_id", fuse)


SQL_TRIANGLE_COUNTS = f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM link_edges WHERE src <> dst),
tris AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM und e1
    JOIN und e2 ON e2.a = e1.b
    JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
),
members AS (
    SELECT x AS doc_id FROM tris
    UNION ALL SELECT y FROM tris
    UNION ALL SELECT z FROM tris
)
SELECT doc_id, COUNT(*) AS n_triangles FROM members GROUP BY 1
"""


# --------------------------------------------------- k-core decomposition

KCORE_K = 4  # driver-query core order (K=4 peels 2-3 rounds on the link graph)
KCORE_MAX_PEELS = 16  # loud convergence bound (TRI_MAX_DEGREE discipline)
KCORE_BROADCAST_LIMIT = 2_000_000  # per-peel dropped-id broadcast budget


def kcore(
    edges: "ray.data.Dataset",
    k: int = KCORE_K,
    max_peels: int = KCORE_MAX_PEELS,
    small_edges: int = 2_000_000,
    broadcast_limit: int = KCORE_BROADCAST_LIMIT,
    num_parts: int = 64,
) -> "ray.data.Dataset":
    """K-core of the UNDIRECTED simple graph induced by ``edges`` (columns
    ``src``, ``dst``; multi-edges collapse, self-loops drop) — the graph
    PRUNING primitive next to PageRank / HITS / CC / triangles: iteratively
    peel every node of degree < k until a fixed point.  Returns
    (id, core_deg) for the members of the k-core, ``core_deg`` their degree
    WITHIN the core.

    Scale shape: the canonical edge list is materialized once; each peel is
    ONE node-keyed degree exchange + an edge filter.  The per-peel dropped
    set is broadcast (ray.put) below ``broadcast_limit``, else removed via
    two tagged-union anti-join exchanges (key = each endpoint) — nothing
    node- or edge-sized ever lands on the driver on that path.  Peeling
    must converge within ``max_peels`` rounds or we raise loudly (the SQL
    oracle unrolls the same bound; a graph needing more peels fails the
    query rather than silently diverging).

    Regime switch (the pagerank/hits discipline): small graphs run the
    identical numpy peel driver-side — the chained per-peel exchanges cost
    ~2 s of actor ramp each, which dwarfs any graph that fits one process.
    Paths are equality-tested (tests/test_graph.py)."""

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {"a": pa.array(np.minimum(s, d)), "b": pa.array(np.maximum(s, d))}
        )

    canonical = edges.map_batches(canon, batch_format="pyarrow").materialize()

    if canonical.count() <= small_edges:
        # small regime BEFORE the dedup exchange: canonicalize + unique in
        # numpy too — the raw edge list already fits the driver budget
        ed = canonical.to_pandas()
        pair = np.unique(
            np.stack([ed["a"].to_numpy(np.int64), ed["b"].to_numpy(np.int64)], 1),
            axis=0,
        )
        a, b = pair[:, 0], pair[:, 1]
        ids = np.unique(np.concatenate([a, b]))
        ai = np.searchsorted(ids, a)
        bi = np.searchsorted(ids, b)
        alive = np.ones(len(ids), bool)
        for _ in range(max_peels):
            m = alive[ai] & alive[bi]
            deg = np.bincount(ai[m], minlength=len(ids)) + np.bincount(
                bi[m], minlength=len(ids)
            )
            drop = alive & (deg < k)
            if not drop.any():
                break
            alive &= ~drop
        else:
            raise RuntimeError(
                f"kcore: no fixed point within KCORE_MAX_PEELS={max_peels} peels"
            )
        m = alive[ai] & alive[bi]
        deg = np.bincount(ai[m], minlength=len(ids)) + np.bincount(
            bi[m], minlength=len(ids)
        )
        keep = alive & (deg > 0)
        return ray.data.from_arrow(
            pa.table(
                {
                    "id": pa.array(ids[keep]),
                    "core_deg": pa.array(deg[keep].astype(np.int64)),
                }
            )
        )

    und = hash_partitioned_apply(
        canonical,
        ["a", "b"],
        lambda df: df.drop_duplicates(),
        num_parts=num_parts,
    ).materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table({"x": pa.array(np.concatenate([a, b]))})

    def degrees(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("x", sort=False).size().reset_index(name="d")
        g["d"] = g["d"].astype(np.int64)
        return g

    def drop_if_low(key_col: str):
        # tagged union partition kernel: side==1 rows carry this peel's
        # dropped ids; edges keyed on key_col survive iff their key is absent
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            low = df.loc[df["side"] == 1, "key"].to_numpy(np.int64)
            eg = df[df["side"] == 0]
            keep = ~eg["key"].isin(low)
            out = eg.loc[keep, ["key", "other"]]
            if key_col == "a":
                return pd.DataFrame(
                    {
                        "a": out["key"].to_numpy(np.int64),
                        "b": out["other"].to_numpy(np.int64),
                    }
                )
            return pd.DataFrame(
                {
                    "a": out["other"].to_numpy(np.int64),
                    "b": out["key"].to_numpy(np.int64),
                }
            )

        return fn

    def tag_edges(key_col: str, other_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "key": batch.column(key_col),
                    "other": batch.column(other_col),
                    "side": pa.array(np.zeros(n, np.int8)),
                }
            )

        return fn

    def tag_low(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("x"),
                "other": pa.array(np.full(n, -1, np.int64)),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    for _ in range(max_peels):
        deg = hash_partitioned_apply(
            und.map_batches(endpoints, batch_format="pyarrow"),
            "x",
            degrees,
            num_parts=num_parts,
        )
        def keep_low(batch: pa.Table) -> pa.Table:
            d = batch.column("d").to_numpy()
            return batch.filter(pa.array(d < k)).select(["x"])

        low = deg.map_batches(keep_low, batch_format="pyarrow").materialize()
        n_low = low.count()
        if n_low == 0:
            break
        if n_low <= broadcast_limit:
            dropped = np.sort(low.to_pandas()["x"].to_numpy(np.int64))
            ref = ray.put(dropped)

            def filt(batch: pa.Table) -> pa.Table:
                dr = ray.get(ref)
                a = batch.column("a").to_numpy()
                b = batch.column("b").to_numpy()
                keep = ~np.isin(a, dr) & ~np.isin(b, dr)
                return batch.filter(pa.array(keep))

            und = und.map_batches(filt, batch_format="pyarrow").materialize()
        else:
            low_tagged = low.map_batches(tag_low, batch_format="pyarrow")
            step = hash_partitioned_apply(
                und.map_batches(tag_edges("a", "b"), batch_format="pyarrow").union(
                    low_tagged
                ),
                "key",
                drop_if_low("a"),
                num_parts=num_parts,
            )
            und = hash_partitioned_apply(
                step.map_batches(tag_edges("b", "a"), batch_format="pyarrow").union(
                    low_tagged
                ),
                "key",
                drop_if_low("b"),
                num_parts=num_parts,
            ).materialize()
    else:
        raise RuntimeError(
            f"kcore: no fixed point within KCORE_MAX_PEELS={max_peels} peels"
        )

    def to_out(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("x", sort=False).size().reset_index(name="core_deg")
        return pd.DataFrame(
            {
                "id": g["x"].to_numpy(np.int64),
                "core_deg": g["core_deg"].to_numpy(np.int64),
            }
        )

    return hash_partitioned_apply(
        und.map_batches(endpoints, batch_format="pyarrow"),
        "x",
        to_out,
        num_parts=num_parts,
    )


def kcore_links(sf_dir: str):
    """Driver query: 4-core of the derived link graph.
    Output (doc_id, core_deg)."""
    res = kcore(dv.link_edges(sf_dir), k=KCORE_K)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("id"), "core_deg": batch.column("core_deg")}
        )

    return res.map_batches(project, batch_format="pyarrow")


def _sql_kcore_level(prev: str, cur: str) -> str:
    """One unrolled peel: nodes keep iff their both-alive degree >= K.
    MATERIALIZED at every level — inlined CTEs referenced twice re-evaluate
    exponentially in DuckDB (the kmeans/CDC lesson)."""
    return f"""{cur} AS MATERIALIZED (
    SELECT x FROM (
        SELECT x, COUNT(*) AS d FROM (
            SELECT e.a AS x FROM und e
            JOIN {prev} p ON p.x = e.a JOIN {prev} q ON q.x = e.b
            UNION ALL
            SELECT e.b FROM und e
            JOIN {prev} p ON p.x = e.a JOIN {prev} q ON q.x = e.b
        ) t GROUP BY x HAVING COUNT(*) >= {KCORE_K}
    ) s)"""


def _sql_kcore_links() -> str:
    parts = [
        "alive0 AS MATERIALIZED (SELECT a AS x FROM und UNION SELECT b FROM und)"
    ]
    for i in range(1, KCORE_MAX_PEELS + 1):
        parts.append(_sql_kcore_level(f"alive{i - 1}", f"alive{i}"))
    chain = ",\n".join(parts)
    last = f"alive{KCORE_MAX_PEELS}"
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
    FROM link_edges WHERE src <> dst),
{chain},
final AS (
    SELECT e.a, e.b FROM und e
    JOIN {last} p ON p.x = e.a JOIN {last} q ON q.x = e.b)
SELECT x AS doc_id, CAST(COUNT(*) AS BIGINT) AS core_deg
FROM (SELECT a AS x FROM final UNION ALL SELECT b FROM final) m
GROUP BY 1
"""


sql_kcore_links = functools.cache(_sql_kcore_links)


# ------------------------------------------- common-neighbor link prediction

LP_SCALE = 1_000_000  # jaccard fixed-point scale (x1e6)
LP_BROADCAST_NODES = 2_000_000  # degree-table broadcast budget


def link_prediction(
    sf_dir: str,
    broadcast_nodes: int = LP_BROADCAST_NODES,
):
    """Common-neighbor link prediction over the undirected link graph — the
    classic 'who should link to whom' scoring a crawl-frontier / related-
    pages stage runs: for every NON-adjacent node pair sharing >= 1
    neighbor, the common-neighbor count and the exact neighborhood-Jaccard
    ``jaccard_micro = common * 10^6 // (deg_a + deg_b - common)``.
    Output (node_a, node_b, common, jaccard_micro), node_a < node_b.

    Shape (the triangle_counts machinery, re-keyed): wedge pairs around
    each center ARE the common-neighbor events — per-center fan-out is
    O(deg²), hub-guarded at TRI_MAX_DEGREE with a loud error; partial
    (x, y) counts collapse inside the wedge partition before the ONE
    (x, y)-keyed exchange where edge rows (tagged union) strike adjacent
    pairs. Degrees attach via the regime switch every lookup side uses:
    broadcast (ray.put) under ``broadcast_nodes`` nodes, else two further
    node-keyed tagged-union exchanges; the paths are equality-tested."""
    from ..stages.joins import hash_partitioned_apply

    und = _und_edges(sf_dir)

    def expand(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table(
            {
                "center": pa.array(np.concatenate([a, b])),
                "nbr": pa.array(np.concatenate([b, a])),
            }
        )

    adj = und.map_batches(expand, batch_format="pyarrow")

    def wedge_partials(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c, g in df.groupby("center", sort=False):
            nb = np.unique(g["nbr"].to_numpy(np.int64))
            if len(nb) > TRI_MAX_DEGREE:
                raise RuntimeError(
                    f"link_prediction: node {c} degree {len(nb)} exceeds "
                    f"TRI_MAX_DEGREE={TRI_MAX_DEGREE} — raise the guard or "
                    "pre-cap hub nodes"
                )
            if len(nb) < 2:
                continue
            ix, iy = np.triu_indices(len(nb), k=1)
            outs.append(pd.DataFrame({"x": nb[ix], "y": nb[iy]}))
        if not outs:
            return pd.DataFrame(
                {
                    "x": pd.Series(dtype=np.int64),
                    "y": pd.Series(dtype=np.int64),
                    "common": pd.Series(dtype=np.int64),
                }
            )
        allp = pd.concat(outs, ignore_index=True)
        g = allp.groupby(["x", "y"], sort=False).size().reset_index(name="common")
        g["common"] = g["common"].astype(np.int64)
        return g

    wedge_ds = hash_partitioned_apply(adj, "center", wedge_partials)

    def tag_edge(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "x": batch.column("a"),
                "y": batch.column("b"),
                "common": pa.array(np.full(n, -1, np.int64)),  # edge marker
            }
        )

    both = wedge_ds.union(und.map_batches(tag_edge, batch_format="pyarrow"))

    def fuse_nonedge(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["common"] == -1][["x", "y"]].drop_duplicates()
        w = df[df["common"] != -1]
        g = w.groupby(["x", "y"], sort=False)["common"].sum().reset_index()
        m = g.merge(e, on=["x", "y"], how="left", indicator=True)
        m = m[m["_merge"] == "left_only"]
        return pd.DataFrame(
            {
                "node_a": m["x"].to_numpy(np.int64),
                "node_b": m["y"].to_numpy(np.int64),
                "common": m["common"].to_numpy(np.int64),
            }
        )

    cand = hash_partitioned_apply(both, ["x", "y"], fuse_nonedge)

    deg = hash_partitioned_apply(
        adj.map_batches(
            lambda t: pa.table({"x": t.column("center")}), batch_format="pyarrow"
        ),
        "x",
        lambda df: df.groupby("x", sort=False)
        .size()
        .reset_index(name="d")
        .astype({"d": np.int64}),
    )

    n_nodes = deg.count()
    if n_nodes <= broadcast_nodes:
        dd = deg.to_pandas()
        ids = np.sort(dd["x"].to_numpy(np.int64))
        darr = dd.set_index("x").loc[ids, "d"].to_numpy(np.int64)
        ref = ray.put((ids, darr))

        def score(batch: pa.Table) -> pa.Table:
            ids_, d_ = ray.get(ref)
            a = batch.column("node_a").to_numpy()
            b = batch.column("node_b").to_numpy()
            c = batch.column("common").to_numpy()
            da = d_[np.searchsorted(ids_, a)]
            db = d_[np.searchsorted(ids_, b)]
            jm = c * LP_SCALE // (da + db - c)
            return batch.append_column("jaccard_micro", pa.array(jm.astype(np.int64)))

        return cand.map_batches(score, batch_format="pyarrow")

    # distributed degree attach: two node-keyed tagged-union exchanges
    def tag_deg(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("x"),
                "other": pa.array(np.full(n, -1, np.int64)),
                "common": pa.array(np.full(n, -1, np.int64)),
                "d": batch.column("d"),
            }
        )

    def tag_cand(key_col: str, other_col: str, carry: str | None):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "key": batch.column(key_col),
                    "other": batch.column(other_col),
                    "common": batch.column("common"),
                    "d": batch.column(carry) if carry else pa.array(np.zeros(n, np.int64)),
                }
            )

        return fn

    def attach(out_d: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            dmap = df[df["other"] == -1].set_index("key")["d"]
            c = df[df["other"] != -1]
            got = dmap.reindex(c["key"]).to_numpy(np.int64)
            out = pd.DataFrame(
                {
                    "key": c["key"].to_numpy(np.int64),
                    "other": c["other"].to_numpy(np.int64),
                    "common": c["common"].to_numpy(np.int64),
                    out_d: got,
                }
            )
            if out_d == "db":
                out["da"] = c["d"].to_numpy(np.int64)
            return out

        return fn

    tag1 = cand.map_batches(tag_cand("node_a", "node_b", None), batch_format="pyarrow")
    step = hash_partitioned_apply(tag1.union(deg.map_batches(tag_deg, batch_format="pyarrow")), "key", attach("da"))

    def swap(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch.column("other"),
                "other": batch.column("key"),
                "common": batch.column("common"),
                "d": batch.column("da"),
            }
        )

    step2 = hash_partitioned_apply(
        step.map_batches(swap, batch_format="pyarrow").union(
            deg.map_batches(tag_deg, batch_format="pyarrow")
        ),
        "key",
        attach("db"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        a = batch.column("other").to_numpy()
        b = batch.column("key").to_numpy()
        c = batch.column("common").to_numpy()
        da = batch.column("da").to_numpy()
        db = batch.column("db").to_numpy()
        jm = c * LP_SCALE // (da + db - c)
        return pa.table(
            {
                "node_a": pa.array(a.astype(np.int64)),
                "node_b": pa.array(b.astype(np.int64)),
                "common": pa.array(c.astype(np.int64)),
                "jaccard_micro": pa.array(jm.astype(np.int64)),
            }
        )

    return step2.map_batches(finish, batch_format="pyarrow")


SQL_LINK_PREDICTION = f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM link_edges WHERE src <> dst),
adj AS (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und),
deg AS (SELECT x, CAST(COUNT(*) AS BIGINT) AS d FROM adj GROUP BY 1),
cn AS (SELECT n1.y AS a, n2.y AS b, CAST(COUNT(*) AS BIGINT) AS common
       FROM adj n1 JOIN adj n2 ON n1.x = n2.x AND n1.y < n2.y
       GROUP BY 1, 2),
nonedge AS (SELECT cn.a, cn.b, cn.common
            FROM cn LEFT JOIN und e ON e.a = cn.a AND e.b = cn.b
            WHERE e.a IS NULL)
SELECT ne.a AS node_a, ne.b AS node_b, ne.common,
       CAST(ne.common * {LP_SCALE} // (da.d + db.d - ne.common) AS BIGINT)
           AS jaccard_micro
FROM nonedge ne JOIN deg da ON da.x = ne.a JOIN deg db ON db.x = ne.b
"""


# ----------------------------------------------- label propagation (LPA)

LPA_ITERS = 3
LPA_SMALL_EDGES = 2_000_000


def label_prop(sf_dir: str, iters: int = LPA_ITERS, small_edges: int = LPA_SMALL_EDGES):
    """Synchronous label-propagation community detection over the undirected
    link graph — the cheap community pass a crawl-curation pipeline runs to
    group mutually-linking sites (where dup_clusters finds exact components,
    LPA finds dense neighborhoods). Deterministic variant: label(v) starts
    at v; each round every node adopts the most frequent label among its
    neighbors, ties broken by SMALLEST label; fixed ``iters`` synchronous
    rounds (no convergence test — bounded and deterministic even where sync
    LPA oscillates). Output (doc_id, community) for every node of the
    de-self-looped undirected graph.

    Scale shape: the pagerank trade — adjacency materialized once, two
    bounded hash exchanges per round (neighbor-keyed label fetch, then
    node-keyed mode vote). Below ``small_edges`` the identical recurrence
    runs as one driver pandas loop (the pagerank/MinHash regime switch);
    the paths are equality-tested (tests/test_graph.py)."""
    edges = dv.link_edges(sf_dir)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {"a": pa.array(np.minimum(s, d)), "b": pa.array(np.maximum(s, d))}
        )

    und = hash_partitioned_apply(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["a", "b"],
        lambda df: df.drop_duplicates(),
    )

    def expand(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table(
            {
                "x": pa.array(np.concatenate([a, b])),
                "y": pa.array(np.concatenate([b, a])),
            }
        )

    adj = und.map_batches(expand, batch_format="pyarrow").materialize()

    def mode_vote(df: pd.DataFrame) -> pd.DataFrame:
        """(x, lab) rows → per-x most frequent lab, tie → smallest lab."""
        g = df.groupby(["x", "lab"], sort=False).size().reset_index(name="n")
        g = g.sort_values(["x", "n", "lab"], ascending=[True, False, True], kind="mergesort")
        top = g.drop_duplicates("x", keep="first")
        return pd.DataFrame(
            {"id": top["x"].to_numpy(np.int64), "lab": top["lab"].to_numpy(np.int64)}
        )

    if adj.count() <= 2 * small_edges:
        ad = adj.to_pandas()
        x = ad["x"].to_numpy(np.int64)
        y = ad["y"].to_numpy(np.int64)
        ids = np.unique(x)
        lab = pd.Series(ids, index=ids)
        for _ in range(iters):
            votes = pd.DataFrame({"x": x, "lab": lab.reindex(y).to_numpy(np.int64)})
            new = mode_vote(votes)
            lab = new.set_index("id")["lab"]
        out = lab.sort_index()
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(out.index.to_numpy(np.int64)),
                    "community": pa.array(out.to_numpy(np.int64)),
                }
            )
        )

    # distributed path: labels init from adjacency's own x side
    labels = hash_partitioned_apply(
        adj,
        "x",
        lambda df: pd.DataFrame({"id": np.unique(df["x"].to_numpy(np.int64))}).assign(
            lab=lambda d: d["id"]
        ),
    )

    def tag_labels(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("id"),
                "x": pa.array(np.full(n, -1, np.int64)),
                "lab": batch.column("lab"),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    def tag_adj(batch: pa.Table) -> pa.Table:
        # keyed by the NEIGHBOR y whose label the edge wants to read
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("y"),
                "x": batch.column("x"),
                "lab": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    def fetch(df: pd.DataFrame) -> pd.DataFrame:
        lm = df[df["side"] == 0].set_index("key")["lab"]
        eg = df[df["side"] == 1]
        return pd.DataFrame(
            {
                "x": eg["x"].to_numpy(np.int64),
                "lab": lm.reindex(eg["key"]).to_numpy(np.int64),
            }
        )

    tagged_adj = adj.map_batches(tag_adj, batch_format="pyarrow")
    for _ in range(iters):
        both = labels.map_batches(tag_labels, batch_format="pyarrow").union(tagged_adj)
        votes = hash_partitioned_apply(both, "key", fetch)
        labels = hash_partitioned_apply(votes, "x", mode_vote)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("id"), "community": batch.column("lab")}
        )

    return labels.map_batches(project, batch_format="pyarrow")


def _sql_lpa_iter(prev: str, cur: str) -> str:
    """One unrolled synchronous LPA round: mode of neighbor labels, tie →
    smallest label. MATERIALIZED — inlined CTEs referenced twice re-evaluate
    and the unrolled chain would blow up exponentially."""
    return f"""{cur} AS MATERIALIZED (
    SELECT id, lab FROM (
        SELECT a.x AS id, l.lab,
               ROW_NUMBER() OVER (
                   PARTITION BY a.x
                   ORDER BY COUNT(*) DESC, l.lab ASC) AS rn
        FROM adj a JOIN {prev} l ON l.id = a.y
        GROUP BY a.x, l.lab)
    WHERE rn = 1)"""


def _sql_label_prop(iters: int = LPA_ITERS) -> str:
    steps = ",\n".join(_sql_lpa_iter(f"l{i}", f"l{i + 1}") for i in range(iters))
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
    FROM link_edges WHERE src <> dst),
adj AS MATERIALIZED (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und),
l0 AS MATERIALIZED (SELECT DISTINCT x AS id, x AS lab FROM adj),
{steps}
SELECT id AS doc_id, lab AS community FROM l{iters}
"""


import functools as _functools

sql_label_prop = _functools.cache(_sql_label_prop)


# ----------------------------------------------- multi-source BFS levels

BFS_SEED_MOD = 97
BFS_MAX_HOPS = 4
BFS_SMALL_EDGES = 2_000_000


def bfs_levels(
    sf_dir: str,
    max_hops: int = BFS_MAX_HOPS,
    small_edges: int = BFS_SMALL_EDGES,
):
    """Multi-source BFS over the undirected link graph: hop distance from
    the deterministic seed set (doc_id % 97 == 0) up to ``max_hops`` — the
    crawl-frontier 'distance from trusted seeds' feature (TrustRank-style
    prior). Output (doc_id, level) for REACHED nodes only, level = exact
    min-hop distance, ties resolved by min by construction.

    Scale shape: adjacency materialized once; each round is two bounded
    hash exchanges (frontier-keyed neighbor expansion, then node-keyed
    min-merge); the level table never exceeds the node set and candidate
    rows are one per frontier edge. Below ``small_edges`` the identical
    recurrence runs as a driver numpy loop (regime switch, equality-tested
    in tests/test_graph.py)."""
    edges = dv.link_edges(sf_dir)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table(
            {"a": pa.array(np.minimum(s, d)), "b": pa.array(np.maximum(s, d))}
        )

    und = hash_partitioned_apply(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["a", "b"],
        lambda df: df.drop_duplicates(),
    )

    def expand(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table(
            {
                "x": pa.array(np.concatenate([a, b])),
                "y": pa.array(np.concatenate([b, a])),
            }
        )

    adj = und.map_batches(expand, batch_format="pyarrow").materialize()

    if adj.count() <= 2 * small_edges:
        ad = adj.to_pandas()
        x = ad["x"].to_numpy(np.int64)
        y = ad["y"].to_numpy(np.int64)
        ids = np.unique(x)
        lvl = pd.Series(np.where(ids % BFS_SEED_MOD == 0, 0, np.iinfo(np.int64).max), index=ids)
        for i in range(max_hops):
            fr = set(lvl.index[lvl.to_numpy() == i])
            if not fr:
                break
            hit = np.fromiter((int(v) in fr for v in x), bool, len(x))
            cand = pd.Series(i + 1, index=y[hit]).groupby(level=0).min()
            lvl = pd.concat([lvl, cand]).groupby(level=0).min()
        out = lvl[lvl < np.iinfo(np.int64).max].sort_index()
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(out.index.to_numpy(np.int64)),
                    "level": pa.array(out.to_numpy(np.int64)),
                }
            )
        )

    # distributed path: levels (id, lvl); two exchanges per round
    levels = hash_partitioned_apply(
        adj,
        "x",
        lambda df: (
            lambda ids: pd.DataFrame(
                {"id": ids, "lvl": np.where(ids % BFS_SEED_MOD == 0, 0, -1)}
            ).astype(np.int64)
        )(np.unique(df["x"].to_numpy(np.int64))),
    )

    def tag_levels(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("id"),
                "y": pa.array(np.full(n, -1, np.int64)),
                "lvl": batch.column("lvl"),
                "side": pa.array(np.zeros(n, np.int8)),
            }
        )

    def tag_adj(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "key": batch.column("x"),
                "y": batch.column("y"),
                "lvl": pa.array(np.zeros(n, np.int64)),
                "side": pa.array(np.ones(n, np.int8)),
            }
        )

    tagged_adj = adj.map_batches(tag_adj, batch_format="pyarrow")
    for i in range(max_hops):
        def scatter(df: pd.DataFrame, _i=i) -> pd.DataFrame:
            lv = df[df["side"] == 0]
            eg = df[df["side"] == 1]
            fr = lv.loc[lv["lvl"] == _i, "key"]
            hits = eg[eg["key"].isin(set(fr.to_numpy()))]
            return pd.concat(
                [
                    pd.DataFrame(
                        {"id": lv["key"].to_numpy(np.int64), "lvl": lv["lvl"].to_numpy(np.int64)}
                    ),
                    pd.DataFrame(
                        {
                            "id": hits["y"].to_numpy(np.int64),
                            "lvl": np.full(len(hits), _i + 1, np.int64),
                        }
                    ),
                ],
                ignore_index=True,
            )

        def min_merge(df: pd.DataFrame) -> pd.DataFrame:
            # -1 (unreached) loses to any real level; real levels take the min
            d = df.copy()
            d["k"] = np.where(d["lvl"] < 0, np.iinfo(np.int64).max, d["lvl"])
            g = d.groupby("id", sort=False)["k"].min().reset_index()
            g["lvl"] = np.where(g["k"] == np.iinfo(np.int64).max, -1, g["k"]).astype(np.int64)
            return g[["id", "lvl"]]

        both = levels.map_batches(tag_levels, batch_format="pyarrow").union(tagged_adj)
        cand = hash_partitioned_apply(both, "key", scatter)
        levels = hash_partitioned_apply(cand, "id", min_merge)

    def project(batch: pa.Table) -> pa.Table:
        lv = batch.column("lvl").to_numpy()
        keep = lv >= 0
        return pa.table(
            {
                "doc_id": pa.array(batch.column("id").to_numpy()[keep].astype(np.int64)),
                "level": pa.array(lv[keep].astype(np.int64)),
            }
        )

    return levels.map_batches(project, batch_format="pyarrow")


def _sql_bfs_iter(prev: str, cur: str, i: int) -> str:
    return f"""{cur} AS MATERIALIZED (
    SELECT id, CAST(MIN(lvl) AS BIGINT) AS lvl FROM (
        SELECT id, lvl FROM {prev}
        UNION ALL
        SELECT a.y AS id, {i + 1} AS lvl
        FROM adj a JOIN {prev} f ON f.id = a.x AND f.lvl = {i})
    GROUP BY id)"""


def _sql_bfs_levels(max_hops: int = BFS_MAX_HOPS) -> str:
    steps = ",\n".join(_sql_bfs_iter(f"f{i}", f"f{i + 1}", i) for i in range(max_hops))
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS MATERIALIZED (
    SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
    FROM link_edges WHERE src <> dst),
adj AS MATERIALIZED (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und),
f0 AS MATERIALIZED (
    SELECT DISTINCT x AS id, 0 AS lvl FROM adj WHERE x % {BFS_SEED_MOD} = 0),
{steps}
SELECT id AS doc_id, lvl AS level FROM f{max_hops}
"""


sql_bfs_levels = _functools.cache(_sql_bfs_levels)


# ------------------------------------------------ strongly connected components

SCC_SMALL_EDGES = 20_000


def _scc_numpy(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact SCC id (= min member id) per node of a DIRECTED edge list, via
    forward-min-label coloring + in-color backward sweep + peel (the
    FW-BW-coloring family): propagate F(v) = min id that reaches v to
    fixpoint; every node with F(v) = v is the root of its color, its SCC is
    exactly the nodes of its color that reach it (backward sweep along
    color-consistent edges); peel those and repeat. Each round retires at
    least the minimum alive node, so the loop terminates. Self-contained
    numpy, used both as the small-graph regime and as the unit-test oracle
    for the distributed path."""
    nodes = np.unique(np.concatenate([src, dst]))
    s = np.searchsorted(nodes, src)
    d = np.searchsorted(nodes, dst)
    n = nodes.size
    alive = np.ones(n, bool)
    out = np.full(n, -1, np.int64)
    big = np.iinfo(np.int64).max
    while alive.any():
        em = alive[s] & alive[d]
        es, ed = s[em], d[em]
        F = np.where(alive, nodes, big)
        while True:
            before = F.copy()
            np.minimum.at(F, ed, F[es])
            if np.array_equal(F, before):
                break
        roots = alive & (F == nodes)
        cc = F[es] == F[ed]
        ces, ced = es[cc], ed[cc]
        S = roots.copy()
        while True:
            add = S[ced] & ~S[ces]
            if not add.any():
                break
            S[ces[add]] = True
        out[S] = F[S]
        alive &= ~S
    return nodes, out


def scc(
    edges: "ray.data.Dataset", small_edges: int = SCC_SMALL_EDGES
) -> "ray.data.Dataset":
    """Distributed SCC over a (src, dst) edge Dataset → (doc_id, scc_id).

    Scale shape (FW-BW-coloring, same regime discipline as kcore /
    label_prop / bfs): node state lives in ONE labels table (id, f, g,
    done, scc); the edge table is tagged ONCE and never filtered — done
    endpoints are masked inside the partitions. Each fixpoint iteration is
    exactly two bounded exchanges (the bfs_levels tagged-union
    scatter/gather: partition by edge source to emit min-label candidates,
    partition by node id to min-merge), with a monotone SUM(label)
    aggregate as the convergence scalar — no row-level diff, no join
    operator at all. Per outer peel round: reset f, forward-min fixpoint,
    TWO passes to tag color-consistent reversed edges, backward root-flag
    fixpoint over them, then a vectorized assign of finished SCCs. Every
    round retires at least the SCC of each color root (the minimum alive
    node always is one), so the loop terminates. Nothing node- or
    edge-sized ever lands on the driver. Below ``small_edges`` the
    identical recurrence runs as the driver numpy loop (_scc_numpy),
    equality-tested in tests/test_graph.py."""

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        keep = s != d
        return pa.table({"src": pa.array(s[keep]), "dst": pa.array(d[keep])})

    # self-loops don't change SCC membership; dedup bounds the exchanges
    ed = hash_partitioned_apply(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["src", "dst"],
        lambda df: df.drop_duplicates(),
    ).materialize()

    # node set from the RAW edge list (pre self-loop-drop) so isolated /
    # self-loop-only nodes still land as singleton SCCs
    def node_cols(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy().astype(np.int64)
        d = batch.column("dst").to_numpy().astype(np.int64)
        return pa.table({"id": pa.array(np.unique(np.concatenate([s, d])))})

    nodes = hash_partitioned_apply(
        edges.map_batches(node_cols, batch_format="pyarrow"),
        "id",
        lambda df: df.drop_duplicates(),
    ).materialize()

    if ed.count() <= small_edges:
        edf = ed.to_pandas()
        nd, sid = _scc_numpy(edf["src"].to_numpy(np.int64), edf["dst"].to_numpy(np.int64))
        res = pd.Series(sid, index=nd)
        allnodes = nodes.to_pandas()["id"].to_numpy(np.int64)
        out = res.reindex(allnodes)
        out = out.fillna(pd.Series(allnodes, index=allnodes)).astype(np.int64)
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(allnodes), "scc_id": pa.array(out.to_numpy())})
        )

    BIG = np.iinfo(np.int64).max
    COLS = ["key", "id", "f", "g", "done", "scc", "oth", "side"]

    def lab_tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(key=df["id"], oth=np.int64(-1), side=np.int64(0))[COLS]

    # labels: one row per node — f (forward min label), g (backward root
    # flag, 0 = reaches a root of its color), done, scc
    labels = nodes.map_batches(
        lambda df: pd.DataFrame(
            {
                "id": df["id"].to_numpy(np.int64),
                "f": df["id"].to_numpy(np.int64),
                "g": np.ones(len(df), np.int64),
                "done": np.zeros(len(df), np.int64),
                "scc": np.full(len(df), -1, np.int64),
            }
        ),
        batch_format="pandas",
    ).materialize()

    def edge_tag(key_col: str, oth_col: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df)
            return pd.DataFrame(
                {
                    "key": df[key_col].to_numpy(np.int64),
                    "id": np.full(n, -1, np.int64),
                    "f": np.full(n, -1, np.int64),
                    "g": np.full(n, -1, np.int64),
                    "done": np.full(n, -1, np.int64),
                    "scc": np.full(n, -1, np.int64),
                    "oth": df[oth_col].to_numpy(np.int64),
                    "side": np.full(n, 1, np.int64),
                }
            )

        return fn

    ed_fwd = ed.map_batches(edge_tag("src", "dst"), batch_format="pandas").materialize()

    def scatter(field: str):
        """Partition by key: each edge row emits (key=oth, field-value of
        its source node) when the source is alive; labels pass through."""

        def fn(df: pd.DataFrame) -> pd.DataFrame:
            lab = df[df["side"] == 0]
            eg = df[df["side"] == 1]
            if not len(eg):
                return lab[COLS]
            src = lab.loc[lab["done"] == 0].set_index("key")[field]
            val = eg["key"].map(src)  # NaN when src node is done/absent
            ok = val.notna()
            cand = pd.DataFrame(
                {
                    "key": eg.loc[ok, "oth"].to_numpy(np.int64),
                    "id": np.full(int(ok.sum()), -1, np.int64),
                    "f": np.full(int(ok.sum()), -1, np.int64),
                    "g": np.full(int(ok.sum()), -1, np.int64),
                    "done": np.full(int(ok.sum()), -1, np.int64),
                    "scc": np.full(int(ok.sum()), -1, np.int64),
                    "oth": val[ok].to_numpy(np.int64),  # candidate value rides oth
                    "side": np.full(int(ok.sum()), 2, np.int64),
                }
            )
            return pd.concat([lab[COLS], cand], ignore_index=True)

        return fn

    def gather(field: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            base = df[df["side"] == 0].copy()
            cd = df[df["side"] == 2]
            if len(cd):
                mn = cd.groupby("key")["oth"].min()
                mapped = base["key"].map(mn)
                # NB: fillna(2^63-1) would round-trip through float64 and
                # overflow to -2^63 — mask instead of sentinel-filling
                has = mapped.notna().to_numpy()
                inc = mapped.fillna(0).to_numpy().astype(np.int64)
                alive = base["done"].to_numpy(np.int64) == 0
                cur = base[field].to_numpy(np.int64)
                base[field] = np.where(alive & has, np.minimum(cur, inc), cur)
            return base[COLS]

        return fn

    import os as _os, time as _time
    _dbg = bool(_os.environ.get("GRAFT_SCC_DEBUG"))

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    def _fresh(ds):
        """materialize, strip plan/stats lineage, and DROP EMPTY BLOCKS:
        map_groups emits one (mostly empty) block per input block in this
        Ray version, so an iterated union would grow the block count —
        and per-execution scheduling cost — linearly per iteration. Keeping
        only non-empty refs bounds labels at O(num_parts) blocks."""
        refs = ds.materialize().to_arrow_refs()
        if len(refs) > 1:
            counts = ray.get([_nrows.remote(r) for r in refs])
            refs = [r for r, n in zip(refs, counts) if n > 0] or refs[:1]
        return ray.data.from_arrow_refs(refs)

    def fixpoint(labels, tagged_edges, field: str):
        prev = None
        while True:
            _t0 = _time.time()
            both = labels.map_batches(lab_tag, batch_format="pandas").union(tagged_edges)
            mid = hash_partitioned_apply(both, "key", scatter(field))
            labels = _fresh(
                hash_partitioned_apply(mid, "key", gather(field)).map_batches(
                    lambda df: df[["id", "f", "g", "done", "scc"]], batch_format="pandas"
                )
            )
            cur = labels.sum(field)  # monotone nonincreasing under min-merge
            if _dbg:
                print(f"[scc] fix {field} sum={cur} dt={_time.time()-_t0:.1f} blocks={labels.num_blocks()}", flush=True)
            if cur == prev:
                return labels
            prev = cur

    results = None
    while True:
        alive = labels.map_batches(
            lambda df: pd.DataFrame({"n": [int((df["done"] == 0).sum())]}),
            batch_format="pandas",
        ).sum("n")
        if _dbg:
            print(f"[scc] outer alive={alive}", flush=True)
        if not alive:
            break
        # reset forward labels for alive nodes, then forward-min fixpoint
        labels = labels.map_batches(
            lambda df: df.assign(
                f=np.where(df["done"] == 0, df["id"], df["f"]).astype(np.int64)
            ),
            batch_format="pandas",
        ).materialize()
        labels = fixpoint(labels, ed_fwd, "f")

        # tag color-consistent edges REVERSED (key=dst, oth=src), two passes:
        # attach f at src (partition by src), then compare f at dst
        def attach_src(df: pd.DataFrame) -> pd.DataFrame:
            lab = df[df["side"] == 0]
            eg = df[df["side"] == 1]
            if not len(eg):
                return eg[COLS]
            src = lab.loc[lab["done"] == 0].set_index("key")["f"]
            val = eg["key"].map(src)
            ok = val.notna()
            out = eg[ok].copy()
            out["f"] = val[ok].to_numpy(np.int64)  # carry f_src on the edge row
            # re-key by the destination for pass 2 / backward scatter
            out["key"], out["oth"] = out["oth"].to_numpy(np.int64), out["key"].to_numpy(np.int64)
            return out[COLS]

        def filter_dst(df: pd.DataFrame) -> pd.DataFrame:
            lab = df[df["side"] == 0]
            eg = df[df["side"] == 1]
            if not len(eg):
                return eg[COLS]
            dstf = lab.loc[lab["done"] == 0].set_index("key")["f"]
            val = eg["key"].map(dstf)
            ok = val.notna() & (val.to_numpy() == eg["f"].to_numpy())
            return eg[ok][COLS]

        both = labels.map_batches(lab_tag, batch_format="pandas").union(ed_fwd)
        p1 = hash_partitioned_apply(both, "key", attach_src).materialize()
        both2 = labels.map_batches(lab_tag, batch_format="pandas").union(p1)
        cef = hash_partitioned_apply(both2, "key", filter_dst).materialize()

        # backward root-reach fixpoint: g=0 at roots, min-propagates src<-dst
        labels = labels.map_batches(
            lambda df: df.assign(
                g=np.where(
                    (df["done"] == 0) & (df["f"] == df["id"]), 0, 1
                ).astype(np.int64)
            ),
            batch_format="pandas",
        ).materialize()
        labels = fixpoint(labels, cef, "g")

        # finished: alive nodes that reach their color root
        labels = labels.map_batches(
            lambda df: df.assign(
                scc=np.where((df["done"] == 0) & (df["g"] == 0), df["f"], df["scc"]).astype(np.int64),
                done=np.where((df["done"] == 0) & (df["g"] == 0), 1, df["done"]).astype(np.int64),
            ),
            batch_format="pandas",
        ).materialize()

    return labels.map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["id"].to_numpy(np.int64), "scc_id": df["scc"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )


def scc_links(sf_dir: str):
    """SCC over the derived doc link graph → (doc_id, scc_id = min member).
    The web-graph condensation primitive (which pages are in a mutual-reach
    core vs. tendrils). Oracle: recursive-CTE transitive closure, mutual
    pairs, min per node."""
    return scc(dv.link_edges(sf_dir))


def _sql_scc_links() -> str:
    return f"""
WITH RECURSIVE {dv.SQL_LINK_EDGES.strip()},
edges AS MATERIALIZED (
    SELECT DISTINCT src, dst FROM link_edges WHERE src <> dst),
reach(s, d) AS (
    SELECT src, dst FROM edges
    UNION
    SELECT r.s, e.dst FROM reach r JOIN edges e ON r.d = e.src
),
mutual AS (
    SELECT r1.s AS u, r1.d AS v
    FROM reach r1 JOIN reach r2 ON r1.s = r2.d AND r1.d = r2.s
),
m AS (SELECT u, MIN(v) AS mv FROM mutual GROUP BY u)
SELECT d.doc_id, CAST(LEAST(d.doc_id, COALESCE(m.mv, d.doc_id)) AS BIGINT) AS scc_id
FROM documents d LEFT JOIN m ON m.u = d.doc_id
"""


sql_scc_links = _functools.cache(_sql_scc_links)


# -------------------------------------------------- clustering coefficient


def clustering_coeff(sf_dir: str):
    """Per-node LOCAL CLUSTERING COEFFICIENT over the undirected link graph:
    c = 2·T / (deg·(deg−1)) for nodes with degree ≥ 2 — triangle_counts'
    natural denominator (the graph-quality signal next to the raw triangle
    census). Integer-exact output: coeff_micro = 10⁶·2·T // (deg·(deg−1)),
    round-floor on both engines.

    Shape: ONE distinct-undirected-edge pass (shared with triangle_counts
    via _und_edges — materialized once, read by both the degree count and
    the wedge-close machinery); one node-keyed degree exchange; one final
    node-keyed side-tagged exchange fuses (deg, T) with T defaulting to 0 —
    zero-triangle nodes stay in the output, as SQL's LEFT JOIN does."""
    from ..stages.joins import hash_partitioned_apply

    und = _und_edges(sf_dir)

    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table({"node": pa.array(np.concatenate([a, b]))})

    def deg_count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False).size().reset_index(name="deg")
        return g.astype({"deg": np.int64})

    degs = hash_partitioned_apply(
        und.map_batches(endpoints, batch_format="pyarrow"), "node", deg_count
    )

    tris = _triangles_cached(sf_dir)

    def tag_deg(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "val": batch.column("deg").cast(pa.int64()),
                "side": pa.array(np.zeros(batch.num_rows, np.int8)),
            }
        )

    def tag_tri(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("doc_id").cast(pa.int64()),
                "val": batch.column("n_triangles").cast(pa.int64()),
                "side": pa.array(np.ones(batch.num_rows, np.int8)),
            }
        )

    both = degs.map_batches(tag_deg, batch_format="pyarrow").union(
        tris.map_batches(tag_tri, batch_format="pyarrow")
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["side"] == 0][["node", "val"]].rename(columns={"val": "deg"})
        t = df[df["side"] == 1][["node", "val"]].rename(columns={"val": "tri"})
        m = d.merge(t, on="node", how="left").fillna({"tri": 0})
        m = m[m["deg"] >= 2]
        deg = m["deg"].to_numpy(np.int64)
        tri = m["tri"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": m["node"].to_numpy(np.int64),
                "deg": deg,
                "n_triangles": tri,
                "coeff_micro": 2_000_000 * tri // (deg * (deg - 1)),
            }
        )

    return hash_partitioned_apply(both, "node", fuse)


def sql_clustering_coeff() -> str:
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM link_edges WHERE src <> dst),
degs AS (
    SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
    FROM (SELECT a AS node FROM und UNION ALL SELECT b FROM und)
    GROUP BY 1),
tris AS (
    SELECT e1.a AS x, e1.b AS y, e2.b AS z
    FROM und e1
    JOIN und e2 ON e2.a = e1.b
    JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b),
members AS (
    SELECT x AS doc_id FROM tris
    UNION ALL SELECT y FROM tris
    UNION ALL SELECT z FROM tris),
tcounts AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS t FROM members GROUP BY 1)
SELECT d.node AS doc_id, d.deg,
       COALESCE(t.t, 0) AS n_triangles,
       2000000 * COALESCE(t.t, 0) // (d.deg * (d.deg - 1)) AS coeff_micro
FROM degs d LEFT JOIN tcounts t ON t.doc_id = d.node
WHERE d.deg >= 2
"""


def degree_assortativity(sf_dir: str):
    """Newman DEGREE ASSORTATIVITY of the undirected link graph: the Pearson
    correlation of (deg(u), deg(v)) over the 2m ordered endpoint views of
    the m distinct undirected edges — THE one-number mixing diagnostic next
    to clustering_coeff. Output one row (n_samples=2m, assort_x1e9).

    Shape (TWO exchanges past the edge dedup, no separate degree pass): the
    view exchange keyed by the FIRST endpoint already co-locates exactly
    deg(x) rows per node x (both orientations of every incident edge), so
    deg is a partition-local row count — the degs⋈ join collapses into the
    exchange that was needed anyway; the second exchange (keyed by the
    other endpoint, whose row count per node is again its degree) attaches
    the second degree and reduces to per-PARTITION int64 moment partials
    (n, Σx, Σy, Σxy, Σx², Σy²). Nothing edge-sized reaches the driver,
    which sums O(num_parts) rows exactly (Python int) and evaluates the
    closed form in corr_price_qty's float-expression-order contract
    (bit-identical SQL twin). int64 partial bound: rows/partition ·
    max_deg² — safe while hub_deg² · partition_rows < 2⁶³."""
    from ..stages.joins import hash_partitioned_apply

    und = _und_edges(sf_dir)

    def edge_views(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy()
        b = batch.column("b").to_numpy()
        return pa.table(
            {"node": np.concatenate([a, b]), "other": np.concatenate([b, a])}
        )

    def attach_first(df: pd.DataFrame) -> pd.DataFrame:
        deg = df.groupby("node", sort=False)["node"].transform("size")
        return pd.DataFrame(
            {"node": df["other"].to_numpy(), "da": deg.to_numpy(np.int64)}
        )

    views = und.map_batches(edge_views, batch_format="pyarrow")
    half = hash_partitioned_apply(views, "node", attach_first)

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {c: pd.Series([], dtype=np.int64) for c in ("n", "sx", "sy", "sxy", "sxx", "syy")}
            )
        x = df["da"].to_numpy(np.int64)
        y = df.groupby("node", sort=False)["node"].transform("size").to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n": [np.int64(len(x))],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxy": [(x * y).sum()],
                "sxx": [(x * x).sum()],
                "syy": [(y * y).sum()],
            }
        )

    parts = hash_partitioned_apply(half, "node", moments).to_pandas()

    n, sx, sy, sxy, sxx, syy = (
        int(parts[c].astype(object).sum()) for c in ("n", "sx", "sy", "sxy", "sxx", "syy")
    )
    num = float(n * sxy - sx * sy)
    den = np.sqrt(float(n * sxx - sx * sx)) * np.sqrt(float(n * syy - sy * sy))
    out = pd.DataFrame(
        {
            "n_samples": [np.int64(n)],
            "assort_x1e9": [np.int64(np.rint(num / den * 1000000000))],
        }
    )
    import ray.data as _rd

    return _rd.from_pandas(out)


def sql_degree_assortativity() -> str:
    return f"""
WITH {dv.SQL_LINK_EDGES.strip()},
und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
        FROM link_edges WHERE src <> dst),
degs AS (
    SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
    FROM (SELECT a AS node FROM und UNION ALL SELECT b FROM und)
    GROUP BY 1),
pairs AS (SELECT a AS x, b AS y FROM und UNION ALL SELECT b, a FROM und),
j AS (
    SELECT dx.deg AS da, dy.deg AS db
    FROM pairs p JOIN degs dx ON dx.node = p.x JOIN degs dy ON dy.node = p.y),
m AS (
    SELECT COUNT(*) AS n,
           SUM(CAST(da AS HUGEINT)) AS sx, SUM(CAST(db AS HUGEINT)) AS sy,
           SUM(CAST(da AS HUGEINT) * db) AS sxy,
           SUM(CAST(da AS HUGEINT) * da) AS sxx,
           SUM(CAST(db AS HUGEINT) * db) AS syy
    FROM j)
SELECT CAST(n AS BIGINT) AS n_samples,
       CAST(ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
            / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
            * 1000000000) AS BIGINT) AS assort_x1e9
FROM m
"""
