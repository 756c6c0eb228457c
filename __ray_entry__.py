"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in osm_search_ray) calls ``ray.init()`` / ``ray.shutdown()``.

Each ``queries()`` entry is one operator/pipeline from SURVEY.md §2,
expressed Ray-Data-first over the sf-dir Parquet tables; the matching
``oracle_sql()`` entry reproduces it in DuckDB over the same tables.
Geospatial inputs (pages/polygons/query points) are derived from the
registered tables by deterministic arithmetic shared bit-for-bit between
numpy and SQL — see osm_search_ray/sources/derived.py for the contract.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from osm_search_ray.sources import derived as dv

# Registry ORDER is part of the driver contract: the driver certifies the
# first ~50 queries per round (r3 and r4 both stopped at exactly 50).
# Round-5 rotation: the 74 queries with no CORRECTNESS row in rounds 1-4
# come first — within them, the search family (VERDICT r4 task 5), then
# flagship LLM-data/dedup/ANN/graph operators, then the window/KPI micro
# queries; previously-certified queries follow least-recently-first
# (r2 block, then r3, then r4).
_R5_ORDER = [
    # -- never driver-certified (74): search family first --
    "segmented_search", "bm25f_store_search", "tfidf_store_search",
    "spell_store_search", "boolean_search", "phrase_search",
    "phrase_store_search", "lm_doc_scores",
    # -- flagship dedup / LLM-training-data operators --
    "dedup_ngram_prefix", "dedup_substring", "dedup_ngram",
    "dedup_incremental", "dedup_clusters_minhash", "semantic_dedup",
    "line_dedup", "cdc_chunks", "cdc_dedup", "split_leakage_safe",
    "dsir_select", "ccnet_buckets", "quality_model", "bpe_train",
    "bpe_tokenize", "mix_temperature", "cms_heavy_terms", "audio_features",
    # -- ANN / clustering --
    "ann_pq_topk", "ann_quantized_topk", "kmeans_clusters", "knn_graph",
    "embedding_centroids", "label_medoids", "nn_join",
    # -- graph --
    "triangle_counts", "link_prediction", "kcore_links", "ppr_links",
    "hits_links", "label_prop", "bfs_levels",
    # -- spatial / formats / web-corpus --
    "hotspot_cells", "zorder_sort", "jsonl_roundtrip", "csv_roundtrip",
    "url_canonical", "snapshot_diff", "skipgram_pmi", "covisit_pairs",
    # -- window / KPI micro queries (never-certified tail) --
    "conversion_lag", "doc_id_gaps", "class_balance", "ohlc_hourly",
    "column_profile", "events_gapfill", "events_lag_delta",
    "agg_pricing_cube", "late_events", "length_histogram",
    "events_range_sum", "dense_rank_chars", "band_join_chars",
    "promo_revenue_share", "next_transitions", "events_funnel",
    "viewers_full_outer_buyers", "retention_cohorts", "events_pivot",
    "purchase_view_window", "events_median", "events_quantiles",
    "users_view_no_purchase", "events_cumulative", "events_moving_sum",
    "price_quantiles_tdigest",
    # -- new in r5 (never driver-certified; after the r1-r4 backlog) --
    "props_extract_stats", "unpivot_revenue", "percent_rank_orders",
    "rolling_distinct_users", "weighted_median_price", "table_checksum",
    # -- last driver row is r02 (18) --
    "bm25f_search", "tfidf_search", "spell_search", "autocomplete",
    "dedup_exact", "dedup_minhash", "dedup_simhash", "dedup_embedding",
    "dedup_fingerprint", "ann_cosine_topk", "ann_ivf_topk", "events_hourly",
    "events_sliding", "sessionize", "purchase_attribution",
    "approx_distinct_users", "geofence_status", "raster_coverage",
    # -- green in r03 (50) --
    "tile_assign", "pip_join", "pip_join_partitioned", "pip_tile_summary",
    "knn_nearest_docs", "knn_radius_lang", "reverse_geocode",
    "kring_density", "agg_pricing", "agg_pricing_rollup",
    "join_customer_orders", "topk_orders_per_segment",
    "filter_project_lineitem", "join_lineitem_orders_bucketed",
    "customer_left_join_orders", "corr_price_qty", "revenue_by_nation",
    "global_rank_chars", "ntile_chars", "doc_lookup", "token_counts",
    "token_counts_bpe", "term_doc_freq", "term_dictionary", "text_quality",
    "langid", "bigram_counts", "postings_lists", "image_features",
    "contamination_check", "contamination_bloom", "top_terms",
    "repetition_stats", "pii_redact", "curate_corpus", "url_latest",
    "domain_stats", "domain_cap", "chunk_dedup", "dup_clusters",
    "domain_top_lang", "url_history", "visit_snapshots", "pagerank_links",
    "train_val_split", "pack_sequences", "sample_weighted",
    "sample_stratified", "bm25_search", "bm25_store_search",
    # -- green in r04 (50) --
    "adaptive_tiles", "dbscan_cells", "keywords_tfidf", "postings_sizes",
    "price_trend", "bloom_semi_join", "assoc_rules", "events_anomaly",
    "pip_anti_join", "clustering_coeff", "bounce_rate", "track_speed",
    "pip_triangles", "rect_quantiles", "rect_overlap_pairs",
    "distance_band_pairs", "lexicon_tags", "degree_assortativity",
    "near_search", "rdp_tracks", "idw_interpolate", "events_ewma",
    "mutual_knn_pairs", "feature_hash", "part_skyline", "lang_source_chi2",
    "domain_gini", "events_autocorr", "fence_dwell", "benford_digits",
    "lexical_diversity", "activity_bursts", "vocab_growth", "related_terms",
    "revenue_wow", "kde_cells", "session_concurrency", "fuzzy_join_terms",
    "chunk_windows", "events_mad", "scc_links", "changelog_apply",
    "char_entropy", "containment_pairs", "embed_normalize",
    "nearest_centroid", "tile_pyramid", "shuffle_shards", "promo_overlap",
    "path_trigrams",
]


def entry() -> Any:
    """Flagship pipeline on sf0.001: pages → coords → tiling → PIP join →
    per-(admin rect, tile) rollup. Driver checks rows >= 0."""
    from osm_search_ray.pipelines import tiling

    return tiling.pip_tile_summary("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from osm_search_ray.pipelines import tiling, relational, textops, dedup_pipelines, simsearch, events as ev

    q: dict[str, Callable[[str], Any]] = {}
    # Registry ORDER is part of the driver contract: the driver checks
    # queries in this order under a wall-clock budget (r03 stopped at #50).
    # Least-recently-certified first: block A = the 16 queries that had no
    # driver row in any round, block B = the 18 whose last row is r02,
    # block C = the 50 green in r03.
    from osm_search_ray.pipelines import search_docs

    # --- block A0: new this round (never driver-verified) ---
    from osm_search_ray.pipelines import bpe, cdc, graph as _gr0, traindata
    from osm_search_ray.pipelines import profile as _pf0
    from osm_search_ray.pipelines import webcorpus as _wc0

    q["adaptive_tiles"] = tiling.adaptive_tiles  # quadtree cap-split leaf tiling
    q["dbscan_cells"] = tiling.dbscan_cells  # grid DBSCAN density clustering
    q["keywords_tfidf"] = textops.keywords_tfidf  # per-doc top-k tf-idf keywords
    q["postings_sizes"] = textops.postings_sizes  # gap+varint index size audit
    q["price_trend"] = relational.price_trend  # grouped OLS slope/intercept
    q["bloom_semi_join"] = relational.bloom_semi_join  # bloom-pushdown semi-join
    q["assoc_rules"] = ev.assoc_rules  # market-basket confidence rules
    q["events_anomaly"] = ev.events_anomaly  # rolling z-score outlier flags
    q["pip_anti_join"] = tiling.pip_anti_join  # pages outside every admin rect
    q["clustering_coeff"] = _gr0.clustering_coeff  # per-node local clustering
    q["bounce_rate"] = ev.bounce_rate  # single-event-session KPI per user
    from osm_search_ray.pipelines import geofence_pipeline as _gf0

    q["track_speed"] = _gf0.track_speed  # per-entity segment km/h
    q["pip_triangles"] = tiling.pip_triangles  # winding-number PIP vs sign-test oracle
    q["rect_quantiles"] = tiling.rect_quantiles  # grouped exact quartiles
    q["rect_overlap_pairs"] = tiling.rect_overlap_pairs  # PBSM box-intersection join
    q["distance_band_pairs"] = tiling.distance_band_pairs  # epsilon-range self-join
    q["lexicon_tags"] = textops.lexicon_tags  # broadcast multi-phrase tagger
    q["degree_assortativity"] = _gr0.degree_assortativity  # graph mixing diagnostic
    q["near_search"] = search_docs.near_docs_search  # NEAR proximity via pos store
    q["rdp_tracks"] = _gf0.rdp_tracks  # cross-product RDP polyline simplification
    q["idw_interpolate"] = tiling.idw_interpolate  # inverse-distance-squared raster
    q["events_ewma"] = ev.events_ewma  # exact fixed-point exponential smoother
    q["mutual_knn_pairs"] = simsearch.mutual_knn_pairs  # reciprocal top-k filter
    q["feature_hash"] = textops.feature_hash  # hashing-trick featurizer
    q["part_skyline"] = relational.part_skyline  # Pareto-front skyline
    q["lang_source_chi2"] = textops.lang_source_chi2  # independence audit
    q["domain_gini"] = _wc0.domain_gini  # crawl-concentration KPI
    q["events_autocorr"] = ev.events_autocorr  # lag-1 series burstiness
    q["fence_dwell"] = _gf0.fence_dwell  # per-(entity, fence) dwell time
    q["benford_digits"] = relational.benford_digits  # leading-digit audit
    q["lexical_diversity"] = textops.lexical_diversity  # per-doc type-token ratio
    q["activity_bursts"] = ev.activity_bursts  # interval-union burst islands
    q["vocab_growth"] = textops.vocab_growth  # Heaps-law decile curve
    q["related_terms"] = textops.related_terms  # co-occurrence query expansion
    q["revenue_wow"] = relational.revenue_wow  # weekly series + WoW delta
    q["kde_cells"] = tiling.kde_cells  # integer-kernel density smoothing
    q["session_concurrency"] = ev.session_concurrency  # sweep-line open-session count
    q["fuzzy_join_terms"] = textops.fuzzy_join_terms  # lev<=1 join, deletes blocking
    q["chunk_windows"] = traindata.chunk_windows  # RAG overlapping token windows
    q["events_mad"] = ev.events_mad  # robust dispersion from one histogram pass
    q["scc_links"] = _gr0.scc_links  # strongly connected components (FW-BW coloring)
    q["changelog_apply"] = _wc0.changelog_apply  # MERGE upsert+tombstone compaction
    q["char_entropy"] = textops.char_entropy  # char-distribution entropy quality signal
    q["containment_pairs"] = dedup_pipelines.containment_pairs  # directed |A∩B|/|A| dedup signal
    q["embed_normalize"] = simsearch.embed_normalize  # per-dim z-score standardization
    q["nearest_centroid"] = simsearch.nearest_centroid_classify  # integer-exact confusion matrix
    q["tile_pyramid"] = tiling.tile_pyramid  # all-zoom count tiles, one corpus pass
    q["shuffle_shards"] = traindata.shuffle_shards  # deterministic epoch shuffle + shards
    q["promo_overlap"] = ev.promo_overlap  # broadcast interval-overlap measure join
    q["path_trigrams"] = ev.path_trigrams  # 3-step sequence mining
    q["conversion_lag"] = ev.conversion_lag  # time-to-conversion histogram
    q["hotspot_cells"] = tiling.hotspot_cells  # cells above exact p95 density
    q["doc_id_gaps"] = _pf0.doc_id_gaps  # filtered-id hole detection (prefix scan)
    q["class_balance"] = traindata.class_balance  # min-class balanced downsampling
    q["label_medoids"] = simsearch.label_medoids  # exact per-cluster medoid, O(n) decomposition
    q["ohlc_hourly"] = ev.ohlc_hourly  # first/last-by-time candlesticks (mergeable)
    q["line_dedup"] = dedup_pipelines.line_dedup  # C4-style corpus-wide line dedup
    from osm_search_ray.pipelines import graph as _gq

    q["label_prop"] = _gq.label_prop  # sync LPA communities, mode vote + tie-min
    q["bfs_levels"] = _gq.bfs_levels  # multi-source BFS hop distance from seeds
    from osm_search_ray.pipelines import profile as _pf

    q["column_profile"] = _pf.column_profile  # per-column null/distinct/minmax audit
    q["events_gapfill"] = ev.events_gapfill  # gap-filled hourly resample per type
    q["events_lag_delta"] = ev.events_lag_delta  # per-user LAG inter-event gap
    q["url_canonical"] = _wc0.url_canonical  # tracking-param/case/slash collapse
    q["agg_pricing_cube"] = relational.agg_pricing_cube  # full CUBE grouping sets
    q["late_events"] = ev.late_events  # event-time watermark lateness audit
    q["snapshot_diff"] = _wc0.snapshot_diff  # crawl snapshot removed/changed/same
    q["embedding_centroids"] = simsearch.embedding_centroids  # exact class centroids
    q["ann_pq_topk"] = simsearch.ann_pq_topk  # product-quantization ADC top-k
    q["ppr_links"] = _gq.ppr_links  # personalized PageRank from trusted seeds
    q["dedup_clusters_minhash"] = dedup_pipelines.dedup_clusters_minhash  # LSH pairs → CC
    q["length_histogram"] = _pf.length_histogram  # power-of-two length profile
    q["events_range_sum"] = ev.events_range_sum  # time-based RANGE window frame
    q["dedup_ngram_prefix"] = dedup_pipelines.dedup_ngram_prefix  # lossless prefix filter
    q["dense_rank_chars"] = relational.dense_rank_chars  # DENSE_RANK, no sort shuffle
    q["band_join_chars"] = relational.band_join_chars  # 1-D theta/band self-join
    q["promo_revenue_share"] = relational.promo_revenue_share  # Q14 broadcast-dim join
    q["covisit_pairs"] = ev.covisit_pairs  # item co-visitation (bipartite projection)
    q["next_transitions"] = ev.next_transitions  # Markov next-event transition matrix
    q["skipgram_pmi"] = textops.skipgram_pmi  # windowed collocations + exact PMI
    q["audio_features"] = textops.audio_features  # frame-sampler plumbing, byte oracle
    from osm_search_ray.sources import jsonl as _jl

    q["jsonl_roundtrip"] = _jl.jsonl_roundtrip  # JSONL sink+source byte fidelity
    from osm_search_ray.sources import csvio as _cs

    q["csv_roundtrip"] = _cs.csv_roundtrip  # CSV sink+source byte fidelity
    q["link_prediction"] = _gr0.link_prediction  # common-neighbor + Jaccard scoring
    q["kcore_links"] = _gr0.kcore_links  # 4-core membership via iterative peeling
    q["cdc_chunks"] = cdc.cdc_chunks  # content-defined chunking (FastCDC-style walk)
    q["cdc_dedup"] = cdc.cdc_dedup  # shift-robust shared-chunk dedup stats
    from osm_search_ray.pipelines import dsir

    q["dsir_select"] = dsir.dsir_select  # DSIR hashed-ngram importance selection
    q["cms_heavy_terms"] = textops.cms_heavy_terms  # Count-Min registers, exact twin
    from osm_search_ray.pipelines import curate as _cu

    q["ccnet_buckets"] = _cu.ccnet_buckets  # CCNet head/middle/tail by LM perplexity
    q["events_funnel"] = ev.events_funnel  # windowed ordered funnel (sequential pattern)
    q["viewers_full_outer_buyers"] = ev.viewers_full_outer_buyers  # FULL OUTER join
    q["zorder_sort"] = tiling.zorder_sort  # Morton-curve global ordering + quad prefix
    q["retention_cohorts"] = ev.retention_cohorts  # cohort-week retention matrix
    from osm_search_ray.pipelines import graph as _gr

    q["hits_links"] = _gr.hits_links  # HITS hubs/authorities, integer-exact

    from osm_search_ray.pipelines import traindata

    q["mix_temperature"] = traindata.mix_temperature  # n^0.5 source mixing quotas
    q["knn_graph"] = simsearch.knn_graph  # all-vectors kNN graph (bucketed self-join)
    q["triangle_counts"] = _gr.triangle_counts  # per-node triangle participation
    q["nn_join"] = tiling.nn_join  # spatial 1-NN self-join (ring + fallback regimes)

    q["bpe_train"] = bpe.bpe_train  # BPE tokenizer training: learned merge table
    q["bpe_tokenize"] = bpe.bpe_tokenize  # per-doc token counts under the learned merges
    q["split_leakage_safe"] = traindata.split_leakage_safe  # split by near-dup cluster rep
    q["phrase_search"] = search_docs.phrase_docs_search  # exact positional phrase retrieval
    q["phrase_store_search"] = search_docs.phrase_store_search  # positional-store adjacency-join twin
    q["semantic_dedup"] = dedup_pipelines.semantic_dedup  # SemDeDup: cluster + within-cluster cosine prune
    q["quality_model"] = textops.quality_model  # linear quality-filter model, actor-pool inference
    q["boolean_search"] = search_docs.boolean_docs_search  # full AND/OR/NOT algebra (ref parses, never implements)
    q["dedup_incremental"] = dedup_pipelines.dedup_incremental  # new-crawl batch vs persisted LSH store
    # --- block A: never driver-verified before r04 ---
    q["segmented_search"] = search_docs.segmented_search  # incremental two-segment index, same result
    q["bm25f_store_search"] = search_docs.bm25f_store_search  # two-field disk path
    q["tfidf_store_search"] = search_docs.tfidf_store_search
    q["spell_store_search"] = search_docs.spell_store_search  # corrected two-field disk path (r04 SQL-oracled)
    q["lm_doc_scores"] = search_docs.lm_doc_scores  # perplexity quality scoring (rows-only)
    q["dedup_substring"] = dedup_pipelines.dedup_substring  # maximal shared token runs (Lee et al.)
    q["dedup_ngram"] = dedup_pipelines.dedup_ngram  # exact n-gram Jaccard pairs, integer micro output (new r04)
    q["events_pivot"] = ev.events_pivot  # conditional-aggregation pivot
    q["purchase_view_window"] = ev.purchase_view_window  # interval-predicate range join
    q["events_median"] = ev.events_median  # exact distributed median (bounded-domain histogram)
    q["events_quantiles"] = ev.events_quantiles  # exact p50/p90/p99, one histogram pass
    q["users_view_no_purchase"] = ev.users_view_no_purchase  # anti-join (NOT EXISTS)
    q["events_cumulative"] = ev.events_cumulative  # window functions: running sum + LAG gap
    q["events_moving_sum"] = ev.events_moving_sum  # window FRAME clause: ROWS N PRECEDING
    q["kmeans_clusters"] = simsearch.kmeans_clusters  # iterative distributed Lloyd's (rows-only)
    q["ann_quantized_topk"] = simsearch.ann_quantized_topk  # int8-quantized store serving (rows-only)
    q["price_quantiles_tdigest"] = relational.price_quantiles_tdigest  # t-digest sketch (rows-only)
    # --- block B: last driver row is r02 ---
    q["bm25f_search"] = search_docs.bm25f_docs_search
    q["tfidf_search"] = search_docs.tfidf_docs_search
    q["spell_search"] = search_docs.spell_search_docs  # LM ranking (r04 SQL-oracled)
    q["autocomplete"] = search_docs.autocomplete_docs
    q["dedup_exact"] = dedup_pipelines.dedup_exact
    q["dedup_minhash"] = dedup_pipelines.dedup_minhash
    q["dedup_simhash"] = dedup_pipelines.dedup_simhash
    q["dedup_embedding"] = dedup_pipelines.dedup_embedding
    q["dedup_fingerprint"] = dedup_pipelines.dedup_fingerprint
    q["ann_cosine_topk"] = simsearch.ann_cosine_topk
    q["ann_ivf_topk"] = simsearch.ann_ivf_topk
    q["events_hourly"] = ev.events_hourly
    q["events_sliding"] = ev.events_sliding  # sliding-window aggregate
    q["sessionize"] = ev.sessionize
    q["purchase_attribution"] = ev.purchase_attribution
    q["approx_distinct_users"] = ev.approx_distinct_users  # HLL sketch (rows-only)
    from osm_search_ray.pipelines import geofence_pipeline, raster_pipeline

    q["geofence_status"] = geofence_pipeline.geofence_status
    q["raster_coverage"] = raster_pipeline.raster_coverage
    # --- block C: green in CORRECTNESS_r03 ---
    # geospatial core (SURVEY §2: J3, K1-K3, tiling/M-ops)
    q["tile_assign"] = lambda sf: tiling.tile_counts(sf)
    q["pip_join"] = lambda sf: tiling.pip_join(sf)
    q["pip_join_partitioned"] = lambda sf: tiling.pip_join(sf, partitioned=True)
    q["pip_tile_summary"] = lambda sf: tiling.pip_tile_summary(sf)
    q["knn_nearest_docs"] = lambda sf: tiling.knn_nearest_docs(sf, k=3)
    q["knn_radius_lang"] = lambda sf: tiling.knn_radius_lang(sf)
    q["reverse_geocode"] = tiling.reverse_geocode
    q["kring_density"] = tiling.kring_density  # 3x3 cell-ring density (H3 k-ring analogue)
    # --- relational operator coverage (sources, filters, joins, aggs, top-k) ---
    q["agg_pricing"] = relational.agg_pricing
    q["agg_pricing_rollup"] = relational.agg_pricing_rollup  # grouping sets from ONE corpus pass
    q["join_customer_orders"] = relational.join_customer_orders
    q["topk_orders_per_segment"] = relational.topk_orders_per_segment
    q["filter_project_lineitem"] = relational.filter_project_lineitem
    q["join_lineitem_orders_bucketed"] = relational.join_lineitem_orders_bucketed
    q["customer_left_join_orders"] = relational.customer_left_join_orders  # LEFT OUTER + zero-fill
    q["corr_price_qty"] = relational.corr_price_qty  # Pearson corr via exact integer moments
    q["revenue_by_nation"] = relational.revenue_by_nation  # 3-way join rollup (TPC-H Q5 shape)
    q["global_rank_chars"] = relational.global_rank_chars  # global sort + zip_with_index rank
    q["ntile_chars"] = relational.ntile_chars  # global NTILE(4), exact SQL bucket rule
    q["doc_lookup"] = relational.doc_lookup
    # --- text analysis / index stats (M8, A1-A8 analogues + training-data ops) ---
    q["token_counts"] = textops.token_counts
    q["token_counts_bpe"] = textops.token_counts_bpe  # BPE-ish pretokenizer budget counts
    q["term_doc_freq"] = textops.term_doc_freq
    q["term_dictionary"] = textops.term_dictionary  # distributed dict build (M9 at scale)
    q["text_quality"] = textops.text_quality
    q["langid"] = textops.langid
    q["bigram_counts"] = textops.bigram_counts
    q["postings_lists"] = textops.postings_lists
    q["image_features"] = textops.image_features  # multimodal plumbing (rows-only)
    q["contamination_check"] = textops.contamination_check  # benchmark decontamination
    q["contamination_bloom"] = textops.contamination_check_bloom  # Bloom-broadcast twin (rows-only)
    q["top_terms"] = textops.top_terms_sketch  # Misra-Gries candidates + exact verify pass
    q["repetition_stats"] = textops.repetition_stats  # boilerplate/repetition quality signal
    from osm_search_ray.pipelines import curate, pii

    q["pii_redact"] = pii.pii_redact  # vectorized RE2 scrubbing (email/phone/IP)
    q["curate_corpus"] = curate.curate_corpus  # composed cleaning funnel (per-doc verdict)
    # --- web-corpus maintenance (derived url/domain/warc_ts snapshots) ---
    from osm_search_ray.pipelines import webcorpus

    q["url_latest"] = webcorpus.url_latest  # crawl-snapshot compaction (CDC upsert)
    q["domain_stats"] = webcorpus.domain_stats  # per-domain rollup, exact distincts
    q["domain_cap"] = webcorpus.domain_cap  # deterministic per-domain quota
    q["chunk_dedup"] = webcorpus.chunk_dedup  # CCNet-style boilerplate chunk removal
    q["dup_clusters"] = webcorpus.dup_clusters  # connected components via contraction CC
    q["domain_top_lang"] = webcorpus.domain_top_lang  # grouped argmax / deterministic mode
    q["url_history"] = webcorpus.url_history  # SCD-2 snapshot validity intervals (LEAD)
    q["visit_snapshots"] = webcorpus.visit_snapshots  # point-in-time join vs SCD-2 history
    from osm_search_ray.pipelines import graph

    q["pagerank_links"] = graph.pagerank_links  # iterative PageRank, integer-exact
    # --- training-data prep (deterministic split, sequence packing) ---
    from osm_search_ray.pipelines import traindata

    q["train_val_split"] = traindata.train_val_split
    q["pack_sequences"] = traindata.pack_sequences
    q["sample_weighted"] = traindata.sample_weighted  # deterministic sequential Poisson sample
    q["sample_stratified"] = traindata.sample_stratified  # per-language quota, int-only priorities
    # --- full-text search (BM25+ with reference formula quirks) ---
    q["bm25_search"] = search_docs.bm25_docs_search
    q["bm25_store_search"] = search_docs.bm25_store_search  # served from the on-disk index
    # --- new in r5 ---
    q["props_extract_stats"] = ev.props_extract_stats  # JSON payload extraction + rollup
    q["unpivot_revenue"] = relational.unpivot_revenue  # UNPIVOT/melt (events_pivot's inverse)
    q["percent_rank_orders"] = relational.percent_rank_orders  # RANK-tie PERCENT_RANK window
    q["rolling_distinct_users"] = ev.rolling_distinct_users  # exact sliding COUNT DISTINCT
    q["weighted_median_price"] = relational.weighted_median_price  # exact grouped weighted median
    q["table_checksum"] = _pf0.table_checksum  # order-invariant anti-entropy digest

    if set(q) != set(_R5_ORDER):
        raise RuntimeError(
            f"queries() and _R5_ORDER disagree: not in _R5_ORDER {sorted(set(q) - set(_R5_ORDER))}, "
            f"not registered {sorted(set(_R5_ORDER) - set(q))}"
        )
    return {k: q[k] for k in _R5_ORDER}


def oracle_sql() -> dict[str, str]:
    from osm_search_ray.pipelines import profile as _pf0s
    from osm_search_ray.pipelines import tiling as _ti0
    from osm_search_ray.pipelines import traindata as _td0

    cell12 = dv.sql_cell_expr("lat", "lon", 12)
    hav = dv.SQL_HAVERSINE.format(lat1="qlat", lon1="qlon", lat2="lat", lon2="lon")
    sql: dict[str, str] = {}

    sql["tile_assign"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()}
SELECT {cell12} AS cell_r12, COUNT(*) AS n_docs
FROM geo_pages GROUP BY 1
"""

    sql["pip_join"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()}, {dv.SQL_ADMIN_RECTS.strip()}
SELECT p.doc_id, p.lat, p.lon, r.rect_id
FROM geo_pages p JOIN admin_rects r
  ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1
"""
    sql["pip_join_partitioned"] = sql["pip_join"]

    sql["pip_tile_summary"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()}, {dv.SQL_ADMIN_RECTS.strip()}
SELECT r.rect_id, {cell12.replace('lat', 'p.lat').replace('lon', 'p.lon')} AS cell_r12,
       COUNT(*) AS n_docs
FROM geo_pages p JOIN admin_rects r
  ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1
GROUP BY 1, 2
"""

    sql["knn_nearest_docs"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()}, {dv.SQL_KNN_QUERIES.strip()},
scored AS (
    SELECT q.query_id, p.doc_id,
           ROW_NUMBER() OVER (PARTITION BY q.query_id
                              ORDER BY {hav}, p.doc_id) AS rank
    FROM knn_queries q CROSS JOIN geo_pages p
)
SELECT query_id, doc_id, rank FROM scored WHERE rank <= 3
"""

    from osm_search_ray.pipelines import relational, textops, dedup_pipelines, simsearch, events as ev

    hav_q = dv.SQL_HAVERSINE.format(lat1="q.qlat", lon1="q.qlon", lat2="p.lat", lon2="p.lon")
    sql["knn_radius_lang"] = f"""
WITH {dv.SQL_GEO_PAGES.strip().replace("SELECT doc_id,", "SELECT doc_id, lang,")}, {dv.SQL_KNN_QUERIES.strip()},
scored AS (
    SELECT q.query_id, p.doc_id,
           ROW_NUMBER() OVER (PARTITION BY q.query_id ORDER BY {hav_q}, p.doc_id) AS rank
    FROM knn_queries q CROSS JOIN geo_pages p
    WHERE p.lang = 'en' AND {hav_q} <= 25.0
)
SELECT query_id, doc_id, rank FROM scored WHERE rank <= 5
"""
    sql["reverse_geocode"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()}, {dv.SQL_KNN_QUERIES.strip()},
scored AS (
    SELECT q.query_id, p.doc_id,
           ROW_NUMBER() OVER (PARTITION BY q.query_id ORDER BY {hav_q}, p.doc_id) AS rank
    FROM knn_queries q CROSS JOIN geo_pages p
)
SELECT query_id, doc_id, rank FROM scored WHERE rank = 1
"""
    _n12 = 1 << 12
    _xe = f"LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {_n12}) AS BIGINT), 0), {_n12 - 1})"
    _ye = f"LEAST(GREATEST(CAST(floor((lat + 90.0) / 180.0 * {_n12}) AS BIGINT), 0), {_n12 - 1})"
    sql["kring_density"] = f"""
WITH {dv.SQL_GEO_PAGES.strip()},
pts AS (SELECT {_xe} AS x, {_ye} AS y FROM geo_pages),
cells AS (SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n FROM pts GROUP BY 1, 2)
SELECT c.x * {_n12} + c.y AS cell_r12, c.n AS n_docs, CAST(SUM(m.n) AS BIGINT) AS n_ring
FROM cells c JOIN cells m
  ON m.x BETWEEN c.x - 1 AND c.x + 1 AND m.y BETWEEN c.y - 1 AND c.y + 1
GROUP BY 1, 2
"""
    sql["agg_pricing"] = relational.SQL_AGG_PRICING
    sql["agg_pricing_rollup"] = relational.SQL_AGG_PRICING_ROLLUP
    sql["join_customer_orders"] = relational.SQL_JOIN_CUSTOMER_ORDERS
    sql["topk_orders_per_segment"] = relational.SQL_TOPK_ORDERS_PER_SEGMENT
    sql["filter_project_lineitem"] = relational.SQL_FILTER_PROJECT_LINEITEM
    sql["join_lineitem_orders_bucketed"] = relational.SQL_JOIN_LINEITEM_ORDERS_BUCKETED
    sql["customer_left_join_orders"] = relational.SQL_CUSTOMER_LEFT_JOIN_ORDERS
    sql["corr_price_qty"] = relational.SQL_CORR_PRICE_QTY
    sql["revenue_by_nation"] = relational.SQL_REVENUE_BY_NATION
    sql["global_rank_chars"] = relational.SQL_GLOBAL_RANK_CHARS
    sql["ntile_chars"] = relational.SQL_NTILE_CHARS
    sql["doc_lookup"] = relational.SQL_DOC_LOOKUP
    sql["token_counts"] = textops.SQL_TOKEN_COUNTS
    sql["token_counts_bpe"] = textops.SQL_TOKEN_COUNTS_BPE
    sql["term_doc_freq"] = textops.SQL_TERM_DOC_FREQ
    sql["term_dictionary"] = textops.SQL_TERM_DICTIONARY
    from osm_search_ray.pipelines import traindata

    sql["train_val_split"] = traindata.SQL_TRAIN_VAL_SPLIT
    sql["pack_sequences"] = traindata.SQL_PACK_SEQUENCES
    sql["sample_weighted"] = traindata.SQL_SAMPLE_WEIGHTED
    sql["sample_stratified"] = traindata.SQL_SAMPLE_STRATIFIED
    sql["text_quality"] = textops.SQL_TEXT_QUALITY
    sql["langid"] = textops._sql_langid()
    sql["bigram_counts"] = textops.SQL_BIGRAM_COUNTS
    sql["postings_lists"] = textops.SQL_POSTINGS_LISTS
    sql["contamination_check"] = textops.SQL_CONTAMINATION_CHECK
    # the Bloom twin and the fake image decode are integer-exact — oracled
    # via the SQL splitmix64 chain + md5 hash twin (r04; formerly rows-only)
    sql["contamination_bloom"] = textops.sql_contamination_bloom()
    sql["image_features"] = textops.sql_image_features()
    sql["top_terms"] = textops.SQL_TOP_TERMS
    sql["repetition_stats"] = textops.SQL_REPETITION_STATS
    from osm_search_ray.pipelines import curate, pii

    sql["pii_redact"] = pii.SQL_PII_REDACT
    sql["curate_corpus"] = curate.SQL_CURATE_CORPUS
    from osm_search_ray.pipelines import webcorpus

    sql["url_latest"] = webcorpus.SQL_URL_LATEST
    sql["domain_stats"] = webcorpus.SQL_DOMAIN_STATS
    sql["domain_cap"] = webcorpus.SQL_DOMAIN_CAP
    sql["chunk_dedup"] = webcorpus.SQL_CHUNK_DEDUP
    sql["dup_clusters"] = webcorpus.SQL_DUP_CLUSTERS
    sql["domain_top_lang"] = webcorpus.SQL_DOMAIN_TOP_LANG
    sql["url_history"] = webcorpus.SQL_URL_HISTORY
    sql["visit_snapshots"] = webcorpus.SQL_VISIT_SNAPSHOTS
    from osm_search_ray.pipelines import graph

    sql["pagerank_links"] = graph.SQL_PAGERANK_LINKS
    from osm_search_ray.pipelines import search_docs

    sql["boolean_search"] = search_docs.SQL_BOOLEAN_DOCS_SEARCH
    sql["bm25_search"] = search_docs.SQL_BM25_DOCS_SEARCH
    sql["bm25_store_search"] = search_docs.SQL_BM25_DOCS_SEARCH  # index-backed path, same result
    sql["segmented_search"] = search_docs.SQL_BM25_DOCS_SEARCH  # incremental segments, same result
    sql["bm25f_store_search"] = search_docs.SQL_BM25F_DOCS_SEARCH
    sql["tfidf_store_search"] = search_docs.SQL_TFIDF_DOCS_SEARCH
    sql["bm25f_search"] = search_docs.SQL_BM25F_DOCS_SEARCH
    sql["tfidf_search"] = search_docs.SQL_TFIDF_DOCS_SEARCH
    sql["lm_doc_scores"] = search_docs.sql_lm_doc_scores()  # r04: full stupid-backoff LM in SQL
    sql["autocomplete"] = search_docs.sql_autocomplete()  # r04: prefix match + LM rank in SQL
    sql["spell_search"] = search_docs.sql_spell_search()  # r04: SymSpell candidates + LM argmax in SQL
    sql["spell_store_search"] = search_docs.sql_spell_store_search()  # r04: corrected two-field BM25F
    sql["dedup_exact"] = dedup_pipelines.SQL_DEDUP_EXACT
    sql["dedup_substring"] = dedup_pipelines.SQL_DEDUP_SUBSTRING
    sql["dedup_ngram"] = dedup_pipelines.sql_dedup_ngram()  # integer-only jaccard_micro
    sql["dedup_simhash"] = dedup_pipelines.sql_dedup_simhash()  # r04: md5-twin sigs → exact
    sql["dedup_fingerprint"] = dedup_pipelines.sql_dedup_fingerprint()  # r04: Karp-Rabin in SQL
    sql["dedup_minhash"] = dedup_pipelines.sql_dedup_minhash()  # r04: full MinHash-LSH in SQL
    sql["dedup_incremental"] = dedup_pipelines.sql_dedup_incremental()  # same LSH SQL, new×old pair pred
    sql["dedup_embedding"] = dedup_pipelines.sql_dedup_embedding()  # r04: ±1 planes + ordered-float twin
    from osm_search_ray.pipelines import bpe, cdc

    sql["cdc_chunks"] = cdc.sql_cdc_chunks()  # recursive-CTE CDC walk, exact
    sql["cdc_dedup"] = cdc.sql_cdc_dedup()
    from osm_search_ray.pipelines import dsir

    sql["dsir_select"] = dsir.sql_dsir_select()  # bit-identical ln + ordered fold
    sql["cms_heavy_terms"] = textops.sql_cms_heavy_terms()  # K-M registers, integer-exact
    sql["ccnet_buckets"] = curate.sql_ccnet_buckets()  # LM-CTE perplexity NTILE
    sql["events_funnel"] = ev.SQL_EVENTS_FUNNEL  # sequential-min chain, integer ts
    sql["viewers_full_outer_buyers"] = ev.SQL_VIEWERS_FULL_OUTER_BUYERS
    from osm_search_ray.pipelines import tiling as _ti

    sql["zorder_sort"] = _ti.sql_zorder_sort()  # spread-bits CTE chain, integer-exact
    sql["retention_cohorts"] = ev.SQL_RETENTION_COHORTS
    sql["hits_links"] = graph.sql_hits_links()  # unrolled phase CTEs, scalar-max norm
    sql["kcore_links"] = graph.sql_kcore_links()  # unrolled MATERIALIZED peel levels
    sql["skipgram_pmi"] = textops.sql_skipgram_pmi()
    sql["audio_features"] = textops.sql_audio_features()
    from osm_search_ray.sources import jsonl as _jl

    sql["jsonl_roundtrip"] = _jl.SQL_JSONL_ROUNDTRIP
    from osm_search_ray.sources import csvio as _cs

    sql["csv_roundtrip"] = _cs.SQL_CSV_ROUNDTRIP
    sql["link_prediction"] = graph.SQL_LINK_PREDICTION
    sql["session_concurrency"] = ev.SQL_SESSION_CONCURRENCY
    sql["fuzzy_join_terms"] = textops.sql_fuzzy_join_terms()
    sql["chunk_windows"] = traindata.SQL_CHUNK_WINDOWS
    sql["events_mad"] = ev.SQL_EVENTS_MAD
    sql["scc_links"] = graph.sql_scc_links()
    from osm_search_ray.pipelines import webcorpus as _wc1

    sql["changelog_apply"] = _wc1.SQL_CHANGELOG_APPLY
    sql["char_entropy"] = textops.SQL_CHAR_ENTROPY
    sql["containment_pairs"] = dedup_pipelines.sql_containment_pairs()
    sql["embed_normalize"] = simsearch.SQL_EMBED_NORMALIZE
    sql["nearest_centroid"] = simsearch.SQL_NEAREST_CENTROID
    sql["tile_pyramid"] = _ti.sql_tile_pyramid()
    sql["promo_overlap"] = ev.SQL_PROMO_OVERLAP
    sql["path_trigrams"] = ev.SQL_PATH_TRIGRAMS
    sql["conversion_lag"] = ev.SQL_CONVERSION_LAG
    sql["hotspot_cells"] = _ti0.sql_hotspot_cells()
    sql["adaptive_tiles"] = _ti0.sql_adaptive_tiles()
    sql["dbscan_cells"] = _ti0.sql_dbscan_cells()
    sql["keywords_tfidf"] = textops.sql_keywords_tfidf()
    sql["postings_sizes"] = textops.sql_postings_sizes()
    sql["price_trend"] = relational.SQL_PRICE_TREND
    sql["bloom_semi_join"] = relational.SQL_BLOOM_SEMI_JOIN
    sql["assoc_rules"] = ev.sql_assoc_rules()
    sql["events_anomaly"] = ev.sql_events_anomaly()
    sql["pip_anti_join"] = _ti0.sql_pip_anti_join()
    sql["bounce_rate"] = ev.sql_bounce_rate()
    from osm_search_ray.pipelines import geofence_pipeline as _gf0s
    from osm_search_ray.pipelines import graph as _gr0s

    sql["clustering_coeff"] = _gr0s.sql_clustering_coeff()
    sql["track_speed"] = _gf0s.sql_track_speed()
    sql["pip_triangles"] = _ti0.sql_pip_triangles()
    sql["rect_quantiles"] = _ti0.sql_rect_quantiles()
    sql["rect_overlap_pairs"] = _ti0.sql_rect_overlap_pairs()
    sql["distance_band_pairs"] = _ti0.sql_distance_band_pairs()
    sql["lexicon_tags"] = textops.sql_lexicon_tags()
    sql["degree_assortativity"] = _gr0s.sql_degree_assortativity()
    sql["near_search"] = search_docs.SQL_NEAR_DOCS_SEARCH
    sql["rdp_tracks"] = _gf0s.sql_rdp_tracks()
    sql["idw_interpolate"] = _ti0.sql_idw_interpolate()
    sql["events_ewma"] = ev.SQL_EVENTS_EWMA
    sql["mutual_knn_pairs"] = simsearch.SQL_MUTUAL_KNN_PAIRS
    sql["feature_hash"] = textops.sql_feature_hash()
    sql["part_skyline"] = relational.SQL_PART_SKYLINE
    sql["lang_source_chi2"] = textops.SQL_LANG_SOURCE_CHI2
    from osm_search_ray.pipelines import webcorpus as _wcg

    sql["domain_gini"] = _wcg.sql_domain_gini()
    sql["events_autocorr"] = ev.SQL_EVENTS_AUTOCORR
    sql["fence_dwell"] = _gf0s.sql_fence_dwell()
    sql["benford_digits"] = relational.SQL_BENFORD_DIGITS
    sql["lexical_diversity"] = textops.sql_lexical_diversity()
    sql["activity_bursts"] = ev.SQL_ACTIVITY_BURSTS
    sql["vocab_growth"] = textops.sql_vocab_growth()
    sql["related_terms"] = textops.sql_related_terms()
    sql["revenue_wow"] = relational.SQL_REVENUE_WOW
    sql["kde_cells"] = _ti0.sql_kde_cells()
    sql["doc_id_gaps"] = _pf0s.SQL_DOC_ID_GAPS
    sql["class_balance"] = _td0.sql_class_balance()
    sql["label_medoids"] = simsearch.SQL_LABEL_MEDOIDS
    sql["ohlc_hourly"] = ev.SQL_OHLC_HOURLY
    sql["shuffle_shards"] = _td0.sql_shuffle_shards()
    sql["line_dedup"] = dedup_pipelines.SQL_LINE_DEDUP
    sql["label_prop"] = graph.sql_label_prop()
    sql["bfs_levels"] = graph.sql_bfs_levels()
    from osm_search_ray.pipelines import profile as _pf

    sql["column_profile"] = _pf.SQL_COLUMN_PROFILE
    sql["events_gapfill"] = ev.SQL_EVENTS_GAPFILL
    sql["events_lag_delta"] = ev.SQL_EVENTS_LAG_DELTA
    from osm_search_ray.pipelines import webcorpus as _wc0

    sql["url_canonical"] = _wc0.SQL_URL_CANONICAL
    sql["agg_pricing_cube"] = relational.SQL_AGG_PRICING_CUBE
    sql["late_events"] = ev.sql_late_events()
    sql["snapshot_diff"] = _wc0.SQL_SNAPSHOT_DIFF
    sql["embedding_centroids"] = simsearch.SQL_EMBEDDING_CENTROIDS
    sql["ann_pq_topk"] = simsearch.sql_ann_pq_topk()
    sql["ppr_links"] = graph.SQL_PPR_LINKS
    sql["dedup_clusters_minhash"] = dedup_pipelines.sql_dedup_clusters_minhash()
    sql["length_histogram"] = _pf.SQL_LENGTH_HISTOGRAM
    sql["events_range_sum"] = ev.SQL_EVENTS_RANGE_SUM
    sql["dedup_ngram_prefix"] = dedup_pipelines.sql_dedup_ngram_prefix()
    sql["dense_rank_chars"] = relational.SQL_DENSE_RANK_CHARS
    sql["band_join_chars"] = relational.SQL_BAND_JOIN_CHARS
    sql["promo_revenue_share"] = relational.SQL_PROMO_REVENUE_SHARE
    sql["covisit_pairs"] = ev.SQL_COVISIT_PAIRS
    sql["next_transitions"] = ev.SQL_NEXT_TRANSITIONS
    sql["bpe_train"] = bpe.sql_bpe_train()  # unrolled N-stage merge chain, integer/string only
    sql["bpe_tokenize"] = bpe.sql_bpe_tokenize()
    from osm_search_ray.pipelines import traindata as _td

    sql["mix_temperature"] = _td.SQL_MIX_TEMPERATURE
    sql["knn_graph"] = simsearch.SQL_KNN_GRAPH
    sql["triangle_counts"] = graph.SQL_TRIANGLE_COUNTS
    sql["nn_join"] = _ti.sql_nn_join()

    sql["split_leakage_safe"] = _td.sql_split_leakage_safe()  # recursive-CTE CC + COALESCE rep
    sql["phrase_search"] = search_docs.SQL_PHRASE_DOCS_SEARCH
    sql["phrase_store_search"] = search_docs.SQL_PHRASE_DOCS_SEARCH  # store path must equal the scan
    sql["semantic_dedup"] = dedup_pipelines.sql_semantic_dedup()  # SemDeDup, integer-only output
    sql["quality_model"] = textops.sql_quality_model()  # linear model logit, ordered-float exact
    sql["ann_cosine_topk"] = simsearch.SQL_ANN_COSINE_TOPK
    sql["ann_ivf_topk"] = simsearch.SQL_ANN_COSINE_TOPK  # nprobe=nlist → exact
    sql["ann_quantized_topk"] = simsearch.SQL_ANN_QUANTIZED_TOPK  # r04: symmetric int8, exact integer dots
    sql["kmeans_clusters"] = simsearch.sql_kmeans_clusters()  # r04: Forgy init + unrolled Lloyd CTEs
    sql["events_hourly"] = ev.SQL_EVENTS_HOURLY
    sql["events_pivot"] = ev.SQL_EVENTS_PIVOT
    sql["events_sliding"] = ev.SQL_EVENTS_SLIDING.format(prev=2)
    sql["sessionize"] = ev.SQL_SESSIONIZE.format(gap=30 * 60)
    sql["purchase_attribution"] = ev.SQL_PURCHASE_ATTRIBUTION
    sql["approx_distinct_users"] = ev.sql_approx_distinct_users()  # r04: HLL registers + estimate, bit-exact
    sql["purchase_view_window"] = ev.SQL_PURCHASE_VIEW_WINDOW
    sql["events_median"] = ev.SQL_EVENTS_MEDIAN
    sql["events_quantiles"] = ev.SQL_EVENTS_QUANTILES
    sql["users_view_no_purchase"] = ev.SQL_USERS_VIEW_NO_PURCHASE
    sql["events_cumulative"] = ev.SQL_EVENTS_CUMULATIVE
    sql["events_moving_sum"] = ev.SQL_EVENTS_MOVING_SUM
    from osm_search_ray.pipelines import geofence_pipeline

    sql["geofence_status"] = geofence_pipeline.SQL_GEOFENCE_STATUS
    from osm_search_ray.pipelines import raster_pipeline

    sql["raster_coverage"] = raster_pipeline.SQL_RASTER_COVERAGE
    # --- new in r5 ---
    sql["props_extract_stats"] = ev.SQL_PROPS_EXTRACT_STATS
    sql["unpivot_revenue"] = relational.SQL_UNPIVOT_REVENUE
    sql["percent_rank_orders"] = relational.SQL_PERCENT_RANK_ORDERS
    sql["rolling_distinct_users"] = ev.SQL_ROLLING_DISTINCT_USERS
    sql["weighted_median_price"] = relational.SQL_WEIGHTED_MEDIAN_PRICE
    sql["table_checksum"] = _pf0s.SQL_TABLE_CHECKSUM
    # autocomplete: LM ranking not SQL-expressible → rows-only check
    return sql
