"""osm_search_ray — a Ray-Data-native spatial-join + tiling + search engine.

A brand-new engine (NOT a port) with the query and data-processing
capabilities of the reference geocoding engine (lintang-b-s/osm-search,
surveyed in SURVEY.md): OSM-style ingest, spatial point-in-polygon joins,
grid-cell tiling, kNN / reverse geocoding, a two-field inverted text index
with BM25F / BM25+ / TF-IDF scoring, spell correction with a 4-gram LM,
geofencing — plus the large-scale training-data operators (dedup families,
similarity search, text analysis) a 100 TB pipeline needs.

Everything is expressed Ray-Data-first: ``ray.data.Dataset`` pipelines of
``map_batches`` of plain per-batch functions over zero-copy Arrow batches
(stage state built on the driver and ``ray.put`` once; no actor pools),
one hash exchange and sorts for the wide steps.

Layout:
  functions/  pure vectorized kernels (cells, geometry, tokenize, hashing)
  sources/    fixture generators, readers, checkpointed sinks
  stages/     map_batches stages (plain per-batch functions)
  pipelines/  end-to-end pipelines (ingest, index build, queries)
  state/      broadcast state helpers (vocab, LM, small dim tables)
"""

__version__ = "0.1.0"
