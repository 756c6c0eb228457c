"""The ``ingest_html`` workload: the call sequence of
``jobs/ingest_pages.py --extract`` (read pages → HTML-to-text extraction →
coordinates/cells → broadcast PIP join against the job's ``admin_rects``
→ checkpointed write by ``cell_r12`` → stage-complete marker).

Untraced runs execute that sequence fused, exactly as the job does, and
time it from the read to the marker. Traced runs execute the same public
calls one layer at a time, materializing between layers, with a span
around each call.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import oracle
from common import median, percentile, ray_init

STAGE = "geo_pages"
# the job's read projection (jobs/ingest_pages.py → read_pages)
_HTML_COLS = ["url", "warc_ts", "lang", "html"]
_MIN_PASSES = 3


ID_COL = "rect_id"


def _polygons(data_dir: str):
    """The job's 25 admin rectangles, derived from the generated ``nation``."""
    from osm_search_ray.sources.derived import admin_rects
    from osm_search_ray.stages.spatial_join import PolygonSet

    rects = admin_rects(os.path.join(data_dir, "sf"))
    return PolygonSet.from_rects(rects.select([ID_COL, "lat0", "lon0", "lat1", "lon1"]))


def fused_pass(pages: str, data_dir: str, out_dir: str) -> list[dict]:
    """One run of the job's stage, fused into one streaming execution."""
    from osm_search_ray.sources import checkpoint as cp
    from osm_search_ray.sources.pages import pages_to_geo, read_pages
    from osm_search_ray.stages.spatial_join import broadcast_pip_join

    geo = pages_to_geo(read_pages(pages, extract=True))
    joined = broadcast_pip_join(geo, _polygons(data_dir), id_out=ID_COL)
    rows = cp.checkpointed_write(joined, out_dir, "cell_r12", stage=STAGE)
    cp.mark_stage_complete(out_dir, STAGE)
    return rows


def staged_pass(pages: str, data_dir: str, out_dir: str, tracer) -> dict:
    """The same calls, one layer at a time, each span around one call."""
    from osm_search_ray.sources import checkpoint as cp
    from osm_search_ray.sources.pages import extract_text_batch, pages_to_geo
    from osm_search_ray.sources.readers import read_pq
    from osm_search_ray.stages.spatial_join import broadcast_pip_join

    m: dict = {}
    stats: dict = {}
    with tracer.span("ingest.pass"):
        with tracer.span("readers"):
            raw = read_pq(pages, columns=_HTML_COLS).materialize()
        m["readers.rows"], m["readers.bytes"], m["readers.blocks"] = raw.count(), raw.size_bytes(), raw.num_blocks()
        stats["readers"] = raw.stats()
        # read_pages(extract=True) applies this batch function to the read
        with tracer.span("pages.extract"):
            text = raw.map_batches(extract_text_batch, batch_format="pyarrow", batch_size=256).materialize()
        stats["pages.extract"] = text.stats()
        with tracer.span("pages.geo"):
            geo = pages_to_geo(text).materialize()
        m["pages.geo.rows"] = geo.count()
        stats["pages.geo"] = geo.stats()
        polys = _polygons(data_dir)
        with tracer.span("spatial_join"):
            joined = broadcast_pip_join(geo, polys, id_out=ID_COL).materialize()
        m["spatial_join.rows_out"] = joined.count()
        stats["spatial_join"] = joined.stats()
        with tracer.span("checkpoint"):
            rows = cp.checkpointed_write(joined, out_dir, "cell_r12", stage=STAGE)
            cp.mark_stage_complete(out_dir, STAGE)
    m["manifest"] = rows
    tracer.extra.setdefault("ds_stats", stats)
    return m


def _checkpoint_metrics(rows: list[dict], call_s: float) -> dict:
    wall = np.array([r["wall_ms"] for r in rows], dtype=np.float64)
    nrows = np.array([r["row_count"] for r in rows], dtype=np.float64)
    return {
        "checkpoint.exchange_s": call_s - wall.sum() / 1000.0,
        "checkpoint.partitions": len(rows),
        "checkpoint.bytes_written": int(sum(r["byte_count"] for r in rows)),
        "checkpoint.part_wall_ms_max": float(wall.max()) if len(wall) else 0.0,
        "checkpoint.part_rows_max_over_mean": float(nrows.max() / nrows.mean()) if len(nrows) else 0.0,
    }


def _commit_latency_ms(out_dir: str, rows: list[dict], start: float) -> np.ndarray:
    """Per output row: when its partition was committed (the mtime of the
    partition's completion record), in ms after the pass started."""
    lat = [(os.stat(os.path.join(out_dir, f"part={r['partition_key']}", "manifest.json")).st_mtime_ns / 1e9 - start) * 1000.0
           for r in rows]
    return np.repeat(np.array(lat), [r["row_count"] for r in rows])


class IngestWorkload:
    def __init__(self, name: str, data_dir: str, run_dir: str, tracer, meta: dict):
        self.data_dir, self.run_dir, self.tracer, self.meta = data_dir, run_dir, tracer, meta
        self.pages = os.path.join(data_dir, "pages.parquet")
        self.n_pages = meta["pages"]
        self.attempted = 0
        self.failed = 0
        self._truth = None
        self._expected = None
        self._n_out = 0
        self.info: dict = {}

    # -- set-up ------------------------------------------------------------
    def setup(self, temp_dir: str) -> dict:
        """Ray session + one warm-up pass over a small slice of the input,
        so workers are started and every module is imported before timing."""
        t0 = time.perf_counter()
        ray_init(temp_dir)
        warm = os.path.join(self.run_dir, "warm.parquet")
        if not os.path.exists(warm):
            pq.write_table(pq.read_table(self.pages).slice(0, 512), warm)
        out = os.path.join(self.run_dir, "out", "warm")
        fused_pass(warm, self.data_dir, out)
        shutil.rmtree(out)
        return {"setup_s": time.perf_counter() - t0}

    def teardown(self) -> None:
        """Nothing outlives a pass: each pass removes its own output."""

    # -- correctness -------------------------------------------------------
    def check_output(self, out_dir: str) -> int:
        """Pages whose committed output differs from the oracle."""
        if self._truth is None:
            t = np.load(os.path.join(self.data_dir, "truth.npz"))
            self._truth = {k: t[k] for k in t.files}
            self._expected = oracle.expected_pairs(self._truth)
        out = oracle.read_output(out_dir, ID_COL)
        self._n_out = out.num_rows
        return oracle.count_wrong_pages(out, self._truth, self._expected, ID_COL)

    def _check_text_sample(self) -> None:
        """Extracted text of the generator's sample pages against the
        visible text it wrote."""
        from osm_search_ray.sources.pages import extract_text_batch

        with open(os.path.join(self.data_dir, "text_sample.json")) as f:
            sample = json.load(f)
        t = pq.read_table(self.pages, columns=["url", "html"]).take(pa.array(sample["rows"]))
        got = extract_text_batch(t).column("text").to_pylist()
        self.attempted += len(got)
        self.failed += sum(g != e for g, e in zip(got, sample["text"]))

    def _record_pass(self, out_dir: str) -> None:
        self.attempted += self.n_pages
        self.failed += self.check_output(out_dir)
        shutil.rmtree(out_dir)

    # -- measurement -------------------------------------------------------
    @staticmethod
    def _passes(seconds: float, fn, min_passes: int) -> list:
        """Run ``fn(k)`` while another pass fits in ``seconds`` (at least
        ``min_passes`` times)."""
        res, t0 = [], time.perf_counter()
        while True:
            ts = time.perf_counter()
            res.append(fn(len(res)))
            last = time.perf_counter() - ts
            if len(res) >= min_passes and time.perf_counter() - t0 + last > seconds:
                return res

    def _timed_fused(self, k: int) -> tuple[float, np.ndarray]:
        """(pass wall, commit latency in ms of every output row)."""
        out = os.path.join(self.run_dir, "out", f"pass{k}")
        start = time.time()
        t0 = time.perf_counter()
        rows = fused_pass(self.pages, self.data_dir, out)
        wall = time.perf_counter() - t0
        lat = _commit_latency_ms(out, rows, start)
        self._record_pass(out)
        return wall, lat

    def measure(self, seconds: float) -> dict:
        """Fused passes for ``seconds``. The host's speed changes from
        second to second, so each figure is a mean over the passes (total
        pages over total wall for throughput), which weighs fast and slow
        spells by the time they last; a median would jump between them."""
        passes = self._passes(seconds, self._timed_fused, _MIN_PASSES)
        self._check_text_sample()
        walls = [w for w, _ in passes]
        p50 = [percentile(lat, 50) for _, lat in passes]
        p95 = [percentile(lat, 95) for _, lat in passes]
        self.info = {"passes": len(walls), "pass_wall_s": [round(w, 3) for w in walls],
                     "pass_p50_ms": [round(x, 1) for x in p50], "pass_p95_ms": [round(x, 1) for x in p95],
                     "output_rows": self._n_out}
        return {
            "throughput_per_s": self.n_pages * len(walls) / sum(walls),
            "latency_p50_ms": float(np.mean(p50)),
        }

    def _staged(self, k: int) -> dict:
        out = os.path.join(self.run_dir, "out", f"staged{k}")
        t0 = time.perf_counter()
        m = staged_pass(self.pages, self.data_dir, out, self.tracer)
        m["wall_s"] = time.perf_counter() - t0
        self._record_pass(out)
        return m

    def _pair(self, k: int) -> tuple[float, dict]:
        """A fused pass without spans and a staged pass with spans, the
        order alternating from pair to pair so a drift in the host's speed
        does not favour one side."""
        if k % 2:
            staged = self._staged(k)
            return self._timed_fused(k)[0], staged
        wall, _ = self._timed_fused(k)
        return wall, self._staged(k)

    def measure_traced(self, seconds: float) -> dict:
        """Pairs of a fused pass (no spans) and a staged pass (spans on);
        per-layer numbers are medians over the staged passes.
        ``trace_overhead_s`` is the median staged-minus-fused wall of a
        pair: what tracing costs here, the spans together with the
        materialization between layers that the spans need."""
        pairs = self._passes(seconds, self._pair, 1)
        self._check_text_sample()
        tr = self.tracer
        staged = [m for _, m in pairs]

        def busy(name: str) -> float:
            return median(tr.durations(name))

        ck = [_checkpoint_metrics(m["manifest"], d) for m, d in zip(staged, tr.durations("checkpoint"))]
        first = staged[0]
        out = {
            "readers.busy_s": busy("readers"),
            "readers.rows": first["readers.rows"],
            "readers.bytes": first["readers.bytes"],
            "readers.blocks": first["readers.blocks"],
            "pages.extract.busy_s": busy("pages.extract"),
            "pages.extract.html_mb": self.meta["html_bytes"] / 1e6,
            "pages.geo.busy_s": busy("pages.geo"),
            "pages.geo.hit_ratio": first["pages.geo.rows"] / self.n_pages,
            "spatial_join.busy_s": busy("spatial_join"),
            "spatial_join.points_in": first["pages.geo.rows"],
            "spatial_join.rows_out": first["spatial_join.rows_out"],
            "checkpoint.busy_s": busy("checkpoint"),
            "ingest.wall_s": median(m["wall_s"] for m in staged),
            "trace_overhead_s": median(m["wall_s"] - w for w, m in pairs),
        }
        for key in ck[0]:
            out[key] = median(c[key] for c in ck)
        self.info = {"pairs": len(pairs), "fused_wall_s": [round(w, 3) for w, _ in pairs],
                     "staged_wall_s": [round(m["wall_s"], 3) for m in staged]}
        return out
