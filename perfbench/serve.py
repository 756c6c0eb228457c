"""The ``serve_mixed`` workload: the HTTP facade (``ServingApp`` +
``start_http_server``) in front of one ``QuerySession`` actor, driven by
``loadgen.py`` in its own process.

Phases: an open loop at a fixed rate (latency from each request's due
time), then a closed loop on the same mix (capacity). Every response is
compared with an answer computed in this process from ``SearchCore``, the
corrector, a brute-force haversine and a ``GeofenceRegistry`` replay of
the requests in the order they were sent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import oracle
from common import BENCH_DIR, median, percentile, ray_init
from loadgen import http_request

# open-loop requests/s: a third of the one-connection capacity when the
# host is slow (60-130 req/s measured), so a slow spell does not build a
# queue; at 50 req/s one took the p50 from 16 ms to 338 ms
RATE = 20.0
OPEN_SHARE = 0.7  # of the measured seconds; the closed loop gets the rest
WINDOW_S = 4.0  # open-loop latency percentiles are taken per window of this length
PING_SAMPLES = 50
OVERHEAD_PAIRS = 4
OVERHEAD_REQUESTS = 60  # per closed-loop block of an overhead pair


class _TimedSession:
    """Wraps the ``QuerySession`` the facade calls, recording a span per
    actor round trip (traced runs only)."""

    def __init__(self, session, tracer):
        self._s, self._tr = session, tracer

    def search(self, df):
        with self._tr.span("serving.actor", route="search"):
            return self._s.search(df)

    def autocomplete(self, df, top_n: int = 3):
        with self._tr.span("serving.actor", route="autocomplete"):
            return self._s.autocomplete(df, top_n=top_n)


class ServeWorkload:
    def __init__(self, name: str, data_dir: str, run_dir: str, tracer, meta: dict):
        self.data_dir, self.run_dir, self.tracer, self.meta = data_dir, run_dir, tracer, meta
        with open(os.path.join(data_dir, "requests.json")) as f:
            r = json.load(f)
        self.initial, self.reqs = r["initial"], r["requests"]
        self.attempted = 0
        self.failed = 0
        self.next_seq = 0
        self.server = None
        self.session = None
        self.info: dict = {}
        self._core = None  # in-process SearchCore: the search oracle

    # -- set-up ------------------------------------------------------------
    def setup(self, temp_dir: str) -> dict:
        """Ray session, text index, LM + corrector, session actor, HTTP
        server, the fence and its initial points, one request per route."""
        from osm_search_ray.pipelines.text_index import build_text_index
        from osm_search_ray.serving import start_session
        from osm_search_ray.serving_http import GeofenceRegistry, ServingApp, start_http_server
        from osm_search_ray.sources.readers import read_pq
        from osm_search_ray.state.lm import build_ngram_lm
        from osm_search_ray.state.spell import SpellCorrector

        docs = os.path.join(self.data_dir, "documents.parquet")
        t0 = time.perf_counter()
        ray_init(temp_dir)
        t1 = time.perf_counter()
        self.index = build_text_index(read_pq(docs, columns=["doc_id", "text", "source"]), text_cols={"text": 0, "source": 1})
        t2 = time.perf_counter()
        lm = build_ngram_lm(read_pq(docs, columns=["doc_id", "text"]), text_cols=["text"])
        self.corrector = SpellCorrector.build(lm.full_vocab, lm)
        t3 = time.perf_counter()
        self.session = start_session(self.index, corrector=self.corrector)
        g = np.load(os.path.join(self.data_dir, "geo.npz"))
        self.geo = (g["doc_id"], g["lat"], g["lon"])
        self.app = ServingApp(_TimedSession(self.session, self.tracer), geo=self.geo, geofences=GeofenceRegistry())
        self.server, self.port = start_http_server(self.app)
        t4 = time.perf_counter()
        # set-up writes, replayed by the oracle before the measured requests
        self.setup_log = [{"route": "fence_create"}] + self.initial
        for req in self.setup_log:
            status, _ = http_request(self.port, req)
            if status != 200:
                raise RuntimeError(f"set-up request {req} failed with {status}")
        for req in ({"route": "search", "q": "spark join"}, {"route": "autocomplete", "q": "spark jo"},
                    {"route": "reverse", "lat": -6.2, "lon": 106.8}):
            http_request(self.port, req)
        t5 = time.perf_counter()
        return {"setup_s": t5 - t0, "text_index.build_s": t2 - t1, "lm.build_s": t3 - t2,
                "serving.session_start_s": t4 - t3}

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.session is not None:
            self.session.stop()
            self.session = None

    # -- load --------------------------------------------------------------
    def _load(self, open_s: float, closed_s: float = 0.0, closed_n: int = 0, start: int | None = None) -> list[dict]:
        """Requests from ``start`` (default: the first not yet sent) on."""
        start = self.next_seq if start is None else start
        out = os.path.join(self.run_dir, f"records-{start}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "loadgen.py"), "--port", str(self.port),
               "--requests", os.path.join(self.data_dir, "requests.json"), "--out", out,
               "--start", str(start), "--rate", str(RATE), "--open-s", str(open_s),
               "--closed-s", str(closed_s), "--closed-n", str(closed_n)]
        p = subprocess.Popen(cmd)
        try:
            rc = p.wait(timeout=open_s + closed_s + 120)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        if rc != 0:
            raise RuntimeError(f"load generator exited with {rc}")
        with open(out) as f:
            recs = json.load(f)
        os.remove(out)
        if recs:
            self.next_seq = max(self.next_seq, recs[-1]["seq"] + 1)
        return recs

    # -- correctness -------------------------------------------------------
    def check(self, recs: list[dict]) -> dict:
        """Count wrong answers; returns in-process layer timings (ms lists)
        taken while computing the expected answers."""
        from osm_search_ray.functions.tokenize import tokenize
        from osm_search_ray.pipelines.search import SearchCore
        from osm_search_ray.serving_http import GeofenceRegistry

        if self._core is None:
            self._core = SearchCore(self.index, self.corrector)
            self._expected: dict = {}
            self._fences = GeofenceRegistry()
            for req in self.setup_log:
                self._apply_fence(req)
        timings: dict[str, list[float]] = {"invocab": [], "typo": [], "autocomplete": [], "add_point": [], "fence_search": []}
        for rec in recs:
            req = self.reqs[rec["seq"] % len(self.reqs)]
            route = req["route"]
            self.attempted += 1
            if rec["status"] != 200:
                self.failed += 1
                continue
            got = json.loads(rec["body"])
            if route == "search":
                key = ("s", req["q"])
                if key not in self._expected:
                    t = time.perf_counter()
                    df = self._core.search_rows([{"query_id": 0, "text": req["q"]}])
                    timings[req["kind"]].append((time.perf_counter() - t) * 1000)
                    df = df.sort_values("rank")
                    self._expected[key] = (df["doc_id"].astype(int).tolist(), df["score"].astype(float).tolist(), df["rank"].astype(int).tolist())
                ids, scores, ranks = self._expected[key]
                res = got.get("results", [])
                ok = ([r["doc_id"] for r in res] == ids and [r["rank"] for r in res] == ranks
                      and np.allclose([r["score"] for r in res], scores, rtol=1e-12, atol=0.0))
            elif route == "autocomplete":
                key = ("a", req["q"])
                if key not in self._expected:
                    t = time.perf_counter()
                    cands = self.corrector.autocomplete(tokenize(req["q"]), top_n=3)
                    timings["autocomplete"].append((time.perf_counter() - t) * 1000)
                    self._expected[key] = [c[-1] for c in cands]
                ok = got.get("completions") == self._expected[key]
            elif route == "reverse":
                doc, gap = oracle.nearest_doc(req["lat"], req["lon"], *self.geo)
                ok = got.get("doc_id") == doc or gap < 1e-9
            else:
                t = time.perf_counter()
                want = self._apply_fence(req)
                timings["add_point" if route == "fence_add" else "fence_search"].append((time.perf_counter() - t) * 1000)
                ok = got == want
            if not ok:
                self.failed += 1
        return timings

    def _apply_fence(self, req: dict) -> dict:
        route = req["route"]
        if route == "fence_create":
            return self._fences.add_fence("bench")
        if route == "fence_add":
            return self._fences.add_point("bench", req["name"], req["lat"], req["lon"], req["radius"])
        return self._fences.search("bench", req["lat"], req["lon"], req["qp"])

    # -- measurement -------------------------------------------------------
    def measure(self, seconds: float) -> dict:
        """The open loop, then the closed loop. The host's speed changes
        from second to second, so the latency percentiles are taken per
        WINDOW_S window of the open loop and averaged over the windows:
        fast and slow spells weigh by the time they last, where one
        percentile over the whole loop would jump between them."""
        open_s = OPEN_SHARE * seconds
        recs = self._load(open_s, closed_s=seconds - open_s)
        self.check(recs)
        opened = [r for r in recs if r["phase"] == "open"]
        closed = [r for r in recs if r["phase"] == "closed"]
        span = closed[-1]["done"] - closed[0]["sent"] if closed else 0.0
        t0 = opened[0]["due"]
        windows: dict[int, list[dict]] = {}
        for r in opened:
            windows.setdefault(int((r["due"] - t0) // WINDOW_S), []).append(r)

        def ms(rs, route=None):
            return [(r["done"] - r["due"]) * 1000 for r in rs if route is None or r["route"] == route]

        # the mix's routes form latency clusters and search is half the
        # mix, so an all-route median sits on a cluster edge and jumps
        # between runs; the search median does not
        p50 = [percentile(ms(w, "search"), 50) for w in windows.values() if ms(w, "search")]
        # the tail is reported, not bounded: a slow spell of the host moves
        # it by half from run to run (see WORKLOADS.md)
        self.info = {"open_requests": len(opened), "closed_requests": len(closed), "windows": len(windows),
                     "window_p50_ms.search": [round(x, 2) for x in p50],
                     "window_p95_ms.all": [round(percentile(ms(w), 95), 2) for w in windows.values()],
                     "open_p95_ms.all": round(percentile(ms(opened), 95), 3),
                     "open_p99_ms.all": round(percentile(ms(opened), 99), 3)}
        self.info.update({f"open_p50_ms.{k}": round(percentile(ms(opened, k), 50), 3)
                          for k in ("search", "autocomplete", "reverse", "fence_status", "fence_add")})
        return {
            "throughput_per_s": len(closed) / span if span > 0 else 0.0,
            "latency_p50_ms": float(np.mean(p50)),
        }

    def measure_traced(self, seconds: float) -> dict:
        """OVERHEAD_PAIRS pairs of closed-loop blocks of the same requests,
        one with spans off and one with spans on (the median of their wall
        differences is the tracing overhead), then the open loop with spans
        on; the in-process layer timings come from computing the expected
        answers."""
        tr = self.tracer

        def wall(rs):
            return rs[-1]["done"] - rs[0]["sent"]

        diffs, blocks = [], []
        t_begin = time.perf_counter()
        for k in range(OVERHEAD_PAIRS):
            # alternate which block of a pair goes first, so a drift in the
            # host's speed does not favour one side
            pair, start = {}, self.next_seq
            for enabled in ((False, True) if k % 2 == 0 else (True, False)):
                tr.enabled = enabled
                pair[enabled] = self._load(0.0, closed_n=OVERHEAD_REQUESTS, start=start)
            tr.enabled = True
            diffs.append(wall(pair[True]) - wall(pair[False]))
            blocks.append(pair)
        recs = self._load(max(1.0, seconds - (time.perf_counter() - t_begin)))
        for r in [r for b in blocks for r in b[True]] + recs:
            tr.add(f"http.{r['route']}", r["sent"], r["done"], request=r["seq"], phase=r["phase"])
        # the geofence replay needs the requests in the order they were sent
        timings = self.check(sorted((r for b in blocks for rs in b.values() for r in rs), key=lambda r: r["sent"]) + recs)
        pings = []
        for _ in range(PING_SAMPLES):
            t = time.perf_counter()
            self.session.warmup()
            pings.append((time.perf_counter() - t) * 1000)

        actor = {"search": [], "autocomplete": []}
        # each actor span lies inside exactly one request span: pair them by time
        http = sorted((s for s in tr.spans if s["name"].startswith("http.")), key=lambda s: s["start"])
        starts = np.array([s["start"] for s in http])
        overhead = {"search": [], "autocomplete": []}
        for s in tr.spans:
            if s["name"] != "serving.actor" or s["start"] < t_begin:
                continue
            route = s["attrs"]["route"]
            actor[route].append((s["end"] - s["start"]) * 1000)
            k = int(np.searchsorted(starts, s["start"])) - 1
            if k >= 0 and s["end"] <= http[k]["end"]:
                h = http[k]
                s["parent"] = h["id"]
                overhead[route].append(((h["end"] - h["start"]) - (s["end"] - s["start"])) * 1000)

        late = [(r["sent"] - r["due"]) * 1000 for r in recs if r["phase"] == "open"]
        self.info = {"overhead_pair_diff_s": [round(d, 4) for d in diffs], "open_requests": len(late)}
        return {
            "serving.actor_ms_p50": median(actor["search"]),
            "serving.ping_ms_p50": median(pings),
            "serving_http.overhead_ms_p50.search": median(overhead["search"]),
            "serving_http.overhead_ms_p50.autocomplete": median(overhead["autocomplete"]),
            "search.core_ms_p50.invocab": median(timings["invocab"]),
            "search.core_ms_p50.typo": median(timings["typo"]),
            "spell.autocomplete_ms_p50": median(timings["autocomplete"]),
            "geofence.add_point_ms_p50": median(timings["add_point"]),
            "geofence.search_ms_p50": median(timings["fence_search"]),
            "loadgen.late_ms_p99": percentile(late, 99),
            "trace_overhead_s": median(diffs),
        }
